"""In-process spans around the program's layers, installed from outside.

The tracer replaces module attributes the program calls through with
timing wrappers and puts the originals back afterwards, so the program
itself carries no tracing code. Stage calls get one span each (name,
start, end, parent, pass id); per-item calls that run thousands of times
a pass get a call counter and accumulated time instead.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from typing import Callable, Dict, Iterator, List, Set

# (module[:class], attribute, kind, trace name). Spans sit on the names
# ``nat64scope.cli`` imported, so they time exactly the calls commands make.
POINTS = (
    ("nat64scope.cli", "cmd_simulate", "span", "cli.simulate"),
    ("nat64scope.cli", "cmd_detect", "span", "cli.detect"),
    ("nat64scope.cli", "cmd_classify", "span", "cli.classify"),
    ("nat64scope.cli", "cmd_paths", "span", "cli.paths"),
    ("nat64scope.cli", "load_dataset", "span", "acquire.dataset.load"),
    ("nat64scope.cli", "write_dataset", "span", "acquire.dataset.write"),
    ("nat64scope.acquire.dataset", "validate", "tally", "acquire.dataset.validate"),
    ("nat64scope.acquire.ip2as:Ip2AsTable", "load", "span", "acquire.ip2as.load"),
    ("nat64scope.acquire.ip2as:Ip2AsTable", "lookup", "tally", "acquire.ip2as.lookup"),
    ("nat64scope.cli", "detect_dataset", "span", "detector.detect_dataset"),
    ("nat64scope.cli", "group_runs_by_as", "span", "classifier.group_runs_by_as"),
    ("nat64scope.cli", "detect_isp_dns64", "span", "classifier.detect_isp_dns64"),
    ("nat64scope.cli", "detect_local_nat64", "tally", "classifier.detect_local_nat64"),
    ("nat64scope.cli", "categorize_probe", "tally", "classifier.categorize_probe"),
    ("nat64scope.cli", "pair_paths", "span", "pathlab.pair_paths"),
    ("nat64scope.cli", "filter_pairs", "span", "pathlab.filter_pairs"),
    ("nat64scope.cli", "compute_metrics", "span", "pathlab.compute_metrics"),
    ("nat64scope.cli", "attribute_nat64_as", "tally", "pathlab.attribute_nat64_as"),
    ("nat64scope.cli", "aggregate_report", "span", "pathlab.aggregate_report"),
    ("nat64scope.pathlab", "synthesize", "tally", "addrsynth.synthesize"),
    ("nat64scope.simharness", "parse_scenario", "span", "simharness.parse_scenario"),
    ("nat64scope.simharness", "generate", "span", "simharness.generate"),
)


def _count_filter(counts: Dict[str, int], args, result) -> None:
    counts["pairs"] = counts.get("pairs", 0) + len(args[0])
    counts["kept"] = counts.get("kept", 0) + len(result[0])


def _count_metrics(counts: Dict[str, int], args, result) -> None:
    counts["metrics_in"] = counts.get("metrics_in", 0) + len(args[0])
    counts["usable"] = counts.get("usable", 0) + sum(m is not None for m in result)


def _count_load(counts: Dict[str, int], args, result) -> None:
    records = len(result.probes) + len(result.runs) + len(result.paths)
    counts["records_in"] = max(counts.get("records_in", 0), records)


#: Work counted where it happens, from a span's arguments and result.
COUNTERS: Dict[str, Callable] = {
    "pathlab.filter_pairs": _count_filter,
    "pathlab.compute_metrics": _count_metrics,
    "acquire.dataset.load": _count_load,
}


class Tracer:
    """Spans and tallies kept in memory until the run writes them once."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index, pass id, leaf seconds].
        self.spans: List[list] = []
        self.tallies: Dict[int, Dict[str, List[float]]] = {}
        self.counts: Dict[int, Dict[str, int]] = {}
        self.pass_id = 0
        self.missing: Set[str] = set()
        self._stack: List[int] = []
        self._leaf_depth = 0

    def span(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent, self.pass_id, 0.0])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if counter is not None:
                counter(self.counts.setdefault(self.pass_id, {}), args, result)
            return result

        return traced

    def tally(self, name: str, fn: Callable) -> Callable:
        def tallied(*args, **kwargs):
            self._leaf_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._leaf_depth -= 1
                entry = self.tallies.setdefault(self.pass_id, {}).setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                # Only the outermost leaf call is charged to the enclosing
                # span, so nested leaves are not subtracted twice.
                if self._leaf_depth == 0 and self._stack:
                    self.spans[self._stack[-1]][5] += elapsed

        return tallied

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every trace point for the duration of the block."""
        undo = []
        try:
            for where, attr, kind, name in POINTS:
                module_name, _, class_name = where.partition(":")
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                original = vars(owner).get(attr)
                if original is None:
                    self.missing.add(f"{where}.{attr}")
                    continue
                wrap = self.span if kind == "span" else self.tally
                if isinstance(original, classmethod):
                    replacement = classmethod(wrap(name, original.__func__))
                else:
                    replacement = wrap(name, original)
                setattr(owner, attr, replacement)
                undo.append((owner, attr, original))
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -------------------------------------------------------- derivation

    def layer_metrics(self, pass_id: int, output_bytes: int) -> Dict[str, float]:
        """Per-layer numbers of one traced pass."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        busy: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        child_time: Dict[int, float] = {}
        for _, (name, start, end, parent, _, _) in spans:
            busy[name] = busy.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        self_time: Dict[str, float] = {}
        for index, (name, start, end, _, _, leaf) in spans:
            own = end - start - child_time.get(index, 0.0) - leaf
            self_time[name] = self_time.get(name, 0.0) + own
        tallies = self.tallies.get(pass_id, {})
        counts = self.counts.get(pass_id, {})

        def tally_s(name: str) -> float:
            return tallies.get(name, [0, 0.0])[1]

        def ratio(num: str, den: str) -> float:
            return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

        return {
            "acquire.dataset.load_s": busy.get("acquire.dataset.load", 0.0),
            "acquire.dataset.validate_s": tally_s("acquire.dataset.validate"),
            "acquire.dataset.load_calls": calls.get("acquire.dataset.load", 0),
            "acquire.dataset.write_s": busy.get("acquire.dataset.write", 0.0),
            "acquire.dataset.records_in": counts.get("records_in", 0),
            "acquire.ip2as.load_s": busy.get("acquire.ip2as.load", 0.0),
            "acquire.ip2as.lookups": tallies.get("acquire.ip2as.lookup", [0])[0],
            "detector.detect_dataset_s": busy.get("detector.detect_dataset", 0.0),
            "detector.detect_dataset_calls": calls.get("detector.detect_dataset", 0),
            "classifier.group_runs_by_as_s": busy.get("classifier.group_runs_by_as", 0.0),
            "classifier.detect_isp_dns64_s": busy.get("classifier.detect_isp_dns64", 0.0),
            "classifier.detect_local_nat64_s": tally_s("classifier.detect_local_nat64"),
            "classifier.categorize_probe_s": tally_s("classifier.categorize_probe"),
            "pathlab.pair_paths_s": busy.get("pathlab.pair_paths", 0.0),
            "pathlab.pair_paths_calls": calls.get("pathlab.pair_paths", 0),
            "pathlab.filter_pairs_s": busy.get("pathlab.filter_pairs", 0.0),
            "pathlab.compute_metrics_s": busy.get("pathlab.compute_metrics", 0.0),
            "pathlab.attribute_nat64_as_s": tally_s("pathlab.attribute_nat64_as"),
            "pathlab.aggregate_report_s": busy.get("pathlab.aggregate_report", 0.0),
            "pathlab.kept_ratio": ratio("kept", "pairs"),
            "pathlab.usable_ratio": ratio("usable", "metrics_in"),
            "addrsynth.synthesize_calls": tallies.get("addrsynth.synthesize", [0])[0],
            "simharness.parse_scenario_s": busy.get("simharness.parse_scenario", 0.0),
            "simharness.generate_s": busy.get("simharness.generate", 0.0),
            "cli.simulate.self_s": self_time.get("cli.simulate", 0.0),
            "cli.detect.self_s": self_time.get("cli.detect", 0.0),
            "cli.classify.self_s": self_time.get("cli.classify", 0.0),
            "cli.paths.self_s": self_time.get("cli.paths", 0.0),
            "cli.output_bytes": output_bytes,
        }

    def span_records(self) -> List[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "pass": k, "leaf_s": leaf}
            for n, s, e, p, k, leaf in self.spans
        ]


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def median_metrics(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    """Median of each metric over the traced passes."""
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
