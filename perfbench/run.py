"""Pipeline benchmark for the ``nat64scope`` command-line tool.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload deep --seed 1 --seconds 50 --trace 0

Each run builds one seeded simulated world with the checkout's own
``nat64scope simulate``, then repeats passes of the four file-to-file
commands (simulate, detect, classify, paths) until ``--seconds`` of
command time have been measured. With ``--trace 0`` every command runs as
a child process, one at a time, and the run reports end-to-end wall time
per command. With ``--trace 1`` the commands run in this process through
``nat64scope.cli.main``, alternating untraced and traced passes, and the
run reports per-layer numbers from spans plus its tracing overhead.

Every pass is checked outside the timed region against the planted truth
and the numpy oracle (see ``worlds.py``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Spans, digests and a machine note go to
``perfbench/_work/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tracing import Tracer, median_metrics, unit_of
from worlds import (
    WorldError,
    WorldSpec,
    check_outputs,
    check_unique_networks,
    digests,
    expected_for,
    scenario_text,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# deep: 672 probes in 18 cells, about 11.7k records; per-record decode and
# validation dominate. wide: 448 probes over 252 cells, about 7.8k records
# and 75 translation prefixes; per-prefix and per-AS fan-out dominate. Both
# keep a pass near 5 seconds, so a run takes about ten samples of each
# command.
WORKLOADS = {
    "deep": WorldSpec(mult=21, blocks=1),
    "wide": WorldSpec(mult=1, blocks=14),
}
#: The untimed world every command runs on once first, so bytecode
#: compilation and first-import costs fall outside the timed region.
WARMUP = WorldSpec(mult=1, blocks=1)

COMMANDS = ("simulate", "detect", "classify", "paths")
ANALYSIS = ("detect", "classify", "paths")
MIN_PASSES = 3
HELP_SAMPLES = 6  # taken before and again after the passes

UNITS = {
    "simulate_s": "s",
    "detect_s": "s",
    "classify_s": "s",
    "paths_s": "s",
    "records_per_s": "records/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: The installed ``nat64scope`` script, spelled out for a checkout where
#: the package is reached through PYTHONPATH instead.
ENTRY = "import sys; from nat64scope.cli import main; sys.exit(main())"


class SetupError(RuntimeError):
    """The benchmark could not prepare its world; no result is printed."""


def command_argv(command: str, world: Path, out: Path, seed: int) -> List[str]:
    if command == "simulate":
        return ["simulate", "--scenario", str(world / "scenario.txt"),
                "--seed", str(seed), "--out", str(out)]
    argv = [command, "--from-dataset", str(world / "dataset.ndjson"), "--out", str(out)]
    if command == "classify":
        argv += ["--config", str(world / "config.json")]
    return argv


def run_cli(argv: List[str], log: Path) -> Tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and exit code of one child command.

    The RSS comes from ``wait4`` on this child alone; ``RUSAGE_CHILDREN``
    is a running maximum over every child and would hide a drop.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "ab") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", ENTRY, *argv],
            env=env, cwd=log.parent, stdin=subprocess.DEVNULL, stdout=sink, stderr=sink,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # an interrupted run leaves no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def build_world(spec: WorldSpec, seed: int, world: Path, logs: Path) -> int:
    """Write the scenario, simulate the world, and return its record count."""
    world.mkdir(parents=True)
    (world / "scenario.txt").write_text(scenario_text(spec, seed), encoding="utf-8")
    argv = command_argv("simulate", world, world, seed)
    _, _, code = run_cli(argv, logs / f"build-{world.name}.log")
    if code != 0:
        raise SetupError(f"simulate exited {code} while building {world.name}")
    config = {"ip2as": str(world / "ip2as.tsv")}
    (world / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return check_unique_networks(world / "dataset.ndjson")


def warm_up(world: Path, seed: int, logs: Path) -> None:
    for command in ANALYSIS:
        _, _, code = run_cli(
            command_argv(command, world, world.parent / f"warmup-{command}", seed),
            logs / "warmup.log",
        )
        if code != 0:
            raise SetupError(f"warm-up {command} exited {code}")


# ------------------------------------------------------------------ gate


class Gate:
    """Checks each pass and keeps the tally of operations and failures."""

    def __init__(self, world: Path) -> None:
        self.world = world
        self.expected = expected_for(world)
        self.world_state = digests(world)
        self.reference: Optional[Dict[str, str]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def count(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def check(self, pass_dir: Path, codes: Dict[str, int]) -> None:
        found = check_outputs(pass_dir, self.expected)
        for command, code in codes.items():
            if code != 0:
                found[command].insert(0, f"exited {code}")
        outputs = digests(pass_dir)
        if self.reference is None:
            self.reference = outputs
        for name in sorted(set(outputs) | set(self.reference)):
            if outputs.get(name) != self.reference.get(name):
                found[name.split("/")[0]].append(f"{name}: bytes differ from the first pass")
        if digests(self.world) != self.world_state:
            for command in ANALYSIS:
                found[command].append("the world directory changed during the pass")
        for command in COMMANDS:
            detail = "; ".join(found[command][:3])
            self.count(not found[command], f"{pass_dir.name} {command}: {detail}")


def _output_bytes(pass_dir: Path) -> int:
    return sum(p.stat().st_size for p in pass_dir.rglob("*") if p.is_file())


# ------------------------------------------------------- child processes


def keep_going(passes: int, timed: float, seconds: float) -> bool:
    """Another pass while the minimum is unmet or it ends nearer ``seconds``."""
    return passes < MIN_PASSES or timed + timed / passes / 2 < seconds


def child_passes(world: Path, seed: int, seconds: float, records: int,
                 run_dir: Path, gate: Gate) -> Tuple[Dict[str, float], dict]:
    """End-to-end medians, and every sample they were taken from."""
    logs = run_dir / "logs"
    help_s: List[float] = []

    def sample_help() -> None:
        for _ in range(HELP_SAMPLES):
            wall, _, code = run_cli(["--help"], logs / "help.log")
            gate.count(code == 0, f"--help exited {code}")
            help_s.append(wall)

    sample_help()
    walls: Dict[str, List[float]] = {c: [] for c in COMMANDS}
    rss: List[float] = []
    rates: List[float] = []
    timed = 0.0
    while keep_going(len(rss), timed, seconds):
        pass_dir = run_dir / f"pass{len(rss)}"
        codes: Dict[str, int] = {}
        peak = 0.0
        for command in COMMANDS:
            argv = command_argv(command, world, pass_dir / command, seed)
            wall, mb, codes[command] = run_cli(argv, logs / f"{pass_dir.name}.log")
            walls[command].append(wall)
            timed += wall
            peak = max(peak, mb)
        rss.append(peak)
        rates.append(records / sum(walls[c][-1] for c in ANALYSIS))
        gate.check(pass_dir, codes)
        shutil.rmtree(pass_dir)
    sample_help()
    samples = {f"{c}_s": walls[c] for c in COMMANDS}
    samples.update(records_per_s=rates, peak_rss_mb=rss, setup_s=help_s)
    return {name: statistics.median(values) for name, values in samples.items()}, samples


# ------------------------------------------------------------ in process


def call_main(main, argv: List[str], log: Path) -> int:
    """One in-process command; any exception counts as exit 1."""
    with open(log, "a", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the pass goes on; the gate counts the failure
            traceback.print_exc(file=sink)
            return 1


def traced_passes(world: Path, warmup: Path, seed: int, seconds: float,
                  run_dir: Path, gate: Gate) -> Tuple[Dict[str, float], Tracer, dict]:
    from nat64scope import cli

    logs = run_dir / "logs"
    for command in COMMANDS:
        out = warmup.parent / f"inproc-{command}"
        call_main(cli.main, command_argv(command, warmup, out, seed), logs / "warmup.log")

    tracer = Tracer()
    walls: Dict[bool, List[float]] = {False: [], True: []}
    per_pass: List[Dict[str, float]] = []
    timed = 0.0
    while keep_going(len(per_pass), timed, seconds):
        # An untraced and a traced pass back to back, so the overhead
        # compares the same commands under the same machine conditions.
        for traced in (False, True):
            n = tracer.pass_id = len(walls[False]) + len(walls[True])
            pass_dir = run_dir / f"pass{n}"
            codes: Dict[str, int] = {}
            wall = 0.0
            gc.collect()
            with tracer.installed() if traced else contextlib.nullcontext():
                for command in COMMANDS:
                    argv = command_argv(command, world, pass_dir / command, seed)
                    start = time.perf_counter()
                    codes[command] = call_main(cli.main, argv, logs / f"{pass_dir.name}.log")
                    wall += time.perf_counter() - start
            walls[traced].append(wall)
            timed += wall
            if traced:
                per_pass.append(tracer.layer_metrics(n, _output_bytes(pass_dir)))
            gate.check(pass_dir, codes)
            shutil.rmtree(pass_dir)
    metrics = median_metrics(per_pass)
    # Each traced pass is divided by the untraced pass just before it, so
    # machine drift slower than one pair cancels out of the ratio.
    ratio = statistics.median(t / u for u, t in zip(walls[False], walls[True]))
    metrics["trace.overhead_ratio"] = ratio
    overhead = {
        "untraced_pass_s": statistics.median(walls[False]),
        "traced_pass_s": statistics.median(walls[True]),
        "ratio": ratio,
        "passes_each": [len(walls[False]), len(walls[True])],
        "unwrapped_points": sorted(tracer.missing),
    }
    return metrics, tracer, overhead


# ------------------------------------------------------------- reporting


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_note(args) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args) -> Tuple[dict, dict]:
    """Measure one workload; returns the printed result and the full record."""
    if not (SRC / "nat64scope" / "cli.py").is_file():
        raise SetupError(f"no nat64scope sources under {SRC}")
    sys.path.insert(0, str(SRC))
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "logs").mkdir(parents=True)
    note = machine_note(args)
    try:
        warmup = run_dir / "warmup" / "world"
        build_world(WARMUP, args.seed, warmup, run_dir / "logs")
        warm_up(warmup, args.seed, run_dir / "logs")
        world = run_dir / "world"
        records = build_world(WORKLOADS[args.workload], args.seed, world, run_dir / "logs")
        gate = Gate(world)
        record: dict = {"machine": note, "records": records}
        if args.trace:
            metrics, tracer, record["tracing_overhead"] = traced_passes(
                world, warmup, args.seed, args.seconds, run_dir, gate)
            (run_dir / "spans.json").write_text(json.dumps(
                {"spans": tracer.span_records(),
                 "tallies": {str(k): v for k, v in tracer.tallies.items()},
                 "counts": {str(k): v for k, v in tracer.counts.items()}}))
            units = {name: unit_of(name) for name in metrics}
        else:
            metrics, record["samples"] = child_passes(
                world, args.seed, args.seconds, records, run_dir, gate)
            units = UNITS
        record["first_pass_sha256"] = gate.reference
    finally:
        for leftover in ("world", "warmup"):
            shutil.rmtree(run_dir / leftover, ignore_errors=True)
    note["loadavg_after"] = os.getloadavg()
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update(result=result, problems=gate.problems)
    (run_dir / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    return result, record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = run(args)
    except (SetupError, WorldError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in record["problems"][:10]:
        print(f"gate: {problem}", file=sys.stderr)
    if "tracing_overhead" in record:
        over = record["tracing_overhead"]
        print(f"tracing overhead: traced pass {over['traced_pass_s']:.3f} s vs "
              f"untraced {over['untraced_pass_s']:.3f} s, paired ratio {over['ratio']:.3f}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
