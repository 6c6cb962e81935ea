"""Seeded benchmark worlds and the correctness gate every pass must clear.

A world is the simulator's acceptance template scaled up: its cohorts are
copied into blocks of 18 cells and every ``count=`` is multiplied. The
seed shuffles which cell number each copied cell gets and the order the
cells appear in, so a seed changes probe ids, AS numbers and public
gateway choices while the size of the world stays fixed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

#: A copy of ``simharness.generate.ACCEPTANCE_TEMPLATE``, kept here so the
#: benchmark's inputs stay fixed when the program's template changes.
TEMPLATE = """\
cell=1  count=3 resolver=dns64  nat=working prefix=standard
cell=2  count=2 resolver=dns64  nat=working prefix=custom   location=remote
cell=3  count=2 resolver=dns64  nat=working prefix=custom   nprefixes=2
cell=4  count=2 resolver=dns64  nat=working prefix=standard scope=arpa_only
cell=5  count=1 resolver=plain  nat=working prefix=standard
cell=6  count=1 resolver=dns64  nat=working prefix=custom
cell=6  count=1 resolver=plain  nat=working prefix=custom
cell=7  count=2 resolver=dns64  nat=none    prefix=standard
cell=8  count=2 resolver=broken nat=none    prefix=standard
cell=9  count=3 resolver=plain  nat=none    prefix=standard
cell=10 count=2 resolver=public nat=working prefix=standard
cell=11 count=2 resolver=public nat=working prefix=public   location=remote
cell=12 count=1 resolver=plain  nat=working prefix=public   location=remote
cell=13 count=2 resolver=dns64  nat=working prefix=standard location=home
cell=14 count=2 resolver=dns64  nat=working prefix=custom   icmp=opaque
cell=15 count=1 resolver=dns64  nat=working prefix=standard icmp=opaque location=remote
cell=16 count=1 resolver=dns64  nat=broken  prefix=standard
cell=17 count=1 resolver=dns64  nat=working prefix=both     v4as=split
cell=18 count=1 resolver=dns64  nat=working prefix=standard anomaly=ttl
"""

# The simulator numbers each probe's /64 as 0x1000 + cell*64 + index, so a
# cell with more than 64 probes takes a neighbour's numbers, and it writes
# the cell into an IPv4 octet, so a cell above 255 cannot be built.
MAX_PROBES_PER_CELL = 64
MAX_CELL = 255

SIMULATE_FILES = ("dataset.ndjson", "ip2as.tsv", "truth.json")

_CELL = re.compile(r"\bcell=(\d+)")
_COUNT = re.compile(r"\bcount=(\d+)")


class WorldError(ValueError):
    """The requested world cannot be built faithfully by the simulator."""


@dataclass(frozen=True)
class WorldSpec:
    """The template copied into ``blocks`` blocks with counts times ``mult``."""

    mult: int
    blocks: int


def _template_cells() -> List[List[str]]:
    cells: Dict[int, List[str]] = {}
    for line in TEMPLATE.splitlines():
        cells.setdefault(int(_CELL.search(line).group(1)), []).append(line)
    return [cells[c] for c in sorted(cells)]


def scenario_text(spec: WorldSpec, seed: int) -> str:
    """The scenario file for one world; refuses worlds the plan cannot build."""
    rng = random.Random(seed)
    units = [lines for _ in range(spec.blocks) for lines in _template_cells()]
    numbers = list(range(1, len(units) + 1))
    rng.shuffle(units)
    rng.shuffle(numbers)
    out = []
    for number, lines in zip(numbers, units):
        for line in lines:
            line = _CELL.sub(f"cell={number}", line)
            line = _COUNT.sub(lambda m: f"count={int(m.group(1)) * spec.mult}", line)
            out.append(line)
    text = "\n".join(out) + "\n"
    check_buildable(text)
    return text


def check_buildable(text: str) -> None:
    """Raise WorldError for a cell the simulator's address plan would alias."""
    per_cell: Dict[int, int] = {}
    for line in text.splitlines():
        cell = int(_CELL.search(line).group(1))
        per_cell[cell] = per_cell.get(cell, 0) + int(_COUNT.search(line).group(1))
    for cell, count in sorted(per_cell.items()):
        if cell > MAX_CELL:
            raise WorldError(
                f"cell {cell} is above {MAX_CELL}, which the address plan cannot build"
            )
        if count > MAX_PROBES_PER_CELL:
            raise WorldError(
                f"cell {cell} holds {count} probes; above {MAX_PROBES_PER_CELL} "
                f"the address plan gives two probes the same /64"
            )


def check_unique_networks(dataset_path: Path) -> int:
    """Raise WorldError if two probes share a network prefix; return record count."""
    owners: Dict[str, str] = {}
    records = 0
    with open(dataset_path, "r", encoding="ascii") as handle:
        next(handle)
        for line in handle:
            records += 1
            if '"record":"probe"' not in line:
                continue
            doc = json.loads(line)
            other = owners.setdefault(doc["network_prefix_v6"], doc["probe_id"])
            if other != doc["probe_id"]:
                raise WorldError(
                    f"probes {other} and {doc['probe_id']} share {doc['network_prefix_v6']}"
                )
    return records


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def digests(root: Path) -> Dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {
        str(path.relative_to(root)): sha256(path)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


# ------------------------------------------------------------------ gate


@dataclass(frozen=True)
class Expected:
    """What a correct pass must produce for one world."""

    truth: dict
    oracle: dict
    simulate: Dict[str, str]


def expected_for(world: Path) -> Expected:
    """Truth from the sidecar and aggregate statistics from the numpy oracle.

    Path pairing and filtering come from the package, as in the test
    suite's oracle check; the groups come from the planted truth, not
    from the detector.
    """
    from nat64scope.acquire.dataset import load_dataset
    from nat64scope.pathlab import filter_pairs, pair_paths
    from nat64scope.simharness import oracle_stats

    truth = json.loads((world / "truth.json").read_text(encoding="utf-8"))
    groupings: Dict[str, List[str]] = {}
    for pid, planted in sorted(truth["probes"].items()):
        groupings.setdefault(planted["group"], []).append(pid)
    dataset = load_dataset(str(world / "dataset.ndjson"))
    kept, _ = filter_pairs(pair_paths(dataset.paths)[0])
    return Expected(
        truth=truth,
        oracle=oracle_stats(kept, groupings),
        simulate={name: sha256(world / name) for name in SIMULATE_FILES},
    )


def _close(got, want, rel: float) -> bool:
    numeric = (int, float)
    if isinstance(got, bool) or isinstance(want, bool):
        return got is want
    if isinstance(got, numeric) and isinstance(want, numeric):
        return math.isclose(got, want, rel_tol=rel, abs_tol=rel)
    return got == want


def doc_diff(got, want, rel: float = 1e-9, path: str = "stats") -> List[str]:
    """Field-by-field differences between two JSON documents."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{path}: keys differ"]
        return [p for key in want for p in doc_diff(got[key], want[key], rel, f"{path}.{key}")]
    if not _close(got, want, rel):
        return [f"{path}: {got!r} != {want!r}"]
    return []


def _read_json(path: Path) -> Tuple[object, List[str]]:
    try:
        return json.loads(path.read_text(encoding="utf-8")), []
    except (OSError, ValueError) as exc:
        return None, [f"{path.name}: {exc}"]


def _check_detect(out: Path, exp: Expected) -> List[str]:
    doc, problems = _read_json(out / "detection.json")
    if problems:
        return problems
    got = doc["probes"]
    if sorted(got) != sorted(exp.truth["probes"]):
        return ["detection.json: probe ids differ from truth"]
    for pid, planted in exp.truth["probes"].items():
        if got[pid]["group"] != planted["group"] or got[pid]["flags"] != planted["flags"]:
            problems.append(f"detection.json: {pid} group or flags differ from truth")
    return problems


def _check_classify(out: Path, exp: Expected) -> List[str]:
    doc, problems = _read_json(out / "classification.json")
    if problems:
        return problems
    isp = sorted(int(asn) for asn, ev in doc["evidence"].items() if ev["is_isp_dns64"])
    if isp != exp.truth["isp_dns64_ases"]:
        problems.append(f"classification.json: ISP DNS64 ASes {isp} != truth")
    probes = doc["probes"]
    if sorted(probes) != sorted(exp.truth["probes"]):
        return problems + ["classification.json: probe ids differ from truth"]
    unlocated, opaque = set(), set()
    for pid, planted in exp.truth["probes"].items():
        where = probes[pid]["nat_location"]
        if where is not None and where != planted["nat_location"]:
            problems.append(f"classification.json: {pid} located {where}, planted elsewhere")
        if where is None and planted["nat_location"] is not None:
            unlocated.add(pid)
        if planted["opaque"]:
            opaque.add(pid)
    if unlocated != opaque:
        problems.append("classification.json: unlocated probes are not exactly the opaque ones")
    return problems


def _check_paths(out: Path, exp: Expected) -> List[str]:
    doc, problems = _read_json(out / "summary.json")
    if problems:
        return problems
    problems = doc_diff(doc["stats"], exp.oracle)
    excluded = doc["accounting"]["excluded"].get("NoNatHop", 0)
    if excluded != exp.truth["opaque_pair_count"]:
        problems.append(f"summary.json: {excluded} NoNatHop exclusions != planted opaque pairs")
    if doc["stats"]["ttl_anomaly_pairs"] != exp.truth["ttl_anomaly_pair_count"]:
        problems.append("summary.json: TTL-anomaly pairs != planted count")
    return problems


def _check_simulate(out: Path, exp: Expected) -> List[str]:
    return [
        f"{name}: differs from the world built with the same scenario and seed"
        for name, digest in exp.simulate.items()
        if not (out / name).is_file() or sha256(out / name) != digest
    ]


CHECKS = {
    "simulate": _check_simulate,
    "detect": _check_detect,
    "classify": _check_classify,
    "paths": _check_paths,
}


def check_outputs(pass_dir: Path, exp: Expected) -> Dict[str, List[str]]:
    """Problems per command for one pass, whose outputs sit in ``pass_dir/<command>``."""
    found = {}
    for command, check in CHECKS.items():
        try:
            found[command] = check(pass_dir / command, exp)
        except (KeyError, TypeError, AttributeError) as exc:
            found[command] = [f"malformed output: {exc!r}"]
    return found
