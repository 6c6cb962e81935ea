"""Tests of the benchmark itself: the gate must fire, and a tiny run must pass.

Run from the root of a checkout with ``python -m pytest perfbench``.
"""

import json
import shutil
import sys
from argparse import Namespace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
from worlds import (  # noqa: E402
    WorldError,
    WorldSpec,
    check_outputs,
    check_unique_networks,
    expected_for,
    scenario_text,
)

sys.path.insert(0, str(bench.SRC))

TINY = WorldSpec(mult=1, blocks=1)
SCRATCH = bench.WORK / "selftest"


def _pass(world: Path, out: Path, seed: int) -> None:
    for command in bench.COMMANDS:
        argv = bench.command_argv(command, world, out / command, seed)
        _, _, code = bench.run_cli(argv, SCRATCH / "logs" / "pass.log")
        assert code == 0, command


@pytest.fixture(scope="module")
def tiny():
    """A seed-1 world, a seed-2 world, and one pass of outputs on the first."""
    shutil.rmtree(SCRATCH, ignore_errors=True)
    (SCRATCH / "logs").mkdir(parents=True)
    worlds = {}
    for seed in (1, 2):
        worlds[seed] = SCRATCH / f"world{seed}"
        bench.build_world(TINY, seed, worlds[seed], SCRATCH / "logs")
    _pass(worlds[1], SCRATCH / "pass", 1)
    yield worlds, SCRATCH / "pass"
    shutil.rmtree(SCRATCH, ignore_errors=True)


def _edited(pass_dir: Path, name: str, edit) -> Path:
    copy = pass_dir.with_name(f"edited-{name.replace('/', '-')}")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(pass_dir, copy)
    doc = json.loads((copy / name).read_text())
    edit(doc)
    (copy / name).write_text(json.dumps(doc))
    return copy


def test_clean_pass_clears_the_gate(tiny):
    worlds, pass_dir = tiny
    assert check_outputs(pass_dir, expected_for(worlds[1])) == {c: [] for c in bench.COMMANDS}


def test_gate_catches_one_wrong_detection_field(tiny):
    worlds, pass_dir = tiny

    def flip(doc):
        flags = doc["probes"]["sim001"]["flags"]
        flags["uses_public_resolver"] = not flags["uses_public_resolver"]

    found = check_outputs(_edited(pass_dir, "detect/detection.json", flip), expected_for(worlds[1]))
    assert found["detect"] and not found["classify"] and not found["paths"]


def test_gate_catches_one_wrong_summary_field(tiny):
    worlds, pass_dir = tiny

    def nudge(doc):
        doc["stats"]["metrics"]["rtt_diff_ms"]["mean"] *= 1 + 1e-6

    found = check_outputs(_edited(pass_dir, "paths/summary.json", nudge), expected_for(worlds[1]))
    assert any("rtt_diff_ms.mean" in problem for problem in found["paths"])
    assert not found["detect"]


def test_gate_catches_a_truth_from_another_seed(tiny):
    worlds, pass_dir = tiny
    mixed = SCRATCH / "mixed"
    shutil.copytree(worlds[1], mixed)
    shutil.copy(worlds[2] / "truth.json", mixed / "truth.json")
    found = check_outputs(pass_dir, expected_for(mixed))
    assert found["detect"] and found["classify"]


def test_refuses_worlds_the_address_plan_cannot_build():
    with pytest.raises(WorldError, match="same /64"):
        scenario_text(WorldSpec(mult=22, blocks=1), 1)
    with pytest.raises(WorldError, match="above 255"):
        scenario_text(WorldSpec(mult=1, blocks=15), 1)
    for spec in bench.WORKLOADS.values():
        scenario_text(spec, 7)


def test_unique_network_check_sees_aliased_probes(tiny):
    # 65 probes in cell 1 push the last one onto cell 2's first /64.
    world = SCRATCH / "aliased"
    world.mkdir()
    (world / "scenario.txt").write_text("cell=1 count=65\ncell=2 count=1\n")
    argv = bench.command_argv("simulate", world, world, 1)
    assert bench.run_cli(argv, SCRATCH / "logs" / "aliased.log")[2] == 0
    with pytest.raises(WorldError, match="share"):
        check_unique_networks(world / "dataset.ndjson")


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_of_every_workload_passes_the_gate(monkeypatch, trace):
    tiny_sizes = {"deep": WorldSpec(mult=2, blocks=1), "wide": WorldSpec(mult=1, blocks=3)}
    assert set(tiny_sizes) == set(bench.WORKLOADS)
    monkeypatch.setattr(bench, "WORKLOADS", tiny_sizes)
    monkeypatch.setattr(bench, "WORK", SCRATCH / "smoke")
    for workload in tiny_sizes:
        args = Namespace(workload=workload, seed=3, seconds=0.0, trace=trace)
        result, record = bench.run(args)
        assert result["correct"], record["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 4 * bench.MIN_PASSES
        assert all(m["value"] > 0 for m in result["metrics"].values())
    shutil.rmtree(SCRATCH / "smoke")
