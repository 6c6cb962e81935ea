"""End-of-line checks, one test per criterion.

Run ``pytest -v tests/test_acceptance.py`` for one PASSED/FAILED line per
criterion. Each check that carries a time budget measures itself with
``time.perf_counter`` and fails when over budget. Expected values are
recomputed here from scratch (hand-built tables, the byte-slot decoders
of ``oracles``, exact-fraction arithmetic) rather than imported from the
code under test.
"""

import hashlib
import ipaddress
import json
import math
import os
import random
import socket
import time
from fractions import Fraction

import pytest

from nat64scope import catalogs
from nat64scope.addrsynth import NoEmbeddingFound, derive_prefix_from_answer, synthesize
from nat64scope.classifier import attribute_nat64_as, detect_isp_dns64, group_runs_by_as, locate_nat64
from nat64scope.cli import EXIT_OK, main
from nat64scope.detector import DNS1_KNOWN_V4, DetectionGroup, assign_group, detect_dataset
from nat64scope.model import (
    ALLOWED_PREFIX_LENGTHS,
    Nat64Prefix,
    STANDARD_PREFIX,
)
from nat64scope.pathlab import aggregate_report, compute_metrics, filter_pairs, pair_paths, pearson
from nat64scope.simharness import (
    ACCEPTANCE_TEMPLATE,
    compare,
    generate,
    oracle_stats,
    parse_scenario,
)

from oracles import oracle_extract, oracle_layouts

LENGTHS = tuple(sorted(ALLOWED_PREFIX_LENGTHS))

#: The recovery sweeps run the template world under seeds 1 to 20.
SWEEP_SEEDS = range(1, 21)


def report(criterion, elapsed, detail):
    print(f"criterion {criterion}: PASS ({elapsed:.2f}s) {detail}")


def random_prefix(rng, length):
    base = rng.getrandbits(128)
    base &= ~((1 << (128 - length)) - 1)
    base &= ~(0xFF << 56)
    return Nat64Prefix.from_cidr(f"{ipaddress.IPv6Address(base)}/{length}")


def test_criterion_01_address_arithmetic():
    anchor_v4 = ipaddress.IPv4Address("91.201.7.243")
    anchor_v6 = ipaddress.IPv6Address("64:ff9b::5bc9:7f3")
    assert synthesize(STANDARD_PREFIX, anchor_v4) == anchor_v6
    assert oracle_extract(anchor_v6, STANDARD_PREFIX.length) == anchor_v4

    rng = random.Random(0xCAFE)
    cases = []
    for length in LENGTHS:
        prefixes = [random_prefix(rng, length) for _ in range(3)]
        addresses = [ipaddress.IPv4Address(rng.getrandbits(32)) for _ in range(10_000)]
        cases.append((prefixes, addresses))

    start = time.perf_counter()
    for prefixes, addresses in cases:
        for i, v4 in enumerate(addresses):
            prefix = prefixes[i % 3]
            assert oracle_extract(synthesize(prefix, v4), prefix.length) == v4
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"round-trips took {elapsed:.2f}s"
    report(1, elapsed, f"anchor pair plus {len(LENGTHS) * 10_000} round-trips")


def test_criterion_02_prefix_discovery():
    rng = random.Random(0xBEEF)
    start = time.perf_counter()

    recovered = 0
    for length in LENGTHS:
        done = 0
        while done < 1_000:
            prefix = random_prefix(rng, length)
            v4 = ipaddress.IPv4Address(rng.getrandbits(32))
            answer = synthesize(prefix, v4)
            if oracle_layouts(answer, {v4}) != [length]:
                continue  # window collision: excluded by construction
            assert derive_prefix_from_answer(answer, [v4]) == prefix
            done += 1
            recovered += 1

    rejected = 0
    known = set(DNS1_KNOWN_V4)
    while rejected < 1_000:
        addr = ipaddress.IPv6Address(rng.getrandbits(128))
        if oracle_layouts(addr, known):
            continue  # embeds a known address by chance: excluded
        with pytest.raises(NoEmbeddingFound):
            derive_prefix_from_answer(addr, known)
        rejected += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"discovery took {elapsed:.2f}s"
    report(2, elapsed, f"{recovered} recoveries, {rejected} rejects, 0 false accepts")


def test_criterion_03_decision_table():
    # Verdicts and prefixes as detection.json writes them.
    P, F, I = "passed", "failed", "inconclusive"
    PLUS = DetectionGroup.NAT64_PLUS_DNS64
    ONLY = DetectionGroup.NAT64_ONLY
    MIS = DetectionGroup.DNS64_MISCONFIGURED_ONLY
    NO = DetectionGroup.NO_NAT64
    OPEN = DetectionGroup.INCONCLUSIVE
    expected = {
        (P, P, True): PLUS, (P, P, False): OPEN,
        (P, F, True): ONLY, (P, F, False): MIS,
        (P, I, True): OPEN, (P, I, False): OPEN,
        (F, P, True): ONLY, (F, P, False): OPEN,
        (F, F, True): ONLY, (F, F, False): NO,
        (F, I, True): ONLY, (F, I, False): OPEN,
        (I, P, True): OPEN, (I, P, False): OPEN,
        (I, F, True): ONLY, (I, F, False): OPEN,
        (I, I, True): OPEN, (I, I, False): OPEN,
    }
    assert len(expected) == 3 * 3 * 2

    def verdict(value):
        return {"value": value, "supporting_runs": 2}

    prefix = "2001:db8:64::/96"
    public = "2001:db8:6464::/96"
    start = time.perf_counter()
    for (d1, d2, ping_passed), want in expected.items():
        group, _, _ = assign_group(
            verdict(d1),
            verdict(d2),
            {prefix: verdict(P if ping_passed else F)},
            dns1_prefixes=(prefix,) if d1 is P else (),
            public_prefixes=(),
            uses_public_resolver=False,
        )
        assert group is want, (d1, d2, ping_passed)

    # A pass against a public gateway is never local-translator evidence.
    for d1 in (P, F, I):
        for d2 in (P, F, I):
            group, flags, _ = assign_group(
                verdict(d1),
                verdict(d2),
                {public: verdict(P)},
                dns1_prefixes=(),
                public_prefixes=(public,),
                uses_public_resolver=False,
            )
            assert group is not ONLY, (d1, d2)
            assert flags["public_nat64_only"]

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(3, elapsed, "18 verdict cells plus 9 public-only cells")


def _recoverable_locations(sim):
    """probe -> located ``nat_location`` text, from kept pairs only."""
    pairs, _ = pair_paths(sim.dataset.paths)
    kept, _ = filter_pairs(pairs)
    by_probe = {}
    for pair in kept:
        by_probe.setdefault(pair.nat64.probe_id, {}).setdefault(
            pair.nat64.prefix, []
        ).append(pair.nat64)
    located = {}
    for probe_id, by_prefix in by_probe.items():
        record = sim.dataset.probes[probe_id]
        for prefix, paths in by_prefix.items():
            nat_asn = attribute_nat64_as(paths, prefix, sim.ip2as, record)
            where = locate_nat64(nat_asn, record)
            assert located.setdefault(probe_id, where) == where, probe_id
    return located


def test_criterion_04_ground_truth_recovery():
    start = time.perf_counter()
    scenario = parse_scenario(ACCEPTANCE_TEMPLATE)
    assert sum(cohort.count for cohort in scenario.cohorts) >= 30
    checked = 0
    for seed in SWEEP_SEEDS:
        sim = generate(scenario, seed)
        detection = detect_dataset(
            sim.dataset,
            public_prefixes=catalogs.load_public_prefixes(),
            public_resolvers=catalogs.load_public_resolvers(),
        )
        truth = sim.truth["probes"]
        for probe_id, planted in truth.items():
            got = detection["probes"][probe_id]
            assert got["group"] == planted["group"], (seed, probe_id)
            assert got["flags"] == planted["flags"], (seed, probe_id)
            checked += 1

        evidence = detect_isp_dns64(
            group_runs_by_as(sim.dataset.runs, sim.dataset.probes), sim.dataset.probes
        )
        found = {int(asn) for asn, ev in evidence.items() if ev["is_isp_dns64"]}
        assert sorted(found) == sim.truth["isp_dns64_ases"], seed

        located = _recoverable_locations(sim)
        for probe_id, where in located.items():
            assert where == truth[probe_id]["nat_location"], (seed, probe_id)
        unlocatable = {
            pid
            for pid, planted in truth.items()
            if planted["nat_location"] is not None and pid not in located
        }
        assert unlocatable == {pid for pid, planted in truth.items() if planted["opaque"]}, seed

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"recovery sweep took {elapsed:.2f}s"
    report(4, elapsed, f"{len(SWEEP_SEEDS)} seeds, {checked} probes, 100% groups/flags/locations/evidence")


def test_criterion_05_statistics_oracle():
    start = time.perf_counter()
    seeds_checked = 0
    scenario = parse_scenario(ACCEPTANCE_TEMPLATE)
    for seed in SWEEP_SEEDS:
        sim = generate(scenario, seed)
        detection = detect_dataset(
            sim.dataset,
            public_prefixes=catalogs.load_public_prefixes(),
            public_resolvers=catalogs.load_public_resolvers(),
        )
        groupings = {}
        for pid, det in sorted(detection["probes"].items()):
            groupings.setdefault(det["group"], []).append(pid)
        pairs, _ = pair_paths(sim.dataset.paths)
        kept, _ = filter_pairs(pairs)
        stats = aggregate_report(kept, compute_metrics(kept), groupings)
        problems = compare(stats, oracle_stats(kept, groupings), rel=1e-9)
        assert problems == [], (seed, problems[:5])
        seeds_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.2f}s"
    report(5, elapsed, f"{seeds_checked} seeds, aggregate_report == oracle_stats at 1e-9")


def test_criterion_06_filter_accounting():
    start = time.perf_counter()
    sim = generate(parse_scenario(ACCEPTANCE_TEMPLATE), 42)
    planted = sim.truth["opaque_pair_count"]
    assert planted > 0
    pairs, _ = pair_paths(sim.dataset.paths)
    _, excluded = filter_pairs(pairs)
    assert excluded == {"NoNatHop": planted}
    elapsed = time.perf_counter() - start
    report(6, elapsed, f"{planted} NoNatHop exclusions == planted count")


def _textbook_pearson(xs, ys):
    """Raw-moment formula in exact rational arithmetic, rooted at the end."""
    n = len(xs)
    fx = [Fraction(x) for x in xs]
    fy = [Fraction(y) for y in ys]
    sx, sy = sum(fx), sum(fy)
    sxy = n * sum(x * y for x, y in zip(fx, fy)) - sx * sy
    sxx = n * sum(x * x for x in fx) - sx * sx
    syy = n * sum(y * y for y in fy) - sy * sy
    return float(sxy) / math.sqrt(float(sxx) * float(syy))


def test_criterion_08_pearson_sanity():
    start = time.perf_counter()
    xs = [float(i) for i in range(50)]
    assert pearson(xs, [2.0 * x + 1.0 for x in xs]) == 1.0
    assert pearson(xs, [-3.0 * x + 7.0 for x in xs]) == -1.0

    assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
    assert pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) is None
    assert pearson([1.0], [2.0]) is None
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0])

    rng = random.Random(0xF00D)
    for _ in range(1_000):
        n = rng.randrange(3, 30)
        xs = [float(rng.randrange(0, 1000)) for _ in range(n)]
        ys = [float(rng.randrange(0, 1000)) for _ in range(n)]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        assert abs(pearson(xs, ys) - _textbook_pearson(xs, ys)) <= 1e-12

    elapsed = time.perf_counter() - start
    report(8, elapsed, "±1.0 exact, None where undefined, 1000 random agreements at 1e-12")


def _run_pipeline(base):
    world = os.path.join(base, "world")
    assert main(["simulate", "--out", world, "--seed", "17"]) == EXIT_OK
    config = os.path.join(base, "config.json")
    with open(config, "w", encoding="utf-8") as handle:
        json.dump({"ip2as": os.path.join(world, "ip2as.tsv")}, handle)
    dataset = os.path.join(world, "dataset.ndjson")
    assert main(["detect", "--from-dataset", dataset, "--out", os.path.join(base, "detect")]) == EXIT_OK
    assert main([
        "classify", "--from-dataset", dataset, "--config", config,
        "--out", os.path.join(base, "classify"),
    ]) == EXIT_OK
    assert main(["paths", "--from-dataset", dataset, "--out", os.path.join(base, "paths")]) == EXIT_OK

    digests = {}
    for sub in ("world", "detect", "classify", "paths"):
        root = os.path.join(base, sub)
        for name in sorted(os.listdir(root)):
            with open(os.path.join(root, name), "rb") as handle:
                digests[f"{sub}/{name}"] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def test_criterion_10_end_to_end_offline(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the offline pipeline opened a socket")

    monkeypatch.setattr(socket, "socket", refuse)
    start = time.perf_counter()
    first = _run_pipeline(str(tmp_path / "run1"))
    second = _run_pipeline(str(tmp_path / "run2"))
    elapsed = time.perf_counter() - start
    assert len(first) >= 13
    assert first == second
    report(10, elapsed, f"{len(first)} output files byte-identical across two seeded runs")
