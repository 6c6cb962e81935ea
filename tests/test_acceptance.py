"""End-of-line checks, one test per criterion.

Run ``pytest -v tests/test_acceptance.py`` for one PASSED/FAILED line per
criterion. Each check that carries a time budget measures itself with
``time.perf_counter`` and fails when over budget. Expected values are
recomputed here from scratch (hand-built tables, byte-slot decoders,
exact-fraction arithmetic) rather than imported from the code under test.
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

from nat64scope.acquire.atlas import iter_result_documents, parse_atlas, unparse_atlas
from nat64scope.addrsynth import (
    NoEmbeddingFound,
    derive_prefix_from_answer,
    extract_ipv4,
    synthesize,
)
from nat64scope.classifier import detect_isp_dns64, group_runs_by_as
from nat64scope.cli import EXIT_OK, main
from nat64scope.detector import DNS1_KNOWN_V4, DetectionGroup, assign_group, detect_dataset
from nat64scope.model import (
    ALLOWED_PREFIX_LENGTHS,
    Nat64Prefix,
    STANDARD_PREFIX,
    Verdict,
    VerdictValue,
)
from nat64scope.pathlab import (
    CorrelationError,
    aggregate_report,
    attribute_nat64_as,
    filter_pairs,
    first_nat_hop,
    has_nat_hop,
    locate_nat64,
    missing_hop_pct,
    pair_paths,
    pearson,
    success,
)
from nat64scope.simharness import (
    ACCEPTANCE_TEMPLATE,
    acceptance_scenarios,
    compare,
    generate,
    oracle_stats,
    parse_scenario,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
LENGTHS = tuple(sorted(ALLOWED_PREFIX_LENGTHS))

# Byte offsets of the embedded IPv4 address per prefix length, written
# down from the layout table rather than taken from the implementation.
V4_BYTE_SLOTS = {
    32: (4, 5, 6, 7),
    40: (5, 6, 7, 9),
    48: (6, 7, 9, 10),
    56: (7, 9, 10, 11),
    64: (9, 10, 11, 12),
    96: (12, 13, 14, 15),
}


def report(criterion, elapsed, detail):
    print(f"criterion {criterion}: PASS ({elapsed:.2f}s) {detail}")


def random_prefix(rng, length):
    base = rng.getrandbits(128)
    base &= ~((1 << (128 - length)) - 1)
    base &= ~(0xFF << 56)
    return Nat64Prefix.from_cidr(f"{ipaddress.IPv6Address(base)}/{length}")


def slot_decodings(addr, known):
    """Every length whose byte slots hold a known address, zeros elsewhere."""
    raw = addr.packed
    hits = []
    for length, slots in V4_BYTE_SLOTS.items():
        candidate = ipaddress.IPv4Address(bytes(raw[i] for i in slots))
        if candidate not in known:
            continue
        rebuilt = bytearray(16)
        rebuilt[: length // 8] = raw[: length // 8]
        for i, slot in enumerate(slots):
            rebuilt[slot] = candidate.packed[i]
        if bytes(rebuilt) == raw:
            hits.append(length)
    return hits


def test_criterion_01_address_arithmetic():
    anchor_v4 = ipaddress.IPv4Address("91.201.7.243")
    anchor_v6 = ipaddress.IPv6Address("64:ff9b::5bc9:7f3")
    assert synthesize(STANDARD_PREFIX, anchor_v4) == anchor_v6
    assert extract_ipv4(anchor_v6, STANDARD_PREFIX) == anchor_v4

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
            assert extract_ipv4(synthesize(prefix, v4), prefix) == v4
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
            if slot_decodings(answer, {v4}) != [length]:
                continue  # window collision: excluded by construction
            assert derive_prefix_from_answer(answer, [v4]) == prefix
            done += 1
            recovered += 1

    rejected = 0
    known = set(DNS1_KNOWN_V4)
    while rejected < 1_000:
        addr = ipaddress.IPv6Address(rng.getrandbits(128))
        if slot_decodings(addr, known):
            continue  # embeds a known address by chance: excluded
        with pytest.raises(NoEmbeddingFound):
            derive_prefix_from_answer(addr, known)
        rejected += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"discovery took {elapsed:.2f}s"
    report(2, elapsed, f"{recovered} recoveries, {rejected} rejects, 0 false accepts")


def test_criterion_03_decision_table():
    P, F, I = VerdictValue.PASSED, VerdictValue.FAILED, VerdictValue.INCONCLUSIVE
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

    prefix = Nat64Prefix.from_cidr("2001:db8:64::/96")
    public = Nat64Prefix.from_cidr("2001:db8:6464::/96")
    start = time.perf_counter()
    for (d1, d2, ping_passed), want in expected.items():
        group, _, _ = assign_group(
            Verdict(d1, 2),
            Verdict(d2, 2),
            {prefix: Verdict(P if ping_passed else F, 2)},
            dns1_prefixes=(prefix,) if d1 is P else (),
            public_prefixes=(),
            uses_public_resolver=False,
        )
        assert group is want, (d1, d2, ping_passed)

    # A pass against a public gateway is never local-translator evidence.
    for d1 in (P, F, I):
        for d2 in (P, F, I):
            group, flags, _ = assign_group(
                Verdict(d1, 2),
                Verdict(d2, 2),
                {public: Verdict(P, 2)},
                dns1_prefixes=(),
                public_prefixes=(public,),
                uses_public_resolver=False,
            )
            assert group is not ONLY, (d1, d2)
            assert flags.public_nat64_only

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(3, elapsed, "18 verdict cells plus 9 public-only cells")


def _recoverable_locations(sim):
    """probe -> located NatLocation, from kept pairs only."""
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
            attribution = attribute_nat64_as(paths, prefix, sim.ip2as, record)
            where = locate_nat64(attribution.asn, record)
            assert located.setdefault(probe_id, where) is where, probe_id
    return located


def test_criterion_04_ground_truth_recovery():
    start = time.perf_counter()
    worlds = acceptance_scenarios()
    assert len(worlds) == 20
    checked = 0
    for scenario, seed in worlds:
        assert scenario.probe_count >= 30
        sim = generate(scenario, seed)
        detection = detect_dataset(
            sim.dataset,
            public_prefixes=sim.truth.public_prefixes,
            public_resolvers=sim.truth.public_resolvers,
        )
        for probe_id, planted in sim.truth.probes.items():
            got = detection.probes[probe_id]
            assert got.group is planted.group, (seed, probe_id)
            assert got.flags == planted.flags, (seed, probe_id)
            checked += 1

        evidence = detect_isp_dns64(
            group_runs_by_as(sim.dataset.runs, sim.dataset.probes), sim.dataset.probes
        )
        found = {asn for asn, ev in evidence.items() if ev.is_isp_dns64}
        assert found == set(sim.truth.isp_dns64_ases), seed

        located = _recoverable_locations(sim)
        for probe_id, where in located.items():
            assert where is sim.truth.probes[probe_id].nat_location, (seed, probe_id)
        unlocatable = {
            pid
            for pid, planted in sim.truth.probes.items()
            if planted.nat_location is not None and pid not in located
        }
        assert unlocatable == {
            pid for pid, planted in sim.truth.probes.items() if planted.opaque
        }, seed

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"recovery sweep took {elapsed:.2f}s"
    report(4, elapsed, f"20 scenarios, {checked} probes, 100% groups/flags/locations/evidence")


def test_criterion_05_statistics_oracle():
    start = time.perf_counter()
    seeds_checked = 0
    for scenario, seed in acceptance_scenarios():
        sim = generate(scenario, seed)
        detection = detect_dataset(
            sim.dataset,
            public_prefixes=sim.truth.public_prefixes,
            public_resolvers=sim.truth.public_resolvers,
        )
        groupings = {}
        for pid, det in sorted(detection.probes.items()):
            groupings.setdefault(det.group.value, []).append(pid)
        pairs, _ = pair_paths(sim.dataset.paths)
        kept, _ = filter_pairs(pairs)
        stats = aggregate_report(kept, groupings=groupings)
        problems = compare(stats, oracle_stats(kept, groupings), rel=1e-9)
        assert problems == [], (seed, problems[:5])
        seeds_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.2f}s"
    report(5, elapsed, f"{seeds_checked} seeds, aggregate_report == oracle_stats at 1e-9")


def test_criterion_06_filter_accounting():
    start = time.perf_counter()
    sim = generate(parse_scenario(ACCEPTANCE_TEMPLATE), 42)
    assert sim.truth.opaque_pair_count > 0
    pairs, _ = pair_paths(sim.dataset.paths)
    _, excluded = filter_pairs(pairs)
    no_nat_hop = [e for e in excluded if e.reason == "NoNatHop"]
    assert len(no_nat_hop) == sim.truth.opaque_pair_count
    assert len(no_nat_hop) == len(excluded)
    elapsed = time.perf_counter() - start
    report(6, elapsed, f"{len(no_nat_hop)} NoNatHop exclusions == planted count")


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

    with pytest.raises(CorrelationError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(CorrelationError):
        pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    with pytest.raises(CorrelationError):
        pearson([1.0], [2.0])

    rng = random.Random(0xF00D)
    for _ in range(1_000):
        n = rng.randrange(3, 30)
        xs = [float(rng.randrange(0, 1000)) for _ in range(n)]
        ys = [float(rng.randrange(0, 1000)) for _ in range(n)]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        assert abs(pearson(xs, ys) - _textbook_pearson(xs, ys)) <= 1e-12

    elapsed = time.perf_counter() - start
    report(8, elapsed, "±1.0 exact, constant-series errors, 1000 random agreements at 1e-12")


def test_criterion_09_atlas_replay():
    start = time.perf_counter()
    with open(os.path.join(FIXTURES, "atlas_expected.json"), "r", encoding="utf-8") as handle:
        want = json.load(handle)

    (dns_doc,) = iter_result_documents(os.path.join(FIXTURES, "atlas_dns.json"))
    observations = parse_atlas(dns_doc, default_qname="ipv4only.arpa.")
    assert len(observations) == want["dns"]["observations"]
    assert observations[0].response.status.value == want["dns"]["first"]["status"]
    assert [str(a) for a in observations[0].response.addresses()] == want["dns"]["first"]["addresses"]
    assert observations[1].response.status.value == want["dns"]["second"]["status"]
    rebuilt = unparse_atlas(observations, timestamp=1700000100)
    assert parse_atlas(rebuilt, default_qname="ipv4only.arpa.") == observations

    (ping_doc,) = iter_result_documents(os.path.join(FIXTURES, "atlas_ping.json"))
    ping = parse_atlas(ping_doc, prefixes=(STANDARD_PREFIX,))
    assert list(ping.rtts_ms) == want["ping"]["rtts"]
    assert ping.sent == want["ping"]["sent"]
    assert parse_atlas(unparse_atlas(ping), prefixes=(STANDARD_PREFIX,)) == ping

    docs = list(iter_result_documents(os.path.join(FIXTURES, "atlas_traceroute.json")))
    for doc, row in zip(docs, want["traceroute"]):
        path = parse_atlas(doc, prefixes=(STANDARD_PREFIX,))
        assert len(path.hops) == row["hops"]
        assert success(path) == row["reached"]
        assert sum(1 for h in path.hops if h.address is None) == row["silent_hops"]
        assert missing_hop_pct(path) == row["missing_pct"]
        assert has_nat_hop(path) == row["nat_hop"]
        if row["nat_hop"]:
            assert first_nat_hop(path).index == row["first_nat_hop"]
        assert parse_atlas(unparse_atlas(path), prefixes=(STANDARD_PREFIX,)) == path

    elapsed = time.perf_counter() - start
    report(9, elapsed, "3 fixture kinds lossless, counts match the sidecar")


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
