"""ISP DNS64 evidence, translator attribution and location, and category bucketing."""

import ipaddress
import json
import re

import pytest

from nat64scope.acquire.ip2as import Ip2AsTable
from nat64scope.catalogs import load_as_categories
from nat64scope.classifier import (
    ASCategory,
    HOME_TAG,
    LOCAL_NAT_RTT_MS,
    NatLocation,
    ProbeCategory,
    attribute_nat64_as,
    categorize_probe,
    count_as_categories,
    detect_isp_dns64,
    detect_local_nat64,
    group_runs_by_as,
    locate_nat64,
)
from nat64scope.detector import DetectionGroup
from nat64scope.model import (
    Hop,
    Nat64Prefix,
    PathFamily,
    ProbeRecord,
    RawOutcome,
    STANDARD_PREFIX,
    TestKind,
    TestRun,
    TraceroutePath,
)

from test_ip2as import table_of
from test_pathlab import CUSTOM, nat_addr, nat_path

RESOLVER = ipaddress.ip_address("2001:db8:53::1")
OTHER_RESOLVER = ipaddress.ip_address("2001:db8:53::2")
PUBLIC = ipaddress.ip_address("2001:4860:4860::6464")
PREFIX = Nat64Prefix.from_cidr("2001:db8:64::/96")


def probe(pid, asn=64500, net=None):
    network = ipaddress.IPv6Network(net) if net else None
    return ProbeRecord(pid, asn_v4=asn, asn_v6=asn, network_prefix_v6=network)


def dns_pass(pid, resolver=RESOLVER, prefix=PREFIX, kind=TestKind.DNS_TEST1):
    return TestRun(
        pid, kind, 1700000000, RawOutcome.PASS,
        observed_prefix=prefix, resolver_used=resolver,
    )


class TestIspDns64:
    def test_two_probes_two_networks_is_evidence(self):
        probes = {
            "p1": probe("p1", net="2001:db8:1::/48"),
            "p2": probe("p2", net="2001:db8:2::/48"),
        }
        runs = {64500: [dns_pass("p1"), dns_pass("p2")]}
        evidence = detect_isp_dns64(runs, probes)
        assert evidence == {
            "64500": {
                "is_isp_dns64": True,
                "resolver": "2001:db8:53::1",
                "witnesses": ["p1", "p2"],
                "multiple_similar_prefixes": False,
            }
        }

    def test_same_network_is_not_evidence(self):
        probes = {
            "p1": probe("p1", net="2001:db8:1::/48"),
            "p2": probe("p2", net="2001:db8:1::/48"),
        }
        runs = {64500: [dns_pass("p1"), dns_pass("p2")]}
        assert not detect_isp_dns64(runs, probes)["64500"]["is_isp_dns64"]

    def test_unknown_network_never_counts(self):
        probes = {"p1": probe("p1", net="2001:db8:1::/48"), "p2": probe("p2")}
        runs = {64500: [dns_pass("p1"), dns_pass("p2")]}
        assert not detect_isp_dns64(runs, probes)["64500"]["is_isp_dns64"]

    def test_different_resolvers_never_combine(self):
        probes = {
            "p1": probe("p1", net="2001:db8:1::/48"),
            "p2": probe("p2", net="2001:db8:2::/48"),
        }
        runs = {64500: [dns_pass("p1"), dns_pass("p2", resolver=OTHER_RESOLVER)]}
        assert not detect_isp_dns64(runs, probes)["64500"]["is_isp_dns64"]

    def test_single_probe_is_not_evidence(self):
        probes = {"p1": probe("p1", net="2001:db8:1::/48")}
        runs = {64500: [dns_pass("p1"), dns_pass("p1", kind=TestKind.DNS_TEST2)]}
        assert not detect_isp_dns64(runs, probes)["64500"]["is_isp_dns64"]

    def test_failed_runs_ignored(self):
        probes = {
            "p1": probe("p1", net="2001:db8:1::/48"),
            "p2": probe("p2", net="2001:db8:2::/48"),
        }
        failed = TestRun("p2", TestKind.DNS_TEST1, 1700000000, RawOutcome.FAIL)
        runs = {64500: [dns_pass("p1"), failed]}
        assert not detect_isp_dns64(runs, probes)["64500"]["is_isp_dns64"]

    def test_first_qualifying_resolver_by_sort_order(self):
        probes = {
            f"p{i}": probe(f"p{i}", net=f"2001:db8:{i}::/48") for i in range(1, 5)
        }
        runs = {
            64500: [
                dns_pass("p3", resolver=OTHER_RESOLVER),
                dns_pass("p4", resolver=OTHER_RESOLVER),
                dns_pass("p1"),
                dns_pass("p2"),
            ]
        }
        got = detect_isp_dns64(runs, probes)["64500"]
        assert got["resolver"] == str(RESOLVER)  # ::1 sorts before ::2

    def test_similar_prefixes_flagged(self):
        probes = {
            "p1": probe("p1", net="2001:db8:1::/48"),
            "p2": probe("p2", net="2001:db8:2::/48"),
        }
        # Same first 48 bits and length, different low bits.
        a = Nat64Prefix.from_cidr("2001:db8:64:1::/96")
        b = Nat64Prefix.from_cidr("2001:db8:64:2::/96")
        runs = {64500: [dns_pass("p1", prefix=a), dns_pass("p2", prefix=b)]}
        got = detect_isp_dns64(runs, probes)["64500"]
        assert got["multiple_similar_prefixes"]

    def test_distinct_stems_not_flagged(self):
        probes = {
            "p1": probe("p1", net="2001:db8:1::/48"),
            "p2": probe("p2", net="2001:db8:2::/48"),
        }
        a = Nat64Prefix.from_cidr("2001:db8:64::/96")
        b = Nat64Prefix.from_cidr("2001:db9:64::/96")
        runs = {64500: [dns_pass("p1", prefix=a), dns_pass("p2", prefix=b)]}
        assert not detect_isp_dns64(runs, probes)["64500"]["multiple_similar_prefixes"]

    def test_ases_reported_in_order(self):
        probes = {
            "p1": probe("p1", asn=64501, net="2001:db8:1::/48"),
            "p2": probe("p2", asn=64500, net="2001:db8:2::/48"),
            "p3": probe("p3", asn=9, net="2001:db8:3::/48"),
        }
        runs = {64501: [dns_pass("p1")], 64500: [dns_pass("p2")], 9: [dns_pass("p3")]}
        assert list(detect_isp_dns64(runs, probes)) == ["9", "64500", "64501"]

    def test_entries_share_no_container(self):
        # Entries are plain dicts written as they are: the empty witness
        # lists of two ASes without evidence must be separate lists.
        probes = {
            "p1": probe("p1", asn=64500, net="2001:db8:1::/48"),
            "p2": probe("p2", asn=64500, net="2001:db8:2::/48"),
            "p3": probe("p3", asn=64501, net="2001:db8:3::/48"),
            "p4": probe("p4", asn=64502, net="2001:db8:4::/48"),
        }
        runs = {
            64500: [dns_pass("p1"), dns_pass("p2")],
            64501: [dns_pass("p3")],
            64502: [dns_pass("p4")],
        }
        evidence = detect_isp_dns64(runs, probes)
        containers = [id(entry) for entry in evidence.values()]
        containers += [id(entry["witnesses"]) for entry in evidence.values()]
        assert len(containers) == len(set(containers)) == 6
        evidence["64501"]["witnesses"].append("p3")
        evidence["64500"]["witnesses"].clear()
        assert evidence["64502"]["witnesses"] == []
        assert detect_isp_dns64(runs, probes)["64500"]["witnesses"] == ["p1", "p2"]

    def test_entry_read_back_from_json_buckets_the_probes(self):
        # categorize_probe matches the resolver by its text, so an entry as
        # classification.json holds it must pick out the probes that used it.
        probes = {
            "p1": probe("p1", net="2001:db8:1::/48"),
            "p2": probe("p2", net="2001:db8:2::/48"),
        }
        resolver = ipaddress.ip_address("2001:db8:0053:0000::0001")
        runs = {64500: [dns_pass("p1", resolver=resolver), dns_pass("p2", resolver=resolver)]}
        entry = json.loads(json.dumps(detect_isp_dns64(runs, probes)))["64500"]
        assert entry["resolver"] == "2001:db8:53::1"
        used = categorize(ONLY, evidence=entry, resolvers_used=[resolver])
        other = categorize(ONLY, evidence=entry, resolvers_used=[OTHER_RESOLVER])
        assert used == ["as_with_dns64", "isp_dns64"]
        assert other == ["as_with_dns64"]


class TestGroupRunsByAs:
    def test_groups_on_v6_as(self):
        probes = {"p1": probe("p1", asn=64500), "p2": probe("p2", asn=64501)}
        runs = [dns_pass("p1"), dns_pass("p2"), dns_pass("p1", kind=TestKind.DNS_TEST2)]
        grouped = group_runs_by_as(runs, probes)
        assert sorted(grouped) == [64500, 64501]
        assert len(grouped[64500]) == 2

    def test_unknown_probe_or_as_skipped(self):
        probes = {"p1": ProbeRecord("p1", asn_v4=64500, asn_v6=None)}
        grouped = group_runs_by_as([dns_pass("p1"), dns_pass("ghost")], probes)
        assert grouped == {}


def nat_trace(rtts):
    """A translated path whose first translator hop carries the given RTTs."""
    inner = ipaddress.IPv6Address(int(PREFIX.base) + 0x0A000001)
    hops = (
        Hop(1, ipaddress.ip_address("2001:db8:aaaa::1"), (0.4,)),
        Hop(2, inner, tuple(rtts)),
    )
    return TraceroutePath(
        "p1", PathFamily.NAT64, PREFIX, ipaddress.IPv4Address("10.0.0.1"), 0, hops
    )


class TestLocalNat:
    def test_fast_median_is_local(self):
        assert detect_local_nat64([nat_trace([0.8, 0.9, 50.0])]) is True

    def test_slow_median_is_not(self):
        assert detect_local_nat64([nat_trace([8.0, 9.0, 10.0])]) is False

    def test_minimum_over_paths(self):
        paths = [nat_trace([8.0, 9.0]), nat_trace([0.5, 0.7])]
        assert detect_local_nat64(paths)

    def test_threshold_boundary_exclusive(self):
        assert not detect_local_nat64([nat_trace([LOCAL_NAT_RTT_MS, LOCAL_NAT_RTT_MS])])
        assert detect_local_nat64([nat_trace([LOCAL_NAT_RTT_MS - 0.01])])

    def test_untimed_nat_hop_is_none(self):
        assert detect_local_nat64([nat_trace([])]) is None
        assert detect_local_nat64([]) is None


AS_TABLE = table_of(
    [
        ("192.0.2.0/24", 64500),
        ("198.51.100.0/24", 64501),
        ("2001:db8:aaaa::/48", 64502),
        ("2001:db8:bbbb::/48", 64503),
        ("2001:db8:64::/96", 64510),
    ]
)
# The probe's AS numbers are in no table below: each branch of the
# attribution (announced prefix, hop before the translator, the probe's
# own AS) gives an AS number that no other branch could give.
PROBE = ProbeRecord("p1", asn_v4=64504, asn_v6=64505)


class TestAttribution:
    def test_announced_prefix_wins(self):
        path = nat_path(["2001:db8:bbbb::1", nat_addr(1)])
        assert attribute_nat64_as([path], CUSTOM, AS_TABLE, PROBE) == 64510

    def test_standard_prefix_never_announced(self):
        table = table_of([("64:ff9b::/96", 64520), ("2001:db8:bbbb::/48", 64503)])
        path = nat_path(
            ["2001:db8:bbbb::1", nat_addr(1, STANDARD_PREFIX)], prefix=STANDARD_PREFIX
        )
        assert attribute_nat64_as([path], STANDARD_PREFIX, table, PROBE) == 64503

    def test_pre_nat_hop_selection(self):
        table = table_of([("2001:db8:aaaa::/48", 64502), ("2001:db8:bbbb::/48", 64503)])
        path = nat_path(["2001:db8:aaaa::1", "2001:db8:bbbb::1", nat_addr(1)])
        assert attribute_nat64_as([path], CUSTOM, table, PROBE) == 64503

    def test_farthest_hop_across_paths_wins(self):
        table = table_of([("2001:db8:aaaa::/48", 64502), ("2001:db8:bbbb::/48", 64503)])
        near = nat_path(["2001:db8:aaaa::1", nat_addr(1)])
        far = nat_path(
            ["2001:db8:aaaa::1", "2001:db8:bbbb::1", nat_addr(1)], rnd=1
        )
        assert attribute_nat64_as([near, far], CUSTOM, table, PROBE) == 64503

    def test_tie_goes_to_lower_asn(self):
        table = table_of([("2001:db8:aaaa::/48", 64502), ("2001:db8:bbbb::/48", 64503)])
        one = nat_path(["2001:db8:bbbb::1", nat_addr(1)])
        two = nat_path(["2001:db8:aaaa::1", nat_addr(1)], rnd=1)
        assert attribute_nat64_as([one, two], CUSTOM, table, PROBE) == 64502

    def test_silent_pre_nat_hops_fall_back_to_probe(self):
        table = table_of([("2001:db8:ffff::/48", 64599)])
        path = nat_path([None, nat_addr(1)])
        assert attribute_nat64_as([path], CUSTOM, table, PROBE) == 64505

    def test_fallback_prefers_v6_as(self):
        table = Ip2AsTable()
        path = nat_path([nat_addr(1)])
        v4_only = ProbeRecord("p1", asn_v4=64500, asn_v6=None)
        assert attribute_nat64_as([path], CUSTOM, table, v4_only) == 64500

    def test_no_information_raises(self):
        table = Ip2AsTable()
        bare = ProbeRecord("p1", asn_v4=None, asn_v6=None)
        with pytest.raises(ValueError):
            attribute_nat64_as([nat_path([nat_addr(1)])], CUSTOM, table, bare)


class TestLocation:
    def test_all_equal(self):
        probe = ProbeRecord("p", asn_v4=64500, asn_v6=64500)
        assert locate_nat64(64500, probe) == NatLocation.ALL_EQUAL.value

    def test_in_v6_as(self):
        probe = ProbeRecord("p", asn_v4=64500, asn_v6=64501)
        assert locate_nat64(64501, probe) == NatLocation.NAT_IN_V6_AS.value

    def test_remote(self):
        probe = ProbeRecord("p", asn_v4=64500, asn_v6=64501)
        assert locate_nat64(64999, probe) == NatLocation.REMOTE.value

    def test_matching_v4_only_is_remote(self):
        probe = ProbeRecord("p", asn_v4=64500, asn_v6=64501)
        assert locate_nat64(64500, probe) == NatLocation.REMOTE.value

    def test_requires_both_asns(self):
        with pytest.raises(ValueError):
            locate_nat64(64500, ProbeRecord("p", asn_v4=64500, asn_v6=None))


#: Groups and evidence as detection.json and classification.json write them.
PLUS = DetectionGroup.NAT64_PLUS_DNS64.value
ONLY = DetectionGroup.NAT64_ONLY.value
EVIDENCE = {
    "is_isp_dns64": True, "resolver": str(RESOLVER), "witnesses": ["p1", "p2"],
    "multiple_similar_prefixes": False,
}


def categorize(group=PLUS, *, public_nat64_only=False, pings=(), tags=(), asn=64500,
               evidence=None, **facts):
    """``categorize_probe`` on one probe of AS ``asn``, as ``classify`` calls it.

    The probe's ``detection.json`` entry holds ``group``, the flag and one
    ping verdict per value in ``pings``; ``evidence`` becomes the entry of
    AS ``asn`` in the evidence document.
    """
    entry = {
        "group": group,
        "flags": {"public_nat64_only": public_nat64_only},
        "pings": {
            f"2001:db8:{i}::/96": {"value": value, "supporting_runs": 2}
            for i, value in enumerate(pings)
        },
    }
    record = ProbeRecord("p1", asn_v4=asn, asn_v6=asn, tags=tuple(tags))
    return categorize_probe(
        entry, record, {} if evidence is None else {str(asn): evidence}, **facts
    )


class TestCategorize:
    def test_non_nat64_groups_get_no_buckets(self):
        for group in (
            DetectionGroup.NO_NAT64,
            DetectionGroup.DNS64_MISCONFIGURED_ONLY,
            DetectionGroup.INCONCLUSIVE,
        ):
            got = categorize(
                group.value, public_nat64_only=True, pings=["passed"], tags=[HOME_TAG],
                evidence=EVIDENCE, resolvers_used=[RESOLVER],
            )
            assert got == []

    def test_isp_dns64_requires_using_the_resolver(self):
        got = categorize(evidence=EVIDENCE, resolvers_used=[RESOLVER])
        assert got == ["as_with_dns64", "isp_dns64"]

    def test_as_evidence_without_using_it(self):
        got = categorize(evidence=EVIDENCE, resolvers_used=[OTHER_RESOLVER])
        assert got == ["as_with_dns64"]

    def test_negative_evidence_adds_nothing(self):
        evidence = {
            "is_isp_dns64": False, "resolver": None, "witnesses": [],
            "multiple_similar_prefixes": False,
        }
        got = categorize(evidence=evidence, resolvers_used=[RESOLVER])
        assert got == ["unknown"]

    def test_evidence_is_read_under_the_probes_v6_as(self):
        entry = {"group": PLUS, "flags": {"public_nat64_only": False}, "pings": {}}
        evidence = {"64500": EVIDENCE}
        in_v6 = ProbeRecord("p1", asn_v4=64501, asn_v6=64500)
        in_v4 = ProbeRecord("p1", asn_v4=64500, asn_v6=64501)
        no_v6 = ProbeRecord("p1", asn_v4=64500, asn_v6=None)
        facts = {"resolvers_used": [RESOLVER]}
        assert categorize_probe(entry, in_v6, evidence, **facts) == ["as_with_dns64", "isp_dns64"]
        assert categorize_probe(entry, in_v4, evidence, **facts) == ["unknown"]
        assert categorize_probe(entry, no_v6, evidence, **facts) == ["unknown"]

    def test_public_resolver_only(self):
        got = categorize(resolvers_used=[PUBLIC], public_resolvers=[PUBLIC])
        assert got == ["public_resolver_only"]

    def test_mixed_resolvers_not_public_only(self):
        got = categorize(resolvers_used=[PUBLIC, RESOLVER], public_resolvers=[PUBLIC])
        assert ProbeCategory.PUBLIC_RESOLVER_ONLY.value not in got

    def test_public_service(self):
        assert categorize(public_nat64_only=True) == ["public_service"]

    def test_remote_nat(self):
        got = categorize(nat_location=NatLocation.REMOTE.value)
        assert got == ["remote_nat64"]
        for local in (NatLocation.ALL_EQUAL, NatLocation.NAT_IN_V6_AS):
            got = categorize(nat_location=local.value)
            assert ProbeCategory.REMOTE_NAT64.value not in got

    def test_ping_without_nat_hop(self):
        got = categorize(ONLY, pings=["passed"], has_nat_hop=False)
        assert ProbeCategory.NO_TRACEROUTE_THROUGH_NAT.value in got
        got = categorize(ONLY, pings=["passed"], has_nat_hop=True)
        assert ProbeCategory.NO_TRACEROUTE_THROUGH_NAT.value not in got

    def test_any_passed_ping_verdict_counts_and_only_a_passed_one(self):
        assert categorize(ONLY, pings=["failed", "passed"]) == ["no_traceroute_through_nat"]
        assert categorize(ONLY, pings=["failed", "inconclusive"]) == ["unknown"]
        assert categorize(ONLY, pings=[]) == ["unknown"]

    def test_home_is_annotation_driven(self):
        assert HOME_TAG == "home-nat64"
        assert categorize(ONLY, tags=["lab", HOME_TAG]) == ["home_setup"]
        assert categorize(ONLY, tags=["home"]) == ["unknown"]

    def test_unknown_only_when_empty(self):
        assert categorize() == ["unknown"]
        assert ProbeCategory.UNKNOWN.value not in categorize(tags=[HOME_TAG])

    def test_buckets_overlap(self):
        got = categorize(
            public_nat64_only=True,
            evidence=EVIDENCE, resolvers_used=[RESOLVER],
            nat_location=NatLocation.REMOTE.value,
        )
        assert got == ["as_with_dns64", "isp_dns64", "public_service", "remote_nat64"]

    def test_each_call_returns_a_new_list(self):
        # classify writes the list into its probe entry as it is.
        one, two = categorize(), categorize()
        one.append("x")
        assert two == ["unknown"]


class TestAsCategories:
    def test_load_and_lookup(self, tmp_path):
        path = tmp_path / "cats.txt"
        path.write_text(
            "# operator categories\n"
            "64500,OI\n"
            "64501, RI # trailing comment\n"
            "\n"
            "64502,H\n"
        )
        mapping = load_as_categories(str(path))
        assert mapping == {
            64500: ASCategory.OTHER_ISP,
            64501: ASCategory.RESIDENTIAL_ISP,
            64502: ASCategory.HOBBYIST,
        }
        entries = [{"categories": ["unknown"], "asn_v6": asn} for asn in (64500, 99999, None)]
        assert count_as_categories(entries, mapping) == {
            "OI": {"ases": 1, "probes": 1},
            "U": {"ases": 1, "probes": 2},
        }

    def test_load_accepts_an_explicit_unknown(self, tmp_path):
        path = tmp_path / "cats.txt"
        path.write_text("64512,U\n64513,H\n")
        assert load_as_categories(str(path)) == {
            64512: ASCategory.UNKNOWN,
            64513: ASCategory.HOBBYIST,
        }

    def test_load_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "cats.txt"
        path.write_text("64500 OI\n")
        with pytest.raises(ValueError):
            load_as_categories(str(path))
        path.write_text("64500,XX\n")
        with pytest.raises(ValueError):
            load_as_categories(str(path))

    @pytest.mark.parametrize("asn", ["0", "-1", "4294967296"])
    def test_load_rejects_as_numbers_outside_four_octets(self, tmp_path, asn):
        path = tmp_path / "cats.txt"
        path.write_text(f"4294967295,H\n{asn},OI\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: AS number must be in 1..4294967295")):
            load_as_categories(str(path))

    def test_counts(self):
        mapping = {64500: ASCategory.OTHER_ISP, 64501: ASCategory.OTHER_ISP}
        entries = [
            {"categories": ["isp_dns64"], "asn_v6": asn}
            for asn in (64500, 64500, 64501, 77777, None)
        ]
        counts = count_as_categories(entries, mapping)
        assert counts == {"OI": {"ases": 2, "probes": 3}, "U": {"ases": 1, "probes": 2}}

    def test_counts_only_probes_with_a_category(self):
        mapping = {64500: ASCategory.OTHER_ISP}
        entries = [
            {"categories": [], "asn_v6": 64500},
            {"categories": ["unknown"], "asn_v6": 64500},
            {"categories": [], "asn_v6": 64501},
        ]
        assert count_as_categories(entries, mapping) == {"OI": {"ases": 1, "probes": 1}}
        assert count_as_categories(entries[:1], mapping) == {}

    def test_counts_keyed_by_code_in_catalog_order(self):
        mapping = {64500: ASCategory.OTHER_ISP, 64501: ASCategory.HOBBYIST}
        entries = [{"categories": ["unknown"], "asn_v6": asn} for asn in (None, 64501, 64500)]
        counts = count_as_categories(entries, mapping)
        assert list(counts) == ["OI", "H", "U"]
        assert list(counts) == [cat.value for cat in ASCategory if cat.value in counts]

    def test_explicit_unknown_counts_as_an_unlisted_as(self):
        entries = [{"categories": ["unknown"], "asn_v6": 64512}]
        explicit = count_as_categories(entries, {64512: ASCategory.UNKNOWN})
        assert explicit == count_as_categories(entries, {}) == {"U": {"ases": 1, "probes": 1}}
