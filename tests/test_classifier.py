"""ISP DNS64 evidence, translator locality, and category bucketing."""

import ipaddress
import re

import pytest

from nat64scope.catalogs import load_as_categories
from nat64scope.classifier import (
    ASCategory,
    IspDns64Evidence,
    LOCAL_NAT_RTT_MS,
    ProbeCategory,
    as_category,
    categorize_probe,
    count_as_categories,
    detect_isp_dns64,
    detect_local_nat64,
    group_runs_by_as,
)
from nat64scope.detector import DetectionFlags, DetectionGroup
from nat64scope.model import (
    Hop,
    Nat64Prefix,
    PathFamily,
    PrefixKind,
    ProbeRecord,
    RawOutcome,
    TestKind,
    TestRun,
    TraceroutePath,
)
from nat64scope.pathlab import NatLocation

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
        assert evidence[64500].is_isp_dns64
        assert evidence[64500].resolver == RESOLVER
        assert evidence[64500].witnesses == ("p1", "p2")

    def test_same_network_is_not_evidence(self):
        probes = {
            "p1": probe("p1", net="2001:db8:1::/48"),
            "p2": probe("p2", net="2001:db8:1::/48"),
        }
        runs = {64500: [dns_pass("p1"), dns_pass("p2")]}
        assert not detect_isp_dns64(runs, probes)[64500].is_isp_dns64

    def test_unknown_network_never_counts(self):
        probes = {"p1": probe("p1", net="2001:db8:1::/48"), "p2": probe("p2")}
        runs = {64500: [dns_pass("p1"), dns_pass("p2")]}
        assert not detect_isp_dns64(runs, probes)[64500].is_isp_dns64

    def test_different_resolvers_never_combine(self):
        probes = {
            "p1": probe("p1", net="2001:db8:1::/48"),
            "p2": probe("p2", net="2001:db8:2::/48"),
        }
        runs = {64500: [dns_pass("p1"), dns_pass("p2", resolver=OTHER_RESOLVER)]}
        assert not detect_isp_dns64(runs, probes)[64500].is_isp_dns64

    def test_single_probe_is_not_evidence(self):
        probes = {"p1": probe("p1", net="2001:db8:1::/48")}
        runs = {64500: [dns_pass("p1"), dns_pass("p1", kind=TestKind.DNS_TEST2)]}
        assert not detect_isp_dns64(runs, probes)[64500].is_isp_dns64

    def test_failed_runs_ignored(self):
        probes = {
            "p1": probe("p1", net="2001:db8:1::/48"),
            "p2": probe("p2", net="2001:db8:2::/48"),
        }
        failed = TestRun("p2", TestKind.DNS_TEST1, 1700000000, RawOutcome.FAIL)
        runs = {64500: [dns_pass("p1"), failed]}
        assert not detect_isp_dns64(runs, probes)[64500].is_isp_dns64

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
        got = detect_isp_dns64(runs, probes)[64500]
        assert got.resolver == RESOLVER  # ::1 sorts before ::2

    def test_similar_prefixes_flagged(self):
        probes = {
            "p1": probe("p1", net="2001:db8:1::/48"),
            "p2": probe("p2", net="2001:db8:2::/48"),
        }
        # Same first 48 bits and length, different low bits.
        a = Nat64Prefix.from_cidr("2001:db8:64:1::/96")
        b = Nat64Prefix.from_cidr("2001:db8:64:2::/96")
        runs = {64500: [dns_pass("p1", prefix=a), dns_pass("p2", prefix=b)]}
        got = detect_isp_dns64(runs, probes)[64500]
        assert got.multiple_similar_prefixes

    def test_distinct_stems_not_flagged(self):
        probes = {
            "p1": probe("p1", net="2001:db8:1::/48"),
            "p2": probe("p2", net="2001:db8:2::/48"),
        }
        a = Nat64Prefix.from_cidr("2001:db8:64::/96")
        b = Nat64Prefix.from_cidr("2001:db9:64::/96")
        runs = {64500: [dns_pass("p1", prefix=a), dns_pass("p2", prefix=b)]}
        assert not detect_isp_dns64(runs, probes)[64500].multiple_similar_prefixes

    def test_ases_reported_in_order(self):
        probes = {
            "p1": probe("p1", asn=64501, net="2001:db8:1::/48"),
            "p2": probe("p2", asn=64500, net="2001:db8:2::/48"),
        }
        runs = {64501: [dns_pass("p1")], 64500: [dns_pass("p2")]}
        assert list(detect_isp_dns64(runs, probes)) == [64500, 64501]


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


NO_FLAGS = DetectionFlags(False, False, False, False)


class TestCategorize:
    def test_non_nat64_groups_get_no_buckets(self):
        for group in (
            DetectionGroup.NO_NAT64,
            DetectionGroup.DNS64_MISCONFIGURED_ONLY,
            DetectionGroup.INCONCLUSIVE,
        ):
            assert categorize_probe(group, NO_FLAGS) == frozenset()

    def test_isp_dns64_requires_using_the_resolver(self):
        evidence = IspDns64Evidence(64500, True, RESOLVER, ("p1", "p2"))
        got = categorize_probe(
            DetectionGroup.NAT64_PLUS_DNS64, NO_FLAGS,
            evidence=evidence, resolvers_used=[RESOLVER],
        )
        assert ProbeCategory.ISP_DNS64 in got
        assert ProbeCategory.AS_WITH_DNS64 in got

    def test_as_evidence_without_using_it(self):
        evidence = IspDns64Evidence(64500, True, RESOLVER, ("p2", "p3"))
        got = categorize_probe(
            DetectionGroup.NAT64_PLUS_DNS64, NO_FLAGS,
            evidence=evidence, resolvers_used=[OTHER_RESOLVER],
        )
        assert ProbeCategory.AS_WITH_DNS64 in got
        assert ProbeCategory.ISP_DNS64 not in got

    def test_negative_evidence_adds_nothing(self):
        evidence = IspDns64Evidence(64500, False, None, ())
        got = categorize_probe(
            DetectionGroup.NAT64_PLUS_DNS64, NO_FLAGS,
            evidence=evidence, resolvers_used=[RESOLVER],
        )
        assert got == frozenset({ProbeCategory.UNKNOWN})

    def test_public_resolver_only(self):
        got = categorize_probe(
            DetectionGroup.NAT64_PLUS_DNS64, NO_FLAGS,
            resolvers_used=[PUBLIC], public_resolvers=[PUBLIC],
        )
        assert got == frozenset({ProbeCategory.PUBLIC_RESOLVER_ONLY})

    def test_mixed_resolvers_not_public_only(self):
        got = categorize_probe(
            DetectionGroup.NAT64_PLUS_DNS64, NO_FLAGS,
            resolvers_used=[PUBLIC, RESOLVER], public_resolvers=[PUBLIC],
        )
        assert ProbeCategory.PUBLIC_RESOLVER_ONLY not in got

    def test_public_service(self):
        flag = DetectionFlags(False, False, False, True)
        got = categorize_probe(DetectionGroup.NAT64_PLUS_DNS64, flag)
        assert ProbeCategory.PUBLIC_SERVICE in got

    def test_remote_nat(self):
        got = categorize_probe(
            DetectionGroup.NAT64_PLUS_DNS64, NO_FLAGS,
            nat_location=NatLocation.REMOTE,
        )
        assert got == frozenset({ProbeCategory.REMOTE_NAT64})
        for local in (NatLocation.ALL_EQUAL, NatLocation.NAT_IN_V6_AS):
            got = categorize_probe(
                DetectionGroup.NAT64_PLUS_DNS64, NO_FLAGS, nat_location=local,
            )
            assert ProbeCategory.REMOTE_NAT64 not in got

    def test_ping_without_nat_hop(self):
        got = categorize_probe(
            DetectionGroup.NAT64_ONLY, NO_FLAGS,
            ping_passed=True, has_nat_hop=False,
        )
        assert ProbeCategory.NO_TRACEROUTE_THROUGH_NAT in got
        got = categorize_probe(
            DetectionGroup.NAT64_ONLY, NO_FLAGS,
            ping_passed=True, has_nat_hop=True,
        )
        assert ProbeCategory.NO_TRACEROUTE_THROUGH_NAT not in got

    def test_home_is_annotation_driven(self):
        got = categorize_probe(
            DetectionGroup.NAT64_ONLY, NO_FLAGS, home_annotation=True,
        )
        assert ProbeCategory.HOME_SETUP in got

    def test_unknown_only_when_empty(self):
        got = categorize_probe(DetectionGroup.NAT64_PLUS_DNS64, NO_FLAGS)
        assert got == frozenset({ProbeCategory.UNKNOWN})
        got = categorize_probe(
            DetectionGroup.NAT64_PLUS_DNS64, NO_FLAGS, home_annotation=True,
        )
        assert ProbeCategory.UNKNOWN not in got

    def test_buckets_overlap(self):
        evidence = IspDns64Evidence(64500, True, RESOLVER, ("p1", "p2"))
        got = categorize_probe(
            DetectionGroup.NAT64_PLUS_DNS64, DetectionFlags(public_nat64_only=True),
            evidence=evidence, resolvers_used=[RESOLVER],
            nat_location=NatLocation.REMOTE,
        )
        assert got >= {
            ProbeCategory.ISP_DNS64,
            ProbeCategory.AS_WITH_DNS64,
            ProbeCategory.REMOTE_NAT64,
            ProbeCategory.PUBLIC_SERVICE,
        }


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
        assert as_category(64500, mapping) is ASCategory.OTHER_ISP
        assert as_category(99999, mapping) is ASCategory.UNKNOWN
        assert as_category(None, mapping) is ASCategory.UNKNOWN

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
        counts = count_as_categories([64500, 64500, 64501, 77777, None], mapping)
        assert counts[ASCategory.OTHER_ISP] == {"ases": 2, "probes": 3}
        assert counts[ASCategory.UNKNOWN] == {"ases": 1, "probes": 2}
        assert ASCategory.HOBBYIST not in counts
