import ipaddress

import pytest

from nat64scope.model import (
    Hop,
    Nat64Prefix,
    PathFamily,
    PrefixKind,
    ProbeRecord,
    RawOutcome,
    STANDARD_PREFIX,
    TestKind,
    TestRun,
    TraceroutePath,
    validate,
)

V4 = ipaddress.IPv4Address
V6 = ipaddress.IPv6Address


def make_path(family=PathFamily.IPV4, prefix=None, hops=(), probe="p1", rnd=0):
    return TraceroutePath(
        probe_id=probe,
        family=family,
        prefix=prefix,
        target_v4=V4("198.18.0.1"),
        round_index=rnd,
        hops=hops,
    )


class TestNat64Prefix:
    def test_standard_constant(self):
        assert STANDARD_PREFIX.base == V6("64:ff9b::")
        assert STANDARD_PREFIX.length == 96
        assert STANDARD_PREFIX.kind is PrefixKind.STANDARD

    def test_from_cidr_derives_kind(self):
        p = Nat64Prefix.from_cidr("2001:db8:64::/96")
        assert p.kind is PrefixKind.CUSTOM
        assert Nat64Prefix.from_cidr("64:ff9b::/96").kind is PrefixKind.STANDARD

    @pytest.mark.parametrize("length", [0, 33, 95, 97, 128])
    def test_rejects_unsupported_length(self, length):
        with pytest.raises(ValueError):
            Nat64Prefix(V6("2001:db8::"), length, PrefixKind.CUSTOM)

    def test_rejects_unmasked_base(self):
        with pytest.raises(ValueError):
            Nat64Prefix(V6("2001:db8::1"), 96, PrefixKind.CUSTOM)

    def test_rejects_mislabeled_kind(self):
        with pytest.raises(ValueError):
            Nat64Prefix(V6("64:ff9b::"), 96, PrefixKind.CUSTOM)
        with pytest.raises(ValueError):
            Nat64Prefix(V6("2001:db8::"), 96, PrefixKind.STANDARD)

    def test_str(self):
        assert str(STANDARD_PREFIX) == "64:ff9b::/96"


def test_hop_is_a_named_tuple():
    hop = Hop(2, None)
    assert hop == (2, None, ()) and hash(hop) == hash((2, None, ()))
    assert not hop.responded and Hop(1, V4("10.0.0.1")).responded
    assert hop._replace(index=3).index == 3


class TestValidate:
    def test_well_formed_probe(self):
        rec = ProbeRecord(
            "p1",
            asn_v4=65001,
            asn_v6=65001,
            resolvers=(V6("2001:db8::53"),),
            tags=("system-ipv6-works",),
            network_prefix_v6=ipaddress.IPv6Network("2001:db8::/64"),
        )
        assert validate(rec) == []

    def test_bad_asn(self):
        rec = ProbeRecord("p1", asn_v4=-4, asn_v6=None)
        assert any("asn_v4" in p for p in validate(rec))

    def test_dns_fail_with_prefix_flagged(self):
        run = TestRun(
            "p1", TestKind.DNS_TEST1, 1700000000, RawOutcome.FAIL,
            observed_prefix=STANDARD_PREFIX,
        )
        assert any("observed_prefix" in p for p in validate(run))

    def test_dns_pass_with_prefix_ok(self):
        run = TestRun(
            "p1", TestKind.DNS_TEST1, 1700000000, RawOutcome.PASS,
            observed_prefix=STANDARD_PREFIX, resolver_used=V6("2001:db8::53"),
        )
        assert validate(run) == []

    def test_ping_without_prefix_flagged(self):
        run = TestRun("p1", TestKind.STD_PREFIX_PING, 0, RawOutcome.PASS)
        assert any("lacks a prefix" in p for p in validate(run))

    def test_std_ping_with_custom_prefix_flagged(self):
        run = TestRun(
            "p1", TestKind.STD_PREFIX_PING, 0, RawOutcome.PASS,
            observed_prefix=Nat64Prefix.from_cidr("2001:db8::/96"),
        )
        assert validate(run) != []

    def test_custom_ping_with_standard_prefix_flagged(self):
        run = TestRun(
            "p1", TestKind.CUSTOM_PREFIX_PING, 0, RawOutcome.PASS,
            observed_prefix=STANDARD_PREFIX,
        )
        assert validate(run) != []

    def test_hop_contiguity(self):
        ok = make_path(hops=(Hop(1, V4("10.0.0.1"), (1.0,)), Hop(2, None)))
        assert validate(ok) == []
        broken = make_path(hops=(Hop(1, V4("10.0.0.1"), (1.0,)), Hop(3, None)))
        assert any("contiguous" in p for p in validate(broken))

    def test_hop_checks_take_exact_types(self):
        addr = V4("10.0.0.1")
        assert validate(make_path(hops=(Hop(1, addr, (1, 2.5)),))) == []
        assert validate(make_path(hops=(Hop(True, addr, (1.0,)),))) == [
            "p1: hop index True is not an integer"
        ]
        assert validate(make_path(hops=(Hop(1, addr, (True, 1e308 * 10)),))) == [
            "p1: hop 1 has invalid RTT True",
            "p1: hop 1 has invalid RTT inf",
        ]

    def test_silent_hop_with_rtts_flagged(self):
        bad = make_path(hops=(Hop(1, None, (1.0,)),))
        assert any("silent" in p for p in validate(bad))

    def test_nat64_path_needs_prefix(self):
        bad = make_path(family=PathFamily.NAT64)
        assert any("prefix" in p for p in validate(bad))

    def test_ipv4_path_must_not_carry_prefix(self):
        bad = make_path(prefix=STANDARD_PREFIX)
        assert any("prefix" in p for p in validate(bad))

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            validate(object())
