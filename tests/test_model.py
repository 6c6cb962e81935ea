import ipaddress
import os
import pickle
import subprocess
import sys

import pytest

from nat64scope.acquire.dataset import decode_record
from nat64scope.addrsynth import derive_prefix_from_answer, synthesize
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

    @pytest.mark.parametrize("text", ["64:ff9b::/96", "2001:db8:64::/96", "2001:db8::/32"])
    def test_equal_prefixes_built_four_ways_agree(self, text):
        base_text, _, length_text = text.partition("/")
        base, length = V6(base_text), int(length_text)
        kind = PrefixKind.STANDARD if text == "64:ff9b::/96" else PrefixKind.CUSTOM
        path = decode_record({
            "record": "traceroute", "probe_id": "p1", "family": "nat64",
            "prefix": {"base": base_text, "length": length, "kind": kind.value},
            "target_v4": "192.0.2.1", "round": 0, "hops": [],
        })
        first = Nat64Prefix(base, length, kind)
        known = V4("192.0.2.33")
        built = [
            first,
            Nat64Prefix.from_cidr(text),
            path.prefix,
            derive_prefix_from_answer(synthesize(first, known), [known]),
        ]
        for other in built[1:]:
            assert str(other) == str(first) == text
            assert hash(other) == hash(first)
            assert other == first
        table = {prefix: n for n, prefix in enumerate(built)}
        assert len(table) == 1
        assert [table[prefix] for prefix in built] == [3, 3, 3, 3]

    def test_repr_is_unchanged(self):
        assert repr(STANDARD_PREFIX) == (
            "Nat64Prefix(base=IPv6Address('64:ff9b::'), length=96, "
            "kind=<PrefixKind.STANDARD: 'standard'>)"
        )

    def test_pickle_round_trip(self):
        prefixes = [STANDARD_PREFIX, Nat64Prefix.from_cidr("2001:db8::/48")]
        for prefix in prefixes:
            copy = pickle.loads(pickle.dumps(prefix))
            assert copy == prefix and hash(copy) == hash(prefix) and str(copy) == str(prefix)
            assert {prefix: 1}[copy] == 1
        # Another process hashes strings with another seed; the stored hash
        # must not travel with the pickle.
        code = (
            "import pickle, sys; from nat64scope.model import Nat64Prefix; "
            "ps = pickle.loads(sys.stdin.buffer.read()); "
            "print(all(hash(p) == hash(Nat64Prefix(p.base, p.length, p.kind)) for p in ps))"
        )
        seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
        env = {**os.environ, "PYTHONHASHSEED": seed}
        done = subprocess.run(
            [sys.executable, "-c", code], input=pickle.dumps(prefixes), env=env,
            capture_output=True, check=True,
        )
        assert done.stdout.strip() == b"True"


def test_hop_is_a_named_tuple():
    hop = Hop(2, None)
    assert hop == (2, None, ()) and hash(hop) == hash((2, None, ()))
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

    def test_probe_id_that_is_not_text_flagged(self):
        # A lone surrogate loads from a JSON escape but has no UTF-8 form.
        assert validate(ProbeRecord("p\ud800", asn_v4=None, asn_v6=None)) == [
            "probe_id is not valid Unicode text"
        ]

    def test_non_ascii_probe_id_ok(self):
        assert validate(ProbeRecord("prüf-1", asn_v4=None, asn_v6=None)) == []

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
