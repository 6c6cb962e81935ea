import ipaddress

import pytest
from hypothesis import given, strategies as st

from nat64scope.addrsynth import (
    NoEmbeddingFound,
    PrefixMismatch,
    derive_prefix_from_answer,
    extract_ipv4,
    matches_prefix,
    synthesize,
)
from nat64scope.model import ALLOWED_PREFIX_LENGTHS, Nat64Prefix, PrefixKind, STANDARD_PREFIX
from nat64scope.simharness.oracle import embedded_address

from oracles import oracle_extract

V4 = ipaddress.IPv4Address
V6 = ipaddress.IPv6Address

# Expected values computed with the byte-table oracle before the shift
# implementation existed; do not regenerate from the code under test.
FROZEN_VECTORS = [
    ("2001:db8::/32", "192.0.2.33", "2001:db8:c000:221::"),
    ("2001:db8::/40", "192.0.2.33", "2001:db8:c0:2:21::"),
    ("2001:db8::/48", "192.0.2.33", "2001:db8:0:c000:2:2100::"),
    ("2001:db8::/56", "192.0.2.33", "2001:db8:0:c0:0:221::"),
    ("2001:db8::/64", "192.0.2.33", "2001:db8::c0:2:2100:0"),
    ("2001:db8:6464:1::/96", "192.0.2.33", "2001:db8:6464:1::c000:221"),
    ("64:ff9b::/96", "91.201.7.243", "64:ff9b::5bc9:7f3"),
]

v4_addresses = st.integers(min_value=0, max_value=2**32 - 1).map(V4)
prefix_lengths = st.sampled_from(ALLOWED_PREFIX_LENGTHS)


@st.composite
def prefixes(draw):
    length = draw(prefix_lengths)
    bits = draw(st.integers(min_value=0, max_value=2**length - 1))
    base = V6(bits << (128 - length))
    standard = base == V6("64:ff9b::") and length == 96
    kind = PrefixKind.STANDARD if standard else PrefixKind.CUSTOM
    return Nat64Prefix(base, length, kind)


class TestFrozenVectors:
    @pytest.mark.parametrize("cidr,v4,expected", FROZEN_VECTORS)
    def test_synthesize(self, cidr, v4, expected):
        assert synthesize(Nat64Prefix.from_cidr(cidr), V4(v4)) == V6(expected)

    @pytest.mark.parametrize("cidr,v4,expected", FROZEN_VECTORS)
    def test_extract(self, cidr, v4, expected):
        assert extract_ipv4(V6(expected), Nat64Prefix.from_cidr(cidr)) == V4(v4)

    def test_standard_anchor_round_trip(self):
        addr = synthesize(STANDARD_PREFIX, V4("91.201.7.243"))
        assert addr == V6("64:ff9b::5bc9:7f3")
        assert extract_ipv4(addr, STANDARD_PREFIX) == V4("91.201.7.243")


class TestProperties:
    @given(prefixes(), v4_addresses)
    def test_round_trip(self, prefix, v4):
        addr = synthesize(prefix, v4)
        assert extract_ipv4(addr, prefix) == v4
        assert matches_prefix(addr, prefix)

    @given(prefixes(), v4_addresses)
    def test_agrees_with_byte_table_oracle(self, prefix, v4):
        addr = synthesize(prefix, v4)
        assert addr == embedded_address(prefix, v4)
        assert oracle_extract(addr, prefix.length) == v4

    @given(prefixes(), v4_addresses)
    def test_reserved_byte_stays_zero(self, prefix, v4):
        # Only meaningful below /96 where the embedding straddles byte 8.
        addr = synthesize(prefix, v4)
        if prefix.length <= 64:
            assert (int(addr) >> 56) & 0xFF == (int(prefix.base) >> 56) & 0xFF
        if prefix.length < 64:
            assert synthesize(Nat64Prefix(
                V6(0), prefix.length,
                PrefixKind.CUSTOM), v4).packed[8] == 0

    @given(prefixes(), v4_addresses)
    def test_derive_recovers_prefix(self, prefix, v4):
        addr = synthesize(prefix, v4)
        derived = derive_prefix_from_answer(addr, [v4], lengths=[prefix.length])
        assert derived == prefix

    @given(v4_addresses)
    def test_derive_prefers_96_on_ambiguity(self, v4):
        # A /96 synthesis is also consistent with nothing else here, but the
        # scan order must put /96 first when several lengths would match.
        addr = synthesize(STANDARD_PREFIX, v4)
        derived = derive_prefix_from_answer(addr, [v4])
        assert derived.length == 96
        assert derived.kind is PrefixKind.STANDARD


class TestDeriveRejection:
    def test_no_embedding(self):
        with pytest.raises(NoEmbeddingFound):
            derive_prefix_from_answer(V6("2001:db8::1"), [V4("192.0.0.170")])

    def test_nonzero_suffix_rejected(self):
        # Valid /64 embedding plus trailing garbage must not derive.
        addr = synthesize(Nat64Prefix.from_cidr("2001:db8::/64"), V4("192.0.0.170"))
        dirty = V6(int(addr) | 1)
        with pytest.raises(NoEmbeddingFound):
            derive_prefix_from_answer(dirty, [V4("192.0.0.170")], lengths=[64])

    def test_nonzero_reserved_byte_rejected(self):
        addr = synthesize(Nat64Prefix.from_cidr("2001:db8::/48"), V4("192.0.0.170"))
        dirty = V6(int(addr) | (1 << 56))
        with pytest.raises(NoEmbeddingFound):
            derive_prefix_from_answer(dirty, [V4("192.0.0.170")], lengths=[48])

    def test_mismatch_error(self):
        with pytest.raises(PrefixMismatch):
            extract_ipv4(V6("2001:db8::1"), STANDARD_PREFIX)


class TestDeriveKinds:
    def test_custom_96(self):
        addr = V6("2001:db8:aaaa:bbbb::c000:aa")
        derived = derive_prefix_from_answer(addr, [V4("192.0.0.170")])
        assert derived == Nat64Prefix.from_cidr("2001:db8:aaaa:bbbb::/96")
        assert derived.kind is PrefixKind.CUSTOM

    def test_multiple_known_addresses(self):
        known = [V4("192.0.0.170"), V4("192.0.0.171")]
        addr = synthesize(STANDARD_PREFIX, V4("192.0.0.171"))
        assert derive_prefix_from_answer(addr, known) == STANDARD_PREFIX
