"""IPv4-embedded IPv6 address synthesis and prefix discovery (RFC 6052 layouts).

The embedded address occupies fixed bit windows that depend on the prefix
length; bits 64..71 are a reserved byte that must stay zero and is skipped
by the embedding::

    length  v4 bit windows (MSB = bit 0)
    /32     [32, 64)
    /40     [40, 64) + [72, 80)
    /48     [48, 64) + [72, 88)
    /56     [56, 64) + [72, 96)
    /64     [72, 104)
    /96     [96, 128)

All arithmetic below works on the address as a 128-bit integer.
"""

from __future__ import annotations

import ipaddress
from typing import Collection

from .model import ALLOWED_PREFIX_LENGTHS, Nat64Prefix

__all__ = [
    "NoEmbeddingFound",
    "synthesize",
    "derive_prefix_from_answer",
]

#: The order in which a synthesized answer's layouts are tried: every
#: supported length, longest first, so /96 wins when several embed a
#: known address.
_SCAN_ORDER = tuple(sorted(ALLOWED_PREFIX_LENGTHS, reverse=True))


class NoEmbeddingFound(ValueError):
    """No supported layout embeds any of the expected IPv4 addresses."""


def _embed_bits(v4_int: int, length: int) -> int:
    """Return the 128-bit value contributed by the embedded IPv4 address."""
    if length == 96:
        return v4_int
    if length == 64:
        return v4_int << 24
    # Lengths 32..56 split around the reserved byte: the leading fragment
    # always ends at bit 64, the remainder resumes at bit 72.
    head_bits = 64 - length
    tail_bits = 32 - head_bits
    head = v4_int >> tail_bits
    tail = v4_int & ((1 << tail_bits) - 1)
    return (head << 64) | (tail << (56 - tail_bits))


def _extract_bits(addr_int: int, length: int) -> int:
    if length == 96:
        return addr_int & 0xFFFFFFFF
    if length == 64:
        return (addr_int >> 24) & 0xFFFFFFFF
    head_bits = 64 - length
    tail_bits = 32 - head_bits
    head = (addr_int >> 64) & ((1 << head_bits) - 1)
    tail = (addr_int >> (56 - tail_bits)) & ((1 << tail_bits) - 1)
    return (head << tail_bits) | tail


def synthesize(prefix: Nat64Prefix, v4: ipaddress.IPv4Address) -> ipaddress.IPv6Address:
    """Embed ``v4`` under ``prefix`` with all remaining bits zero."""
    if not isinstance(v4, ipaddress.IPv4Address):
        raise TypeError("v4 must be an IPv4Address")
    return ipaddress.IPv6Address(int(prefix.base) | _embed_bits(int(v4), prefix.length))


def derive_prefix_from_answer(
    addr: ipaddress.IPv6Address,
    known_v4: Collection[ipaddress.IPv4Address],
) -> Nat64Prefix:
    """Recover the translation prefix from a synthesized AAAA answer.

    Tries the layouts in ``_SCAN_ORDER``. A candidate only counts when
    rebuilding the address from the implied prefix reproduces it exactly,
    which forces the reserved byte and any suffix bits to zero.
    """
    known = {int(v4) for v4 in known_v4}
    addr_int = int(addr)
    for length in _SCAN_ORDER:
        candidate = _extract_bits(addr_int, length)
        if candidate not in known:
            continue
        base = ipaddress.IPv6Address(addr_int >> (128 - length) << (128 - length))
        prefix = Nat64Prefix.of(base, length)
        if int(synthesize(prefix, ipaddress.IPv4Address(candidate))) == addr_int:
            return prefix
    raise NoEmbeddingFound(f"{addr} embeds none of {len(known)} expected addresses")
