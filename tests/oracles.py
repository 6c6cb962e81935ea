"""Independent reference implementations used to check derived values.

Everything in this file is deliberately written with different arithmetic
than the package under test: embeddings use a byte-position table instead
of integer shifts, correlation uses the raw-moment formula, and statistics
come from numpy. The byte-position table and the byte-wise embedding are
the simulation oracle's (``nat64scope.simharness.oracle``), which shares
no arithmetic with ``nat64scope.addrsynth``; take nothing else from
nat64scope internals beyond plain data types.
"""

from __future__ import annotations

import ipaddress
import math

from nat64scope.simharness.oracle import V4_BYTE_SLOTS, embedded_address


def oracle_extract(addr: ipaddress.IPv6Address, length: int) -> ipaddress.IPv4Address:
    packed = addr.packed
    return ipaddress.IPv4Address(bytes(packed[slot] for slot in V4_BYTE_SLOTS[length]))


def oracle_pearson(xs, ys) -> float:
    """Raw-moment correlation formula, straight from a statistics textbook."""
    n = len(xs)
    sx = math.fsum(xs)
    sy = math.fsum(ys)
    sxx = math.fsum(x * x for x in xs)
    syy = math.fsum(y * y for y in ys)
    sxy = math.fsum(x * y for x, y in zip(xs, ys))
    num = n * sxy - sx * sy
    den = math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
    return num / den

