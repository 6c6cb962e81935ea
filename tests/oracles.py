"""Independent reference implementations used to check derived values.

Everything in this file is deliberately written with different arithmetic
than the package under test: embeddings place and read bytes through this
file's own byte-position table instead of shifting integers, correlation
uses the raw-moment formula, and dataset lines come from a document built
field by field for ``json.dumps``. The table is written down here from the
RFC 6052 layouts, not imported, so the reference shares nothing with the
package; take nothing from nat64scope beyond its plain data types.
"""

from __future__ import annotations

import ipaddress
import math

from nat64scope.model import ProbeRecord, TestRun, TraceroutePath

#: Byte offsets of the embedded IPv4 address per prefix length (RFC 6052,
#: section 2.2); byte 8 is the reserved zero octet and is never a slot.
V4_BYTE_SLOTS = {
    32: (4, 5, 6, 7),
    40: (5, 6, 7, 9),
    48: (6, 7, 9, 10),
    56: (7, 9, 10, 11),
    64: (9, 10, 11, 12),
    96: (12, 13, 14, 15),
}


def _embed(head: bytes, length: int, v4: ipaddress.IPv4Address) -> bytes:
    """``head`` padded with zeros to 16 bytes, the IPv4 bytes placed into
    the /``length`` layout's slots one by one."""
    packed = bytearray(head.ljust(16, b"\0"))
    for slot, byte in zip(V4_BYTE_SLOTS[length], v4.packed):
        packed[slot] = byte
    return bytes(packed)


def oracle_embed(prefix, v4: ipaddress.IPv4Address) -> ipaddress.IPv6Address:
    """``v4`` embedded under ``prefix``; a base is zero past its length, so
    below /96 the reserved byte stays zero."""
    return ipaddress.IPv6Address(_embed(prefix.base.packed, prefix.length, v4))


def oracle_extract(addr: ipaddress.IPv6Address, length: int) -> ipaddress.IPv4Address:
    """Read the IPv4 bytes out of the /``length`` layout's slots."""
    packed = addr.packed
    return ipaddress.IPv4Address(bytes(packed[slot] for slot in V4_BYTE_SLOTS[length]))


def oracle_layouts(addr: ipaddress.IPv6Address, known) -> list:
    """Every length, shortest first, whose layout reads ``addr`` as one of
    the ``known`` IPv4 addresses under ``addr``'s own leading bytes, with
    every other byte zero."""
    raw = addr.packed
    return [
        length for length in sorted(V4_BYTE_SLOTS)
        if (v4 := oracle_extract(addr, length)) in known
        and _embed(raw[: length // 8], length, v4) == raw
    ]


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


def _address_doc(address):
    return None if address is None else str(address)


def _prefix_doc(prefix):
    if prefix is None:
        return None
    return {"base": str(prefix.base), "length": prefix.length, "kind": prefix.kind.value}


def oracle_document(record) -> dict:
    """One dataset record as a JSON-ready dict, every field spelled out.

    ``json.dumps`` of it with sorted keys and compact separators is the
    line ``write_dataset`` must write for the record.
    """
    if isinstance(record, ProbeRecord):
        return {
            "record": "probe",
            "probe_id": record.probe_id,
            "asn_v4": record.asn_v4,
            "asn_v6": record.asn_v6,
            "resolvers": [_address_doc(r) for r in record.resolvers],
            "tags": list(record.tags),
            "network_prefix_v6": (
                str(record.network_prefix_v6) if record.network_prefix_v6 else None
            ),
        }
    if isinstance(record, TestRun):
        return {
            "record": "test_run",
            "probe_id": record.probe_id,
            "test_kind": record.test_kind.value,
            "timestamp": record.timestamp,
            "raw_outcome": record.raw_outcome.value,
            "observed_prefix": _prefix_doc(record.observed_prefix),
            "resolver_used": _address_doc(record.resolver_used),
            "diagnostic": record.diagnostic,
        }
    if isinstance(record, TraceroutePath):
        return {
            "record": "traceroute",
            "probe_id": record.probe_id,
            "family": record.family.value,
            "prefix": _prefix_doc(record.prefix),
            "target_v4": _address_doc(record.target_v4),
            "round": record.round_index,
            "hops": [
                {
                    "index": hop.index,
                    "address": _address_doc(hop.address),
                    "rtts_ms": list(hop.rtts_ms),
                }
                for hop in record.hops
            ],
        }
    raise TypeError(f"no document for {type(record).__name__}")
