"""Independent reference implementations used to check derived values.

Everything in this file is deliberately written with different arithmetic
than the package under test: embeddings use a byte-position table instead
of integer shifts, correlation uses the raw-moment formula, and statistics
come from numpy, and dataset lines from a document built field by field
for ``json.dumps``. The byte-position table and the byte-wise embedding
are the simulation oracle's (``nat64scope.simharness.oracle``), which
shares no arithmetic with ``nat64scope.addrsynth``; take nothing else from
nat64scope internals beyond plain data types.
"""

from __future__ import annotations

import ipaddress
import math

from nat64scope.model import ProbeRecord, TestRun, TraceroutePath
from nat64scope.simharness.oracle import V4_BYTE_SLOTS


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
