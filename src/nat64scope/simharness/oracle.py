"""Independent recomputation of the aggregate path statistics.

Everything here is deliberately reimplemented from the raw path records:
the address embedding uses its own byte-position table, reachability and
hop accounting are recomputed from scratch, and the summaries use their
own formulas in plain Python (built-in ``sum``, a two-pass variance, the
sorted middle, a correlation of scaled deviations) where ``pathlab`` uses
``math.fsum`` and exact fractions. Agreement with the analysis code is
therefore corroboration, not an identity.

``oracle_stats`` builds the same document that ``pathlab.aggregate_report``
returns and ``summary.json`` holds under ``stats``; ``compare`` walks two
such documents side by side and lists where they differ.
"""

from __future__ import annotations

import ipaddress
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..model import PathPair, TraceroutePath

#: Where the four IPv4 bytes land for each prefix length; byte 8 is the
#: reserved zero octet and never appears as a slot.
V4_BYTE_SLOTS = {
    32: (4, 5, 6, 7),
    40: (5, 6, 7, 9),
    48: (6, 7, 9, 10),
    56: (7, 9, 10, 11),
    64: (9, 10, 11, 12),
    96: (12, 13, 14, 15),
}


def embedded_address(prefix, target: ipaddress.IPv4Address) -> ipaddress.IPv6Address:
    """Place the IPv4 bytes into the prefix's base byte by byte.

    A prefix's base is zero past its length, so below /96 the reserved
    byte 8 stays zero.
    """
    packed = bytearray(prefix.base.packed)
    for slot, byte in zip(V4_BYTE_SLOTS[prefix.length], target.packed):
        packed[slot] = byte
    return ipaddress.IPv6Address(bytes(packed))


def _wanted(path: TraceroutePath):
    if path.family.value == "ipv4":
        return path.target_v4
    return embedded_address(path.prefix, path.target_v4)


def _target_index(path: TraceroutePath) -> Optional[int]:
    wanted = _wanted(path)
    for hop in path.hops:
        if hop.address == wanted:
            return hop.index
    return None


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


#: The columns of a pair's row, in ``_pair_row``'s order.
_COLUMNS = (
    "v4_length", "nat64_length", "v4_rtt_ms", "nat64_rtt_ms", "v4_missing_pct",
    "nat64_missing_pct", "length_diff", "rtt_diff_ms", "length_diff_pct", "rtt_diff_pct",
)


def _pair_row(pair: PathPair) -> Optional[Tuple[float, ...]]:
    i4 = _target_index(pair.ipv4)
    i6 = _target_index(pair.nat64)
    if i4 is None or i6 is None:
        return None
    hop4 = pair.ipv4.hops[i4 - 1]
    hop6 = pair.nat64.hops[i6 - 1]
    if not hop4.rtts_ms or not hop6.rtts_ms:
        return None
    rtt4 = _mean(hop4.rtts_ms)
    if rtt4 == 0.0:  # no RTT percentage exists
        return None
    rtt6 = _mean(hop6.rtts_ms)
    silent4 = sum(1 for hop in pair.ipv4.hops[:i4] if hop.address is None)
    silent6 = sum(1 for hop in pair.nat64.hops[:i6] if hop.address is None)
    return (
        float(i4),
        float(i6),
        rtt4,
        rtt6,
        100.0 * silent4 / i4,
        100.0 * silent6 / i6,
        float(i6 - i4),
        rtt6 - rtt4,
        100.0 * (i6 - i4) / i4,
        100.0 * (rtt6 - rtt4) / rtt4,
    )


def _deviations(values: Sequence[float]) -> List[float]:
    mean = _mean(values)
    return [value - mean for value in values]


def _sd(values: Sequence[float]) -> float:
    return math.sqrt(sum(d * d for d in _deviations(values)) / len(values))


def _summary(values: Sequence[float]) -> Optional[dict]:
    if not values:
        return None
    ordered = sorted(values)
    n = len(ordered)
    return {
        "n": n,
        "mean": _mean(values),
        "sd": _sd(values),
        "median": (ordered[(n - 1) // 2] + ordered[n // 2]) / 2,
    }


def _rates(pairs: Sequence[PathPair]) -> dict:
    n = len(pairs)
    if n == 0:
        return {"n_pairs": 0, "v4_pct": None, "nat64_pct": None, "both_pct": None}
    ok4 = [_target_index(p.ipv4) is not None for p in pairs]
    ok6 = [_target_index(p.nat64) is not None for p in pairs]
    return {
        "n_pairs": n,
        "v4_pct": 100.0 * ok4.count(True) / n,
        "nat64_pct": 100.0 * ok6.count(True) / n,
        "both_pct": 100.0 * sum(1 for a, b in zip(ok4, ok6) if a and b) / n,
    }


def _columns(rows: Sequence[Tuple[float, ...]]) -> Dict[str, List[float]]:
    return {name: [row[i] for row in rows] for i, name in enumerate(_COLUMNS)}


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Undefined below two points or for a series with a single value."""
    if len(xs) < 2 or min(xs) == max(xs) or min(ys) == max(ys):
        return None
    dx = _deviations(xs)
    dy = _deviations(ys)
    sx = math.sqrt(sum(d * d for d in dx))
    sy = math.sqrt(sum(d * d for d in dy))
    r = sum((a / sx) * (b / sy) for a, b in zip(dx, dy))
    return max(-1.0, min(1.0, r))


def oracle_stats(
    pairs: Sequence[PathPair],
    groupings: Optional[Mapping[str, Sequence[str]]] = None,
) -> dict:
    """Recompute the whole aggregate summary as plain nested dicts."""
    rows = [_pair_row(pair) for pair in pairs]
    usable = [row for row in rows if row is not None]
    cols = _columns(usable)

    metrics = {name: _summary(values) for name, values in cols.items()} if usable else {}

    mean_of_pair_pcts = {
        "length": metrics["length_diff_pct"]["mean"] if usable else None,
        "rtt": metrics["rtt_diff_pct"]["mean"] if usable else None,
    }
    pct_of_means = {"length": None, "rtt": None}
    if usable:
        mean_len4 = metrics["v4_length"]["mean"]
        mean_len6 = metrics["nat64_length"]["mean"]
        mean_rtt4 = metrics["v4_rtt_ms"]["mean"]
        mean_rtt6 = metrics["nat64_rtt_ms"]["mean"]
        if mean_len4:
            pct_of_means["length"] = 100.0 * (mean_len6 - mean_len4) / mean_len4
        if mean_rtt4:
            pct_of_means["rtt"] = 100.0 * (mean_rtt6 - mean_rtt4) / mean_rtt4

    groups = {}
    for name, probe_ids in (groupings or {}).items():
        member = set(probe_ids)
        sub = [
            (pair, row)
            for pair, row in zip(pairs, rows)
            if pair.nat64.probe_id in member
        ]
        sub_cols = _columns([row for _, row in sub if row is not None])
        groups[name] = {
            "success": _rates([pair for pair, _ in sub]),
            "length_diff": _summary(sub_cols["length_diff"]),
            "rtt_diff_ms": _summary(sub_cols["rtt_diff_ms"]),
        }

    per_target = {
        target: _rates([p for p in pairs if str(p.nat64.target_v4) == target])
        for target in sorted({str(p.nat64.target_v4) for p in pairs})
    }

    per_prefix = {}
    for prefix_name in sorted({str(p.nat64.prefix) for p in pairs}):
        values = [
            row[1] - row[0]
            for pair, row in zip(pairs, rows)
            if row is not None and str(pair.nat64.prefix) == prefix_name
        ]
        summary = _summary(values)
        if summary is not None:
            per_prefix[prefix_name] = summary

    return {
        "success": _rates(pairs),
        "metrics": metrics,
        "mean_of_pair_pcts": mean_of_pair_pcts,
        "pct_of_means": pct_of_means,
        "pearson_r": _pearson(cols["length_diff"], cols["rtt_diff_ms"]),
        "ttl_anomaly_pairs": sum(1 for row in usable if min(row[0], row[1]) <= 3.0),
        "groups": groups,
        "per_target": per_target,
        "per_prefix": per_prefix,
    }


def compare(stats: dict, oracle: dict, rel: float = 1e-9) -> List[str]:
    """Every place where two stats documents differ, walking both together.

    Keys must match at every level. Numbers agree within ``rel``, relative
    or absolute; bools, ``None`` and anything else compare by ``==``.
    """
    problems: List[str] = []

    def close(a, b) -> bool:
        if a is None or b is None or isinstance(a, bool) or isinstance(b, bool):
            return a == b
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            return math.isclose(a, b, rel_tol=rel, abs_tol=rel)
        return a == b

    def walk(path: str, a, b) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                problems.append(f"{path or 'top level'} keys: {sorted(a)} != {sorted(b)}")
            for key in a:
                if key in b:
                    walk(f"{path}.{key}" if path else key, a[key], b[key])
        elif not close(a, b):
            problems.append(f"{path}: {a!r} != {b!r}")

    walk("", stats, oracle)
    return problems
