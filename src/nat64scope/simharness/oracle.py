"""Independent recomputation of the aggregate path statistics.

Everything here is deliberately reimplemented from the raw path records:
the address embedding uses its own byte-position table, reachability and
hop accounting are recomputed from scratch, and all summary numbers come
from numpy instead of the statistics module. Agreement with the analysis
code is therefore corroboration, not an identity.
"""

from __future__ import annotations

import ipaddress
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..model import PathPair, TraceroutePath

#: Where the four IPv4 bytes land for each prefix length; byte 8 is the
#: reserved zero octet and never appears as a slot. The test suite's own
#: reference embedding reads this table too.
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


def _pair_row(pair: PathPair) -> Optional[Tuple[float, ...]]:
    i4 = _target_index(pair.ipv4)
    i6 = _target_index(pair.nat64)
    if i4 is None or i6 is None:
        return None
    hop4 = pair.ipv4.hops[i4 - 1]
    hop6 = pair.nat64.hops[i6 - 1]
    if not hop4.rtts_ms or not hop6.rtts_ms:
        return None
    silent4 = sum(1 for hop in pair.ipv4.hops[:i4] if hop.address is None)
    silent6 = sum(1 for hop in pair.nat64.hops[:i6] if hop.address is None)
    return (
        float(i4),
        float(i6),
        float(np.mean(hop4.rtts_ms)),
        float(np.mean(hop6.rtts_ms)),
        100.0 * silent4 / i4,
        100.0 * silent6 / i6,
    )


def _summary(values: np.ndarray) -> Optional[dict]:
    if values.size == 0:
        return None
    return {
        "n": int(values.size),
        "mean": float(np.mean(values)),
        "sd": float(np.std(values)),
        "median": float(np.median(values)),
    }


def _rates(pairs: Sequence[PathPair]) -> dict:
    n = len(pairs)
    if n == 0:
        return {"n_pairs": 0, "v4_pct": None, "nat64_pct": None, "both_pct": None}
    ok4 = np.array([_target_index(p.ipv4) is not None for p in pairs])
    ok6 = np.array([_target_index(p.nat64) is not None for p in pairs])
    return {
        "n_pairs": n,
        "v4_pct": float(100.0 * np.count_nonzero(ok4) / n),
        "nat64_pct": float(100.0 * np.count_nonzero(ok6) / n),
        "both_pct": float(100.0 * np.count_nonzero(ok4 & ok6) / n),
    }


def _columns(rows: Sequence[Tuple[float, ...]]) -> Dict[str, np.ndarray]:
    table = np.array(rows, dtype=float) if rows else np.empty((0, 6))
    cols = {
        "v4_length": table[:, 0],
        "nat64_length": table[:, 1],
        "v4_rtt_ms": table[:, 2],
        "nat64_rtt_ms": table[:, 3],
        "v4_missing_pct": table[:, 4],
        "nat64_missing_pct": table[:, 5],
    }
    cols["length_diff"] = cols["nat64_length"] - cols["v4_length"]
    cols["rtt_diff_ms"] = cols["nat64_rtt_ms"] - cols["v4_rtt_ms"]
    cols["length_diff_pct"] = 100.0 * cols["length_diff"] / cols["v4_length"]
    cols["rtt_diff_pct"] = 100.0 * cols["rtt_diff_ms"] / cols["v4_rtt_ms"]
    return cols


def _pearson(xs: np.ndarray, ys: np.ndarray) -> Optional[float]:
    if xs.size < 2 or np.std(xs) == 0.0 or np.std(ys) == 0.0:
        return None
    r = float(np.corrcoef(xs, ys)[0, 1])
    return max(-1.0, min(1.0, r))


def oracle_stats(
    pairs: Sequence[PathPair],
    groupings: Optional[Mapping[str, Sequence[str]]] = None,
) -> dict:
    """Recompute the whole aggregate summary as plain nested dicts."""
    rows = [_pair_row(pair) for pair in pairs]
    usable = [row for row in rows if row is not None]
    cols = _columns(usable)

    metrics = {}
    for name, values in cols.items():
        summary = _summary(values)
        if summary is not None:
            metrics[name] = summary

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
        values = np.array(
            [
                row[1] - row[0]
                for pair, row in zip(pairs, rows)
                if row is not None and str(pair.nat64.prefix) == prefix_name
            ]
        )
        summary = _summary(values)
        if summary is not None:
            per_prefix[prefix_name] = summary

    return {
        "success": _rates(pairs),
        "metrics": metrics,
        "mean_of_pair_pcts": mean_of_pair_pcts,
        "pct_of_means": pct_of_means,
        "pearson_r": _pearson(cols["length_diff"], cols["rtt_diff_ms"]),
        "ttl_anomaly_pairs": int(
            sum(1 for row in usable if min(row[0], row[1]) <= 3.0)
        ),
        "groups": groups,
        "per_target": per_target,
        "per_prefix": per_prefix,
    }


def compare(stats, oracle: dict, rel: float = 1e-9) -> List[str]:
    """Field-by-field differences between an AggregateStats and the oracle."""
    problems: List[str] = []

    def close(a, b) -> bool:
        if a is None or b is None:
            return a is None and b is None
        if isinstance(a, bool) or isinstance(b, bool):
            return a == b
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            return math.isclose(a, b, rel_tol=rel, abs_tol=rel)
        return a == b

    def check(path: str, a, b) -> None:
        if not close(a, b):
            problems.append(f"{path}: {a!r} != {b!r}")

    def check_summary(path: str, summary, doc) -> None:
        if summary is None or doc is None:
            if not (summary is None and doc is None):
                problems.append(f"{path}: one side missing")
            return
        for field in ("n", "mean", "sd", "median"):
            check(f"{path}.{field}", getattr(summary, field), doc[field])

    def check_rates(path: str, rates, doc) -> None:
        for field in ("n_pairs", "v4_pct", "nat64_pct", "both_pct"):
            check(f"{path}.{field}", getattr(rates, field), doc[field])

    check_rates("success", stats.success, oracle["success"])
    check("metrics keys", sorted(stats.metrics), sorted(oracle["metrics"]))
    for name in stats.metrics:
        if name in oracle["metrics"]:
            check_summary(f"metrics.{name}", stats.metrics[name], oracle["metrics"][name])
    for key in ("length", "rtt"):
        check(f"mean_of_pair_pcts.{key}", stats.mean_of_pair_pcts[key],
              oracle["mean_of_pair_pcts"][key])
        check(f"pct_of_means.{key}", stats.pct_of_means[key], oracle["pct_of_means"][key])
    check("pearson_r", stats.pearson_r, oracle["pearson_r"])
    check("ttl_anomaly_pairs", stats.ttl_anomaly_pairs, oracle["ttl_anomaly_pairs"])

    check("group keys", sorted(stats.groups), sorted(oracle["groups"]))
    for name in stats.groups:
        if name not in oracle["groups"]:
            continue
        got, want = stats.groups[name], oracle["groups"][name]
        check_rates(f"groups.{name}.success", got.success, want["success"])
        check_summary(f"groups.{name}.length_diff", got.length_diff, want["length_diff"])
        check_summary(f"groups.{name}.rtt_diff_ms", got.rtt_diff_ms, want["rtt_diff_ms"])

    check("target keys", sorted(stats.per_target), sorted(oracle["per_target"]))
    for name in stats.per_target:
        if name in oracle["per_target"]:
            check_rates(f"per_target.{name}", stats.per_target[name],
                        oracle["per_target"][name])
    check("prefix keys", sorted(stats.per_prefix), sorted(oracle["per_prefix"]))
    for name in stats.per_prefix:
        if name in oracle["per_prefix"]:
            check_summary(f"per_prefix.{name}", stats.per_prefix[name],
                          oracle["per_prefix"][name])
    return problems
