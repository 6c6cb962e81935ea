"""Compare translated and native paths: pairing, filtering, and statistics.

Traceroutes toward the same IPv4 target pair up per probe and round. A
translated path has "reached the target" when some hop equals the target
embedded under the path's prefix. Everything downstream (hop counts,
RTTs, missing-hop shares, correlation) works on those pairs.

Each stage returns what its callers read: pairing and filtering return
what they set aside as counts by reason, and ``aggregate_report`` returns
the ``stats`` document of ``summary.json``. Which AS runs a translator,
and where it sits, is the classifier's to decide.
"""

from __future__ import annotations

import enum
import ipaddress
import math
import sys
from typing import Collection, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .addrsynth import synthesize
from .model import Hop, Nat64Prefix, PathFamily, PathPair, TraceroutePath

#: A target this few hops away on either side points at a TTL anomaly.
MAX_IMPLAUSIBLE_LENGTH = 3

#: Width, in percentage points, of the missing-hop histogram's bins.
HISTOGRAM_BIN_PCT = 5.0


class FilterReason(enum.Enum):
    NO_NAT_HOP = "NoNatHop"
    INCOMPLETE_ROUND = "IncompleteRound"
    TRAILING_ROUND = "TrailingRound"
    DEAD_TARGET = "DeadTarget"


def _count(counts: Dict[str, int], reason: str) -> None:
    counts[reason] = counts.get(reason, 0) + 1


def pair_paths(
    paths: Sequence[TraceroutePath],
) -> Tuple[List[PathPair], Dict[str, int]]:
    """Match translated paths with their native counterparts.

    The join key is (probe, target, round); a translated path additionally
    carries its prefix, so one native path can back several pairs when a
    probe uses more than one prefix. Later duplicates of an already-seen
    key are set aside rather than silently replacing the first. A target
    keys as its integer: it is an IPv4 address, which has no scope, and
    an ``ipaddress`` object hashes in Python. A prefix keys as itself: it
    computes its hash once, when it is built, and its equality is that of
    its text, scope included, because its kind follows from its base and
    length. The paths set aside come back as counts by reason, in order
    of first use.
    """
    v4_index: Dict[Tuple[str, int, int], TraceroutePath] = {}
    unpaired: Dict[str, int] = {}
    # In input order: the pairs come out in the order of their translated paths.
    nat_seen: Dict[Tuple[str, int, int, Nat64Prefix], TraceroutePath] = {}

    for path in paths:
        probe_id, family, prefix, target, round_index, _ = path
        target = int(target)
        if family is PathFamily.IPV4:
            key = (probe_id, target, round_index)
            if key in v4_index:
                _count(unpaired, "duplicate")
            else:
                v4_index[key] = path
        else:
            key6 = (probe_id, target, round_index, prefix)
            if key6 in nat_seen:
                _count(unpaired, "duplicate")
            else:
                nat_seen[key6] = path

    pairs: List[PathPair] = []
    used_v4 = set()
    for key6, nat in nat_seen.items():
        key = key6[:3]
        v4 = v4_index.get(key)
        if v4 is None:
            _count(unpaired, "no_ipv4_counterpart")
        else:
            pairs.append(PathPair(v4, nat))
            used_v4.add(key)
    for key in v4_index:
        if key not in used_v4:
            _count(unpaired, "no_nat64_counterpart")
    return pairs, unpaired


def target_hop(path: TraceroutePath) -> Optional[Hop]:
    """The first hop that answered as the address the traceroute was sent
    to: the IPv4 target itself, or for a translated path, the target
    embedded under the path's prefix. None when the target never answered."""
    if path.family is PathFamily.IPV4:
        wanted = path.target_v4
    else:
        wanted = synthesize(path.prefix, path.target_v4)
    # ``hop.address == wanted``, read field by field as ``ipaddress``'s
    # ``__eq__`` reads them: integer, version, then scope. A hop address
    # that is not an ``ipaddress`` object has none of them and never equals.
    ip, version, scope = wanted._ip, wanted._version, getattr(wanted, "_scope_id", None)
    for hop in path.hops:
        address = hop.address
        if (
            getattr(address, "_ip", None) == ip
            and getattr(address, "_version", None) == version
            and getattr(address, "_scope_id", None) == scope
        ):
            return hop
    return None


def first_nat_hop(path: TraceroutePath) -> Optional[Hop]:
    """The first hop under the path's translation prefix: the translator."""
    prefix = path.prefix
    if prefix is None:
        return None
    # A hop is under the prefix when its first ``prefix.length`` bits
    # equal the base's; the base's side is computed once.
    shift = 128 - prefix.length
    wanted = int(prefix.base) >> shift
    for hop in path.hops:
        address = hop.address
        if isinstance(address, ipaddress.IPv6Address) and address._ip >> shift == wanted:
            return hop
    return None


def filter_pairs(
    pairs: Sequence[PathPair],
    *,
    final_round: Optional[int] = None,
) -> Tuple[List[PathPair], Dict[str, int]]:
    """Drop pairs that cannot be compared fairly; count every drop by reason.

    Order of precedence per pair: incomplete rounds, the configured
    trailing round, targets that never answered any traceroute, then
    translated paths that never crossed their translator. The counts
    come back in order of each reason's first drop.
    """
    # Round coverage per (probe, prefix): which targets were paired. A
    # round is complete when it paired every target seen in the input.
    # Targets key as integers, as in ``pair_paths``.
    coverage: Dict[Tuple[str, Nat64Prefix, int], set] = {}
    keys = []  # per pair: its coverage key, target and round
    for pair in pairs:
        probe_id, _, prefix, target, round_index, _ = pair.nat64
        target = int(target)
        key = (probe_id, prefix, round_index)
        coverage.setdefault(key, set()).add(target)
        keys.append((key, target, round_index))
    expected = {target for _, target, _ in keys}

    # A target is dead when no path in the whole input ever reached it.
    alive = set()
    for pair, (_, target, _) in zip(pairs, keys):
        if target not in alive and (
            target_hop(pair.ipv4) is not None or target_hop(pair.nat64) is not None
        ):
            alive.add(target)

    kept: List[PathPair] = []
    excluded: Dict[str, int] = {}
    for pair, (key, target, round_index) in zip(pairs, keys):
        if coverage[key] != expected:
            reason = FilterReason.INCOMPLETE_ROUND
        elif final_round is not None and round_index == final_round:
            reason = FilterReason.TRAILING_ROUND
        elif target not in alive:
            reason = FilterReason.DEAD_TARGET
        elif first_nat_hop(pair.nat64) is None:
            reason = FilterReason.NO_NAT_HOP
        else:
            kept.append(pair)
            continue
        _count(excluded, reason.value)
    return kept, excluded


class PathMetrics(NamedTuple):
    """Per-pair numbers, each a column that ``summary.json`` summarizes;
    exists only when both members reached the target."""

    v4_length: int
    nat64_length: int
    v4_rtt_ms: float
    nat64_rtt_ms: float
    v4_missing_pct: float
    nat64_missing_pct: float
    length_diff: int
    rtt_diff_ms: float
    length_diff_pct: float
    rtt_diff_pct: float


def path_metrics(pair: PathPair) -> Optional[PathMetrics]:
    """Lengths, target RTTs, and missing shares; None unless both succeeded.

    Length is the hop index of the first target hop; RTT is the mean of
    that hop's packet RTTs. A target hop without timing information, or
    an IPv4 one averaging 0 ms (its RTT percentage is undefined), makes
    the pair unusable for metrics.
    """
    hop4 = target_hop(pair.ipv4)
    hop6 = target_hop(pair.nat64)
    if hop4 is None or hop6 is None or not hop4.rtts_ms or not hop6.rtts_ms:
        return None
    v4_rtt_ms = _mean(hop4.rtts_ms)
    if v4_rtt_ms == 0.0:
        return None
    nat64_rtt_ms = _mean(hop6.rtts_ms)
    # The missing share counts silent hops up to and including the target.
    len4, len6 = hop4.index, hop6.index
    silent4 = sum(1 for hop in pair.ipv4.hops[:len4] if hop.address is None)
    silent6 = sum(1 for hop in pair.nat64.hops[:len6] if hop.address is None)
    length_diff, rtt_diff_ms = len6 - len4, nat64_rtt_ms - v4_rtt_ms
    # ``PathMetrics`` fields in order: lengths, target RTTs, missing shares, differences.
    return tuple.__new__(PathMetrics, (
        len4, len6,
        v4_rtt_ms, nat64_rtt_ms,
        100.0 * silent4 / len4, 100.0 * silent6 / len6,
        length_diff, rtt_diff_ms,
        100.0 * length_diff / len4, 100.0 * rtt_diff_ms / v4_rtt_ms,
    ))


def compute_metrics(pairs: Sequence[PathPair]) -> List[Optional[PathMetrics]]:
    return [path_metrics(pair) for pair in pairs]


def pearson(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Sample correlation coefficient over paired observations, or None
    where it is undefined: fewer than two points or a constant series.
    Series of different lengths are a ``ValueError``."""
    n = len(xs)
    if n != len(ys):
        raise ValueError("series lengths differ")
    if n < 2:
        return None
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    syy = math.fsum((y - mean_y) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        return None
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def flag_ttl_anomalies(metrics: Sequence[Optional[PathMetrics]]) -> List[bool]:
    """Mark pairs whose target appears implausibly close on either side."""
    return [
        m is not None and min(m.v4_length, m.nat64_length) <= MAX_IMPLAUSIBLE_LENGTH
        for m in metrics
    ]


# The three summaries below give the floats that ``statistics.fmean``,
# ``median`` and ``pstdev`` give, without importing ``statistics`` (and
# ``fractions`` and ``decimal``) at every command's start-up.


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def median(values: Sequence[float]) -> float:
    """The middle value, or the mean of the two middle values: an odd
    count of ints has an int median."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


#: Bits of the rounded-to-odd square root: enough that one more rounding,
#: to a float, is correct.
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


def _sqrt_of_fraction(n: int, m: int) -> float:
    """The square root of ``n/m``, correctly rounded to a float: an integer
    root of about ``_SQRT_BITS`` bits, rounded to odd, then to a float."""
    q = (n.bit_length() - m.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = math.isqrt(n // m)
    root |= root * root * m != n
    return (root << q) / 1 if q >= 0 else root / (1 << -q)


def _pstdev(values: Sequence[float]) -> float:
    """The population standard deviation of ints and finite floats.

    Each value is ``n/d`` by ``as_integer_ratio``, ``d`` a power of two, so
    scaled by the largest ``d`` every value is an integer and the variance
    is one exact fraction; its square root is rounded once.
    """
    ratios = [value.as_integer_ratio() for value in values]
    scale = max(d for _, d in ratios)
    total = squares = 0
    for n, d in ratios:
        n *= scale // d
        total += n
        squares += n * n
    count = len(ratios)
    return _sqrt_of_fraction(count * squares - total * total, (count * scale) ** 2)


def _summary(values: Sequence[float]) -> Optional[dict]:
    if not values:
        return None
    return {
        "n": len(values),
        "mean": _mean(values),
        "sd": _pstdev(values),
        "median": median(values),
    }


def _rates(ok4: Sequence[bool], ok6: Sequence[bool]) -> dict:
    n = len(ok4)
    if n == 0:
        return {"n_pairs": 0, "v4_pct": None, "nat64_pct": None, "both_pct": None}
    return {
        "n_pairs": n,
        "v4_pct": 100.0 * sum(ok4) / n,
        "nat64_pct": 100.0 * sum(ok6) / n,
        "both_pct": 100.0 * sum(a and b for a, b in zip(ok4, ok6)) / n,
    }


def aggregate_report(
    pairs: Sequence[PathPair],
    metrics: Sequence[Optional[PathMetrics]],
    groupings: Mapping[str, Collection[str]],
) -> dict:
    """Summarize success rates and per-pair metrics across the dataset.

    ``metrics`` holds ``path_metrics`` of each pair in order, and
    ``groupings`` the probe ids of each named group. The result is the
    ``stats`` document of ``summary.json``, in the shape
    ``simharness.oracle_stats`` emits: plain dicts, numbers and ``None``.

    Both percentage conventions are reported. ``mean_of_pair_pcts``
    averages each pair's own percentage difference; ``pct_of_means``
    compares the two sides' means. They answer different questions and
    can disagree wildly.
    """
    if len(metrics) != len(pairs):
        raise ValueError("metrics must align with pairs")
    usable = [m for m in metrics if m is not None]

    # One column per field, all transposed at once; none without metrics.
    columns = dict(zip(PathMetrics._fields, zip(*usable)))
    summaries = {name: _summary(column) for name, column in columns.items()}

    mean_of_pair_pcts: Dict[str, Optional[float]] = {
        "length": summaries["length_diff_pct"]["mean"] if usable else None,
        "rtt": summaries["rtt_diff_pct"]["mean"] if usable else None,
    }
    pct_of_means: Dict[str, Optional[float]] = {"length": None, "rtt": None}
    if usable:
        mean_v4_len = summaries["v4_length"]["mean"]
        mean_nat_len = summaries["nat64_length"]["mean"]
        mean_v4_rtt = summaries["v4_rtt_ms"]["mean"]
        mean_nat_rtt = summaries["nat64_rtt_ms"]["mean"]
        if mean_v4_len:
            pct_of_means["length"] = 100.0 * (mean_nat_len - mean_v4_len) / mean_v4_len
        if mean_v4_rtt:
            pct_of_means["rtt"] = 100.0 * (mean_nat_rtt - mean_v4_rtt) / mean_v4_rtt

    # A pair has metrics only when both its paths reached the target; the
    # paths are rescanned only for pairs without.
    ok4 = [m is not None or target_hop(p.ipv4) is not None for p, m in zip(pairs, metrics)]
    ok6 = [m is not None or target_hop(p.nat64) is not None for p, m in zip(pairs, metrics)]

    def rates(indices: Sequence[int]) -> dict:
        return _rates([ok4[i] for i in indices], [ok6[i] for i in indices])

    # One pass groups pair positions by probe, target and prefix. Targets
    # key as integers and prefixes as objects, as in ``pair_paths``; each
    # is named once, so reports keep their order by text.
    by_probe: Dict[str, List[int]] = {}
    by_target: Dict[int, Tuple[ipaddress.IPv4Address, List[int]]] = {}
    by_prefix: Dict[Nat64Prefix, List[int]] = {}
    for i, pair in enumerate(pairs):
        probe_id, _, prefix, target, _, _ = pair.nat64
        by_probe.setdefault(probe_id, []).append(i)
        by_target.setdefault(int(target), (target, []))[1].append(i)
        by_prefix.setdefault(prefix, []).append(i)

    groups: Dict[str, dict] = {}
    for name, probe_ids in groupings.items():
        indices = sorted(i for pid in set(probe_ids) for i in by_probe.get(pid, ()))
        found = [metrics[i] for i in indices if metrics[i] is not None]
        groups[name] = {
            "success": rates(indices),
            "length_diff": _summary([m.length_diff for m in found]),
            "rtt_diff_ms": _summary([m.rtt_diff_ms for m in found]),
        }

    per_target = {
        name: rates(indices)
        for name, indices in sorted((str(t), idx) for t, idx in by_target.values())
    }

    per_prefix: Dict[str, dict] = {}
    for name, indices in sorted((str(p), idx) for p, idx in by_prefix.items()):
        stats = _summary([metrics[i].length_diff for i in indices if metrics[i] is not None])
        if stats is not None:
            per_prefix[name] = stats

    return {
        "success": _rates(ok4, ok6),
        "metrics": summaries,
        "mean_of_pair_pcts": mean_of_pair_pcts,
        "pct_of_means": pct_of_means,
        "pearson_r": pearson(columns.get("length_diff", ()), columns.get("rtt_diff_ms", ())),
        "ttl_anomaly_pairs": sum(flag_ttl_anomalies(metrics)),
        "groups": groups,
        "per_target": per_target,
        "per_prefix": per_prefix,
    }


def missing_hop_histogram(
    metrics: Sequence[Optional[PathMetrics]],
) -> List[Tuple[float, float, int, int]]:
    """(low, high, native count, translated count) rows over missing shares."""
    n_bins = int(math.ceil(100.0 / HISTOGRAM_BIN_PCT))
    rows = [
        [i * HISTOGRAM_BIN_PCT, min((i + 1) * HISTOGRAM_BIN_PCT, 100.0), 0, 0]
        for i in range(n_bins)
    ]

    def slot(pct: float) -> int:
        return min(int(pct // HISTOGRAM_BIN_PCT), n_bins - 1)

    for m in metrics:
        if m is None:
            continue
        rows[slot(m.v4_missing_pct)][2] += 1
        rows[slot(m.nat64_missing_pct)][3] += 1
    return [tuple(row) for row in rows]
