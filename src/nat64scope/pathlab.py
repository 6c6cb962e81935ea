"""Compare translated and native paths: pairing, filtering, and statistics.

Traceroutes toward the same IPv4 target pair up per probe and round. A
translated path has "reached the target" when some hop equals the target
embedded under the path's prefix. Everything downstream (hop counts,
RTTs, missing-hop shares, correlation) works on those pairs.
"""

from __future__ import annotations

import enum
import ipaddress
import math
import statistics
from dataclasses import dataclass
from typing import (
    Collection,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .addrsynth import matches_prefix, synthesize
from .acquire.ip2as import Ip2AsTable
from .model import (
    Hop,
    Nat64Prefix,
    PathFamily,
    PathPair,
    PrefixKind,
    ProbeRecord,
    TraceroutePath,
)

#: A target this few hops away on either side points at a TTL anomaly.
MAX_IMPLAUSIBLE_LENGTH = 3

#: Width, in percentage points, of the missing-hop histogram's bins.
HISTOGRAM_BIN_PCT = 5.0


class CorrelationError(ValueError):
    """Correlation is undefined: fewer than two points or a constant series."""


class NatLocation(enum.Enum):
    """Where the translator sits relative to the probe's own networks."""

    ALL_EQUAL = "all_equal"
    NAT_IN_V6_AS = "nat_in_v6_as"
    REMOTE = "remote"

    @property
    def is_local(self) -> bool:
        return self is not NatLocation.REMOTE


class FilterReason(enum.Enum):
    NO_NAT_HOP = "NoNatHop"
    INCOMPLETE_ROUND = "IncompleteRound"
    TRAILING_ROUND = "TrailingRound"
    DEAD_TARGET = "DeadTarget"


@dataclass(frozen=True, slots=True)
class UnpairedPath:
    path: TraceroutePath
    reason: str


@dataclass(frozen=True, slots=True)
class ExcludedPair:
    pair: PathPair
    reason: str


def pair_paths(
    paths: Sequence[TraceroutePath],
) -> Tuple[List[PathPair], List[UnpairedPath]]:
    """Match translated paths with their native counterparts.

    The join key is (probe, target, round); a translated path additionally
    carries its prefix, so one native path can back several pairs when a
    probe uses more than one prefix. Later duplicates of an already-seen
    key are set aside rather than silently replacing the first. Targets
    and prefixes key as objects: their equality is that of their text,
    because a prefix's kind follows from its base and length.
    """
    v4_index: Dict[Tuple[str, ipaddress.IPv4Address, int], TraceroutePath] = {}
    unpaired: List[UnpairedPath] = []
    nat_seen: Dict[Tuple[str, ipaddress.IPv4Address, int, Nat64Prefix], TraceroutePath] = {}
    nat_order: List[TraceroutePath] = []

    for path in paths:
        if path.family is PathFamily.IPV4:
            key = (path.probe_id, path.target_v4, path.round_index)
            if key in v4_index:
                unpaired.append(UnpairedPath(path, "duplicate"))
            else:
                v4_index[key] = path
        else:
            key6 = (path.probe_id, path.target_v4, path.round_index, path.prefix)
            if key6 in nat_seen:
                unpaired.append(UnpairedPath(path, "duplicate"))
            else:
                nat_seen[key6] = path
                nat_order.append(path)

    pairs: List[PathPair] = []
    used_v4 = set()
    for nat in nat_order:
        key = (nat.probe_id, nat.target_v4, nat.round_index)
        v4 = v4_index.get(key)
        if v4 is None:
            unpaired.append(UnpairedPath(nat, "no_ipv4_counterpart"))
        else:
            pairs.append(PathPair(ipv4=v4, nat64=nat))
            used_v4.add(key)
    for key, v4 in v4_index.items():
        if key not in used_v4:
            unpaired.append(UnpairedPath(v4, "no_nat64_counterpart"))
    return pairs, unpaired


def _wanted_target(path: TraceroutePath) -> Union[ipaddress.IPv4Address, ipaddress.IPv6Address]:
    if path.family is PathFamily.IPV4:
        return path.target_v4
    return synthesize(path.prefix, path.target_v4)


def success(path: TraceroutePath) -> bool:
    """True when some hop answered with the target address itself."""
    return _target_hop_index(path) is not None


def _target_hop_index(path: TraceroutePath) -> Optional[int]:
    wanted = _wanted_target(path)
    for hop in path.hops:
        if hop.address == wanted:
            return hop.index
    return None


def missing_hop_pct(path: TraceroutePath) -> float:
    """Share of silent hops up to and including the first target hop."""
    reached = _target_hop_index(path)
    if reached is None:
        raise ValueError(f"{path.probe_id}: path never reached its target")
    return _silent_pct(path, reached)


def _silent_pct(path: TraceroutePath, reached: int) -> float:
    silent = sum(1 for hop in path.hops[:reached] if hop.address is None)
    return 100.0 * silent / reached


def first_nat_hop(path: TraceroutePath) -> Optional[Hop]:
    if path.prefix is None:
        return None
    for hop in path.hops:
        if (
            hop.address is not None
            and hop.address.version == 6
            and matches_prefix(hop.address, path.prefix)
        ):
            return hop
    return None


def has_nat_hop(path: TraceroutePath) -> bool:
    """True when any hop address falls under the path's translation prefix."""
    return first_nat_hop(path) is not None


def filter_pairs(
    pairs: Sequence[PathPair],
    *,
    final_round: Optional[int] = None,
) -> Tuple[List[PathPair], List[ExcludedPair]]:
    """Drop pairs that cannot be compared fairly; account for every drop.

    Order of precedence per pair: incomplete rounds, the configured
    trailing round, targets that never answered any traceroute, then
    translated paths that never crossed their translator.
    """
    # Round coverage per (probe, prefix): which targets were paired. A
    # round is complete when it paired every target seen in the input.
    expected = {pair.nat64.target_v4 for pair in pairs}
    coverage: Dict[Tuple[str, Nat64Prefix, int], set] = {}
    for pair in pairs:
        key = (pair.nat64.probe_id, pair.nat64.prefix, pair.nat64.round_index)
        coverage.setdefault(key, set()).add(pair.nat64.target_v4)

    # A target is dead when no path in the whole input ever reached it.
    alive = set()
    for pair in pairs:
        target = pair.nat64.target_v4
        if target not in alive and (success(pair.ipv4) or success(pair.nat64)):
            alive.add(target)

    kept: List[PathPair] = []
    excluded: List[ExcludedPair] = []
    for pair in pairs:
        key = (pair.nat64.probe_id, pair.nat64.prefix, pair.nat64.round_index)
        if coverage[key] != expected:
            excluded.append(ExcludedPair(pair, FilterReason.INCOMPLETE_ROUND.value))
            continue
        if final_round is not None and pair.nat64.round_index == final_round:
            excluded.append(ExcludedPair(pair, FilterReason.TRAILING_ROUND.value))
            continue
        if pair.nat64.target_v4 not in alive:
            excluded.append(ExcludedPair(pair, FilterReason.DEAD_TARGET.value))
            continue
        if not has_nat_hop(pair.nat64):
            excluded.append(ExcludedPair(pair, FilterReason.NO_NAT_HOP.value))
            continue
        kept.append(pair)
    return kept, excluded


@dataclass(frozen=True, slots=True)
class NatAttribution:
    """Which AS operates the translator, and how that was decided."""

    asn: int
    source: str  # "announced" | "pre_nat_hop" | "probe_fallback"
    hop_index: Optional[int] = None


def attribute_nat64_as(
    paths: Sequence[TraceroutePath],
    prefix: Nat64Prefix,
    ip2as: Ip2AsTable,
    probe: ProbeRecord,
) -> NatAttribution:
    """Attribute the translator to an AS.

    An announced operator prefix settles it directly. Otherwise the last
    responding hop before the first translated hop decides, and when paths
    disagree the hop furthest from the probe (highest index) wins, ties
    going to the lowest AS number. With no usable hops at all, fall back
    to the probe's own AS.
    """
    if prefix.kind is not PrefixKind.STANDARD:
        announced = ip2as.lookup(prefix.base)
        if announced is not None:
            return NatAttribution(announced, "announced")

    best: Optional[Tuple[int, int]] = None  # (hop_index, asn)
    for path in paths:
        if path.family is not PathFamily.NAT64 or path.prefix != prefix:
            continue
        nat_hop = first_nat_hop(path)
        if nat_hop is None:
            continue
        for hop in reversed(path.hops[: nat_hop.index - 1]):
            if hop.address is None:
                continue
            asn = ip2as.lookup(hop.address)
            if asn is None:
                continue
            if best is None or (hop.index, -asn) > (best[0], -best[1]):
                best = (hop.index, asn)
            break
    if best is not None:
        return NatAttribution(best[1], "pre_nat_hop", hop_index=best[0])
    fallback = probe.asn_v6 if probe.asn_v6 is not None else probe.asn_v4
    if fallback is None:
        raise ValueError(f"{probe.probe_id}: no hops usable and no probe AS to fall back to")
    return NatAttribution(fallback, "probe_fallback")


def locate_nat64(nat_asn: int, probe: ProbeRecord) -> NatLocation:
    """Classify the translator as local to the probe's networks or remote."""
    if probe.asn_v4 is None or probe.asn_v6 is None:
        raise ValueError(f"{probe.probe_id}: both probe AS numbers are required")
    if nat_asn == probe.asn_v6 == probe.asn_v4:
        return NatLocation.ALL_EQUAL
    if nat_asn == probe.asn_v6:
        return NatLocation.NAT_IN_V6_AS
    return NatLocation.REMOTE


@dataclass(frozen=True, slots=True)
class PathMetrics:
    """Per-pair numbers; exists only when both members reached the target."""

    v4_length: int
    nat64_length: int
    v4_rtt_ms: float
    nat64_rtt_ms: float
    v4_missing_pct: float
    nat64_missing_pct: float

    @property
    def length_diff(self) -> int:
        return self.nat64_length - self.v4_length

    @property
    def rtt_diff_ms(self) -> float:
        return self.nat64_rtt_ms - self.v4_rtt_ms

    @property
    def length_diff_pct(self) -> float:
        return 100.0 * self.length_diff / self.v4_length

    @property
    def rtt_diff_pct(self) -> float:
        return 100.0 * self.rtt_diff_ms / self.v4_rtt_ms


def path_metrics(pair: PathPair) -> Optional[PathMetrics]:
    """Lengths, target RTTs, and missing shares; None unless both succeeded.

    Length is the hop index of the first target hop; RTT is the mean of
    that hop's packet RTTs. A target hop without timing information makes
    the pair unusable for metrics.
    """
    idx4 = _target_hop_index(pair.ipv4)
    idx6 = _target_hop_index(pair.nat64)
    if idx4 is None or idx6 is None:
        return None
    hop4 = pair.ipv4.hops[idx4 - 1]
    hop6 = pair.nat64.hops[idx6 - 1]
    if not hop4.rtts_ms or not hop6.rtts_ms:
        return None
    return PathMetrics(
        v4_length=idx4,
        nat64_length=idx6,
        v4_rtt_ms=statistics.fmean(hop4.rtts_ms),
        nat64_rtt_ms=statistics.fmean(hop6.rtts_ms),
        v4_missing_pct=_silent_pct(pair.ipv4, idx4),
        nat64_missing_pct=_silent_pct(pair.nat64, idx6),
    )


def compute_metrics(pairs: Sequence[PathPair]) -> List[Optional[PathMetrics]]:
    return [path_metrics(pair) for pair in pairs]


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample correlation coefficient over paired observations."""
    n = len(xs)
    if n != len(ys):
        raise CorrelationError("series lengths differ")
    if n < 2:
        raise CorrelationError("need at least two points")
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    syy = math.fsum((y - mean_y) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise CorrelationError("constant series")
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def flag_ttl_anomalies(metrics: Sequence[Optional[PathMetrics]]) -> List[bool]:
    """Mark pairs whose target appears implausibly close on either side."""
    return [
        m is not None and min(m.v4_length, m.nat64_length) <= MAX_IMPLAUSIBLE_LENGTH
        for m in metrics
    ]


@dataclass(frozen=True, slots=True)
class SummaryStats:
    n: int
    mean: float
    sd: float
    median: float


@dataclass(frozen=True, slots=True)
class SuccessRates:
    n_pairs: int
    v4_pct: Optional[float]
    nat64_pct: Optional[float]
    both_pct: Optional[float]


@dataclass(frozen=True, slots=True)
class GroupStats:
    success: SuccessRates
    length_diff: Optional[SummaryStats]
    rtt_diff_ms: Optional[SummaryStats]


@dataclass(frozen=True, slots=True)
class AggregateStats:
    """Dataset-level summary, both percentage conventions included.

    ``mean_of_pair_pcts`` averages each pair's own percentage difference;
    ``pct_of_means`` compares the two sides' means. They answer different
    questions and can disagree wildly, so both are always reported.
    """

    success: SuccessRates
    metrics: "dict[str, SummaryStats]"
    mean_of_pair_pcts: "dict[str, Optional[float]]"
    pct_of_means: "dict[str, Optional[float]]"
    pearson_r: Optional[float]
    ttl_anomaly_pairs: int
    groups: "dict[str, GroupStats]"
    per_target: "dict[str, SuccessRates]"
    per_prefix: "dict[str, SummaryStats]"


_METRIC_FIELDS = (
    "v4_length",
    "nat64_length",
    "v4_rtt_ms",
    "nat64_rtt_ms",
    "v4_missing_pct",
    "nat64_missing_pct",
    "length_diff",
    "rtt_diff_ms",
    "length_diff_pct",
    "rtt_diff_pct",
)


def _summary(values: Sequence[float]) -> Optional[SummaryStats]:
    if not values:
        return None
    return SummaryStats(
        n=len(values),
        mean=statistics.fmean(values),
        sd=statistics.pstdev(values),
        median=statistics.median(values),
    )


def _rates(ok4: Sequence[bool], ok6: Sequence[bool]) -> SuccessRates:
    n = len(ok4)
    if n == 0:
        return SuccessRates(0, None, None, None)
    return SuccessRates(
        n_pairs=n,
        v4_pct=100.0 * sum(ok4) / n,
        nat64_pct=100.0 * sum(ok6) / n,
        both_pct=100.0 * sum(a and b for a, b in zip(ok4, ok6)) / n,
    )


def aggregate_report(
    pairs: Sequence[PathPair],
    metrics: Optional[Sequence[Optional[PathMetrics]]] = None,
    groupings: Optional[Mapping[str, Collection[str]]] = None,
) -> AggregateStats:
    """Summarize success rates and per-pair metrics across the dataset."""
    if metrics is None:
        metrics = compute_metrics(pairs)
    if len(metrics) != len(pairs):
        raise ValueError("metrics must align with pairs")
    usable = [m for m in metrics if m is not None]

    summaries: Dict[str, SummaryStats] = {}
    for name in _METRIC_FIELDS:
        stats = _summary([getattr(m, name) for m in usable])
        if stats is not None:
            summaries[name] = stats

    mean_of_pair_pcts: Dict[str, Optional[float]] = {
        "length": summaries["length_diff_pct"].mean if usable else None,
        "rtt": summaries["rtt_diff_pct"].mean if usable else None,
    }
    pct_of_means: Dict[str, Optional[float]] = {"length": None, "rtt": None}
    if usable:
        mean_v4_len = summaries["v4_length"].mean
        mean_nat_len = summaries["nat64_length"].mean
        mean_v4_rtt = summaries["v4_rtt_ms"].mean
        mean_nat_rtt = summaries["nat64_rtt_ms"].mean
        if mean_v4_len:
            pct_of_means["length"] = 100.0 * (mean_nat_len - mean_v4_len) / mean_v4_len
        if mean_v4_rtt:
            pct_of_means["rtt"] = 100.0 * (mean_nat_rtt - mean_v4_rtt) / mean_v4_rtt

    try:
        r = pearson([m.length_diff for m in usable], [m.rtt_diff_ms for m in usable])
    except CorrelationError:
        r = None

    ok4 = [success(p.ipv4) for p in pairs]
    ok6 = [success(p.nat64) for p in pairs]

    def rates(indices: Sequence[int]) -> SuccessRates:
        return _rates([ok4[i] for i in indices], [ok6[i] for i in indices])

    # One pass groups pair positions by probe, target and prefix. Targets
    # and prefixes key as objects and are named once each, so reports keep
    # their order by text.
    by_probe: Dict[str, List[int]] = {}
    by_target: Dict[ipaddress.IPv4Address, List[int]] = {}
    by_prefix: Dict[Nat64Prefix, List[int]] = {}
    for i, pair in enumerate(pairs):
        by_probe.setdefault(pair.nat64.probe_id, []).append(i)
        by_target.setdefault(pair.nat64.target_v4, []).append(i)
        by_prefix.setdefault(pair.nat64.prefix, []).append(i)

    groups: Dict[str, GroupStats] = {}
    for name, probe_ids in (groupings or {}).items():
        indices = sorted(i for pid in set(probe_ids) for i in by_probe.get(pid, ()))
        sub_usable = [metrics[i] for i in indices if metrics[i] is not None]
        groups[name] = GroupStats(
            success=rates(indices),
            length_diff=_summary([m.length_diff for m in sub_usable]),
            rtt_diff_ms=_summary([m.rtt_diff_ms for m in sub_usable]),
        )

    per_target: Dict[str, SuccessRates] = {
        name: rates(indices)
        for name, indices in sorted((str(t), idx) for t, idx in by_target.items())
    }

    per_prefix: Dict[str, SummaryStats] = {}
    for name, indices in sorted((str(p), idx) for p, idx in by_prefix.items()):
        sub_usable = [metrics[i] for i in indices if metrics[i] is not None]
        stats = _summary([m.length_diff for m in sub_usable])
        if stats is not None:
            per_prefix[name] = stats

    return AggregateStats(
        success=_rates(ok4, ok6),
        metrics=summaries,
        mean_of_pair_pcts=mean_of_pair_pcts,
        pct_of_means=pct_of_means,
        pearson_r=r,
        ttl_anomaly_pairs=sum(flag_ttl_anomalies(metrics)),
        groups=groups,
        per_target=per_target,
        per_prefix=per_prefix,
    )


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
