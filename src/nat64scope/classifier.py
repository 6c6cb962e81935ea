"""Explain detected translator setups: who runs them, where, and for whom.

Works on top of detection results: cross-probe DNS evidence identifies
ISP-operated DNS64, translator-hop timing hints at equipment in the local
network, and per-AS category labels come from a user-maintained mapping.
"""

from __future__ import annotations

import enum
import statistics
from typing import (
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .detector import DetectionFlags, DetectionGroup
from .model import (
    IPAddress,
    ProbeRecord,
    RawOutcome,
    TestRun,
    TraceroutePath,
)
from .pathlab import NatLocation, first_nat_hop

#: Translator hops answering faster than this sit in the probe's own network.
LOCAL_NAT_RTT_MS = 2.0


class ProbeCategory(enum.Enum):
    ISP_DNS64 = "isp_dns64"
    AS_WITH_DNS64 = "as_with_dns64"
    HOME_SETUP = "home_setup"
    PUBLIC_RESOLVER_ONLY = "public_resolver_only"
    PUBLIC_SERVICE = "public_service"
    REMOTE_NAT64 = "remote_nat64"
    NO_TRACEROUTE_THROUGH_NAT = "no_traceroute_through_nat"
    UNKNOWN = "unknown"


class ASCategory(enum.Enum):
    OTHER_ISP = "OI"
    RESIDENTIAL_ISP = "RI"
    HOBBYIST = "H"
    ACADEMIC = "A"
    OTHER = "O"
    UNKNOWN = "U"


class IspDns64Evidence(NamedTuple):
    """Cross-probe DNS agreement within one AS."""

    asn: int
    is_isp_dns64: bool
    resolver: Optional[IPAddress]
    witnesses: Tuple[str, ...]
    multiple_similar_prefixes: bool = False


def detect_isp_dns64(
    runs_by_as: Mapping[int, Sequence[TestRun]],
    probes: Mapping[str, ProbeRecord],
) -> Dict[int, IspDns64Evidence]:
    """Decide per AS whether the ISP itself operates the DNS64.

    Evidence requires two distinct probes in the AS passing DNS tests via
    the same resolver while sitting in different IPv6 networks; identical
    or unknown network prefixes could be one household, so they never
    count. Also notes when an AS shows several near-identical prefixes,
    which hints at per-site translator pools.
    """
    out: Dict[int, IspDns64Evidence] = {}
    for asn in sorted(runs_by_as):
        # Passing DNS runs through a known resolver: who asked which
        # resolver, and which prefixes came back.
        by_resolver: Dict[IPAddress, set] = {}
        prefixes = set()
        for run in runs_by_as[asn]:
            resolver = run.resolver_used  # None on every ping run
            if (resolver is not None and run.raw_outcome is RawOutcome.PASS
                    and run.test_kind.is_dns):
                by_resolver.setdefault(resolver, set()).add(run.probe_id)
                if run.observed_prefix is not None:
                    prefixes.add(run.observed_prefix)

        found_resolver = None
        witnesses: Tuple[str, ...] = ()
        for resolver in sorted(by_resolver, key=str):
            probe_ids = by_resolver[resolver]
            networks = {
                probes[pid].network_prefix_v6
                for pid in probe_ids
                if pid in probes and probes[pid].network_prefix_v6 is not None
            }
            if len(networks) >= 2:
                found_resolver = resolver
                witnesses = tuple(sorted(probe_ids))
                break

        similar = False
        seen_stems = {}
        for prefix in prefixes:
            stem = (int(prefix.base) >> 80, prefix.length)  # first 48 bits
            if stem in seen_stems:
                similar = True
                break
            seen_stems[stem] = prefix

        out[asn] = IspDns64Evidence(
            asn=asn,
            is_isp_dns64=found_resolver is not None,
            resolver=found_resolver,
            witnesses=witnesses,
            multiple_similar_prefixes=similar,
        )
    return out


def group_runs_by_as(
    runs: Iterable[TestRun], probes: Mapping[str, ProbeRecord]
) -> Dict[int, List[TestRun]]:
    """Helper shaping detector output for detect_isp_dns64."""
    asn_of = {probe_id: record.asn_v6 for probe_id, record in probes.items()}
    grouped: Dict[int, List[TestRun]] = {}
    for run in runs:
        asn = asn_of.get(run.probe_id)
        if asn is not None:
            grouped.setdefault(asn, []).append(run)
    return grouped


def detect_local_nat64(paths: Sequence[TraceroutePath]) -> Optional[bool]:
    """True when the nearest translator hop answers like local equipment.

    Looks at the first translated hop of every path and compares the
    minimum of the per-path median RTTs with ``LOCAL_NAT_RTT_MS``. None
    when no path has a timed translator hop.
    """
    best: Optional[float] = None
    for path in paths:
        hop = first_nat_hop(path)
        if hop is None or not hop.rtts_ms:
            continue
        rtt = statistics.median(hop.rtts_ms)
        if best is None or rtt < best:
            best = rtt
    return None if best is None else best < LOCAL_NAT_RTT_MS


def categorize_probe(
    group: DetectionGroup,
    flags: DetectionFlags,
    *,
    evidence: Optional[IspDns64Evidence] = None,
    resolvers_used: Collection[IPAddress] = (),
    public_resolvers: Collection[IPAddress] = (),
    nat_location: Optional[NatLocation] = None,
    ping_passed: bool = False,
    has_nat_hop: bool = False,
    home_annotation: bool = False,
) -> FrozenSet[ProbeCategory]:
    """Bucket one detected probe; buckets overlap except the unknown one.

    Translator timing (``detect_local_nat64``) never assigns the home
    bucket: low RTT also matches translators one rack away, so home setups
    stay an owner-confirmed annotation (``home_annotation``).
    """
    if group not in (DetectionGroup.NAT64_PLUS_DNS64, DetectionGroup.NAT64_ONLY):
        return frozenset()
    cats = set()
    if evidence is not None and evidence.is_isp_dns64:
        cats.add(ProbeCategory.AS_WITH_DNS64)
        if evidence.resolver is not None and evidence.resolver in set(resolvers_used):
            cats.add(ProbeCategory.ISP_DNS64)
    if home_annotation:
        cats.add(ProbeCategory.HOME_SETUP)
    public = set(public_resolvers)
    if resolvers_used and all(r in public for r in resolvers_used):
        cats.add(ProbeCategory.PUBLIC_RESOLVER_ONLY)
    if flags.public_nat64_only:
        cats.add(ProbeCategory.PUBLIC_SERVICE)
    if nat_location is NatLocation.REMOTE:
        cats.add(ProbeCategory.REMOTE_NAT64)
    if ping_passed and not has_nat_hop:
        cats.add(ProbeCategory.NO_TRACEROUTE_THROUGH_NAT)
    if not cats:
        cats.add(ProbeCategory.UNKNOWN)
    return frozenset(cats)


def as_category(asn: Optional[int], mapping: Mapping[int, ASCategory]) -> ASCategory:
    if asn is None:
        return ASCategory.UNKNOWN
    return mapping.get(asn, ASCategory.UNKNOWN)


def count_as_categories(
    asns: Iterable[Optional[int]],
    mapping: Mapping[int, ASCategory],
) -> Dict[ASCategory, Dict[str, int]]:
    """Per category: how many distinct ASes and how many probes."""
    probes_per: Dict[ASCategory, int] = {cat: 0 for cat in ASCategory}
    ases_per: Dict[ASCategory, set] = {cat: set() for cat in ASCategory}
    for asn in asns:
        category = as_category(asn, mapping)
        probes_per[category] += 1
        if asn is not None:
            ases_per[category].add(asn)
    return {
        cat: {"ases": len(ases_per[cat]), "probes": probes_per[cat]}
        for cat in ASCategory
        if probes_per[cat]
    }
