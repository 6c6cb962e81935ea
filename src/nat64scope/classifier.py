"""Explain detected translator setups: who runs them, where, and for whom.

Works on top of detection results: cross-probe DNS evidence identifies
ISP-operated DNS64, the hops before a translator name the AS that runs
it and so place it relative to the probe's own ASes, translator-hop
timing hints at equipment in the local network, and per-AS category
labels come from a user-maintained mapping.

This is the one module that decides and names a probe's classification.
Its functions return the pieces of ``classification.json`` as plain
values: ``detect_isp_dns64`` the ``evidence`` object, ``locate_nat64``
a probe's ``nat_location``, ``categorize_probe`` its ``categories`` and
``count_as_categories`` the ``as_category_counts`` object.
"""

from __future__ import annotations

import enum
from typing import Collection, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .acquire.ip2as import Ip2AsTable
from .detector import DetectionGroup
from .model import (
    IPAddress,
    Nat64Prefix,
    PrefixKind,
    ProbeRecord,
    RawOutcome,
    TestRun,
    TraceroutePath,
    VerdictValue,
)
from .pathlab import first_nat_hop, median

#: Translator hops answering faster than this sit in the probe's own network.
LOCAL_NAT_RTT_MS = 2.0

#: The groups whose probes reach a translator, as ``detection.json`` names them.
_TRANSLATING = (DetectionGroup.NAT64_PLUS_DNS64.value, DetectionGroup.NAT64_ONLY.value)

#: A passed verdict, as ``detection.json`` writes it.
_PASSED = VerdictValue.PASSED.value

#: The probe tag by which an owner confirms a translator in their own home.
HOME_TAG = "home-nat64"


class NatLocation(enum.Enum):
    """Where the translator sits relative to the probe's own networks."""

    ALL_EQUAL = "all_equal"
    NAT_IN_V6_AS = "nat_in_v6_as"
    REMOTE = "remote"


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


def detect_isp_dns64(
    runs_by_as: Mapping[int, Sequence[TestRun]],
    probes: Mapping[str, ProbeRecord],
) -> Dict[str, dict]:
    """Decide per AS whether the ISP itself operates the DNS64.

    Evidence requires two distinct probes in the AS passing DNS tests via
    the same resolver while sitting in different IPv6 networks; identical
    or unknown network prefixes could be one household, so they never
    count. Also notes when an AS shows several near-identical prefixes,
    which hints at per-site translator pools.

    Returns the ``evidence`` object of ``classification.json``: keyed by
    the AS number's text, in numeric order, each entry holds
    ``is_isp_dns64``, the ``resolver`` as text (None without evidence),
    the ``witnesses`` and ``multiple_similar_prefixes``.
    """
    out: Dict[str, dict] = {}
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
        witnesses: List[str] = []
        for resolver in sorted(by_resolver, key=str):
            probe_ids = by_resolver[resolver]
            networks = {
                probes[pid].network_prefix_v6
                for pid in probe_ids
                if pid in probes and probes[pid].network_prefix_v6 is not None
            }
            if len(networks) >= 2:
                found_resolver = str(resolver)
                witnesses = sorted(probe_ids)
                break

        similar = False
        seen_stems = {}
        for prefix in prefixes:
            stem = (int(prefix.base) >> 80, prefix.length)  # first 48 bits
            if stem in seen_stems:
                similar = True
                break
            seen_stems[stem] = prefix

        # Keyed by text: under sort_keys, json orders int keys as numbers.
        out[str(asn)] = {
            "is_isp_dns64": found_resolver is not None,
            "resolver": found_resolver,
            "witnesses": witnesses,
            "multiple_similar_prefixes": similar,
        }
    return out


def group_runs_by_as(
    runs: Iterable[TestRun], probes: Mapping[str, ProbeRecord]
) -> Dict[int, List[TestRun]]:
    """The runs of each IPv6 AS, as ``detect_isp_dns64`` takes them.

    A run whose probe is unknown or has no IPv6 AS number is left out.
    """
    asn_of = {probe_id: record.asn_v6 for probe_id, record in probes.items()}
    grouped: Dict[int, List[TestRun]] = {}
    for run in runs:
        asn = asn_of.get(run.probe_id)
        if asn is not None:
            grouped.setdefault(asn, []).append(run)
    return grouped


def attribute_nat64_as(
    paths: Sequence[TraceroutePath],
    prefix: Nat64Prefix,
    ip2as: Ip2AsTable,
    probe: ProbeRecord,
) -> int:
    """The AS number of the translator of ``paths``, all translated under ``prefix``.

    An announced operator prefix settles it directly. Otherwise the last
    responding hop before the first translated hop decides, and when paths
    disagree the hop furthest from the probe (highest index) wins, ties
    going to the lowest AS number. With no usable hops at all, fall back
    to the probe's own AS.
    """
    if prefix.kind is not PrefixKind.STANDARD:
        announced = ip2as.lookup(prefix.base)
        if announced is not None:
            return announced

    best: Optional[Tuple[int, int]] = None  # (hop_index, asn)
    for path in paths:
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
        return best[1]
    fallback = probe.asn_v6 if probe.asn_v6 is not None else probe.asn_v4
    if fallback is None:
        raise ValueError(f"{probe.probe_id}: no hops usable and no probe AS to fall back to")
    return fallback


def locate_nat64(nat_asn: int, probe: ProbeRecord) -> str:
    """Where the translator of AS ``nat_asn`` sits, as ``NatLocation`` text.

    Local to both probe networks, in the probe's IPv6 AS only, or remote.
    """
    if probe.asn_v4 is None or probe.asn_v6 is None:
        raise ValueError(f"{probe.probe_id}: both probe AS numbers are required")
    if nat_asn == probe.asn_v6 == probe.asn_v4:
        return NatLocation.ALL_EQUAL.value
    if nat_asn == probe.asn_v6:
        return NatLocation.NAT_IN_V6_AS.value
    return NatLocation.REMOTE.value


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
        rtt = median(hop.rtts_ms)
        if best is None or rtt < best:
            best = rtt
    return None if best is None else best < LOCAL_NAT_RTT_MS


def categorize_probe(
    entry: Mapping,
    record: ProbeRecord,
    evidence: Mapping[str, Mapping],
    *,
    resolvers_used: Collection[IPAddress] = (),
    public_resolvers: Collection[IPAddress] = (),
    nat_location: Optional[str] = None,
    has_nat_hop: bool = False,
) -> List[str]:
    """The sorted category names of one probe; they overlap except ``unknown``.

    ``entry`` is the probe's ``detection.json`` entry: its group, its
    ``public_nat64_only`` flag and its ping verdicts are read from there.
    ``evidence`` is the whole ``detect_isp_dns64`` document, in which the
    probe's entry is keyed by its IPv6 AS number. The probe is in the
    ISP-DNS64 bucket when it used the evidence's resolver, whose text is
    compared with each resolver used. ``nat_location`` is
    ``locate_nat64``'s text. A probe outside the translating groups gets
    no category.

    Translator timing (``detect_local_nat64``) never assigns the home
    bucket: low RTT also matches translators one rack away, so home setups
    stay an owner-confirmed annotation (the ``HOME_TAG`` probe tag).
    """
    if entry["group"] not in _TRANSLATING:
        return []
    cats = set()
    as_evidence = evidence.get(str(record.asn_v6)) if record.asn_v6 is not None else None
    if as_evidence is not None and as_evidence["is_isp_dns64"]:
        cats.add(ProbeCategory.AS_WITH_DNS64)
        if any(str(r) == as_evidence["resolver"] for r in resolvers_used):
            cats.add(ProbeCategory.ISP_DNS64)
    if HOME_TAG in record.tags:
        cats.add(ProbeCategory.HOME_SETUP)
    if resolvers_used and all(r in public_resolvers for r in resolvers_used):
        cats.add(ProbeCategory.PUBLIC_RESOLVER_ONLY)
    if entry["flags"]["public_nat64_only"]:
        cats.add(ProbeCategory.PUBLIC_SERVICE)
    if nat_location == NatLocation.REMOTE.value:
        cats.add(ProbeCategory.REMOTE_NAT64)
    if not has_nat_hop and any(v["value"] == _PASSED for v in entry["pings"].values()):
        cats.add(ProbeCategory.NO_TRACEROUTE_THROUGH_NAT)
    if not cats:
        cats.add(ProbeCategory.UNKNOWN)
    return sorted(cat.value for cat in cats)


def count_as_categories(
    entries: Iterable[Mapping], mapping: Mapping[int, ASCategory]
) -> Dict[str, Dict[str, int]]:
    """The ``as_category_counts`` object of ``classification.json``.

    ``entries`` are the probe entries of ``classification.json``. Each
    probe with a category counts toward the category of its IPv6 AS,
    unknown when it has none or the mapping lacks it. Per category, in
    ``ASCategory`` order and only when it has a probe: how many distinct
    ASes and how many probes.
    """
    probes_per: Dict[ASCategory, int] = {cat: 0 for cat in ASCategory}
    ases_per: Dict[ASCategory, set] = {cat: set() for cat in ASCategory}
    for entry in entries:
        if not entry["categories"]:
            continue
        asn = entry["asn_v6"]
        category = mapping.get(asn, ASCategory.UNKNOWN)
        probes_per[category] += 1
        if asn is not None:
            ases_per[category].add(asn)
    return {
        cat.value: {"ases": len(ases_per[cat]), "probes": probes_per[cat]}
        for cat in ASCategory
        if probes_per[cat]
    }
