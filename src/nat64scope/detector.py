"""Decide, per vantage point, whether a translator and/or DNS64 is present.

Four tests feed the decision: two DNS lookups (a name with no real AAAA
that DNS64 must synthesize for, and an IPv4-only hostname) and echo tests
against the well-known prefix and any operator prefixes seen nearby.
Repeated runs aggregate into verdicts; verdicts map onto a group.
"""

from __future__ import annotations

import enum
import ipaddress
from typing import Collection, Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from . import addrsynth
from .acquire.dataset import Dataset
from .acquire.dnswire import DnsResponse, DnsStatus, TYPE_AAAA
from .model import (
    IPAddress,
    Nat64Prefix,
    PrefixKind,
    ProbeRecord,
    RawOutcome,
    TestKind,
    TestRun,
    Verdict,
    VerdictValue,
)

#: The name every DNS64 synthesizes answers for, and its fixed A records.
DNS1_NAME = "ipv4only.arpa."
DNS1_KNOWN_V4 = (
    ipaddress.IPv4Address("192.0.0.170"),
    ipaddress.IPv4Address("192.0.0.171"),
)

#: Default IPv4-only hostname for the second DNS test and its A record.
DEFAULT_DNS2_NAME = "time-c-b.nist.gov."
DEFAULT_DNS2_KNOWN_A = (ipaddress.IPv4Address("132.163.96.3"),)

#: Default echo target: an IPv4 anchor reachable through any working translator.
STD_PING_TARGET_V4 = ipaddress.IPv4Address("91.201.7.243")


class DetectionGroup(enum.Enum):
    NAT64_PLUS_DNS64 = "nat64_plus_dns64"
    NAT64_ONLY = "nat64_only"
    DNS64_MISCONFIGURED_ONLY = "dns64_misconfigured_only"
    NO_NAT64 = "no_nat64"
    INCONCLUSIVE = "inconclusive"


class DetectionFlags(NamedTuple):
    """Qualifiers that keep unusual setups out of the wrong bucket."""

    uses_public_resolver: bool = False
    likely_accidental: bool = False
    rfc8880_style: bool = False
    public_nat64_only: bool = False


def _summarize_failure(responses: Sequence[DnsResponse]) -> str:
    if not responses:
        return "no responses"
    parts = []
    for resp in responses:
        who = str(resp.resolver) if resp.resolver else "resolver"
        if resp.status is not DnsStatus.NOERROR:
            parts.append(f"{who}: {resp.status.value}")
        elif not resp.answers:
            parts.append(f"{who}: empty answer")
        else:
            parts.append(f"{who}: no answer embeds a known address")
    return "; ".join(parts)


def _eval_synthesis(
    probe_id: str,
    timestamp: int,
    kind: TestKind,
    responses: Sequence[DnsResponse],
    known_v4: Collection[ipaddress.IPv4Address],
) -> TestRun:
    for resp in responses:
        if resp.status is not DnsStatus.NOERROR:
            continue
        for answer in resp.answers:
            if answer.rdtype != TYPE_AAAA or answer.address is None:
                continue
            try:
                prefix = addrsynth.derive_prefix_from_answer(answer.address, known_v4)
            except addrsynth.NoEmbeddingFound:
                continue
            return TestRun(
                probe_id=probe_id,
                test_kind=kind,
                timestamp=timestamp,
                raw_outcome=RawOutcome.PASS,
                observed_prefix=prefix,
                resolver_used=resp.resolver,
            )
    return TestRun(
        probe_id=probe_id,
        test_kind=kind,
        timestamp=timestamp,
        raw_outcome=RawOutcome.FAIL,
        diagnostic=_summarize_failure(responses),
    )


def eval_dns_test1(
    probe_id: str,
    timestamp: int,
    responses: Sequence[DnsResponse],
) -> TestRun:
    """Pass when any AAAA answer embeds one of the fixed well-known A records."""
    return _eval_synthesis(probe_id, timestamp, TestKind.DNS_TEST1, responses, DNS1_KNOWN_V4)


def eval_dns_test2(
    probe_id: str,
    timestamp: int,
    responses: Sequence[DnsResponse],
    known_a: Collection[ipaddress.IPv4Address] = DEFAULT_DNS2_KNOWN_A,
) -> TestRun:
    """Pass when the IPv4-only name resolves to a synthesized AAAA."""
    return _eval_synthesis(probe_id, timestamp, TestKind.DNS_TEST2, responses, known_a)


def eval_ping_test(
    probe_id: str,
    timestamp: int,
    prefix: Nat64Prefix,
    rtts_ms: Sequence[Optional[float]],
) -> TestRun:
    """Pass when any echo reply came back from the synthesized target.

    ``rtts_ms`` holds one entry per echo request sent, None for a lost one.
    """
    kind = TestKind.ping_for(prefix)
    if any(rtt is not None for rtt in rtts_ms):
        return TestRun(probe_id, kind, timestamp, RawOutcome.PASS, observed_prefix=prefix)
    return TestRun(
        probe_id,
        kind,
        timestamp,
        RawOutcome.FAIL,
        observed_prefix=prefix,
        diagnostic=f"0 of {len(rtts_ms)} replies",
    )


def aggregate(runs: Sequence[TestRun]) -> Verdict:
    """All pass -> Passed, all fail -> Failed, anything mixed -> Inconclusive."""
    if not runs:
        raise ValueError("cannot aggregate zero runs")
    outcomes = {run.raw_outcome for run in runs}
    if outcomes == {RawOutcome.PASS}:
        value = VerdictValue.PASSED
    elif outcomes == {RawOutcome.FAIL}:
        value = VerdictValue.FAILED
    else:
        value = VerdictValue.INCONCLUSIVE
    return Verdict(value, len(runs))


def select_custom_ping_candidates(
    probes: Mapping[str, ProbeRecord],
    dns_runs: Sequence[TestRun],
) -> Dict[Nat64Prefix, Tuple[str, ...]]:
    """Which probes should echo-test each operator prefix.

    A probe qualifies for a prefix when it shares its IPv6 AS with any
    probe that observed the prefix in a DNS test; observers themselves
    always qualify, AS number or not.
    """
    observers: Dict[Nat64Prefix, Set[str]] = {}
    for run in dns_runs:
        if (
            run.test_kind.is_dns
            and run.raw_outcome is RawOutcome.PASS
            and run.observed_prefix is not None
            and run.observed_prefix.kind is PrefixKind.CUSTOM
            and run.probe_id in probes
        ):
            observers.setdefault(run.observed_prefix, set()).add(run.probe_id)

    out: Dict[Nat64Prefix, Tuple[str, ...]] = {}
    for prefix, seen_by in sorted(observers.items(), key=lambda kv: str(kv[0])):
        ases = {
            probes[pid].asn_v6 for pid in seen_by if probes[pid].asn_v6 is not None
        }
        chosen = set(seen_by)
        for pid, record in probes.items():
            if record.asn_v6 is not None and record.asn_v6 in ases:
                chosen.add(pid)
        out[prefix] = tuple(sorted(chosen))
    return out


def assign_group(
    dns1: Optional[Verdict],
    dns2: Optional[Verdict],
    pings: Mapping[Nat64Prefix, Verdict],
    dns1_prefixes: Collection[Nat64Prefix] = (),
    *,
    public_prefixes: Collection[Nat64Prefix] = (),
    uses_public_resolver: bool = False,
) -> Tuple[DetectionGroup, DetectionFlags, Optional[str]]:
    """Map the three verdicts onto a group; unnamed combinations stay open.

    Passed pings against prefixes in ``public_prefixes`` never count as
    evidence of a local translator, so a probe whose only successes are
    public services cannot land in the translator-only group.
    """
    public = set(public_prefixes)
    passed = [p for p, v in pings.items() if v.value is VerdictValue.PASSED]
    nonpublic_pass = [p for p in passed if p not in public]
    all_pings_failed = bool(pings) and all(
        v.value is VerdictValue.FAILED for v in pings.values()
    )
    matching_pass = any(
        p in pings and pings[p].value is VerdictValue.PASSED for p in dns1_prefixes
    )

    d1 = dns1.value if dns1 else None
    d2 = dns2.value if dns2 else None
    P, F = VerdictValue.PASSED, VerdictValue.FAILED

    diagnostic = None
    if d1 is P and d2 is P and matching_pass:
        group = DetectionGroup.NAT64_PLUS_DNS64
    elif (d1 is F or d2 is F) and nonpublic_pass:
        group = DetectionGroup.NAT64_ONLY
    elif d1 is P and d2 is F and pings and not passed:
        group = DetectionGroup.DNS64_MISCONFIGURED_ONLY
    elif d1 is F and d2 is F and all_pings_failed:
        group = DetectionGroup.NO_NAT64
    else:
        group = DetectionGroup.INCONCLUSIVE
        if dns1 is None or dns2 is None or not pings:
            missing = [
                name
                for name, got in (("dns_test1", dns1), ("dns_test2", dns2), ("ping", pings))
                if not got
            ]
            diagnostic = "missing verdicts: " + ", ".join(missing)
        elif passed and not nonpublic_pass:
            diagnostic = "only public-service prefixes answered"
        else:
            diagnostic = "mixed signals match no group"

    flags = DetectionFlags(
        uses_public_resolver=uses_public_resolver,
        likely_accidental=(
            group is DetectionGroup.NAT64_ONLY
            and not uses_public_resolver
            and d1 is not P
            and d2 is not P
        ),
        rfc8880_style=(group is DetectionGroup.NAT64_ONLY and d1 is P and d2 is F),
        public_nat64_only=bool(passed) and not nonpublic_pass,
    )
    return group, flags, diagnostic


class ProbeDetection(NamedTuple):
    """Everything the detector concluded about one probe."""

    probe_id: str
    dns1: Optional[Verdict]
    dns2: Optional[Verdict]
    pings: "dict[Nat64Prefix, Verdict]"
    dns1_prefixes: Tuple[Nat64Prefix, ...]
    group: DetectionGroup
    flags: DetectionFlags
    diagnostic: Optional[str] = None


class DetectionReport(NamedTuple):
    """Per-probe conclusions plus the aggregate bookkeeping tables."""

    probes: "dict[str, ProbeDetection]"
    test_table: "dict[TestKind, dict[VerdictValue, int]]"
    group_counts: "dict[DetectionGroup, int]"


def detect_dataset(
    dataset: Dataset,
    *,
    public_prefixes: Collection[Nat64Prefix] = (),
    public_resolvers: Collection[IPAddress] = (),
) -> DetectionReport:
    """Aggregate every probe's recorded runs and assign groups."""
    public_resolver_set = set(public_resolvers)
    runs_by_probe: Dict[str, List[TestRun]] = {pid: [] for pid in dataset.probes}
    for run in dataset.runs:
        runs_by_probe.setdefault(run.probe_id, []).append(run)

    probes: Dict[str, ProbeDetection] = {}
    test_table: Dict[TestKind, Dict[VerdictValue, int]] = {
        kind: {value: 0 for value in VerdictValue} for kind in TestKind
    }
    group_counts: Dict[DetectionGroup, int] = {group: 0 for group in DetectionGroup}

    for probe_id, record in dataset.probes.items():
        runs = runs_by_probe.get(probe_id, [])
        dns1_runs: List[TestRun] = []
        dns2_runs: List[TestRun] = []
        ping_runs: Dict[Nat64Prefix, List[TestRun]] = {}
        for run in runs:
            kind = run.test_kind
            if kind is TestKind.DNS_TEST1:
                dns1_runs.append(run)
            elif kind is TestKind.DNS_TEST2:
                dns2_runs.append(run)
            elif run.observed_prefix is not None:
                ping_runs.setdefault(run.observed_prefix, []).append(run)

        dns1 = aggregate(dns1_runs) if dns1_runs else None
        dns2 = aggregate(dns2_runs) if dns2_runs else None
        pings = {
            prefix: aggregate(per_prefix)
            for prefix, per_prefix in sorted(ping_runs.items(), key=lambda kv: str(kv[0]))
        }
        dns1_prefixes = tuple(
            sorted(
                {
                    r.observed_prefix
                    for r in dns1_runs
                    if r.raw_outcome is RawOutcome.PASS and r.observed_prefix
                },
                key=str,
            )
        )
        uses_public_resolver = any(r in public_resolver_set for r in record.resolvers) or any(
            r.resolver_used in public_resolver_set
            for r in runs
            if r.resolver_used is not None
        )

        group, flags, diagnostic = assign_group(
            dns1,
            dns2,
            pings,
            dns1_prefixes,
            public_prefixes=public_prefixes,
            uses_public_resolver=uses_public_resolver,
        )
        probes[probe_id] = ProbeDetection(
            probe_id, dns1, dns2, pings, dns1_prefixes, group, flags, diagnostic
        )
        group_counts[group] += 1
        if dns1:
            test_table[TestKind.DNS_TEST1][dns1.value] += 1
        if dns2:
            test_table[TestKind.DNS_TEST2][dns2.value] += 1
        std_verdicts = [v for p, v in pings.items() if p.kind is PrefixKind.STANDARD]
        for verdict in std_verdicts:
            test_table[TestKind.STD_PREFIX_PING][verdict.value] += 1
        custom_verdicts = [v for p, v in pings.items() if p.kind is PrefixKind.CUSTOM]
        if custom_verdicts:
            # One row per probe: passed if any prefix passed, failed if all
            # failed, otherwise inconclusive.
            values = {v.value for v in custom_verdicts}
            if VerdictValue.PASSED in values:
                bucket = VerdictValue.PASSED
            elif values == {VerdictValue.FAILED}:
                bucket = VerdictValue.FAILED
            else:
                bucket = VerdictValue.INCONCLUSIVE
            test_table[TestKind.CUSTOM_PREFIX_PING][bucket] += 1

    return DetectionReport(probes=probes, test_table=test_table, group_counts=group_counts)
