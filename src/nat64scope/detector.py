"""Decide, per vantage point, whether a translator and/or DNS64 is present.

Four tests feed the decision: two DNS lookups (a name with no real AAAA
that DNS64 must synthesize for, and an IPv4-only hostname) and echo tests
against the well-known prefix and any operator prefixes the DNS tests
revealed.
Repeated runs aggregate into verdicts; verdicts map onto a group.
"""

from __future__ import annotations

import enum
import ipaddress
from typing import Collection, Dict, List, Mapping, Optional, Sequence, Tuple

from . import addrsynth
from .acquire.dataset import Dataset
from .acquire.dnswire import DnsResponse, DnsStatus, TYPE_AAAA
from .model import (
    IPAddress,
    Nat64Prefix,
    PrefixKind,
    RawOutcome,
    TestKind,
    TestRun,
    VerdictValue,
    _new_run,
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


#: The verdict values as the reports write them.
_PASSED, _FAILED, _INCONCLUSIVE = (value.value for value in VerdictValue)


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
        return _new_run((probe_id, kind, timestamp, RawOutcome.PASS, prefix, None, None))
    return _new_run((
        probe_id, kind, timestamp, RawOutcome.FAIL,
        prefix, None, f"0 of {len(rtts_ms)} replies",
    ))


def aggregate(runs: Sequence[TestRun]) -> dict:
    """The verdict document ``{"value", "supporting_runs"}`` of one test's runs.

    All pass -> passed, all fail -> failed, anything mixed -> inconclusive.
    """
    if not runs:
        raise ValueError("cannot aggregate zero runs")
    outcomes = {run.raw_outcome for run in runs}
    if outcomes == {RawOutcome.PASS}:
        value = _PASSED
    elif outcomes == {RawOutcome.FAIL}:
        value = _FAILED
    else:
        value = _INCONCLUSIVE
    return {"value": value, "supporting_runs": len(runs)}


def assign_group(
    dns1: Optional[dict],
    dns2: Optional[dict],
    pings: Mapping[str, dict],
    dns1_prefixes: Collection[str] = (),
    *,
    public_prefixes: Collection[str] = (),
    uses_public_resolver: bool = False,
) -> Tuple[DetectionGroup, Dict[str, bool], Optional[str]]:
    """Map the three verdicts onto a group; unnamed combinations stay open.

    Verdicts are ``aggregate``'s documents and prefixes are named by their
    text: ``pings`` maps each echoed prefix to its verdict. Returns the
    group, the flags as ``detection.json`` and ``truth.json`` write them,
    and, for an open group, why it stayed open.

    Passed pings against prefixes in ``public_prefixes`` never count as
    evidence of a local translator, so a probe whose only successes are
    public services cannot land in the translator-only group.
    """
    public = set(public_prefixes)
    passed = [p for p, v in pings.items() if v["value"] == _PASSED]
    nonpublic_pass = [p for p in passed if p not in public]
    all_pings_failed = bool(pings) and all(v["value"] == _FAILED for v in pings.values())
    matching_pass = any(p in pings and pings[p]["value"] == _PASSED for p in dns1_prefixes)

    d1 = dns1["value"] if dns1 else None
    d2 = dns2["value"] if dns2 else None
    P, F = _PASSED, _FAILED

    diagnostic = None
    if d1 == P and d2 == P and matching_pass:
        group = DetectionGroup.NAT64_PLUS_DNS64
    elif (d1 == F or d2 == F) and nonpublic_pass:
        group = DetectionGroup.NAT64_ONLY
    elif d1 == P and d2 == F and pings and not passed:
        group = DetectionGroup.DNS64_MISCONFIGURED_ONLY
    elif d1 == F and d2 == F and all_pings_failed:
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

    # Qualifiers that keep unusual setups out of the wrong bucket.
    flags = {
        "uses_public_resolver": uses_public_resolver,
        "likely_accidental": (
            group is DetectionGroup.NAT64_ONLY
            and not uses_public_resolver
            and d1 != P
            and d2 != P
        ),
        "rfc8880_style": group is DetectionGroup.NAT64_ONLY and d1 == P and d2 == F,
        "public_nat64_only": bool(passed) and not nonpublic_pass,
    }
    return group, flags, diagnostic


def detect_dataset(
    dataset: Dataset,
    *,
    public_prefixes: Collection[Nat64Prefix] = (),
    public_resolvers: Collection[IPAddress] = (),
) -> dict:
    """Aggregate every probe's recorded runs and assign groups.

    Returns the ``detection.json`` document. ``probes`` maps each probe to
    its ``group``, ``flags``, ``dns1`` and ``dns2`` verdicts, ``pings``
    (verdicts keyed by prefix text), the ``dns1_prefixes`` a passing DNS
    test 1 revealed, and a ``diagnostic`` for an open group.
    ``group_counts`` counts probes per group, and ``test_table`` counts,
    per test, the probes whose verdict passed, failed or stayed
    inconclusive.
    """
    public_resolver_set = set(public_resolvers)
    public_texts = {str(p) for p in public_prefixes}
    runs_by_probe: Dict[str, List[TestRun]] = {pid: [] for pid in dataset.probes}
    for run in dataset.runs:
        runs_by_probe.setdefault(run.probe_id, []).append(run)

    probes: Dict[str, dict] = {}
    test_table = {kind.value: {value.value: 0 for value in VerdictValue} for kind in TestKind}
    group_counts = {group.value: 0 for group in DetectionGroup}
    dns1_row, dns2_row, std_row, custom_row = test_table.values()  # in TestKind order

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
        pings = {}
        custom = set()  # the verdict values of the operator prefixes
        for prefix in sorted(ping_runs, key=str):
            verdict = pings[str(prefix)] = aggregate(ping_runs[prefix])
            if prefix.kind is PrefixKind.STANDARD:
                std_row[verdict["value"]] += 1
            else:
                custom.add(verdict["value"])
        dns1_prefixes = sorted(
            {
                str(r.observed_prefix)
                for r in dns1_runs
                if r.raw_outcome is RawOutcome.PASS and r.observed_prefix
            }
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
            public_prefixes=public_texts,
            uses_public_resolver=uses_public_resolver,
        )
        probes[probe_id] = {
            "group": group.value,
            "flags": flags,
            "dns1": dns1,
            "dns2": dns2,
            "pings": pings,
            "dns1_prefixes": dns1_prefixes,
            "diagnostic": diagnostic,
        }
        group_counts[group.value] += 1
        if dns1:
            dns1_row[dns1["value"]] += 1
        if dns2:
            dns2_row[dns2["value"]] += 1
        if custom:
            # One count per probe: passed if any operator prefix passed,
            # failed if all failed, otherwise inconclusive.
            if _PASSED in custom:
                custom_row[_PASSED] += 1
            elif custom == {_FAILED}:
                custom_row[_FAILED] += 1
            else:
                custom_row[_INCONCLUSIVE] += 1

    return {"probes": probes, "group_counts": group_counts, "test_table": test_table}
