"""Core record types shared by every stage of the toolkit.

Addresses are ``ipaddress`` objects end to end. Records are frozen
dataclasses so they can key dicts, live in sets, and round-trip through
the dataset codec without surprises. ``Hop``, the most numerous record,
is a named tuple instead: it is cheaper to build, and it compares equal
to the plain tuple ``(index, address, rtts_ms)``.
"""

from __future__ import annotations

import enum
import ipaddress
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple, Union

IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]

#: Prefix lengths under which an IPv4 address can be embedded in IPv6.
ALLOWED_PREFIX_LENGTHS: Tuple[int, ...] = (32, 40, 48, 56, 64, 96)

#: The well-known translation prefix.
WELL_KNOWN_BASE = ipaddress.IPv6Address("64:ff9b::")
WELL_KNOWN_LENGTH = 96


class PrefixKind(enum.Enum):
    """Whether a translation prefix is the well-known one or operator-chosen."""

    STANDARD = "standard"
    CUSTOM = "custom"


@dataclass(frozen=True, slots=True)
class Nat64Prefix:
    """A translation prefix: base address, length, and kind."""

    base: ipaddress.IPv6Address
    length: int
    kind: PrefixKind

    def __post_init__(self) -> None:
        if not isinstance(self.base, ipaddress.IPv6Address):
            raise TypeError("base must be an IPv6Address")
        if self.length not in ALLOWED_PREFIX_LENGTHS:
            raise ValueError(f"unsupported prefix length {self.length}")
        if int(self.base) & ((1 << (128 - self.length)) - 1):
            raise ValueError(f"{self.base} has bits set beyond /{self.length}")
        standard = self.base == WELL_KNOWN_BASE and self.length == WELL_KNOWN_LENGTH
        if standard != (self.kind is PrefixKind.STANDARD):
            raise ValueError("kind does not match the well-known prefix test")

    @classmethod
    def from_cidr(cls, text: str) -> "Nat64Prefix":
        """Parse ``base/length`` notation, deriving the kind."""
        base_text, _, length_text = text.partition("/")
        base = ipaddress.IPv6Address(base_text)
        length = int(length_text)
        standard = base == WELL_KNOWN_BASE and length == WELL_KNOWN_LENGTH
        kind = PrefixKind.STANDARD if standard else PrefixKind.CUSTOM
        return cls(base, length, kind)

    def __str__(self) -> str:
        return f"{self.base}/{self.length}"


STANDARD_PREFIX = Nat64Prefix(WELL_KNOWN_BASE, WELL_KNOWN_LENGTH, PrefixKind.STANDARD)


class TestKind(enum.Enum):
    """The four connectivity tests a probe can run."""

    DNS_TEST1 = "dns_test1"
    DNS_TEST2 = "dns_test2"
    STD_PREFIX_PING = "std_prefix_ping"
    CUSTOM_PREFIX_PING = "custom_prefix_ping"

    @property
    def is_dns(self) -> bool:
        return self in (TestKind.DNS_TEST1, TestKind.DNS_TEST2)

    @property
    def is_ping(self) -> bool:
        return not self.is_dns

    @staticmethod
    def ping_for(prefix: Nat64Prefix) -> "TestKind":
        """The echo test that targets ``prefix``."""
        standard = prefix.kind is PrefixKind.STANDARD
        return TestKind.STD_PREFIX_PING if standard else TestKind.CUSTOM_PREFIX_PING


class RawOutcome(enum.Enum):
    PASS = "pass"
    FAIL = "fail"


class VerdictValue(enum.Enum):
    PASSED = "passed"
    FAILED = "failed"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, slots=True)
class Verdict:
    """Aggregated outcome of repeated runs of one test."""

    value: VerdictValue
    supporting_runs: int


@dataclass(frozen=True, slots=True)
class ProbeRecord:
    """A measurement vantage point and its static attributes."""

    probe_id: str
    asn_v4: Optional[int]
    asn_v6: Optional[int]
    resolvers: Tuple[IPAddress, ...] = ()
    tags: Tuple[str, ...] = ()
    network_prefix_v6: Optional[ipaddress.IPv6Network] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "resolvers", tuple(self.resolvers))
        object.__setattr__(self, "tags", tuple(self.tags))


@dataclass(frozen=True, slots=True)
class TestRun:
    """One execution of one test from one probe."""

    probe_id: str
    test_kind: TestKind
    timestamp: int
    raw_outcome: RawOutcome
    observed_prefix: Optional[Nat64Prefix] = None
    resolver_used: Optional[IPAddress] = None
    diagnostic: Optional[str] = None


class PathFamily(enum.Enum):
    """Which side of a translated/native comparison a traceroute belongs to."""

    IPV4 = "ipv4"
    NAT64 = "nat64"


class Hop(NamedTuple):
    """One TTL step: the first responding address and every RTT seen there."""

    index: int
    address: Optional[IPAddress]
    rtts_ms: Tuple[float, ...] = ()

    @property
    def responded(self) -> bool:
        return self.address is not None


@dataclass(frozen=True, slots=True)
class TraceroutePath:
    """A traceroute toward an IPv4 target, either native or through a translator."""

    probe_id: str
    family: PathFamily
    prefix: Optional[Nat64Prefix]
    target_v4: ipaddress.IPv4Address
    round_index: int
    hops: Tuple[Hop, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "hops", tuple(self.hops))


@dataclass(frozen=True, slots=True)
class PathPair:
    """A native IPv4 traceroute matched with its translated counterpart."""

    ipv4: TraceroutePath
    nat64: TraceroutePath


_FLOAT_MAX = sys.float_info.max


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_probe(record: ProbeRecord) -> list[str]:
    problems = []
    if not record.probe_id:
        problems.append("probe_id is empty")
    for name in ("asn_v4", "asn_v6"):
        asn = getattr(record, name)
        if asn is not None and (not _is_int(asn) or asn <= 0):
            problems.append(f"{name} must be a positive integer or None")
    for resolver in record.resolvers:
        if not isinstance(resolver, (ipaddress.IPv4Address, ipaddress.IPv6Address)):
            problems.append(f"resolver {resolver!r} is not an address")
    if record.network_prefix_v6 is not None and not isinstance(
        record.network_prefix_v6, ipaddress.IPv6Network
    ):
        problems.append("network_prefix_v6 must be an IPv6Network or None")
    for tag in record.tags:
        if not isinstance(tag, str):
            problems.append(f"tag {tag!r} is not a string")
    return problems


def _validate_test_run(record: TestRun) -> list[str]:
    problems = []
    if not record.probe_id:
        problems.append("probe_id is empty")
    if not _is_int(record.timestamp):
        problems.append("timestamp must be an integer")
    elif record.timestamp < 0:
        problems.append("timestamp is negative")
    if record.diagnostic is not None and not isinstance(record.diagnostic, str):
        problems.append("diagnostic must be a string or None")
    kind = record.test_kind
    if kind.is_ping:
        # Ping runs always name the prefix they targeted.
        if record.observed_prefix is None:
            problems.append(f"{kind.value} run lacks a prefix")
        elif kind is TestKind.STD_PREFIX_PING:
            if record.observed_prefix.kind is not PrefixKind.STANDARD:
                problems.append("std_prefix_ping run carries a non-standard prefix")
        elif record.observed_prefix.kind is PrefixKind.STANDARD:
            problems.append("custom_prefix_ping run carries the standard prefix")
        if record.resolver_used is not None:
            problems.append("ping run carries resolver_used")
    else:
        # DNS runs observe a prefix only when they pass.
        if record.raw_outcome is RawOutcome.FAIL and record.observed_prefix is not None:
            problems.append("failed DNS run carries observed_prefix")
    return problems


def _validate_hop(hop: Hop, where: str) -> list[str]:
    problems = []
    if not _is_int(hop.index):
        problems.append(f"{where}hop index {hop.index!r} is not an integer")
    elif hop.index < 1:
        problems.append(f"{where}hop index {hop.index} is below 1")
    if hop.address is None and hop.rtts_ms:
        problems.append(f"{where}silent hop {hop.index} carries RTTs")
    for rtt in hop.rtts_ms:
        # A number float arithmetic can take; NaN fails both bounds.
        if not ((isinstance(rtt, float) or _is_int(rtt)) and 0 <= rtt <= _FLOAT_MAX):
            problems.append(f"{where}hop {hop.index} has invalid RTT {rtt!r}")
    return problems


def _hops_are_clean(hops: Tuple[Hop, ...]) -> bool:
    """True when no hop can fail the checks in ``_validate_path``.

    Exact types only: hops numbered 1, 2, ... by ints, silent ones without
    RTTs, every RTT a float between 0 and the largest float. Anything else,
    integer RTTs included, takes the full checks, which word the problems.
    """
    position = 0
    for index, address, rtts in hops:
        position += 1
        if type(index) is not int or index != position:
            return False
        if address is None and rtts:
            return False
        for rtt in rtts:
            if type(rtt) is not float or not 0.0 <= rtt <= _FLOAT_MAX:
                return False
    return True


def _validate_path(record: TraceroutePath) -> list[str]:
    problems = []
    if not record.probe_id:
        problems.append("probe_id is empty")
    if record.family is PathFamily.NAT64:
        if record.prefix is None:
            problems.append("nat64 path lacks a prefix")
    elif record.prefix is not None:
        problems.append("ipv4 path carries a prefix")
    if not isinstance(record.target_v4, ipaddress.IPv4Address):
        problems.append("target_v4 must be an IPv4Address")
    if not _is_int(record.round_index):
        problems.append("round_index must be an integer")
    elif record.round_index < 0:
        problems.append("round_index is negative")
    if _hops_are_clean(record.hops):
        return problems
    for position, hop in enumerate(record.hops, start=1):
        if hop.index != position:
            problems.append(f"hop indices not contiguous at position {position}")
            break
    where = f"{record.probe_id}: "
    for hop in record.hops:
        problems.extend(_validate_hop(hop, where))
    return problems


def validate(record: object) -> list[str]:
    """Return a list of contract violations; empty when well-formed."""
    if isinstance(record, ProbeRecord):
        return _validate_probe(record)
    if isinstance(record, TestRun):
        return _validate_test_run(record)
    if isinstance(record, TraceroutePath):
        return _validate_path(record)
    raise TypeError(f"no validation rules for {type(record).__name__}")
