"""Core record types shared by every stage of the toolkit.

Addresses are ``ipaddress`` objects end to end. Records are named
tuples, so they can key dicts, live in sets, and round-trip through the
dataset codec without surprises; a record compares equal to the plain
tuple of its fields, ``Hop`` to ``(index, address, rtts_ms)``. A named
tuple is cheap to define, which every command pays at start-up, and to
build, which it pays per record.
"""

from __future__ import annotations

import enum
import ipaddress
import sys
from functools import partial
from typing import NamedTuple, Optional, Tuple, Union

IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]

#: Prefix lengths under which an IPv4 address can be embedded in IPv6.
ALLOWED_PREFIX_LENGTHS: Tuple[int, ...] = (32, 40, 48, 56, 64, 96)

#: The largest AS number; AS numbers are four octets (RFC 6793).
MAX_ASN = 2**32 - 1

#: The well-known translation prefix.
WELL_KNOWN_BASE = ipaddress.IPv6Address("64:ff9b::")
WELL_KNOWN_LENGTH = 96


class PrefixKind(enum.Enum):
    """Whether a translation prefix is the well-known one or operator-chosen."""

    STANDARD = "standard"
    CUSTOM = "custom"


class _PrefixFields(NamedTuple):
    base: ipaddress.IPv6Address
    length: int
    kind: PrefixKind


class Nat64Prefix(_PrefixFields):
    """A translation prefix: base address, length, and kind."""

    def __new__(cls, base: ipaddress.IPv6Address, length: int, kind: PrefixKind):
        if not isinstance(base, ipaddress.IPv6Address):
            raise TypeError("base must be an IPv6Address")
        if length not in ALLOWED_PREFIX_LENGTHS:
            raise ValueError(f"unsupported prefix length {length}")
        if int(base) & ((1 << (128 - length)) - 1):
            raise ValueError(f"{base} has bits set beyond /{length}")
        standard = base == WELL_KNOWN_BASE and length == WELL_KNOWN_LENGTH
        if standard != (kind is PrefixKind.STANDARD):
            raise ValueError("kind does not match the well-known prefix test")
        self = tuple.__new__(cls, (base, length, kind))
        # Reports name a prefix and dicts key on it per record, while a load
        # builds only a handful: both are computed once, at construction,
        # and kept in the instance dict, as a tuple has no slots of its own.
        self._text = f"{base}/{length}"
        self._hash = hash((base, length, kind))
        return self

    # ``_replace`` builds through ``_make``, so through the checks above.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def of(cls, base: ipaddress.IPv6Address, length: int) -> "Nat64Prefix":
        """The prefix ``base/length``, its kind derived from the well-known test."""
        standard = base == WELL_KNOWN_BASE and length == WELL_KNOWN_LENGTH
        return cls(base, length, PrefixKind.STANDARD if standard else PrefixKind.CUSTOM)

    @classmethod
    def from_cidr(cls, text: str) -> "Nat64Prefix":
        """Parse ``base/length`` notation, deriving the kind."""
        base_text, _, length_text = text.partition("/")
        return cls.of(ipaddress.IPv6Address(base_text), int(length_text))

    def __str__(self) -> str:
        return self._text

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt through the constructor: a hash is only valid in the
        # process that computed it.
        return type(self), (self.base, self.length, self.kind)


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


class Verdict(NamedTuple):
    """Aggregated outcome of repeated runs of one test."""

    value: VerdictValue
    supporting_runs: int


class _ProbeFields(NamedTuple):
    probe_id: str
    asn_v4: Optional[int]
    asn_v6: Optional[int]
    resolvers: Tuple[IPAddress, ...]
    tags: Tuple[str, ...]
    network_prefix_v6: Optional[ipaddress.IPv6Network]


class ProbeRecord(_ProbeFields):
    """A measurement vantage point and its static attributes."""

    __slots__ = ()

    def __new__(cls, probe_id: str, asn_v4: Optional[int], asn_v6: Optional[int],
                resolvers=(), tags=(), network_prefix_v6=None):
        # Sequences become tuples, so a record built from lists hashes.
        return tuple.__new__(
            cls, (probe_id, asn_v4, asn_v6, tuple(resolvers), tuple(tags), network_prefix_v6)
        )


class TestRun(NamedTuple):
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


#: ``Hop(index, address, rtts_ms)`` from one tuple, without the Python-level
#: ``__new__`` that named tuples add; about half the cost per hop.
_new_hop = partial(tuple.__new__, Hop)


class _PathFields(NamedTuple):
    probe_id: str
    family: PathFamily
    prefix: Optional[Nat64Prefix]
    target_v4: ipaddress.IPv4Address
    round_index: int
    hops: Tuple[Hop, ...]


class TraceroutePath(_PathFields):
    """A traceroute toward an IPv4 target, either native or through a translator."""

    __slots__ = ()

    def __new__(cls, probe_id: str, family: PathFamily, prefix: Optional[Nat64Prefix],
                target_v4: ipaddress.IPv4Address, round_index: int, hops=()):
        # Sequences become tuples, so a record built from lists hashes.
        return tuple.__new__(cls, (probe_id, family, prefix, target_v4, round_index, tuple(hops)))


#: Records from one tuple of fields whose sequences are tuples already,
#: for the loader and the generator: no Python-level ``__new__``.
_new_probe = partial(tuple.__new__, ProbeRecord)
_new_path = partial(tuple.__new__, TraceroutePath)


class PathPair(NamedTuple):
    """A native IPv4 traceroute matched with its translated counterpart."""

    ipv4: TraceroutePath
    nat64: TraceroutePath


_FLOAT_MAX = sys.float_info.max


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_probe(record: ProbeRecord) -> list[str]:
    probe_id, asn_v4, asn_v6, resolvers, tags, network = record
    problems = []
    if not probe_id:
        problems.append("probe_id is empty")
    else:
        try:
            # A lone surrogate loads from a JSON escape but cannot be
            # written to a report; runs and paths name a known probe.
            probe_id.encode("utf-8")
        except UnicodeEncodeError:
            problems.append("probe_id is not valid Unicode text")
    for name, asn in (("asn_v4", asn_v4), ("asn_v6", asn_v6)):
        if asn is not None and (not _is_int(asn) or asn <= 0):
            problems.append(f"{name} must be a positive integer or None")
        elif asn is not None and asn > MAX_ASN:
            problems.append(f"{name} {asn} is above the largest AS number {MAX_ASN}")
    for resolver in resolvers:
        if not isinstance(resolver, (ipaddress.IPv4Address, ipaddress.IPv6Address)):
            problems.append(f"resolver {resolver!r} is not an address")
    if network is not None and not isinstance(network, ipaddress.IPv6Network):
        problems.append("network_prefix_v6 must be an IPv6Network or None")
    for tag in tags:
        if not isinstance(tag, str):
            problems.append(f"tag {tag!r} is not a string")
    return problems


def _validate_test_run(record: TestRun) -> list[str]:
    probe_id, kind, timestamp, outcome, prefix, resolver_used, diagnostic = record
    problems = []
    if not probe_id:
        problems.append("probe_id is empty")
    if not _is_int(timestamp):
        problems.append("timestamp must be an integer")
    elif timestamp < 0:
        problems.append("timestamp is negative")
    if diagnostic is not None and not isinstance(diagnostic, str):
        problems.append("diagnostic must be a string or None")
    if kind.is_dns:
        # DNS runs observe a prefix only when they pass.
        if outcome is RawOutcome.FAIL and prefix is not None:
            problems.append("failed DNS run carries observed_prefix")
        return problems
    # Ping runs always name the prefix they targeted.
    if prefix is None:
        problems.append(f"{kind.value} run lacks a prefix")
    elif kind is TestKind.STD_PREFIX_PING:
        if prefix.kind is not PrefixKind.STANDARD:
            problems.append("std_prefix_ping run carries a non-standard prefix")
    elif prefix.kind is PrefixKind.STANDARD:
        problems.append("custom_prefix_ping run carries the standard prefix")
    if resolver_used is not None:
        problems.append("ping run carries resolver_used")
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
    probe_id, family, prefix, target_v4, round_index, hops = record
    problems = []
    if not probe_id:
        problems.append("probe_id is empty")
    if family is PathFamily.NAT64:
        if prefix is None:
            problems.append("nat64 path lacks a prefix")
    elif prefix is not None:
        problems.append("ipv4 path carries a prefix")
    if not isinstance(target_v4, ipaddress.IPv4Address):
        problems.append("target_v4 must be an IPv4Address")
    if not _is_int(round_index):
        problems.append("round_index must be an integer")
    elif round_index < 0:
        problems.append("round_index is negative")
    if _hops_are_clean(hops):
        return problems
    for position, hop in enumerate(hops, start=1):
        if hop.index != position:
            problems.append(f"hop indices not contiguous at position {position}")
            break
    where = f"{probe_id}: "
    for hop in hops:
        problems.extend(_validate_hop(hop, where))
    return problems


#: The checks of each record class, looked up by the exact class of a record.
_RULES = {
    ProbeRecord: _validate_probe, TestRun: _validate_test_run, TraceroutePath: _validate_path
}


def validate(record: object) -> list[str]:
    """Return a list of contract violations; empty when well-formed."""
    rules = _RULES.get(type(record))
    if rules is None:
        raise TypeError(f"no validation rules for {type(record).__name__}")
    return rules(record)
