"""Core record types and constants shared by every stage of the toolkit.

Addresses are ``ipaddress`` objects end to end; ``pack_address`` and
``pack_network`` parse their text in C where they can. Records are named
tuples, so they can key dicts, live in sets, and round-trip through the
dataset codec without surprises; a record compares equal to the plain
tuple of its fields, ``Hop`` to ``(index, address, rtts_ms)``. A named
tuple is cheap to define, which every command pays at start-up, and to
build, which it pays per record. The only check here is the one a
``Nat64Prefix`` makes of itself; what makes a dataset line valid lives
with the codec, in ``acquire.dataset``. ``data_lines`` is the one comment
rule of every text table and scenario file.
"""

from __future__ import annotations

# ``socket.inet_pton`` is the C module's: ``socket`` itself would add its
# enums and ``selectors`` to every command's start-up, about 5 ms.
import _socket
import enum
import ipaddress
from functools import partial
from typing import Iterable, Iterator, NamedTuple, Optional, Tuple, Union

IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]


def pack_address(text: str) -> Optional[bytes]:
    """The 4 or 16 bytes of the IPv4 or IPv6 address ``text``, parsed in C.

    None where ``inet_pton`` refuses the text. It accepts no text that
    ``ipaddress`` refuses, and refuses one form that ``ipaddress``
    accepts, a scoped IPv6 address such as ``fe80::1%eth0``: a caller
    parses a refused text with ``ipaddress``, for its value or its error.
    """
    family = _socket.AF_INET6 if ":" in text else _socket.AF_INET
    try:
        return _socket.inet_pton(family, text)
    except (OSError, ValueError):  # refused, or holds a NUL or a lone surrogate
        return None


def pack_network(text: str) -> Optional[Tuple[bytes, int]]:
    """The packed network address and the prefix length of ``address/length``
    text, parsed in C. None unless the length is one to three ASCII digits
    within the address's width and no host bit is set: a caller parses any
    other text with ``ipaddress``, for its value or its error."""
    address, slash, length = text.partition("/")
    packed = pack_address(address) if slash else None
    if packed is None or not (len(length) <= 3 and length.isascii() and length.isdigit()):
        return None
    bits, width = int(length), 8 * len(packed)
    if bits > width or int.from_bytes(packed, "big") & ((1 << (width - bits)) - 1):
        return None
    return packed, bits


def unpack_address(packed: bytes) -> IPAddress:
    """The ``ipaddress`` object of ``pack_address``'s bytes."""
    value = int.from_bytes(packed, "big")
    return ipaddress.IPv4Address(value) if len(packed) == 4 else ipaddress.IPv6Address(value)


def data_lines(lines: Iterable[str]) -> Iterator[Tuple[int, str]]:
    """The numbered data of a text table or scenario: each line's number,
    counted from 1, and its text with any ``#`` comment and surrounding
    whitespace cut away; a line left empty is skipped."""
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if text:
            yield lineno, text


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


class ProbeRecord(NamedTuple):
    """A measurement vantage point and its static attributes."""

    probe_id: str
    asn_v4: Optional[int]
    asn_v6: Optional[int]
    resolvers: Tuple[IPAddress, ...] = ()
    tags: Tuple[str, ...] = ()
    network_prefix_v6: Optional[ipaddress.IPv6Network] = None


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


class TraceroutePath(NamedTuple):
    """A traceroute toward an IPv4 target, either native or through a translator."""

    probe_id: str
    family: PathFamily
    prefix: Optional[Nat64Prefix]
    target_v4: ipaddress.IPv4Address
    round_index: int
    hops: Tuple[Hop, ...] = ()


#: Records from one tuple of fields, for the loader and the generator:
#: no Python-level ``__new__``.
_new_probe = partial(tuple.__new__, ProbeRecord)
_new_run = partial(tuple.__new__, TestRun)
_new_path = partial(tuple.__new__, TraceroutePath)


class PathPair(NamedTuple):
    """A native IPv4 traceroute matched with its translated counterpart."""

    ipv4: TraceroutePath
    nat64: TraceroutePath
