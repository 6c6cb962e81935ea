"""Minimal DNS wire format: enough to ask for A/AAAA records and read answers.

Implements a client's subset (UDP messages, IN class, A and AAAA rdata,
compression pointers on decode): it builds queries and reads replies,
and serves nothing. Encoding never compresses, so a query built here
parses back to the same content everywhere.
"""

from __future__ import annotations

import enum
import ipaddress
import struct
from typing import NamedTuple, Optional, Tuple

from ..model import IPAddress

TYPE_A = 1
TYPE_AAAA = 28
CLASS_IN = 1

_HEADER = struct.Struct("!HHHHHH")
_FLAG_QR = 0x8000
_FLAG_RD = 0x0100

#: A whole name in wire form, length bytes and root label included (RFC 1035).
MAX_NAME_BYTES = 255


class MalformedDns(ValueError):
    """The byte string is not a well-formed DNS message."""


class DnsStatus(enum.Enum):
    """Outcome of one resolver exchange, wire-level errors included."""

    NOERROR = "noerror"
    NXDOMAIN = "nxdomain"
    SERVFAIL = "servfail"
    REFUSED = "refused"
    TIMEOUT = "timeout"
    MALFORMED = "malformed"
    OTHER = "other"


_RCODE_STATUS = {
    0: DnsStatus.NOERROR,
    2: DnsStatus.SERVFAIL,
    3: DnsStatus.NXDOMAIN,
    5: DnsStatus.REFUSED,
}


def canonical_name(name: str) -> str:
    """Lowercase, with exactly one trailing dot."""
    return name.rstrip(".").lower() + "."


def encode_name(name: str) -> bytes:
    out = bytearray()
    for label in canonical_name(name).rstrip(".").split("."):
        if not label:
            continue
        raw = label.encode("ascii")
        if len(raw) > 63:
            raise MalformedDns(f"label too long: {label!r}")
        out.append(len(raw))
        out.extend(raw)
    out.append(0)
    if len(out) > MAX_NAME_BYTES:
        raise MalformedDns(f"name too long: {len(out)} bytes in wire form, limit {MAX_NAME_BYTES}")
    return bytes(out)


def _decode_name(wire: bytes, offset: int) -> Tuple[str, int]:
    """Return (name, offset after the name at the original position)."""
    labels = []
    jumps = 0
    here: Optional[int] = None  # offset to resume at after the first pointer
    while True:
        if offset >= len(wire):
            raise MalformedDns("name runs past the end")
        length = wire[offset]
        if length & 0xC0 == 0xC0:
            if offset + 1 >= len(wire):
                raise MalformedDns("truncated compression pointer")
            if here is None:
                here = offset + 2
            offset = ((length & 0x3F) << 8) | wire[offset + 1]
            jumps += 1
            if jumps > 64:
                raise MalformedDns("compression pointer loop")
            continue
        if length & 0xC0:
            raise MalformedDns(f"bad label length byte {length:#x}")
        offset += 1
        if length == 0:
            break
        if offset + length > len(wire):
            raise MalformedDns("label runs past the end")
        labels.append(wire[offset : offset + length].decode("ascii", "replace"))
        offset += length
    name = ".".join(labels).lower() + "."
    return name, here if here is not None else offset


class DnsAnswer(NamedTuple):
    """One answer record; address is filled for A/AAAA rdata."""

    name: str
    rdtype: int
    ttl: int
    rdata: bytes
    address: Optional[IPAddress] = None


class DnsMessage(NamedTuple):
    txid: int
    is_response: bool
    rcode: int
    qname: Optional[str]
    qtype: Optional[int]
    answers: Tuple[DnsAnswer, ...]

    @property
    def status(self) -> DnsStatus:
        return _RCODE_STATUS.get(self.rcode, DnsStatus.OTHER)


class DnsResponse(NamedTuple):
    """What one resolver said when asked one question."""

    resolver: Optional[IPAddress]
    qname: str
    qtype: int
    status: DnsStatus
    answers: Tuple[DnsAnswer, ...] = ()


def build_query(qname: str, qtype: int, txid: int) -> bytes:
    header = _HEADER.pack(txid, _FLAG_RD, 1, 0, 0, 0)
    return header + encode_name(qname) + struct.pack("!HH", qtype, CLASS_IN)


def _parse_rdata(rdtype: int, rdata: bytes) -> Optional[IPAddress]:
    if rdtype == TYPE_A and len(rdata) == 4:
        return ipaddress.IPv4Address(rdata)
    if rdtype == TYPE_AAAA and len(rdata) == 16:
        return ipaddress.IPv6Address(rdata)
    return None


def parse_message(wire: bytes) -> DnsMessage:
    if len(wire) < _HEADER.size:
        raise MalformedDns("message shorter than the header")
    txid, flags, qdcount, ancount, _, _ = _HEADER.unpack_from(wire, 0)
    offset = _HEADER.size
    qname: Optional[str] = None
    qtype: Optional[int] = None
    for i in range(qdcount):
        name, offset = _decode_name(wire, offset)
        if offset + 4 > len(wire):
            raise MalformedDns("truncated question section")
        rdtype, _ = struct.unpack_from("!HH", wire, offset)
        offset += 4
        if i == 0:
            qname, qtype = name, rdtype
    answers = []
    for _ in range(ancount):
        name, offset = _decode_name(wire, offset)
        if offset + 10 > len(wire):
            raise MalformedDns("truncated answer record")
        rdtype, _, ttl, rdlength = struct.unpack_from("!HHIH", wire, offset)
        offset += 10
        if offset + rdlength > len(wire):
            raise MalformedDns("answer rdata runs past the end")
        rdata = wire[offset : offset + rdlength]
        offset += rdlength
        answers.append(DnsAnswer(name, rdtype, ttl, rdata, _parse_rdata(rdtype, rdata)))
    return DnsMessage(
        txid=txid,
        is_response=bool(flags & _FLAG_QR),
        rcode=flags & 0xF,
        qname=qname,
        qtype=qtype,
        answers=tuple(answers),
    )
