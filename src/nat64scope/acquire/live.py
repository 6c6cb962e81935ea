"""Live measurement drivers: DNS queries and ICMPv6 echo.

Everything here degrades cleanly when run without privileges or network:
errors surface as typed exceptions and never as partial records.
"""

from __future__ import annotations

import ipaddress
import os
import random
import select
import socket
import struct
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..model import IPAddress
from .dnswire import (
    DnsResponse,
    DnsStatus,
    MalformedDns,
    build_query,
    canonical_name,
    parse_message,
)


class ProbePermissionError(PermissionError):
    """The platform refused the socket type this measurement needs."""


class NoRouteError(OSError):
    """No route toward the target: the address family likely has no uplink."""


@dataclass(frozen=True, slots=True)
class EchoReply:
    """One echo attempt; rtt_ms is None when no reply arrived in time."""

    seq: int
    rtt_ms: Optional[float]


def dns_query(
    resolver: Union[IPAddress, str],
    qname: str,
    qtype: int,
    *,
    timeout_s: float = 3.0,
    port: int = 53,
    txid: Optional[int] = None,
    rng: random.Random = random,
) -> DnsResponse:
    """One UDP exchange with one resolver; wire errors become statuses."""
    address = ipaddress.ip_address(resolver)
    if txid is None:
        txid = rng.randrange(0, 0x10000)
    family = socket.AF_INET if address.version == 4 else socket.AF_INET6
    query = build_query(qname, qtype, txid)
    name = canonical_name(qname)
    with socket.socket(family, socket.SOCK_DGRAM) as sock:
        sock.settimeout(timeout_s)
        try:
            sock.sendto(query, (str(address), port))
            deadline = time.monotonic() + timeout_s
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return DnsResponse(address, name, qtype, DnsStatus.TIMEOUT)
                sock.settimeout(remaining)
                wire, _ = sock.recvfrom(4096)
                try:
                    message = parse_message(wire)
                except MalformedDns:
                    return DnsResponse(address, name, qtype, DnsStatus.MALFORMED)
                if message.txid != txid or not message.is_response:
                    continue  # stray datagram, keep waiting
                return DnsResponse(address, name, qtype, message.status, message.answers)
        except socket.timeout:
            return DnsResponse(address, name, qtype, DnsStatus.TIMEOUT)
        except OSError as exc:
            if exc.errno in (101, 113):  # ENETUNREACH, EHOSTUNREACH
                raise NoRouteError(str(exc)) from exc
            raise


def _open_icmp6_socket() -> socket.socket:
    try:
        return socket.socket(socket.AF_INET6, socket.SOCK_DGRAM, socket.IPPROTO_ICMPV6)
    except PermissionError:
        pass
    try:
        return socket.socket(socket.AF_INET6, socket.SOCK_RAW, socket.IPPROTO_ICMPV6)
    except PermissionError as exc:
        raise ProbePermissionError(
            "need an ICMPv6 socket; enable ping sockets or run privileged"
        ) from exc


def icmp_echo(
    target: ipaddress.IPv6Address,
    *,
    count: int = 3,
    timeout_s: float = 1.0,
) -> Tuple[EchoReply, ...]:
    """Send ``count`` echo requests; always returns one entry per request."""
    ident = os.getpid() & 0xFFFF
    replies: List[EchoReply] = []
    with _open_icmp6_socket() as sock:
        for seq in range(count):
            payload = struct.pack("!HHd", ident, seq, time.monotonic())
            packet = struct.pack("!BBH", 128, 0, 0) + payload  # echo request
            sent = time.monotonic()
            try:
                sock.sendto(packet, (str(target), 0))
            except OSError as exc:
                if exc.errno in (101, 113):
                    raise NoRouteError(str(exc)) from exc
                raise
            deadline = sent + timeout_s
            rtt: Optional[float] = None
            while rtt is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                ready, _, _ = select.select([sock], [], [], remaining)
                if not ready:
                    break
                wire, _ = sock.recvfrom(2048)
                if len(wire) < 8 or wire[0] != 129:  # echo reply
                    continue
                r_ident, r_seq = struct.unpack_from("!HH", wire, 4)
                if r_seq == seq:
                    rtt = (time.monotonic() - sent) * 1000.0
            replies.append(EchoReply(seq, rtt))
    return tuple(replies)
