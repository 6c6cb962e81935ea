"""Live measurement from this host: DNS queries, ICMPv6 echo, and the loop
that runs the detection tests with them.

The drivers degrade cleanly when run without privileges or network:
errors surface as typed exceptions and never as partial records.
"""

from __future__ import annotations

import ipaddress
import os
import random
import select
import socket
import struct
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Collection, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..addrsynth import synthesize
from ..detector import (
    DNS1_NAME,
    eval_dns_test1,
    eval_dns_test2,
    eval_ping_test,
    select_custom_ping_candidates,
)
from ..model import IPAddress, ProbeRecord, RawOutcome, STANDARD_PREFIX, TestKind, TestRun
from .dataset import Dataset
from .dnswire import (
    TYPE_AAAA,
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


class EchoReply(NamedTuple):
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


def system_resolvers() -> Tuple[str, ...]:
    """The nameservers named in this host's ``/etc/resolv.conf``."""
    found: List[str] = []
    try:
        with open("/etc/resolv.conf", "r", encoding="ascii", errors="replace") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) >= 2 and parts[0] == "nameserver":
                    found.append(parts[1])
    except OSError:
        pass
    return tuple(found)


def measure(
    resolvers: Sequence[IPAddress],
    dns2_name: str,
    dns2_answers: Collection[ipaddress.IPv4Address],
    anchor: ipaddress.IPv4Address,
    repeat: int,
) -> Dataset:
    """Run the detection tests from this host as the one probe ``local``.

    Each of ``repeat`` rounds sends both DNS tests to every resolver at
    once. Then every candidate prefix is echoed ``repeat`` times toward
    ``anchor`` embedded under it. An interrupt keeps the runs so far.
    """
    probe_id = "local"
    started = int(time.time())
    dataset = Dataset(capture_window=(started, started))
    dataset.add_probe(ProbeRecord(probe_id, None, None, resolvers=resolvers))

    try:
        # A round waits for all of its queries, so they are its parallelism.
        with ThreadPoolExecutor(max_workers=2 * len(resolvers)) as pool:
            for _ in range(repeat):
                futures1 = [pool.submit(dns_query, r, DNS1_NAME, TYPE_AAAA) for r in resolvers]
                futures2 = [pool.submit(dns_query, r, dns2_name, TYPE_AAAA) for r in resolvers]
                responses1 = [f.result() for f in futures1]
                responses2 = [f.result() for f in futures2]
                now = int(time.time())
                dataset.runs.append(eval_dns_test1(probe_id, now, responses1))
                dataset.runs.append(eval_dns_test2(probe_id, now, responses2, dns2_answers))
        # Acquisition barrier: ping candidates depend on every DNS answer.
        # With one probe, every prefix its DNS tests revealed is its own.
        revealed = select_custom_ping_candidates(dataset.probes, dataset.runs)
        for prefix in (STANDARD_PREFIX, *revealed):
            target = synthesize(prefix, anchor)
            for _ in range(repeat):
                now = int(time.time())
                try:
                    rtts = [reply.rtt_ms for reply in icmp_echo(target)]
                    dataset.runs.append(eval_ping_test(probe_id, now, prefix, rtts))
                except NoRouteError as exc:
                    dataset.runs.append(
                        TestRun(
                            probe_id, TestKind.ping_for(prefix), now, RawOutcome.FAIL,
                            observed_prefix=prefix, diagnostic=f"no route: {exc}",
                        )
                    )
    except KeyboardInterrupt:
        print("interrupted; keeping partial results", file=sys.stderr)
    dataset.capture_window = (started, int(time.time()))
    return dataset
