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
from typing import Collection, List, Optional, Sequence, Tuple, Union

from ..addrsynth import synthesize
from ..detector import DNS1_NAME, eval_dns_test1, eval_dns_test2, eval_ping_test
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


def dns_query(
    resolver: Union[IPAddress, str],
    qname: str,
    qtype: int,
    *,
    timeout_s: float = 3.0,
    port: int = 53,
) -> DnsResponse:
    """One UDP exchange with one resolver; wire errors become statuses."""
    address = ipaddress.ip_address(resolver)
    txid = random.randrange(0, 0x10000)
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
                # A reply to another query, or to another question, is stray.
                asked = (message.txid, message.qname, message.qtype) == (txid, name, qtype)
                if not (asked and message.is_response):
                    continue  # keep waiting
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
) -> Tuple[Optional[float], ...]:
    """Send ``count`` echo requests, one after another: the RTT in
    milliseconds of each, in order, or ``None`` for one lost or not
    answered within ``timeout_s``."""
    ident = os.getpid() & 0xFFFF
    rtts: List[Optional[float]] = []
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
                # An echo reply (129) is ours when it repeats the request's
                # sequence number and timestamp: a raw socket sees every
                # process's replies, and a ping socket rewrites the identifier.
                if len(wire) >= 16 and wire[0] == 129 and wire[6:16] == packet[6:16]:
                    rtt = (time.monotonic() - sent) * 1000.0
            rtts.append(rtt)
    return tuple(rtts)


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

    Each of ``repeat`` rounds sends both DNS tests to every resolver
    through a thread pool of the executor's default size. Then the
    well-known prefix, and after it each operator prefix the DNS tests
    revealed, is echoed ``repeat`` times toward ``anchor`` embedded under
    it. An interrupt keeps the runs so far.
    """
    probe_id = "local"
    started = int(time.time())
    dataset = Dataset(capture_window=(started, started))
    dataset.probes[probe_id] = ProbeRecord(probe_id, None, None, resolvers=tuple(resolvers))

    try:
        # A round waits for all of its queries; the default pool size caps those in flight.
        with ThreadPoolExecutor() as pool:
            for _ in range(repeat):
                futures1 = [pool.submit(dns_query, r, DNS1_NAME, TYPE_AAAA) for r in resolvers]
                futures2 = [pool.submit(dns_query, r, dns2_name, TYPE_AAAA) for r in resolvers]
                responses1 = [f.result() for f in futures1]
                responses2 = [f.result() for f in futures2]
                now = int(time.time())
                dataset.runs.append(eval_dns_test1(probe_id, now, responses1))
                dataset.runs.append(eval_dns_test2(probe_id, now, responses2, dns2_answers))
        # Acquisition barrier: the prefixes to echo depend on every DNS
        # answer, and a passing DNS run names the prefix it revealed.
        passed = [run for run in dataset.runs if run.raw_outcome is RawOutcome.PASS]
        revealed = sorted({run.observed_prefix for run in passed} - {STANDARD_PREFIX}, key=str)
        for prefix in (STANDARD_PREFIX, *revealed):
            target = synthesize(prefix, anchor)
            for _ in range(repeat):
                now = int(time.time())
                try:
                    dataset.runs.append(eval_ping_test(probe_id, now, prefix, icmp_echo(target)))
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
