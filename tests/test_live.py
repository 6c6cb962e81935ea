"""Live probing drivers, exercised against local mocks."""

import errno
import ipaddress
import socket
import struct
import time
import types
from concurrent.futures import Future

import pytest

from nat64scope.acquire import live
from nat64scope.acquire.dnswire import DnsResponse, DnsStatus, TYPE_A, TYPE_AAAA, parse_message
from nat64scope.acquire.live import (
    ProbePermissionError,
    _open_icmp6_socket,
    dns_query,
    icmp_echo,
)
from nat64scope.addrsynth import synthesize
from nat64scope.model import Nat64Prefix, RawOutcome

from loopback_dns import MockResolver, answer_for, build_response

PREFIX = Nat64Prefix.from_cidr("2001:db8:64::/96")


def synthesizing_behavior(wire):
    query = parse_message(wire)
    answer = answer_for(query.qname, synthesize(PREFIX, ipaddress.IPv4Address("192.0.0.170")))
    yield build_response(query.txid, query.qname, query.qtype, (answer,))


class TestDnsQuery:
    def test_synthesized_answer(self):
        with MockResolver(synthesizing_behavior) as server:
            response = dns_query(
                "127.0.0.1", "ipv4only.arpa", TYPE_AAAA,
                port=server.address[1], timeout_s=2.0,
            )
        assert response.status is DnsStatus.NOERROR
        assert response.qname == "ipv4only.arpa."
        assert [a.address for a in response.answers] == [
            synthesize(PREFIX, ipaddress.IPv4Address("192.0.0.170"))
        ]

    def test_servfail(self):
        def behavior(wire):
            query = parse_message(wire)
            yield build_response(query.txid, query.qname, query.qtype, (), rcode=2)

        with MockResolver(behavior) as server:
            response = dns_query(
                "127.0.0.1", "example.net", TYPE_AAAA,
                port=server.address[1], timeout_s=2.0,
            )
        assert response.status is DnsStatus.SERVFAIL
        assert response.answers == ()

    def test_stray_txid_is_ignored(self):
        def behavior(wire):
            query = parse_message(wire)
            wrong = (query.txid + 1) & 0xFFFF
            yield build_response(wrong, query.qname, query.qtype, ())
            answer = answer_for(query.qname, ipaddress.ip_address("2001:db8::1"))
            yield build_response(query.txid, query.qname, query.qtype, (answer,))

        with MockResolver(behavior) as server:
            response = dns_query(
                "127.0.0.1", "example.net", TYPE_AAAA,
                port=server.address[1], timeout_s=2.0,
            )
        assert response.status is DnsStatus.NOERROR
        assert len(response.answers) == 1

    @pytest.mark.parametrize(
        "name, qtype", [("other.example", TYPE_AAAA), ("example.net", TYPE_A)]
    )
    @pytest.mark.parametrize("then_right", [False, True])
    def test_reply_to_another_question_is_ignored(self, name, qtype, then_right):
        right = answer_for("example.net", ipaddress.ip_address("2001:db8::1"))

        def behavior(wire):
            query = parse_message(wire)
            wrong = answer_for(name, ipaddress.ip_address("2001:db8::bad"))
            yield build_response(query.txid, name, qtype, (wrong,))
            if then_right:
                yield build_response(query.txid, query.qname, query.qtype, (right,))

        with MockResolver(behavior) as server:
            response = dns_query(
                "127.0.0.1", "Example.NET", TYPE_AAAA,
                port=server.address[1], timeout_s=2.0 if then_right else 0.2,
            )
        if then_right:
            assert response.status is DnsStatus.NOERROR
            assert response.answers == (right,)
        else:
            assert response.status is DnsStatus.TIMEOUT
            assert response.answers == ()

    def test_malformed_reply(self):
        def behavior(wire):
            yield b"\x00\x4d\x80"  # a header cut short

        with MockResolver(behavior) as server:
            response = dns_query(
                "127.0.0.1", "example.net", TYPE_AAAA,
                port=server.address[1], timeout_s=2.0,
            )
        assert response.status is DnsStatus.MALFORMED

    def test_timeout(self):
        def behavior(wire):
            return ()

        with MockResolver(behavior) as server:
            response = dns_query(
                "127.0.0.1", "example.net", TYPE_AAAA,
                port=server.address[1], timeout_s=0.2,
            )
        assert response.status is DnsStatus.TIMEOUT
        assert response.answers == ()

    def test_datagram_from_another_sender_is_not_read(self):
        # A malformed datagram from another loopback socket reaches the
        # querier's port before the resolver's right answer.
        right = answer_for("example.net", ipaddress.ip_address("2001:db8::1"))

        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as stray:
            def behavior(wire):
                query = parse_message(wire)
                stray.sendto(b"\x00\x01\x80", server.peer)
                yield build_response(query.txid, query.qname, query.qtype, (right,))

            with MockResolver(behavior) as server:
                response = dns_query(
                    "127.0.0.1", "example.net", TYPE_AAAA,
                    port=server.address[1], timeout_s=2.0,
                )
        assert response.status is DnsStatus.NOERROR
        assert response.answers == (right,)

    def test_closed_port_is_a_timeout_at_once(self):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        started = time.monotonic()
        response = dns_query("127.0.0.1", "example.net", TYPE_AAAA, port=port, timeout_s=5.0)
        assert response.status is DnsStatus.TIMEOUT
        assert response.answers == ()
        assert time.monotonic() - started < 1.0


class NoRouteSocket:
    """A UDP socket that sends nothing: connecting, or sending, fails as
    it does on a host with no route toward the address."""

    def __init__(self, fails_at, code):
        self.fails_at = fails_at
        self.code = code

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def settimeout(self, timeout):
        pass

    def _step(self, name):
        if name == self.fails_at:
            raise OSError(self.code, "no route")

    def connect(self, address):
        self._step("connect")

    def send(self, data):
        self._step("send")

    def sendto(self, data, address):  # an unconnected socket's send
        self._step("connect")
        self._step("send")

    def recv(self, size):
        raise AssertionError("nothing was sent, so nothing is read")


def no_route_sockets(monkeypatch, fails_at="connect", code=errno.ENETUNREACH):
    """Make every socket ``live`` opens a ``NoRouteSocket``."""
    monkeypatch.setattr(live, "socket", types.SimpleNamespace(
        AF_INET=socket.AF_INET, AF_INET6=socket.AF_INET6, SOCK_DGRAM=socket.SOCK_DGRAM,
        timeout=socket.timeout, socket=lambda *_: NoRouteSocket(fails_at, code),
    ))


class InlineExecutor:
    """Runs each task when it is submitted, in the calling thread."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestNoRoute:
    @pytest.mark.parametrize("fails_at", ["connect", "send"])
    @pytest.mark.parametrize("code", [errno.ENETUNREACH, errno.EHOSTUNREACH])
    def test_a_resolver_with_no_route_is_a_failed_lookup(self, monkeypatch, fails_at, code):
        no_route_sockets(monkeypatch, fails_at, code)
        response = dns_query("2001:db8::53", "example.net", TYPE_AAAA)
        assert response.status is DnsStatus.OTHER
        assert response.answers == ()

    def test_measure_records_it_as_a_failed_dns_test(self, monkeypatch):
        no_route_sockets(monkeypatch)
        monkeypatch.setattr(live, "ThreadPoolExecutor", InlineExecutor)
        monkeypatch.setattr(live, "icmp_echo", lambda target, **_: (None,))
        resolver = ipaddress.IPv6Address("2001:db8::53")
        dataset = live.measure(
            [resolver], "time-c-b.nist.gov.", (), ipaddress.IPv4Address("192.0.0.170"), 1
        )
        dns_runs = [run for run in dataset.runs if run.test_kind.is_dns]
        assert [run.raw_outcome for run in dns_runs] == [RawOutcome.FAIL] * 2
        assert [run.diagnostic for run in dns_runs] == [f"{resolver}: other"] * 2


class TestIcmpEcho:
    def test_loopback_echo_if_permitted(self):
        try:
            sock = _open_icmp6_socket()
        except (ProbePermissionError, OSError):
            pytest.skip("no ICMPv6 socket in this environment")
        sock.close()
        rtts = icmp_echo(ipaddress.IPv6Address("::1"), count=2, timeout_s=1.0)
        assert len(rtts) == 2
        assert all(rtt is None or 0.0 <= rtt for rtt in rtts)


class FakeIcmpSocket:
    """An ICMPv6 socket that sends nothing: each request queues the replies
    ``replies_to`` makes of it, and ``select`` sees whether any wait."""

    def __init__(self, replies_to):
        self.replies_to = replies_to
        self.queued = []
        self.sent = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def sendto(self, packet, address):
        self.sent.append(packet)
        self.queued.extend(self.replies_to(packet))

    def recvfrom(self, size):
        return self.queued.pop(0), ("::1", 0)


def echo_reply(packet, ident=None, data=None):
    """The echo reply to ``packet``, with its identifier or its data changed."""
    reply = bytearray(packet)
    reply[0] = 129
    if ident is not None:
        reply[4:6] = struct.pack("!H", ident)
    if data is not None:
        reply[8:16] = data
    return bytes(reply)


class TestIcmpEchoMatching:
    def echo(self, monkeypatch, replies_to):
        sock = FakeIcmpSocket(replies_to)
        monkeypatch.setattr(live, "_open_icmp6_socket", lambda: sock)
        monkeypatch.setattr(live, "select", types.SimpleNamespace(
            select=lambda readable, *_: (readable if sock.queued else [], [], []),
        ))
        return icmp_echo(ipaddress.IPv6Address("2001:db8::1"), count=2, timeout_s=1.0), sock

    def test_foreign_reply_with_the_same_sequence_is_not_counted(self, monkeypatch):
        # Another process's ping, seen on a raw socket: same sequence number,
        # its own identifier and timestamp.
        def foreign(packet):
            return [echo_reply(packet, ident=0xBEEF, data=b"\x00" * 8)]

        rtts, sock = self.echo(monkeypatch, foreign)
        assert rtts == (None, None)
        assert len(sock.sent) == 2

    def test_own_reply_counts_after_a_foreign_one(self, monkeypatch):
        # First a reply with this probe's identifier and sequence number but
        # other data; then the own reply, its identifier rewritten as a ping
        # socket may do, its sequence number and timestamp unchanged.
        def foreign_then_own(packet):
            return [echo_reply(packet, data=b"\x00" * 8), echo_reply(packet, ident=0x1234)]

        rtts, sock = self.echo(monkeypatch, foreign_then_own)
        assert all(rtt is not None and rtt >= 0.0 for rtt in rtts)
        assert sock.queued == [] and len(sock.sent) == 2


class TestMeasureThreads:
    def test_a_round_uses_the_executors_default_pool_size(self, monkeypatch):
        made = []

        class RecordingExecutor(InlineExecutor):
            def __init__(self, *args, **kwargs):
                made.append((args, kwargs))

        queried = []

        def fake_dns_query(resolver, qname, qtype, **_):
            queried.append(resolver)
            return DnsResponse(resolver, qname, qtype, DnsStatus.NXDOMAIN)

        monkeypatch.setattr(live, "ThreadPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(live, "dns_query", fake_dns_query)
        monkeypatch.setattr(live, "icmp_echo", lambda target, **_: (None,))
        resolvers = [ipaddress.IPv6Address(f"2001:db8::{i:x}") for i in range(1, 1001)]
        dataset = live.measure(
            resolvers, "time-c-b.nist.gov.", (), ipaddress.IPv4Address("192.0.0.170"), 1
        )
        assert made == [((), {})]
        assert len(queried) == 2000
        assert len(dataset.runs) == 3  # both DNS tests and one echo
