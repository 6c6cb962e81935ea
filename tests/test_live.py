"""Live probing drivers, exercised against local mocks."""

import ipaddress

import pytest

from nat64scope.acquire.dnswire import DnsStatus, TYPE_AAAA, parse_message
from nat64scope.acquire.live import (
    ProbePermissionError,
    _open_icmp6_socket,
    dns_query,
    icmp_echo,
)
from nat64scope.addrsynth import synthesize
from nat64scope.model import Nat64Prefix

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
