"""One loopback DNS resolver for the tests, and the reply encoder it uses.

The package only asks questions (``acquire.dnswire.build_query``) and
reads answers; the encoder here builds the other side. ``MockResolver``
binds a UDP socket on 127.0.0.1 and answers each query through a
behavior: a function from the query's wire bytes to the replies to send.
While a behavior runs, ``MockResolver.peer`` is the address that sent the
query. A test scripts its own behavior, or takes a resolver personality
from ``personality``: ``dns64`` synthesizes AAAA records for every zone
name (or, at scope ``arpa_only``, only for the well-known name),
``broken`` only for the well-known name, and ``plain`` never.
"""

from __future__ import annotations

import ipaddress
import socket
import struct
import threading

from nat64scope.acquire.dnswire import (
    CLASS_IN,
    TYPE_A,
    TYPE_AAAA,
    DnsAnswer,
    MalformedDns,
    canonical_name,
    encode_name,
    parse_message,
)
from nat64scope.addrsynth import synthesize
from nat64scope.detector import DEFAULT_DNS2_KNOWN_A, DEFAULT_DNS2_NAME, DNS1_KNOWN_V4, DNS1_NAME
from nat64scope.model import STANDARD_PREFIX

_HEADER = struct.Struct("!HHHHHH")
# QR, RD and RA: a recursive resolver's response.
_RESPONSE_FLAGS = 0x8000 | 0x0100 | 0x0080

#: The names the detection tests query by default, with their A records.
ZONE = {DNS1_NAME: DNS1_KNOWN_V4, DEFAULT_DNS2_NAME: DEFAULT_DNS2_KNOWN_A}

RCODE_NXDOMAIN = 3


def build_response(txid, qname, qtype, answers=(), rcode=0):
    """A response to one question; names are written without compression."""
    out = bytearray(_HEADER.pack(txid, _RESPONSE_FLAGS | (rcode & 0xF), 1, len(answers), 0, 0))
    out += encode_name(qname) + struct.pack("!HH", qtype, CLASS_IN)
    for answer in answers:
        out += encode_name(answer.name)
        out += struct.pack("!HHIH", answer.rdtype, CLASS_IN, answer.ttl, len(answer.rdata))
        out += answer.rdata
    return bytes(out)


def answer_for(name, address):
    """An A or AAAA answer record for an address, with a 300 s TTL."""
    rdtype = TYPE_A if isinstance(address, ipaddress.IPv4Address) else TYPE_AAAA
    return DnsAnswer(canonical_name(name), rdtype, 300, address.packed, address)


def personality(mode="dns64", scope="full", prefix=STANDARD_PREFIX):
    """The behavior of a resolver that answers from ``ZONE``.

    ``mode`` is ``dns64``, ``plain`` or ``broken`` and ``scope`` is
    ``full`` or ``arpa_only``, as described in the module docstring. A
    name outside the zone is NXDOMAIN; A queries always get the zone's
    records. A malformed message or a response gets no reply.
    """

    def synthesizes_for(name):
        if mode == "plain":
            return False
        if mode == "broken":
            return name == DNS1_NAME
        return scope == "full" or name == DNS1_NAME

    def behavior(wire):
        try:
            query = parse_message(wire)
        except MalformedDns:
            return
        if query.is_response or query.qname is None:
            return
        name, qtype = query.qname, query.qtype
        if name not in ZONE:
            yield build_response(query.txid, name, qtype, rcode=RCODE_NXDOMAIN)
            return
        answers = []
        if qtype == TYPE_A:
            answers = [answer_for(name, a) for a in ZONE[name]]
        elif qtype == TYPE_AAAA and synthesizes_for(name):
            answers = [answer_for(name, synthesize(prefix, a)) for a in ZONE[name]]
        yield build_response(query.txid, name, qtype, answers)

    return behavior


class MockResolver:
    """A one-thread UDP DNS64 that answers from a scripted behavior."""

    def __init__(self, behavior):
        self.behavior = behavior
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(5.0)
        self.address = self.sock.getsockname()
        self.peer = None
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self._stop = threading.Event()

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        # Unblock the recv with a spare datagram.
        poke = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        poke.sendto(b"", self.address)
        poke.close()
        self.thread.join(timeout=5.0)
        self.sock.close()

    def _serve(self):
        while not self._stop.is_set():
            try:
                wire, peer = self.sock.recvfrom(4096)
            except socket.timeout:
                return
            if self._stop.is_set() or not wire:
                return
            self.peer = peer
            for reply in self.behavior(wire):
                self.sock.sendto(reply, peer)
