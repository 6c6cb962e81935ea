"""A tiny in-process DNS64 for exercising the live query path.

The server binds a UDP socket on the loopback interface and answers from
a fixed zone, synthesizing AAAA records the way the planted resolver
personalities do: ``dns64`` synthesizes for every zone name, ``broken``
only for the well-known test name, ``plain`` never synthesizes.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional

from ..addrsynth import synthesize
from ..detector import DEFAULT_DNS2_KNOWN_A, DEFAULT_DNS2_NAME, DNS1_KNOWN_V4, DNS1_NAME
from ..model import Nat64Prefix, STANDARD_PREFIX
from ..acquire import dnswire

MODES = ("dns64", "plain", "broken")
SCOPES = ("full", "arpa_only")

#: The names the detection tests query by default, with their A records.
_ZONE = {DNS1_NAME: DNS1_KNOWN_V4, DEFAULT_DNS2_NAME: DEFAULT_DNS2_KNOWN_A}

_RCODE_NXDOMAIN = 3


class Dns64Server:
    """Context manager serving one resolver personality on 127.0.0.1."""

    def __init__(
        self,
        mode: str = "dns64",
        scope: str = "full",
        prefix: Nat64Prefix = STANDARD_PREFIX,
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {', '.join(MODES)}")
        if scope not in SCOPES:
            raise ValueError(f"scope must be one of {', '.join(SCOPES)}")
        self.mode = mode
        self.scope = scope
        self.prefix = prefix
        self._sock: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._running = False

    @property
    def port(self) -> int:
        assert self._sock is not None, "server is not running"
        return self._sock.getsockname()[1]

    def __enter__(self) -> "Dns64Server":
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(("127.0.0.1", 0))
        self._running = True
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._running = False
        # A self-addressed datagram unblocks the recv so the thread exits.
        poke = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            poke.sendto(b"", self._sock.getsockname())
        finally:
            poke.close()
        self._thread.join(timeout=2.0)
        self._sock.close()
        self._sock = None

    def _synthesizes_for(self, name: str) -> bool:
        if self.mode == "plain":
            return False
        if self.mode == "broken":
            return name == DNS1_NAME
        return self.scope == "full" or name == DNS1_NAME

    def _reply_for(self, wire: bytes) -> Optional[bytes]:
        try:
            message = dnswire.parse_message(wire)
        except dnswire.MalformedDns:
            return None
        if message.is_response or message.qname is None or message.qtype is None:
            return None
        name = message.qname
        if name not in _ZONE:
            return dnswire.build_response(
                message.txid, name, message.qtype, rcode=_RCODE_NXDOMAIN
            )
        answers = []
        if message.qtype == dnswire.TYPE_A:
            answers = [dnswire.answer_for(name, a) for a in _ZONE[name]]
        elif message.qtype == dnswire.TYPE_AAAA and self._synthesizes_for(name):
            answers = [
                dnswire.answer_for(name, synthesize(self.prefix, a))
                for a in _ZONE[name]
            ]
        return dnswire.build_response(message.txid, name, message.qtype, answers)

    def _serve(self) -> None:
        while self._running:
            try:
                wire, peer = self._sock.recvfrom(4096)
            except OSError:
                return
            if not self._running:
                return
            reply = self._reply_for(wire)
            if reply is not None:
                try:
                    self._sock.sendto(reply, peer)
                except OSError:
                    return
