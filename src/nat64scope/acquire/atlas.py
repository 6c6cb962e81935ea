"""Fetch and parse measurement results from the public probe platform API.

Fetching streams each page's body to disk verbatim after checking it
parses, so a replayed capture is byte-identical. Parsing maps the three
supported result kinds (dns, ping, traceroute) onto model records; the
mapping is lossless for the canonical field subset this toolkit emits,
and ``unparse_atlas`` reproduces exactly those documents.
"""

from __future__ import annotations

import base64
import ipaddress
import json
import os
import time
from dataclasses import dataclass
from typing import (
    Callable,
    Collection,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import requests

from ..addrsynth import extract_ipv4, matches_prefix, synthesize
from ..model import Hop, Nat64Prefix, PathFamily, TestKind, TestRun, TraceroutePath
from ..model import RawOutcome
from .dnswire import DnsResponse, DnsStatus, MalformedDns, parse_message

IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]

ATLAS_API = "https://atlas.ripe.net/api/v2"
API_KEY_ENV = "NAT64SCOPE_ATLAS_KEY"


class AtlasError(RuntimeError):
    """The API kept failing after every retry."""


class AtlasNotFound(AtlasError):
    """The measurement does not exist or is not visible with this key."""


class SchemaViolation(ValueError):
    """The result document does not have the shape its kind promises."""


def atlas_fetch(
    measurement_id: int,
    out_path: str,
    *,
    api_key: Optional[str] = None,
    base_url: str = ATLAS_API,
    session: Optional[requests.Session] = None,
    max_retries: int = 3,
    backoff_s: float = 0.5,
    timeout_s: float = 30.0,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Stream all result pages for a measurement to ``out_path`` verbatim.

    Each page is validated as JSON before its raw bytes are appended, so a
    truncated transfer is retried (up to ``max_retries`` extra attempts
    with doubling backoff) instead of corrupting the file. Returns the
    number of result documents persisted.
    """
    key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
    headers = {"Authorization": f"Key {key}"} if key else {}
    http = session if session is not None else requests.Session()
    url: Optional[str] = f"{base_url}/measurements/{measurement_id}/results/?format=json"
    count = 0
    with open(out_path, "wb") as sink:
        while url:
            body: Optional[bytes] = None
            parsed = None
            failure: Optional[str] = None
            for attempt in range(max_retries + 1):
                try:
                    reply = http.get(url, headers=headers, timeout=timeout_s)
                except requests.RequestException as exc:
                    failure = f"transport: {exc}"
                else:
                    if reply.status_code == 404:
                        raise AtlasNotFound(f"measurement {measurement_id} not found")
                    if reply.status_code >= 400:
                        failure = f"HTTP {reply.status_code}"
                    else:
                        try:
                            parsed = json.loads(reply.content)
                        except json.JSONDecodeError as exc:
                            failure = f"bad JSON: {exc}"
                        else:
                            body = reply.content
                            break
                if attempt < max_retries:
                    sleep(backoff_s * (2**attempt))
            if body is None:
                raise AtlasError(f"giving up on {url}: {failure}")
            sink.write(body)
            if not body.endswith(b"\n"):
                sink.write(b"\n")
            if isinstance(parsed, list):
                count += len(parsed)
                url = None
            elif isinstance(parsed, dict) and "results" in parsed:
                count += len(parsed["results"])
                url = parsed.get("next")
            else:
                count += 1
                url = None
    return count


def iter_result_documents(path: str) -> Iterator[dict]:
    """Yield result documents from any mix of arrays and line-delimited JSON."""
    decoder = json.JSONDecoder()
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    offset = 0
    length = len(text)
    while offset < length:
        while offset < length and text[offset] in " \t\r\n":
            offset += 1
        if offset >= length:
            break
        doc, offset = decoder.raw_decode(text, offset)
        if isinstance(doc, list):
            for item in doc:
                yield item
        elif isinstance(doc, dict) and "results" in doc and "next" in doc:
            for item in doc["results"]:
                yield item
        else:
            yield doc


@dataclass(frozen=True, slots=True)
class DnsObservation:
    """One resolver's reply within a dns result document."""

    probe_id: str
    timestamp: int
    abuf_b64: Optional[str]
    response: DnsResponse


@dataclass(frozen=True, slots=True)
class PingObservation:
    """One ping result: individual RTTs kept for lossless round-trips."""

    probe_id: str
    timestamp: int
    target: IPAddress
    prefix: Optional[Nat64Prefix]
    rtts_ms: Tuple[float, ...]
    sent: int

    def to_test_run(self) -> TestRun:
        if self.prefix is None:
            raise SchemaViolation("ping without a translation prefix has no test kind")
        kind = TestKind.ping_for(self.prefix)
        if self.rtts_ms:
            return TestRun(
                self.probe_id, kind, self.timestamp, RawOutcome.PASS,
                observed_prefix=self.prefix,
            )
        return TestRun(
            self.probe_id, kind, self.timestamp, RawOutcome.FAIL,
            observed_prefix=self.prefix,
            diagnostic=f"0 of {self.sent} replies",
        )


ParsedAtlas = Union[TraceroutePath, PingObservation, Tuple[DnsObservation, ...]]


def _match_prefix(
    address: ipaddress.IPv6Address, prefixes: Collection[Nat64Prefix]
) -> Optional[Nat64Prefix]:
    best = None
    for prefix in prefixes:
        if matches_prefix(address, prefix):
            if best is None or prefix.length > best.length:
                best = prefix
    return best


def _parse_traceroute(
    doc: dict, prefixes: Collection[Nat64Prefix], round_index: int
) -> TraceroutePath:
    try:
        probe_id = str(doc["prb_id"])
        dst = ipaddress.ip_address(doc["dst_addr"])
        raw_hops = doc["result"]
    except (KeyError, ValueError) as exc:
        raise SchemaViolation(f"traceroute document: {exc}") from exc

    if dst.version == 6:
        prefix = _match_prefix(dst, prefixes)
        if prefix is None:
            raise SchemaViolation(f"IPv6 target {dst} matches no known translation prefix")
        family = PathFamily.NAT64
        target_v4 = extract_ipv4(dst, prefix)
    else:
        family, prefix, target_v4 = PathFamily.IPV4, None, dst

    by_index: Dict[int, Tuple[Optional[IPAddress], List[float]]] = {}
    highest = 0
    for entry in raw_hops:
        index = entry.get("hop")
        if not isinstance(index, int) or index < 1:
            raise SchemaViolation(f"traceroute hop entry without a hop number: {entry}")
        highest = max(highest, index)
        address, rtts = by_index.get(index, (None, []))
        for packet in entry.get("result", ()):
            if "from" in packet and address is None:
                try:
                    address = ipaddress.ip_address(packet["from"])
                except ValueError as exc:
                    raise SchemaViolation(f"hop {index}: {exc}") from exc
            if isinstance(packet.get("rtt"), (int, float)):
                rtts.append(float(packet["rtt"]))
        by_index[index] = (address, rtts)

    hops = []
    for index in range(1, highest + 1):
        address, rtts = by_index.get(index, (None, []))
        hops.append(Hop(index, address, tuple(rtts) if address is not None else ()))
    return TraceroutePath(
        probe_id=probe_id,
        family=family,
        prefix=prefix,
        target_v4=target_v4,
        round_index=round_index,
        hops=tuple(hops),
    )


def _parse_ping(doc: dict, prefixes: Collection[Nat64Prefix]) -> PingObservation:
    try:
        probe_id = str(doc["prb_id"])
        timestamp = int(doc["timestamp"])
        dst = ipaddress.ip_address(doc["dst_addr"])
        entries = doc["result"]
    except (KeyError, ValueError) as exc:
        raise SchemaViolation(f"ping document: {exc}") from exc
    prefix = _match_prefix(dst, prefixes) if dst.version == 6 else None
    rtts = tuple(
        float(e["rtt"]) for e in entries if isinstance(e.get("rtt"), (int, float))
    )
    return PingObservation(
        probe_id=probe_id,
        timestamp=timestamp,
        target=dst,
        prefix=prefix,
        rtts_ms=rtts,
        sent=len(entries),
    )


def _decode_abuf(abuf_b64: str, resolver: Optional[IPAddress]) -> DnsResponse:
    try:
        message = parse_message(base64.b64decode(abuf_b64))
    except (MalformedDns, ValueError):
        return DnsResponse(resolver, "", 0, DnsStatus.MALFORMED)
    return DnsResponse(
        resolver, message.qname or "", message.qtype or 0, message.status, message.answers
    )


def _parse_dns(doc: dict, default_qname: str) -> Tuple[DnsObservation, ...]:
    try:
        probe_id = str(doc["prb_id"])
        timestamp = int(doc["timestamp"])
    except (KeyError, ValueError) as exc:
        raise SchemaViolation(f"dns document: {exc}") from exc

    if "resultset" in doc:
        entries = doc["resultset"]
    else:
        entries = [doc]

    observations = []
    for entry in entries:
        resolver = None
        if entry.get("dst_addr"):
            resolver = ipaddress.ip_address(entry["dst_addr"])
        when = int(entry.get("time", timestamp))
        result = entry.get("result")
        if isinstance(result, dict) and "abuf" in result:
            abuf = result["abuf"]
            response = _decode_abuf(abuf, resolver)
        else:
            # No answer buffer: a timeout or transport error entry.
            abuf = None
            response = DnsResponse(resolver, default_qname, 0, DnsStatus.TIMEOUT)
        observations.append(DnsObservation(probe_id, when, abuf, response))
    return tuple(observations)


def parse_atlas(
    doc: dict,
    kind: Optional[str] = None,
    *,
    prefixes: Collection[Nat64Prefix] = (),
    round_index: int = 0,
    default_qname: str = "",
) -> ParsedAtlas:
    """Parse one result document of kind dns, ping, or traceroute."""
    kind = kind or doc.get("type")
    if kind == "traceroute":
        return _parse_traceroute(doc, prefixes, round_index)
    if kind == "ping":
        return _parse_ping(doc, prefixes)
    if kind == "dns":
        return _parse_dns(doc, default_qname)
    raise SchemaViolation(f"unsupported result kind {kind!r}")


def _int_probe(probe_id: str) -> Union[int, str]:
    return int(probe_id) if probe_id.isdigit() else probe_id


def unparse_atlas(parsed: ParsedAtlas, timestamp: Optional[int] = None) -> dict:
    """Rebuild the canonical result document for a parsed object."""
    if isinstance(parsed, TraceroutePath):
        return {
            "af": 4 if parsed.family is PathFamily.IPV4 else 6,
            "dst_addr": str(_traceroute_dst(parsed)),
            "prb_id": _int_probe(parsed.probe_id),
            "result": [
                {
                    "hop": hop.index,
                    "result": (
                        [{"from": str(hop.address), "rtt": rtt} for rtt in hop.rtts_ms]
                        if hop.address is not None
                        else [{"x": "*"}, {"x": "*"}, {"x": "*"}]
                    ),
                }
                for hop in parsed.hops
            ],
            "timestamp": timestamp if timestamp is not None else 0,
            "type": "traceroute",
        }
    if isinstance(parsed, PingObservation):
        return {
            "af": parsed.target.version,
            "dst_addr": str(parsed.target),
            "prb_id": _int_probe(parsed.probe_id),
            "result": [{"rtt": rtt} for rtt in parsed.rtts_ms]
            + [{"x": "*"}] * (parsed.sent - len(parsed.rtts_ms)),
            "timestamp": parsed.timestamp,
            "type": "ping",
        }
    if isinstance(parsed, tuple):
        if not parsed:
            raise SchemaViolation("cannot rebuild a dns document from zero observations")
        first = parsed[0]
        return {
            "prb_id": _int_probe(first.probe_id),
            "resultset": [
                {
                    "dst_addr": str(obs.response.resolver) if obs.response.resolver else None,
                    "result": (
                        {"ANCOUNT": len(obs.response.answers), "abuf": obs.abuf_b64}
                        if obs.abuf_b64 is not None
                        else None
                    ),
                    "time": obs.timestamp,
                }
                for obs in parsed
            ],
            "timestamp": timestamp if timestamp is not None else first.timestamp,
            "type": "dns",
        }
    raise SchemaViolation(f"cannot rebuild {type(parsed).__name__}")


def _traceroute_dst(path: TraceroutePath) -> IPAddress:
    if path.family is PathFamily.IPV4:
        return path.target_v4
    return synthesize(path.prefix, path.target_v4)


def measurement_definitions(
    *,
    dns2_name: str,
    ping_target_v4: ipaddress.IPv4Address,
    traceroute_targets: Sequence[ipaddress.IPv4Address],
    prefixes: Sequence[Nat64Prefix],
    packets: int = 3,
    paris: int = 16,
    description: str = "nat64scope",
) -> List[dict]:
    """Measurement definitions covering all four tests plus path tracing.

    DNS lookups use each probe's own resolvers; echo and traceroute
    definitions are emitted per prefix (and per target for traceroutes),
    with UDP paris probing and three packets per hop.
    """
    defs: List[dict] = [
        {
            "type": "dns",
            "af": 6,
            "query_class": "IN",
            "query_type": "AAAA",
            "query_argument": "ipv4only.arpa.",
            "use_probe_resolver": True,
            "udp_payload_size": 512,
            "description": f"{description} dns ipv4only.arpa",
        },
        {
            "type": "dns",
            "af": 6,
            "query_class": "IN",
            "query_type": "AAAA",
            "query_argument": dns2_name,
            "use_probe_resolver": True,
            "udp_payload_size": 512,
            "description": f"{description} dns {dns2_name.rstrip('.')}",
        },
    ]
    for prefix in prefixes:
        defs.append(
            {
                "type": "ping",
                "af": 6,
                "target": str(synthesize(prefix, ping_target_v4)),
                "packets": packets,
                "description": f"{description} ping {prefix}",
            }
        )
    for target in traceroute_targets:
        defs.append(
            {
                "type": "traceroute",
                "af": 4,
                "target": str(target),
                "protocol": "UDP",
                "paris": paris,
                "packets": packets,
                "description": f"{description} trace {target}",
            }
        )
        for prefix in prefixes:
            defs.append(
                {
                    "type": "traceroute",
                    "af": 6,
                    "target": str(synthesize(prefix, target)),
                    "protocol": "UDP",
                    "paris": paris,
                    "packets": packets,
                    "description": f"{description} trace {target} via {prefix}",
                }
            )
    return defs
