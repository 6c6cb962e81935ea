"""Fetch result pages from the public probe platform API, and define measurements.

Fetching streams each page's body to disk verbatim after checking it
parses, so a replayed capture is byte-identical. The definitions cover
the four detection tests plus paired traceroutes, ready to submit to
the platform.
"""

from __future__ import annotations

import ipaddress
import json
import os
import time
from typing import Callable, List, Optional, Sequence

import requests

from ..addrsynth import synthesize
from ..model import Nat64Prefix

ATLAS_API = "https://atlas.ripe.net/api/v2"
API_KEY_ENV = "NAT64SCOPE_ATLAS_KEY"

#: Extra attempts per page after the first, and the first wait between
#: attempts; each further wait doubles.
MAX_RETRIES = 3
BACKOFF_S = 0.5

#: Seconds one page request may take.
TIMEOUT_S = 30.0

#: Packets per ping and per traceroute hop, and the Paris traceroute variant.
PACKETS = 3
PARIS = 16


class AtlasError(RuntimeError):
    """The API kept failing after every retry."""


class AtlasNotFound(AtlasError):
    """The measurement does not exist or is not visible with this key."""


def atlas_fetch(
    measurement_id: int,
    out_path: str,
    *,
    base_url: str = ATLAS_API,
    session: Optional[requests.Session] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Stream all result pages for a measurement to ``out_path`` verbatim.

    Each page is validated as JSON before its raw bytes are appended, so a
    truncated transfer is retried (up to ``MAX_RETRIES`` extra attempts
    with doubling backoff) instead of corrupting the file. The API key, if
    any, comes from the ``NAT64SCOPE_ATLAS_KEY`` environment variable.
    Returns the number of result documents persisted.
    """
    key = os.environ.get(API_KEY_ENV)
    headers = {"Authorization": f"Key {key}"} if key else {}
    http = session if session is not None else requests.Session()
    url: Optional[str] = f"{base_url}/measurements/{measurement_id}/results/?format=json"
    count = 0
    with open(out_path, "wb") as sink:
        while url:
            body: Optional[bytes] = None
            parsed = None
            failure: Optional[str] = None
            for attempt in range(MAX_RETRIES + 1):
                try:
                    reply = http.get(url, headers=headers, timeout=TIMEOUT_S)
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
                if attempt < MAX_RETRIES:
                    sleep(BACKOFF_S * (2**attempt))
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


def measurement_definitions(
    *,
    dns2_name: str,
    ping_target_v4: ipaddress.IPv4Address,
    traceroute_targets: Sequence[ipaddress.IPv4Address],
    prefixes: Sequence[Nat64Prefix],
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
            "description": "nat64scope dns ipv4only.arpa",
        },
        {
            "type": "dns",
            "af": 6,
            "query_class": "IN",
            "query_type": "AAAA",
            "query_argument": dns2_name,
            "use_probe_resolver": True,
            "udp_payload_size": 512,
            "description": f"nat64scope dns {dns2_name.rstrip('.')}",
        },
    ]
    for prefix in prefixes:
        defs.append(
            {
                "type": "ping",
                "af": 6,
                "target": str(synthesize(prefix, ping_target_v4)),
                "packets": PACKETS,
                "description": f"nat64scope ping {prefix}",
            }
        )
    for target in traceroute_targets:
        defs.append(
            {
                "type": "traceroute",
                "af": 4,
                "target": str(target),
                "protocol": "UDP",
                "paris": PARIS,
                "packets": PACKETS,
                "description": f"nat64scope trace {target}",
            }
        )
        for prefix in prefixes:
            defs.append(
                {
                    "type": "traceroute",
                    "af": 6,
                    "target": str(synthesize(prefix, target)),
                    "protocol": "UDP",
                    "paris": PARIS,
                    "packets": PACKETS,
                    "description": f"nat64scope trace {target} via {prefix}",
                }
            )
    return defs
