"""Define the measurements the paper ran on the public probe platform.

The definitions cover the four detection tests plus paired traceroutes,
ready to submit to the platform.
"""

from __future__ import annotations

import ipaddress
from typing import List, Sequence

from ..addrsynth import synthesize
from ..model import Nat64Prefix

#: Packets per ping and per traceroute hop, and the Paris traceroute variant.
PACKETS = 3
PARIS = 16


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
