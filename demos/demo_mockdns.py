"""Exercise the DNS drivers against local mock resolvers.

Starts one in-process UDP resolver per personality, sends the two real
detection queries at it with the production stub resolver, and shows how
each personality maps onto test verdicts. Everything stays on loopback.

Run:  python3 demos/demo_mockdns.py
"""

from nat64scope.acquire.dnswire import TYPE_AAAA
from nat64scope.acquire.live import dns_query
from nat64scope.detector import eval_dns_test1, eval_dns_test2
from nat64scope.simharness import Dns64Server

PERSONALITIES = (
    ("dns64", "full", "an ISP resolver that synthesizes AAAA for everything"),
    ("dns64", "arpa_only", "synthesis limited to the canary name"),
    ("plain", "full", "an ordinary resolver, no synthesis at all"),
    ("broken", "full", "answers the canary but operates no translator"),
)


def main() -> None:
    for mode, scope, blurb in PERSONALITIES:
        with Dns64Server(mode=mode, scope=scope) as server:
            r1 = dns_query("127.0.0.1", "ipv4only.arpa", TYPE_AAAA,
                           port=server.port, timeout_s=2.0)
            r2 = dns_query("127.0.0.1", "time-c-b.nist.gov", TYPE_AAAA,
                           port=server.port, timeout_s=2.0)
        run1 = eval_dns_test1("demo", 0, [r1])
        run2 = eval_dns_test2("demo", 0, [r2])
        print(f"{mode}/{scope}: {blurb}")
        print(f"  canary lookup   -> {run1.raw_outcome.value:4}"
              f"  (prefix seen: {run1.observed_prefix or 'none'})")
        print(f"  ipv4-only name  -> {run2.raw_outcome.value:4}"
              f"  ({sum(a.address is not None for a in r2.answers)} AAAA answers)")
        print()


if __name__ == "__main__":
    main()
