"""Walk through the path comparison on a simulated probe population.

Pairs native IPv4 traceroutes with their translated twins, filters the
pairs that cannot be compared fairly, and prints the headline numbers in
both percentage conventions, cross-checked against the independent
statistics oracle. Exits 1 when the oracle disagrees.

Run:  python3 demos/demo_paths.py [seed]
"""

import sys

from nat64scope.pathlab import (
    aggregate_report,
    compute_metrics,
    filter_pairs,
    missing_hop_histogram,
    pair_paths,
)
from nat64scope.simharness import (
    ACCEPTANCE_TEMPLATE,
    compare,
    generate,
    oracle_stats,
    parse_scenario,
)


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 42
    sim = generate(parse_scenario(ACCEPTANCE_TEMPLATE), seed)
    pairs, unpaired = pair_paths(sim.dataset.paths)
    kept, excluded = filter_pairs(pairs)

    print(f"seed {seed}: {len(sim.dataset.paths)} traceroutes -> "
          f"{len(pairs)} pairs ({sum(unpaired.values())} unpaired)")
    print(f"kept {len(kept)}, excluded {excluded or 'nothing'}")
    print(f"(the simulation planted exactly {sim.truth['opaque_pair_count']} "
          f"translator-hiding pairs)")
    print()

    metrics = compute_metrics(kept)
    stats = aggregate_report(kept, metrics, {})  # no probe groups
    for name in ("v4_length", "nat64_length", "v4_rtt_ms", "nat64_rtt_ms"):
        s = stats["metrics"][name]
        print(f"  {name:16} mean {s['mean']:8.3f}   sd {s['sd']:7.3f}   median {s['median']:8.3f}")
    print()
    print("relative cost of translation, two conventions:")
    pair_pcts, of_means = stats["mean_of_pair_pcts"], stats["pct_of_means"]
    print(f"  mean of per-pair percentages: length {pair_pcts['length']:+6.2f}%"
          f"   rtt {pair_pcts['rtt']:+6.2f}%")
    print(f"  percentage of the means:      length {of_means['length']:+6.2f}%"
          f"   rtt {of_means['rtt']:+6.2f}%")
    print(f"  length/rtt diff correlation r = {stats['pearson_r']:.4f}")
    print(f"  pairs with an implausibly early target: {stats['ttl_anomaly_pairs']}")
    print()

    print("silent-hop share distribution (low..high%, v4 pairs, translated pairs):")
    for low, high, v4_count, nat64_count in missing_hop_histogram(metrics):
        if v4_count or nat64_count:
            print(f"  {low:5.1f}..{high:5.1f}  {v4_count:4}  {nat64_count:4}")
    print()

    problems = compare(stats, oracle_stats(kept))
    print(f"independent oracle agrees: {not problems}")
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
