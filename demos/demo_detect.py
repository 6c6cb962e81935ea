"""Walk through the detection pipeline on a simulated probe population.

No network access needed: the population is generated from the built-in
scenario template, so every verdict below is checkable against the
planted ground truth. Exits 1 when any probe's group or flags differ
from what was planted.

Run:  python3 demos/demo_detect.py [seed]
"""

import sys

from nat64scope import catalogs
from nat64scope.detector import detect_dataset
from nat64scope.simharness import ACCEPTANCE_TEMPLATE, generate, parse_scenario


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 42
    sim = generate(parse_scenario(ACCEPTANCE_TEMPLATE), seed)
    print(f"simulated world, seed {seed}: {len(sim.dataset.probes)} probes, "
          f"{len(sim.dataset.runs)} test runs, {len(sim.dataset.paths)} traceroutes")
    print()

    # The detection.json document: per probe, group counts, test table.
    report = detect_dataset(
        sim.dataset,
        public_prefixes=catalogs.load_public_prefixes(),
        public_resolvers=catalogs.load_public_resolvers(),
    )

    print("test outcomes (probes passing / failing / inconclusive):")
    for kind, row in report["test_table"].items():
        cells = " / ".join(f"{count:3}" for count in row.values())
        print(f"  {kind:18} {cells}")
    print()

    print("detection groups:")
    for group, count in report["group_counts"].items():
        print(f"  {group:26} {count:3}")
    print()

    print("a few probes worth a closer look:")
    shown = 0
    for probe_id, det in sorted(report["probes"].items()):
        flags = det["flags"]
        interesting = (
            flags["rfc8880_style"]
            or flags["public_nat64_only"]
            or det["group"] == "dns64_misconfigured_only"
        )
        if not interesting or shown >= 5:
            continue
        names = [
            name
            for name, key in (
                ("public-resolver", "uses_public_resolver"),
                ("likely-accidental", "likely_accidental"),
                ("rfc8880-style", "rfc8880_style"),
                ("public-gateway-only", "public_nat64_only"),
            )
            if flags[key]
        ]
        note = det["diagnostic"] or ", ".join(names) or "-"
        print(f"  {probe_id}: {det['group']:26} {note}")
        shown += 1
    print()

    mismatches = sorted(
        probe_id
        for probe_id, planted in sim.truth["probes"].items()
        if (report["probes"][probe_id]["group"], report["probes"][probe_id]["flags"])
        != (planted["group"], planted["flags"])
    )
    print(f"ground truth check: {len(mismatches)} of {len(sim.truth['probes'])} probes "
          f"differ from the planted groups and flags")
    for probe_id in mismatches:
        print(f"  {probe_id}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
