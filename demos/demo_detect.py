"""Walk through the detection pipeline on a simulated probe population.

No network access needed: the population is generated from the built-in
scenario template, so every verdict below is checkable against the
planted ground truth printed at the end.

Run:  python3 demos/demo_detect.py [seed]
"""

import sys

from nat64scope import catalogs
from nat64scope.detector import detect_dataset
from nat64scope.model import TestKind, VerdictValue
from nat64scope.simharness import ACCEPTANCE_TEMPLATE, generate, parse_scenario


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 42
    sim = generate(parse_scenario(ACCEPTANCE_TEMPLATE), seed)
    print(f"simulated world, seed {seed}: {len(sim.dataset.probes)} probes, "
          f"{len(sim.dataset.runs)} test runs, {len(sim.dataset.paths)} traceroutes")
    print()

    report = detect_dataset(
        sim.dataset,
        public_prefixes=catalogs.load_public_prefixes(),
        public_resolvers=catalogs.load_public_resolvers(),
    )

    print("test outcomes (probes passing / failing / inconclusive):")
    for kind in TestKind:
        row = report.test_table[kind]
        cells = " / ".join(f"{row[value]:3}" for value in VerdictValue)
        print(f"  {kind.value:18} {cells}")
    print()

    print("detection groups:")
    for group, count in report.group_counts.items():
        print(f"  {group.value:26} {count:3}")
    print()

    print("a few probes worth a closer look:")
    shown = 0
    for probe_id, det in sorted(report.probes.items()):
        interesting = (
            det.flags.rfc8880_style
            or det.flags.public_nat64_only
            or det.group.value == "dns64_misconfigured_only"
        )
        if not interesting or shown >= 5:
            continue
        flags = [
            name
            for name, on in (
                ("public-resolver", det.flags.uses_public_resolver),
                ("likely-accidental", det.flags.likely_accidental),
                ("rfc8880-style", det.flags.rfc8880_style),
                ("public-gateway-only", det.flags.public_nat64_only),
            )
            if on
        ]
        note = det.diagnostic or ", ".join(flags) or "-"
        print(f"  {probe_id}: {det.group.value:26} {note}")
        shown += 1
    print()

    mismatches = sum(
        1
        for probe_id, planted in sim.truth["probes"].items()
        if report.probes[probe_id].group.value != planted["group"]
    )
    print(f"ground truth check: {mismatches} of {len(sim.truth['probes'])} probes "
          f"differ from the planted groups")


if __name__ == "__main__":
    main()
