"""Command-line entry point tying the stages into file-based commands.

Every analysis command reads a dataset file and writes reports twice:
JSON for machines, CSV for eyes. Output ordering is stable and data
tables carry no timestamps, so rerunning a command on the same inputs
reproduces the same bytes.
"""

from __future__ import annotations

import argparse
import csv
import gc
import ipaddress
import json
import os
import sys
from typing import IO, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import catalogs
from .acquire.dataset import Dataset, load_dataset, write_dataset
from .acquire.dnswire import MalformedDns, encode_name
from .acquire.ip2as import Ip2AsTable
from .classifier import (
    categorize_probe,
    count_as_categories,
    detect_isp_dns64,
    detect_local_nat64,
    group_runs_by_as,
)
from .detector import (
    DEFAULT_DNS2_KNOWN_A,
    DEFAULT_DNS2_NAME,
    DetectionReport,
    STD_PING_TARGET_V4,
    detect_dataset,
)
from .model import (
    IPAddress,
    Nat64Prefix,
    STANDARD_PREFIX,
    TestKind,
    VerdictValue,
)
from .pathlab import (
    NatLocation,
    aggregate_report,
    attribute_nat64_as,
    compute_metrics,
    filter_pairs,
    first_nat_hop,
    flag_ttl_anomalies,
    locate_nat64,
    missing_hop_histogram,
    pair_paths,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    """The command cannot start with the given configuration."""


class RunConfig(NamedTuple):
    """File-level knobs shared by all commands, named as the config keys."""

    targets: Tuple[ipaddress.IPv4Address, ...]
    dns2_name: str
    dns2_answers: Tuple[ipaddress.IPv4Address, ...]
    resolvers: Tuple[str, ...]
    public_resolvers: Optional[str]
    public_prefixes: Optional[str]
    ip2as: Optional[str]
    as_categories: Optional[str]
    repeat: int


#: Every config key, with the value it takes when the file leaves it out.
_DEFAULTS = {
    "targets": [str(STD_PING_TARGET_V4)],
    "dns2_name": DEFAULT_DNS2_NAME,
    "dns2_answers": [str(a) for a in DEFAULT_DNS2_KNOWN_A],
    "resolvers": [],
    "public_resolvers": None,
    "public_prefixes": None,
    "ip2as": None,
    "as_categories": None,
    "repeat": 2,
}

#: The keys that name an input file.
_FILE_KEYS = ("public_resolvers", "public_prefixes", "ip2as", "as_categories")


def load_config(path: Optional[str]) -> RunConfig:
    """``_DEFAULTS`` with the keys the JSON file at ``path`` sets, checked."""
    doc: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            # Bad JSON, an integer past the digit limit, or nesting too deep.
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: top level must be an object")
        unknown = set(doc) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"{path}: unknown keys: {', '.join(sorted(unknown))}")
    values = {**_DEFAULTS, **doc}

    for key in _FILE_KEYS:
        if not isinstance(values[key], (str, type(None))):
            raise ConfigError(f"{path}: {key} must be a file path")
    name = values["dns2_name"]
    if not isinstance(name, str):
        raise ConfigError(f"{path}: dns2_name must be a string")
    try:
        encode_name(name)
    except (MalformedDns, UnicodeEncodeError) as exc:
        raise ConfigError(f"{path}: dns2_name is not a DNS name: {exc}") from exc
    for char in name:
        if not "!" <= char <= "~":
            raise ConfigError(f"{path}: dns2_name holds {char!r}, not printable ASCII")
    for key in ("targets", "dns2_answers", "resolvers"):
        value = values[key]
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ConfigError(f"{path}: {key} must be a list of strings")

    try:
        for key in ("targets", "dns2_answers"):
            values[key] = tuple(ipaddress.IPv4Address(a) for a in values[key])
    except ValueError as exc:
        raise ConfigError(f"bad IPv4 address in config: {exc}") from exc
    if not values["targets"]:
        raise ConfigError("targets must not be empty")
    values["resolvers"] = tuple(values["resolvers"])

    repeat = values["repeat"]
    if type(repeat) is not int or repeat < 1:
        raise ConfigError("repeat must be a positive integer")

    for key in _FILE_KEYS:
        if values[key] is not None and not os.path.exists(values[key]):
            raise ConfigError(f"{key} file does not exist: {values[key]}")
    return RunConfig(**values)


def _read_input(name: str, path: Optional[str], loader):
    """Load one input file; one that cannot be read or parsed is a config error."""
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{name} {path}: {exc}") from exc


def _load_catalogs(config: RunConfig):
    return (
        _read_input("public_prefixes", config.public_prefixes, catalogs.load_public_prefixes),
        _read_input("public_resolvers", config.public_resolvers, catalogs.load_public_resolvers),
    )


def _out_dir(args) -> str:
    try:
        os.makedirs(args.out, exist_ok=True)
    except PermissionError:  # refused by the system: exit 1, as in main
        raise
    except OSError as exc:  # a file in the way, an empty or overlong name
        raise ConfigError(f"cannot make output directory {args.out}: {exc.strerror}") from exc
    return args.out


class Analysis(NamedTuple):
    """What the analysis commands start from: inputs read once, detection run once."""

    config: RunConfig
    public_resolvers: Tuple[IPAddress, ...]
    dataset: Dataset
    report: DetectionReport
    out: str


def _analyze(args, live: bool = False) -> Analysis:
    """The front end shared by ``detect``, ``classify`` and ``paths``.

    Reads the config, the catalogs and the dataset, makes the output
    directory and runs detection. With ``live`` and no dataset given,
    it measures from this host instead and records what it measured.
    """
    config = load_config(args.config)
    public_prefixes, public_resolvers = _load_catalogs(config)
    if args.from_dataset:
        dataset = _read_input("dataset", args.from_dataset, load_dataset)
    elif not live:
        raise ConfigError(f"{args.command} needs --from-dataset")
    out = _out_dir(args)
    if not args.from_dataset:
        dataset = _acquire_live(config)
        with _create(os.path.join(out, "dataset.ndjson"), "ascii") as handle:
            write_dataset(dataset, handle)
    report = detect_dataset(
        dataset,
        public_prefixes=public_prefixes,
        public_resolvers=public_resolvers,
    )
    return Analysis(config, public_resolvers, dataset, report, out)


def _create(path: str, encoding: str = "utf-8", newline: Optional[str] = None) -> IO[str]:
    """Open one output file for writing: every command's files go through here.

    A refused permission stays a ``PermissionError`` (exit 1, as in main).
    Any other failure to open, such as a directory taking the name, is a
    config error naming the file.
    """
    try:
        return open(path, "w", encoding=encoding, newline=newline)
    except PermissionError:
        raise
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc.strerror}") from exc


def _write_json(path: str, doc) -> None:
    with _create(path) as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with _create(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------- detect


def _verdict_doc(verdict) -> Optional[dict]:
    if verdict is None:
        return None
    value, supporting_runs = verdict
    return {"value": value.value, "supporting_runs": supporting_runs}


def _detection_doc(report: DetectionReport) -> dict:
    return {
        "probes": {
            pid: {
                "group": group.value,
                "flags": flags._asdict(),
                "dns1": _verdict_doc(dns1),
                "dns2": _verdict_doc(dns2),
                "pings": {str(prefix): _verdict_doc(verdict) for prefix, verdict in pings.items()},
                "dns1_prefixes": [str(p) for p in dns1_prefixes],
                "diagnostic": diagnostic,
            }
            for pid, (_, dns1, dns2, pings, dns1_prefixes, group, flags, diagnostic)
            in sorted(report.probes.items())
        },
        "group_counts": {g.value: n for g, n in report.group_counts.items()},
        "test_table": {
            kind.value: {value.value: n for value, n in row.items()}
            for kind, row in report.test_table.items()
        },
    }


def _acquire_live(config: RunConfig) -> Dataset:
    from .acquire import live  # sockets; imported only when measuring

    resolver_strs = config.resolvers or live.system_resolvers()
    if not resolver_strs:
        raise ConfigError("no resolvers configured and none found in /etc/resolv.conf")
    try:
        resolvers = tuple(ipaddress.ip_address(r) for r in resolver_strs)
    except ValueError as exc:
        raise ConfigError(f"bad resolver address: {exc}") from exc
    return live.measure(
        resolvers, config.dns2_name, config.dns2_answers, config.targets[0], config.repeat
    )


def cmd_detect(args) -> int:
    _, _, _, report, out = _analyze(args, live=True)
    _write_json(os.path.join(out, "detection.json"), _detection_doc(report))
    _write_csv(
        os.path.join(out, "test_table.csv"),
        ("test", "passed", "failed", "inconclusive"),
        [
            (
                kind.value,
                report.test_table[kind][VerdictValue.PASSED],
                report.test_table[kind][VerdictValue.FAILED],
                report.test_table[kind][VerdictValue.INCONCLUSIVE],
            )
            for kind in TestKind
        ],
    )
    _write_csv(
        os.path.join(out, "groups.csv"),
        ("group", "probes"),
        [(g.value, n) for g, n in report.group_counts.items()],
    )
    return EXIT_OK


# -------------------------------------------------------------- classify


def _probe_path_facts(dataset: Dataset, ip2as: Optional[Ip2AsTable]):
    """Per probe: translated-hop visibility, location, and local timing."""
    pairs, _ = pair_paths(dataset.paths)
    kept, _ = filter_pairs(pairs)
    seen_nat_hop = set()  # probes with a translated path that crossed its translator
    for path in dataset.paths:
        if path.probe_id not in seen_nat_hop and first_nat_hop(path) is not None:
            seen_nat_hop.add(path.probe_id)
    kept_by_probe: Dict[str, Dict[Nat64Prefix, List]] = {}
    for _, nat in kept:
        kept_by_probe.setdefault(nat.probe_id, {}).setdefault(nat.prefix, []).append(nat)

    facts = {}
    for probe_id, record in dataset.probes.items():
        location: Optional[NatLocation] = None
        local_nat: Optional[bool] = None
        by_prefix = kept_by_probe.get(probe_id, {})
        if by_prefix:
            # Prefixes rarely disagree; the first one kept, by text, wins.
            first = min(by_prefix, key=str)
            # Locating the translator compares it with both probe ASes.
            if ip2as is not None and record.asn_v4 is not None and record.asn_v6 is not None:
                attribution = attribute_nat64_as(by_prefix[first], first, ip2as, record)
                location = locate_nat64(attribution.asn, record)
            local_nat = detect_local_nat64(by_prefix[first])
        facts[probe_id] = (probe_id in seen_nat_hop, location, local_nat)
    return facts


def cmd_classify(args) -> int:
    config, public_resolvers, dataset, report, out = _analyze(args)
    # Both tables are read before any warning, so a bad one ends the
    # command with its one-line error alone.
    ip2as: Optional[Ip2AsTable] = None
    if config.ip2as is not None:
        ip2as = _read_input("ip2as", config.ip2as, Ip2AsTable.load)
    mapping = _read_input("as_categories", config.as_categories, catalogs.load_as_categories)
    evidence = detect_isp_dns64(
        group_runs_by_as(dataset.runs, dataset.probes), dataset.probes
    )
    multi_witness = [ev for ev in evidence.values() if ev.is_isp_dns64]
    if dataset.probes and not multi_witness:
        print(
            "warning: no AS has two independent witnesses; "
            "ISP-run DNS64 cannot be distinguished and stays unreported",
            file=sys.stderr,
        )

    if ip2as is None:
        print(
            "warning: no ip2as table configured; translator locations "
            "and remote/local buckets are unavailable",
            file=sys.stderr,
        )

    facts = _probe_path_facts(dataset, ip2as)
    publics = set(public_resolvers)
    resolvers_by_probe: Dict[str, set] = {}
    for run in dataset.runs:
        used = run.resolver_used
        if used is not None:
            resolvers_by_probe.setdefault(run.probe_id, set()).add(used)

    probes_doc = {}
    category_counts: Dict[str, int] = {}
    nat64_asns: List[Optional[int]] = []
    for probe_id in sorted(dataset.probes):
        record = dataset.probes[probe_id]
        det = report.probes[probe_id]
        seen_nat_hop, location, local_nat = facts[probe_id]
        resolvers_used = set(record.resolvers) | resolvers_by_probe.get(probe_id, set())
        ping_passed = any(v.value is VerdictValue.PASSED for v in det.pings.values())
        categories = categorize_probe(
            det.group,
            det.flags,
            evidence=evidence.get(record.asn_v6) if record.asn_v6 else None,
            resolvers_used=resolvers_used,
            public_resolvers=publics,
            nat_location=location,
            ping_passed=ping_passed,
            has_nat_hop=seen_nat_hop,
            home_annotation="home-nat64" in record.tags,
        )
        names = sorted(c.value for c in categories)
        for name in names:
            category_counts[name] = category_counts.get(name, 0) + 1
        if categories:
            nat64_asns.append(record.asn_v6)
        probes_doc[probe_id] = {
            "group": det.group.value,
            "categories": names,
            "nat_location": location.value if location else None,
            "local_nat": local_nat,
            "asn_v6": record.asn_v6,
        }

    as_counts = count_as_categories(nat64_asns, mapping)

    _write_json(
        os.path.join(out, "classification.json"),
        {
            "probes": probes_doc,
            "evidence": {
                str(ev.asn): {
                    "is_isp_dns64": ev.is_isp_dns64,
                    "resolver": str(ev.resolver) if ev.resolver else None,
                    "witnesses": list(ev.witnesses),
                    "multiple_similar_prefixes": ev.multiple_similar_prefixes,
                }
                for ev in sorted(evidence.values(), key=lambda e: e.asn)
            },
            "as_category_counts": {
                cat.value: counts for cat, counts in as_counts.items()
            },
        },
    )
    _write_csv(
        os.path.join(out, "categories.csv"),
        ("category", "probes"),
        sorted(category_counts.items()),
    )
    _write_csv(
        os.path.join(out, "evidence.csv"),
        ("asn", "is_isp_dns64", "resolver", "witnesses", "multiple_similar_prefixes"),
        [
            (
                ev.asn,
                ev.is_isp_dns64,
                ev.resolver or "",
                " ".join(ev.witnesses),
                ev.multiple_similar_prefixes,
            )
            for ev in sorted(evidence.values(), key=lambda e: e.asn)
        ],
    )
    _write_csv(
        os.path.join(out, "as_categories.csv"),
        ("category", "ases", "probes"),
        [
            (cat.value, counts["ases"], counts["probes"])
            for cat, counts in as_counts.items()
        ],
    )
    return EXIT_OK


# ----------------------------------------------------------------- paths


def cmd_paths(args) -> int:
    _, _, dataset, report, out = _analyze(args)
    pairs, unpaired = pair_paths(dataset.paths)
    kept, excluded = filter_pairs(pairs, final_round=args.final_round)
    exclusions: Dict[str, int] = {}
    for item in excluded:
        exclusions[item.reason] = exclusions.get(item.reason, 0) + 1

    metrics = compute_metrics(kept)
    ttl_excluded = 0
    if args.exclude_ttl_anomaly:
        anomalous = flag_ttl_anomalies(metrics)
        ttl_excluded = sum(anomalous)
        kept = [pair for pair, bad in zip(kept, anomalous) if not bad]
        metrics = [m for m, bad in zip(metrics, anomalous) if not bad]

    groupings: Dict[str, List[str]] = {}
    for pid, det in sorted(report.probes.items()):
        groupings.setdefault(det.group.value, []).append(pid)

    stats = aggregate_report(kept, metrics, groupings)
    _write_json(
        os.path.join(out, "summary.json"),
        {
            "accounting": {
                "paths": len(dataset.paths),
                "pairs": len(pairs),
                "unpaired": len(unpaired),
                "kept": len(kept),
                "excluded": dict(sorted(exclusions.items())),
                "ttl_anomaly_excluded": ttl_excluded,
            },
            "stats": stats,
        },
    )

    rows = []
    for pair, m in zip(kept, metrics):
        probe_id, _, prefix, target, round_index, _ = pair.nat64
        base = [probe_id, str(target), str(prefix), round_index]
        if m is None:
            rows.append(base + [""] * 6)
        else:
            v4_length, nat64_length, *decimals = m  # RTTs, then missing shares
            rows.append(base + [v4_length, nat64_length] + [f"{x:.6f}" for x in decimals])
    _write_csv(
        os.path.join(out, "pairs.csv"),
        (
            "probe", "target", "prefix", "round",
            "v4_length", "nat64_length", "v4_rtt_ms", "nat64_rtt_ms",
            "v4_missing_pct", "nat64_missing_pct",
        ),
        rows,
    )
    _write_csv(
        os.path.join(out, "per_target.csv"),
        ("target", "n_pairs", "v4_pct", "nat64_pct", "both_pct"),
        [
            (name, r["n_pairs"], r["v4_pct"], r["nat64_pct"], r["both_pct"])
            for name, r in stats["per_target"].items()
        ],
    )
    _write_csv(
        os.path.join(out, "per_prefix.csv"),
        ("prefix", "n", "mean_length_diff", "sd", "median"),
        [
            (name, s["n"], s["mean"], s["sd"], s["median"])
            for name, s in stats["per_prefix"].items()
        ],
    )
    _write_csv(
        os.path.join(out, "groups.csv"),
        ("group", "n_pairs", "both_pct", "mean_length_diff", "mean_rtt_diff_ms"),
        [
            (
                name,
                g["success"]["n_pairs"],
                g["success"]["both_pct"],
                g["length_diff"]["mean"] if g["length_diff"] else "",
                g["rtt_diff_ms"]["mean"] if g["rtt_diff_ms"] else "",
            )
            for name, g in sorted(stats["groups"].items())
        ],
    )
    _write_csv(
        os.path.join(out, "missing_hop_histogram.csv"),
        ("low_pct", "high_pct", "ipv4_paths", "nat64_paths"),
        missing_hop_histogram(metrics),
    )
    return EXIT_OK


# -------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    from .simharness import ScenarioError, generate, parse_scenario, truth_to_doc
    from .simharness.generate import ACCEPTANCE_TEMPLATE

    if args.scenario:
        try:
            with open(args.scenario, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read scenario: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"scenario {args.scenario} is not UTF-8 text: {exc}") from exc
    else:
        text = ACCEPTANCE_TEMPLATE
    try:
        scenario = parse_scenario(text)
    except ScenarioError as exc:
        raise ConfigError(str(exc)) from exc

    sim = generate(scenario, args.seed)
    out = _out_dir(args)
    with _create(os.path.join(out, "dataset.ndjson"), "ascii") as handle:
        write_dataset(sim.dataset, handle)
    _write_json(os.path.join(out, "truth.json"), truth_to_doc(sim.truth))
    with _create(os.path.join(out, "ip2as.tsv"), "ascii") as handle:
        sim.ip2as.save(handle)
    print(
        f"{len(sim.dataset.probes)} probes, {len(sim.dataset.runs)} runs, "
        f"{len(sim.dataset.paths)} paths -> {out}",
        file=sys.stderr,
    )
    return EXIT_OK


# ----------------------------------------------------------------- atlas


def cmd_atlas_spec(args) -> int:
    from .acquire import atlas

    config = load_config(args.config)
    public_prefixes, _ = _load_catalogs(config)
    definitions = atlas.measurement_definitions(
        dns2_name=config.dns2_name,
        ping_target_v4=config.targets[0],
        traceroute_targets=config.targets,
        prefixes=(STANDARD_PREFIX, *public_prefixes),
    )
    out = _out_dir(args)
    _write_json(os.path.join(out, "atlas_spec.json"), definitions)
    return EXIT_OK


# ------------------------------------------------------------------ main


def _round_index(text: str) -> int:
    """A round number from the command line; a negative one is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nat64scope",
        description="Detect NAT64/DNS64 deployments and measure their path cost.",
    )
    # Each command takes only the flags it reads.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory")
    configured = argparse.ArgumentParser(add_help=False, parents=[common])
    configured.add_argument("--config", help="JSON run configuration")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", parents=[configured], help="run or replay the detection tests")
    p.add_argument("--from-dataset", help="analyze a recorded dataset instead of measuring")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("classify", parents=[configured], help="bucket detected probes")
    p.add_argument("--from-dataset", required=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("paths", parents=[configured], help="compare translated and native paths")
    p.add_argument("--from-dataset", required=False)
    p.add_argument(
        "--exclude-ttl-anomaly",
        action="store_true",
        help="drop pairs whose target answers implausibly early",
    )
    p.add_argument(
        "--final-round",
        type=_round_index,
        default=None,
        help="treat this round index as the trailing, droppable one",
    )
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("simulate", parents=[common], help="generate a planted dataset")
    p.add_argument("--scenario", help="cohort description file (default: built-in template)")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("atlas-spec", parents=[configured], help="emit measurement definitions")
    p.set_defaults(func=cmd_atlas_spec)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # A command is one short process over acyclic records: the cyclic
    # collector would only rescan them as they pile up, and free nothing.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ConfigError as exc:
        # The message may quote input text: its line breaks are escaped, so
        # the error stays one line.
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")
        print(f"config error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    except PermissionError as exc:  # a probe socket or an output file refused
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
