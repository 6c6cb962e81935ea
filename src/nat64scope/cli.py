"""Command-line entry point tying the stages into file-based commands.

Every analysis command reads a dataset file and writes reports twice:
JSON for machines, CSV for eyes. Output ordering is stable and data
tables carry no timestamps, so rerunning a command on the same inputs
reproduces the same bytes.
"""

from __future__ import annotations

import argparse
import csv
import ipaddress
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import catalogs
from .acquire.dataset import Dataset, load_dataset, write_dataset
from .acquire.dnswire import TYPE_AAAA
from .acquire.ip2as import Ip2AsTable
from .addrsynth import synthesize
from .classifier import (
    NoNatHopError,
    categorize_probe,
    count_as_categories,
    detect_isp_dns64,
    detect_local_nat64,
    group_runs_by_as,
    load_as_categories,
)
from .detector import (
    DEFAULT_DNS2_KNOWN_A,
    DEFAULT_DNS2_NAME,
    DNS1_NAME,
    DetectionReport,
    STD_PING_TARGET_V4,
    detect_dataset,
    eval_dns_test1,
    eval_dns_test2,
    eval_ping_test,
    select_custom_ping_candidates,
)
from .model import (
    IPAddress,
    Nat64Prefix,
    PathFamily,
    ProbeRecord,
    RawOutcome,
    STANDARD_PREFIX,
    TestKind,
    TestRun,
    VerdictValue,
)
from .pathlab import (
    AggregateStats,
    NatLocation,
    aggregate_report,
    attribute_nat64_as,
    compute_metrics,
    filter_pairs,
    flag_ttl_anomalies,
    has_nat_hop,
    locate_nat64,
    missing_hop_histogram,
    pair_paths,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    """The command cannot start with the given configuration."""


@dataclass(frozen=True)
class RunConfig:
    """File-level knobs shared by all commands."""

    targets: Tuple[ipaddress.IPv4Address, ...]
    dns2_name: str
    dns2_answers: Tuple[ipaddress.IPv4Address, ...]
    resolvers: Tuple[str, ...]
    public_resolvers_path: Optional[str]
    public_prefixes_path: Optional[str]
    ip2as_path: Optional[str]
    as_categories_path: Optional[str]
    repeat: int
    concurrency: int


_CONFIG_KEYS = {
    "targets",
    "dns2_name",
    "dns2_answers",
    "resolvers",
    "public_resolvers",
    "public_prefixes",
    "ip2as",
    "as_categories",
    "repeat",
    "concurrency",
}


def load_config(path: Optional[str], concurrency_override: Optional[int] = None) -> RunConfig:
    doc: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: top level must be an object")
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"{path}: unknown keys: {', '.join(sorted(unknown))}")
        for key in ("public_resolvers", "public_prefixes", "ip2as", "as_categories"):
            if not isinstance(doc.get(key, ""), (str, type(None))):
                raise ConfigError(f"{path}: {key} must be a file path")
        if not isinstance(doc.get("dns2_name", ""), str):
            raise ConfigError(f"{path}: dns2_name must be a string")
        for key in ("targets", "dns2_answers", "resolvers"):
            value = doc.get(key, [])
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise ConfigError(f"{path}: {key} must be a list of strings")

    try:
        targets = tuple(
            ipaddress.IPv4Address(t) for t in doc.get("targets", [str(STD_PING_TARGET_V4)])
        )
        dns2_answers = tuple(
            ipaddress.IPv4Address(a) for a in doc.get("dns2_answers", DEFAULT_DNS2_KNOWN_A)
        )
    except ValueError as exc:
        raise ConfigError(f"bad IPv4 address in config: {exc}") from exc
    if not targets:
        raise ConfigError("targets must not be empty")

    repeat = doc.get("repeat", 2)
    concurrency = (
        doc.get("concurrency", 4) if concurrency_override is None else concurrency_override
    )
    if type(repeat) is not int or repeat < 1:
        raise ConfigError("repeat must be a positive integer")
    if type(concurrency) is not int or concurrency < 1:
        raise ConfigError("concurrency must be a positive integer")

    config = RunConfig(
        targets=targets,
        dns2_name=doc.get("dns2_name", DEFAULT_DNS2_NAME),
        dns2_answers=dns2_answers,
        resolvers=tuple(doc.get("resolvers", [])),
        public_resolvers_path=doc.get("public_resolvers"),
        public_prefixes_path=doc.get("public_prefixes"),
        ip2as_path=doc.get("ip2as"),
        as_categories_path=doc.get("as_categories"),
        repeat=repeat,
        concurrency=concurrency,
    )
    for name, referenced in (
        ("public_resolvers", config.public_resolvers_path),
        ("public_prefixes", config.public_prefixes_path),
        ("ip2as", config.ip2as_path),
        ("as_categories", config.as_categories_path),
    ):
        if referenced is not None and not os.path.exists(referenced):
            raise ConfigError(f"{name} file does not exist: {referenced}")
    return config


def _read_input(name: str, path: Optional[str], loader):
    """Load one input file; one that cannot be read or parsed is a config error."""
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{name} {path}: {exc}") from exc


def _load_catalogs(config: RunConfig):
    return (
        _read_input(
            "public_prefixes", config.public_prefixes_path, catalogs.load_public_prefixes
        ),
        _read_input(
            "public_resolvers", config.public_resolvers_path, catalogs.load_public_resolvers
        ),
    )


def _out_dir(args) -> str:
    try:
        os.makedirs(args.out, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:  # a file is in the way
        raise ConfigError(f"cannot make output directory {args.out}: {exc.strerror}") from exc
    return args.out


@dataclass(frozen=True)
class Analysis:
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
    config = load_config(args.config, getattr(args, "concurrency", None))
    public_prefixes, public_resolvers = _load_catalogs(config)
    if args.from_dataset:
        dataset = _read_input("dataset", args.from_dataset, load_dataset)
    elif not live:
        raise ConfigError(f"{args.command} needs --from-dataset")
    out = _out_dir(args)
    if not args.from_dataset:
        dataset = _acquire_live(config)
        write_dataset(dataset, os.path.join(out, "dataset.ndjson"))
    report = detect_dataset(
        dataset,
        public_prefixes=public_prefixes,
        public_resolvers=public_resolvers,
    )
    return Analysis(config, public_resolvers, dataset, report, out)


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------- detect


def _verdict_doc(verdict) -> Optional[dict]:
    if verdict is None:
        return None
    return {"value": verdict.value.value, "supporting_runs": verdict.supporting_runs}


def _detection_doc(report: DetectionReport) -> dict:
    return {
        "probes": {
            pid: {
                "group": det.group.value,
                "flags": {
                    "uses_public_resolver": det.flags.uses_public_resolver,
                    "likely_accidental": det.flags.likely_accidental,
                    "rfc8880_style": det.flags.rfc8880_style,
                    "public_nat64_only": det.flags.public_nat64_only,
                },
                "dns1": _verdict_doc(det.dns1),
                "dns2": _verdict_doc(det.dns2),
                "pings": {
                    str(prefix): _verdict_doc(verdict)
                    for prefix, verdict in det.pings.items()
                },
                "dns1_prefixes": [str(p) for p in det.dns1_prefixes],
                "diagnostic": det.diagnostic,
            }
            for pid, det in sorted(report.probes.items())
        },
        "group_counts": {g.value: n for g, n in report.group_counts.items()},
        "test_table": {
            kind.value: {value.value: n for value, n in row.items()}
            for kind, row in report.test_table.items()
        },
    }


def _system_resolvers() -> Tuple[str, ...]:
    found: List[str] = []
    try:
        with open("/etc/resolv.conf", "r", encoding="ascii", errors="replace") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) >= 2 and parts[0] == "nameserver":
                    found.append(parts[1])
    except OSError:
        pass
    return tuple(found)


def _acquire_live(config: RunConfig) -> Dataset:
    from concurrent.futures import ThreadPoolExecutor

    from .acquire import live  # sockets; imported only when measuring

    resolver_strs = config.resolvers or _system_resolvers()
    if not resolver_strs:
        raise ConfigError("no resolvers configured and none found in /etc/resolv.conf")
    try:
        resolvers = tuple(ipaddress.ip_address(r) for r in resolver_strs)
    except ValueError as exc:
        raise ConfigError(f"bad resolver address: {exc}") from exc

    probe_id = "local"
    started = int(time.time())
    dataset = Dataset(capture_window=(started, started))
    dataset.add_probe(ProbeRecord(probe_id, None, None, resolvers=resolvers))

    try:
        with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
            for _ in range(config.repeat):
                futures1 = [
                    pool.submit(live.dns_query, r, DNS1_NAME, TYPE_AAAA) for r in resolvers
                ]
                futures2 = [
                    pool.submit(live.dns_query, r, config.dns2_name, TYPE_AAAA)
                    for r in resolvers
                ]
                responses1 = [f.result() for f in futures1]
                responses2 = [f.result() for f in futures2]
                now = int(time.time())
                dataset.runs.append(eval_dns_test1(probe_id, now, responses1))
                dataset.runs.append(
                    eval_dns_test2(probe_id, now, responses2, config.dns2_answers)
                )
        # Acquisition barrier: ping candidates depend on every DNS answer.
        # With one probe, every prefix its DNS tests revealed is its own.
        revealed = select_custom_ping_candidates(dataset.probes, dataset.runs)
        candidates = [STANDARD_PREFIX, *revealed]
        anchor = config.targets[0]
        for prefix in candidates:
            target = synthesize(prefix, anchor)
            for _ in range(config.repeat):
                now = int(time.time())
                try:
                    replies = live.icmp_echo(target)
                    dataset.runs.append(eval_ping_test(probe_id, now, prefix, replies))
                except live.NoRouteError as exc:
                    dataset.runs.append(
                        TestRun(
                            probe_id, TestKind.ping_for(prefix), now, RawOutcome.FAIL,
                            observed_prefix=prefix, diagnostic=f"no route: {exc}",
                        )
                    )
    except KeyboardInterrupt:
        print("interrupted; keeping partial results", file=sys.stderr)
    dataset.capture_window = (started, int(time.time()))
    return dataset


def cmd_detect(args) -> int:
    analysis = _analyze(args, live=True)
    report, out = analysis.report, analysis.out
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
    nat_paths: Dict[str, List] = {}
    for path in dataset.paths:
        if path.family is PathFamily.NAT64:
            nat_paths.setdefault(path.probe_id, []).append(path)
    kept_by_probe: Dict[str, Dict[Nat64Prefix, List]] = {}
    for pair in kept:
        kept_by_probe.setdefault(pair.nat64.probe_id, {}).setdefault(
            pair.nat64.prefix, []
        ).append(pair.nat64)

    facts = {}
    for probe_id, record in dataset.probes.items():
        seen_nat_hop = any(has_nat_hop(p) for p in nat_paths.get(probe_id, []))
        location: Optional[NatLocation] = None
        local_nat: Optional[bool] = None
        by_prefix = kept_by_probe.get(probe_id, {})
        if by_prefix:
            # Prefixes rarely disagree; the first one kept, by text, wins.
            first = min(by_prefix, key=str)
            if ip2as is not None and record.asn_v6 is not None:
                attribution = attribute_nat64_as(by_prefix[first], first, ip2as, record)
                location = locate_nat64(attribution.asn, record)
            try:
                local_nat = detect_local_nat64(by_prefix[first], first)
            except NoNatHopError:
                local_nat = None
        facts[probe_id] = (seen_nat_hop, location, local_nat)
    return facts


def cmd_classify(args) -> int:
    analysis = _analyze(args)
    config, dataset, report, out = (
        analysis.config, analysis.dataset, analysis.report, analysis.out
    )
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

    ip2as: Optional[Ip2AsTable] = None
    if config.ip2as_path is not None:
        ip2as = _read_input("ip2as", config.ip2as_path, Ip2AsTable.load)
    else:
        print(
            "warning: no ip2as table configured; translator locations "
            "and remote/local buckets are unavailable",
            file=sys.stderr,
        )

    facts = _probe_path_facts(dataset, ip2as)
    publics = set(analysis.public_resolvers)
    resolvers_by_probe: Dict[str, set] = {}
    for run in dataset.runs:
        if run.resolver_used is not None:
            resolvers_by_probe.setdefault(run.probe_id, set()).add(run.resolver_used)

    probes_doc = {}
    category_counts: Dict[str, int] = {}
    nat64_asns: List[Optional[int]] = []
    for probe_id in sorted(dataset.probes):
        record = dataset.probes[probe_id]
        det = report.probes[probe_id]
        seen_nat_hop, location, local_nat = facts[probe_id]
        resolvers_used = set(record.resolvers) | resolvers_by_probe.get(probe_id, set())
        ping_passed = any(
            v.value.value == "passed" for v in det.pings.values()
        )
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

    as_cat_path = config.as_categories_path or catalogs.packaged_as_categories_path()
    mapping = _read_input("as_categories", as_cat_path, load_as_categories)
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


def _summary_doc(summary) -> Optional[dict]:
    if summary is None:
        return None
    return {"n": summary.n, "mean": summary.mean, "sd": summary.sd, "median": summary.median}


def _rates_doc(rates) -> dict:
    return {
        "n_pairs": rates.n_pairs,
        "v4_pct": rates.v4_pct,
        "nat64_pct": rates.nat64_pct,
        "both_pct": rates.both_pct,
    }


def stats_to_doc(stats: AggregateStats) -> dict:
    """The aggregate report in the same shape the oracle emits."""
    return {
        "success": _rates_doc(stats.success),
        "metrics": {name: _summary_doc(s) for name, s in stats.metrics.items()},
        "mean_of_pair_pcts": dict(stats.mean_of_pair_pcts),
        "pct_of_means": dict(stats.pct_of_means),
        "pearson_r": stats.pearson_r,
        "ttl_anomaly_pairs": stats.ttl_anomaly_pairs,
        "groups": {
            name: {
                "success": _rates_doc(g.success),
                "length_diff": _summary_doc(g.length_diff),
                "rtt_diff_ms": _summary_doc(g.rtt_diff_ms),
            }
            for name, g in stats.groups.items()
        },
        "per_target": {name: _rates_doc(r) for name, r in stats.per_target.items()},
        "per_prefix": {name: _summary_doc(s) for name, s in stats.per_prefix.items()},
    }


def cmd_paths(args) -> int:
    analysis = _analyze(args)
    dataset, out = analysis.dataset, analysis.out
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
    for pid, det in sorted(analysis.report.probes.items()):
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
            "stats": stats_to_doc(stats),
        },
    )

    rows = []
    for pair, m in zip(kept, metrics):
        base = [
            pair.nat64.probe_id,
            str(pair.nat64.target_v4),
            str(pair.nat64.prefix),
            pair.nat64.round_index,
        ]
        if m is None:
            rows.append(base + [""] * 6)
        else:
            rows.append(
                base
                + [
                    m.v4_length,
                    m.nat64_length,
                    f"{m.v4_rtt_ms:.6f}",
                    f"{m.nat64_rtt_ms:.6f}",
                    f"{m.v4_missing_pct:.6f}",
                    f"{m.nat64_missing_pct:.6f}",
                ]
            )
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
            (name, r.n_pairs, r.v4_pct, r.nat64_pct, r.both_pct)
            for name, r in stats.per_target.items()
        ],
    )
    _write_csv(
        os.path.join(out, "per_prefix.csv"),
        ("prefix", "n", "mean_length_diff", "sd", "median"),
        [
            (name, s.n, s.mean, s.sd, s.median)
            for name, s in stats.per_prefix.items()
        ],
    )
    _write_csv(
        os.path.join(out, "groups.csv"),
        ("group", "n_pairs", "both_pct", "mean_length_diff", "mean_rtt_diff_ms"),
        [
            (
                name,
                g.success.n_pairs,
                g.success.both_pct,
                g.length_diff.mean if g.length_diff else "",
                g.rtt_diff_ms.mean if g.rtt_diff_ms else "",
            )
            for name, g in sorted(stats.groups.items())
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
    write_dataset(sim.dataset, os.path.join(out, "dataset.ndjson"))
    _write_json(os.path.join(out, "truth.json"), truth_to_doc(sim.truth))
    sim.ip2as.save(os.path.join(out, "ip2as.tsv"))
    print(
        f"{len(sim.dataset.probes)} probes, {len(sim.dataset.runs)} runs, "
        f"{len(sim.dataset.paths)} paths -> {out}",
        file=sys.stderr,
    )
    return EXIT_OK


# ----------------------------------------------------------------- atlas


def cmd_atlas_fetch(args) -> int:
    from .acquire import atlas

    out = _out_dir(args)
    path = os.path.join(out, f"measurement-{args.measurement}.ndjson")
    extra = {"base_url": args.base_url} if args.base_url else {}
    try:
        count = atlas.atlas_fetch(args.measurement, path, **extra)
    except atlas.AtlasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"{count} result documents -> {path}", file=sys.stderr)
    return EXIT_OK


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
    p.add_argument(
        "--concurrency", type=int, help="overrides the config's concurrency budget"
    )
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
        type=int,
        default=None,
        help="treat this round index as the trailing, droppable one",
    )
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("simulate", parents=[common], help="generate a planted dataset")
    p.add_argument("--scenario", help="cohort description file (default: built-in template)")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("atlas-fetch", parents=[common], help="download measurement results")
    p.add_argument("--measurement", type=int, required=True)
    p.add_argument("--base-url", default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_atlas_fetch)

    p = sub.add_parser("atlas-spec", parents=[configured], help="emit measurement definitions")
    p.set_defaults(func=cmd_atlas_spec)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PermissionError as exc:  # a probe socket or an output file refused
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
