import contextlib
import csv
import errno
import functools
import gc
import hashlib
import importlib.util
import io
import ipaddress
import json
import os
import subprocess
import sys
import threading
import zipfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nat64scope
from nat64scope import catalogs, cli
from nat64scope.acquire import live
from nat64scope.acquire.atlas import measurement_definitions
from nat64scope.acquire.dataset import Dataset, load_dataset, write_dataset
from nat64scope.acquire.dnswire import DnsResponse, DnsStatus
from nat64scope.addrsynth import synthesize
from nat64scope.cli import EXIT_CONFIG, EXIT_ERROR, EXIT_OK, load_config, main
from nat64scope.detector import DNS1_NAME, STD_PING_TARGET_V4, detect_dataset
from nat64scope.model import (
    Hop,
    Nat64Prefix,
    PathFamily,
    ProbeRecord,
    RawOutcome,
    STANDARD_PREFIX,
    TestKind,
    TestRun,
    TraceroutePath,
)
from nat64scope.pathlab import aggregate_report, compute_metrics, filter_pairs, pair_paths
from nat64scope.simharness import ACCEPTANCE_TEMPLATE, compare, oracle_stats
from loopback_dns import MockResolver, answer_for, personality
from test_address_parsing import spellings_of
from test_dataset import json_values, write_file


def run(*argv):
    return main(list(argv))


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def simulate(tmp_path, seed=42, name="world"):
    out = tmp_path / name
    assert run("simulate", "--out", str(out), "--seed", str(seed)) == EXIT_OK
    return out


class TestSimulate:
    def test_writes_world(self, tmp_path):
        out = simulate(tmp_path, seed=5)
        assert (out / "dataset.ndjson").is_file()
        assert (out / "ip2as.tsv").is_file()
        truth = read_json(out / "truth.json")
        assert len(truth["probes"]) == 32

    def test_same_seed_same_bytes(self, tmp_path):
        a = simulate(tmp_path, seed=9, name="a")
        b = simulate(tmp_path, seed=9, name="b")
        for name in ("dataset.ndjson", "truth.json", "ip2as.tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_template_bytes_are_pinned(self, tmp_path):
        # Any change to what the simulator writes for a given seed shows here,
        # not only a difference between two runs of the same code.
        out = simulate(tmp_path, seed=42)
        digests = {
            "dataset.ndjson": "45f598b89ed307b3f9dba630d35fa2d81864c0adf4eb15cff040270017c111ac",
            "ip2as.tsv": "ce416de1ac39630a137c74a2bc2de4c18af8ea3b4fc0f2d78a8f538e838ac8fc",
            "truth.json": "f04e55073f806ee2b8244d88948ba7e6aa47d50b46ad430e221912dabcf2d282",
        }
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_simulate_loads_only_the_standard_library(self, tmp_path):
        # simulate imports the harness, oracle included, so a third-party or
        # heavy standard import there would slow every simulated world.
        code = (
            "import json, sys; from nat64scope.cli import main; "
            f"assert main(['simulate', '--out', {str(tmp_path / 'w')!r}]) == 0; "
            "tops = {name.partition('.')[0] for name in sys.modules}; "
            "foreign = tops - set(sys.stdlib_module_names) - {'nat64scope', '__main__'}; "
            "heavy = tops & {'statistics', 'fractions', 'decimal'}; "
            "print(json.dumps([sorted(foreign), sorted(heavy)]))"
        )
        src = os.path.dirname(os.path.dirname(nat64scope.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert json.loads(done.stdout) == [[], []]

    def test_custom_scenario_file(self, tmp_path):
        scenario = tmp_path / "tiny.txt"
        scenario.write_text("count=2 resolver=dns64 nat=working\n")
        out = tmp_path / "tiny"
        assert run("simulate", "--scenario", str(scenario), "--out", str(out)) == EXIT_OK
        truth = read_json(out / "truth.json")
        assert len(truth["probes"]) == 2

    def test_invalid_scenario_is_config_error(self, tmp_path):
        scenario = tmp_path / "bad.txt"
        scenario.write_text("count=1 resolver=broken nat=working\n")
        assert run("simulate", "--scenario", str(scenario), "--out", str(tmp_path / "x")) == EXIT_CONFIG

    def test_missing_scenario_is_config_error(self, tmp_path):
        assert run("simulate", "--scenario", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "x")) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "line",
        [
            "cell=256 count=1",
            "cell=3 count=257",
            "cell=1 count=1 nprefixes=10000 prefix=custom resolver=dns64",
        ],
    )
    def test_unbuildable_cell_is_config_error(self, tmp_path, line):
        scenario = tmp_path / "big.txt"
        scenario.write_text(line + "\n")
        assert run("simulate", "--scenario", str(scenario), "--out", str(tmp_path / "x")) == EXIT_CONFIG

    @pytest.mark.parametrize("flag, value", [("--concurrency", "2"), ("--config", "c.json")])
    def test_rejects_flags_it_does_not_read(self, tmp_path, flag, value):
        with pytest.raises(SystemExit) as exc:
            run("simulate", flag, value, "--out", str(tmp_path / "x"))
        assert exc.value.code == EXIT_CONFIG


class TestReportsArePinned:
    """Every report file of the template world at seed 42, pinned by sha256.

    Two runs agreeing shows determinism; only fixed digests show that a
    refactor left every report byte as it was.
    """

    #: Per case: the command line, the config document and the digests.
    #: The analysis commands read the world's dataset; ``{tmp}`` in a config
    #: value stands for the test's directory.
    CASES = {
        "detect": (["detect"], None, {
            "detection.json": "da029b9b8c61f90f337070b2e6015b7f416569a0f15085fd09d30fd0851ad2b8",
            "groups.csv": "c9edfed221e90d2cede55edf60687864b3f113f70a352eba0af951358d85fae0",
            "test_table.csv": "cf8a5024ac5c41a3b8a408ed54f19cb03291c6a5e36931909faac16bbb17792a",
        }),
        "classify": (["classify"], {"ip2as": "{tmp}/world/ip2as.tsv"}, {
            "as_categories.csv": "21e53d33794f8cdb266d9831f07dbf2656439b7641394e68b22f5a600aaba6a6",
            "categories.csv": "426be76be3491393f8b4d9be3d59ba80a4b99b0065626c5c08fb652c865ad457",
            "classification.json": "afea76d47ebfc6cda09a2857a05a0179327c2840b38cd37b040eada48643e7b8",
            "evidence.csv": "e7d5fd7635f75f4083cf2602238fca3a4ef5b00551d91f265000f13850f625a0",
        }),
        "classify-no-config": (["classify"], None, {
            "as_categories.csv": "21e53d33794f8cdb266d9831f07dbf2656439b7641394e68b22f5a600aaba6a6",
            "categories.csv": "33eda4ef5678d537d8fd4ea08a5a7b3f3fcdbd61c1f503d4247a8071e4357658",
            "classification.json": "08ff6cd39cc82fcfe7e189a5c08d2a0d6fbd335bc501212224993b631a2aa7d6",
            "evidence.csv": "e7d5fd7635f75f4083cf2602238fca3a4ef5b00551d91f265000f13850f625a0",
        }),
        "paths": (["paths"], None, {
            "groups.csv": "d934a7a4af1687aff1f44d440ecf3e28f21c64c088f5a44c0cfc6b05aaad5d78",
            "missing_hop_histogram.csv": "df3f6568f61c908c0dc41f147b517fdf994c89ae51635f5bc6330162300109e6",
            "pairs.csv": "baecb3d30a0b0140da3f2c24a9dcece8829e212220909985ee3dab89032a9b08",
            "per_prefix.csv": "dfb8b1b056fe84f698b71d770a8d619bf34b6f6383574e1a79a3cc09fcab6f42",
            "per_target.csv": "c6f8925369e973b4cdfa0b4a0734fc00be5cdea38138b2e8517133c27056bdb6",
            "summary.json": "17e33188db2c5a268bc80bcee7ec848e1cb8c4de194a5cc14bafe7fdae63dbc8",
        }),
        "paths-ttl-final-round": (
            ["paths", "--exclude-ttl-anomaly", "--final-round", "2"], None, {
                "groups.csv": "7e4c03a7d9b36cfc531c6cbf9cbc731c19295a2a8add1840fbcddcc4aef0a2ab",
                "missing_hop_histogram.csv": "10a38f4864018026274d53c9e0e1726ab77f3c8d8c2a5713b2e4036bc9650a0e",
                "pairs.csv": "c87b5047564fb57a64cde48d07a3f9d8554f2f8865268eed510f21a4d281d738",
                "per_prefix.csv": "03939f3b595aeebf9475ef7897726adb85e9904d0bb44cf73936c2aaf301bcac",
                "per_target.csv": "02358daf39d7d730dcfe25cfaf26dcc3855acbc3e3daf28fbf635787dedd1cf9",
                "summary.json": "eb42fd82e4cdfa3e8e9e54a7308f4d0cfd03dd04bce1c6cd7717205d3adcad82",
            },
        ),
        "atlas-spec": (["atlas-spec"], None, {
            "atlas_spec.json": "4b1d6bc940f38e30cc07f29733d28c41077c0d81e22b8bd12aa0953e37b06172",
        }),
        "atlas-spec-config": (
            ["atlas-spec"],
            {
                "dns2_name": "probe.example.org.",
                "targets": ["192.0.2.1", "198.51.100.7"],
                "public_prefixes": "{tmp}/prefixes.txt",
                "repeat": 3,
            },
            {"atlas_spec.json": "97eeedc6dec80f3198503e10c401fbaeff3c994ea6feaeb311f7b3d9936168c1"},
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_report_bytes(self, tmp_path, case):
        argv, config, expected = self.CASES[case]
        argv = list(argv)
        if argv[0] != "atlas-spec":
            world = simulate(tmp_path, seed=42)
            argv += ["--from-dataset", str(world / "dataset.ndjson")]
        if config is not None:
            (tmp_path / "prefixes.txt").write_text("2001:db8:64::/96\n")
            text = json.dumps(config).replace("{tmp}", str(tmp_path))
            (tmp_path / "config.json").write_text(text)
            argv += ["--config", str(tmp_path / "config.json")]
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == EXIT_OK
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()
        }
        assert digests == expected


def respell(text, turn):
    """Another valid spelling of the address ``text``, chosen by ``turn``:
    for IPv6, expanded, upper case, both, or with an IPv4 tail. IPv4 has
    only one spelling."""
    others = spellings_of(ipaddress.ip_address(text))[1:] or [text]
    return others[turn % len(others)]


def respell_network(text, turn):
    base, _, length = text.partition("/")
    return f"{respell(base, turn)}/{length}"


def respell_line(line, turns):
    """The dataset line with each address, prefix base and network respelled,
    taking a turn of ``turns`` for each."""
    doc = json.loads(line)
    kind = doc["record"]
    if kind == "probe":
        doc["resolvers"] = [respell(r, next(turns)) for r in doc["resolvers"]]
        if doc["network_prefix_v6"]:
            doc["network_prefix_v6"] = respell_network(doc["network_prefix_v6"], next(turns))
    elif kind == "test_run":
        if doc["resolver_used"]:
            doc["resolver_used"] = respell(doc["resolver_used"], next(turns))
        if doc["observed_prefix"]:
            doc["observed_prefix"]["base"] = respell(doc["observed_prefix"]["base"], next(turns))
    elif kind == "traceroute":
        if doc["prefix"]:
            doc["prefix"]["base"] = respell(doc["prefix"]["base"], next(turns))
        for hop in doc["hops"]:
            if hop["address"]:
                hop["address"] = respell(hop["address"], next(turns))
    return json.dumps(doc) + "\n"


class TestRespelledDataset:
    """The template world with every address, prefix base and network in
    other spellings, several for one value within the file: each command
    writes the reports of the canonical file, byte for byte.

    Guards the loader's one object per address value and the keys by value
    of pairing, filtering and aggregation; the AS table is respelled too.
    """

    CASES = {
        "detect": ["detect"],
        "classify": ["classify", "--config", "{config}"],
        "paths": ["paths"],
        "paths-final-round": ["paths", "--final-round", "1"],
        "paths-ttl-final-round": ["paths", "--exclude-ttl-anomaly", "--final-round", "2"],
    }

    @pytest.fixture(scope="class")
    def worlds(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("respelled")
        canonical = simulate(root)
        respelled = root / "respelled"
        respelled.mkdir()
        turns = iter(range(10**9))
        original = (canonical / "dataset.ndjson").read_text().splitlines(keepends=True)
        lines = [respell_line(line, turns) for line in original]
        # A translated path twice, spelled apart: the second is a duplicate.
        duplicate = next(line for line in original if '"nat64"' in line)
        with open(canonical / "dataset.ndjson", "a") as handle:
            handle.write(duplicate)
        lines.append(duplicate)
        (respelled / "dataset.ndjson").write_text("".join(lines))
        table = []
        for line in (canonical / "ip2as.tsv").read_text().splitlines():
            network, asn = line.split()
            table.append(f"{respell_network(network, next(turns))} {asn}\n")
        (respelled / "ip2as.tsv").write_text("".join(table))
        for world in (canonical, respelled):
            (world / "config.json").write_text(json.dumps({"ip2as": str(world / "ip2as.tsv")}))
        return canonical, respelled

    def test_every_spelling_changed_and_the_records_did_not(self, worlds):
        canonical, respelled = worlds
        old = (canonical / "dataset.ndjson").read_text().splitlines()
        new = (respelled / "dataset.ndjson").read_text().splitlines()
        assert "2001:0db8:" in "".join(new) and "2001:DB8:" in "".join(new)
        assert sum(a != b for a, b in zip(old, new)) > len(old) / 2
        a = load_dataset(str(canonical / "dataset.ndjson"))
        b = load_dataset(str(respelled / "dataset.ndjson"))
        assert (a.probes, a.runs, a.paths) == (b.probes, b.runs, b.paths)

    @pytest.mark.parametrize("case", list(CASES))
    def test_reports_are_those_of_the_canonical_file(self, worlds, tmp_path, capsys, case):
        outputs = []
        for world in worlds:
            argv = [arg.replace("{config}", str(world / "config.json")) for arg in self.CASES[case]]
            out = tmp_path / world.name
            code = run(*argv, "--from-dataset", str(world / "dataset.ndjson"), "--out", str(out))
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            outputs.append((code, capsys.readouterr(), files))
        assert outputs[0][0] == EXIT_OK
        assert outputs[1] == outputs[0]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("dataset_line", ["", "["], ids=["exit0", "exit2"])
def test_main_pauses_the_collector_and_leaves_it_as_found(
    tmp_path, monkeypatch, enabled, dataset_line
):
    dataset = tmp_path / "d.ndjson"
    write_file(Dataset(), dataset)
    with open(dataset, "a", encoding="ascii") as handle:
        handle.write(dataset_line)
    seen = []

    def load(source):
        seen.append(gc.isenabled())
        return load_dataset(source)

    monkeypatch.setattr("nat64scope.cli.load_dataset", load)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code = run("detect", "--from-dataset", str(dataset), "--out", str(tmp_path / "x"))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert code == (EXIT_CONFIG if dataset_line else EXIT_OK)
    assert seen == [False]


def test_classify_runs_from_a_zipped_package(tmp_path):
    # The shipped catalogs are read as resources, not as files on disk.
    package = Path(nat64scope.__file__).resolve().parent
    archive = tmp_path / "pkg.zip"
    with zipfile.ZipFile(archive, "w") as zipped:
        for path in sorted(package.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zipped.write(path, Path("nat64scope") / path.relative_to(package))
    code = (
        "import sys, nat64scope; from nat64scope.cli import main; "
        "assert nat64scope.__file__.startswith(sys.argv[1]); sys.exit(main(sys.argv[2:]))"
    )
    env = {**os.environ, "PYTHONPATH": str(archive)}

    def zipped_run(*argv):
        return subprocess.run(
            [sys.executable, "-c", code, str(archive), *argv],
            env=env, cwd=tmp_path, capture_output=True, text=True,
        )

    world = tmp_path / "world"
    done = zipped_run("simulate", "--out", str(world))
    assert done.returncode == EXIT_OK, done.stderr
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ip2as": str(world / "ip2as.tsv")}))
    argv = ["classify", "--from-dataset", str(world / "dataset.ndjson"), "--config", str(config)]
    done = zipped_run(*argv, "--out", str(tmp_path / "zipped"))
    assert done.returncode == EXIT_OK, done.stderr
    assert run(*argv, "--out", str(tmp_path / "unzipped")) == EXIT_OK
    name = "classification.json"
    assert (tmp_path / "zipped" / name).read_bytes() == (tmp_path / "unzipped" / name).read_bytes()


def test_startup_imports_no_heavy_standard_module():
    # Each command is a new process: building dataclasses, and importing
    # dataclasses with the inspect, ast and dis modules it pulls in, made up
    # about a third of the start-up that every command pays. The socket and
    # threading modules serve only live measurement (``model`` parses
    # addresses through ``_socket`` to keep ``socket`` out), and the
    # statistics, fractions and decimal modules only what ``pathlab``
    # computes without them. Without ``site`` nothing imports any of them
    # before the package; the test's own path finds the same package,
    # checkout or installed copy.
    code = (
        "import sys\n"
        "watched = {'dataclasses', 'inspect', 'socket', 'threading', 'statistics', 'fractions', 'decimal'}\n"
        "before = sorted(watched & set(sys.modules))\n"
        "import nat64scope.cli\n"
        "print(before, sorted(watched & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout == "[] []\n"


def test_package_imports_only_the_standard_library():
    # The package declares no runtime dependency, so importing every module
    # of it must load nothing from outside the standard library.
    code = (
        "import json, pkgutil, sys\n"
        "import nat64scope\n"
        "names = [m.name for m in pkgutil.walk_packages(nat64scope.__path__, 'nat64scope.')]\n"
        "for name in names:\n"
        "    __import__(name)\n"
        "tops = {name.partition('.')[0] for name in sys.modules}\n"
        "foreign = tops - set(sys.stdlib_module_names) - {'nat64scope', '__main__'}\n"
        "print(json.dumps([names, sorted(foreign)]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True,
    )
    names, foreign = json.loads(done.stdout)
    assert {
        "nat64scope.cli",
        "nat64scope.acquire.atlas",
        "nat64scope.acquire.live",
        "nat64scope.simharness.oracle",
    } <= set(names)
    assert foreign == []


def test_every_benchmark_trace_point_names_a_program_function():
    # perfbench/tracing.py wraps program functions by module and name, so a
    # rename or deletion here would silently drop a layer from traced runs.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == set()


class TestDetect:
    def test_offline_outputs(self, tmp_path):
        world = simulate(tmp_path)
        out = tmp_path / "det"
        assert run("detect", "--from-dataset", str(world / "dataset.ndjson"), "--out", str(out)) == EXIT_OK
        doc = read_json(out / "detection.json")
        assert len(doc["probes"]) == 32
        truth = read_json(world / "truth.json")
        for probe_id, planted in truth["probes"].items():
            assert doc["probes"][probe_id]["group"] == planted["group"], probe_id
        table = {row[0]: row[1:] for row in read_csv(out / "test_table.csv")[1:]}
        assert table["dns_test1"] == ["26", "6", "0"]
        assert table["dns_test2"] == ["22", "10", "0"]
        assert table["std_prefix_ping"] == ["13", "19", "0"]
        assert table["custom_prefix_ping"] == ["12", "0", "0"]
        groups = dict(read_csv(out / "groups.csv")[1:])
        assert groups["nat64_plus_dns64"] == "19"

    def test_detection_json_is_what_detect_dataset_returns(self, tmp_path):
        world = simulate(tmp_path)
        out = tmp_path / "det"
        assert run("detect", "--from-dataset", str(world / "dataset.ndjson"), "--out", str(out)) == EXIT_OK
        report = detect_dataset(
            load_dataset(str(world / "dataset.ndjson")),
            public_prefixes=catalogs.load_public_prefixes(),
            public_resolvers=catalogs.load_public_resolvers(),
        )
        assert report == read_json(out / "detection.json")

    def test_empty_dataset_is_fine(self, tmp_path):
        empty = tmp_path / "empty.ndjson"
        buf = io.StringIO()
        write_dataset(Dataset(probes={}, runs=(), paths=()), buf)
        empty.write_text(buf.getvalue())
        out = tmp_path / "det"
        assert run("detect", "--from-dataset", str(empty), "--out", str(out)) == EXIT_OK
        for row in read_csv(out / "test_table.csv")[1:]:
            assert row[1:] == ["0", "0", "0"]

    def test_missing_dataset_is_config_error(self, tmp_path):
        assert run("detect", "--from-dataset", str(tmp_path / "no.ndjson"), "--out", str(tmp_path / "x")) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "field, value",
        [("timestamp", '"soon"'), ("hops", "5"), ("rtts_ms", '["x"]')],
    )
    def test_wrong_field_type_is_one_line_config_error(self, tmp_path, capsys, field, value):
        world = simulate(tmp_path)
        lines = (world / "dataset.ndjson").read_text().splitlines()
        kind = "test_run" if field == "timestamp" else "traceroute"
        index = next(i for i, line in enumerate(lines) if f'"record":"{kind}"' in line)
        doc = json.loads(lines[index])
        if field == "rtts_ms":
            doc["hops"][0]["rtts_ms"] = json.loads(value)
        else:
            doc[field] = json.loads(value)
        lines[index] = json.dumps(doc)
        bad = tmp_path / "bad.ndjson"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run("detect", "--from-dataset", str(bad), "--out", str(tmp_path / "x"))
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and "1 problem(s): line " in err


class TestClassify:
    def test_outputs_with_ip2as(self, tmp_path):
        world = simulate(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ip2as": str(world / "ip2as.tsv")}))
        out = tmp_path / "cls"
        assert run(
            "classify",
            "--from-dataset", str(world / "dataset.ndjson"),
            "--config", str(config),
            "--out", str(out),
        ) == EXIT_OK
        categories = dict(read_csv(out / "categories.csv")[1:])
        assert categories["isp_dns64"] == "17"
        assert categories["home_setup"] == "2"
        assert categories["remote_nat64"] == "4"
        assert categories["public_resolver_only"] == "4"
        assert categories["unknown"] == "5"
        evidence = read_csv(out / "evidence.csv")
        assert len(evidence) > 1
        doc = read_json(out / "classification.json")
        assert set(doc["probes"]) == set(read_json(world / "truth.json")["probes"])

    def test_requires_dataset(self, tmp_path):
        assert run("classify", "--out", str(tmp_path / "x")) == EXIT_CONFIG

    def test_evidence_keys_in_text_order_and_rows_in_numeric_order(self, tmp_path):
        # Under sort_keys, json orders int keys as numbers: the evidence
        # object must stay keyed by text for its order to hold.
        resolver = ipaddress.IPv6Address("2001:db8:53::1")
        ds = Dataset()
        for asn in (64500, 10, 9):
            for n in (1, 2):
                pid = f"as{asn}-{n}"
                network = ipaddress.IPv6Network(f"2001:db8:{asn:x}:{n}::/64")
                ds.probes[pid] = ProbeRecord(
                    pid, asn, asn, resolvers=(resolver,), network_prefix_v6=network
                )
                ds.runs.append(
                    TestRun(pid, TestKind.DNS_TEST1, 0, RawOutcome.PASS,
                            observed_prefix=STANDARD_PREFIX, resolver_used=resolver)
                )
        dataset = tmp_path / "ases.ndjson"
        write_file(ds, dataset)
        out = tmp_path / "cls"
        assert run("classify", "--from-dataset", str(dataset), "--out", str(out)) == EXIT_OK
        evidence = read_json(out / "classification.json")["evidence"]
        assert list(evidence) == ["10", "64500", "9"]
        assert all(ev["is_isp_dns64"] for ev in evidence.values())
        rows = read_csv(out / "evidence.csv")[1:]
        assert [row[0] for row in rows] == ["9", "10", "64500"]

    def test_probe_without_ipv4_as_is_not_located(self, tmp_path):
        # A null AS number is valid; the translator's location then stays
        # unknown instead of stopping the command.
        world = simulate(tmp_path)
        dataset = tmp_path / "no_v4_as.ndjson"
        text = (world / "dataset.ndjson").read_text()
        probe = '"asn_v4":65001,"asn_v6":65001,"network_prefix_v6":"2001:db8:1040::/64"'
        assert text.count(probe) == 1
        dataset.write_text(text.replace(probe, probe.replace('"asn_v4":65001', '"asn_v4":null')))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ip2as": str(world / "ip2as.tsv")}))
        out = tmp_path / "cls"
        assert run(
            "classify", "--from-dataset", str(dataset), "--config", str(config),
            "--out", str(out),
        ) == EXIT_OK
        probes = read_json(out / "classification.json")["probes"]
        assert probes["sim001"]["nat_location"] is None
        assert probes["sim002"]["nat_location"] == "all_equal"

    def test_asn_above_the_largest_is_one_line_config_error(self, tmp_path, capsys):
        # AS numbers are four octets. Loaded as it stood, this sim001 came
        # out nat_in_v6_as instead of all_equal.
        world = simulate(tmp_path)
        dataset = tmp_path / "big_asn.ndjson"
        text = (world / "dataset.ndjson").read_text()
        probe = '"asn_v4":65001,"asn_v6":65001,"network_prefix_v6":"2001:db8:1040::/64"'
        assert text.count(probe) == 1
        dataset.write_text(text.replace(probe, probe.replace("65001", "99999999999999999999", 1)))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ip2as": str(world / "ip2as.tsv")}))
        capsys.readouterr()
        code = run(
            "classify", "--from-dataset", str(dataset), "--config", str(config),
            "--out", str(tmp_path / "cls"),
        )
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1
        assert "line 2: asn_v4 99999999999999999999 is above the largest AS number" in err

    def test_single_witness_warning(self, tmp_path, capsys):
        scenario = tmp_path / "one.txt"
        scenario.write_text("count=1 resolver=dns64 nat=working\n")
        out = tmp_path / "one"
        assert run("simulate", "--scenario", str(scenario), "--out", str(out)) == EXIT_OK
        assert run("classify", "--from-dataset", str(out / "dataset.ndjson"), "--out", str(tmp_path / "c")) == EXIT_OK
        err = capsys.readouterr().err
        assert "two independent witnesses" in err

    def test_local_translator_recorded_per_probe(self, tmp_path):
        # Translator timing is reported for every probe; in the template
        # world only the home set-ups answer from a local translator.
        world = simulate(tmp_path)
        out = tmp_path / "cls"
        assert run("classify", "--from-dataset", str(world / "dataset.ndjson"), "--out", str(out)) == EXIT_OK
        probes = read_json(out / "classification.json")["probes"]
        assert all("local_nat" in doc for doc in probes.values())
        local = {p for p, doc in probes.items() if doc["local_nat"] is True}
        truth = read_json(world / "truth.json")["probes"]
        assert local == {p for p, doc in truth.items() if doc["home"]}
        assert len(local) == 2

    def test_warns_without_ip2as(self, tmp_path, capsys):
        world = simulate(tmp_path)
        out = tmp_path / "cls"
        assert run("classify", "--from-dataset", str(world / "dataset.ndjson"), "--out", str(out)) == EXIT_OK
        assert "ip2as" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,text,line",
        [
            ("as_categories", "64500,OI\n-1,OI\n", 2),
            ("as_categories", "4294967296,H\n", 1),
            ("ip2as", "10.0.0.0/8 99999999999999999999\n", 1),
            ("ip2as", "10.0.0.0/8 0\n", 1),
        ],
    )
    def test_bad_table_is_the_only_stderr_line(self, tmp_path, capsys, key, text, line):
        # No ip2as in the as_categories cases: its warning must not come first.
        world = simulate(tmp_path)
        table = tmp_path / "table.txt"
        table.write_text(text)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: str(table)}))
        capsys.readouterr()
        code = run(
            "classify", "--from-dataset", str(world / "dataset.ndjson"), "--config", str(config),
            "--out", str(tmp_path / "cls"),
        )
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and err.startswith("config error:")
        assert f"{table}:{line}: AS number must be in 1..4294967295" in err

    def test_unknown_category_code_is_the_only_stderr_line(self, tmp_path, capsys):
        # U is a code of its own (an explicit unknown); a code outside the
        # catalog's names the file and line.
        world = simulate(tmp_path)
        table = tmp_path / "cats.txt"
        table.write_text("64500,U\n64501,XX\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"as_categories": str(table)}))
        capsys.readouterr()
        code = run(
            "classify", "--from-dataset", str(world / "dataset.ndjson"), "--config", str(config),
            "--out", str(tmp_path / "cls"),
        )
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and err.startswith("config error:")
        assert f"{table}:2: 'XX' is not a valid ASCategory" in err


class TestPaths:
    def test_summary_accounting(self, tmp_path):
        world = simulate(tmp_path)
        out = tmp_path / "paths"
        assert run("paths", "--from-dataset", str(world / "dataset.ndjson"), "--out", str(out)) == EXIT_OK
        doc = read_json(out / "summary.json")
        acct = doc["accounting"]
        assert acct["pairs"] == 156
        assert acct["unpaired"] == 0
        assert acct["kept"] == 138
        assert acct["excluded"] == {"NoNatHop": 18}
        assert acct["ttl_anomaly_excluded"] == 0
        assert doc["stats"]["ttl_anomaly_pairs"] == 6
        rows = read_csv(out / "pairs.csv")
        assert len(rows) - 1 == acct["kept"]
        for name in ("per_target.csv", "per_prefix.csv", "groups.csv", "missing_hop_histogram.csv"):
            assert (out / name).is_file(), name

    def test_set_aside_counts_match_a_brute_force_count(self, tmp_path):
        # The template world, edited: its first native path dropped, its
        # last translated path written twice, and every hop answering as
        # the second target silenced, so that no path reaches it.
        world = simulate(tmp_path)
        header, *records = [
            json.loads(line) for line in (world / "dataset.ndjson").read_text().splitlines()
        ]
        paths = [r for r in records if r["record"] == "traceroute"]
        dropped = next(p for p in paths if p["family"] == "ipv4")
        repeated = [p for p in paths if p["family"] == "nat64"][-1]

        def prefix_net(path):
            prefix = path["prefix"]
            return ipaddress.IPv6Network(f"{prefix['base']}/{prefix['length']}")

        def address(hop):
            return hop["address"] and ipaddress.ip_address(hop["address"])

        def answering_as_target(path):
            target = ipaddress.IPv4Address(path["target_v4"])
            if path["family"] == "nat64":
                target = synthesize(Nat64Prefix.from_cidr(str(prefix_net(path))), target)
            return [hop for hop in path["hops"] if address(hop) == target]

        for path in paths:
            if path["target_v4"] == "198.51.100.20":
                for hop in answering_as_target(path):
                    hop["address"], hop["rtts_ms"] = None, []
        edited = [p for p in paths if p is not dropped] + [repeated]
        dataset = tmp_path / "edited.ndjson"
        dataset.write_text("".join(
            json.dumps(r, sort_keys=True) + "\n"
            for r in [header] + [r for r in records if r["record"] != "traceroute"] + edited
        ))

        # Pairing: the first path per key counts, later ones are set aside.
        natives, translated, unpaired = {}, {}, 0
        for path in edited:
            key = (path["probe_id"], path["target_v4"], path["round"])
            if path["family"] == "ipv4":
                table = natives
            else:
                table, key = translated, key + (str(prefix_net(path)),)
            if key in table:
                unpaired += 1
            else:
                table[key] = path
        pairs = [(natives[k[:3]], nat) for k, nat in translated.items() if k[:3] in natives]
        unpaired += sum(k[:3] not in natives for k in translated)
        unpaired += sum(all(k[:3] != n for k in translated) for n in natives)

        # Filtering, in its order of precedence.
        targets = {nat["target_v4"] for _, nat in pairs}
        alive = {
            nat["target_v4"] for v4, nat in pairs
            if answering_as_target(v4) or answering_as_target(nat)
        }

        def round_targets(nat):
            return {
                other["target_v4"] for _, other in pairs
                if (other["probe_id"], other["round"], prefix_net(other))
                == (nat["probe_id"], nat["round"], prefix_net(nat))
            }

        excluded = {}
        for _, nat in pairs:
            if round_targets(nat) != targets:
                reason = "IncompleteRound"
            elif nat["target_v4"] not in alive:
                reason = "DeadTarget"
            elif not any(address(hop) in prefix_net(nat) for hop in nat["hops"] if address(hop)):
                reason = "NoNatHop"
            else:
                continue
            excluded[reason] = excluded.get(reason, 0) + 1
        assert unpaired > 0 and set(excluded) == {"IncompleteRound", "DeadTarget", "NoNatHop"}

        out = tmp_path / "paths"
        assert run("paths", "--from-dataset", str(dataset), "--out", str(out)) == EXIT_OK
        acct = read_json(out / "summary.json")["accounting"]
        assert acct["paths"] == len(edited)
        assert acct["pairs"] == len(pairs)
        assert acct["unpaired"] == unpaired
        assert acct["excluded"] == excluded
        assert acct["kept"] == len(pairs) - sum(excluded.values())

    def test_exclude_ttl_anomaly(self, tmp_path):
        world = simulate(tmp_path)
        out = tmp_path / "paths"
        assert run(
            "paths", "--from-dataset", str(world / "dataset.ndjson"),
            "--exclude-ttl-anomaly", "--out", str(out),
        ) == EXIT_OK
        acct = read_json(out / "summary.json")["accounting"]
        assert acct["ttl_anomaly_excluded"] == 6
        assert acct["kept"] == 132
        assert read_json(out / "summary.json")["stats"]["ttl_anomaly_pairs"] == 0

    def test_final_round_drops_one_round(self, tmp_path):
        world = simulate(tmp_path)
        out = tmp_path / "paths"
        assert run(
            "paths", "--from-dataset", str(world / "dataset.ndjson"),
            "--final-round", "2", "--out", str(out),
        ) == EXIT_OK
        acct = read_json(out / "summary.json")["accounting"]
        assert acct["excluded"]["TrailingRound"] == 156 // 3
        assert acct["kept"] + sum(acct["excluded"].values()) == acct["pairs"]

    def test_requires_dataset(self, tmp_path):
        assert run("paths", "--out", str(tmp_path / "x")) == EXIT_CONFIG

    def test_negative_final_round_is_usage_error(self, tmp_path, capsys):
        world = simulate(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(
                "paths", "--from-dataset", str(world / "dataset.ndjson"),
                "--final-round", "-1", "--out", str(tmp_path / "x"),
            )
        assert exc.value.code == EXIT_CONFIG
        assert "--final-round" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_zero_ipv4_rtt_pair_is_kept_without_metrics(self, tmp_path):
        # The RTT percentage divides by the IPv4 target RTT: 0 ms leaves it undefined.
        target = ipaddress.IPv4Address("198.51.100.10")
        v6 = ipaddress.IPv6Address
        dataset = Dataset()
        dataset.probes["p1"] = ProbeRecord("p1", 64500, 64500)
        dataset.paths += [
            TraceroutePath("p1", PathFamily.IPV4, None, target, 0, (
                Hop(1, ipaddress.IPv4Address("10.0.0.1"), (0.0,)), Hop(2, target, (0.0,)),
            )),
            TraceroutePath("p1", PathFamily.NAT64, STANDARD_PREFIX, target, 0, (
                Hop(1, v6("64:ff9b::a00:1"), (1.0,)), Hop(2, v6("64:ff9b::c633:640a"), (2.0,)),
            )),
        ]
        path = tmp_path / "zero.ndjson"
        write_file(dataset, path)
        out = tmp_path / "paths"
        assert run("paths", "--from-dataset", str(path), "--out", str(out)) == EXIT_OK
        doc = read_json(out / "summary.json")
        assert doc["accounting"]["pairs"] == doc["accounting"]["kept"] == 1
        assert doc["stats"]["metrics"] == {}
        assert read_csv(out / "pairs.csv")[1] == ["p1", str(target), "64:ff9b::/96", "0"] + [""] * 6

        kept, _ = filter_pairs(pair_paths(load_dataset(str(path)).paths)[0])
        assert compare(aggregate_report(kept, compute_metrics(kept), {}), oracle_stats(kept)) == []

    @staticmethod
    def paths_with_target_rtts(tmp_path, capsys, rtts):
        """``paths`` over the seed-42 world with one IPv4 target hop's RTTs
        replaced: its exit code, its stderr and the problem's prefix."""
        world = simulate(tmp_path)
        lines = (world / "dataset.ndjson").read_text().splitlines()
        for lineno, line in enumerate(lines, start=1):
            doc = json.loads(line)
            if doc["record"] == "traceroute" and doc["family"] == "ipv4":
                target = [h for h in doc["hops"] if h["address"] == doc["target_v4"]]
                if target and target[0]["rtts_ms"]:
                    target[0]["rtts_ms"] = rtts
                    lines[lineno - 1] = json.dumps(doc)
                    break
        dataset = tmp_path / "hostile.ndjson"
        dataset.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run("paths", "--from-dataset", str(dataset), "--out", str(tmp_path / "p"))
        where = f"line {lineno}: {doc['probe_id']}: hop {target[0]['index']}"
        return code, capsys.readouterr().err, where

    @pytest.mark.parametrize("rtts", [[1.7e308] * 3, [5e-324]])
    def test_rtt_outside_the_range_is_one_line_config_error(self, tmp_path, capsys, rtts):
        # Each once crashed ``paths``: the first overflowed the mean of the
        # target RTTs, the second made the RTT percentage infinite.
        code, err, where = self.paths_with_target_rtts(tmp_path, capsys, rtts)
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1
        assert f"{where} has invalid RTT" in err

    def test_bad_rtts_of_one_hop_are_one_problem_that_names_the_range(self, tmp_path, capsys):
        code, err, where = self.paths_with_target_rtts(tmp_path, capsys, [1.7e308] * 3)
        assert code == EXIT_CONFIG
        assert err.endswith(
            f": 1 problem(s): {where} has invalid RTTs [1.7e+308, 1.7e+308, 1.7e+308]"
            " (each must be 0, or 0.001 to 10,000,000 ms)\n"
        )

    def test_final_round_no_pair_has_drops_nothing(self, tmp_path):
        world = simulate(tmp_path)
        out = tmp_path / "paths"
        assert run(
            "paths", "--from-dataset", str(world / "dataset.ndjson"),
            "--final-round", "99", "--out", str(out),
        ) == EXIT_OK
        assert "TrailingRound" not in read_json(out / "summary.json")["accounting"]["excluded"]


class TestConfig:
    def test_dns_test2_defaults(self, tmp_path):
        # With no dns2_* keys the NIST name and its published address apply.
        config = tmp_path / "config.json"
        config.write_text("{}")
        for loaded in (load_config(None), load_config(str(config))):
            assert loaded["dns2_name"] == "time-c-b.nist.gov."
            assert loaded["dns2_answers"] == (ipaddress.IPv4Address("132.163.96.3"),)

    def test_unknown_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        for doc in ({"resolver": ["8.8.8.8"]}, {"concurrency": 4}, {"a\nb": 1}):
            config.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run("atlas-spec", "--config", str(config), "--out", str(tmp_path / "x")) == EXIT_CONFIG
            assert capsys.readouterr().err.count("\n") == 1  # a key's line break is escaped

    def test_missing_referenced_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        for name in ("absent.tsv", "absent\r\nname.tsv"):
            config.write_text(json.dumps({"ip2as": str(tmp_path / name)}))
            capsys.readouterr()
            assert run("atlas-spec", "--config", str(config), "--out", str(tmp_path / "x")) == EXIT_CONFIG
            assert capsys.readouterr().err.count("\n") == 1

    def test_invalid_json(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        assert run("atlas-spec", "--config", str(config), "--out", str(tmp_path / "x")) == EXIT_CONFIG

    def test_bad_target_address(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"targets": ["not-an-ip"]}))
        assert run("atlas-spec", "--config", str(config), "--out", str(tmp_path / "x")) == EXIT_CONFIG

    def test_zero_repeat(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"repeat": 0}))
        assert run("atlas-spec", "--config", str(config), "--out", str(tmp_path / "x")) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "doc",
        [
            {"ip2as": ["a"]},
            {"public_prefixes": 1},
            {"dns2_name": 7},
            {"resolvers": [5]},
            {"targets": 5},
            {"repeat": True},
            {"dns2_name": "a" * 64 + ".example."},
            {"dns2_name": "exämple.com."},
            {"dns2_name": ".".join(["a" * 63] * 5) + "."},
            {"dns2_name": "a\nb.example."},
            {"dns2_name": "a b.example."},
            {"dns2_name": "a..b."},
            {"dns2_name": ""},
            {"dns2_name": "."},
            {"dns2_name": ".a."},
            {"dns2_name": "a.."},
            {"resolvers": ["not-an-address"]},
            {"dns2_answers": []},
        ],
    )
    def test_wrong_value_type_is_one_line_config_error(self, tmp_path, capsys, doc):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run("atlas-spec", "--config", str(config), "--out", str(tmp_path / "x"))
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and err.startswith("config error:") and next(iter(doc)) in err

    @pytest.mark.parametrize(
        "name", ["a" * 63 + ".example.", "sub.example.net", ".".join(["a" * 63] * 3 + ["b" * 61]) + "."]
    )
    def test_dns2_name_within_the_rules_is_queried(self, tmp_path, name):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dns2_name": name}))
        out = tmp_path / "spec"
        assert run("atlas-spec", "--config", str(config), "--out", str(out)) == EXIT_OK
        queried = [d["query_argument"] for d in read_json(out / "atlas_spec.json") if d["type"] == "dns"]
        assert queried == ["ipv4only.arpa.", name]

    @pytest.mark.parametrize(
        "argv",
        [("simulate", "--scenario"), ("detect", "--config"), ("atlas-spec", "--config")],
    )
    def test_non_utf8_file_is_one_line_config_error(self, tmp_path, capsys, argv):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"count=1 \xff\n")
        capsys.readouterr()
        code = run(*argv, str(bad), "--out", str(tmp_path / "x"))
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and err.startswith("config error:") and str(bad) in err

    @pytest.mark.parametrize("argv", [("atlas-spec", "--config"), ("detect", "--config")])
    @pytest.mark.parametrize(
        "text, why",
        [
            ("[" * 200_000 + "]" * 200_000, "recursion"),  # nested past the decoder's stack
            ('{"repeat": ' + "9" * 5000 + "}", "digits"),  # past the int conversion limit
        ],
        ids=["nested-200k-deep", "5000-digit-int"],
    )
    def test_undecodable_json_is_one_line_config_error(self, tmp_path, capsys, argv, text, why):
        config = tmp_path / "config.json"
        config.write_text(text)
        capsys.readouterr()
        code = run(*argv, str(config), "--out", str(tmp_path / "x"))
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and err.startswith("config error:") and why in err


@pytest.mark.parametrize(
    "argv",
    [
        ("detect", "--concurrency", "1", "--from-dataset", "d.ndjson"),
        ("atlas-fetch", "--measurement", "1", "--base-url", "X"),
        ("atlas-fetch", "--measurement", "1"),
    ],
)
def test_removed_flags_are_usage_errors(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--out", str(tmp_path / "x"))
    assert exc.value.code == EXIT_CONFIG


# False: --out names a regular file; True: a path beneath one.
@pytest.mark.parametrize("case", [False, True, "empty", "overlong"])
def test_out_naming_a_file_is_one_line_config_error(tmp_path, capsys, case):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    out = {
        False: blocker,
        True: blocker / "sub",
        "empty": "",
        "overlong": tmp_path / ("x" * 300),
    }[case]
    capsys.readouterr()
    assert run("simulate", "--out", str(out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and str(out) in err


def test_out_refused_by_the_system_stays_exit_1(tmp_path, capsys, monkeypatch):
    def refuse(path, exist_ok=False):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(os, "makedirs", refuse)
    capsys.readouterr()
    assert run("atlas-spec", "--out", str(tmp_path / "x")) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "Permission denied" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (("simulate",), "truth.json"),
        (("simulate",), "ip2as.tsv"),
        (("detect", "--from-dataset"), "detection.json"),
        (("classify", "--from-dataset"), "evidence.csv"),
        (("paths", "--from-dataset"), "missing_hop_histogram.csv"),
        (("atlas-spec",), "atlas_spec.json"),
    ],
)
def test_output_name_taken_by_a_directory_is_one_line_config_error(
    template_world, tmp_path, capsys, argv, name
):
    root, config, _ = template_world
    if "--from-dataset" in argv:
        # classify reads the ip2as table, so it warns of nothing first.
        argv += (str(root / "world" / "dataset.ndjson"), "--config", str(config))
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    capsys.readouterr()
    assert run(*argv, "--out", str(out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and str(out / name) in err


def test_output_file_refused_by_the_system_stays_exit_1(tmp_path, capsys, monkeypatch):
    def refuse(path, mode="r", **_):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    capsys.readouterr()
    assert run("atlas-spec", "--out", str(tmp_path / "x")) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "Permission denied" in err


class FullDisk:
    """An output file whose ``write`` or ``close`` fails as on a full disk,
    after the real call, so that what it wrote stays on disk."""

    def __init__(self, handle, when):
        self._handle, self._when = handle, when

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def _fail(self, when):
        if self._when == when:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text):
        count = self._handle.write(text)
        self._fail("write")
        return count

    def close(self):
        self._handle.close()
        self._fail("close")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@pytest.mark.parametrize("when", ["write", "close"])
@pytest.mark.parametrize(
    "argv, name",
    [
        (("simulate",), "dataset.ndjson"),
        (("simulate",), "truth.json"),
        (("paths", "--from-dataset"), "summary.json"),
    ],
)
def test_output_file_left_unwritten_is_one_line_exit_1(
    template_world, tmp_path, capsys, monkeypatch, argv, name, when
):
    def open_full(path, *args, **kwargs):
        handle = open(path, *args, **kwargs)
        return FullDisk(handle, when) if os.path.basename(path) == name else handle

    root, _, _ = template_world
    if "--from-dataset" in argv:
        argv += (str(root / "world" / "dataset.ndjson"),)
    out = tmp_path / "out"
    monkeypatch.setattr(cli, "open", open_full, raising=False)
    capsys.readouterr()
    assert run(*argv, "--out", str(out)) == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: cannot write output file {out / name}: No space left on device\n"
    )
    assert not (out / name).exists()


class TestInputErrors:
    """The dataset and every side table: unreadable or unparsable is exit 2, one line."""

    CASES = {
        # name: (config key, or None for --from-dataset; file text, or None for a directory)
        "dataset-directory": (None, None),
        "ip2as-directory": ("ip2as", None),
        "public_prefixes-directory": ("public_prefixes", None),
        "public_resolvers-directory": ("public_resolvers", None),
        "as_categories-directory": ("as_categories", None),
        "public_prefixes-bad-line": ("public_prefixes", "2001:db8::zz/96\n"),
    }

    @pytest.mark.parametrize("key, text", list(CASES.values()), ids=list(CASES))
    def test_one_line_config_error(self, tmp_path, capsys, key, text):
        bad = tmp_path / "bad"
        if text is None:
            bad.mkdir()
        else:
            bad.write_text(text)
        dataset = tmp_path / "empty.ndjson"
        write_file(Dataset(), dataset)
        ip2as = tmp_path / "ip2as.tsv"
        ip2as.write_text("192.0.2.0/24 64500\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ip2as": str(ip2as), **({key: str(bad)} if key else {})}))
        capsys.readouterr()
        code = run(
            "classify",
            "--from-dataset", str(bad if key is None else dataset),
            "--config", str(config),
            "--out", str(tmp_path / "out"),
        )
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and str(bad) in err

    def test_probe_id_that_is_not_text_is_one_line_config_error(self, tmp_path, capsys):
        # "\ud800" is a lone surrogate: the file stays ASCII and loads, but
        # the name cannot be written to a UTF-8 report.
        world = simulate(tmp_path)
        dataset = tmp_path / "renamed.ndjson"
        text = (world / "dataset.ndjson").read_text()
        dataset.write_text(text.replace('"sim001"', '"sim\\ud800"'))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ip2as": str(world / "ip2as.tsv")}))
        for command in ("detect", "classify", "paths"):
            capsys.readouterr()
            code = run(
                command, "--from-dataset", str(dataset), "--config", str(config),
                "--out", str(tmp_path / command),
            )
            err = capsys.readouterr().err
            assert code == EXIT_CONFIG, command
            assert err.count("\n") == 1 and "probe_id is not valid Unicode text" in err


class TestErrorContract:
    """Every single-field mutation of a tiny dataset ends in exit 0 or 2, never a raise."""

    STD = {"base": "64:ff9b::", "kind": "standard", "length": 96}
    HEADER = {"capture_window": [1700000000, 1700000100], "record": "header", "schema": 1}
    PROBE = {
        "asn_v4": 65001, "asn_v6": 65001, "network_prefix_v6": "2001:db8:1040::/64",
        "probe_id": "p1", "record": "probe", "resolvers": ["2001:db8:5301::53"], "tags": [],
    }
    DNS_RUN = {
        "diagnostic": None, "observed_prefix": STD, "probe_id": "p1", "raw_outcome": "pass",
        "record": "test_run", "resolver_used": "2001:db8:5301::53", "test_kind": "dns_test1",
        "timestamp": 1700000000,
    }
    DNS2_RUN = {**DNS_RUN, "test_kind": "dns_test2", "timestamp": 1700000010}
    PING_RUN = {
        **DNS_RUN, "resolver_used": None, "test_kind": "std_prefix_ping", "timestamp": 1700000020,
    }
    V4_PATH = {
        "family": "ipv4",
        "hops": [
            {"address": "10.1.0.254", "index": 1, "rtts_ms": [0.7, 0.8]},
            {"address": "203.0.113.8", "index": 2, "rtts_ms": [1.4, 1.5]},
            {"address": None, "index": 3, "rtts_ms": []},
            {"address": "198.51.100.10", "index": 4, "rtts_ms": [4.9, 5.0]},
        ],
        "prefix": None, "probe_id": "p1", "record": "traceroute", "round": 0,
        "target_v4": "198.51.100.10",
    }
    NAT64_PATH = {
        "family": "nat64",
        "hops": [
            {"address": "2001:db8:1040::1", "index": 1, "rtts_ms": [0.4, 0.5]},
            {"address": "64:ff9b::c000:202", "index": 2, "rtts_ms": [8.0, 8.1]},
            {"address": "64:ff9b::cb00:7108", "index": 3, "rtts_ms": [8.7, 8.8]},
            {"address": "64:ff9b::cb00:7109", "index": 4, "rtts_ms": [9.4, 9.5]},
            {"address": "64:ff9b::c633:640a", "index": 5, "rtts_ms": [12.2, 12.3]},
        ],
        "prefix": STD, "probe_id": "p1", "record": "traceroute", "round": 0,
        "target_v4": "198.51.100.10",
    }
    RECORDS = (HEADER, PROBE, DNS_RUN, DNS2_RUN, PING_RUN, V4_PATH, NAT64_PATH)
    VALUES = (
        None, True, 0, -1, 1.5, 1e308, "", "x", [], {}, [1], {"a": 1}, 10**30,
        "192.0.2.1", "2001:db8::1", "2001:db8::/32",
    )

    # Where each mutated field lives, by record kind.
    TARGETS = {
        "header": lambda docs: docs[0],
        "probe": lambda docs: docs[1],
        "dns": lambda docs: docs[2],
        "ping": lambda docs: docs[4],
        "v4": lambda docs: docs[5],
        "nat64": lambda docs: docs[6],
        "hop": lambda docs: docs[6]["hops"][1],  # the first translated hop
        "prefix": lambda docs: docs[6]["prefix"],
    }

    def mutations(self, where):
        """(name, records) for each field of one record kind set to each value."""
        if where == "surrogate":
            renamed = json.loads(json.dumps(self.RECORDS).replace('"p1"', '"\\ud800"'))
            yield "probe renamed to a lone surrogate", renamed
            return
        pick = self.TARGETS[where]
        for field in sorted(pick(self.RECORDS)):
            for value in self.VALUES:
                docs = json.loads(json.dumps(self.RECORDS))
                pick(docs)[field] = value
                yield f"{where}.{field}={value!r}", docs

    @pytest.mark.parametrize("where", [*TARGETS, "surrogate"])
    def test_every_mutation_is_exit_0_or_2(self, tmp_path, capsys, where):
        ip2as = tmp_path / "ip2as.tsv"
        ip2as.write_text("10.1.0.0/24 65001\n192.0.2.0/24 64500\n198.51.100.0/24 64501\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ip2as": str(ip2as)}))
        dataset = tmp_path / "dataset.ndjson"
        commands = (
            ("detect",),
            ("classify", "--config", str(config)),
            ("paths", "--exclude-ttl-anomaly"),
        )
        failures = []
        capsys.readouterr()
        for k, (name, docs) in enumerate(self.mutations(where)):
            dataset.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
            try:
                load_dataset(str(dataset))
                chosen = commands
            except ValueError:
                # Refused at load, which the three commands share before
                # anything of their own: one of them in turn checks the exit.
                chosen = (commands[k % len(commands)],)
            for command in chosen:
                argv = (*command, "--from-dataset", str(dataset), "--out", str(tmp_path / "out"))
                try:
                    code = run(*argv)
                except Exception as exc:  # noqa: BLE001 - the contract under test
                    failures.append(f"{name}: {command[0]} raised {exc!r}")
                    capsys.readouterr()
                    continue
                err = capsys.readouterr().err
                if code not in (EXIT_OK, EXIT_CONFIG):
                    failures.append(f"{name}: {command[0]} exit {code}")
                elif code == EXIT_CONFIG and err.count("\n") != 1:
                    failures.append(f"{name}: {command[0]} printed {err!r}")
        assert failures == []


@pytest.fixture(scope="module")
def template_world(tmp_path_factory):
    """The seed-42 template world's dataset lines, parsed, and a config naming its ip2as."""
    root = tmp_path_factory.mktemp("whole-lines")
    world = simulate(root)
    config = root / "config.json"
    config.write_text(json.dumps({"ip2as": str(world / "ip2as.tsv")}))
    lines = (world / "dataset.ndjson").read_text().splitlines()
    return root, config, [json.loads(line) for line in lines]


RECORD_KINDS = ("header", "probe", "test_run", "traceroute")

@st.composite
def whole_line_mutations(draw, docs):
    """(line index, new record): one line with keys dropped, its kind swapped,
    fields spliced in from another line, or fields set to any JSON value."""
    index = draw(st.integers(0, len(docs) - 1))
    doc = dict(docs[index])
    fields = sorted({key for other in docs for key in other})
    for step in draw(st.lists(st.sampled_from(("drop", "kind", "splice", "set")), min_size=1, max_size=3)):
        if step == "drop" and doc:
            for key in draw(st.lists(st.sampled_from(sorted(doc)), min_size=1, unique=True)):
                del doc[key]
        elif step == "kind":
            doc["record"] = draw(st.sampled_from(RECORD_KINDS))
        elif step == "splice":
            other = docs[draw(st.integers(0, len(docs) - 1))]
            for key in draw(st.lists(st.sampled_from(sorted(other)), min_size=1, unique=True)):
                doc[key] = other[key]
        else:
            doc[draw(st.sampled_from(fields))] = draw(json_values)
    return index, doc


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_whole_line_mutations_are_exit_0_or_2(template_world, data):
    root, config, docs = template_world
    index, doc = data.draw(whole_line_mutations(docs))
    lines = [json.dumps(d) for d in docs]
    lines[index] = json.dumps(doc)
    dataset = root / "dataset.ndjson"
    dataset.write_text("".join(line + "\n" for line in lines))
    trim = data.draw(st.sampled_from([(), ("--exclude-ttl-anomaly", "--final-round", "1")]))
    for command in (("detect",), ("classify", "--config", str(config)), ("paths", *trim)):
        exits_0_or_2(*command, "--from-dataset", str(dataset), "--out", str(root / "out"))


def exits_0_or_2(*argv):
    """Run one command: it must exit 0, or exit 2 with exactly one stderr line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(*argv)
    assert code in (EXIT_OK, EXIT_CONFIG), argv
    if code == EXIT_CONFIG:
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())


CONFIG_KEYS = sorted(cli._DEFAULTS)


@st.composite
def config_texts(draw, world):
    """A config file's text: a valid document with keys dropped, set to any
    JSON value, an address or one of the world's paths, or an unknown key
    added; or the document cut short, or not an object at all."""
    doc = {
        "ip2as": str(world / "ip2as.tsv"),
        "targets": ["198.51.100.10"],
        "dns2_name": "time-c-b.nist.gov.",
        "dns2_answers": ["132.163.96.3"],
        "resolvers": ["2001:db8::53"],
        "repeat": 2,
    }
    paths = [str(world), *(str(world / name) for name in sorted(os.listdir(world)))]
    values = st.one_of(
        json_values,
        st.sampled_from(paths),
        st.sampled_from(["192.0.2.1", "2001:db8::1", "64:ff9b::/96", "a..b", "\ud800"]),
        st.lists(st.sampled_from(["198.51.100.10", "::1", "x", ""]), max_size=3),
    )
    for step in draw(st.lists(st.sampled_from(("drop", "set", "unknown")), max_size=4)):
        if step == "drop" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif step == "set":
            doc[draw(st.sampled_from(CONFIG_KEYS))] = draw(values)
        elif step == "unknown":
            doc[draw(st.text(max_size=6))] = draw(values)
    # One document in four is replaced, and one text in four is cut short.
    text = json.dumps(draw(json_values) if draw(st.integers(0, 3)) == 0 else doc)
    if draw(st.integers(0, 3)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_config_mutations_are_exit_0_or_2(template_world, data):
    root, _, _ = template_world
    world = root / "world"
    config = root / "mutated-config.json"
    config.write_text(data.draw(config_texts(world)), encoding="utf-8")
    analysis = ("--from-dataset", str(world / "dataset.ndjson"))
    for command in (("atlas-spec",), ("detect", *analysis), ("classify", *analysis), ("paths", *analysis)):
        exits_0_or_2(*command, "--config", str(config), "--out", str(root / "out"))


TEMPLATE_LINES = ACCEPTANCE_TEMPLATE.splitlines()
SCENARIO_KEYS = sorted({token.split("=")[0] for line in TEMPLATE_LINES for token in line.split()})
SCENARIO_VALUES = sorted({token.split("=")[1] for line in TEMPLATE_LINES for token in line.split()})


@st.composite
def scenario_texts(draw):
    """Scenario text: up to four template lines, each with tokens dropped,
    set to another value or added, plus stray lines. Counts and pool sizes
    stay small, so every world builds in milliseconds."""
    value = st.one_of(
        st.sampled_from(SCENARIO_VALUES),
        st.integers(-1, 4).map(str),
        st.sampled_from(["256", "10000", "1.5", "", "x"]),
    )
    lines = []
    for line in draw(st.lists(st.sampled_from(TEMPLATE_LINES), min_size=1, max_size=4)):
        tokens = line.split()
        for step in draw(st.lists(st.sampled_from(("drop", "set", "add", "bare")), max_size=3)):
            if step == "drop" and tokens:
                tokens.pop(draw(st.integers(0, len(tokens) - 1)))
            elif step in ("set", "add"):
                token = f"{draw(st.sampled_from(SCENARIO_KEYS))}={draw(value)}"
                if step == "set" and tokens:
                    tokens[draw(st.integers(0, len(tokens) - 1))] = token
                else:
                    tokens.append(token)
            elif step == "bare":
                tokens.append(draw(st.sampled_from(SCENARIO_KEYS)))
        lines.append(" ".join(tokens))
    for _ in range(draw(st.integers(0, 1))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=12)))
    return "\n".join(lines) + "\n"


@settings(max_examples=25, deadline=None)
@given(text=scenario_texts(), seed=st.integers(0, 3))
def test_scenario_mutations_are_exit_0_or_2(template_world, text, seed):
    root, _, _ = template_world
    scenario = root / "mutated-scenario.txt"
    scenario.write_text(text, encoding="utf-8")
    exits_0_or_2("simulate", "--scenario", str(scenario), "--seed", str(seed),
                 "--out", str(root / "simulated"))


class TestAtlasSpec:
    def test_writes_definitions(self, tmp_path):
        out = tmp_path / "spec"
        assert run("atlas-spec", "--out", str(out)) == EXIT_OK
        definitions = read_json(out / "atlas_spec.json")
        assert isinstance(definitions, list)
        types = {d["type"] for d in definitions}
        assert {"dns", "ping", "traceroute"} <= types

    def test_defaults_ping_the_anchor_through_every_known_prefix(self, tmp_path):
        out = tmp_path / "spec"
        assert run("atlas-spec", "--out", str(out)) == EXIT_OK
        definitions = read_json(out / "atlas_spec.json")
        prefixes = (STANDARD_PREFIX, *catalogs.load_public_prefixes())
        assert [d["query_argument"] for d in definitions if d["type"] == "dns"] == [
            "ipv4only.arpa.", load_config(None)["dns2_name"],
        ]
        assert [d["target"] for d in definitions if d["type"] == "ping"] == [
            str(synthesize(prefix, STD_PING_TARGET_V4)) for prefix in prefixes
        ]
        traces = [d for d in definitions if d["type"] == "traceroute"]
        assert len(traces) == 1 + len(prefixes)

    def test_config_names_the_query_targets_and_prefixes(self, tmp_path):
        custom = Nat64Prefix.from_cidr("2001:db8:64::/96")
        prefixes_file = tmp_path / "public_nat64.txt"
        prefixes_file.write_text(f"{custom}\n")
        targets = [ipaddress.IPv4Address("192.0.2.1"), ipaddress.IPv4Address("198.51.100.7")]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "dns2_name": "probe.example.org.",
            "targets": [str(t) for t in targets],
            "public_prefixes": str(prefixes_file),
        }))
        out = tmp_path / "spec"
        assert run("atlas-spec", "--config", str(config), "--out", str(out)) == EXIT_OK
        assert read_json(out / "atlas_spec.json") == measurement_definitions(
            dns2_name="probe.example.org.",
            ping_target_v4=targets[0],
            traceroute_targets=targets,
            prefixes=[STANDARD_PREFIX, custom],
        )

    def test_same_bytes_on_every_run(self, tmp_path):
        for out in ("one", "two"):
            assert run("atlas-spec", "--out", str(tmp_path / out)) == EXIT_OK
        assert (tmp_path / "one" / "atlas_spec.json").read_bytes() == (
            tmp_path / "two" / "atlas_spec.json"
        ).read_bytes()

    def test_unparsable_public_prefixes_is_one_line_config_error(self, tmp_path, capsys):
        bad = tmp_path / "public_nat64.txt"
        bad.write_text("2001:db8::zz/96\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"public_prefixes": str(bad)}))
        capsys.readouterr()
        code = run("atlas-spec", "--config", str(config), "--out", str(tmp_path / "spec"))
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and err.startswith("config error:") and str(bad) in err
        assert not (tmp_path / "spec").exists()


def test_help_lists_the_commands_that_remain(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--help")
    assert exc.value.code == EXIT_OK
    text = capsys.readouterr().out
    for command in ("detect", "classify", "paths", "simulate", "atlas-spec"):
        assert command in text
    assert "atlas-fetch" not in text


class TestLiveDetect:
    """The live orchestration of ``detect``, with both drivers replaced."""

    ANCHOR = STD_PING_TARGET_V4  # the echo target when the config names none
    # Revealed by the first DNS test, but later than PREFIX_A by text.
    PREFIX_B = Nat64Prefix.from_cidr("2001:db8:b::/96")
    PREFIX_A = Nat64Prefix.from_cidr("2001:db8:a::/96")

    def fake_dns_query(self, resolver, qname, qtype, **_):
        if qname == DNS1_NAME:
            embedded = synthesize(self.PREFIX_B, ipaddress.IPv4Address("192.0.0.170"))
        else:
            embedded = synthesize(self.PREFIX_A, ipaddress.IPv4Address("132.163.96.3"))
        return DnsResponse(
            resolver, qname, qtype, DnsStatus.NOERROR, (answer_for(qname, embedded),)
        )

    def test_candidates_no_route_and_dataset(self, tmp_path, monkeypatch):
        echoed = []
        unreachable = synthesize(STANDARD_PREFIX, self.ANCHOR)

        def fake_icmp_echo(target, **_):
            echoed.append(target)
            if target == unreachable:
                raise live.NoRouteError("network is unreachable")
            return (1.5,)

        monkeypatch.setattr(live, "dns_query", self.fake_dns_query)
        monkeypatch.setattr(live, "icmp_echo", fake_icmp_echo)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"resolvers": ["2001:db8::53"], "repeat": 2}))
        out = tmp_path / "live"
        assert run("detect", "--config", str(config), "--out", str(out)) == EXIT_OK

        candidates = [STANDARD_PREFIX, self.PREFIX_A, self.PREFIX_B]
        assert echoed == [synthesize(p, self.ANCHOR) for p in candidates for _ in range(2)]
        dataset = load_dataset(str(out / "dataset.ndjson"))
        pings = [r for r in dataset.runs if not r.test_kind.is_dns]
        assert [r.observed_prefix for r in pings] == [p for p in candidates for _ in range(2)]
        for ping in pings[:2]:
            assert ping.test_kind is TestKind.STD_PREFIX_PING
            assert ping.raw_outcome is RawOutcome.FAIL
            assert ping.diagnostic.startswith("no route: ")
        for ping in pings[2:]:
            assert ping.test_kind is TestKind.CUSTOM_PREFIX_PING
            assert ping.raw_outcome is RawOutcome.PASS
        assert (out / "detection.json").is_file()

    def echoed_targets(self, tmp_path, monkeypatch, dns_query, resolvers, repeat):
        echoed = []

        def fake_icmp_echo(target, **_):
            echoed.append(target)
            return (1.5,)

        monkeypatch.setattr(live, "dns_query", dns_query)
        monkeypatch.setattr(live, "icmp_echo", fake_icmp_echo)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"resolvers": resolvers, "repeat": repeat}))
        out = tmp_path / "live"
        assert run("detect", "--config", str(config), "--out", str(out)) == EXIT_OK
        return echoed

    def test_well_known_prefix_alone_is_echoed_once_per_round(self, tmp_path, monkeypatch):
        # Both DNS tests reveal the well-known prefix: it is not echoed twice.
        def dns_query(resolver, qname, qtype, **_):
            embedded = synthesize(STANDARD_PREFIX, ipaddress.IPv4Address(
                "192.0.0.170" if qname == DNS1_NAME else "132.163.96.3"
            ))
            return DnsResponse(
                resolver, qname, qtype, DnsStatus.NOERROR, (answer_for(qname, embedded),)
            )

        echoed = self.echoed_targets(tmp_path, monkeypatch, dns_query, ["2001:db8::53"], 3)
        assert echoed == [synthesize(STANDARD_PREFIX, self.ANCHOR)] * 3

    def test_prefix_revealed_past_a_failing_resolver(self, tmp_path, monkeypatch):
        # One resolver fails, the other reveals PREFIX_A to both DNS tests.
        def dns_query(resolver, qname, qtype, **_):
            if resolver == ipaddress.ip_address("2001:db8::53"):
                return DnsResponse(resolver, qname, qtype, DnsStatus.SERVFAIL)
            embedded = synthesize(self.PREFIX_A, ipaddress.IPv4Address(
                "192.0.0.170" if qname == DNS1_NAME else "132.163.96.3"
            ))
            return DnsResponse(
                resolver, qname, qtype, DnsStatus.NOERROR, (answer_for(qname, embedded),)
            )

        resolvers = ["2001:db8::53", "2001:db8::54"]
        echoed = self.echoed_targets(tmp_path, monkeypatch, dns_query, resolvers, 2)
        assert echoed == [
            synthesize(p, self.ANCHOR) for p in (STANDARD_PREFIX, self.PREFIX_A) for _ in range(2)
        ]

    def test_dataset_name_taken_by_a_directory_is_one_line_config_error(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(live, "dns_query", self.fake_dns_query)
        monkeypatch.setattr(live, "icmp_echo", lambda target, **_: (1.5,))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"resolvers": ["2001:db8::53"], "repeat": 1}))
        out = tmp_path / "live"
        (out / "dataset.ndjson").mkdir(parents=True)
        capsys.readouterr()
        assert run("detect", "--config", str(config), "--out", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(out / "dataset.ndjson") in err

    def test_each_round_sends_all_its_queries_at_once(self, tmp_path, monkeypatch):
        # Three resolvers, two tests: a round completes only with six in flight.
        barrier = threading.Barrier(6, timeout=2)

        def waiting_dns_query(resolver, qname, qtype, **kwargs):
            barrier.wait()
            return self.fake_dns_query(resolver, qname, qtype, **kwargs)

        monkeypatch.setattr(live, "dns_query", waiting_dns_query)
        monkeypatch.setattr(live, "icmp_echo", lambda target, **_: (1.5,))
        config = tmp_path / "config.json"
        resolvers = ["2001:db8::53", "2001:db8::54", "192.0.2.53"]
        config.write_text(json.dumps({"resolvers": resolvers, "repeat": 2}))
        out = tmp_path / "live"
        assert run("detect", "--config", str(config), "--out", str(out)) == EXIT_OK
        dataset = load_dataset(str(out / "dataset.ndjson"))
        assert [r.test_kind for r in dataset.runs if r.test_kind.is_dns] == [
            TestKind.DNS_TEST1, TestKind.DNS_TEST2
        ] * 2

    def test_refused_probe_socket_is_one_line_error(self, tmp_path, monkeypatch, capsys):
        def refused(target, **_):
            raise live.ProbePermissionError("need an ICMPv6 socket")

        monkeypatch.setattr(live, "dns_query", self.fake_dns_query)
        monkeypatch.setattr(live, "icmp_echo", refused)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"resolvers": ["2001:db8::53"]}))
        capsys.readouterr()
        assert run("detect", "--config", str(config), "--out", str(tmp_path / "live")) == EXIT_ERROR
        assert capsys.readouterr().err == "error: need an ICMPv6 socket\n"


def silent_echo(target, **_):
    return (None, None, None)


def no_route_echo(target, **_):
    raise live.NoRouteError("network is unreachable")


class TestLiveEqualsReplay:
    """``detect`` measuring with the real DNS client, against the loopback
    resolver in each personality, writes what ``detect --from-dataset``
    writes from the dataset the live run recorded."""

    ECHOES = {"answering": lambda target, **_: (1.5,), "silent": silent_echo,
              "no_route": no_route_echo}
    # The group each personality's two DNS verdicts and the echo imply.
    GROUPS = {
        ("dns64", "answering"): "nat64_plus_dns64",
        ("dns64", "silent"): "inconclusive",
        ("dns64", "no_route"): "inconclusive",
        ("plain", "answering"): "nat64_only",
        ("plain", "silent"): "no_nat64",
        ("plain", "no_route"): "no_nat64",
        ("broken", "answering"): "nat64_only",
        ("broken", "silent"): "dns64_misconfigured_only",
        ("broken", "no_route"): "dns64_misconfigured_only",
    }

    @pytest.mark.parametrize("mode, echo", list(GROUPS))
    def test_live_run_equals_its_replay(self, tmp_path, monkeypatch, mode, echo):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"resolvers": ["127.0.0.1"], "repeat": 2}))
        measured, replayed = tmp_path / "live", tmp_path / "replay"
        monkeypatch.setattr(live, "icmp_echo", self.ECHOES[echo])
        with MockResolver(personality(mode=mode)) as server:
            query = functools.partial(live.dns_query, port=server.address[1])
            monkeypatch.setattr(live, "dns_query", query)
            assert run("detect", "--config", str(config), "--out", str(measured)) == EXIT_OK
        dataset = str(measured / "dataset.ndjson")
        assert run("detect", "--from-dataset", dataset, "--out", str(replayed)) == EXIT_OK

        for name in ("detection.json", "test_table.csv", "groups.csv"):
            assert (measured / name).read_bytes() == (replayed / name).read_bytes(), name
        probes = read_json(measured / "detection.json")["probes"]
        assert [probe["group"] for probe in probes.values()] == [self.GROUPS[mode, echo]]
        for command in ("classify", "paths"):
            out = str(tmp_path / command)
            assert run(command, "--from-dataset", dataset, "--out", out) == EXIT_OK
