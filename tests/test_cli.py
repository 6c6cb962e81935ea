import csv
import hashlib
import importlib.util
import io
import ipaddress
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nat64scope
from nat64scope.acquire import live
from nat64scope.acquire.dataset import Dataset, load_dataset, write_dataset
from nat64scope.acquire.dnswire import DnsResponse, DnsStatus, answer_for
from nat64scope.addrsynth import synthesize
from nat64scope.cli import EXIT_CONFIG, EXIT_ERROR, EXIT_OK, load_config, main
from nat64scope.detector import DNS1_NAME, STD_PING_TARGET_V4
from nat64scope.model import Nat64Prefix, RawOutcome, STANDARD_PREFIX, TestKind


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

    def test_simulate_does_not_load_numpy(self, tmp_path):
        code = (
            "import sys; from nat64scope.cli import main; "
            f"assert main(['simulate', '--out', {str(tmp_path / 'w')!r}]) == 0; "
            "print('numpy' not in sys.modules)"
        )
        src = os.path.dirname(os.path.dirname(nat64scope.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "True"

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

    DIGESTS = {
        "detect": {
            "detection.json": "da029b9b8c61f90f337070b2e6015b7f416569a0f15085fd09d30fd0851ad2b8",
            "groups.csv": "c9edfed221e90d2cede55edf60687864b3f113f70a352eba0af951358d85fae0",
            "test_table.csv": "cf8a5024ac5c41a3b8a408ed54f19cb03291c6a5e36931909faac16bbb17792a",
        },
        "classify": {
            "as_categories.csv": "21e53d33794f8cdb266d9831f07dbf2656439b7641394e68b22f5a600aaba6a6",
            "categories.csv": "426be76be3491393f8b4d9be3d59ba80a4b99b0065626c5c08fb652c865ad457",
            "classification.json": "afea76d47ebfc6cda09a2857a05a0179327c2840b38cd37b040eada48643e7b8",
            "evidence.csv": "e7d5fd7635f75f4083cf2602238fca3a4ef5b00551d91f265000f13850f625a0",
        },
        "paths": {
            "groups.csv": "d934a7a4af1687aff1f44d440ecf3e28f21c64c088f5a44c0cfc6b05aaad5d78",
            "missing_hop_histogram.csv": "df3f6568f61c908c0dc41f147b517fdf994c89ae51635f5bc6330162300109e6",
            "pairs.csv": "baecb3d30a0b0140da3f2c24a9dcece8829e212220909985ee3dab89032a9b08",
            "per_prefix.csv": "dfb8b1b056fe84f698b71d770a8d619bf34b6f6383574e1a79a3cc09fcab6f42",
            "per_target.csv": "c6f8925369e973b4cdfa0b4a0734fc00be5cdea38138b2e8517133c27056bdb6",
            "summary.json": "17e33188db2c5a268bc80bcee7ec848e1cb8c4de194a5cc14bafe7fdae63dbc8",
        },
    }

    @pytest.mark.parametrize("command", list(DIGESTS))
    def test_report_bytes(self, tmp_path, command):
        world = simulate(tmp_path, seed=42)
        argv = [command, "--from-dataset", str(world / "dataset.ndjson")]
        if command == "classify":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"ip2as": str(world / "ip2as.tsv")}))
            argv += ["--config", str(config)]
        out = tmp_path / command
        assert run(*argv, "--out", str(out)) == EXIT_OK
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()
        }
        assert digests == self.DIGESTS[command]


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


class TestConfig:
    def test_dns_test2_defaults(self, tmp_path):
        # With no dns2_* keys the NIST name and its published address apply.
        config = tmp_path / "config.json"
        config.write_text("{}")
        for loaded in (load_config(None), load_config(str(config))):
            assert loaded.dns2_name == "time-c-b.nist.gov."
            assert loaded.dns2_answers == (ipaddress.IPv4Address("132.163.96.3"),)

    def test_unknown_key(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"resolver": ["8.8.8.8"]}))
        assert run("atlas-spec", "--config", str(config), "--out", str(tmp_path / "x")) == EXIT_CONFIG

    def test_missing_referenced_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ip2as": str(tmp_path / "absent.tsv")}))
        assert run("atlas-spec", "--config", str(config), "--out", str(tmp_path / "x")) == EXIT_CONFIG

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


def test_zero_concurrency_flag_is_config_error(tmp_path):
    # With a dataset given, nothing is measured even if the flag were accepted.
    dataset = tmp_path / "empty.ndjson"
    write_dataset(Dataset(), str(dataset))
    code = run(
        "detect", "--concurrency", "0", "--from-dataset", str(dataset), "--out", str(tmp_path / "x")
    )
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("under", [False, True])
def test_out_naming_a_file_is_one_line_config_error(tmp_path, capsys, under):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    capsys.readouterr()
    assert run("simulate", "--out", str(out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and str(out) in err


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
        write_dataset(Dataset(), str(dataset))
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


class TestAtlasSpec:
    def test_writes_definitions(self, tmp_path):
        out = tmp_path / "spec"
        assert run("atlas-spec", "--out", str(out)) == EXIT_OK
        definitions = read_json(out / "atlas_spec.json")
        assert isinstance(definitions, list)
        types = {d["type"] for d in definitions}
        assert {"dns", "ping", "traceroute"} <= types


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
            return (live.EchoReply(0, 1.5),)

        monkeypatch.setattr(live, "dns_query", self.fake_dns_query)
        monkeypatch.setattr(live, "icmp_echo", fake_icmp_echo)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"resolvers": ["2001:db8::53"], "repeat": 2}))
        out = tmp_path / "live"
        assert run("detect", "--config", str(config), "--concurrency", "1", "--out", str(out)) == EXIT_OK

        candidates = [STANDARD_PREFIX, self.PREFIX_A, self.PREFIX_B]
        assert echoed == [synthesize(p, self.ANCHOR) for p in candidates for _ in range(2)]
        dataset = load_dataset(str(out / "dataset.ndjson"))
        pings = [r for r in dataset.runs if r.test_kind.is_ping]
        assert [r.observed_prefix for r in pings] == [p for p in candidates for _ in range(2)]
        for ping in pings[:2]:
            assert ping.test_kind is TestKind.STD_PREFIX_PING
            assert ping.raw_outcome is RawOutcome.FAIL
            assert ping.diagnostic.startswith("no route: ")
        for ping in pings[2:]:
            assert ping.test_kind is TestKind.CUSTOM_PREFIX_PING
            assert ping.raw_outcome is RawOutcome.PASS
        assert (out / "detection.json").is_file()

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
