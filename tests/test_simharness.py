import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from nat64scope import catalogs
from nat64scope.acquire.dataset import load_dataset, write_dataset
from nat64scope.acquire.dnswire import TYPE_AAAA
from nat64scope.acquire.live import dns_query
from nat64scope.detector import DetectionGroup, detect_dataset, eval_dns_test1, eval_dns_test2
from nat64scope.cli import _probe_path_facts
from nat64scope.classifier import attribute_nat64_as, detect_isp_dns64, group_runs_by_as, locate_nat64
from nat64scope.model import PathFamily, RawOutcome, STANDARD_PREFIX
from nat64scope.pathlab import aggregate_report, compute_metrics, filter_pairs, pair_paths
from nat64scope.simharness import (
    ACCEPTANCE_TEMPLATE,
    Cohort,
    ScenarioError,
    compare,
    generate,
    oracle_stats,
    parse_scenario,
)
from nat64scope.simharness import scenario as scenario_module

from loopback_dns import MockResolver, personality
from oracles import oracle_document
from test_ip2as import saved_text


def template():
    return parse_scenario(ACCEPTANCE_TEMPLATE)


def probe_count(scenario):
    return sum(cohort.count for cohort in scenario.cohorts)


class TestScenarioParsing:
    def test_minimal_line(self):
        scenario = parse_scenario("count=2")
        assert scenario.cohorts == (Cohort(count=2),)
        assert probe_count(scenario) == 2

    def test_comments_and_blanks(self):
        scenario = parse_scenario("# header\n\ncount=1 resolver=plain # tail\n")
        assert scenario.cohorts[0].resolver == "plain"

    def test_empty_scenario_rejected(self):
        with pytest.raises(ScenarioError, match="no cohorts"):
            parse_scenario("# only comments\n")

    def test_missing_count(self):
        with pytest.raises(ScenarioError, match="count is required"):
            parse_scenario("resolver=dns64")

    def test_duplicate_key(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario("count=1 count=2")

    def test_unknown_key(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario("count=1 flavor=mint")

    def test_unknown_choice(self):
        with pytest.raises(ScenarioError, match="resolver must be one of"):
            parse_scenario("count=1 resolver=quad9")

    def test_non_integer_count(self):
        with pytest.raises(ScenarioError, match="must be an integer"):
            parse_scenario("count=three")

    def test_zero_count(self):
        with pytest.raises(ScenarioError, match="at least 1"):
            parse_scenario("count=0")

    @pytest.mark.parametrize("text", ["cell=256 count=1", "cell=-1 count=1"])
    def test_cell_out_of_range(self, text):
        with pytest.raises(ScenarioError, match="between 0 and 255"):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "text", ["cell=3 count=257", "cell=3 count=200\ncell=3 count=57 resolver=plain"]
    )
    def test_too_many_probes_in_one_cell(self, text):
        with pytest.raises(ScenarioError, match="cell 3: 257 probes"):
            parse_scenario(text)

    def test_largest_cell_number_still_builds(self):
        sim = generate(parse_scenario("cell=255 count=64"), 1)
        assert len(sim.dataset.probes) == 64
        first_hops = {path.hops[0].address for path in sim.dataset.paths
                      if path.family is PathFamily.IPV4}
        assert len(first_hops) == 64

    def test_full_cell_keeps_clear_of_the_next_cell(self):
        sim = generate(parse_scenario("cell=3 count=64\ncell=4 count=1 resolver=plain nat=none"), 1)
        probes = sim.dataset.probes.values()
        assert len({p.network_prefix_v6 for p in probes}) == 65
        for probe in probes:
            assert sim.ip2as.lookup(probe.network_prefix_v6.network_address) == probe.asn_v6
        assert {p.asn_v6 for p in probes} == {65003, 65004}

    def test_largest_prefix_pool_parses(self):
        # Parse only: building 9999 prefixes is not needed to check the limit.
        cohort = parse_scenario("count=1 prefix=custom nprefixes=9999").cohorts[0]
        assert cohort.nprefixes == 9999

    @pytest.mark.parametrize("count", [0, 10000])
    def test_prefix_pool_out_of_range(self, count):
        with pytest.raises(ScenarioError, match="nprefixes must be between 1 and 9999"):
            parse_scenario(f"count=1 prefix=custom nprefixes={count}")

    def test_nprefixes_needs_pool(self):
        with pytest.raises(ScenarioError, match="prefix pool"):
            parse_scenario("count=1 prefix=standard nprefixes=2")

    def test_broken_resolver_forbids_translator(self):
        with pytest.raises(ScenarioError, match="nat=none"):
            parse_scenario("count=1 resolver=broken nat=working")

    def test_public_resolver_never_serves_pools(self):
        with pytest.raises(ScenarioError, match="operator pools"):
            parse_scenario("count=1 resolver=public prefix=custom")

    def test_public_resolver_is_full_scope(self):
        with pytest.raises(ScenarioError, match="full scope"):
            parse_scenario("count=1 resolver=public scope=arpa_only")

    def test_public_prefix_is_remote(self):
        with pytest.raises(ScenarioError, match="remote"):
            parse_scenario("count=1 prefix=public location=local")

    def test_home_needs_working_translator(self):
        with pytest.raises(ScenarioError, match="working translator"):
            parse_scenario("count=1 location=home nat=none")

    def test_opaque_needs_working_translator(self):
        with pytest.raises(ScenarioError, match="icmp=opaque"):
            parse_scenario("count=1 icmp=opaque nat=none")

    def test_anomaly_needs_kept_pairs(self):
        with pytest.raises(ScenarioError, match="kept path pairs"):
            parse_scenario("count=1 anomaly=ttl icmp=opaque")

    def test_pool_needs_observer(self):
        with pytest.raises(ScenarioError, match="reveal"):
            parse_scenario("count=2 resolver=plain prefix=custom")

    def test_pool_coverage(self):
        text = (
            "count=1 resolver=dns64 prefix=custom nprefixes=1\n"
            "count=1 resolver=plain prefix=custom nprefixes=3\n"
        )
        with pytest.raises(ScenarioError, match="1 of 3"):
            parse_scenario(text)

    def test_pool_location_agreement(self):
        text = (
            "count=1 resolver=dns64 prefix=custom location=local\n"
            "count=1 resolver=dns64 prefix=custom location=remote\n"
        )
        with pytest.raises(ScenarioError, match="agree on location"):
            parse_scenario(text)

    def test_public_cells_are_isolated(self):
        text = (
            "count=1 resolver=public prefix=public location=remote\n"
            "count=1 resolver=dns64 prefix=standard\n"
        )
        with pytest.raises(ScenarioError, match="cell of their own"):
            parse_scenario(text)

    def test_template_parses(self):
        assert probe_count(template()) == 32


def _dataset_bytes(sim):
    buf = io.StringIO()
    write_dataset(sim.dataset, buf)
    return buf.getvalue()


@st.composite
def cohort_lines(draw):
    # Every value stays reachable, but each key leans towards its default
    # (listed first), or nearly every drawn scenario would be refused.
    fields = {
        key: draw(st.one_of(st.just(values[0]), st.sampled_from(values)))
        for key, values in scenario_module._CHOICES.items()
    }
    fields["count"] = draw(st.integers(1, 3))
    fields["cell"] = draw(st.integers(0, 3))
    fields["nprefixes"] = draw(st.integers(1, 3))
    return " ".join(f"{key}={value}" for key, value in fields.items())


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(cohort_lines(), min_size=1, max_size=3), seed=st.integers(0, 2**16))
def test_scenario_is_refused_or_builds_a_loadable_world(lines, seed):
    try:
        scenario = parse_scenario("\n".join(lines))
    except ScenarioError:
        return
    sim = generate(scenario, seed)
    loaded = load_dataset(io.StringIO(_dataset_bytes(sim)))
    assert len(loaded.probes) == probe_count(scenario)


POOL = ("custom", "both")


@st.composite
def valid_cohort(draw, cell, prefixes, pool_location):
    """One cohort that passes every check of its own line.

    A pool user sits at its cell's ``pool_location``, as every pool user
    of a cell must.
    """
    prefix = draw(st.sampled_from(prefixes))
    pool_home = prefix in POOL and pool_location == "home"
    resolvers = [
        r for r in scenario_module.RESOLVERS
        if not (r == "public" and prefix in POOL) and not (r == "broken" and pool_home)
    ]
    resolver = draw(st.sampled_from(resolvers))
    if resolver == "broken":
        nat = "none"
    elif pool_home:
        nat = "working"
    else:
        nat = draw(st.sampled_from(scenario_module.NATS))
    if prefix == "public":
        location = "remote"
    elif prefix in POOL:
        location = pool_location
    elif nat == "working":
        location = draw(st.sampled_from(scenario_module.LOCATIONS))
    else:
        location = draw(st.sampled_from(("local", "remote")))
    icmp = draw(st.sampled_from(scenario_module.ICMP_MODES)) if nat == "working" else "transparent"
    anomaly = "none"
    if nat == "working" and icmp == "transparent":
        anomaly = draw(st.sampled_from(scenario_module.ANOMALIES))
    return Cohort(
        count=draw(st.integers(1, 40)),
        resolver=resolver,
        nat=nat,
        prefix=prefix,
        scope="full" if resolver == "public" else draw(st.sampled_from(scenario_module.SCOPES)),
        location=location,
        cell=cell,
        nprefixes=draw(st.integers(1, 3)) if prefix in POOL else 1,
        icmp=icmp,
        v4as=draw(st.sampled_from(scenario_module.V4AS_MODES)),
        anomaly=anomaly,
    )


@st.composite
def valid_cell(draw, cell):
    """1 to 3 cohorts of one cell that pass every check of the scenario."""
    public = draw(st.integers(0, 4)) == 0  # public gateways need a cell of their own
    prefixes = ("public",) if public else ("standard", *POOL)
    pool_location = draw(st.sampled_from(scenario_module.LOCATIONS))
    cohorts = draw(st.lists(valid_cohort(cell, prefixes, pool_location), min_size=1, max_size=3))
    users = [i for i, cohort in enumerate(cohorts) if cohort.prefix in POOL]
    if users:
        # Some synthesizing user must reveal the whole pool.
        widest = max(users, key=lambda i: cohorts[i].nprefixes)
        size = cohorts[widest].nprefixes
        if not any(cohorts[i].resolver == "dns64" and cohorts[i].nprefixes == size for i in users):
            cohorts[widest] = cohorts[widest]._replace(resolver="dns64")
    return cohorts


@st.composite
def valid_scenarios(draw):
    """1 to 5 cells of 1 to 3 cohorts, drawn valid, so none is refused."""
    cells = draw(st.lists(st.integers(0, 255), min_size=1, max_size=5, unique=True))
    text = "\n".join(
        " ".join(f"{key}={value}" for key, value in cohort._asdict().items())
        for cell in cells
        for cohort in draw(valid_cell(cell))
    )
    return parse_scenario(text)


@settings(max_examples=40, deadline=None)
@given(scenario=valid_scenarios(), seed=st.integers(0, 2**16))
def test_truth_is_recovered_on_random_valid_worlds(scenario, seed):
    sim = generate(scenario, seed)
    planted = sim.truth["probes"]
    detection = detect_dataset(
        sim.dataset,
        public_prefixes=catalogs.load_public_prefixes(),
        public_resolvers=catalogs.load_public_resolvers(),
    )
    for probe_id, truth in planted.items():
        got = detection["probes"][probe_id]
        assert (got["group"], got["flags"]) == (truth["group"], truth["flags"]), probe_id

    evidence = detect_isp_dns64(
        group_runs_by_as(sim.dataset.runs, sim.dataset.probes), sim.dataset.probes
    )
    found = [int(asn) for asn, entry in evidence.items() if entry["is_isp_dns64"]]
    assert found == sim.truth["isp_dns64_ases"]

    facts = _probe_path_facts(sim.dataset, sim.ip2as)
    unlocated = set()
    for probe_id, truth in planted.items():
        location = facts[probe_id][1]
        if location is None and truth["nat_location"] is not None:
            unlocated.add(probe_id)
        else:
            assert location == truth["nat_location"], probe_id
    assert unlocated == {pid for pid, truth in planted.items() if truth["opaque"]}

    kept, excluded = filter_pairs(pair_paths(sim.dataset.paths)[0])
    assert excluded.get("NoNatHop", 0) == sim.truth["opaque_pair_count"]
    groupings = {"home": [pid for pid, truth in planted.items() if truth["home"]]}
    stats = aggregate_report(kept, compute_metrics(kept), groupings)
    assert compare(stats, oracle_stats(kept, groupings)) == []


@settings(max_examples=25, deadline=None)
@given(scenario=valid_scenarios(), seed=st.integers(0, 2**16))
def test_random_valid_world_and_its_reload_write_the_same_bytes(scenario, seed):
    sim = generate(scenario, seed)
    written = _dataset_bytes(sim)
    hops = [hop for path in sim.dataset.paths for hop in path.hops]
    # The generator shares hops between paths; the loader makes each anew.
    assert len({id(hop) for hop in hops}) < len(hops) or not hops
    records = [*sim.dataset.probes.values(), *sim.dataset.runs, *sim.dataset.paths]
    assert written.splitlines()[1:] == [
        json.dumps(oracle_document(record), sort_keys=True, separators=(",", ":"))
        for record in records
    ]
    loaded = load_dataset(io.StringIO(written))
    reloaded = [hop for path in loaded.paths for hop in path.hops]
    assert len({id(hop) for hop in reloaded}) == len(reloaded)
    buffer = io.StringIO()
    write_dataset(loaded, buffer)
    assert buffer.getvalue() == written


class TestOracleNames:
    def test_package_names_are_the_oracles(self):
        from nat64scope.simharness import compare, oracle_stats
        from nat64scope.simharness import oracle

        assert compare is oracle.compare
        assert oracle_stats is oracle.oracle_stats


class TestGenerate:
    def test_same_seed_same_bytes(self):
        scenario = template()
        one = generate(scenario, 7)
        two = generate(scenario, 7)
        assert _dataset_bytes(one) == _dataset_bytes(two)
        assert one.truth == two.truth
        assert saved_text(one.ip2as) == saved_text(two.ip2as)

    def test_seed_changes_paths(self):
        scenario = template()
        assert _dataset_bytes(generate(scenario, 1)) != _dataset_bytes(generate(scenario, 2))

    def test_dataset_round_trips(self):
        sim = generate(template(), 3)
        text = _dataset_bytes(sim)
        loaded = load_dataset(io.StringIO(text))
        assert len(loaded.probes) == 32
        assert len(loaded.runs) == len(sim.dataset.runs)
        assert len(loaded.paths) == len(sim.dataset.paths)

    def test_truth_counts_add_up(self):
        sim = generate(template(), 11)
        counts = sim.truth["group_counts"]
        assert sum(counts.values()) == 32
        assert counts[DetectionGroup.NAT64_PLUS_DNS64.value] == 19
        assert counts[DetectionGroup.NAT64_ONLY.value] == 4
        assert counts[DetectionGroup.DNS64_MISCONFIGURED_ONLY.value] == 2
        assert counts[DetectionGroup.NO_NAT64.value] == 3
        assert counts[DetectionGroup.INCONCLUSIVE.value] == 4

    def test_every_probe_has_all_three_tests(self):
        sim = generate(template(), 11)
        by_probe = {}
        for run in sim.dataset.runs:
            by_probe.setdefault(run.probe_id, set()).add(run.test_kind.value)
        for probe_id, kinds in by_probe.items():
            assert {"dns_test1", "dns_test2"} <= kinds
            assert "std_prefix_ping" in kinds

    def test_capture_window_covers_runs(self):
        sim = generate(template(), 11)
        lo, hi = sim.dataset.capture_window
        assert all(lo <= run.timestamp <= hi for run in sim.dataset.runs)

    def test_truth_doc_is_json(self):
        doc = generate(template(), 4).truth
        text = json.dumps(doc, sort_keys=True)
        assert json.loads(text) == doc

    def test_one_resolver_object_per_address(self):
        # Every resolver kind and the public resolver appear in the template.
        used = [run.resolver_used for run in generate(template(), 2).dataset.runs]
        used = [address for address in used if address is not None]
        assert len({id(address) for address in used}) == len(set(used)) > 1

    def test_runs_name_their_probe_records_resolver_object(self):
        sim = generate(template(), 2)
        resolvers = {pid: probe.resolvers for pid, probe in sim.dataset.probes.items()}
        checked = 0
        for run in sim.dataset.runs:
            if run.resolver_used is not None:
                assert run.resolver_used is resolvers[run.probe_id][0]
                checked += 1
        assert checked > 0


class TestTruthRecovery:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_detector_recovers_groups_and_flags(self, seed):
        sim = generate(template(), seed)
        report = detect_dataset(
            sim.dataset,
            public_prefixes=catalogs.load_public_prefixes(),
            public_resolvers=catalogs.load_public_resolvers(),
        )
        for probe_id, planted in sim.truth["probes"].items():
            got = report["probes"][probe_id]
            assert got["group"] == planted["group"], probe_id
            assert got["flags"] == planted["flags"], probe_id

    def test_classifier_recovers_isp_evidence(self):
        sim = generate(template(), 5)
        evidence = detect_isp_dns64(
            group_runs_by_as(sim.dataset.runs, sim.dataset.probes), sim.dataset.probes
        )
        got = {int(asn) for asn, ev in evidence.items() if ev["is_isp_dns64"]}
        assert sorted(got) == sim.truth["isp_dns64_ases"]

    def test_locations_recovered_on_kept_pairs(self):
        sim = generate(template(), 5)
        pairs, unpaired = pair_paths(sim.dataset.paths)
        assert unpaired == {}
        kept, _ = filter_pairs(pairs)
        by_probe = {}
        for pair in kept:
            by_probe.setdefault(pair.nat64.probe_id, {}).setdefault(
                pair.nat64.prefix, []
            ).append(pair.nat64)
        located = set()
        planted = sim.truth["probes"]
        for probe_id, by_prefix in by_probe.items():
            record = sim.dataset.probes[probe_id]
            for prefix, paths in by_prefix.items():
                nat_asn = attribute_nat64_as(paths, prefix, sim.ip2as, record)
                assert locate_nat64(nat_asn, record) == planted[probe_id]["nat_location"], probe_id
            located.add(probe_id)
        # Only translator-hiding probes stay unlocatable.
        unrecoverable = {
            pid
            for pid, t in planted.items()
            if t["nat_location"] is not None and pid not in located
        }
        assert unrecoverable == {pid for pid, t in planted.items() if t["opaque"]}

    def test_opaque_accounting_exact(self):
        sim = generate(template(), 9)
        pairs, _ = pair_paths(sim.dataset.paths)
        _, excluded = filter_pairs(pairs)
        assert excluded == {"NoNatHop": sim.truth["opaque_pair_count"]}
        assert sim.truth["opaque_pair_count"] == 18

    def test_oracle_agrees(self):
        sim = generate(template(), 2)
        pairs, _ = pair_paths(sim.dataset.paths)
        kept, _ = filter_pairs(pairs)
        groupings = {"home": [p for p, t in sim.truth["probes"].items() if t["home"]]}
        stats = aggregate_report(kept, compute_metrics(kept), groupings)
        assert compare(stats, oracle_stats(kept, groupings)) == []

    @staticmethod
    def _moved(doc):
        doc["metrics"]["rtt_diff_ms"]["mean"] *= 1 + 1e-6

    @staticmethod
    def _nulled(doc):
        doc["groups"]["home"]["length_diff"]["median"] = None

    @staticmethod
    def _prefix_dropped(doc):
        del doc["per_prefix"][min(doc["per_prefix"])]

    @staticmethod
    def _group_added(doc):
        doc["groups"]["extra"] = doc["groups"]["home"]

    @staticmethod
    def _field_dropped(doc):
        del doc["per_target"][min(doc["per_target"])]["both_pct"]

    @pytest.mark.parametrize("side", ["stats", "oracle"])
    @pytest.mark.parametrize(
        "mutate", ["_moved", "_nulled", "_prefix_dropped", "_group_added", "_field_dropped"]
    )
    def test_compare_finds_each_difference(self, side, mutate):
        sim = generate(template(), 2)
        kept, _ = filter_pairs(pair_paths(sim.dataset.paths)[0])
        groupings = {"home": [p for p, t in sim.truth["probes"].items() if t["home"]]}
        docs = {
            "stats": aggregate_report(kept, compute_metrics(kept), groupings),
            "oracle": oracle_stats(kept, groupings),
        }
        assert compare(docs["stats"], docs["oracle"]) == []
        getattr(self, mutate)(docs[side])
        assert compare(docs["stats"], docs["oracle"]) != []

    def test_ttl_anomaly_count_planted(self):
        sim = generate(template(), 13)
        pairs, _ = pair_paths(sim.dataset.paths)
        kept, _ = filter_pairs(pairs)
        stats = aggregate_report(kept, compute_metrics(kept), {})
        assert stats["ttl_anomaly_pairs"] == sim.truth["ttl_anomaly_pair_count"] == 6


class TestMockDns:
    def test_dns64_full_passes_both_tests(self):
        with MockResolver(personality(mode="dns64", scope="full")) as srv:
            r1 = dns_query("127.0.0.1", "ipv4only.arpa", TYPE_AAAA, port=srv.address[1], timeout_s=2.0)
            r2 = dns_query("127.0.0.1", "time-c-b.nist.gov", TYPE_AAAA, port=srv.address[1], timeout_s=2.0)
        run1 = eval_dns_test1("p", 0, [r1])
        run2 = eval_dns_test2("p", 0, [r2])
        assert run1.raw_outcome is RawOutcome.PASS
        assert run1.observed_prefix == STANDARD_PREFIX
        assert run2.raw_outcome is RawOutcome.PASS

    def test_arpa_only_fails_second_test(self):
        with MockResolver(personality(mode="dns64", scope="arpa_only")) as srv:
            r1 = dns_query("127.0.0.1", "ipv4only.arpa", TYPE_AAAA, port=srv.address[1], timeout_s=2.0)
            r2 = dns_query("127.0.0.1", "time-c-b.nist.gov", TYPE_AAAA, port=srv.address[1], timeout_s=2.0)
        assert eval_dns_test1("p", 0, [r1]).raw_outcome is RawOutcome.PASS
        assert eval_dns_test2("p", 0, [r2]).raw_outcome is RawOutcome.FAIL

    def test_plain_fails_both(self):
        with MockResolver(personality(mode="plain")) as srv:
            r1 = dns_query("127.0.0.1", "ipv4only.arpa", TYPE_AAAA, port=srv.address[1], timeout_s=2.0)
            r2 = dns_query("127.0.0.1", "time-c-b.nist.gov", TYPE_AAAA, port=srv.address[1], timeout_s=2.0)
        assert eval_dns_test1("p", 0, [r1]).raw_outcome is RawOutcome.FAIL
        assert eval_dns_test2("p", 0, [r2]).raw_outcome is RawOutcome.FAIL

    def test_broken_resolver_synthesizes_only_the_test_name(self):
        with MockResolver(personality(mode="broken")) as srv:
            r1 = dns_query("127.0.0.1", "ipv4only.arpa", TYPE_AAAA, port=srv.address[1], timeout_s=2.0)
            r2 = dns_query("127.0.0.1", "time-c-b.nist.gov", TYPE_AAAA, port=srv.address[1], timeout_s=2.0)
        assert eval_dns_test1("p", 0, [r1]).raw_outcome is RawOutcome.PASS
        assert eval_dns_test2("p", 0, [r2]).raw_outcome is RawOutcome.FAIL

    def test_unknown_name_is_nxdomain(self):
        with MockResolver(personality()) as srv:
            r = dns_query("127.0.0.1", "nonexistent.example", TYPE_AAAA, port=srv.address[1], timeout_s=2.0)
        assert r.status.name == "NXDOMAIN"

    def test_a_records_always_served(self):
        with MockResolver(personality(mode="plain")) as srv:
            from nat64scope.acquire.dnswire import TYPE_A

            r = dns_query("127.0.0.1", "time-c-b.nist.gov", TYPE_A, port=srv.address[1], timeout_s=2.0)
        assert [str(a.address) for a in r.answers] == ["132.163.96.3"]

    def test_custom_prefix_synthesis(self):
        from nat64scope.model import Nat64Prefix

        prefix = Nat64Prefix.from_cidr("2001:db8:64::/96")
        with MockResolver(personality(prefix=prefix)) as srv:
            r = dns_query("127.0.0.1", "ipv4only.arpa", TYPE_AAAA, port=srv.address[1], timeout_s=2.0)
        run = eval_dns_test1("p", 0, [r])
        assert run.observed_prefix == prefix
