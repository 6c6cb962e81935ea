import io
import json

import pytest

from nat64scope.acquire.dataset import load_dataset, write_dataset
from nat64scope.acquire.dnswire import TYPE_AAAA
from nat64scope.acquire.live import dns_query
from nat64scope.detector import DetectionGroup, detect_dataset, eval_dns_test1, eval_dns_test2
from nat64scope.classifier import detect_isp_dns64, group_runs_by_as
from nat64scope.model import PathFamily, RawOutcome, STANDARD_PREFIX
from nat64scope.pathlab import (
    aggregate_report,
    attribute_nat64_as,
    filter_pairs,
    locate_nat64,
    pair_paths,
)
from nat64scope.simharness import (
    ACCEPTANCE_TEMPLATE,
    Cohort,
    Dns64Server,
    ScenarioError,
    acceptance_scenarios,
    compare,
    generate,
    oracle_stats,
    parse_scenario,
    truth_to_doc,
)


def template():
    return parse_scenario(ACCEPTANCE_TEMPLATE)


class TestScenarioParsing:
    def test_minimal_line(self):
        scenario = parse_scenario("count=2")
        assert scenario.cohorts == (Cohort(count=2),)
        assert scenario.probe_count == 2

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
        assert template().probe_count == 32


def _dataset_bytes(sim):
    buf = io.StringIO()
    write_dataset(sim.dataset, buf)
    return buf.getvalue()


class TestLazyNames:
    def test_lazy_names_import(self):
        from nat64scope.simharness import Dns64Server, compare, embedded_address, oracle_stats
        from nat64scope.simharness import mockdns, oracle

        assert compare is oracle.compare
        assert embedded_address is oracle.embedded_address
        assert oracle_stats is oracle.oracle_stats
        assert Dns64Server is mockdns.Dns64Server

    def test_unknown_name_is_attribute_error(self):
        import nat64scope.simharness as simharness

        with pytest.raises(AttributeError, match="no_such_name"):
            simharness.no_such_name
        with pytest.raises(ImportError):
            from nat64scope.simharness import no_such_name  # noqa: F401


class TestGenerate:
    def test_same_seed_same_bytes(self):
        scenario = template()
        one = generate(scenario, 7)
        two = generate(scenario, 7)
        assert _dataset_bytes(one) == _dataset_bytes(two)
        assert truth_to_doc(one.truth) == truth_to_doc(two.truth)
        assert list(one.ip2as.entries()) == list(two.ip2as.entries())

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
        assert sum(sim.truth.group_counts.values()) == 32
        assert sim.truth.group_counts[DetectionGroup.NAT64_PLUS_DNS64] == 19
        assert sim.truth.group_counts[DetectionGroup.NAT64_ONLY] == 4
        assert sim.truth.group_counts[DetectionGroup.DNS64_MISCONFIGURED_ONLY] == 2
        assert sim.truth.group_counts[DetectionGroup.NO_NAT64] == 3
        assert sim.truth.group_counts[DetectionGroup.INCONCLUSIVE] == 4

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
        doc = truth_to_doc(generate(template(), 4).truth)
        text = json.dumps(doc, sort_keys=True)
        assert json.loads(text) == doc

    def test_acceptance_scenarios_shape(self):
        worlds = acceptance_scenarios()
        assert len(worlds) == 20
        assert all(scenario.probe_count >= 30 for scenario, _ in worlds)
        assert sorted(seed for _, seed in worlds) == list(range(1, 21))


class TestTruthRecovery:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_detector_recovers_groups_and_flags(self, seed):
        sim = generate(template(), seed)
        report = detect_dataset(
            sim.dataset,
            public_prefixes=sim.truth.public_prefixes,
            public_resolvers=sim.truth.public_resolvers,
        )
        for probe_id, planted in sim.truth.probes.items():
            got = report.probes[probe_id]
            assert got.group is planted.group, probe_id
            assert got.flags == planted.flags, probe_id

    def test_classifier_recovers_isp_evidence(self):
        sim = generate(template(), 5)
        evidence = detect_isp_dns64(
            group_runs_by_as(sim.dataset.runs, sim.dataset.probes), sim.dataset.probes
        )
        got = {asn for asn, ev in evidence.items() if ev.is_isp_dns64}
        assert got == set(sim.truth.isp_dns64_ases)

    def test_locations_recovered_on_kept_pairs(self):
        sim = generate(template(), 5)
        pairs, unpaired = pair_paths(sim.dataset.paths)
        assert unpaired == []
        kept, _ = filter_pairs(pairs)
        by_probe = {}
        for pair in kept:
            by_probe.setdefault(pair.nat64.probe_id, {}).setdefault(
                pair.nat64.prefix, []
            ).append(pair.nat64)
        located = set()
        for probe_id, by_prefix in by_probe.items():
            record = sim.dataset.probes[probe_id]
            for prefix, paths in by_prefix.items():
                attribution = attribute_nat64_as(paths, prefix, sim.ip2as, record)
                assert (
                    locate_nat64(attribution.asn, record)
                    is sim.truth.probes[probe_id].nat_location
                ), probe_id
            located.add(probe_id)
        # Only translator-hiding probes stay unlocatable.
        unrecoverable = {
            pid
            for pid, t in sim.truth.probes.items()
            if t.nat_location is not None and pid not in located
        }
        assert unrecoverable == {
            pid for pid, t in sim.truth.probes.items() if t.opaque
        }

    def test_opaque_accounting_exact(self):
        sim = generate(template(), 9)
        pairs, _ = pair_paths(sim.dataset.paths)
        _, excluded = filter_pairs(pairs)
        no_nat = [e for e in excluded if e.reason == "NoNatHop"]
        assert len(no_nat) == sim.truth.opaque_pair_count == 18
        assert len(no_nat) == len(excluded)

    def test_oracle_agrees(self):
        sim = generate(template(), 2)
        pairs, _ = pair_paths(sim.dataset.paths)
        kept, _ = filter_pairs(pairs)
        groupings = {"home": [p for p, t in sim.truth.probes.items() if t.home]}
        stats = aggregate_report(kept, groupings=groupings)
        assert compare(stats, oracle_stats(kept, groupings)) == []

    def test_ttl_anomaly_count_planted(self):
        sim = generate(template(), 13)
        pairs, _ = pair_paths(sim.dataset.paths)
        kept, _ = filter_pairs(pairs)
        stats = aggregate_report(kept)
        assert stats.ttl_anomaly_pairs == sim.truth.ttl_anomaly_pair_count == 6


class TestMockDns:
    def test_dns64_full_passes_both_tests(self):
        with Dns64Server(mode="dns64", scope="full") as srv:
            r1 = dns_query("127.0.0.1", "ipv4only.arpa", TYPE_AAAA, port=srv.port, timeout_s=2.0)
            r2 = dns_query("127.0.0.1", "time-c-b.nist.gov", TYPE_AAAA, port=srv.port, timeout_s=2.0)
        run1 = eval_dns_test1("p", 0, [r1])
        run2 = eval_dns_test2("p", 0, [r2])
        assert run1.raw_outcome is RawOutcome.PASS
        assert run1.observed_prefix == STANDARD_PREFIX
        assert run2.raw_outcome is RawOutcome.PASS

    def test_arpa_only_fails_second_test(self):
        with Dns64Server(mode="dns64", scope="arpa_only") as srv:
            r1 = dns_query("127.0.0.1", "ipv4only.arpa", TYPE_AAAA, port=srv.port, timeout_s=2.0)
            r2 = dns_query("127.0.0.1", "time-c-b.nist.gov", TYPE_AAAA, port=srv.port, timeout_s=2.0)
        assert eval_dns_test1("p", 0, [r1]).raw_outcome is RawOutcome.PASS
        assert eval_dns_test2("p", 0, [r2]).raw_outcome is RawOutcome.FAIL

    def test_plain_fails_both(self):
        with Dns64Server(mode="plain") as srv:
            r1 = dns_query("127.0.0.1", "ipv4only.arpa", TYPE_AAAA, port=srv.port, timeout_s=2.0)
            r2 = dns_query("127.0.0.1", "time-c-b.nist.gov", TYPE_AAAA, port=srv.port, timeout_s=2.0)
        assert eval_dns_test1("p", 0, [r1]).raw_outcome is RawOutcome.FAIL
        assert eval_dns_test2("p", 0, [r2]).raw_outcome is RawOutcome.FAIL

    def test_broken_resolver_synthesizes_only_the_test_name(self):
        with Dns64Server(mode="broken") as srv:
            r1 = dns_query("127.0.0.1", "ipv4only.arpa", TYPE_AAAA, port=srv.port, timeout_s=2.0)
            r2 = dns_query("127.0.0.1", "time-c-b.nist.gov", TYPE_AAAA, port=srv.port, timeout_s=2.0)
        assert eval_dns_test1("p", 0, [r1]).raw_outcome is RawOutcome.PASS
        assert eval_dns_test2("p", 0, [r2]).raw_outcome is RawOutcome.FAIL

    def test_unknown_name_is_nxdomain(self):
        with Dns64Server() as srv:
            r = dns_query("127.0.0.1", "nonexistent.example", TYPE_AAAA, port=srv.port, timeout_s=2.0)
        assert r.status.name == "NXDOMAIN"

    def test_a_records_always_served(self):
        with Dns64Server(mode="plain") as srv:
            from nat64scope.acquire.dnswire import TYPE_A

            r = dns_query("127.0.0.1", "time-c-b.nist.gov", TYPE_A, port=srv.port, timeout_s=2.0)
        assert [str(a) for a in r.addresses()] == ["132.163.96.3"]

    def test_custom_prefix_synthesis(self):
        from nat64scope.model import Nat64Prefix

        prefix = Nat64Prefix.from_cidr("2001:db8:64::/96")
        with Dns64Server(prefix=prefix) as srv:
            r = dns_query("127.0.0.1", "ipv4only.arpa", TYPE_AAAA, port=srv.port, timeout_s=2.0)
        run = eval_dns_test1("p", 0, [r])
        assert run.observed_prefix == prefix

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            Dns64Server(mode="recursive")
        with pytest.raises(ValueError, match="scope"):
            Dns64Server(scope="partial")
