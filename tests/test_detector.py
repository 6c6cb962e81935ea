import ipaddress
import itertools

import pytest

from nat64scope.acquire.dnswire import DnsResponse, DnsStatus
from nat64scope.detector import (
    DNS1_KNOWN_V4,
    DNS1_NAME,
    DEFAULT_DNS2_KNOWN_A,
    DetectionGroup,
    aggregate,
    assign_group,
    detect_dataset,
    eval_dns_test1,
    eval_dns_test2,
    eval_ping_test,
)
from nat64scope.model import (
    Nat64Prefix,
    ProbeRecord,
    RawOutcome,
    STANDARD_PREFIX,
    TestKind,
    TestRun,
    VerdictValue,
)
from nat64scope.acquire.dataset import Dataset
from nat64scope.addrsynth import synthesize

from loopback_dns import answer_for

V4 = ipaddress.IPv4Address
V6 = ipaddress.IPv6Address

RESOLVER = V6("2001:db8:1::53")
CUSTOM = Nat64Prefix.from_cidr("2001:db8:64::/96")
PUBLIC = Nat64Prefix.from_cidr("2001:db8:4646::/96")
# assign_group names prefixes by their text.
STD_TEXT, CUSTOM_TEXT, PUBLIC_TEXT = str(STANDARD_PREFIX), str(CUSTOM), str(PUBLIC)


def dns64_response(qname, prefix, embedded, resolver=RESOLVER):
    answers = tuple(answer_for(qname, synthesize(prefix, a)) for a in embedded)
    return DnsResponse(resolver, qname, 28, DnsStatus.NOERROR, answers)


class TestEvalDnsTest1:
    def test_pass_records_prefix_and_resolver(self):
        resp = dns64_response(DNS1_NAME, STANDARD_PREFIX, DNS1_KNOWN_V4[:1])
        run = eval_dns_test1("p1", 1000, [resp])
        assert run.raw_outcome is RawOutcome.PASS
        assert run.observed_prefix == STANDARD_PREFIX
        assert run.resolver_used == RESOLVER
        assert run.test_kind is TestKind.DNS_TEST1

    def test_custom_prefix_derived(self):
        resp = dns64_response(DNS1_NAME, CUSTOM, [DNS1_KNOWN_V4[1]])
        run = eval_dns_test1("p1", 1000, [resp])
        assert run.raw_outcome is RawOutcome.PASS
        assert run.observed_prefix == CUSTOM

    def test_nxdomain_fails_with_diagnostic(self):
        resp = DnsResponse(RESOLVER, DNS1_NAME, 28, DnsStatus.NXDOMAIN)
        run = eval_dns_test1("p1", 1000, [resp])
        assert run.raw_outcome is RawOutcome.FAIL
        assert run.observed_prefix is None
        assert "nxdomain" in run.diagnostic

    def test_empty_noerror_fails(self):
        resp = DnsResponse(RESOLVER, DNS1_NAME, 28, DnsStatus.NOERROR)
        run = eval_dns_test1("p1", 1000, [resp])
        assert run.raw_outcome is RawOutcome.FAIL
        assert "empty answer" in run.diagnostic

    def test_unrelated_aaaa_fails(self):
        answers = (answer_for(DNS1_NAME, V6("2001:db8::1234")),)
        resp = DnsResponse(RESOLVER, DNS1_NAME, 28, DnsStatus.NOERROR, answers)
        run = eval_dns_test1("p1", 1000, [resp])
        assert run.raw_outcome is RawOutcome.FAIL
        assert "embeds" in run.diagnostic

    def test_second_resolver_can_pass(self):
        bad = DnsResponse(V6("2001:db8:1::54"), DNS1_NAME, 28, DnsStatus.SERVFAIL)
        good = dns64_response(DNS1_NAME, STANDARD_PREFIX, DNS1_KNOWN_V4[:1])
        run = eval_dns_test1("p1", 1000, [bad, good])
        assert run.raw_outcome is RawOutcome.PASS
        assert run.resolver_used == RESOLVER

    def test_timeout_fails(self):
        resp = DnsResponse(RESOLVER, DNS1_NAME, 28, DnsStatus.TIMEOUT)
        run = eval_dns_test1("p1", 1000, [resp])
        assert run.raw_outcome is RawOutcome.FAIL


class TestEvalDnsTest2:
    def test_synthesized_name_passes(self):
        resp = dns64_response("time-c-b.nist.gov.", STANDARD_PREFIX, DEFAULT_DNS2_KNOWN_A)
        run = eval_dns_test2("p1", 1000, [resp])
        assert run.raw_outcome is RawOutcome.PASS
        assert run.test_kind is TestKind.DNS_TEST2
        assert run.observed_prefix == STANDARD_PREFIX

    def test_plain_v4_only_name_fails(self):
        resp = DnsResponse(RESOLVER, "time-c-b.nist.gov.", 28, DnsStatus.NOERROR)
        run = eval_dns_test2("p1", 1000, [resp])
        assert run.raw_outcome is RawOutcome.FAIL


class TestEvalPing:
    def test_any_reply_passes(self):
        run = eval_ping_test("p1", 1000, STANDARD_PREFIX, [None, 23.5, None])
        assert run.raw_outcome is RawOutcome.PASS
        assert run.test_kind is TestKind.STD_PREFIX_PING
        assert run.observed_prefix == STANDARD_PREFIX

    def test_no_replies_fail(self):
        run = eval_ping_test("p1", 1000, CUSTOM, [None, None, None])
        assert run.raw_outcome is RawOutcome.FAIL
        assert run.test_kind is TestKind.CUSTOM_PREFIX_PING
        assert "0 of 3" in run.diagnostic


class TestAggregate:
    def run(self, outcome):
        return TestRun("p1", TestKind.DNS_TEST1, 0, outcome)

    def test_all_pass(self):
        v = aggregate([self.run(RawOutcome.PASS)] * 3)
        assert v == {"value": "passed", "supporting_runs": 3}

    def test_all_fail(self):
        v = aggregate([self.run(RawOutcome.FAIL)] * 2)
        assert v == {"value": "failed", "supporting_runs": 2}

    def test_mixed(self):
        v = aggregate([self.run(RawOutcome.PASS), self.run(RawOutcome.FAIL)])
        assert v == {"value": "inconclusive", "supporting_runs": 2}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


def verdict(value):
    return {"value": value.value, "supporting_runs": 3} if value else None


P, F, I = VerdictValue.PASSED, VerdictValue.FAILED, VerdictValue.INCONCLUSIVE

# The full decision table over (dns1, dns2, std ping) with a non-public
# standard prefix observed by a passing DNS test 1.
DECISION_TABLE = {
    (P, P, P): DetectionGroup.NAT64_PLUS_DNS64,
    (P, P, F): DetectionGroup.INCONCLUSIVE,
    (P, F, P): DetectionGroup.NAT64_ONLY,
    (P, F, F): DetectionGroup.DNS64_MISCONFIGURED_ONLY,
    (P, I, P): DetectionGroup.INCONCLUSIVE,
    (P, I, F): DetectionGroup.INCONCLUSIVE,
    (F, P, P): DetectionGroup.NAT64_ONLY,
    (F, P, F): DetectionGroup.INCONCLUSIVE,
    (F, F, P): DetectionGroup.NAT64_ONLY,
    (F, F, F): DetectionGroup.NO_NAT64,
    (F, I, P): DetectionGroup.NAT64_ONLY,
    (F, I, F): DetectionGroup.INCONCLUSIVE,
    (I, P, P): DetectionGroup.INCONCLUSIVE,
    (I, P, F): DetectionGroup.INCONCLUSIVE,
    (I, F, P): DetectionGroup.NAT64_ONLY,
    (I, F, F): DetectionGroup.INCONCLUSIVE,
    (I, I, P): DetectionGroup.INCONCLUSIVE,
    (I, I, F): DetectionGroup.INCONCLUSIVE,
}


class TestAssignGroup:
    @pytest.mark.parametrize("d1,d2,ping", list(DECISION_TABLE))
    def test_decision_table(self, d1, d2, ping):
        group, flags, _ = assign_group(
            verdict(d1),
            verdict(d2),
            {STD_TEXT: verdict(ping)},
            dns1_prefixes=(STD_TEXT,) if d1 is P else (),
        )
        assert group is DECISION_TABLE[(d1, d2, ping)]

    def test_table_is_exhaustive(self):
        combos = set(itertools.product([P, F, I], [P, F, I], [P, F]))
        assert set(DECISION_TABLE) == combos

    def test_rfc8880_style_flag(self):
        group, flags, _ = assign_group(
            verdict(P), verdict(F), {STD_TEXT: verdict(P)},
            dns1_prefixes=(STD_TEXT,),
        )
        assert group is DetectionGroup.NAT64_ONLY
        assert flags["rfc8880_style"]

    def test_public_only_pass_never_nat64_only(self):
        group, flags, diag = assign_group(
            verdict(F), verdict(F), {PUBLIC_TEXT: verdict(P)},
            public_prefixes=[PUBLIC_TEXT],
        )
        assert group is DetectionGroup.INCONCLUSIVE
        assert flags["public_nat64_only"]
        assert "public" in diag

    def test_public_pass_plus_private_pass_is_nat64_only(self):
        group, flags, _ = assign_group(
            verdict(F), verdict(F),
            {PUBLIC_TEXT: verdict(P), CUSTOM_TEXT: verdict(P)},
            public_prefixes=[PUBLIC_TEXT],
        )
        assert group is DetectionGroup.NAT64_ONLY
        assert not flags["public_nat64_only"]

    def test_public_service_dns64_still_full_group(self):
        # DNS64 observing a public prefix whose ping works: full setup,
        # via a public service.
        group, flags, _ = assign_group(
            verdict(P), verdict(P), {PUBLIC_TEXT: verdict(P)},
            dns1_prefixes=(PUBLIC_TEXT,), public_prefixes=[PUBLIC_TEXT],
        )
        assert group is DetectionGroup.NAT64_PLUS_DNS64
        assert flags["public_nat64_only"]

    def test_matching_ping_must_match_dns1_prefix(self):
        # DNS tests pass under the custom prefix but only the standard
        # prefix answers pings: not a working full setup.
        group, _, _ = assign_group(
            verdict(P), verdict(P),
            {STD_TEXT: verdict(P), CUSTOM_TEXT: verdict(F)},
            dns1_prefixes=(CUSTOM_TEXT,),
        )
        assert group is not DetectionGroup.NAT64_PLUS_DNS64

    def test_missing_verdicts_inconclusive_with_diagnostic(self):
        group, _, diag = assign_group(None, verdict(P), {})
        assert group is DetectionGroup.INCONCLUSIVE
        assert "missing" in diag and "dns_test1" in diag and "ping" in diag

    def test_likely_accidental(self):
        group, flags, _ = assign_group(
            verdict(F), verdict(F), {STD_TEXT: verdict(P)},
        )
        assert group is DetectionGroup.NAT64_ONLY
        assert flags["likely_accidental"]

    def test_not_accidental_when_dns_passed(self):
        group, flags, _ = assign_group(
            verdict(P), verdict(F), {STD_TEXT: verdict(P)},
            dns1_prefixes=(STD_TEXT,),
        )
        assert flags["rfc8880_style"] and not flags["likely_accidental"]

    def test_not_accidental_with_public_resolver(self):
        group, flags, _ = assign_group(
            verdict(F), verdict(F), {STD_TEXT: verdict(P)},
            uses_public_resolver=True,
        )
        assert group is DetectionGroup.NAT64_ONLY
        assert flags["uses_public_resolver"] and not flags["likely_accidental"]


class TestDetectDataset:
    def build(self):
        ds = Dataset()
        ds.probes["good"] = ProbeRecord("good", 65001, 65001, resolvers=(RESOLVER,))
        ds.probes["none"] = ProbeRecord("none", 65002, 65002)
        for ts in (0, 3600, 7200):
            ds.runs.append(
                TestRun("good", TestKind.DNS_TEST1, ts, RawOutcome.PASS,
                        observed_prefix=STANDARD_PREFIX, resolver_used=RESOLVER)
            )
            ds.runs.append(
                TestRun("good", TestKind.DNS_TEST2, ts, RawOutcome.PASS,
                        observed_prefix=STANDARD_PREFIX, resolver_used=RESOLVER)
            )
            ds.runs.append(
                TestRun("good", TestKind.STD_PREFIX_PING, ts, RawOutcome.PASS,
                        observed_prefix=STANDARD_PREFIX)
            )
            for kind in (TestKind.DNS_TEST1, TestKind.DNS_TEST2):
                ds.runs.append(TestRun("none", kind, ts, RawOutcome.FAIL))
            ds.runs.append(
                TestRun("none", TestKind.STD_PREFIX_PING, ts, RawOutcome.FAIL,
                        observed_prefix=STANDARD_PREFIX)
            )
        return ds

    def test_groups_and_tables(self):
        report = detect_dataset(self.build())
        passed3 = {"value": "passed", "supporting_runs": 3}
        assert report["probes"]["good"] == {
            "group": "nat64_plus_dns64",
            "flags": {
                "uses_public_resolver": False,
                "likely_accidental": False,
                "rfc8880_style": False,
                "public_nat64_only": False,
            },
            "dns1": passed3,
            "dns2": passed3,
            "pings": {"64:ff9b::/96": passed3},
            "dns1_prefixes": ["64:ff9b::/96"],
            "diagnostic": None,
        }
        assert report["probes"]["none"]["group"] == "no_nat64"
        assert report["group_counts"] == {
            "nat64_plus_dns64": 1,
            "nat64_only": 0,
            "dns64_misconfigured_only": 0,
            "no_nat64": 1,
            "inconclusive": 0,
        }
        table = report["test_table"]
        assert table["dns_test1"]["passed"] == 1
        assert table["dns_test1"]["failed"] == 1
        assert table["std_prefix_ping"]["passed"] == 1
        assert table["std_prefix_ping"]["failed"] == 1

    def test_custom_prefix_row_counts_each_probe_once(self):
        # The row counts a probe passed if any operator prefix passed,
        # failed if all failed, and inconclusive otherwise.
        other = Nat64Prefix.from_cidr("2001:db8:65::/96")
        pass_, fail = RawOutcome.PASS, RawOutcome.FAIL
        outcomes = {
            "one_passed": {CUSTOM: (pass_, pass_), other: (fail, fail)},
            "all_failed": {CUSTOM: (fail, fail), other: (fail, fail)},
            "none_passed": {CUSTOM: (fail, fail), other: (pass_, fail)},
        }
        ds = Dataset()
        for pid, by_prefix in outcomes.items():
            ds.probes[pid] = ProbeRecord(pid, 65001, 65001)
            for prefix, runs in by_prefix.items():
                for ts, outcome in enumerate(runs):
                    ds.runs.append(
                        TestRun(pid, TestKind.CUSTOM_PREFIX_PING, ts, outcome,
                                observed_prefix=prefix)
                    )
        # One more probe: an inconclusive DNS test 1, a failed DNS test 2
        # and a passed echo through the well-known prefix.
        ds.probes["mixed_dns"] = ProbeRecord("mixed_dns", 65002, 65002)
        ds.runs += [
            TestRun("mixed_dns", TestKind.DNS_TEST1, 0, pass_, observed_prefix=STANDARD_PREFIX),
            TestRun("mixed_dns", TestKind.DNS_TEST1, 1, fail),
            TestRun("mixed_dns", TestKind.DNS_TEST2, 0, fail),
            TestRun("mixed_dns", TestKind.STD_PREFIX_PING, 0, pass_,
                    observed_prefix=STANDARD_PREFIX),
        ]
        report = detect_dataset(ds)
        assert report["test_table"] == {
            "dns_test1": {"passed": 0, "failed": 0, "inconclusive": 1},
            "dns_test2": {"passed": 0, "failed": 1, "inconclusive": 0},
            "std_prefix_ping": {"passed": 1, "failed": 0, "inconclusive": 0},
            "custom_prefix_ping": {"passed": 1, "failed": 1, "inconclusive": 1},
        }
        assert report["probes"]["none_passed"]["pings"] == {
            "2001:db8:64::/96": {"value": "failed", "supporting_runs": 2},
            "2001:db8:65::/96": {"value": "inconclusive", "supporting_runs": 2},
        }

    def test_no_two_places_in_the_document_share_a_container(self):
        # Verdicts and flags are plain dicts that callers may edit, so equal
        # documents must still be separate objects: editing one probe's
        # verdict must not change another's, nor a later call's.
        report = detect_dataset(self.build())
        seen = []

        def walk(value):
            if isinstance(value, (dict, list)):
                seen.append(id(value))
                for item in value.values() if isinstance(value, dict) else value:
                    walk(item)

        walk(report)
        assert len(seen) == len(set(seen))
        good = report["probes"]["good"]
        assert good["dns1"] == good["dns2"]
        good["dns1"]["value"] = "failed"
        good["flags"]["likely_accidental"] = True
        assert good["dns2"]["value"] == "passed"
        assert report["probes"]["none"]["flags"]["likely_accidental"] is False
        again = detect_dataset(self.build())["probes"]["good"]
        assert again["dns1"]["value"] == "passed"
        assert again["flags"]["likely_accidental"] is False

    def test_public_resolver_flag_from_record(self):
        ds = Dataset()
        google = V6("2001:4860:4860::6464")
        ds.probes["p"] = ProbeRecord("p", 65001, 65001, resolvers=(google,))
        ds.runs.append(
            TestRun("p", TestKind.DNS_TEST1, 0, RawOutcome.PASS,
                    observed_prefix=STANDARD_PREFIX, resolver_used=google)
        )
        report = detect_dataset(ds, public_resolvers=[google])
        assert report["probes"]["p"]["flags"]["uses_public_resolver"]

    def test_empty_dataset(self):
        report = detect_dataset(Dataset())
        assert report["probes"] == {}
        assert all(
            count == 0 for counts in report["test_table"].values() for count in counts.values()
        )
