"""Path pairing, filtering, and statistics."""

import ipaddress
import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from nat64scope.addrsynth import synthesize
from nat64scope.model import (
    Hop,
    Nat64Prefix,
    PathFamily,
    PathPair,
    STANDARD_PREFIX,
    TraceroutePath,
)
from nat64scope.pathlab import (
    FilterReason,
    PathMetrics,
    aggregate_report,
    compute_metrics,
    filter_pairs,
    _mean,
    _pstdev,
    first_nat_hop,
    flag_ttl_anomalies,
    median,
    missing_hop_histogram,
    pair_paths,
    path_metrics,
    pearson,
    target_hop,
)

from oracles import oracle_pearson

CUSTOM = Nat64Prefix.from_cidr("2001:db8:64::/96")
CUSTOM2 = Nat64Prefix.from_cidr("2001:db8:99::/96")
TARGET = ipaddress.IPv4Address("198.51.100.10")
TARGET2 = ipaddress.IPv4Address("198.51.100.20")


def hop(index, addr, *rtts):
    if addr is None:
        return Hop(index, None, ())
    return Hop(index, ipaddress.ip_address(addr), tuple(float(r) for r in rtts))


def v4_path(addrs, probe="p1", target=TARGET, rnd=0, reach=True):
    """Build a native path; addrs lists hop addresses, None for silence.

    With reach=True a final hop answering as the target itself is added.
    """
    hops = [hop(i + 1, a, 1.0 + i) if a else hop(i + 1, None) for i, a in enumerate(addrs)]
    if reach:
        hops.append(hop(len(addrs) + 1, str(target), 5.0 + len(addrs)))
    return TraceroutePath(
        probe_id=probe,
        family=PathFamily.IPV4,
        prefix=None,
        target_v4=target,
        round_index=rnd,
        hops=tuple(hops),
    )


def nat_path(addrs, probe="p1", target=TARGET, rnd=0, prefix=CUSTOM, reach=True):
    hops = [hop(i + 1, a, 1.0 + i) if a else hop(i + 1, None) for i, a in enumerate(addrs)]
    if reach:
        wanted = synthesize(prefix, target)
        hops.append(hop(len(addrs) + 1, str(wanted), 6.0 + len(addrs)))
    return TraceroutePath(
        probe_id=probe,
        family=PathFamily.NAT64,
        prefix=prefix,
        target_v4=target,
        round_index=rnd,
        hops=tuple(hops),
    )


def nat_addr(suffix, prefix=CUSTOM):
    """A translated-side hop address under the given prefix."""
    return str(synthesize(prefix, ipaddress.IPv4Address(f"10.0.0.{suffix}")))


class TestPairing:
    def test_basic_pair(self):
        a = v4_path(["192.0.2.1"])
        b = nat_path([nat_addr(1)])
        pairs, unpaired = pair_paths([a, b])
        assert len(pairs) == 1 and not unpaired
        assert pairs[0].ipv4 is a and pairs[0].nat64 is b

    def test_one_native_backs_two_prefixes(self):
        a = v4_path(["192.0.2.1"])
        b = nat_path([nat_addr(1)])
        c = nat_path([nat_addr(1, CUSTOM2)], prefix=CUSTOM2)
        pairs, unpaired = pair_paths([a, b, c])
        assert len(pairs) == 2 and not unpaired
        assert {p.nat64.prefix for p in pairs} == {CUSTOM, CUSTOM2}

    def test_rounds_do_not_cross(self):
        a0 = v4_path(["192.0.2.1"], rnd=0)
        b1 = nat_path([nat_addr(1)], rnd=1)
        pairs, unpaired = pair_paths([a0, b1])
        assert not pairs
        assert unpaired == {"no_ipv4_counterpart": 1, "no_nat64_counterpart": 1}

    def test_duplicates_set_aside(self):
        a = v4_path(["192.0.2.1"])
        a_dup = v4_path(["192.0.2.9"])
        b = nat_path([nat_addr(1)])
        b_dup = nat_path([nat_addr(9)])
        pairs, unpaired = pair_paths([a, a_dup, b, b_dup])
        assert len(pairs) == 1
        assert pairs[0].ipv4 is a and pairs[0].nat64 is b
        assert unpaired == {"duplicate": 2}

    def test_probe_isolation(self):
        a = v4_path(["192.0.2.1"], probe="p1")
        b = nat_path([nat_addr(1)], probe="p2")
        pairs, unpaired = pair_paths([a, b])
        assert not pairs
        assert unpaired == {"no_ipv4_counterpart": 1, "no_nat64_counterpart": 1}


class TestPathPredicates:
    def test_target_hop_requires_target_address(self):
        path = v4_path(["192.0.2.1"])
        assert target_hop(path) is path.hops[-1]
        assert target_hop(v4_path(["192.0.2.1"], reach=False)) is None

    def test_target_hop_translated_side_uses_synthesized_target(self):
        path = nat_path([nat_addr(1)])
        assert target_hop(path) is path.hops[-1]
        assert path.hops[-1].address == synthesize(CUSTOM, TARGET)

    def test_hop_equal_to_the_target_only_as_an_integer_is_not_the_target_hop(self):
        # A scoped address keeps its integer but not its equality; nor does
        # an IPv6 address that holds the IPv4 target's 32 bits.
        target = ipaddress.IPv4Address("198.51.100.1")
        wanted = synthesize(STANDARD_PREFIX, target)
        scoped = ipaddress.IPv6Address("64:ff9b::c633:6401%eth0")
        assert int(scoped) == int(wanted) and scoped != wanted
        nat = TraceroutePath("p1", PathFamily.NAT64, STANDARD_PREFIX, target, 0,
                             (Hop(1, scoped, (1.0,)),))
        assert target_hop(nat) is None
        lookalike = ipaddress.IPv6Address(int(target))
        assert int(lookalike) == int(target) and lookalike != target
        v4 = TraceroutePath("p1", PathFamily.IPV4, None, target, 0, (Hop(1, lookalike, (1.0,)),))
        assert target_hop(v4) is None

    @given(
        family=st.sampled_from([PathFamily.IPV4, PathFamily.NAT64]),
        prefix=st.sampled_from([STANDARD_PREFIX, CUSTOM]),
        target=st.sampled_from([TARGET, TARGET2]),
        picks=st.lists(st.integers(min_value=0, max_value=11), max_size=6),
    )
    def test_target_hop_agrees_with_address_equality(self, family, prefix, target, picks):
        wanted = target if family is PathFamily.IPV4 else synthesize(prefix, target)
        translated = synthesize(prefix, target)
        candidates = [
            target,
            translated,
            ipaddress.IPv6Address(f"{translated}%eth0"),  # scoped twin
            ipaddress.IPv6Address(f"{translated}%1"),
            ipaddress.IPv6Address(int(target)),  # the IPv4 target's 32 bits
            ipaddress.IPv4Address(int(target) ^ 1),
            ipaddress.IPv6Address(int(translated) ^ 1),
            None,
            str(wanted),
            int(wanted),
            wanted.packed,
            ipaddress.ip_network(f"{wanted}/{wanted.max_prefixlen}"),
        ]
        hops = tuple(Hop(i + 1, candidates[pick], (1.0,)) for i, pick in enumerate(picks))
        path = TraceroutePath("p1", family, None if family is PathFamily.IPV4 else prefix,
                              target, 0, hops)
        assert target_hop(path) is next((h for h in hops if h.address == wanted), None)

    def test_first_target_hop_wins(self):
        # The target answers at hop 4 and again at hop 6: length and RTT
        # come from hop 4.
        wanted = synthesize(CUSTOM, TARGET)
        hops = (
            hop(1, "2001:db8:aaaa::1", 1.0),
            hop(2, nat_addr(1), 2.0),
            hop(3, None),
            Hop(4, wanted, (10.0, 12.0)),
            hop(5, None),
            Hop(6, wanted, (50.0, 70.0)),
        )
        nat = TraceroutePath("p1", PathFamily.NAT64, CUSTOM, TARGET, 0, hops)
        assert target_hop(nat) is hops[3]
        metrics = path_metrics(PathPair(v4_path(["192.0.2.1"]), nat))
        assert metrics.nat64_length == 4
        assert metrics.nat64_rtt_ms == 11.0
        assert metrics.nat64_missing_pct == 25.0

    def test_missing_hop_pct_counts_to_target(self):
        path = v4_path(["192.0.2.1", None, None, "192.0.2.4"])
        metrics = path_metrics(PathPair(path, nat_path([None, nat_addr(1)])))
        # 5 hops to target, 2 silent; 3 on the translated side, 1 silent.
        assert metrics.v4_missing_pct == pytest.approx(40.0)
        assert metrics.nat64_missing_pct == pytest.approx(100.0 / 3)

    def test_missing_hop_pct_ignores_hops_after_target(self):
        wanted = str(TARGET)
        hops = (hop(1, "192.0.2.1", 1.0), hop(2, wanted, 2.0), hop(3, None))
        path = TraceroutePath("p1", PathFamily.IPV4, None, TARGET, 0, hops)
        metrics = path_metrics(PathPair(path, nat_path([nat_addr(1)])))
        assert metrics.v4_missing_pct == pytest.approx(0.0)

    def test_first_nat_hop_needs_a_hop_under_the_prefix(self):
        assert first_nat_hop(nat_path([nat_addr(1)])) is not None
        assert first_nat_hop(nat_path(["2001:db8:aaaa::1"], reach=False)) is None
        assert first_nat_hop(v4_path(["192.0.2.1"])) is None

    def test_first_nat_hop_picks_earliest(self):
        path = nat_path(["2001:db8:aaaa::1", nat_addr(7), nat_addr(8)])
        found = first_nat_hop(path)
        assert found is not None and found.index == 2


def _pair(probe="p1", target=TARGET, rnd=0, prefix=CUSTOM, *, nat_hop=True,
          v4_reach=True, nat_reach=True):
    v4 = v4_path(["192.0.2.1"], probe=probe, target=target, rnd=rnd, reach=v4_reach)
    mid = nat_addr(1, prefix) if nat_hop else "2001:db8:aaaa::1"
    nat = nat_path([mid], probe=probe, target=target, rnd=rnd, prefix=prefix,
                   reach=nat_reach)
    return PathPair(ipv4=v4, nat64=nat)


class TestFiltering:
    def test_complete_round_passes(self):
        pairs = [_pair(target=TARGET), _pair(target=TARGET2)]
        kept, excluded = filter_pairs(pairs)
        assert len(kept) == 2 and not excluded

    def test_incomplete_round_dropped(self):
        pairs = [
            _pair(target=TARGET, rnd=0),
            _pair(target=TARGET2, rnd=0),
            _pair(target=TARGET, rnd=1),  # round 1 missing TARGET2
        ]
        kept, excluded = filter_pairs(pairs)
        assert [p.nat64.round_index for p in kept] == [0, 0]
        assert excluded == {FilterReason.INCOMPLETE_ROUND.value: 1}

    def test_trailing_round_dropped(self):
        pairs = [_pair(rnd=0), _pair(rnd=1)]
        kept, excluded = filter_pairs(pairs, final_round=1)
        assert len(kept) == 1 and kept[0].nat64.round_index == 0
        assert excluded == {FilterReason.TRAILING_ROUND.value: 1}

    def test_dead_target_dropped(self):
        dead = PathPair(
            ipv4=v4_path(["192.0.2.1"], target=TARGET2, reach=False),
            nat64=nat_path([nat_addr(1)], target=TARGET2, reach=False),
        )
        pairs = [_pair(target=TARGET), dead]
        kept, excluded = filter_pairs(pairs)
        assert [p.nat64.target_v4 for p in kept] == [TARGET]
        assert excluded == {FilterReason.DEAD_TARGET.value: 1}

    def test_target_alive_if_either_family_reaches_it(self):
        half_dead = PathPair(
            ipv4=v4_path(["192.0.2.1"], target=TARGET2, reach=True),
            nat64=nat_path([nat_addr(1)], target=TARGET2, reach=False),
        )
        kept, excluded = filter_pairs([_pair(target=TARGET), half_dead])
        assert len(kept) == 2 and not excluded

    def test_no_nat_hop_dropped(self):
        # The translated trace dies before its translator: no prefix hop
        # ever answers, but the native side keeps the target alive.
        opaque = _pair(target=TARGET2, nat_hop=False, nat_reach=False)
        pairs = [_pair(), opaque]
        kept, excluded = filter_pairs(pairs)
        assert [p.nat64.target_v4 for p in kept] == [TARGET]
        assert excluded == {FilterReason.NO_NAT_HOP.value: 1}

    def test_reaching_translated_target_counts_as_nat_hop(self):
        # The synthesized target address itself sits under the prefix, so
        # a successful translated trace can never be natless.
        pair = _pair(nat_hop=False, nat_reach=True)
        kept, excluded = filter_pairs([pair])
        assert kept == [pair] and not excluded

    def test_precedence_incomplete_beats_no_nat_hop(self):
        pairs = [
            _pair(target=TARGET, rnd=0),
            _pair(target=TARGET2, rnd=0),
            # Incomplete round AND natless: the round verdict wins.
            _pair(target=TARGET, rnd=1, nat_hop=False, nat_reach=False),
        ]
        _, excluded = filter_pairs(pairs)
        assert excluded == {FilterReason.INCOMPLETE_ROUND.value: 1}

    def test_target_first_seen_in_a_later_round_makes_earlier_rounds_incomplete(self):
        # A round is measured against every target in the input, not only
        # the targets that round happened to pair.
        pairs = [
            _pair(target=TARGET, rnd=0),
            _pair(target=TARGET, rnd=1),
            _pair(target=TARGET2, rnd=1),
        ]
        kept, excluded = filter_pairs(pairs)
        assert [(p.nat64.round_index, p.nat64.target_v4) for p in kept] == [
            (1, TARGET), (1, TARGET2),
        ]
        assert excluded == {FilterReason.INCOMPLETE_ROUND.value: 1}


class TestMetrics:
    def test_values(self):
        pair = PathPair(
            ipv4=v4_path(["192.0.2.1", None], reach=True),
            nat64=nat_path(["2001:db8:aaaa::1", nat_addr(1), None, None], reach=True),
        )
        m = path_metrics(pair)
        assert m is not None
        assert m.v4_length == 3 and m.nat64_length == 5
        assert m.length_diff == 2
        assert m.v4_missing_pct == pytest.approx(100.0 / 3)
        assert m.nat64_missing_pct == pytest.approx(40.0)
        assert m.v4_rtt_ms == pytest.approx(7.0)
        assert m.nat64_rtt_ms == pytest.approx(10.0)
        assert m.rtt_diff_ms == pytest.approx(3.0)
        assert m.length_diff_pct == pytest.approx(100.0 * 2 / 3)
        assert m.rtt_diff_pct == pytest.approx(100.0 * 3 / 7)

    def test_requires_both_sides_reaching(self):
        pair = PathPair(
            ipv4=v4_path(["192.0.2.1"], reach=False),
            nat64=nat_path([nat_addr(1)], reach=True),
        )
        assert path_metrics(pair) is None

    def test_requires_timed_target_hop(self):
        wanted = synthesize(CUSTOM, TARGET)
        silent_target = TraceroutePath(
            "p1", PathFamily.NAT64, CUSTOM, TARGET, 0,
            (hop(1, nat_addr(1), 1.0), Hop(2, wanted, ())),
        )
        pair = PathPair(ipv4=v4_path(["192.0.2.1"]), nat64=silent_target)
        assert path_metrics(pair) is None

    def test_rtt_is_mean_over_target_packets(self):
        v4 = TraceroutePath(
            "p1", PathFamily.IPV4, None, TARGET, 0,
            (hop(1, str(TARGET), 1.0, 2.0, 6.0),),
        )
        nat = TraceroutePath(
            "p1", PathFamily.NAT64, CUSTOM, TARGET, 0,
            (hop(1, str(synthesize(CUSTOM, TARGET)), 4.0, 8.0),),
        )
        m = path_metrics(PathPair(ipv4=v4, nat64=nat))
        assert m.v4_rtt_ms == pytest.approx(3.0)
        assert m.nat64_rtt_ms == pytest.approx(6.0)


class TestPearson:
    def test_exact_positive_linear(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, [2 * x + 1 for x in xs]) == 1.0

    def test_exact_negative_linear(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, [-3 * x + 7 for x in xs]) == -1.0

    def test_constant_series_is_none(self):
        assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
        assert pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) is None

    def test_too_few_points_is_none(self):
        assert pearson([1.0], [2.0]) is None
        assert pearson([], []) is None

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0])

    def test_agrees_with_textbook_formula(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(2, 40)
            xs = [rng.uniform(-50, 50) for _ in range(n)]
            ys = [rng.uniform(-50, 50) for _ in range(n)]
            if len(set(xs)) == 1 or len(set(ys)) == 1:
                continue
            assert pearson(xs, ys) == pytest.approx(
                oracle_pearson(xs, ys), rel=1e-12, abs=1e-12
            )

    def test_result_is_clamped(self):
        xs = [1.0, 1.0 + 1e-15, 2.0]
        ys = [3.0, 3.0 + 1e-15, 6.0]
        assert -1.0 <= pearson(xs, ys) <= 1.0


class TestTtlAnomalies:
    def test_short_side_flags_pair(self):
        short = PathMetrics(2, 12, 1.0, 2.0, 0.0, 0.0, 10, 1.0, 500.0, 100.0)
        ordinary = PathMetrics(9, 12, 1.0, 2.0, 0.0, 0.0, 3, 1.0, 100.0 * 3 / 9, 100.0)
        assert flag_ttl_anomalies([short, ordinary, None]) == [True, False, False]

    def test_boundary_is_inclusive(self):
        edge = PathMetrics(3, 12, 1.0, 2.0, 0.0, 0.0, 9, 1.0, 300.0, 100.0)
        above = PathMetrics(4, 12, 1.0, 2.0, 0.0, 0.0, 8, 1.0, 200.0, 100.0)
        assert flag_ttl_anomalies([edge, above]) == [True, False]

    def test_translated_side_counts_too(self):
        m = PathMetrics(9, 2, 1.0, 2.0, 0.0, 0.0, -7, 1.0, 100.0 * -7 / 9, 100.0)
        assert flag_ttl_anomalies([m]) == [True]


class TestAggregateReport:
    def _pairs(self):
        return [
            PathPair(
                ipv4=v4_path(["192.0.2.1", None], target=TARGET),
                nat64=nat_path(["2001:db8:aaaa::1", nat_addr(1), None, None], target=TARGET),
            ),
            PathPair(
                ipv4=v4_path(["192.0.2.1"], probe="p2", target=TARGET2),
                nat64=nat_path([nat_addr(1)], probe="p2", target=TARGET2),
            ),
            PathPair(  # no metrics: translated side never reaches
                ipv4=v4_path(["192.0.2.1"], probe="p3", target=TARGET),
                nat64=nat_path([nat_addr(1)], probe="p3", target=TARGET, reach=False),
            ),
        ]

    def test_success_rates(self):
        pairs = self._pairs()
        report = aggregate_report(pairs, compute_metrics(pairs), {})
        assert report["success"]["n_pairs"] == 3
        assert report["success"]["v4_pct"] == pytest.approx(100.0)
        assert report["success"]["nat64_pct"] == pytest.approx(200.0 / 3)
        assert report["success"]["both_pct"] == pytest.approx(200.0 / 3)

    def test_metric_summaries_hand_checked(self):
        pairs = self._pairs()
        report = aggregate_report(pairs, compute_metrics(pairs), {})
        lengths = report["metrics"]["length_diff"]
        assert lengths["n"] == 2
        assert lengths["mean"] == pytest.approx(statistics.fmean([2, 0]))
        assert lengths["sd"] == pytest.approx(statistics.pstdev([2, 0]))
        assert lengths["median"] == pytest.approx(1.0)

    def test_both_percentage_conventions(self):
        pairs = self._pairs()
        report = aggregate_report(pairs, compute_metrics(pairs), {})
        # Pair percentages: (2/3, 0/2) lengths.
        assert report["mean_of_pair_pcts"]["length"] == pytest.approx(
            statistics.fmean([100.0 * 2 / 3, 0.0])
        )
        mean_v4 = statistics.fmean([3, 2])
        mean_nat = statistics.fmean([5, 2])
        assert report["pct_of_means"]["length"] == pytest.approx(
            100.0 * (mean_nat - mean_v4) / mean_v4
        )
        assert report["mean_of_pair_pcts"]["length"] != pytest.approx(
            report["pct_of_means"]["length"]
        )

    def test_pearson_none_when_degenerate(self):
        pairs = self._pairs()
        report = aggregate_report(pairs, compute_metrics(pairs), {})
        # Two usable pairs -> correlation defined; drop to one -> None.
        assert report["pearson_r"] is not None
        solo = aggregate_report(pairs[:1], compute_metrics(pairs[:1]), {})
        assert solo["pearson_r"] is None

    def test_groups_keyed_by_probe(self):
        pairs = self._pairs()
        report = aggregate_report(
            pairs, compute_metrics(pairs), {"g1": {"p1", "p3"}, "empty": set()}
        )
        g1 = report["groups"]["g1"]
        assert g1["success"]["n_pairs"] == 2
        assert g1["length_diff"]["n"] == 1
        empty = report["groups"]["empty"]
        assert empty["success"]["n_pairs"] == 0 and empty["success"]["v4_pct"] is None
        assert empty["length_diff"] is None

    def test_per_target_and_per_prefix(self):
        pairs = self._pairs()
        report = aggregate_report(pairs, compute_metrics(pairs), {})
        assert set(report["per_target"]) == {str(TARGET), str(TARGET2)}
        assert report["per_target"][str(TARGET)]["n_pairs"] == 2
        assert set(report["per_prefix"]) == {str(CUSTOM)}
        assert report["per_prefix"][str(CUSTOM)]["n"] == 2

    def test_metrics_alignment_checked(self):
        pairs = self._pairs()
        with pytest.raises(ValueError):
            aggregate_report(pairs, [None], {})

    def test_empty_input(self):
        report = aggregate_report([], [], {})
        assert report["success"]["n_pairs"] == 0
        assert report["success"]["v4_pct"] is None
        assert report["metrics"] == {}
        assert report["pearson_r"] is None
        assert report["ttl_anomaly_pairs"] == 0


class TestHistogram:
    def test_rows_cover_0_to_100(self):
        rows = missing_hop_histogram([])
        assert len(rows) == 20
        assert rows[0][:2] == (0.0, 5.0)
        assert rows[-1][:2] == (95.0, 100.0)

    def test_counts_both_sides(self):
        m = PathMetrics(
            4, 6, 1.0, 2.0, v4_missing_pct=7.5, nat64_missing_pct=12.5,
            length_diff=2, rtt_diff_ms=1.0, length_diff_pct=50.0, rtt_diff_pct=100.0,
        )
        rows = missing_hop_histogram([m, None])
        assert rows[1] == (5.0, 10.0, 1, 0)
        assert rows[2] == (10.0, 15.0, 0, 1)

    def test_full_value_lands_in_last_bin(self):
        m = PathMetrics(
            4, 6, 1.0, 2.0, v4_missing_pct=100.0, nat64_missing_pct=0.0,
            length_diff=2, rtt_diff_ms=1.0, length_diff_pct=50.0, rtt_diff_pct=100.0,
        )
        rows = missing_hop_histogram([m])
        assert rows[-1][2] == 1
        assert rows[0][3] == 1

    def test_bins_are_five_points_wide_and_closed_below(self):
        m = PathMetrics(
            4, 6, 1.0, 2.0, v4_missing_pct=5.0, nat64_missing_pct=4.99,
            length_diff=2, rtt_diff_ms=1.0, length_diff_pct=50.0, rtt_diff_pct=100.0,
        )
        rows = missing_hop_histogram([m])
        assert all(high - low == 5.0 for low, high, _, _ in rows)
        assert rows[0][2:] == (0, 1)
        assert rows[1][2:] == (1, 0)


class TestComputeMetrics:
    def test_alignment(self):
        pairs = [
            PathPair(ipv4=v4_path(["192.0.2.1"]), nat64=nat_path([nat_addr(1)])),
            PathPair(
                ipv4=v4_path(["192.0.2.1"], reach=False),
                nat64=nat_path([nat_addr(1)]),
            ),
        ]
        metrics = compute_metrics(pairs)
        assert len(metrics) == 2
        assert metrics[0] is not None and metrics[1] is None


class TestGroupingAgainstBruteForce:
    """The grouped passes agree with a per-key rescan keyed on text."""

    TARGETS = tuple(
        ipaddress.IPv4Address(t) for t in ("198.51.100.9", "198.51.100.10", "203.0.113.5")
    )
    # 24 custom prefixes of every allowed length plus the standard one;
    # their text order differs from their creation order.
    PREFIXES = (STANDARD_PREFIX,) + tuple(
        Nat64Prefix.from_cidr(f"2001:{i + 1:x}::/{(32, 40, 48, 56, 64, 96)[i % 6]}")
        for i in range(24)
    )
    GROUPINGS = {
        "low": [f"p{i:02d}" for i in range(12)],
        "high": [f"p{i:02d}" for i in range(8, 25)],  # p08..p11 in both
        "ghost": ["nobody"],
        "none": [],
    }

    @staticmethod
    def _hops(rng, addresses):
        return tuple(
            Hop(i, None, ())
            if a is None
            else Hop(i, a, tuple(round(rng.uniform(1, 90), 3) for _ in range(rng.randint(0, 3))))
            for i, a in enumerate(addresses, start=1)
        )

    def _world(self, seed):
        rng = random.Random(seed)
        paths = []
        for n, prefix in enumerate(self.PREFIXES):
            probe = f"p{n:02d}"
            prefixes = [prefix] + ([rng.choice(self.PREFIXES)] if rng.random() < 0.3 else [])
            for rnd in range(3):
                for target in self.TARGETS:
                    # The last target is dead on even seeds and reached only
                    # natively on odd ones.
                    last = target == self.TARGETS[-1]
                    v4_odds = 0.05 * (seed % 2) if last else 0.8
                    nat_odds = 0.0 if last else 0.8
                    v4_hops = [ipaddress.ip_address("192.0.2.1"), None]
                    if rng.random() < v4_odds:
                        v4_hops.append(target)
                    paths.append(
                        TraceroutePath(probe, PathFamily.IPV4, None, target, rnd,
                                       self._hops(rng, v4_hops))
                    )
                    for pfx in dict.fromkeys(prefixes):
                        if rng.random() < 0.1:
                            continue  # leaves the round incomplete
                        nat_hops = [ipaddress.ip_address("2001:db8:ffff::1"), None]
                        if rng.random() < 0.7:
                            nat_hops.append(synthesize(pfx, ipaddress.IPv4Address("10.0.0.1")))
                        if rng.random() < nat_odds:
                            nat_hops.append(synthesize(pfx, target))
                        paths.append(
                            TraceroutePath(probe, PathFamily.NAT64, pfx, target, rnd,
                                           self._hops(rng, nat_hops))
                        )
        # One pair reaches its target on both sides, at a hop without RTTs:
        # it has no metrics but still counts as a success on both sides.
        target = self.TARGETS[0]
        first = Hop(1, ipaddress.ip_address("192.0.2.1"), (1.0,))
        paths += [
            TraceroutePath("p24", PathFamily.IPV4, None, target, 3,
                           (first, Hop(2, target, ()))),
            TraceroutePath("p24", PathFamily.NAT64, STANDARD_PREFIX, target, 3,
                           (first, Hop(2, synthesize(STANDARD_PREFIX, target), ()))),
        ]
        pairs, _ = pair_paths(paths)
        return pairs

    @staticmethod
    def _missing_pct(path, wanted):
        """Share of silent hops up to the first hop answering as ``wanted``."""
        addresses = [hop.address for hop in path.hops]
        reached = addresses.index(wanted) + 1
        return 100.0 * addresses[:reached].count(None) / reached

    @staticmethod
    def _reference_filter(pairs, final_round=None):
        expected = {str(p.nat64.target_v4) for p in pairs}
        kept, excluded = [], []
        for pair in pairs:
            nat = pair.nat64
            covered = {
                str(q.nat64.target_v4)
                for q in pairs
                if q.nat64.probe_id == nat.probe_id
                and str(q.nat64.prefix) == str(nat.prefix)
                and q.nat64.round_index == nat.round_index
            }
            alive = any(
                str(q.nat64.target_v4) == str(nat.target_v4)
                and (target_hop(q.ipv4) is not None or target_hop(q.nat64) is not None)
                for q in pairs
            )
            if covered != expected:
                reason = FilterReason.INCOMPLETE_ROUND
            elif final_round is not None and nat.round_index == final_round:
                reason = FilterReason.TRAILING_ROUND
            elif not alive:
                reason = FilterReason.DEAD_TARGET
            elif first_nat_hop(nat) is None:
                reason = FilterReason.NO_NAT_HOP
            else:
                kept.append(pair)
                continue
            excluded.append((pair, reason.value))
        return kept, excluded

    @staticmethod
    def _rates(pairs):
        n = len(pairs)
        if n == 0:
            return {"n_pairs": 0, "v4_pct": None, "nat64_pct": None, "both_pct": None}
        ok4 = [target_hop(p.ipv4) is not None for p in pairs]
        ok6 = [target_hop(p.nat64) is not None for p in pairs]
        return {
            "n_pairs": n,
            "v4_pct": 100.0 * sum(ok4) / n,
            "nat64_pct": 100.0 * sum(ok6) / n,
            "both_pct": 100.0 * sum(a and b for a, b in zip(ok4, ok6)) / n,
        }

    @staticmethod
    def _summary(values):
        if not values:
            return None
        return {"n": len(values), "mean": statistics.fmean(values),
                "sd": statistics.pstdev(values), "median": statistics.median(values)}

    @pytest.mark.parametrize("seed", range(4))
    def test_filter_pairs_matches_reference(self, seed):
        pairs = self._world(seed)
        for final_round in (None, 2):
            kept, excluded = filter_pairs(pairs, final_round=final_round)
            ref_kept, ref_excluded = self._reference_filter(pairs, final_round)
            assert kept == ref_kept
            # Counts by reason, each reason in the order of its first drop.
            ref_reasons = [reason for _, reason in ref_excluded]
            assert excluded == {r: ref_reasons.count(r) for r in ref_reasons}
            assert list(excluded) == list(dict.fromkeys(ref_reasons))
        reasons = {reason for _, reason in self._reference_filter(pairs)[1]}
        assert len(pairs) > 200 and len({str(p.nat64.prefix) for p in pairs}) >= 20
        assert {"IncompleteRound", "NoNatHop"} <= reasons
        assert ("DeadTarget" in reasons) == (seed % 2 == 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_aggregate_report_matches_reference(self, seed):
        pairs = self._world(seed)
        metrics = compute_metrics(pairs)
        for pair, m in zip(pairs, metrics):
            if m is not None:
                v4, nat = pair
                assert m.v4_missing_pct == self._missing_pct(v4, v4.target_v4)
                wanted = synthesize(nat.prefix, nat.target_v4)
                assert m.nat64_missing_pct == self._missing_pct(nat, wanted)
                # The differences, then each in percent of the native side.
                assert m[6:] == (
                    m.nat64_length - m.v4_length, m.nat64_rtt_ms - m.v4_rtt_ms,
                    100.0 * (m.nat64_length - m.v4_length) / m.v4_length,
                    100.0 * (m.nat64_rtt_ms - m.v4_rtt_ms) / m.v4_rtt_ms,
                )
        (timeless,) = [i for i, p in enumerate(pairs) if p.nat64.round_index == 3]
        assert metrics[timeless] is None
        assert None not in (target_hop(pairs[timeless].ipv4), target_hop(pairs[timeless].nat64))
        report = aggregate_report(pairs, metrics, self.GROUPINGS)

        assert report["success"] == self._rates(pairs)
        assert list(report["groups"]) == list(self.GROUPINGS)
        for name, members in self.GROUPINGS.items():
            sub = [(p, m) for p, m in zip(pairs, metrics) if p.nat64.probe_id in members]
            usable = [m for _, m in sub if m is not None]
            assert report["groups"][name] == {
                "success": self._rates([p for p, _ in sub]),
                "length_diff": self._summary([m.length_diff for m in usable]),
                "rtt_diff_ms": self._summary([m.rtt_diff_ms for m in usable]),
            }
        assert report["groups"]["ghost"]["success"]["n_pairs"] == 0

        target_names = sorted({str(p.nat64.target_v4) for p in pairs})
        assert list(report["per_target"]) == target_names
        for name in target_names:
            sub = [p for p in pairs if str(p.nat64.target_v4) == name]
            assert report["per_target"][name] == self._rates(sub)

        expected_prefixes = {}
        for name in sorted({str(p.nat64.prefix) for p in pairs}):
            stats = self._summary(
                [m.length_diff for p, m in zip(pairs, metrics)
                 if m is not None and str(p.nat64.prefix) == name]
            )
            if stats is not None:
                expected_prefixes[name] = stats
        assert len(expected_prefixes) >= 20
        assert report["per_prefix"] == expected_prefixes
        assert list(report["per_prefix"]) == list(expected_prefixes)


# ------------------------------------------------ summaries without statistics

finite_floats = st.floats(
    min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False
)
summary_values = st.one_of(
    st.lists(st.integers(-(2**64), 2**64), min_size=1, max_size=40),
    st.lists(finite_floats, min_size=1, max_size=40),
    st.lists(st.one_of(st.integers(-(10**6), 10**6), finite_floats), min_size=1, max_size=40),
    # subnormals, and many equal values
    st.lists(st.floats(min_value=-1e-306, max_value=1e-306), min_size=1, max_size=40),
    st.builds(lambda value, n: [value] * n, finite_floats, st.integers(1, 30)),
)


def same_number(a, b):
    return type(a) is type(b) and repr(a) == repr(b)


@settings(max_examples=500)
@given(summary_values)
def test_summaries_equal_those_of_the_statistics_module_bit_for_bit(values):
    # The report's mean, median and sd are computed without ``statistics``;
    # each must give the float (or, for the median of ints, the int) it gives.
    assert same_number(_mean(values), statistics.fmean(values))
    assert same_number(median(values), statistics.median(values))
    assert same_number(_pstdev(values), statistics.pstdev(values))


@pytest.mark.parametrize("values", [[3], [1, 3, 2], [1, 2], [0.1] * 7, [1e300, -1e300, 5e-324]])
def test_summaries_of_chosen_lists_equal_those_of_the_statistics_module(values):
    assert same_number(_mean(values), statistics.fmean(values))
    assert same_number(median(values), statistics.median(values))
    assert same_number(_pstdev(values), statistics.pstdev(values))
