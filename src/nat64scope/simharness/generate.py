"""Deterministic world synthesis with a ground-truth sidecar.

Every record the generator emits follows from the cohort description and
the seed, so a (scenario, seed) pair always produces byte-identical
datasets. The truth sidecar comes from an explicit mapping in this module
over what was planted; it never consults the detection code, so a
detection bug surfaces as a truth mismatch instead of agreeing with
itself.
"""

from __future__ import annotations

import functools
import ipaddress
import random
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from .. import catalogs
from ..acquire.dataset import Dataset
from ..acquire.ip2as import Ip2AsTable
from ..addrsynth import synthesize
from ..classifier import HOME_TAG, NatLocation
from ..detector import DetectionGroup, eval_ping_test
from ..model import (
    Hop,
    IPAddress,
    Nat64Prefix,
    PathFamily,
    PrefixKind,
    ProbeRecord,
    RawOutcome,
    STANDARD_PREFIX,
    TestKind,
    TestRun,
    _new_hop,
    _new_path,
)
from .scenario import Cohort, Scenario

#: Fixed trace targets and repetition count for every simulated world.
SIM_TARGETS = (
    ipaddress.IPv4Address("198.51.100.10"),
    ipaddress.IPv4Address("198.51.100.20"),
)
SIM_ROUNDS = 3

TARGET_ASN = 64496
TRANSIT_ASN = 64700
_BASE_TS = 1700000000

#: Per-packet timing offsets within one hop.
_PACKET_OFFSETS = (0.0, 0.1, 0.5)

#: Translator-hop latency by where the translator sits.
_NAT_BASE_MS = {"home": 0.8, "local": 8.0, "remote": 25.0}
_NAT_POSITION = {"home": 1, "local": 3, "remote": 4}


class SimResult(NamedTuple):
    """One generated world.

    ``truth`` is the ``truth.json`` document: per probe, the group, flags
    and translator location that detection and classification should
    recover, with the cell it came from and whether it is ``home`` or
    ``opaque``; then the ISP DNS64 ASes, the translator-hiding and
    TTL-anomaly pair counts, the group counts and the public catalogs. A
    probe's ``nat_location`` says where the translator was planted
    whenever paths exist at all; an ``opaque`` translator hides from
    traceroutes, so that location is real but not recoverable.
    """

    dataset: Dataset
    truth: dict
    ip2as: Ip2AsTable


def _doc_v6(group: int, host: int = 0, subnet: int = 0) -> int:
    """``2001:db8:<group>:<subnet>::<host>`` as an integer, each field hex
    below 0x10000: simulated addresses are built from integers, not text."""
    return 0x20010DB8 << 96 | group << 80 | subnet << 64 | host


def _v4(a: int, b: int, c: int, d: int) -> int:
    """``a.b.c.d`` as an integer, each octet below 256."""
    return a << 24 | b << 16 | c << 8 | d


def _asn_v6(cell: int) -> int:
    return 65000 + cell


def _asn_v4(cell: int, cohort: Cohort) -> int:
    return 65500 + cell if cohort.v4as == "split" else 65000 + cell


def _nat_asn(cell: int) -> int:
    return 64000 + cell


def _pool_prefix(cell: int, j: int) -> Nat64Prefix:
    # Pool members share their first 48 bits, like one operator carving
    # several translation prefixes out of a single allocation.
    base = ipaddress.IPv6Address(_doc_v6(0x6400 + cell, subnet=j + 1))
    return Nat64Prefix(base, 96, PrefixKind.CUSTOM)


def _resolver_address(cell: int, resolver: str, publics: Sequence[IPAddress]) -> IPAddress:
    if resolver == "public":
        return publics[0]
    host = {"dns64": 0x53, "plain": 0x10, "broken": 0x66}[resolver]
    return ipaddress.IPv6Address(_doc_v6(0x5300 + cell, host))


class _Plan(NamedTuple):
    """One probe's planted setup, resolved to concrete values."""

    probe_id: str
    n: int
    cohort: Cohort
    cell_index: int
    net_group: int  # numbers the probe's /64 and its first-hop /48
    record: ProbeRecord
    resolver_addr: IPAddress
    d1_pass: bool
    d2_pass: bool
    synth_prefix: Optional[Nat64Prefix]
    attempts: Tuple[Nat64Prefix, ...]
    served: FrozenSet[Nat64Prefix]
    path_prefixes: Tuple[Nat64Prefix, ...]


def _build_plans(scenario: Scenario, publics: Tuple[Nat64Prefix, ...],
                 public_resolvers: Tuple[IPAddress, ...]) -> List[_Plan]:
    pool_size: Dict[int, int] = {}
    for cohort in scenario.cohorts:
        if cohort.prefix in ("custom", "both"):
            pool_size[cohort.cell] = max(pool_size.get(cohort.cell, 0), cohort.nprefixes)
    pools = {
        cell: tuple(_pool_prefix(cell, j) for j in range(size))
        for cell, size in pool_size.items()
    }

    plans: List[_Plan] = []
    cell_counters: Dict[int, int] = {}
    # One object per resolver address, as for hop addresses in generate, so
    # that the writer's lookups by address find each one by identity.
    resolvers: Dict[Tuple[int, str], IPAddress] = {}
    n = 0
    for cohort in scenario.cohorts:
        cell = cohort.cell
        pool = pools.get(cell, ())
        public_prefix = publics[cell % len(publics)]
        resolver_addr = resolvers.setdefault(
            (cell, cohort.resolver), _resolver_address(cell, cohort.resolver, public_resolvers)
        )
        for _ in range(cohort.count):
            n += 1
            i = cell_counters.get(cell, 0)
            cell_counters[cell] = i + 1
            probe_id = f"sim{n:03d}"
            net_group = 0x1000 + cell * 64 + i
            network = ipaddress.IPv6Network((_doc_v6(net_group), 64))
            record = ProbeRecord(
                probe_id=probe_id,
                asn_v4=_asn_v4(cell, cohort),
                asn_v6=_asn_v6(cell),
                resolvers=(resolver_addr,),
                tags=(HOME_TAG,) if cohort.location == "home" else (),
                network_prefix_v6=network,
            )

            if cohort.prefix == "standard":
                served: Set[Nat64Prefix] = {STANDARD_PREFIX}
            elif cohort.prefix == "custom":
                served = {pool[i % cohort.nprefixes]}
            elif cohort.prefix == "both":
                served = {STANDARD_PREFIX, pool[i % cohort.nprefixes]}
            else:
                served = {public_prefix}

            d1_pass = cohort.resolver in ("dns64", "public", "broken")
            d2_pass = cohort.resolver in ("dns64", "public") and cohort.scope == "full"
            if cohort.resolver in ("dns64", "public"):
                if cohort.prefix == "standard":
                    synth = STANDARD_PREFIX
                elif cohort.prefix == "public":
                    synth = public_prefix
                else:
                    synth = pool[i % cohort.nprefixes]
            elif cohort.resolver == "broken":
                synth = STANDARD_PREFIX
            else:
                synth = None

            attempts: List[Nat64Prefix] = [STANDARD_PREFIX]
            attempts.extend(sorted(pool, key=str))
            if cohort.prefix == "public":
                attempts.append(public_prefix)

            path_prefixes = (
                tuple(sorted(served, key=str)) if cohort.nat in ("working", "broken") else ()
            )
            plans.append(
                _Plan(
                    probe_id=probe_id,
                    n=n,
                    cohort=cohort,
                    cell_index=i,
                    net_group=net_group,
                    record=record,
                    resolver_addr=resolver_addr,
                    d1_pass=d1_pass,
                    d2_pass=d2_pass,
                    synth_prefix=synth,
                    attempts=tuple(attempts),
                    served=frozenset(served),
                    path_prefixes=path_prefixes,
                )
            )
    return plans


def _truth_for(plan: _Plan, publics: Set[Nat64Prefix]) -> Tuple[DetectionGroup, Dict[str, bool]]:
    cohort = plan.cohort
    working = cohort.nat == "working"
    passing = plan.served if working else frozenset()
    nonpublic_pass = bool(passing - publics)
    public_pass = bool(passing & publics)
    matching = working and plan.synth_prefix in plan.served

    if plan.d1_pass and plan.d2_pass and matching:
        group = DetectionGroup.NAT64_PLUS_DNS64
    elif (not plan.d1_pass or not plan.d2_pass) and nonpublic_pass:
        group = DetectionGroup.NAT64_ONLY
    elif plan.d1_pass and not plan.d2_pass and not passing:
        group = DetectionGroup.DNS64_MISCONFIGURED_ONLY
    elif not plan.d1_pass and not plan.d2_pass and not passing:
        group = DetectionGroup.NO_NAT64
    else:
        group = DetectionGroup.INCONCLUSIVE

    uses_public = cohort.resolver == "public"
    flags = {
        "uses_public_resolver": uses_public,
        "likely_accidental": (
            group is DetectionGroup.NAT64_ONLY
            and not uses_public
            and not plan.d1_pass
            and not plan.d2_pass
        ),
        "rfc8880_style": (
            group is DetectionGroup.NAT64_ONLY and plan.d1_pass and not plan.d2_pass
        ),
        "public_nat64_only": bool(passing) and not nonpublic_pass and public_pass,
    }
    return group, flags


def _truth_location(plan: _Plan) -> Optional[str]:
    if not plan.path_prefixes:
        return None
    if plan.cohort.location == "remote":
        return NatLocation.REMOTE.value
    if plan.record.asn_v4 == plan.record.asn_v6:
        return NatLocation.ALL_EQUAL.value
    return NatLocation.NAT_IN_V6_AS.value


def _rtts(base: float, step: float) -> Tuple[float, float, float]:
    first, second, third = _PACKET_OFFSETS
    return (base + first + step, base + second + step, base + third + step)


#: The transit hops 203.0.113.1 to .250, one object each for every world.
_TRANSIT_V4 = tuple(ipaddress.IPv4Address(0xCB007101 + i) for i in range(250))


def _transit_v4(n: int, position: int) -> ipaddress.IPv4Address:
    return _TRANSIT_V4[(n * 5 + position) % 250]


#: One path's hops, fixed across rounds: (index, address or None, base RTT).
_Layout = Tuple[Tuple[int, Optional[IPAddress], float], ...]


def _v4_layout(plan: _Plan, first: ipaddress.IPv4Address, target: ipaddress.IPv4Address,
               rng: random.Random) -> _Layout:
    """Draw one (probe, target) shape from ``rng`` and lay out its native path."""
    anomaly = plan.cohort.anomaly == "ttl"
    length = 2 if anomaly else 5 + rng.randrange(3)
    silent = None
    if not anomaly and rng.random() < 0.4:
        # Interior hop with responders on both sides, so the silence is a
        # bounded run for the path comparison logic.
        silent = rng.randrange(3, length)
    layout = []
    for h in range(1, length + 1):
        if h == silent:
            addr: Optional[IPAddress] = None
        elif h == 1:
            addr = first
        elif h == length:
            addr = target
        else:
            addr = _transit_v4(plan.n, h)
        layout.append((h, addr, 0.7 * h))
    return tuple(layout)


def _nat64_layout(plan: _Plan, prefix: Nat64Prefix, v4: _Layout, pre: _Layout,
                  anchor: ipaddress.IPv4Address, embed) -> _Layout:
    """The translated path: the hops ``pre`` before the translator, which
    embeds ``anchor``, then the native hops past the first behind it.
    ``embed`` does what ``synthesize`` does."""
    cohort = plan.cohort
    natpos = _NAT_POSITION[cohort.location]
    nat_base = _NAT_BASE_MS[cohort.location]
    layout = list(pre)
    if cohort.icmp == "opaque":
        # The translator forwards traffic but swallows hop errors from its
        # far side, so everything from its position on stays dark.
        return tuple(layout + [(h, None, 0.0) for h in range(natpos, natpos + 3)])
    layout.append((natpos, embed(prefix, anchor), nat_base))
    if cohort.nat == "broken":
        return tuple(layout + [(h, None, 0.0) for h in range(natpos + 1, natpos + 3)])
    for h, addr, _ in v4[1:]:
        layout.append((
            natpos + h - 1,
            None if addr is None else embed(prefix, addr),
            nat_base + 0.7 * (h - 1),
        ))
    return tuple(layout)


def _fixed_hops(plan: _Plan, new_v4,
                new_v6) -> Tuple[ipaddress.IPv4Address, _Layout, ipaddress.IPv4Address]:
    """The probe's first native hop, its hops before the translator and the
    translator's IPv4 side: the same in all of its paths, so built once.
    ``new_v4`` and ``new_v6`` do what ``ipaddress.IPv4Address`` and
    ``IPv6Address`` do with an integer."""
    cell = plan.cohort.cell
    pre = (
        _doc_v6(plan.net_group, 1),
        _doc_v6(0x100 + cell, 2),
        _doc_v6(0x200 + cell, 3),
    )[: _NAT_POSITION[plan.cohort.location] - 1]
    return (
        new_v4(_v4(10, cell, plan.cell_index, 254)),
        tuple((h, new_v6(value), 0.4 * h) for h, value in enumerate(pre, start=1)),
        new_v4(_v4(192, 0, 2, cell % 250 + 1)),
    )


def _hops(layout: _Layout, round_index: int) -> Tuple[Hop, ...]:
    step = 0.02 * round_index
    return tuple([
        _new_hop((h, addr, () if addr is None else _rtts(base, step)))
        for h, addr, base in layout
    ])


def _runs_for(plan: _Plan) -> List[TestRun]:
    t0 = _BASE_TS + (plan.n - 1) * 120
    runs: List[TestRun] = []
    for offset, kind, ok in (
        (0, TestKind.DNS_TEST1, plan.d1_pass),
        (10, TestKind.DNS_TEST2, plan.d2_pass),
    ):
        for rep in (0, 5):
            if ok:
                runs.append(
                    TestRun(
                        plan.probe_id, kind, t0 + offset + rep, RawOutcome.PASS,
                        observed_prefix=plan.synth_prefix,
                        resolver_used=plan.resolver_addr,
                    )
                )
            else:
                runs.append(
                    TestRun(
                        plan.probe_id, kind, t0 + offset + rep, RawOutcome.FAIL,
                        resolver_used=plan.resolver_addr,
                        diagnostic="no answer embeds a known address",
                    )
                )
    working = plan.cohort.nat == "working"
    for k, prefix in enumerate(plan.attempts):
        # Three echoes per test: a served prefix answers each, any other none.
        rtts = (1.0, 1.0, 1.0) if working and prefix in plan.served else (None, None, None)
        for rep in (0, 5):
            runs.append(eval_ping_test(plan.probe_id, t0 + 20 + 10 * k + rep, prefix, rtts))
    return runs


def _world_table(plans: Sequence[_Plan], publics: Tuple[Nat64Prefix, ...]) -> Ip2AsTable:
    table = Ip2AsTable()
    table.add_int(4, _v4(198, 51, 100, 0), 24, TARGET_ASN)
    table.add_int(4, _v4(203, 0, 113, 0), 24, TRANSIT_ASN)
    for idx, prefix in enumerate(publics):
        table.add_int(6, int(prefix.base), prefix.length, 64800 + idx)
    seen_cells: Set[int] = set()
    pool_owner: Dict[int, int] = {}
    for plan in plans:
        cell = plan.cohort.cell
        table.add_int(4, _v4(10, cell, plan.cell_index, 0), 24, plan.record.asn_v4)
        table.add_int(6, _doc_v6(plan.net_group), 48, plan.record.asn_v6)
        if cell not in seen_cells:
            seen_cells.add(cell)
            table.add_int(6, _doc_v6(0x100 + cell), 48, _asn_v6(cell))
            table.add_int(6, _doc_v6(0x200 + cell), 48, _nat_asn(cell))
        if plan.cohort.prefix in ("custom", "both"):
            owner = (
                _nat_asn(cell) if plan.cohort.location == "remote" else _asn_v6(cell)
            )
            for prefix in plan.path_prefixes:
                if prefix.kind is PrefixKind.CUSTOM and prefix not in publics:
                    pool_owner.setdefault(int(prefix.base), owner)
    for base_int, owner in sorted(pool_owner.items()):
        table.add_int(6, base_int, 96, owner)
    return table


def generate(scenario: Scenario, seed: int) -> SimResult:
    """Materialize one world: dataset, ``truth.json`` document, and AS table."""
    public_prefixes = catalogs.load_public_prefixes()
    public_resolvers = catalogs.load_public_resolvers()
    plans = _build_plans(scenario, public_prefixes, public_resolvers)
    rng = random.Random(seed)
    publics_set = set(public_prefixes)

    dataset = Dataset(
        capture_window=(_BASE_TS, _BASE_TS + 120 * len(plans) + 86400)
    )
    truth_probes: Dict[str, dict] = {}
    group_counts: Dict[str, int] = {g.value: 0 for g in DetectionGroup}
    opaque_pairs = 0
    anomaly_pairs = 0
    # One object per hop address in the world, so that the writer's
    # lookups by address find each one by identity.
    embed = functools.lru_cache(maxsize=None)(synthesize)
    new_v4 = functools.lru_cache(maxsize=None)(ipaddress.IPv4Address)
    new_v6 = functools.lru_cache(maxsize=None)(ipaddress.IPv6Address)

    for plan in plans:
        dataset.probes[plan.probe_id] = plan.record
        dataset.runs.extend(_runs_for(plan))

        group, flags = _truth_for(plan, publics_set)
        truth_probes[plan.probe_id] = {
            "group": group.value,
            "flags": flags,
            "nat_location": _truth_location(plan),
            "home": plan.cohort.location == "home",
            "cell": plan.cohort.cell,
            "opaque": plan.cohort.icmp == "opaque",
        }
        group_counts[group.value] += 1

        if not plan.path_prefixes:
            continue
        # Shapes come from rng one per target, in target order, before any
        # round: every seeded world's bytes depend on that order.
        first, pre, anchor = _fixed_hops(plan, new_v4, new_v6)
        layouts = []
        for target in SIM_TARGETS:
            v4 = _v4_layout(plan, first, target, rng)
            layouts.append((PathFamily.IPV4, None, target, v4))
            layouts.extend(
                (PathFamily.NAT64, prefix, target,
                 _nat64_layout(plan, prefix, v4, pre, anchor, embed))
                for prefix in plan.path_prefixes
            )
        for round_index in range(SIM_ROUNDS):
            for family, prefix, target, layout in layouts:
                dataset.paths.append(_new_path((
                    plan.probe_id, family, prefix, target, round_index,
                    _hops(layout, round_index),
                )))
        pair_count = SIM_ROUNDS * len(SIM_TARGETS) * len(plan.path_prefixes)
        if plan.cohort.icmp == "opaque":
            opaque_pairs += pair_count
        if plan.cohort.anomaly == "ttl":
            anomaly_pairs += pair_count

    isp_ases: Set[int] = set()
    witnesses: Dict[Tuple[int, str], Set[str]] = {}
    for plan in plans:
        if plan.d1_pass or plan.d2_pass:
            key = (plan.record.asn_v6, str(plan.resolver_addr))
            witnesses.setdefault(key, set()).add(plan.probe_id)
    for (asn, _), probe_ids in witnesses.items():
        if len(probe_ids) >= 2:
            isp_ases.add(asn)

    truth = {
        "probes": truth_probes,
        "isp_dns64_ases": sorted(isp_ases),
        "opaque_pair_count": opaque_pairs,
        "ttl_anomaly_pair_count": anomaly_pairs,
        "group_counts": group_counts,
        "public_prefixes": [str(p) for p in public_prefixes],
        "public_resolvers": [str(r) for r in public_resolvers],
    }
    return SimResult(dataset=dataset, truth=truth, ip2as=_world_table(plans, public_prefixes))


#: A world exercising every detection group, flag, and path shape at once:
#: discovery pools, public gateways, home translators, opaque and broken
#: translators, split v4/v6 origin, and a too-short native trace.
ACCEPTANCE_TEMPLATE = """\
cell=1  count=3 resolver=dns64  nat=working prefix=standard
cell=2  count=2 resolver=dns64  nat=working prefix=custom   location=remote
cell=3  count=2 resolver=dns64  nat=working prefix=custom   nprefixes=2
cell=4  count=2 resolver=dns64  nat=working prefix=standard scope=arpa_only
cell=5  count=1 resolver=plain  nat=working prefix=standard
cell=6  count=1 resolver=dns64  nat=working prefix=custom
cell=6  count=1 resolver=plain  nat=working prefix=custom
cell=7  count=2 resolver=dns64  nat=none    prefix=standard
cell=8  count=2 resolver=broken nat=none    prefix=standard
cell=9  count=3 resolver=plain  nat=none    prefix=standard
cell=10 count=2 resolver=public nat=working prefix=standard
cell=11 count=2 resolver=public nat=working prefix=public   location=remote
cell=12 count=1 resolver=plain  nat=working prefix=public   location=remote
cell=13 count=2 resolver=dns64  nat=working prefix=standard location=home
cell=14 count=2 resolver=dns64  nat=working prefix=custom   icmp=opaque
cell=15 count=1 resolver=dns64  nat=working prefix=standard icmp=opaque location=remote
cell=16 count=1 resolver=dns64  nat=broken  prefix=standard
cell=17 count=1 resolver=dns64  nat=working prefix=both     v4as=split
cell=18 count=1 resolver=dns64  nat=working prefix=standard anomaly=ttl
"""
