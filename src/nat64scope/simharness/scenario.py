"""Cohort-based scenario descriptions for the simulation harness.

A scenario is plain text: one cohort per line as ``key=value`` pairs,
``#`` comments allowed. Every probe in a cohort shares the same planted
setup; the cell number groups cohorts into one autonomous system so
cross-probe logic (prefix discovery, ISP evidence) has something to see.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple


class ScenarioError(ValueError):
    """The scenario text does not describe a generatable world."""


RESOLVERS = ("dns64", "plain", "public", "broken")
NATS = ("working", "none", "broken")
PREFIX_MODES = ("standard", "custom", "both", "public")
SCOPES = ("full", "arpa_only")
LOCATIONS = ("local", "remote", "home")
ICMP_MODES = ("transparent", "opaque")
V4AS_MODES = ("same", "split")
ANOMALIES = ("none", "ttl")


class Cohort(NamedTuple):
    """One line of a scenario: ``count`` probes sharing a planted setup.

    resolver   dns64: synthesizes AAAA; plain: never synthesizes;
               public: a well-known public DNS64; broken: synthesizes
               only the well-known test name and has no translator.
    nat        working: echoes pass; none: no translator; broken: the
               translator answers traceroutes but forwards nothing.
    prefix     which translation prefix the setup serves.
    scope      full: synthesis for every name; arpa_only: only the
               well-known test name (so the second lookup fails).
    location   where the translator sits, which drives hop timing and
               the AS it is attributed to. home implies the probe's own
               network and tags the probe accordingly.
    cell       autonomous-system bucket shared with other cohorts.
    nprefixes  size of the cell's operator prefix pool.
    icmp       opaque: hops at and beyond the translator stay silent.
    v4as       split: the probe's IPv4 AS differs from its IPv6 AS.
    anomaly    ttl: the native trace hits its target implausibly early.
    """

    count: int
    resolver: str = "dns64"
    nat: str = "working"
    prefix: str = "standard"
    scope: str = "full"
    location: str = "local"
    cell: int = 0
    nprefixes: int = 1
    icmp: str = "transparent"
    v4as: str = "same"
    anomaly: str = "none"


class Scenario(NamedTuple):
    cohorts: Tuple[Cohort, ...]


_CHOICES = {
    "resolver": RESOLVERS,
    "nat": NATS,
    "prefix": PREFIX_MODES,
    "scope": SCOPES,
    "location": LOCATIONS,
    "icmp": ICMP_MODES,
    "v4as": V4AS_MODES,
    "anomaly": ANOMALIES,
}
_INTS = ("count", "cell", "nprefixes")

# The generator writes the cell and a probe's place in it into IPv4
# octets (its first hop is 10.cell.place.254), so neither can pass 255.
# It numbers a probe's /64 as 0x1000 + cell*64 + place, so past 64 probes
# a cell's /64s run into the next cell's (README, "Simulation scenarios").
# A pool prefix writes its number in decimal into one 16-bit group
# (2001:db8:<cell>:<number>::), so the number cannot pass four digits.
MAX_CELL = 255
MAX_PROBES_PER_CELL = 256
MAX_NPREFIXES = 9999


def _parse_cohort(line: str, lineno: int) -> Cohort:
    fields: Dict[str, object] = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ScenarioError(f"line {lineno}: expected key=value, got {token!r}")
        if key in fields:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        if key in _INTS:
            try:
                fields[key] = int(value)
            except ValueError:
                raise ScenarioError(f"line {lineno}: {key} must be an integer") from None
        elif key in _CHOICES:
            if value not in _CHOICES[key]:
                raise ScenarioError(
                    f"line {lineno}: {key} must be one of {', '.join(_CHOICES[key])}"
                )
            fields[key] = value
        else:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
    if "count" not in fields:
        raise ScenarioError(f"line {lineno}: count is required")
    cohort = Cohort(**fields)

    if cohort.count < 1:
        raise ScenarioError(f"line {lineno}: count must be at least 1")
    if not 0 <= cohort.cell <= MAX_CELL:
        raise ScenarioError(f"line {lineno}: cell must be between 0 and {MAX_CELL}")
    if not 1 <= cohort.nprefixes <= MAX_NPREFIXES:
        raise ScenarioError(f"line {lineno}: nprefixes must be between 1 and {MAX_NPREFIXES}")
    if cohort.nprefixes > 1 and cohort.prefix not in ("custom", "both"):
        raise ScenarioError(
            f"line {lineno}: nprefixes only makes sense with an operator prefix pool"
        )
    if cohort.resolver == "broken" and cohort.nat != "none":
        raise ScenarioError(
            f"line {lineno}: a broken resolver means no translator exists (nat=none)"
        )
    if cohort.resolver == "public" and cohort.prefix not in ("standard", "public"):
        raise ScenarioError(
            f"line {lineno}: public resolvers synthesize the well-known or a "
            f"public prefix, not operator pools"
        )
    if cohort.resolver == "public" and cohort.scope != "full":
        raise ScenarioError(f"line {lineno}: public resolvers always have full scope")
    if cohort.prefix == "public" and cohort.location != "remote":
        raise ScenarioError(f"line {lineno}: public gateways are remote by definition")
    if cohort.location == "home" and cohort.nat != "working":
        raise ScenarioError(f"line {lineno}: a home setup needs a working translator")
    if cohort.icmp == "opaque" and cohort.nat != "working":
        raise ScenarioError(
            f"line {lineno}: icmp=opaque describes a translator that forwards "
            f"but hides hops, so the translator must be working"
        )
    if cohort.anomaly == "ttl" and (cohort.nat != "working" or cohort.icmp != "transparent"):
        raise ScenarioError(
            f"line {lineno}: the ttl anomaly only shows up on kept path pairs"
        )
    return cohort


def parse_scenario(text: str) -> Scenario:
    cohorts: List[Cohort] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        cohorts.append(_parse_cohort(line, lineno))
    if not cohorts:
        raise ScenarioError("scenario has no cohorts")
    _check_cells(cohorts)
    return Scenario(tuple(cohorts))


def _check_cells(cohorts: List[Cohort]) -> None:
    by_cell: Dict[int, List[Cohort]] = {}
    for cohort in cohorts:
        by_cell.setdefault(cohort.cell, []).append(cohort)

    for cell, members in sorted(by_cell.items()):
        probes = sum(c.count for c in members)
        if probes > MAX_PROBES_PER_CELL:
            raise ScenarioError(
                f"cell {cell}: {probes} probes, but at most {MAX_PROBES_PER_CELL} fit in one cell"
            )
        # Operator prefixes are only pingable once somebody's DNS64 reveals
        # them; a pool used exclusively by non-synthesizing probes is dead.
        pool_users = [c for c in members if c.prefix in ("custom", "both")]
        observers = [c for c in pool_users if c.resolver == "dns64"]
        if pool_users and not observers:
            raise ScenarioError(
                f"cell {cell}: an operator prefix pool needs at least one "
                f"cohort with resolver=dns64 to reveal it"
            )
        if observers:
            pool = max(c.nprefixes for c in pool_users)
            seen = max(c.nprefixes for c in observers)
            if seen < pool:
                raise ScenarioError(
                    f"cell {cell}: the synthesizing cohorts only reveal "
                    f"{seen} of {pool} pool prefixes"
                )
        # The pool is announced by one operator, so everyone using it must
        # agree on where that operator's translator sits.
        locations = {c.location for c in pool_users}
        if len(locations) > 1:
            raise ScenarioError(
                f"cell {cell}: cohorts sharing a prefix pool must agree on location"
            )
        # Public-gateway pings come from a catalog, not from discovery,
        # but mixing them into a cell would let every neighbour pass them.
        public_users = [c for c in members if c.prefix == "public"]
        if public_users and len(public_users) != len(members):
            raise ScenarioError(
                f"cell {cell}: public-gateway cohorts need a cell of their own"
            )
