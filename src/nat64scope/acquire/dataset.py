"""Line-delimited JSON dataset: one header, then probe/test/traceroute records.

This module owns the line contract. ``_KINDS`` gives each record kind,
keyed by its ``record`` value, its decoder, its checks and the collection
a loaded record is filed in; the writer has one line function per kind
and makes the text of each address, prefix and RTT tuple once per write.
The loader parses each distinct address text once, in C where it can,
and makes one object per address value. Encoding is canonical (sorted
keys, no whitespace), so writing the same dataset twice produces
identical bytes. Loading reports every problem it finds, each with its
line number, and cross-checks that runs and paths reference known probes.
"""

from __future__ import annotations

import ipaddress
import json
from json.encoder import encode_basestring_ascii as _quote
from typing import IO, Dict, Iterable, List, Optional, Tuple, Union

from ..model import (
    MAX_ASN,
    Hop,
    IPAddress,
    Nat64Prefix,
    PathFamily,
    PrefixKind,
    ProbeRecord,
    RawOutcome,
    TestKind,
    TestRun,
    TraceroutePath,
    _new_hop,
    _new_path,
    _new_probe,
    _new_run,
    pack_address,
    pack_network,
    unpack_address,
)

SCHEMA_VERSION = 1

# One stateless decoder and encoder serve every line. A stripped line
# needs only the scanner, not ``json.loads``'s type and whitespace checks;
# ``json.dumps`` would build a new encoder for each record.
_scan_line = json.JSONDecoder().raw_decode
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class DatasetError(ValueError):
    """The file is not a well-formed dataset; details list the offenders."""

    def __init__(self, problems: List[str]):
        self.problems = problems
        shown = "; ".join(problems[:8])
        more = f" (+{len(problems) - 8} more)" if len(problems) > 8 else ""
        super().__init__(f"{len(problems)} problem(s): {shown}{more}")


class Dataset:
    """Everything one capture produced, keyed for the analysis stages."""

    __slots__ = ("probes", "runs", "paths", "capture_window")

    def __init__(self, probes=None, runs=None, paths=None,
                 capture_window: Optional[Tuple[int, int]] = None):
        self.probes: Dict[str, ProbeRecord] = {} if probes is None else probes
        self.runs: List[TestRun] = [] if runs is None else runs
        self.paths: List[TraceroutePath] = [] if paths is None else paths
        self.capture_window = capture_window


# ------------------------------------------------ checks
#
# Every value comes from the JSON decoder, so an exact type test is the
# whole test: ``type(True) is bool``, not ``int``.

#: The RTTs a hop may carry: 0, or between these bounds. Every sum, mean
#: and percentage the path metrics take over them stays finite; 1e-3 ms
#: is one microsecond, finer than any echo timer reports.
RTT_MIN_MS = 1e-3
RTT_MAX_MS = 1e7
_RTT_RANGE = f"each must be 0, or {RTT_MIN_MS:g} to {RTT_MAX_MS:,.0f} ms"


def _hops_are_clean(hops: Tuple[Hop, ...]) -> bool:
    """True when no hop can fail the checks in ``_check_path``.

    Exact types only: hops numbered 1, 2, ... by ints, silent ones without
    RTTs, every RTT a float of 0 or between ``RTT_MIN_MS`` and ``RTT_MAX_MS``.
    Anything else, integer RTTs included, takes the full checks, which word
    the problems. The writer's fast path takes the same test.
    """
    position = 0
    low, high = RTT_MIN_MS, RTT_MAX_MS
    for index, address, rtts in hops:
        position += 1
        if type(index) is not int or index != position:
            return False
        if address is None and rtts:
            return False
        for rtt in rtts:
            if type(rtt) is not float or not (low <= rtt <= high or rtt == 0.0):
                return False
    return True


def _check_probe(probe: ProbeRecord) -> List[str]:
    probe_id, asn_v4, asn_v6, _, tags, _ = probe
    problems = []
    if not probe_id:
        problems.append("probe_id is empty")
    else:
        try:
            # A lone surrogate loads from a JSON escape but cannot be
            # written to a report; runs and paths name a known probe.
            probe_id.encode("utf-8")
        except UnicodeEncodeError:
            problems.append("probe_id is not valid Unicode text")
    for name, asn in (("asn_v4", asn_v4), ("asn_v6", asn_v6)):
        if asn is not None and (type(asn) is not int or asn <= 0):
            problems.append(f"{name} must be a positive integer or None")
        elif asn is not None and asn > MAX_ASN:
            problems.append(f"{name} {asn} is above the largest AS number {MAX_ASN}")
    for tag in tags:
        if type(tag) is not str:
            problems.append(f"tag {tag!r} is not a string")
    return problems


def _check_test_run(run: TestRun) -> List[str]:
    probe_id, kind, timestamp, outcome, prefix, resolver_used, diagnostic = run
    problems = []
    if not probe_id:
        problems.append("probe_id is empty")
    if type(timestamp) is not int:
        problems.append("timestamp must be an integer")
    elif timestamp < 0:
        problems.append("timestamp is negative")
    if diagnostic is not None and type(diagnostic) is not str:
        problems.append("diagnostic must be a string or None")
    if kind.is_dns:
        # DNS runs observe a prefix only when they pass.
        if outcome is RawOutcome.FAIL and prefix is not None:
            problems.append("failed DNS run carries observed_prefix")
        return problems
    # Ping runs always name the prefix they targeted.
    if prefix is None:
        problems.append(f"{kind.value} run lacks a prefix")
    elif kind is TestKind.STD_PREFIX_PING:
        if prefix.kind is not PrefixKind.STANDARD:
            problems.append("std_prefix_ping run carries a non-standard prefix")
    elif prefix.kind is PrefixKind.STANDARD:
        problems.append("custom_prefix_ping run carries the standard prefix")
    if resolver_used is not None:
        problems.append("ping run carries resolver_used")
    return problems


def _check_path(path: TraceroutePath) -> List[str]:
    probe_id, family, prefix, _, round_index, hops = path
    problems = []
    if not probe_id:
        problems.append("probe_id is empty")
    if family is PathFamily.NAT64:
        if prefix is None:
            problems.append("nat64 path lacks a prefix")
    elif prefix is not None:
        problems.append("ipv4 path carries a prefix")
    if type(round_index) is not int:
        problems.append("round_index must be an integer")
    elif round_index < 0:
        problems.append("round_index is negative")
    if _hops_are_clean(hops):
        return problems
    for position, (index, _, _) in enumerate(hops, start=1):
        if index != position:
            problems.append(f"hop indices not contiguous at position {position}")
            break
    for index, address, rtts in hops:
        if type(index) is not int:
            problems.append(f"{probe_id}: hop index {index!r} is not an integer")
        elif index < 1:
            problems.append(f"{probe_id}: hop index {index} is below 1")
        if address is None and rtts:
            problems.append(f"{probe_id}: silent hop {index} carries RTTs")
        # NaN fails every comparison.
        bad = [rtt for rtt in rtts if type(rtt) not in (float, int)
               or not (rtt == 0 or RTT_MIN_MS <= rtt <= RTT_MAX_MS)]
        if bad:
            problems.append(f"{probe_id}: hop {index} has invalid RTTs {bad!r} ({_RTT_RANGE})")
    return problems


def validate(record, check) -> List[str]:
    """The problems ``check`` finds in ``record``. The loader calls this once
    per record, through the module global, where the benchmark's tracer
    counts and times it."""
    return check(record)


# ------------------------------------------------ writing

# One template per record kind, keys in sorted order, and two ways to
# fill a slot: a value of the exact type the slot expects is formatted
# directly, any other by ``_dump``. Either way a line is the ``_dump`` of
# the record's document.
_PROBE = ('{"asn_v4":%s,"asn_v6":%s,"network_prefix_v6":%s,"probe_id":%s,'
          '"record":"probe","resolvers":[%s],"tags":%s}\n')
_TEST_RUN = ('{"diagnostic":%s,"observed_prefix":%s,"probe_id":%s,"raw_outcome":"%s",'
             '"record":"test_run","resolver_used":%s,"test_kind":"%s","timestamp":%s}\n')
_TRACEROUTE = ('{"family":"%s","hops":[%s],"prefix":%s,"probe_id":%s,'
               '"record":"traceroute","round":%s,"target_v4":%s}\n')
_HOP = '{"address":%s,"index":%s,"rtts_ms":%s}'


def _int_text(value) -> str:
    return "%d" % value if type(value) is int else _dump(value)


def _str_text(value) -> str:
    return _quote(value) if type(value) is str else _dump(value)


class _Texts(dict):
    """The JSON text of each address, prefix and RTT tuple one write meets,
    made once.

    Addresses key by identity, in ``ids``: an ``ipaddress`` object hashes
    in Python, while the loader and the generator make one object per
    address value, so a hop costs one lookup of an integer. An equal
    address held by another object is formatted once more, to the same
    text; a scoped address and its unscoped twin are never confused. The
    table keeps every address it names, so no id is reused while it lives.

    Prefixes and RTTs key the dict itself: a prefix computes its hash once,
    when it is built. An RTT key is a clean hop's RTTs as a tuple of
    floats, whose reprs are their JSON text. A tuple holding a zero is
    formatted on every lookup and never stored: ``(0.0,) == (-0.0,)`` and
    both hash alike, so a stored ``[0.0]`` would be written for ``(-0.0,)``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.ids: Dict[int, str] = {id(None): "null"}
        self._named: List[IPAddress] = []

    def address(self, address: Optional[IPAddress]) -> str:
        """The text of ``address``, or ``null`` for None."""
        text = self.ids.get(id(address))
        if text is None:
            # ``_quote`` escapes an IPv6 scope's text as ``_dump`` would.
            text = self.ids[id(address)] = _quote(str(address))
            self._named.append(address)
        return text

    def __missing__(self, value) -> str:
        if value is None:
            text = "null"
        elif type(value) is tuple:
            text = "[%s]" % ",".join(map(repr, value))
            if 0.0 in value:
                return text
        else:
            text = _dump(
                {"base": str(value.base), "length": value.length, "kind": value.kind.value}
            )
        self[value] = text
        return text


def _probe_line(probe: ProbeRecord, texts: _Texts) -> str:
    probe_id, asn_v4, asn_v6, resolvers, tags, network = probe
    return _PROBE % (
        _int_text(asn_v4),
        _int_text(asn_v6),
        _dump(str(network) if network else None),
        _str_text(probe_id),
        ",".join([texts.address(resolver) for resolver in resolvers]),
        _dump(list(tags)),
    )


def _run_line(run: TestRun, texts: _Texts) -> str:
    probe_id, kind, timestamp, outcome, prefix, resolver_used, diagnostic = run
    return _TEST_RUN % (
        _str_text(diagnostic),
        texts[prefix],
        _str_text(probe_id),
        outcome.value,
        texts.address(resolver_used),
        kind.value,
        _int_text(timestamp),
    )


def _path_line(path: TraceroutePath, texts: _Texts) -> str:
    probe_id, family, prefix, target_v4, round_index, hops = path
    # Clean hops hold exact ints and finite floats, whose reprs are
    # their JSON text; bools, int RTTs, NaN and the like go to ``_dump``.
    # ``tuple`` returns an exact tuple itself and makes a list a key. The
    # table's ``address`` is inlined: a known address is one lookup.
    ids, name = texts.ids, texts.address
    if _hops_are_clean(hops):
        hop_texts = [
            _HOP % (ids.get(id(address)) or name(address), index, texts[tuple(rtts)])
            for index, address, rtts in hops
        ]
    else:
        hop_texts = [
            _HOP % (name(address), _dump(index), _dump(list(rtts)))
            for index, address, rtts in hops
        ]
    return _TRACEROUTE % (
        family.value,
        ",".join(hop_texts),
        texts[prefix],
        _str_text(probe_id),
        _int_text(round_index),
        texts.address(target_v4),
    )


def write_dataset(dataset: Dataset, out: IO[str]) -> None:
    """Write the canonical line-delimited form to ``out``; same dataset, same bytes."""
    write = out.write
    window = list(dataset.capture_window) if dataset.capture_window else None
    write(_dump({"record": "header", "schema": SCHEMA_VERSION, "capture_window": window}) + "\n")
    texts = _Texts()
    for probe in dataset.probes.values():
        write(_probe_line(probe, texts))
    for run in dataset.runs:
        write(_run_line(run, texts))
    for path in dataset.paths:
        write(_path_line(path, texts))


# ------------------------------------------------ decoding

_TYPE_NAMES = {str: "a string", int: "an integer", list: "a list", dict: "an object"}


def _need(value, kind: type, what: str):
    """Return ``value`` when it has the JSON type the codec needs."""
    if type(value) is not kind:
        raise DatasetError([f"{what} must be {_TYPE_NAMES[kind]}"])
    return value


_MEMBERS = {enum: {m.value: m for m in enum} for enum in (TestKind, RawOutcome, PathFamily)}


def _member(enum: type, value):
    """``enum(value)`` through a value table; a miss raises the enum's error."""
    member = _MEMBERS[enum].get(value) if type(value) is str else None
    return enum(value) if member is None else member


class _Decoder:
    """Builds records from JSON documents, parsing each distinct value once.

    One decoder serves one load and its tables go with it. A value is
    type-checked before it is parsed or used as a key, so nothing
    unhashable reaches the tables. Fields go by position, in the order
    the record classes list them.
    """

    def __init__(self) -> None:
        self._addresses: Dict[str, IPAddress] = {}
        self._targets: Dict[str, ipaddress.IPv4Address] = {}
        self._values: Dict[bytes, IPAddress] = {}
        self._prefixes: Dict[Tuple[str, int, str], Nat64Prefix] = {}

    def _parse(self, text: str, size: int, parse) -> IPAddress:
        """``parse(text)`` for a text not seen yet: one object per value.

        ``pack_address`` reads the text in C when it can, and an address
        of ``size`` bytes (0: either family) is then looked up by value,
        so two spellings of one address give one object. Any other text
        goes to ``parse``, which keeps scoped addresses and every problem
        message as ``ipaddress`` has them.
        """
        packed = pack_address(text)
        if packed is None or (size and len(packed) != size):
            return parse(text)
        address = self._values.get(packed)
        if address is None:
            address = self._values[packed] = unpack_address(packed)
        return address

    def address(self, text, what: str) -> IPAddress:
        address = self._addresses.get(_need(text, str, what))
        if address is None:
            address = self._addresses[text] = self._parse(text, 0, ipaddress.ip_address)
        return address

    def target(self, text) -> ipaddress.IPv4Address:
        target = self._targets.get(_need(text, str, "target_v4"))
        if target is None:
            target = self._targets[text] = self._parse(text, 4, ipaddress.IPv4Address)
        return target

    def network(self, text) -> ipaddress.IPv6Network:
        parsed = pack_network(_need(text, str, "network_prefix_v6"))
        if parsed is None or len(parsed[0]) != 16:
            return ipaddress.IPv6Network(text)  # its value, or its error
        packed, length = parsed
        return ipaddress.IPv6Network((int.from_bytes(packed, "big"), length))

    def prefix(self, doc) -> Optional[Nat64Prefix]:
        if doc is None:
            return None
        # A table hit only on exact types: 96.0 matches the key of 96 but
        # must still fail the checks below.
        if type(doc) is dict:
            base, length, kind = doc.get("base"), doc.get("length"), doc.get("kind")
            if type(base) is str and type(length) is int and type(kind) is str:
                prefix = self._prefixes.get((base, length, kind))
                if prefix is not None:
                    return prefix
        _need(doc, dict, "prefix")
        base = _need(doc["base"], str, "prefix base")
        length = _need(doc["length"], int, "prefix length")
        kind = _need(doc["kind"], str, "prefix kind")
        # Exact types all, so the table missed above: a prefix not seen yet.
        prefix = self._prefixes[base, length, kind] = Nat64Prefix(
            self._parse(base, 16, ipaddress.IPv6Address), length, PrefixKind(kind)
        )
        return prefix

    def hops(self, docs) -> Tuple[Hop, ...]:
        # The hot loop of a load: exact-type tests inline, and ``_need`` or
        # ``self.address`` only where one fails, to raise their message.
        addresses = self._addresses
        hops = []
        for doc in _need(docs, list, "hops"):
            if type(doc) is not dict:
                _need(doc, dict, "hop")
            text = doc["address"]
            if text is None:
                address = None
            else:
                address = addresses.get(text) if type(text) is str else None
                if address is None:
                    address = self.address(text, "hop address")
            rtts = doc["rtts_ms"]
            if type(rtts) is not list:
                _need(rtts, list, "rtts_ms")
            hops.append(_new_hop((doc["index"], address, tuple(rtts))))
        return tuple(hops)

    def probe(self, doc) -> ProbeRecord:
        network = doc["network_prefix_v6"]
        return _new_probe((
            _need(doc["probe_id"], str, "probe_id"),
            doc["asn_v4"],
            doc["asn_v6"],
            tuple(
                self.address(r, "resolver")
                for r in _need(doc["resolvers"], list, "resolvers")
            ),
            tuple(_need(doc["tags"], list, "tags")),
            None if network is None else self.network(network),
        ))

    def test_run(self, doc) -> TestRun:
        used = doc["resolver_used"]
        return _new_run((
            _need(doc["probe_id"], str, "probe_id"),
            _member(TestKind, doc["test_kind"]),
            doc["timestamp"],
            _member(RawOutcome, doc["raw_outcome"]),
            self.prefix(doc["observed_prefix"]),
            None if used is None else self.address(used, "resolver_used"),
            doc.get("diagnostic"),
        ))

    def path(self, doc) -> TraceroutePath:
        return _new_path((
            _need(doc["probe_id"], str, "probe_id"),
            _member(PathFamily, doc["family"]),
            self.prefix(doc["prefix"]),
            self.target(doc["target_v4"]),
            doc["round"],
            self.hops(doc["hops"]),
        ))


# ------------------------------------------------ filing


def _file_probe(dataset: Dataset, probe: ProbeRecord) -> Optional[str]:
    if probe.probe_id in dataset.probes:
        return f"duplicate probe {probe.probe_id}"
    dataset.probes[probe.probe_id] = probe
    return None


#: Each record kind by its ``record`` value: how its document decodes,
#: which checks its values pass, and how a loaded record is filed (a
#: problem, or None).
_KINDS = {
    "probe": (_Decoder.probe, _check_probe, _file_probe),
    "test_run": (_Decoder.test_run, _check_test_run, lambda ds, run: ds.runs.append(run)),
    "traceroute": (_Decoder.path, _check_path, lambda ds, path: ds.paths.append(path)),
}


def load_dataset(source: Union[str, IO[str], Iterable[str]]) -> Dataset:
    """Parse and check; raises DatasetError naming every offender found.

    A load allocates many small containers, none of them in reference
    cycles, which the cyclic collector would scan again and again as they
    pile up. ``cli.main`` pauses the collector for the whole command; a
    caller loading a large file may want to do the same.
    """
    own = isinstance(source, str)
    # Undecodable bytes survive reading and are reported per line below.
    handle = (
        open(source, "r", encoding="ascii", errors="surrogateescape") if own else source
    )
    problems: List[str] = []
    # (line, record kind, probe_id) of each run or path filed before its probe.
    unresolved: List[Tuple[int, str, str]] = []
    dataset = Dataset()
    decoder = _Decoder()
    try:
        lines = iter(enumerate(handle, start=1))
        try:
            _, first = next(lines)
        except StopIteration:
            raise DatasetError(["file is empty, expected a header line"])
        if own and not first.isascii():
            raise DatasetError(["line 1: not ASCII"])
        try:
            header = json.loads(first)
        except (ValueError, RecursionError) as exc:
            raise DatasetError([f"line 1: {exc}"])
        if not isinstance(header, dict) or header.get("record") != "header":
            raise DatasetError(["line 1 is not a header record"])
        if header.get("schema") != SCHEMA_VERSION:
            raise DatasetError([f"unsupported schema {header.get('schema')!r}"])
        window = header.get("capture_window")
        if window is not None:
            if isinstance(window, list) and [type(t) for t in window] == [int, int]:
                dataset.capture_window = tuple(window)
            else:
                problems.append("line 1: capture_window must be null or two integers")

        for lineno, line in lines:
            line = line.strip()
            if not line:
                continue
            if own and not line.isascii():
                problems.append(f"line {lineno}: not ASCII")
                continue
            try:
                try:
                    doc, end = _scan_line(line)
                except (ValueError, TypeError, RecursionError):
                    end = -1
                if end != len(line):
                    # Trailing data, a failed scan or a line that is not a
                    # str: ``json.loads`` decodes it or raises its own error.
                    doc = json.loads(line)
                name = _need(doc, dict, "record").get("record")
                # Only a str keys the table: a list value is unhashable.
                kind = _KINDS.get(name) if type(name) is str else None
                if kind is None:
                    raise DatasetError([f"unknown record kind {name!r}"])
                decode, check, file = kind
                record = decode(decoder, doc)
            except DatasetError as exc:
                problems.extend(f"line {lineno}: {problem}" for problem in exc.problems)
                continue
            except KeyError as exc:
                problems.append(f"line {lineno}: missing field {exc}")
                continue
            except (ValueError, RecursionError) as exc:
                problems.append(f"line {lineno}: {exc}")
                continue
            for violation in validate(record, check):
                problems.append(f"line {lineno}: {violation}")
            refused = file(dataset, record)
            if refused is not None:
                problems.append(f"line {lineno}: {refused}")
            # A probe may come after the records that name it, so a record
            # whose probe is not known yet is checked again at the end.
            if record.probe_id not in dataset.probes:
                unresolved.append((lineno, name, record.probe_id))
    finally:
        if own:
            handle.close()

    for kind, what in (("test_run", "test run"), ("traceroute", "traceroute")):
        problems.extend(
            f"line {lineno}: {what} references unknown probe {probe_id}"
            for lineno, name, probe_id in unresolved
            if name == kind and probe_id not in dataset.probes
        )
    if problems:
        raise DatasetError(problems)
    return dataset
