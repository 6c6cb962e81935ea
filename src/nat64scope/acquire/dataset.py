"""Line-delimited JSON dataset: one header, then probe/test/traceroute records.

Encoding is canonical (sorted keys, no whitespace), so writing the same
dataset twice produces identical bytes. Loading validates every record and
cross-checks that runs and paths reference known probes.
"""

from __future__ import annotations

import ipaddress
import json
from json.encoder import encode_basestring_ascii as _quote
from typing import IO, Dict, Iterable, List, Optional, Tuple, Union

from ..model import (
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
    _hops_are_clean,
    _new_hop,
    _new_path,
    _new_probe,
    validate,
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

    __slots__ = ("probes", "runs", "paths", "capture_window", "schema")

    def __init__(self, probes=None, runs=None, paths=None,
                 capture_window: Optional[Tuple[int, int]] = None, schema: int = SCHEMA_VERSION):
        self.probes: Dict[str, ProbeRecord] = {} if probes is None else probes
        self.runs: List[TestRun] = [] if runs is None else runs
        self.paths: List[TraceroutePath] = [] if paths is None else paths
        self.capture_window = capture_window
        self.schema = schema

    def add_probe(self, probe: ProbeRecord) -> None:
        if probe.probe_id in self.probes:
            raise DatasetError([f"duplicate probe {probe.probe_id}"])
        self.probes[probe.probe_id] = probe


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
    """The JSON text of each address and prefix one write meets, made once.

    Keys are the objects, which tell ``0.0.0.1`` from ``::1`` although
    both are the integer 1.
    """

    def __missing__(self, value) -> str:
        if value is None:
            text = "null"
        elif isinstance(value, Nat64Prefix):
            text = _dump(
                {"base": str(value.base), "length": value.length, "kind": value.kind.value}
            )
        else:  # ``_quote`` escapes an IPv6 scope's text as ``_dump`` would
            text = _quote(str(value))
        self[value] = text
        return text


def _line(record: object, texts: _Texts) -> str:
    """One record's line, newline included."""
    if isinstance(record, TraceroutePath):
        probe_id, family, prefix, target_v4, round_index, hops = record
        # Clean hops hold exact ints and finite floats, whose reprs are
        # their JSON text; bools, int RTTs, NaN and the like go to ``_dump``.
        if _hops_are_clean(hops):
            hop_texts = [
                _HOP % (texts[address], index, "[%s]" % ",".join(map(repr, rtts)))
                for index, address, rtts in hops
            ]
        else:
            hop_texts = [
                _HOP % (texts[address], _dump(index), _dump(list(rtts)))
                for index, address, rtts in hops
            ]
        return _TRACEROUTE % (
            family.value,
            ",".join(hop_texts),
            texts[prefix],
            _str_text(probe_id),
            _int_text(round_index),
            texts[target_v4],
        )
    if isinstance(record, TestRun):
        probe_id, kind, timestamp, outcome, prefix, resolver_used, diagnostic = record
        return _TEST_RUN % (
            _str_text(diagnostic),
            texts[prefix],
            _str_text(probe_id),
            outcome.value,
            texts[resolver_used],
            kind.value,
            _int_text(timestamp),
        )
    if isinstance(record, ProbeRecord):
        probe_id, asn_v4, asn_v6, resolvers, tags, network = record
        return _PROBE % (
            _int_text(asn_v4),
            _int_text(asn_v6),
            _dump(str(network) if network else None),
            _str_text(probe_id),
            ",".join([texts[resolver] for resolver in resolvers]),
            _dump(list(tags)),
        )
    raise TypeError(f"cannot encode {type(record).__name__}")


def encode_record(record: object) -> dict:
    """Map one model record to its JSON document."""
    return json.loads(_line(record, _Texts()))


_TYPE_NAMES = {str: "a string", int: "an integer", list: "a list", dict: "an object"}


def _need(value, kind: type, what: str):
    """Return ``value`` when it has the JSON type the codec needs."""
    if type(value) is kind:
        return value
    if not isinstance(value, kind) or isinstance(value, bool):
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
    unhashable reaches the tables.
    """

    def __init__(self) -> None:
        self._addresses: Dict[str, IPAddress] = {}
        self._targets: Dict[str, ipaddress.IPv4Address] = {}
        self._prefixes: Dict[Tuple[str, int, str], Nat64Prefix] = {}

    def address(self, text, what: str) -> IPAddress:
        address = self._addresses.get(_need(text, str, what))
        if address is None:
            address = self._addresses[text] = ipaddress.ip_address(text)
        return address

    def target(self, text) -> ipaddress.IPv4Address:
        target = self._targets.get(_need(text, str, "target_v4"))
        if target is None:
            target = self._targets[text] = ipaddress.IPv4Address(text)
        return target

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
        key = (
            _need(doc["base"], str, "prefix base"),
            _need(doc["length"], int, "prefix length"),
            _need(doc["kind"], str, "prefix kind"),
        )
        prefix = self._prefixes.get(key)
        if prefix is None:
            base, length, kind = key
            prefix = self._prefixes[key] = Nat64Prefix(
                ipaddress.IPv6Address(base), length, PrefixKind(kind)
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

    def decode(self, doc) -> object:
        kind = _need(doc, dict, "record").get("record")
        if kind == "probe":
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
                None
                if network is None
                else ipaddress.IPv6Network(_need(network, str, "network_prefix_v6")),
            ))
        # Fields go by position, in the order the classes list them.
        if kind == "test_run":
            used = doc["resolver_used"]
            return TestRun(
                _need(doc["probe_id"], str, "probe_id"),
                _member(TestKind, doc["test_kind"]),
                doc["timestamp"],
                _member(RawOutcome, doc["raw_outcome"]),
                self.prefix(doc["observed_prefix"]),
                None if used is None else self.address(used, "resolver_used"),
                doc.get("diagnostic"),
            )
        if kind == "traceroute":
            return _new_path((
                _need(doc["probe_id"], str, "probe_id"),
                _member(PathFamily, doc["family"]),
                self.prefix(doc["prefix"]),
                self.target(doc["target_v4"]),
                doc["round"],
                self.hops(doc["hops"]),
            ))
        raise DatasetError([f"unknown record kind {kind!r}"])


def decode_record(doc: dict) -> object:
    """Map one JSON document to its model record.

    A malformed document raises DatasetError, KeyError or ValueError.
    """
    return _Decoder().decode(doc)


def write_dataset(dataset: Dataset, out: Union[str, IO[str]]) -> None:
    """Write the canonical line-delimited form; same dataset, same bytes."""
    own = isinstance(out, str)
    handle = open(out, "w", encoding="ascii") if own else out
    try:
        header = {
            "record": "header",
            "schema": dataset.schema,
            "capture_window": list(dataset.capture_window) if dataset.capture_window else None,
        }
        handle.write(_dump(header) + "\n")
        texts = _Texts()
        for records in (dataset.probes.values(), dataset.runs, dataset.paths):
            for record in records:
                handle.write(_line(record, texts))
    finally:
        if own:
            handle.close()


def load_dataset(source: Union[str, IO[str], Iterable[str]]) -> Dataset:
    """Parse and validate; raises DatasetError naming every offender found.

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
                record = decoder.decode(doc)
            except DatasetError as exc:
                problems.extend(f"line {lineno}: {problem}" for problem in exc.problems)
                continue
            except KeyError as exc:
                problems.append(f"line {lineno}: missing field {exc}")
                continue
            except (ValueError, RecursionError) as exc:
                problems.append(f"line {lineno}: {exc}")
                continue
            for violation in validate(record):
                problems.append(f"line {lineno}: {violation}")
            if isinstance(record, TraceroutePath):
                dataset.paths.append(record)
            elif isinstance(record, TestRun):
                dataset.runs.append(record)
            elif record.probe_id in dataset.probes:
                problems.append(f"line {lineno}: duplicate probe {record.probe_id}")
            else:
                dataset.probes[record.probe_id] = record
    finally:
        if own:
            handle.close()

    for run in dataset.runs:
        if run.probe_id not in dataset.probes:
            problems.append(f"test run references unknown probe {run.probe_id}")
    for path in dataset.paths:
        if path.probe_id not in dataset.probes:
            problems.append(f"traceroute references unknown probe {path.probe_id}")
    if problems:
        raise DatasetError(problems)
    return dataset
