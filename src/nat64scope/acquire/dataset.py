"""Line-delimited JSON dataset: one header, then probe/test/traceroute records.

Encoding is canonical (sorted keys, no whitespace), so writing the same
dataset twice produces identical bytes. Loading validates every record and
cross-checks that runs and paths reference known probes.
"""

from __future__ import annotations

import gc
import ipaddress
import json
from dataclasses import dataclass, field
from functools import partial
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


@dataclass
class Dataset:
    """Everything one capture produced, keyed for the analysis stages."""

    probes: "dict[str, ProbeRecord]" = field(default_factory=dict)
    runs: List[TestRun] = field(default_factory=list)
    paths: List[TraceroutePath] = field(default_factory=list)
    capture_window: Optional[Tuple[int, int]] = None
    schema: int = SCHEMA_VERSION

    def add_probe(self, probe: ProbeRecord) -> None:
        if probe.probe_id in self.probes:
            raise DatasetError([f"duplicate probe {probe.probe_id}"])
        self.probes[probe.probe_id] = probe


class _Encoder:
    """Builds JSON documents from records, formatting each distinct value once.

    The mirror of ``_Decoder``: one encoder serves one write and its
    tables go with it. Tables key on the objects, which tell ``0.0.0.1``
    from ``::1`` although both are the integer 1.
    """

    def __init__(self) -> None:
        self._addresses: Dict[IPAddress, str] = {}
        self._prefixes: Dict[Nat64Prefix, dict] = {}

    def address(self, address: Optional[IPAddress]) -> Optional[str]:
        if address is None:
            return None
        text = self._addresses.get(address)
        if text is None:
            text = self._addresses[address] = str(address)
        return text

    def prefix(self, prefix: Optional[Nat64Prefix]) -> Optional[dict]:
        if prefix is None:
            return None
        doc = self._prefixes.get(prefix)
        if doc is None:
            doc = self._prefixes[prefix] = {
                "base": str(prefix.base), "length": prefix.length, "kind": prefix.kind.value
            }
        return doc

    def encode(self, record: object) -> dict:
        if isinstance(record, ProbeRecord):
            return {
                "record": "probe",
                "probe_id": record.probe_id,
                "asn_v4": record.asn_v4,
                "asn_v6": record.asn_v6,
                "resolvers": [self.address(r) for r in record.resolvers],
                "tags": list(record.tags),
                "network_prefix_v6": (
                    str(record.network_prefix_v6) if record.network_prefix_v6 else None
                ),
            }
        if isinstance(record, TestRun):
            return {
                "record": "test_run",
                "probe_id": record.probe_id,
                "test_kind": record.test_kind.value,
                "timestamp": record.timestamp,
                "raw_outcome": record.raw_outcome.value,
                "observed_prefix": self.prefix(record.observed_prefix),
                "resolver_used": self.address(record.resolver_used),
                "diagnostic": record.diagnostic,
            }
        if isinstance(record, TraceroutePath):
            return {
                "record": "traceroute",
                "probe_id": record.probe_id,
                "family": record.family.value,
                "prefix": self.prefix(record.prefix),
                "target_v4": self.address(record.target_v4),
                "round": record.round_index,
                "hops": [
                    {
                        "index": hop.index,
                        "address": self.address(hop.address),
                        "rtts_ms": list(hop.rtts_ms),
                    }
                    for hop in record.hops
                ],
            }
        raise TypeError(f"cannot encode {type(record).__name__}")


def encode_record(record: object) -> dict:
    """Map one model record to its JSON document."""
    return _Encoder().encode(record)


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


#: ``Hop(index, address, rtts_ms)`` from one tuple, without the Python-level
#: ``__new__`` that named tuples add; about half the cost per hop.
_new_hop = partial(tuple.__new__, Hop)


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
            return ProbeRecord(
                probe_id=_need(doc["probe_id"], str, "probe_id"),
                asn_v4=doc["asn_v4"],
                asn_v6=doc["asn_v6"],
                resolvers=tuple(
                    self.address(r, "resolver")
                    for r in _need(doc["resolvers"], list, "resolvers")
                ),
                tags=tuple(_need(doc["tags"], list, "tags")),
                network_prefix_v6=(
                    None
                    if network is None
                    else ipaddress.IPv6Network(_need(network, str, "network_prefix_v6"))
                ),
            )
        # Runs and paths are most of a file: their fields go by position,
        # which costs less than by keyword, in the order the classes list.
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
            return TraceroutePath(
                _need(doc["probe_id"], str, "probe_id"),
                _member(PathFamily, doc["family"]),
                self.prefix(doc["prefix"]),
                self.target(doc["target_v4"]),
                doc["round"],
                self.hops(doc["hops"]),
            )
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
        encoder = _Encoder()
        for records in (dataset.probes.values(), dataset.runs, dataset.paths):
            for record in records:
                handle.write(_dump(encoder.encode(record)) + "\n")
    finally:
        if own:
            handle.close()


def load_dataset(source: Union[str, IO[str], Iterable[str]]) -> Dataset:
    """Parse and validate; raises DatasetError naming every offender found.

    The cyclic collector is paused meanwhile: a load allocates many small
    containers, none of them in reference cycles, and the collector would
    otherwise scan them again and again as they pile up.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _load(source)
    finally:
        if collecting:
            gc.enable()


def _load(source: Union[str, IO[str], Iterable[str]]) -> Dataset:
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
            if isinstance(record, ProbeRecord):
                if record.probe_id in dataset.probes:
                    problems.append(f"line {lineno}: duplicate probe {record.probe_id}")
                else:
                    dataset.probes[record.probe_id] = record
            elif isinstance(record, TestRun):
                dataset.runs.append(record)
            elif isinstance(record, TraceroutePath):
                dataset.paths.append(record)
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
