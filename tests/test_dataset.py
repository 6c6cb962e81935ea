import io
import ipaddress
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from nat64scope.acquire.dataset import (
    Dataset,
    DatasetError,
    RTT_MAX_MS,
    RTT_MIN_MS,
    _KINDS,
    _Decoder,
    _hops_are_clean,
    load_dataset,
    write_dataset,
)
from nat64scope.model import (
    MAX_ASN,
    Hop,
    Nat64Prefix,
    PathFamily,
    PrefixKind,
    ProbeRecord,
    RawOutcome,
    STANDARD_PREFIX,
    TestKind,
    TestRun,
    TraceroutePath,
)
from oracles import oracle_document

V4 = ipaddress.IPv4Address
V6 = ipaddress.IPv6Address


def sample_dataset() -> Dataset:
    ds = Dataset()
    ds.probes["p1"] = ProbeRecord(
        "p1",
        asn_v4=65001,
        asn_v6=65001,
        resolvers=(V6("2001:db8:1::53"),),
        tags=("system-ipv6-works",),
        network_prefix_v6=ipaddress.IPv6Network("2001:db8:1:1::/64"),
    )
    ds.probes["p2"] = ProbeRecord("p2", asn_v4=None, asn_v6=65002)
    ds.runs.append(
        TestRun(
            "p1",
            TestKind.DNS_TEST1,
            1700000000,
            RawOutcome.PASS,
            observed_prefix=STANDARD_PREFIX,
            resolver_used=V6("2001:db8:1::53"),
        )
    )
    ds.runs.append(
        TestRun(
            "p2",
            TestKind.STD_PREFIX_PING,
            1700000300,
            RawOutcome.FAIL,
            observed_prefix=STANDARD_PREFIX,
            diagnostic="0 of 3 replies",
        )
    )
    ds.paths.append(
        TraceroutePath(
            "p1",
            PathFamily.NAT64,
            STANDARD_PREFIX,
            V4("198.18.0.1"),
            0,
            hops=(
                Hop(1, V6("2001:db8:1::1"), (1.1, 1.2, 1.4)),
                Hop(2, None),
                Hop(3, V6("64:ff9b::c612:1"), (8.0, 8.1, 8.3)),
            ),
        )
    )
    ds.capture_window = (1700000000, 1700400000)
    return ds


def write_file(ds: Dataset, path) -> None:
    """Write ``ds`` to the file at ``path``, opened as the commands open it."""
    with open(path, "w", encoding="ascii") as handle:
        write_dataset(ds, handle)


def test_round_trip_and_determinism(tmp_path):
    ds = sample_dataset()
    path_a = tmp_path / "a.ndjson"
    path_b = tmp_path / "b.ndjson"
    write_file(ds, path_a)
    loaded = load_dataset(str(path_a))
    assert loaded.probes == ds.probes
    assert loaded.runs == ds.runs
    assert loaded.paths == ds.paths
    assert loaded.capture_window == ds.capture_window
    write_file(loaded, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_unknown_probe_reference_rejected():
    ds = sample_dataset()
    ds.runs.append(
        TestRun("ghost", TestKind.DNS_TEST1, 0, RawOutcome.FAIL, diagnostic="x")
    )
    buffer = io.StringIO()
    write_dataset(ds, buffer)
    buffer.seek(0)
    with pytest.raises(DatasetError, match="unknown probe ghost"):
        load_dataset(buffer)


def test_unknown_probe_references_name_their_lines():
    # Records may come before their probe. The per-line problems come
    # first, then runs and then traceroutes naming a probe never filed.
    ghost_path = PATH.replace('"p1"', '"ghost"') % "[]"
    ghost_run = (RUN % "5").replace('"p1"', '"ghost"')
    lines = [HEADER, ghost_path, PATH % "[]", RUN % "5", ghost_run, PROBE, RUN % '"soon"', ghost_path]
    with pytest.raises(DatasetError) as info:
        load_dataset(lines)
    assert info.value.problems == [
        "line 7: timestamp must be an integer",
        "line 5: test run references unknown probe ghost",
        "line 2: traceroute references unknown probe ghost",
        "line 8: traceroute references unknown probe ghost",
    ]


def test_missing_header_rejected():
    with pytest.raises(DatasetError, match="header"):
        load_dataset(io.StringIO('{"record":"probe"}\n'))


def test_empty_file_rejected():
    with pytest.raises(DatasetError, match="empty"):
        load_dataset(io.StringIO(""))


def test_bad_schema_rejected():
    with pytest.raises(DatasetError, match="schema"):
        load_dataset(io.StringIO('{"record":"header","schema":99,"capture_window":null}\n'))


def test_duplicate_probe_rejected():
    lines = dataset_lines(sample_dataset())
    assert json.loads(lines[1])["probe_id"] == "p1"
    with pytest.raises(DatasetError, match=f"line {len(lines) + 1}: duplicate probe p1"):
        load_dataset([*lines, lines[1]])


def test_invalid_record_contract_rejected():
    # A DNS run that claims to have failed yet carries a prefix.
    buffer = io.StringIO()
    write_dataset(sample_dataset(), buffer)
    buffer.write(
        '{"record":"test_run","probe_id":"p1","test_kind":"dns_test1",'
        '"timestamp":5,"raw_outcome":"fail",'
        '"observed_prefix":{"base":"64:ff9b::","length":96,"kind":"standard"},'
        '"resolver_used":null,"diagnostic":null}\n'
    )
    buffer.seek(0)
    with pytest.raises(DatasetError, match="observed_prefix"):
        load_dataset(buffer)


probe_ids = st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=6)
asns = st.one_of(st.none(), st.integers(min_value=1, max_value=2**31 - 1))


@st.composite
def probe_records(draw):
    return ProbeRecord(
        probe_id=draw(probe_ids),
        asn_v4=draw(asns),
        asn_v6=draw(asns),
        resolvers=tuple(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=2**128 - 1).map(V6), max_size=3
                )
            )
        ),
        tags=tuple(draw(st.lists(st.sampled_from(["a", "b", "c"]), max_size=2))),
        network_prefix_v6=draw(
            st.one_of(
                st.none(),
                st.integers(min_value=0, max_value=2**64 - 1).map(
                    lambda n: ipaddress.IPv6Network((n << 64, 64))
                ),
            )
        ),
    )


@given(probe_records())
def test_probe_record_codec_round_trip(record):
    lines = dataset_lines(Dataset(probes={record.probe_id: record}))
    assert load_dataset(lines).probes == {record.probe_id: record}


# ------------------------------------------------ decoding at scale


def simulated_dataset(seed: int = 3) -> Dataset:
    from nat64scope.simharness import ACCEPTANCE_TEMPLATE, generate, parse_scenario

    return generate(parse_scenario(ACCEPTANCE_TEMPLATE), seed).dataset


def dataset_lines(ds: Dataset) -> list:
    buffer = io.StringIO()
    write_dataset(ds, buffer)
    return buffer.getvalue().splitlines()


def test_load_of_repeated_addresses_equals_line_by_line_decode():
    lines = dataset_lines(simulated_dataset())
    loaded = load_dataset(lines)
    # Each line through a decoder of its own, with tables of its own.
    docs = [json.loads(line) for line in lines[1:]]
    decoded = [_KINDS[doc["record"]][0](_Decoder(), doc) for doc in docs]
    assert list(loaded.probes.values()) == [r for r in decoded if isinstance(r, ProbeRecord)]
    assert loaded.runs == [r for r in decoded if isinstance(r, TestRun)]
    assert loaded.paths == [r for r in decoded if isinstance(r, TraceroutePath)]
    addresses = [h.address for p in loaded.paths for h in p.hops if h.address is not None]
    # Far fewer distinct addresses than hops, and each is one shared object.
    assert len(set(addresses)) < len(addresses) / 4
    assert len({id(a) for a in addresses}) == len(set(addresses))


def test_tables_do_not_outlive_a_load():
    lines = dataset_lines(sample_dataset())
    first, second = load_dataset(lines), load_dataset(lines)
    assert first.paths == second.paths
    assert first.paths[0].hops[0].address is not second.paths[0].hops[0].address


def test_write_load_write_is_byte_identical_at_world_scale(tmp_path):
    path_a = tmp_path / "a.ndjson"
    path_b = tmp_path / "b.ndjson"
    write_file(simulated_dataset(), path_a)
    write_file(load_dataset(str(path_a)), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_addresses_with_one_integer_value_keep_their_own_text():
    # A table keyed on the integer value would write one text for both.
    v4, v6 = V4("0.0.0.1"), V6("::1")
    assert int(v4) == int(v6) and v4 != v6
    ds = Dataset()
    ds.probes["p1"] = ProbeRecord("p1", asn_v4=1, asn_v6=1, resolvers=(v6, v4))
    ds.paths.append(
        TraceroutePath(
            "p1", PathFamily.IPV4, None, V4("198.18.0.1"), 0,
            hops=(Hop(1, v4, (1.0,)), Hop(2, v6, (2.0,)), Hop(3, v4, (3.0,))),
        )
    )
    probe, path = (json.loads(line) for line in dataset_lines(ds)[1:])
    assert probe["resolvers"] == ["::1", "0.0.0.1"]
    assert [hop["address"] for hop in path["hops"]] == ["0.0.0.1", "::1", "0.0.0.1"]


def test_each_address_object_is_written_as_its_own_text():
    # The writer names addresses by identity: equal objects made apart get
    # the same text, and a scoped address is not its unscoped twin.
    one, also_one = V6("2001:db8::1"), V6("2001:db8::1")
    scoped = V6("2001:db8::1%eth0")
    assert one == also_one and one is not also_one and int(scoped) == int(one)
    ds = Dataset()
    ds.probes["p1"] = ProbeRecord("p1", asn_v4=1, asn_v6=1, resolvers=(scoped, one))
    ds.paths.append(
        TraceroutePath(
            "p1", PathFamily.IPV4, None, V4("198.18.0.1"), 0,
            hops=(Hop(1, one, (1.0,)), Hop(2, scoped, (2.0,)), Hop(3, also_one, (3.0,))),
        )
    )
    probe, path = (json.loads(line) for line in dataset_lines(ds)[1:])
    assert probe["resolvers"] == ["2001:db8::1%eth0", "2001:db8::1"]
    assert [hop["address"] for hop in path["hops"]] == [
        "2001:db8::1", "2001:db8::1%eth0", "2001:db8::1"
    ]


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_zero_and_negative_zero_rtts_keep_their_own_text(first, second):
    # Equal keys that hash alike: a table keyed by value alone would write
    # the first one's text for both.
    assert (first,) == (second,) and hash((first,)) == hash((second,))
    ds = Dataset()
    ds.probes["p1"] = ProbeRecord("p1", asn_v4=1, asn_v6=1)
    ds.paths.append(
        TraceroutePath(
            "p1", PathFamily.IPV4, None, V4("198.18.0.1"), 0,
            hops=(Hop(1, V4("192.0.2.1"), (first,)), Hop(2, V4("192.0.2.2"), (second,))),
        )
    )
    path = dataset_lines(ds)[2]
    assert re.findall(r'"rtts_ms":(\[[^]]*\])', path) == [f"[{first!r}]", f"[{second!r}]"]


def test_rtt_lists_and_repeated_tuples_are_written_as_json():
    # A clean hop's RTTs may be a list, written as the tuple it holds,
    # and one tuple may recur in many hops.
    rtts = (1.5, 2.25, 1e-3)
    ds = Dataset()
    ds.probes["p1"] = ProbeRecord("p1", asn_v4=1, asn_v6=1)
    ds.paths.append(
        TraceroutePath(
            "p1", PathFamily.IPV4, None, V4("198.18.0.1"), 0,
            hops=(
                Hop(1, V4("192.0.2.1"), rtts),
                Hop(2, V4("192.0.2.2"), list(rtts)),
                Hop(3, V4("192.0.2.3"), tuple(list(rtts))),
                Hop(4, None, ()),
            ),
        )
    )
    path = json.loads(dataset_lines(ds)[2])
    assert [hop["rtts_ms"] for hop in path["hops"]] == [list(rtts)] * 3 + [[]]


# ------------------------------------------------ writing against the reference


class Tally(int):
    """An int subclass: JSON writes its number, as for a plain int."""


# Quotes, backslashes, control, non-ASCII and lone surrogate characters,
# which each take an escape in JSON text.
odd_text = st.text(
    st.one_of(st.characters(), st.sampled_from(['"', "\\", "\x00", "é", "\ud800", "\udfff"])),
    max_size=6,
)
any_ints = st.one_of(st.integers(), st.booleans(), st.integers().map(Tally))
any_addresses = st.one_of(
    st.integers(min_value=0, max_value=2**32 - 1).map(V4),
    st.integers(min_value=0, max_value=2**128 - 1).map(V6),
    st.just(V6('fe80::1%"é')),
    odd_text.filter(lambda scope: scope and not {"%", "/"} & set(scope)).map(
        lambda scope: V6(f"fe80::1%{scope}")
    ),
)
any_prefixes = st.sampled_from([
    STANDARD_PREFIX,
    Nat64Prefix(V6("2001:db8:64::"), 96, PrefixKind.CUSTOM),
    Nat64Prefix(V6("2001:db8::"), 32, PrefixKind.CUSTOM),
])
# -0.0 passes the clean-hop test, and its repr keeps the sign.
clean_rtts = st.one_of(st.floats(min_value=0.0, allow_infinity=False), st.just(-0.0))
any_rtts = st.one_of(
    clean_rtts,
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(),
    st.integers(min_value=0, max_value=10**6),
)


@st.composite
def any_hops(draw):
    contiguous = draw(st.booleans())
    clean = draw(st.booleans())
    hops = []
    for position in range(1, draw(st.integers(min_value=0, max_value=5)) + 1):
        address = draw(st.one_of(st.none(), any_addresses))
        # A clean path's silent hops carry no RTTs; any other's may.
        rtts = () if clean and address is None else tuple(
            draw(st.lists(clean_rtts if clean else any_rtts, max_size=3))
        )
        hops.append(Hop(position if contiguous else draw(any_ints), address, rtts))
    return tuple(hops)


@st.composite
def any_datasets(draw):
    ds = Dataset()
    for probe in draw(st.lists(
        st.builds(
            ProbeRecord,
            probe_id=odd_text,
            asn_v4=st.one_of(st.none(), any_ints),
            asn_v6=st.one_of(st.none(), any_ints),
            resolvers=st.lists(any_addresses, max_size=2).map(tuple),
            tags=st.lists(odd_text, max_size=2).map(tuple),
            network_prefix_v6=st.one_of(
                st.none(),
                st.integers(min_value=0, max_value=2**64 - 1).map(
                    lambda n: ipaddress.IPv6Network((n << 64, 64))
                ),
            ),
        ),
        max_size=3,
        unique_by=lambda probe: probe.probe_id,
    )):
        ds.probes[probe.probe_id] = probe
    ds.runs = draw(st.lists(
        st.builds(
            TestRun,
            probe_id=odd_text,
            test_kind=st.sampled_from(TestKind),
            timestamp=any_ints,
            raw_outcome=st.sampled_from(RawOutcome),
            observed_prefix=st.one_of(st.none(), any_prefixes),
            resolver_used=st.one_of(st.none(), any_addresses),
            diagnostic=st.one_of(st.none(), odd_text),
        ),
        max_size=3,
    ))
    # Family and prefix are drawn apart, so an ipv4 path with a prefix
    # and a nat64 path without one are written too.
    ds.paths = draw(st.lists(
        st.builds(
            TraceroutePath,
            probe_id=odd_text,
            family=st.sampled_from(PathFamily),
            prefix=st.one_of(st.none(), any_prefixes),
            target_v4=any_addresses,
            round_index=any_ints,
            hops=any_hops(),
        ),
        max_size=3,
    ))
    ds.capture_window = draw(st.one_of(st.none(), st.tuples(st.integers(), st.integers())))
    return ds


@settings(deadline=None)
@given(any_datasets())
def test_written_lines_equal_the_reference_documents(ds):
    buffer = io.StringIO()
    write_dataset(ds, buffer)
    lines = buffer.getvalue().split("\n")
    records = [*ds.probes.values(), *ds.runs, *ds.paths]
    assert len(lines) == len(records) + 2 and lines[-1] == ""
    for line, record in zip(lines[1:], records):
        assert line == json.dumps(oracle_document(record), sort_keys=True, separators=(",", ":"))


# ------------------------------------------------ malformed input

HEADER = '{"record":"header","schema":1,"capture_window":null}'
PROBE = (
    '{"asn_v4":1,"asn_v6":1,"network_prefix_v6":null,"probe_id":"p1",'
    '"record":"probe","resolvers":[],"tags":[]}'
)
PATH = (
    '{"record":"traceroute","probe_id":"p1","family":"ipv4","prefix":null,'
    '"target_v4":"192.0.2.1","round":0,"hops":%s}'
)
RUN = (
    '{"record":"test_run","probe_id":"p1","test_kind":"dns_test1","timestamp":%s,'
    '"raw_outcome":"fail","observed_prefix":null,"resolver_used":null,"diagnostic":null}'
)
#: How a bad-RTT problem ends: the range every RTT must lie in.
RANGE = "(each must be 0, or 0.001 to 10,000,000 ms)"


@pytest.mark.parametrize(
    "lines, problem",
    [
        (["[1, 2]", PROBE], "line 1 is not a header record"),
        ([HEADER, PROBE, "[1]"], "line 3: record must be an object"),
        ([HEADER, PROBE, PATH % "5"], "line 3: hops must be a list"),
        ([HEADER, PROBE, RUN % '"soon"'], "line 3: timestamp must be an integer"),
        (
            [HEADER, PROBE, PATH % '[{"index":1,"address":"192.0.2.1","rtts_ms":["x"]}]'],
            f"line 3: p1: hop 1 has invalid RTTs ['x'] {RANGE}",
        ),
        (
            [HEADER, PROBE, PATH % '[{"index":1,"address":"192.0.2.1","rtts_ms":[1e999]}]'],
            f"line 3: p1: hop 1 has invalid RTTs [inf] {RANGE}",
        ),
        (
            [HEADER, PROBE, PATH % '[{"index":1,"address":["192.0.2.1"],"rtts_ms":[]}]'],
            "line 3: hop address must be a string",
        ),
        ([HEADER, PROBE.replace('"p1"', '["p1"]')], "line 2: probe_id must be a string"),
        ([HEADER, PROBE.replace(',"tags":[]', "")], "line 2: missing field 'tags'"),
        (
            [HEADER, PROBE.replace('"asn_v4":1', '"asn_v4":true')],
            "line 2: asn_v4 must be a positive integer or None",
        ),
    ],
)
def test_wrong_types_are_one_problem_each(lines, problem):
    with pytest.raises(DatasetError) as info:
        load_dataset(lines)
    assert info.value.problems == [problem]


def test_other_lines_still_checked_after_a_wrong_type():
    lines = [HEADER, PROBE, PATH % "5", RUN % '"soon"', RUN % "-1", PATH % "[]"]
    with pytest.raises(DatasetError) as info:
        load_dataset(lines)
    assert info.value.problems == [
        "line 3: hops must be a list",
        "line 4: timestamp must be an integer",
        "line 5: timestamp is negative",
    ]


@pytest.mark.parametrize("asn", [MAX_ASN + 1, 99999999999999999999])
def test_asn_above_the_largest_as_number_is_a_problem(asn):
    with pytest.raises(DatasetError) as info:
        load_dataset([HEADER, PROBE.replace('"asn_v6":1', f'"asn_v6":{asn}')])
    assert info.value.problems == [
        f"line 2: asn_v6 {asn} is above the largest AS number {MAX_ASN}"
    ]


def test_largest_as_number_loads():
    dataset = load_dataset([HEADER, PROBE.replace('"asn_v4":1', f'"asn_v4":{MAX_ASN}')])
    assert dataset.probes["p1"].asn_v4 == MAX_ASN


# ------------------------------------------------ fast-path boundaries
#
# Loading checks clean lines on exact-type fast paths and hands anything
# irregular to the general checks. Each case pins the problems the
# general checks give, so a fast path that lets a line through, or words
# it differently, fails here.

NAT = (
    '{"record":"traceroute","probe_id":"p1","family":"nat64",'
    '"prefix":{"base":"64:ff9b::","length":%s,"kind":"standard"},'
    '"target_v4":"192.0.2.1","round":0,"hops":[]}'
)


def hops(*entries):
    """A traceroute line whose hops are (index, address, rtts) JSON texts."""
    docs = ['{"index":%s,"address":%s,"rtts_ms":%s}' % entry for entry in entries]
    return PATH % ("[" + ",".join(docs) + "]")


ADDR = '"192.0.2.1"'


@pytest.mark.parametrize(
    "lines, problems",
    [
        ([hops(("true", ADDR, "[1.0]"))], ["line 3: p1: hop index True is not an integer"]),
        (
            [hops(("0", ADDR, "[1.0]"))],
            [
                "line 3: hop indices not contiguous at position 1",
                "line 3: p1: hop index 0 is below 1",
            ],
        ),
        (
            [hops(("1", ADDR, "[1.0]"), ("3", ADDR, "[2.0]"))],
            ["line 3: hop indices not contiguous at position 2"],
        ),
        (
            [hops(("1", ADDR, "[1.0]"), ("2", "null", "[]"), ("4", ADDR, "[1.0]"))],
            ["line 3: hop indices not contiguous at position 3"],
        ),
        ([hops(("1", ADDR, "[-1.0]"))], [f"line 3: p1: hop 1 has invalid RTTs [-1.0] {RANGE}"]),
        ([hops(("1", ADDR, "[NaN]"))], [f"line 3: p1: hop 1 has invalid RTTs [nan] {RANGE}"]),
        ([hops(("1", "null", "[1.0]"))], ["line 3: p1: silent hop 1 carries RTTs"]),
        ([hops(("1", ADDR, '"1.0"'))], ["line 3: rtts_ms must be a list"]),
        ([PATH % '[{"index":1,"address":null,"rtts_ms":[]},[]]'], ["line 3: hop must be an object"]),
        (
            [hops(("true", "null", "[1.0]"), ("2", ADDR, '[-1.0,"x"]'))],
            [
                "line 3: p1: hop index True is not an integer",
                "line 3: p1: silent hop True carries RTTs",
                f"line 3: p1: hop 2 has invalid RTTs [-1.0, 'x'] {RANGE}",
            ],
        ),
        (
            [hops(("1", ADDR, "[1.0]")), hops(("1", "[" + ADDR + "]", "[1.0]"))],
            ["line 4: hop address must be a string"],
        ),
        ([PATH.replace('"ipv4"', '"ipv6"') % "[]"], ["line 3: 'ipv6' is not a valid PathFamily"]),
        (
            [PATH.replace('"ipv4"', '["ipv4"]') % "[]"],
            ["line 3: ['ipv4'] is not a valid PathFamily"],
        ),
        (
            [(RUN % "5").replace('"dns_test1"', '"dns_test3"')],
            ["line 3: 'dns_test3' is not a valid TestKind"],
        ),
        (
            [(RUN % "5").replace('"dns_test1"', '["dns_test1"]')],
            ["line 3: ['dns_test1'] is not a valid TestKind"],
        ),
        ([(RUN % "5").replace('"fail"', '"maybe"')], ["line 3: 'maybe' is not a valid RawOutcome"]),
        (
            [(RUN % "5").replace('"fail"', '["fail"]')],
            ["line 3: ['fail'] is not a valid RawOutcome"],
        ),
        ([NAT % "true"], ["line 3: prefix length must be an integer"]),
        ([NAT % "96", NAT % "true"], ["line 4: prefix length must be an integer"]),
        ([NAT % "96", NAT % "96.0"], ["line 4: prefix length must be an integer"]),
    ],
)
def test_irregular_values_get_the_general_checks_messages(lines, problems):
    with pytest.raises(DatasetError) as info:
        load_dataset([HEADER, PROBE, *lines])
    assert info.value.problems == problems


def test_integer_rtt_and_cached_prefix_still_load():
    loaded = load_dataset([HEADER, PROBE, hops(("1", ADDR, "[1]")), NAT % "96", NAT % "96"])
    assert loaded.paths[0].hops == (Hop(1, V4("192.0.2.1"), (1,)),)
    assert loaded.paths[1].prefix is loaded.paths[2].prefix is not None


# ------------------------------------------------ the line contract, one check at a time

STD = {"base": "64:ff9b::", "length": 96, "kind": "standard"}
CUSTOM = {"base": "2001:db8::", "length": 96, "kind": "custom"}


def line(template: str, **fields) -> str:
    """``template``'s record with ``fields`` set to the given JSON values."""
    doc = json.loads(template)
    doc.update(fields)
    return json.dumps(doc)


def problems_of(*lines) -> list:
    with pytest.raises(DatasetError) as info:
        load_dataset([HEADER, *lines])
    return info.value.problems


class TestLineContract:
    def test_well_formed_probe_loads(self):
        probe = line(
            PROBE, asn_v4=65001, asn_v6=65001, resolvers=["2001:db8::53"],
            tags=["system-ipv6-works"], network_prefix_v6="2001:db8::/64",
        )
        assert load_dataset([HEADER, probe]).probes["p1"] == ProbeRecord(
            "p1", 65001, 65001, (V6("2001:db8::53"),), ("system-ipv6-works",),
            ipaddress.IPv6Network("2001:db8::/64"),
        )

    def test_probe_id_that_is_not_text_is_a_problem(self):
        # A lone surrogate loads from a JSON escape but has no UTF-8 form.
        assert problems_of(line(PROBE, probe_id="p\ud800")) == [
            "line 2: probe_id is not valid Unicode text"
        ]

    def test_non_ascii_probe_id_loads(self):
        assert list(load_dataset([HEADER, line(PROBE, probe_id="prüf-1")]).probes) == ["prüf-1"]

    def test_negative_asn_is_a_problem(self):
        assert problems_of(line(PROBE, asn_v4=-4)) == [
            "line 2: asn_v4 must be a positive integer or None"
        ]

    def test_failed_dns_run_with_a_prefix_is_a_problem(self):
        assert problems_of(PROBE, line(RUN % "5", observed_prefix=STD)) == [
            "line 3: failed DNS run carries observed_prefix"
        ]

    def test_passed_dns_run_with_a_prefix_loads(self):
        run = line(
            RUN % "5", raw_outcome="pass", observed_prefix=STD, resolver_used="2001:db8::53"
        )
        assert load_dataset([HEADER, PROBE, run]).runs[0].observed_prefix == STANDARD_PREFIX

    @pytest.mark.parametrize(
        "kind, prefix, problem",
        [
            ("std_prefix_ping", None, "std_prefix_ping run lacks a prefix"),
            ("std_prefix_ping", CUSTOM, "std_prefix_ping run carries a non-standard prefix"),
            ("custom_prefix_ping", STD, "custom_prefix_ping run carries the standard prefix"),
        ],
    )
    def test_ping_run_prefix_must_match_its_kind(self, kind, prefix, problem):
        run = line(RUN % "5", test_kind=kind, observed_prefix=prefix)
        assert problems_of(PROBE, run) == [f"line 3: {problem}"]

    def test_hops_are_numbered_from_one_without_gaps(self):
        load_dataset([HEADER, PROBE, hops(("1", ADDR, "[1.0]"), ("2", "null", "[]"))])
        assert problems_of(PROBE, hops(("1", ADDR, "[1.0]"), ("3", "null", "[]"))) == [
            "line 3: hop indices not contiguous at position 2"
        ]

    def test_hop_checks_take_exact_types(self):
        load_dataset([HEADER, PROBE, hops(("1", ADDR, "[1, 2.5]"))])
        assert problems_of(PROBE, hops(("true", ADDR, "[1.0]"))) == [
            "line 3: p1: hop index True is not an integer"
        ]
        assert problems_of(PROBE, hops(("1", ADDR, "[true, 1e999]"))) == [
            f"line 3: p1: hop 1 has invalid RTTs [True, inf] {RANGE}"
        ]

    @pytest.mark.parametrize("rtt", [0.0, RTT_MIN_MS, 1.5, RTT_MAX_MS, 0, 7, 10**7])
    def test_rtt_in_range_loads(self, rtt):
        loaded = load_dataset([HEADER, PROBE, hops(("1", ADDR, json.dumps([rtt])))])
        (hop,) = loaded.paths[0].hops
        assert hop.rtts_ms == (rtt,) and type(hop.rtts_ms[0]) is type(rtt)
        # The loader's and the writer's fast path: floats only.
        assert _hops_are_clean(loaded.paths[0].hops) is (type(rtt) is float)

    @pytest.mark.parametrize(
        "rtt", [5e-324, 9.99e-4, 1.7e308, RTT_MAX_MS * (1 + 1e-15), -1e-3, 10**7 + 1]
    )
    def test_rtt_out_of_range_is_a_problem(self, rtt):
        # The fast path and the full checks hold one pair of bounds.
        assert problems_of(PROBE, hops(("1", ADDR, json.dumps([rtt])))) == [
            f"line 3: p1: hop 1 has invalid RTTs [{rtt!r}] {RANGE}"
        ]
        assert not _hops_are_clean((Hop(1, V4("192.0.2.1"), (rtt,)),))

    def test_bad_rtts_are_one_problem_per_hop(self):
        path = hops(
            ("1", ADDR, "[1.7e308,1.7e308,1.7e308]"), ("2", ADDR, "[1.0]"), ("3", ADDR, "[-1.0,0]")
        )
        assert problems_of(PROBE, path) == [
            f"line 3: p1: hop 1 has invalid RTTs [1.7e+308, 1.7e+308, 1.7e+308] {RANGE}",
            f"line 3: p1: hop 3 has invalid RTTs [-1.0] {RANGE}",
        ]

    def test_silent_hop_with_rtts_is_a_problem(self):
        assert problems_of(PROBE, hops(("1", "null", "[1.0]"))) == [
            "line 3: p1: silent hop 1 carries RTTs"
        ]

    def test_nat64_path_needs_a_prefix(self):
        assert problems_of(PROBE, line(PATH % "[]", family="nat64")) == [
            "line 3: nat64 path lacks a prefix"
        ]

    def test_ipv4_path_must_not_carry_a_prefix(self):
        assert problems_of(PROBE, line(PATH % "[]", prefix=STD)) == [
            "line 3: ipv4 path carries a prefix"
        ]


def test_every_loaded_record_is_checked_once_through_validate(monkeypatch):
    # The benchmark's tracer counts and times the checks by wrapping this
    # module global; a loader that called it through another name would
    # leave its tally at zero.
    from nat64scope.acquire import dataset as module

    calls = []

    def counted(record, check):
        calls.append(record)
        return check(record)

    monkeypatch.setattr(module, "validate", counted)
    ds = simulated_dataset()
    loaded = load_dataset(dataset_lines(ds))
    records = [*loaded.probes.values(), *loaded.runs, *loaded.paths]
    assert len(records) == len(ds.probes) + len(ds.runs) + len(ds.paths) > 500
    assert calls == records


@pytest.mark.parametrize(
    "lines, bad",
    [
        ([HEADER, PROBE + "x"], 2),
        ([HEADER, PROBE, "["], 3),
        ([HEADER, PROBE, "\ufeff" + PROBE], 3),
    ],
)
def test_unparsable_lines_report_the_json_error(lines, bad):
    with pytest.raises(ValueError) as expected:
        json.loads(lines[bad - 1])
    with pytest.raises(DatasetError) as info:
        load_dataset(lines)
    assert info.value.problems == [f"line {bad}: {expected.value}"]


def test_non_ascii_bytes_in_a_file_are_reported(tmp_path):
    path = tmp_path / "d.ndjson"
    path.write_bytes((HEADER + "\n" + PROBE.replace("p1", "pé") + "\n").encode("utf-8"))
    with pytest.raises(DatasetError, match="line 2: not ASCII"):
        load_dataset(str(path))


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_line(draw):
    """A valid record line with one value replaced or one key dropped."""
    lines = dataset_lines(sample_dataset())[1:]
    doc = json.loads(draw(st.sampled_from(lines)))
    node = doc
    while True:
        keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(json_values)
        break
    return json.dumps(doc)


any_line = st.one_of(
    mutated_line(),
    st.sampled_from(dataset_lines(sample_dataset())),
    json_values.map(json.dumps),
    st.text(max_size=30),
)


@settings(deadline=None)
@given(st.one_of(st.just(HEADER), any_line), st.lists(any_line, max_size=8))
def test_any_lines_give_a_dataset_or_a_dataset_error(header, lines):
    try:
        result = load_dataset([header, *lines])
    except DatasetError as exc:
        assert exc.problems and all(isinstance(p, str) for p in exc.problems)
    else:
        assert isinstance(result, Dataset)
