import contextlib
import gc
import io
import ipaddress
import json

import pytest
from hypothesis import given, settings, strategies as st

from nat64scope.acquire.dataset import (
    Dataset,
    DatasetError,
    decode_record,
    encode_record,
    load_dataset,
    write_dataset,
)
from nat64scope.model import (
    Hop,
    Nat64Prefix,
    PathFamily,
    ProbeRecord,
    RawOutcome,
    STANDARD_PREFIX,
    TestKind,
    TestRun,
    TraceroutePath,
)

V4 = ipaddress.IPv4Address
V6 = ipaddress.IPv6Address


def sample_dataset() -> Dataset:
    ds = Dataset()
    ds.add_probe(
        ProbeRecord(
            "p1",
            asn_v4=65001,
            asn_v6=65001,
            resolvers=(V6("2001:db8:1::53"),),
            tags=("system-ipv6-works",),
            network_prefix_v6=ipaddress.IPv6Network("2001:db8:1:1::/64"),
        )
    )
    ds.add_probe(ProbeRecord("p2", asn_v4=None, asn_v6=65002))
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


def test_round_trip_and_determinism(tmp_path):
    ds = sample_dataset()
    path_a = tmp_path / "a.ndjson"
    path_b = tmp_path / "b.ndjson"
    write_dataset(ds, str(path_a))
    loaded = load_dataset(str(path_a))
    assert loaded.probes == ds.probes
    assert loaded.runs == ds.runs
    assert loaded.paths == ds.paths
    assert loaded.capture_window == ds.capture_window
    write_dataset(loaded, str(path_b))
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
    ds = sample_dataset()
    buffer = io.StringIO()
    write_dataset(ds, buffer)
    line = encode_record(ds.probes["p1"])
    buffer.write(json.dumps(line) + "\n")
    buffer.seek(0)
    with pytest.raises(DatasetError, match="duplicate probe p1"):
        load_dataset(buffer)


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


def test_add_probe_rejects_duplicates():
    ds = sample_dataset()
    with pytest.raises(DatasetError):
        ds.add_probe(ProbeRecord("p1", None, None))


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
    assert decode_record(encode_record(record)) == record


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
    decoded = [decode_record(json.loads(line)) for line in lines[1:]]
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
    write_dataset(simulated_dataset(), str(path_a))
    write_dataset(load_dataset(str(path_a)), str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()


def test_addresses_with_one_integer_value_keep_their_own_text():
    # A table keyed on the integer value would write one text for both.
    v4, v6 = V4("0.0.0.1"), V6("::1")
    assert int(v4) == int(v6) and v4 != v6
    ds = Dataset()
    ds.add_probe(ProbeRecord("p1", asn_v4=1, asn_v6=1, resolvers=(v6, v4)))
    ds.paths.append(
        TraceroutePath(
            "p1", PathFamily.IPV4, None, V4("198.18.0.1"), 0,
            hops=(Hop(1, v4, (1.0,)), Hop(2, v6, (2.0,)), Hop(3, v4, (3.0,))),
        )
    )
    probe, path = (json.loads(line) for line in dataset_lines(ds)[1:])
    assert probe["resolvers"] == ["::1", "0.0.0.1"]
    assert [hop["address"] for hop in path["hops"]] == ["0.0.0.1", "::1", "0.0.0.1"]


def test_encode_record_equals_the_written_line():
    ds = sample_dataset()
    lines = dataset_lines(ds)[1:]
    records = [*ds.probes.values(), *ds.runs, *ds.paths]
    assert len(lines) == len(records)
    for line, record in zip(lines, records):
        assert json.dumps(encode_record(record), sort_keys=True, separators=(",", ":")) == line


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


@pytest.mark.parametrize(
    "lines, problem",
    [
        (["[1, 2]", PROBE], "line 1 is not a header record"),
        ([HEADER, PROBE, "[1]"], "line 3: record must be an object"),
        ([HEADER, PROBE, PATH % "5"], "line 3: hops must be a list"),
        ([HEADER, PROBE, RUN % '"soon"'], "line 3: timestamp must be an integer"),
        (
            [HEADER, PROBE, PATH % '[{"index":1,"address":"192.0.2.1","rtts_ms":["x"]}]'],
            "line 3: p1: hop 1 has invalid RTT 'x'",
        ),
        (
            [HEADER, PROBE, PATH % '[{"index":1,"address":"192.0.2.1","rtts_ms":[1e999]}]'],
            "line 3: p1: hop 1 has invalid RTT inf",
        ),
        (
            [HEADER, PROBE, PATH % '[{"index":1,"address":["192.0.2.1"],"rtts_ms":[]}]'],
            "line 3: hop address must be a string",
        ),
        ([HEADER, PROBE.replace('"p1"', '["p1"]')], "line 2: probe_id must be a string"),
        ([HEADER, PROBE.replace(',"tags":[]', "")], "line 2: missing field 'tags'"),
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
        ([hops(("1", ADDR, "[-1.0]"))], ["line 3: p1: hop 1 has invalid RTT -1.0"]),
        ([hops(("1", ADDR, "[NaN]"))], ["line 3: p1: hop 1 has invalid RTT nan"]),
        ([hops(("1", "null", "[1.0]"))], ["line 3: p1: silent hop 1 carries RTTs"]),
        ([hops(("1", ADDR, '"1.0"'))], ["line 3: rtts_ms must be a list"]),
        ([PATH % '[{"index":1,"address":null,"rtts_ms":[]},[]]'], ["line 3: hop must be an object"]),
        (
            [hops(("true", "null", "[1.0]"), ("2", ADDR, '[-1.0,"x"]'))],
            [
                "line 3: p1: hop index True is not an integer",
                "line 3: p1: silent hop True carries RTTs",
                "line 3: p1: hop 2 has invalid RTT -1.0",
                "line 3: p1: hop 2 has invalid RTT 'x'",
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


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("lines", [[HEADER, PROBE], [HEADER, PROBE, "["]])
def test_load_leaves_the_collector_as_it_found_it(enabled, lines):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with contextlib.suppress(DatasetError):
            load_dataset(lines)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


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
