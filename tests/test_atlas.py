"""Result-document parsing, lossless rebuilds, and the fetch loop."""

import base64
import ipaddress
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from nat64scope.acquire.atlas import (
    AtlasError,
    AtlasNotFound,
    BACKOFF_S,
    DnsObservation,
    MAX_RETRIES,
    PingObservation,
    SchemaViolation,
    atlas_fetch,
    iter_result_documents,
    measurement_definitions,
    parse_atlas,
    unparse_atlas,
)
from nat64scope.acquire.dnswire import (
    DnsStatus,
    TYPE_AAAA,
    answer_for,
    build_response,
)
from nat64scope.addrsynth import synthesize
from nat64scope.model import Nat64Prefix, PathFamily, RawOutcome, TestKind

PREFIX = Nat64Prefix.from_cidr("2001:db8:64::/96")
STD = Nat64Prefix.from_cidr("64:ff9b::/96")
TARGET = ipaddress.IPv4Address("198.51.100.10")


def traceroute_doc(dst, hops, prb=1011, af=None):
    return {
        "af": af if af is not None else ipaddress.ip_address(dst).version,
        "dst_addr": dst,
        "prb_id": prb,
        "result": hops,
        "timestamp": 1700000000,
        "type": "traceroute",
    }


class TestParseTraceroute:
    def test_native_path(self):
        doc = traceroute_doc(
            str(TARGET),
            [
                {"hop": 1, "result": [{"from": "192.0.2.1", "rtt": 1.1},
                                      {"from": "192.0.2.1", "rtt": 1.3}]},
                {"hop": 2, "result": [{"x": "*"}, {"x": "*"}, {"x": "*"}]},
                {"hop": 3, "result": [{"from": str(TARGET), "rtt": 7.4}]},
            ],
        )
        path = parse_atlas(doc, prefixes=[PREFIX], round_index=2)
        assert path.family is PathFamily.IPV4
        assert path.prefix is None
        assert path.target_v4 == TARGET
        assert path.round_index == 2
        assert path.probe_id == "1011"
        assert [h.index for h in path.hops] == [1, 2, 3]
        assert path.hops[0].rtts_ms == (1.1, 1.3)
        assert path.hops[1].address is None and path.hops[1].rtts_ms == ()
        assert path.hops[2].address == TARGET

    def test_translated_path(self):
        dst = str(synthesize(PREFIX, TARGET))
        doc = traceroute_doc(
            dst,
            [
                {"hop": 1, "result": [{"from": "2001:db8:aaaa::1", "rtt": 0.5}]},
                {"hop": 2, "result": [{"from": dst, "rtt": 9.0}]},
            ],
        )
        path = parse_atlas(doc, prefixes=[PREFIX, STD])
        assert path.family is PathFamily.NAT64
        assert path.prefix == PREFIX
        assert path.target_v4 == TARGET

    def test_unknown_prefix_rejected(self):
        doc = traceroute_doc("2001:db8:9999::1", [])
        with pytest.raises(SchemaViolation):
            parse_atlas(doc, prefixes=[PREFIX])

    def test_gap_hops_filled_as_silent(self):
        doc = traceroute_doc(
            str(TARGET),
            [
                {"hop": 1, "result": [{"from": "192.0.2.1", "rtt": 1.0}]},
                {"hop": 4, "result": [{"from": str(TARGET), "rtt": 4.0}]},
            ],
        )
        path = parse_atlas(doc, prefixes=[])
        assert [h.index for h in path.hops] == [1, 2, 3, 4]
        assert path.hops[1].address is None and path.hops[2].address is None

    def test_late_error_packet_keeps_first_address(self):
        doc = traceroute_doc(
            str(TARGET),
            [
                {"hop": 1, "result": [{"from": "192.0.2.1", "rtt": 1.0},
                                      {"from": "192.0.2.99", "rtt": 2.0}]},
                {"hop": 2, "result": [{"from": str(TARGET), "rtt": 3.0}]},
            ],
        )
        path = parse_atlas(doc, prefixes=[])
        assert str(path.hops[0].address) == "192.0.2.1"
        assert path.hops[0].rtts_ms == (1.0, 2.0)

    def test_malformed_hop_rejected(self):
        doc = traceroute_doc(str(TARGET), [{"result": [{"x": "*"}]}])
        with pytest.raises(SchemaViolation):
            parse_atlas(doc, prefixes=[])


class TestParsePing:
    def test_pass(self):
        dst = str(synthesize(PREFIX, TARGET))
        doc = {
            "af": 6, "dst_addr": dst, "prb_id": 1011,
            "result": [{"rtt": 10.0}, {"rtt": 11.5}, {"x": "*"}],
            "timestamp": 1700000000, "type": "ping",
        }
        obs = parse_atlas(doc, prefixes=[PREFIX])
        assert isinstance(obs, PingObservation)
        assert obs.prefix == PREFIX
        assert obs.rtts_ms == (10.0, 11.5)
        assert obs.sent == 3
        run = obs.to_test_run()
        assert run.test_kind is TestKind.CUSTOM_PREFIX_PING
        assert run.raw_outcome is RawOutcome.PASS
        assert run.observed_prefix == PREFIX

    def test_all_lost_is_fail(self):
        dst = str(synthesize(STD, TARGET))
        doc = {
            "af": 6, "dst_addr": dst, "prb_id": 1011,
            "result": [{"x": "*"}, {"x": "*"}, {"x": "*"}],
            "timestamp": 1700000000, "type": "ping",
        }
        obs = parse_atlas(doc, prefixes=[STD])
        run = obs.to_test_run()
        assert run.test_kind is TestKind.STD_PREFIX_PING
        assert run.raw_outcome is RawOutcome.FAIL
        assert run.diagnostic == "0 of 3 replies"

    def test_native_ping_has_no_test_kind(self):
        doc = {
            "af": 4, "dst_addr": str(TARGET), "prb_id": 1011,
            "result": [{"rtt": 5.0}],
            "timestamp": 1700000000, "type": "ping",
        }
        obs = parse_atlas(doc, prefixes=[PREFIX])
        assert obs.prefix is None
        with pytest.raises(SchemaViolation):
            obs.to_test_run()


def dns_doc(abuf_b64, resolver="2001:db8:53::1", prb=1011):
    return {
        "prb_id": prb,
        "resultset": [
            {
                "dst_addr": resolver,
                "result": {"ANCOUNT": 1, "abuf": abuf_b64},
                "time": 1700000001,
            }
        ],
        "timestamp": 1700000000,
        "type": "dns",
    }


def make_abuf(qname="ipv4only.arpa.", address="2001:db8:64::c000:aa"):
    answers = (answer_for(qname, ipaddress.ip_address(address)),)
    wire = build_response(0x1234, qname, TYPE_AAAA, answers)
    return base64.b64encode(wire).decode("ascii")


class TestParseDns:
    def test_answer_decoded(self):
        doc = dns_doc(make_abuf())
        observations = parse_atlas(doc)
        assert len(observations) == 1
        obs = observations[0]
        assert isinstance(obs, DnsObservation)
        assert obs.response.status is DnsStatus.NOERROR
        assert obs.response.qname == "ipv4only.arpa."
        assert obs.response.addresses() == (
            ipaddress.ip_address("2001:db8:64::c000:aa"),
        )
        assert obs.timestamp == 1700000001
        assert str(obs.response.resolver) == "2001:db8:53::1"

    def test_timeout_entry(self):
        doc = {
            "prb_id": 1011,
            "resultset": [
                {"dst_addr": "2001:db8:53::1", "error": {"timeout": 5000},
                 "time": 1700000002}
            ],
            "timestamp": 1700000000,
            "type": "dns",
        }
        observations = parse_atlas(doc, default_qname="ipv4only.arpa.")
        assert observations[0].response.status is DnsStatus.TIMEOUT
        assert observations[0].abuf_b64 is None

    def test_garbage_abuf_is_malformed(self):
        doc = dns_doc(base64.b64encode(b"\x00\x01").decode("ascii"))
        observations = parse_atlas(doc)
        assert observations[0].response.status is DnsStatus.MALFORMED

    def test_flat_document_without_resultset(self):
        doc = {
            "prb_id": 1011,
            "dst_addr": "2001:db8:53::1",
            "result": {"ANCOUNT": 1, "abuf": make_abuf()},
            "timestamp": 1700000000,
            "type": "dns",
        }
        observations = parse_atlas(doc)
        assert len(observations) == 1
        assert observations[0].response.status is DnsStatus.NOERROR

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaViolation):
            parse_atlas({"type": "sslcert", "prb_id": 1})


class TestRoundTrip:
    def test_traceroute(self):
        doc = traceroute_doc(
            str(TARGET),
            [
                {"hop": 1, "result": [{"from": "192.0.2.1", "rtt": 1.1}]},
                {"hop": 2, "result": [{"x": "*"}, {"x": "*"}, {"x": "*"}]},
                {"hop": 3, "result": [{"from": str(TARGET), "rtt": 7.4}]},
            ],
        )
        path = parse_atlas(doc, prefixes=[])
        assert unparse_atlas(path, timestamp=1700000000) == doc

    def test_translated_traceroute(self):
        dst = str(synthesize(PREFIX, TARGET))
        doc = traceroute_doc(
            dst,
            [{"hop": 1, "result": [{"from": dst, "rtt": 2.0}]}],
        )
        path = parse_atlas(doc, prefixes=[PREFIX])
        assert unparse_atlas(path, timestamp=1700000000) == doc

    def test_ping(self):
        doc = {
            "af": 6,
            "dst_addr": str(synthesize(PREFIX, TARGET)),
            "prb_id": 1011,
            "result": [{"rtt": 10.0}, {"rtt": 11.5}, {"x": "*"}],
            "timestamp": 1700000000,
            "type": "ping",
        }
        obs = parse_atlas(doc, prefixes=[PREFIX])
        assert unparse_atlas(obs) == doc

    def test_dns_preserves_answer_bytes(self):
        doc = dns_doc(make_abuf())
        observations = parse_atlas(doc)
        rebuilt = unparse_atlas(observations, timestamp=1700000000)
        assert rebuilt == doc
        again = parse_atlas(rebuilt)
        assert again == observations


class TestIterDocuments:
    def test_json_array(self, tmp_path):
        path = tmp_path / "results.json"
        docs = [{"type": "ping", "prb_id": i} for i in range(3)]
        path.write_text(json.dumps(docs))
        assert list(iter_result_documents(str(path))) == docs

    def test_ndjson(self, tmp_path):
        path = tmp_path / "results.ndjson"
        docs = [{"type": "ping", "prb_id": i} for i in range(3)]
        path.write_text("\n".join(json.dumps(d) for d in docs) + "\n")
        assert list(iter_result_documents(str(path))) == docs

    def test_concatenated_pages(self, tmp_path):
        path = tmp_path / "pages.json"
        page1 = {"results": [{"prb_id": 1}], "next": "x"}
        page2 = {"results": [{"prb_id": 2}, {"prb_id": 3}], "next": None}
        path.write_text(json.dumps(page1) + "\n" + json.dumps(page2) + "\n")
        assert [d["prb_id"] for d in iter_result_documents(str(path))] == [1, 2, 3]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("\n")
        assert list(iter_result_documents(str(path))) == []


class _ScriptedHandler(BaseHTTPRequestHandler):
    script = {}
    requests_seen = []

    def do_GET(self):
        path = self.path.split("?", 1)[0]
        type(self).requests_seen.append((path, self.headers.get("Authorization")))
        responses = self.script.get(path)
        if not responses:
            self.send_error(500, "unscripted path")
            return
        status, body = responses.pop(0) if len(responses) > 1 else responses[0]
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def scripted_server():
    handler = type("Handler", (_ScriptedHandler,), {"script": {}, "requests_seen": []})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield base, handler
    server.shutdown()
    thread.join()


class TestFetch:
    @pytest.fixture(autouse=True)
    def no_api_key(self, monkeypatch):
        monkeypatch.delenv("NAT64SCOPE_ATLAS_KEY", raising=False)

    def test_single_page_written_verbatim(self, scripted_server, tmp_path, monkeypatch):
        base, handler = scripted_server
        body = b'[{"type": "ping",   "prb_id": 1}, {"type": "ping", "prb_id": 2}]'
        handler.script["/measurements/77/results/"] = [(200, body)]
        out = tmp_path / "m77.json"
        monkeypatch.setenv("NAT64SCOPE_ATLAS_KEY", "sekrit")
        count = atlas_fetch(77, str(out), base_url=base)
        assert count == 2
        assert out.read_bytes() == body + b"\n"
        assert handler.requests_seen[0][1] == "Key sekrit"

    def test_pagination_follows_next(self, scripted_server, tmp_path):
        base, handler = scripted_server
        page2_url = f"{base}/page2"
        page1 = json.dumps({"results": [{"prb_id": 1}], "next": page2_url}).encode()
        page2 = json.dumps({"results": [{"prb_id": 2}], "next": None}).encode()
        handler.script["/measurements/78/results/"] = [(200, page1)]
        handler.script["/page2"] = [(200, page2)]
        out = tmp_path / "m78.json"
        count = atlas_fetch(78, str(out), base_url=base)
        assert count == 2
        assert out.read_bytes() == page1 + b"\n" + page2 + b"\n"
        docs = list(iter_result_documents(str(out)))
        assert [d["prb_id"] for d in docs] == [1, 2]

    def test_retry_after_transient_errors(self, scripted_server, tmp_path):
        base, handler = scripted_server
        good = b'[{"prb_id": 9}]'
        handler.script["/measurements/79/results/"] = [
            (503, b"busy"),
            (200, b"{truncated"),
            (200, good),
        ]
        delays = []
        out = tmp_path / "m79.json"
        count = atlas_fetch(79, str(out), base_url=base, sleep=delays.append)
        assert count == 1
        assert out.read_bytes() == good + b"\n"
        assert delays == [BACKOFF_S, 2 * BACKOFF_S]  # doubling backoff

    def test_gives_up_after_retries(self, scripted_server, tmp_path):
        base, handler = scripted_server
        handler.script["/measurements/80/results/"] = [
            (503, b"busy"), (503, b"busy"), (503, b"busy"), (503, b"busy"),
        ]
        with pytest.raises(AtlasError, match="HTTP 503"):
            atlas_fetch(
                80, str(tmp_path / "m80.json"), base_url=base, sleep=lambda s: None,
            )
        assert len(handler.requests_seen) == MAX_RETRIES + 1

    def test_404_is_not_found(self, scripted_server, tmp_path):
        base, handler = scripted_server
        handler.script["/measurements/81/results/"] = [(404, b"gone")]
        with pytest.raises(AtlasNotFound):
            atlas_fetch(81, str(tmp_path / "m81.json"), base_url=base)

    def test_key_from_environment(self, scripted_server, tmp_path, monkeypatch):
        base, handler = scripted_server
        handler.script["/measurements/82/results/"] = [(200, b"[]")]
        monkeypatch.setenv("NAT64SCOPE_ATLAS_KEY", "envkey")
        atlas_fetch(82, str(tmp_path / "m82.json"), base_url=base)
        assert handler.requests_seen[0][1] == "Key envkey"


class TestDefinitions:
    def test_shape(self):
        defs = measurement_definitions(
            dns2_name="sub.example.net.",
            ping_target_v4=ipaddress.IPv4Address("91.201.7.243"),
            traceroute_targets=[TARGET],
            prefixes=[STD, PREFIX],
        )
        kinds = [d["type"] for d in defs]
        assert kinds.count("dns") == 2
        assert kinds.count("ping") == 2
        assert kinds.count("traceroute") == 3  # native + one per prefix
        for d in defs:
            if d["type"] == "dns":
                assert d["query_type"] == "AAAA"
                assert d["use_probe_resolver"] is True
            if d["type"] == "traceroute":
                assert d["protocol"] == "UDP"
                assert d["paris"] == 16
                assert d["packets"] == 3
        dns_args = [d["query_argument"] for d in defs if d["type"] == "dns"]
        assert dns_args == ["ipv4only.arpa.", "sub.example.net."]
        ping_targets = [d["target"] for d in defs if d["type"] == "ping"]
        assert str(synthesize(STD, ipaddress.IPv4Address("91.201.7.243"))) in ping_targets

    def test_traceroute_targets_cover_both_families(self):
        defs = measurement_definitions(
            dns2_name="sub.example.net.",
            ping_target_v4=ipaddress.IPv4Address("91.201.7.243"),
            traceroute_targets=[TARGET],
            prefixes=[PREFIX],
        )
        traces = [d for d in defs if d["type"] == "traceroute"]
        assert {d["af"] for d in traces} == {4, 6}
        v6 = [d for d in traces if d["af"] == 6]
        assert v6[0]["target"] == str(synthesize(PREFIX, TARGET))
