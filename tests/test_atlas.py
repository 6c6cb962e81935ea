"""The fetch loop and the measurement definitions."""

import ipaddress
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from nat64scope.acquire.atlas import (
    AtlasError,
    AtlasNotFound,
    BACKOFF_S,
    MAX_RETRIES,
    atlas_fetch,
    measurement_definitions,
)
from nat64scope.addrsynth import synthesize
from nat64scope.model import Nat64Prefix

PREFIX = Nat64Prefix.from_cidr("2001:db8:64::/96")
STD = Nat64Prefix.from_cidr("64:ff9b::/96")
TARGET = ipaddress.IPv4Address("198.51.100.10")


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
    server.server_close()


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
        pages = [json.loads(line) for line in out.read_bytes().splitlines()]
        assert [d["prb_id"] for page in pages for d in page["results"]] == [1, 2]

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

    def test_transport_error_is_retried(self, tmp_path):
        class FlakySession:
            calls = 0

            def get(self, url, headers, timeout):
                FlakySession.calls += 1
                if FlakySession.calls == 1:
                    raise requests.ConnectionError("reset by peer")
                reply = requests.Response()
                reply.status_code = 200
                reply._content = b'[{"prb_id": 3}]'
                return reply

        delays = []
        out = tmp_path / "m83.json"
        count = atlas_fetch(83, str(out), session=FlakySession(), sleep=delays.append)
        assert count == 1 and FlakySession.calls == 2
        assert out.read_bytes() == b'[{"prb_id": 3}]\n'
        assert delays == [BACKOFF_S]

    def test_bad_json_on_every_attempt_gives_up(self, scripted_server, tmp_path):
        base, handler = scripted_server
        handler.script["/measurements/84/results/"] = [(200, b"{truncated")]
        with pytest.raises(AtlasError, match="bad JSON"):
            atlas_fetch(84, str(tmp_path / "m84.json"), base_url=base, sleep=lambda s: None)
        assert len(handler.requests_seen) == MAX_RETRIES + 1

    def test_404_is_not_retried(self, scripted_server, tmp_path):
        base, handler = scripted_server
        handler.script["/measurements/85/results/"] = [(404, b"gone")]
        delays = []
        with pytest.raises(AtlasNotFound, match="measurement 85"):
            atlas_fetch(85, str(tmp_path / "m85.json"), base_url=base, sleep=delays.append)
        assert len(handler.requests_seen) == 1 and delays == []

    def test_single_document_page_counts_one(self, scripted_server, tmp_path):
        base, handler = scripted_server
        body = b'{"type": "ping", "prb_id": 4}'
        handler.script["/measurements/86/results/"] = [(200, body)]
        out = tmp_path / "m86.json"
        assert atlas_fetch(86, str(out), base_url=base) == 1
        assert out.read_bytes() == body + b"\n"

    def test_page_ending_in_newline_is_not_doubled(self, scripted_server, tmp_path):
        base, handler = scripted_server
        body = b'[{"prb_id": 5}]\n'
        handler.script["/measurements/87/results/"] = [(200, body)]
        out = tmp_path / "m87.json"
        assert atlas_fetch(87, str(out), base_url=base) == 1
        assert out.read_bytes() == body


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

    def test_no_prefixes_gives_dns_and_native_traces_only(self):
        defs = measurement_definitions(
            dns2_name="sub.example.net.",
            ping_target_v4=ipaddress.IPv4Address("91.201.7.243"),
            traceroute_targets=[TARGET, ipaddress.IPv4Address("192.0.2.7")],
            prefixes=[],
        )
        assert [(d["type"], d["af"]) for d in defs] == [
            ("dns", 6), ("dns", 6), ("traceroute", 4), ("traceroute", 4),
        ]
        assert [d["target"] for d in defs[2:]] == ["198.51.100.10", "192.0.2.7"]

    def test_one_ping_per_prefix_at_the_synthesized_anchor(self):
        anchor = ipaddress.IPv4Address("91.201.7.243")
        defs = measurement_definitions(
            dns2_name="sub.example.net.",
            ping_target_v4=anchor,
            traceroute_targets=[],
            prefixes=[STD, PREFIX],
        )
        pings = [d for d in defs if d["type"] == "ping"]
        assert [d["target"] for d in pings] == [
            str(synthesize(STD, anchor)), str(synthesize(PREFIX, anchor)),
        ]
        assert all(d["af"] == 6 and d["packets"] == 3 for d in pings)
        assert [d["description"] for d in pings] == [
            f"nat64scope ping {STD}", f"nat64scope ping {PREFIX}",
        ]

    def test_dns_description_drops_the_root_dot(self):
        defs = measurement_definitions(
            dns2_name="sub.example.net.",
            ping_target_v4=ipaddress.IPv4Address("91.201.7.243"),
            traceroute_targets=[],
            prefixes=[],
        )
        assert [d["description"] for d in defs] == [
            "nat64scope dns ipv4only.arpa", "nat64scope dns sub.example.net",
        ]
