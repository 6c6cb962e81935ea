"""The measurement definitions."""

import ipaddress
import json

from nat64scope.acquire.atlas import PACKETS, PARIS, measurement_definitions
from nat64scope.addrsynth import synthesize
from nat64scope.model import Nat64Prefix

PREFIX = Nat64Prefix.from_cidr("2001:db8:64::/96")
STD = Nat64Prefix.from_cidr("64:ff9b::/96")
TARGET = ipaddress.IPv4Address("198.51.100.10")


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

    def test_traceroutes_keep_target_order_each_native_before_its_prefixes(self):
        second = ipaddress.IPv4Address("192.0.2.7")
        defs = measurement_definitions(
            dns2_name="sub.example.net.",
            ping_target_v4=TARGET,
            traceroute_targets=[TARGET, second],
            prefixes=[STD, PREFIX],
        )
        traces = [(d["af"], d["target"], d["description"]) for d in defs if d["type"] == "traceroute"]
        expected = []
        for target in (TARGET, second):
            expected.append((4, str(target), f"nat64scope trace {target}"))
            for prefix in (STD, PREFIX):
                expected.append(
                    (6, str(synthesize(prefix, target)), f"nat64scope trace {target} via {prefix}")
                )
        assert traces == expected

    def test_pings_and_traces_use_the_module_constants(self):
        defs = measurement_definitions(
            dns2_name="sub.example.net.",
            ping_target_v4=TARGET,
            traceroute_targets=[TARGET],
            prefixes=[STD, PREFIX],
        )
        assert {d["packets"] for d in defs if d["type"] != "dns"} == {PACKETS}
        assert {d["paris"] for d in defs if d["type"] == "traceroute"} == {PARIS}
        # Every definition is a plain JSON document, as atlas-spec writes it.
        assert json.loads(json.dumps(defs)) == defs
