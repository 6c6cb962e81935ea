import importlib
import ipaddress
import json
import os
import pickle
import subprocess
import sys

import pytest

from nat64scope.acquire.dataset import load_dataset
from nat64scope.addrsynth import derive_prefix_from_answer, synthesize
from nat64scope.model import (
    Hop,
    Nat64Prefix,
    PathFamily,
    PrefixKind,
    STANDARD_PREFIX,
    TraceroutePath,
)
from nat64scope.pathlab import PathPair, aggregate_report, compute_metrics

V4 = ipaddress.IPv4Address
V6 = ipaddress.IPv6Address


def make_path(family=PathFamily.IPV4, prefix=None, hops=(), probe="p1", rnd=0):
    return TraceroutePath(
        probe_id=probe,
        family=family,
        prefix=prefix,
        target_v4=V4("198.18.0.1"),
        round_index=rnd,
        hops=hops,
    )


class TestNat64Prefix:
    def test_standard_constant(self):
        assert STANDARD_PREFIX.base == V6("64:ff9b::")
        assert STANDARD_PREFIX.length == 96
        assert STANDARD_PREFIX.kind is PrefixKind.STANDARD

    def test_from_cidr_derives_kind(self):
        p = Nat64Prefix.from_cidr("2001:db8:64::/96")
        assert p.kind is PrefixKind.CUSTOM
        assert Nat64Prefix.from_cidr("64:ff9b::/96").kind is PrefixKind.STANDARD

    @pytest.mark.parametrize("length", [0, 33, 95, 97, 128])
    def test_rejects_unsupported_length(self, length):
        with pytest.raises(ValueError):
            Nat64Prefix(V6("2001:db8::"), length, PrefixKind.CUSTOM)

    def test_rejects_unmasked_base(self):
        with pytest.raises(ValueError):
            Nat64Prefix(V6("2001:db8::1"), 96, PrefixKind.CUSTOM)

    def test_rejects_mislabeled_kind(self):
        with pytest.raises(ValueError):
            Nat64Prefix(V6("64:ff9b::"), 96, PrefixKind.CUSTOM)
        with pytest.raises(ValueError):
            Nat64Prefix(V6("2001:db8::"), 96, PrefixKind.STANDARD)

    def test_str(self):
        assert str(STANDARD_PREFIX) == "64:ff9b::/96"

    @pytest.mark.parametrize("text", ["64:ff9b::/96", "2001:db8:64::/96", "2001:db8::/32"])
    def test_equal_prefixes_built_four_ways_agree(self, text):
        base_text, _, length_text = text.partition("/")
        base, length = V6(base_text), int(length_text)
        kind = PrefixKind.STANDARD if text == "64:ff9b::/96" else PrefixKind.CUSTOM
        [path] = load_dataset([
            '{"record":"header","schema":1,"capture_window":null}',
            '{"record":"probe","probe_id":"p1","asn_v4":null,"asn_v6":null,'
            '"resolvers":[],"tags":[],"network_prefix_v6":null}',
            json.dumps({
                "record": "traceroute", "probe_id": "p1", "family": "nat64",
                "prefix": {"base": base_text, "length": length, "kind": kind.value},
                "target_v4": "192.0.2.1", "round": 0, "hops": [],
            }),
        ]).paths
        first = Nat64Prefix(base, length, kind)
        known = V4("192.0.2.33")
        built = [
            first,
            Nat64Prefix.from_cidr(text),
            path.prefix,
            derive_prefix_from_answer(synthesize(first, known), [known]),
        ]
        for other in built[1:]:
            assert str(other) == str(first) == text
            assert hash(other) == hash(first)
            assert other == first
        table = {prefix: n for n, prefix in enumerate(built)}
        assert len(table) == 1
        assert [table[prefix] for prefix in built] == [3, 3, 3, 3]

    def test_repr_is_unchanged(self):
        assert repr(STANDARD_PREFIX) == (
            "Nat64Prefix(base=IPv6Address('64:ff9b::'), length=96, "
            "kind=<PrefixKind.STANDARD: 'standard'>)"
        )

    def test_pickle_round_trip(self):
        prefixes = [STANDARD_PREFIX, Nat64Prefix.from_cidr("2001:db8::/48")]
        for prefix in prefixes:
            copy = pickle.loads(pickle.dumps(prefix))
            assert copy == prefix and hash(copy) == hash(prefix) and str(copy) == str(prefix)
            assert {prefix: 1}[copy] == 1
        # Another process hashes strings with another seed; the stored hash
        # must not travel with the pickle.
        code = (
            "import pickle, sys; from nat64scope.model import Nat64Prefix; "
            "ps = pickle.loads(sys.stdin.buffer.read()); "
            "print(all(hash(p) == hash(Nat64Prefix(p.base, p.length, p.kind)) for p in ps))"
        )
        seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
        env = {**os.environ, "PYTHONHASHSEED": seed}
        done = subprocess.run(
            [sys.executable, "-c", code], input=pickle.dumps(prefixes), env=env,
            capture_output=True, check=True,
        )
        assert done.stdout.strip() == b"True"


def test_hop_is_a_named_tuple():
    hop = Hop(2, None)
    assert hop == (2, None, ()) and hash(hop) == hash((2, None, ()))
    assert hop._replace(index=3).index == 3


def _record_types():
    """Every named-tuple class the package defines, by module and name."""
    found = {}
    for name in (
        "model", "pathlab", "detector", "classifier", "cli", "acquire.dnswire",
        "acquire.live", "simharness.generate", "simharness.scenario",
    ):
        module = importlib.import_module(f"nat64scope.{name}")
        for value in vars(module).values():
            if (
                isinstance(value, type) and issubclass(value, tuple)
                and hasattr(value, "_fields") and value.__module__ == module.__name__
            ):
                found[f"{name}.{value.__name__}"] = value
    return found


RECORD_TYPES = _record_types()


class TestRecords:
    def test_every_record_type_is_found(self):
        # The 12 frozen records, Hop, the generator's plan, and the field
        # base of Nat64Prefix, which checks what it is built from. Verdicts,
        # detection results and ISP evidence are the report documents, and
        # the run configuration is a dict whose keys only ``_DEFAULTS`` names.
        assert len(RECORD_TYPES) == 15
        assert "model.Nat64Prefix" in RECORD_TYPES
        assert not [name for name in RECORD_TYPES if name.startswith("cli.")]

    @pytest.mark.parametrize("name", sorted(RECORD_TYPES))
    def test_every_record_type_refuses_assignment_to_a_field(self, name):
        cls = RECORD_TYPES[name]
        record = tuple.__new__(cls, [None] * len(cls._fields))
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, 1)
            assert getattr(record, field) is None

    @pytest.mark.parametrize("base", [V4("192.0.2.0"), "2001:db8::", int(V6("2001:db8::"))])
    def test_prefix_base_must_be_an_ipv6_address(self, base):
        with pytest.raises(TypeError):
            Nat64Prefix(base, 96, PrefixKind.CUSTOM)

    def test_prefix_replace_is_checked_and_cached(self):
        prefix = Nat64Prefix.from_cidr("2001:db8::/32")
        assert str(prefix._replace(length=48)) == "2001:db8::/48"
        with pytest.raises(ValueError):
            prefix._replace(kind=PrefixKind.STANDARD)

    def test_prefix_survives_a_pickle_in_a_container(self):
        prefix = Nat64Prefix.from_cidr("2001:db8:64::/96")
        copy = pickle.loads(pickle.dumps({"p": [prefix]}))["p"][0]
        assert type(copy) is Nat64Prefix and copy == prefix and str(copy) == str(prefix)
        assert repr(copy) == repr(prefix) and hash(copy) == hash(prefix)

    def test_summary_of_a_real_report_holds_no_arrays(self):
        # Given to json.dump as it is, a stray named tuple becomes an array.
        target = V4("198.18.0.1")
        v4 = make_path(hops=(Hop(1, target, (1.0,)),))
        nat = make_path(
            PathFamily.NAT64, STANDARD_PREFIX,
            (Hop(1, synthesize(STANDARD_PREFIX, target), (2.0,)),),
        )
        pairs = [PathPair(v4, nat)]
        stats = aggregate_report(pairs, compute_metrics(pairs), {"g": ["p1"]})
        doc = json.loads(json.dumps(stats))
        assert doc == stats  # plain JSON values all the way down

        def arrays(value):
            if isinstance(value, dict):
                return sum(arrays(item) for item in value.values())
            return isinstance(value, list)

        assert arrays(doc) == 0
        assert doc["groups"]["g"]["success"]["n_pairs"] == 1
        assert doc["metrics"]["length_diff"] == {"n": 1, "mean": 0.0, "sd": 0.0, "median": 0.0}
