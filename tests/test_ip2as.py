import ipaddress
import random
import re

import pytest

from nat64scope.acquire.ip2as import Ip2AsError, Ip2AsTable

V4 = ipaddress.IPv4Address
V6 = ipaddress.IPv6Address
NET = ipaddress.ip_network


def table_of(entries):
    """A table holding each ``(network, asn)`` of ``entries``, added in order."""
    table = Ip2AsTable()
    for network, asn in entries:
        table.add(network, asn)
    return table


def test_longest_prefix_wins():
    table = table_of(
        [(NET("10.0.0.0/8"), 100), (NET("10.1.0.0/16"), 200), (NET("10.1.2.0/24"), 300)]
    )
    assert table.lookup(V4("10.1.2.3")) == 300
    assert table.lookup(V4("10.1.9.9")) == 200
    assert table.lookup(V4("10.9.9.9")) == 100
    assert table.lookup(V4("192.0.2.1")) is None


def test_v6_lookup():
    table = table_of(
        [(NET("2001:db8::/32"), 64500), (NET("2001:db8:1::/48"), 64501)]
    )
    assert table.lookup(V6("2001:db8:1::9")) == 64501
    assert table.lookup(V6("2001:db8:2::9")) == 64500
    assert table.lookup(V6("2001:db9::1")) is None


def test_duplicate_prefix_keeps_lowest_as():
    table = table_of([(NET("10.0.0.0/8"), 300), (NET("10.0.0.0/8"), 100)])
    assert table.lookup(V4("10.0.0.1")) == 100
    reordered = table_of([(NET("10.0.0.0/8"), 100), (NET("10.0.0.0/8"), 300)])
    assert reordered.lookup(V4("10.0.0.1")) == 100


def test_load_and_save(tmp_path):
    source = tmp_path / "table.txt"
    source.write_text(
        "# origin table\n"
        "10.0.0.0/8 100\n"
        "\n"
        "10.1.0.0/16 200   # more specific\n"
        "2001:db8::/32 64500\n"
    )
    table = Ip2AsTable.load(str(source))
    assert list(table.entries()) == [
        (NET("10.0.0.0/8"), 100), (NET("10.1.0.0/16"), 200), (NET("2001:db8::/32"), 64500)
    ]
    assert table.lookup(V4("10.1.0.1")) == 200

    out = tmp_path / "copy.txt"
    with open(out, "w", encoding="ascii") as handle:
        table.save(handle)
    assert Ip2AsTable.load(str(out)).lookup(V4("10.1.0.1")) == 200


@pytest.mark.parametrize(
    "line",
    ["10.0.0.0/8", "10.0.0.0/8 abc", "not-a-prefix 100", "10.0.0.1/8 100"],
)
def test_bad_lines_rejected(tmp_path, line):
    source = tmp_path / "bad.txt"
    source.write_text(line + "\n")
    with pytest.raises(Ip2AsError):
        Ip2AsTable.load(str(source))


def test_nonpositive_as_rejected():
    with pytest.raises(Ip2AsError):
        table_of([(NET("10.0.0.0/8"), 0)])


@pytest.mark.parametrize("asn", ["0", "-5", "4294967296", "99999999999999999999"])
def test_as_number_outside_four_octets_rejected_with_its_line(tmp_path, asn):
    source = tmp_path / "table.txt"
    source.write_text(f"10.0.0.0/8 4294967295\n11.0.0.0/8 {asn}\n")
    with pytest.raises(Ip2AsError, match=re.escape(f"{source}:2: AS number must be in 1..4294967295")):
        Ip2AsTable.load(str(source))
    source.write_text("10.0.0.0/8 4294967295\n")
    assert Ip2AsTable.load(str(source)).lookup(V4("10.1.2.3")) == 4294967295


def test_matches_linear_scan_oracle():
    # Compare the bucketed lookup against a brute-force scan over the same
    # entries on a few hundred random addresses.
    rng = random.Random(7)
    entries = []
    for _ in range(60):
        length = rng.choice([8, 12, 16, 20, 24, 28])
        net_int = rng.getrandbits(32) >> (32 - length) << (32 - length)
        entries.append((ipaddress.IPv4Network((net_int, length)), rng.randint(1, 65000)))
    for _ in range(25):
        length = rng.choice([32, 40, 48, 64])
        net_int = rng.getrandbits(128) >> (128 - length) << (128 - length)
        entries.append((ipaddress.IPv6Network((net_int, length)), rng.randint(1, 65000)))

    table = table_of(entries)

    def oracle(addr):
        hits = [
            (net.prefixlen, asn)
            for net, asn in entries
            if net.version == addr.version and addr in net
        ]
        if not hits:
            return None
        best_len = max(h[0] for h in hits)
        return min(asn for length, asn in hits if length == best_len)

    for _ in range(400):
        addr4 = V4(rng.getrandbits(32))
        assert table.lookup(addr4) == oracle(addr4)
    for _ in range(200):
        addr6 = V6(rng.getrandbits(128))
        assert table.lookup(addr6) == oracle(addr6)


def test_networks_added_as_integers_equal_those_added_as_networks():
    table = table_of([(NET("10.1.0.0/16"), 5), (NET("2001:db8::/32"), 7), (NET("0.0.0.0/0"), 9)])
    same = Ip2AsTable()
    same.add_int(4, int(V4("10.1.0.0")), 16, 5)
    same.add_int(6, int(V6("2001:db8::")), 32, 7)
    same.add_int(4, 0, 0, 9)
    assert list(same.entries()) == list(table.entries())
    assert same.lookup(V4("10.1.2.3")) == 5 and same.lookup(V4("11.0.0.1")) == 9
    with pytest.raises(Ip2AsError, match="AS number must be in 1..4294967295"):
        same.add_int(4, 0, 8, 0)


@pytest.mark.parametrize(
    "version, value, length",
    [(4, 1, 24), (4, 0, 33), (4, 2**32, 8), (6, -1, 8), (6, 1 << 127, 0), (5, 0, 8)],
    ids=["host-bits", "too-long", "too-large", "negative", "host-bits-v6", "no-version"],
)
def test_integers_that_are_no_network_are_refused(version, value, length):
    with pytest.raises(Ip2AsError, match=f"is not an IPv{version} network"):
        Ip2AsTable().add_int(version, value, length, 1)
