import ipaddress
import re

import pytest

from nat64scope import catalogs
from nat64scope.acquire.ip2as import Ip2AsError, Ip2AsTable
from nat64scope.classifier import ASCategory
from nat64scope.model import PrefixKind
from nat64scope.simharness import ScenarioError, parse_scenario


class TestPackagedCatalogs:
    def test_public_resolvers_load(self):
        resolvers = catalogs.load_public_resolvers()
        assert ipaddress.IPv6Address("2001:4860:4860::64") in resolvers
        assert ipaddress.IPv6Address("2001:4860:4860::6464") in resolvers

    def test_public_prefixes_load(self):
        prefixes = catalogs.load_public_prefixes()
        assert len(prefixes) >= 3
        assert all(p.kind is PrefixKind.CUSTOM for p in prefixes)
        assert all(p.length == 96 for p in prefixes)

    def test_prefixes_are_distinct(self):
        prefixes = catalogs.load_public_prefixes()
        assert len(set(prefixes)) == len(prefixes)

    def test_as_categories_path_loads(self):
        assert catalogs.load_as_categories()


class TestFileOverrides:
    def test_resolver_file(self, tmp_path):
        path = tmp_path / "resolvers.txt"
        path.write_text("# mine\n2001:db8::53\n\n2001:db8::54  # backup\n")
        resolvers = catalogs.load_public_resolvers(str(path))
        assert resolvers == (
            ipaddress.IPv6Address("2001:db8::53"),
            ipaddress.IPv6Address("2001:db8::54"),
        )

    def test_prefix_file(self, tmp_path):
        path = tmp_path / "prefixes.txt"
        path.write_text("2001:db8:64::/96\n")
        (prefix,) = catalogs.load_public_prefixes(str(path))
        assert str(prefix) == "2001:db8:64::/96"
        assert prefix.kind is PrefixKind.CUSTOM

    def test_bad_resolver_line(self, tmp_path):
        path = tmp_path / "resolvers.txt"
        path.write_text("not-an-address\n")
        with pytest.raises(ValueError):
            catalogs.load_public_resolvers(str(path))


#: Three lines that hold no data: a comment, an empty line and blanks.
PREAMBLE = "# a comment line\n\n   \n"


class TestCommentRule:
    """Every text table and scenario file skips ``#`` comments and blank
    lines alike, and names a bad line by its number counted from 1."""

    def test_catalogs_skip_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text(PREAMBLE + "2001:db8::53  # tail\n")
        assert catalogs.load_public_resolvers(str(path)) == (ipaddress.ip_address("2001:db8::53"),)
        path.write_text(PREAMBLE + "2001:db8:64::/96\t# tail\n")
        assert [str(p) for p in catalogs.load_public_prefixes(str(path))] == ["2001:db8:64::/96"]
        path.write_text(PREAMBLE + "64500,RI # tail\n")
        assert catalogs.load_as_categories(str(path)) == {64500: ASCategory("RI")}
        path.write_text(PREAMBLE + "64500,XX\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:4: ")):
            catalogs.load_as_categories(str(path))

    def test_ip2as_skips_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "ip2as.tsv"
        path.write_text(PREAMBLE + "10.0.0.0/8 64500 # tail\n")
        assert Ip2AsTable.load(str(path)).lookup(ipaddress.ip_address("10.1.2.3")) == 64500
        path.write_text(PREAMBLE + "10.0.0.0/8\n")
        with pytest.raises(Ip2AsError, match="^" + re.escape(f"{path}:4: ")):
            Ip2AsTable.load(str(path))

    def test_scenarios_skip_comments_and_blank_lines(self):
        assert parse_scenario(PREAMBLE + "count=1 resolver=plain # tail\n").cohorts[0].count == 1
        with pytest.raises(ScenarioError, match="^line 4: "):
            parse_scenario(PREAMBLE + "count=1 resolver=nope\n")
