import ipaddress

import pytest

from nat64scope import catalogs
from nat64scope.model import PrefixKind


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
