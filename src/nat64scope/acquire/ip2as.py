"""Longest-prefix-match table mapping addresses to origin AS numbers.

The on-disk format is one ``prefix asn`` pair per line, ``#`` comments and
blank lines ignored. Duplicate prefixes keep the lowest AS number so a
rebuilt table never depends on input order.
"""

from __future__ import annotations

import ipaddress
from typing import IO, Dict, Optional, Tuple

from ..model import MAX_ASN, IPAddress, data_lines, pack_network


class Ip2AsError(ValueError):
    """The mapping file has a line that is not ``prefix asn``."""


def check_asn(asn: int) -> None:
    """Refuse an AS number outside the four-octet range."""
    if not 1 <= asn <= MAX_ASN:
        raise Ip2AsError(f"AS number must be in 1..{MAX_ASN}, got {asn}")


def _parse_network(text: str) -> Tuple[int, int, int]:
    """(IP version, prefix length, network integer) of the network ``text``,
    as ``ipaddress.ip_network`` reads it: by ``pack_network`` where it can,
    else by ``ip_network`` itself, which raises its own message."""
    parsed = pack_network(text)
    if parsed is None:
        network = ipaddress.ip_network(text)
        return network.version, network.prefixlen, int(network.network_address)
    packed, length = parsed
    return (4 if len(packed) == 4 else 6), length, int.from_bytes(packed, "big")


class Ip2AsTable:
    """Per-family, per-length buckets of masked network integers.

    A network is kept as three integers, its IP version, prefix length and
    network address, so loading, looking up and saving build no
    ``ipaddress`` network: ``load`` parses a prefix's text in C where it
    can, and ``add_int`` takes the integers themselves.
    """

    __slots__ = ("_tables", "_lengths")

    def __init__(self) -> None:
        self._tables: Dict[Tuple[int, int], Dict[int, int]] = {}
        self._lengths: Dict[int, Tuple[int, ...]] = {}

    def add_int(self, version: int, value: int, length: int, asn: int) -> None:
        """Add the IPv``version`` network ``value/length``; its host bits must be clear."""
        check_asn(asn)
        width = {4: 32, 6: 128}.get(version, -1)
        if not (0 <= length <= width and 0 <= value < 1 << width
                and not value & ((1 << (width - length)) - 1)):
            raise Ip2AsError(f"{value}/{length} is not an IPv{version} network")
        self._insert(version, length, value, asn)

    def _insert(self, version: int, length: int, value: int, asn: int) -> None:
        key = (version, length)
        bucket = self._tables.get(key)
        if bucket is None:
            bucket = self._tables[key] = {}
            self._lengths[version] = tuple(
                sorted((n for v, n in self._tables if v == version), reverse=True)
            )
        previous = bucket.get(value)
        bucket[value] = asn if previous is None else min(previous, asn)

    @classmethod
    def load(cls, path: str) -> "Ip2AsTable":
        table = cls()
        with open(path, "r", encoding="ascii") as handle:
            for lineno, text in data_lines(handle):
                parts = text.split()
                if len(parts) != 2:
                    raise Ip2AsError(f"{path}:{lineno}: expected 'prefix asn': {text!r}")
                try:
                    version, length, value = _parse_network(parts[0])
                    asn = int(parts[1])
                    check_asn(asn)
                except ValueError as exc:
                    raise Ip2AsError(f"{path}:{lineno}: {exc}") from exc
                table._insert(version, length, value, asn)
        return table

    def lookup(self, address: IPAddress) -> Optional[int]:
        """Origin AS of the longest covering prefix, or None."""
        addr_int = int(address)
        width = 32 if address.version == 4 else 128
        for length in self._lengths.get(address.version, ()):
            masked = addr_int >> (width - length) << (width - length)
            asn = self._tables[(address.version, length)].get(masked)
            if asn is not None:
                return asn
        return None

    def save(self, handle: IO[str]) -> None:
        """Write one ``network asn`` line per entry, in deterministic order,
        the form ``load`` reads.

        A network is written as its address's ``str`` and its length, as
        its own ``str`` would write it; ``inet_ntop`` would write
        ``::ffff:0:0`` as ``::ffff:0.0.0.0``.
        """
        lines = []
        for (version, length), bucket in sorted(self._tables.items()):
            cls = ipaddress.IPv4Address if version == 4 else ipaddress.IPv6Address
            lines.extend(f"{cls(value)}/{length} {bucket[value]}\n" for value in sorted(bucket))
        handle.write("".join(lines))
