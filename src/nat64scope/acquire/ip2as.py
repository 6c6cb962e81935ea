"""Longest-prefix-match table mapping addresses to origin AS numbers.

The on-disk format is one ``prefix asn`` pair per line, ``#`` comments and
blank lines ignored. Duplicate prefixes keep the lowest AS number so a
rebuilt table never depends on input order.
"""

from __future__ import annotations

import ipaddress
from typing import IO, Dict, Iterable, Optional, Tuple, Union

from ..model import MAX_ASN, IPAddress

IPNetwork = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]


class Ip2AsError(ValueError):
    """The mapping file has a line that is not ``prefix asn``."""


class Ip2AsTable:
    """Per-family, per-length buckets of masked network integers."""

    __slots__ = ("_tables", "_lengths")

    def __init__(self) -> None:
        self._tables: Dict[Tuple[int, int], Dict[int, int]] = {}
        self._lengths: Dict[int, Tuple[int, ...]] = {}

    def add(self, network: Union[IPNetwork, str], asn: int) -> None:
        if not 1 <= asn <= MAX_ASN:
            raise Ip2AsError(f"AS number must be in 1..{MAX_ASN}, got {asn}")
        if isinstance(network, str):
            network = ipaddress.ip_network(network)
        key = (network.version, network.prefixlen)
        bucket = self._tables.setdefault(key, {})
        net_int = int(network.network_address)
        previous = bucket.get(net_int)
        bucket[net_int] = asn if previous is None else min(previous, asn)
        self._lengths[network.version] = tuple(
            sorted(
                (length for version, length in self._tables if version == network.version),
                reverse=True,
            )
        )

    @classmethod
    def load(cls, path: str) -> "Ip2AsTable":
        table = cls()
        with open(path, "r", encoding="ascii") as handle:
            for lineno, line in enumerate(handle, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                parts = text.split()
                if len(parts) != 2:
                    raise Ip2AsError(f"{path}:{lineno}: expected 'prefix asn': {text!r}")
                try:
                    table.add(ipaddress.ip_network(parts[0]), int(parts[1]))
                except ValueError as exc:
                    raise Ip2AsError(f"{path}:{lineno}: {exc}") from exc
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

    def entries(self) -> Iterable[Tuple[IPNetwork, int]]:
        """Every (network, asn) pair in deterministic order."""
        for (version, length), bucket in sorted(self._tables.items()):
            cls = ipaddress.IPv4Network if version == 4 else ipaddress.IPv6Network
            width = 32 if version == 4 else 128
            addr_cls = ipaddress.IPv4Address if version == 4 else ipaddress.IPv6Address
            for net_int in sorted(bucket):
                yield cls((addr_cls(net_int), length)), bucket[net_int]

    def save(self, handle: IO[str]) -> None:
        """Write one ``network asn`` line per entry, the form ``load`` reads."""
        for network, asn in self.entries():
            handle.write(f"{network} {asn}\n")
