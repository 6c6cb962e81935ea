"""Loadable side tables: public resolvers, public gateways, AS categories.

Each loader reads a user-editable text file; with no path given it falls
back to the copy shipped inside the package.
"""

from __future__ import annotations

import ipaddress
from importlib import resources
from typing import Dict, List, Optional, Tuple

from .acquire.ip2as import check_asn
from .classifier import ASCategory
from .model import IPAddress, Nat64Prefix


def _read(path: Optional[str], packaged_name: str) -> str:
    """The text of ``path``, or of the packaged copy when no path is given."""
    if path is None:
        return resources.files("nat64scope").joinpath("data", packaged_name).read_text("ascii")
    with open(path, "r", encoding="ascii") as handle:
        return handle.read()


def _data_lines(text: str) -> List[str]:
    lines = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    return lines


def load_public_resolvers(path: Optional[str] = None) -> Tuple[IPAddress, ...]:
    """Addresses of public resolvers that synthesize AAAA records."""
    text = _read(path, "public_resolvers.txt")
    return tuple(ipaddress.ip_address(line) for line in _data_lines(text))


def load_public_prefixes(path: Optional[str] = None) -> Tuple[Nat64Prefix, ...]:
    """Translation prefixes of openly usable gateways."""
    text = _read(path, "public_nat64.txt")
    return tuple(Nat64Prefix.from_cidr(line) for line in _data_lines(text))


def load_as_categories(path: Optional[str] = None) -> Dict[int, ASCategory]:
    """The ``asn,category`` mapping that labels translator ASes."""
    text = _read(path, "as_categories.txt")
    source = path or "as_categories.txt"
    mapping: Dict[int, ASCategory] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = [p.strip() for p in stripped.split(",")]
        if len(parts) != 2:
            raise ValueError(f"{source}:{lineno}: expected 'asn,category'")
        try:
            asn = int(parts[0])
            category = ASCategory(parts[1])
            check_asn(asn)
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from exc
        mapping[asn] = category
    return mapping
