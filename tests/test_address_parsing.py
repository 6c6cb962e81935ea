"""The C-level parses of address and network text agree with ``ipaddress``.

``pack_address`` reads an address with ``inet_pton``, ``pack_network`` a
network; the dataset loader and the AS table fall back to ``ipaddress``
for any text they refuse. The fast path must accept nothing that
``ipaddress`` refuses, and where both accept, give an equal value of the
same type.
"""

import io
import ipaddress

import pytest
from hypothesis import given, settings, strategies as st

from nat64scope.acquire.dataset import _Decoder
from nat64scope.acquire.ip2as import Ip2AsTable, _parse_network
from nat64scope.model import pack_address, unpack_address

#: Spellings each worth a look: a zone id, leading zeros, NUL, non-ASCII
#: digits (full-width, Arabic-Indic), upper-case hex, a ``::`` that stands
#: for one group, embedded IPv4, and plain mistakes.
ADDRESS_CASES = [
    "fe80::1%eth0", "fe80::1%", "64:ff9b::c633:6401%1",
    "1.2.3.4", "1.2.3.04", "01.2.3.4", "1.2.3", "256.1.1.1", "0.0.0.0",
    "1.2.3.4\x00", "1.2.3.４", "١.2.3.4", "１.2.3.4",
    "2001:DB8::1", "2001:db8::ABCD", "1::2:3:4:5:6:7", "1:2:3:4:5:6:7::",
    "1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8:9", "1::2::3", "12345::", ":1::", "::",
    "::ffff:1.2.3.4", "::FFFF:1.2.3.4", "::ffff:1.2.3.04", "1:2:3:4:5:6:1.2.3.4",
    "1:2:3:4:5:6:7:1.2.3.4", "1.2.3.4::", "::1.2.3.4", "::ffff:0:0",
    "", " 1.2.3.4", "1.2.3.4 ", "+1.2.3.4", "0x1.2.3.4", "1.2.3.4/32", "\ud800",
]

#: Prefix lengths worth a look: leading zeros, a sign, non-ASCII digits,
#: whitespace, a netmask, too long, and none.
LENGTH_CASES = [
    "024", "0024", "+24", "-1", "２４", "٢٤", " 24", "24 ", "",
    "2_4", "255.255.255.0", "0.0.0.255", "129", "33", "0", "00000000000000000024",
]

ALPHABET = "0123456789abcdefABCDEF.:%/ +x\x00０４٠٤"


def spellings_of(address):
    """Valid spellings of ``address``: what ``ipaddress`` writes, and for
    IPv6 the expanded and upper-case forms and an embedded IPv4 tail."""
    if address.version == 4:
        return [str(address)]
    groups = address.exploded.split(":")
    tail = ipaddress.IPv4Address(int(address) & 0xFFFFFFFF)
    return [
        str(address),
        address.exploded,
        str(address).upper(),
        address.exploded.upper(),
        ":".join(groups[:6]) + f":{tail}",
    ]


@st.composite
def address_texts(draw):
    """An address in one of its spellings, perhaps with one character damaged."""
    if draw(st.booleans()):
        address = ipaddress.IPv4Address(draw(st.integers(0, 2**32 - 1)))
    else:
        address = ipaddress.IPv6Address(draw(st.integers(0, 2**128 - 1)))
    text = draw(st.sampled_from(spellings_of(address)))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(ALPHABET)) + text[at + draw(st.integers(0, 1)):]
    return text


address_like = st.one_of(
    address_texts(), st.sampled_from(ADDRESS_CASES), st.text(ALPHABET, max_size=45)
)


@st.composite
def network_texts(draw):
    """``address/length`` text: a network in one of its spellings, or anything
    address-like over any length-like text."""
    if draw(st.booleans()):
        version = draw(st.sampled_from([4, 6]))
        width = 32 if version == 4 else 128
        length = draw(st.integers(0, width))
        value = draw(st.integers(0, 2**width - 1)) >> (width - length) << (width - length)
        if draw(st.integers(0, 4)) == 0:  # host bits set
            value |= draw(st.integers(0, 2**width - 1)) & ((1 << (width - length)) - 1)
        cls = ipaddress.IPv4Address if version == 4 else ipaddress.IPv6Address
        base = draw(st.sampled_from(spellings_of(cls(value))))
        return f"{base}/{length}"
    length = draw(st.one_of(st.integers(0, 130).map(str), st.sampled_from(LENGTH_CASES)))
    return f"{draw(address_like)}/{length}"


def outcome(parse, text):
    """What ``parse(text)`` gives: the value's type, value and text, or the error."""
    try:
        value = parse(text)
    except ValueError as exc:
        return "refused", str(exc)
    return type(value), value, str(value)


def check_address(text):
    packed = pack_address(text)
    if packed is not None:
        # Accepted in C: ipaddress accepts it too, with the same value and type.
        assert outcome(lambda t: unpack_address(packed), text) == outcome(
            ipaddress.ip_address, text
        )
    decoder = _Decoder()
    assert outcome(lambda t: decoder.address(t, "hop address"), text) == outcome(
        ipaddress.ip_address, text
    )
    assert outcome(decoder.target, text) == outcome(ipaddress.IPv4Address, text)
    assert outcome(lambda t: decoder._parse(t, 16, ipaddress.IPv6Address), text) == outcome(
        ipaddress.IPv6Address, text
    )


@pytest.mark.parametrize("text", ADDRESS_CASES)
def test_address_cases_parse_as_ipaddress_does(text):
    check_address(text)


@settings(max_examples=400)
@given(address_like)
def test_fast_address_parse_agrees_with_ipaddress(text):
    check_address(text)


def test_scoped_address_is_parsed_by_ipaddress_only():
    assert pack_address("fe80::1%eth0") is None
    address = _Decoder().address("fe80::1%eth0", "hop address")
    assert address.scope_id == "eth0" and str(address) == "fe80::1%eth0"


def test_spellings_of_one_address_load_as_one_object():
    decoder = _Decoder()
    spelled = [decoder.address(text, "hop address") for text in spellings_of(
        ipaddress.IPv6Address("2001:db8::c633:6401")
    )]
    assert all(address is spelled[0] for address in spelled)
    assert decoder.target("198.51.100.1") is decoder.address("198.51.100.1", "hop address")
    # The scoped twin keeps its own object: it is another value.
    assert decoder.address("2001:db8::c633:6401%1", "hop address") != spelled[0]


def check_network(text):
    assert outcome(_Decoder().network, text) == outcome(ipaddress.IPv6Network, text)
    try:
        network = ipaddress.ip_network(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            _parse_network(text)
        assert str(raised.value) == str(exc)
        return
    assert _parse_network(text) == (
        network.version, network.prefixlen, int(network.network_address)
    )
    table = Ip2AsTable()
    table.add(text, 7)
    saved = io.StringIO()
    table.save(saved)
    # The table keeps integers, so a scoped network is saved without its scope.
    unscoped = type(network)((int(network.network_address), network.prefixlen))
    assert saved.getvalue() == f"{unscoped} 7\n"
    assert [(str(n), asn) for n, asn in table.entries()] == [(str(unscoped), 7)]


@pytest.mark.parametrize("length", LENGTH_CASES)
@pytest.mark.parametrize("base", ["1.2.3.0", "1.2.3.1", "2001:DB8::", "::ffff:0:0", "fe80::%1"])
def test_network_cases_parse_as_ipaddress_does(base, length):
    check_network(f"{base}/{length}")


@settings(max_examples=400)
@given(network_texts())
def test_fast_network_parse_agrees_with_ipaddress(text):
    check_network(text)


def test_save_writes_a_mapped_network_as_str_does():
    # inet_ntop would write the embedded-IPv4 form, ``::ffff:0.0.0.0``.
    table = Ip2AsTable()
    table.add("::ffff:0:0/96", 64500)
    saved = io.StringIO()
    table.save(saved)
    assert saved.getvalue() == "::ffff:0:0/96 64500\n"
