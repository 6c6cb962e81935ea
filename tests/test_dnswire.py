import ipaddress

import pytest
from hypothesis import given, strategies as st

from nat64scope.acquire.dnswire import (
    DnsStatus,
    MalformedDns,
    TYPE_A,
    TYPE_AAAA,
    answer_for,
    build_query,
    build_response,
    canonical_name,
    encode_name,
    parse_message,
)

V4 = ipaddress.IPv4Address
V6 = ipaddress.IPv6Address


def test_query_round_trip():
    wire = build_query("ipv4only.arpa.", TYPE_AAAA, txid=0x1234)
    msg = parse_message(wire)
    assert msg.txid == 0x1234
    assert not msg.is_response
    assert msg.qname == "ipv4only.arpa."
    assert msg.qtype == TYPE_AAAA
    assert msg.answers == ()


def test_query_asks_for_recursion_only():
    wire = build_query("ipv4only.arpa.", TYPE_AAAA, txid=7)
    # Header flags: RD set; QR, opcode, AA, TC, RA and rcode all clear.
    assert wire[2:4] == b"\x01\x00"


def test_response_round_trip():
    answers = [
        answer_for("ipv4only.arpa.", V6("64:ff9b::c000:aa")),
        answer_for("ipv4only.arpa.", V6("64:ff9b::c000:ab")),
    ]
    wire = build_response(7, "ipv4only.arpa.", TYPE_AAAA, answers)
    msg = parse_message(wire)
    assert msg.is_response
    assert msg.rcode == 0
    assert msg.status is DnsStatus.NOERROR
    assert [a.address for a in msg.answers] == [
        V6("64:ff9b::c000:aa"),
        V6("64:ff9b::c000:ab"),
    ]


def test_a_record_rdata():
    wire = build_response(1, "example.net.", TYPE_A, [answer_for("example.net.", V4("192.0.2.1"))])
    msg = parse_message(wire)
    assert msg.answers[0].rdtype == TYPE_A
    assert msg.answers[0].address == V4("192.0.2.1")


def test_nxdomain_rcode():
    wire = build_response(9, "nothere.example.", TYPE_AAAA, rcode=3)
    assert parse_message(wire).status is DnsStatus.NXDOMAIN


def test_name_case_and_dot_normalization():
    assert canonical_name("IPv4Only.ARPA") == "ipv4only.arpa."
    wire = build_query("IPv4Only.ARPA", TYPE_AAAA, txid=1)
    assert parse_message(wire).qname == "ipv4only.arpa."


def test_compression_pointer_decoding():
    # Hand-built response where the answer name is a pointer to the question.
    header = (0x0001).to_bytes(2, "big") + (0x8180).to_bytes(2, "big")
    header += (1).to_bytes(2, "big") + (1).to_bytes(2, "big") + b"\x00\x00\x00\x00"
    qname = b"\x08ipv4only\x04arpa\x00"
    question = qname + TYPE_AAAA.to_bytes(2, "big") + (1).to_bytes(2, "big")
    pointer = b"\xc0\x0c"  # offset 12: start of the question name
    rdata = V6("64:ff9b::c000:aa").packed
    answer = pointer + TYPE_AAAA.to_bytes(2, "big") + (1).to_bytes(2, "big")
    answer += (300).to_bytes(4, "big") + len(rdata).to_bytes(2, "big") + rdata
    msg = parse_message(header + question + answer)
    assert msg.answers[0].name == "ipv4only.arpa."
    assert msg.answers[0].address == V6("64:ff9b::c000:aa")


def test_pointer_loop_rejected():
    header = b"\x00\x01\x81\x80\x00\x01\x00\x00\x00\x00\x00\x00"
    loop = b"\xc0\x0c" + b"\x00\x1c\x00\x01"  # name points at itself
    with pytest.raises(MalformedDns):
        parse_message(header + loop)


@pytest.mark.parametrize("junk", [b"", b"\x00" * 5, b"\xff" * 11])
def test_short_messages_rejected(junk):
    with pytest.raises(MalformedDns):
        parse_message(junk)


def test_truncated_answer_rejected():
    answers = [answer_for("a.example.", V6("64:ff9b::1:0:0"))]
    wire = build_response(3, "a.example.", TYPE_AAAA, answers)
    with pytest.raises(MalformedDns):
        parse_message(wire[:-4])


def test_longest_label_round_trips():
    name = "a" * 63 + ".example."
    assert encode_name(name)[0] == 63
    assert parse_message(build_query(name, TYPE_AAAA, txid=1)).qname == name


@pytest.mark.parametrize("name", ["a" * 64 + ".example.", "exämple.com."])
def test_name_that_cannot_be_a_label_rejected(name):
    with pytest.raises((MalformedDns, UnicodeEncodeError)):
        encode_name(name)


def test_name_longer_than_255_bytes_in_wire_form_rejected():
    assert len(encode_name(".".join(["a" * 63] * 3 + ["b" * 61]))) == 255
    with pytest.raises(MalformedDns, match="256 bytes"):
        encode_name(".".join(["a" * 63] * 3 + ["b" * 62]))
    with pytest.raises(MalformedDns, match="321 bytes"):
        encode_name(".".join(["a" * 63] * 5))


dns_labels = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12),
    min_size=1,
    max_size=4,
)


@given(dns_labels, st.integers(min_value=0, max_value=0xFFFF))
def test_any_name_round_trips(labels, txid):
    name = ".".join(labels)
    wire = build_query(name, TYPE_A, txid=txid)
    msg = parse_message(wire)
    assert msg.qname == canonical_name(name)
    assert msg.txid == txid
