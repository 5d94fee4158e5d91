"""Hypothesis strategies for whole DNS messages, and two hostile datagrams.

Shared by the wire-codec suites (``test_dnslib_message_wire.py``,
``test_fastpath_equivalence.py``) and the endpoint suites that put the
hostile datagrams on a live wire.  Every generated message encodes; names
are mixed case, because the codec must carry spelling through tables that
are keyed next to a case-folding ``Name.__eq__``.
"""

from __future__ import annotations

import ipaddress

from hypothesis import strategies as st

from repro.dnslib import (A, AAAA, CNAME, MX, NS, SOA, TXT, CookieOption,
                          EcsOption, EdnsInfo, GenericOption, GenericRdata,
                          Message, Name, Opcode, Question, Rcode, RecordType,
                          ResourceRecord, encode_message)

labels = st.text(alphabet="abcXYZ019-", min_size=1, max_size=12).filter(
    lambda s: not s.startswith("-") and not s.endswith("-"))
names = st.lists(labels, min_size=0, max_size=5).map(
    lambda parts: Name.from_text(".".join(parts)))
v4_addresses = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda n: str(ipaddress.IPv4Address(n)))
v6_addresses = st.integers(min_value=0, max_value=2**128 - 1).map(
    lambda n: str(ipaddress.IPv6Address(n)))
u32 = st.integers(min_value=0, max_value=2**32 - 1)

#: (record type, rdata) pairs for every modeled RDATA plus an opaque one.
typed_rdata = st.one_of(
    st.tuples(st.just(RecordType.A), st.builds(A, v4_addresses)),
    st.tuples(st.just(RecordType.AAAA), st.builds(AAAA, v6_addresses)),
    st.tuples(st.just(RecordType.NS), st.builds(NS, names)),
    st.tuples(st.just(RecordType.CNAME), st.builds(CNAME, names)),
    st.tuples(st.just(RecordType.MX),
              st.builds(MX, st.integers(0, 0xFFFF), names)),
    st.tuples(st.just(RecordType.TXT), st.builds(
        TXT, st.lists(st.binary(max_size=20), min_size=1,
                      max_size=3).map(tuple))),
    st.tuples(st.just(RecordType.SOA),
              st.builds(SOA, names, names, u32, u32, u32, u32, u32)),
    st.tuples(st.just(99), st.builds(GenericRdata, st.just(99),
                                     st.binary(max_size=12))),
)
records = st.builds(
    lambda name, typed, ttl: ResourceRecord(name, typed[0], ttl, typed[1]),
    names, typed_rdata, u32)

ecs_options = st.one_of(
    st.builds(EcsOption.from_client_address, v4_addresses,
              st.integers(0, 32), st.integers(0, 32)),
    st.builds(EcsOption.from_client_address, v6_addresses,
              st.integers(0, 128), st.integers(0, 128)))
options = st.one_of(
    ecs_options,
    st.builds(CookieOption, st.binary(min_size=8, max_size=8),
              st.one_of(st.just(b""), st.binary(min_size=8, max_size=32))),
    st.builds(GenericOption, st.sampled_from([3, 12, 65001]),
              st.binary(max_size=10)))
edns_infos = st.builds(
    EdnsInfo, payload_size=st.integers(512, 0xFFFF),
    version=st.integers(0, 255), dnssec_ok=st.booleans(),
    options=st.lists(options, max_size=3))

messages = st.builds(
    Message,
    msg_id=st.integers(0, 0xFFFF),
    opcode=st.sampled_from(list(Opcode)),
    rcode=st.sampled_from(list(Rcode)),
    is_response=st.booleans(), authoritative=st.booleans(),
    truncated=st.booleans(), recursion_desired=st.booleans(),
    recursion_available=st.booleans(),
    question=st.one_of(st.none(), st.builds(
        Question, names, st.sampled_from([RecordType.A, RecordType.AAAA,
                                          RecordType.TXT]))),
    answers=st.lists(records, max_size=3),
    authority=st.lists(records, max_size=2),
    additional=st.lists(records, max_size=2),
    edns=st.one_of(st.none(), edns_infos))


def overlong_qname_query() -> bytes:
    """A query whose qname is five 63-octet labels: 321 octets > 255."""
    header = b"\x00\x01\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00"
    return header + (b"\x3f" + b"a" * 63) * 5 + b"\x00" + b"\x00\x01\x00\x01"


def bad_ecs_family_query() -> bytes:
    """A well-formed ECS query with the option's family patched to 3."""
    wire = bytearray(encode_message(Message.make_query(
        Name.from_text("www.example.com"), RecordType.A,
        ecs=EcsOption.from_client_address("192.0.2.1", 24))))
    # The option is the packet's tail: family(2) source scope address(3).
    assert wire[-7:-5] == b"\x00\x01"
    wire[-6] = 3
    return bytes(wire)
