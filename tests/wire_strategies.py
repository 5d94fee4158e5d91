"""Hypothesis strategies for whole DNS messages, structure-aware damage
to their wire form, the reference encoder, and two hostile datagrams.

Shared by the wire-codec suites (``test_dnslib_message_wire.py``,
``test_fastpath_equivalence.py``, ``test_wire_mutation.py``) and the
endpoint suites that put the hostile datagrams on a live wire.  Every
generated message encodes; names are mixed case, because the codec must
carry spelling through tables that are keyed next to a case-folding
``Name.__eq__``, and some labels are arbitrary octets, because a zero
octet inside a label is where a decoder that searches for the end of a
name stops early.
"""

from __future__ import annotations

import ipaddress
import struct

from hypothesis import strategies as st

from repro.dnslib import (A, AAAA, CNAME, MX, NS, PTR, SOA, TXT,
                          CookieOption, DnsError, EcsOption, EdnsInfo,
                          GenericOption, GenericRdata, Message, Name, Opcode,
                          Question, Rcode, RecordType, ResourceRecord,
                          WireFormatError, decode_message, encode_message,
                          encode_name)

labels = st.one_of(
    st.text(alphabet="abcXYZ019-", min_size=1, max_size=12).filter(
        lambda s: not s.startswith("-") and not s.endswith("-")).map(
        lambda s: s.encode("ascii")),
    st.binary(min_size=1, max_size=63),
    # the octets a name walk treats specially, packed densely
    st.lists(st.sampled_from([0, 1, 0x0C, 0x3F, 0x40, 0xC0, 0xFF]),
             min_size=1, max_size=6).map(bytes))
names = st.lists(labels, min_size=0, max_size=5).filter(
    lambda parts: sum(len(label) + 1 for label in parts) < 255).map(Name)
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


# ---------------------------------------------------------------------------
# What a decode gives, and the encoder it is checked against


def decode_outcome(wire):
    """What one decode of ``wire`` gives, in comparable form: the message,
    its name spellings (``Name.__eq__`` folds case) and its re-encoding,
    or the type of the error raised on the way."""
    try:
        msg = decode_message(wire)
    except WireFormatError as exc:
        return type(exc)
    spellings = [rr.name.labels for section in (msg.answers, msg.authority,
                                                msg.additional)
                 for rr in section]
    if msg.question is not None:
        spellings.append(msg.question.qname.labels)
    try:
        again = encode_message(msg)
    except DnsError as exc:     # e.g. a 3-octet server cookie decodes only
        again = type(exc)
    return msg, spellings, again


def reference_encode(msg):
    """``encode_message`` as one plain pass: one fresh compression table,
    ``encode_name`` for every name, every option serialised by itself."""
    flags = ((0x8000 if msg.is_response else 0)
             | (int(msg.opcode) & 0xF) << 11
             | (0x0400 if msg.authoritative else 0)
             | (0x0200 if msg.truncated else 0)
             | (0x0100 if msg.recursion_desired else 0)
             | (0x0080 if msg.recursion_available else 0)
             | int(msg.rcode) & 0xF)
    buf = bytearray(struct.pack(
        "!HHHHHH", msg.msg_id & 0xFFFF, flags,
        0 if msg.question is None else 1, len(msg.answers),
        len(msg.authority),
        len(msg.additional) + (0 if msg.edns is None else 1)))
    compress = {}
    if msg.question is not None:
        encode_name(msg.question.qname, buf, compress)
        buf += struct.pack("!HH", int(msg.question.qtype),
                           int(msg.question.qclass))
    for rr in msg.answers + msg.authority + msg.additional:
        encode_name(rr.name, buf, compress)
        rdata = rr.rdata.to_wire()
        buf += struct.pack("!HHIH", int(rr.rdtype), int(rr.rdclass),
                           rr.ttl & 0xFFFFFFFF, len(rdata)) + rdata
    if msg.edns is not None:
        options = b""
        for option in msg.edns.options:
            payload = option.to_wire()
            options += struct.pack("!HH", int(option.code),
                                   len(payload)) + payload
        opt_ttl = ((int(msg.rcode) >> 4 & 0xFF) << 24
                   | (msg.edns.version & 0xFF) << 16
                   | (0x8000 if msg.edns.dnssec_ok else 0))
        buf += b"\x00" + struct.pack(
            "!HHIH", 41, msg.edns.payload_size & 0xFFFF, opt_ttl,
            len(options)) + options
    return bytes(buf)


def reference_decode(wire):
    """``decode_message`` as one pass with no tables, from RFC 1035 §4.1,
    RFC 6891 §6.1 and RFC 7871 §6.  A defect raises; which one is moot."""
    msg_id, flags, *counts = struct.unpack_from("!HHHHHH", wire)
    assert counts[0] <= 1, "one question at most"
    def name(at):
        labels, end, seen = [], None, set()
        while wire[at]:
            if wire[at] >= 0xC0:
                end = at + 2 if end is None else end
                at = struct.unpack_from("!H", wire, at)[0] & 0x3FFF
                assert at not in seen and len(seen) < 64, "pointer loop"
                seen.add(at)
            else:
                assert wire[at] <= 63 and at + 1 + wire[at] <= len(wire)
                labels.append(wire[at + 1:at + 1 + wire[at]])
                at += 1 + wire[at]
        return Name(labels), at + 1 if end is None else end
    def option(code, data):
        if code == 8:
            family, source, scope = struct.unpack_from("!HBB", data)
            width = {1: 32, 2: 128}[family]
            assert source <= width and scope <= width, "prefix over width"
            assert len(data) == 4 + (source + 7) // 8, "address length"
            value = int.from_bytes(data[4:].ljust(width // 8, b"\0"), "big")
            assert value & ((1 << (width - source)) - 1) == 0, "host bits"
            return EcsOption(family, source, scope, value)
        if code == 10:
            assert len(data) >= 8, "client cookie"
            return CookieOption(data[:8], data[8:])
        return GenericOption(code, data)
    question, at = None, 12
    if counts[0]:
        qname, at = name(at)
        question = Question(qname, *struct.unpack_from("!HH", wire, at))
        at += 4
    sections, edns, ext_rcode = ([], [], []), None, 0
    for count, section in zip(counts[1:], sections):
        for _ in range(count):
            owner, at = name(at)
            rdtype, rdclass, ttl, size = struct.unpack_from("!HHIH", wire, at)
            start, at = at + 10, at + 10 + size
            data = wire[start:at]
            assert at <= len(wire), "rdata truncated"
            if rdtype == 41 and section is sections[2]:
                ext_rcode, options, o = ttl >> 24, [], 0
                while o < size:
                    code, length = struct.unpack_from("!HH", data, o)
                    assert o + 4 + length <= size, "option truncated"
                    options.append(option(code, data[o + 4:o + 4 + length]))
                    o += 4 + length
                edns = EdnsInfo(rdclass, ttl >> 16 & 0xFF,
                                bool(ttl & 0x8000), 0, options)
                continue
            rdata = GenericRdata(rdtype, data)
            if rdtype in (1, 28):
                assert size == {1: 4, 28: 16}[rdtype], "address size"
                rdata = {4: A, 16: AAAA}[size](str(ipaddress.ip_address(data)))
            elif rdtype in (2, 5, 12):
                rdata = {2: NS, 5: CNAME, 12: PTR}[rdtype](name(start)[0])
            elif rdtype == 15:
                assert size >= 3, "MX too short"
                rdata = MX(data[0] << 8 | data[1], name(start + 2)[0])
            elif rdtype == 16:
                strings, o = [], 0
                while o < size:
                    assert o + 1 + data[o] <= size, "TXT segment"
                    strings.append(data[o + 1:o + 1 + data[o]])
                    o += 1 + data[o]
                rdata = TXT(tuple(strings))
            elif rdtype == 6:
                mname, o = name(start)
                rname, o = name(o)
                rdata = SOA(mname, rname, *struct.unpack_from("!5I", wire, o))
            section.append(ResourceRecord(owner, rdtype, ttl, rdata, rdclass))
    rcode, opcode = ext_rcode << 4 | flags & 0xF, flags >> 11 & 0xF
    rcode = Rcode(rcode if rcode in set(Rcode) else flags & 0xF)
    opcode = Opcode(opcode if opcode in set(Opcode) else 0)
    bits = (bool(flags & bit) for bit in (0x8000, 0x400, 0x200, 0x100, 0x80))
    return Message(msg_id, opcode, rcode, *bits, question, *sections, edns)


# ---------------------------------------------------------------------------
# Structure-aware damage to a valid wire


class Layout:
    """Where the structure of a wire *this encoder produced* sits: the
    offsets a mutation aims at.  Not a decoder — it trusts its input."""

    #: RDATA offsets (relative to the RDATA start) that hold a name.
    _NAMES_IN_RDATA = {RecordType.NS: (0,), RecordType.CNAME: (0,),
                       RecordType.PTR: (0,), RecordType.MX: (2,)}

    def __init__(self, wire):
        self.names = []         # start of the qname, every owner, RDATA names
        self.rdlengths = []     # the two RDLENGTH octets of every record
        self.option_lengths = []    # OPT option length fields
        self.ecs_fields = []    # family (low octet), source, scope offsets
        self.letters = []       # ASCII letters inside in-place labels
        qdcount, ancount, nscount, arcount = struct.unpack_from(
            "!HHHH", wire, 4)
        offset = 12
        if qdcount:
            offset = self._name(wire, offset) + 4
        for _ in range(ancount + nscount + arcount):
            offset = self._name(wire, offset)
            rdtype, _, _, rdlength = struct.unpack_from("!HHIH", wire,
                                                        offset)
            self.rdlengths.append(offset + 8)
            offset += 10
            if rdtype == RecordType.OPT:
                self._options(wire, offset, offset + rdlength)
            elif rdtype == RecordType.SOA:
                self._name(wire, self._name(wire, offset))
            else:
                for at in self._NAMES_IN_RDATA.get(rdtype, ()):
                    self._name(wire, offset + at)
            offset += rdlength

    def _name(self, wire, offset):
        """Record a name's start and letters; returns the offset past it."""
        self.names.append(offset)
        while wire[offset] and wire[offset] < 0xC0:
            length = wire[offset]
            self.letters += [at for at in range(offset + 1,
                                                offset + 1 + length)
                             if chr(wire[at]).isalpha() and wire[at] < 128]
            offset += 1 + length
        return offset + (2 if wire[offset] >= 0xC0 else 1)

    def _options(self, wire, offset, end):
        while offset < end:
            code, length = struct.unpack_from("!HH", wire, offset)
            self.option_lengths.append(offset + 2)
            if code == 8 and length >= 4:
                self.ecs_fields += [offset + 5, offset + 6, offset + 7]
            offset += 4 + length


@st.composite
def mutants(draw, wire):
    """``wire`` with one to three aimed defects (see ``Layout``)."""
    layout = Layout(wire)
    out = bytearray(wire)

    def put_u16(at, value):
        out[at:at + 2] = struct.pack("!H", value & 0xFFFF)

    def pointer():
        at = draw(st.sampled_from(layout.names))
        target = draw(st.one_of(
            st.just(12), st.just(at),                   # the qname; itself
            st.integers(0, 11),                         # into the header
            st.integers(at, len(wire) + 4),             # forward
            st.sampled_from(layout.names)))             # another name
        put_u16(at, 0xC000 | target)

    def count():
        at = draw(st.sampled_from([4, 6, 8, 10]))
        value = struct.unpack_from("!H", out, at)[0]
        put_u16(at, max(0, value + draw(st.sampled_from([-1, 1, 2]))))

    def length(sites):
        at = draw(st.sampled_from(sites))
        value = struct.unpack_from("!H", out, at)[0]
        put_u16(at, max(0, value + draw(st.integers(-4, 4))))

    def fixed_field():
        # type, class or TTL: for an OPT, the payload size and flags
        at = draw(st.sampled_from(layout.rdlengths)) - draw(
            st.integers(1, 8))
        out[at] = draw(st.one_of(st.sampled_from([0, 1, 28, 41, 0x80]),
                                 st.integers(0, 255)))

    def ecs_field():
        out[draw(st.sampled_from(layout.ecs_fields))] = draw(st.one_of(
            st.sampled_from([0, 1, 2, 3, 24, 32, 33, 128, 129, 255]),
            st.integers(0, 255)))

    def flip_case():
        out[draw(st.sampled_from(layout.letters))] ^= 0x20

    def trailing():
        out.extend(draw(st.binary(min_size=1, max_size=6)))

    kinds = [count, trailing]
    if layout.names:
        kinds += [pointer, pointer]
    if layout.rdlengths:
        kinds += [lambda: length(layout.rdlengths), fixed_field]
    if layout.option_lengths:
        kinds.append(lambda: length(layout.option_lengths))
    if layout.ecs_fields:
        kinds += [ecs_field, ecs_field]
    if layout.letters:
        kinds.append(flip_case)
    for _ in range(draw(st.integers(1, 3))):
        draw(st.sampled_from(kinds))()
    return bytes(out)


class CountingWire(bytes):
    """A packet that counts its single-octet reads: ``decode_name`` makes
    exactly one per step of its walk."""

    reads = 0

    def __getitem__(self, index):
        if not isinstance(index, slice):
            self.reads += 1
        return bytes.__getitem__(self, index)
