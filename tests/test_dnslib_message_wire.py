"""Tests for the message model and the wire codec (RFC 1035 / 6891)."""

import pytest
from hypothesis import given, settings

from repro.dnslib import (A, AAAA, CNAME, MX, NS, PTR, SOA, TXT, BadEcsError,
                          BadPointerError, CookieOption, EcsOption, Message,
                          Name, NameError_, Opcode, Question, Rcode,
                          RecordType, ResourceRecord, TruncatedMessageError,
                          WireFormatError, decode_message, encode_message)
from repro.dnslib.wire import decode_name, encode_name

from wire_strategies import (bad_ecs_family_query, messages,
                             overlong_qname_query)


def roundtrip(msg: Message) -> Message:
    return decode_message(encode_message(msg))


def make_rr(name: str, rdata, rdtype, ttl=300) -> ResourceRecord:
    return ResourceRecord(Name.from_text(name), rdtype, ttl, rdata)


class TestHeaderRoundtrip:
    def test_query_flags(self):
        msg = Message.make_query(Name.from_text("a.b"), RecordType.A,
                                 msg_id=77)
        out = roundtrip(msg)
        assert out.msg_id == 77
        assert not out.is_response
        assert out.recursion_desired

    def test_response_flags(self):
        msg = Message.make_query(Name.from_text("a.b"), RecordType.A)
        resp = msg.make_response()
        resp.authoritative = True
        resp.recursion_available = True
        resp.rcode = Rcode.NXDOMAIN
        out = roundtrip(resp)
        assert out.is_response and out.authoritative
        assert out.recursion_available
        assert out.rcode == Rcode.NXDOMAIN

    def test_truncated_flag(self):
        msg = Message.make_query(Name.from_text("a.b"), RecordType.A)
        msg.truncated = True
        assert roundtrip(msg).truncated

    def test_rd_false(self):
        msg = Message.make_query(Name.from_text("a.b"), RecordType.A,
                                 recursion_desired=False)
        assert not roundtrip(msg).recursion_desired

    def test_question_roundtrip(self):
        msg = Message.make_query(Name.from_text("www.example.com"),
                                 RecordType.AAAA)
        out = roundtrip(msg)
        assert out.question == Question(Name.from_text("www.example.com"),
                                        RecordType.AAAA)

    def test_opcode_roundtrip(self):
        msg = Message.make_query(Name.from_text("a."), RecordType.A)
        msg.opcode = Opcode.STATUS
        assert roundtrip(msg).opcode == Opcode.STATUS


class TestRdataRoundtrip:
    @pytest.mark.parametrize("rdata,rdtype", [
        (A("203.0.113.9"), RecordType.A),
        (AAAA("2001:db8::9"), RecordType.AAAA),
        (NS(Name.from_text("ns1.example.com")), RecordType.NS),
        (CNAME(Name.from_text("target.example.com")), RecordType.CNAME),
        (PTR(Name.from_text("host.example.com")), RecordType.PTR),
        (MX(10, Name.from_text("mail.example.com")), RecordType.MX),
        (TXT((b"hello", b"world"),), RecordType.TXT),
        (SOA(Name.from_text("ns1.example.com"),
             Name.from_text("hostmaster.example.com"),
             2024, 3600, 600, 86400, 300), RecordType.SOA),
    ])
    def test_answer_roundtrip(self, rdata, rdtype):
        msg = Message.make_query(Name.from_text("q.example.com"), rdtype)
        resp = msg.make_response()
        resp.answers.append(make_rr("q.example.com", rdata, rdtype))
        out = roundtrip(resp)
        assert out.answers[0].rdata == rdata
        assert out.answers[0].rdtype == rdtype

    @pytest.mark.parametrize("rdata_class,text", [
        (A, "::1"), (A, "1.2.3"), (A, "junk"), (A, ""),
        (AAAA, "1.2.3.4"), (AAAA, "1::2::3"), (AAAA, "junk")])
    def test_address_rdata_rejects_junk_and_the_other_family(
            self, rdata_class, text):
        for _ in range(2):              # a rejected text is never memoised
            with pytest.raises(ValueError):
                rdata_class(text)

    def test_ttl_roundtrip(self):
        msg = Message.make_query(Name.from_text("q."), RecordType.A)
        resp = msg.make_response()
        resp.answers.append(make_rr("q.", A("1.2.3.4"), RecordType.A,
                                    ttl=86399))
        assert roundtrip(resp).answers[0].ttl == 86399

    def test_all_sections_roundtrip(self):
        msg = Message.make_query(Name.from_text("q.example.com"),
                                 RecordType.A)
        resp = msg.make_response()
        resp.answers.append(make_rr("q.example.com", A("1.1.1.1"),
                                    RecordType.A))
        resp.authority.append(make_rr("example.com",
                                      NS(Name.from_text("ns1.example.com")),
                                      RecordType.NS))
        resp.additional.append(make_rr("ns1.example.com", A("2.2.2.2"),
                                       RecordType.A))
        out = roundtrip(resp)
        assert len(out.answers) == 1
        assert len(out.authority) == 1
        assert len(out.additional) == 1

    def test_txt_multisegment(self):
        txt = TXT((b"x" * 255, b"x" * 255, b"x" * 90))
        msg = Message.make_query(Name.from_text("t."), RecordType.TXT)
        resp = msg.make_response()
        resp.answers.append(make_rr("t.", txt, RecordType.TXT))
        assert roundtrip(resp).answers[0].rdata == txt


class TestEdnsRoundtrip:
    def test_edns_payload_size(self):
        msg = Message.make_query(Name.from_text("q."), RecordType.A)
        msg.edns.payload_size = 1232
        assert roundtrip(msg).edns.payload_size == 1232

    def test_ecs_option_roundtrip(self):
        ecs = EcsOption.from_client_address("192.0.2.200", 24)
        msg = Message.make_query(Name.from_text("q."), RecordType.A, ecs=ecs)
        assert roundtrip(msg).ecs() == ecs

    def test_no_edns_when_disabled(self):
        msg = Message.make_query(Name.from_text("q."), RecordType.A,
                                 use_edns=False)
        assert roundtrip(msg).edns is None

    def test_dnssec_ok_flag(self):
        msg = Message.make_query(Name.from_text("q."), RecordType.A)
        msg.edns.dnssec_ok = True
        assert roundtrip(msg).edns.dnssec_ok

    def test_opt_not_in_additional(self):
        msg = Message.make_query(Name.from_text("q."), RecordType.A)
        out = roundtrip(msg)
        assert out.additional == []
        assert out.edns is not None

    def test_badvers_extended_rcode(self):
        msg = Message.make_query(Name.from_text("q."), RecordType.A)
        resp = msg.make_response()
        resp.rcode = Rcode.BADVERS
        assert roundtrip(resp).rcode == Rcode.BADVERS


class TestNameCompression:
    def test_compression_shrinks_message(self):
        msg = Message.make_query(Name.from_text("a.verylonglabel.example.com"),
                                 RecordType.A, use_edns=False)
        resp = msg.make_response()
        for i in range(4):
            resp.answers.append(make_rr("a.verylonglabel.example.com",
                                        A(f"1.2.3.{i}"), RecordType.A))
        wire = encode_message(resp)
        # Owner name repeats 5 times; compression must beat naive encoding.
        naive = 5 * (len("a.verylonglabel.example.com") + 2)
        assert len(wire) < 12 + naive + 5 * 14

    def test_compressed_names_decode(self):
        msg = Message.make_query(Name.from_text("x.example.com"),
                                 RecordType.NS, use_edns=False)
        resp = msg.make_response()
        resp.answers.append(make_rr("x.example.com",
                                    NS(Name.from_text("ns.x.example.com")),
                                    RecordType.NS))
        out = roundtrip(resp)
        assert out.answers[0].rdata.target == Name.from_text("ns.x.example.com")

    def test_pointer_loop_rejected(self):
        # A name that points at itself: 0xC00C at offset 12.
        wire = bytearray(encode_message(
            Message.make_query(Name.from_text("ab."), RecordType.A,
                               use_edns=False)))
        wire[12] = 0xC0
        wire[13] = 0x0C
        with pytest.raises(BadPointerError):
            decode_message(bytes(wire))

    def test_forward_pointer_out_of_range(self):
        buf = bytearray(b"\x00" * 12)
        buf += b"\xc0\xff"  # pointer to offset 255 (past end)
        with pytest.raises((TruncatedMessageError, BadPointerError)):
            decode_name(bytes(buf), 12)

    def test_encode_name_helper_roundtrip(self):
        buf = bytearray()
        encode_name(Name.from_text("a.b.c"), buf, {})
        name, end = decode_name(bytes(buf), 0)
        assert name == Name.from_text("a.b.c")
        assert end == len(buf)


class TestMalformedInput:
    def test_short_header(self):
        with pytest.raises(TruncatedMessageError):
            decode_message(b"\x00\x01")

    def test_truncated_question(self):
        msg = encode_message(Message.make_query(Name.from_text("abc."),
                                                RecordType.A, use_edns=False))
        with pytest.raises(TruncatedMessageError):
            decode_message(msg[:-3])

    def test_multi_question_rejected(self):
        wire = bytearray(encode_message(Message.make_query(
            Name.from_text("a."), RecordType.A, use_edns=False)))
        wire[5] = 2  # qdcount = 2
        with pytest.raises(WireFormatError):
            decode_message(bytes(wire))

    def test_reserved_label_type_rejected(self):
        buf = b"\x00" * 12 + b"\x80abc"
        with pytest.raises(WireFormatError):
            decode_name(buf, 12)

    def test_overlong_qname_is_a_wire_error(self):
        with pytest.raises(WireFormatError) as info:
            decode_message(overlong_qname_query())
        assert isinstance(info.value.__cause__, NameError_)
        # Built directly, the same labels keep the name layer's own error.
        with pytest.raises(NameError_):
            Name([b"a" * 63] * 5)

    def test_bad_ecs_family_is_a_wire_error(self):
        wire = bad_ecs_family_query()
        with pytest.raises(WireFormatError) as info:
            decode_message(wire)
        assert isinstance(info.value.__cause__, BadEcsError)
        with pytest.raises(BadEcsError):
            EcsOption.from_wire(wire[-7:])

    def test_unmodeled_rcode_is_a_wire_error(self):
        wire = bytearray(encode_message(Message.make_query(
            Name.from_text("a."), RecordType.A)))
        wire[3] |= 7                    # RCODE 7 (YXRRSET) has no member
        with pytest.raises(WireFormatError):
            decode_message(bytes(wire))


class TestMessageHelpers:
    def test_answer_addresses(self):
        msg = Message()
        msg.answers = [make_rr("a.", A("1.1.1.1"), RecordType.A),
                       make_rr("a.", AAAA("2001:db8::1"), RecordType.AAAA),
                       make_rr("a.", CNAME(Name.from_text("b.")),
                               RecordType.CNAME)]
        assert msg.answer_addresses() == ["1.1.1.1", "2001:db8::1"]

    def test_min_ttl(self):
        msg = Message()
        msg.answers = [make_rr("a.", A("1.1.1.1"), RecordType.A, ttl=20),
                       make_rr("a.", A("1.1.1.2"), RecordType.A, ttl=60)]
        assert msg.min_ttl() == 20

    def test_min_ttl_empty(self):
        assert Message().min_ttl() is None

    def test_copy_is_deep(self):
        msg = Message()
        msg.answers = [make_rr("a.", A("1.1.1.1"), RecordType.A)]
        clone = msg.copy()
        clone.answers.clear()
        assert len(msg.answers) == 1

    @given(messages)
    @settings(max_examples=80, deadline=None)
    def test_copy_shares_nothing_mutable(self, msg):
        before = encode_message(msg)
        clone = msg.copy()
        assert clone == msg and encode_message(clone) == before
        # header
        clone.msg_id ^= 0xFFFF
        clone.opcode = Opcode.STATUS
        clone.rcode = Rcode.SERVFAIL
        for flag in ("is_response", "authoritative", "truncated",
                     "recursion_desired", "recursion_available"):
            setattr(clone, flag, not getattr(clone, flag))
        clone.question = Question(Name.from_text("other."), RecordType.NS)
        # sections: replace in place, grow, empty
        for section in (clone.answers, clone.authority, clone.additional):
            if section:
                section[0] = section[0].with_ttl(1)
            section.append(make_rr("extra.", A("9.9.9.9"), RecordType.A))
            section.reverse()
            del section[1:]
        # EDNS: through set_ecs, and the copy's own EdnsInfo and option list
        if clone.edns is not None:
            clone.edns.options.append(CookieOption(b"12345678"))
            clone.edns.options.reverse()
            clone.edns.payload_size = 1232
            clone.edns.version = 1
            clone.edns.dnssec_ok = not clone.edns.dnssec_ok
        clone.set_ecs(EcsOption.from_client_address("198.51.100.7", 20))
        clone.edns.options.clear()
        clone.set_ecs(None)
        assert encode_message(msg) == before

    def test_set_ecs_strip(self):
        msg = Message.make_query(Name.from_text("q."), RecordType.A,
                                 ecs=EcsOption.from_client_address("1.2.3.4"))
        msg.set_ecs(None)
        assert msg.ecs() is None

    def test_set_ecs_on_plain_message(self):
        msg = Message()
        msg.set_ecs(EcsOption.from_client_address("1.2.3.4"))
        assert msg.ecs() is not None

    def test_make_response_echoes_question_and_id(self):
        q = Message.make_query(Name.from_text("q."), RecordType.A, msg_id=9)
        r = q.make_response()
        assert r.msg_id == 9 and r.question == q.question and r.is_response
