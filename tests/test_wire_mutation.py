"""The codec against aimed damage and against its own plain restatement.

``decode_message`` recognises a question, an OPT record and an address
record from their exact bytes (``repro.dnslib.wire``, "Element tables"),
and a whole wire after its ID (the relay table).  These suites hold that
to "the tables may only ever save work":

* structure-aware mutation — valid wires damaged where their structure
  is (compression pointers, section counts, RDLENGTH, option lengths,
  ECS fields, label case, trailing octets): tables warmed by the intact
  message and cold tables give the same message or the same error, and
  no name walk runs unbounded;
* the encoder oracle — ``encode_message`` equals ``reference_encode``,
  the one-table, every-name-through-``encode_name`` algorithm, on
  generated messages and on the cases its shortcuts turn on;
* the decoder oracle — ``decode_message`` equals ``reference_decode``,
  one table-free pass written from the RFCs, on generated wires and their
  mutants, and raises ``WireFormatError`` wherever the reference rejects;
* the relay table — a body decoded once decodes under another ID as a
  cold parse and the reference do, and every container of a hit is the
  caller's own.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.dnslib import (A, AAAA, BadPointerError, CookieOption, EcsOption,
                          EdnsInfo, EdnsOption, GenericOption, Message, Name,
                          NS, Question, Rcode, RecordType, ResourceRecord,
                          TruncatedMessageError, WireFormatError,
                          decode_message, encode_message)
from repro.dnslib import wire as wire_module
from repro.dnslib.wire import clear_codec_caches

from wire_strategies import (CountingWire, Layout, decode_outcome, edns_infos,
                             messages, mutants, names, options, records,
                             reference_decode, reference_encode)


def warm_and_cold(intact: bytes, wire: bytes):
    """Decode ``wire`` through tables the intact message filled, then
    through empty ones."""
    clear_codec_caches()
    decode_outcome(intact)
    warm = decode_outcome(wire)
    clear_codec_caches()
    return warm, decode_outcome(wire)


@pytest.mark.oracle
class TestWireMutation:
    @given(messages, st.data())
    @settings(max_examples=100, deadline=None)
    def test_warm_and_cold_tables_agree_on_every_mutant(self, msg, data):
        intact = encode_message(msg)
        mutant = data.draw(mutants(intact))
        warm, cold = warm_and_cold(intact, mutant)
        assert warm == cold

    @given(messages, st.data())
    @settings(max_examples=60, deadline=None)
    def test_no_name_walk_runs_unbounded(self, msg, data):
        intact = encode_message(msg)
        mutant = CountingWire(data.draw(mutants(intact)))
        decode_name = wire_module.decode_name
        longest = 0

        def counted(wire, offset):
            nonlocal longest
            before = mutant.reads
            try:
                return decode_name(wire, offset)
            finally:
                longest = max(longest, mutant.reads - before)

        wire_module.decode_name = counted
        try:
            for warm in (False, True):
                clear_codec_caches()
                if warm:
                    decode_message(intact)
                try:
                    decode_message(mutant)
                except WireFormatError:
                    pass
        finally:
            wire_module.decode_name = decode_name
        assert longest <= len(mutant) + 64

    @given(messages)
    @settings(max_examples=30, deadline=None)
    def test_layout_finds_the_structure_it_aims_at(self, msg):
        """The mutation sites are real: every name start decodes as a
        name, every RDLENGTH site bounds its RDATA inside the packet."""
        wire = encode_message(msg)
        layout = Layout(wire)
        records = len(msg.answers) + len(msg.authority) \
            + len(msg.additional) + (msg.edns is not None)
        assert len(layout.rdlengths) == records
        assert len(layout.names) >= records + (msg.question is not None)
        for at in layout.names:
            wire_module.decode_name(wire, at)
        if msg.edns is not None:
            assert len(layout.option_lengths) == len(msg.edns.options)

    # -- the fixed cases the fast paths turn on -----------------------------

    @staticmethod
    def _answer(qname="www.example.com", owner=None, rdata=A("192.0.2.1")):
        query = Message.make_query(Name.from_text(qname), RecordType.A,
                                   msg_id=3)
        response = query.make_response()
        response.answers.append(ResourceRecord(
            Name.from_text(owner or qname), rdata.rdtype, 60, rdata))
        return encode_message(response)

    def test_zero_octet_inside_a_label_is_not_the_end_of_the_name(self):
        clear_codec_caches()
        inner = Name([b"a\x00b", b"example"])
        # The bytes up to the inner zero, read as a question of their own.
        decoy = Message(question=Question(Name([b"\x01"]), RecordType.A))
        decode_message(encode_message(decoy))
        wire = encode_message(Message.make_query(inner, RecordType.A))
        for _ in range(2):                      # cold, then warm
            assert decode_message(wire).question.qname.labels \
                == (b"a\x00b", b"example")

    def test_pointer_at_12_never_hits_the_question_table(self):
        wire = bytearray(self._answer())
        wire[12:14] = b"\xc0\x0c"               # the qname points at itself
        warm, cold = warm_and_cold(self._answer(), bytes(wire))
        assert warm is cold is BadPointerError

    def test_pointer_into_the_header_is_read_per_message(self):
        """``C0 00`` as the qname reads the name out of the header, where
        the message id sits: equal question bytes, different names."""
        clear_codec_caches()
        for msg_id, label in ((b"\x01a", b"a"), (b"\x01b", b"b"),
                              (b"\x01a", b"a")):
            wire = msg_id + b"\x00\x00\x00\x01" + bytes(6) \
                + b"\xc0\x00\x00\x01\x00\x01"
            assert decode_message(wire).question.qname.labels == (label,)
        assert not wire_module._QUESTION_TABLE
        assert not wire_module._MESSAGE_TABLE

    def test_owner_pointer_behind_a_hostile_qname_still_hits_the_limit(self):
        """A qname that is itself a 64-hop pointer chain decodes; an owner
        reaching it through one more pointer must not."""
        hops = wire_module._MAX_POINTER_HOPS
        header = b"\x00\x01\x80\x00\x00\x01\x00\x01\x00\x00\x00\x00"
        # offset 12: pointer to 20; 14..17 type/class; 18..19 owner -> 12
        chain_at = 12 + 2 + 4 + 2 + 10 + 4
        body = bytearray(b"\xc0" + bytes([chain_at]) + b"\x00\x01\x00\x01"
                         + b"\xc0\x0c" + b"\x00\x01\x00\x01\x00\x00\x00\x3c"
                         + b"\x00\x04" + b"\xc0\x00\x02\x01")
        for hop in range(hops - 1):
            target = chain_at + 2 * (hop + 1)
            body += bytes([0xC0 | target >> 8, target & 0xFF])
        body += b"\x01a\x00"
        wire = header + bytes(body)
        name, _ = wire_module.decode_name(wire, 12)     # exactly at the limit
        assert name.labels == (b"a",)
        # Warm with the question alone (the record is then trailing bytes).
        question_only = wire[:6] + b"\x00\x00" + wire[8:]
        assert decode_message(question_only).question.qname is name
        warm, cold = warm_and_cold(question_only, wire)
        assert warm is cold is BadPointerError

    def test_shared_owner_keeps_the_questions_spelling(self):
        clear_codec_caches()
        wire = self._answer("WwW.Example.COM")
        assert b"\xc0\x0c\x00\x01\x00\x01" in wire      # the owner
        for _ in range(2):
            msg = decode_message(wire)
            assert msg.answers[0].name.labels == (b"WwW", b"Example", b"COM")
            assert msg.answers[0].name is msg.question.qname

    def test_address_record_is_not_shared_across_spellings(self):
        clear_codec_caches()
        lower = decode_message(self._answer("a.example", "b.other"))
        upper = decode_message(self._answer("a.example", "B.OTHER"))
        assert lower.answers[0] == upper.answers[0]     # Name folds case
        assert lower.answers[0].name.labels == (b"b", b"other")
        assert upper.answers[0].name.labels == (b"B", b"OTHER")

    def test_name_bearing_rdata_is_never_memoised(self):
        clear_codec_caches()
        wire = self._answer(rdata=NS(Name.from_text("ns.example.com")))
        first, second = decode_message(wire), decode_message(wire)
        assert first.answers[0] == second.answers[0]
        assert first.answers[0] is not second.answers[0]
        assert not wire_module._ADDRESS_RR_TABLE
        assert not wire_module._MESSAGE_TABLE

    def test_edns_is_built_fresh_for_every_message(self):
        clear_codec_caches()
        wire = encode_message(Message.make_query(
            Name.from_text("q.example"), RecordType.A,
            ecs=EcsOption.from_client_address("192.0.2.0", 24)))
        first = decode_message(wire)
        first.edns.options.clear()
        first.edns.payload_size = 512
        second = decode_message(wire)
        assert second.edns.payload_size == 4096
        assert len(second.edns.options) == 1
        assert second.edns.options is not decode_message(wire).edns.options

    def test_opt_outside_the_additional_section_stays_a_record(self):
        clear_codec_caches()
        query = Message.make_query(Name.from_text("q.example"), RecordType.A)
        wire = bytearray(encode_message(query))
        wire[6:8], wire[10:12] = b"\x00\x01", b"\x00\x00"   # OPT as answer
        for _ in range(2):
            msg = decode_message(bytes(wire))
            assert msg.edns is None
            assert msg.answers[0].rdtype == RecordType.OPT
        assert not wire_module._OPT_TABLE


@pytest.mark.oracle
class TestDecodeInputTypes:
    """``decode_message`` takes ``bytes``, ``bytearray`` and ``memoryview``
    alike: anything but ``bytes`` is copied once at entry."""

    @given(messages, st.data())
    @settings(max_examples=30, deadline=None)
    def test_every_buffer_type_decodes_alike(self, msg, data):
        wire = encode_message(msg)
        if data.draw(st.booleans()):
            wire = data.draw(mutants(wire))
        expected = decode_outcome(wire)
        assert decode_outcome(bytearray(wire)) == expected
        assert decode_outcome(memoryview(wire)) == expected
        assert decode_outcome(memoryview(bytearray(b"\xff" + wire))[1:]) \
            == expected

    def test_the_message_does_not_alias_a_mutable_packet(self):
        clear_codec_caches()
        response = Message(is_response=True, question=Question(
            Name.from_text("q.example"), RecordType.A))
        response.answers.append(ResourceRecord(
            Name.from_text("q.example"), RecordType.A, 60, A("192.0.2.1")))
        packet = bytearray(encode_message(response))
        msg = decode_message(packet)
        packet[:] = bytes(len(packet))
        assert msg.question.qname.to_text() == "q.example."
        assert msg.answer_addresses() == ["192.0.2.1"]
        # ... and the tables were keyed by immutable copies of it.
        assert decode_message(encode_message(response)) == msg

    def test_short_packets_of_every_type(self):
        for packet in (b"", bytearray(5), memoryview(b"\x00" * 11)):
            with pytest.raises(TruncatedMessageError):
                decode_message(packet)


class UnhashableOption(EdnsOption):
    """A user-defined option that cannot key a dict."""

    code = 65002
    __hash__ = None

    def __init__(self, chunks):
        self.chunks = list(chunks)

    def __eq__(self, other):
        return isinstance(other, UnhashableOption) \
            and other.chunks == self.chunks

    def to_wire(self):
        return b"".join(self.chunks)


@pytest.mark.oracle
class TestEncoderOracle:
    @given(messages)
    @settings(max_examples=100, deadline=None)
    def test_generated_messages(self, msg):
        assert encode_message(msg) == reference_encode(msg)

    @given(st.lists(records, max_size=4), st.one_of(st.none(), edns_infos))
    @settings(max_examples=30, deadline=None)
    def test_root_question_with_root_owned_records(self, extra, edns):
        root = Name.root()
        msg = Message(is_response=True, edns=edns,
                      question=Question(root, RecordType.NS))
        msg.answers = [ResourceRecord(root, RecordType.NS, 5,
                                      NS(Name.from_text("a.root-servers.net")))
                       ] + extra
        msg.additional = [ResourceRecord(root, RecordType.A, 5,
                                         A("198.41.0.4"))]
        wire = encode_message(msg)
        assert wire == reference_encode(msg)
        assert wire[12] == 0 and b"\xc0\x0c" not in wire[:40]

    @given(names.filter(lambda n: any(chr(o).isalpha() and o < 128
                                      for label in n.labels for o in label)),
           st.lists(records, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_owner_equal_to_the_question_only_under_case_folding(
            self, qname, extra):
        owner = Name([label.swapcase() for label in qname.labels])
        assert owner == qname and owner.labels != qname.labels
        msg = Message(is_response=True,
                      question=Question(qname, RecordType.A))
        msg.answers = extra + [ResourceRecord(owner, RecordType.A, 9,
                                              A("192.0.2.9"))]
        wire = encode_message(msg)
        assert wire == reference_encode(msg)
        assert wire.endswith(b"\xc0\x0c\x00\x01\x00\x01\x00\x00\x00\x09"
                             b"\x00\x04\xc0\x00\x02\x09")

    @given(st.lists(records, min_size=1, max_size=4),
           st.lists(records, max_size=2), st.one_of(st.none(), edns_infos))
    @settings(max_examples=30, deadline=None)
    def test_no_question_with_records(self, answers, additional, edns):
        msg = Message(is_response=True, question=None, answers=answers,
                      additional=additional, edns=edns)
        assert encode_message(msg) == reference_encode(msg)

    @given(st.lists(options, min_size=4, max_size=9),
           st.one_of(st.none(), names))
    @settings(max_examples=40, deadline=None)
    def test_more_than_three_options(self, many, qname):
        msg = Message(edns=EdnsInfo(options=many),
                      question=None if qname is None
                      else Question(qname, RecordType.AAAA))
        wire = encode_message(msg)
        assert wire == reference_encode(msg)
        assert decode_message(wire).edns.options == many

    def test_an_option_that_cannot_be_hashed(self):
        mine = UnhashableOption([b"ab", b"", b"cde"])
        with pytest.raises(TypeError):
            hash(mine)
        msg = Message.make_query(Name.from_text("q.example"), RecordType.A)
        msg.edns.options += [CookieOption(b"12345678"), mine,
                             EcsOption.from_client_address("2001:db8::", 32)]
        wire = encode_message(msg)
        assert wire == reference_encode(msg)
        assert decode_message(wire).edns.options[1] \
            == GenericOption(65002, b"abcde")

    def test_no_options_is_an_empty_payload(self):
        msg = Message.make_query(Name.from_text("q.example"), RecordType.A)
        wire = encode_message(msg)
        assert wire == reference_encode(msg)
        assert wire[-2:] == b"\x00\x00"             # RDLENGTH 0, no RDATA

    def test_aaaa_owner_under_a_long_question(self):
        qname = Name([b"x" * 63, b"y" * 63, b"z" * 63, b"w" * 61])
        msg = Message(is_response=True,
                      question=Question(qname, RecordType.AAAA))
        msg.answers = [ResourceRecord(qname, RecordType.AAAA, 1,
                                      AAAA("2001:db8::1"))] * 3
        assert encode_message(msg) == reference_encode(msg)


@pytest.mark.oracle
class TestDecoderOracle:
    @staticmethod
    def agree(wire):
        try:
            want = reference_decode(wire)
        except Exception:       # noqa: BLE001 - any rejection counts
            with pytest.raises(WireFormatError):
                decode_message(wire)
            return False
        got = decode_message(wire)
        assert got == want
        assert [rr.name.labels for rr in got.answers + got.authority
                + got.additional] == [rr.name.labels for rr in want.answers
                                      + want.authority + want.additional]
        return True

    @given(messages)
    @settings(max_examples=30, deadline=None)
    def test_generated_messages(self, msg):
        clear_codec_caches()
        assert self.agree(encode_message(msg))

    @given(messages, st.data())
    @settings(max_examples=40, deadline=None)
    def test_mutants(self, msg, data):
        self.agree(data.draw(mutants(encode_message(msg))))


def relayable(msg):
    """``msg`` cut to the shape the relay table stores: its A and AAAA
    records only, each owned by the question's name when there is one."""
    def keep(section):
        return [rr if msg.question is None else ResourceRecord(
                    msg.question.qname, rr.rdtype, rr.ttl, rr.rdata)
                for rr in section
                if rr.rdtype in (RecordType.A, RecordType.AAAA)]
    return Message(msg.msg_id, msg.opcode, msg.rcode, msg.is_response,
                   msg.authoritative, msg.truncated, msg.recursion_desired,
                   msg.recursion_available, msg.question, keep(msg.answers),
                   keep(msg.authority), keep(msg.additional), msg.edns)


def with_id(wire, msg_id):
    return msg_id.to_bytes(2, "big") + wire[2:]


@pytest.mark.oracle
class TestRelayTable:
    """``decode_message`` keeps a whole wire after its ID (the relay
    table): a stored body decodes under any ID as a cold parse does."""

    @given(st.one_of(messages, messages.map(relayable)), st.data())
    @settings(max_examples=80, deadline=None)
    def test_a_stored_body_decodes_under_any_id_as_a_cold_parse(
            self, msg, data):
        wire = encode_message(msg)
        if data.draw(st.booleans()):
            wire = data.draw(mutants(wire))
        other = with_id(wire, data.draw(st.integers(0, 0xFFFF)))
        clear_codec_caches()
        decode_outcome(wire)                # stores the body if it may
        warm = decode_outcome(other)
        clear_codec_caches()
        assert warm == decode_outcome(other)
        TestDecoderOracle.agree(other)

    def test_an_owner_read_out_of_the_header_is_read_per_message(self):
        """``C0 00`` as an owner reads the name out of the header, where
        the message id sits: equal bodies, different owners."""
        clear_codec_caches()
        for msg_id, label in ((b"\x01a", b"a"), (b"\x01b", b"b")):
            wire = msg_id + b"\x00\x00\x00\x01\x00\x01" + bytes(4) \
                + b"\x01q\x00\x00\x01\x00\x01" \
                + b"\xc0\x00\x00\x01\x00\x01\x00\x00\x00\x3c\x00\x04" \
                + b"\xc0\x00\x02\x01"
            assert decode_message(wire).answers[0].name.labels == (label,)
        assert not wire_module._MESSAGE_TABLE

    def test_a_relayed_answer_is_parsed_once(self):
        clear_codec_caches()
        query = Message.make_query(
            Name.from_text("www.example.com"), RecordType.A, msg_id=1,
            ecs=EcsOption.from_client_address("192.0.2.0", 24))
        response = query.make_response()
        response.answers.append(ResourceRecord(
            query.question.qname, RecordType.A, 60, A("198.51.100.7")))
        wire = encode_message(response)
        first = decode_message(wire)
        assert list(wire_module._MESSAGE_TABLE) == [wire[2:]]
        wire_module._QUESTION_TABLE.clear()     # a parse would walk the name
        calls = []
        decode_name = wire_module.decode_name
        wire_module.decode_name = lambda *args: calls.append(args)
        try:
            relayed = decode_message(with_id(wire, 0xBEEF))
        finally:
            wire_module.decode_name = decode_name
        assert not calls
        assert relayed.msg_id == 0xBEEF
        relayed.msg_id = first.msg_id
        assert relayed == first

    def test_a_hit_hands_out_fresh_containers(self):
        """Mutate every container of a decoded message, the miss's and
        then the hit's: the next decode of the body is untouched."""
        clear_codec_caches()
        qname = Name.from_text("q.example")
        response = Message.make_query(
            qname, RecordType.A, msg_id=7,
            ecs=EcsOption.from_client_address("192.0.2.0", 24)
        ).make_response()
        response.edns.options.append(CookieOption(b"12345678"))
        response.answers.append(ResourceRecord(qname, RecordType.A, 60,
                                               A("192.0.2.1")))
        response.authority.append(ResourceRecord(qname, RecordType.AAAA, 60,
                                                 AAAA("2001:db8::1")))
        response.additional.append(ResourceRecord(qname, RecordType.A, 60,
                                                  A("192.0.2.2")))
        wire = encode_message(response)
        want = reference_decode(wire)
        for _ in range(3):
            got = decode_message(wire)
            assert wire[2:] in wire_module._MESSAGE_TABLE
            assert got == want and encode_message(got) == wire
            got.answers.append(got.answers[0])
            got.authority.clear()
            got.additional[0] = got.answers[0]
            got.edns.options.clear()
            got.edns.payload_size = 512
            got.edns.dnssec_ok = True
            got.is_response = got.recursion_desired = False
            got.rcode = Rcode.SERVFAIL
            got.set_ecs(None)
        assert decode_message(wire) == want
        assert encode_message(decode_message(wire)) == wire
