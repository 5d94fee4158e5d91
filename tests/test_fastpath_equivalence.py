"""Equivalence layer: every fast lane pinned to its readable reference.

The perf work (integer-native prefix arithmetic, codec caching, batched
replay) is only admissible because each fast path produces byte-identical
output to the reference implementation it shadows.  This suite asserts
that agreement with hypothesis over random IPv4/IPv6 inputs plus the edge
prefix lengths (0, 32, 128), and over random names/options for the codec
caches.
"""

from __future__ import annotations

import dataclasses
import hashlib
import ipaddress
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import addr as addr_module
from repro.addr import (MASKS4, MASKS6, parse_addr, prefix_key_int,
                        truncate_int)
from repro.analysis.cache_sim import (fig1_series, replay_partial,
                                      replay_partial_batched)
from repro.auth.scan_experiment import decode_probe_name, encode_probe_name
from repro.core.cache import ScopeTracker
from repro.core.policies import EcsDecision, EcsPolicy, build_query_ecs
from repro.datasets.allnames import AllNamesBuilder
from repro.datasets.columnar import ColumnarStore
from repro.datasets.public_cdn import PublicCdnBuilder
from repro.dnslib import (A, AAAA, BadEcsError, EcsOption, EdnsInfo, Message,
                          Name, Question, RecordType, ResourceRecord,
                          decode_message, encode_message, encode_options)
from repro.dnslib import wire as wire_module
from repro.dnslib.wire import clear_codec_caches
from repro.resolvers.anycast import AnycastFrontEnd

from addr_reference import prefix_key, prefix_text, truncate_address
from wire_strategies import decode_outcome, messages

# -- strategies --------------------------------------------------------------

v4_ints = st.integers(min_value=0, max_value=2**32 - 1)
v6_ints = st.integers(min_value=0, max_value=2**128 - 1)
v4_bits = st.integers(min_value=0, max_value=32)
v6_bits = st.integers(min_value=0, max_value=128)

labels = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                 min_size=1, max_size=12).filter(
    lambda s: not s.startswith("-") and not s.endswith("-"))
names = st.lists(labels, min_size=1, max_size=5).map(
    lambda parts: Name.from_text(".".join(parts)))


# -- integer-native prefix arithmetic ---------------------------------------


class TestPrefixFastLane:
    @given(v4_ints, v4_bits)
    def test_truncate_int_v4(self, value, bits):
        addr = ipaddress.IPv4Address(value)
        assert truncate_int(4, value, bits) == int(truncate_address(addr, bits))

    @given(v6_ints, v6_bits)
    def test_truncate_int_v6(self, value, bits):
        addr = ipaddress.IPv6Address(value)
        assert truncate_int(6, value, bits) == int(truncate_address(addr, bits))

    @given(v4_ints, v4_bits)
    def test_prefix_key_int_v4(self, value, bits):
        text = str(ipaddress.IPv4Address(value))
        assert prefix_key_int(*parse_addr(text), bits) == prefix_key(text, bits)

    @given(v6_ints, v6_bits)
    def test_prefix_key_int_v6(self, value, bits):
        text = str(ipaddress.IPv6Address(value))
        assert prefix_key_int(*parse_addr(text), bits) == prefix_key(text, bits)

    @pytest.mark.parametrize("address,bits", [
        ("0.0.0.0", 0), ("255.255.255.255", 0),
        ("0.0.0.0", 32), ("255.255.255.255", 32),
        ("::", 0), ("::", 128),
        ("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", 128),
        ("2610:1:2::9", 48), ("192.0.2.77", 24),
    ])
    def test_edge_bits(self, address, bits):
        assert prefix_key_int(*parse_addr(address), bits) == \
            prefix_key(address, bits)

    @given(v4_ints)
    def test_parse_addr_roundtrip(self, value):
        text = str(ipaddress.IPv4Address(value))
        assert parse_addr(text) == (4, value)
        assert parse_addr(ipaddress.IPv4Address(value)) == (4, value)

    def test_mask_tables(self):
        assert len(MASKS4) == 33 and len(MASKS6) == 129
        assert MASKS4[0] == 0 and MASKS4[32] == 2**32 - 1
        assert MASKS6[0] == 0 and MASKS6[128] == 2**128 - 1
        assert MASKS4[24] == 0xFFFFFF00

    def test_out_of_range_bits_raise(self):
        with pytest.raises(ValueError):
            truncate_int(4, 0, 33)
        with pytest.raises(ValueError):
            truncate_int(6, 0, 129)
        with pytest.raises(ValueError):
            truncate_int(5, 0, 8)   # unknown family
        with pytest.raises(ValueError):
            prefix_key_int(4, 0, -1)


# -- scope-tracker keying ----------------------------------------------------


class TestTrackerKeying:
    @given(st.one_of(v4_ints.map(ipaddress.IPv4Address),
                     v6_ints.map(ipaddress.IPv6Address)), st.data())
    def test_fast_and_reference_keys_agree(self, address, data):
        """The tracker's integer keying == the readable address-object
        reference (``prefix_key``), for either family."""
        client = str(address)
        scope = data.draw(st.integers(1, address.max_prefixlen))
        assert ScopeTracker()._key("q.example.", 1, client, scope) == \
            ("q.example.", 1) + prefix_key(client, scope)

    def test_global_keys_unchanged(self):
        tracker = ScopeTracker()
        assert tracker._key("q.", 1, None, 24) == ("q.", 1)
        assert tracker._key("q.", 1, "192.0.2.1", 0) == ("q.", 1)


# -- addresses: parsed once, never re-stringified ----------------------------


def outcome(fn, *args, **kwargs):
    """What a call gives, in comparable form: its value, or the type and
    message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:    # noqa: BLE001 - the oracle decides which
        return type(exc), str(exc)


def reference_from_client_address(address, source_prefix_length=None,
                                  scope_prefix_length=0):
    """``EcsOption.from_client_address`` before it went through integers:
    every input through ``ipaddress.ip_address``, text included (the
    option now holds the masked address as an integer)."""
    addr = ipaddress.ip_address(address)
    if addr.version == 4:
        family = 1
        source = 24 if source_prefix_length is None else source_prefix_length
        maxbits = 32
    else:
        family = 2
        source = 56 if source_prefix_length is None else source_prefix_length
        maxbits = 128
    if not 0 <= source <= maxbits:
        raise BadEcsError(
            f"source prefix length {source} out of range for family")
    return EcsOption(family, source, scope_prefix_length,
                     int(truncate_address(addr, source)))


def reference_build_query_ecs(policy, decision, client_ip, resolver_ip,
                              incoming_ecs=None, source_limit=None):
    """``build_query_ecs`` as it was: ``ip_address(client_ip)``, then a
    second parse of the object inside ``from_client_address``."""
    make = reference_from_client_address
    if not decision.send_ecs:
        return None
    if decision.use_loopback:
        return make("127.0.0.1", 32)
    if decision.use_own_address:
        return make(resolver_ip, None)
    if policy.fixed_prefix is not None:
        return make(policy.fixed_prefix, policy.fixed_prefix_len)
    if policy.accept_client_ecs and incoming_ecs is not None:
        source = incoming_ecs.source_prefix_length
        limit = (policy.max_accepted_prefix_v4
                 if incoming_ecs.family == 1 else None)
        if limit is None and incoming_ecs.family == 1:
            limit = policy.source_prefix_v4
        if limit is not None:
            source = min(source, limit)
        return make(incoming_ecs.address, source)
    addr = ipaddress.ip_address(client_ip)
    if addr.version == 4:
        if policy.jam_last_byte is not None:
            jammed = (int(truncate_address(addr, 24))
                      | (policy.jam_last_byte & 0xFF))
            return EcsOption(1, 32, 0, jammed)
        source = policy.source_prefix_v4
        if source_limit is not None:
            source = min(source, source_limit)
        return make(addr, source)
    return make(addr, policy.source_prefix_v6)


def reference_probe_label(probe_ip):
    addr = ipaddress.IPv4Address(probe_ip)
    return "ip-" + "-".join(str(b) for b in addr.packed)


def reference_egress_for(frontend, src_ip):
    bits = 16 if ":" not in src_ip else 32
    token = prefix_text(src_ip, bits)
    digest = hashlib.sha256(token.encode("ascii")).digest()
    return frontend.egress_ips[int.from_bytes(digest[:4], "big")
                               % len(frontend.egress_ips)]


JUNK_ADDRESSES = ["", "junk", "1.2.3", "1.2.3.4.5", "256.1.1.1", "01.2.3.4",
                  " 1.2.3.4", "1.2.3.4/24", "::g", ":::", "1::2::3",
                  "12345::", "fe80::1%eth0"]


class TestAddressFastLane:
    @staticmethod
    def same_option(address, *lengths):
        got = outcome(EcsOption.from_client_address, address, *lengths)
        want = outcome(reference_from_client_address, address, *lengths)
        assert got == want
        if isinstance(want, EcsOption):
            assert type(got.address) is type(want.address)
            assert got.to_wire() == want.to_wire()

    @given(v4_ints, st.one_of(st.none(), st.integers(-2, 35)), v4_bits)
    @settings(max_examples=150)
    def test_from_client_address_v4_inputs(self, value, source, scope):
        addr = ipaddress.IPv4Address(value)
        for address in (str(addr), addr, value, addr.packed):
            self.same_option(address, source, scope)

    @given(v6_ints, st.one_of(st.none(), st.integers(-2, 131)), v6_bits)
    @settings(max_examples=150)
    def test_from_client_address_v6_inputs(self, value, source, scope):
        addr = ipaddress.IPv6Address(value)
        for address in (str(addr), addr.exploded, addr, addr.packed,
                        value if value >= 2**32 else addr):
            self.same_option(address, source, scope)

    def test_from_client_address_every_prefix_length(self):
        for text, width in (("203.0.113.255", 32),
                            ("2001:db8:ffff:ffff:ffff:ffff:ffff:ffff", 128)):
            for source in range(-1, width + 2):
                self.same_option(text, source)
                self.same_option(ipaddress.ip_address(text), source)

    @pytest.mark.parametrize("address", JUNK_ADDRESSES + [
        b"", b"\x01\x02\x03", b"\x00" * 5, -1, 2**128, None, 1.5])
    def test_from_client_address_junk(self, address):
        clear_codec_caches()
        for _ in range(2):                  # cold tables, then warm
            self.same_option(address)
            self.same_option(address, 8)

    def test_probe_names_on_drawn_addresses(self):
        domain = Name.from_text("scan.example.org")
        rng = random.Random(20)
        for _ in range(1000):
            text = str(ipaddress.IPv4Address(rng.getrandbits(32)))
            label = reference_probe_label(text)
            assert encode_probe_name(text, domain) == domain.child(label)
            assert encode_probe_name(text, domain).labels[0] \
                == label.encode("ascii")
            assert decode_probe_name(encode_probe_name(text, domain, "n7"),
                                     domain) == text

    @pytest.mark.parametrize("address", JUNK_ADDRESSES + [
        "2001:db8::1", "::ffff:192.0.2.1"])
    def test_probe_names_reject_as_before(self, address):
        domain = Name.from_text("scan.example.org")
        want = outcome(reference_probe_label, address)
        assert isinstance(want, tuple)
        assert outcome(encode_probe_name, address, domain) == want

    def test_sticky_egress_on_drawn_addresses(self):
        frontend = AnycastFrontEnd("192.0.2.53", [f"198.51.100.{i}"
                                                  for i in range(1, 8)])
        rng = random.Random(21)
        texts = [str(ipaddress.IPv4Address(rng.getrandbits(32)))
                 for _ in range(1000)]
        texts += [str(ipaddress.IPv6Address(rng.getrandbits(128)))
                  for _ in range(200)]
        for text in texts + JUNK_ADDRESSES:
            assert outcome(frontend._egress_for, text) \
                == outcome(reference_egress_for, frontend, text)

    def test_build_query_ecs_over_the_decision_product(self):
        decisions = [EcsDecision(False), EcsDecision(True),
                     EcsDecision(True, use_loopback=True),
                     EcsDecision(True, use_own_address=True)]
        incoming = [None,
                    EcsOption.from_client_address("198.51.100.77", 32),
                    EcsOption.from_client_address("198.51.100.0", 20),
                    EcsOption.from_client_address("2001:db8:1:2::", 64)]
        clients = ["10.1.2.200", "2610:1:2:3::9",
                   ipaddress.ip_address("10.1.2.200"), "junk"]
        cases = 0
        for fixed, accept, jam, cap, v4_len in itertools.product(
                (None, "10.0.0.0"), (False, True), (None, 0, 1),
                (None, 22), (24, 32)):
            policy = EcsPolicy(fixed_prefix=fixed, accept_client_ecs=accept,
                               jam_last_byte=jam, source_prefix_v4=v4_len,
                               max_accepted_prefix_v4=cap)
            for decision, ecs, client, limit in itertools.product(
                    decisions, incoming, clients, (None, 16, 24)):
                args = (policy, decision, client, "192.0.2.53", ecs, limit)
                got = outcome(build_query_ecs, *args)
                assert got == outcome(reference_build_query_ecs, *args)
                if isinstance(got, EcsOption):
                    assert got.to_wire() == \
                        reference_build_query_ecs(*args).to_wire()
                cases += 1
        assert cases == 48 * 192


# -- codec caches ------------------------------------------------------------


class TestCodecCaches:
    @given(names, st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=60)
    def test_qname_cache_identical_bytes(self, name, msg_id):
        msg = Message(msg_id=msg_id)
        msg.question = Question(name, RecordType.A)
        clear_codec_caches()
        cold = encode_message(msg)
        warm = encode_message(msg)       # second encode hits the cache
        assert warm == cold
        assert decode_message(warm).question.qname == name

    @given(v4_ints, st.integers(min_value=0, max_value=24))
    @settings(max_examples=60)
    def test_options_payload_roundtrip(self, value, source):
        ecs = EcsOption.from_client_address(
            str(ipaddress.IPv4Address(value)), source)
        payload = encode_options([ecs])
        assert payload[:4] == bytes([0, 8, 0, len(payload) - 4])
        assert EcsOption.from_wire(payload[4:]) == ecs

    @given(names)
    @settings(max_examples=60)
    def test_from_text_interning(self, name):
        text = name.to_text()
        again = Name.from_text(text)
        assert again == name
        assert Name.from_text(text) is Name.from_text(text)

    def test_folded_matches_lowercase(self):
        name = Name.from_text("WwW.ExAmple.COM")
        assert name.folded == tuple(lab.lower() for lab in name.labels)

    def test_ecs_option_in_message_roundtrip(self):
        msg = Message(msg_id=7)
        msg.question = Question(Name.from_text("a.example.com"), RecordType.A)
        msg.edns = EdnsInfo(options=[
            EcsOption.from_client_address("192.0.2.77", 24)])
        clear_codec_caches()
        wire_cold = encode_message(msg)
        wire_warm = encode_message(msg)
        assert wire_cold == wire_warm
        decoded = decode_message(wire_warm)
        assert decoded.edns.find_ecs() == msg.edns.find_ecs()


# -- decoder tables ----------------------------------------------------------


@pytest.mark.oracle
class TestDecoderTables:
    """Decoding through warm intern/memo tables is decoding through cold
    ones: the tables may only ever save work."""

    @given(messages)
    @settings(max_examples=80, deadline=None)
    def test_cold_and_warm_decodes_agree(self, msg):
        wire = encode_message(msg)
        clear_codec_caches()
        cold = decode_outcome(wire)
        warm = decode_outcome(wire)
        assert warm == cold
        assert cold[2] == wire

    @given(messages, st.data())
    @settings(max_examples=150, deadline=None)
    def test_cold_and_warm_agree_on_damaged_wire(self, msg, data):
        damaged = bytearray(encode_message(msg))
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(damaged) - 1))
            damaged[at] = data.draw(st.integers(0, 255))
        damaged = bytes(damaged[:data.draw(st.integers(0, len(damaged)))])
        # Warm the tables with the intact message first, so that a hit on
        # an entry the damage has since invalidated would show.
        decode_message(encode_message(msg))
        warm = decode_outcome(damaged)
        clear_codec_caches()
        cold = decode_outcome(damaged)
        assert warm == cold

    def test_interned_name_keeps_its_own_spelling(self):
        clear_codec_caches()
        for text in ("www.example.com", "WwW.eXample.COM", "www.example.com"):
            query = Message.make_query(Name.from_text(text), RecordType.A)
            response = query.make_response()
            response.answers.append(ResourceRecord(
                Name.from_text(text), RecordType.A, 60, A("192.0.2.1")))
            out = decode_message(encode_message(response))
            assert out.question.qname.to_text() == text + "."
            assert out.answers[0].name.to_text() == text + "."

    def test_repeated_names_are_shared_instances(self):
        wire = encode_message(Message.make_query(
            Name.from_text("shared.example."), RecordType.A))
        assert decode_message(wire).question.qname \
            is decode_message(wire).question.qname

    def test_tables_stay_within_their_bound(self, monkeypatch):
        bound = 8
        monkeypatch.setattr(wire_module, "_NAME_TABLE_MAX", bound)
        monkeypatch.setattr(wire_module, "_QUESTION_TABLE_MAX", bound)
        monkeypatch.setattr(wire_module, "_OPT_TABLE_MAX", bound)
        monkeypatch.setattr(wire_module, "_ADDRESS_RR_TABLE_MAX", bound)
        monkeypatch.setattr(wire_module, "_MESSAGE_TABLE_MAX", bound)
        clear_codec_caches()
        tables = (wire_module._NAME_TABLE, wire_module._QUESTION_TABLE,
                  wire_module._OPT_TABLE, wire_module._ADDRESS_RR_TABLE,
                  wire_module._MESSAGE_TABLE)
        for i in range(5 * bound):
            name = Name.from_text(f"host{i}.example.")
            query = Message.make_query(
                name, RecordType.A,
                ecs=EcsOption.from_client_address(f"10.{i}.0.0", 24))
            assert query.ecs().is_routable() is False
            response = query.make_response()
            response.set_ecs(query.ecs().response_to(24))
            response.answers += [
                ResourceRecord(name, RecordType.A, 60, A(f"192.0.2.{i}")),
                ResourceRecord(name, RecordType.AAAA, 60,
                               AAAA(f"2001:db8::{i:x}"))]
            wire = encode_message(response)
            assert encode_message(decode_message(wire)) == wire
            assert all(len(table) <= bound for table in tables)
        assert all(tables)              # every table was actually in use
        clear_codec_caches()
        assert not any(tables)

    def test_clear_codec_caches_leaves_every_table_empty(self):
        """Every table, found by how tables are named, and every memoised
        function of the address module, so that one added later and not
        cleared shows here."""
        tables = [table for name, table in vars(wire_module).items()
                  if isinstance(table, dict)
                  and name.endswith(("_TABLE", "_CACHE"))]
        tables += [Sized(memo) for memo in vars(addr_module).values()
                   if hasattr(memo, "cache_clear")]
        assert len(tables) == 9
        name = Name.from_text("q.example")
        query = Message.make_query(
            name, RecordType.A,
            ecs=EcsOption.from_client_address("192.0.2.0", 24))
        query.ecs().is_routable()
        response = query.make_response()
        response.answers += [
            ResourceRecord(name, RecordType.A, 1, A("192.0.2.1")),
            ResourceRecord(name, RecordType.AAAA, 1, AAAA("2001:db8::1"))]
        decode_message(encode_message(response))
        assert all(tables)
        clear_codec_caches()
        assert not any(tables)
        assert addr_module.parse_text.cache_info().currsize == 0


class Sized:
    """An ``lru_cache`` function seen as a table: its length is how many
    entries it holds."""

    def __init__(self, memo):
        self.memo = memo

    def __len__(self):
        return self.memo.cache_info().currsize


# -- batched replay ----------------------------------------------------------


class TestBatchedReplay:
    def test_batched_equals_reference_allnames(self):
        records = AllNamesBuilder(scale=0.05, seed=3).build().records
        ref = replay_partial(records,
                             client_of=lambda r: r.client_ip,
                             scope_of=lambda r: r.scope,
                             ttl_of=lambda r: r.ttl)
        assert replay_partial_batched(records, "client_ip") == ref

    def test_batched_equals_reference_public_cdn(self):
        records = PublicCdnBuilder(scale=0.005, seed=3,
                                   duration_s=600.0).build().records
        ref = replay_partial(records,
                             client_of=lambda r: r.ecs_address,
                             scope_of=lambda r: r.scope,
                             ttl_of=lambda r: r.ttl)
        assert replay_partial_batched(records, "ecs_address") == ref

    def test_ttl_override_constant(self):
        records = PublicCdnBuilder(scale=0.005, seed=3,
                                   duration_s=600.0).build().records
        ref = replay_partial(records,
                             client_of=lambda r: r.ecs_address,
                             scope_of=lambda r: r.scope,
                             ttl_of=lambda r: 40)
        assert replay_partial_batched(records, "ecs_address",
                                      ttl_override=40) == ref


# -- regression: TTL-0 override ---------------------------------------------


class TestTtlZeroOverride:
    @pytest.fixture(scope="class")
    def store(self):
        return ColumnarStore.from_records(
            PublicCdnBuilder(scale=0.005, seed=3,
                             duration_s=600.0).build().records, "public-cdn")

    def test_ttl_zero_is_honored(self, store):
        """A TTL of 0 in ``fig1_series`` must apply the override, not fall
        back to the trace TTL (the old ``if ttl`` truthiness bug)."""
        series = fig1_series(store, ttls=(0, None))
        zero, trace = series[0], series[None]
        # With TTL 0 nothing survives to be reused, so every resolver's
        # with/without-ECS peaks match pairwise: blow-up exactly 1.0.
        assert zero and all(b == 1.0 for b in zero)
        # The trace TTL (20 s) produces real blow-up for busy resolvers.
        assert max(trace) > 1.0

    def test_ttl_override_still_works(self, store):
        series = fig1_series(store, ttls=(40, 0))
        assert series[40] != series[0]


# -- slots -------------------------------------------------------------------


class TestSlots:
    def test_record_dataclasses_have_no_dict(self):
        from repro.datasets import (AllNamesRecord, CdnQueryRecord,
                                    PublicCdnRecord, RootQueryRecord,
                                    ScanQueryRecord)
        record = AllNamesRecord(0.0, "192.0.2.1", "a.example.", 1, 24, 60)
        assert not hasattr(record, "__dict__")
        for klass in (AllNamesRecord, CdnQueryRecord, PublicCdnRecord,
                      RootQueryRecord, ScanQueryRecord):
            assert "__slots__" in klass.__dict__

    def test_cache_entry_has_no_dict(self):
        from repro.core.cache import _Entry
        entry = _Entry(None, None, None, Message(), 0.0, 1.0)
        assert not hasattr(entry, "__dict__")

    @staticmethod
    def live_records():
        """One of every record a datagram builds, filled in."""
        from repro.auth.cdn import EdgePool, MappingDecision
        from repro.auth.scan_experiment import ScanQueryRecord
        from repro.auth.server import AuthLogRecord
        from repro.dnslib import (CNAME, MX, NS, PTR, SOA, TXT, CookieOption,
                                  GenericOption, GenericRdata)
        from repro.faults.retry import RetryOutcome
        from repro.measure.digclient import DigResult
        from repro.net.geo import city
        from repro.net.transport import QueryOutcome
        name = Name.from_text("www.example.")
        ecs = EcsOption.from_client_address("2001:db8::1", 48, 40)
        rdatas = [A("192.0.2.1"), AAAA("2001:db8::5"), NS(name), CNAME(name),
                  PTR(name), MX(10, name), TXT((b"v=1", b"")),
                  SOA(name, name, 1, 2, 3, 4, 5), GenericRdata(99, b"\x01")]
        response = Message.make_query(name, RecordType.A, 7,
                                      ecs=ecs).make_response()
        response.answers = [ResourceRecord(name, r.rdtype, 60, r)
                            for r in rdatas]
        response.set_ecs(ecs.response_to(40))
        response.edns.options += [CookieOption(bytes(8)),
                                  GenericOption(65001, b"opaque")]
        return rdatas + response.edns.options + response.answers + [
            response, response.edns, response.question,
            QueryOutcome(response, 12.5),
            RetryOutcome(response, 12.5, 1, 0, "192.0.2.53", ecs),
            DigResult(response, 12.5),
            AuthLogRecord(1.0, "192.0.2.53", "www.example.", 1, True,
                          ecs.address_text, 48, 40),
            ScanQueryRecord(1.0, "192.0.2.9", "192.0.2.53", "www.example.",
                            True, ecs.address_text, 48),
            MappingDecision(ecs.address_text, "ecs",
                            EdgePool(city("Zurich"), ("16.9.0.1",)), 40),
            EcsDecision(True, use_own_address=True)]

    def test_live_records_are_slotted_and_pickle(self):
        """Slotted records still cross the worker pool (chaos partials)."""
        records = self.live_records()
        assert len({type(r) for r in records}) == 23
        for record in records:
            assert not hasattr(record, "__dict__"), type(record)
            assert pickle.loads(pickle.dumps(record)) == record

    def test_frozen_records_stay_frozen(self):
        name = Name.from_text("www.example.")
        for record, attr in (
                (Question(name, RecordType.A), "qname"),
                (ResourceRecord(name, RecordType.A, 60, A("192.0.2.1")),
                 "ttl"),
                (EcsOption.from_client_address("192.0.2.1"), "address"),
                (A("192.0.2.1"), "address")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, attr, getattr(record, attr))
