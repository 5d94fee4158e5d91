"""Property-based tests (hypothesis) on the core data structures and
protocol invariants."""

import ipaddress

from hypothesis import given, settings, strategies as st

from repro.addr import same_prefix
from repro.core.cache import ScopeTracker, effective_scope
from repro.dnslib import (A, EcsOption, Message, Name, RecordType,
                          ResourceRecord, decode_message, encode_message)

from addr_reference import prefix_key, truncate_address
from ecs_reference import covers

# -- strategies --------------------------------------------------------------

labels = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                 min_size=1, max_size=12).filter(
    lambda s: not s.startswith("-") and not s.endswith("-"))
names = st.lists(labels, min_size=1, max_size=5).map(
    lambda parts: Name.from_text(".".join(parts)))
v4_addresses = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda n: str(ipaddress.IPv4Address(n)))
v6_addresses = st.integers(min_value=0, max_value=2**128 - 1).map(
    lambda n: str(ipaddress.IPv6Address(n)))


class TestNameProperties:
    @given(names)
    def test_text_roundtrip(self, name):
        assert Name.from_text(name.to_text()) == name

    @given(names)
    def test_child_parent_inverse(self, name):
        assert name.child("xx").parent() == name

    @given(names, names)
    def test_concatenate_subdomain(self, a, b):
        assert a.concatenate(b).is_subdomain_of(b)

    @given(names)
    def test_ancestor_count(self, name):
        assert len(list(name.ancestors())) == len(name) + 1

    @given(names, names)
    def test_subdomain_antisymmetric_unless_equal(self, a, b):
        if a.is_subdomain_of(b) and b.is_subdomain_of(a):
            assert a == b


class TestEcsProperties:
    @given(v4_addresses, st.integers(min_value=0, max_value=32),
           st.integers(min_value=0, max_value=32))
    def test_v4_wire_roundtrip(self, address, source, scope):
        opt = EcsOption.from_client_address(address, source,
                                            scope_prefix_length=scope)
        assert EcsOption.from_wire(opt.to_wire()) == opt

    @given(v6_addresses, st.integers(min_value=0, max_value=128))
    def test_v6_wire_roundtrip(self, address, source):
        opt = EcsOption.from_client_address(address, source)
        assert EcsOption.from_wire(opt.to_wire()) == opt

    @given(v4_addresses, st.integers(min_value=0, max_value=32))
    def test_truncation_idempotent(self, address, bits):
        once = truncate_address(address, bits)
        assert truncate_address(once, bits) == once

    @given(v4_addresses, st.integers(min_value=0, max_value=32))
    def test_option_covers_original_address(self, address, bits):
        opt = EcsOption.from_client_address(address, bits)
        assert covers(opt, address, bits=bits)

    @given(v4_addresses, st.integers(min_value=1, max_value=32))
    def test_shorter_prefix_coarsens(self, address, bits):
        # Any two addresses equal at /bits are equal at every shorter prefix.
        other = truncate_address(address, bits)
        for shorter in (0, bits // 2, bits - 1):
            assert same_prefix(address, other, shorter)

    @given(v4_addresses, v4_addresses,
           st.integers(min_value=0, max_value=32))
    def test_prefix_key_iff_same_prefix(self, a, b, bits):
        assert (prefix_key(a, bits) == prefix_key(b, bits)) == \
            same_prefix(a, b, bits)

    @given(st.integers(min_value=0, max_value=32),
           st.integers(min_value=0, max_value=32))
    def test_effective_scope_never_exceeds_source(self, scope, source):
        assert effective_scope(scope, source) <= source

    @given(v4_addresses, st.integers(min_value=0, max_value=32),
           st.integers(min_value=0, max_value=32))
    def test_response_echo_matches_query(self, address, source, scope):
        query = EcsOption.from_client_address(address, source)
        assert query.response_to(scope).matches_query(query)


class TestMessageProperties:
    @given(names, st.sampled_from([RecordType.A, RecordType.AAAA,
                                   RecordType.NS, RecordType.TXT]),
           st.integers(min_value=0, max_value=0xFFFF),
           st.booleans())
    def test_query_wire_roundtrip(self, qname, qtype, msg_id, rd):
        msg = Message.make_query(qname, qtype, msg_id=msg_id,
                                 recursion_desired=rd)
        out = decode_message(encode_message(msg))
        assert out.question.qname == qname
        assert out.question.qtype == qtype
        assert out.msg_id == msg_id
        assert out.recursion_desired == rd

    @given(names, st.lists(v4_addresses, min_size=1, max_size=8),
           st.integers(min_value=0, max_value=86400))
    def test_answer_wire_roundtrip(self, qname, addresses, ttl):
        msg = Message.make_query(qname, RecordType.A)
        resp = msg.make_response()
        for address in addresses:
            resp.answers.append(ResourceRecord(qname, RecordType.A, ttl,
                                               A(address)))
        out = decode_message(encode_message(resp))
        assert out.answer_addresses() == addresses
        assert all(rr.ttl == ttl for rr in out.answers)

    @given(names, v4_addresses, st.integers(min_value=0, max_value=32))
    def test_ecs_attached_roundtrip(self, qname, address, source):
        ecs = EcsOption.from_client_address(address, source)
        msg = Message.make_query(qname, RecordType.A, ecs=ecs)
        assert decode_message(encode_message(msg)).ecs() == ecs

    @given(st.binary(min_size=0, max_size=64))
    def test_decoder_never_crashes_unhandled(self, junk):
        from repro.dnslib import DnsError
        try:
            decode_message(junk)
        except DnsError:
            pass  # protocol errors are the contract; anything else fails


class TestCacheInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(st.floats(min_value=0, max_value=1000,
                            allow_nan=False),
                  st.sampled_from(["a.", "b.", "c."]),
                  st.sampled_from(["10.0.0.1", "10.0.1.1", "10.1.0.1"]),
                  st.sampled_from([0, 16, 24]),
                  st.sampled_from([5, 20, 60])),
        min_size=1, max_size=80))
    def test_tracker_size_counts_and_hits(self, events):
        tracker = ScopeTracker(use_ecs=True)
        events = sorted(events, key=lambda e: e[0])
        for ts, qname, client, scope, ttl in events:
            tracker.access(ts, qname, 1, client, scope, ttl)
        assert tracker.hits + tracker.misses == len(events)
        assert 0 <= tracker.current_size <= tracker.max_size
        assert tracker.max_size <= tracker.misses

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(st.floats(min_value=0, max_value=500, allow_nan=False),
                  st.sampled_from(["a.", "b."]),
                  st.sampled_from(["10.0.%d.1" % i for i in range(6)])),
        min_size=1, max_size=60))
    def test_ecs_cache_never_beats_plain_cache(self, events):
        # Scope-keyed caching can only fragment entries: the ECS cache's
        # hit count never exceeds the plain cache's, and its peak size is
        # never smaller.
        ecs = ScopeTracker(use_ecs=True)
        plain = ScopeTracker(use_ecs=False)
        for ts, qname, client in sorted(events, key=lambda e: e[0]):
            ecs.access(ts, qname, 1, client, 24, 30)
            plain.access(ts, qname, 1, client, 24, 30)
        assert ecs.hits <= plain.hits
        assert ecs.max_size >= plain.max_size
