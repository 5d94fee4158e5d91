"""Tests for the ECS-aware cache: compliant behavior and every deviation."""

from hypothesis import given, settings, strategies as st

from repro.core import EcsCache, ScopeMode, effective_scope
from repro.core.cache import ScopeTracker
from repro.dnslib import (A, EcsOption, Message, Name, RecordType,
                          ResourceRecord, encode_message)
from repro.net import SimClock

QNAME = Name.from_text("www.example.com")


def response_with(scope, source=24, address="192.0.2.0", ttl=60,
                  answer="203.0.113.1"):
    """A response carrying one A record and an ECS option."""
    query_ecs = EcsOption.from_client_address(address, source)
    msg = Message(is_response=True)
    msg.answers.append(ResourceRecord(QNAME, RecordType.A, ttl, A(answer)))
    msg.set_ecs(query_ecs.response_to(scope))
    return msg, query_ecs


class TestEffectiveScope:
    def test_scope_below_source_kept(self):
        assert effective_scope(16, 24) == 16

    def test_scope_above_source_clamped(self):
        # RFC 7871 section 7.3.1; the paper verifies 9 resolvers doing this.
        assert effective_scope(32, 24) == 24

    def test_clamp_disabled(self):
        assert effective_scope(32, 24, enforce_scope_le_source=False) == 32


class TestCompliantCache:
    def setup_method(self):
        self.clock = SimClock()
        self.cache = EcsCache(self.clock)

    def test_miss_on_empty(self):
        assert self.cache.lookup(QNAME, RecordType.A, "192.0.2.1") is None
        assert self.cache.stats.misses == 1

    def test_hit_same_scope_prefix(self):
        msg, ecs = response_with(scope=24)
        self.cache.store(QNAME, RecordType.A, msg, ecs)
        assert self.cache.lookup(QNAME, RecordType.A, "192.0.2.200") is not None

    def test_miss_across_scope_boundary(self):
        msg, ecs = response_with(scope=24)
        self.cache.store(QNAME, RecordType.A, msg, ecs)
        assert self.cache.lookup(QNAME, RecordType.A, "192.0.3.1") is None

    def test_scope16_covers_sibling_24s(self):
        msg, ecs = response_with(scope=16)
        self.cache.store(QNAME, RecordType.A, msg, ecs)
        assert self.cache.lookup(QNAME, RecordType.A, "192.0.99.1") is not None

    def test_scope0_covers_everyone(self):
        msg, ecs = response_with(scope=0)
        self.cache.store(QNAME, RecordType.A, msg, ecs)
        assert self.cache.lookup(QNAME, RecordType.A, "8.8.8.8") is not None

    def test_scope_gt_source_treated_as_source(self):
        msg, ecs = response_with(scope=32, source=24)
        self.cache.store(QNAME, RecordType.A, msg, ecs)
        # Cached at /24, so a same-/24 client hits.
        assert self.cache.lookup(QNAME, RecordType.A, "192.0.2.77") is not None

    def test_expiry(self):
        msg, ecs = response_with(scope=24, ttl=30)
        self.cache.store(QNAME, RecordType.A, msg, ecs)
        self.clock.advance(31)
        assert self.cache.lookup(QNAME, RecordType.A, "192.0.2.1") is None

    def test_live_before_expiry(self):
        msg, ecs = response_with(scope=24, ttl=30)
        self.cache.store(QNAME, RecordType.A, msg, ecs)
        self.clock.advance(29)
        assert self.cache.lookup(QNAME, RecordType.A, "192.0.2.1") is not None

    def test_ttl_ages_on_hit(self):
        msg, ecs = response_with(scope=24, ttl=60)
        self.cache.store(QNAME, RecordType.A, msg, ecs)
        self.clock.advance(20)
        hit = self.cache.lookup(QNAME, RecordType.A, "192.0.2.1")
        assert hit.answers[0].ttl == 40

    def test_multiple_subnet_entries_coexist(self):
        # The blow-up mechanism of section 7: one question, many entries.
        for third_octet in range(5):
            msg, ecs = response_with(scope=24,
                                     address=f"192.0.{third_octet}.0")
            self.cache.store(QNAME, RecordType.A, msg, ecs)
        assert self.cache.size() == 5

    def test_same_subnet_replaces(self):
        msg1, ecs1 = response_with(scope=24)
        msg2, ecs2 = response_with(scope=24, answer="203.0.113.9")
        self.cache.store(QNAME, RecordType.A, msg1, ecs1)
        self.cache.store(QNAME, RecordType.A, msg2, ecs2)
        assert self.cache.size() == 1
        hit = self.cache.lookup(QNAME, RecordType.A, "192.0.2.5")
        assert hit.answers[0].rdata.address == "203.0.113.9"

    def test_non_ecs_entry_global(self):
        msg = Message(is_response=True)
        msg.answers.append(ResourceRecord(QNAME, RecordType.A, 60,
                                          A("203.0.113.5")))
        self.cache.store(QNAME, RecordType.A, msg, None)
        assert self.cache.lookup(QNAME, RecordType.A, "8.8.8.8") is not None
        assert self.cache.lookup(QNAME, RecordType.A, None) is not None

    def test_family_mismatch_no_hit(self):
        msg, ecs = response_with(scope=24)
        self.cache.store(QNAME, RecordType.A, msg, ecs)
        assert self.cache.lookup(QNAME, RecordType.A, "2001:db8::1") is None

    def test_stats_max_size(self):
        for i in range(3):
            msg, ecs = response_with(scope=24, address=f"10.0.{i}.0")
            self.cache.store(QNAME, RecordType.A, msg, ecs)
        assert self.cache.stats.max_size == 3

    def test_two_hits_are_independent_and_aged_separately(self):
        msg, ecs = response_with(scope=24, ttl=60)
        stored = encode_message(msg)
        self.cache.store(QNAME, RecordType.A, msg, ecs)
        msg.answers.clear()             # the caller's message is its own
        self.clock.advance(10)
        first = self.cache.lookup(QNAME, RecordType.A, "192.0.2.1")
        self.clock.advance(15)
        second = self.cache.lookup(QNAME, RecordType.A, "192.0.2.2")
        assert [rr.ttl for rr in first.answers] == [50]
        assert [rr.ttl for rr in second.answers] == [35]
        # What a caller does to one served message reaches neither the
        # other nor the stored entry.
        first.answers.clear()
        first.set_ecs(None)
        first.msg_id = 99
        assert [rr.ttl for rr in second.answers] == [35]
        assert second.ecs() is not None
        self.clock.advance(5)
        third = self.cache.lookup(QNAME, RecordType.A, "192.0.2.3")
        assert [rr.ttl for rr in third.answers] == [30]
        third.answers[0] = third.answers[0].with_ttl(60)
        assert encode_message(third) == stored

    def test_flush(self):
        msg, ecs = response_with(scope=24)
        self.cache.store(QNAME, RecordType.A, msg, ecs)
        self.cache.flush()
        assert self.cache.size() == 0

    def test_hit_rate(self):
        msg, ecs = response_with(scope=0)
        self.cache.store(QNAME, RecordType.A, msg, ecs)
        self.cache.lookup(QNAME, RecordType.A, "1.1.1.1")
        self.cache.lookup(Name.from_text("other."), RecordType.A, "1.1.1.1")
        assert self.cache.stats.hit_rate() == 0.5


def scanned_size(cache):
    """``EcsCache.size`` as it was before the expiry heap: every entry of
    every key, each time.  Kept here as the oracle."""
    now = cache.clock.now()
    return sum(1 for entries in cache._entries.values()
               for e in entries if e.expires_at > now)


#: (kind, name, third octet, scope, ttl, seconds); each kind reads the
#: fields it needs.  Stores are weighted up so that runs of inserts long
#: enough to reach the capacity bound are common, and a flush is rare.
cache_steps = st.lists(st.tuples(
    st.sampled_from(["store"] * 6 + ["lookup"] * 2 + ["advance"] * 2
                    + ["flush"]),
    st.integers(0, 3), st.integers(0, 5), st.sampled_from([0, 16, 24]),
    st.sampled_from([0, 1, 5, 30]), st.sampled_from([0.5, 1, 4, 29, 31]),
), min_size=8, max_size=60)


class TestHighWatermark:
    @given(cache_steps, st.sampled_from([None, 3]), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_max_size_matches_the_full_scan(self, steps, max_entries,
                                            cache_zero_scope):
        clock = SimClock()
        cache = EcsCache(clock, max_entries=max_entries,
                         cache_zero_scope=cache_zero_scope)
        watermark = 0
        for kind, name, third_octet, scope, ttl, seconds in steps:
            qname = Name.from_text(f"n{name}.")
            if kind == "store":
                msg, ecs = response_with(scope, ttl=ttl,
                                         address=f"10.0.{third_octet}.0")
                cache.store(qname, RecordType.A, msg, ecs)
                watermark = max(watermark, scanned_size(cache))
            elif kind == "lookup":
                cache.lookup(qname, RecordType.A, f"10.0.{third_octet}.9")
            elif kind == "advance":
                clock.advance(seconds)
            else:
                cache.flush()
            assert cache.size() == scanned_size(cache)
            assert cache.stats.max_size == watermark

    def test_every_way_out_of_the_count(self):
        """Replacement, TTL 0, a refused scope 0, eviction, expiry and
        flush, one after another, each checked against the scan."""
        clock = SimClock()
        cache = EcsCache(clock, max_entries=3, cache_zero_scope=False)

        def store(name, third_octet, scope=24, ttl=30):
            msg, ecs = response_with(scope, ttl=ttl,
                                     address=f"10.0.{third_octet}.0")
            return cache.store(Name.from_text(name), RecordType.A, msg, ecs)

        steps = [
            (lambda: store("a.", 1), 1),
            (lambda: store("a.", 1, ttl=60), 1),        # replaced
            (lambda: store("b.", 1, ttl=0), 1),         # dead on arrival
            (lambda: store("c.", 1, scope=0), 1),       # refused
            (lambda: clock.advance(1), 1),
            (lambda: store("c.", 2), 2),
            (lambda: store("d.", 3), 3),
            (lambda: clock.advance(1), 3),
            (lambda: cache.lookup(Name.from_text("a."), RecordType.A,
                                  "10.0.1.9"), 3),
            (lambda: store("e.", 4, ttl=5), 3),         # evicts c.
            (lambda: clock.advance(10), 2),             # e. expires
            (lambda: clock.advance(25), 1),             # then d.
            (cache.flush, 0),
            (lambda: store("f.", 5), 1),
        ]
        for step, live in steps:
            step()
            assert cache.size() == scanned_size(cache) == live
        assert cache.stats.evictions == 1
        assert cache.stats.max_size == 3

    def test_replaced_entries_do_not_pile_up(self):
        """A key replaced 200 times leaves one counted entry; the heap is
        rebuilt without the other 199, and the survivor still expires."""
        clock = SimClock()
        cache = EcsCache(clock)
        for ttl in range(200, 400):
            msg, ecs = response_with(24, ttl=ttl)
            cache.store(QNAME, RecordType.A, msg, ecs)
            assert cache.size() == 1
        assert len(cache._expiries) < 70
        clock.advance(398)
        assert cache.size() == scanned_size(cache) == 1
        clock.advance(1)
        assert cache.size() == scanned_size(cache) == 0


class TestDeviantCaches:
    def test_scope_ignoring_reuses_across_clients(self):
        # The 103-resolver behavior of section 6.3.
        cache = EcsCache(SimClock(), scope_mode=ScopeMode.IGNORE)
        msg, ecs = response_with(scope=24)
        cache.store(QNAME, RecordType.A, msg, ecs)
        assert cache.lookup(QNAME, RecordType.A, "8.8.8.8") is not None

    def test_clamp_22(self):
        # The 8-resolver behavior: scopes capped at /22.
        clock = SimClock()
        cache = EcsCache(clock, scope_mode=ScopeMode.CLAMP, clamp_bits=22)
        msg, ecs = response_with(scope=24, address="10.0.0.0")
        cache.store(QNAME, RecordType.A, msg, ecs)
        # 10.0.1.x is a different /24 but the same /22: the clamped cache
        # wrongly reuses the entry.
        assert cache.lookup(QNAME, RecordType.A, "10.0.1.1") is not None
        # 10.0.4.x leaves the /22.
        assert cache.lookup(QNAME, RecordType.A, "10.0.4.1") is None

    def test_over_24_scopes_kept_when_unenforced(self):
        cache = EcsCache(SimClock(), enforce_scope_le_source=False)
        msg, ecs = response_with(scope=32, source=32, address="10.0.0.7")
        cache.store(QNAME, RecordType.A, msg, ecs)
        assert cache.lookup(QNAME, RecordType.A, "10.0.0.7") is not None
        assert cache.lookup(QNAME, RecordType.A, "10.0.0.8") is None

    def test_zero_scope_not_cached(self):
        # The misconfigured resolver of section 8.1 cannot reuse scope-0.
        cache = EcsCache(SimClock(), cache_zero_scope=False)
        msg, ecs = response_with(scope=0)
        assert cache.store(QNAME, RecordType.A, msg, ecs) is False
        assert cache.size() == 0


class TestScopeTracker:
    def test_plain_mode_single_entry(self):
        t = ScopeTracker(use_ecs=False)
        assert not t.access(0, "a.", 1, "10.0.0.1", 24, 20)
        assert t.access(1, "a.", 1, "10.9.9.9", 24, 20)
        assert t.max_size == 1

    def test_ecs_mode_per_subnet_entries(self):
        t = ScopeTracker(use_ecs=True)
        t.access(0, "a.", 1, "10.0.0.1", 24, 20)
        t.access(1, "a.", 1, "10.0.1.1", 24, 20)
        assert t.max_size == 2
        assert t.hits == 0

    def test_ecs_mode_same_subnet_hit(self):
        t = ScopeTracker(use_ecs=True)
        t.access(0, "a.", 1, "10.0.0.1", 24, 20)
        assert t.access(1, "a.", 1, "10.0.0.250", 24, 20)

    def test_scope_zero_shared(self):
        t = ScopeTracker(use_ecs=True)
        t.access(0, "a.", 1, "10.0.0.1", 0, 20)
        assert t.access(1, "a.", 1, "99.99.99.99", 0, 20)

    def test_expiry_shrinks_size(self):
        t = ScopeTracker()
        t.access(0, "a.", 1, "10.0.0.1", 24, 20)
        t.access(50, "b.", 1, "10.0.0.1", 24, 20)
        assert t.current_size == 1

    def test_expired_then_refetch_counts_miss(self):
        t = ScopeTracker()
        t.access(0, "a.", 1, "10.0.0.1", 24, 20)
        assert not t.access(30, "a.", 1, "10.0.0.1", 24, 20)
        assert t.misses == 2

    def test_reinsertion_extends_expiry(self):
        t = ScopeTracker()
        t.access(0, "a.", 1, "10.0.0.1", 24, 20)    # expires 20
        t.access(19, "b.", 1, "10.0.0.1", 24, 20)
        t.access(19.5, "a.", 1, "10.0.0.1", 24, 20)  # hit; entry still to 20
        assert not t.access(25, "a.", 1, "10.0.0.1", 24, 20)  # expired again

    def test_hit_rate(self):
        t = ScopeTracker()
        t.access(0, "a.", 1, "10.0.0.1", 24, 100)
        t.access(1, "a.", 1, "10.0.0.2", 24, 100)
        assert t.hit_rate() == 0.5

    def test_qtype_distinguishes_entries(self):
        t = ScopeTracker(use_ecs=False)
        t.access(0, "a.", 1, None, 0, 100)
        assert not t.access(1, "a.", 28, None, 0, 100)
