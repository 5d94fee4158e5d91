"""ECS-aware DNS caching (the paper's central mechanism).

RFC 7871 requires a resolver to key cached answers by the *scope* prefix the
authoritative server returned: an answer with scope /16 may be reused for
any client inside that /16 until the TTL expires, while scope /24 answers
must not leak across /24 boundaries, and scope 0 answers are global.  The
paper (section 6.3) finds resolvers that honor this, resolvers that ignore
it entirely, resolvers that clamp every scope to /22, and one that cannot
cache zero-scope answers at all.  :class:`EcsCache` implements all of those
as configuration, so the same machine reproduces both the compliant and each
deviant behavior.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..addr import IPAddress, parse_addr, prefix_key_int
from ..dnslib import EcsOption, Message, Name, RecordType, ResourceRecord
from ..net.clock import SimClock
from ..obs import metrics as _obs_metrics

IPAddressLike = Union[str, IPAddress]


class ScopeMode(enum.Enum):
    """How a resolver treats the scope prefix length when caching."""

    #: RFC-compliant: key the entry by the returned scope.
    HONOR = "honor"
    #: The 103-resolver behavior: reuse cached answers for any client.
    IGNORE = "ignore"
    #: The 8-resolver behavior: never use more than ``clamp_bits`` bits.
    CLAMP = "clamp"


def effective_scope(response_scope: int, query_source: int,
                    enforce_scope_le_source: bool = True) -> int:
    """The scope a compliant resolver caches at.

    RFC 7871 section 7.3.1: a scope longer than the query's source prefix is
    a server error; compliant resolvers fall back to the source length (the
    paper verifies 9 resolvers doing exactly this).
    """
    if enforce_scope_le_source and response_scope > query_source:
        return query_source
    return response_scope


@dataclass
class CacheStats:
    """Counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    expirations: int = 0
    evictions: int = 0
    max_size: int = 0

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(slots=True)
class _Entry:
    scope_bits: Optional[int]          # None => non-ECS (global) entry
    net_key: Optional[Tuple[int, int, int]]  # prefix key at scope_bits
    family: Optional[int]              # 4 or 6; None for global entries
    response: Message
    inserted_at: float
    expires_at: float
    last_used: float = 0.0
    #: Still in :meth:`EcsCache.size`'s count: cleared when the entry is
    #: replaced, evicted or popped from the expiry heap.
    counted: bool = True

    def __lt__(self, other: "_Entry") -> bool:
        """Expiry order, for the expiry heap."""
        return self.expires_at < other.expires_at


class EcsCache:
    """A resolver cache with configurable ECS scope handling.

    Entries live under (qname, qtype).  Multiple entries per key coexist when
    their scopes differ — exactly the state blow-up the paper quantifies in
    section 7.
    """

    def __init__(self, clock: SimClock,
                 scope_mode: ScopeMode = ScopeMode.HONOR,
                 clamp_bits: int = 22,
                 enforce_scope_le_source: bool = True,
                 cache_zero_scope: bool = True,
                 max_entries: Optional[int] = None):
        self.clock = clock
        self.scope_mode = scope_mode
        self.clamp_bits = clamp_bits
        self.enforce_scope_le_source = enforce_scope_le_source
        self.cache_zero_scope = cache_zero_scope
        #: Capacity bound; exceeding it evicts least-recently-used entries
        #: (the premature-eviction pressure the paper's section 7 warns ECS
        #: creates).  ``None`` = unbounded, the paper's simulation setting.
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: Dict[Tuple[Name, int], List[_Entry]] = {}
        #: Running count of the counted entries, and a heap of them by
        #: expiry.  Replaced and evicted entries stay in the heap until
        #: their expiry pops them; ``counted`` tells :meth:`size` not to
        #: count them twice.
        self._live = 0
        self._expiries: List[_Entry] = []

    # -- inspection --------------------------------------------------------

    def size(self) -> int:
        """Number of live (non-expired) entries.

        Pops what has expired off the expiry heap, O(log n) amortized
        (expired entries stay in their lists: removing them is
        :meth:`lookup`'s and :meth:`store`'s job, and is counted there).
        The clock never runs backwards, so a popped entry stays expired.
        """
        now = self.clock.now()
        heap = self._expiries
        while heap and heap[0].expires_at <= now:
            entry = heapq.heappop(heap)
            if entry.counted:
                entry.counted = False
                self._live -= 1
        return self._live

    # -- lookup ------------------------------------------------------------

    def lookup(self, qname: Name, qtype: RecordType,
               client: Optional[IPAddressLike] = None) -> Optional[Message]:
        """Return an aged copy of a cached response usable for ``client``.

        Under :attr:`ScopeMode.IGNORE` any live entry matches regardless of
        the client address (the non-compliant reuse the paper observed).
        """
        key = (qname, int(qtype))
        entries = self._entries.get(key)
        if not entries:
            self.stats.misses += 1
            self._count("miss")
            return None
        now = self.clock.now()
        live = [e for e in entries if e.expires_at > now]
        if len(live) != len(entries):
            self.stats.expirations += len(entries) - len(live)
            self._count("expired", len(entries) - len(live))
            self._entries[key] = live
        for entry in live:
            if self._entry_matches(entry, client):
                self.stats.hits += 1
                entry.last_used = now
                self._count("hit")
                return self._aged_copy(entry, now)
        self.stats.misses += 1
        self._count("miss")
        return None

    @staticmethod
    def _count(event: str, amount: int = 1) -> None:
        """Out-of-band cache event counter; free when metrics are off."""
        reg = _obs_metrics.ACTIVE
        if reg is not None:
            reg.counter("repro_cache_events_total",
                        "EcsCache events (hit/miss/insert/evict/expired).",
                        ("event",)).inc(amount, event)

    def _entry_matches(self, entry: _Entry,
                       client: Optional[IPAddressLike]) -> bool:
        if entry.scope_bits is None or self.scope_mode is ScopeMode.IGNORE:
            return True
        if entry.scope_bits == 0:
            return True
        if client is None:
            return False
        version, value = parse_addr(client)
        if entry.family is not None and version != entry.family:
            return False
        return prefix_key_int(version, value, entry.scope_bits) == entry.net_key

    def _aged_copy(self, entry: _Entry, now: float) -> Message:
        stored = entry.response
        age = int(now - entry.inserted_at)

        def aged(section: List[ResourceRecord]) -> List[ResourceRecord]:
            return [rr.with_ttl(max(0, rr.ttl - age)) for rr in section]

        # Records are immutable and shared with the stored entry, so the
        # aged ones are built straight into the copy's own lists.
        response = stored.copy()
        response.answers = aged(stored.answers)
        response.authority = aged(stored.authority)
        response.additional = aged(stored.additional)
        return response

    # -- store -------------------------------------------------------------

    def store(self, qname: Name, qtype: RecordType, response: Message,
              query_ecs: Optional[EcsOption] = None) -> bool:
        """Insert ``response``; returns False when policy refuses to cache.

        ``query_ecs`` is the ECS option the resolver *sent*; it supplies the
        source prefix length for the scope<=source rule and the client
        prefix the entry is keyed under.
        """
        ttl = response.min_ttl()
        if ttl is None:
            # Negative caching (RFC 2308): lifetime is the minimum of the
            # SOA's TTL and its MINIMUM field, falling back to 60 s.
            ttl = 60
            for rr in response.authority:
                if rr.rdtype == RecordType.SOA:
                    ttl = min(rr.ttl, rr.rdata.minimum)  # type: ignore[attr-defined]
                    break
        now = self.clock.now()

        resp_ecs = response.ecs()
        scope_bits: Optional[int] = None
        net_key = None
        family = None
        if resp_ecs is not None and query_ecs is not None:
            scope = effective_scope(resp_ecs.scope_prefix_length,
                                    query_ecs.source_prefix_length,
                                    self.enforce_scope_le_source)
            if self.scope_mode is ScopeMode.CLAMP:
                scope = min(scope, self.clamp_bits)
            if scope == 0 and not self.cache_zero_scope:
                return False
            scope_bits = scope
            family = 4 if query_ecs.family == 1 else 6
            net_key = prefix_key_int(family, query_ecs.address, scope_bits)

        entry = _Entry(scope_bits, net_key, family, response.copy(),
                       now, now + ttl, last_used=now)
        key = (qname, int(qtype))
        entries = self._entries.setdefault(key, [])
        kept = []
        for e in entries:
            if e.expires_at > now:
                if e.scope_bits == entry.scope_bits \
                        and e.net_key == entry.net_key:
                    self._uncount(e)        # replaced by the new entry
                else:
                    kept.append(e)
        kept.append(entry)
        entries[:] = kept
        self._live += 1
        heapq.heappush(self._expiries, entry)
        self.stats.insertions += 1
        self._count("insert")
        if self.max_entries is not None:
            self._enforce_capacity()
        self.stats.max_size = max(self.stats.max_size, self.size())
        reg = _obs_metrics.ACTIVE
        if reg is not None:
            reg.gauge("repro_cache_max_entries",
                      "Peak live cache entries (high watermark).",
                      mode="max").set_max(self.stats.max_size)
        return True

    def _enforce_capacity(self) -> None:
        """Evict least-recently-used live entries above ``max_entries``."""
        now = self.clock.now()
        live: List[Tuple[Tuple[Name, int], _Entry]] = [
            (key, e) for key, entries in self._entries.items()
            for e in entries if e.expires_at > now]
        overflow = len(live) - self.max_entries
        if overflow <= 0:
            return
        live.sort(key=lambda pair: pair[1].last_used)
        doomed = set()
        for _, e in live[:overflow]:
            doomed.add(id(e))
            self._uncount(e)
        for key in list(self._entries):
            kept = [e for e in self._entries[key] if id(e) not in doomed]
            if kept:
                self._entries[key] = kept
            else:
                del self._entries[key]
        self.stats.evictions += overflow
        self._count("evict", overflow)

    def _uncount(self, entry: _Entry) -> None:
        """Take a live entry out of the count.  It leaves the heap when it
        reaches the top, or when uncounted entries are over half the heap
        and the heap is rebuilt without them."""
        entry.counted = False
        self._live -= 1
        heap = self._expiries
        if len(heap) > 2 * self._live + 64:
            heap[:] = [e for e in heap if e.counted]
            heapq.heapify(heap)

    def flush(self) -> None:
        """Drop everything (does not reset stats)."""
        self._entries.clear()
        self._live = 0
        self._expiries.clear()


class ScopeTracker:
    """Lightweight scope-keyed cache used by the trace-driven simulations.

    Stores only (key, expiry) pairs — no response bodies — so replaying the
    multi-million-query datasets of section 7 stays fast.  The keying logic
    matches :class:`EcsCache` under the replay model's assumption that the
    authoritative scope is stable per (qname, qtype) — true of the paper's
    traces and of every generator here; the differential test in
    ``tests/test_export_and_differential.py`` verifies the agreement.
    """

    def __init__(self, use_ecs: bool = True):
        self.use_ecs = use_ecs
        self._expiry: Dict[tuple, float] = {}
        self._heap: List[Tuple[float, tuple]] = []
        self.current_size = 0
        self.max_size = 0
        self.hits = 0
        self.misses = 0

    def _key(self, qname: str, qtype: int, client: Optional[str],
             scope: int) -> tuple:
        if not self.use_ecs or scope == 0 or client is None:
            return (qname, qtype)
        version, value = parse_addr(client)
        return (qname, qtype) + prefix_key_int(version, value, scope)

    def access(self, now: float, qname: str, qtype: int,
               client: Optional[str], scope: int, ttl: float) -> bool:
        """Replay one query; returns True on a cache hit.

        On a miss the response (with the given authoritative ``scope`` and
        ``ttl``) is inserted, mirroring a resolver that forwards the query
        and caches the answer.
        """
        self._purge(now)
        key = self._key(qname, qtype, client, scope)
        expiry = self._expiry.get(key)
        if expiry is not None and expiry > now:
            self.hits += 1
            return True
        self.misses += 1
        self._expiry[key] = now + ttl
        heapq.heappush(self._heap, (now + ttl, key))
        self.current_size = len(self._expiry)
        if self.current_size > self.max_size:
            self.max_size = self.current_size
        return False

    def _purge(self, now: float) -> None:
        # Heap of (expiry, key) with lazy deletion: an entry is stale when
        # the live table holds a newer expiry for its key (re-insertion).
        heap = self._heap
        expiry_map = self._expiry
        while heap and heap[0][0] <= now:
            expiry, key = heapq.heappop(heap)
            current = expiry_map.get(key)
            if current is not None and current <= now:
                del expiry_map[key]
        self.current_size = len(expiry_map)

    def hit_rate(self) -> float:
        """Fraction of replayed queries answered from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
