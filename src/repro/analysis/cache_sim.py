"""Trace-driven cache simulations (section 7.1, Figures 1 and 2).

The replay follows the paper's method exactly: resolvers adhere to the
returned TTL, never evict early, and — in the ECS run — key entries by the
authoritative scope, so several copies of one answer coexist when clients
span multiple scope-sized subnets.  The *blow-up factor* for a resolver is
the ratio of the peak cache size with ECS to the peak size without.
:func:`replay_partial` is that method spelled out; :class:`ReplayKernel`
is the same step over dense integer key ids derived once from the rows,
and a whole trace reaches it keyed once, as a :class:`KeyedTrace`.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, count, islice, repeat
from math import inf
from operator import attrgetter, gt, itemgetter, le
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from ..addr import parse_addr, truncate_int
from ..core.cache import ScopeTracker
from ..datasets.columnar import ColumnarStore, bucket_rows


@dataclass
class ReplayResult:
    """Peak sizes and hit counts of one with/without-ECS replay pair."""

    max_size_ecs: int
    max_size_no_ecs: int
    hit_rate_ecs: float
    hit_rate_no_ecs: float

    @property
    def blowup(self) -> float:
        """Peak-cache ratio; 1.0 when ECS adds no state."""
        if self.max_size_no_ecs == 0:
            return 1.0
        return self.max_size_ecs / self.max_size_no_ecs


@dataclass(frozen=True)
class ReplayPartial:
    """Raw counters of one replay shard, mergeable into a ReplayResult.

    Every field is an integer that sums across shards: hit/miss counters
    add exactly when the trace is partitioned along cache-key boundaries
    (e.g. by qname).  Peak sizes add too, but shard caches peak at
    different times, so the merged peak — the sum of per-bucket peaks —
    is an upper bound on the whole cache's peak, exact only at one
    shard.  Field-wise addition makes the merge
    associative, commutative, and possessed of an all-zero identity, so
    shard order never matters.
    """

    hits_ecs: int = 0
    misses_ecs: int = 0
    hits_no_ecs: int = 0
    misses_no_ecs: int = 0
    max_size_ecs: int = 0
    max_size_no_ecs: int = 0

    @property
    def queries(self) -> int:
        """Records replayed in this shard."""
        return self.hits_ecs + self.misses_ecs

    def merge(self, other: "ReplayPartial") -> "ReplayPartial":
        """Combine two shard partials (field-wise sum)."""
        return ReplayPartial(
            self.hits_ecs + other.hits_ecs,
            self.misses_ecs + other.misses_ecs,
            self.hits_no_ecs + other.hits_no_ecs,
            self.misses_no_ecs + other.misses_no_ecs,
            self.max_size_ecs + other.max_size_ecs,
            self.max_size_no_ecs + other.max_size_no_ecs)

    def result(self) -> ReplayResult:
        """Collapse the counters into the rate-based result."""
        total_ecs = self.hits_ecs + self.misses_ecs
        total_plain = self.hits_no_ecs + self.misses_no_ecs
        return ReplayResult(
            self.max_size_ecs, self.max_size_no_ecs,
            self.hits_ecs / total_ecs if total_ecs else 0.0,
            self.hits_no_ecs / total_plain if total_plain else 0.0)


def replay_partial(records: Iterable, client_of, scope_of,
                   ttl_of) -> ReplayPartial:
    """Replay one record stream, keeping raw counters for merging.

    The readable reference path: per-record accessor callables, one
    attribute lookup at a time.
    """
    ecs = ScopeTracker(use_ecs=True)
    plain = ScopeTracker(use_ecs=False)
    for r in records:
        client = client_of(r)
        scope = scope_of(r)
        ttl = ttl_of(r)
        ecs.access(r.ts, r.qname, r.qtype, client, scope, ttl)
        plain.access(r.ts, r.qname, r.qtype, None, 0, ttl)
    return ReplayPartial(ecs.hits, ecs.misses, plain.hits, plain.misses,
                         ecs.max_size, plain.max_size)


#: Rows the kernel replays between two settlings of peak size, and records
#: transposed per segment on the object path (sweep: docs/performance.md).
CHUNK_ROWS = 2048

#: A stretch of trace in the one shape :meth:`ReplayKernel.feed` reads: ts,
#: ttl and the id of the ECS cache key, row by row, then ECS key id -> id
#: of its plain key; ids in the space of the :func:`_key_space` that made it.
Segment = Tuple[Sequence[float], Sequence[float], Sequence[int], Sequence[int]]


def _key_space(plain_names: Optional[List[str]] = None
               ) -> Callable[[Sequence[Iterable[Any]]], Segment]:
    """A fresh space of dense integer ids for cache keys, as the function
    that keys the rows of six columns (ts, qname, qtype, parsed client
    address, scope, ttl) in it; ``plain_names``, when given, gets the
    qname of each plain key id as the id is issued.

    A row's plain key is ``(qname, qtype)``; its ECS key adds the client's
    scope-long prefix, or nothing when the scope is 0 or the client None
    (:meth:`ScopeTracker._key`); a scope outside the family width raises
    as :func:`truncate_int` does.  Ids come in two stages — plain key and
    prefix, then their pair — from C-level memo tables that run Python
    once per *distinct* key, and names and addresses are read by value,
    so row groups with their local dictionary codes meet in one space.
    """
    plain_of: List[int] = []
    names: List[str] = [] if plain_names is None else plain_names
    prefixes: Dict[Tuple[int, int, int], int] = {}

    @lru_cache(maxsize=None)
    def plain_id(qname: str, qtype: int) -> int:
        names.append(qname)
        return len(names) - 1

    @lru_cache(maxsize=None)
    def prefix_id(address: Optional[Tuple[int, int]], scope: int) -> int:
        if scope == 0 or address is None:
            return 0
        return prefixes.setdefault(
            (address[0], scope, truncate_int(*address, scope)),
            len(prefixes) + 1)

    @lru_cache(maxsize=None)
    def pair_id(plain: int, prefix: int) -> int:
        plain_of.append(plain)
        return len(plain_of) - 1

    def segment(columns: Sequence[Iterable[Any]]) -> Segment:
        ts, qnames, qtypes, addresses, scopes, ttl = columns
        return ts, ttl, array("i", map(
            pair_id, map(plain_id, qnames, qtypes),
            map(prefix_id, addresses, scopes))), plain_of

    return segment


def _store_columns(store: "ColumnarStore", client_field: str,
                   rows: Optional[Sequence[int]] = None) -> List[Any]:
    """What a :func:`_key_space` function takes, from ``store``: every row
    zero-copy, or ``rows`` with ts (f8) and ttl (i8) packed; key columns
    are only streamed.  Every address is parsed here, before a row is
    read, so a malformed one raises whatever the rows hold."""
    parsed = [parse_addr(value) for value in store.dictionary(client_field)]
    ts, qname, qtype, client, scope, ttl = (
        store.column(name) if rows is None
        else map(store.column(name).__getitem__, rows)
        for name in ("ts", "qname", "qtype", client_field, "scope", "ttl"))
    if rows is not None:
        ts, ttl = array("d", ts), array("q", ttl)
    return [ts, map(store.dictionary("qname").__getitem__, qname), qtype,
            map(parsed.__getitem__, client), scope, ttl]


class _Cache:
    """One cache between chunks: expiry by key id (``-inf``: never
    stored), the sorted expiries of the entries still live, counters."""

    def __init__(self) -> None:
        self.expiry, self.live = [], []  # type: List[float], List[float]
        self.misses = self.peak = 0

    def settle(self, noted: List[float]) -> None:
        """Count a chunk's misses, ``noted`` as ``now, expiry`` pairs in
        time order.  The size after a miss is the entries stored so far
        less the expiries at or before that instant; an entry that does
        not outlive its arrival (TTL 0) counts at its own instant only."""
        times, expiries = noted[::2], noted[1::2]
        outlives = list(map(gt, expiries, times))
        pending = sorted(chain(self.live, compress(expiries, outlives)))
        pending.append(inf)
        stored, gone, peak = len(self.live), 0, self.peak
        for now, outlived in zip(times, outlives):
            while pending[gone] <= now:
                gone += 1
            if stored - gone >= peak:
                peak = stored - gone + 1
            stored += outlived
        self.live = pending[gone:-1]
        self.misses += len(times)
        self.peak = peak


class ReplayKernel:
    """The section 7 dual-cache step, written once for every fast lane.

    :meth:`feed` reads a row's two cache keys as dense integer ids: the
    row hits a cache iff the expiry stored under its id exceeds ``now``,
    a miss stores ``now + ttl`` and is noted, and peak sizes are settled
    from the notes chunk by chunk (:meth:`_Cache.settle`), so counters
    equal :func:`replay_partial` over the same, time-ordered rows.  One
    kernel replays one id space: a :class:`KeyedTrace`'s, or the segments
    of its own.  Memory is one float per key id and cache, the live
    entries and a chunk, never the row count.  ``ttl_override`` replaces
    every row's TTL; ``0`` is honored (see :func:`fig1_series`).
    """

    def __init__(self, ttl_override: Optional[float] = None) -> None:
        self.ttl_override = ttl_override
        self.rows, self._last = 0, -inf
        self._ecs, self._plain = _Cache(), _Cache()
        self._segment = _key_space()

    def partial(self) -> ReplayPartial:
        """The counters accumulated so far."""
        ecs, plain = self._ecs, self._plain
        return ReplayPartial(self.rows - ecs.misses, ecs.misses,
                             self.rows - plain.misses, plain.misses,
                             ecs.peak, plain.peak)

    def group_segment(self, store: "ColumnarStore",
                      client_field: str) -> Segment:
        """One row group of a trace, zero-copy, keyed in the kernel's space."""
        return self._segment(_store_columns(store, client_field))

    def feed(self, segment: Segment,
             rows: Optional[Iterable[int]] = None) -> None:
        """Replay ``rows`` of ``segment`` (default: all) in the order
        given, such as a qname bucket's row indices."""
        ts_col, ttl_col, key_ids, plain_of = segment
        ecs, plain = self._ecs, self._plain
        ecs_expiry, plain_expiry = ecs.expiry, plain.expiry
        for expiry in (ecs_expiry, plain_expiry):
            expiry.extend(repeat(-inf, len(plain_of) - len(expiry)))
        stream = iter(range(len(ts_col)) if rows is None else rows)
        while chunk := tuple(islice(stream, CHUNK_ROWS)):
            # One slice where it can be; itemgetter(row) is a bare value.
            gather = itemgetter(slice(chunk[0], chunk[-1] + 1 or None)) \
                if rows is None or len(chunk) == 1 else itemgetter(*chunk)
            ts, ids = gather(ts_col), gather(key_ids)
            if not (all(map(le, chain((self._last,), ts), ts))
                    and ts[-1] < inf):
                at, last = 0, self._last
                while last <= ts[at] < inf:
                    at, last = at + 1, ts[at]
                raise ValueError(
                    f"row {chunk[at]}: ts {ts[at]!r} follows ts {last!r}; a "
                    f"replay needs a finite, time-ordered trace")
            self._last = ts[-1]
            ttls = gather(ttl_col) if self.ttl_override is None \
                else repeat(self.ttl_override)
            ecs_noted, plain_noted = [], []  # type: List[float], List[float]
            ecs_note, plain_note = ecs_noted.append, plain_noted.append
            for now, ek, pk, ttl in zip(ts, ids, map(plain_of.__getitem__,
                                                     ids), ttls):
                if not ecs_expiry[ek] > now:
                    ecs_expiry[ek] = expiry = now + ttl
                    ecs_note(now)
                    ecs_note(expiry)
                if not plain_expiry[pk] > now:
                    plain_expiry[pk] = expiry = now + ttl
                    plain_note(now)
                    plain_note(expiry)
            ecs.settle(ecs_noted)
            plain.settle(plain_noted)
            self.rows += len(ts)


class KeyedTrace:
    """A whole trace as the replay kernel reads it, keyed once.

    Built from the trace's column stores in trace order — a ``.col``
    file's row groups as
    :meth:`~repro.datasets.columnar.RowGroupReader.walk` yields them (one
    group's mapped pages resident at a time), one parsed JSONL shard, one
    in-memory store — and keyed into one id space (:func:`_key_space`),
    so group-local dictionary codes never reach an id.  Per row it keeps
    only what the kernel reads: ``ts`` (f8), ``ttl`` (i8) and ``ids``, the
    ECS key id (i4), 20 bytes; with ``clients``, also ``client_ids`` (i4),
    each row's index into ``clients``, the trace's client addresses in
    first-appearance order, which the client sweep samples.  ``rows``,
    the stores' total, sizes each column once.  No store is referenced
    once it is built.
    """

    def __init__(self, stores: Iterable["ColumnarStore"], rows: int,
                 client_field: str, clients: bool = False) -> None:
        self._plain_names: List[str] = []
        key = _key_space(self._plain_names)
        self.rows = rows
        self.ts, self.ttl, self.ids = (array(code, [0]) * rows
                                       for code in ("d", "q", "i"))
        self.client_ids = array("i", [0]) * (rows if clients else 0)
        codes: Dict[str, int] = {}
        self._plain_of: Sequence[int] = []
        start = 0
        for store in stores:
            end = start + len(store)
            ts, ttl, ids, self._plain_of = key(
                _store_columns(store, client_field))
            memoryview(self.ts)[start:end] = ts
            memoryview(self.ttl)[start:end] = ttl
            memoryview(self.ids)[start:end] = ids
            if clients:
                table = [codes.setdefault(client, len(codes))
                         for client in store.dictionary(client_field)]
                memoryview(self.client_ids)[start:end] = array(
                    "i", map(table.__getitem__, store.column(client_field)))
            start = end
        self.clients = list(codes)
        self._buckets: Dict[int, List["array[int]"]] = {}

    def qname_buckets(self, shards: int) -> List["array[int]"]:
        """Row indices per
        :func:`~repro.engine.sharding.stable_bucket` shard of the qname, as
        :meth:`ColumnarStore.row_buckets` lists them (:func:`bucket_rows`
        over each key id's qname); kept per shard count, 4 bytes a row,
        since each bucket of a trace is a replay task of its own."""
        buckets = self._buckets.get(shards)
        if buckets is None:
            buckets = self._buckets[shards] = bucket_rows(
                list(map(self._plain_names.__getitem__, self._plain_of)),
                self.ids, shards)
        return buckets


# Three adapters over the kernel.  They stay separate functions that never
# call each other: benchmarks/e2e rebinds each by name and counts rows per
# call, so an alias or a nested call would count its rows twice.


def replay_partial_batched(records: Iterable, client_field: str,
                           ttl_override: Optional[float] = None
                           ) -> ReplayPartial:
    """Object lane: record instances read by field *name*, transposed
    :data:`CHUNK_ROWS` at a time (one C-level ``map`` per column); counters
    equal :func:`replay_partial` with the matching accessors.

    For records already in a caller's hands; nothing in ``repro`` calls
    it (traces on disk and the figure helpers replay as columns).
    """
    kernel = ReplayKernel(ttl_override)
    stream = iter(records)
    while chunk := list(islice(stream, CHUNK_ROWS)):
        columns = [list(map(attrgetter(name), chunk)) for name in
                   ("ts", "qname", "qtype", client_field, "scope", "ttl")]
        columns[3] = [None if client is None else parse_addr(client)
                      for client in columns[3]]
        kernel.feed(kernel._segment(columns))
    return kernel.partial()


def replay_partial_columns(trace: KeyedTrace,
                           rows: Optional[Iterable[int]] = None,
                           ttl_override: Optional[float] = None
                           ) -> ReplayPartial:
    """Whole-trace lane: a :class:`KeyedTrace`, no record objects;
    ``rows`` selects a subset in replay order (a qname bucket, a client
    sample)."""
    kernel = ReplayKernel(ttl_override)
    kernel.feed((trace.ts, trace.ttl, trace.ids, trace._plain_of), rows)
    return kernel.partial()


def replay_partial_column_groups(stores: Iterable["ColumnarStore"],
                                 client_field: str,
                                 ttl_override: Optional[float] = None
                                 ) -> ReplayPartial:
    """Out-of-core lane: row-group stores in file order through one kernel.

    Counters equal one :func:`replay_partial_columns` pass over the
    concatenated rows although v2 dictionary codes are group-local.
    Only the group being fed is read; callers close each store as soon
    as the next one is requested.
    """
    kernel = ReplayKernel(ttl_override)
    for store in stores:
        kernel.feed(kernel.group_segment(store, client_field))
    return kernel.partial()


def merge_partials(partials: Iterable[ReplayPartial]) -> ReplayResult:
    """Fold shard partials into one ReplayResult (order-independent)."""
    merged = ReplayPartial()
    for partial in partials:
        merged = merged.merge(partial)
    return merged.result()


def replay(records: Iterable, client_of, scope_of, ttl_of) -> ReplayResult:
    """Run the paired with/without-ECS replay over one record stream."""
    return replay_partial(records, client_of, scope_of, ttl_of).result()


# ---------------------------------------------------------------------------
# Figure 1 — blow-up CDF across the public service's egress resolvers


def fig1_series(store: "ColumnarStore",
                ttls: Sequence[Optional[int]] = (20, 40, 60)
                ) -> Dict[Optional[int], List[float]]:
    """The Fig 1 CDF series: TTL → sorted per-resolver blow-up factors.

    ``store`` holds public-cdn rows in any order that keeps each
    resolver's own rows time-ordered (a ts-sorted trace, a
    resolver-major shard); a resolver without rows is no data point.
    Each TTL overrides the trace TTL (the paper replays the 20-second
    CDN trace with 40- and 60-second TTLs to show the trend): ``None``
    keeps the trace's own, and ``0`` is a valid override meaning nothing
    outlives its arrival instant.
    """
    by_resolver = [array("q") for _ in store.dictionary("resolver_ip")]
    for row, code in enumerate(store.column("resolver_ip")):
        by_resolver[code].append(row)
    series: Dict[Optional[int], List[float]] = {ttl: [] for ttl in ttls}
    for rows in filter(None, by_resolver):
        # Keyed once (ids do not depend on the TTL), 20 bytes a row.
        segment = _key_space()(_store_columns(store, "ecs_address", rows))
        for ttl, factors in series.items():
            kernel = ReplayKernel(ttl)
            kernel.feed(segment)
            factors.append(kernel.partial().result().blowup)
    return {ttl: sorted(factors) for ttl, factors in series.items()}


def cdf_points(sorted_values: Sequence[float]) -> List[Tuple[float, float]]:
    """(value, cumulative fraction) pairs for a sorted sample."""
    n = len(sorted_values)
    return [(v, (i + 1) / n) for i, v in enumerate(sorted_values)]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (q in [0, 1])."""
    if not sorted_values:
        raise ValueError("empty sample")
    idx = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def overall_blowup(ecs_blowup: float,  # repro-lint: disable=RS008 (a §9 extension EXPERIMENTS.md reports)
                   ecs_fraction: float) -> float:
    """Project the *overall* cache blow-up from the ECS-only blow-up.

    Section 9 notes the measured factors cover only the ECS-carrying slice
    of the cache; if a fraction ``ecs_fraction`` of cached responses carry
    ECS, the whole-cache factor is the convex combination with the non-ECS
    slice (factor 1).  Lets operators extrapolate to future ECS deployment
    levels.
    """
    if not 0.0 <= ecs_fraction <= 1.0:
        raise ValueError("ecs_fraction must be within [0, 1]")
    if ecs_blowup < 1.0:
        raise ValueError("ECS blow-up cannot be below 1")
    return ecs_fraction * ecs_blowup + (1.0 - ecs_fraction)


# ---------------------------------------------------------------------------
# Figures 2 and 3 — blow-up and hit rate vs client-population fraction
# (All-Names resolver): one sweep, two projections

#: Per client fraction, one replay per sampling seed.
ClientSweep = List[Tuple[float, List[ReplayResult]]]


def client_sample_rows(trace: KeyedTrace, clients: Sequence[str],
                       fraction: float, seed: int) -> Optional[List[int]]:
    """The rows of a random ``fraction`` of ``clients`` (None: every row)
    in a trace keyed with its client ids.

    ``clients`` is the population as its builder lists it
    (``AllNamesDataset.client_ips``), not the trace's own client list:
    the sample depends on the list's order and on clients that never
    query.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    if fraction >= 1.0:
        return None
    rng = random.Random(seed)
    chosen = set(rng.sample(clients, max(1, int(len(clients) * fraction))))
    keep = [client in chosen for client in trace.clients]
    return list(compress(count(), map(keep.__getitem__, trace.client_ids)))


def client_sweep(store: "ColumnarStore", clients: Sequence[str],
                 fractions: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5,
                                               0.6, 0.7, 0.8, 0.9, 1.0),
                 seeds: Sequence[int] = (1, 2, 3)) -> ClientSweep:
    """Every (fraction, seed) replay behind Figures 2 and 3, computed once
    over an allnames ``store`` keyed once.

    Each fraction gets ``len(seeds)`` random client samples, as the
    paper averages three runs per fraction.
    """
    trace = KeyedTrace([store], len(store), "client_ip", clients=True)
    return [(fraction, [replay_partial_columns(trace, client_sample_rows(
        trace, clients, fraction, seed)).result() for seed in seeds])
        for fraction in fractions]


def fig2_series(sweep: ClientSweep) -> List[Tuple[float, float]]:
    """(client fraction, mean blow-up) — the Fig 2 curve."""
    return [(fraction, sum(r.blowup for r in results) / len(results))
            for fraction, results in sweep]


def fig3_series(sweep: ClientSweep) -> List[Tuple[float, float, float]]:
    """(fraction, hit rate without ECS, hit rate with ECS) triples."""
    return [(fraction,
             sum(r.hit_rate_no_ecs for r in results) / len(results),
             sum(r.hit_rate_ecs for r in results) / len(results))
            for fraction, results in sweep]
