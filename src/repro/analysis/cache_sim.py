"""Trace-driven cache simulations (section 7.1, Figures 1 and 2).

The replay follows the paper's method exactly: resolvers adhere to the
returned TTL, never evict early, and — in the ECS run — key entries by the
authoritative scope, so several copies of one answer coexist when clients
span multiple scope-sized subnets.  The *blow-up factor* for a resolver is
the ratio of the peak cache size with ECS to the peak size without.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from typing import (TYPE_CHECKING, Any, Dict, Iterable, Iterator, List,
                    NamedTuple, Optional, Sequence, Tuple)

from ..core.cache import ScopeTracker
from ..net.addr import _MASKS_BY_VERSION, parse_addr, truncate_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (datasets -> net)
    from ..datasets.columnar import ColumnarStore


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
    (e.g. by qname), and peak sizes add because shard caches are
    disjoint — the merged peak is the sum of per-shard peaks, exact
    whenever shard occupancies peak together (true of the paper's
    steady-state traces).  Field-wise addition makes the merge
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
                   ttl_of, fast: bool = True) -> ReplayPartial:
    """Replay one record stream, keeping raw counters for merging.

    The readable reference path: per-record accessor callables, one
    attribute lookup at a time.  ``fast=False`` additionally routes the
    trackers' prefix keying through the ``ipaddress``-based reference —
    results are identical either way (pinned by the equivalence suite);
    the flag exists for benchmarking the before/after.
    """
    ecs = ScopeTracker(use_ecs=True, fast=fast)
    plain = ScopeTracker(use_ecs=False, fast=fast)
    for r in records:
        client = client_of(r)
        scope = scope_of(r)
        ttl = ttl_of(r)
        ecs.access(r.ts, r.qname, r.qtype, client, scope, ttl)
        plain.access(r.ts, r.qname, r.qtype, None, 0, ttl)
    return ReplayPartial(ecs.hits, ecs.misses, plain.hits, plain.misses,
                         ecs.max_size, plain.max_size)


#: Records transposed per segment on the object path.  Throughput is flat
#: from 256 rows up; this keeps the six column lists small.
RECORD_CHUNK_ROWS = 4096


class Segment(NamedTuple):
    """A stretch of trace in the one shape :meth:`ReplayKernel.feed` reads,
    bound to the kernel that made it (``qmap`` handles are kernel-local)."""

    #: ``(ts, qname, qtype, client, scope, ttl)``, aligned by row; qname
    #: and client hold codes into ``qnames`` / ``clients``.
    columns: Sequence[Sequence[Any]]
    qnames: Sequence[str]
    clients: Sequence[Optional[str]]
    #: qname code -> run-global handle; client code -> ``(version, value,
    #: mask table)``, or None where the dictionary entry is None.
    qmap: List[int]
    cmap: List[Optional[Tuple[int, int, Sequence[int]]]]


def _client_entries(clients: Sequence[Optional[str]]
                    ) -> List[Optional[Tuple[int, int, Sequence[int]]]]:
    """``(version, value, mask table)`` per client address (None stays
    None): a :class:`Segment`'s ``cmap``, which depends on the
    dictionary alone and not on the kernel it is bound to."""
    cmap: List[Optional[Tuple[int, int, Sequence[int]]]] = []
    for address in clients:
        if address is None:
            cmap.append(None)
        else:
            version, value = parse_addr(address)
            cmap.append((version, value, _MASKS_BY_VERSION[version]))
    return cmap


class ReplayKernel:
    """The section 7 dual-cache step, written once for every fast lane.

    :meth:`feed` inlines :meth:`ScopeTracker.access` for an ECS-keyed and
    a plain cache — purge, lookup, a hit iff the stored expiry exceeds
    ``now``, insert and peak update only on a miss — so counters equal
    :func:`replay_partial` over the same rows.  Cache keys carry integer
    qname *handles* interned run-globally (dictionary codes are
    segment-local; one dict lookup per dictionary entry per segment keeps
    handle equality identical to string equality), and a store's client
    dictionary is parsed once for all kernels.  Memory is the caches,
    sized by the unique-key universe, never the row count.
    ``ttl_override`` replaces every row's TTL; ``0`` is honored (see
    :func:`fig1_series`).
    """

    def __init__(self, ttl_override: Optional[float] = None) -> None:
        self.ttl_override = ttl_override
        self.hits_ecs = self.misses_ecs = self.max_size_ecs = 0
        self.hits_no_ecs = self.misses_no_ecs = self.max_size_no_ecs = 0
        self._ecs_expiry: Dict[tuple, float] = {}
        self._plain_expiry: Dict[tuple, float] = {}
        self._ecs_heap: List[Tuple[float, tuple]] = []
        self._plain_heap: List[Tuple[float, tuple]] = []
        self._qname_handles: Dict[str, int] = {}

    def partial(self) -> ReplayPartial:
        """The counters accumulated so far."""
        return ReplayPartial(self.hits_ecs, self.misses_ecs,
                             self.hits_no_ecs, self.misses_no_ecs,
                             self.max_size_ecs, self.max_size_no_ecs)

    def _handles(self, qnames: Sequence[str]) -> List[int]:
        handles = self._qname_handles
        return [handles.setdefault(value, len(handles)) for value in qnames]

    def segment(self, columns: Sequence[Sequence[Any]], qnames: Sequence[str],
                clients: Sequence[Optional[str]]) -> Segment:
        """Bind six columns and their two dictionaries to this kernel."""
        return Segment(columns, qnames, clients, self._handles(qnames),
                       _client_entries(clients))

    def store_segment(self, store: "ColumnarStore",
                      client_field: str) -> Segment:
        """One columnar store (a whole file or one row group), zero-copy.

        The client dictionary is parsed once per store, not once per
        kernel (``store.memo``): Figure 1 binds one store to a kernel
        per (resolver, TTL).  A malformed address raises from here every
        time, since nothing is remembered for a parse that failed.
        """
        fields = ("ts", "qname", "qtype", client_field, "scope", "ttl")
        qnames = store.dictionary("qname")
        clients = store.dictionary(client_field)
        return Segment([store.column(name) for name in fields], qnames,
                       clients, self._handles(qnames),
                       store.memo(("client entries", client_field),
                                  lambda: _client_entries(clients)))

    def record_segments(self, records: Iterable,
                        client_field: str) -> Iterator[Segment]:
        """Record objects, transposed :data:`RECORD_CHUNK_ROWS` at a time
        (one C-level ``map`` per column) and dictionary-encoded per chunk.

        A record without a client keeps the scope-free key, as in
        :meth:`ScopeTracker._key`: its scope is rewritten to 0.
        """
        fields = ("ts", "qname", "qtype", client_field, "scope", "ttl")
        stream = iter(records)
        while True:
            chunk = list(islice(stream, RECORD_CHUNK_ROWS))
            if not chunk:
                return
            ts, qnames, qtypes, clients, scopes, ttls = (
                list(map(attrgetter(name), chunk)) for name in fields)
            if None in clients:
                scopes = [0 if client is None else scope
                          for client, scope in zip(clients, scopes)]
            qcodes: Dict[str, int] = {}
            ccodes: Dict[Optional[str], int] = {}
            yield self.segment(
                (ts, [qcodes.setdefault(v, len(qcodes)) for v in qnames],
                 qtypes, [ccodes.setdefault(v, len(ccodes)) for v in clients],
                 scopes, ttls), list(qcodes), list(ccodes))

    def feed(self, segment: Segment,
             rows: Optional[Iterable[int]] = None) -> None:
        """Replay ``rows`` of ``segment`` (default: all) in the order given:
        a qname bucket's row indices, or one row at a time when a tracer
        wants each verdict (the hit counters' delta)."""
        (ts_col, qname_col, qtype_col, client_col, scope_col,
         ttl_col), _, _, qmap, cmap = segment
        if rows is None:
            rows = range(len(ts_col))
        ttl_override = self.ttl_override
        ecs_expiry, plain_expiry = self._ecs_expiry, self._plain_expiry
        ecs_heap, plain_heap = self._ecs_heap, self._plain_heap
        heappush, heappop = heapq.heappush, heapq.heappop
        hits_ecs, misses_ecs = self.hits_ecs, self.misses_ecs
        hits_no_ecs, misses_no_ecs = self.hits_no_ecs, self.misses_no_ecs
        max_ecs, max_plain = self.max_size_ecs, self.max_size_no_ecs
        try:
            for row in rows:
                now = ts_col[row]
                qcode = qmap[qname_col[row]]
                qtype = qtype_col[row]
                scope = scope_col[row]
                ttl = ttl_col[row] if ttl_override is None else ttl_override

                # ECS cache: purge, then lookup, then insert on miss.
                while ecs_heap and ecs_heap[0][0] <= now:
                    expiry, key = heappop(ecs_heap)
                    current = ecs_expiry.get(key)
                    if current is not None and current <= now:
                        del ecs_expiry[key]
                if scope > 0:
                    version, value, masks = cmap[client_col[row]]
                    key = (qcode, qtype, version, scope, value & masks[scope])
                elif scope == 0:
                    key = (qcode, qtype)
                else:
                    raise IndexError(scope)
                expiry_now = ecs_expiry.get(key)
                if expiry_now is not None and expiry_now > now:
                    hits_ecs += 1
                else:
                    misses_ecs += 1
                    ecs_expiry[key] = now + ttl
                    heappush(ecs_heap, (now + ttl, key))
                    if len(ecs_expiry) > max_ecs:
                        max_ecs = len(ecs_expiry)

                # Plain cache: same sequence with the scope-free key.
                while plain_heap and plain_heap[0][0] <= now:
                    expiry, key = heappop(plain_heap)
                    current = plain_expiry.get(key)
                    if current is not None and current <= now:
                        del plain_expiry[key]
                key = (qcode, qtype)
                expiry_now = plain_expiry.get(key)
                if expiry_now is not None and expiry_now > now:
                    hits_no_ecs += 1
                else:
                    misses_no_ecs += 1
                    plain_expiry[key] = now + ttl
                    heappush(plain_heap, (now + ttl, key))
                    if len(plain_expiry) > max_plain:
                        max_plain = len(plain_expiry)
        except IndexError:
            # The loop range-checks no scope on the ``scope > 0`` path;
            # truncate_int names a bad prefix length as the oracle does,
            # and any other overrun re-raises as it was.
            version, value, _ = cmap[client_col[row]]
            truncate_int(version, value, scope_col[row])
            raise
        self.hits_ecs, self.misses_ecs = hits_ecs, misses_ecs
        self.hits_no_ecs, self.misses_no_ecs = hits_no_ecs, misses_no_ecs
        self.max_size_ecs, self.max_size_no_ecs = max_ecs, max_plain


# Three adapters over the kernel.  They stay separate functions that never
# call each other: benchmarks/e2e rebinds each by name and counts rows per
# call, so an alias or a nested call would count its rows twice.


def replay_partial_batched(records: Iterable, client_field: str,
                           ttl_override: Optional[float] = None
                           ) -> ReplayPartial:
    """Object lane: record instances read by field *name*; counters equal
    :func:`replay_partial` with the matching accessors.

    For records already in a caller's hands.  Nothing in ``repro``
    calls it: traces on disk, JSONL included, and the figure helpers
    below replay as columns and build no records.
    """
    kernel = ReplayKernel(ttl_override)
    for segment in kernel.record_segments(records, client_field):
        kernel.feed(segment)
    return kernel.partial()


def replay_partial_columns(store: "ColumnarStore", client_field: str,
                           rows: Optional[Iterable[int]] = None,
                           ttl_override: Optional[float] = None
                           ) -> ReplayPartial:
    """Columnar lane: one store's packed columns, no record objects.

    ``rows`` selects a subset in replay order (one qname bucket).
    """
    kernel = ReplayKernel(ttl_override)
    kernel.feed(kernel.store_segment(store, client_field), rows)
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
        kernel.feed(kernel.store_segment(store, client_field))
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
    by_resolver: List[List[int]] = [[] for _ in
                                    store.dictionary("resolver_ip")]
    for row, code in enumerate(store.column("resolver_ip")):
        by_resolver[code].append(row)
    return {ttl: sorted(replay_partial_columns(store, "ecs_address", rows,
                                               ttl).result().blowup
                        for rows in by_resolver if rows)
            for ttl in ttls}


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


def overall_blowup(ecs_blowup: float, ecs_fraction: float) -> float:
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


def client_sample_rows(store: "ColumnarStore", clients: Sequence[str],
                       fraction: float, seed: int) -> Optional[List[int]]:
    """The rows of a random ``fraction`` of ``clients`` (None: every row).

    ``clients`` is the population as its builder lists it
    (``AllNamesDataset.client_ips``), not the trace dictionary: the
    sample depends on the list's order and on clients that never query.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    if fraction >= 1.0:
        return None
    rng = random.Random(seed)
    chosen = set(rng.sample(clients, max(1, int(len(clients) * fraction))))
    keep = [client in chosen for client in store.dictionary("client_ip")]
    return [row for row, code in enumerate(store.column("client_ip"))
            if keep[code]]


def allnames_replay(store: "ColumnarStore", clients: Sequence[str],
                    fraction: float = 1.0, seed: int = 0) -> ReplayResult:
    """Replay the All-Names trace for a random fraction of clients."""
    rows = client_sample_rows(store, clients, fraction, seed)
    return replay_partial_columns(store, "client_ip", rows).result()


def client_sweep(store: "ColumnarStore", clients: Sequence[str],
                 fractions: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5,
                                               0.6, 0.7, 0.8, 0.9, 1.0),
                 seeds: Sequence[int] = (1, 2, 3)) -> ClientSweep:
    """Every (fraction, seed) replay behind Figures 2 and 3, computed once.

    Each fraction gets ``len(seeds)`` random client samples, as the
    paper averages three runs per fraction.
    """
    return [(fraction, [allnames_replay(store, clients, fraction, seed)
                        for seed in seeds]) for fraction in fractions]


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
