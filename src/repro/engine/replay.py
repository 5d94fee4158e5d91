"""Sharded trace replay built on mergeable :class:`ReplayPartial`\\ s.

The section 7 cache replays parallelize because both caches — the plain
one keyed by ``(qname, qtype)`` and the ECS one keyed by ``(qname,
qtype, client prefix)`` — partition exactly along query names: no cache
entry is ever shared between two qnames.  Partitioning the trace by a
stable hash of the qname therefore yields shards whose replays are fully
independent; their hit/miss counters add exactly.  Peak cache sizes
sum into the reported peak: the sum of per-bucket peaks, an upper bound
on the whole cache's peak that is exact only at one shard.

The shard count is fixed independently of the worker count, so
``workers=1`` and ``workers=N`` produce identical merged results.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import re
import tempfile
import time
from itertools import chain, islice
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple, Union)

from ..analysis.cache_sim import (ClientSweep, KeyedTrace, ReplayPartial,
                                  ReplayResult, client_sample_rows,
                                  fig1_series, merge_partials,
                                  replay_partial_column_groups,
                                  replay_partial_columns)
from ..datasets.columnar import (ColumnarStore, RowGroupReader,
                                 bucketed_group_ranges, record_row_groups,
                                 trace_input)
from ..datasets.records import TraceFormatError
from ..obs import live as _obs_live
from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace
from .executor import EngineReport, run_sharded
from .generate import _count_generated_rows
from .sharding import DEFAULT_SHARDS, ShardSpec, stable_bucket


def _allnames_client(r: Any) -> str:
    return str(r.client_ip)


def _public_cdn_client(r: Any) -> str:
    return str(r.ecs_address)


def _scope(r: Any) -> int:
    return int(r.scope)


def _ttl(r: Any) -> int:
    return int(r.ttl)


#: One field accessor: trace records are plain dataclasses read by name.
Accessor = Callable[[Any], Any]

#: Accessor trios by trace kind, for the readable ``replay_partial``
#: oracle.  Module-level named functions (not lambdas) so they pickle.
ACCESSORS: Dict[str, Tuple[Accessor, Accessor, Accessor]] = {
    "allnames": (_allnames_client, _scope, _ttl),
    "public-cdn": (_public_cdn_client, _scope, _ttl),
}

#: Client-address field per trace kind, for the batched fast lane.
CLIENT_FIELDS: Dict[str, str] = {
    "allnames": "client_ip",
    "public-cdn": "ecs_address",
}


def _observed_replay(kind: str,
                     replay: Callable[[], ReplayPartial]) -> ReplayPartial:
    """Replay one shard under whichever collectors are active.

    The one epilogue of the three trace-replay worker entry points.
    Observability is strictly out-of-band: ``replay()`` — the entry's
    :mod:`~repro.analysis.cache_sim` adapter call — runs the same with a
    tracer or without.  A tracer gets one ``replay`` span per shard whose
    attributes are the shard's whole outcome: ``kind``, ``rows`` and the
    six :class:`ReplayPartial` fields under their own names, so a trace
    file accounts for every replayed row and shows the per-shard peaks
    that :meth:`ReplayPartial.merge` sums.  A registry gets the same
    counters after the fact.  The None guards live here, once (RS003).
    """
    tracer = _obs_trace.ACTIVE
    if tracer is None:
        partial = replay()
    else:
        with tracer.span("replay", kind=kind) as shard_span:
            partial = replay()
            shard_span.attrs.update(rows=partial.queries,
                                    **dataclasses.asdict(partial))
    reg = _obs_metrics.ACTIVE
    if reg is not None:
        _record_replay_metrics(reg, kind, partial)
    return partial


def _record_replay_metrics(reg: _obs_metrics.MetricsRegistry, kind: str,
                           partial: ReplayPartial) -> None:
    """Record one shard's replay outcome as aggregate instruments.

    Called once per shard *after* the hot loop, so metrics collection adds
    a constant per-shard cost rather than a per-record one.  Peak sizes go
    to a sum-mode gauge because disjoint shard caches add (the same
    argument as :class:`ReplayPartial` merging).
    """
    lookups = reg.counter(
        "repro_replay_cache_lookups_total",
        "Replay cache lookups by trace kind, cache flavor and outcome.",
        ("kind", "cache", "outcome"))
    lookups.inc(partial.hits_ecs, kind, "ecs", "hit")
    lookups.inc(partial.misses_ecs, kind, "ecs", "miss")
    lookups.inc(partial.hits_no_ecs, kind, "plain", "hit")
    lookups.inc(partial.misses_no_ecs, kind, "plain", "miss")
    peak = reg.gauge(
        "repro_replay_cache_peak_entries",
        "Summed per-shard peak cache occupancy during replay.",
        ("kind", "cache"), mode="sum")
    peak.inc(partial.max_size_ecs, kind, "ecs")
    peak.inc(partial.max_size_no_ecs, kind, "plain")
    reg.counter("repro_replay_queries_total",
                "Trace records replayed, by trace kind.",
                ("kind",)).inc(partial.queries, kind)


def _check_kind_and_shards(kind: str, shards: int) -> None:
    if kind not in CLIENT_FIELDS:
        raise ValueError(f"unknown trace kind {kind!r}; "
                         f"expected one of {sorted(CLIENT_FIELDS)}")
    if shards <= 0:
        raise ValueError("shards must be >= 1")


def _queries(partial: ReplayPartial) -> int:
    """A replay shard's record count (runs in the worker: picklable)."""
    return partial.queries


def _replay_shards(worker: Callable[..., ReplayPartial],
                   shard_args: Sequence[Tuple[Any, ...]],
                   shared: Tuple[Any, ...], kind: str, workers: int
                   ) -> Tuple[ReplayResult, EngineReport]:
    """Run one replay worker call per shard and merge the partials.

    The common tail of every sharded replay: ``worker`` receives
    ``(*shared, *shard_args[i])``; the partials merge associatively via
    :func:`repro.analysis.cache_sim.merge_partials`.
    """
    partials, report = run_sharded(
        worker, shard_args, workers=workers, task=f"replay:{kind}",
        count_of=_queries, shared=shared)
    return merge_partials(partials), report


# ---------------------------------------------------------------------------
# JSONL dispatch: the parent routes raw lines to one spill file per qname
# bucket, workers parse their own file into columns.

#: Fast-path qname extraction from a compact JSONL line; anything else
#: (escapes, re-ordered whitespace, damage) goes to :func:`_slow_qname`.
_QNAME_RE = re.compile(r'"qname":"([^"\\]*)"')

#: Distinct qnames whose bucket the routing loop remembers before it
#: starts over: the hash runs once per name, not once per row, and the
#: table (about 120 bytes a name) stays under 4 MiB on any trace.
_ROUTE_MEMO_NAMES = 1 << 15

#: Lines the router reads before it writes each bucket's share to its
#: spill file: the parent holds one batch of lines, never the trace.
_SPILL_BATCH_LINES = 4096


def _slow_qname(line: str) -> str:
    """The qname of a line the regex cannot read, by a full JSON parse.

    A line with none routes as ``""``: it goes to some shard, whose
    parse rejects it with the reason.
    """
    try:
        qname = json.loads(line.strip())["qname"]
    except (ValueError, KeyError, TypeError, RecursionError):
        return ""
    return qname if type(qname) is str else ""


def _parse_lines(kind: str, lines: Iterable[str]) -> ColumnarStore:
    """One shard's JSONL lines (its open spill file) as an in-memory
    columnar store.

    A function of its own, called once per shard, because
    ``benchmarks/e2e`` times it by name as the JSONL parse layer.
    """
    return ColumnarStore.from_jsonl_lines(lines, kind)


def _replay_lines_shard(kind: str, spill: str) -> ReplayPartial:
    """Worker entry point: parse one shard's spill file, then replay.

    The file is read a chunk of lines at a time into columns (no record
    object per row), keyed as a :class:`KeyedTrace` like a ``.col``
    file's groups, so the parsing location (parent vs worker) and the
    file format can never change replay output.
    """
    tracer = _obs_trace.ACTIVE
    with (tracer.span("parse", kind=kind) if tracer is not None
          else contextlib.nullcontext()), \
            open(spill, "r", encoding="utf-8") as fh:
        store = _parse_lines(kind, fh)
    return _observed_replay(kind, lambda: replay_partial_columns(
        KeyedTrace([store], len(store), CLIENT_FIELDS[kind])))


def _spill_buckets(path: Union[str, Path], shards: int,
                   spill_dir: str) -> Tuple[List[str], int]:
    """Route every non-blank line of ``path`` to its qname bucket's spill
    file under ``spill_dir``; the files' paths and the lines routed.

    One pass in text mode, so lines split where every JSONL reader
    splits them.  A line is routed raw (a substring scan, no JSON
    parse; the bucket of a name is remembered, so the hash runs once
    per distinct name) and stripped by the worker that parses it.
    """
    spills = [os.path.join(spill_dir, f"bucket-{index:04d}.jsonl")
              for index in range(shards)]
    pending: List[List[str]] = [[] for _ in range(shards)]
    appends = [bucket.append for bucket in pending]
    route: Dict[str, Callable[[str], None]] = {}
    search = _QNAME_RE.search
    routed = 0
    with contextlib.ExitStack() as stack:
        outs = [stack.enter_context(open(spill, "w", encoding="utf-8"))
                for spill in spills]
        fh = stack.enter_context(open(path, "r", encoding="utf-8"))
        while True:
            batch = list(islice(fh, _SPILL_BATCH_LINES))
            if not batch:
                return spills, routed
            for line in batch:
                match = search(line)
                if match is not None:
                    qname = match.group(1)
                elif line.isspace():
                    continue
                else:
                    qname = _slow_qname(line)
                append = route.get(qname)
                if append is None:
                    if len(route) >= _ROUTE_MEMO_NAMES:
                        route.clear()
                    append = route[qname] = \
                        appends[stable_bucket(qname, shards)]
                append(line)
            for out, lines in zip(outs, pending):
                routed += len(lines)
                out.write("".join(lines))
                lines.clear()


def replay_jsonl_sharded(path: Union[str, Path], kind: str,
                         shards: int = DEFAULT_SHARDS, workers: int = 1
                         ) -> Tuple[ReplayResult, EngineReport]:
    """Replay a saved JSONL trace; line parsing happens in the workers.

    The parent streams the file once and appends each raw line to its
    qname bucket's spill file in a private temporary directory
    (:func:`_spill_buckets`), holding one batch of lines at a time.
    Each worker parses its own shard's file a chunk at a time into the
    columns the replay kernel reads, so the expensive work — the JSON
    parse plus the replay itself — parallelizes, and the pool boundary
    carries one path per shard.  The directory (one transient copy of
    the trace's non-blank lines) is removed however the replay ends.
    Counter-identical to the ``replay_partial`` oracle over the file's
    records, qname bucket by qname bucket.

    Every line must be a row of the ``kind`` schema, exactly as
    ``convert`` requires; one that is not raises
    :class:`~repro.datasets.records.JsonlFormatError` naming the file
    as given and the line (:func:`~repro.datasets.columnar.trace_input`).
    """
    _check_kind_and_shards(kind, shards)
    # Bytes that are not UTF-8, or a lone surrogate in a qname (hashing
    # it encodes it) or in a shard's dictionary, fail as a UnicodeError
    # that trace_input numbers by one scan of the trace.
    with trace_input(f"replay:{kind}", path, kind), \
            tempfile.TemporaryDirectory(prefix="repro-replay-") as spill_dir:
        bucket_start = time.perf_counter()
        tracer = _obs_trace.ACTIVE
        with (tracer.span("bucket", kind=kind, shards=shards)
              if tracer is not None else contextlib.nullcontext()):
            spills, routed = _spill_buckets(path, shards, spill_dir)
        emitter = _obs_live.ACTIVE
        if emitter is not None:
            emitter.beat("bucket", f"replay:{kind}", records=routed,
                         seconds=time.perf_counter() - bucket_start)
        return _replay_shards(_replay_lines_shard,
                              [(spill,) for spill in spills],
                              (kind,), kind, workers)


# ---------------------------------------------------------------------------
# Columnar dispatch: workers open one shared file by path.


def _keyed_file(path: str, client_field: str, clients: bool) -> KeyedTrace:
    """A ``.col`` trace as a :class:`KeyedTrace`, its row groups keyed
    one group's mapped pages at a time; the file is unmapped once keyed."""
    with RowGroupReader(path) as reader:
        return KeyedTrace(reader.walk(), reader.rows, client_field, clients)


class _Slot:
    """The one opened trace a process keeps between replay tasks.

    The per-worker dataset cache of the columnar paths: every task over
    one file finds the :class:`KeyedTrace` (or, for a pre-bucketed file,
    the :class:`RowGroupReader`) the first one opened.  It is keyed by
    the file's identity — ``(st_dev, st_ino, size, mtime_ns)`` — and by
    what was opened, so a path rewritten or replaced in place (tests do
    this constantly) is opened afresh, and opening anything else closes
    and drops what was held.  Deterministic because what is opened
    depends only on the file bytes.
    """

    def __init__(self) -> None:
        self.key: Optional[Tuple[Any, ...]] = None
        self.value: Any = None

    def open(self, opener: Callable[..., Any], path: str, *args: Any) -> Any:
        """``opener(path, *args)``, or what the last call opened when
        both name the same file and the same opener and arguments."""
        stat = os.stat(path)
        key = (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns,
               opener, *args)
        if key != self.key:
            self.clear()
            self.value = opener(path, *args)
            self.key = key
        return self.value

    def clear(self) -> None:
        """Drop what is held, closing a reader."""
        value, self.key, self.value = self.value, None, None
        if isinstance(value, RowGroupReader):
            value.close()


_HELD = _Slot()


def _replay_columnar_shard(path: str, kind: str, shards: int,
                           bucket: int) -> ReplayPartial:
    """Worker entry point: replay one qname bucket of a whole trace.

    The work unit crossing the pool boundary is ``(bucket,)`` plus the
    shared ``(path, kind, shards)`` header — never rows.  The worker
    holds the trace once, as a :class:`KeyedTrace` (:data:`_HELD`), so
    the buckets of one trace share its key ids and its bucket tables;
    the hot loop reads them, traced or not.
    """
    trace: KeyedTrace = _HELD.open(_keyed_file, path, CLIENT_FIELDS[kind],
                                   False)
    rows = trace.qname_buckets(shards)[bucket]
    return _observed_replay(
        kind, lambda: replay_partial_columns(trace, rows=rows))


def _replay_columnar_range(path: str, kind: str, group_start: int,
                           group_end: int) -> ReplayPartial:
    """Worker entry point: replay one group range of a pre-bucketed file.

    The out-of-core work unit: ``(group_start, group_end)`` plus the
    shared ``(path, kind)`` header cross the pool boundary, and the
    worker walks only its own groups' pages — one group's columns
    resident at a time, traced or not; the kernel keys every group's rows
    in its own id space, by name and address rather than by group-local
    dictionary code, so counters are identical to a flat replay of the
    same rows.
    """
    reader: RowGroupReader = _HELD.open(RowGroupReader, path)
    field = CLIENT_FIELDS[kind]
    record_row_groups("replayed", reader.schema.name,
                      group_end - group_start)
    return _observed_replay(
        kind, lambda: replay_partial_column_groups(
            reader.walk(group_start, group_end), field))


def replay_columnar_sharded(path: Union[str, Path], kind: str,
                            shards: int = DEFAULT_SHARDS, workers: int = 1
                            ) -> Tuple[ReplayResult, EngineReport]:
    """Replay a columnar trace; every worker opens the same file.

    The counterpart of :func:`replay_jsonl_sharded` that ships no rows:
    instead of routing raw lines through the pool, the parent ships only
    the shared ``(path, kind, shards)`` header and per-shard bucket
    indices; each worker builds the trace's :class:`KeyedTrace` once,
    a group's pages at a time, buckets its rows by qname and runs the
    column replay.
    Counter-identical to the ``replay_partial`` oracle over the file's
    records, qname bucket by qname bucket, for any
    worker count — the equivalence suite pins it.

    Bounded memory needs a file pre-bucketed for exactly ``shards``
    buckets (``repro-ecs convert --bucket-shards``, see
    :func:`repro.datasets.columnar.convert_columnar`), which takes
    the out-of-core path instead: the parent reads only the header,
    dispatches disjoint ``(group_start, group_end)`` row-group ranges,
    and each worker streams its own groups, one resident at a time.
    Rows within a bucket keep their file order, so results are
    counter-identical to the flat path over the same trace.  A file
    that cannot be trusted, holds another kind's rows or is pre-bucketed
    for another shard count raises
    :class:`~repro.datasets.records.TraceFormatError` naming ``path``
    as given, a worker's reason intact
    (:func:`~repro.datasets.columnar.trace_input`).
    """
    _check_kind_and_shards(kind, shards)
    with trace_input(f"replay:{kind}", path):
        resolved = str(Path(path).resolve())
        ranges = bucketed_group_ranges(resolved, kind)
        if ranges is not None:
            if len(ranges) != shards:
                # A pre-bucketed file is *not* globally ts-ordered, so
                # replaying it under any other partition would interleave
                # buckets out of time order and silently skew every TTL
                # decision.  Refuse rather than mis-replay.
                raise TraceFormatError(
                    path, f"pre-bucketed for {len(ranges)} shards; replay "
                    f"it with --shards {len(ranges)} or re-bucket it for "
                    f"{shards} (repro-ecs convert --bucket-shards {shards})")
            return _replay_shards(_replay_columnar_range, ranges,
                                  (resolved, kind), kind, workers)
        return _replay_shards(_replay_columnar_shard,
                              [(bucket,) for bucket in range(shards)],
                              (resolved, kind, shards), kind, workers)


# ---------------------------------------------------------------------------
# Figure dispatch: the section 7 figures, replayed where the rows are.


def _fig1_shard(spec: ShardSpec, ttls: Tuple[Optional[int], ...],
                shard_index: int
                ) -> Tuple[int, Dict[Optional[int], List[float]]]:
    """Worker entry point: generate one shard's resolvers, replay each.

    The rows stay here as one in-memory store; what crosses the pool is
    ``(row count, TTL -> this shard's blow-ups)``.
    """
    builder = spec.make_builder()
    store = ColumnarStore.from_column_chunks(
        builder.iter_shard_columns(shard_index, spec.shard_count),
        spec.builder)
    _count_generated_rows(builder, len(store))
    return len(store), fig1_series(store, ttls)


def _fig1_rows(part: Tuple[int, Any]) -> int:
    return part[0]


def fig1_sharded(spec: ShardSpec, ttls: Sequence[Optional[int]],
                 workers: int = 1
                 ) -> Tuple[Dict[Optional[int], List[float]], EngineReport]:
    """Figure 1 from a public-cdn spec, one shard of resolvers per task.

    Needs no global order, hence no trace file and no merge: every
    egress resolver lives in exactly one shard, whose ``iter_shard_columns``
    emits each resolver's rows in arrival order — all that
    :func:`~repro.analysis.cache_sim.fig1_series` asks of a store — so
    the sorted union of the shards' factors is the whole trace's series.
    """
    ttls = tuple(ttls)
    parts, report = run_sharded(
        _fig1_shard, [(i,) for i in range(spec.shard_count)],
        workers=workers, task=f"fig1:{spec.builder}",
        count_of=_fig1_rows, shared=(spec, ttls))
    return {ttl: sorted(chain.from_iterable(series[ttl]
                                            for _, series in parts))
            for ttl in ttls}, report


def _client_sample_replay(path: str, clients: List[str], fraction: float,
                          seed: int) -> ReplayPartial:
    """Worker entry point: one (fraction, seed) unit of the client sweep."""
    trace: KeyedTrace = _HELD.open(_keyed_file, path, "client_ip", True)
    return replay_partial_columns(
        trace, client_sample_rows(trace, clients, fraction, seed))


def client_sweep_sharded(path: Union[str, Path], clients: Sequence[str],
                         fractions: Sequence[float], seeds: Sequence[int],
                         workers: int = 1
                         ) -> Tuple[ClientSweep, EngineReport]:
    """:func:`~repro.analysis.cache_sim.client_sweep` over an allnames
    ``.col``, every (fraction, seed) replay its own task: the pool
    carries the shared ``(path, clients)`` header and two numbers per
    unit, and each worker opens the trace once (:data:`_HELD`).
    """
    units = [(fraction, seed) for fraction in fractions for seed in seeds]
    partials, report = run_sharded(
        _client_sample_replay, units, workers=workers,
        task="sweep:allnames", count_of=_queries,
        shared=(str(Path(path).resolve()), list(clients)))
    results = [partial.result() for partial in partials]
    per = len(seeds)
    return [(fraction, results[i * per:(i + 1) * per])
            for i, fraction in enumerate(fractions)], report
