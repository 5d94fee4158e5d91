"""Which public callables of ``repro`` are traced, under which layer name.

Layer names are the packages under ``src/repro/``.  :func:`install`
rebinds the entry points listed in the table of ``README.md`` to
span-recording wrappers and returns the :class:`Probe` that holds the
tracer and the counts taken at the same boundaries; :meth:`Probe.check`
is the tracer's self-check, which turns a call site the wrappers missed
into an error instead of a silently smaller share.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.analysis.cache_sim as cache_sim
import repro.analysis.mapping_quality as mapping_quality
import repro.auth.cdn  # noqa: F401  (endpoint subclasses must be loaded)
import repro.auth.flattening  # noqa: F401
import repro.auth.scan_experiment  # noqa: F401
import repro.datasets.columnar as columnar
import repro.dnslib.wire as wire
import repro.engine.executor as executor
import repro.engine.generate  # noqa: F401  (binds run_sharded by name)
import repro.engine.replay as engine_replay
import repro.faults.chaos  # noqa: F401
import repro.faults.retry as retry
import repro.resolvers.anycast  # noqa: F401
import repro.resolvers.forwarder  # noqa: F401
from repro.auth.server import DnsServer
from repro.core.cache import EcsCache
from repro.datasets.allnames import AllNamesBuilder
from repro.datasets.scan_dataset import ScanUniverseBuilder
from repro.dnslib.message import Message
from repro.faults.plan import BoundPlan
from repro.measure.atlas import AtlasProbe
from repro.measure.caching_probe import CachingBehaviorProber
from repro.measure.digclient import StubClient
from repro.measure.scanner import Scanner
from repro.net.transport import Network
from repro.resolvers.recursive import RecursiveResolver

from tracer import Tracer

#: Which spans open a new op, per kind of workload: a stub-client query
#: (one probe or sample), or one resolver's caching probe.
OP_ENTRIES = ("client", "probe", None)


def _endpoint_classes() -> Iterator[type]:
    """Every loaded DnsServer subclass that defines ``handle_query``."""
    pending = list(DnsServer.__subclasses__())
    seen = set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        if "handle_query" in vars(cls):
            yield cls


def _endpoint_span(cls: type) -> str:
    if cls.__module__.startswith("repro.resolvers."):
        return "resolvers.recursive" if issubclass(cls, RecursiveResolver) \
            else "resolvers.forwarder"
    if cls.__module__.startswith("repro.auth."):
        return "auth.handle"
    raise LookupError(f"endpoint {cls.__module__}.{cls.__qualname__} "
                      f"belongs to no traced layer")


class Probe:
    """The installed tracer plus the counts its wrappers take."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.counts: Dict[str, int] = defaultdict(int)
        #: Stats objects of every Network / EcsCache the wrappers saw,
        #: keyed by id; holding the stats keeps the id unique without
        #: keeping the universe alive.
        self._net_stats: Dict[int, Any] = {}
        self._cache_stats: Dict[int, Any] = {}

    # -- result hooks (run inside the span they count for) -------------------

    def _encoded(self, args: Tuple[Any, ...], wire_bytes: bytes) -> None:
        self.counts["wire_bytes"] += len(wire_bytes)

    def _queried(self, args: Tuple[Any, ...], outcome: Any) -> None:
        stats = args[0].stats
        self._net_stats[id(stats)] = stats
        if outcome.timed_out:
            self.counts["net.timeouts"] += 1

    def _looked_up(self, args: Tuple[Any, ...], cached: Any) -> None:
        stats = args[0].stats
        self._cache_stats[id(stats)] = stats
        if cached is not None:
            self.counts["cache.hits"] += 1

    def _retried(self, args: Tuple[Any, ...], outcome: Any) -> None:
        self.counts["retry.attempts"] += outcome.attempts

    def _hooked(self, args: Tuple[Any, ...], action: Any) -> None:
        if action is not None:
            self.counts["faults.injected"] += 1

    def _replayed(self, args: Tuple[Any, ...], partial: Any) -> None:
        self.counts["replay.rows"] += partial.queries

    def _group_read(self, args: Tuple[Any, ...], store: Any) -> None:
        self.counts["read.groups"] += 1

    def _count_datagrams(self, handle: Callable[..., Optional[bytes]]
                         ) -> Callable[..., Optional[bytes]]:
        """Count deliveries and responses without opening a span: the
        server's own framing stays in its caller's self time."""
        counts = self.counts
        tracer = self.tracer

        def handle_datagram(*args: Any, **kwargs: Any) -> Optional[bytes]:
            if not tracer.active:
                return handle(*args, **kwargs)
            counts["deliveries"] += 1
            response = handle(*args, **kwargs)
            if response is not None:
                counts["responses"] += 1
                if len(response) > 2 and response[2] & 0x02:
                    # TC=1 comes only from DnsServer's size check, which
                    # encodes the full response first and the empty
                    # truncated one second.
                    counts["responses.reencoded"] += 1
            return response

        return handle_datagram

    # -- the self-check ------------------------------------------------------

    def check(self, calls: Dict[str, int],
              expected: Dict[str, int]) -> List[str]:
        """Mismatches between span counts and the program's own tallies.

        ``calls`` are the per-name span counts of the traced pass;
        ``expected`` holds what the workload knows must have happened,
        keyed by a count name or by ``calls:<span name>``.
        """
        counts = self.counts
        found: List[str] = []

        def same(what: str, got: int, want: int) -> None:
            if got != want:
                found.append(f"{what}: traced {got}, program says {want}")

        same("dnslib.encode calls = net.query calls + responses produced",
             calls.get("dnslib.encode", 0),
             calls.get("net.query", 0) + counts["responses"]
             + counts["responses.reencoded"])
        same("dnslib.decode calls = datagrams delivered + responses",
             calls.get("dnslib.decode", 0),
             counts["deliveries"] + counts["responses"])
        same("net.query calls = NetworkStats.datagrams",
             calls.get("net.query", 0),
             sum(s.datagrams for s in self._net_stats.values()))
        same("core.cache lookups = EcsCache.stats hits + misses",
             calls.get("core.cache.lookup", 0),
             sum(s.hits + s.misses for s in self._cache_stats.values()))
        same("core.cache hits = EcsCache.stats hits", counts["cache.hits"],
             sum(s.hits for s in self._cache_stats.values()))
        same("faults injected = NetworkStats.faults_injected",
             counts["faults.injected"],
             sum(s.faults_injected for s in self._net_stats.values()))
        for key, want in expected.items():
            got = calls.get(key[len("calls:"):], 0) \
                if key.startswith("calls:") else counts[key]
            same(key, got, want)
        return found


def install(op_entry: Optional[str]) -> Probe:
    """Rebind every traced entry point; returns the live probe."""
    if op_entry not in OP_ENTRIES:
        raise ValueError(f"op_entry must be one of {OP_ENTRIES}")
    probe = Probe()
    tracer = probe.tracer
    wrap = tracer.wrap

    def function(module: Any, attr: str, name: str,
                 on_result: Any = None) -> None:
        fn = getattr(module, attr)
        tracer.rebind_function(fn, wrap(fn, name, on_result))

    def method(cls: type, attr: str, name: str, on_result: Any = None,
               starts_op: bool = False) -> None:
        tracer.rebind_method(cls, attr, wrap(vars(cls)[attr], name,
                                             on_result, starts_op))

    # dnslib
    function(wire, "encode_message", "dnslib.encode", probe._encoded)
    function(wire, "decode_message", "dnslib.decode")
    method(Message, "copy", "dnslib.copy")
    # net
    method(Network, "query", "net.query", probe._queried)
    method(Network, "tcp_handshake_ms", "net.handshake")
    # resolvers and auth: every endpoint's handle_query, by package
    for cls in sorted(_endpoint_classes(), key=lambda c: c.__qualname__):
        method(cls, "handle_query", _endpoint_span(cls))
    tracer.rebind_method(DnsServer, "handle_datagram",
                         probe._count_datagrams(
                             vars(DnsServer)["handle_datagram"]))
    # core
    method(EcsCache, "lookup", "core.cache.lookup", probe._looked_up)
    method(EcsCache, "store", "core.cache.store")
    # faults
    method(BoundPlan, "on_query", "faults.hooks", probe._hooked)
    method(BoundPlan, "on_response", "faults.hooks", probe._hooked)
    function(retry, "execute_with_retries", "faults.retry", probe._retried)
    # measure: the client is the root span of a live op; the loops that
    # drive it are one more span name, so their time is not lost
    method(StubClient, "query", "measure.client",
           starts_op=op_entry == "client")
    method(Scanner, "scan", "measure.driver")
    method(AtlasProbe, "tcp_handshake_ms", "measure.driver")
    function(mapping_quality, "measure_mapping_quality", "measure.driver")
    for attr in ("probe_all", "probe_megadns", "probe_direct",
                 "probe_via_forwarders"):
        method(CachingBehaviorProber, attr, "measure.driver",
               starts_op=op_entry == "probe" and attr != "probe_all")
    # datasets
    method(ScanUniverseBuilder, "build", "datasets.build")
    tracer.rebind_method(AllNamesBuilder, "iter_shard", tracer.wrap_generator(
        vars(AllNamesBuilder)["iter_shard"], "datasets.build"))
    # GroupedColumnarWriter.append runs once per row inside extend; a
    # span per row would cost more than the append, so it stays part of
    # extend's self time.
    for attr in ("extend", "extend_store", "copy_group", "flush", "close"):
        method(columnar.GroupedColumnarWriter, attr,
               "datasets.columnar.write")
    method(columnar.RowGroupReader, "group", "datasets.columnar.read",
           probe._group_read)
    method(columnar.ColumnarStore, "row_buckets", "datasets.columnar.read")
    opener = vars(columnar.ColumnarStore)["open"].__func__
    tracer.rebind_method(columnar.ColumnarStore, "open", classmethod(
        wrap(opener, "datasets.columnar.read")))
    # _parse_lines is the only callable between a JSONL line and a
    # record object; it is private, so Probe.check pins its call count.
    function(engine_replay, "_parse_lines", "datasets.jsonl.parse")
    # engine
    function(executor, "run_sharded", "engine.dispatch")
    function(columnar, "merge_columnar_shards", "engine.merge")
    function(cache_sim, "merge_partials", "engine.merge")
    # The line-bucketing loop is the body of replay_jsonl_sharded, so
    # that function's self time is the bucketing.
    function(engine_replay, "replay_jsonl_sharded", "engine.bucket")
    # analysis
    for attr in ("replay_partial_batched", "replay_partial_columns",
                 "replay_partial_column_groups"):
        function(cache_sim, attr, "analysis.replay", probe._replayed)
    return probe
