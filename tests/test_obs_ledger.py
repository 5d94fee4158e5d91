"""The tracer's cost ledger: what ``--report``'s per-layer table reads.

Every closed span books one call and its self time (duration minus its
child spans) under its name.  The tests pin the ledger's own algebra —
an aggregate-only tracer stores nothing, self times sum to the root,
shard ledgers fold identically at any worker count — and that its call
counts are the traffic the program really sent: datagrams, decoded
queries, cache lookups and replayed rows.
"""

from __future__ import annotations

import time

import pytest

from repro.cli import main as cli_main
from repro.datasets.scan_dataset import ScanUniverseBuilder
from repro.engine.generate import generate_columnar, generate_jsonl
from repro.engine.replay import replay_columnar_sharded, replay_jsonl_sharded
from repro.engine.sharding import ShardSpec
from repro.faults.chaos import run_chaos
from repro.faults.presets import preset
from repro.measure import Scanner
from repro.obs import Tracer, observe
from repro.obs import live as obs_live
from repro.obs.export import parse_prometheus
from repro.obs.live import LiveSink
from repro.resolvers.recursive import RecursiveResolver

#: Span names of the endpoints a datagram is delivered to.
ENDPOINT_SPANS = ("forward", "resolve", "authoritative", "frontend", "serve")


def _calls(ledger):
    return {name: calls for name, (calls, _) in ledger.items()}


def _self_sum(ledger):
    return sum(seconds for _, seconds in ledger.values())


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory):
    """One small allnames trace, as ``.col`` and as JSONL."""
    base = tmp_path_factory.mktemp("ledger")
    spec = ShardSpec.create("allnames", shard_count=4, scale=0.01, seed=3)
    col, jsonl = base / "t.col", base / "t.jsonl"
    rows, _ = generate_columnar(spec, col)
    generate_jsonl(spec, jsonl)
    return col, jsonl, rows


class TestLedgerAlgebra:
    def test_aggregate_only_tracer_stores_no_span(self):
        tracer = Tracer(limit=0)
        for _ in range(3):
            with tracer.span("outer"):
                with tracer.span("inner", qname="a.example."):
                    tracer.event("cache_lookup", hit=False)
        assert tracer.spans == []
        assert _calls(tracer.ledger()) == {"outer": 3, "inner": 3,
                                           "cache_lookup": 3}
        assert tracer.ledger()["cache_lookup"][1] == 0.0

    def test_self_times_sum_to_the_root(self, trace_files):
        col, _, _ = trace_files
        with observe(metrics=False, tracing=True, span_limit=0) as session:
            with session.tracer.span("command") as root:
                with session.tracer.span("child"):
                    time.sleep(0.002)
                # An inline run: the shards' seconds are dispatch's child
                # time, so nothing is counted twice.
                replay_columnar_sharded(col, "allnames", shards=4)
        ledger = session.tracer.ledger()
        assert ledger["replay"][0] == 4 and ledger["dispatch"][0] == 1
        assert _self_sum(ledger) == pytest.approx(root.duration, abs=1e-9)
        assert all(seconds >= 0 for _, seconds in ledger.values())

    def test_shard_ledgers_merge_identically_across_workers(self,
                                                            trace_files):
        col, jsonl, _ = trace_files

        def ledger_calls(workers):
            with observe(metrics=False, tracing=True,
                         span_limit=0) as session:
                replay_columnar_sharded(col, "allnames", shards=4,
                                        workers=workers)
                replay_jsonl_sharded(jsonl, "allnames", shards=4,
                                     workers=workers)
            assert session.tracer.spans == []
            return _calls(session.tracer.ledger())

        one = ledger_calls(1)
        assert one == ledger_calls(2)
        assert one == {"dispatch": 2, "bucket": 1, "parse": 4, "replay": 8}

    def test_run_document_shows_the_shard_ledgers(self, trace_files):
        _, jsonl, _ = trace_files
        with observe(metrics=True, tracing=True, span_limit=0) as session:
            sink = LiveSink()
            previous = obs_live.swap(sink.emitter())
            try:
                replay_jsonl_sharded(jsonl, "allnames", shards=4)
            finally:
                obs_live.swap(previous)
                sink.close()
        layers = sink.run_status()["layers"]
        # The shards' ledgers come back with their results; the parent's
        # own (bucket, dispatch) reach the registry at export.
        assert {name: row["calls"] for name, row in layers.items()} == {
            "parse": 4, "replay": 4}
        ledger = session.tracer.ledger()
        assert layers["replay"]["seconds"] == pytest.approx(
            ledger["replay"][1], abs=1e-5)

    def test_registry_gets_the_ledger_once(self, tmp_path, trace_files):
        _, jsonl, _ = trace_files
        prom = tmp_path / "m.prom"
        assert cli_main(["--quiet", "--report", "--metrics-out", str(prom),
                         "replay", "allnames", str(jsonl),
                         "--workers", "2"]) == 0
        families = parse_prometheus(prom.read_text())
        calls = {labels["layer"]: value for _, labels, value
                 in families["repro_layer_calls_total"]["samples"]}
        assert calls == {"command": 1, "dispatch": 1, "bucket": 1,
                         "parse": 8, "replay": 8}


class TestLedgerCountsTraffic:
    """The ledger's call counts are the traffic, on one universe."""

    @pytest.fixture(scope="class")
    def scanned(self):
        universe = ScanUniverseBuilder(seed=0, ingress_count=300).build()
        with observe(metrics=False, tracing=True, span_limit=0) as session:
            Scanner(universe).scan()
        return universe, _calls(session.tracer.ledger())

    def test_net_query_calls_are_datagrams(self, scanned):
        universe, calls = scanned
        assert calls["net.query"] == universe.net.stats.datagrams > 0

    def test_endpoint_calls_are_decoded_queries(self, scanned):
        universe, calls = scanned
        net = universe.net
        # A clean universe: every datagram reaching an endpoint decodes.
        received = sum(net.endpoint_at(ip).queries_received
                       for ip in net.stats.per_destination
                       if net.endpoint_at(ip) is not None)
        assert sum(calls.get(name, 0) for name in ENDPOINT_SPANS) \
            == received > 0

    def test_cache_lookups_are_cache_stats(self, scanned):
        universe, calls = scanned
        net = universe.net
        caches = {id(ep.cache): ep.cache.stats for ep in map(
            net.endpoint_at, net.stats.per_destination)
            if isinstance(ep, RecursiveResolver)}
        assert calls["cache_lookup"] == sum(
            stats.hits + stats.misses for stats in caches.values()) > 0

    def test_replay_spans_count_the_rows(self, trace_files):
        col, jsonl, rows = trace_files
        for path, replay in ((col, replay_columnar_sharded),
                             (jsonl, replay_jsonl_sharded)):
            with observe(metrics=False, tracing=True) as session:
                _, report = replay(path, "allnames", shards=4)
            spans = [s for s in session.tracer.spans if s.name == "replay"]
            assert len(spans) == 4
            assert sum(s.attrs["rows"] for s in spans) \
                == report.total_records == rows

    def test_live_ledger_calls_worker_independent(self):
        def ledger_calls(workers):
            with observe(metrics=False, tracing=True,
                         span_limit=0) as session:
                run_chaos(preset("lossy"), seed=1, ingress=40, shards=4,
                          workers=workers)
            return _calls(session.tracer.ledger())

        one = ledger_calls(1)
        assert one == ledger_calls(4)
        assert one["dispatch"] == 1 and one["build"] == one["scan"] == 4
