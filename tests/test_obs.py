"""Observability layer: merge algebra, tracing, export and determinism.

The guarantees under test mirror ``tests/test_engine_merge.py``: registry
merging is associative, commutative and has an identity, so shard order
(and therefore worker count) never changes the merged metrics; tracing
reconstructs query lifecycles through parent/child span IDs; and — the
load-bearing property — experiment outputs are byte-identical whether
observability is enabled or not.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.cache_sim import merge_partials, replay_partial
from repro.analysis.report import format_network_stats
from repro.cli import main as cli_main
from repro.datasets.columnar import (convert_columnar,
                                     write_columnar_stream)
from repro.datasets.records import write_jsonl
from repro.engine.generate import generate_columnar
from repro.engine.replay import (ACCESSORS, replay_columnar_sharded,
                                 replay_jsonl_sharded)
from repro.engine.sharding import ShardSpec, partition_by_key
from repro.net.transport import NetworkStats
from repro.obs import MetricsRegistry, Tracer, observe
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.export import (parse_prometheus, to_prometheus,
                              write_spans_jsonl)

from builder_reference import merged_records


def _random_registry(rng: random.Random) -> MetricsRegistry:
    """A registry with random samples across every instrument kind."""
    reg = MetricsRegistry()
    jobs = reg.counter("jobs_total", "Jobs.", ("kind", "outcome"))
    for _ in range(rng.randrange(1, 12)):
        jobs.inc(rng.randrange(1, 50), rng.choice(("a", "b")),
                 rng.choice(("ok", "err")))
    occupancy = reg.gauge("occupancy", "Summed occupancy.", ("site",))
    peak = reg.gauge("peak", "High watermark.", mode="max")
    for _ in range(rng.randrange(1, 6)):
        occupancy.inc(rng.randrange(0, 100), rng.choice(("x", "y")))
        peak.set_max(rng.randrange(0, 1000))
    latency = reg.histogram("latency", "Latency.", buckets=(1.0, 5.0, 25.0))
    for _ in range(rng.randrange(1, 20)):
        # Integer-valued observations keep float sums exact, so the
        # algebra assertions hold bit-for-bit (real merges always run in
        # shard order, so they never rely on float associativity).
        latency.observe(rng.randrange(0, 40))
    return reg


class TestRegistryAlgebra:
    def test_zero_identity(self):
        rng = random.Random(1)
        reg = _random_registry(rng)
        empty = MetricsRegistry()
        assert to_prometheus(reg.merge(empty)) == to_prometheus(reg)
        assert to_prometheus(empty.merge(reg)) == to_prometheus(reg)

    def test_associative(self):
        rng = random.Random(2)
        for _ in range(20):
            a, b, c = (_random_registry(rng) for _ in range(3))
            assert (to_prometheus(a.merge(b).merge(c))
                    == to_prometheus(a.merge(b.merge(c))))

    def test_commutative(self):
        rng = random.Random(3)
        for _ in range(20):
            a, b = (_random_registry(rng) for _ in range(2))
            assert to_prometheus(a.merge(b)) == to_prometheus(b.merge(a))

    def test_copy_of_a_histogram_mid_observe_is_whole(self):
        """A scrape copies the command's registry while the main thread
        observes into it; a copy taken between a bucket's increment and
        the count's holds the count its buckets add up to."""
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        reg.histogram("h").samples()[()][0][1] += 1   # count not yet
        copy = MetricsRegistry().merge_from(reg)
        assert copy.histogram("h").count() == 2
        assert copy.histogram("h").sum() == 0.5

    def test_max_gauge_takes_watermark(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("peak", mode="max").set_max(10)
        b.gauge("peak", mode="max").set_max(7)
        assert a.merge(b).gauge("peak", mode="max").value() == 10

    def test_histogram_bucket_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        b.histogram("h", buckets=(1.0, 3.0)).observe(1.5)
        with pytest.raises(ValueError):
            a.merge_from(b)


class TestTracer:
    def test_parent_child_nesting(self):
        tracer = Tracer()
        with tracer.span("resolve", qname="a.example.") as outer:
            with tracer.span("net.query") as inner:
                tracer.event("cache_lookup", hit=False)
            assert inner is not None
        resolve = next(s for s in tracer.spans if s.name == "resolve")
        query = next(s for s in tracer.spans if s.name == "net.query")
        lookup = next(s for s in tracer.spans if s.name == "cache_lookup")
        assert resolve.parent_id is None
        assert query.parent_id == resolve.span_id
        assert lookup.parent_id == query.span_id
        assert {s.trace_id for s in tracer.spans} == {resolve.trace_id}

    def test_completion_order_children_first(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("mid"):
                with tracer.span("inner"):
                    pass
        assert [s.name for s in tracer.spans] == ["inner", "mid", "outer"]

    def test_limit_counts_dropped(self):
        tracer = Tracer(limit=2)
        for i in range(5):
            tracer.event("e", i=i)
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3

    def test_id_prefix_namespaces_shards(self):
        a, b = Tracer(id_prefix="s0"), Tracer(id_prefix="s1")
        a.event("e")
        b.event("e")
        ids = {a.spans[0].span_id, b.spans[0].span_id}
        assert len(ids) == 2
        assert all("-" in i for i in ids)


class TestPrometheusExport:
    def test_escaping_round_trip(self):
        nasty = 'va\\lue "q"\nnl'
        reg = MetricsRegistry()
        reg.counter("odd_total", 'help with \\ and\nnewline',
                    ("label",)).inc(3, nasty)
        text = to_prometheus(reg)
        assert r"help with \\ and\nnewline" in text
        assert r'label="va\\lue \"q\"\nnl"' in text
        family = parse_prometheus(text)["odd_total"]
        ((name, labels, value),) = family["samples"]
        # The strict parser keeps escape sequences verbatim; undoing
        # them must recover the original label value exactly.
        unescaped = (labels["label"].replace(r"\n", "\n")
                     .replace(r"\"", '"').replace(r"\\", "\\"))
        assert (name, unescaped, value) == ("odd_total", nasty, 3.0)

    def test_histogram_is_cumulative_with_inf(self):
        reg = MetricsRegistry()
        hist = reg.histogram("rtt", "RTT.", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        family = parse_prometheus(to_prometheus(reg))["rtt"]  # validates
        samples = {(n, labels.get("le")): v
                   for n, labels, v in family["samples"]}
        assert samples[("rtt_bucket", "1")] == 1.0
        assert samples[("rtt_bucket", "10")] == 2.0
        assert samples[("rtt_bucket", "+Inf")] == 3.0
        assert samples[("rtt_count", None)] == 3.0
        assert samples[("rtt_sum", None)] == pytest.approx(55.5)

    def test_rendering_ignores_insertion_order(self):
        def build(order):
            reg = MetricsRegistry()
            for name in order:
                reg.counter(name, f"{name}.", ("l",)).inc(1, "v")
            return to_prometheus(reg)

        assert build(("b_total", "a_total")) == build(("a_total", "b_total"))

    def test_spans_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", qname="a.example."):
            tracer.event("inner", hit=True)
        path = tmp_path / "trace.jsonl"
        write_spans_jsonl(tracer.spans, path, dropped=2)
        *rows, summary = map(json.loads, path.read_text().splitlines())
        assert [r["name"] for r in rows] == ["inner", "outer"]
        assert rows[0]["attr_hit"] is True
        assert summary == {"event": "tracer_summary", "spans": 2,
                           "dropped": 2}


@pytest.fixture()
def allnames_records():
    return list(merged_records(ShardSpec.create("allnames", shard_count=4,
                                                scale=0.01, seed=6)))


@pytest.fixture()
def allnames_trace(allnames_records, tmp_path):
    path = tmp_path / "allnames.col"
    write_columnar_stream(allnames_records, path, "allnames")
    return path


class TestShardCapture:
    """Per-shard capture merges identically for every worker count."""

    def test_generate_metrics_worker_independent(self, tmp_path):
        def generate_metrics(workers):
            with observe(metrics=True) as session:
                generate_columnar(
                    ShardSpec.create("allnames", shard_count=4, scale=0.01,
                                     seed=6), tmp_path / f"w{workers}.col",
                    workers=workers)
            return to_prometheus(session.registry)

        assert generate_metrics(1) == generate_metrics(2)

    def test_replay_metrics_worker_independent(self, allnames_records,
                                               allnames_trace):
        def run(workers):
            with observe(metrics=True) as session:
                result, _ = replay_columnar_sharded(
                    allnames_trace, "allnames", shards=4, workers=workers)
            assert session.registry.get(
                "repro_replay_cache_lookups_total") is not None
            return result, session.registry

        result_1, metrics_1 = run(1)
        result_2, metrics_2 = run(2)
        assert result_1 == result_2
        assert to_prometheus(metrics_1) == to_prometheus(metrics_2)
        lookups = sum(v for k, v in metrics_1.get(
            "repro_replay_cache_lookups_total").samples().items()
            if "ecs" in k)
        assert lookups == len(allnames_records)

    def test_traced_replay_counter_identical(self, allnames_records,
                                             tmp_path, replay_spans):
        buckets = partition_by_key(allnames_records, 4, lambda r: r.qname)
        plain = [replay_partial(b, *ACCESSORS["allnames"]) for b in buckets]

        # The same trace in every on-disk form, replayed under a tracer:
        # counters equal the untraced run, and each shard's one `replay`
        # span records the oracle's partial of its qname bucket.
        jsonl, one, v2, bucketed = (tmp_path / name for name in (
            "t.jsonl", "one.col", "v2.col", "bucketed.col"))
        write_jsonl(allnames_records, jsonl)
        write_columnar_stream(allnames_records, one, "allnames")
        write_columnar_stream(allnames_records, v2, "allnames", 256)
        convert_columnar(v2, bucketed, buckets=4, row_group_rows=256)
        for path in (jsonl, one, v2, bucketed):
            replay = (replay_jsonl_sharded if path is jsonl
                      else replay_columnar_sharded)
            with observe(tracing=True) as session:
                result, _ = replay(path, "allnames", shards=4, workers=1)
            assert result == merge_partials(plain), path.name
            assert replay_spans(session.tracer.spans) == plain, path.name

    def test_trace_topology_worker_independent(self, allnames_trace):
        def topology(workers):
            with observe(tracing=True) as session:
                replay_columnar_sharded(allnames_trace, "allnames",
                                        shards=4, workers=workers)
            return [(s.trace_id, s.span_id, s.parent_id, s.name)
                    for s in session.tracer.spans]

        topo = topology(1)
        assert topo == topology(2)
        # Shard tracers namespace their IDs; the parent's one span is the
        # run's dispatch, closed after every shard span it folded in.
        assert topo[-1] == ("t-1", "t-1", None, "dispatch")
        prefixes = {span_id.split("-")[0] for _, span_id, _, _ in topo[:-1]}
        assert prefixes == {"s0", "s1", "s2", "s3"}

    def test_observe_restores_previous_state(self):
        assert obs_metrics.ACTIVE is None and obs_trace.ACTIVE is None
        with observe(metrics=True, tracing=True):
            assert obs_metrics.ACTIVE is not None
            assert obs_trace.ACTIVE is not None
        assert obs_metrics.ACTIVE is None and obs_trace.ACTIVE is None


class TestNetworkStats:
    def test_rates_idle_are_zero(self):
        stats = NetworkStats()
        assert stats.timeout_rate() == 0.0
        assert stats.drop_rate() == 0.0

    def test_rates_are_fractions_of_datagrams(self):
        stats = NetworkStats(datagrams=200, timeouts=30, drops=10)
        assert stats.timeout_rate() == pytest.approx(0.15)
        assert stats.drop_rate() == pytest.approx(0.05)

    def test_format_network_stats_renders_rates(self):
        stats = NetworkStats(datagrams=200, bytes_sent=999, timeouts=30,
                             drops=10)
        text = format_network_stats(stats, title="Net")
        assert "timeout rate" in text and "15.00%" in text
        assert "drop rate" in text and "5.00%" in text


def _read_reports(out_dir: Path):
    return {p.name: p.read_bytes()
            for p in sorted(out_dir.rglob("*.txt"))}


class TestCliDeterminism:
    """Observability flags never change experiment outputs (acceptance)."""

    def test_caching_reports_identical_with_obs(self, tmp_path):
        plain, observed = tmp_path / "plain", tmp_path / "observed"
        assert cli_main(["--quiet", "--out", str(plain),
                         "caching", "--ingress", "25"]) == 0
        assert cli_main(["--quiet", "--out", str(observed), "--report",
                         "--metrics-out", str(tmp_path / "m.prom"),
                         "--trace-out", str(tmp_path / "t.jsonl"),
                         "caching", "--ingress", "25"]) == 0
        assert _read_reports(plain) == _read_reports(observed)
        assert parse_prometheus((tmp_path / "m.prom").read_text())
        assert len((tmp_path / "t.jsonl").read_text().splitlines()) > 1

    def test_replay_identical_across_workers_and_obs(self, tmp_path):
        trace = tmp_path / "allnames.jsonl"
        assert cli_main(["--quiet", "generate", "allnames", str(trace),
                         "--scale", "0.01"]) == 0
        outs, proms = [], []
        for tag, workers, flags in (
                ("a", "1", []),
                ("b", "1", ["--metrics-out", str(tmp_path / "b.prom")]),
                ("c", "2", ["--metrics-out", str(tmp_path / "c.prom")]),
                ("d", "2", ["--report"])):
            out = tmp_path / tag
            assert cli_main(["--quiet", "--out", str(out), *flags,
                             "replay", "allnames", str(trace),
                             "--workers", workers]) == 0
            outs.append(_read_reports(out))
        assert outs[0] == outs[1] == outs[2] == outs[3]
        assert ((tmp_path / "b.prom").read_bytes()
                == (tmp_path / "c.prom").read_bytes())


class TestImportFootprint:
    """Instrumented code pays only for the modules whose slots it reads."""

    def _modules_after(self, code):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; {code}; print(*sys.modules)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        return set(proc.stdout.split())

    def test_instrumented_code_loads_no_server_or_profiler(self):
        loaded = self._modules_after(
            "import repro.net.transport, repro.engine.replay, "
            "repro.engine.generate, repro.faults.chaos, "
            "repro.measure.scanner")
        assert "repro.obs.live" in loaded  # the engine reads that slot
        assert not loaded & {"http.server", "cProfile", "pstats",
                             "repro.obs.server"}

    def test_package_import_loads_metrics_and_trace_only(self):
        # ``import repro`` pulls in the engine (and with it obs.live), so
        # a bare stand-in parent isolates what obs/__init__.py imports.
        loaded = self._modules_after(
            "import types; from importlib.machinery import PathFinder; "
            "pkg = sys.modules['repro'] = types.ModuleType('repro'); "
            "pkg.__path__ = PathFinder.find_spec('repro')"
            ".submodule_search_locations; import repro.obs")
        assert {m for m in loaded if m.startswith("repro.obs.")} == {
            "repro.obs.metrics", "repro.obs.trace"}


class TestLifecycleTrace:
    """A query is followable client -> resolver -> authoritative."""

    @pytest.fixture(scope="class")
    def spans(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "caching.jsonl"
        assert cli_main(["--quiet", "--trace-out", str(path),
                         "caching", "--ingress", "20"]) == 0
        return list(map(json.loads, path.read_text().splitlines()[:-1]))

    def test_lifecycle_followable(self, spans):
        by_id = {s["span_id"]: s for s in spans}

        def ancestors(record):
            chain = []
            while record["parent_id"] is not None:
                record = by_id[record["parent_id"]]
                chain.append(record["name"])
            return chain

        auth = [s for s in spans if s["name"] == "authoritative"]
        assert auth, "no authoritative spans captured"
        followed = [s for s in auth if "resolve" in ancestors(s)]
        assert followed, "no authoritative span reachable from a resolve"
        # Each hop alternates through the fabric: resolver -> net.query
        # -> authoritative, and the resolve span sits under a net.query
        # from whoever forwarded to the resolver.
        assert ancestors(followed[0])[0] == "net.query"

    def test_resolver_records_cache_verdicts(self, spans):
        lookups = [s for s in spans if s["name"] == "cache_lookup"]
        assert lookups
        assert {s["attr_hit"] for s in lookups} <= {True, False}
        resolve_ids = {s["span_id"] for s in spans
                       if s["name"] == "resolve"}
        assert all(s["parent_id"] in resolve_ids for s in lookups)

    def test_ecs_scopes_recorded(self, spans):
        scoped = [s for s in spans if s["name"] == "authoritative"
                  and s.get("attr_ecs_scope_out") is not None]
        assert scoped, "authoritative spans should report ECS scope out"
        assert all(0 <= s["attr_ecs_scope_out"] <= 128 for s in scoped)


class TestHumanUnits:
    """The shared quantity formatter behind ``dataset info`` and --live."""

    def test_bytes_below_kib_stay_exact(self):
        from repro.units import human_bytes
        assert human_bytes(0) == "0 B"
        assert human_bytes(512) == "512 B"

    def test_bytes_scale_through_binary_units(self):
        from repro.units import human_bytes
        assert human_bytes(1536) == "1.5 KiB"
        assert human_bytes(1_475_739_648) == "1.4 GiB"

    def test_counts_match_paper_phrasing(self):
        from repro.units import human_count
        assert human_count(999) == "999"
        assert human_count(3_800_000_000) == "3.8B"
        assert human_count(1_250_000) == "1.2M"
