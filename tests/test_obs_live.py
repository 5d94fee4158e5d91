"""Live telemetry plane: heartbeats, sink accounting, HTTP endpoints,
timelines.

Covers repro.obs.live and repro.obs.server plus the plane's engine and
CLI integration:

- the loss-tolerant heartbeat protocol (sequence gaps counted, stale
  redeliveries ignored, non-blocking worker emitters);
- the scrape endpoint serving parseable Prometheus text whose counters
  are monotonically non-decreasing across concurrent mid-run scrapes;
- the sink's ring of beats (bounds, overflow count) and its Chrome
  trace-event export;
- the out-of-band contract: experiment outputs are byte-identical with
  the live plane on or off, at any worker count.
"""

from __future__ import annotations

import io
import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import _LiveProgress, main
from repro.datasets.allnames import AllNamesBuilder
from repro.datasets.columnar import write_columnar_stream
from repro.datasets.scan_dataset import ScanUniverseBuilder
from repro.engine import ShardSpec, WorkerPool, generate_columnar
from repro.engine.executor import run_sharded
from repro.engine.replay import fig1_sharded, replay_columnar_sharded
from repro.faults.chaos import run_chaos
from repro.faults.presets import preset
from repro.measure import Scanner
from repro.obs import live as obs_live
from repro.obs import metrics as obs_metrics
from repro.obs import observe
from repro.obs.export import (parse_prometheus, to_chrome_trace,
                              to_prometheus, write_chrome_trace)
from repro.obs.live import Emitter, Heartbeat, LiveSink, pool_initializer
from repro.obs.server import TelemetryServer


@pytest.fixture(autouse=True)
def _live_plane_off():
    """Every test starts and ends with the live plane deactivated."""
    previous = obs_live.swap(None)
    yield
    obs_live.swap(previous)


def _beat(seq, pid=100, kind="progress", **kwargs):
    return Heartbeat(seq=seq, pid=pid, ts=time.monotonic(), kind=kind,
                     **kwargs)


def _heartbeats(sink):
    return sink.run_status()["heartbeats"]


class TestHeartbeatProtocol:
    def test_emitter_sequences_increment_per_emitter(self):
        sink = LiveSink()
        emitter = sink.emitter()
        emitter.beat("run_start", "t", shards=2)
        emitter.beat("shard_start", "t", 0)
        emitter.beat("shard_end", "t", 0, records=10, seconds=0.5)
        assert [beat.seq for beat in sink.timeline()[0]] == [1, 2, 3]
        assert _heartbeats(sink) == {"received": 3, "lost": 0, "stale": 0}

    def test_sequence_gaps_count_as_lost(self):
        sink = LiveSink()
        sink.offer(_beat(1))
        sink.offer(_beat(5))           # 2,3,4 dropped in transit
        assert _heartbeats(sink) == {"received": 2, "lost": 3, "stale": 0}

    def test_stale_redelivery_ignored(self):
        sink = LiveSink()
        sink.offer(_beat(2, kind="shard_start", task="t"))
        sink.offer(_beat(2, kind="shard_start", task="t"))  # duplicate
        sink.offer(_beat(1, kind="shard_start", task="t"))  # reordered
        status = sink.run_status()
        assert status["tasks"]["t"]["started"] == 1
        assert status["heartbeats"]["stale"] == 2

    def test_per_worker_sequences_are_independent(self):
        sink = LiveSink()
        sink.offer(_beat(1, pid=100))
        sink.offer(_beat(1, pid=200))
        assert _heartbeats(sink) == {"received": 2, "lost": 0, "stale": 0}
        assert set(sink.run_status()["workers"]) == {"100", "200"}

    def test_queue_emitter_never_raises_on_dead_channel(self):
        class _Closed:
            def put_nowait(self, item):
                raise ValueError("queue is closed")

        sink = LiveSink()
        obs_live.swap(sink.emitter())
        initializer, _ = pool_initializer()
        initializer(_Closed())       # a worker whose channel has died
        obs_live.ACTIVE.beat("run_start", "t", shards=1)  # must not raise
        obs_live.ACTIVE.beat("shard_end", "t", 0, records=1, seconds=0.1)
        sink.close()

    def test_worker_channel_round_trip(self):
        sink = LiveSink()
        channel = sink.emitter().channel()
        Emitter(channel.put_nowait).beat("shard_end", "t", 3, records=7,
                                         seconds=0.2)
        deadline = time.monotonic() + 5.0
        while _heartbeats(sink)["received"] == 0 and \
                time.monotonic() < deadline:
            time.sleep(0.01)
        sink.close()
        assert _heartbeats(sink)["received"] == 1
        assert sink.run_status()["tasks"]["t"]["done"] == 1

    def test_close_drains_residual_beats(self):
        sink = LiveSink()
        channel = sink.worker_channel()
        emitter = Emitter(channel.put_nowait)
        for shard in range(5):
            emitter.beat("shard_end", "t", shard, records=1)
        sink.close()   # folds anything the drain thread had not consumed
        assert sink.run_status()["tasks"]["t"]["done"] == 5
        sink.close()   # idempotent

    def test_pool_initializer_none_when_plane_inactive(self):
        assert obs_live.ACTIVE is None
        assert pool_initializer() is None

    def test_pool_initializer_installs_queue_emitter(self):
        sink = LiveSink()
        parent = sink.emitter()
        obs_live.swap(parent)
        init = pool_initializer()
        assert init is not None
        initializer, initargs = init
        initializer(*initargs)   # what each fresh worker process runs
        worker = obs_live.ACTIVE
        assert isinstance(worker, Emitter) and worker is not parent
        assert worker.channel is None   # a worker hands out no channel
        worker.beat("shard_start", "t", 0)
        obs_live.swap(None)
        sink.close()
        assert sink.run_status()["tasks"]["t"]["started"] == 1


class TestSinkRegistry:
    def test_lifecycle_beats_build_counters(self):
        sink = LiveSink()
        emitter = sink.emitter()
        emitter.beat("run_start", "replay:t", shards=2)
        emitter.beat("dispatch", "replay:t", 0, shards=2, payload_bytes=64,
                     queue_depth=1)
        for shard in (0, 1):
            emitter.beat("shard_start", "replay:t", shard)
            emitter.beat("shard_end", "replay:t", shard, records=50,
                         seconds=0.1)
        emitter.beat("run_end", "replay:t", records=100)
        text = sink.registry_snapshot()
        rendered = {i.name: i for i in text.instruments()}
        assert rendered["repro_live_shards_done_total"].samples()[
            ("replay:t",)] == 2
        assert rendered["repro_live_records_total"].samples()[
            ("replay:t",)] == 100
        assert rendered["repro_live_payload_bytes_total"].samples()[
            ("replay:t",)] == 64
        status = sink.run_status()
        assert status["tasks"]["replay:t"] == {
            "shards_total": 2, "dispatched": 2, "started": 2, "done": 2,
            "in_flight": 0, "records": 100, "payload_bytes": 64}

    def test_shard_registries_merge_exactly_once(self):
        """A shard registry comes back with its result and reaches the
        command's registry, which the sink serves, once, inline or
        pooled."""
        for workers in (1, 2):
            with observe(metrics=True) as session:
                sink = LiveSink()
                obs_live.swap(sink.emitter())
                try:
                    run_sharded(_counting_shard, [(i,) for i in range(4)],
                                workers=workers, task="t")
                finally:
                    obs_live.swap(None)
                    sink.close()
            assert sink.registry is session.registry
            for registry in (session.registry, sink.registry_snapshot()):
                assert registry.get("repro_faults_total").samples()[()] \
                    == 16.0
            # the /run status surfaces the fault counter
            assert sink.run_status()["counters"]["repro_faults_total"] \
                == 16.0

    def test_snapshots_while_the_main_thread_writes(self):
        """Scrape threads copy the command's registry while this thread
        adds instruments, label values and observations to it: no copy
        raises, and every copied histogram's count is its buckets'."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        stop, errors, copies, readers = threading.Event(), [], [0], []

        def scrape(sink):
            try:
                while not stop.is_set():
                    copy = sink.registry_snapshot().get("repro_stress_ms")
                    for counts, _, count in (copy.samples().values()
                                             if copy else ()):
                        assert count == sum(counts)
                    copies[0] += 1
            except Exception as exc:   # a torn copy
                errors.append(exc)

        try:
            with observe(metrics=True) as session:
                sink = LiveSink()
                for _ in range(3):
                    readers.append(threading.Thread(target=scrape,
                                                    args=(sink,)))
                    readers[-1].start()
                deadline, i = time.monotonic() + 1.0, 0
                while time.monotonic() < deadline:
                    session.registry.counter(
                        f"repro_stress_{i % 40}_total", "h", ("k",)).inc(
                            1.0, str(i % 97))
                    session.registry.histogram(
                        "repro_stress_ms", "h", ("k",),
                        buckets=(1.0, 10.0)).observe(i % 20, str(i % 13))
                    i += 1
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for reader in readers:
                reader.join(timeout=10)
        assert not any(reader.is_alive() for reader in readers)
        assert not errors, errors[0]
        assert copies[0] > 10

    def test_status_reports_worker_utilization(self):
        sink = LiveSink()
        sink.offer(_beat(1, pid=7, kind="shard_end", task="t",
                         records=1, seconds=2.0, rss_kb=1024,
                         cpu_seconds=1.5))
        worker = sink.run_status()["workers"]["7"]
        assert worker["busy_seconds"] == 2.0
        assert worker["rss_kb"] == 1024
        assert worker["cpu_seconds"] == 1.5


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def records(self):
        return AllNamesBuilder(scale=0.02, seed=3).build().records

    @pytest.fixture()
    def trace(self, records, tmp_path):
        path = tmp_path / "allnames.col"
        write_columnar_stream(records, path, "allnames")
        return path

    def test_inline_run_emits_lifecycle_beats(self, records, trace):
        sink = LiveSink()
        obs_live.swap(sink.emitter())
        try:
            with_live, _ = replay_columnar_sharded(trace, "allnames",
                                                   shards=4)
        finally:
            obs_live.swap(None)
            sink.close()
        without_live, _ = replay_columnar_sharded(trace, "allnames",
                                                  shards=4)
        assert with_live == without_live
        status = sink.run_status()["tasks"]["replay:allnames"]
        assert status == {"shards_total": 4, "dispatched": 0, "started": 4,
                          "done": 4, "in_flight": 0,
                          "records": len(records), "payload_bytes": 0}

    def test_pooled_run_streams_worker_heartbeats(self, trace):
        sink = LiveSink()
        obs_live.swap(sink.emitter())
        try:
            with_live, _ = replay_columnar_sharded(trace, "allnames",
                                                   shards=4, workers=2)
        finally:
            obs_live.swap(None)
            sink.close()
        without_live, _ = replay_columnar_sharded(trace, "allnames",
                                                  shards=4, workers=2)
        assert with_live == without_live
        status = sink.run_status()
        task = status["tasks"]["replay:allnames"]
        assert task["done"] == 4 and task["dispatched"] == 4
        assert task["payload_bytes"] > 0
        # worker processes appear alongside the parent
        assert len(status["workers"]) >= 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_live_records_equal_engine_report(self, trace, tmp_path,
                                              workers):
        """``/run`` counts a shard's records with the run's own
        ``count_of``, the number :class:`EngineReport` totals — not a
        guess from the shape of the result."""
        runs = {
            "fig1:public-cdn": lambda: fig1_sharded(
                ShardSpec.create("public-cdn", shard_count=4, scale=0.003,
                                 seed=5, duration_s=600.0),
                (None, 40), workers=workers),
            "chaos[lossy]": lambda: run_chaos(
                preset("lossy"), seed=1, fault_seed=7, ingress=24,
                shards=4, workers=workers),
            "replay:allnames": lambda: replay_columnar_sharded(
                trace, "allnames", shards=4, workers=workers),
            "generate:allnames": lambda: generate_columnar(
                ShardSpec.create("allnames", shard_count=4, scale=0.01,
                                 seed=5), tmp_path / "g.col",
                workers=workers),
        }
        sink = LiveSink()
        obs_live.swap(sink.emitter())
        try:
            with WorkerPool(workers):
                reports = {task: run()[1] for task, run in runs.items()}
        finally:
            obs_live.swap(None)
            sink.close()
        tasks = sink.run_status()["tasks"]
        for task, report in reports.items():
            assert report.task == task
            assert tasks[task]["records"] == report.total_records > 0, task

    def test_chaos_report_identical_with_live_plane(self):
        plan = preset("lossy")
        result, _ = run_chaos(plan, seed=1, fault_seed=7, ingress=24,
                              shards=4)
        sink = LiveSink()
        obs_live.swap(sink.emitter())
        try:
            live_result, _ = run_chaos(plan, seed=1, fault_seed=7,
                                       ingress=24, shards=4, workers=2)
        finally:
            obs_live.swap(None)
            sink.close()
        assert live_result.report() == result.report()
        # chaos shards emitted universe + progress events; each shard's
        # universe build is one timed slice
        beats = sink.timeline()[0]
        kinds = {beat.kind for beat in beats}
        assert "chaos_universe" in kinds and "progress" in kinds
        builds = [beat for beat in beats if beat.kind == "chaos_universe"]
        assert sorted(beat.shard for beat in builds) == [0, 1, 2, 3]
        assert all(beat.seconds > 0 for beat in builds)


def _fetch(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.headers.get("Content-Type"), \
            resp.read().decode("utf-8")


class TestTelemetryServer:
    def test_routes(self):
        sink = LiveSink()
        sink.emitter().beat("run_start", "t", shards=3)
        server = TelemetryServer(sink)
        port = server.start()
        try:
            status, ctype, body = _fetch(
                f"http://127.0.0.1:{port}/metrics")
            assert status == 200 and ctype.startswith("text/plain")
            families = parse_prometheus(body)
            assert "repro_live_heartbeats_total" in families
            assert "repro_live_uptime_seconds" in families

            status, _, body = _fetch(f"http://127.0.0.1:{port}/healthz")
            assert status == 200 and body == "ok\n"

            status, ctype, body = _fetch(f"http://127.0.0.1:{port}/run")
            assert status == 200 and ctype.startswith("application/json")
            doc = json.loads(body)
            assert doc["tasks"]["t"]["shards_total"] == 3
            assert doc["heartbeats"]["received"] == 1

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _fetch(f"http://127.0.0.1:{port}/nope")
            assert excinfo.value.code == 404
        finally:
            server.stop()
            sink.close()

    def test_start_stop_idempotent(self):
        sink = LiveSink()
        server = TelemetryServer(sink)
        port = server.start()
        assert server.start() == port
        server.stop()
        server.stop()
        sink.close()

    def test_concurrent_scrapes_see_monotone_counters(self):
        """Scrape while a pooled sharded run is in flight: every body
        parses, every counter is non-decreasing scrape over scrape, and
        the last scrape counts each shard's counter once."""
        with observe(metrics=True):
            sink = LiveSink()
            server = TelemetryServer(sink)
            port = server.start()
            obs_live.swap(sink.emitter())
            done = threading.Event()

            def run():
                try:
                    run_sharded(_slow_shard, [(i,) for i in range(6)],
                                workers=2, task="slow")
                finally:
                    done.set()

            worker = threading.Thread(target=run)
            worker.start()
            seen = []
            try:
                while not done.is_set():
                    seen.append(_counters(port))
                    time.sleep(0.01)
                seen.append(_counters(port))   # the run has returned
            finally:
                worker.join()
                obs_live.swap(None)
                server.stop()
                sink.close()
        assert len(seen) >= 2
        for before, after in zip(seen, seen[1:]):
            for key, value in before.items():
                assert after.get(key, value) >= value
        assert seen[-1][("repro_faults_total", ())] == 6.0
        final = sink.run_status()["tasks"]["slow"]
        assert final["done"] == 6

    def test_metrics_serve_the_command_registry(self):
        """After an unsharded scan, /metrics is the registry --metrics-out
        writes plus the repro_live_* families, and nothing else."""
        universe = ScanUniverseBuilder(seed=3, ingress_count=30).build()
        with observe(metrics=True) as session:
            sink = LiveSink()
            server = TelemetryServer(sink)
            port = server.start()
            obs_live.swap(sink.emitter())
            try:
                Scanner(universe).scan()
                _, _, body = _fetch(f"http://127.0.0.1:{port}/metrics")
            finally:
                obs_live.swap(None)
                server.stop()
                sink.close()
        families = parse_prometheus(body)
        assert families["repro_net_datagrams_total"]["samples"]
        assert "repro_live_uptime_seconds" in families
        own = [line for line in body.splitlines(keepends=True)
               if not line.startswith(("# HELP repro_live_",
                                       "# TYPE repro_live_", "repro_live_"))]
        assert "".join(own) == to_prometheus(session.registry)

    def test_sharded_scrape_counts_each_shard_once(self, tmp_path,
                                                   monkeypatch):
        """The last /metrics scrape of a --workers 2 replay serves each
        shard counter once: the values --metrics-out writes."""
        trace = tmp_path / "allnames.col"
        write_columnar_stream(
            AllNamesBuilder(scale=0.01, seed=3).build().records, trace,
            "allnames")
        scrapes = []
        stop = TelemetryServer.stop

        def scrape_then_stop(server):
            if server._server is not None:
                scrapes.append(_fetch(
                    f"http://127.0.0.1:{server.port}/metrics")[2])
            stop(server)

        monkeypatch.setattr(TelemetryServer, "stop", scrape_then_stop)
        prom = tmp_path / "m.prom"
        assert main(["--quiet", "--serve-metrics", "0", "--metrics-out",
                     str(prom), "replay", "allnames", str(trace),
                     "--workers", "2"]) == 0
        served = parse_prometheus(scrapes[-1])
        written = parse_prometheus(prom.read_text())
        assert written["repro_replay_queries_total"]["samples"]
        assert {name: family for name, family in served.items()
                if not name.startswith("repro_live_")} == written


def _counters(port):
    """Every counter sample one /metrics scrape serves (parsed strictly:
    a torn body would raise)."""
    _, _, body = _fetch(f"http://127.0.0.1:{port}/metrics")
    return {(name, tuple(sorted(labels.items()))): value
            for name, info in parse_prometheus(body).items()
            if info["type"] == "counter"
            for name, labels, value in info["samples"]}


def _slow_shard(index):
    time.sleep(0.02)
    registry = obs_metrics.ACTIVE
    if registry is not None:
        registry.counter("repro_faults_total", "Faults injected.").inc()
    return [index]


def _counting_shard(index):
    registry = obs_metrics.ACTIVE
    if registry is not None:
        registry.counter("repro_faults_total", "Faults injected.").inc(4.0)
    return [index]


class TestTimeline:
    def test_ring_buffer_counts_drops(self):
        sink = LiveSink(capacity=4)
        for i in range(7):
            sink.offer(_beat(i + 1, task=f"e{i}"))
        beats, dropped = sink.timeline()
        assert dropped == 3
        assert [beat.task for beat in beats] == ["e3", "e4", "e5", "e6"]
        assert sink.run_status()["timeline"] == {"events": 4, "dropped": 3}
        # the export says what the ring lost
        doc = to_chrome_trace(beats, dropped=dropped)
        assert doc["otherData"] == {"events": 4, "dropped": 3}

    def test_chrome_trace_structure(self):
        beats = [
            Heartbeat(seq=1, pid=1, ts=10.0, kind="run_start", task="t"),
            Heartbeat(seq=1, pid=2, ts=10.4, kind="shard_end", task="t",
                      shard=0, records=5, seconds=0.2),
        ]
        doc = to_chrome_trace(beats)
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        instant = by_name["t"]
        assert instant["ph"] == "i" and instant["ts"] == 0
        slice_ = by_name["t[0]"]
        assert slice_["ph"] == "X"
        assert slice_["ts"] == pytest.approx(200_000)  # starts 0.2s early
        assert slice_["dur"] == pytest.approx(200_000)  # 0.2s in us
        assert slice_["args"] == {"records": 5, "shard": 0}

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        beats = [Heartbeat(seq=1, pid=1, ts=0.0, kind="run_start",
                           task="t")]
        path = tmp_path / "trace.json"
        write_chrome_trace(beats, path)
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)

    def test_deterministic_ordering(self):
        a = Heartbeat(seq=1, pid=1, ts=1.0, kind="b", task="x")
        b = Heartbeat(seq=2, pid=1, ts=1.0, kind="a", task="x")
        forward = to_chrome_trace([a, b])
        backward = to_chrome_trace([b, a])
        assert forward == backward


class TestScrapeValidation:
    def test_duplicate_type_rejected(self):
        body = ("# TYPE repro_x counter\nrepro_x 1\n"
                "# TYPE repro_x counter\nrepro_x 2\n")
        with pytest.raises(ValueError, match="duplicate # TYPE"):
            parse_prometheus(body)


class TestCliLivePlane:
    def test_serve_metrics_and_timeline_flags(self, tmp_path, capsys):
        out = tmp_path / "reports"
        timeline = tmp_path / "timeline.json"
        rc = main(["--out", str(out), "--serve-metrics", "0",
                   "--timeline-out", str(timeline),
                   "chaos", "--preset", "lossy", "--fault-seed", "7",
                   "--ingress", "16", "--shards", "4"])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "serving live telemetry" in captured
        assert "timeline events" in captured
        doc = json.loads(timeline.read_text())
        assert doc["traceEvents"]
        kinds = {e.get("name", "") for e in doc["traceEvents"]}
        assert any(name.startswith("chaos[lossy]") for name in kinds)

    def test_timeline_jsonl_suffix(self, tmp_path):
        """One format: the file's suffix no longer selects another."""
        for name in ("timeline.jsonl", "timeline.json", "timeline"):
            rc = main(["--quiet", "--timeline-out", str(tmp_path / name),
                       "chaos", "--preset", "heavy-loss", "--ingress", "8",
                       "--shards", "2"])
            assert rc == 0
            doc = json.loads((tmp_path / name).read_text())
            assert doc["traceEvents"] and doc["otherData"]["dropped"] == 0
            assert all(e["ph"] in ("X", "i") for e in doc["traceEvents"])

    def test_live_flag_writes_progress_to_stderr(self, tmp_path, capsys):
        rc = main(["--quiet", "--live", "chaos", "--preset", "lossy",
                   "--ingress", "8", "--shards", "2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "[live]" in captured.err
        assert captured.err.endswith("\n")

    def test_live_flags_capture_no_metrics(self, tmp_path, monkeypatch):
        """Only --metrics-out and --serve-metrics read a registry, so with
        --live and --timeline-out alone no registry is ever installed,
        for the command or for a shard."""
        installed = []
        swap = obs_metrics.swap
        monkeypatch.setattr(obs_metrics, "swap",
                            lambda registry: installed.append(registry)
                            or swap(registry))
        assert main(["--quiet", "--live", "--timeline-out",
                     str(tmp_path / "tl.json"), "chaos", "--preset",
                     "lossy", "--ingress", "8", "--shards", "2"]) == 0
        assert installed == []

    def test_live_line_counts_only_its_own_task(self):
        """The ticker reads the sink's ledger for the beat's task: a second
        run's line does not add the first run's shards or records."""
        stream = io.StringIO()
        sink = LiveSink(on_beat=_LiveProgress(stream))
        emitter = sink.emitter()
        for task, shards in (("fig1:public-cdn", 2), ("generate:t", 3)):
            emitter.beat("run_start", task, shards=shards)
            for shard in range(shards):
                emitter.beat("shard_end", task, shard, records=10)
            emitter.beat("run_end", task, records=10 * shards)
        assert stream.getvalue().split("\r")[-1] == \
            "[live] generate:t: 3/3 shards, 30 records"

    def test_outputs_identical_with_and_without_live(self, tmp_path):
        base = ["--quiet", "generate", "allnames"]
        tail = ["--scale", "0.02", "--shards", "4"]
        plain = tmp_path / "plain.jsonl"
        lively = tmp_path / "live.jsonl"
        assert main(base + [str(plain)] + tail) == 0
        assert main(["--quiet", "--timeline-out",
                     str(tmp_path / "tl.jsonl"), "generate", "allnames",
                     str(lively)] + tail + ["--workers", "2"]) == 0
        assert plain.read_bytes() == lively.read_bytes()

        # A chaos run serving metrics and writing a timeline reports what
        # plain runs at 1 and 4 workers report.
        reports = {}
        for tag, flags, workers in (
                ("live", ["--serve-metrics", "0", "--timeline-out",
                          str(tmp_path / "tl.json")], 4),
                ("plain1", [], 1), ("plain4", [], 4)):
            out = tmp_path / tag
            assert main(["--quiet", "--out", str(out), *flags, "chaos",
                         "--preset", "lossy", "--fault-seed", "7",
                         "--ingress", "16", "--workers", str(workers)]) == 0
            reports[tag] = {path.relative_to(out): path.read_bytes()
                            for path in out.rglob("*") if path.is_file()}
        assert reports["live"]
        assert reports["live"] == reports["plain1"] == reports["plain4"]

    def test_live_plane_restored_after_command(self):
        assert obs_live.ACTIVE is None
        assert main(["--quiet", "--live", "caching",
                     "--ingress", "10"]) == 0
        assert obs_live.ACTIVE is None
