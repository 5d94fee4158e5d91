"""Pins of what the live plane serves, from one scripted beat sequence.

A fixed heartbeat sequence — a pooled run and an inline one, a beat
lost in transit, a stale redelivery, free-form events with and without
a task — is folded by a :class:`~repro.obs.live.LiveSink`, while two
shard registries come back with their shards' results and are folded
into the command's registry the sink serves.  The ``/run`` document
(less its uptime), the Chrome trace ``--timeline-out`` writes and the
families ``/metrics`` serves must come out exactly as pinned below, so
a change to how the sink keeps its books cannot change what a scrape or
a timeline file says.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import urllib.request

from repro.cli import _export_artefacts, _Reporter
from repro.engine.executor import _fold_observability
from repro.obs import ObsSession, observe
from repro.obs.export import parse_prometheus
from repro.obs.live import Heartbeat, LiveSink
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import TelemetryServer

_FIELDS = {f.name for f in dataclasses.fields(Heartbeat)}


def _heartbeat(seq, pid, ts, kind, **values):
    """A beat; keywords ``Heartbeat`` does not declare ride in ``attrs``."""
    attrs = {key: values.pop(key) for key in list(values)
             if key not in _FIELDS}
    return Heartbeat(seq=seq, pid=pid, ts=ts, kind=kind, attrs=attrs,
                     **values)


def _shard_registry(drops, retries, downgrades=0):
    registry = MetricsRegistry()
    registry.counter("repro_faults_total", "Faults injected.",
                     ("kind",)).inc(float(drops), "drop")
    registry.counter("repro_retries_total", "Retries.").inc(float(retries))
    if downgrades:
        registry.counter("repro_ecs_downgrades_total",
                         "ECS downgrades.").inc(float(downgrades))
    registry.counter("repro_net_queries_total", "Queries sent.",
                     ("layer",)).inc(10.0, "stub")
    registry.histogram("repro_query_ms", "Query latency.",
                       buckets=(1.0, 10.0)).observe(4.0)
    return registry


R = "replay:allnames"
G = "generate:allnames"

#: (seq, pid, ts, kind, fields) — pid 10 is the parent, 21 and 22 pool
#: workers; worker 22's seq 2 never arrives and its seq 3 arrives twice.
#: ``result`` is the shard registry its result brings back.
SCRIPT = [
    (1, 10, 100.00, "run_start", dict(task=R, shards=4, rss_kb=30000,
                                      cpu_seconds=1.25)),
    (2, 10, 100.01, "dispatch", dict(task=R, shard=0, shards=2,
                                     payload_bytes=120, queue_depth=2)),
    (3, 10, 100.02, "dispatch", dict(task=R, shard=2, shards=2,
                                     payload_bytes=118, queue_depth=1)),
    (1, 21, 100.05, "header_decode", dict(task=R, bytes=2048,
                                          rss_kb=20000, cpu_seconds=0.5)),
    (2, 21, 100.06, "shard_start", dict(task=R, shard=0, rss_kb=20480,
                                        cpu_seconds=0.52)),
    (1, 22, 100.07, "shard_start", dict(task=R, shard=2)),
    (3, 21, 100.56, "shard_end", dict(task=R, shard=0, records=700,
                                      seconds=0.5, rss_kb=24000,
                                      cpu_seconds=1.0,
                                      result=_shard_registry(3, 2))),
    (3, 22, 100.60, "shard_end", dict(task=R, shard=2, records=650,
                                      seconds=0.53,
                                      result=_shard_registry(1, 0, 1))),
    (3, 22, 100.60, "shard_end", dict(task=R, shard=2, records=650,
                                      seconds=0.53)),
    (4, 21, 100.57, "shard_start", dict(task=R, shard=1)),
    (4, 22, 100.61, "shard_start", dict(task=R, shard=3)),
    (5, 21, 100.90, "progress", dict(task=R, shard=1, records=300)),
    (6, 21, 101.10, "shard_end", dict(task=R, shard=1, records=680,
                                      seconds=0.53, rss_kb=22000,
                                      cpu_seconds=1.4)),
    (5, 22, 101.20, "shard_end", dict(task=R, shard=3, records=640,
                                      seconds=0.59)),
    (4, 10, 101.25, "run_end", dict(task=R, records=2670)),
    (5, 10, 101.30, "run_start", dict(task=G, shards=2)),
    (6, 10, 101.31, "shard_start", dict(task=G, shard=0)),
    (7, 10, 101.50, "shard_end", dict(task=G, shard=0, records=100,
                                      seconds=0.19, rss_kb=31000,
                                      cpu_seconds=1.5)),
    (8, 10, 101.51, "shard_start", dict(task=G, shard=1)),
    (9, 10, 101.70, "merge", dict(task=G, records=100, seconds=0.15)),
    (10, 10, 101.80, "bucket", dict(task="replay:jsonl", records=50,
                                    seconds=0.05)),
    (11, 10, 101.90, "note", dict(detail="x")),
]


def _scripted_sink():
    with observe(metrics=True):
        sink = LiveSink()
        for seq, pid, ts, kind, fields in SCRIPT:
            fields = dict(fields)
            result = fields.pop("result", None)
            sink.offer(_heartbeat(seq, pid, ts, kind, **fields))
            if result is not None:
                _fold_observability([(None, 0, 0.0, result, None)],
                                    inline=False)
    return sink


EXPECTED_RUN = {
    "counters": {"repro_ecs_downgrades_total": 1.0,
                 "repro_faults_total": 4.0,
                 "repro_retries_total": 2.0},
    "heartbeats": {"lost": 1, "received": 22, "stale": 1},
    "layers": {},
    "tasks": {
        G: {"dispatched": 0, "done": 1, "in_flight": 1,
            "payload_bytes": 0, "records": 100, "shards_total": 2,
            "started": 2},
        R: {"dispatched": 4, "done": 4, "in_flight": 0,
            "payload_bytes": 238, "records": 2670, "shards_total": 4,
            "started": 4},
        "replay:jsonl": {"dispatched": 0, "done": 0, "in_flight": 0,
                         "payload_bytes": 0, "records": 0,
                         "shards_total": 0, "started": 0},
    },
    "timeline": {"dropped": 0, "events": 21},
    "workers": {
        "10": {"beats": 11, "busy_seconds": 0.19, "cpu_seconds": 1.5,
               "rss_kb": 31000},
        "21": {"beats": 6, "busy_seconds": 1.03, "cpu_seconds": 1.4,
               "rss_kb": 24000},
        "22": {"beats": 4, "busy_seconds": 1.12, "cpu_seconds": 0.0,
               "rss_kb": 0},
    },
}


def test_run_document_pinned():
    sink = _scripted_sink()
    server = TelemetryServer(sink)
    port = server.start()
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/run",
                                    timeout=10) as resp:
            doc = json.loads(resp.read().decode("utf-8"))
    finally:
        server.stop()
        sink.close()
    assert doc.pop("uptime_seconds") >= 0
    assert doc == EXPECTED_RUN


def _slice(name, cat, pid, ts, dur, **args):
    return {"name": name, "cat": cat, "pid": pid, "tid": pid, "ts": ts,
            "ph": "X", "dur": dur, "args": args}


def _instant(name, cat, pid, ts, **args):
    return {"name": name, "cat": cat, "pid": pid, "tid": pid, "ts": ts,
            "ph": "i", "s": "t", "args": args}


#: In ``(ts, kind, name)`` order: a slice starts ``seconds`` before
#: its beat, so a shard's ``shard_end`` slice and its ``shard_start``
#: instant share a timestamp.
EXPECTED_TRACE_EVENTS = [
    _instant(R, "run_start", 10, 0.0, shards=4),
    _instant(f"{R}[0]", "dispatch", 10, 10000.0, payload_bytes=120,
             queue_depth=2, shard=0, shards=2),
    _instant(f"{R}[2]", "dispatch", 10, 20000.0, payload_bytes=118,
             queue_depth=1, shard=2, shards=2),
    _instant(R, "header_decode", 21, 50000.0, bytes=2048),
    _slice(f"{R}[0]", "shard_end", 21, 60000.0, 500000.0,
           records=700, shard=0),
    _instant(f"{R}[0]", "shard_start", 21, 60000.0, shard=0),
    _slice(f"{R}[2]", "shard_end", 22, 70000.0, 530000.0,
           records=650, shard=2),
    _instant(f"{R}[2]", "shard_start", 22, 70000.0, shard=2),
    _slice(f"{R}[1]", "shard_end", 21, 570000.0, 530000.0,
           records=680, shard=1),
    _instant(f"{R}[1]", "shard_start", 21, 570000.0, shard=1),
    _slice(f"{R}[3]", "shard_end", 22, 610000.0, 590000.0,
           records=640, shard=3),
    _instant(f"{R}[3]", "shard_start", 22, 610000.0, shard=3),
    _instant(f"{R}[1]", "progress", 21, 900000.0, records=300, shard=1),
    _instant(R, "run_end", 10, 1250000.0, records=2670),
    _instant(G, "run_start", 10, 1300000.0, shards=2),
    _slice(f"{G}[0]", "shard_end", 10, 1310000.0, 190000.0,
           records=100, shard=0),
    _instant(f"{G}[0]", "shard_start", 10, 1310000.0, shard=0),
    _instant(f"{G}[1]", "shard_start", 10, 1510000.0, shard=1),
    _slice(G, "merge", 10, 1550000.0, 150000.0, records=100),
    _slice("replay:jsonl", "bucket", 10, 1750000.0, 50000.0, records=50),
    _instant("note", "note", 10, 1900000.0, detail="x"),
]


def test_chrome_trace_document_pinned(tmp_path):
    sink = _scripted_sink()
    sink.close()
    path = tmp_path / "timeline.json"
    args = argparse.Namespace(timeline_out=str(path), metrics_out=None,
                              trace_out=None)
    _export_artefacts(args, _Reporter(None, quiet=True),
                      ObsSession(None, None), sink)
    assert json.loads(path.read_text()) == {
        "traceEvents": EXPECTED_TRACE_EVENTS, "displayTimeUnit": "ms",
        "otherData": {"events": 21, "dropped": 0}}


#: Every family /metrics served for the script before the registry
#: became the live plane's only ledger: family -> (type, sorted label
#: sets of its samples).  Families may be added (new ``repro_live_*``
#: ledger counters); none of these may go or change its labels.
EXPECTED_FAMILIES = {
    "repro_ecs_downgrades_total": ("counter", [()]),
    "repro_faults_total": ("counter", [(("kind", "drop"),)]),
    "repro_live_heartbeats_lost_total": ("counter", [()]),
    "repro_live_heartbeats_total": ("counter", [
        (("kind", "bucket"),), (("kind", "dispatch"),),
        (("kind", "header_decode"),), (("kind", "merge"),),
        (("kind", "note"),), (("kind", "progress"),),
        (("kind", "run_end"),), (("kind", "run_start"),),
        (("kind", "shard_end"),), (("kind", "shard_start"),)]),
    "repro_live_payload_bytes_total": ("counter", [(("task", R),)]),
    "repro_live_queue_depth": ("gauge", [()]),
    "repro_live_records_total": ("counter", [(("task", G),),
                                             (("task", R),)]),
    "repro_live_runs_total": ("counter", [(("task", G),), (("task", R),)]),
    "repro_live_shards_done_total": ("counter", [(("task", G),),
                                                 (("task", R),)]),
    "repro_live_shards_in_flight": ("gauge", [
        (("task", G),), (("task", R),), (("task", "replay:jsonl"),)]),
    "repro_live_uptime_seconds": ("gauge", [()]),
    "repro_live_worker_cpu_seconds": ("gauge", [(("pid", "10"),),
                                                (("pid", "21"),)]),
    "repro_live_worker_rss_kb": ("gauge", [(("pid", "10"),),
                                           (("pid", "21"),)]),
    "repro_net_queries_total": ("counter", [(("layer", "stub"),)]),
    "repro_query_ms": ("histogram", [()]),
    "repro_retries_total": ("counter", [()]),
}


def test_metrics_families_kept():
    sink = _scripted_sink()
    server = TelemetryServer(sink)
    port = server.start()
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics",
                                    timeout=10) as resp:
            families = parse_prometheus(resp.read().decode("utf-8"))
    finally:
        server.stop()
        sink.close()
    served = {
        name: (info["type"], sorted({
            tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            for _, labels, _ in info["samples"]}))
        for name, info in families.items()}
    for name, want in EXPECTED_FAMILIES.items():
        assert served.get(name) == want, name
    added = set(served) - set(EXPECTED_FAMILIES)
    assert all(name.startswith("repro_live_") for name in added), added
