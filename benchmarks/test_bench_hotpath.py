"""Hot-path fast-lane benchmarks: reference vs fast records/sec.

Each benchmark times one per-query hot path both ways — the readable
``ipaddress``/callable/uncached reference and the integer-native/batched/
cached fast lane — over the same inputs, asserts the results agree, and
records before-vs-after throughput into ``benchmarks/results/
BENCH_hotpath.json`` via the ``hotpath_bench`` fixture.  The equivalence
contract itself (random inputs, edge bits) lives in
``tests/test_fastpath_equivalence.py``; here identical output is asserted
once more at bench scale, then throughput is measured.

Scale with ``HOTPATH_BENCH_SCALE`` (default 1.0; CI smoke uses 0.1).
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.analysis.cache_sim import (replay_partial, replay_partial_batched,
                                      replay_partial_columns)
from repro.datasets.allnames import AllNamesBuilder
from repro.dnslib import (EcsOption, EdnsInfo, Message, Name, Question,
                          RecordType, decode_message, encode_message)
from repro.dnslib.wire import clear_codec_caches
from repro.net.addr import parse_addr, prefix_key, prefix_key_int

SCALE = float(os.environ.get("HOTPATH_BENCH_SCALE", "1.0"))


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _record(hotpath_bench, name: str, records: int,
            ref_seconds: float, fast_seconds: float) -> None:
    ref_rps = _rate(records, ref_seconds)
    fast_rps = _rate(records, fast_seconds)
    hotpath_bench[name] = {
        "records": records,
        "reference_rps": round(ref_rps, 1),
        "fast_rps": round(fast_rps, 1),
        "speedup": round(fast_rps / ref_rps, 2) if ref_rps else 0.0,
    }


# ---------------------------------------------------------------------------
# 1. prefix keying


@pytest.mark.hotpath
def test_hotpath_prefix_keying(hotpath_bench):
    """parse_addr + prefix_key_int vs the ipaddress-based prefix_key."""
    rng = random.Random(7)
    # A realistic client mix: many repeats (trace locality), some v6.
    pool = [f"100.{rng.randrange(64, 112)}.{rng.randrange(6)}."
            f"{rng.randrange(1, 255)}" for _ in range(1800)]
    pool += [f"2610:{rng.randrange(48):x}::{rng.randrange(1, 9):x}"
             for _ in range(200)]
    addrs = pool * max(1, round(25 * SCALE))
    bits_of = {4: 24, 6: 48}

    start = time.perf_counter()
    ref = [prefix_key(a, bits_of[4 if ":" not in a else 6]) for a in addrs]
    ref_seconds = time.perf_counter() - start

    start = time.perf_counter()
    fast = []
    append = fast.append
    for a in addrs:
        version, value = parse_addr(a)
        append(prefix_key_int(version, value, bits_of[version]))
    fast_seconds = time.perf_counter() - start

    assert fast == ref          # interchangeable as dict keys
    _record(hotpath_bench, "prefix_keying", len(addrs),
            ref_seconds, fast_seconds)
    # The acceptance bar: the integer fast lane must be >= 2x the
    # reference (measured ~10-17x in development).
    assert hotpath_bench["prefix_keying"]["speedup"] >= 2.0


# ---------------------------------------------------------------------------
# 2. wire round-trip


def _ecs_query(qname: str, client: str) -> Message:
    msg = Message(msg_id=4242)
    msg.question = Question(Name.from_text(qname), RecordType.A)
    msg.edns = EdnsInfo(options=[EcsOption.from_client_address(client, 24)])
    return msg


@pytest.mark.hotpath
def test_hotpath_wire_roundtrip(hotpath_bench):
    """Encode/decode with warm codec caches vs cold-per-message encoding.

    The reference run clears the codec tables before every message, so
    each encode redoes the qname's label walk.  The fast run reuses warm
    tables, the steady state of a simulation sending the same qnames
    repeatedly.
    """
    rng = random.Random(11)
    qnames = [f"h{i}.s{i % 19:05d}.com." for i in range(60)]
    clients = [f"100.{rng.randrange(64, 112)}.{rng.randrange(6)}.0"
               for _ in range(40)]
    n = max(200, round(6000 * SCALE))
    messages = [_ecs_query(qnames[i % len(qnames)],
                           clients[i % len(clients)]) for i in range(n)]

    clear_codec_caches()
    start = time.perf_counter()
    ref_wires = []
    for msg in messages:
        clear_codec_caches()
        ref_wires.append(encode_message(msg))
    ref_seconds = time.perf_counter() - start

    clear_codec_caches()
    start = time.perf_counter()
    fast_wires = [encode_message(msg) for msg in messages]
    fast_seconds = time.perf_counter() - start

    assert fast_wires == ref_wires   # caching never changes the bytes
    for wire in fast_wires[:50]:
        decoded = decode_message(wire)
        assert decoded.question is not None
    _record(hotpath_bench, "wire_roundtrip", n, ref_seconds, fast_seconds)
    assert hotpath_bench["wire_roundtrip"]["fast_rps"] > \
        hotpath_bench["wire_roundtrip"]["reference_rps"]


# ---------------------------------------------------------------------------
# 3. end-to-end replay


@pytest.mark.hotpath
def test_hotpath_replay(hotpath_bench):
    """Batched replay (columns transposed per chunk, the key-id kernel)
    vs reference replay (per-record lambdas, two tracker accesses a
    row)."""
    dataset = AllNamesBuilder(scale=0.25 * SCALE, seed=42).build()
    records = dataset.records

    start = time.perf_counter()
    ref = replay_partial(records,
                         client_of=lambda r: r.client_ip,
                         scope_of=lambda r: r.scope,
                         ttl_of=lambda r: r.ttl)
    ref_seconds = time.perf_counter() - start

    start = time.perf_counter()
    fast = replay_partial_batched(records, "client_ip")
    fast_seconds = time.perf_counter() - start

    assert fast == ref               # counter-identical partials
    _record(hotpath_bench, "replay_allnames", len(records),
            ref_seconds, fast_seconds)
    # "Measurable end-to-end speedup": well clear of timing noise.
    assert hotpath_bench["replay_allnames"]["speedup"] >= 1.2


@pytest.mark.hotpath
def test_hotpath_replay_obs_disabled_is_free(hotpath_bench, tmp_path):
    """The engine's instrumented replay entry point vs the bare loop.

    With no registry or tracer active, a replay worker adds exactly two
    module-global loads per *shard* on top of ``replay_partial_columns``
    (the per-row loop is untouched), so its throughput must sit within
    timing noise of the bare fast lane.  This is the delta guard for the
    PR-2 fast paths: any per-row instrumentation creeping into the
    disabled path shows up here as a throughput drop.
    """
    from repro.datasets.columnar import ColumnarStore, write_columnar_stream
    from repro.engine.replay import _replay_columnar_shard
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    assert obs_metrics.ACTIVE is None and obs_trace.ACTIVE is None
    dataset = AllNamesBuilder(scale=0.25 * SCALE, seed=42).build()
    records = dataset.records
    trace = str(tmp_path / "allnames.col")
    write_columnar_stream(records, trace, "allnames",
                          row_group_rows=1 << 30)
    store = ColumnarStore.open(trace)
    rows = store.row_buckets("qname", 1)[0]

    # One shard is the whole trace.  Best of three, interleaved: at the
    # CI smoke scale a pass is ~20 ms, inside GC and scheduler noise, and
    # the first worker call pays its cached open and bucket table.
    bare_seconds = instrumented_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        bare = replay_partial_columns(store, "client_ip", rows)
        bare_seconds = min(bare_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        instrumented = _replay_columnar_shard(trace, "allnames", 1, 0)
        instrumented_seconds = min(instrumented_seconds,
                                   time.perf_counter() - start)

    assert instrumented == bare
    bare_rps = _rate(len(records), bare_seconds)
    instrumented_rps = _rate(len(records), instrumented_seconds)
    hotpath_bench["replay_obs_disabled"] = {
        "records": len(records),
        "bare_rps": round(bare_rps, 1),
        "instrumented_rps": round(instrumented_rps, 1),
        "ratio": round(instrumented_rps / bare_rps, 3) if bare_rps else 0.0,
    }
    assert instrumented_rps >= 0.8 * bare_rps
