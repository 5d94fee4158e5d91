"""Hot-path fast-lane benchmarks: reference vs fast records/sec.

Each benchmark times one per-query hot path both ways — the readable
``ipaddress``/callable/uncached reference and the integer-native/batched/
cached fast lane — over the same inputs, asserts the results agree,
prints before-vs-after throughput through ``save_report`` and holds the
speedup to the bar each test states.  The equivalence contract itself
(random inputs, edge bits) lives in ``tests/test_fastpath_equivalence.py``;
here identical output is asserted once more at bench scale, then
throughput is measured.

Scale with ``HOTPATH_BENCH_SCALE`` (default 1.0; CI uses 0.1).
"""

from __future__ import annotations

import os
import random
import sys
import time
from pathlib import Path

import pytest

from repro.addr import parse_addr, prefix_key_int
from repro.analysis.cache_sim import (KeyedTrace, replay_partial,
                                      replay_partial_batched,
                                      replay_partial_columns)
from repro.datasets.allnames import AllNamesBuilder
from repro.dnslib import (EcsOption, EdnsInfo, Message, Name, Question,
                          RecordType, decode_message, encode_message)
from repro.dnslib.wire import clear_codec_caches

from bench_timing import alternating_rounds, median_ratio

# The ipaddress-based reference lives beside the tests that pin it.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from addr_reference import prefix_key  # noqa: E402

SCALE = float(os.environ.get("HOTPATH_BENCH_SCALE", "1.0"))
#: Bare/instrumented rounds whose median ratio is held to 0.8.
REPLAY_OBS_ROUNDS = 31


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _speedup(save_report, name: str, records: int,
             ref_seconds: float, fast_seconds: float) -> float:
    """Print both rates through ``save_report``; return fast / reference."""
    ref_rps = _rate(records, ref_seconds)
    fast_rps = _rate(records, fast_seconds)
    speedup = fast_rps / ref_rps if ref_rps else 0.0
    save_report(f"hotpath_{name}",
                f"{name}: {records} records, reference {ref_rps:,.0f} "
                f"rec/s, fast {fast_rps:,.0f} rec/s, speedup {speedup:.2f}x")
    return speedup


# ---------------------------------------------------------------------------
# 1. prefix keying


@pytest.mark.hotpath
def test_hotpath_prefix_keying(save_report):
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
    # The acceptance bar: the integer fast lane must be >= 2x the
    # reference (measured ~10-17x in development).
    assert _speedup(save_report, "prefix_keying", len(addrs),
                    ref_seconds, fast_seconds) >= 2.0


# ---------------------------------------------------------------------------
# 2. wire round-trip


def _ecs_query(qname: str, client: str) -> Message:
    msg = Message(msg_id=4242)
    msg.question = Question(Name.from_text(qname), RecordType.A)
    msg.edns = EdnsInfo(options=[EcsOption.from_client_address(client, 24)])
    return msg


@pytest.mark.hotpath
def test_hotpath_wire_roundtrip(save_report):
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
    assert _speedup(save_report, "wire_roundtrip", n,
                    ref_seconds, fast_seconds) > 1.0


# ---------------------------------------------------------------------------
# 3. end-to-end replay


@pytest.mark.hotpath
def test_hotpath_replay(save_report):
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
    # "Measurable end-to-end speedup": well clear of timing noise.
    assert _speedup(save_report, "replay_allnames", len(records),
                    ref_seconds, fast_seconds) >= 1.2


@pytest.mark.hotpath
def test_hotpath_replay_obs_disabled_is_free(save_report, tmp_path):
    """The engine's instrumented replay entry point vs the bare loop.

    With no registry or tracer active, a replay worker adds exactly two
    module-global loads per *shard* on top of ``replay_partial_columns``
    (the per-row loop is untouched), so its throughput must sit within
    timing noise of the bare fast lane.  This is the delta guard for the
    PR-2 fast paths: any per-row instrumentation creeping into the
    disabled path shows up here as a throughput drop.
    """
    from repro.datasets.columnar import RowGroupReader, write_columnar_stream
    from repro.engine.replay import _replay_columnar_shard
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    assert obs_metrics.ACTIVE is None and obs_trace.ACTIVE is None
    dataset = AllNamesBuilder(scale=0.25 * SCALE, seed=42).build()
    records = dataset.records
    trace = str(tmp_path / "allnames.col")
    write_columnar_stream(records, trace, "allnames",
                          row_group_rows=1 << 30)
    with RowGroupReader(trace) as reader:
        keyed = KeyedTrace(reader.walk(), reader.rows, "client_ip")
    rows = keyed.qname_buckets(1)[0]

    # One shard is the whole trace.  At the CI scale a pass is ~20 ms,
    # inside GC and scheduler noise, so the bar holds the median of
    # alternating rounds' ratios; the first worker call pays its cached
    # open and bucket table, and that round is one of many.
    results, seconds = alternating_rounds({
        "bare": lambda: replay_partial_columns(keyed, rows),
        "instrumented": lambda: _replay_columnar_shard(trace, "allnames",
                                                       1, 0)},
        REPLAY_OBS_ROUNDS)

    assert results["instrumented"] == results["bare"]
    ratio = median_ratio(seconds, "bare", "instrumented")
    save_report("hotpath_replay_obs_disabled", (
        f"replay_obs_disabled: {len(records)} records, median of "
        f"{REPLAY_OBS_ROUNDS} alternating rounds: instrumented/bare = "
        f"{ratio:.3f} (bar >= 0.8)"))
    assert ratio >= 0.8
