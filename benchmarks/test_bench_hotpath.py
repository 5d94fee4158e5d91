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
import statistics
import sys
from pathlib import Path

import pytest

from repro.addr import clear_address_caches, parse_addr, prefix_key_int
from repro.analysis.cache_sim import (replay_partial, replay_partial_batched,
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
#: Alternating reference/fast rounds whose median ratio each speedup
#: bar holds (one round is 10-100 ms at the CI scale).
PREFIX_KEYING_ROUNDS = 15
WIRE_ROUNDTRIP_ROUNDS = 31
REPLAY_ROUNDS = 9
#: Bare/instrumented rounds whose median ratio is held to 0.8.
REPLAY_OBS_ROUNDS = 31


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _speedup(save_report, name: str, records: int, seconds,
             bar: str) -> float:
    """Print both modes' median rates and the speedup through
    ``save_report``; return the speedup: the median over
    :func:`alternating_rounds`' rounds of reference / fast seconds."""
    speedup = median_ratio(seconds, "reference", "fast")
    ref_rps = _rate(records, statistics.median(seconds["reference"]))
    fast_rps = _rate(records, statistics.median(seconds["fast"]))
    save_report(f"hotpath_{name}",
                f"{name}: {records} records, median of "
                f"{len(seconds['fast'])} alternating rounds: reference "
                f"{ref_rps:,.0f} rec/s, fast {fast_rps:,.0f} rec/s, "
                f"speedup {speedup:.2f}x (bar {bar})")
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

    def fast():
        # Each round starts with cold parse memos, as the first pass did.
        clear_address_caches()
        keys = []
        append = keys.append
        for a in addrs:
            version, value = parse_addr(a)
            append(prefix_key_int(version, value, bits_of[version]))
        return keys

    results, seconds = alternating_rounds({
        "reference": lambda: [prefix_key(a, bits_of[4 if ":" not in a
                                                    else 6])
                              for a in addrs],
        "fast": fast}, PREFIX_KEYING_ROUNDS)

    # interchangeable as dict keys
    assert results["fast"] == results["reference"]
    # The acceptance bar: the integer fast lane must be >= 2x the
    # reference (measured ~10-17x in development).
    assert _speedup(save_report, "prefix_keying", len(addrs), seconds,
                    ">= 2.0") >= 2.0


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

    def reference():
        wires = []
        for msg in messages:
            clear_codec_caches()
            wires.append(encode_message(msg))
        return wires

    def fast():
        clear_codec_caches()
        return [encode_message(msg) for msg in messages]

    results, seconds = alternating_rounds(
        {"reference": reference, "fast": fast}, WIRE_ROUNDTRIP_ROUNDS)

    # caching never changes the bytes
    assert results["fast"] == results["reference"]
    for wire in results["fast"][:50]:
        decoded = decode_message(wire)
        assert decoded.question is not None
    assert _speedup(save_report, "wire_roundtrip", n, seconds,
                    "> 1.0") > 1.0


# ---------------------------------------------------------------------------
# 3. end-to-end replay


@pytest.mark.hotpath
def test_hotpath_replay(save_report):
    """Batched replay (columns transposed per chunk, the key-id kernel)
    vs reference replay (per-record lambdas, two tracker accesses a
    row)."""
    dataset = AllNamesBuilder(scale=0.25 * SCALE, seed=42).build()
    records = dataset.records

    results, seconds = alternating_rounds({
        "reference": lambda: replay_partial(
            records, client_of=lambda r: r.client_ip,
            scope_of=lambda r: r.scope, ttl_of=lambda r: r.ttl),
        "fast": lambda: replay_partial_batched(records, "client_ip")},
        REPLAY_ROUNDS)

    # counter-identical partials
    assert results["fast"] == results["reference"]
    # "Measurable end-to-end speedup": well clear of timing noise.
    assert _speedup(save_report, "replay_allnames", len(records), seconds,
                    ">= 1.2") >= 1.2


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
    from repro.datasets.columnar import write_columnar_stream
    from repro.engine.replay import _HELD, _replay_columnar_shard
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    assert obs_metrics.ACTIVE is None and obs_trace.ACTIVE is None
    dataset = AllNamesBuilder(scale=0.25 * SCALE, seed=42).build()
    records = dataset.records
    trace = str(tmp_path / "allnames.col")
    write_columnar_stream(records, trace, "allnames",
                          row_group_rows=1 << 30)
    # Both modes replay the one bucket the worker holds (_HELD), so the
    # bar compares the entry point with the bare lane on the same rows.
    _replay_columnar_shard(trace, "allnames", 1, 0)
    keyed = _HELD.value

    # One shard is the whole trace.  At the CI scale a pass is ~20 ms,
    # inside GC and scheduler noise, so the bar holds the median of
    # alternating rounds' ratios.
    results, seconds = alternating_rounds({
        "bare": lambda: replay_partial_columns(keyed, 0),
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
