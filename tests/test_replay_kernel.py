"""``ReplayKernel`` against the oracle, on traces small enough to read.

The kernel replays dense key ids and settles peak sizes after each chunk;
``replay_partial`` walks two ``ScopeTracker`` caches with tuple keys and
heaps.  They share no code, so equal counters on random little traces —
ties, TTL 0, every scope width, both address families, a client that is
None — fed in every way the kernel can be fed, with the chunk constant
small enough that every chunk edge and carried entry is crossed, is the
evidence that the two are one model.  The error paths keep their text.
"""

from __future__ import annotations

import dataclasses
import random
from math import inf, nan
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import cache_sim
from repro.analysis.cache_sim import (KeyedTrace, ReplayKernel,
                                      replay_partial,
                                      replay_partial_batched,
                                      replay_partial_column_groups,
                                      replay_partial_columns)
from repro.datasets.columnar import ColumnarStore
from repro.datasets.records import AllNamesRecord
from repro.engine.replay import _observed_replay
from repro.obs import observe

_V4 = ("10.1.2.3", "10.1.2.77", "10.1.9.9", "10.200.0.1")
_V6 = ("2001:db8::1", "2001:db8::2", "2001:db8:0:1::1", "2001:dead::1")
_SCOPES = {4: (0, 16, 24, 32), 6: (0, 16, 24, 32, 48, 128)}
_CHUNKS = (2, 3, cache_sim.CHUNK_ROWS)


@st.composite
def traces(draw, max_rows=80, anonymous=False):
    """Time-ordered allnames records: small steps so timestamps tie and
    TTLs of 0, 1 and 2 expire between rows; ``anonymous`` lets a row's
    client be None (the object lane only: the column is not nullable)."""
    records, now = [], draw(st.sampled_from((0.0, 1.5e9)))
    for _ in range(draw(st.integers(0, max_rows))):
        now += draw(st.sampled_from((0.0, 0.0, 0.5, 1.0, 3.0)))
        version = draw(st.sampled_from((4, 6)))
        client = draw(st.sampled_from(_V4 if version == 4 else _V6))
        if anonymous and draw(st.integers(0, 5)) == 0:
            client = None
        records.append(AllNamesRecord(
            now, client, draw(st.sampled_from(("a.example.", "b.example.",
                                               "c.example."))),
            draw(st.sampled_from((1, 28))),
            draw(st.sampled_from(_SCOPES[version])),
            draw(st.sampled_from((0, 1, 2, 20)))))
    return records


def _oracle(records, ttl_override=None):
    return replay_partial(
        records, lambda r: r.client_ip, lambda r: r.scope,
        (lambda r: r.ttl) if ttl_override is None
        else (lambda r: ttl_override))


def _store(records):
    return ColumnarStore.from_records(records, "allnames")


def _keyed(*stores):
    return KeyedTrace(stores, sum(map(len, stores)), "client_ip")


def _fed(store, ttl_override, feeds):
    """One kernel over ``store``, fed each row selection in turn."""
    kernel = ReplayKernel(ttl_override)
    segment = kernel.group_segment(store, "client_ip")
    for rows in feeds:
        kernel.feed(segment, rows)
    return kernel.partial()


@pytest.mark.oracle
@pytest.mark.parametrize("chunk", _CHUNKS)
@settings(max_examples=60, deadline=None)
@given(records=traces(), ttl_override=st.sampled_from((None, 0, 20)),
       data=st.data())
def test_kernel_equals_oracle_however_it_is_fed(chunk, records, ttl_override,
                                                data):
    want = _oracle(records, ttl_override)
    store = _store(records)
    everything = range(len(records))
    cut = data.draw(st.integers(0, len(records)), label="second feed from")
    size = data.draw(st.sampled_from((2, 3)), label="rows per group")
    groups = [_store(records[lo:lo + size])
              for lo in range(0, len(records), size)]
    with mock.patch.object(cache_sim, "CHUNK_ROWS", chunk):
        assert replay_partial_columns(
            _keyed(store), ttl_override=ttl_override) == want
        assert replay_partial_columns(
            _keyed(*groups), ttl_override=ttl_override) == want
        assert _fed(store, ttl_override, [None]) == want
        assert _fed(store, ttl_override,
                    [everything[:cut], everything[cut:]]) == want
        assert _fed(store, ttl_override,
                    [(row,) for row in everything]) == want
        assert replay_partial_column_groups(
            groups, "client_ip", ttl_override=ttl_override) == want
        assert replay_partial_batched(
            records, "client_ip", ttl_override=ttl_override) == want
        subset = sorted(data.draw(st.sets(st.sampled_from(everything)),
                                  label="row subset")) if records else []
        assert replay_partial_columns(
            _keyed(*groups), rows=subset, ttl_override=ttl_override) \
            == _oracle([records[row] for row in subset], ttl_override)


@pytest.mark.oracle
@pytest.mark.parametrize("chunk", _CHUNKS)
@settings(max_examples=40, deadline=None)
@given(records=traces(anonymous=True),
       ttl_override=st.sampled_from((None, 0, 20)))
def test_a_record_without_a_client_keeps_the_plain_key(chunk, records,
                                                       ttl_override):
    with mock.patch.object(cache_sim, "CHUNK_ROWS", chunk):
        assert replay_partial_batched(
            records, "client_ip", ttl_override=ttl_override) \
            == _oracle(records, ttl_override)


@pytest.mark.parametrize("seed", range(20))
def test_seeded_traces_with_a_ttl_lost_to_rounding(seed):
    """Timestamps near 1.5e9 step by 2**-22 at best: a TTL override of
    1e-9 vanishes in ``now + ttl``, so every entry expires at its own
    arrival, while 0.25 survives — in the kernel as in the oracle."""
    rng = random.Random(seed)
    now, records = 1.5e9, []
    for _ in range(rng.randrange(1, 80)):
        now += rng.choice((0.0, 1e-7, 0.125, 0.5))
        records.append(AllNamesRecord(
            now, rng.choice(_V4), rng.choice(("a.example.", "b.example.")),
            1, rng.choice(_SCOPES[4]), 1))
    trace = _keyed(_store(records))
    for ttl_override in (1e-9, 0.25):
        with mock.patch.object(cache_sim, "CHUNK_ROWS", rng.choice(_CHUNKS)):
            assert replay_partial_columns(
                trace, ttl_override=ttl_override) \
                == _oracle(records, ttl_override)


@settings(max_examples=40, deadline=None)
@given(records=traces(), data=st.data())
def test_traced_equals_untraced(records, data):
    """``_observed_replay`` under a tracer runs the same adapter call
    inside one ``replay`` span: the same partial, and the span's
    attributes are that partial's six fields plus its row count."""
    trace = _keyed(_store(records))
    rows = sorted(data.draw(st.sets(st.sampled_from(range(len(records)))),
                            label="rows")) if records else []

    def run():
        return _observed_replay(
            "allnames", lambda: replay_partial_columns(trace, rows=rows))

    untraced = run()
    with observe(metrics=False, tracing=True) as session:
        assert run() == untraced
    [span] = session.tracer.spans
    assert span.name == "replay"
    assert span.attrs == {"kind": "allnames", "rows": len(rows),
                          **dataclasses.asdict(untraced)}
    assert untraced == _oracle([records[row] for row in rows])


# ---------------------------------------------------------------------------
# Refusals


def _three(middle_ts=1.0, client="10.1.2.3", scope=24):
    return [AllNamesRecord(0.0, "10.9.8.7", "a.example.", 1, 24, 60),
            AllNamesRecord(middle_ts, client, "a.example.", 1, scope, 60),
            AllNamesRecord(2.0, "10.9.8.7", "b.example.", 1, 16, 60)]


def _lanes(records):
    store = _store(records)
    return {
        "columns": lambda: replay_partial_columns(_keyed(store)),
        "groups": lambda: replay_partial_column_groups(
            [_store(records[:1]), _store(records[1:])], "client_ip"),
        "batched": lambda: replay_partial_batched(records, "client_ip"),
        "two feeds": lambda: _fed(store, None, [(0, 1), (2,)]),
        "row at a time": lambda: _fed(store, None, [(0,), (1,), (2,)]),
    }


@pytest.mark.parametrize("chunk", _CHUNKS)
@pytest.mark.parametrize("lane", sorted(_lanes(_three())))
def test_time_running_backwards_is_refused(lane, chunk):
    """The replay is defined on time-ordered rows; a reversed timestamp
    raises, naming the row and both instants, wherever the chunk edges
    and feed boundaries fall — it does not yield counters that mean
    nothing."""
    with mock.patch.object(cache_sim, "CHUNK_ROWS", chunk):
        assert _lanes(_three())[lane]() == _oracle(_three())
        with pytest.raises(ValueError, match=r"ts 2\.0 follows ts 2\.5; a "
                           r"replay needs a finite, time-ordered trace") \
                as caught:
            _lanes(_three(middle_ts=2.5))[lane]()
        # The row is numbered within the store, group or chunk it is in.
        row = 1 if lane == "groups" else 2 % chunk if lane == "batched" else 2
        assert str(caught.value).startswith(f"row {row}: ")


@pytest.mark.parametrize("ts", (nan, inf))
def test_a_timestamp_that_is_not_finite_is_refused(ts):
    with pytest.raises(ValueError, match="finite, time-ordered"):
        replay_partial_batched(_three(middle_ts=ts), "client_ip")


@pytest.mark.parametrize("lane", ("columns", "groups", "batched"))
@pytest.mark.parametrize("client,scope,version", (
    ("10.1.2.3", -1, 4), ("10.1.2.3", 33, 4),
    ("2001:db8::1", -1, 6), ("2001:db8::1", 129, 6)))
def test_scope_outside_the_family_width_raises_as_truncate_int(
        lane, client, scope, version):
    records = _three(client=client, scope=scope)
    message = f"prefix length {scope} out of range for IPv{version}"
    with pytest.raises(ValueError, match=message):
        _oracle(records)
    with pytest.raises(ValueError, match=message):
        _lanes(records)[lane]()


def test_keying_a_bad_row_raises_every_time():
    """A scope or an address that cannot be keyed raises, with the same
    text, each time a trace is keyed, before any row is replayed; a good
    store keyed beside it keys afresh as if nothing had happened."""
    good = _store(_three())
    trace = _keyed(good)
    assert replay_partial_columns(trace) == _oracle(_three())
    assert replay_partial_columns(trace, rows=[0, 2], ttl_override=0) \
        == _oracle([_three()[0], _three()[2]], 0)

    for records, message in ((_three(scope=33), "prefix length 33"),
                             (_three(client="10.9.8.777"), "10.9.8.777")):
        store = _store(records)
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                _keyed(good, store)
    assert replay_partial_columns(_keyed(good)) == _oracle(_three())
