"""Columnar store: format round-trips, shard algebra, vectorized replay.

The store's contract has four layers, each pinned here:

* **Round-trip fidelity** — records → columns → records is the identity
  for every schema and every Optional/null shape (Hypothesis drives the
  shapes), and JSONL → columnar → JSONL reproduces the exact bytes.
* **Shard algebra** — ``merge_columnar_shards`` equals the canonical
  ts/k-way merge of the shards' records.
* **Replay equivalence** — :func:`replay_partial_columns` over a
  :class:`KeyedTrace` is counter-identical to the object-path reference
  for whole stores, row buckets, and TTL overrides.
* **Row-group layout** — random group budgets (including 1 and larger
  than the trace) round-trip value-identically with group-local
  dictionaries remapped on read; the merge writes the bytes of the
  per-row heapq reference (group copies included) on overlapping-ts
  fixtures and on drawn shards with heavy ts ties; the merge and
  ``walk`` release each group's pages once, in order, before the next
  group is opened; a pre-bucketed file
  replays like its flat source; an interrupted writer leaves no file
  behind.
* **One parser** — a damaged header, hostile bucket tags and a
  dictionary code past its dictionary raise :class:`ColumnarFormatError`
  naming the file from every reader, and a file in the retired
  single-block layout (``RPRCOL01``) is refused by name whatever else
  is wrong with it.
* **JSONL lane** — lines parse a chunk at a time straight into columns:
  the parsed store equals ``from_records`` over the lines decoded one
  ``json.loads`` at a time, for any key
  order, whitespace, escapes and chunk edge; ``replay_jsonl_sharded``
  equals the oracle; no record object is built; and a line that is not
  a row of the schema raises :class:`JsonlFormatError` naming file and
  line from ``replay`` and ``convert`` alike.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import mmap
import pickle
import random
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import cache_sim
from repro.analysis.cache_sim import (KeyedTrace, replay_partial,
                                      replay_partial_batched,
                                      replay_partial_column_groups,
                                      replay_partial_columns)
from repro.datasets import columnar
from repro.datasets.columnar import (MAGIC, SCHEMAS,
                                     ColumnarFormatError, ColumnarStore,
                                     ColumnarWriter,
                                     GroupedColumnarWriter, RowGroupReader,
                                     bucketed_group_ranges,
                                     columnar_to_jsonl, convert_columnar,
                                     file_info, merge_columnar_shards,
                                     schema_for, trace_format,
                                     write_columnar_stream)
from repro.datasets.records import (AllNamesRecord, CdnQueryRecord,
                                    JsonlFormatError, PublicCdnRecord,
                                    TraceFormatError, write_jsonl)
from repro.engine import WorkerPool
from repro.engine import replay as engine_replay
from repro.engine.replay import (ACCESSORS, _parse_lines,
                                 replay_columnar_sharded,
                                 replay_jsonl_sharded)
from repro.engine.sharding import partition_by_key
from repro.cli import main
from repro.obs import live as obs_live
from repro.obs import observe
from repro.obs.live import LiveSink

from builder_reference import merge_sorted_records
from jsonl_reference import merge_jsonl_shards, read_columnar, read_jsonl

#: The committed JSONL twins of the two traces once kept in the retired
#: single-block layout: the first 300 records of
#: ``AllNamesBuilder(scale=0.01, seed=9)`` and the first 120 of
#: ``CdnDatasetBuilder(scale=0.004, seed=7, duration_s=900.0)`` (27 null
#: ECS addresses, every ECS scope null).
DATA = Path(__file__).parent / "data"
#: Magic of the retired single-block layout, which no reader opens.
V1_MAGIC = b"RPRCOL01"


def _committed_trace(name: str, directory: Path, row_group_rows=None):
    """The committed trace ``name`` converted from its JSONL twin into a
    columnar file under ``directory`` (one group by default, the shape
    the retired layout had), and the records it holds."""
    src = DATA / f"{name}_v1.jsonl"
    path = directory / f"{name}.col"
    convert_columnar(src, path, name, row_group_rows)
    return path, read_jsonl(src, SCHEMAS[name].record_type)


# ---------------------------------------------------------------------------
# Record strategies, one per schema, covering every Optional/null shape.

_TS = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                allow_infinity=False)
_IP4 = st.builds("10.{}.{}.{}".format, st.integers(0, 255),
                 st.integers(0, 255), st.integers(0, 255))
_IP6 = st.builds("2001:db8::{:x}".format, st.integers(0, 0xffff))
_IP = st.one_of(_IP4, _IP6)
_QNAME = st.builds("h{}.example.".format, st.integers(0, 50))
_QTYPE = st.sampled_from((1, 28, 5))
_SCOPE = st.sampled_from((0, 8, 16, 20, 24, 32))
_TTL = st.integers(0, 3600)

RECORD_STRATEGIES = {
    "allnames": st.builds(AllNamesRecord, ts=_TS, client_ip=_IP,
                          qname=_QNAME, qtype=_QTYPE, scope=_SCOPE,
                          ttl=_TTL),
    "public-cdn": st.builds(PublicCdnRecord, ts=_TS, resolver_ip=_IP,
                            qname=_QNAME, qtype=_QTYPE, ecs_address=_IP,
                            ecs_source_len=st.sampled_from((24, 32, 56)),
                            scope=_SCOPE, ttl=_TTL),
    "cdn": st.builds(CdnQueryRecord, ts=_TS, resolver_ip=_IP, qname=_QNAME,
                     qtype=_QTYPE, has_ecs=st.booleans(),
                     ecs_address=st.none() | _IP,
                     ecs_source_len=st.none() | st.integers(0, 128),
                     ecs_scope=st.none() | _SCOPE, ttl=_TTL),
}


def _hand_records(name: str, count: int = 60, seed: int = 3) -> list:
    """Deterministic records for the non-Hypothesis cases, all schemas."""
    rng = random.Random(seed)
    schema = SCHEMAS[name]
    out = []
    for i in range(count):
        values = []
        for spec in schema.columns:
            if spec.nullable and rng.random() < 0.3:
                values.append(None)
            elif spec.kind == "str":
                if "ip" in spec.name or "address" in spec.name:
                    values.append(f"10.{rng.randrange(4)}."
                                  f"{rng.randrange(256)}.0")
                else:
                    values.append(f"h{rng.randrange(9)}.example.")
            elif spec.kind == "bool":
                values.append(bool(rng.getrandbits(1)))
            elif spec.kind == "f8":
                values.append(round(rng.uniform(0, 100), 3))
            elif "scope" in spec.name or "source_len" in spec.name:
                values.append(rng.choice((0, 8, 16, 24, 32)))
            else:
                values.append(rng.randrange(64))
        out.append(schema.record_type(*values))
    out.sort(key=lambda r: r.ts)
    return out


# ---------------------------------------------------------------------------
# Round-trip fidelity


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_roundtrip_all_schemas(name, tmp_path):
    records = _hand_records(name)
    path = tmp_path / f"{name}.col"
    assert write_columnar_stream(records, path, name) == len(records)
    assert trace_format(path) == "columnar"
    assert read_columnar(path) == records


@pytest.mark.parametrize("name", sorted(RECORD_STRATEGIES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_roundtrip_property(name, data, tmp_path_factory):
    """records → columnar → records is the identity, any null shape."""
    records = data.draw(st.lists(RECORD_STRATEGIES[name], max_size=40))
    store = ColumnarStore.from_records(records, name)
    assert list(store.iter_records()) == records
    assert len(store) == len(records)
    path = tmp_path_factory.mktemp("prop") / "trace.col"
    write_columnar_stream(records, path, name)
    with ColumnarStore.open(path) as opened:
        assert list(opened.iter_records()) == records


def test_jsonl_roundtrip_byte_identical(tmp_path):
    records = _hand_records("cdn")
    src = tmp_path / "trace.jsonl"
    write_jsonl(records, src)
    col = tmp_path / "trace.col"
    assert convert_columnar(src, col, "cdn") == len(records)
    back = tmp_path / "back.jsonl"
    assert columnar_to_jsonl(col, back) == len(records)
    assert back.read_bytes() == src.read_bytes()


def test_schema_resolution():
    assert schema_for("allnames") is SCHEMAS["allnames"]
    assert schema_for(AllNamesRecord) is SCHEMAS["allnames"]
    assert schema_for(_hand_records("cdn", 1)[0]) is SCHEMAS["cdn"]
    with pytest.raises(KeyError, match="unknown columnar schema"):
        schema_for("no-such")
    with pytest.raises(KeyError, match="no columnar schema"):
        schema_for(int)


def test_non_nullable_rejects_none():
    writer = ColumnarWriter(SCHEMAS["allnames"])
    with pytest.raises(ValueError, match="not nullable"):
        writer.extend([AllNamesRecord(0.0, None, "a.", 1, 0, 60)])


def test_append_values_checks_arity(tmp_path):
    """A row one value short or long is refused whole, by the writer and
    by the store built from column chunks: ``zip`` alone would append to
    some columns only and leave every later row misaligned."""
    row = (0.5, "10.0.0.1", "a.", 1, 24, 60)
    with GroupedColumnarWriter("allnames", tmp_path / "t.col", 4) as writer:
        writer.extend_columns([[value] for value in row])
        before = _writer_state(writer._buffer)
        for values in ((1.0, "10.0.0.2", "b.", 1, 24),
                       (1.0, "10.0.0.2", "b.", 1, 24, 60, 0)):
            with pytest.raises(ValueError,
                               match="'allnames' takes 6 equal-length"):
                writer.extend_columns([[value] for value in values])
            with pytest.raises(ValueError,
                               match="'allnames' takes 6 equal-length"):
                ColumnarStore.from_column_chunks(
                    [[[value] for value in values]], "allnames")
            assert _writer_state(writer._buffer) == before
        assert writer.rows + writer.pending_rows == 1


# ---------------------------------------------------------------------------
# Batched encoding: ``extend`` against the cell-at-a-time loop it replaced

_STRINGS = st.sampled_from(("", "a.", "h1.example.", "h2.example.",
                            "10.0.0.1", "2001:db8::1", "é.example."))


def _column_values(spec):
    if spec.kind == "str":
        values = _STRINGS
    elif spec.kind == "bool":
        values = st.booleans()
    elif spec.kind == "f8":
        values = _TS
    else:
        values = st.integers(0, 3600)
    return st.none() | values if spec.nullable else values


#: Records of all five schemas from a small value pool: repeated and
#: empty strings, and ``None`` wherever the schema allows it.
ANY_RECORDS = {
    name: st.builds(schema.record_type,
                    *(_column_values(spec) for spec in schema.columns))
    for name, schema in SCHEMAS.items()}


def _append_cellwise(writer: ColumnarWriter, record) -> None:
    """The per-cell loop the writer ran before encoding went
    column-at-a-time, kept as the oracle for the batched routine."""
    row = writer.rows
    for spec in writer.schema.columns:
        value = getattr(record, spec.name)
        arr = writer._arrays[spec.name]
        if value is None:
            assert spec.nullable
            writer._set_null(spec.name, row)
            arr.append(0)
        elif spec.kind == "str":
            codes = writer._interns[spec.name]
            if value not in codes:
                codes[value] = len(codes)
            arr.append(codes[value])
        elif spec.kind == "bool":
            arr.append(1 if value else 0)
        else:
            arr.append(value)
    writer.rows = row + 1


def _writer_state(writer: ColumnarWriter):
    """Everything a rejected chunk must leave untouched."""
    return (writer.rows,
            {name: arr.tobytes() for name, arr in writer._arrays.items()},
            {name: list(codes.items())
             for name, codes in writer._interns.items()},
            {name: bytes(bitmap) for name, bitmap in writer._nulls.items()})


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_extend_byte_identical_to_row_loop(name, data, tmp_path_factory):
    """``extend`` == a one-record ``extend`` per row == the old per-cell
    loop: the same buffer state (every byte a flush serializes) and the
    same file.

    The chunk constant is drawn small so chunk edges fall inside the
    lists; the group budget is drawn so lengths straddle group edges;
    the list arrives as two ``extend`` calls so a chunk can start on a
    part-filled group.
    """
    records = data.draw(st.lists(ANY_RECORDS[name], max_size=70))
    chunk = data.draw(st.integers(1, 16))
    budget = data.draw(st.integers(1, 40))
    split = data.draw(st.integers(0, len(records)))
    out = tmp_path_factory.mktemp("extend")
    with mock.patch.object(columnar, "EXTEND_CHUNK_ROWS", chunk):
        batched = ColumnarWriter(SCHEMAS[name])
        assert batched.extend(records[:split]) == split
        assert batched.extend(iter(records[split:])) == len(records) - split
        with GroupedColumnarWriter(name, out / "batched.v2.col",
                                   budget) as grouped:
            assert grouped.extend(iter(records[:split])) == split
            assert grouped.extend(records[split:]) == len(records) - split
    looped = ColumnarWriter(SCHEMAS[name])
    cellwise = ColumnarWriter(SCHEMAS[name])
    with GroupedColumnarWriter(name, out / "looped.v2.col",
                               budget) as grouped_loop:
        for record in records:
            looped.extend([record])
            _append_cellwise(cellwise, record)
            grouped_loop.extend([record])
    assert _writer_state(batched) == _writer_state(looped) \
        == _writer_state(cellwise)
    assert (out / "batched.v2.col").read_bytes() \
        == (out / "looped.v2.col").read_bytes()
    assert grouped.rows == grouped_loop.rows == len(records)


#: (field, bad value, error): ``None`` where the schema forbids it, and
#: values the column's packed type cannot hold.  All sit after the two
#: string columns, so the rejected chunk has already interned strings.
_REJECTED = (("qtype", None, ValueError), ("ttl", None, ValueError),
             ("qtype", "A", TypeError), ("scope", 1 << 40, OverflowError),
             ("ts", "noon", TypeError))


def _fresh_allnames(count: int, tag: str) -> list:
    """Records whose strings no other call with another tag produces."""
    return [AllNamesRecord(float(i), f"10.9.{tag}.{i}", f"{tag}{i}.example.",
                           1, 24, 60) for i in range(count)]


@pytest.mark.parametrize("field,value,error", _REJECTED)
def test_extend_rejected_chunk_leaves_writer_unchanged(field, value, error):
    writer = ColumnarWriter(SCHEMAS["cdn"])
    writer.extend(_hand_records("cdn", 11))
    before_cdn = _writer_state(writer)
    with pytest.raises(ValueError, match="not nullable"):
        writer.extend(_hand_records("cdn", 5, seed=4)
                      + [CdnQueryRecord(9.0, None, "q.", 1, False)])
    assert _writer_state(writer) == before_cdn

    writer = ColumnarWriter(SCHEMAS["allnames"])
    writer.extend(_fresh_allnames(7, "a"))
    before = _writer_state(writer)
    batch = _fresh_allnames(9, "b")
    setattr(batch[5], field, value)
    with pytest.raises(error):
        writer.extend(batch)
    assert _writer_state(writer) == before
    with pytest.raises(error):
        writer.extend([batch[5]])
    assert _writer_state(writer) == before


@pytest.mark.parametrize("field,value,error", _REJECTED)
def test_extend_is_all_or_nothing_per_chunk(field, value, error, tmp_path):
    """Chunks before the rejected one stay; the writer is then exactly
    where a shorter ``extend`` would have left it, and still usable."""
    batch = _fresh_allnames(11, "c")
    good = list(batch)
    bad = AllNamesRecord(5.0, "10.9.x.1", "x.example.", 1, 24, 60)
    setattr(bad, field, value)
    batch[9] = bad
    with mock.patch.object(columnar, "EXTEND_CHUNK_ROWS", 4):
        writer = ColumnarWriter(SCHEMAS["allnames"])
        with pytest.raises(error):
            writer.extend(iter(batch))
        reference = ColumnarWriter(SCHEMAS["allnames"])
        reference.extend(good[:8])
        assert _writer_state(writer) == _writer_state(reference)

        path, ref_path = tmp_path / "resumed.col", tmp_path / "ref.col"
        with GroupedColumnarWriter("allnames", path, 6) as grouped:
            with pytest.raises(error):
                grouped.extend(batch)
            # Chunks never cross the group edge: 4, 2, then the bad 4.
            assert (grouped.rows, grouped.pending_rows) == (6, 0)
            grouped.extend(good[6:])
        with GroupedColumnarWriter("allnames", ref_path, 6) as ref:
            ref.extend(good)
    assert path.read_bytes() == ref_path.read_bytes()
    assert read_columnar(path) == good


def test_open_rejects_bad_magic_and_version(tmp_path):
    bogus = tmp_path / "bogus.col"
    bogus.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError, match="bad magic"):
        ColumnarStore.open(bogus)
    assert trace_format(bogus) == "jsonl"
    with pytest.raises(TraceFormatError,
                       match="missing.col: No such file or directory"):
        trace_format(tmp_path / "missing.col")
    header = json.dumps({"version": 99, "schema": "allnames", "rows": 0,
                         "groups": []}).encode()
    stale = tmp_path / "stale.col"
    stale.write_bytes(MAGIC + (16).to_bytes(8, "little") + header)
    with pytest.raises(ValueError, match="version 99"):
        ColumnarStore.open(stale)


def test_file_info_matches_store(tmp_path):
    records = _hand_records("public-cdn", 80)
    path = tmp_path / "pc.col"
    write_columnar_stream(records, path, "public-cdn")
    info = file_info(path)
    assert info["schema"] == "public-cdn"
    assert info["rows"] == 80
    assert info["file_bytes"] == path.stat().st_size
    assert {c["name"] for c in info["columns"]} \
        == set(SCHEMAS["public-cdn"].field_names)
    qname = next(c for c in info["columns"] if c["name"] == "qname")
    assert qname["dict_entries"] == \
        len({r.qname for r in records})


# ---------------------------------------------------------------------------
# Shard algebra


def test_merge_shards_matches_canonical_merge(tmp_path):
    """k-way columnar merge == merge_sorted_records, ties and all."""
    rng = random.Random(11)
    shard_lists = []
    for shard in range(3):
        records = _hand_records("allnames", 40, seed=shard)
        # Force ts ties across shards so the earlier-shard tie-break
        # is actually exercised.
        for r in records[:10]:
            r.ts = float(rng.randrange(5))
        records.sort(key=lambda r: r.ts)
        shard_lists.append(records)
    paths = []
    for i, records in enumerate(shard_lists):
        path = tmp_path / f"s{i}.col"
        write_columnar_stream(records, path, "allnames")
        paths.append(path)
    out = tmp_path / "merged.col"
    reference = merge_sorted_records(shard_lists)
    assert merge_columnar_shards(paths, out) == len(reference)
    assert read_columnar(out) == reference


def test_merge_rejects_mixed_schemas(tmp_path):
    a = tmp_path / "a.col"
    b = tmp_path / "b.col"
    write_columnar_stream(_hand_records("allnames", 5), a, "allnames")
    write_columnar_stream(_hand_records("cdn", 5), b, "cdn")
    with pytest.raises(ValueError, match="mixed schemas"):
        merge_columnar_shards([a, b], tmp_path / "out.col")
    assert not list(tmp_path.glob("out.col*"))


def test_row_buckets_match_partition_by_key():
    """A store's row buckets and its keyed trace's qname buckets are the
    qname partition of its rows."""
    records = _hand_records("allnames", 200)
    store = ColumnarStore.from_records(records, "allnames")
    trace = KeyedTrace([store], len(store), "client_ip")
    for shards in (1, 3, 8):
        reference = partition_by_key(list(range(len(records))), shards,
                                     lambda i: records[i].qname)
        for buckets in (store.row_buckets("qname", shards),
                        trace.qname_buckets(shards)):
            assert [list(bucket) for bucket in buckets] == reference


# ---------------------------------------------------------------------------
# Vectorized replay equivalence


_TTL_OVERRIDE = st.sampled_from((None, 0, 40))


def _oracle(records, ttl_override=None):
    """The readable reference: :func:`replay_partial` over ScopeTracker."""
    return replay_partial(
        records, lambda r: r.client_ip, lambda r: r.scope,
        (lambda r: r.ttl) if ttl_override is None
        else (lambda r: ttl_override))


@settings(max_examples=40, deadline=None)
@given(records=st.lists(RECORD_STRATEGIES["allnames"], max_size=60),
       shards=st.integers(min_value=1, max_value=4),
       ttl_override=_TTL_OVERRIDE, data=st.data())
def test_replay_columns_equals_object_path(records, shards, ttl_override,
                                           data):
    """Whole-store, per-bucket and drawn-selection column replays, and
    the object lane at a drawn chunk boundary, all match the oracle."""
    records.sort(key=lambda r: r.ts)
    store = ColumnarStore.from_records(records, "allnames")
    chunk = data.draw(st.integers(1, 70), label="record chunk rows")
    with mock.patch.object(cache_sim, "CHUNK_ROWS", chunk):
        batched = replay_partial_batched(records, "client_ip",
                                         ttl_override=ttl_override)
    assert batched == _oracle(records, ttl_override)
    trace = KeyedTrace([store], len(store), "client_ip")
    assert replay_partial_columns(trace, ttl_override=ttl_override) \
        == batched
    buckets = trace.qname_buckets(shards)
    reference = partition_by_key(records, shards, lambda r: r.qname)
    for bucket, ref in zip(buckets, reference):
        assert replay_partial_columns(trace, rows=bucket,
                                      ttl_override=ttl_override) \
            == _oracle(ref, ttl_override)
    rows = sorted(data.draw(st.sets(st.integers(0, len(records) - 1)),
                            label="row selection")) if records else []
    assert replay_partial_columns(trace, rows=rows,
                                  ttl_override=ttl_override) \
        == _oracle([records[row] for row in rows], ttl_override)
    # Object lane only: a record without a client keeps the scope-free key.
    anonymous = data.draw(st.sets(st.sampled_from(range(len(records)))),
                          label="rows without a client") if records else ()
    holed = [dataclasses.replace(r, client_ip=None) if i in anonymous else r
             for i, r in enumerate(records)]
    with mock.patch.object(cache_sim, "CHUNK_ROWS", chunk):
        assert replay_partial_batched(holed, "client_ip",
                                      ttl_override=ttl_override) \
            == _oracle(holed, ttl_override)


@pytest.mark.parametrize("ttl_override", (None, 0, 40))
def test_replay_columns_ttl_override(ttl_override):
    records = _hand_records("public-cdn", 300, seed=9)
    store = ColumnarStore.from_records(records, "public-cdn")
    trace = KeyedTrace([store], len(store), "ecs_address")
    assert replay_partial_columns(trace, ttl_override=ttl_override) \
        == replay_partial_batched(records, "ecs_address",
                                  ttl_override=ttl_override)


@pytest.mark.parametrize("client", ("10.1.2.3", "2001:db8::1"))
@pytest.mark.parametrize("scope", (-1, 33, 129))
@pytest.mark.parametrize("lane", ("batched", "columns", "groups"))
def test_out_of_range_scope_raises_like_oracle(lane, scope, client):
    """A scope outside the client's family width is a ValueError naming
    the prefix length from every lane — never a silent ``masks[-1]`` and
    never a bare IndexError; an in-range one (33 on IPv6) replays."""
    records = [AllNamesRecord(0.0, "10.9.8.7", "a.example.", 1, 24, 60),
               AllNamesRecord(1.0, client, "a.example.", 1, scope, 60),
               AllNamesRecord(2.0, client, "b.example.", 1, 16, 60)]
    if lane == "batched":
        run = lambda: replay_partial_batched(records, "client_ip")
    elif lane == "columns":
        store = ColumnarStore.from_records(records, "allnames")
        run = lambda: replay_partial_columns(
            KeyedTrace([store], len(store), "client_ip"))
    else:
        groups = [ColumnarStore.from_records(records[:1], "allnames"),
                  ColumnarStore.from_records(records[1:], "allnames")]
        run = lambda: replay_partial_column_groups(groups, "client_ip")
    version, width = (6, 128) if ":" in client else (4, 32)
    if 0 <= scope <= width:
        assert run() == _oracle(records)
        return
    message = f"prefix length {scope} out of range for IPv{version}"
    with pytest.raises(ValueError, match=message):
        _oracle(records)
    with pytest.raises(ValueError, match=message):
        run()


def test_client_dictionary_parses_once_per_store():
    """Keying a trace parses each store's client dictionary once, and
    every kernel fed from the trace (one per qname bucket, one per sweep
    sample) shares its key ids; building a trace over an address that
    does not parse raises, every time, before a row is replayed."""
    records = [AllNamesRecord(0.0, "10.9.8.7", "a.example.", 1, 24, 60),
               AllNamesRecord(1.0, "2001:db8::1", "a.example.", 28, 48, 60),
               AllNamesRecord(2.0, "10.9.8.7", "b.example.", 1, 16, 60)]
    store = ColumnarStore.from_records(records, "allnames")
    with mock.patch.object(cache_sim, "parse_addr",
                           wraps=cache_sim.parse_addr) as parse:
        trace = KeyedTrace([store], len(store), "client_ip")
        for ttl in (None, 0, 40):
            assert replay_partial_columns(trace, ttl_override=ttl) \
                == _oracle(records, ttl)
        assert parse.call_count == 2
        assert replay_partial_column_groups(
            [ColumnarStore.from_records(records, "allnames")],
            "client_ip") == _oracle(records)
        assert parse.call_count == 4

    records[1] = AllNamesRecord(1.0, "10.9.8.777", "a.example.", 1, 24, 60)
    store = ColumnarStore.from_records(records, "allnames")
    for _ in range(3):
        with pytest.raises(ValueError, match="10.9.8.777"):
            KeyedTrace([store], len(store), "client_ip")


# ---------------------------------------------------------------------------
# Row-group layout (v2)


@pytest.mark.parametrize("name", sorted(RECORD_STRATEGIES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_v2_roundtrip_property(name, data, tmp_path_factory):
    """Any group budget — 1, many, or > rows — round-trips exactly.

    Group-local dictionaries mean a string's code differs between
    groups; equality through both the flattening ``ColumnarStore.open``
    path and the streaming ``RowGroupReader`` path proves the remap.
    """
    records = data.draw(st.lists(RECORD_STRATEGIES[name], max_size=40))
    records.sort(key=lambda r: r.ts)
    budget = data.draw(st.integers(min_value=1, max_value=60))
    path = tmp_path_factory.mktemp("v2prop") / "trace.col"
    assert write_columnar_stream(records, path, name, budget) \
        == len(records)
    assert trace_format(path) == "columnar"
    assert path.read_bytes()[:8] == MAGIC
    with ColumnarStore.open(path) as flat:
        assert list(flat.iter_records()) == records
    with RowGroupReader(path) as reader:
        assert reader.group_count == -(-len(records) // budget) \
            if records else reader.group_count == 0
        assert sum(reader.group_rows(i)
                   for i in range(reader.group_count)) == len(records)
        assert list(reader.iter_records()) == records
        for i in range(reader.group_count):
            assert reader.group_rows(i) <= budget


def test_v2_group_dictionaries_are_group_local(tmp_path):
    """Each group's dictionary holds only strings that group uses."""
    records = _hand_records("allnames", 90, seed=7)
    path = tmp_path / "g.col"
    write_columnar_stream(records, path, "allnames", 20)
    with RowGroupReader(path) as reader:
        assert reader.group_count == 5
        for i in range(reader.group_count):
            store = reader.group(i)
            lo = i * 20
            chunk = records[lo:lo + 20]
            assert list(store.iter_records()) == chunk
            assert set(store.dictionary("qname")) \
                == {r.qname for r in chunk}


def test_convert_is_value_identical_and_canonical(tmp_path):
    """Conversion keeps every value, and its bytes depend only on the
    rows and the group budget: two producers of one trace — a one-group
    file and a fresh writer cutting groups elsewhere — are byte-identical
    once both are converted to the same ``row_group_rows``."""
    v1, records = _committed_trace("cdn", tmp_path)
    v2 = tmp_path / "v2.col"
    assert convert_columnar(v1, v2, row_group_rows=32) == len(records)
    assert v2.read_bytes()[:8] == MAGIC
    assert read_columnar(v2) == records
    assert file_info(v2)["row_groups"] == 4
    other = tmp_path / "other.col"
    write_columnar_stream(records, other, "cdn", 50)
    assert other.read_bytes() != v2.read_bytes()
    for src in (other, v2):
        again = tmp_path / f"again.{src.name}"
        assert convert_columnar(src, again, row_group_rows=32) \
            == len(records)
        assert again.read_bytes() == v2.read_bytes()
    default = tmp_path / "default.col"
    assert convert_columnar(v1, default) == len(records)
    assert file_info(default)["row_group_rows"] \
        == columnar.DEFAULT_ROW_GROUP_ROWS
    assert read_columnar(default) == records


def _overlapping_shards(tmp_path, twins: bool, shards: int = 3):
    """Pre-sorted shard files with forced cross-shard ts ties.

    Twin shards are the committed allnames trace as one group, once per
    shard — every row ties with its twins in the other shards.
    """
    if twins:
        path, records = _committed_trace("allnames", tmp_path)
        return [records] * shards, [path] * shards
    rng = random.Random(11)
    shard_lists = []
    paths = []
    for shard in range(shards):
        records = _hand_records("allnames", 40, seed=shard)
        for r in records[:10]:
            r.ts = float(rng.randrange(5))
        records.sort(key=lambda r: r.ts)
        shard_lists.append(records)
        path = tmp_path / f"s{shard}.col"
        write_columnar_stream(records, path, "allnames", 13)
        paths.append(path)
    return shard_lists, paths


def merge_columnar_shards_rowwise(paths, out_path,
                                  row_group_rows=None) -> int:
    """Per-row heapq reference merge, with the group-copy rule.

    The oracle of :func:`merge_columnar_shards`: rows come off one heap
    in ``(ts, shard index, row index)`` order and are appended one at a
    time — except that a source group whose rows come off back to back,
    reached while the writer holds no pending row, is copied verbatim.
    O(rows) memory.
    """
    readers = [RowGroupReader(p) for p in paths]
    try:
        groups = [[reader.group(g) for g in range(reader.group_count)]
                  for reader in readers]

        def stream(shard):
            seq = 0
            for g, store in enumerate(groups[shard]):
                ts_col = store.column("ts")
                for row in range(store.rows):
                    yield (ts_col[row], shard, seq, g, row)
                    seq += 1

        merged = [(shard, g, row) for _, shard, _, g, row in heapq.merge(
            *map(stream, range(len(readers))))]
        with GroupedColumnarWriter(readers[0].schema, out_path,
                                   row_group_rows) as writer:
            at = 0
            while at < len(merged):
                shard, g, row = merged[at]
                size = groups[shard][g].rows
                if (row == 0 and writer.pending_rows == 0
                        and merged[at + size - 1:at + size]
                        == [(shard, g, size - 1)]):
                    writer.copy_group(readers[shard], g)
                    at += size
                else:
                    record = next(groups[shard][g].iter_records(row, row + 1))
                    writer.extend_columns(
                        [[getattr(record, name)]
                         for name in readers[0].schema.field_names])
                    at += 1
        return writer.rows
    finally:
        for reader in readers:
            reader.close()


@pytest.mark.parametrize("twins", (True, False),
                         ids=("twins", "overlapping"))
def test_group_merge_byte_identical_to_rowwise(tmp_path, twins):
    """Group-granular merge == per-row heapq reference: row for row and
    byte for byte, group copies included."""
    shard_lists, paths = _overlapping_shards(tmp_path, twins)
    reference = merge_sorted_records(shard_lists)
    grouped = tmp_path / "grouped.col"
    rowwise = tmp_path / "rowwise.col"
    assert merge_columnar_shards(paths, grouped) == len(reference)
    assert merge_columnar_shards_rowwise(paths, rowwise) == len(reference)
    assert read_columnar(grouped) == reference
    assert grouped.read_bytes() == rowwise.read_bytes()


def _write_v1(records, path, schema) -> None:
    """Write ``records`` in the retired single-block layout
    (``RPRCOL01``), which no reader opens: the header first, after its
    u32 length, then one set of 8-byte aligned segments — the column
    payloads a group flush writes."""
    store = ColumnarStore.from_records(records, schema)
    area = bytearray()

    def segment(payload):
        if payload is None:
            return None
        area.extend(bytes(-len(area) % 8))
        area.extend(payload)
        return [len(area) - len(payload), len(payload)]

    columns = []
    for spec, data, nulls, words, entries in store._column_payloads():
        columns.append({"name": spec.name, "kind": spec.kind,
                        "typecode": spec.typecode, "data": segment(data),
                        "nulls": segment(nulls), "dict": segment(words),
                        "dict_entries": entries})
    header = json.dumps({"version": 1, "schema": store.schema.name,
                         "rows": store.rows, "columns": columns}).encode()
    path.write_bytes(V1_MAGIC + len(header).to_bytes(4, "little") + header
                     + bytes(-(12 + len(header)) % 8) + area)


@pytest.mark.oracle
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_merge_bytes_equal_the_rowwise_oracle(data, tmp_path_factory):
    """Property: the merge writes the oracle's file, byte for byte — runs,
    windows and group copies alike — for 1–6 shards (some empty), ts
    drawn from at most four values, and any shard and output group size
    from 1 to 9."""
    stamps = data.draw(st.lists(_TS, min_size=1, max_size=4), label="ts")
    rows = st.builds(AllNamesRecord, ts=st.sampled_from(stamps),
                     client_ip=_IP4, qname=_QNAME, qtype=_QTYPE,
                     scope=_SCOPE, ttl=_TTL)
    shard_lists = data.draw(st.lists(st.lists(rows, max_size=20),
                                     min_size=1, max_size=6), label="shards")
    directory = tmp_path_factory.mktemp("merge")
    paths = []
    for index, records in enumerate(shard_lists):
        records.sort(key=lambda r: r.ts)
        path = directory / f"s{index}.col"
        write_columnar_stream(records, path, "allnames", data.draw(
            st.integers(1, 9), label="shard group rows"))
        paths.append(path)
    budget = data.draw(st.integers(1, 9), label="output group rows")
    merged, oracle = directory / "merged.col", directory / "oracle.col"
    assert merge_columnar_shards(paths, merged, budget) \
        == merge_columnar_shards_rowwise(paths, oracle, budget) \
        == sum(map(len, shard_lists))
    assert merged.read_bytes() == oracle.read_bytes()
    assert read_columnar(merged) == merge_sorted_records(shard_lists)


@pytest.mark.parametrize("stamps,groups", (
    (((0.0, 0.1, 0.2, 5.0), (0.15,)), [2, 1, 2]),
    (((0.0, 0.2, 5.0), (1.0, 1.1, 1.2, 1.3, 1.4, 1.5)), [2, 6, 1]),
), ids=("inside", "cut"))
def test_merge_window_copies_a_contiguous_group(stamps, groups, tmp_path):
    """Shard 0's run stops after two rows, with no output row pending,
    and a window follows.  Shard 1's one group sorts whole before shard
    0's next row: it is copied verbatim when the window holds all of it,
    and left to a run — never cut — when the window's bound falls
    inside it."""
    paths = []
    for index, shard in enumerate(stamps):
        paths.append(tmp_path / f"s{index}.col")
        write_columnar_stream(
            [AllNamesRecord(ts, "10.0.0.1", "a.example.", 1, 24, 60)
             for ts in shard], paths[-1], "allnames", len(shard))
    merged, oracle = tmp_path / "merged.col", tmp_path / "oracle.col"
    merge_columnar_shards(paths, merged, row_group_rows=2)
    merge_columnar_shards_rowwise(paths, oracle, row_group_rows=2)
    assert merged.read_bytes() == oracle.read_bytes()
    with RowGroupReader(merged) as reader:
        assert [reader.group_rows(g)
                for g in range(reader.group_count)] == groups


def test_group_merge_v2_output_layout(tmp_path):
    shard_lists, paths = _overlapping_shards(tmp_path, twins=False)
    reference = merge_sorted_records(shard_lists)
    out = tmp_path / "merged.col"
    assert merge_columnar_shards(paths, out, row_group_rows=25) \
        == len(reference)
    assert out.read_bytes()[:8] == MAGIC
    assert read_columnar(out) == reference
    with RowGroupReader(out) as reader:
        assert all(reader.group_rows(i) <= 25
                   for i in range(reader.group_count))


def _page_log(monkeypatch):
    """Log every ``RowGroupReader.group`` and ``_release`` call as
    ``(file name, "open" | "release", group)``, and every window the
    merge sorts as ``"window"``; the spies call through."""
    log = []

    def spy(name, original):
        def logged(reader, index):
            log.append((reader.path.name, name, index))
            return original(reader, index)
        return logged

    monkeypatch.setattr(RowGroupReader, "group",
                        spy("open", RowGroupReader.group))
    monkeypatch.setattr(RowGroupReader, "_release",
                        spy("release", RowGroupReader._release))
    sort = columnar._stable_ts_order
    monkeypatch.setattr(columnar, "_stable_ts_order",
                        lambda store: log.append("window") or sort(store))
    return log


def _opened_then_released(log, paths):
    """Assert that each file's groups were opened in file order and each
    released once, before the next was opened."""
    for path in paths:
        with RowGroupReader(path) as reader:
            count = reader.group_count
        assert [entry[1:] for entry in log if entry[0] == path.name] == [
            (step, group) for group in range(count)
            for step in ("open", "release")]


@pytest.mark.parametrize("schema,offset,windows", (
    ("allnames", 1000.0, False), ("public-cdn", 0.0, True),
), ids=("time-windows", "overlapping"))
def test_merge_releases_each_group_before_the_next(schema, offset, windows,
                                                   tmp_path, monkeypatch):
    """The merge drops a shard group's mapped pages once it has moved
    past it: time-window shards (runs and group copies) and shards over
    one clock (windows) alike, with the oracle's bytes."""
    paths = []
    for shard in range(3):
        records = _hand_records(schema, 40, seed=shard)
        for record in records:
            record.ts += shard * offset
        paths.append(tmp_path / f"s{shard}.col")
        write_columnar_stream(records, paths[-1], schema, 7)
    oracle = tmp_path / "oracle.col"
    merge_columnar_shards_rowwise(paths, oracle, row_group_rows=8)
    log = _page_log(monkeypatch)
    merged = tmp_path / "merged.col"
    assert merge_columnar_shards(paths, merged, row_group_rows=8) == 120
    assert merged.read_bytes() == oracle.read_bytes()
    assert ("window" in log) is windows
    _opened_then_released([entry for entry in log if entry != "window"],
                          paths)


def test_walk_releases_each_group_before_the_next(tmp_path, monkeypatch):
    path = tmp_path / "t.col"
    records = _hand_records("allnames", 40)
    write_columnar_stream(records, path, "allnames", 7)
    log = _page_log(monkeypatch)
    with RowGroupReader(path) as reader:
        assert list(reader.iter_records()) == records
    _opened_then_released(log, [path])


def _segment_span(entry) -> tuple:
    """A group's first and one-past-last file byte."""
    spans = [(columnar._PRELUDE + offset, columnar._PRELUDE + offset + length)
             for col in entry["columns"]
             for offset, length in (col["data"], col.get("nulls") or (0, 0),
                                    col.get("dict") or (0, 0)) if length]
    return min(start for start, _ in spans), max(end for _, end in spans)


@pytest.mark.skipif(columnar._DONTNEED is None, reason="no MADV_DONTNEED")
def test_release_drops_whole_pages_before_the_next_group(tmp_path):
    """Each released range starts at 0 and ends on a page boundary at or
    before the next group's first byte: the kernel rounds a length up,
    so an unaligned end would drop the page the next group starts in.
    A group that ends inside the first page releases nothing."""
    path = tmp_path / "t.col"
    write_columnar_stream(_hand_records("allnames", 1200), path, "allnames",
                          50)
    released = []

    class Recording:
        def madvise(self, advice, start, length):
            released.append((advice, start, length))

    with RowGroupReader(path) as reader:
        spans = [_segment_span(reader.group_entry(index))
                 for index in range(reader.group_count)]
        mapping, reader._mapping = reader._mapping, Recording()
        try:
            ends = []
            for index in range(reader.group_count):
                before = len(released)
                reader._release(index)
                ends.append([length for _, _, length in released[before:]])
        finally:
            reader._mapping = mapping
    assert spans[0][1] < mmap.PAGESIZE and ends[0] == []
    assert sum(map(len, ends)) > 1
    for advice, start, length in released:
        assert (advice, start) == (columnar._DONTNEED, 0)
        assert length > 0 and length % mmap.PAGESIZE == 0
    for index, group_ends in enumerate(ends):
        for end in group_ends:
            assert spans[index][1] - mmap.PAGESIZE < end <= spans[index][1]
            if index + 1 < len(spans):
                assert end <= spans[index + 1][0]


def test_merge_rejects_mixed_format_versions(tmp_path):
    """A shard in the retired layout fails the merge by name, and no
    output is left."""
    v2, records = _committed_trace("allnames", tmp_path)
    v1 = tmp_path / "v1.col"
    _write_v1(records, v1, "allnames")
    with pytest.raises(ColumnarFormatError, match=_retired(v1)):
        merge_columnar_shards([v2, v1], tmp_path / "out.col")
    assert not list(tmp_path.glob("out.col*"))


def test_a_header_of_another_schema_is_rejected(tmp_path):
    """A reader told which rows to expect checks the header it reads
    anyway: a cdn file read as allnames raises, naming the file and
    both schemas, and leaves no output behind."""
    src = tmp_path / "cdn.col"
    write_columnar_stream(_hand_records("cdn", 5), src, "cdn")
    out = tmp_path / "out"
    for read in (lambda: bucketed_group_ranges(src, "allnames"),
                 lambda: columnar_to_jsonl(src, out, "allnames"),
                 lambda: convert_columnar(src, out, "allnames"),
                 lambda: convert_columnar(src, out, SCHEMAS["allnames"],
                                          buckets=2)):
        with pytest.raises(TraceFormatError,
                           match="cdn.col: holds cdn rows, not allnames$"):
            read()
        assert [p.name for p in tmp_path.iterdir()] == ["cdn.col"]
    assert bucketed_group_ranges(src, "cdn") is None
    assert columnar_to_jsonl(src, out, "cdn") == 5


def test_prebucket_groups_and_ranges(tmp_path):
    from repro.engine.sharding import stable_bucket
    records = _hand_records("allnames", 160, seed=6)
    src = tmp_path / "flat.col"
    write_columnar_stream(records, src, "allnames", 40)
    dst = tmp_path / "bucketed.col"
    shards = 4
    assert convert_columnar(src, dst, buckets=shards,
                            row_group_rows=30) == len(records)
    ranges = bucketed_group_ranges(dst)
    assert ranges is not None and len(ranges) == shards
    assert bucketed_group_ranges(src) is None
    assert (file_info(dst)["buckets"], file_info(src)["buckets"]) \
        == (shards, None)
    seen = []
    with RowGroupReader(dst) as reader:
        for bucket, (lo, hi) in enumerate(ranges):
            for g in range(lo, hi):
                assert reader.group_entry(g)["bucket"] == bucket
                store = reader.group(g)
                chunk = list(store.iter_records())
                assert all(stable_bucket(r.qname, shards) == bucket
                           for r in chunk)
                # Bucket-local streams stay ts-sorted for replay.
                assert [r.ts for r in chunk] \
                    == sorted(r.ts for r in chunk)
                seen.extend(chunk)
    assert sorted(seen, key=lambda r: (r.ts, r.client_ip, r.qname)) \
        == sorted(records, key=lambda r: (r.ts, r.client_ip, r.qname))


@settings(max_examples=40, deadline=None)
@given(records=st.lists(RECORD_STRATEGIES["allnames"], max_size=60),
       ttl_override=_TTL_OVERRIDE, data=st.data())
def test_replay_column_groups_equals_flat(records, ttl_override, data):
    """Group-streaming replay == whole-store replay == the oracle, for any
    drawn group boundaries (empty groups included)."""
    records.sort(key=lambda r: r.ts)
    flat = ColumnarStore.from_records(records, "allnames")
    cuts = sorted(data.draw(st.lists(st.integers(0, len(records)),
                                     max_size=8), label="group boundaries"))
    edges = [0, *cuts, len(records)]
    groups = [ColumnarStore.from_records(records[lo:hi], "allnames")
              for lo, hi in zip(edges, edges[1:])]
    got = replay_partial_column_groups(groups, "client_ip",
                                       ttl_override=ttl_override)
    assert got == replay_partial_columns(
        KeyedTrace([flat], len(flat), "client_ip"), ttl_override=ttl_override)
    assert got == _oracle(records, ttl_override)


@pytest.mark.parametrize("ttl_override", (None, 0, 40))
def test_replay_column_groups_ttl_override(ttl_override, tmp_path):
    records = _hand_records("public-cdn", 300, seed=9)
    path = tmp_path / "pc.col"
    write_columnar_stream(records, path, "public-cdn", 64)
    with RowGroupReader(path) as reader:
        groups = [reader.group(i) for i in range(reader.group_count)]
        got = replay_partial_column_groups(groups, "ecs_address",
                                           ttl_override=ttl_override)
    flat = ColumnarStore.from_records(records, "public-cdn")
    assert got == replay_partial_columns(
        KeyedTrace([flat], len(flat), "ecs_address"),
        ttl_override=ttl_override)


def test_key_ids_depend_on_the_rows_not_the_grouping(tmp_path):
    """A trace keyed from one store and from the same rows written in
    small row groups holds the same columns and qname buckets: ids are
    issued by value, so group-local dictionary codes never reach one."""
    records = _hand_records("allnames", 200)
    whole = KeyedTrace([ColumnarStore.from_records(records, "allnames")],
                       len(records), "client_ip", clients=True)
    for row_group_rows in (3, 17):
        path = tmp_path / f"t{row_group_rows}.col"
        write_columnar_stream(records, path, "allnames", row_group_rows)
        with RowGroupReader(path) as reader:
            grouped = KeyedTrace(reader.walk(), reader.rows, "client_ip",
                                 clients=True)
        for column in ("ts", "ttl", "ids", "client_ids", "clients"):
            assert getattr(grouped, column) == getattr(whole, column)
        assert grouped.qname_buckets(8) == whole.qname_buckets(8)


# ---------------------------------------------------------------------------
# One parser: the retired layout, damaged headers, interrupted writers


def _retired(path) -> str:
    """What every reader says about a file in the retired layout."""
    return f"{re.escape(str(path))}: RPRCOL01, the retired single-block"


def test_retired_v1_layout_is_refused_by_name(tmp_path):
    """Every reader, converter, merge and replay refuses a file in the
    retired single-block layout, naming it and the command that
    re-creates it, and leaves no output behind."""
    _, records = _committed_trace("allnames", tmp_path)
    v1 = tmp_path / "v1.col"
    _write_v1(records, v1, "allnames")
    assert trace_format(v1) == "columnar"
    out = tmp_path / "out"
    for call in (ColumnarStore.open, RowGroupReader, file_info,
                 bucketed_group_ranges, read_columnar,
                 lambda p: columnar_to_jsonl(p, out),
                 lambda p: convert_columnar(p, out),
                 lambda p: convert_columnar(p, out, buckets=4),
                 lambda p: merge_columnar_shards([p], out),
                 lambda p: replay_columnar_sharded(p, "allnames")):
        with pytest.raises(ColumnarFormatError, match=_retired(v1)) \
                as caught:
            call(v1)
        assert "repro-ecs generate" in str(caught.value)
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["allnames.col", "v1.col"]


@pytest.mark.parametrize("workers", (1, 2))
def test_v1_replay_equals_its_v2_conversion(workers, tmp_path):
    """The committed allnames trace replays alike from its JSONL twin, as
    one mapped group, flattened from many groups and pre-bucketed."""
    one, records = _committed_trace("allnames", tmp_path)
    many = tmp_path / "many.col"
    convert_columnar(one, many, row_group_rows=64)
    bucketed = tmp_path / "bucketed.col"
    convert_columnar(one, bucketed, buckets=4, row_group_rows=64)
    want = cache_sim.merge_partials(
        _oracle(bucket) for bucket
        in partition_by_key(records, 4, lambda r: r.qname))
    got, report = replay_jsonl_sharded(DATA / "allnames_v1.jsonl",
                                       "allnames", shards=4, workers=workers)
    assert got == want
    for path in (one, many, bucketed):
        got, report = replay_columnar_sharded(path, "allnames", shards=4,
                                              workers=workers)
        assert got == want, path
        assert report.total_records == len(records)


def _header_span(raw: bytes, version: int):
    """``(start, end)`` of the header JSON inside a file's bytes."""
    if version == 2:
        return int.from_bytes(raw[8:16], "little"), len(raw)
    return 12, 12 + int.from_bytes(raw[8:12], "little")


def _edit_header(mutate):
    """A damage function that rewrites the header through ``mutate(header,
    columns of the first group)`` and leaves every segment in place."""
    def damage(raw: bytes, version: int) -> bytes:
        start, end = _header_span(raw, version)
        header = json.loads(raw[start:end])
        mutate(header, header["groups"][0]["columns"] if version == 2
               else header["columns"])
        payload = json.dumps(header, separators=(",", ":")).encode()
        if version == 2:
            return raw[:start] + payload
        new_end = 12 + len(payload)
        return (V1_MAGIC + len(payload).to_bytes(4, "little") + payload
                + b"\x00" * (-new_end % 8) + raw[end + -end % 8:])
    return damage


def _set(path, value):
    """A header mutation: ``columns[i][key][j] = value`` or
    ``header[key] = value``."""
    def mutate(header, columns):
        target = header if isinstance(path[0], str) else columns
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
    return mutate


def _tags(buckets, *tags):
    """A header mutation: the bucket count and the groups' bucket tags."""
    def mutate(header, columns):
        header["buckets"] = buckets
        for group, tag in zip(header["groups"], tags):
            group["bucket"] = tag
    return mutate


def _replace_header_byte(raw: bytes, version: int) -> bytes:
    start, _ = _header_span(raw, version)
    return raw[:start] + b"!" + raw[start + 1:]


#: (id, layouts it applies to, damage(raw, version) -> bytes, message).
#: Version 1 is the retired layout, refused by name however its header
#: is damaged.  Column 5 of the cdn schema is the nullable
#: ``ecs_address``; the version 2 file holds three groups.
_DAMAGE = (
    ("bad-magic", (1, 2), lambda raw, v: b"NOTMAGIC" + raw[8:], "bad magic"),
    ("offset-unpatched", (2,),
     lambda raw, v: raw[:8] + bytes(8) + raw[16:], "not patched"),
    ("offset-past-eof", (2,),
     lambda raw, v: raw[:8] + (len(raw) + 1).to_bytes(8, "little")
     + raw[16:], "past the end"),
    ("header-length-past-eof", (1,),
     lambda raw, v: raw[:8] + len(raw).to_bytes(4, "little") + raw[12:],
     "truncated"),
    ("header-truncated", (1, 2),
     lambda raw, v: raw[:40] if v == 1 else raw[:-10],
     "truncated"),
    ("header-not-json", (1, 2), _replace_header_byte, "not JSON"),
    ("version", (1, 2), _edit_header(_set(("version",), 99)),
     "unsupported columnar format version 99"),
    ("segment-outside", (1, 2), _edit_header(_set((0, "data", 0), 10 ** 9)),
     "group 0: ts data segment .* outside"),
    ("data-length", (1, 2), _edit_header(_set((3, "data", 1), 44)),
     "group 0: qtype data is 44 bytes, expected"),
    ("short-null-bitmap", (1, 2), _edit_header(_set((5, "nulls", 1), 1)),
     "group 0: ecs_address null bitmap is 1 bytes"),
    ("rows-do-not-add-up", (2,), _edit_header(_set(("rows",), 7)),
     "do not add up"),
    ("missing-key", (1, 2), _edit_header(lambda header, cols:
                                         cols[0].pop("data")),
     "malformed header"),
    ("buckets-not-int", (2,), _edit_header(_set(("buckets",), "2")),
     "bucket count '2' is not a positive integer"),
    ("bucket-tags-decrease", (2,), _edit_header(_tags(2, 1, 0, 0)),
     "group 1: bucket tag 0 follows tag 1"),
    ("bucket-tag-past-buckets", (2,), _edit_header(_tags(2, 0, 1, 2)),
     "group 2: bucket tag 2 is not an integer below the header's 2"),
)


@pytest.mark.parametrize("version,damage,message", [
    pytest.param(version, damage, message, id=f"{label}-v{version}")
    for label, versions, damage, message in _DAMAGE
    for version in versions])
def test_damaged_header_raises_format_error(version, damage, message,
                                            tmp_path):
    """Every reader goes through the one parser, which names the file."""
    source, records = _committed_trace("cdn", tmp_path, 50)
    if version == 1:
        source = tmp_path / "retired.col"
        _write_v1(records, source, "cdn")
    path = tmp_path / "damaged.col"
    path.write_bytes(damage(source.read_bytes(), version))
    if path.read_bytes()[:8] == V1_MAGIC:
        message = _retired(path)
    for opener in (ColumnarStore.open, RowGroupReader, file_info,
                   bucketed_group_ranges, read_columnar):
        with pytest.raises(ColumnarFormatError, match=message) as caught:
            opener(path)
        assert str(path) in str(caught.value)
    # A typed error is still the ValueError callers used to catch.
    assert issubclass(ColumnarFormatError, ValueError)


def _damage_segment(path: Path, group: int, column: int, rewrite) -> None:
    """Replace one segment's bytes through ``rewrite(old) -> new`` (same
    length), leaving the header as it was."""
    raw = bytearray(path.read_bytes())
    start, _ = _header_span(bytes(raw), 2)
    header = json.loads(raw[start:])
    offset, length = header["groups"][group]["columns"][column]["dict"]
    at = 16 + offset
    raw[at:at + length] = rewrite(bytes(raw[at:at + length]))
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("groups", (1, 2))
def test_damaged_dictionary_names_file_and_group(groups, tmp_path):
    """A dictionary segment that is not a JSON array passes the header
    checks and fails when its group is read, with no view left on the
    mapping."""
    path, records = _committed_trace("cdn", tmp_path, 120 // groups)
    last = groups - 1
    # Column 2 (qname) gets column 0's packed floats as its dictionary.
    path.write_bytes(_edit_header(
        lambda header, cols: header["groups"][last]["columns"][2]
        .__setitem__("dict", cols[0]["data"]))(path.read_bytes(), 2))
    assert file_info(path)["rows"] == len(records)
    with RowGroupReader(path) as reader:
        with pytest.raises(ColumnarFormatError,
                           match=f"group {last}: qname dictionary is not "
                                 f"a JSON array"):
            reader.group(last)
    with pytest.raises(ColumnarFormatError, match=re.escape(str(path))):
        ColumnarStore.open(path)


def _read_last_group(path, out):
    with RowGroupReader(path) as reader:
        return list(reader.group(reader.group_count - 1).iter_records())


@pytest.mark.parametrize("groups", (1, 2))
@pytest.mark.parametrize("call", (
    lambda p, out: list(ColumnarStore.open(p).iter_records()),
    lambda p, out: read_columnar(p),
    _read_last_group,
    columnar_to_jsonl,
    lambda p, out: replay_columnar_sharded(p, "allnames", shards=2)),
    ids=("open", "read_columnar", "group", "to_jsonl", "replay"))
def test_dictionary_code_past_its_dictionary(call, groups, tmp_path):
    """A ``qname`` dictionary cut to one entry, in the file's last group,
    with the header intact: every read raises a typed error naming the
    file, the group and the column, not an ``IndexError``."""
    path, _ = _committed_trace("allnames", tmp_path, 300 // groups)
    _damage_segment(path, groups - 1, 2, lambda old: json.dumps(
        json.loads(old)[:1]).encode().ljust(len(old)))
    with pytest.raises(ColumnarFormatError,
                       match=f"{re.escape(str(path))}: group {groups - 1}: "
                             f"qname row [0-9]+ holds dictionary code "
                             f"[0-9]+, past its 1-entry dictionary"):
        call(path, tmp_path / "out.jsonl")


def test_null_cells_may_hold_a_code_past_an_empty_dictionary(tmp_path):
    """A group whose nullable string column is all null has an empty
    dictionary and placeholder codes 0, and reads."""
    records = _hand_records("cdn", 8)
    for record in records:
        record.ecs_address = None
    path = tmp_path / "nulls.col"
    write_columnar_stream(records, path, "cdn")
    assert read_columnar(path) == records


#: Values no str column refused before: each was interned as given,
#: so the file held a JSON number or array, or (bytes) failed at close.
_NOT_STR = (5, 1.5, True, ("a",), b"x", ["a"])
_GOOD_COLUMNS = [[0.5, 1.5, 2.5], ["10.0.0.1", "10.0.0.2", "10.0.0.1"],
                 ["a.", "b.", "a."], [1, 28, 1], [24, 0, 24], [60, 30, 60]]


@pytest.mark.parametrize("field", ("client_ip", "qname"))
@pytest.mark.parametrize("value", _NOT_STR, ids=repr)
def test_str_column_takes_only_str(field, value, tmp_path):
    """Both writers raise :class:`TypeError` naming the column and leave
    the chunk, the rows and the dictionaries as they were — ``qname``
    comes after ``client_ip``, whose strings are interned by then — so
    the file is the one the good rows make."""
    bad = [list(values) for values in _GOOD_COLUMNS]
    bad[SCHEMAS["allnames"].field_names.index(field)][1] = value
    chunk = [list(values) for values in bad]
    records = [AllNamesRecord(*row) for row in zip(*bad)]
    match = f"column '{field}' of schema 'allnames' takes str, not"

    writer = ColumnarWriter(SCHEMAS["allnames"])
    writer._append_columns(_GOOD_COLUMNS)
    before = _writer_state(writer)
    for append in (writer._append_columns, writer.extend):
        with pytest.raises(TypeError, match=match):
            append(bad if append == writer._append_columns else records)
        assert _writer_state(writer) == before
    assert bad == chunk

    ref = tmp_path / "ref.col"
    write_columnar_stream(
        [AllNamesRecord(*row) for row in zip(*_GOOD_COLUMNS)], ref,
        "allnames")
    for name, append in (("columns", lambda w: w.extend_columns(bad)),
                         ("records", lambda w: w.extend(records))):
        path = tmp_path / f"{name}.col"
        with GroupedColumnarWriter("allnames", path) as grouped:
            grouped.extend_columns(_GOOD_COLUMNS)
            with pytest.raises(TypeError, match=match):
                append(grouped)
        assert path.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("bad", (1 << 70, "A", 2.5))
def test_a_none_decides_the_error_however_packing_fails(bad):
    """A numeric column is packed before anyone looks for ``None``; when
    a value fails the packing ahead of a ``None``, the column still gets
    the error a scan for ``None`` first gave."""
    writer = ColumnarWriter(SCHEMAS["allnames"])
    columns = [list(values) for values in _GOOD_COLUMNS]
    columns[5] = [60, bad, None]
    with pytest.raises(ValueError, match="column 'ttl' of schema "
                                         "'allnames' is not nullable"):
        writer._append_columns(columns)
    assert writer.rows == 0
    records = _hand_records("cdn", 3)
    records[0].ecs_source_len, records[2].ecs_source_len = bad, None
    # Nullable: the null path packs the other values, and ``bad`` fails.
    with pytest.raises(OverflowError if type(bad) is int else TypeError):
        ColumnarWriter(SCHEMAS["cdn"]).extend(records)


def test_nullable_str_column_takes_str_or_none():
    """In a nullable column ``None`` is a null and anything else that
    is not a str is refused, with the rows that came before kept."""
    records = _hand_records("cdn", 6)
    writer = ColumnarWriter(SCHEMAS["cdn"])
    writer.extend(records)
    before = _writer_state(writer)
    records[1].ecs_address = None
    records[4].ecs_address = 7
    with pytest.raises(TypeError, match="column 'ecs_address' of schema "
                                        "'cdn' takes str, not int"):
        writer.extend(records)
    assert _writer_state(writer) == before


def _non_str_dictionary_entry(path: Path, group: int, entry) -> None:
    """Put ``entry`` first in ``client_ip``'s dictionary of ``group``,
    in place, leaving the header and every code as they were."""
    def rewrite(old: bytes) -> bytes:
        words = json.loads(old)
        new = json.dumps([entry] + words[1:],
                         separators=(",", ":")).encode()
        assert len(new) <= len(old)
        return new.ljust(len(old))
    _damage_segment(path, group, 1, rewrite)


@pytest.mark.parametrize("groups", (1, 2))
@pytest.mark.parametrize("entry,word", ((5, "an integer"),
                                        (1.5, "a float"),
                                        (None, "null"),
                                        (["a"], "an array")))
@pytest.mark.parametrize("call", (
    lambda p, out: ColumnarStore.open(p),
    _read_last_group,
    columnar_to_jsonl,
    lambda p, out: convert_columnar(p, out),
    lambda p, out: replay_columnar_sharded(p, "allnames", shards=2)),
    ids=("open", "group", "to_jsonl", "convert", "replay"))
def test_non_string_dictionary_entry_names_file_group_and_column(
        call, entry, word, groups, tmp_path):
    """A hand-built ``.col`` whose ``client_ip`` dictionary holds a
    number, a null or an array, header intact: every read raises a
    typed error naming the file, the group and the column, where replay
    used to fail on ``int.version`` and ``to_jsonl`` to write
    ``"client_ip":5``."""
    path, _ = _committed_trace("allnames", tmp_path, 300 // groups)
    _non_str_dictionary_entry(path, groups - 1, entry)
    assert file_info(path)["rows"] == 300
    with pytest.raises(ColumnarFormatError,
                       match=f"{re.escape(str(path))}: group {groups - 1}: "
                             f"client_ip dictionary entry 0 is {word}, not "
                             f"a string"):
        call(path, tmp_path / "out")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["allnames.col"]


def _rejected(run):
    """Run ``run`` with a live sink installed; return the error it
    raised and the ``file_rejected`` beats on the sink's timeline.

    The pool starts and stops inside the sink's lifetime, as under the
    CLI: a worker that outlived the sink's drain would block at exit
    on the beats it still holds."""
    sink = LiveSink()
    previous = obs_live.swap(sink.emitter())
    try:
        with WorkerPool(2), pytest.raises((ColumnarFormatError,
                                           JsonlFormatError)) as caught:
            run()
    finally:
        obs_live.swap(previous)
        sink.close()
    return caught.value, [beat for beat in sink.timeline()[0]
                          if beat.kind == "file_rejected"]


@pytest.mark.parametrize("workers", (1, 2))
def test_rejected_trace_leaves_one_timeline_event(workers, tmp_path):
    """With the live plane on, a replay that rejects its file — a cut
    JSONL line, a damaged ``.col`` header, a non-string dictionary
    entry met in a worker — leaves one ``file_rejected`` beat naming
    the task, the path and the reason the error gives; with it off, the
    same error and nothing else."""
    cut = tmp_path / "cut.jsonl"
    cut.write_text(_GOOD + "\n" + _GOOD[:53])
    header = tmp_path / "header.col"
    header.write_bytes(MAGIC + b"garbage")
    hostile, _ = _committed_trace("allnames", tmp_path, 150)
    _non_str_dictionary_entry(hostile, 1, 5)
    for path, replay in ((cut, replay_jsonl_sharded),
                         (header, replay_columnar_sharded),
                         (hostile, replay_columnar_sharded)):
        def run():
            replay(path, "allnames", shards=2, workers=workers)
        error, beats = _rejected(run)
        assert [(beat.task, beat.attrs) for beat in beats] == [
            ("replay:allnames", {"path": str(path), "reason": str(error)})]
        assert str(path) in str(error)
        with pytest.raises(type(error), match=re.escape(str(error))):
            run()


def test_rejected_convert_source_leaves_a_timeline_event(tmp_path):
    """``repro-ecs convert`` of a hostile ``.col``, with
    ``--timeline-out``: the command exits with the reader's error as
    one line and the timeline file holds the ``file_rejected`` event."""
    hostile, _ = _committed_trace("allnames", tmp_path, 150)
    _non_str_dictionary_entry(hostile, 0, 1.5)
    timeline = tmp_path / "timeline.json"
    with pytest.raises(SystemExit) as caught:
        main(["--quiet", "--timeline-out", str(timeline), "convert",
              "allnames", str(hostile), str(tmp_path / "out.jsonl")])
    events = [event for event in json.loads(timeline.read_text())[
        "traceEvents"] if event["cat"] == "file_rejected"]
    assert [(event["name"], event["args"]["path"]) for event in events] \
        == [("convert:allnames", str(hostile))]
    assert caught.value.code \
        == f"repro-ecs: {events[0]['args']['reason']}"
    assert not (tmp_path / "out.jsonl").exists()


def test_interrupted_writer_leaves_no_file(tmp_path):
    """``.col`` output is atomic: an exception inside the ``with`` block
    (or inside a merge) leaves the destination absent — or as it was —
    and no temporary file behind."""
    records = _hand_records("allnames", 60)
    path = tmp_path / "trace.col"
    with pytest.raises(RuntimeError, match="boom"):
        with GroupedColumnarWriter("allnames", path, 16) as writer:
            writer.extend(records[:40])
            assert not path.exists()
            raise RuntimeError("boom")
    assert not list(tmp_path.iterdir())

    write_columnar_stream(records, path, "allnames", 16)
    complete = path.read_bytes()
    with pytest.raises(RuntimeError, match="boom"):
        with GroupedColumnarWriter("allnames", path, 16) as writer:
            writer.extend(records[:5])
            raise RuntimeError("boom")
    assert path.read_bytes() == complete
    assert [p.name for p in tmp_path.iterdir()] == ["trace.col"]

    # A merge that fails on its second input group, after writing rows.
    shard = tmp_path / "shard.col"
    shard.write_bytes(_edit_header(
        lambda header, cols: header["groups"][1]["columns"][2].__setitem__(
            "dict", cols[0]["data"]))(complete, 2))
    merged = tmp_path / "merged.col"
    with pytest.raises(ColumnarFormatError, match="group 1"):
        merge_columnar_shards([shard, path], merged, row_group_rows=16)
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["shard.col", "trace.col"]
    with pytest.raises(ColumnarFormatError, match="group 1"):
        convert_columnar(shard, merged, buckets=2, row_group_rows=16)
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["shard.col", "trace.col"]

    # JSONL output is atomic too: the same damaged file, converted, has
    # written a group of rows when its stream raises.
    with pytest.raises(ColumnarFormatError, match="group 1"):
        columnar_to_jsonl(shard, tmp_path / "trace.jsonl")
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["shard.col", "trace.col"]


def test_interrupted_jsonl_writer_leaves_no_file(tmp_path):
    """A record stream that raises mid-way leaves neither the JSONL file
    nor a ``.tmp`` — or the file as it was — under ``write_jsonl`` and
    under the reference shard merge, which writes through the same
    ``write_jsonl_text``."""
    records = _hand_records("allnames", 60)
    path = tmp_path / "trace.jsonl"

    def cut_short():
        yield from records[:40]
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        write_jsonl(cut_short(), path)
    assert not list(tmp_path.iterdir())

    assert write_jsonl(records, path) == 60
    complete = path.read_bytes()
    with pytest.raises(RuntimeError, match="boom"):
        write_jsonl(cut_short(), path)
    assert path.read_bytes() == complete
    assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]

    # A merge whose second shard was cut mid-line by a killed writer.
    cut = tmp_path / "cut.jsonl"
    cut.write_bytes(complete[:-40])
    merged = tmp_path / "merged.jsonl"
    with pytest.raises(ValueError):
        merge_jsonl_shards([path, cut], merged)
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["cut.jsonl", "trace.jsonl"]
    assert merge_jsonl_shards([path, path], merged) == 120


# ---------------------------------------------------------------------------
# JSONL lane: lines -> columns, no record objects


def _store_state(store: ColumnarStore):
    """Every byte a flush of ``store`` would serialize."""
    return (store.rows,
            {name: bytes(data) for name, data in store._data.items()},
            {name: bytes(bitmap) for name, bitmap in store._nulls.items()},
            store._dicts)


def _render(draw, record) -> str:
    """One record as a JSON line in a drawn shape: key order, whitespace
    after ``:`` and ``,``, and the qname spelled in ``\\uXXXX`` escapes."""
    row = dataclasses.asdict(record)
    colon = ":" + draw(st.sampled_from(("", " ", "\t ")))
    comma = "," + draw(st.sampled_from(("", " ", "  ")))
    escape = draw(st.booleans())

    def value(name):
        if name == "qname" and escape:
            return '"%s"' % "".join(f"\\u{ord(ch):04x}" for ch in row[name])
        return json.dumps(row[name], ensure_ascii=False)

    return "{%s}" % comma.join(json.dumps(name) + colon + value(name)
                               for name in draw(st.permutations(list(row))))


def _jsonl_text(draw, records) -> str:
    """A JSONL file body of drawn line shapes: each line padded with
    whitespace ``str.strip`` removes (a no-break space included, which
    JSON does not accept) and ended by ``\\n``, ``\\r\\n`` or a lone
    ``\\r``; blank lines between; the last line with or without its
    end."""
    pad = st.sampled_from(("", "", " ", "\t", "\u00a0"))
    end = st.sampled_from(("\n", "\r\n", "\r"))

    def line(text: str) -> str:
        return draw(pad) + text + draw(pad) + draw(end)

    lines = []
    for record in records:
        if draw(st.booleans()):
            lines.append(line(""))
        lines.append(line(_render(draw, record)))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    elif draw(st.booleans()):
        lines.append(line(""))
    return "".join(lines)


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_jsonl_lines_parse_like_read_jsonl(name, data, tmp_path_factory):
    """Lines -> columns == lines -> records -> columns, and ``convert``
    writes the bytes the record route writes, across chunk and group
    edges, for every nullable shape of every schema."""
    records = data.draw(st.lists(ANY_RECORDS[name], max_size=50))
    chunk = data.draw(st.integers(1, 12), label="parse chunk lines")
    budget = data.draw(st.integers(1, 30), label="row group rows")
    out = tmp_path_factory.mktemp("jsonl")
    src = out / "trace.jsonl"
    src.write_text(_jsonl_text(data.draw, records), encoding="utf-8")
    # read_text ends lines as the readers do (universal newlines: at
    # "\n", "\r\n" and a lone "\r"); str.splitlines would also split at
    # "\x1c", "\u2028" and the rest of its set.
    lines = [line.strip() for line in src.read_text("utf-8").split("\n")
             if line.strip()]
    # The route with no schema: one json.loads and one record per line.
    parsed_records = [SCHEMAS[name].record_type(**json.loads(line))
                      for line in lines]
    assert parsed_records == records
    with mock.patch.object(columnar, "PARSE_CHUNK_LINES", chunk):
        store = _parse_lines(name, lines)
        assert convert_columnar(src, out / "lines.col", name,
                                budget) == len(records)
    assert _store_state(store) \
        == _store_state(ColumnarStore.from_records(parsed_records, name))
    write_columnar_stream(parsed_records, out / "records.col", name, budget)
    assert (out / "lines.col").read_bytes() \
        == (out / "records.col").read_bytes()


@pytest.fixture(scope="module")
def two_workers():
    """One pool for every ``workers=2`` call of the tests below."""
    with WorkerPool(2) as pool:
        yield pool


@pytest.mark.oracle
@pytest.mark.parametrize("kind", sorted(ACCESSORS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_jsonl_replay_equals_oracle(kind, data, tmp_path_factory,
                                    two_workers):
    """``replay_jsonl_sharded`` == ``replay_partial`` per qname bucket, at
    workers 1 and 2, traced and untraced, whatever the line shapes, the
    parse chunk and the size of the routing memo."""
    records = data.draw(st.lists(RECORD_STRATEGIES[kind], max_size=50))
    records.sort(key=lambda r: r.ts)
    shards = data.draw(st.integers(1, 4), label="shards")
    src = tmp_path_factory.mktemp("replay") / "trace.jsonl"
    src.write_text(_jsonl_text(data.draw, records), encoding="utf-8")
    want = cache_sim.merge_partials(
        replay_partial(bucket, *ACCESSORS[kind]) for bucket
        in partition_by_key(records, shards, lambda r: r.qname))
    with mock.patch.object(columnar, "PARSE_CHUNK_LINES",
                           data.draw(st.integers(1, 12))), \
            mock.patch.object(engine_replay, "_ROUTE_MEMO_NAMES",
                              data.draw(st.integers(1, 8))):
        for workers in (1, 2):
            got, report = replay_jsonl_sharded(src, kind, shards=shards,
                                               workers=workers)
            with observe(tracing=True) as session:
                traced, _ = replay_jsonl_sharded(src, kind, shards=shards,
                                                 workers=workers)
            assert got == traced == want, workers
            assert report.total_records == len(records)
            assert sum(s.attrs["rows"] for s in session.tracer.spans
                       if s.name == "replay") == len(records)


def test_jsonl_lane_builds_no_record(tmp_path, monkeypatch):
    built = []
    init = AllNamesRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    src = DATA / "allnames_v1.jsonl"
    monkeypatch.setattr(AllNamesRecord, "__init__", counting_init)
    assert len(read_jsonl(src, AllNamesRecord)) == len(built) == 300
    del built[:]
    _, report = replay_jsonl_sharded(src, "allnames", workers=1)
    with observe(tracing=True):
        replay_jsonl_sharded(src, "allnames", workers=1)
    assert report.total_records == 300
    assert convert_columnar(src, tmp_path / "t.col", "allnames", 64) == 300
    assert built == []


def test_extend_columns_checks_shape(tmp_path):
    """A chunk of the wrong shape raises and leaves the writer as it
    was, mid-group included: the file is the one the good rows make."""
    good = [[0.5, 1.5, 2.5], ["10.0.0.1", "10.0.0.2", "10.0.0.1"],
            ["a.", "b.", "a."], [1, 28, 1], [24, 0, 24], [60, 30, 60]]
    for name, ragged in (("bare", False), ("tried", True)):
        with GroupedColumnarWriter("allnames", tmp_path / name, 2) as writer:
            if ragged:
                with pytest.raises(ValueError, match="6 equal-length"):
                    writer.extend_columns([column[:1] for column in good[:5]])
            assert writer.extend_columns(good) == 3
            if ragged:
                with pytest.raises(ValueError, match="6 equal-length"):
                    writer.extend_columns([[3.5, 4.5], *(
                        column[:1] for column in good[1:])])
                assert writer.extend_columns([[]] * 6) == 0
            assert (writer.rows, writer.pending_rows) == (2, 1)
    assert (tmp_path / "tried").read_bytes() == (tmp_path / "bare").read_bytes()


_GOOD = ('{"ts":1.5,"client_ip":"10.0.0.1","qname":"a.example.",'
         '"qtype":1,"scope":24,"ttl":30}')


def _edited(**changes) -> str:
    """``_GOOD`` with fields replaced (``...`` drops the field)."""
    row = {**json.loads(_GOOD), **changes}
    return json.dumps({name: value for name, value in row.items()
                       if value is not ...}, separators=(",", ":"))


#: (id, line, reason): lines that are not rows of the allnames schema.
_HOSTILE = (
    ("invalid-json", _GOOD[:-1] + ",}", "invalid JSON .*: column 8"),
    ("not-an-object", "[1.5, 1, 24, 30]", "not a JSON object but an array"),
    ("a-number", "42", "not a JSON object but an integer"),
    ("two-objects", _GOOD + "," + _GOOD, "more than one JSON value"),
    ("two-objects-spaced", _GOOD + " " + _GOOD, "more than one JSON value"),
    ("object-and-a-half", _GOOD + "," + _GOOD[:40],
     "more than one JSON value"),
    ("missing-field", _edited(ttl=...), "missing field 'ttl'"),
    ("unknown-field", _edited(source="x"), "unknown field 'source'"),
    ("renamed-field", _edited(client_ip=..., client="10.0.0.1"),
     "missing field 'client_ip'"),
    ("string-ttl", _edited(ttl="20"),
     "field 'ttl' is a string, expected a 64-bit integer"),
    ("float-ttl", _edited(ttl=20.0),
     "field 'ttl' is a float, expected a 64-bit integer"),
    ("boolean-qtype", _edited(qtype=True),
     "field 'qtype' is a boolean, expected a 32-bit integer"),
    ("string-ts", _edited(ts="noon"),
     "field 'ts' is a string, expected a number"),
    ("integer-qname", _edited(qname=5),
     "field 'qname' is an integer, expected a string"),
    ("array-qname", _edited(qname=["a.example."]),
     "field 'qname' is an array, expected a string"),
    ("object-client", _edited(client_ip={"v4": "10.0.0.1"}),
     "field 'client_ip' is an object, expected a string"),
    ("qtype-out-of-range", _edited(qtype=1 << 31),
     "field 'qtype' is out of range for a 32-bit integer"),
    ("ttl-out-of-range", _edited(ttl=-(1 << 63) - 1),
     "field 'ttl' is out of range for a 64-bit integer"),
    ("null-client", _edited(client_ip=None),
     "field 'client_ip' is null and the column is not nullable"),
    ("null-ttl", _edited(ttl=None),
     "field 'ttl' is null and the column is not nullable"),
    ("nested-too-deep", "[" * 100_000, "nested too deeply"),
    # A qname is hashed by the router, a client only packed by the parse.
    ("surrogate-qname", _edited(qname="\ud800.com."),
     "field 'qname' holds a lone surrogate"),
    ("surrogate-client", _edited(client_ip="10.0.0.\udc80"),
     "field 'client_ip' holds a lone surrogate"),
)

#: Lines that are rows although ``write_jsonl`` would not spell them so.
_ACCEPTED = (
    ("integer-ts", _edited(ts=2)),
    ("spaced", json.dumps(json.loads(_GOOD))),
    ("reordered", json.dumps(dict(reversed(json.loads(_GOOD).items())))),
    ("escaped-qname", _GOOD.replace("a.example.", "\\u0061.example.")),
    ("repeated-key", _GOOD[:-1] + ',"ttl":30}'),
    ("indented", "  \t" + _GOOD + "  "),
)


def _lanes(src, dst, workers, shards=3):
    """``replay``, ``convert`` (two-row groups) and ``convert
    --bucket-shards`` (its own lane: it parses lines into groups before
    any row is routed) over one file."""
    return (lambda: replay_jsonl_sharded(src, "allnames", shards=shards,
                                         workers=workers),
            lambda: convert_columnar(src, dst, "allnames", 2),
            lambda: convert_columnar(src, dst, "allnames", 2,
                                     buckets=shards))


@pytest.mark.parametrize("line,reason", [
    pytest.param(line, reason, id=label) for label, line, reason in _HOSTILE])
def test_hostile_jsonl_line_names_itself(line, reason, tmp_path,
                                         two_workers):
    """One validity rule: ``replay`` and ``convert`` both raise the typed
    error, with the file, the line number and the same reason, inline
    and from a pool worker; ``convert`` leaves nothing behind."""
    src, dst = tmp_path / "trace.jsonl", tmp_path / "trace.col"
    later = _edited(ts=3.5, qname="b.example.")
    # Line 5 of 6 (line 2 is blank), past the first two-row group and,
    # with the chunk patched to 2, past the first parsed chunk.
    src.write_text("\n".join((_GOOD, "", _GOOD, later, line, later)) + "\n")
    seen = set()
    with mock.patch.object(columnar, "PARSE_CHUNK_LINES", 2):
        for workers in (1, 2):
            for lane in _lanes(src, dst, workers):
                with pytest.raises(JsonlFormatError, match=reason) as caught:
                    lane()
                error = caught.value
                assert (error.path, error.line) == (str(src), 5)
                assert error.text == line.strip()
                assert str(error).startswith(f"{src}: line 5: ")
                seen.add(error.reason)
    assert len(seen) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]


@pytest.mark.parametrize("line", [
    pytest.param(line, id=label) for label, line in _ACCEPTED])
def test_unusual_jsonl_line_is_accepted_by_both_lanes(line, tmp_path):
    src, dst = tmp_path / "trace.jsonl", tmp_path / "trace.col"
    # The unusual line last (integer-ts is the latest row: a replay needs
    # time order), after a blank one and without a final newline.
    src.write_text("\n".join((_GOOD, "", _GOOD, line)))
    replay, convert, bucketed = _lanes(src, dst, 1)
    # The bucketed file first: dst is left as convert wrote it.
    assert replay()[1].total_records == bucketed() == convert() == 3
    assert read_columnar(dst) == [
        AllNamesRecord(**json.loads(line))
        for line in src.read_text().splitlines() if line.strip()]


@pytest.mark.parametrize("lead", (b"", (_GOOD.encode() + b"\n") * 2000),
                         ids=("short", "past-the-read-buffer"))
def test_non_utf8_jsonl_names_line_and_byte(lead, tmp_path, two_workers):
    """A byte that is not UTF-8 fails the read, in the router and in
    ``convert``; both name the file, the line and the byte, and
    ``convert`` leaves nothing behind."""
    src, dst = tmp_path / "trace.jsonl", tmp_path / "trace.col"
    bad = _GOOD.encode().replace(b"a.example.", b"a.\xffxample.")
    src.write_bytes(lead + _GOOD.encode() + b"\n" + bad + b"\n"
                    + _GOOD.encode() + b"\n")
    line = lead.count(b"\n") + 2
    for workers in (1, 2):
        for lane in _lanes(src, dst, workers):
            with pytest.raises(JsonlFormatError,
                               match="not UTF-8 at byte 45$") as caught:
                lane()
            assert (caught.value.path, caught.value.line) == (str(src), line)
            assert "a.�xample." in caught.value.text
    assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]


@pytest.mark.parametrize("ends", ((b"\r",) * 3, (b"\r\n",) * 3,
                                  (b"\r\n", b"\r", b"\n")),
                         ids=("cr", "crlf", "mixed"))
def test_non_utf8_jsonl_is_numbered_where_the_readers_split(ends, tmp_path,
                                                            two_workers):
    """Lines end at ``\\n``, ``\\r\\n`` and a lone ``\\r`` for the
    defect scan as for ``replay`` and ``convert``: a bad byte in line 3
    reads ``line 3`` and its offset within that line, as bad JSON in
    line 3 does."""
    src, dst = tmp_path / "trace.jsonl", tmp_path / "trace.col"
    good = _GOOD.encode()
    for third, reason in (
            (good.replace(b"a.example.", b"a.\xffxample."),
             "not UTF-8 at byte 45$"),
            (good[:-1] + b",}", "invalid JSON")):
        src.write_bytes(good + ends[0] + good + ends[1] + third + ends[2]
                        + good)
        for workers in (1, 2):
            for lane in _lanes(src, dst, workers):
                with pytest.raises(JsonlFormatError,
                                   match=f"line 3: {reason}") as caught:
                    lane()
                assert caught.value.line == 3
    assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]


def test_truncated_final_line_says_so(tmp_path):
    """What a killed ``generate --format jsonl`` leaves: the last line
    stops mid-value and has no newline."""
    src, dst = tmp_path / "trace.jsonl", tmp_path / "trace.col"
    src.write_text(_GOOD + "\n" + _GOOD + "\n" + _GOOD[:53])
    for lane in _lanes(src, dst, 1):
        with pytest.raises(JsonlFormatError,
                           match="line 3: truncated final line: invalid "
                                 "JSON") as caught:
            lane()
        assert caught.value.line == 3
    # The same damage in mid-file is plain invalid JSON.
    src.write_text(_GOOD + "\n" + _GOOD[:53] + "\n" + _GOOD + "\n")
    for lane in _lanes(src, dst, 1):
        with pytest.raises(JsonlFormatError,
                           match="line 2: invalid JSON") as caught:
            lane()
    assert not dst.exists()


@pytest.mark.parametrize("head,tail", (
    pytest.param(_GOOD[:_GOOD.index(',"qname"')],
                 _GOOD[_GOOD.index('"qname"'):], id="between-fields"),
    pytest.param(_GOOD[:_GOOD.index("example")],
                 "{" + _GOOD[_GOOD.index("example"):], id="inside-a-string")))
def test_lines_that_only_parse_together_are_rejected(head, tail, tmp_path):
    """A line holding a row and a half, the next line the other half:
    read as one text they are two rows for two lines, so the row count
    alone would let them through the joined-array parse."""
    src, dst = tmp_path / "trace.jsonl", tmp_path / "trace.col"
    src.write_text("\n".join((_GOOD + "," + head, tail, _GOOD)) + "\n")
    assert len(json.loads("[%s]" % ",".join(
        src.read_text().splitlines()))) == 3
    # One shard and a chunk of all three lines: both lanes see the two
    # halves side by side.
    for lane in _lanes(src, dst, 1, shards=1):
        with pytest.raises(JsonlFormatError,
                           match="line 1: more than one JSON value"):
            lane()


def test_jsonl_format_error_is_a_picklable_value_error():
    error = JsonlFormatError("t.jsonl", 7, "missing field 'ttl'", "{}")
    clone = pickle.loads(pickle.dumps(error))
    assert isinstance(clone, ValueError)
    assert (clone.path, clone.line, clone.reason, clone.text) \
        == ("t.jsonl", 7, "missing field 'ttl'", "{}")
    assert str(clone) == "t.jsonl: line 7: missing field 'ttl'"
    # Unlocated, as the parse step raises it: numbered within its input.
    with pytest.raises(JsonlFormatError, match="<lines>: line 2: ") as caught:
        _parse_lines("allnames", [_GOOD, "{}"])
    assert (caught.value.path, caught.value.line) == (None, 2)
