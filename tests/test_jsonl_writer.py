"""JSONL is written from columns: the line encoder against its reference.

Every JSONL writer — ``write_jsonl`` and ``ColumnarStore.jsonl_chunks``
(``columnar_to_jsonl``, which is also how ``generate --format jsonl``
writes) — renders a chunk of rows a column at a time (``json_column``)
and joins the lines once (``json_rows``).  The reference is the
per-record encoder those writers replaced (``line_of`` in
``jsonl_reference.py``): one dict and one ``json.JSONEncoder`` call per
row.  These tests hold the two to the same bytes on the values a
per-value memo could get wrong — equal keys with different text
(``-0.0``/``0.0``, ``True``/``1``), text JSON must escape, values JSON
cannot spell natively — and tie the two generate formats to one table.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import columnar, records
from repro.datasets.columnar import SCHEMAS, ColumnarStore, columnar_to_jsonl
from repro.datasets.records import (AllNamesRecord, CdnQueryRecord,
                                    json_column, shard_path, write_jsonl)
from repro.dnslib import RecordType
from repro.engine import ShardSpec, generate_columnar, generate_jsonl
from repro.engine.generate import _write_columnar_shard_from_spec

from builder_reference import shard_lists
from jsonl_reference import line_of

_encode = json.JSONEncoder(separators=(",", ":")).encode

#: Text JSON has to escape or that a memo keyed on the value must keep
#: apart: quotes, backslashes, control characters, non-ASCII, line
#: separators and lone surrogates.
_TEXT = st.one_of(
    st.sampled_from(("", "a.example.", '"', "\\", "\x00\x1f\x7f", "\n\t",
                     "é.example.", " ", "\ud800", "\udfff.", "😀")),
    st.text(st.characters(exclude_categories=()), max_size=8))
_F8 = st.one_of(st.sampled_from((0.0, -0.0, 1e-300, 1e308, float("nan"),
                                 float("inf"), float("-inf"))),
                st.floats())
_INTS = {"i4": (-(1 << 31), (1 << 31) - 1), "i8": (-(1 << 63), (1 << 63) - 1)}


def _values(spec):
    if spec.kind == "str":
        values = _TEXT
    elif spec.kind == "bool":
        values = st.booleans()
    elif spec.kind == "f8":
        values = _F8
    else:
        low, high = _INTS[spec.kind]
        values = st.sampled_from((low, high, 0, 1)) | st.integers(low, high)
    return st.none() | values if spec.nullable else values


#: Records of all five schemas from the values above.
HOSTILE_RECORDS = {
    name: st.builds(schema.record_type,
                    *(_values(spec) for spec in schema.columns))
    for name, schema in SCHEMAS.items()}


def _reference(rows) -> bytes:
    return "".join(map(line_of, rows)).encode("utf-8")


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_writers_equal_the_per_record_encoder(name, data, tmp_path_factory):
    """``write_jsonl`` and a store's rendering are the per-record
    encoder's bytes."""
    rows = data.draw(st.lists(HOSTILE_RECORDS[name], max_size=30))
    path = tmp_path_factory.mktemp("jsonl") / "t.jsonl"
    chunk = data.draw(st.integers(1, 8), label="chunk rows")
    # ``columnar`` imports the constant: both bindings move.
    with mock.patch.object(records, "EXTEND_CHUNK_ROWS", chunk), \
            mock.patch.object(columnar, "EXTEND_CHUNK_ROWS", chunk):
        assert write_jsonl(rows, path) == len(rows)
        store = ColumnarStore.from_records(rows, name)
        whole = "".join(store.jsonl_chunks()).encode("utf-8")
    assert path.read_bytes() == whole == _reference(rows)


#: Values that are equal, or hash alike, with different JSON text.
_COLLIDING = st.sampled_from((0, 0.0, -0.0, 1, 1.0, True, False, None, "1",
                              float("nan"), RecordType.A, RecordType.AAAA))


@settings(max_examples=60, deadline=None)
@given(values=st.lists(_COLLIDING, max_size=8)
       | st.lists(_COLLIDING | _F8 | _TEXT | st.integers(), max_size=12))
@example(values=[1, True, None, 0, False])
@example(values=[0.0, -0.0, float("nan")])
@example(values=[1, 1.0, None])
def test_json_column_never_merges_equal_keys(values):
    """Any column, mixed or not: ``-0.0`` next to ``0.0``, ``True`` next
    to ``1``, ``1.0`` next to ``1`` and an ``IntEnum`` next to its int
    each keep their own text."""
    assert json_column(values) == list(map(_encode, values))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_int_ts_intenum_qtype_and_mixed_types(data, tmp_path_factory):
    """Records the schemas would not hold: an int ``ts``, a ``RecordType``
    qtype, and a stream that alternates two record types in runs."""
    qtype = st.sampled_from((1, RecordType.A, RecordType.AAAA))
    ts = st.integers(0, 1 << 40) | _F8
    allnames = st.builds(AllNamesRecord, ts=ts, client_ip=_TEXT,
                         qname=_TEXT, qtype=qtype, scope=st.integers(0, 32),
                         ttl=st.integers(0, 600))
    cdn = st.builds(CdnQueryRecord, ts=ts, resolver_ip=_TEXT, qname=_TEXT,
                    qtype=qtype, has_ecs=st.booleans(),
                    ecs_address=st.none() | _TEXT)
    rows = data.draw(st.lists(allnames | cdn, max_size=30))
    path = tmp_path_factory.mktemp("mixed") / "t.jsonl"
    with mock.patch.object(records, "EXTEND_CHUNK_ROWS",
                           data.draw(st.integers(1, 8))):
        assert write_jsonl(iter(rows), path) == len(rows)
    assert path.read_bytes() == _reference(rows)


#: Every registry builder, small: (builder, kwargs).
BUILDERS = (
    ("allnames", dict(scale=0.01)),
    ("public-cdn", dict(scale=0.002, duration_s=300.0)),
    ("cdn", dict(scale=0.004, duration_s=900.0)),
    ("root-trace", dict(resolver_count=20, violators=3, duration_s=120.0)),
)


@pytest.mark.parametrize("name,params", BUILDERS,
                         ids=[name for name, _ in BUILDERS])
def test_jsonl_shard_is_build_shard_rendered(name, params, tmp_path,
                                             monkeypatch):
    """A worker's shard file, rendered, is the reference encoding of the
    reference shard (``shard_lists``), and every builder writes it
    without building a record."""
    shards = 3
    spec = ShardSpec.create(name, shard_count=shards, seed=7, **params)
    want = shard_lists(spec)
    built = []
    record_type = SCHEMAS[name].record_type
    init = record_type.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    out = tmp_path / "t.col"
    with monkeypatch.context() as patch:
        patch.setattr(record_type, "__init__", counting_init)
        counts = [_write_columnar_shard_from_spec(spec, str(out), name, None,
                                                  index)
                  for index in range(shards)]
    assert counts == [len(shard) for shard in want]
    assert not built
    for index, shard in enumerate(want):
        rendered = tmp_path / f"t{index}.jsonl"
        columnar_to_jsonl(shard_path(out, index), rendered)
        assert rendered.read_bytes() == _reference(shard)


@pytest.mark.parametrize("seed", (0, 7))
@pytest.mark.parametrize("name,params", BUILDERS,
                         ids=[name for name, _ in BUILDERS])
def test_generate_jsonl_is_generate_columnar_then_convert(name, params, seed,
                                                          tmp_path):
    """The two generate lanes hold one table: ``generate --format jsonl``
    is byte for byte ``generate --format columnar`` + ``convert --to
    jsonl``."""
    spec = ShardSpec.create(name, shard_count=4, seed=seed, **params)
    rows, _ = generate_jsonl(spec, tmp_path / "direct.jsonl")
    assert generate_columnar(spec, tmp_path / "t.col")[0] == rows > 0
    assert columnar_to_jsonl(tmp_path / "t.col",
                             tmp_path / "converted.jsonl") == rows
    assert (tmp_path / "direct.jsonl").read_bytes() \
        == (tmp_path / "converted.jsonl").read_bytes()
