"""The builders' column streams (``iter_shard_columns``) and their edges.

Every registered builder has one row loop and it fills the schema's
columns.  These tests hold the stream to the shape the columnar writers
take, and hold every consumer of it — ``generate_columnar``'s column
lane, ``fig1_sharded``'s in-memory store — to what the stream's rows
are, read as records (``builder_reference.py``).  The last section
holds the lane's one ordering rule: by either route, a builder's
``.col`` shard is the reference shard, in stable ts order, byte for
byte.
"""

from __future__ import annotations

from itertools import groupby
from typing import Any, Iterator, List

import pytest

from repro.analysis.cache_sim import fig1_series
from repro.datasets.columnar import (SCHEMAS, ColumnarStore, RowGroupReader,
                                     file_info, read_columnar,
                                     write_columnar_stream)
from repro.datasets.records import shard_path
from repro.datasets.workload import COLUMN_CHUNK_ROWS, column_records
from repro.engine.generate import (_write_columnar_shard_from_spec,
                                   generate_columnar)
from repro.engine.replay import fig1_sharded
from repro.engine.sharding import (ShardSpec, register_builder,
                                   shard_bounds)

from builder_reference import merged_records, shard_lists

#: Small enough for tier-1: 11,000 allnames queries (a lone shard spans
#: three chunks), five public-cdn resolvers.
PARAMS = {
    "allnames": dict(scale=0.02),
    "public-cdn": dict(scale=0.002, duration_s=240.0),
}
#: Five resolvers of about 5,000 arrivals each: every one of them ends
#: a full chunk and starts a short one.
BUSY_RESOLVERS = dict(scale=0.002, duration_s=50.0, mean_qps=100.0,
                      volume_spread_decades=0.0)
#: What each column kind's values must be, exactly (``bool`` is an
#: ``int`` to ``isinstance``; the writers pack these and nothing else).
PYTHON_TYPES = {"f8": float, "i4": int, "i8": int, "str": str}

matrix = pytest.mark.parametrize("shards", (1, 3, 8))
seeds = pytest.mark.parametrize("seed", (0, 7))
builders = pytest.mark.parametrize("name", sorted(PARAMS))


def _spec(name: str, shards: int, seed: int, **params) -> ShardSpec:
    return ShardSpec.create(name, shard_count=shards, seed=seed,
                            **(params or PARAMS[name]))


@pytest.mark.parametrize("name,params", (("allnames", PARAMS["allnames"]),
                                         ("public-cdn", BUSY_RESOLVERS)))
@seeds
@matrix
def test_chunks_have_the_schemas_shape(name, params, seed, shards):
    builder = _spec(name, shards, seed, **params).make_builder()
    columns = SCHEMAS[name].columns
    sizes = []
    for index in range(shards):
        # A chunk never spans two runs: a run is an allnames shard, or
        # one resolver of a public-cdn shard.
        records = column_records(SCHEMAS[name].record_type,
                                 builder.iter_shard_columns(index, shards))
        runs = [len(list(run)) for _, run in groupby(
            records, key=lambda r: getattr(r, "resolver_ip", None))]
        want = [size for run in runs
                for size in [COLUMN_CHUNK_ROWS] * (run // COLUMN_CHUNK_ROWS)
                + [run % COLUMN_CHUNK_ROWS] if size]
        got = []
        for chunk in builder.iter_shard_columns(index, shards):
            assert len(chunk) == len(columns)
            assert all(type(values) is list for values in chunk)
            (size,) = set(map(len, chunk))
            for spec, values in zip(columns, chunk):
                assert set(map(type, values)) == {PYTHON_TYPES[spec.kind]}
            got.append(size)
        assert got == want
        sizes += got
    assert min(sizes) >= 1 and max(sizes) <= COLUMN_CHUNK_ROWS
    if shards == 1:
        assert COLUMN_CHUNK_ROWS in sizes and len(set(sizes)) > 1


@builders
@seeds
@matrix
def test_generated_col_holds_the_assembled_records(name, seed, shards,
                                                   tmp_path):
    spec = _spec(name, shards, seed)
    want = merged_records(spec)
    rows, _ = generate_columnar(spec, tmp_path / "t.col", row_group_rows=1000)
    with RowGroupReader(tmp_path / "t.col") as reader:
        assert tuple(reader.iter_records()) == want
    assert rows == len(want)


@seeds
@matrix
def test_store_from_chunks_equals_store_from_records(seed, shards):
    builder = _spec("public-cdn", shards, seed).make_builder()
    for index in range(shards):
        got = ColumnarStore.from_column_chunks(
            builder.iter_shard_columns(index, shards), "public-cdn")
        want = ColumnarStore.from_records(column_records(
            SCHEMAS["public-cdn"].record_type,
            builder.iter_shard_columns(index, shards)), "public-cdn")
        assert len(got) == len(want)
        for spec in SCHEMAS["public-cdn"].columns:
            assert got.column(spec.name) == want.column(spec.name)
            if spec.kind == "str":
                # first-appearance order, not merely the same set
                assert (got.dictionary(spec.name)
                        == want.dictionary(spec.name))


def test_from_column_chunks_rejects_a_ragged_chunk():
    with pytest.raises(ValueError, match="6 equal-length columns"):
        ColumnarStore.from_column_chunks(
            [[[0.5, 1.5], ["10.0.0.1"], ["a."], [1], [24], [60]]],
            "allnames")


@pytest.mark.parametrize("seed,rows,speakers", ((0, 29, 4), (7, 9, 2)))
def test_mostly_silent_resolvers(seed, rows, speakers, tmp_path):
    """A second of four resolvers, in 8 shards: four shards own no
    resolver, and at seed 7 two of the resolvers have no arrival — an
    empty shard is a valid file and a silent resolver no chunk at all."""
    spec = ShardSpec.create("public-cdn", shard_count=8, scale=0.0001,
                            seed=seed, duration_s=1.0)
    builder = spec.make_builder()
    want = merged_records(spec)
    assert len(want) == rows
    chunks = [chunk for index in range(8)
              for chunk in builder.iter_shard_columns(index, 8)]
    assert [len(chunk[0]) for chunk in chunks] == [
        len(list(run)) for _, run in groupby(sorted(
            r.resolver_ip for r in want))]
    assert len(chunks) == speakers

    assert generate_columnar(spec, tmp_path / "t.col")[0] == rows
    with RowGroupReader(tmp_path / "t.col") as reader:
        assert tuple(reader.iter_records()) == want
    ttls = (None, 0, 40)
    for workers in (1, 2):
        series, report = fig1_sharded(spec, ttls, workers=workers)
        assert series == fig1_series(
            ColumnarStore.from_records(want, "public-cdn"), ttls)
        assert len(series[40]) == speakers
        assert report.total_records == rows


def test_more_shards_than_units_on_the_column_lane(tmp_path):
    """100 allnames queries in 128 shards: 28 shards write a valid file
    of no rows, and the merge of all 128 is the trace."""
    spec = ShardSpec.create("allnames", shard_count=128, scale=0.0001,
                            seed=0)
    builder = spec.make_builder()
    assert list(builder.iter_shard_columns(127, 128)) == []
    out = tmp_path / "t.col"
    assert _write_columnar_shard_from_spec(spec, str(out), "allnames",
                                           None, 127) == 0
    info = file_info(shard_path(out, 127))
    assert (info["rows"], info["row_groups"]) == (0, 0)
    with RowGroupReader(shard_path(out, 127)) as reader:
        assert list(reader.iter_records()) == []

    want = merged_records(spec)
    rows, _ = generate_columnar(spec, out)
    with RowGroupReader(out) as reader:
        assert tuple(reader.iter_records()) == want
    assert rows == len(want) == 100
    assert not shard_path(out, 127).exists()


# ---------------------------------------------------------------------------
# One ordering rule: a ``.col`` shard is the reference shard, in order.


class TiedTraceBuilder:
    """Units that emit the same few ``ts`` values, out of order.

    Every unit walks the clock 0, 3, 1, 4, 2, 0, ... so a shard's rows
    are unordered and almost all of them tie; ``client_ip`` names the
    unit and the position a row was emitted at, so only the *stable*
    ts order — ties in emission order — reproduces the reference shard.
    """

    def __init__(self, units: int = 7, rows: int = 23, seed: int = 0):
        self.units = units
        self.rows = rows
        self.seed = seed

    def iter_shard_columns(self, shard_index: int,
                           shard_count: int) -> Iterator[List[List[Any]]]:
        lo, hi = shard_bounds(self.units, shard_count)[shard_index]
        for unit in range(lo, hi):
            span = range(self.rows)
            yield [[float((3 * j + self.seed) % 5) for j in span],
                   [f"10.9.{unit}.{j}" for j in span],
                   [f"h{j % 4}.example." for j in span],
                   [1] * self.rows, [24] * self.rows, [60] * self.rows]


register_builder("tied-trace", "test_column_stream:TiedTraceBuilder")

#: Every registry builder and the tie-heavy one: (builder, schema, kwargs).
ORDERING_CASES = (
    ("allnames", "allnames", PARAMS["allnames"]),
    ("public-cdn", "public-cdn", PARAMS["public-cdn"]),
    ("cdn", "cdn", dict(scale=0.004, duration_s=900.0)),
    ("root-trace", "root-trace", dict(resolver_count=30, violators=4,
                                      duration_s=600.0)),
    ("tied-trace", "allnames", {}),
)


@pytest.mark.parametrize("row_group_rows", (None, 7))
@pytest.mark.parametrize("name,schema,params", ORDERING_CASES,
                         ids=[case[0] for case in ORDERING_CASES])
def test_shard_file_is_build_shard_in_order(name, schema, params,
                                            row_group_rows, tmp_path,
                                            monkeypatch):
    """The shard file equals ``write_columnar_stream`` of the reference
    shard (``shard_lists``) byte for byte, whichever of the two routes
    wrote it (allnames is ordered, every other builder not); no builder
    gets there through a record, and no route leaves a run file or a
    temporary behind."""
    shards = 3
    spec = ShardSpec.create(name, shard_count=shards, seed=7, **params)
    want = shard_lists(spec, schema)
    if name == "tied-trace":
        assert all(sum(a.ts == b.ts for a, b in zip(shard, shard[1:]))
                   >= len(shard) - 5 for shard in want)

    built = []
    record_type = SCHEMAS[schema].record_type
    init = record_type.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    out = tmp_path / "t.col"
    with monkeypatch.context() as patch:
        patch.setattr(record_type, "__init__", counting_init)
        counts = [_write_columnar_shard_from_spec(
            spec, str(out), schema, row_group_rows, index)
            for index in range(shards)]
    assert counts == [len(shard) for shard in want]
    assert not built
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        shard_path(out, index).name for index in range(shards)]

    reference = tmp_path / "reference.col"
    for index, records in enumerate(want):
        write_columnar_stream(records, reference, schema, row_group_rows)
        assert shard_path(out, index).read_bytes() == reference.read_bytes()
        assert tuple(read_columnar(shard_path(out, index))) == records
