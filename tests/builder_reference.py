"""The engine-free reference every sharded generation route must equal.

A trace builder has one row loop, its column stream
(``iter_shard_columns``), and the engine writes that stream without a
record.  This module reads the same stream as records, in-process:
``shard_lists`` is every shard of a spec, each in stable ts order
(ties in emission order), ``merged_records`` the order-stable merge of
those shards, and ``merge_sorted_records`` that merge over any
ts-sorted lists — a stable sort of their concatenation, ties toward
the earlier shard.  The suites pin ``generate_columnar``,
``generate_jsonl`` and the shard writers against it.

A spec's reference is built once (:class:`ShardSpec` is frozen, so it
hashes) and returned as tuples, so no test can change what another
test reads.  Only the last :data:`SPECS_HELD` specs' records are held:
a suite reuses a spec in the tests that follow each other, and records
held for the whole session would slow every later garbage collection.
``schema`` names the rows' schema for a builder that has none of its
own (a synthetic test builder); it defaults to the spec's builder
name, as in ``generate_columnar``.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple, TypeVar

from repro.datasets.columnar import schema_for
from repro.datasets.workload import column_records
from repro.engine.sharding import ShardSpec

R = TypeVar("R")

#: How many specs' references stay built.
SPECS_HELD = 8

_ts = attrgetter("ts")


def merge_sorted_records(shard_lists: Sequence[Sequence[R]]) -> List[R]:
    """Order-stable k-way merge of per-shard, ts-sorted records: a
    stable sort of the concatenation in shard order."""
    return list(heapq.merge(*shard_lists, key=_ts))


@lru_cache(maxsize=SPECS_HELD)
def _reference(spec: ShardSpec, schema: str) -> Tuple[Tuple[Tuple, ...],
                                                      Tuple]:
    """``(shards, merged)``: what :func:`shard_lists` and
    :func:`merged_records` return."""
    record_type = schema_for(schema).record_type
    builder = spec.make_builder()
    shards = tuple(
        tuple(sorted(column_records(record_type, builder.iter_shard_columns(
            index, spec.shard_count)), key=_ts))
        for index in range(spec.shard_count))
    return shards, tuple(merge_sorted_records(shards))


def shard_lists(spec: ShardSpec,
                schema: Optional[str] = None) -> Tuple[Tuple, ...]:
    """Every shard of ``spec`` as records, in shard order, each in
    stable ts order."""
    return _reference(spec, schema or spec.builder)[0]


def merged_records(spec: ShardSpec, schema: Optional[str] = None) -> Tuple:
    """The trace ``spec`` generates, as records: its shards merged."""
    return _reference(spec, schema or spec.builder)[1]
