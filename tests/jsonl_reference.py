"""The per-record JSONL route every column-rendering writer must equal.

``line_of`` is the encoder the JSONL writers used before they rendered
columns: one dict per record, read field by field, and one call of the
shared compact encoder per line.  ``write_jsonl_shards`` writes shard
files with it and ``merge_jsonl_shards`` merges them a line at a time:
together the reference output of the generate and merge suites, which
shares nothing but the atomic file write with the columnar pipeline
``generate_jsonl`` runs.  ``read_jsonl`` is how the suites read a JSONL
trace back as records: through the schema-checked parser, so a line
that is not a row raises ``JsonlFormatError``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import heapq
import json
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence, Union

from repro.datasets.columnar import ColumnarStore, schema_for
from repro.datasets.records import shard_path, write_jsonl_text

_encode = json.JSONEncoder(separators=(",", ":")).encode


def line_of(record: object) -> str:
    """One dataclass record as one JSONL line, newline included."""
    return _encode({f.name: getattr(record, f.name)
                    for f in dataclasses.fields(record)}) + "\n"


def read_jsonl(path: Union[str, Path], record_type: type) -> list:
    """The records of a JSONL trace, parsed against their schema."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in map(str.strip, handle) if line]
    return ColumnarStore.from_jsonl_lines(
        lines, schema_for(record_type)).to_records()


def write_jsonl_shards(shard_lists: Sequence[Iterable[object]],
                       base_path: Union[str, Path]) -> List[Path]:
    """One JSONL file per shard next to ``base_path``, in shard order —
    the order ``merge_jsonl_shards`` expects."""
    paths: List[Path] = []
    for index, records in enumerate(shard_lists):
        path = shard_path(base_path, index)
        path.write_text("".join(map(line_of, records)), encoding="utf-8")
        paths.append(path)
    return paths


def merge_jsonl_shards(paths: Sequence[Union[str, Path]],
                       out_path: Union[str, Path],
                       ts_field: str = "ts") -> int:
    """Order-stable k-way merge of timestamp-sorted JSONL shard files.

    Lines are merged by their ``ts_field`` value; ties break toward the
    earlier shard in ``paths``, matching a stable sort of the shard
    concatenation.  Streams line by line and writes atomically; returns
    the number of records written.
    """

    def stream(index: int, handle) -> Iterator[tuple]:
        for line in handle:
            line = line.strip()
            if line:
                yield (json.loads(line)[ts_field], index, line)

    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open(p, "r", encoding="utf-8"))
                   for p in paths]
        streams = [stream(i, h) for i, h in enumerate(handles)]
        return write_jsonl_text((line + "\n" for _, _, line
                                 in heapq.merge(*streams)), out_path)
