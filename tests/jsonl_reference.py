"""The per-record JSONL writer every column-rendering writer must equal.

``line_of`` is the encoder the JSONL writers used before they rendered
columns: one dict per record, read field by field, and one call of the
shared compact encoder per line.  ``write_jsonl_shards`` writes shard
files with it, the reference output of the generate and merge suites.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Iterable, List, Sequence, Union

from repro.datasets.records import shard_path

_encode = json.JSONEncoder(separators=(",", ":")).encode


def line_of(record: object) -> str:
    """One dataclass record as one JSONL line, newline included."""
    return _encode({f.name: getattr(record, f.name)
                    for f in dataclasses.fields(record)}) + "\n"


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
