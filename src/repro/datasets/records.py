"""Canonical log-record schemas for the four datasets, with JSONL/CSV IO.

Every dataset in the paper is, at bottom, a log of DNS interactions seen
from one vantage point.  These dataclasses pin down the fields each
analysis needs; generators emit them, IO helpers persist them, and the
analyses are pure functions over sequences of them — mirroring how the
paper's pipelines consume the operators' logs.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import heapq
import json
from dataclasses import dataclass
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
                    Type, TypeVar, Union)

from ..obs.export import write_text_atomic

T = TypeVar("T")


@dataclass(slots=True)
class CdnQueryRecord:
    """One query in the CDN dataset (authoritative vantage, section 4).

    Field names match :class:`repro.core.classify.QueryObservation` so the
    probing/prefix classifiers consume these records directly.
    """

    ts: float
    resolver_ip: str
    qname: str
    qtype: int
    has_ecs: bool
    ecs_address: Optional[str] = None
    ecs_source_len: Optional[int] = None
    #: Scope the CDN returned (None: resolver not whitelisted → no ECS echo).
    ecs_scope: Optional[int] = None
    ttl: int = 20


@dataclass(slots=True)
class ScanQueryRecord:
    """One arrival at the experimental nameserver (Scan dataset)."""

    ts: float
    ingress_ip: Optional[str]
    egress_ip: str
    qname: str
    has_ecs: bool
    ecs_address: Optional[str] = None
    ecs_source_len: Optional[int] = None


@dataclass(slots=True)
class PublicCdnRecord:
    """One ECS query from the public service to the CDN (section 4's
    Public Resolver/CDN dataset: all queries carry ECS, all responses a
    non-zero scope)."""

    ts: float
    resolver_ip: str
    qname: str
    qtype: int
    ecs_address: str
    ecs_source_len: int
    scope: int
    ttl: int = 20


@dataclass(slots=True)
class AllNamesRecord:
    """One query/response pair at the busy anycast resolver (All-Names
    Resolver dataset): both the client IP and the authoritative scope are
    known — the dataset's unique feature."""

    ts: float
    client_ip: str
    qname: str
    qtype: int
    scope: int
    ttl: int


@dataclass(slots=True)
class RootQueryRecord:
    """One query in a root-server (DITL-like) trace."""

    ts: float
    resolver_ip: str
    qname: str
    qtype: int
    has_ecs: bool


# ---------------------------------------------------------------------------
# IO


class JsonlFormatError(ValueError):
    """A JSONL trace line that is not one row of its schema.

    The JSONL twin of :class:`repro.datasets.columnar.ColumnarFormatError`:
    ``path`` and the 1-based ``line`` number say where, ``reason`` says
    what, ``text`` is the stripped line itself.  The parse step sees
    lines, not files, so it raises with ``path=None`` and ``line``
    counting within the lines it was given; the file-level entry points
    (``replay_jsonl_sharded``, ``jsonl_to_columnar``) re-raise it
    :meth:`located`.
    """

    def __init__(self, path: Optional[str], line: int, reason: str,
                 text: str) -> None:
        # The constructor arguments are the exception's args, so it
        # unpickles on the parent's side of a worker pool.
        super().__init__(path, line, reason, text)
        self.path = path
        self.line = line
        self.reason = reason
        self.text = text

    def __str__(self) -> str:
        return (f"{self.path or '<lines>'}: line {self.line}: "
                f"{self.reason}")

    def located(self, path: Union[str, Path]) -> "JsonlFormatError":
        """This defect with the file and file line number it sits at.

        The failure path's one scan of ``path`` for the rejected text —
        nothing is carried per row to make an error message.  Only a
        file's last line can lack its newline, and one that does not
        parse is what a killed writer leaves behind.
        """
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            for number, raw in enumerate(fh, 1):
                if raw.strip() == self.text:
                    reason = self.reason
                    if (not raw.endswith("\n")
                            and reason.startswith("invalid JSON")):
                        reason = f"truncated final line: {reason}"
                    return JsonlFormatError(str(path), number, reason,
                                            self.text)
        return self


def _write_lines(path: Union[str, Path], lines: Iterable[str]) -> int:
    """Stream ``lines`` to ``path`` tmp-then-rename; returns how many.

    If ``lines`` raises mid-way, ``path`` is left as it was
    (:func:`~repro.obs.export.write_text_atomic`).
    """
    count = 0

    def counted() -> Iterator[str]:
        nonlocal count
        for count, line in enumerate(lines, 1):
            yield line

    write_text_atomic(path, counted())
    return count


def write_jsonl(records: Iterable[object], path: Union[str, Path]) -> int:
    """Write dataclass records as JSON lines; returns the count written."""
    # Records are flat dataclasses of scalars: reading the fields by
    # name yields the dict ``dataclasses.asdict`` would, without its
    # recursive copy, and one encoder serves every line.
    encode = json.JSONEncoder(separators=(",", ":")).encode
    names_of: Dict[type, Tuple[str, ...]] = {}

    def line_of(record: object) -> str:
        names = names_of.get(type(record))
        if names is None:
            names = names_of[type(record)] = tuple(
                f.name for f in dataclasses.fields(record))
        return encode({name: getattr(record, name) for name in names}) + "\n"

    return _write_lines(path, map(line_of, records))


def read_jsonl(path: Union[str, Path], record_type: Type[T]) -> List[T]:
    """Load JSONL records back into dataclass instances."""
    out: List[T] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(record_type(**json.loads(line)))
    return out


def iter_jsonl(path: Union[str, Path], record_type: Type[T]) -> Iterator[T]:
    """Stream JSONL records without materializing the whole list."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield record_type(**json.loads(line))


def shard_path(base_path: Union[str, Path], shard_index: int) -> Path:
    """The conventional on-disk name of one shard of ``base_path``."""
    base = Path(base_path)
    return base.with_name(f"{base.name}.shard{shard_index:02d}")


def write_jsonl_shards(shard_lists: Sequence[Iterable[object]],
                       base_path: Union[str, Path]) -> List[Path]:
    """Write one JSONL file per shard next to ``base_path``.

    Shard workers can call :func:`write_jsonl` on their own shard file
    concurrently; this helper is the serial equivalent, used once the
    per-shard record lists are back in the parent.  Returns the shard
    paths in shard order — the order :func:`merge_jsonl_shards` expects.
    """
    paths: List[Path] = []
    for index, records in enumerate(shard_lists):
        path = shard_path(base_path, index)
        write_jsonl(records, path)
        paths.append(path)
    return paths


def merge_jsonl_shards(paths: Sequence[Union[str, Path]],
                       out_path: Union[str, Path],
                       ts_field: str = "ts") -> int:
    """Order-stable k-way merge of timestamp-sorted shard files.

    Lines are merged by their ``ts_field`` value; ties break toward the
    earlier shard in ``paths``, matching a stable sort of the shard
    concatenation.  Streams line-by-line, so merging never materializes a
    whole dataset in memory.  Returns the number of records written.
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
        return _write_lines(out_path, (line + "\n" for _, _, line
                                       in heapq.merge(*streams)))


def write_csv(records: Sequence[object], path: Union[str, Path]) -> int:
    """Write dataclass records as CSV with a header row."""
    records = list(records)
    if not records:
        Path(path).write_text("")
        return 0
    fields = [f.name for f in dataclasses.fields(records[0])]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for record in records:
            writer.writerow(dataclasses.asdict(record))
    return len(records)
