"""Canonical log-record schemas for the four datasets, and the JSONL writer.

Every dataset in the paper is, at bottom, a log of DNS interactions seen
from one vantage point.  These dataclasses pin down the fields each
analysis needs: the builders' column streams are read back as them, and
the analyses are pure functions over sequences of them — mirroring how
the paper's pipelines consume the operators' logs.  The Scan dataset's
record, :class:`~repro.auth.scan_experiment.ScanQueryRecord`, is the
experimental nameserver's own log entry and lives beside that server.
JSONL is written here, from columns (:func:`jsonl_lines`), and read back
through the schema-checked parser in :mod:`repro.datasets.columnar`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from itertools import chain, groupby, islice, repeat
from operator import attrgetter
from pathlib import Path
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from ..obs.export import write_text_atomic

#: Most records a writer holds at once while it transposes them into
#: columns (``ColumnarWriter.extend``, :func:`write_jsonl`), and most
#: rows a store renders into one piece of JSONL text.  Big enough that
#: the per-chunk work (one ``map`` and one ``array`` or one rendering
#: per column) amortizes to nothing per row; small enough that the
#: chunk's record objects, value lists and text stay well under a MiB
#: however large the row group, so peak RSS does not depend on
#: ``row_group_rows``.
EXTEND_CHUNK_ROWS = 512


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


class TraceFormatError(ValueError):
    """A trace input that cannot be read: ``path`` names the file as its
    reader was given it, ``reason`` says what is wrong with it.

    The shape of every rejected input — a path that does not open (the
    ``strerror``), a JSONL line (:class:`JsonlFormatError`) or a
    ``.col`` header or segment
    (:class:`repro.datasets.columnar.ColumnarFormatError`).  The
    constructor arguments are the exception's args, so it unpickles on
    the parent's side of a worker pool.
    """

    #: Set once a ``trace_input`` block has named and reported it.
    reported = False

    def __init__(self, path: Union[str, Path, None], reason: str) -> None:
        super().__init__(path, reason)
        self.path = None if path is None else str(path)
        self.reason = reason

    def __str__(self) -> str:
        return f"{self.path}: {self.reason}"

    def located(self, path: Union[str, Path]) -> "TraceFormatError":
        """This defect, naming ``path`` as the caller gave it (a replay
        worker reads the file by its resolved path)."""
        return type(self)(path, self.reason)


class JsonlFormatError(TraceFormatError):
    """A JSONL trace line that is not one row of its schema.

    ``path`` and the 1-based ``line`` number say where, ``reason`` says
    what, ``text`` is the stripped line itself.  The parse step sees
    lines, not files, so it raises with ``path=None`` and ``line``
    counting within the lines it was given; the file-level entry points
    re-raise it :meth:`located` (``repro.datasets.columnar.trace_input``).
    """

    def __init__(self, path: Optional[str], line: int, reason: str,
                 text: str) -> None:
        super().__init__(path, reason)
        self.args = (path, line, reason, text)
        self.line = line
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


# ---------------------------------------------------------------------------
# Columns -> JSONL lines
#
# Every JSONL writer renders columns, never a record: a line is what
# ``json.JSONEncoder(separators=(",", ":")).encode`` makes of the row's
# field dict, and :func:`json_column` produces each field's share of it
# for a whole column at once.

_encode = json.JSONEncoder(separators=(",", ":")).encode


def json_column(values: Sequence[Any]) -> List[str]:
    """The JSON text of each value, as the row encoder spells it.

    One C-level pass per column: finite floats through ``float.__repr__``
    and bools through a two-entry table; str, int and ``None`` through
    a memo of one rendering per distinct value — keyed only on types
    whose equal values have equal text, so never on floats (``-0.0 ==
    0.0``) or bools (``True == 1``).  Anything else (NaN and ±inf,
    int subclasses, mixed columns) goes to the encoder a value at a
    time.
    """
    kinds = set(map(type, values))
    if kinds == {float} and math.isfinite(sum(values)):
        return list(map(float.__repr__, values))
    if kinds == {bool}:
        return list(map(("false", "true").__getitem__, values))
    if kinds <= {str, int, type(None)}:
        distinct = set(values)
        render = int.__repr__ if kinds == {int} else _encode
        memo = dict(zip(distinct, map(render, distinct)))
        return list(map(memo.__getitem__, values))
    return list(map(_encode, values))


def json_rows(names: Sequence[str], texts: Sequence[Sequence[str]]) -> str:
    """Rows as JSONL text, given each column's rendered values.

    ``texts`` holds one equal-length sequence of JSON texts per field in
    ``names`` (:func:`json_column`); the lines come out of one zip and
    one join, each ending in a newline.
    """
    if not texts:
        raise ValueError("a JSONL row needs at least one field")
    keys = [_encode(name) + ":" for name in names]
    parts: List[Iterable[str]] = []
    for lead, key, column in zip(chain("{", repeat(",")), keys, texts):
        parts += (repeat(lead + key), column)
    parts.append(repeat("}\n"))
    return "".join(chain.from_iterable(zip(*parts)))


def jsonl_lines(names: Sequence[str],
                columns: Sequence[Sequence[Any]]) -> str:
    """The JSONL line encoder: rows given one value sequence per field.

    Each line is byte for byte ``encode(dict(zip(names, row))) + "\\n"``
    for the compact encoder every writer shares.
    """
    return json_rows(names, [json_column(values) for values in columns])


def write_jsonl_text(texts: Iterable[str], path: Union[str, Path]) -> int:
    """Stream JSONL ``texts`` — whole lines, one or many a piece — to
    ``path`` tmp-then-rename; returns how many lines.

    If ``texts`` raises mid-way, ``path`` is left as it was
    (:func:`~repro.obs.export.write_text_atomic`).
    """
    count = 0

    def counted() -> Iterator[str]:
        nonlocal count
        for text in texts:
            count += text.count("\n")
            yield text

    write_text_atomic(path, counted())
    return count


def write_jsonl(records: Iterable[object], path: Union[str, Path]) -> int:
    """Write dataclass records as JSON lines; returns the count written.

    Records are pulled :data:`EXTEND_CHUNK_ROWS` at a time and each run
    of one record type in a chunk is transposed into its columns (one
    ``attrgetter`` pass per field) and rendered by :func:`jsonl_lines`
    — the dict ``dataclasses.asdict`` would give, spelled without
    building it.
    """
    names_of: Dict[type, Tuple[str, ...]] = {}

    def texts() -> Iterator[str]:
        stream = iter(records)
        while True:
            chunk = list(islice(stream, EXTEND_CHUNK_ROWS))
            if not chunk:
                return
            for cls, run in groupby(chunk, type):
                names = names_of.get(cls)
                if names is None:
                    names = names_of[cls] = tuple(
                        f.name for f in dataclasses.fields(cls))
                rows = list(run)
                yield jsonl_lines(names, [list(map(attrgetter(name), rows))
                                          for name in names])

    return write_jsonl_text(texts(), path)


def shard_path(base_path: Union[str, Path], shard_index: int) -> Path:
    """The conventional on-disk name of one shard of ``base_path``."""
    base = Path(base_path)
    return base.with_name(f"{base.name}.shard{shard_index:02d}")
