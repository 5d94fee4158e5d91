"""Columnar, mmap-able storage for the trace record schemas.

The paper's real datasets are 1.5B (All-Names) and 3.8B (CDN) queries;
Python-object record lists cap out far below that.  This module stores a
trace as *columns* instead: one struct-packed :mod:`array` per numeric
field, a dictionary-encoded code column per string field (qnames,
resolver and client IPs repeat constantly in DNS traces), and a packed
null bitmap per Optional field.  The on-disk format is a versioned
header plus raw per-column segments, so an opened file is a single
:func:`mmap.mmap` and every column is a zero-copy ``memoryview.cast``
into it — workers replaying shards of one trace map the same file and
share its pages instead of pickling records or re-parsing JSONL.

Per column and row group the header records a ``data`` segment (the
packed values — dictionary codes for string columns), an optional
``nulls`` segment (bitmap, bit ``i`` set when row ``i`` is None) and an
optional ``dict`` segment (the string dictionary as a JSON array, in
code order).  The header is pure JSON so ``repro-ecs dataset info`` can
describe a file without touching any segment.

Every file this module writes is the row-group layout (``RPRCOL02``):
merge, conversion and replay all run out-of-core because writers stream
groups through a bounded buffer (:class:`GroupedColumnarWriter`),
readers walk one group at a time (:class:`RowGroupReader`), and every
group carries its own group-local string dictionaries so merges can
copy whole groups verbatim.  See the layout comment above
:class:`GroupedColumnarWriter` and ``docs/datasets.md`` for the header
diagram and dictionary remap rules.  Every reader goes through the one
header parser (:func:`_read_header`), which also holds the rule for
pre-bucketed files.

Everything here is deterministic: dictionaries assign codes in first-
appearance order, the shard merge is a stable k-way merge keyed on
``(ts, shard index, row index)`` — the order of a stable ts sort of the
shards' concatenation — and no content ever depends on process or
machine identity.  A JSONL trace is a ``.col`` trace rendered
(:func:`columnar_to_jsonl`), so both formats hold that one order.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import dataclasses
import functools
import itertools
import json
import mmap
import os
import struct
import weakref
from array import array
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import (Any, BinaryIO, Callable, Dict, Iterable, Iterator, List,
                    NoReturn, Optional, Sequence, Tuple, Type, Union)

from ..auth.scan_experiment import ScanQueryRecord
from ..engine.sharding import stable_bucket
from ..obs import live as _obs_live
from ..obs import metrics as _obs_metrics
from ..obs.export import AtomicFile
from .records import (EXTEND_CHUNK_ROWS, AllNamesRecord, CdnQueryRecord,
                      JsonlFormatError, PublicCdnRecord, RootQueryRecord,
                      TraceFormatError, json_column, json_rows,
                      write_jsonl_text)

#: File magic of the row-group layout (see ``docs/datasets.md``).
MAGIC = b"RPRCOL02"
#: Header ``version``; bump on any incompatible layout change.
FORMAT_VERSION = 2
#: Segment alignment, so typed memoryview casts are always aligned.
ALIGN = 8
#: Prelude: magic (8 bytes) + u64 header offset, patched at close.
_PRELUDE = 16
#: How a reader drops a walked group's pages (None where mmap lacks it).
_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)
#: Default rows per row group for the streaming writers: large enough
#: that per-group overheads (dictionaries, header entries) amortize,
#: small enough that a buffered group stays a few MiB.
DEFAULT_ROW_GROUP_ROWS = 65536
#: JSONL lines per bulk parse (one ``json.loads`` of the lines joined
#: into an array, then one transpose per column).  Rows/s is flat from
#: 256 lines up (``docs/performance.md`` has the sweep); at this size
#: the chunk's row dicts and joined text stay under a MiB.
PARSE_CHUNK_LINES = 1024


def record_row_groups(op: str, schema: str, groups: int) -> None:
    """Count row groups written / merged / replayed (out-of-band).

    The single RS003-guarded read of the ambient metrics registry for
    the columnar layer; callers never touch ``ACTIVE`` themselves.
    """
    reg = _obs_metrics.ACTIVE
    if reg is not None:
        reg.counter("repro_columnar_row_groups_total",
                    "Columnar row groups, by operation and schema.",
                    ("op", "schema")).inc(groups, op, schema)

#: Column kind -> :mod:`array` typecode.  ``str`` columns store u32
#: dictionary codes; ``bool`` columns store u8 flags.
KIND_TYPECODES: Dict[str, str] = {
    "f8": "d",      # timestamps
    "i4": "i",      # qtype / scope / prefix lengths
    "i8": "q",      # TTLs and other wide counters
    "bool": "B",
    "str": "I",     # dictionary code
}


@dataclass(frozen=True)
class ColumnSpec:
    """One column of a record schema."""

    name: str
    kind: str
    nullable: bool = False

    @property
    def typecode(self) -> str:
        return KIND_TYPECODES[self.kind]


@dataclass(frozen=True)
class Schema:
    """A record dataclass mapped onto columns, in field order."""

    name: str
    record_type: Type[Any]
    columns: Tuple[ColumnSpec, ...]

    def __post_init__(self) -> None:
        fields = tuple(f.name for f in dataclasses.fields(self.record_type))
        names = tuple(c.name for c in self.columns)
        if fields != names:
            raise ValueError(f"schema {self.name!r} columns {names} do not "
                             f"match {self.record_type.__name__} fields "
                             f"{fields}")

    @property
    def field_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.columns)


def _c(name: str, kind: str, nullable: bool = False) -> ColumnSpec:
    return ColumnSpec(name, kind, nullable)


#: The five trace schemas, keyed by the CLI/registry dataset names.
SCHEMAS: Dict[str, Schema] = {s.name: s for s in (
    Schema("allnames", AllNamesRecord, (
        _c("ts", "f8"), _c("client_ip", "str"), _c("qname", "str"),
        _c("qtype", "i4"), _c("scope", "i4"), _c("ttl", "i8"))),
    Schema("public-cdn", PublicCdnRecord, (
        _c("ts", "f8"), _c("resolver_ip", "str"), _c("qname", "str"),
        _c("qtype", "i4"), _c("ecs_address", "str"),
        _c("ecs_source_len", "i4"), _c("scope", "i4"), _c("ttl", "i8"))),
    Schema("cdn", CdnQueryRecord, (
        _c("ts", "f8"), _c("resolver_ip", "str"), _c("qname", "str"),
        _c("qtype", "i4"), _c("has_ecs", "bool"),
        _c("ecs_address", "str", nullable=True),
        _c("ecs_source_len", "i4", nullable=True),
        _c("ecs_scope", "i4", nullable=True), _c("ttl", "i8"))),
    Schema("scan", ScanQueryRecord, (
        _c("ts", "f8"), _c("ingress_ip", "str", nullable=True),
        _c("egress_ip", "str"), _c("qname", "str"), _c("has_ecs", "bool"),
        _c("ecs_address", "str", nullable=True),
        _c("ecs_source_len", "i4", nullable=True))),
    Schema("root-trace", RootQueryRecord, (
        _c("ts", "f8"), _c("resolver_ip", "str"), _c("qname", "str"),
        _c("qtype", "i4"), _c("has_ecs", "bool"))),
)}


def schema_for(dataset: Union[str, Type[Any], Any]) -> Schema:
    """Resolve a schema from its name, record class, or a record instance."""
    if isinstance(dataset, str):
        try:
            return SCHEMAS[dataset]
        except KeyError:
            raise KeyError(f"unknown columnar schema {dataset!r}; "
                           f"known: {sorted(SCHEMAS)}") from None
    cls = dataset if isinstance(dataset, type) else type(dataset)
    for schema in SCHEMAS.values():
        if schema.record_type is cls:
            return schema
    raise KeyError(f"no columnar schema for record type {cls.__name__!r}")


def _align_pad(offset: int) -> int:
    return (-offset) % ALIGN


def _check_columns(schema: Schema, columns: Sequence[Sequence[Any]]) -> None:
    """Raise unless ``columns`` is one equal-length sequence per column."""
    if (len(columns) != len(schema.columns)
            or len(set(map(len, columns))) != 1):
        raise ValueError(f"schema {schema.name!r} takes "
                         f"{len(schema.columns)} equal-length columns")


class ColumnarWriter:
    """One row group's column buffer: append rows, then wrap.

    Appending never touches disk; :meth:`store` wraps the columns as an
    in-memory :class:`ColumnarStore` without copying, which is what
    :class:`GroupedColumnarWriter` serializes group by group.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.rows = 0
        self._arrays: Dict[str, "array[Any]"] = {
            c.name: array(c.typecode) for c in schema.columns}
        self._interns: Dict[str, Dict[str, int]] = {
            c.name: {} for c in schema.columns if c.kind == "str"}
        self._nulls: Dict[str, bytearray] = {
            c.name: bytearray() for c in schema.columns if c.nullable}
        self._getters = tuple(attrgetter(c.name) for c in schema.columns)

    def _set_null(self, column: str, row: int) -> None:
        bitmap = self._nulls[column]
        byte = row >> 3
        if byte >= len(bitmap):
            bitmap.extend(b"\x00" * (byte + 1 - len(bitmap)))
        bitmap[byte] |= 1 << (row & 7)

    def _append_columns(self, columns: Sequence[Sequence[Any]]) -> None:
        """Append rows given one equal-length value sequence per column.

        The writer's one encoding routine: str -> dictionary code in
        first-appearance order, bool -> 0/1, ``None`` -> null bit + 0.
        A column is not scanned for ``None`` up front: a numeric one is
        packed straight away and takes the null path only when packing
        fails, and a str one finds ``None`` among its distinct values,
        the set its type check reads too (a str column takes only
        ``str``; anything else raises :class:`TypeError` naming it).
        Every column is encoded into a fresh array before any of them
        is appended, and dictionary entries added on the way are popped
        again if a later value is rejected, so a failed call leaves the
        writer exactly as it was.
        """
        base = self.rows
        staged: List[Tuple[str, "array[Any]", Sequence[int]]] = []
        grown: List[Tuple[Dict[str, int], int]] = []
        try:
            for spec, values in zip(self.schema.columns, columns):
                null_rows: Sequence[int] = ()
                if spec.kind == "str":
                    try:
                        distinct: Iterable[Any] = dict.fromkeys(values)
                    except TypeError:  # an unhashable value: not a str
                        distinct = values
                    has_null = None in distinct
                elif spec.kind == "bool":
                    has_null = None in values
                else:
                    try:
                        staged.append((spec.name,
                                       array(spec.typecode, values), ()))
                        continue
                    except (TypeError, ValueError, OverflowError):
                        # A None fails the packing (TypeError), possibly
                        # after another value did: with a None, the null
                        # path decides, as when it was scanned for first.
                        if None not in values:
                            raise
                    has_null = True
                if has_null:
                    if not spec.nullable:
                        raise ValueError(
                            f"column {spec.name!r} of schema "
                            f"{self.schema.name!r} is not nullable")
                    null_rows = [base + i for i, value in enumerate(values)
                                 if value is None]
                encoded: Iterable[Any]
                if spec.kind == "str":
                    if not {str, _NULL}.issuperset(map(type, distinct)):
                        bad = next(value for value in values
                                   if type(value) not in (str, _NULL))
                        raise TypeError(
                            f"column {spec.name!r} of schema "
                            f"{self.schema.name!r} takes str, not "
                            f"{type(bad).__name__} ({bad!r})")
                    codes = self._interns[spec.name]
                    grown.append((codes, len(codes)))
                    if null_rows:
                        encoded = [0 if value is None
                                   else codes.setdefault(value, len(codes))
                                   for value in values]
                    else:
                        # Distinct values come in first-appearance order,
                        # so interning them gives each row's code.
                        for value in distinct:
                            if value not in codes:
                                codes[value] = len(codes)
                        encoded = map(codes.__getitem__, values)
                elif spec.kind == "bool":
                    encoded = map(bool, values)
                else:
                    encoded = [0 if value is None else value
                               for value in values]
                staged.append((spec.name, array(spec.typecode, encoded),
                               null_rows))
        except BaseException:
            for codes, size in grown:
                while len(codes) > size:
                    codes.popitem()
            raise
        for name, packed, null_rows in staged:
            self._arrays[name].extend(packed)
            for row in null_rows:
                self._set_null(name, row)
        self.rows = base + len(columns[0])

    def extend(self, records: Iterable[Any]) -> int:
        """Append many records; returns how many were appended.

        Records are pulled :data:`EXTEND_CHUNK_ROWS` at a time and each
        chunk is transposed and encoded a column at a time; a chunk is
        appended whole or (when a value is rejected) not at all.
        """
        before = self.rows
        stream = iter(records)
        while True:
            chunk = list(itertools.islice(stream, EXTEND_CHUNK_ROWS))
            if not chunk:
                return self.rows - before
            self._append_columns([list(map(get, chunk))
                                  for get in self._getters])

    def extend_rows(self, store: "ColumnarStore",
                    rows: Optional[Sequence[int]] = None) -> int:
        """Append every row of another store, or the selection ``rows``.

        A string is interned the first time an appended row references
        it — exactly the order appending the selected rows' values one
        row at a time would produce, so run-granular merges built on
        this stay byte-identical to the per-row reference merge.
        ``rows`` is any sequence of row indices (a shard's ts order, a
        qname bucket); when it is a ``range`` of step 1 the packed
        columns are copied as bytes.
        """
        if store.schema.name != self.schema.name:
            raise ValueError(f"cannot append rows of schema "
                             f"{store.schema.name!r} onto "
                             f"{self.schema.name!r}")
        selection = range(store.rows) if rows is None else rows
        span = isinstance(selection, range) and selection.step == 1
        if span and not 0 <= selection.start <= selection.stop <= store.rows:
            raise ValueError(f"row range [{selection.start}, "
                             f"{selection.stop}) out of range for "
                             f"{store.rows} rows")
        base = self.rows
        for spec in self.schema.columns:
            raw = store.column(spec.name)
            arr = self._arrays[spec.name]
            if spec.kind == "str" and not spec.nullable:
                dictionary = store.dictionary(spec.name)
                interned = self._interns[spec.name]
                source = (raw[selection.start:selection.stop] if span
                          else list(map(raw.__getitem__, selection)))
                cmap = dict.fromkeys(source)
                for code in cmap:
                    cmap[code] = interned.setdefault(dictionary[code],
                                                     len(interned))
                arr.extend(map(cmap.__getitem__, source))
            elif spec.kind == "str":
                dictionary = store.dictionary(spec.name)
                interned = self._interns[spec.name]
                cmap = [-1] * len(dictionary)
                null_of = store.null_checker(spec.name)
                codes: List[int] = []
                for row in selection:
                    if null_of(row):
                        codes.append(0)
                        continue
                    code = raw[row]
                    mapped = cmap[code]
                    if mapped < 0:
                        mapped = interned.setdefault(dictionary[code],
                                                     len(interned))
                        cmap[code] = mapped
                    codes.append(mapped)
                arr.extend(codes)
            elif span:
                arr.frombytes(raw[selection.start:selection.stop].tobytes())
            else:
                arr.extend(raw[row] for row in selection)
            if spec.nullable:
                null_of = store.null_checker(spec.name)
                offset = base
                for row in selection:
                    if null_of(row):
                        self._set_null(spec.name, offset)
                    offset += 1
        self.rows = base + len(selection)
        return len(selection)

    def store(self) -> "ColumnarStore":
        """Wrap the accumulated columns as an in-memory store (no copy)."""
        # Bitmaps grow lazily on _set_null; pad to full row coverage so
        # readers can index any row's bit without a bounds check.
        needed = (self.rows + 7) >> 3
        for bitmap in self._nulls.values():
            if len(bitmap) < needed:
                bitmap.extend(b"\x00" * (needed - len(bitmap)))
        return ColumnarStore(self.schema, self.rows, dict(self._arrays),
                             dict(self._nulls),
                             # Insertion order is code order.
                             {name: list(interned)
                              for name, interned in self._interns.items()})


class ColumnarStore:
    """One row group's columns: in memory, or zero-copy over a mapping.

    A store issued by :class:`RowGroupReader` exposes every column as a
    typed ``memoryview`` into the reader's one :func:`mmap.mmap`; a
    store wrapped around a :class:`ColumnarWriter` shares its arrays.
    :meth:`open` returns a whole file as one store.
    """

    def __init__(self, schema: Schema, rows: int,
                 data: Dict[str, Any], nulls: Dict[str, Any],
                 dicts: Dict[str, List[str]]) -> None:
        self.schema = schema
        self.rows = rows
        self._data = data
        self._nulls = nulls
        self._dicts = dicts
        #: Set by :meth:`open` when the store owns its reader's mapping.
        self._closer: Optional[Callable[[], None]] = None
        self._getter_cache: Optional[List[Callable[[int], Any]]] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[Any],
                     schema: Union[str, Schema]) -> "ColumnarStore":
        """Columnarize an iterable of records (streaming, single pass)."""
        resolved = schema if isinstance(schema, Schema) else schema_for(schema)
        writer = ColumnarWriter(resolved)
        writer.extend(records)
        return writer.store()

    @classmethod
    def from_column_chunks(cls, chunks: Iterable[Sequence[Sequence[Any]]],
                           schema: Union[str, Schema]) -> "ColumnarStore":
        """Columnarize a stream of column chunks, no record objects.

        Each chunk is one equal-length value sequence per column, in
        schema order (a builder's ``iter_shard_columns``); the store
        equals :meth:`from_records` over the same rows as records.
        """
        resolved = schema if isinstance(schema, Schema) else schema_for(schema)
        writer = ColumnarWriter(resolved)
        for chunk in chunks:
            _check_columns(resolved, chunk)
            writer._append_columns(chunk)
        return writer.store()

    @classmethod
    def from_jsonl_lines(cls, lines: Iterable[str],
                         schema: Union[str, Schema]) -> "ColumnarStore":
        """Columnarize JSONL lines — a file handle or a list — with no
        record objects.

        Lines are read by :func:`_jsonl_line_chunks` and parse a chunk at
        a time straight into column values; a line that is not a row of
        the schema raises :class:`~repro.datasets.records.JsonlFormatError`
        numbering it among the non-blank lines.  Strings are checked for
        lone surrogates once each, as dictionary entries, after the last
        chunk: one raises :class:`UnicodeEncodeError`, and the file-level
        entry points find its line with :func:`jsonl_file_defect`.
        """
        resolved = schema if isinstance(schema, Schema) else schema_for(schema)
        writer = ColumnarWriter(resolved)
        for chunk in _jsonl_line_chunks(lines):
            _append_jsonl(writer._append_columns, resolved, chunk,
                          writer.rows)
        store = writer.store()
        for name in writer._interns:
            "".join(store.dictionary(name)).encode("utf-8")
        return store

    @classmethod
    def open(cls, path: Union[str, Path]) -> "ColumnarStore":
        """Open an on-disk trace as one store.

        A file of one row group opens zero-copy: the store is that
        group's view and owns the mapping.  A file of several groups is
        *flattened* into one in-memory store, O(rows); no replay calls
        it (a replay keys the groups as it walks them into a
        :class:`~repro.analysis.cache_sim.KeyedTrace`), and readers that
        care about bounded memory walk the groups
        (:meth:`RowGroupReader.walk`).
        """
        with contextlib.ExitStack() as stack:
            reader = stack.enter_context(RowGroupReader(path))
            if reader.group_count == 1:
                store = reader.group(0)
                # The store now owns the reader: closing it unmaps.
                store._closer = stack.pop_all().close
                return store
            writer = ColumnarWriter(reader.schema)
            for group in reader.walk():
                writer.extend_rows(group)
            return writer.store()

    def close(self) -> None:
        """Release the underlying mapping (no-op for in-memory stores).

        Every column view is released first — an mmap cannot close while
        exported buffers exist.
        """
        self._getter_cache = None
        for view in (*self._data.values(), *self._nulls.values()):
            if isinstance(view, memoryview):
                view.release()
        if self._closer is not None:
            closer, self._closer = self._closer, None
            closer()

    def __enter__(self) -> "ColumnarStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __len__(self) -> int:
        return self.rows

    # -- serialization -----------------------------------------------------

    def _column_payloads(self) -> Iterator[Tuple[ColumnSpec, bytes,
                                                 Optional[bytes],
                                                 Optional[bytes], int]]:
        """Per column: (spec, data, nulls, dict payload, dict entries).

        The serialization order of a :class:`GroupedColumnarWriter`
        group flush: data, then null bitmap, then dictionary — per
        column, in schema order.
        """
        bitmap_bytes = (self.rows + 7) >> 3
        for spec in self.schema.columns:
            data = self._data[spec.name].tobytes()
            nulls = (bytes(self._nulls[spec.name][:bitmap_bytes])
                     if spec.nullable else None)
            dict_payload: Optional[bytes] = None
            dict_entries = 0
            if spec.kind == "str":
                dictionary = self._dicts.get(spec.name, [])
                dict_payload = json.dumps(
                    dictionary, separators=(",", ":"),
                    ensure_ascii=False).encode("utf-8")
                dict_entries = len(dictionary)
            yield spec, data, nulls, dict_payload, dict_entries

    # -- column access -----------------------------------------------------

    def column(self, name: str) -> Any:
        """The packed value sequence (dictionary codes for str columns)."""
        return self._data[name]

    def dictionary(self, name: str) -> List[str]:
        """Code -> string table of a dictionary-encoded column."""
        return self._dicts[name]

    def null_checker(self, name: str) -> Callable[[int], bool]:
        """A ``row -> is-null`` predicate (always False when not nullable)."""
        bitmap = self._nulls.get(name)
        if bitmap is None:
            return lambda row: False
        return lambda row: bool(bitmap[row >> 3] & (1 << (row & 7)))

    def _value_getter(self, spec: ColumnSpec) -> Callable[[int], Any]:
        raw = self._data[spec.name]
        if spec.kind == "str":
            dictionary = self._dicts[spec.name]
            plain: Callable[[int], Any] = lambda row: dictionary[raw[row]]
        elif spec.kind == "bool":
            plain = lambda row: bool(raw[row])
        else:
            plain = lambda row: raw[row]
        if not spec.nullable:
            return plain
        null_of = self.null_checker(spec.name)
        return lambda row: None if null_of(row) else plain(row)

    def _getters(self) -> List[Callable[[int], Any]]:
        getters = self._getter_cache
        if getters is None:
            getters = [self._value_getter(spec)
                       for spec in self.schema.columns]
            self._getter_cache = getters
        return getters

    def iter_records(self, lo: int = 0,
                     hi: Optional[int] = None) -> Iterator[Any]:
        """Stream rows ``[lo, hi)`` as record instances."""
        stop = self.rows if hi is None else hi
        getters = self._getters()
        cls = self.schema.record_type
        for row in range(lo, stop):
            yield cls(*[g(row) for g in getters])

    # -- JSONL -------------------------------------------------------------

    def jsonl_chunks(self) -> Iterator[str]:
        """Every row as JSONL text.

        Yields pieces of at most :data:`EXTEND_CHUNK_ROWS` lines, byte
        for byte what :func:`~repro.datasets.records.write_jsonl` writes
        for the same rows as records.  No record is built: each column
        of a piece is rendered once (:func:`json_column`), a str column
        through a table of its dictionary's JSON texts indexed by code,
        and null cells are patched in from the bitmap; both tables are
        made once per call.
        """
        names, columns = self.schema.field_names, self.schema.columns
        # A column of nulls only has no dictionary, and its rows hold
        # the placeholder code 0.
        tables = [json_column(self._dicts[spec.name]) or ["null"]
                  if spec.kind == "str" else None for spec in columns]
        flags = [self._null_flags(spec.name) if spec.nullable else None
                 for spec in columns]
        for start in range(0, self.rows, EXTEND_CHUNK_ROWS):
            stop = min(start + EXTEND_CHUNK_ROWS, self.rows)
            yield json_rows(names, [
                self._json_texts(spec, start, stop, table, flag)
                for spec, table, flag in zip(columns, tables, flags)])

    def _json_texts(self, spec: ColumnSpec, start: int, stop: int,
                    table: Optional[List[str]],
                    flags: Optional[str]) -> List[str]:
        """One column's JSON texts for rows ``start`` to ``stop``, given
        a str column's code -> text table and a nullable one's flags."""
        values = self._data[spec.name][start:stop].tolist()
        if table is not None:
            texts = list(map(table.__getitem__, values))
        elif spec.kind == "bool":
            texts = json_column(list(map(bool, values)))
        else:
            texts = json_column(values)
        if flags is not None:
            picked = flags[start:stop]
            at = picked.find("1")
            while at >= 0:
                texts[at] = "null"
                at = picked.find("1", at + 1)
        return texts

    def _null_flags(self, name: str) -> str:
        """One character per row of a nullable column, ``"1"`` where the
        row is null: the bitmap read LSB-first, at C level."""
        bits = format(int.from_bytes(self._nulls[name], "little"), "b")
        return bits[::-1].ljust(self.rows, "0")[:self.rows]

    # -- shard arithmetic --------------------------------------------------

    def row_buckets(self, column: str, shards: int) -> List["array[Any]"]:
        """Row indices per :func:`stable_bucket` shard of a str column,
        decided by each row's dictionary entry (:func:`bucket_rows`)."""
        return bucket_rows(self._dicts[column], self._data[column], shards)

    def bucket_sizes(self, column: str, shards: int) -> List[int]:
        """The lengths of :meth:`row_buckets`, from a count of each
        dictionary code, without listing a row."""
        names, sizes = self._dicts[column], [0] * shards
        for code, rows in collections.Counter(self._data[column]).items():
            sizes[_bucket_of(names[code], shards)] += rows
        return sizes


#: :func:`stable_bucket`, remembered for the names of the last few
#: thousand calls: each row group of a trace lists its names again.
_bucket_of = functools.lru_cache(maxsize=4096)(stable_bucket)


def bucket_rows(names: Sequence[str], codes: Sequence[int],
                shards: int) -> List["array[Any]"]:
    """Row indices per :func:`stable_bucket` shard of a name, each row
    given as its code into ``names``: the hash runs once per distinct
    name, then bucketing the rows is a table lookup per row.  A row index
    takes four bytes unless there are 2**32 rows."""
    by_name = {name: _bucket_of(name, shards)
               for name in dict.fromkeys(names)}
    by_code = list(map(by_name.__getitem__, names))
    buckets = [array("I" if len(codes) < 1 << 32 else "q")
               for _ in range(shards)]
    appends = [bucket.append for bucket in buckets]
    for row, bucket in enumerate(map(by_code.__getitem__, codes)):
        appends[bucket](row)
    return buckets


# ---------------------------------------------------------------------------
# On-disk layout
#
# Layout of a ``.col`` file (``RPRCOL02``)::
#
#     offset 0   MAGIC           b"RPRCOL02" (8 bytes)
#     offset 8   header offset   u64 LE, patched when the file closes
#     offset 16  segment area    row groups back to back, 8-byte aligned
#     ...        header          UTF-8 JSON, runs to end of file
#
# The header sits at the *tail* so a writer can stream groups through a
# bounded buffer and never seek except to patch the u64 — the format
# never asks a reader or writer to hold more than one group.  Each
# group carries its own per-column segments *including its own string
# dictionaries* (codes are group-local), so a group's bytes are
# position-independent: merges copy whole groups verbatim, and readers
# remap codes across groups on read.


class ColumnarFormatError(TraceFormatError):
    """A columnar file whose header or segment table cannot be trusted."""


@dataclass(frozen=True)
class _Header:
    """A file's checked header."""

    schema: Schema
    rows: int
    row_group_rows: Optional[int]
    #: Per group: ``{"rows", "bucket", "columns": [segment entries]}``.
    groups: List[Dict[str, Any]]
    #: Per qname bucket of a pre-bucketed file, its ``[start, end)``
    #: group range; None when the file is not pre-bucketed.
    bucket_ranges: Optional[List[Tuple[int, int]]]
    header_bytes: int


#: Bytes per packed value, by :mod:`array` typecode.
_ITEMSIZE = {code: array(code).itemsize for code in KIND_TYPECODES.values()}


def _read_header(path: Union[str, Path], fh: BinaryIO) -> _Header:
    """Parse and check the header of an open columnar file.

    The only place a header is located and decoded.  Everything a
    header can promise about its segments is checked here, so a file
    that opens can be read: every segment lies inside the segment area,
    every data segment holds exactly its group's rows, every null bitmap
    covers them, and bucket tags partition the groups.  Anything else
    raises :class:`ColumnarFormatError` naming the file (and group).
    """
    size = os.fstat(fh.fileno()).st_size
    magic = fh.read(len(MAGIC))
    if magic == b"RPRCOL01":
        raise ColumnarFormatError(
            path, "RPRCOL01, the retired single-block columnar layout, "
            "is no longer read; every trace is a function of its seed, so "
            "re-create it with `repro-ecs generate ... --format columnar`")
    if magic != MAGIC:
        raise ColumnarFormatError(path, "not a columnar trace (bad magic)")
    word = fh.read(8)
    area_end = int.from_bytes(word, "little")
    if len(word) < 8 or area_end < _PRELUDE:
        raise ColumnarFormatError(path, "truncated columnar file (header "
                                        "offset not patched)")
    if area_end > size:
        raise ColumnarFormatError(
            path, f"header offset {area_end} is past the end of the "
                  f"{size}-byte file")
    fh.seek(area_end)
    payload = fh.read()
    try:
        raw = json.loads(payload.decode("utf-8"))
    except ValueError as exc:
        raise ColumnarFormatError(path, f"header is not JSON (truncated "
                                        f"file?): {exc}") from exc
    try:
        if raw.get("version") != FORMAT_VERSION:
            raise ColumnarFormatError(
                path, f"unsupported columnar format version "
                      f"{raw.get('version')!r} (expected {FORMAT_VERSION})")
        schema = schema_for(raw["schema"])
        rows = int(raw["rows"])
        groups = raw["groups"]
        for index, group in enumerate(groups):
            _check_group(path, index, schema, group, area_end - _PRELUDE)
        if sum(int(group["rows"]) for group in groups) != rows:
            raise ColumnarFormatError(path, f"groups do not add up to the "
                                            f"header's {rows} rows")
        return _Header(schema, rows, raw.get("row_group_rows"), groups,
                       _bucket_ranges(path, raw.get("buckets"), groups),
                       len(payload))
    except ColumnarFormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ColumnarFormatError(path, f"malformed header "
                                        f"({exc!r})") from exc


def _bucket_ranges(path: Union[str, Path], buckets: Any,
                   groups: List[Dict[str, Any]]
                   ) -> Optional[List[Tuple[int, int]]]:
    """The pre-bucketing rule: None for a file without ``buckets`` (no
    group tagged), else a positive int of buckets whose groups' tags are
    ints below it that never decrease — so each bucket's groups are one
    contiguous, possibly empty ``[start, end)`` range, returned per
    bucket for row-range replay."""
    tags = [group.get("bucket") for group in groups]
    if buckets is None and tags.count(None) == len(tags):
        return None
    if type(buckets) is not int or buckets < 1:
        raise ColumnarFormatError(path, f"bucket count {buckets!r} is "
                                        f"not a positive integer")
    for index, tag in enumerate(tags):
        if type(tag) is not int or not 0 <= tag < buckets:
            raise ColumnarFormatError(
                path, f"group {index}: bucket tag {tag!r} is not an "
                      f"integer below the header's {buckets} buckets")
        if index and tag < tags[index - 1]:
            raise ColumnarFormatError(
                path, f"group {index}: bucket tag {tag} follows tag "
                      f"{tags[index - 1]}; bucket tags never decrease")
    edges = [bisect.bisect_left(tags, bucket) for bucket in range(buckets)]
    return list(zip(edges, edges[1:] + [len(tags)]))


def _check_group(path: Union[str, Path], index: int, schema: Schema,
                 group: Dict[str, Any], area: int) -> None:
    """Check group ``index``'s segment table against its row count."""
    rows = int(group["rows"])
    columns = group["columns"]
    names = tuple(col["name"] for col in columns)
    where = f"group {index}"
    if names != schema.field_names:
        raise ColumnarFormatError(path, f"{where}: columns {names} are not "
                                        f"the {schema.name!r} schema's")
    for spec, col in zip(schema.columns, columns):
        for key in ("data", "nulls", "dict"):
            if col.get(key) is not None:
                off, length = col[key]
                if off < 0 or length < 0 or off + length > area:
                    raise ColumnarFormatError(
                        path, f"{where}: {spec.name} {key} segment [{off}, "
                              f"+{length}) is outside the {area}-byte "
                              f"segment area")
        if col["data"][1] != rows * _ITEMSIZE[spec.typecode]:
            raise ColumnarFormatError(
                path, f"{where}: {spec.name} data is {col['data'][1]} "
                      f"bytes, expected {rows} rows x "
                      f"{_ITEMSIZE[spec.typecode]}")
        if spec.nullable and col["nulls"][1] < (rows + 7) >> 3:
            raise ColumnarFormatError(
                path, f"{where}: {spec.name} null bitmap is "
                      f"{col['nulls'][1]} bytes, too short for {rows} rows")
        if spec.kind == "str" and col["dict"] is None:
            raise ColumnarFormatError(path, f"{where}: {spec.name} has no "
                                            f"dictionary segment")


class GroupedColumnarWriter:
    """Stream records into a row-group file with bounded memory.

    The one class that writes ``.col`` files.  Rows buffer in an
    ordinary :class:`ColumnarWriter`; every ``row_group_rows`` rows
    (``None``: :data:`DEFAULT_ROW_GROUP_ROWS`) the buffer flushes to
    disk as one row group and resets, so peak memory is one group
    regardless of trace length.  Group dictionaries intern in
    first-appearance order *within the group* automatically, because
    each group starts from an empty buffer.

    Output is atomic: groups stream into ``<path>.tmp`` (an
    :class:`~repro.obs.export.AtomicFile`), and :meth:`close` writes
    the JSON header at the tail, patches the header-offset word and
    renames the file into place.  Use as a context manager — leaving the
    block on an exception removes the temporary file instead, so
    ``path`` is either absent (or whatever it was before) or complete.
    """

    def __init__(self, schema: Union[str, Schema], path: Union[str, Path],
                 row_group_rows: Optional[int] = None,
                 buckets: Optional[int] = None) -> None:
        if row_group_rows is None:
            row_group_rows = DEFAULT_ROW_GROUP_ROWS
        if row_group_rows < 1:
            raise ValueError("row_group_rows must be >= 1")
        self.schema = schema if isinstance(schema, Schema) \
            else schema_for(schema)
        self.path = Path(path)
        self.row_group_rows = row_group_rows
        self.rows = 0
        self._buckets = buckets
        self._bucket: Optional[int] = None
        self._groups: List[Dict[str, Any]] = []
        self._offset = 0
        self._buffer = ColumnarWriter(self.schema)
        self._out = AtomicFile(self.path, "wb")
        self._fh: Optional[BinaryIO] = self._out.file
        self._fh.write(MAGIC)
        self._fh.write(struct.pack("<Q", 0))

    # -- appending ---------------------------------------------------------

    @property
    def pending_rows(self) -> int:
        """Rows buffered but not yet flushed as a group."""
        return self._buffer.rows

    def extend(self, records: Iterable[Any]) -> int:
        """Append a record stream; returns how many were appended."""
        before = self.rows + self._buffer.rows
        stream = iter(records)
        while True:
            room = self.row_group_rows - self._buffer.rows
            chunk = list(itertools.islice(
                stream, min(room, EXTEND_CHUNK_ROWS)))
            if not chunk:
                return self.rows + self._buffer.rows - before
            self._buffer.extend(chunk)
            if self._buffer.rows >= self.row_group_rows:
                self._flush_group()

    def extend_columns(self, columns: Sequence[Sequence[Any]]) -> int:
        """Append rows given one equal-length value sequence per column,
        in schema order; returns how many were appended.

        The column-wise twin of :meth:`extend`: the rows split at group
        edges, so groups hold exactly ``row_group_rows`` rows however
        the caller chunks its input and the bytes written are those of
        ``extend`` over the same rows as records.
        """
        _check_columns(self.schema, columns)
        total = len(columns[0])
        start = 0
        while start < total:
            take = min(self.row_group_rows - self._buffer.rows,
                       total - start)
            self._buffer._append_columns(
                columns if take == total else
                [values[start:start + take] for values in columns])
            start += take
            if self._buffer.rows >= self.row_group_rows:
                self._flush_group()
        return total

    def extend_store(self, store: ColumnarStore, lo: int = 0,
                     hi: Optional[int] = None,
                     rows: Optional[Sequence[int]] = None) -> int:
        """Append a row range (or row selection) of another store.

        Chunks through the group buffer so group boundaries land exactly
        on ``row_group_rows`` regardless of incoming run sizes; string
        codes re-intern per group in first-appearance order (see
        :meth:`ColumnarWriter.extend_rows`).
        """
        selection: Sequence[int] = (
            range(lo, store.rows if hi is None else hi) if rows is None
            else rows)
        pos, total = 0, len(selection)
        while pos < total:
            take = min(self.row_group_rows - self._buffer.rows, total - pos)
            self._buffer.extend_rows(store, rows=selection[pos:pos + take])
            pos += take
            if self._buffer.rows >= self.row_group_rows:
                self._flush_group()
        return total

    def set_bucket(self, bucket: Optional[int]) -> None:
        """Tag subsequent groups with a qname-bucket index.

        Flushes the pending group first, so no group ever spans two
        buckets — the invariant row-range replay depends on.
        """
        if self._buffer.rows:
            self._flush_group()
        self._bucket = bucket

    # -- group emission ----------------------------------------------------

    def _add_segment(self, payload: bytes) -> Tuple[int, int]:
        assert self._fh is not None
        pad = _align_pad(self._offset)
        if pad:
            self._fh.write(b"\x00" * pad)
            self._offset += pad
        start = self._offset
        self._fh.write(payload)
        self._offset += len(payload)
        return (start, len(payload))

    def _add_group(self, rows: int, payloads: Iterable[
            Tuple[ColumnSpec, bytes, Optional[bytes], Optional[bytes], int]]
            ) -> None:
        """Write one group's segments and record its header entry."""
        columns: List[Dict[str, Any]] = []
        for spec, data, nulls, dict_payload, entries in payloads:
            entry: Dict[str, Any] = {
                "name": spec.name, "kind": spec.kind,
                "typecode": spec.typecode,
                "data": self._add_segment(data),
                "nulls": None, "dict": None}
            if nulls is not None:
                entry["nulls"] = self._add_segment(nulls)
            if dict_payload is not None:
                entry["dict"] = self._add_segment(dict_payload)
                entry["dict_entries"] = entries
            columns.append(entry)
        self._groups.append({"rows": rows, "bucket": self._bucket,
                             "columns": columns})
        self.rows += rows
        record_row_groups("written", self.schema.name, 1)

    def _flush_group(self) -> None:
        if self._buffer.rows == 0:
            return
        store = self._buffer.store()
        self._add_group(store.rows, store._column_payloads())
        self._buffer = ColumnarWriter(self.schema)

    def flush(self) -> None:
        """Force the buffered rows out as a (possibly short) group."""
        self._flush_group()

    def copy_group(self, reader: "RowGroupReader", group_index: int) -> int:
        """Append one of ``reader``'s groups by verbatim segment copy.

        The non-overlapping fast path of the k-way merge: a group's
        dictionaries are group-local, so its segment bytes are
        position-independent and re-encoding them row by row would
        reproduce exactly these bytes.  Flushes any pending buffered
        rows first (as their own group).
        """
        if reader.schema.name != self.schema.name:
            raise ValueError(f"cannot copy a {reader.schema.name!r} group "
                             f"into a {self.schema.name!r} file")
        if self._buffer.rows:
            self._flush_group()

        def copied(segment: Optional[Sequence[int]]) -> Optional[bytes]:
            return None if segment is None else reader.segment_bytes(segment)

        entry = reader.group_entry(group_index)
        rows = int(entry["rows"])
        self._add_group(rows, (
            (spec, reader.segment_bytes(col["data"]),
             copied(col.get("nulls")), copied(col.get("dict")),
             col.get("dict_entries", 0))
            for spec, col in zip(self.schema.columns, entry["columns"])))
        return rows

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> int:
        """Flush, write the tail header, patch the offset and move the
        finished file to ``path``; returns rows."""
        if self._fh is None:
            return self.rows
        self._flush_group()
        header: Dict[str, Any] = {
            "version": FORMAT_VERSION, "schema": self.schema.name,
            "rows": self.rows, "row_group_rows": self.row_group_rows,
            "groups": self._groups}
        if self._buckets is not None:
            header["buckets"] = self._buckets
        payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
        header_offset = _PRELUDE + self._offset
        self._fh.write(payload)
        self._fh.seek(8)
        self._fh.write(struct.pack("<Q", header_offset))
        self._fh = None
        self._out.commit()
        return self.rows

    def _abort(self) -> None:
        """Drop an unfinished file; a no-op once :meth:`close` succeeded."""
        self._fh = None
        self._out.discard()

    def __enter__(self) -> "GroupedColumnarWriter":
        return self

    def __exit__(self, exc_type: Any, *exc: Any) -> None:
        try:
            if exc_type is None:
                self.close()
        finally:
            self._abort()


class RowGroupReader:
    """Row-group view of a columnar file.

    The file maps once and each row group is exposed as a zero-copy
    :class:`ColumnarStore` over its own segments, so streaming consumers
    (merge, conversion, replay) hold one group at a time; :meth:`walk`
    and the shard merge also drop each group's pages once done.
    Group stores are built on demand and not memoized — sequential
    scans drop each group's decoded dictionaries as they go, which is
    what keeps reader memory bounded.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._issued: "weakref.WeakSet[ColumnarStore]" = weakref.WeakSet()
        with open(self.path, "rb") as fh:
            header = _read_header(self.path, fh)
            self._mapping: Optional[mmap.mmap] = mmap.mmap(
                fh.fileno(), 0, access=mmap.ACCESS_READ)
        self._buf: Optional[memoryview] = memoryview(self._mapping)
        self._header = header
        self.schema = header.schema
        self.rows = header.rows
        self.row_group_rows = header.row_group_rows

    # -- group access ------------------------------------------------------

    @property
    def group_count(self) -> int:
        return len(self._header.groups)

    def group_rows(self, index: int) -> int:
        return int(self._header.groups[index]["rows"])

    def group_entry(self, index: int) -> Dict[str, Any]:
        """The raw header entry of one group (segment offsets included)."""
        return self._header.groups[index]

    def _segment(self, segment: Sequence[int]) -> memoryview:
        assert self._buf is not None
        start = _PRELUDE + segment[0]
        return self._buf[start:start + segment[1]]

    def segment_bytes(self, segment: Sequence[int]) -> bytes:
        """One segment's payload bytes (copied; bounded by group size)."""
        return bytes(self._segment(segment))

    def group(self, index: int) -> ColumnarStore:
        """Row group ``index`` as a zero-copy store over its segments."""
        entry = self._header.groups[index]
        columns = list(zip(self.schema.columns, entry["columns"]))
        # Dictionaries first: a rejected one must not leave column views
        # exported from the mapping.
        dicts: Dict[str, List[str]] = {}
        for spec, col in columns:
            if col.get("dict") is not None:
                try:
                    words = json.loads(
                        self.segment_bytes(col["dict"]).decode("utf-8"))
                    if type(words) is not list:
                        raise ValueError(f"a {type(words).__name__}")
                except ValueError as exc:
                    raise ColumnarFormatError(
                        self.path, f"group {index}: {spec.name} dictionary "
                                   f"is not a JSON array: {exc}") from exc
                if not {str}.issuperset(map(type, words)):
                    code, word = next((code, word) for code, word
                                      in enumerate(words)
                                      if type(word) is not str)
                    raise ColumnarFormatError(
                        self.path, f"group {index}: {spec.name} dictionary "
                                   f"entry {code} is "
                                   f"{_JSON_WORDS[type(word)]}, not a string")
                dicts[spec.name] = words
        data = {spec.name: self._segment(col["data"]).cast(spec.typecode)
                for spec, col in columns}
        nulls = {spec.name: self._segment(col["nulls"])
                 for spec, col in columns if col.get("nulls") is not None}
        store = ColumnarStore(self.schema, int(entry["rows"]), data, nulls,
                              dicts)
        try:
            for spec in self.schema.columns:
                if spec.kind == "str":
                    self._check_codes(index, store, spec.name)
        except ColumnarFormatError:
            store.close()
            raise
        self._issued.add(store)
        return store

    def _check_codes(self, index: int, store: ColumnarStore,
                     name: str) -> None:
        """Raise unless every non-null cell of a str column holds a code
        inside its group's dictionary; a null cell holds a placeholder
        0 that may not (an all-null column has an empty dictionary)."""
        codes = store.column(name)
        size = len(store.dictionary(name))
        if not codes or max(codes) < size:
            return
        null_of = store.null_checker(name)
        for row, code in enumerate(codes):
            if code >= size and not null_of(row):
                raise ColumnarFormatError(
                    self.path, f"group {index}: {name} row {row} holds "
                               f"dictionary code {code}, past its "
                               f"{size}-entry dictionary")

    def walk(self, start: int = 0,
             stop: Optional[int] = None) -> Iterator[ColumnarStore]:
        """Groups ``start`` to ``stop`` (default: the last) in file order,
        one resident at a time: each store is closed, and the mapped
        pages up to its end released, before the next group is read."""
        for index in range(start, self.group_count if stop is None
                           else stop):
            store = self.group(index)
            try:
                yield store
            finally:
                store.close()
                self._release(index)

    def _release(self, index: int) -> None:
        """Drop the whole mapped pages up to the end of group ``index``
        from the process's resident set (``MADV_DONTNEED``: the OS keeps
        them cached, and a later read maps them back in).  From the start
        of the file, since a fault also maps the faulting page's
        neighbours, pages of groups released before among them.  The end
        rounds down to a page: the kernel rounds a length up, which would
        also drop the page where the next group starts."""
        if self._mapping is None or _DONTNEED is None:
            return
        end = _PRELUDE + max(
            offset + length for col in self._header.groups[index]["columns"]
            for offset, length in (col["data"], col.get("nulls") or (0, 0),
                                   col.get("dict") or (0, 0)))
        end -= end % mmap.PAGESIZE
        if end:
            self._mapping.madvise(_DONTNEED, 0, end)

    def __iter__(self) -> Iterator[ColumnarStore]:
        """Every group, as :meth:`walk` yields them."""
        return self.walk()

    def iter_records(self) -> Iterator[Any]:
        """Stream every row as a record, one group resident at a time."""
        for store in self.walk():
            yield from store.iter_records()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release every issued group view and the file mapping."""
        for store in list(self._issued):
            store.close()
        if self._buf is not None:
            self._buf.release()
            self._buf = None
        if self._mapping is not None:
            self._mapping.close()
            self._mapping = None

    def __enter__(self) -> "RowGroupReader":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# File-level helpers


def trace_format(path: Union[str, Path]) -> str:
    """``"columnar"`` when ``path`` starts like a ``.col`` file (the
    retired layout's magic too, so its reader refuses it by name), else
    ``"jsonl"`` — an empty file is a zero-row JSONL trace.  The one
    place an input is opened to be identified: one that does not open
    (missing, a directory, unreadable) raises :class:`TraceFormatError`
    with its ``strerror``."""
    try:
        with open(path, "rb") as fh:
            magic = fh.read(6)
    except OSError as exc:
        raise TraceFormatError(path, exc.strerror
                               or type(exc).__name__) from None
    return "columnar" if magic == MAGIC[:6] else "jsonl"


@contextlib.contextmanager
def trace_input(task: str, path: Union[str, Path],
                schema: Union[str, Schema, None] = None) -> Iterator[str]:
    """Read the trace ``path`` in the block, which gets its
    :func:`trace_format`: the one place a rejected input is decided.

    A :class:`TraceFormatError` out of the block (from the format probe,
    a reader, a pool worker) — or, from JSONL, a :class:`UnicodeError`,
    which :func:`jsonl_file_defect` numbers against ``schema`` — is
    re-raised :meth:`~TraceFormatError.located` at ``path`` as given,
    after one ``file_rejected`` beat (``task``, the path, the error)
    when the live plane is on.  An error a nested block already
    reported passes through unchanged.
    """
    fmt = None
    try:
        fmt = trace_format(path)
        yield fmt
        return
    except TraceFormatError as exc:
        if exc.reported:
            raise
        error = exc.located(path)
    except UnicodeError:
        found = jsonl_file_defect(path, schema) if fmt == "jsonl" else None
        if found is None:
            raise
        error = found
    error.reported = True
    emitter = _obs_live.ACTIVE
    if emitter is not None:
        emitter.beat("file_rejected", task, path=error.path,
                      reason=str(error))
    raise error from None


def file_info(path: Union[str, Path]) -> Dict[str, Any]:
    """Describe a columnar file from its header alone (no segment reads).

    Per-column byte totals are aggregated across row groups.
    """
    target = Path(path)
    with open(target, "rb") as fh:
        header = _read_header(target, fh)
    columns = [{"name": spec.name, "kind": spec.kind,
                "typecode": spec.typecode, "data_bytes": 0, "null_bytes": 0,
                "dict_bytes": 0, "dict_entries": 0}
               for spec in header.schema.columns]
    for group in header.groups:
        for agg, entry in zip(columns, group["columns"]):
            agg["data_bytes"] += entry["data"][1]
            if entry.get("nulls"):
                agg["null_bytes"] += entry["nulls"][1]
            if entry.get("dict"):
                agg["dict_bytes"] += entry["dict"][1]
                agg["dict_entries"] += entry.get("dict_entries", 0)
    file_bytes = target.stat().st_size
    ranges = header.bucket_ranges
    return {"path": str(target), "version": FORMAT_VERSION,
            "schema": header.schema.name, "rows": header.rows,
            "header_bytes": header.header_bytes, "file_bytes": file_bytes,
            "bytes_per_row": file_bytes / header.rows if header.rows else 0.0,
            "columns": columns, "row_groups": len(header.groups),
            "row_group_rows": header.row_group_rows,
            "buckets": None if ranges is None else len(ranges)}


def _check_schema(path: Union[str, Path], found: Schema,
                  wanted: Union[str, Schema, None]) -> None:
    """Raise :class:`TraceFormatError` if a file's header names another
    schema than the ``wanted`` one (``None``: any schema will do)."""
    name = wanted.name if isinstance(wanted, Schema) else wanted
    if name is not None and found.name != name:
        raise TraceFormatError(path, f"holds {found.name} rows, not {name}")


def bucketed_group_ranges(path: Union[str, Path],
                          schema: Union[str, Schema, None] = None
                          ) -> Optional[List[Tuple[int, int]]]:
    """Per-bucket group ranges of a pre-bucketed file, header-only.

    ``None`` for files without bucket tags — the replay parent uses that
    to fall back to the flat bucketing path.  Reads only the header,
    never a segment, so the parent's dispatch decision is O(header)
    regardless of trace size; a header naming another schema than
    ``schema`` raises :class:`TraceFormatError`.
    """
    with open(path, "rb") as fh:
        header = _read_header(path, fh)
    _check_schema(path, header.schema, schema)
    return header.bucket_ranges


def write_columnar_stream(records: Iterable[Any], path: Union[str, Path],
                          schema: Union[str, Schema],
                          row_group_rows: Optional[int] = None) -> int:
    """Stream an already-ordered record iterable into a columnar file.

    Bounded memory: at most ``row_group_rows`` records' worth of columns
    buffer at once.  The stream's order is preserved; nothing here
    sorts.
    """
    with GroupedColumnarWriter(schema, path, row_group_rows) as writer:
        writer.extend(records)
    return writer.rows


# ---------------------------------------------------------------------------
# JSONL lines -> columns
#
# The schema is the contract for JSONL as it is for ``.col`` files: a
# line is a row when it is one JSON object holding exactly the schema's
# fields, each of its column's JSON type and range, ``null`` only where
# the column is nullable (the table is in ``docs/datasets.md``).
# :func:`_line_defect` states that rule a line at a time, readably;
# :func:`_jsonl_columns` enforces the same rule a chunk at a time, fast.

_NULL = type(None)
#: What a JSON value decodes to, per column kind.  ``bool`` is not an
#: integer here although Python says so, and an integer is a valid f8.
_JSON_TYPES: Dict[str, frozenset] = {
    "f8": frozenset((float, int)), "i4": frozenset((int,)),
    "i8": frozenset((int,)), "bool": frozenset((bool,)),
    "str": frozenset((str,))}
#: How error messages name a column kind and a decoded JSON value.
_KIND_WORDS = {"f8": "a number", "i4": "a 32-bit integer",
               "i8": "a 64-bit integer", "bool": "a boolean",
               "str": "a string"}
_JSON_WORDS = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", float: "a float", bool: "a boolean",
               _NULL: "null"}
#: What a chunk that holds a non-row makes the bulk path raise.
_REJECTIONS = (ValueError, TypeError, KeyError, OverflowError,
               RecursionError)


def _jsonl_columns(schema: Schema, lines: Sequence[str]) -> List[List[Any]]:
    """One value list per column from stripped, non-blank JSONL lines.

    The hot path: one C-level parse of the lines joined into a JSON
    array, one C-level ``map`` per column to transpose, one to check
    types; ranges and nulls are left to the writer's encoding routine.
    Any exception means some line is not a row — :func:`_line_defect`
    says which and why.

    A chunk passes only if every line, parsed alone, is one object of
    the schema.  The joiner makes that so: a raw newline may not appear
    inside a JSON string, so a line cannot end mid-string and swallow
    its successor; every line after the first starts with ``{`` (the
    count below), which after a comma can only open an array element;
    and a row cannot hold the array such an element would sit in,
    because every field is type-checked as a scalar.  So all ``n - 1``
    joins separate top-level values, and ``n`` values in all leaves no
    line holding two.
    """
    text = "[" + ",\n".join(lines) + "]"
    rows = json.loads(text)
    if len(rows) != len(lines) or text.count("\n{") != len(lines) - 1:
        raise ValueError("lines and JSON objects do not pair up")
    if set(map(len, rows)) != {len(schema.columns)}:
        raise ValueError("a row has too many or too few fields")
    columns: List[List[Any]] = []
    for spec in schema.columns:
        values = list(map(itemgetter(spec.name), rows))
        allowed = _JSON_TYPES[spec.kind]
        if spec.nullable:
            allowed = allowed | {_NULL}
        if not allowed.issuperset(map(type, values)):
            raise TypeError(f"column {spec.name!r} holds a value that is "
                            f"not {_KIND_WORDS[spec.kind]}")
        columns.append(values)
    return columns


def _line_defect(schema: Schema, line: str) -> Optional[str]:
    """Why ``line`` is not a row of ``schema``; None when it is one."""
    try:
        row = json.loads(line)
    except RecursionError:
        return "invalid JSON (nested too deeply)"
    except json.JSONDecodeError as exc:
        if exc.msg == "Extra data":
            return (f"more than one JSON value on the line (the second "
                    f"starts at column {exc.colno})")
        return f"invalid JSON ({exc.msg}: column {exc.colno})"
    if type(row) is not dict:
        return f"not a JSON object but {_JSON_WORDS[type(row)]}"
    names = schema.field_names
    for name in names:
        if name not in row:
            return f"missing field {name!r}"
    for name in row:
        if name not in names:
            return (f"unknown field {name!r}; the {schema.name!r} schema "
                    f"has {', '.join(names)}")
    for spec in schema.columns:
        value = row[spec.name]
        if value is None:
            if not spec.nullable:
                return (f"field {spec.name!r} is null and the column is "
                        f"not nullable")
        elif type(value) not in _JSON_TYPES[spec.kind]:
            return (f"field {spec.name!r} is {_JSON_WORDS[type(value)]}, "
                    f"expected {_KIND_WORDS[spec.kind]}")
        elif spec.kind == "str":
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                return f"field {spec.name!r} holds a lone surrogate"
        else:
            try:
                array(spec.typecode, (value,))
            except OverflowError:
                return (f"field {spec.name!r} is out of range for "
                        f"{_KIND_WORDS[spec.kind]}")
    return None


def _reject(schema: Schema, lines: Sequence[str], base: int,
            exc: BaseException) -> NoReturn:
    """Raise for the first of ``lines`` that is not a row, numbered from
    ``base`` lines before it; re-raise ``exc`` when every line is one."""
    for number, line in enumerate(lines, base + 1):
        reason = _line_defect(schema, line)
        if reason is not None:
            raise JsonlFormatError(None, number, reason, line) from exc
    raise exc


def _append_jsonl(append: Callable[[List[List[Any]]], Any], schema: Schema,
                  lines: Sequence[str], base: int) -> None:
    """Parse one chunk of lines and hand its columns to ``append``.

    The one JSONL-to-columns step, behind both the replay lane and
    ``convert``.  When the chunk is rejected — by the parse or by the
    writer's encoder — it is re-read line by line and the first
    defective line raises, numbered from ``base`` lines before it.
    """
    try:
        append(_jsonl_columns(schema, lines))
    except _REJECTIONS as exc:
        _reject(schema, lines, base, exc)


def _jsonl_line_chunks(lines: Iterable[str]) -> Iterator[List[str]]:
    """The one way JSONL lines are read: stripped (``str.strip``), blank
    ones skipped, :data:`PARSE_CHUNK_LINES` at a time.

    ``lines`` is a text-mode file (so lines end at ``\\n``, ``\\r\\n``
    or a lone ``\\r``) or lines already split.
    """
    stripped = filter(None, map(str.strip, lines))
    while True:
        chunk = list(itertools.islice(stripped, PARSE_CHUNK_LINES))
        if not chunk:
            return
        yield chunk


def jsonl_file_defect(path: Union[str, Path],
                      schema: Union[str, Schema, None] = None
                      ) -> Optional[JsonlFormatError]:
    """The first line of ``path`` that is not a row of ``schema`` (with
    no schema, the first that is not UTF-8).

    The failure path of the file-level entry points when reading or
    encoding raised a :class:`UnicodeError`: one scan of the file, a
    line at a time, for a line that is not UTF-8 (``byte`` counts from
    1 within the line) or that breaks the schema's rule — a lone
    surrogate included.  None when every line is a row.  Bytes that are
    not UTF-8 read as escapes (``surrogateescape``), so lines split
    where the readers split them: at ``\\n``, ``\\r\\n`` and a lone
    ``\\r``.
    """
    resolved = schema_for(schema) if isinstance(schema, str) else schema
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for number, text in enumerate(fh, 1):
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = len(text[:exc.start].encode("utf-8")) + 1
                raw = text.encode("utf-8", "surrogateescape")
                return JsonlFormatError(
                    str(path), number, f"not UTF-8 at byte {byte}",
                    raw.decode("utf-8", "replace").strip())
            line = text.strip()
            reason = _line_defect(resolved, line) \
                if line and resolved is not None else None
            if reason is not None:
                return JsonlFormatError(str(path), number, reason, line)
    return None


def columnar_to_jsonl(src: Union[str, Path], dst: Union[str, Path],
                      schema: Union[str, Schema, None] = None) -> int:
    """Convert a columnar trace back to JSONL, a group at a time.

    Round-trips byte-identically with :func:`convert_columnar` for any
    trace the JSONL writers produced: values decode to the exact Python
    objects the records held, and each group's columns are rendered as
    the row encoder renders them (:meth:`ColumnarStore.jsonl_chunks`),
    no record built.  One group and one piece of text are held at a
    time, so memory stays bounded.  A ``src`` whose header names another
    schema than ``schema`` raises :class:`TraceFormatError`, and nothing
    is written.
    """
    with RowGroupReader(src) as reader:
        _check_schema(src, reader.schema, schema)

        def texts() -> Iterator[str]:
            for store in reader.walk():
                yield from store.jsonl_chunks()

        return write_jsonl_text(texts(), dst)


def convert_columnar(src: Union[str, Path], dst: Union[str, Path],
                     schema: Union[str, Schema, None] = None,
                     row_group_rows: Optional[int] = None,
                     buckets: Optional[int] = None) -> int:
    """Write the trace ``src`` as a columnar file; returns its rows.

    A ``.col`` source is read a group at a time (it names its own
    schema); a JSONL one :data:`PARSE_CHUNK_LINES` lines at a time,
    parsed straight into column values of ``schema``.  The output's
    groups of ``row_group_rows`` re-intern their strings in
    first-appearance order, so its bytes depend only on the rows and the
    group size: JSONL -> columnar -> JSONL round-trips byte-identically.

    ``buckets`` pre-buckets the output for row-range replay with that
    many shards: rows go in :func:`stable_bucket` order of their qname,
    each group in one bucket, the count in the header; within a bucket
    rows keep their order, so replay equals the flat path's.  Rows pass
    through one spill file per bucket beside ``dst`` (peak memory:
    ``buckets`` groups, one more from JSONL).  However it ends, no spill
    file is left, and ``dst`` is the finished trace or as it was; a
    rejected input, a ``.col`` of another schema than ``schema`` among
    them, raises :class:`TraceFormatError` (:func:`trace_input`).
    """
    resolved = schema_for(schema) if isinstance(schema, str) else schema
    if buckets is not None and buckets < 1:
        raise ValueError("buckets must be >= 1")
    target = Path(dst)
    spills = [target.with_name(f"{target.name}.bucket{b:02d}")
              for b in range(buckets or 0)]
    task = "convert" if resolved is None else f"convert:{resolved.name}"
    try:
        with trace_input(task, src, resolved) as fmt, \
                contextlib.ExitStack() as stack:
            if fmt == "columnar":
                reader = stack.enter_context(RowGroupReader(src))
                _check_schema(src, reader.schema, resolved)
                resolved = reader.schema
            else:
                lines = stack.enter_context(open(src, "r", encoding="utf-8"))
            outs = [stack.enter_context(
                GroupedColumnarWriter(resolved, path, row_group_rows))
                for path in spills or [target]]
            if fmt == "columnar":
                stores: Iterable[ColumnarStore] = reader.walk()
            elif spills:
                stores = _jsonl_groups(lines, resolved,
                                       outs[0].row_group_rows)
            else:  # the writer takes each parsed chunk as it comes
                stores, base = (), 0
                for chunk in _jsonl_line_chunks(lines):
                    _append_jsonl(outs[0].extend_columns, resolved, chunk,
                                  base)
                    base += len(chunk)
            for store in stores:
                _route(outs, store)
        if not spills:
            return outs[0].rows
        with GroupedColumnarWriter(resolved, target, row_group_rows,
                                   buckets=buckets) as final:
            for bucket, path in enumerate(spills):
                final.set_bucket(bucket)
                with RowGroupReader(path) as spill:
                    for index in range(spill.group_count):
                        final.copy_group(spill, index)
        return final.rows
    finally:
        for path in spills:
            path.unlink(missing_ok=True)


def _jsonl_groups(lines: Iterable[str], schema: Schema,
                  rows: int) -> Iterator[ColumnarStore]:
    """JSONL ``lines``, parsed a chunk at a time, as stores of at least
    ``rows`` rows (the last may hold fewer): bucketing routes a JSONL
    source a group at a time, as it routes a ``.col`` source.  A unit's
    distinct qnames are hashed once each, so smaller units hash more:
    on 1.1M allnames rows, routing each parsed chunk took 10.4 s and
    16,384-row units 8.4-10.2 s, against 7.2-8.1 s for whole groups,
    which hold one more group's dictionaries (+9 MiB peak RSS)."""
    buffer, base = ColumnarWriter(schema), 0
    for chunk in _jsonl_line_chunks(lines):
        _append_jsonl(buffer._append_columns, schema, chunk, base)
        base += len(chunk)
        if buffer.rows >= rows:
            yield buffer.store()
            buffer = ColumnarWriter(schema)
    if buffer.rows:
        yield buffer.store()


def _route(outs: Sequence[GroupedColumnarWriter],
           store: ColumnarStore) -> None:
    """Append ``store``'s rows to ``outs``: all to the one output, or
    each to the output of its qname bucket."""
    if len(outs) == 1:
        outs[0].extend_store(store)
        return
    for out, rows in zip(outs, store.row_buckets("qname", len(outs))):
        if rows:
            out.extend_store(store, rows=rows)


def _stable_ts_order(store: ColumnarStore) -> List[int]:
    """Row indices of ``store`` in ts order, ties in row order: the order
    of a generated shard, and the merge's on a window."""
    return sorted(range(store.rows), key=store.column("ts").__getitem__)


def merge_columnar_shards(paths: Sequence[Union[str, Path]],
                          out_path: Union[str, Path],
                          row_group_rows: Optional[int] = None) -> int:
    """Order-stable k-way merge of ts-sorted columnar shard files.

    Rows merge by ``(ts, shard index, row index)`` — ties break toward
    the earlier shard, a stable sort of the shards' concatenation — and
    the bytes equal the per-row reference merge kept next to its
    test in ``tests/test_columnar.py``.  One group per shard is held:
    a group's mapped pages are released (:meth:`RowGroupReader._release`)
    when the merge moves past it.  Rows move in two kinds of step:

    * a *run*: the head shard's rows that sort before every other
      shard's head, found by bisecting its ts column, go by range.
      Shards whose ts ranges do not overlap (allnames: time windows)
      merge this way, a whole group at a time;
    * a *window*, when the run stops inside its group: from every
      shard, the rows whose ``(ts, shard)`` key sorts at or before a
      bound are concatenated in shard order and put in merged order by
      one stable ts sort, then appended in one call.  The bound is the
      smallest key among each shard's group end and its row
      ``row_group_rows // active shards`` ahead, so a window holds about
      one output group.  Shards that cover one clock (every public-cdn
      shard is a resolver range over the whole time range) merge this
      way: one sort per window, not one append per row.

    In either step a source group whose rows are contiguous in the
    merged order, met while no output row is pending, is copied verbatim
    (its dictionaries are group-local, so re-encoding would give the same
    segments and only cost time).  A group that may be one is never cut
    by a window: the window stops before it and a run takes it.

    Mixed schemas raise.  The output is written with bounded memory in
    groups of at most ``row_group_rows`` rows (copied groups keep their
    source size) and is absent if the merge raises.  Returns the number
    of rows written.
    """
    with contextlib.ExitStack() as stack:
        readers = [stack.enter_context(RowGroupReader(p)) for p in paths]
        schemas = {reader.schema.name for reader in readers}
        if len(schemas) > 1:
            raise ValueError(f"cannot merge mixed schemas: "
                             f"{sorted(schemas)}")
        schema = readers[0].schema
        out = stack.enter_context(
            GroupedColumnarWriter(schema, out_path, row_group_rows))
        # Per shard: its current group's index, store and ts column, and
        # the first row of that group not yet written.
        group_of = [-1] * len(readers)
        stores: List[Any] = [None] * len(readers)
        ts_of: List[Any] = [None] * len(readers)
        pos = [0] * len(readers)
        merged_groups = 0

        def advance(shard: int) -> bool:
            """Move to the shard's next non-empty group; False at its end."""
            nonlocal merged_groups
            if stores[shard] is not None:
                stores[shard].close()
                readers[shard]._release(group_of[shard])
                merged_groups += 1
            reader = readers[shard]
            while group_of[shard] + 1 < reader.group_count:
                group_of[shard] += 1
                if reader.group_rows(group_of[shard]):
                    stores[shard] = reader.group(group_of[shard])
                    ts_of[shard] = stores[shard].column("ts")
                    pos[shard] = 0
                    return True
            stores[shard] = None
            return False

        def key(shard: int, row: int) -> Tuple[float, int]:
            return (ts_of[shard][row], shard)

        def end_at(shard: int, bound: Tuple[float, int]) -> int:
            """End of the shard's rows, from its position, whose key sorts
            at or before ``bound``."""
            cut = bisect.bisect_right if shard <= bound[1] \
                else bisect.bisect_left
            return cut(ts_of[shard], bound[0], pos[shard], stores[shard].rows)

        def window(active: List[int]) -> None:
            step = out.row_group_rows // len(active)
            bound = min(key(shard, min(pos[shard] + step,
                                       stores[shard].rows - 1))
                        for shard in active)
            batch = ColumnarWriter(schema)
            spans = []
            for shard in active:
                end = end_at(shard, bound)
                spans.append((shard, batch.rows, end - pos[shard]))
                batch.extend_rows(stores[shard], rows=range(pos[shard], end))
            rows = batch.store()
            order = _stable_ts_order(rows)
            stop, copies = len(order), []
            for shard, start, taken in spans:
                if taken and pos[shard] == 0:
                    first = order.index(start)
                    if taken == stores[shard].rows:
                        if order[first + taken - 1] == start + taken - 1:
                            copies.append((first, shard))
                    elif first + taken == len(order):
                        # The group's head ends the window: it may be
                        # contiguous, so a run decides it whole.
                        stop, taken = first, 0
                pos[shard] += taken
            done = 0
            for first, shard in sorted(copies):
                out.extend_store(rows, rows=order[done:first])
                done = first
                if out.pending_rows == 0:
                    out.copy_group(readers[shard], group_of[shard])
                    done += stores[shard].rows
            out.extend_store(rows, rows=order[done:stop])

        active = [shard for shard in range(len(readers)) if advance(shard)]
        while active:
            head = min(active, key=lambda shard: key(shard, pos[shard]))
            rows = stores[head].rows
            others = [key(shard, pos[shard])
                      for shard in active if shard != head]
            end = end_at(head, min(others)) if others else rows
            if pos[head] == 0 and end == rows and out.pending_rows == 0:
                out.copy_group(readers[head], group_of[head])
            else:
                out.extend_store(stores[head], pos[head], end)
            pos[head] = end
            if end < rows:
                window(active)
            active = [shard for shard in active
                      if pos[shard] < stores[shard].rows or advance(shard)]
        record_row_groups("merged", schema.name, merged_groups)
        return out.close()
