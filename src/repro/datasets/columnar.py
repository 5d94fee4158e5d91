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

Layout of a v1 ``.col`` file::

    offset 0   MAGIC            b"RPRCOL01" (8 bytes)
    offset 8   header length    u32, little-endian
    offset 12  header           UTF-8 JSON (schema name, row count,
                                per-column segment table)
    ...        segments         8-byte aligned; offsets in the header
                                are relative to the first segment

Per column the header records a ``data`` segment (the packed values —
dictionary codes for string columns), an optional ``nulls`` segment
(bitmap, bit ``i`` set when row ``i`` is None) and an optional ``dict``
segment (the string dictionary as a JSON array, in code order).  The
header is pure JSON so ``repro-ecs dataset info`` can describe a file
without touching any segment.

Version 2 (``RPRCOL02``) chunks the same segments into *row groups* so
generation, merge and replay all run out-of-core: writers stream groups
through a bounded buffer (:class:`GroupedColumnarWriter`), readers walk
one group at a time (:class:`RowGroupReader`), and every group carries
its own group-local string dictionaries so merges can copy whole groups
verbatim.  See the layout comment above :class:`GroupedColumnarWriter`
and ``docs/datasets.md`` for the v2 header diagram and dictionary remap
rules.  v1 files still open everywhere (and remain the default output
of ``generate``), and :func:`convert_columnar` moves files between the
two layouts losslessly.

Everything here is deterministic: dictionaries assign codes in first-
appearance order, merges are stable k-way merges keyed on ``(ts, shard
index, row index)`` — the exact tie-break of
:func:`repro.datasets.records.merge_jsonl_shards` — and no content ever
depends on process or machine identity.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import json
import mmap
import struct
import weakref
from array import array
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Type, Union)

from ..engine.sharding import bucket_group_ranges, stable_bucket
from ..obs import metrics as _obs_metrics
from .records import (AllNamesRecord, CdnQueryRecord, PublicCdnRecord,
                      RootQueryRecord, ScanQueryRecord, iter_jsonl,
                      write_jsonl)

#: Declared for the whole-program linter (RS202): stores and readers wrap
#: mmap'd files, so instances must never cross a pickle boundary —
#: workers reopen by path (see ``repro.engine.replay._columnar_store``).
STATICCHECK_UNPICKLABLE = ("repro.datasets.columnar:ColumnarStore",
                           "repro.datasets.columnar:RowGroupReader")

#: File magic: format name + two-digit major version.
MAGIC = b"RPRCOL01"
#: Row-group layout magic (format version 2; see ``docs/datasets.md``).
MAGIC_V2 = b"RPRCOL02"
#: Header ``version`` field; bump on any incompatible layout change.
FORMAT_VERSION = 1
#: Header ``version`` of the row-group layout.
FORMAT_VERSION_V2 = 2
#: Segment alignment, so typed memoryview casts are always aligned.
ALIGN = 8
#: v2 prelude: magic (8 bytes) + u64 header offset, patched at close.
_V2_PRELUDE = 16
#: Default rows per row group for the v2 streaming writers: large enough
#: that per-group overheads (dictionaries, header entries) amortize,
#: small enough that a buffered group stays a few MiB.
DEFAULT_ROW_GROUP_ROWS = 65536
#: Most records a writer's ``extend`` holds at once while it transposes
#: them into columns.  Big enough that the per-chunk work (one ``map``
#: and one ``array`` per column) amortizes to nothing per row; small
#: enough that the chunk's record objects and value lists stay well
#: under a MiB however large the row group, so peak RSS does not depend
#: on ``row_group_rows``.
EXTEND_CHUNK_ROWS = 512


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


@dataclass(frozen=True)
class ColumnarStats:
    """Size accounting for one store or shard, mergeable across shards.

    Every field sums when shards are concatenated or merged, so shard
    stats fold associatively into whole-trace stats (``dict_entries``
    sums the per-shard dictionary sizes — an upper bound on the merged
    dictionary, exact when shard dictionaries are disjoint).
    """

    rows: int = 0
    data_bytes: int = 0
    null_bytes: int = 0
    dict_bytes: int = 0
    dict_entries: int = 0

    @property
    def total_bytes(self) -> int:
        return self.data_bytes + self.null_bytes + self.dict_bytes

    @property
    def bytes_per_row(self) -> float:
        return self.total_bytes / self.rows if self.rows else 0.0

    def merge_segments(self, other: "ColumnarStats") -> "ColumnarStats":
        """Fold another shard's stats in (field-wise sum)."""
        return ColumnarStats(
            self.rows + other.rows,
            self.data_bytes + other.data_bytes,
            self.null_bytes + other.null_bytes,
            self.dict_bytes + other.dict_bytes,
            self.dict_entries + other.dict_entries)


def _align_pad(offset: int) -> int:
    return (-offset) % ALIGN


def _raw_bytes(column: Any) -> bytes:
    """Packed bytes of a raw column (array or typed memoryview)."""
    return column.tobytes()


class ColumnarWriter:
    """Streaming columnar builder: append records, then save or wrap.

    Appending never touches disk; :meth:`save` serializes the columns in
    one pass and :meth:`store` wraps them as an in-memory
    :class:`ColumnarStore` without copying.
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

    def _intern(self, column: str, value: str) -> int:
        codes = self._interns[column]
        return codes.setdefault(value, len(codes))

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
                if None in values:
                    if not spec.nullable:
                        raise ValueError(
                            f"column {spec.name!r} of schema "
                            f"{self.schema.name!r} is not nullable")
                    null_rows = [base + i for i, value in enumerate(values)
                                 if value is None]
                encoded: Iterable[Any]
                if spec.kind == "str":
                    codes = self._interns[spec.name]
                    grown.append((codes, len(codes)))
                    if null_rows:
                        encoded = [0 if value is None
                                   else codes.setdefault(value, len(codes))
                                   for value in values]
                    else:
                        encoded = [codes.setdefault(value, len(codes))
                                   for value in values]
                elif spec.kind == "bool":
                    encoded = map(bool, values)
                elif null_rows:
                    encoded = [0 if value is None else value
                               for value in values]
                else:
                    encoded = values
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

    def append_values(self, values: Sequence[Any]) -> None:
        """Append one row given its field values in schema order."""
        if len(values) != len(self.schema.columns):
            raise ValueError(f"schema {self.schema.name!r} has "
                             f"{len(self.schema.columns)} columns, got "
                             f"{len(values)} values")
        self._append_columns([(value,) for value in values])

    def append(self, record: Any) -> None:
        """Append one record (a dataclass instance of the schema's type)."""
        self._append_columns([(get(record),) for get in self._getters])

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

    def extend_store(self, store: "ColumnarStore") -> int:
        """Concatenate another store's segments onto this writer.

        The segment-level fast path for shard concatenation: numeric and
        bool columns append their packed bytes wholesale; string columns
        remap the incoming dictionary codes onto this writer's merged
        dictionary (one lookup per *dictionary entry*, one integer per
        row); null bitmaps re-pack at the new row offset.
        """
        if store.schema.name != self.schema.name:
            raise ValueError(f"cannot concatenate schema "
                             f"{store.schema.name!r} onto "
                             f"{self.schema.name!r}")
        base = self.rows
        for spec in self.schema.columns:
            raw = store.raw_column(spec.name)
            arr = self._arrays[spec.name]
            if spec.kind != "str":
                arr.frombytes(_raw_bytes(raw))
            else:
                remap = [self._intern(spec.name, value)
                         for value in store.dictionary(spec.name)]
                if spec.nullable:
                    null_of = store.null_checker(spec.name)
                    arr.extend(0 if null_of(row) else remap[raw[row]]
                               for row in range(store.rows))
                else:
                    arr.extend(remap[code] for code in raw)
            if spec.nullable:
                null_of = store.null_checker(spec.name)
                for row in range(store.rows):
                    if null_of(row):
                        self._set_null(spec.name, base + row)
        self.rows = base + store.rows
        return store.rows

    def extend_rows(self, store: "ColumnarStore", lo: int = 0,
                    hi: Optional[int] = None,
                    rows: Optional[Sequence[int]] = None,
                    code_maps: Optional[Dict[str, List[int]]] = None) -> int:
        """Append a row range (or row selection) of another store.

        The canonical-order twin of :meth:`extend_store`: where that
        method interns the incoming store's *entire* dictionary in
        dictionary order (right for whole-shard concatenation), this one
        interns a string the first time an appended row references it —
        exactly the order a row-by-row ``append_values`` loop would
        produce.  Run-granular merges built on it therefore stay
        byte-identical to the per-row reference merge.

        ``rows`` selects arbitrary row indices instead of ``[lo, hi)``
        (used by the pre-bucketing writer).  ``code_maps`` is an optional
        per-source cache of incoming-code -> local-code tables keyed by
        column name, reusable across calls for the *same* source store;
        pass a fresh dict per source (codes are store-local).
        """
        if store.schema.name != self.schema.name:
            raise ValueError(f"cannot append rows of schema "
                             f"{store.schema.name!r} onto "
                             f"{self.schema.name!r}")
        stop = store.rows if hi is None else hi
        if rows is None:
            if not 0 <= lo <= stop <= store.rows:
                raise ValueError(f"row range [{lo}, {stop}) out of range "
                                 f"for {store.rows} rows")
            selection: Sequence[int] = range(lo, stop)
        else:
            selection = rows
        base = self.rows
        for spec in self.schema.columns:
            raw = store.raw_column(spec.name)
            arr = self._arrays[spec.name]
            if spec.kind == "str":
                dictionary = store.dictionary(spec.name)
                cmap: Optional[List[int]]
                cmap = None if code_maps is None else code_maps.get(spec.name)
                if cmap is None:
                    cmap = [-1] * len(dictionary)
                    if code_maps is not None:
                        code_maps[spec.name] = cmap
                null_of = (store.null_checker(spec.name)
                           if spec.nullable else None)
                codes: List[int] = []
                for row in selection:
                    if null_of is not None and null_of(row):
                        codes.append(0)
                        continue
                    code = raw[row]
                    mapped = cmap[code]
                    if mapped < 0:
                        mapped = self._intern(spec.name, dictionary[code])
                        cmap[code] = mapped
                    codes.append(mapped)
                arr.extend(codes)
            elif rows is None:
                arr.frombytes(raw[lo:stop].tobytes())
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

    def _dict_list(self, column: str) -> List[str]:
        # Insertion order == code order for the interning dicts.
        return list(self._interns[column])

    def store(self) -> "ColumnarStore":
        """Wrap the accumulated columns as an in-memory store (no copy)."""
        # Bitmaps grow lazily on _set_null; pad to full row coverage so
        # readers can index any row's bit without a bounds check.
        needed = (self.rows + 7) >> 3
        for bitmap in self._nulls.values():
            if len(bitmap) < needed:
                bitmap.extend(b"\x00" * (needed - len(bitmap)))
        nulls = {name: (bitmap, 0) for name, bitmap in self._nulls.items()}
        return ColumnarStore(self.schema, self.rows, dict(self._arrays),
                             nulls, {name: self._dict_list(name)
                                     for name in self._interns})

    def save(self, path: Union[str, Path]) -> int:
        """Serialize to ``path``; returns the number of rows written."""
        return self.store().save(path)


class ColumnarStore:
    """A columnar trace: in memory, or zero-copy over an mmap'd file.

    Opened stores keep one :func:`mmap.mmap` (or one bytes object with
    ``use_mmap=False``) and expose every column as a typed
    ``memoryview`` into it.  :meth:`slice` shares those buffers, so
    row-range shards of one file cost O(1) memory each.
    """

    def __init__(self, schema: Schema, rows: int,
                 data: Dict[str, Any],
                 nulls: Dict[str, Tuple[Any, int]],
                 dicts: Dict[str, List[str]],
                 closer: Optional[Callable[[], None]] = None) -> None:
        self.schema = schema
        self.rows = rows
        self._data = data
        self._nulls = nulls
        self._dicts = dicts
        self._closer = closer
        self._bucket_memo: Dict[Tuple[str, int], List["array[Any]"]] = {}
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
    def open(cls, path: Union[str, Path],
             use_mmap: bool = True) -> "ColumnarStore":
        """Open an on-disk store; columns are views into one mapping.

        A v1 (``RPRCOL01``) file opens zero-copy.  A v2 row-group file
        opens through :class:`RowGroupReader` and is *flattened* into
        one in-memory store — the O(rows) compatibility path; readers
        that care about bounded memory should walk the groups via
        :class:`RowGroupReader` directly.
        """
        fh = open(path, "rb")
        try:
            prelude = fh.read(12)
            if len(prelude) >= 8 and prelude[:8] == MAGIC_V2:
                fh.close()
                with RowGroupReader(path) as reader:
                    writer = ColumnarWriter(reader.schema)
                    for index in range(reader.group_count):
                        group = reader.group(index)
                        writer.extend_rows(group)
                        group.close()
                    return writer.store()
            if len(prelude) < 12 or prelude[:8] != MAGIC:
                raise ValueError(f"{path}: not a columnar trace "
                                 f"(bad magic)")
            (header_len,) = struct.unpack("<I", prelude[8:12])
            header = json.loads(fh.read(header_len).decode("utf-8"))
            if header.get("version") != FORMAT_VERSION:
                raise ValueError(f"{path}: unsupported columnar format "
                                 f"version {header.get('version')!r} "
                                 f"(expected {FORMAT_VERSION})")
            buf: Any
            closer: Optional[Callable[[], None]]
            if use_mmap:
                mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                buf = memoryview(mapping)
                closer = _make_closer(buf, mapping)
            else:
                fh.seek(0)
                buf = memoryview(fh.read())
                closer = None
        finally:
            fh.close()
        schema = schema_for(header["schema"])
        rows = int(header["rows"])
        start = 12 + header_len + _align_pad(12 + header_len)
        data: Dict[str, Any] = {}
        nulls: Dict[str, Tuple[Any, int]] = {}
        dicts: Dict[str, List[str]] = {}
        for entry in header["columns"]:
            name = entry["name"]
            spec = next(c for c in schema.columns if c.name == name)
            off, length = entry["data"]
            data[name] = buf[start + off:start + off + length] \
                .cast(spec.typecode)
            if entry.get("nulls") is not None:
                off, length = entry["nulls"]
                nulls[name] = (buf[start + off:start + off + length], 0)
            if entry.get("dict") is not None:
                off, length = entry["dict"]
                dicts[name] = json.loads(
                    bytes(buf[start + off:start + off + length])
                    .decode("utf-8"))
        return cls(schema, rows, data, nulls, dicts, closer)

    def close(self) -> None:
        """Release the underlying mapping (no-op for in-memory stores).

        Every column view is released first — an mmap cannot close while
        exported buffers exist.  Live :meth:`slice` children keep their
        own views, so close the parent only after its slices are done.
        """
        self._getter_cache = None
        for view in self._data.values():
            if isinstance(view, memoryview):
                view.release()
        for bitmap, _ in self._nulls.values():
            if isinstance(bitmap, memoryview):
                bitmap.release()
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

    def _null_bitmap_bytes(self, name: str) -> bytes:
        """The column's null bitmap re-packed to bit offset zero."""
        checker = self.null_checker(name)
        bitmap = bytearray((self.rows + 7) >> 3)
        for row in range(self.rows):
            if checker(row):
                bitmap[row >> 3] |= 1 << (row & 7)
        return bytes(bitmap)

    def _column_payloads(self) -> Iterator[Tuple[ColumnSpec, bytes,
                                                 Optional[bytes],
                                                 Optional[bytes], int]]:
        """Per column: (spec, data, nulls, dict payload, dict entries).

        The single serialization order both the v1 :meth:`save` and the
        v2 :class:`GroupedColumnarWriter` group flush emit: data, then
        null bitmap, then dictionary — per column, in schema order.
        """
        for spec in self.schema.columns:
            data = _raw_bytes(self._data[spec.name])
            nulls = (self._null_bitmap_bytes(spec.name)
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

    def save(self, path: Union[str, Path]) -> int:
        """Write the versioned header + aligned segments; returns rows."""
        segments: List[bytes] = []
        columns: List[Dict[str, Any]] = []
        offset = 0

        def add_segment(payload: bytes) -> Tuple[int, int]:
            nonlocal offset
            pad = _align_pad(offset)
            if pad:
                segments.append(b"\x00" * pad)
                offset += pad
            start = offset
            segments.append(payload)
            offset += len(payload)
            return (start, len(payload))

        for spec, data, nulls, dict_payload, entries in \
                self._column_payloads():
            entry: Dict[str, Any] = {
                "name": spec.name, "kind": spec.kind,
                "typecode": spec.typecode,
                "data": add_segment(data),
                "nulls": None, "dict": None}
            if nulls is not None:
                entry["nulls"] = add_segment(nulls)
            if dict_payload is not None:
                entry["dict"] = add_segment(dict_payload)
                entry["dict_entries"] = entries
            columns.append(entry)

        header = json.dumps(
            {"version": FORMAT_VERSION, "schema": self.schema.name,
             "rows": self.rows, "columns": columns},
            separators=(",", ":")).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            fh.write(b"\x00" * _align_pad(12 + len(header)))
            for segment in segments:
                fh.write(segment)
        return self.rows

    # -- column access -----------------------------------------------------

    def raw_column(self, name: str) -> Any:
        """The packed value sequence (dictionary codes for str columns)."""
        return self._data[name]

    def column(self, name: str) -> Any:
        """Alias of :meth:`raw_column`; the replay hot path's entry."""
        return self._data[name]

    def dictionary(self, name: str) -> List[str]:
        """Code -> string table of a dictionary-encoded column."""
        return self._dicts[name]

    def null_checker(self, name: str) -> Callable[[int], bool]:
        """A ``row -> is-null`` predicate (always False when not nullable)."""
        entry = self._nulls.get(name)
        if entry is None:
            return lambda row: False
        bitmap, base = entry

        def is_null(row: int) -> bool:
            bit = base + row
            return bool(bitmap[bit >> 3] & (1 << (bit & 7)))

        return is_null

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

    def row_values(self, row: int) -> Tuple[Any, ...]:
        """One row's decoded field values, in schema order."""
        return tuple(g(row) for g in self._getters())

    def _getters(self) -> List[Callable[[int], Any]]:
        getters = self._getter_cache
        if getters is None:
            getters = [self._value_getter(spec)
                       for spec in self.schema.columns]
            self._getter_cache = getters
        return getters

    def record(self, row: int) -> Any:
        """Materialize one row as its record dataclass."""
        return self.schema.record_type(*self.row_values(row))

    def iter_records(self, lo: int = 0,
                     hi: Optional[int] = None) -> Iterator[Any]:
        """Stream rows ``[lo, hi)`` as record instances."""
        stop = self.rows if hi is None else hi
        getters = self._getters()
        cls = self.schema.record_type
        for row in range(lo, stop):
            yield cls(*[g(row) for g in getters])

    def to_records(self) -> List[Any]:
        """Materialize the whole store as a record list."""
        return list(self.iter_records())

    # -- shard arithmetic --------------------------------------------------

    def slice(self, lo: int, hi: int) -> "ColumnarStore":
        """Rows ``[lo, hi)`` as a store sharing this one's buffers.

        Zero-copy: numeric columns are memoryview slices, dictionaries
        are shared outright, and null bitmaps carry a bit offset instead
        of being re-packed.  The parent store must stay open for the
        slice's lifetime.
        """
        if not 0 <= lo <= hi <= self.rows:
            raise ValueError(f"slice [{lo}, {hi}) out of range for "
                             f"{self.rows} rows")
        data = {name: (memoryview(col) if isinstance(col, array) else col)
                [lo:hi] for name, col in self._data.items()}
        # Each child gets its own bitmap *view* so closing one slice
        # cannot release a buffer its siblings (or the parent) still use.
        nulls = {name: (memoryview(bitmap) if isinstance(bitmap, memoryview)
                        else bitmap, base + lo)
                 for name, (bitmap, base) in self._nulls.items()}
        return ColumnarStore(self.schema, hi - lo, data, nulls, self._dicts)

    def row_buckets(self, column: str, shards: int) -> List["array[Any]"]:
        """Row indices per :func:`stable_bucket` shard of a str column.

        The bucket of every row is decided by its *dictionary entry*, so
        the hash runs once per unique string, then bucketing the rows is
        a table lookup per row.  Memoized per (column, shards): workers
        replaying several shards of one mapped file pay the scan once.
        """
        memo_key = (column, shards)
        buckets = self._bucket_memo.get(memo_key)
        if buckets is None:
            by_code = array("i", (stable_bucket(value, shards)
                                  for value in self._dicts[column]))
            buckets = [array("q") for _ in range(shards)]
            appends = [bucket.append for bucket in buckets]
            for row, code in enumerate(self._data[column]):
                appends[by_code[code]](row)
            self._bucket_memo[memo_key] = buckets
        return buckets

    # -- accounting --------------------------------------------------------

    def stats(self) -> ColumnarStats:
        """Byte/row accounting over the packed segments."""
        data_bytes = sum(len(_raw_bytes(self._data[c.name]))
                         for c in self.schema.columns)
        null_bytes = sum((self.rows + 7) >> 3
                         for c in self.schema.columns if c.nullable)
        dict_bytes = 0
        dict_entries = 0
        for name, dictionary in self._dicts.items():
            dict_entries += len(dictionary)
            dict_bytes += len(json.dumps(dictionary, separators=(",", ":"),
                                         ensure_ascii=False).encode("utf-8"))
        return ColumnarStats(self.rows, data_bytes, null_bytes, dict_bytes,
                             dict_entries)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the packed representation."""
        return self.stats().total_bytes


def _make_closer(view: memoryview, mapping: mmap.mmap
                 ) -> Callable[[], None]:
    def closer() -> None:
        view.release()
        mapping.close()

    return closer


# ---------------------------------------------------------------------------
# The v2 row-group layout (RPRCOL02)
#
# Layout of a v2 ``.col`` file::
#
#     offset 0   MAGIC_V2        b"RPRCOL02" (8 bytes)
#     offset 8   header offset   u64 LE, patched when the file closes
#     offset 16  segment area    row groups back to back, 8-byte aligned
#     ...        header          UTF-8 JSON, runs to end of file
#
# The header moved to the *tail* so a writer can stream groups through a
# bounded buffer and never seek except to patch the u64 — no reader or
# writer ever holds a full shard in memory.  Each group carries its own
# per-column segments *including its own string dictionaries* (codes are
# group-local), so a group's bytes are position-independent: merges copy
# whole groups verbatim, and readers remap codes across groups on read.


class GroupedColumnarWriter:
    """Stream records into a v2 row-group file with bounded memory.

    Rows buffer in an ordinary :class:`ColumnarWriter`; every
    ``row_group_rows`` rows the buffer flushes to disk as one row group
    and resets, so peak memory is one group regardless of trace length.
    Group dictionaries intern in first-appearance order *within the
    group* automatically, because each group starts from an empty
    buffer.  :meth:`close` writes the JSON header at the tail and
    patches the header-offset word; use as a context manager.
    """

    def __init__(self, schema: Union[str, Schema], path: Union[str, Path],
                 row_group_rows: int = DEFAULT_ROW_GROUP_ROWS,
                 buckets: Optional[int] = None) -> None:
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
        self._fh: Optional[Any] = open(self.path, "wb")
        self._fh.write(MAGIC_V2)
        self._fh.write(struct.pack("<Q", 0))

    # -- appending ---------------------------------------------------------

    @property
    def pending_rows(self) -> int:
        """Rows buffered but not yet flushed as a group."""
        return self._buffer.rows

    def append_values(self, values: Sequence[Any]) -> None:
        """Append one row given its field values in schema order."""
        self._buffer.append_values(values)
        if self._buffer.rows >= self.row_group_rows:
            self._flush_group()

    def append(self, record: Any) -> None:
        """Append one record (a dataclass instance of the schema's type)."""
        self._buffer.append(record)
        if self._buffer.rows >= self.row_group_rows:
            self._flush_group()

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

    def extend_store(self, store: ColumnarStore, lo: int = 0,
                     hi: Optional[int] = None,
                     rows: Optional[Sequence[int]] = None) -> int:
        """Append a row range (or row selection) of another store.

        Chunks through the group buffer so group boundaries land exactly
        on ``row_group_rows`` regardless of incoming run sizes; string
        codes re-intern per group in first-appearance order (see
        :meth:`ColumnarWriter.extend_rows`).
        """
        appended = 0
        if rows is not None:
            pos, total = 0, len(rows)
            while pos < total:
                take = min(self.row_group_rows - self._buffer.rows,
                           total - pos)
                self._buffer.extend_rows(store, rows=rows[pos:pos + take])
                pos += take
                appended += take
                if self._buffer.rows >= self.row_group_rows:
                    self._flush_group()
            return appended
        stop = store.rows if hi is None else hi
        while lo < stop:
            take = min(self.row_group_rows - self._buffer.rows, stop - lo)
            self._buffer.extend_rows(store, lo, lo + take)
            lo += take
            appended += take
            if self._buffer.rows >= self.row_group_rows:
                self._flush_group()
        return appended

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

    def _flush_group(self) -> None:
        if self._buffer.rows == 0:
            return
        store = self._buffer.store()
        columns: List[Dict[str, Any]] = []
        for spec, data, nulls, dict_payload, entries in \
                store._column_payloads():
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
        self._groups.append({"rows": store.rows, "bucket": self._bucket,
                             "columns": columns})
        self.rows += store.rows
        self._buffer = ColumnarWriter(self.schema)
        record_row_groups("written", self.schema.name, 1)

    def flush(self) -> None:
        """Force the buffered rows out as a (possibly short) group."""
        self._flush_group()

    def copy_group(self, reader: "RowGroupReader", group_index: int) -> int:
        """Append one of ``reader``'s groups by verbatim segment copy.

        The non-overlapping fast path of the k-way merge: a group's
        dictionaries are group-local, so its segment bytes are
        position-independent and re-encoding them row by row would
        reproduce exactly these bytes.  Flushes any pending buffered
        rows first (as their own group).  Only v2 sources have
        position-independent groups; copying from a v1 reader raises.
        """
        if reader.format_version != FORMAT_VERSION_V2:
            raise ValueError("copy_group requires a v2 (row-group) source")
        if reader.schema.name != self.schema.name:
            raise ValueError(f"cannot copy a {reader.schema.name!r} group "
                             f"into a {self.schema.name!r} file")
        if self._buffer.rows:
            self._flush_group()
        entry = reader.group_entry(group_index)
        columns: List[Dict[str, Any]] = []
        for col in entry["columns"]:
            new_col: Dict[str, Any] = {
                "name": col["name"], "kind": col["kind"],
                "typecode": col["typecode"],
                "data": self._add_segment(reader.segment_bytes(col["data"])),
                "nulls": None, "dict": None}
            if col.get("nulls") is not None:
                new_col["nulls"] = self._add_segment(
                    reader.segment_bytes(col["nulls"]))
            if col.get("dict") is not None:
                new_col["dict"] = self._add_segment(
                    reader.segment_bytes(col["dict"]))
                new_col["dict_entries"] = col.get("dict_entries", 0)
            columns.append(new_col)
        rows = int(entry["rows"])
        self._groups.append({"rows": rows, "bucket": self._bucket,
                             "columns": columns})
        self.rows += rows
        record_row_groups("written", self.schema.name, 1)
        return rows

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> int:
        """Flush, write the tail header, patch the offset; returns rows."""
        if self._fh is None:
            return self.rows
        self._flush_group()
        header: Dict[str, Any] = {
            "version": FORMAT_VERSION_V2, "schema": self.schema.name,
            "rows": self.rows, "row_group_rows": self.row_group_rows,
            "groups": self._groups}
        if self._buckets is not None:
            header["buckets"] = self._buckets
        payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
        header_offset = _V2_PRELUDE + self._offset
        self._fh.write(payload)
        self._fh.seek(8)
        self._fh.write(struct.pack("<Q", header_offset))
        self._fh.close()
        self._fh = None
        return self.rows

    def __enter__(self) -> "GroupedColumnarWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class RowGroupReader:
    """Format-agnostic row-group view of a columnar file.

    A v2 file maps once and exposes each row group as a zero-copy
    :class:`ColumnarStore` over its own segments; a v1 file opens as a
    single group covering the whole store, so streaming consumers
    (merge, conversion, row-range replay) read both layouts through one
    interface.  Group stores are built on demand and not memoized —
    sequential scans drop each group's decoded dictionaries as they go,
    which is what keeps reader memory bounded.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._store: Optional[ColumnarStore] = None
        self._mapping: Optional[mmap.mmap] = None
        self._buf: Optional[memoryview] = None
        self._issued: "weakref.WeakSet[ColumnarStore]" = weakref.WeakSet()
        with open(self.path, "rb") as probe:
            magic = probe.read(8)
        if magic == MAGIC:
            self.format_version = FORMAT_VERSION
            self._store = ColumnarStore.open(self.path)
            self.schema = self._store.schema
            self.rows = self._store.rows
            self.row_group_rows: Optional[int] = None
            self.buckets: Optional[int] = None
            self._groups: List[Dict[str, Any]] = [
                {"rows": self.rows, "bucket": None}]
            return
        if magic != MAGIC_V2:
            raise ValueError(f"{path}: not a columnar trace (bad magic)")
        self.format_version = FORMAT_VERSION_V2
        fh = open(self.path, "rb")
        try:
            prelude = fh.read(_V2_PRELUDE)
            (header_offset,) = struct.unpack("<Q", prelude[8:16])
            if header_offset < _V2_PRELUDE:
                raise ValueError(f"{path}: truncated columnar file "
                                 f"(header offset not patched)")
            mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        finally:
            fh.close()
        self._mapping = mapping
        self._buf = memoryview(mapping)
        header = json.loads(bytes(self._buf[header_offset:])
                            .decode("utf-8"))
        if header.get("version") != FORMAT_VERSION_V2:
            raise ValueError(f"{path}: unsupported columnar format "
                             f"version {header.get('version')!r} "
                             f"(expected {FORMAT_VERSION_V2})")
        self.schema = schema_for(header["schema"])
        self.rows = int(header["rows"])
        self.row_group_rows = header.get("row_group_rows")
        self.buckets = header.get("buckets")
        self._groups = header["groups"]

    # -- group access ------------------------------------------------------

    @property
    def group_count(self) -> int:
        return len(self._groups)

    def group_rows(self, index: int) -> int:
        return int(self._groups[index]["rows"])

    def group_bucket(self, index: int) -> Optional[int]:
        return self._groups[index].get("bucket")

    def group_entry(self, index: int) -> Dict[str, Any]:
        """The raw header entry of one group (segment offsets included)."""
        return self._groups[index]

    def segment_bytes(self, segment: Sequence[int]) -> bytes:
        """One segment's payload bytes (copied; bounded by group size)."""
        if self._buf is None:
            raise ValueError("raw segments are only available on v2 files")
        off, length = segment
        start = _V2_PRELUDE + off
        return bytes(self._buf[start:start + length])

    def bucket_ranges(self) -> Optional[List[Tuple[int, int]]]:
        """Per-bucket contiguous group ranges of a pre-bucketed file.

        ``None`` when the file was not written by
        :func:`prebucket_columnar`; otherwise one ``[start, end)`` group
        range per bucket, validated contiguous.
        """
        if self.buckets is None:
            return None
        return bucket_group_ranges([g.get("bucket") for g in self._groups],
                                   self.buckets)

    def group(self, index: int) -> ColumnarStore:
        """Row group ``index`` as a store (zero-copy for v2 segments)."""
        if self._store is not None:
            return self._store
        assert self._buf is not None
        entry = self._groups[index]
        buf = self._buf
        data: Dict[str, Any] = {}
        nulls: Dict[str, Tuple[Any, int]] = {}
        dicts: Dict[str, List[str]] = {}
        for col in entry["columns"]:
            name = col["name"]
            spec = next(c for c in self.schema.columns if c.name == name)
            off, length = col["data"]
            start = _V2_PRELUDE + off
            data[name] = buf[start:start + length].cast(spec.typecode)
            if col.get("nulls") is not None:
                off, length = col["nulls"]
                start = _V2_PRELUDE + off
                nulls[name] = (buf[start:start + length], 0)
            if col.get("dict") is not None:
                off, length = col["dict"]
                start = _V2_PRELUDE + off
                dicts[name] = json.loads(
                    bytes(buf[start:start + length]).decode("utf-8"))
        store = ColumnarStore(self.schema, int(entry["rows"]), data, nulls,
                              dicts)
        self._issued.add(store)
        return store

    def iter_records(self) -> Iterator[Any]:
        """Stream every row as a record, one group resident at a time."""
        for index in range(self.group_count):
            store = self.group(index)
            yield from store.iter_records()
            if self._store is None:   # v1 shares one store; keep it open
                store.close()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release every issued group view and the file mapping."""
        if self._store is not None:
            self._store.close()
            self._store = None
            return
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


def is_columnar(path: Union[str, Path]) -> bool:
    """True when ``path`` starts with either columnar magic (v1 or v2)."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(MAGIC)) in (MAGIC, MAGIC_V2)
    except OSError:
        return False


def file_info(path: Union[str, Path]) -> Dict[str, Any]:
    """Describe a columnar file from its header alone (no segment reads).

    Works for both layouts: a v1 header sits behind the magic, a v2
    header at the tail (one seek).  v2 results add ``row_groups``,
    ``row_group_rows`` and ``buckets``, and per-column byte totals are
    aggregated across groups.
    """
    target = Path(path)
    with open(target, "rb") as fh:
        magic = fh.read(8)
        if magic == MAGIC_V2:
            (header_offset,) = struct.unpack("<Q", fh.read(8))
            fh.seek(header_offset)
            header = json.loads(fh.read().decode("utf-8"))
            header_len = target.stat().st_size - header_offset
        elif magic == MAGIC:
            (header_len,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(header_len).decode("utf-8"))
        else:
            raise ValueError(f"{path}: not a columnar trace (bad magic)")
    rows = int(header["rows"])
    columns: List[Dict[str, Any]] = []
    if header["version"] == FORMAT_VERSION_V2:
        by_name: Dict[str, Dict[str, Any]] = {}
        for group in header["groups"]:
            for entry in group["columns"]:
                agg = by_name.get(entry["name"])
                if agg is None:
                    agg = {"name": entry["name"], "kind": entry["kind"],
                           "typecode": entry["typecode"], "data_bytes": 0,
                           "null_bytes": 0, "dict_bytes": 0,
                           "dict_entries": 0}
                    by_name[entry["name"]] = agg
                    columns.append(agg)
                agg["data_bytes"] += entry["data"][1]
                if entry.get("nulls"):
                    agg["null_bytes"] += entry["nulls"][1]
                if entry.get("dict"):
                    agg["dict_bytes"] += entry["dict"][1]
                    agg["dict_entries"] += entry.get("dict_entries", 0)
    else:
        for entry in header["columns"]:
            columns.append({
                "name": entry["name"], "kind": entry["kind"],
                "typecode": entry["typecode"],
                "data_bytes": entry["data"][1],
                "null_bytes": entry["nulls"][1] if entry.get("nulls") else 0,
                "dict_bytes": entry["dict"][1] if entry.get("dict") else 0,
                "dict_entries": entry.get("dict_entries", 0)})
    file_bytes = target.stat().st_size
    info = {"path": str(target), "version": header["version"],
            "schema": header["schema"], "rows": rows,
            "header_bytes": header_len, "file_bytes": file_bytes,
            "bytes_per_row": file_bytes / rows if rows else 0.0,
            "columns": columns}
    if header["version"] == FORMAT_VERSION_V2:
        info["row_groups"] = len(header["groups"])
        info["row_group_rows"] = header.get("row_group_rows")
        info["buckets"] = header.get("buckets")
    return info


def bucketed_group_ranges(path: Union[str, Path]
                          ) -> Optional[List[Tuple[int, int]]]:
    """Per-bucket group ranges of a pre-bucketed v2 file, header-only.

    ``None`` for v1 files and for v2 files without bucket tags — the
    replay parent uses that to fall back to the flat bucketing path.
    Reads only the prelude and the tail header, never a segment, so the
    parent's dispatch decision is O(header) regardless of trace size.
    """
    with open(path, "rb") as fh:
        prelude = fh.read(_V2_PRELUDE)
        if len(prelude) < _V2_PRELUDE or prelude[:8] != MAGIC_V2:
            return None
        (header_offset,) = struct.unpack("<Q", prelude[8:16])
        fh.seek(header_offset)
        header = json.loads(fh.read().decode("utf-8"))
    buckets = header.get("buckets")
    if buckets is None:
        return None
    return bucket_group_ranges([g.get("bucket") for g in header["groups"]],
                               buckets)


def write_columnar(records: Iterable[Any], path: Union[str, Path],
                   schema: Union[str, Schema]) -> int:
    """Columnarize and save an iterable of records; returns the count."""
    return ColumnarStore.from_records(records, schema).save(path)


def read_columnar(path: Union[str, Path]) -> List[Any]:
    """Load a columnar file back into a record list (convenience)."""
    with ColumnarStore.open(path) as store:
        return store.to_records()


def write_columnar_stream(records: Iterable[Any], path: Union[str, Path],
                          schema: Union[str, Schema],
                          row_group_rows: int = DEFAULT_ROW_GROUP_ROWS
                          ) -> int:
    """Stream an already-ordered record iterable into a v2 file.

    Bounded memory: at most ``row_group_rows`` records' worth of columns
    buffer at once.  The stream's order is preserved — use
    :func:`write_columnar_sorted` when the source emits out of ts order.
    """
    with GroupedColumnarWriter(schema, path, row_group_rows) as writer:
        writer.extend(records)
    return writer.rows


def write_columnar_sorted(records: Iterable[Any], path: Union[str, Path],
                          schema: Union[str, Schema],
                          row_group_rows: int = DEFAULT_ROW_GROUP_ROWS,
                          ts_column: str = "ts") -> int:
    """External sort of a record stream into a ts-ordered v2 file.

    Buffers ``row_group_rows`` records, stable-sorts each full buffer by
    ``ts_column`` and spills it as a sorted *run* file, then k-way
    merges the runs.  The merge breaks ts ties toward the earlier run,
    and each run is a consecutive chunk of the input stream stably
    sorted — so the result is exactly the global stable sort the
    in-memory ``records.sort(key=...)`` path produces, row for row.
    Peak memory is one buffer plus one group per run.
    """
    resolved = schema if isinstance(schema, Schema) else schema_for(schema)
    target = Path(path)
    key = attrgetter(ts_column)
    buffer: List[Any] = []
    run_paths: List[Path] = []

    def spill() -> None:
        buffer.sort(key=key)
        run_path = target.with_name(f"{target.name}.run{len(run_paths):04d}")
        with GroupedColumnarWriter(resolved, run_path,
                                   row_group_rows) as run:
            run.extend(buffer)
        run_paths.append(run_path)
        buffer.clear()

    try:
        for record in records:
            buffer.append(record)
            if len(buffer) >= row_group_rows:
                spill()
        if not run_paths:
            buffer.sort(key=key)
            with GroupedColumnarWriter(resolved, target,
                                       row_group_rows) as writer:
                writer.extend(buffer)
            return writer.rows
        if buffer:
            spill()
        return merge_columnar_shards(run_paths, target, ts_column,
                                     row_group_rows)
    finally:
        for run_path in run_paths:
            if run_path.exists():
                run_path.unlink()


def jsonl_to_columnar(src: Union[str, Path], dst: Union[str, Path],
                      schema: Union[str, Schema],
                      row_group_rows: Optional[int] = None) -> int:
    """Convert a JSONL trace to columnar, streaming record by record.

    ``row_group_rows=None`` writes the v1 single-block layout (the
    byte-canonical default); setting it writes a v2 row-group file with
    bounded conversion memory.
    """
    resolved = schema if isinstance(schema, Schema) else schema_for(schema)
    if row_group_rows is not None:
        return write_columnar_stream(iter_jsonl(src, resolved.record_type),
                                     dst, resolved, row_group_rows)
    writer = ColumnarWriter(resolved)
    writer.extend(iter_jsonl(src, resolved.record_type))
    writer.save(dst)
    return writer.rows


def columnar_to_jsonl(src: Union[str, Path],
                      dst: Union[str, Path]) -> int:
    """Convert a columnar trace back to JSONL, streaming row by row.

    Round-trips byte-identically with :func:`jsonl_to_columnar` for any
    trace the JSONL writers produced: values decode to the exact Python
    objects the records held, and ``json.dumps`` is deterministic.
    Reads v2 files one group at a time, so memory stays bounded.
    """
    with RowGroupReader(src) as reader:
        return write_jsonl(reader.iter_records(), dst)


def convert_columnar(src: Union[str, Path], dst: Union[str, Path],
                     row_group_rows: Optional[int] = None,
                     bucket_shards: Optional[int] = None,
                     key_column: str = "qname") -> int:
    """Re-layout a columnar file between v1 and v2 (and pre-bucketing).

    ``row_group_rows=None`` emits v1; a value emits v2 with that group
    budget.  Either direction is value-identical, and the v1 -> v2 ->
    v1 round trip is *byte*-identical: flattening a v2 file re-interns
    strings in first-appearance order, which is exactly the order the
    original v1 writer assigned codes in.  ``bucket_shards`` routes to
    :func:`prebucket_columnar` instead, producing a bucket-tagged v2
    file for row-range replay.
    """
    if bucket_shards is not None:
        return prebucket_columnar(src, dst, bucket_shards, key_column,
                                  row_group_rows)
    with RowGroupReader(src) as reader:
        if row_group_rows is None:
            writer = ColumnarWriter(reader.schema)
            for index in range(reader.group_count):
                store = reader.group(index)
                writer.extend_rows(store)
                store.close()
            return writer.save(dst)
        with GroupedColumnarWriter(reader.schema, dst,
                                   row_group_rows) as out:
            for index in range(reader.group_count):
                store = reader.group(index)
                out.extend_store(store)
                store.close()
        return out.rows


def prebucket_columnar(src: Union[str, Path], dst: Union[str, Path],
                       shards: int, key_column: str = "qname",
                       row_group_rows: Optional[int] = None) -> int:
    """Rewrite a columnar trace with rows grouped by qname bucket.

    Rows land in :func:`stable_bucket` order of ``key_column`` — every
    group of the output belongs to exactly one bucket, buckets appear in
    ascending order, and the header records the bucket count — so
    sharded replay can dispatch disjoint ``(group_start, group_end)``
    ranges instead of having every worker scan the whole file.  Row
    order *within* a bucket is preserved, which keeps replay results
    identical to the flat per-worker bucketing path.

    Streams group by group through per-bucket spill files: peak memory
    is ``shards`` buffered groups, independent of trace length.
    """
    if shards <= 0:
        raise ValueError("shards must be >= 1")
    rows_per_group = row_group_rows or DEFAULT_ROW_GROUP_ROWS
    target = Path(dst)
    with RowGroupReader(src) as reader:
        schema = reader.schema
        spill_paths = [target.with_name(f"{target.name}.bucket{b:02d}")
                       for b in range(shards)]
        spills = [GroupedColumnarWriter(schema, p, rows_per_group)
                  for p in spill_paths]
        try:
            for index in range(reader.group_count):
                store = reader.group(index)
                for b, rows in enumerate(store.row_buckets(key_column,
                                                           shards)):
                    if rows:
                        spills[b].extend_store(store, rows=rows)
                store.close()
        finally:
            for spill in spills:
                spill.close()
        final = GroupedColumnarWriter(schema, target, rows_per_group,
                                      buckets=shards)
        try:
            for b, spill_path in enumerate(spill_paths):
                final.set_bucket(b)
                with RowGroupReader(spill_path) as bucket_reader:
                    for index in range(bucket_reader.group_count):
                        final.copy_group(bucket_reader, index)
        finally:
            final.close()
            for spill_path in spill_paths:
                if spill_path.exists():
                    spill_path.unlink()
        return final.rows


class _MergeCursor:
    """One shard's read position inside the group-granular merge."""

    def __init__(self, reader: RowGroupReader, index: int,
                 ts_column: str) -> None:
        self.reader = reader
        self.index = index
        self.ts_column = ts_column
        self.group_index = -1
        self.store: Optional[ColumnarStore] = None
        self.ts: Any = None
        self.row = 0
        self.code_maps: Dict[str, List[int]] = {}

    def advance_group(self) -> bool:
        """Move to the next non-empty group; False when exhausted."""
        if self.store is not None:
            self.store.close()
            self.store = None
        while self.group_index + 1 < self.reader.group_count:
            self.group_index += 1
            if self.reader.group_rows(self.group_index) == 0:
                continue
            self.store = self.reader.group(self.group_index)
            self.ts = self.store.raw_column(self.ts_column)
            self.row = 0
            # Codes are group-local; a fresh map per group is mandatory.
            self.code_maps = {}
            return True
        return False

    def key(self) -> Tuple[float, int]:
        assert self.store is not None
        return (self.ts[self.row], self.index)


def merge_columnar_shards(paths: Sequence[Union[str, Path]],
                          out_path: Union[str, Path],
                          ts_column: str = "ts",
                          row_group_rows: Optional[int] = None) -> int:
    """Order-stable k-way merge of ts-sorted columnar shard files.

    Rows merge by ``(ts, shard index, row index)`` — ties break toward
    the earlier shard, exactly like
    :func:`repro.datasets.records.merge_jsonl_shards` — so a columnar
    generate merged this way holds the same canonical record order as
    the JSONL route.  Output is byte-identical to the per-row heapq
    reference merge (kept next to its test in ``tests/test_columnar.py``),
    but the walk is
    *run*-granular: whenever the head shard's next rows all sort before
    every other shard's head (found by bisecting the ts column), the
    whole run moves in one vectorized append instead of one heap pop
    per row.  Shards whose ts ranges do not overlap therefore merge at
    group-copy speed; only genuinely interleaved spans pay per-row
    work.

    Inputs may be v1 or v2 but not a mix — mixed format versions raise,
    as do mixed schemas.  ``row_group_rows=None`` writes a v1 file (the
    byte-canonical default for generate); a value writes a v2 row-group
    file with bounded memory, copying whole source groups verbatim when
    a run covers one.  Returns the number of rows written.
    """
    readers = [RowGroupReader(p) for p in paths]
    try:
        schemas = {reader.schema.name for reader in readers}
        if len(schemas) > 1:
            raise ValueError(f"cannot merge mixed schemas: "
                             f"{sorted(schemas)}")
        versions = {reader.format_version for reader in readers}
        if len(versions) > 1:
            raise ValueError(
                f"cannot merge mixed columnar format versions "
                f"{sorted(versions)}: convert the shards to one layout "
                f"first (see convert_columnar)")
        schema = readers[0].schema
        writer: Optional[ColumnarWriter] = None
        grouped: Optional[GroupedColumnarWriter] = None
        if row_group_rows is None:
            writer = ColumnarWriter(schema)
        else:
            grouped = GroupedColumnarWriter(schema, out_path,
                                            row_group_rows)

        def emit(cursor: _MergeCursor, lo: int, hi: int) -> None:
            store = cursor.store
            assert store is not None
            if grouped is not None:
                if (lo == 0 and hi == store.rows
                        and grouped.pending_rows == 0
                        and cursor.reader.format_version
                        == FORMAT_VERSION_V2):
                    grouped.copy_group(cursor.reader, cursor.group_index)
                else:
                    grouped.extend_store(store, lo, hi)
            else:
                assert writer is not None
                writer.extend_rows(store, lo, hi,
                                   code_maps=cursor.code_maps)

        active = [cursor for cursor in
                  (_MergeCursor(reader, index, ts_column)
                   for index, reader in enumerate(readers))
                  if cursor.advance_group()]
        merged_groups = 0
        while active:
            if len(active) == 1:
                cursor = active[0]
                while True:
                    assert cursor.store is not None
                    emit(cursor, cursor.row, cursor.store.rows)
                    merged_groups += 1
                    if not cursor.advance_group():
                        break
                break
            cursor = min(active, key=_MergeCursor.key)
            other = min((c.key() for c in active if c is not cursor))
            assert cursor.store is not None
            # Rows of the head shard that sort before every other head:
            # ties (equal ts) stay with the head only when its shard
            # index is lower, matching the (ts, shard, row) order.
            if cursor.index < other[1]:
                hi = bisect.bisect_right(cursor.ts, other[0], cursor.row,
                                         cursor.store.rows)
            else:
                hi = bisect.bisect_left(cursor.ts, other[0], cursor.row,
                                        cursor.store.rows)
            emit(cursor, cursor.row, hi)
            cursor.row = hi
            if cursor.row >= cursor.store.rows:
                merged_groups += 1
                if not cursor.advance_group():
                    active.remove(cursor)
        record_row_groups("merged", schema.name, merged_groups)
        if grouped is not None:
            grouped.close()
            return grouped.rows
        assert writer is not None
        writer.save(out_path)
        return writer.rows
    finally:
        for reader in readers:
            reader.close()


def concat_columnar_shards(paths: Sequence[Union[str, Path]],
                           out_path: Union[str, Path]) -> int:
    """Pure segment concatenation of shard files, in path order.

    The cheap merge for shards that are already globally ordered (e.g.
    contiguous time windows): numeric segments append bytewise, string
    columns remap codes onto a merged dictionary, null bitmaps re-pack
    at their new row offsets.  No per-row ordering pass.
    """
    stores = [ColumnarStore.open(p) for p in paths]
    try:
        schemas = {store.schema.name for store in stores}
        if len(schemas) > 1:
            raise ValueError(f"cannot concatenate mixed schemas: "
                             f"{sorted(schemas)}")
        writer = ColumnarWriter(stores[0].schema)
        for store in stores:
            writer.extend_store(store)
        writer.save(out_path)
        return writer.rows
    finally:
        for store in stores:
            store.close()
