"""Byte-level storage image of a database.

This is the paper's "untrusted storage": "anyone with physical access to
the machine or storage system holding the actual data can copy or modify
it" (Sect. 1).  The image contains exactly what such an adversary sees —
stored cell payloads, plaintext index structure, encrypted index
payloads — and can be re-loaded (possibly after tampering) to model an
offline attack.

The format is a simple deterministic length-prefixed record stream; the
codecs (and therefore keys) are *not* part of the image — loading
requires supplying them again, mirroring the key handover of Sect. 2.1.
One walk reads it: :func:`parse_image` runs it for both loaders, and
:func:`map_image` charts the offsets it reads for the fault planner.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.engine.btree import BEntry, BNode, BPlusTree
from repro.engine.database import (
    INDEX_KINDS,
    CellCodec,
    Database,
    IndexCodecFactory,
)
from repro.engine.indextable import IndexRow, IndexTable
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.errors import EngineError, ReproError, StorageFormatError
from repro.observability import timed
from repro.observability.audit import AUDIT as _AUDIT
from repro.observability.metrics import REGISTRY as _METRICS
from repro.observability.trace import TRACER as _TRACER

_MAGIC = b"REPRODB1"
_LENGTH = struct.Struct(">I")
_INT = struct.Struct(">q")


def _write_bytes(out: io.BytesIO, data: bytes) -> None:
    out.write(struct.pack(">I", len(data)))
    out.write(data)


def _write_int(out: io.BytesIO, value: int) -> None:
    out.write(struct.pack(">q", value))


def _write_text(out: io.BytesIO, text: str) -> None:
    _write_bytes(out, text.encode("utf-8"))


class _Reader:
    """Cursor over a storage image.

    Every framing failure — truncation, undecodable text, a bad tag —
    raises :class:`~repro.errors.StorageFormatError` carrying the offset
    at which parsing stopped, so that an adversarially modified image
    can never leak a raw ``struct.error`` to callers.

    The image walk reads each structural reference with
    :meth:`read_ref`, each stored payload with :meth:`read_payload`,
    and ends each table row, index row and tree node with
    :meth:`end_record`.  This cursor notes none of them;
    :class:`_ChartingReader` charts them all.
    """

    def __init__(self, data: bytes) -> None:
        self._view = memoryview(data)
        self.offset = 0

    @property
    def remaining(self) -> int:
        return len(self._view) - self.offset

    def read_bytes(self) -> bytes:
        at = self.offset
        if len(self._view) - at < 4:
            raise StorageFormatError(
                "truncated storage image: length prefix cut short", offset=at
            )
        (length,) = _LENGTH.unpack_from(self._view, at)
        self.offset = at = at + 4
        data = bytes(self._view[at:at + length])
        if len(data) != length:
            raise StorageFormatError(
                f"truncated storage image: {length} payload bytes declared, "
                f"{len(data)} present",
                offset=at,
            )
        self.offset = at + length
        return data

    def read_int(self) -> int:
        at = self.offset
        if len(self._view) - at < 8:
            raise StorageFormatError(
                "truncated storage image: integer field cut short", offset=at
            )
        (value,) = _INT.unpack_from(self._view, at)
        self.offset = at + 8
        return value

    #: A root, child, sibling or next-leaf link.
    read_ref = read_int
    #: A stored cell or index entry.
    read_payload = read_bytes

    def end_record(
        self, names: tuple[str, str, str], name: str, key: int, start: int,
        count_at: int,
    ) -> None:
        """The walk has read the record ``key`` of ``name`` that began at
        ``start`` and is counted at ``count_at``; ``names`` is one of
        :data:`_TABLE_ROW`, :data:`_INDEX_ROW` and :data:`_TREE_NODE`."""

    def read_count(self, what: str) -> int:
        """An element count: like :meth:`read_int` but sanity-bounded.

        A flipped bit in a count field must not send the loader into a
        near-endless loop or make it fabricate elements, so counts are
        rejected unless the remaining image could plausibly hold that
        many elements (every element occupies at least one byte).
        """
        at = self.offset
        value = self.read_int()
        if value < 0 or value > self.remaining:
            raise StorageFormatError(
                f"implausible {what} count {value} "
                f"with {self.remaining} bytes remaining",
                offset=at,
            )
        return value

    def read_text(self) -> str:
        at = self.offset
        data = self.read_bytes()
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError:
            raise StorageFormatError(
                "undecodable text field in storage image", offset=at
            ) from None

    def expect(self, tag: bytes) -> None:
        got = bytes(self._view[self.offset:self.offset + len(tag)])
        if got != tag:
            raise StorageFormatError(
                f"bad storage image: expected {tag!r}, got {got!r}",
                offset=self.offset,
            )
        self.offset += len(tag)


@timed("storage.dump")
def dump_database(db: Database) -> bytes:
    """Serialise every table and index to a storage image."""
    if _TRACER.enabled:
        with _TRACER.span("storage.dump") as span:
            image = _dump_database(db)
            span.add_cost("bytes_written", len(image))
            return image
    return _dump_database(db)


def _dump_database(db: Database) -> bytes:
    out = io.BytesIO()
    out.write(_MAGIC)

    _write_int(out, len(db.table_names))
    for name in db.table_names:
        table = db.table(name)
        _write_schema(out, table.schema, table.table_id)
        rows = list(table.scan())
        _write_int(out, table._next_row)
        _write_int(out, len(rows))
        for row_id, cells in rows:
            _write_int(out, row_id)
            for cell in cells:
                _write_bytes(out, cell)

    _write_int(out, len(db.index_names))
    for name in db.index_names:
        info = db.index(name)
        _write_text(out, name)
        _write_text(out, info.table)
        _write_text(out, info.column)
        _write_text(out, info.kind)
        if info.kind == "table":
            _dump_index_table(out, info.structure)
        else:
            _dump_btree(out, info.structure)
    image = out.getvalue()
    _METRICS.histogram("storage.image_bytes").observe(len(image))
    _AUDIT.emit(
        "storage.dump",
        bytes=len(image),
        tables=len(db.table_names),
        indexes=len(db.index_names),
    )
    return image


def _write_schema(out: io.BytesIO, schema: TableSchema, table_id: int) -> None:
    """A table header: name, id and columns (images and journal records)."""
    _write_text(out, schema.name)
    _write_int(out, table_id)
    _write_int(out, len(schema.columns))
    for column in schema.columns:
        _write_text(out, column.name)
        _write_text(out, column.type.value)
        _write_int(out, 1 if column.sensitive else 0)


def _dump_index_table(out: io.BytesIO, index: IndexTable) -> None:
    _write_int(out, index.index_table_id)
    _write_int(out, index.root_id)
    _write_int(out, index._next_row)
    rows = list(index.raw_rows())
    _write_int(out, len(rows))
    for row in rows:
        _write_int(out, row.row_id)
        _write_int(out, 1 if row.is_leaf else 0)
        _write_int(out, row.left)
        _write_int(out, row.right)
        _write_int(out, row.sibling)
        _write_int(out, 1 if row.deleted else 0)
        _write_bytes(out, row.payload)


def _dump_btree(out: io.BytesIO, tree: BPlusTree) -> None:
    _write_int(out, tree.index_table_id)
    _write_int(out, tree.order)
    _write_int(out, tree.root_id)
    _write_int(out, tree._next_node)
    _write_int(out, tree._next_entry_row)
    nodes = [tree.node(node_id) for node_id in sorted(tree._nodes)]
    _write_int(out, len(nodes))
    for node in nodes:
        _write_int(out, node.node_id)
        _write_int(out, 1 if node.is_leaf else 0)
        _write_int(out, node.next_leaf)
        _write_int(out, len(node.children))
        for child in node.children:
            _write_int(out, child)
        _write_int(out, len(node.entries))
        for entry in node.entries:
            _write_int(out, entry.row_id)
            _write_bytes(out, entry.payload)


@timed("storage.load")
def load_database(
    image: bytes,
    cell_codec: CellCodec | None = None,
    index_codec_factory: IndexCodecFactory | None = None,
) -> Database:
    """Reconstruct a database from a storage image, failing closed.

    The codecs (i.e. the keys) must be supplied by the caller; the image
    itself contains only what untrusted storage holds.  Any anomaly
    :func:`parse_image` finds raises — the earliest in image order, as a
    :class:`~repro.errors.StorageFormatError` carrying its offset.
    """
    if _TRACER.enabled:
        with _TRACER.span("storage.load") as span:
            span.add_cost("bytes_read", len(image))
            return _load_database(image, cell_codec, index_codec_factory)
    return _load_database(image, cell_codec, index_codec_factory)


def _load_database(
    image: bytes,
    cell_codec: CellCodec | None = None,
    index_codec_factory: IndexCodecFactory | None = None,
) -> Database:
    parsed = parse_image(image, cell_codec, index_codec_factory)
    parsed.check()
    db = parsed.database
    _AUDIT.emit(
        "storage.load",
        bytes=len(image),
        tables=len(db.table_names),
        indexes=len(db.index_names),
    )
    return db


# ---------------------------------------------------------------------------
# The image parser (shared by the strict and the resilient loader)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Anomaly:
    """One way an image departs from what :func:`dump_database` writes.

    ``kind`` is an integrity issue kind: ``record-structural`` for a
    record the parser stepped over, ``image-structural`` for trailing
    bytes or for the lost framing that ended the parse (``cause`` is
    then the exception that ended it).
    """

    offset: int
    kind: str
    where: str
    detail: str
    cause: Exception | None = None

    def error(self) -> Exception:
        """What the strict loader raises for this anomaly."""
        return self.cause or StorageFormatError(self.detail, offset=self.offset)


@dataclass
class ParsedImage:
    """Everything one pass over an image found.

    ``database`` holds every table, row and index the parser could
    build; each record it stepped over is left out and named in
    ``anomalies``, in image order.
    """

    database: Database
    anomalies: list[Anomaly] = field(default_factory=list)
    #: Row records left out as duplicates of an earlier record or table.
    duplicate_rows: list[str] = field(default_factory=list)
    #: Rows the image declares behind the point where framing was lost.
    rows_lost: int = 0
    #: (name, table, column, kind) of indexes read but not built: an
    #: unknown table or column, a tree order below 3, or a body cut off
    #: by lost framing.
    unbuilt: list[tuple[str, str, str, str]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """False when lost framing ended the parse early."""
        return not any(anomaly.cause for anomaly in self.anomalies)

    def note(self, offset: int, where: str, detail: str) -> None:
        self.anomalies.append(Anomaly(offset, "record-structural", where, detail))

    def check(self) -> None:
        """Raise what the strict loader raises: the earliest anomaly."""
        if self.anomalies:
            raise min(self.anomalies, key=lambda anomaly: anomaly.offset).error()


def parse_image(
    image: bytes,
    cell_codec: CellCodec | None = None,
    index_codec_factory: IndexCodecFactory | None = None,
) -> ParsedImage:
    """Parse an image, stepping over every anomaly that keeps the framing.

    Never raises on bad input.  The checks: magic, framing and count
    bounds, column types, index kinds, a duplicate table, row, index
    name, index row or tree node (the first copy wins), an id counter at
    or below a stored id (raised past it; the row counter of a table or
    index table, the node and entry counters of a B⁺-tree), a tree order
    below 3, an index naming an unknown table or column, and trailing
    bytes.  The parse stops only where the framing is lost.
    """
    return _walk(_Reader(image), Database(cell_codec, index_codec_factory))


def _walk(reader: _Reader, db: Database) -> ParsedImage:
    """The one walk over an image: every record into ``db``."""
    parsed = ParsedImage(db)
    try:
        reader.expect(_MAGIC)
        for _ in range(reader.read_count("table")):
            _read_table(reader, parsed)
        names: set[str] = set()
        for _ in range(reader.read_count("index")):
            _read_index(reader, parsed, names)
        if reader.remaining:
            parsed.anomalies.append(Anomaly(
                reader.offset, "image-structural", f"offset {reader.offset}",
                f"{reader.remaining} trailing byte(s) after the last index record",
            ))
    except Exception as exc:
        detail = (
            str(exc) if isinstance(exc, ReproError)
            else f"unexpected {type(exc).__name__}: {exc}"
        )
        parsed.anomalies.append(Anomaly(
            reader.offset, "image-structural", f"offset {reader.offset}",
            detail, cause=exc,
        ))
    return parsed


def _read_schema(reader: _Reader) -> tuple[TableSchema, int]:
    """Inverse of :func:`_write_schema`."""
    name = reader.read_text()
    table_id = reader.read_int()
    column_count = reader.read_count("column")
    columns = []
    for _ in range(column_count):
        column_name = reader.read_text()
        type_name = reader.read_text()
        try:
            column_type = ColumnType(type_name)
        except ValueError:
            raise StorageFormatError(
                f"unknown column type {type_name!r}", offset=reader.offset
            ) from None
        sensitive = reader.read_int() == 1
        columns.append(Column(column_name, column_type, sensitive))
    try:
        return TableSchema(name, columns), table_id
    except EngineError as exc:
        raise StorageFormatError(
            f"unusable table schema: {exc}", offset=reader.offset
        ) from None


def _read_table(reader: _Reader, parsed: ParsedImage) -> None:
    db = parsed.database
    at = reader.offset
    schema, table_id = _read_schema(reader)
    name = schema.name
    duplicate = name in db.table_names
    if duplicate:
        parsed.note(at, name, f"duplicate table {name!r}")
        rows: dict[int, list[bytes]] = {}
    else:
        table = db.create_table(schema)
        table.table_id = table_id
        rows = table._rows
    counter_at = reader.offset
    next_row = reader.read_int()
    count_at = reader.offset
    row_count = reader.read_count("row")
    for done in range(row_count):
        at = reader.offset
        try:
            row_id = reader.read_int()
            cells = [reader.read_payload() for _ in schema.columns]
        except StorageFormatError:
            parsed.rows_lost += row_count - done
            raise
        reader.end_record(_TABLE_ROW, name, row_id, at, count_at)
        if row_id in rows:
            # A replayed record: ids are allocated once and never reused.
            parsed.note(
                at, f"{name}(r={row_id})", f"duplicate row {row_id} in table {name!r}"
            )
            parsed.duplicate_rows.append(f"{name}(r={row_id})#dup")
        else:
            rows[row_id] = cells
    next_row = _counter_past(
        parsed, counter_at, name, f"row counter {next_row} of table {name!r}",
        next_row, rows,
    )
    if duplicate:
        parsed.duplicate_rows.extend(f"{name}~dup(r={row_id})" for row_id in rows)
    else:
        table._next_row = next_row


def _read_index(reader: _Reader, parsed: ParsedImage, names: set[str]) -> None:
    db = parsed.database
    at = reader.offset
    name = reader.read_text()
    table_name = reader.read_text()
    column_name = reader.read_text()
    kind = reader.read_text()
    if kind not in INDEX_KINDS:
        raise StorageFormatError(f"unknown index kind {kind!r}", offset=reader.offset)
    definition = (name, table_name, column_name, kind)
    usable = False
    if name in names:
        parsed.note(at, f"idx:{name}", f"duplicate index {name!r}")
    elif (
        table_name not in db.table_names
        or column_name not in db.table(table_name).schema.column_names
    ):
        parsed.note(
            at, f"idx:{name}",
            f"index {name!r} references unknown table/column "
            f"{table_name!r}.{column_name!r}",
        )
        parsed.unbuilt.append(definition)
    else:
        usable = True
    names.add(name)

    try:
        index_table_id = reader.read_int()
        order = 8
        if kind == "btree":
            order_at = reader.offset
            order = reader.read_int()
            if order < 3:
                parsed.note(order_at, f"idx:{name}", f"implausible tree order {order}")
            restore = _read_btree(reader, parsed, name)
        else:
            restore = _read_index_table(reader, parsed, name)
    except StorageFormatError:
        if usable:
            parsed.unbuilt.append(definition)
        raise
    if usable and order < 3:
        parsed.unbuilt.append(definition)
    elif usable:
        restore(db.register_index(
            name, table_name, column_name, kind, order, index_table_id
        ).structure)


def _read_index_table(
    reader: _Reader, parsed: ParsedImage, name: str
) -> Callable[[IndexTable], None]:
    """An index-table body after its id; returns how to restore it."""
    root = reader.read_ref()
    counter_at = reader.offset
    next_row = reader.read_int()
    count_at = reader.offset
    rows: dict[int, IndexRow] = {}
    for _ in range(reader.read_count("index row")):
        at = reader.offset
        row = IndexRow(
            row_id=reader.read_int(), is_leaf=reader.read_int() == 1, payload=b""
        )
        row.left = reader.read_ref()
        row.right = reader.read_ref()
        row.sibling = reader.read_ref()
        row.deleted = reader.read_int() == 1
        row.payload = reader.read_payload()
        reader.end_record(_INDEX_ROW, name, row.row_id, at, count_at)
        if row.row_id in rows:
            parsed.note(
                at, f"idx:{name}[{row.row_id}]", f"duplicate index row {row.row_id}"
            )
        else:
            rows[row.row_id] = row
    next_row = _counter_past(
        parsed, counter_at, f"idx:{name}",
        f"row counter {next_row} of index {name!r}", next_row, rows,
    )

    def restore(index: IndexTable) -> None:
        index._root, index._next_row, index._rows = root, next_row, rows

    return restore


def _read_btree(
    reader: _Reader, parsed: ParsedImage, name: str
) -> Callable[[BPlusTree], None]:
    """A B+-tree body after its id and order; returns how to restore it."""
    root = reader.read_ref()
    counter_at = reader.offset
    next_node = reader.read_int()
    next_entry_row = reader.read_int()
    count_at = reader.offset
    nodes: dict[int, BNode] = {}
    for _ in range(reader.read_count("node")):
        at = reader.offset
        node = BNode(node_id=reader.read_int(), is_leaf=reader.read_int() == 1)
        node.next_leaf = reader.read_ref()
        child_count = reader.read_count("child")
        node.children = [reader.read_ref() for _ in range(child_count)]
        entry_count = reader.read_count("entry")
        node.entries = [
            BEntry(reader.read_int(), reader.read_payload())
            for _ in range(entry_count)
        ]
        reader.end_record(_TREE_NODE, name, node.node_id, at, count_at)
        if node.node_id in nodes:
            parsed.note(
                at, f"idx:{name}[n{node.node_id}]",
                f"duplicate tree node {node.node_id}",
            )
        else:
            nodes[node.node_id] = node
    next_node = _counter_past(
        parsed, counter_at, f"idx:{name}",
        f"node counter {next_node} of index {name!r}", next_node, nodes,
    )
    next_entry_row = _counter_past(
        parsed, counter_at + 8, f"idx:{name}",
        f"entry counter {next_entry_row} of index {name!r}", next_entry_row,
        (entry.row_id for node in nodes.values() for entry in node.entries),
    )

    def restore(tree: BPlusTree) -> None:
        tree._root, tree._next_node, tree._next_entry_row = (
            root, next_node, next_entry_row
        )
        tree._nodes = nodes

    return restore


def _counter_past(
    parsed: ParsedImage, at: int, where: str, what: str, counter: int,
    ids: Iterable[int],
) -> int:
    """``counter`` raised past every stored id in ``ids``.

    A counter at or below a stored id would let the next allocation
    overwrite that record, so ``what`` is noted as an anomaly at ``at``.
    """
    top = max(ids, default=None)
    if top is None or counter > top:
        return counter
    parsed.note(at, where, f"{what} at or below stored id {top}")
    return top + 1


# ---------------------------------------------------------------------------
# Image cartography: where the walk found each part of an image
# ---------------------------------------------------------------------------

def map_image(image: bytes) -> ImageMap:
    """Chart where :func:`parse_image` finds each payload, record and
    structural reference of ``image``.

    The chart describes the bytes the loader reads, so an image the
    strict loader refuses is not charted: this raises what
    :func:`load_database` raises for it.
    """
    reader = _ChartingReader(image)
    _walk(reader, Database()).check()
    return reader.chart


#: How a chart names a table row, an index row and a tree node: the
#: record, each payload in it and the payloads' swap group, formatted
#: with the table or index name, the record's id and the payload's slot.
_TABLE_ROW = ("{0}(r={1})", "{0}(r={1},c={2})", "cell:{0}:{2}")
_INDEX_ROW = ("idx:{0}[{1}]", "idx:{0}[{1}]", "index:{0}")
_TREE_NODE = ("idx:{0}[n{1}]", "idx:{0}[n{1}.{2}]", "index:{0}")


@dataclass(frozen=True)
class PayloadSpan:
    """One stored payload: where its bytes live inside the image.

    ``start``/``end`` delimit the payload proper; the 4-octet length
    prefix sits at ``start - 4``.  ``where`` is a human-readable
    position ("t(r=3,c=1)" or "idx:name[7]"), ``group`` names the
    payload population it may be swapped within.
    """

    where: str
    group: str
    start: int
    end: int

    @property
    def prefix_start(self) -> int:
        return self.start - 4

    def __len__(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class RecordSpan:
    """One whole variable-length record plus the count field framing it."""

    where: str
    start: int
    end: int
    count_offset: int  # offset of the 8-octet count governing this record


@dataclass
class ImageMap:
    """Byte cartography of one well-formed storage image."""

    size: int
    payloads: list[PayloadSpan] = field(default_factory=list)
    records: list[RecordSpan] = field(default_factory=list)
    #: (offset, current value) of every 8-octet structural reference.
    pointers: list[tuple[int, int]] = field(default_factory=list)


class _ChartingReader(_Reader):
    """The cursor :func:`map_image` walks an image with: it notes each
    structural reference, payload and record into :attr:`chart`."""

    def __init__(self, data: bytes) -> None:
        super().__init__(data)
        self.chart = ImageMap(len(data))
        #: (start, end) of each payload of the record being read.
        self._payloads: list[tuple[int, int]] = []

    def read_ref(self) -> int:
        at = self.offset
        value = self.read_int()
        self.chart.pointers.append((at, value))
        return value

    def read_payload(self) -> bytes:
        data = self.read_bytes()
        self._payloads.append((self.offset - len(data), self.offset))
        return data

    def end_record(
        self, names: tuple[str, str, str], name: str, key: int, start: int,
        count_at: int,
    ) -> None:
        record, payload, group = names
        self.chart.payloads += [
            PayloadSpan(
                payload.format(name, key, slot), group.format(name, key, slot),
                begin, end,
            )
            for slot, (begin, end) in enumerate(self._payloads)
        ]
        self._payloads.clear()
        self.chart.records.append(
            RecordSpan(record.format(name, key), start, self.offset, count_at)
        )
