"""The database engine: tables, indexes, and cell-codec plumbing.

The same engine hosts the plaintext baseline and every encrypted
configuration.  What varies is:

* the **cell codec** — how a cell's encoded value is transformed before
  it reaches storage (identity for the plain database; the [3] schemes
  or the AEAD fix for the encrypted ones), and
* the **index codec** — how index entries are stored ([3] eqs. 4–5,
  [12] eq. 7, or the fixed eqs. 25–26).

This mirrors the paper's structure-preservation property: encryption
changes only cell contents and index-key payloads, never the shape of
tables or indexes, so the engine code is oblivious to it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Any, Callable, Iterator, Sequence

from repro.engine.btree import BPlusTree
from repro.engine.codec import IndexEntryCodec, PlainEntryCodec, VerifiedPlaintexts
from repro.engine.indextable import IndexTable
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.table import CellAddress, Table
from repro.errors import (
    NoSuchIndexError,
    NoSuchTableError,
    SchemaError,
    StorageFormatError,
)
from repro.observability import timed
from repro.observability.audit import AUDIT
from repro.observability.trace import TRACER


class CellCodec(ABC):
    """Transforms a cell's canonical encoding to/from its stored form."""

    name: str

    @abstractmethod
    def encode_cell(self, plaintext: bytes, address: CellAddress) -> bytes:
        """Stored form of a cell value at a given address."""

    @abstractmethod
    def decode_cell(self, stored: bytes, address: CellAddress) -> bytes:
        """Recover the canonical encoding; verifies whatever the scheme
        authenticates and raises on failure."""

    # The two batch names are plain loops over the per-cell methods,
    # overridden nowhere and called from nowhere in the package.  They
    # stay only because ``perfbench/tracing.py`` wraps them by name on
    # ``AeadCellScheme``; that tracer also wraps the per-cell methods, so
    # a call through a loop would count each cell twice.

    def encode_cells(self, items: Sequence[tuple[bytes, CellAddress]]) -> list[bytes]:
        """``encode_cell`` over ``(plaintext, address)`` pairs, in order."""
        return [self.encode_cell(plaintext, address) for plaintext, address in items]

    def decode_cells(self, items: Sequence[tuple[bytes, CellAddress]]) -> list[bytes]:
        """``decode_cell`` over ``(stored, address)`` pairs, in order; the
        first failure raises, as :meth:`decode_cell` does."""
        return [self.decode_cell(stored, address) for stored, address in items]


class PlainCellCodec(CellCodec):
    """Identity codec: the unencrypted baseline."""

    name = "plain"

    def encode_cell(self, plaintext: bytes, address: CellAddress) -> bytes:
        return plaintext

    def decode_cell(self, stored: bytes, address: CellAddress) -> bytes:
        return stored


#: Builds a fresh index codec given (index_table_id, indexed_table_id,
#: indexed_column_position) — everything Ref_S construction needs.
IndexCodecFactory = Callable[[int, int, int], IndexEntryCodec]


@dataclass
class IndexInfo:
    """Registry record of one secondary index.

    ``quarantined`` marks an index the recovery loader could not verify
    (see :mod:`repro.robustness.recovery`); a quarantined index is
    skipped by query planning and maintenance until rebuilt, so queries
    degrade to a verified full scan instead of reading tampered entries.
    """

    name: str
    table: str
    column: str
    structure: IndexTable | BPlusTree
    quarantined: bool = False

    @property
    def kind(self) -> str:
        return "table" if isinstance(self.structure, IndexTable) else "btree"


#: The ``kind`` names of the two index structures.
INDEX_KINDS = ("table", "btree")

#: The write records of :meth:`Database.apply` (and the ``op`` of every
#: journal record that carries an engine mutation).
OP_CREATE_TABLE = "create_table"
OP_CREATE_INDEX = "create_index"
OP_INSERT = "insert"
OP_UPDATE = "update"
OP_DELETE = "delete"


class Database:
    """Tables plus secondary indexes behind one typed API.

    ``kind`` of an index selects the structure: ``"table"`` for the
    binary table-representation of [3] (:class:`IndexTable`) or
    ``"btree"`` for the d-ary B⁺-tree (:class:`BPlusTree`).

    Each mutation validates its input, does its codec work, and hands one
    write record ``(op, fields)`` to the optional :attr:`write_ahead` hook
    (the durable manager's journal) and then to :meth:`apply`.
    """

    def __init__(
        self,
        cell_codec: CellCodec | None = None,
        index_codec_factory: IndexCodecFactory | None = None,
    ) -> None:
        self.cell_codec = cell_codec if cell_codec is not None else PlainCellCodec()
        self._index_codec_factory = index_codec_factory or (
            lambda index_table_id, table_id, column_pos: PlainEntryCodec()
        )
        self._tables: dict[str, Table] = {}
        self._indexes: dict[str, IndexInfo] = {}
        #: Called as ``write_ahead(op, fields)`` before each record is applied.
        self.write_ahead: Callable[[str, tuple], None] | None = None

    # -- schema ---------------------------------------------------------------

    @property
    def cell_codec(self) -> CellCodec:
        """The raw codec: a decode through it is never answered from the
        database's verified cell plaintexts."""
        return self._cell_codec

    @cell_codec.setter
    def cell_codec(self, codec: CellCodec) -> None:
        # Nothing verified under the old codec's key carries over.
        self._cell_codec = codec
        self._verified_cells = VerifiedPlaintexts("db.cell_cache")

    @property
    def next_table_id(self) -> int:
        """The id the next table or index structure receives: one past
        every id in use, so ids are never reused."""
        ids = [table.table_id for table in self._tables.values()]
        ids += [info.structure.index_table_id for info in self._indexes.values()]
        return max(ids, default=0) + 1

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        return self._write(OP_CREATE_TABLE, schema, self.next_table_id)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise NoSuchTableError(f"no table named {name!r}") from None

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def telemetry_sample(self) -> list[tuple[str, dict, float]]:
        """Deterministic gauges for the telemetry hub's pull samplers:
        per-table row counts and the quarantined-index count.  Logical
        state only — never wall time — so seeded runs sample
        identically."""
        samples: list[tuple[str, dict, float]] = [
            ("db.rows", {"table": name}, float(len(self._tables[name].row_ids)))
            for name in self.table_names
        ]
        if self._indexes:
            quarantined = sum(
                1 for info in self._indexes.values() if info.quarantined
            )
            samples.append(("db.indexes.quarantined", {}, float(quarantined)))
        return samples

    @timed("db.create_index")
    def create_index(
        self, name: str, table_name: str, column_name: str, kind: str = "table",
        order: int = 8,
    ) -> IndexInfo:
        """Create (and backfill) a secondary index on one column."""
        if name in self._indexes:
            raise SchemaError(f"index {name!r} already exists")
        if kind not in INDEX_KINDS:
            raise SchemaError(f"unknown index kind {kind!r}")
        table = self.table(table_name)
        column_pos = table.schema.column_index(column_name)
        row_ids = table.row_ids
        # Decode before the record: a cell that fails leaves no index behind.
        plains = [self._plain_cell(table, row_id, column_pos) for row_id in row_ids]
        info = self._write(
            OP_CREATE_INDEX, name, table_name, column_name, kind, order,
            self.next_table_id,
        )
        info.structure.bulk_build(list(zip(plains, row_ids)))
        return info

    def register_index(
        self,
        name: str,
        table_name: str,
        column_name: str,
        kind: str = "table",
        order: int = 8,
        index_table_id: int | None = None,
    ) -> IndexInfo:
        """Catalog a new, empty index.

        The one place an index enters the catalog.  The structure gets a
        fresh codec from the factory and no entries: :meth:`create_index`
        backfills it, the image parser restores the stored rows or nodes
        into it, and WAL replay leaves it for the end-of-replay rebuild.
        ``index_table_id`` keeps an id an image or journal record already
        assigned; by default the next free id is allocated.
        """
        if name in self._indexes:
            raise SchemaError(f"index {name!r} already exists")
        table = self.table(table_name)
        column_pos = table.schema.column_index(column_name)
        if index_table_id is None:
            index_table_id = self.next_table_id
        structure = self._new_structure(kind, index_table_id, table, column_pos, order)
        info = IndexInfo(name, table_name, column_name, structure)
        self._indexes[name] = info
        return info

    def rebuild_index(
        self, name: str, pairs: list[tuple[bytes, int]], fresh_id: bool = False
    ) -> IndexInfo:
        """Swap in a structure of the same kind and order, built from
        (key, row) pairs under a fresh codec, and lift any quarantine.

        ``fresh_id`` moves the index to a newly allocated index table id,
        so its entries cannot be confused with the discarded structure's.
        """
        info = self.index(name)
        table = self.table(info.table)
        old = info.structure
        structure = self._new_structure(
            info.kind,
            self.next_table_id if fresh_id else old.index_table_id,
            table,
            table.schema.column_index(info.column),
            getattr(old, "order", 8),
        )
        structure.bulk_build(pairs)
        info.structure = structure
        info.quarantined = False
        return info

    def _new_structure(
        self, kind: str, index_table_id: int, table: Table, column_pos: int,
        order: int,
    ) -> IndexTable | BPlusTree:
        codec = self._index_codec_factory(index_table_id, table.table_id, column_pos)
        if kind == "table":
            return IndexTable(index_table_id, codec)
        if kind == "btree":
            return BPlusTree(index_table_id, codec, order=order)
        raise SchemaError(f"unknown index kind {kind!r}")

    def index(self, name: str) -> IndexInfo:
        try:
            return self._indexes[name]
        except KeyError:
            raise NoSuchIndexError(f"no index named {name!r}") from None

    @property
    def index_names(self) -> list[str]:
        return sorted(self._indexes)

    def indexes_on(self, table_name: str, column_name: str) -> list[IndexInfo]:
        """Usable (non-quarantined) indexes over one column."""
        return [
            info
            for info in self._indexes.values()
            if info.table == table_name and info.column == column_name
            and not info.quarantined
        ]

    def quarantined_indexes_on(
        self, table_name: str, column_name: str
    ) -> list[IndexInfo]:
        """Indexes over one column that are present but quarantined."""
        return [
            info
            for info in self._indexes.values()
            if info.table == table_name and info.column == column_name
            and info.quarantined
        ]

    def quarantine_index(self, name: str) -> IndexInfo:
        """Mark an index untrustworthy; queries fall back to verified scans.

        Used by the resilient loader when an index fails verification and
        cannot (or should not) be rebuilt in place.
        """
        info = self.index(name)
        info.quarantined = True
        return info

    # -- data manipulation -----------------------------------------------------

    @timed("db.insert")
    def insert(self, table_name: str, values: Sequence[Any]) -> int:
        """Insert a typed row; cells pass through the cell codec and every
        index on the table is maintained."""
        table = self.table(table_name)
        plain_cells = table.schema.encode_row(values)
        # Addresses bind row ids: encode against the id apply() allocates.
        row_id = table.next_row_id
        stored = [
            self._stored_form(table, pos, plain, table.address(row_id, pos))
            for pos, plain in enumerate(plain_cells)
        ]
        self._write(OP_INSERT, table_name, row_id, stored)
        self._index_row(table, row_id, plain_cells)
        return row_id

    @timed("db.insert_many")
    def insert_many(
        self, table_name: str, rows: Sequence[Sequence[Any]]
    ) -> list[int]:
        """Insert many typed rows; storage is byte-identical to
        ``[self.insert(table_name, r) for r in rows]``.

        Every row's cells are encoded first, row-major against the row ids
        the records will take; then each row is one insert record, and
        index maintenance runs per row in the same order.
        """
        table = self.table(table_name)
        encoded_rows = [table.schema.encode_row(values) for values in rows]
        row_ids = [table.next_row_id + n for n in range(len(encoded_rows))]
        stored_rows = [
            [
                self._stored_form(table, pos, plain, table.address(row_id, pos))
                for pos, plain in enumerate(cells)
            ]
            for row_id, cells in zip(row_ids, encoded_rows)
        ]
        written = 0
        try:
            for row_id, stored in zip(row_ids, stored_rows):
                self._write(OP_INSERT, table_name, row_id, stored)
                written += 1
        finally:
            # Rows already written stay indexed if a later record fails.
            for row_id, cells in zip(row_ids[:written], encoded_rows):
                self._index_row(table, row_id, cells)
        return row_ids

    def get_row(self, table_name: str, row_id: int) -> list[Any]:
        """Read one row back through the cell codec (verifying)."""
        table = self.table(table_name)
        cells = [
            self._plain_cell(table, row_id, column_pos)
            for column_pos in range(len(table.schema.columns))
        ]
        return table.schema.decode_row(cells)

    def get_value(self, table_name: str, row_id: int, column_name: str) -> Any:
        table = self.table(table_name)
        column_pos = table.schema.column_index(column_name)
        plain = self._plain_cell(table, row_id, column_pos)
        return table.schema.columns[column_pos].decode(plain)

    def get_cell_plaintext(
        self, table_name: str, row_id: int, column_name: str
    ) -> bytes:
        """The cell's canonical byte encoding after codec verification.

        This is the observable the authenticity goals of [3]/[12] are
        about: whether the *encryption layer* accepts the stored bytes.
        (Typed decoding on top may still reject garbled-but-accepted
        plaintexts for incidental reasons like invalid UTF-8 — that is
        data-type redundancy, not cryptographic integrity.)
        """
        table = self.table(table_name)
        column_pos = table.schema.column_index(column_name)
        return self._plain_cell(table, row_id, column_pos)

    @timed("db.update")
    def update_value(
        self, table_name: str, row_id: int, column_name: str, value: Any
    ) -> None:
        table = self.table(table_name)
        column_pos = table.schema.column_index(column_name)
        column = table.schema.columns[column_pos]
        old_plain = self._plain_cell(table, row_id, column_pos)
        new_plain = column.encode(value)
        address = table.address(row_id, column_pos)
        stored = self._stored_form(table, column_pos, new_plain, address)
        self._write(OP_UPDATE, table_name, row_id, column_pos, stored)
        for info in self.indexes_on(table_name, column_name):
            info.structure.delete(old_plain, row_id)
            info.structure.insert(new_plain, row_id)

    @timed("db.delete")
    def delete_row(self, table_name: str, row_id: int) -> None:
        table = self.table(table_name)
        table.get_row(row_id)  # raises NoSuchRowError before the record
        index_plains = [
            (info, self._plain_cell(
                table, row_id, table.schema.column_index(info.column)
            ))
            for info in self._table_indexes(table_name)
        ]
        self._write(OP_DELETE, table_name, row_id)
        for info, plain in index_plains:
            info.structure.delete(plain, row_id)

    def apply(self, op: str, *fields: Any) -> Any:
        """Apply one write record: the one place a mutation reaches the
        catalog or a table.

        Physical only (stored cells, no index maintenance), so WAL replay
        runs journaled records through it as they are.  A record's ids
        must be the ones this database allocates next, or it raises
        :class:`~repro.errors.StorageFormatError`.  Returns the new
        :class:`Table` or :class:`IndexInfo`, or the record's row id.
        """
        if op in (OP_CREATE_TABLE, OP_CREATE_INDEX):
            new_id = fields[-1]
            if new_id != self.next_table_id:
                raise StorageFormatError(
                    f"{op} record says id {new_id}, "
                    f"database allocates {self.next_table_id}"
                )
            if op == OP_CREATE_INDEX:
                return self.register_index(*fields)
            schema = fields[0]
            if schema.name in self._tables:
                raise SchemaError(f"table {schema.name!r} already exists")
            table = self._tables[schema.name] = Table(new_id, schema)
            return table
        if op not in (OP_INSERT, OP_UPDATE, OP_DELETE):
            raise StorageFormatError(f"unknown write op {op!r}")
        table_name, row_id, *rest = fields
        table = self.table(table_name)
        if op == OP_DELETE:
            table.delete_row(row_id)
        elif op == OP_UPDATE:
            column_pos, stored = rest
            table.set_cell(row_id, column_pos, stored)
        else:
            (cells,) = rest
            if row_id != table.next_row_id:
                raise StorageFormatError(
                    f"insert into {table_name!r} says row {row_id}, "
                    f"table allocates {table.next_row_id}"
                )
            # set_cell counts each write and charges its bytes to the trace.
            table.insert_cells([b""] * len(cells))
            for column_pos, cell in enumerate(cells):
                table.set_cell(row_id, column_pos, cell)
        return row_id

    # -- queries ---------------------------------------------------------------
    # Each query kind states one key interval over the order-preserving cell
    # encoding (``None`` leaves an end open), and :meth:`_select` answers it.

    @timed("db.query.point")
    def select_equals(
        self, table_name: str, column_name: str, value: Any
    ) -> list[tuple[int, list[Any]]]:
        """Point query ``[value, value]``; uses an index when one exists,
        else a verified scan."""
        return self._select(
            "point", table_name, column_name,
            lambda column: (column.encode(value),) * 2,
        )

    @timed("db.query.range")
    def select_range(
        self, table_name: str, column_name: str, low: Any, high: Any
    ) -> list[tuple[int, list[Any]]]:
        """Range query (inclusive); index-backed when possible."""
        return self._select(
            "range", table_name, column_name,
            lambda column: (column.encode(low), column.encode(high)),
        )

    @timed("db.query.prefix")
    def select_prefix(
        self, table_name: str, column_name: str, prefix: str
    ) -> list[tuple[int, list[Any]]]:
        """Prefix query on a TEXT column (``LIKE 'prefix%'``).

        Implemented as the byte range [prefix, prefix ∥ 0xFF…]: the
        schema's order-preserving encoding makes every string with the
        prefix fall inside it, and UTF-8 never contains 0xFF, so no
        other string does.  Index-backed when possible.
        """
        def interval(column: Column) -> tuple[bytes, bytes]:
            if column.type is not ColumnType.TEXT:
                raise SchemaError("prefix queries require a TEXT column")
            low = prefix.encode("utf-8")
            return low, low + b"\xff" * 8

        return self._select("prefix", table_name, column_name, interval)

    @timed("db.query.at_least")
    def select_at_least(
        self, table_name: str, column_name: str, low: Any
    ) -> list[tuple[int, list[Any]]]:
        """Open-ended range query: ``column >= low``."""
        return self._select(
            "at_least", table_name, column_name,
            lambda column: (column.encode(low), None),
        )

    @timed("db.query.at_most")
    def select_at_most(
        self, table_name: str, column_name: str, high: Any
    ) -> list[tuple[int, list[Any]]]:
        """Open-ended range query: ``column <= high``."""
        return self._select(
            "at_most", table_name, column_name,
            lambda column: (None, column.encode(high)),
        )

    def scan(self, table_name: str) -> Iterator[tuple[int, list[Any]]]:
        """Full decoded scan of a table."""
        table = self.table(table_name)
        for row_id, _ in table.scan():
            yield row_id, self.get_row(table_name, row_id)

    def count(self, table_name: str) -> int:
        return len(self.table(table_name))

    # -- internals ---------------------------------------------------------------

    def _write(self, op: str, *fields: Any) -> Any:
        """Hand one write record to the hook, then apply it."""
        if self.write_ahead is not None:
            self.write_ahead(op, fields)
        return self.apply(op, *fields)

    def _table_indexes(self, table_name: str) -> list[IndexInfo]:
        return [
            info for info in self._indexes.values()
            if info.table == table_name and not info.quarantined
        ]

    def _index_row(self, table: Table, row_id: int, plain_cells: list[bytes]) -> None:
        for info in self._table_indexes(table.schema.name):
            column_pos = table.schema.column_index(info.column)
            info.structure.insert(plain_cells[column_pos], row_id)

    def _stored_form(
        self, table: Table, column_pos: int, plain: bytes, address: CellAddress
    ) -> bytes:
        if table.schema.columns[column_pos].sensitive:
            if TRACER.enabled:
                with TRACER.span("cell.encrypt", table=table.schema.name) as span:
                    stored = self._cell_codec.encode_cell(plain, address)
                    span.add_cost("plain_bytes", len(plain))
                    span.add_cost("stored_bytes", len(stored))
                    return stored
            return self._cell_codec.encode_cell(plain, address)
        return plain

    def _plain_cell(self, table: Table, row_id: int, column_pos: int) -> bytes:
        """A cell's verified plaintext, remembered under the fields of its
        :class:`CellAddress`.  Only a successful decode fills the cache:
        the [3] XOR-Scheme decodes a short value zero-extended, so what an
        encode was given is not what decoding returns."""
        stored = table.get_cell(row_id, column_pos)
        if not table.schema.columns[column_pos].sensitive:
            return stored
        # A tuple of ints hashes without a Python-level call, and the
        # CellAddress is built only when the codec runs.
        address = (table.table_id, row_id, column_pos)
        if not TRACER.enabled:
            return self._verified_cells.decode(stored, address, self._decode_cell)

        def traced(stored: bytes, address: tuple[int, int, int]) -> bytes:
            with TRACER.span("cell.decrypt", table=table.schema.name) as span:
                span.add_cost("stored_bytes", len(stored))
                return self._decode_cell(stored, address)

        return self._verified_cells.decode(stored, address, traced)

    def _decode_cell(self, stored: bytes, address: tuple[int, int, int]) -> bytes:
        return self._cell_codec.decode_cell(stored, CellAddress(*address))

    def _select(
        self,
        op: str,
        table_name: str,
        column_name: str,
        bounds: Callable[[Column], tuple[bytes | None, bytes | None]],
    ) -> list[tuple[int, list[Any]]]:
        """Rows whose ``column_name`` cell lies in the key interval that
        ``bounds`` makes of the column, in index order from the first
        usable index (equal keys in row order), else in row order from a
        verified scan."""
        AUDIT.emit("query.begin", op=op, table=table_name, column=column_name)
        try:
            table = self.table(table_name)
            low, high = bounds(table.schema.column(column_name))
            indexes = self.indexes_on(table_name, column_name)
            if indexes:
                hits = indexes[0].structure.range_search(low or b"", high)
                # Equal keys answer in row order, whatever the index's
                # history; distinct keys keep the index's order, so a
                # tampered index's out-of-order answer stays visible.
                row_ids = [
                    row_id
                    for _, run in groupby(hits, key=itemgetter(0))
                    for row_id in sorted(row_id for _, row_id in run)
                ]
                return [
                    (row_id, self.get_row(table_name, row_id)) for row_id in row_ids
                ]
            column_pos = table.schema.column_index(column_name)
            out = []
            for row_id, _ in table.scan():
                cell = self._plain_cell(table, row_id, column_pos)
                if (low is None or low <= cell) and (high is None or cell <= high):
                    out.append((row_id, self.get_row(table_name, row_id)))
            return out
        finally:
            AUDIT.emit("query.end", op=op)
