"""Heap tables with explicit (t, r, c) cell addressing.

The unit of encryption in [3] is the individual table cell, identified
by the triple ``(t, r, c)`` of table id, row, and column (paper
Sect. 2.2).  Tables therefore expose their contents cell-wise, and row
ids are stable (never reused) so a cell address remains a permanent name
for a storage location — the property the address-binding µ relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.engine.schema import TableSchema
from repro.errors import NoSuchRowError, SchemaError
from repro.observability.metrics import REGISTRY as _METRICS
from repro.observability.trace import TRACER as _TRACER

# Created once at import; .inc() is a no-op while observability is off.
_CELL_READS = _METRICS.counter("storage.cell.reads")
_CELL_WRITES = _METRICS.counter("storage.cell.writes")
_CELL_BYTES_WRITTEN = _METRICS.histogram("storage.cell.written_bytes")


@dataclass(frozen=True, order=True)
class CellAddress:
    """The (t, r, c) triple naming one cell (paper Sect. 2.2)."""

    table: int
    row: int
    column: int

    def encode(self) -> bytes:
        """Canonical byte encoding ``t ∥ r ∥ c`` fed to µ (Sect. 6.2 of [3]
        suggests µ(t,r,c) = h(t ∥ r ∥ c)); fixed-width so fields cannot
        run into each other."""
        return (
            self.table.to_bytes(8, "big")
            + self.row.to_bytes(8, "big")
            + self.column.to_bytes(8, "big")
        )


class Table:
    """An append-friendly heap table storing encoded (bytes) cells.

    The table stores *encoded* cell payloads; whether those payloads are
    plaintext encodings or ciphertext records is decided by the layer
    above (plain Database vs EncryptedDatabase).  This mirrors the
    paper's structure preservation: encryption "change[s] only the
    contents of table cells".
    """

    def __init__(self, table_id: int, schema: TableSchema) -> None:
        self.table_id = table_id
        self.schema = schema
        self._rows: dict[int, list[bytes]] = {}
        self._next_row = 0

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row_id: int) -> bool:
        return row_id in self._rows

    @property
    def row_ids(self) -> list[int]:
        return sorted(self._rows)

    @property
    def next_row_id(self) -> int:
        """The id :meth:`insert_cells` allocates next."""
        return self._next_row

    def insert_cells(self, cells: Sequence[bytes]) -> int:
        """Insert one encoded row; returns the new row id ``r``."""
        if len(cells) != len(self.schema.columns):
            raise SchemaError(
                f"table {self.schema.name!r} expects "
                f"{len(self.schema.columns)} cells, got {len(cells)}"
            )
        row_id = self._next_row
        self._next_row += 1
        self._rows[row_id] = [bytes(cell) for cell in cells]
        return row_id

    def get_cell(self, row_id: int, column: int) -> bytes:
        _CELL_READS.inc()
        row = self._get_row(row_id)
        if not 0 <= column < len(row):
            raise SchemaError(f"column index {column} out of range")
        if _TRACER.enabled:
            _TRACER.add_cost("bytes_read", len(row[column]))
        return row[column]

    def set_cell(self, row_id: int, column: int, payload: bytes) -> None:
        _CELL_WRITES.inc()
        _CELL_BYTES_WRITTEN.observe(len(payload))
        if _TRACER.enabled:
            _TRACER.add_cost("bytes_written", len(payload))
        row = self._get_row(row_id)
        if not 0 <= column < len(row):
            raise SchemaError(f"column index {column} out of range")
        row[column] = bytes(payload)

    def get_row(self, row_id: int) -> list[bytes]:
        return list(self._get_row(row_id))

    def delete_row(self, row_id: int) -> None:
        """Delete a row; its id is never reused (stable cell addresses)."""
        self._get_row(row_id)
        del self._rows[row_id]

    def scan(self) -> Iterator[tuple[int, list[bytes]]]:
        """Yield (row_id, cells) in row-id order."""
        for row_id in sorted(self._rows):
            yield row_id, list(self._rows[row_id])

    def address(self, row_id: int, column: int) -> CellAddress:
        return CellAddress(self.table_id, row_id, column)

    def addresses(self) -> Iterator[CellAddress]:
        """Every live cell address, in (row, column) order."""
        for row_id in sorted(self._rows):
            for column in range(len(self.schema.columns)):
                yield CellAddress(self.table_id, row_id, column)

    def _get_row(self, row_id: int) -> list[bytes]:
        try:
            return self._rows[row_id]
        except KeyError:
            raise NoSuchRowError(
                f"table {self.schema.name!r} has no row {row_id}"
            ) from None

