"""Heap tables and (t, r, c) cell addressing."""

import pytest

from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.table import CellAddress, Table
from repro.errors import NoSuchRowError, SchemaError


def make_table() -> Table:
    schema = TableSchema(
        "t", [Column("a", ColumnType.INT), Column("b", ColumnType.TEXT)]
    )
    return Table(7, schema)


def test_insert_and_read_cells():
    table = make_table()
    row = table.insert_cells([b"one", b"two"])
    assert table.get_cell(row, 0) == b"one"
    assert table.get_row(row) == [b"one", b"two"]
    assert len(table) == 1
    assert row in table


def test_row_ids_are_stable_and_never_reused():
    """Cell addresses must stay permanent names (µ binds them)."""
    table = make_table()
    first = table.insert_cells([b"", b""])
    table.delete_row(first)
    second = table.insert_cells([b"", b""])
    assert second != first
    assert first not in table


def test_set_cell_and_bounds():
    table = make_table()
    row = table.insert_cells([b"x", b"y"])
    table.set_cell(row, 1, b"z")
    assert table.get_cell(row, 1) == b"z"
    with pytest.raises(SchemaError):
        table.get_cell(row, 2)
    with pytest.raises(SchemaError):
        table.set_cell(row, 5, b"!")


def test_missing_row_errors():
    table = make_table()
    with pytest.raises(NoSuchRowError):
        table.get_row(99)
    with pytest.raises(NoSuchRowError):
        table.delete_row(99)


def test_wrong_cell_count_rejected():
    table = make_table()
    with pytest.raises(SchemaError):
        table.insert_cells([b"only-one"])


def test_scan_order():
    table = make_table()
    rows = [table.insert_cells([bytes([i]), b""]) for i in range(5)]
    assert [row_id for row_id, _ in table.scan()] == rows


def test_addresses():
    table = make_table()
    row = table.insert_cells([b"", b""])
    address = table.address(row, 1)
    assert address == CellAddress(7, row, 1)
    assert list(table.addresses()) == [CellAddress(7, row, 0), CellAddress(7, row, 1)]


def test_address_encoding_is_fixed_width_and_injective():
    # (t=1, r=2, c=3) and (t=1, r=23, c=...) must never collide.
    a = CellAddress(1, 2, 3).encode()
    b = CellAddress(1, 23, 3).encode()
    c = CellAddress(12, 3, 3).encode()
    assert len(a) == len(b) == len(c) == 24
    assert len({a, b, c}) == 3


def test_address_ordering():
    assert CellAddress(1, 1, 0) < CellAddress(1, 2, 0) < CellAddress(2, 0, 0)
