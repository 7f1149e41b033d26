"""Database: DML, index maintenance, and query execution."""

import pytest

from repro.engine.database import Database, PlainCellCodec
from repro.engine.query import (
    CountQuery,
    PointQuery,
    RangeQuery,
    ScanQuery,
    run_all,
)
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.errors import (
    NoSuchIndexError,
    NoSuchRowError,
    NoSuchTableError,
    SchemaError,
)

SCHEMA = TableSchema(
    "emp",
    [
        Column("id", ColumnType.INT),
        Column("name", ColumnType.TEXT),
        Column("salary", ColumnType.INT),
    ],
)


def make_db(kind="table") -> Database:
    db = Database()
    db.create_table(SCHEMA)
    for i in range(30):
        db.insert("emp", [i, f"emp-{i:02d}", 1000 + (i % 10) * 100])
    db.create_index("emp_salary", "emp", "salary", kind=kind)
    return db


@pytest.mark.parametrize("kind", ["table", "btree"])
def test_point_query_uses_index(kind):
    db = make_db(kind)
    result = PointQuery("emp", "salary", 1500).execute(db)
    assert result.used_index
    assert result.row_ids() == [5, 15, 25]


@pytest.mark.parametrize("kind", ["table", "btree"])
def test_range_query(kind):
    db = make_db(kind)
    result = RangeQuery("emp", "salary", 1800, 1900).execute(db)
    assert sorted(result.row_ids()) == [8, 9, 18, 19, 28, 29]


def test_unindexed_query_scans():
    db = make_db()
    result = PointQuery("emp", "name", "emp-07").execute(db)
    assert not result.used_index
    assert result.row_ids() == [7]


def test_index_and_scan_agree():
    db = make_db()
    via_index = PointQuery("emp", "salary", 1200).execute(db).row_ids()
    via_scan = ScanQuery("emp", lambda row: row[2] == 1200).execute(db).row_ids()
    assert sorted(via_index) == sorted(via_scan)


def test_insert_maintains_existing_indexes():
    db = make_db()
    row = db.insert("emp", [99, "newbie", 1500])
    assert row in set(PointQuery("emp", "salary", 1500).execute(db).row_ids())


def test_update_moves_index_entry():
    db = make_db()
    db.update_value("emp", 5, "salary", 9999)
    assert 5 not in PointQuery("emp", "salary", 1500).execute(db).row_ids()
    assert PointQuery("emp", "salary", 9999).execute(db).row_ids() == [5]
    assert db.get_value("emp", 5, "salary") == 9999


def test_delete_removes_from_indexes():
    db = make_db()
    db.delete_row("emp", 15)
    assert PointQuery("emp", "salary", 1500).execute(db).row_ids() == [5, 25]
    with pytest.raises(NoSuchRowError):
        db.get_row("emp", 15)


def test_multiple_indexes_on_one_table():
    db = make_db()
    db.create_index("emp_id", "emp", "id", kind="btree")
    db.update_value("emp", 3, "id", 333)
    assert PointQuery("emp", "id", 333).execute(db).row_ids() == [3]
    assert PointQuery("emp", "salary", 1300).execute(db).row_ids() == [3, 13, 23]


def test_count_and_scan_queries():
    db = make_db()
    assert CountQuery("emp").execute(db).rows[0][1][0] == 30
    assert len(ScanQuery("emp").execute(db)) == 30


def test_run_all():
    db = make_db()
    results = run_all(db, [CountQuery("emp"), PointQuery("emp", "salary", 1000)])
    assert len(results) == 2


def test_error_paths():
    db = make_db()
    with pytest.raises(NoSuchTableError):
        db.insert("ghost", [1])
    with pytest.raises(NoSuchIndexError):
        db.index("ghost")
    with pytest.raises(SchemaError):
        db.create_table(SCHEMA)
    with pytest.raises(SchemaError):
        db.create_index("emp_salary", "emp", "salary")
    with pytest.raises(SchemaError):
        db.create_index("x", "emp", "salary", kind="hash")


def test_a_refused_cell_leaves_no_row_behind():
    class Refusing(PlainCellCodec):
        def encode_cell(self, plaintext, address):
            if plaintext.endswith(b"bad"):
                raise ValueError("refused")
            return plaintext

    db = Database(cell_codec=Refusing())
    db.create_table(SCHEMA)
    with pytest.raises(ValueError):
        db.insert("emp", [1, "bad", 100])
    assert db.count("emp") == 0
    assert db.insert("emp", [1, "good", 100]) == 0


def test_index_backfills_existing_rows():
    db = Database()
    db.create_table(SCHEMA)
    for i in range(10):
        db.insert("emp", [i, f"e{i}", i * 100])
    db.create_index("late", "emp", "salary", kind="btree")
    assert PointQuery("emp", "salary", 500).execute(db).row_ids() == [5]


def test_query_result_helpers():
    db = make_db()
    result = PointQuery("emp", "salary", 1500).execute(db)
    assert result.values(1) == ["emp-05", "emp-15", "emp-25"]
    assert len(result) == 3
