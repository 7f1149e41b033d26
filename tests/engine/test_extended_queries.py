"""Prefix and open-bound queries (index-backed and scan fallback)."""

import pytest

from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.engine.query import AtLeastQuery, AtMostQuery, PrefixQuery
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.errors import SchemaError

MASTER = b"extquery-test-master-key-0123456"

SCHEMA = TableSchema("people", [
    Column("name", ColumnType.TEXT),
    Column("age", ColumnType.INT),
])

NAMES = ["alice", "alan", "albert", "bob", "bella", "carol", "alicia"]


def build(indexed=True, config=None):
    db = EncryptedDatabase(MASTER, config or EncryptionConfig.paper_fixed("eax"))
    db.create_table(SCHEMA)
    for i, name in enumerate(NAMES):
        db.insert("people", [name, 20 + i * 5])
    if indexed:
        db.create_index("by_name", "people", "name", kind="btree")
        db.create_index("by_age", "people", "age", kind="table")
    return db


@pytest.mark.parametrize("indexed", [True, False])
def test_prefix_query(indexed):
    db = build(indexed)
    result = PrefixQuery("people", "name", "al").execute(db)
    assert sorted(result.values(0)) == ["alan", "albert", "alice", "alicia"]
    assert result.used_index == indexed


@pytest.mark.parametrize("indexed", [True, False])
def test_prefix_no_match(indexed):
    db = build(indexed)
    assert len(PrefixQuery("people", "name", "zz").execute(db)) == 0


def test_prefix_exact_value_is_included():
    db = build()
    result = PrefixQuery("people", "name", "alice").execute(db)
    assert result.values(0) == ["alice"]
    # "alici" catches alicia but not alice.
    assert PrefixQuery("people", "name", "alici").execute(db).values(0) == ["alicia"]


def test_prefix_requires_text_column():
    db = build()
    with pytest.raises(SchemaError):
        db.select_prefix("people", "age", "2")


@pytest.mark.parametrize("indexed", [True, False])
def test_at_least(indexed):
    db = build(indexed)
    result = AtLeastQuery("people", "age", 40).execute(db)
    assert sorted(result.values(1)) == [40, 45, 50]


@pytest.mark.parametrize("indexed", [True, False])
def test_at_most(indexed):
    db = build(indexed)
    result = AtMostQuery("people", "age", 30).execute(db)
    assert sorted(result.values(1)) == [20, 25, 30]


def test_at_least_negative_numbers():
    db = EncryptedDatabase(MASTER, EncryptionConfig.paper_fixed("eax"))
    db.create_table(SCHEMA)
    for i, value in enumerate([-50, -10, 0, 10, 50]):
        db.insert("people", [f"p{i}", value])
    db.create_index("by_age", "people", "age", kind="btree")
    assert sorted(AtLeastQuery("people", "age", -10).execute(db).values(1)) == [
        -10, 0, 10, 50,
    ]
    assert sorted(AtMostQuery("people", "age", -10).execute(db).values(1)) == [
        -50, -10,
    ]


@pytest.mark.parametrize("kind", ["table", "btree"])
def test_at_least_is_open_above_for_long_keys(kind):
    # BYTES keys have no length bound, so no fixed sentinel can serve as
    # the top of an open range.
    schema = TableSchema("blobs", [Column("b", ColumnType.BYTES)])
    keys = [b"\x00", b"\x10", b"\xff" * 16, b"\xff" * 17, b"\xff" * 40]
    scan = EncryptedDatabase(MASTER, EncryptionConfig.paper_fixed("eax"))
    scan.create_table(schema)
    for key in keys:
        scan.insert("blobs", [key])
    expected = sorted(AtLeastQuery("blobs", "b", b"\x01").execute(scan).values(0))
    assert len(expected) == 4
    scan.create_index("by_b", "blobs", "b", kind=kind)
    result = AtLeastQuery("blobs", "b", b"\x01").execute(scan)
    assert result.used_index
    assert sorted(result.values(0)) == expected


def test_extended_queries_identical_across_schemes():
    plain = build(config=EncryptionConfig(cell_scheme="plain", index_scheme="plain"))
    fixed = build()
    for query in (
        PrefixQuery("people", "name", "b"),
        AtLeastQuery("people", "age", 35),
        AtMostQuery("people", "age", 25),
    ):
        assert query.execute(plain).rows == query.execute(fixed).rows
