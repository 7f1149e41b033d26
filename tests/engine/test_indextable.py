"""The binary table-representation index of [3]."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.codec import PlainEntryCodec
from repro.engine.indextable import NO_REF, IndexTable
from repro.errors import IndexCorruptionError


def enc(i: int) -> bytes:
    return i.to_bytes(8, "big")


def build(pairs) -> IndexTable:
    index = IndexTable(1, PlainEntryCodec())
    index.bulk_build(list(pairs))
    return index


def test_bulk_build_and_point_search():
    index = build((enc(i), i * 10) for i in range(100))
    assert index.search(enc(42)) == [420]
    assert index.search(enc(100)) == []
    assert len(index) == 100


def test_range_search_inclusive():
    index = build((enc(i), i) for i in range(50))
    hits = index.range_search(enc(10), enc(14))
    assert [row for _, row in hits] == [10, 11, 12, 13, 14]
    assert index.range_search(enc(60), enc(70)) == []


def test_bulk_build_is_balanced():
    index = build((enc(i), i) for i in range(1024))
    assert index.height() == 10  # ⌈log2(1024)⌉


def test_bulk_build_requires_empty():
    index = build([(enc(1), 1)])
    with pytest.raises(IndexCorruptionError):
        index.bulk_build([(enc(2), 2)])


def test_empty_index():
    index = IndexTable(1, PlainEntryCodec())
    assert index.search(enc(1)) == []
    assert index.items() == []
    assert len(index) == 0
    assert index.height() == 0
    index.bulk_build([])
    assert index.root_id == NO_REF


@given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=60))
@settings(max_examples=30, deadline=None)
def test_incremental_insert_matches_sorted_reference(values):
    index = IndexTable(1, PlainEntryCodec())
    for position, value in enumerate(values):
        index.insert(enc(value), position)
    expected = sorted((enc(v), i) for i, v in enumerate(values))
    got = index.items()
    assert sorted(got) == expected
    assert [k for k, _ in got] == [k for k, _ in sorted(expected)]


def test_duplicates_supported():
    index = IndexTable(1, PlainEntryCodec())
    for i in range(20):
        index.insert(enc(5), i)
    assert sorted(index.search(enc(5))) == list(range(20))


def test_delete_tombstones():
    index = build((enc(i), i) for i in range(10))
    assert index.delete(enc(3), 3)
    assert index.search(enc(3)) == []
    assert not index.delete(enc(3), 3)   # already gone
    assert not index.delete(enc(99), 99)
    assert len(index) == 9


def test_insert_before_tombstoned_leaf_moves_the_tombstone():
    # The insert lands on the tombstoned leaf of key 4 and moves its
    # contents into the new leaf: the tombstone must move with them.
    index = build((enc(i * 2), i) for i in range(4))
    assert index.delete(enc(4), 2)
    index.insert(enc(3), 9)
    assert index.search(enc(3)) == [9]
    assert index.search(enc(4)) == []
    assert index.items() == [(enc(0), 0), (enc(2), 1), (enc(3), 9), (enc(6), 3)]


def test_updates_of_an_indexed_text_column_stay_findable():
    # Updates are delete + insert, so they keep landing next to
    # tombstones; every current value must be found and no replaced
    # value may still match.
    import random

    from repro.engine.database import Database
    from repro.engine.schema import Column, ColumnType, TableSchema

    db = Database()
    db.create_table(TableSchema("t", [Column("v", ColumnType.TEXT)]))
    rng = random.Random(7)

    def word() -> str:
        return "".join(rng.choice("abcdefgh") for _ in range(rng.randint(1, 6)))

    current = {db.insert("t", [word()]): None for _ in range(200)}
    for row_id in current:
        current[row_id] = db.get_value("t", row_id, "v")
    db.create_index("t_v", "t", "v", kind="table")
    replaced = []
    for _ in range(300):
        row_id = rng.choice(sorted(current))
        value = word()
        replaced.append((row_id, current[row_id]))
        db.update_value("t", row_id, "v", value)
        current[row_id] = value

    def hits(value: str) -> set[int]:
        return {row_id for row_id, _ in db.select_equals("t", "v", value)}

    unfindable = [r for r, value in current.items() if r not in hits(value)]
    stale = [
        (r, old) for r, old in replaced
        if old != current[r] and r in hits(old)
    ]
    assert (len(unfindable), len(stale)) == (0, 0)


def test_rebuild_compacts_and_rebalances():
    index = IndexTable(1, PlainEntryCodec())
    for i in range(64):
        index.insert(enc(i), i)  # sorted inserts → degenerate tree
    degenerate_height = index.height()
    index.delete(enc(10), 10)
    index.rebuild()
    assert len(index) == 63
    assert index.height() <= 7
    assert index.height() < degenerate_height
    assert index.search(enc(11)) == [11]
    assert index.search(enc(10)) == []


def test_mixed_insert_after_bulk_build():
    index = build((enc(i * 2), i * 2) for i in range(20))
    index.insert(enc(7), 7)
    assert index.search(enc(7)) == [7]
    assert [row for _, row in index.range_search(enc(6), enc(8))] == [6, 7, 8]


def test_raw_access_and_tamper():
    index = build([(enc(1), 1), (enc(2), 2)])
    rows = list(index.raw_rows())
    assert len(rows) == index.total_rows == 3  # 2 leaves + 1 inner
    leaf = next(r for r in rows if r.is_leaf)
    original = index.raw_payload(leaf.row_id)
    index.tamper(leaf.row_id, b"garbage")
    assert index.raw_payload(leaf.row_id) == b"garbage"
    index.tamper(leaf.row_id, original)
    index.verify_all()  # plain codec: decode of all rows succeeds


def test_leaf_chain_is_key_ordered():
    index = build((enc(i), i) for i in (5, 1, 9, 3, 7))
    assert [row for _, row in index.items()] == [1, 3, 5, 7, 9]


def test_internal_refs_shape():
    index = build([(enc(1), 1), (enc(2), 2)])
    for row in index.raw_rows():
        refs = row.refs(index.index_table_id)
        if row.is_leaf:
            assert len(refs.internal) == 1
        else:
            assert len(refs.internal) == 2
        assert refs.encode_internal()  # non-empty, fixed-width
