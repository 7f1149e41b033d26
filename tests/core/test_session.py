"""The trusted-session model (§2.1) and Remark 1's client traversal."""

import math

import pytest

from repro import observability
from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.core.session import ClientSideTraversal, SecureSession
from repro.engine.query import PointQuery
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.errors import SessionError
from repro.workloads.datasets import DEFAULT_MASTER_KEY

MASTER = b"session-test-master-key-01234567"

SCHEMA = TableSchema(
    "t", [Column("k", ColumnType.INT), Column("v", ColumnType.TEXT)]
)


def build(rows=128, order=8):
    db = EncryptedDatabase(MASTER, EncryptionConfig.paper_fixed("eax"))
    db.create_table(SCHEMA)
    for i in range(rows):
        db.insert("t", [i, f"v{i}"])
    db.create_index("bt", "t", "k", kind="btree", order=order)
    db.create_index("it", "t", "k", kind="table")
    return db


def key_of(i: int) -> bytes:
    return (i + (1 << 63)).to_bytes(8, "big")


def test_session_lifecycle():
    db = build(rows=10)
    session = SecureSession(db)
    with pytest.raises(SessionError):
        session.execute(PointQuery("t", "k", 1))
    with session as live:
        assert live.is_open
        assert live.execute(PointQuery("t", "k", 1)).row_ids() == [1]
    assert not session.is_open
    with pytest.raises(SessionError):
        session.execute(PointQuery("t", "k", 1))
    assert session.queries_executed == 1


def test_closing_a_session_empties_every_index_cache():
    db = build(rows=20, order=4)
    structures = [db.index(name).structure for name in ("bt", "it")]
    with SecureSession(db) as live:
        for i in range(20):
            assert live.execute(PointQuery("t", "k", i)).row_ids() == [i]
        assert all(len(structure._verified) for structure in structures)
    assert [len(structure._verified) for structure in structures] == [0, 0]
    with SecureSession(db) as live:
        assert live.execute(PointQuery("t", "k", 7)).row_ids() == [7]


def test_session_cannot_be_opened_twice():
    db = build(rows=4)
    session = SecureSession(db)
    session.open()
    with pytest.raises(SessionError):
        session.open()
    session.close()
    session.open()  # reopen after close is fine
    session.close()


def test_client_traversal_finds_same_answers_as_server():
    db = build(rows=100)
    for name in ("bt", "it"):
        trace = ClientSideTraversal(db.index(name).structure).search(key_of(37))
        assert trace.row_ids == [37]


def test_client_traversal_range():
    db = build(rows=60)
    trace = ClientSideTraversal(db.index("bt").structure).range_search(
        key_of(10), key_of(15)
    )
    assert trace.row_ids == list(range(10, 16))
    assert trace.rounds >= 2


def test_rounds_are_logarithmic_in_fanout():
    """Remark 1: d-ary B⁺-trees with d ≥ 2 need fewer rounds."""
    rows = 256
    db = build(rows=rows, order=16)
    binary_rounds = ClientSideTraversal(db.index("it").structure).search(
        key_of(123)
    ).rounds
    dary_rounds = ClientSideTraversal(db.index("bt").structure).search(
        key_of(123)
    ).rounds
    assert dary_rounds < binary_rounds
    # Binary tree: about log2(n) inner rounds; d-ary: about log_d(n).
    assert binary_rounds >= math.log2(rows) * 0.8
    assert dary_rounds <= math.ceil(math.log(rows, 8)) + 2


def test_traversal_on_empty_index():
    db = EncryptedDatabase(MASTER, EncryptionConfig.paper_fixed("eax"))
    db.create_table(SCHEMA)
    db.create_index("it", "t", "k", kind="table")
    trace = ClientSideTraversal(db.index("it").structure).search(key_of(1))
    assert trace.row_ids == [] and trace.rounds == 0


def test_traversal_skips_deleted_leaves():
    db = build(rows=20)
    db.delete_row("t", 5)
    trace = ClientSideTraversal(db.index("it").structure).range_search(
        key_of(4), key_of(6)
    )
    assert trace.row_ids == [4, 6]


# -- exact Remark 1 costs on benchmark X3's 64-row database ----------------

X3_SCHEMA = TableSchema("t", [Column("k", ColumnType.INT)])
X3_INDEXES = ("binary", "dary-4", "dary-8", "dary-16")
#: (rounds, bytes_transferred, AES blocks) per traversal.
X3_POINT_32 = {
    "binary": (8, 480, 54),
    "dary-4": (4, 480, 54),
    "dary-8": (3, 600, 54),
    "dary-16": (2, 840, 47),
}
X3_RANGE_16_21 = {
    "binary": (13, 780, 84),
    "dary-4": (7, 840, 77),
    "dary-8": (4, 840, 77),
    "dary-16": (2, 840, 63),
}
#: After rows 17-19 are deleted: tombstones in the binary index, removed
#: entries in the B⁺-trees.
X3_RANGE_16_21_AFTER_DELETES = {
    "binary": (13, 600, 66),
    "dary-4": (6, 840, 71),
    "dary-8": (4, 1080, 83),
    "dary-16": (2, 1080, 86),
}


@pytest.fixture
def x3_db():
    """Benchmark X3's database over 64 rows, built with observability on
    so that its ciphers count blocks."""
    observability.disable()
    observability.reset()
    observability.enable()
    try:
        db = EncryptedDatabase(DEFAULT_MASTER_KEY, EncryptionConfig.paper_fixed("eax"))
        db.create_table(X3_SCHEMA)
        for i in range(64):
            db.insert("t", [i])
        db.create_index("binary", "t", "k", kind="table")
        for order in (4, 8, 16):
            db.create_index(f"dary-{order}", "t", "k", kind="btree", order=order)
        yield db
    finally:
        observability.disable()
        observability.reset()


def _aes_blocks() -> int:
    return sum(
        value for name, value in observability.REGISTRY.counters().items()
        if name.startswith("cipher.") and name.endswith("_blocks")
    )


def _traverse(db, name, low, high):
    before = _aes_blocks()
    trace = ClientSideTraversal(db.index(name).structure).range_search(
        key_of(low), key_of(high)
    )
    assert trace.nodes_fetched == trace.rounds
    return (trace.rounds, trace.bytes_transferred, _aes_blocks() - before), trace


def test_x3_point_and_range_traversal_costs_are_pinned(x3_db):
    for name in X3_INDEXES:
        cost, trace = _traverse(x3_db, name, 32, 32)
        assert (cost, trace.row_ids) == (X3_POINT_32[name], [32]), name
    for name in X3_INDEXES:
        cost, trace = _traverse(x3_db, name, 16, 21)
        assert (cost, trace.row_ids) == (X3_RANGE_16_21[name], list(range(16, 22)))


def test_x3_range_traversal_costs_after_deletes_are_pinned(x3_db):
    for row in (17, 18, 19):
        x3_db.delete_row("t", row)
    for name in X3_INDEXES:
        cost, trace = _traverse(x3_db, name, 16, 21)
        assert (cost, trace.row_ids) == (
            X3_RANGE_16_21_AFTER_DELETES[name], [16, 20, 21]
        ), name
