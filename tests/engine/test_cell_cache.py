"""The database's verified cell plaintexts.

Sect. 4 binds each cell's address as associated data (eqs. 23–24), and
every cell codec decodes deterministically from the key, the stored
bytes and the address.  A plaintext remembered for (stored bytes,
address) must therefore be exactly what decoding again returns: the
cache may change how many cells a query decodes, and nothing else — not
an answer, not an error type, not a stored byte, not the verdict on a
tampered or swapped cell.  Only a successful decode fills it, and it
empties whenever the keys that verified it leave.
"""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability
from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.core.keys import KeyChain
from repro.core.rotation import rotate_master_key
from repro.core.session import SecureSession
from repro.durability.manager import DurableDatabase
from repro.durability.vdisk import MemoryDisk
from repro.durability.wal import journal_mac
from repro.engine.codec import uncached
from repro.engine.integrity import verify_database
from repro.engine.query import PointQuery
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.storage import dump_database
from repro.engine.table import CellAddress
from repro.errors import AuthenticationError, ReproError
from repro.robustness.campaign import default_campaign_configs

from tests.engine.test_integrity import build as integrity_table
from tests.sharding.test_keyspace import MASTER as KEYSPACE_MASTER
from tests.sharding.test_keyspace import ROWS as KEYSPACE_ROWS
from tests.sharding.test_keyspace import seed as seed_keyspace

MASTER_KEY = b"cell-cache-test-master-key-01234"
ROTATED_KEY = b"cell-cache-test-rotated-key-5678"
SCHEMA = TableSchema("t", [
    Column("k", ColumnType.INT),
    Column("v", ColumnType.TEXT),
    Column("note", ColumnType.TEXT),
])

CAMPAIGN = default_campaign_configs()
CAMPAIGN_IDS = [label for label, _ in CAMPAIGN]
EAX = EncryptionConfig.paper_fixed("eax")


@pytest.fixture(autouse=True)
def _global_observability():
    observability.disable()
    observability.reset()
    yield
    observability.disable()
    observability.reset()


def _text(k):
    return f"v{k:03d}"


def _row(k):
    return [k, _text(k), f"note-{k}"]


def _database(config, keys=()):
    """``k`` behind a B⁺-tree and ``v`` behind an index table, both built
    before the rows, so no backfill decode fills the cell cache."""
    db = EncryptedDatabase(MASTER_KEY, config)
    db.create_table(SCHEMA)
    db.create_index("by_k", "t", "k", kind="btree", order=3)
    db.create_index("by_v", "t", "v", kind="table")
    for k in keys:
        db.insert("t", _row(k))
    return db


def _outcome(read):
    """What ``read()`` returns, or the type of the error it raises."""
    try:
        return read()
    except ReproError as exc:
        return type(exc)


# -- differential: cached and uncached runs are indistinguishable -------

KEYS = st.integers(min_value=0, max_value=15)
ROW_IDS = st.integers(min_value=0, max_value=24)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), KEYS),
        st.tuples(st.just("insert_many"), st.lists(KEYS, min_size=1, max_size=3)),
        st.tuples(st.just("update"), ROW_IDS, st.sampled_from(["k", "v"]), KEYS),
        st.tuples(st.just("delete"), ROW_IDS),
        st.tuples(st.just("get_row"), ROW_IDS),
        st.tuples(st.just("point"), KEYS),
        st.tuples(st.just("range"), KEYS, KEYS),
        st.tuples(st.just("prefix"), KEYS),
    ),
    max_size=16,
)


def _apply(db, operation):
    kind, *args = operation
    if kind == "insert":
        return db.insert("t", _row(args[0]))
    if kind == "insert_many":
        return db.insert_many("t", [_row(k) for k in args[0]])
    if kind == "update":
        # Ids past the last insert name no row: a typed error.
        row_id, column, k = args
        return db.update_value("t", row_id, column, k if column == "k" else _text(k))
    if kind == "delete":
        return db.delete_row("t", args[0])
    if kind == "get_row":
        return db.get_row("t", args[0])
    if kind == "point":
        return (
            db.select_equals("t", "k", args[0]),
            db.select_equals("t", "v", _text(args[0])),
        )
    if kind == "prefix":
        return db.select_prefix("t", "v", _text(args[0])[:3])
    low, high = sorted(args)
    return (
        db.select_range("t", "k", low, high),
        db.select_range("t", "v", _text(low), _text(high)),
    )


def _replay(config, operations, cold):
    """Every answer or error type of ``operations`` on four rows, and the
    final image; the first ``cold`` operations run uncached."""
    db = _database(config, range(4))
    outcomes = []
    for position, operation in enumerate(operations):
        with uncached() if position < cold else nullcontext():
            outcomes.append(_outcome(lambda: _apply(db, operation)))
    return outcomes, dump_database(db)


@pytest.mark.parametrize("label, config", CAMPAIGN, ids=CAMPAIGN_IDS)
@given(operations=OPERATIONS, cold=st.integers(min_value=0, max_value=16))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_cell_cache_changes_no_answer_error_or_stored_byte(
    label, config, operations, cold
):
    cached = _replay(config, operations, cold)
    with uncached():
        assert _replay(config, operations, cold) == cached


@pytest.mark.parametrize("label, config", CAMPAIGN, ids=CAMPAIGN_IDS)
def test_every_remembered_cell_is_what_decoding_returns(label, config):
    db = _database(config, range(20))
    for row_id in range(0, 20, 4):
        db.delete_row("t", row_id)
    for row_id in range(1, 20, 4):
        db.update_value("t", row_id, "v", _text(row_id + 40))
    db.insert_many("t", [_row(k) for k in range(40, 44)])
    observability.enable()
    for _ in range(2):  # the second pass answers from the cache
        for row_id in db.table("t").row_ids:
            for column in ("k", "v", "note"):
                db.get_cell_plaintext("t", row_id, column)
    remembered = list(db._verified_cells._entries.items())
    for (stored, address), plain in remembered:
        assert db.cell_codec.decode_cell(stored, CellAddress(*address)) == plain
    assert len(remembered) > 3 * len(db.table("t").row_ids)
    counters = observability.REGISTRY.counters()
    assert counters["db.cell_cache.hits"] == counters["db.cell_cache.misses"]


# -- tampering after the cache is warm ---------------------------------


def _flip(stored, position):
    return stored[:position] + bytes([stored[position] ^ 1]) + stored[position + 1:]


@pytest.mark.parametrize("position", [0, 20, -1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("aead", ["eax", "ocb"])
def test_a_flipped_bit_after_a_warm_read_raises_as_a_cold_read(aead, position):
    db = _database(EncryptionConfig.paper_fixed(aead), range(6))
    assert db.get_row("t", 3) == _row(3)  # every cell of row 3 remembered
    view = db.storage_view()
    view.set_cell("t", 3, 2, _flip(view.cell("t", 3, 2), position))
    warm = [_outcome(lambda: db.get_row("t", 3)) for _ in range(2)]
    with uncached():
        cold = _outcome(lambda: db.get_row("t", 3))
    assert cold is AuthenticationError
    assert warm == [cold, cold]


SWAPS = {
    "rows": ((1, 1), (4, 1)),  # v of two rows (the Sect. 3.1 substitution)
    "columns": ((2, 1), (2, 2)),  # v and note of one row
}


@pytest.mark.parametrize("swap", sorted(SWAPS))
@pytest.mark.parametrize("label, config", CAMPAIGN, ids=CAMPAIGN_IDS)
def test_swapped_cells_get_the_cold_verdict(label, config, swap):
    db = _database(config, range(6))
    cells = SWAPS[swap]
    names = [SCHEMA.columns[column].name for _, column in cells]

    def read():
        return [
            _outcome(lambda: db.get_cell_plaintext("t", row_id, name))
            for (row_id, _), name in zip(cells, names)
        ]

    assert all(isinstance(plain, bytes) for plain in read())  # warm
    view = db.storage_view()
    first, second = (view.cell("t", *cell) for cell in cells)
    view.set_cell("t", *cells[0], second)
    view.set_cell("t", *cells[1], first)
    warm = [read(), read()]
    with uncached():
        assert [read(), read()] == warm


def test_a_failed_decode_is_never_remembered():
    db = _database(EAX, range(4))
    view = db.storage_view()
    tampered = _flip(view.cell("t", 2, 1), -1)
    view.set_cell("t", 2, 1, tampered)
    for enabled in (False, True):  # untraced, then traced and counted
        if enabled:
            observability.enable()
        for _ in range(2):
            with pytest.raises(AuthenticationError):
                db.get_cell_plaintext("t", 2, "v")
    counters = observability.REGISTRY.counters()
    assert counters["db.cell_cache.misses"] == 2
    assert "db.cell_cache.hits" not in counters
    assert len(db._verified_cells) == 0


# -- the cache empties whenever the keys that verified it leave ----------


def _warm(db, rows):
    """Read the first ``rows`` rows, so their cells are remembered."""
    answers = [db.get_row("t", row_id) for row_id in range(rows)]
    assert len(db._verified_cells) > 0
    return answers


def test_closing_a_session_empties_the_cell_cache():
    db = _database(EAX, range(10))
    with SecureSession(db) as live:
        for k in range(10):
            assert live.execute(PointQuery("t", "k", k)).row_ids() == [k]
        assert len(db._verified_cells) > 0
    assert len(db._verified_cells) == 0
    assert db.get_row("t", 7) == _row(7)


def test_rotation_empties_the_cell_cache():
    db = _database(EAX, range(10))
    before = _warm(db, 10)
    rotate_master_key(db, ROTATED_KEY)
    assert len(db._verified_cells) == 0
    assert [db.get_row("t", row_id) for row_id in range(10)] == before


def test_a_shard_rotation_adopts_a_database_with_no_cell_plaintexts():
    keyspace = seed_keyspace(MemoryDisk(), KeyChain.single(KEYSPACE_MASTER))
    before = keyspace.select_range("recs", "id", 0, KEYSPACE_ROWS)
    databases = [shard.manager.database for shard in keyspace.shards]
    assert all(len(db._verified_cells) for db in databases)
    keyspace.rotate(ROTATED_KEY)
    databases = [shard.manager.database for shard in keyspace.shards]
    assert [len(db._verified_cells) for db in databases] == [0, 0]
    assert keyspace.select_range("recs", "id", 0, KEYSPACE_ROWS) == before


def _mount(disk):
    enc = EncryptedDatabase(MASTER_KEY, EAX)
    return DurableDatabase.open(
        disk, journal_mac(enc.keys),
        cell_codec=enc.cell_codec,
        index_codec_factory=enc._build_index_codec,
    )


def test_a_mount_starts_with_no_cell_plaintexts():
    disk = MemoryDisk()
    manager = _mount(disk)
    manager.create_table(SCHEMA)
    for k in range(6):
        manager.insert("t", _row(k))
    manager.create_index("by_v", "t", "v", kind="table")
    before = _warm(manager.database, 6)
    manager.checkpoint()
    remounted = _mount(MemoryDisk(disk.durable_state())).database
    assert len(remounted._verified_cells) == 0
    assert [remounted.get_row("t", row_id) for row_id in range(6)] == before
    assert remounted.select_equals("t", "v", _text(4)) == [(4, _row(4))]


def test_the_integrity_audit_stays_cold_on_a_warm_database(monkeypatch):
    db = integrity_table()
    for row_id in range(12):
        db.get_row("t", row_id)
    assert len(db._verified_cells) == 24
    codec = db.cell_codec
    decode = codec.decode_cell
    calls = []

    def counting(stored, address):
        calls.append(address)
        return decode(stored, address)

    monkeypatch.setattr(codec, "decode_cell", counting)
    report = verify_database(db)
    assert report.ok
    assert report.cells_checked == len(calls) == 24
