"""DurableDatabase: journal-first mutations, checkpoints, crash recovery."""

import gc
import weakref

import pytest

from repro import observability
from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.core.keys import KeyRing
from repro.durability.manager import (
    CKPT_MISSING,
    CKPT_OK,
    CKPT_UNAUTHENTICATED,
    JOURNAL_CLEAN,
    JOURNAL_MISSING,
    JOURNAL_STALE,
    JOURNAL_TRUNCATED,
    DurableDatabase,
)
from repro.durability.vdisk import MemoryDisk
from repro.durability.wal import (
    CHECKPOINT_BLOB,
    JOURNAL_BLOB,
    JournalRecord,
    encode_record,
    journal_mac,
)
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.storage import dump_database
from repro.errors import (
    AuthenticationError,
    NoSuchRowError,
    NoSuchTableError,
    SchemaError,
)
from repro.observability.audit import AUDIT
from repro.observability.metrics import REGISTRY

MASTER = b"manager-test-master-key-01234567"
MAC = journal_mac(KeyRing(MASTER))

SCHEMA = TableSchema("t", [
    Column("k", ColumnType.INT),
    Column("v", ColumnType.TEXT),
])


def open_plain(disk: MemoryDisk) -> DurableDatabase:
    return DurableDatabase.open(disk, MAC)


def open_encrypted(disk: MemoryDisk) -> DurableDatabase:
    enc = EncryptedDatabase(MASTER, EncryptionConfig.paper_fixed("eax"))
    return DurableDatabase.open(
        disk, journal_mac(enc.keys),
        cell_codec=enc.cell_codec,
        index_codec_factory=enc._build_index_codec,
    )


def cells(db) -> dict:
    out = {}
    for name in db.table_names:
        table = db.table(name)
        for row_id in table.row_ids:
            for pos in range(len(table.schema.columns)):
                out[(name, row_id, pos)] = db._plain_cell(table, row_id, pos)
    return out


# -- happy path ---------------------------------------------------------------

def test_fresh_open_initialises_the_journal():
    disk = MemoryDisk()
    manager = open_plain(disk)
    assert disk.exists(JOURNAL_BLOB)
    assert not disk.exists(CHECKPOINT_BLOB)
    assert manager.recovery.checkpoint == CKPT_MISSING
    assert manager.recovery.journal == JOURNAL_CLEAN
    assert not manager.recovery.degraded


def test_mutations_are_journaled_then_recoverable_without_checkpoint():
    disk = MemoryDisk()
    manager = open_plain(disk)
    manager.create_table(SCHEMA)
    for i in range(4):
        manager.insert("t", [i, f"row-{i}"])
    manager.update_value("t", 1, "v", "patched")
    manager.delete_row("t", 2)
    before = cells(manager.database)

    # No checkpoint ever taken: recovery replays the full journal.
    reopened = open_plain(MemoryDisk(disk.durable_state()))
    assert reopened.recovery.checkpoint == CKPT_MISSING
    assert reopened.recovery.records_replayed == 7
    assert cells(reopened.database) == before


def test_checkpoint_then_reopen_replays_nothing():
    disk = MemoryDisk()
    manager = open_plain(disk)
    manager.create_table(SCHEMA)
    manager.insert("t", [1, "one"])
    manager.checkpoint()

    reopened = open_plain(MemoryDisk(disk.durable_state()))
    assert reopened.recovery.checkpoint == CKPT_OK
    assert reopened.recovery.records_replayed == 0
    assert cells(reopened.database) == cells(manager.database)


def test_tail_records_after_a_checkpoint_replay_on_top():
    disk = MemoryDisk()
    manager = open_plain(disk)
    manager.create_table(SCHEMA)
    manager.insert("t", [1, "one"])
    manager.checkpoint()
    manager.insert("t", [2, "two"])          # journaled, not checkpointed
    manager.update_value("t", 1, "v", "uno")

    reopened = open_plain(MemoryDisk(disk.durable_state()))
    assert reopened.recovery.checkpoint == CKPT_OK
    assert reopened.recovery.records_replayed == 2
    assert cells(reopened.database) == cells(manager.database)


def test_indexes_survive_replay_with_fresh_structures():
    disk = MemoryDisk()
    manager = open_encrypted(disk)
    manager.create_table(SCHEMA)
    for i in range(6):
        manager.insert("t", [i, f"row-{i}"])
    manager.create_index("t_k", "t", "k", kind="table")
    manager.create_index("t_v", "t", "v", kind="btree")
    manager.insert("t", [99, "late"])        # after index creation

    reopened = open_encrypted(MemoryDisk(disk.durable_state()))
    assert reopened.recovery.indexes_rebuilt
    db = reopened.database
    assert db.index_names == ["t_k", "t_v"]
    assert sorted(db.index("t_k").structure.items()) == sorted(
        manager.database.index("t_k").structure.items()
    )
    assert db.index("t_v").structure.order == 8


def test_recovered_state_redumps_identically_across_mounts():
    disk = MemoryDisk()
    manager = open_encrypted(disk)
    manager.create_table(SCHEMA)
    for i in range(5):
        manager.insert("t", [i, f"row-{i}"])
    manager.create_index("t_k", "t", "k", kind="table")
    state = disk.durable_state()

    first = open_encrypted(MemoryDisk(state))
    second = open_encrypted(MemoryDisk(state))
    assert dump_database(first.database) == dump_database(second.database)


# -- the engine's own mutations are the journaled ones -------------------------

def test_mutations_on_the_wrapped_engine_survive_a_remount():
    disk = MemoryDisk()
    manager = open_encrypted(disk)
    db = manager.database
    db.create_table(SCHEMA)
    db.create_index("t_k", "t", "k", kind="btree", order=4)
    first = db.insert("t", [1, "one"])
    second, third, fourth = db.insert_many("t", [[2, "two"], [3, "three"], [4, "four"]])
    db.update_value("t", second, "v", "deux")
    db.update_value("t", third, "k", 30)
    db.delete_row("t", fourth)

    reopened = open_encrypted(MemoryDisk(disk.durable_state()))
    assert reopened.recovery.records_replayed == 9
    assert list(reopened.database.scan("t")) == [
        (first, [1, "one"]), (second, [2, "deux"]), (third, [30, "three"]),
    ]
    assert cells(reopened.database) == cells(db)
    assert reopened.database.select_equals("t", "k", 30) == [(third, [30, "three"])]
    assert reopened.database.select_equals("t", "k", 4) == []


@pytest.fixture
def counting():
    observability.disable()
    observability.reset()
    observability.enable()
    yield
    observability.disable()
    observability.reset()


def counter_moves(action) -> dict[str, int]:
    """The counters one call moves, by how much."""
    before = REGISTRY.counters()
    action()
    return {
        name: value - before.get(name, 0)
        for name, value in REGISTRY.counters().items()
        if value != before.get(name, 0)
    }


def test_journaled_mutations_move_the_engine_counters(counting):
    manager = open_plain(MemoryDisk())
    manager.create_table(SCHEMA)
    manager.insert("t", [1, "one"])

    insert = counter_moves(lambda: manager.insert("t", [2, "two"]))
    assert insert["db.insert.calls"] == 1
    assert insert["storage.cell.writes"] == 2        # one per column
    update = counter_moves(lambda: manager.update_value("t", 0, "v", "uno"))
    assert update["db.update.calls"] == 1
    assert update["storage.cell.writes"] == 1
    index = counter_moves(lambda: manager.create_index("t_k", "t", "k"))
    assert index["db.create_index.calls"] == 1
    delete = counter_moves(lambda: manager.delete_row("t", 1))
    assert delete["db.delete.calls"] == 1


def test_a_failed_record_leaves_written_rows_indexed():
    db = open_encrypted(MemoryDisk()).database
    db.create_table(SCHEMA)
    db.create_index("t_k", "t", "k", kind="table")
    journal = db.write_ahead
    records = []

    def fail_second_insert(op, fields):
        records.append(op)
        if records.count("insert") == 2:
            raise OSError("journal device gone")
        journal(op, fields)

    db.write_ahead = fail_second_insert
    with pytest.raises(OSError):
        db.insert_many("t", [[1, "one"], [2, "two"]])
    assert db.table("t").row_ids == [0]
    assert db.select_equals("t", "k", 1) == [(0, [1, "one"])]


def test_an_index_whose_backfill_fails_to_decode_is_never_journaled():
    disk = MemoryDisk()
    manager = open_encrypted(disk)
    manager.create_table(SCHEMA)
    manager.insert("t", [1, "one"])
    manager.insert("t", [2, "two"])
    table = manager.database.table("t")
    stored = table.get_cell(1, 1)
    table.set_cell(1, 1, stored[:-1] + bytes([stored[-1] ^ 1]))  # in memory only

    with pytest.raises(AuthenticationError):
        manager.create_index("t_v", "t", "v")
    assert manager.last_seq == 3
    assert manager.database.index_names == []
    reopened = open_encrypted(MemoryDisk(disk.durable_state()))
    assert reopened.recovery.records_replayed == 3
    assert reopened.database.index_names == []


def test_a_dropped_mount_frees_its_database_without_the_cycle_collector():
    disk = MemoryDisk()
    open_plain(disk).create_table(SCHEMA)
    gc.disable()
    try:
        database = weakref.ref(open_plain(MemoryDisk(disk.durable_state())).database)
        assert database() is None
    finally:
        gc.enable()


# -- the recovery decision table ----------------------------------------------

def build_disk_with_tail() -> tuple[MemoryDisk, dict]:
    """Checkpointed base + two journaled tail inserts; returns (disk, cells)."""
    disk = MemoryDisk()
    manager = open_plain(disk)
    manager.create_table(SCHEMA)
    manager.insert("t", [1, "one"])
    manager.checkpoint()
    manager.insert("t", [2, "two"])
    manager.insert("t", [3, "three"])
    return MemoryDisk(disk.durable_state()), cells(manager.database)


def test_checkpoint_ok_journal_torn_keeps_the_committed_prefix():
    disk, _ = build_disk_with_tail()
    blob = disk.read(JOURNAL_BLOB)
    disk.write(JOURNAL_BLOB, blob[:-5])      # tear the last record
    disk.sync(JOURNAL_BLOB)

    manager = open_plain(disk)
    assert manager.recovery.checkpoint == CKPT_OK
    assert manager.recovery.journal == JOURNAL_TRUNCATED
    assert manager.recovery.records_replayed == 1   # insert [2, "two"]
    table = manager.database.table("t")
    assert len(table.row_ids) == 2
    # The torn journal was re-founded: a fresh mount is clean again.
    remount = open_plain(MemoryDisk(disk.durable_state()))
    assert remount.recovery.journal == JOURNAL_CLEAN


def test_checkpoint_damaged_journal_ok_falls_back_to_resilient():
    disk, _ = build_disk_with_tail()
    blob = bytearray(disk.read(CHECKPOINT_BLOB))
    blob[len(blob) // 2] ^= 0xFF             # corrupt inside the image
    disk.write(CHECKPOINT_BLOB, bytes(blob))
    disk.sync(CHECKPOINT_BLOB)

    manager = open_plain(disk)
    assert manager.recovery.checkpoint == CKPT_UNAUTHENTICATED
    assert manager.recovery.degraded
    assert manager.recovery.resilient is not None
    # Salvage still lands on a working database and a re-founded journal.
    assert manager.database.table_names in ([], ["t"])
    assert open_plain(MemoryDisk(disk.durable_state())).recovery.checkpoint == CKPT_OK


def test_both_damaged_still_opens_without_raising():
    disk, _ = build_disk_with_tail()
    ckpt = bytearray(disk.read(CHECKPOINT_BLOB))
    ckpt[12] ^= 0xFF
    disk.write(CHECKPOINT_BLOB, bytes(ckpt))
    disk.write(JOURNAL_BLOB, b"REPROWAL1garbage")
    disk.sync(CHECKPOINT_BLOB)
    disk.sync(JOURNAL_BLOB)

    manager = open_plain(disk)               # must not raise
    assert manager.recovery.degraded
    # And the repaired disk mounts cleanly afterwards.
    clean = open_plain(MemoryDisk(disk.durable_state()))
    assert clean.recovery.checkpoint == CKPT_OK
    assert clean.recovery.journal == JOURNAL_CLEAN


def test_stale_journal_from_an_older_generation_is_not_replayed():
    disk, _ = build_disk_with_tail()
    stale = disk.read(JOURNAL_BLOB)          # generation 2, seq 3 and 4
    manager = open_plain(disk)
    manager.checkpoint()                     # generation 3, journal re-founded
    # Simulate a journal reset that never hit the disk: put the old
    # generation-2 journal back behind the generation-3 checkpoint.
    disk.write(JOURNAL_BLOB, stale)
    disk.sync(JOURNAL_BLOB)

    reopened = open_plain(MemoryDisk(disk.durable_state()))
    assert reopened.recovery.journal == JOURNAL_STALE
    assert reopened.recovery.records_replayed == 0
    # All stale records were already in the checkpoint: no loss, no issue.
    assert not any("does not extend" in issue for issue in reopened.recovery.issues)
    assert len(reopened.database.table("t").row_ids) == 3


def test_stale_journal_with_unapplied_records_raises_an_issue():
    disk, _ = build_disk_with_tail()
    stale = disk.read(JOURNAL_BLOB)          # generation 2, seq 3 and 4
    manager = open_plain(disk)
    manager.checkpoint()                     # generation 3, applied_seq 4
    # A stale journal carrying a commit (seq 5) the checkpoint lineage
    # never saw: the record cannot be replayed, and the report says so.
    orphan = JournalRecord(5, "note", b"never checkpointed")
    disk.write(JOURNAL_BLOB, stale + encode_record(orphan, MAC))
    disk.sync(JOURNAL_BLOB)

    reopened = open_plain(MemoryDisk(disk.durable_state()))
    assert reopened.recovery.journal == JOURNAL_STALE
    assert reopened.recovery.records_replayed == 0
    assert any("does not extend" in issue for issue in reopened.recovery.issues)


def test_missing_journal_with_checkpoint_recovers_the_checkpoint():
    disk, _ = build_disk_with_tail()
    manager = open_plain(disk)
    manager.checkpoint()
    state = disk.durable_state()
    del state[JOURNAL_BLOB]

    reopened = open_plain(MemoryDisk(state))
    assert reopened.recovery.checkpoint == CKPT_OK
    assert reopened.recovery.journal == JOURNAL_MISSING
    assert len(reopened.database.table("t").row_ids) == 3


# -- validation happens before journaling -------------------------------------

def test_invalid_mutations_never_reach_the_journal():
    disk = MemoryDisk()
    manager = open_plain(disk)
    manager.create_table(SCHEMA)
    journal_before = disk.read(JOURNAL_BLOB)

    with pytest.raises(SchemaError):
        manager.create_table(SCHEMA)                  # duplicate table
    with pytest.raises(NoSuchTableError):
        manager.insert("ghost", [1, "x"])
    with pytest.raises(NoSuchRowError):
        manager.update_value("t", 404, "v", "x")
    with pytest.raises(NoSuchRowError):
        manager.delete_row("t", 404)
    with pytest.raises(SchemaError):
        manager.create_index("i", "t", "nope")        # unknown column
    with pytest.raises(SchemaError):
        manager.create_index("i", "t", "k", kind="hash")

    assert disk.read(JOURNAL_BLOB) == journal_before
    # The manager is still healthy after the rejections.
    manager.insert("t", [1, "fine"])


def test_duplicate_index_name_rejected_before_journaling():
    disk = MemoryDisk()
    manager = open_plain(disk)
    manager.create_table(SCHEMA)
    manager.create_index("t_k", "t", "k")
    journal_before = disk.read(JOURNAL_BLOB)
    with pytest.raises(SchemaError):
        manager.create_index("t_k", "t", "v")
    assert disk.read(JOURNAL_BLOB) == journal_before


# -- audit neutrality ---------------------------------------------------------

def test_wal_audit_events_fire_only_when_enabled():
    events: list[dict] = []

    def run() -> dict:
        disk = MemoryDisk()
        manager = open_plain(disk)
        manager.create_table(SCHEMA)
        manager.insert("t", [1, "one"])
        manager.checkpoint()
        open_plain(MemoryDisk(disk.durable_state()))
        return disk.durable_state()

    was_enabled = AUDIT.enabled
    try:
        AUDIT.disable()
        silent = run()
        AUDIT.enable(timestamps=False)
        AUDIT.subscribe(events.append)
        loud = run()
    finally:
        AUDIT.unsubscribe(events.append)
        AUDIT.disable()
        if was_enabled:
            AUDIT.enable()

    kinds = {event["kind"] for event in events}
    assert {"wal.commit", "wal.checkpoint", "wal.replay"} <= kinds
    # Telemetry must never change what lands on disk.
    assert silent == loud
