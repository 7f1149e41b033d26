"""The unified chaos campaign, plus engine-level anchor integration."""

import pytest

from repro.core.encrypted_db import EncryptedDatabase
from repro.core.keys import KeyRing
from repro.durability.manager import DurableDatabase
from repro.durability.vdisk import MemoryDisk
from repro.durability.wal import journal_mac
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.errors import StaleImageError
from repro.resilience.anchor import MemoryAnchor
from repro.resilience.chaos import run_chaos_campaign
from repro.robustness.campaign import default_campaign_configs

MASTER_KEY = b"test-master-key-0123456789abcdef"

SCHEMA = TableSchema(
    "people",
    [
        Column("id", ColumnType.INT),
        Column("name", ColumnType.TEXT),
    ],
)


def open_database(disk, anchor=None):
    db = EncryptedDatabase(MASTER_KEY, default_campaign_configs()[4][1])
    return DurableDatabase.open(
        disk,
        journal_mac(KeyRing(MASTER_KEY)),
        cell_codec=db.cell_codec,
        index_codec_factory=db._build_index_codec,
        anchor=anchor,
    )


# -- anchor wiring through the durable engine ---------------------------------

def test_anchored_database_detects_a_rollback_on_open():
    disk = MemoryDisk()
    anchor = MemoryAnchor()
    manager = open_database(disk, anchor=anchor)
    manager.create_table(SCHEMA)
    manager.insert("people", [0, "zero"])
    stale = disk.clone()
    manager.insert("people", [1, "one"])
    manager.checkpoint()

    # Honest remount of the current state is fine...
    open_database(disk.clone(), anchor=anchor)
    # ...but the pre-checkpoint snapshot is a detected rollback.
    with pytest.raises(StaleImageError):
        open_database(stale, anchor=anchor)


def test_unanchored_database_stays_byte_identical():
    """The anchor is opt-in: with anchor=None the storage bytes must be
    exactly those of a build without the resilience layer."""
    plain, anchored = MemoryDisk(), MemoryDisk()
    for disk, anchor in ((plain, None), (anchored, MemoryAnchor())):
        manager = open_database(disk, anchor=anchor)
        manager.create_table(SCHEMA)
        manager.insert("people", [0, "zero"])
        manager.checkpoint()
    assert {n: plain.read(n) for n in plain.names()} == {
        n: anchored.read(n) for n in anchored.names()
    }


def test_rotation_markers_do_not_advance_the_anchor():
    """Rotation begin/progress records legitimately disappear when a
    crash aborts the rotation; anchoring them would turn every aborted
    rotation into a false rollback alarm."""
    from repro.durability.manager import ROTATION_OPS

    disk = MemoryDisk()
    anchor = MemoryAnchor()
    manager = open_database(disk, anchor=anchor)
    manager.create_table(SCHEMA)
    manager.insert("people", [0, "zero"])
    before = anchor.get("db")
    for op in ROTATION_OPS:
        manager.commit_record(op, b'{"epoch": 1}')
    assert anchor.get("db") == before


# -- the campaign itself ------------------------------------------------------

def test_chaos_campaign_holds_all_invariants_on_a_small_schedule():
    configs = [default_campaign_configs()[0], default_campaign_configs()[4]]
    result = run_chaos_campaign(steps=15, seed=11, configs=configs)
    assert result.ok, result.violations
    for per in result.per_config:
        # The forced tail makes every run non-vacuous.
        assert per.rollbacks_injected >= 1
        assert per.rollbacks_detected == per.rollbacks_injected
        assert per.corruptions >= 1
        assert per.inserts_acked >= 2
        assert per.scrubs >= 1
        assert per.flaky_failures >= 1


def test_chaos_campaign_is_deterministic_under_a_seed():
    configs = [default_campaign_configs()[0]]
    first = run_chaos_campaign(steps=12, seed=4, configs=configs)
    second = run_chaos_campaign(steps=12, seed=4, configs=configs)
    assert first.per_config == second.per_config
    # Pinned, not just repeatable: a change that moves the schedule's
    # outcome moves it in both runs.
    assert first.format_matrix().splitlines() == [
        "chaos campaign (12 scheduled events, seed 4, 3 flaky+retrying "
        "replicas, 2 shards per configuration)",
        "configuration       events  acked  crashes  corruptions  repairs  "
        "rollbacks  detected  rotations  scrubs  violations",
        "------------------  ------  -----  -------  -----------  -------  "
        "---------  --------  ---------  ------  ----------",
        "plaintext baseline  12      5      1        3            3        "
        "1          1         0          2       0",
    ]


def test_chaos_campaign_matrix_mentions_the_schedule():
    configs = [default_campaign_configs()[0]]
    result = run_chaos_campaign(steps=10, seed=2, configs=configs)
    matrix = result.format_matrix()
    assert "chaos campaign" in matrix
    assert "seed 2" in matrix
    assert "rollbacks" in matrix


def test_chaos_campaign_validates_its_arguments():
    with pytest.raises(ValueError):
        run_chaos_campaign(steps=0)
    with pytest.raises(ValueError):
        run_chaos_campaign(steps=5, replicas=1)
