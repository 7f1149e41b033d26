"""What one keyspace mount verifies.

The rotation resolution reads each shard's checkpoint and journal to
pick the key epoch; ``DurableDatabase.open`` then uses that verified
record and scan instead of reading and MAC-checking the same bytes
again.  Every row of the decision table that rewrites the checkpoint or
the journal makes ``open`` read afresh, so a verdict never outlives the
bytes it judged.  Counted like ``tests/resilience/test_scrub.py`` counts
a scrub pass: ``HMACMAC.tag`` calls (a verify computes one tag),
``decode_checkpoint`` calls and journal scans.  The manifest takes each
shard's checkpoint digest from its manager, so no checkpoint is read
back to build or check it.
"""

import hashlib
from collections import Counter

import pytest

from repro.core.encrypted_db import EncryptionConfig
from repro.core.keys import KeyChain
from repro.durability import manager
from repro.durability.vdisk import MemoryDisk
from repro.durability.wal import CHECKPOINT_BLOB, Journal, decode_checkpoint
from repro.mac.hmac_mac import HMACMAC
from repro.sharding import ShardedKeyspace, ShardRotation
from repro.sharding import shard as shard_module
from repro.sharding.manifest import read_manifest
from repro.sharding.shard import CHECKPOINT_NEXT

from tests.sharding.test_keyspace import MASTER, SCHEMA
from tests.sharding.test_rotation import NEW_MASTER, full_chain

CONFIG = EncryptionConfig.paper_fixed("eax")


class ReadCountingDisk(MemoryDisk):
    def __init__(self, blobs: dict[str, bytes]) -> None:
        super().__init__(blobs)
        self.reads: Counter = Counter()

    def read(self, name: str) -> bytes:
        self.reads[name] += 1
        return super().read(name)


def count_verifications(monkeypatch) -> Counter:
    """Count every tag, checkpoint decode and journal scan from here on."""
    counts: Counter = Counter()

    def counted(key, function):
        def call(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        return call

    monkeypatch.setattr(HMACMAC, "tag", counted("tags", HMACMAC.tag))
    monkeypatch.setattr(Journal, "scan", counted("scans", Journal.scan))
    for module in (shard_module, manager):
        monkeypatch.setattr(
            module, "decode_checkpoint", counted("decodes", decode_checkpoint)
        )
    return counts


def seed(disk: MemoryDisk) -> ShardedKeyspace:
    """Six rows, a checkpoint, four more: the journals hold 3 and 1."""
    keyspace = ShardedKeyspace.open(disk, KeyChain.single(MASTER), CONFIG, workers=1)
    keyspace.create_table(SCHEMA)
    for i in range(10):
        if i == 6:
            keyspace.checkpoint()
        keyspace.insert("recs", [i, f"name-{i:02d}", f"tag-{i:02d}"])
    return keyspace


def mount(monkeypatch, disk: MemoryDisk, chain: KeyChain):
    counts = count_verifications(monkeypatch)
    keyspace = ShardedKeyspace.open(disk, chain, CONFIG, workers=1)
    return keyspace, dict(counts)


def row_ids(keyspace: ShardedKeyspace) -> list[int]:
    return sorted(row[0] for _, _, row in keyspace.select_range("recs", "id", 0, 99))


def rows_answered(keyspace: ShardedKeyspace) -> int:
    """Rows the shards answer; a shard that lost its tables answers none."""
    return sum(
        len(s.manager.database.select_range("recs", "id", 0, 99))
        for s in keyspace.shards
        if "recs" in s.manager.database.table_names
    )


def assert_manifest_matches_disk(keyspace: ShardedKeyspace) -> None:
    """The stored manifest gives each shard its epoch, its manager's
    generation and the SHA-256 of its checkpoint blob (b"" if none)."""
    record = read_manifest(keyspace.disk, keyspace.chain)
    assert record.ok
    for shard in keyspace.shards:
        entry = record.manifest.entry(shard.shard_id)
        on_disk = (
            hashlib.sha256(shard.disk.read(CHECKPOINT_BLOB)).digest()
            if shard.disk.exists(CHECKPOINT_BLOB)
            else b""
        )
        assert (entry.key_epoch, entry.generation, entry.checkpoint_digest) == (
            shard.epoch, shard.manager.generation, on_disk
        )


def test_a_clean_mount_reads_and_checks_each_blob_once(monkeypatch):
    disk = MemoryDisk()
    keyspace = seed(disk)
    assert [len(s.manager.journal.scan().records) for s in keyspace.shards] == [3, 1]

    survivor = ReadCountingDisk(disk.durable_state())
    again, counts = mount(monkeypatch, survivor, KeyChain.single(MASTER))
    # One tag for the manifest, one per shard checkpoint, one per
    # journal record.
    assert counts == {"tags": 1 + 2 + (3 + 1), "decodes": 2, "scans": 2}
    # The manifest check takes each digest from the shard's manager.
    assert survivor.reads == {
        "manifest": 1,
        "s0.checkpoint": 1,
        "s0.wal": 1,
        "s1.checkpoint": 1,
        "s1.wal": 1,
    }
    assert [s.epoch for s in again.shards] == [0, 0]
    assert again.degraded_shards == []
    assert [s.manager.recovery.records_replayed for s in again.shards] == [3, 1]
    assert row_ids(again) == list(range(10))


def test_a_shard_without_a_checkpoint_is_judged_by_one_journal_scan(monkeypatch):
    disk = MemoryDisk()
    keyspace = ShardedKeyspace.open(disk, KeyChain.single(MASTER), CONFIG, workers=1)
    keyspace.create_table(SCHEMA)
    keyspace.insert("recs", [0, "name-00", "tag-00"])

    survivor = ReadCountingDisk(disk.durable_state())
    again, counts = mount(monkeypatch, survivor, KeyChain.single(MASTER))
    # Both journals hold the table, one also the row: one tag for the
    # manifest and one per journal record.
    assert counts == {"tags": 1 + 3, "scans": 2}
    assert survivor.reads == {"manifest": 1, "s0.wal": 1, "s1.wal": 1}
    assert row_ids(again) == [0]
    assert_manifest_matches_disk(again)


def _interrupted_rotation(phase: str, then=None) -> dict[str, bytes]:
    """Durable bytes after shard s0's rotation to epoch 1 stopped right
    after ``phase``; ``then`` edits s0's disk before the power cut."""
    disk = MemoryDisk()
    keyspace = seed(disk)
    keyspace.chain.extend(NEW_MASTER)
    for step in ShardRotation(keyspace.shards[0], keyspace.chain, 1).steps():
        if step == phase:
            break
    if then is not None:
        then(keyspace.shards[0].disk)
    return disk.durable_state()


def _install_rename(disk) -> None:
    disk.rename(CHECKPOINT_NEXT, CHECKPOINT_BLOB)


def _lose_staged(disk) -> None:
    disk.delete(CHECKPOINT_NEXT)


def _lose_both_checkpoints(disk) -> None:
    disk.delete(CHECKPOINT_NEXT)
    disk.delete(CHECKPOINT_BLOB)


def _rotated_case() -> tuple[dict[str, bytes], KeyChain]:
    disk = MemoryDisk()
    seed(disk).rotate(NEW_MASTER)
    return disk.durable_state(), full_chain()


def _wrong_chain_case() -> tuple[dict[str, bytes], KeyChain]:
    state, _ = _rotated_case()
    return state, KeyChain([MASTER, b"an-entirely-different-master!!!!"])


# (state and chain, epochs, rows, s0's rolled back / rolled forward /
# unauthenticated, degraded shards, counts).  Shard s1
# resolves cleanly in every case but the wrong chain, and after an
# interrupted rotation its mount costs 2 tags, 1 decode and 1 scan: the
# rest is s0 and the manifest.
CASES = {
    # Both shards at epoch 1 with empty journals and the manifest up to
    # date: a clean mount, and no manifest write.
    "finished rotation": (
        _rotated_case,
        [1, 1], 10, (False, False, False), [],
        {"tags": 3, "decodes": 2, "scans": 2},
    ),
    "roll back": (
        lambda: (_interrupted_rotation("armed"), full_chain()),
        [0, 0], 10, (True, False, False), [],
        {"tags": 7, "decodes": 3, "scans": 3},
    ),
    "roll forward from the staged checkpoint": (
        lambda: (_interrupted_rotation("committed"), full_chain()),
        [1, 0], 10, (False, True, False), [],
        {"tags": 10, "decodes": 4, "scans": 3},
    ),
    # A crash between the install rename and the WAL reset: the bytes
    # authenticate under epoch 1 and the old-epoch WAL is stale.
    "roll forward after the install rename": (
        lambda: (_interrupted_rotation("committed", _install_rename), full_chain()),
        [1, 0], 10, (False, True, False), [],
        {"tags": 8, "decodes": 4, "scans": 3},
    ),
    # Install finished, manifest behind: nothing is rewritten, so the
    # probe's verdict under epoch 1 is reused.
    "already installed epoch": (
        lambda: (_interrupted_rotation("installed"), full_chain()),
        [1, 0], 10, (False, True, False), [],
        {"tags": 6, "decodes": 3, "scans": 2},
    ),
    # The commit names a staged checkpoint that is gone: nothing can be
    # installed, and open replays up to the rotation markers, degraded.
    "committed rotation without its staged checkpoint": (
        lambda: (_interrupted_rotation("committed", _lose_staged), full_chain()),
        [0, 0], 10, (False, False, False), ["s0"],
        {"tags": 13, "decodes": 3, "scans": 3},
    ),
    # The same refusal with no checkpoint left at all: s0 mounts
    # degraded and empty, as any shard that lost its checkpoint does,
    # and s1 still answers its rows.
    "committed rotation without either checkpoint": (
        lambda: (
            _interrupted_rotation("committed", _lose_both_checkpoints),
            full_chain(),
        ),
        [0, 0], 2, (False, False, False), ["s0"],
        {"tags": 11, "decodes": 1, "scans": 3},
    ),
    "wrong chain": (
        _wrong_chain_case,
        [0, 0], 0, (False, False, True), ["s0", "s1"],
        {"tags": 7, "decodes": 6, "scans": 2},
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_each_resolution_row_keeps_its_outcome_and_count(monkeypatch, case):
    build, epochs, rows, flags, degraded, expected = CASES[case]
    state, chain = build()
    survivor, counts = mount(monkeypatch, MemoryDisk(state), chain)
    resolution = survivor.shards[0].resolution
    assert (
        resolution.rolled_back,
        resolution.rolled_forward,
        resolution.unauthenticated,
    ) == flags
    assert [s.epoch for s in survivor.shards] == epochs
    assert survivor.degraded_shards == degraded
    assert rows_answered(survivor) == rows
    assert counts == expected
    if not resolution.unauthenticated:
        # The wrong chain leaves the manifest alone on purpose.
        assert_manifest_matches_disk(survivor)
        survivor.checkpoint()
        assert_manifest_matches_disk(survivor)


def test_a_committed_rotation_without_either_checkpoint_refuses():
    state = _interrupted_rotation("committed", _lose_both_checkpoints)
    survivor = ShardedKeyspace.open(MemoryDisk(state), full_chain(), CONFIG, workers=1)
    s0, s1 = survivor.shards
    assert (
        "s0: committed rotation left neither a staged nor an installed "
        "new-epoch checkpoint"
    ) in s0.resolution.issues
    assert s0.manager.database.table_names == []
    assert len(s1.manager.database.select_range("recs", "id", 0, 99)) == 2
