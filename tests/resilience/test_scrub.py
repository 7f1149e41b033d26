"""Anti-entropy scrub: verify, elect, repair — under every scheme config."""

import pytest

from repro.core.encrypted_db import EncryptedDatabase
from repro.core.keys import KeyChain, KeyRing
from repro.durability.manager import DurableDatabase
from repro.durability.vdisk import MemoryDisk
from repro.durability.wal import (
    CHECKPOINT_BLOB,
    JOURNAL_BLOB,
    encode_journal_header,
    journal_mac,
    scan_journal,
)
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.errors import StaleImageError
from repro.mac.hmac_mac import HMACMAC
from repro.resilience.anchor import MemoryAnchor
from repro.resilience.replica import MirroredDisk
from repro.resilience.scrub import scrub_database, scrub_keyspace
from repro.robustness.campaign import default_campaign_configs
from repro.sharding.keyspace import ShardedKeyspace

MASTER_KEY = b"test-master-key-0123456789abcdef"

SCHEMA = TableSchema(
    "people",
    [
        Column("id", ColumnType.INT),
        Column("name", ColumnType.TEXT),
        Column("city", ColumnType.TEXT, sensitive=False),
    ],
)


def mirror3() -> MirroredDisk:
    return MirroredDisk([MemoryDisk(), MemoryDisk(), MemoryDisk()])


def open_database(mirror: MirroredDisk) -> DurableDatabase:
    db = EncryptedDatabase(MASTER_KEY, default_campaign_configs()[4][1])
    return DurableDatabase.open(
        mirror,
        journal_mac(KeyRing(MASTER_KEY)),
        cell_codec=db.cell_codec,
        index_codec_factory=db._build_index_codec,
    )


def seeded_database(mirror: MirroredDisk) -> DurableDatabase:
    manager = open_database(mirror)
    manager.create_table(SCHEMA)
    for i in range(3):
        manager.insert("people", [i, f"name-{i}", f"city-{i % 2}"])
    manager.checkpoint()
    manager.insert("people", [3, "name-3", "city-1"])
    return manager


def bitflip(disk, name: str, offset_fraction: float = 0.5) -> None:
    blob = bytearray(disk.read(name))
    blob[int(len(blob) * offset_fraction) % len(blob)] ^= 0x20
    disk.write(name, bytes(blob))
    disk.sync(name)


def tear(disk, name: str) -> None:
    blob = disk.read(name)
    disk.write(name, blob[: (len(blob) + 1) // 2])
    disk.sync(name)


# -- single-database scrub ----------------------------------------------------

def test_clean_mirror_scrubs_with_no_repairs():
    mirror = mirror3()
    manager = seeded_database(mirror)
    report = scrub_database(mirror, manager.mac)
    assert report.ok
    assert report.repairs == 0
    assert report.blobs_checked == 2  # journal + checkpoint
    assert report.mac_verifications == 6


def count_tags(monkeypatch) -> list[int]:
    """Count every HMAC tag computed from here on."""
    tags = [0]
    tag = HMACMAC.tag

    def counted(self, message):
        tags[0] += 1
        return tag(self, message)

    monkeypatch.setattr(HMACMAC, "tag", counted)
    return tags


def test_a_clean_pass_macs_each_distinct_copy_once(monkeypatch):
    # Three byte-identical copies of the checkpoint and of the one-record
    # journal: one MAC each, and the journal bound reuses the checkpoint
    # verdict.  The report still counts every copy it checked.
    mirror = mirror3()
    manager = seeded_database(mirror)
    tags = count_tags(monkeypatch)
    report = scrub_database(mirror, manager.mac)
    assert report.ok and report.repairs == 0
    assert report.mac_verifications == 6
    assert tags[0] == 2


@pytest.mark.parametrize("blob", [CHECKPOINT_BLOB, JOURNAL_BLOB])
def test_a_corrupt_copy_costs_one_more_mac(monkeypatch, blob):
    mirror = mirror3()
    manager = seeded_database(mirror)
    bitflip(mirror.replicas[1], blob)
    tags = count_tags(monkeypatch)
    report = scrub_database(mirror, manager.mac)
    assert report.ok
    assert report.repairs == 1
    assert report.mac_verifications == 6
    assert tags[0] == 3


@pytest.mark.parametrize("corrupt", [bitflip, tear])
@pytest.mark.parametrize("blob", [JOURNAL_BLOB, CHECKPOINT_BLOB])
def test_single_replica_corruption_is_repaired(corrupt, blob):
    mirror = mirror3()
    manager = seeded_database(mirror)
    corrupt(mirror.replicas[1], blob)

    report = scrub_database(mirror, manager.mac)
    assert report.ok
    assert report.repairs == 1
    healthy = mirror.replicas[0].read(blob)
    assert mirror.replicas[1].read(blob) == healthy


def test_corruption_on_every_replica_is_unrepairable():
    mirror = mirror3()
    manager = seeded_database(mirror)
    for replica in mirror.replicas:
        bitflip(replica, CHECKPOINT_BLOB)

    report = scrub_database(mirror, manager.mac, repair=True)
    assert not report.ok
    assert report.unrepaired == [CHECKPOINT_BLOB]


def test_no_repair_mode_reports_divergence_without_writing():
    mirror = mirror3()
    manager = seeded_database(mirror)
    bitflip(mirror.replicas[2], JOURNAL_BLOB)
    before = mirror.replicas[2].read(JOURNAL_BLOB)

    report = scrub_database(mirror, manager.mac, repair=False)
    assert report.repairs == 0
    assert any(o.outcome == "divergent" for o in report.outcomes)
    assert mirror.replicas[2].read(JOURNAL_BLOB) == before


def test_single_replica_rollback_is_healed_as_less_fresh():
    mirror = mirror3()
    manager = open_database(mirror)
    manager.create_table(SCHEMA)
    manager.insert("people", [0, "name-0", "city-0"])
    stale = {
        name: mirror.replicas[0].read(name)
        for name in mirror.replicas[0].names()
    }
    manager.insert("people", [1, "name-1", "city-1"])
    # Replica 2 silently reverts to the pre-insert state: an authentic
    # but *older* copy, which must lose the freshness election.
    for name, data in stale.items():
        mirror.replicas[2].write(name, data)
        mirror.replicas[2].sync(name)

    report = scrub_database(mirror, manager.mac)
    assert report.ok
    assert report.repairs >= 1
    assert (
        mirror.replicas[2].read(JOURNAL_BLOB)
        == mirror.replicas[0].read(JOURNAL_BLOB)
    )


def test_flipped_header_generation_cannot_poison_the_election():
    """Regression: the journal header's generation is the one field no
    MAC covers.  A flipped generation once produced the *highest*
    freshness tuple, electing the corrupt copy and rolling every healthy
    replica back to it — acknowledged-commit loss caused by the repair
    tool itself.  The election now bounds the claimed generation by the
    newest MAC-verified checkpoint generation."""
    mirror = mirror3()
    manager = seeded_database(mirror)
    replica = mirror.replicas[0]
    blob = replica.read(JOURNAL_BLOB)
    scan = scan_journal(blob, manager.mac)
    honest_header = encode_journal_header(scan.generation)
    forged_header = encode_journal_header(scan.generation + 22)
    assert blob.startswith(honest_header)
    replica.write(JOURNAL_BLOB, forged_header + blob[len(honest_header):])
    replica.sync(JOURNAL_BLOB)

    report = scrub_database(mirror, manager.mac)
    assert report.ok
    healed = scan_journal(replica.read(JOURNAL_BLOB), manager.mac)
    assert healed.generation == scan.generation
    assert replica.read(JOURNAL_BLOB) == mirror.replicas[1].read(JOURNAL_BLOB)


# -- sharded-keyspace scrub, all six configurations ---------------------------

def seeded_keyspace(mirror, config, anchor=None):
    chain = KeyChain.single(MASTER_KEY)
    keyspace = ShardedKeyspace.open(
        mirror, chain, config, shard_count=2, workers=1, anchor=anchor
    )
    keyspace.create_table(SCHEMA)
    for i in range(4):
        keyspace.insert("people", [i, f"name-{i}", f"city-{i % 2}"])
    keyspace.checkpoint()
    keyspace.insert("people", [4, "name-4", "city-0"])
    return keyspace, chain


@pytest.mark.parametrize("corrupt", [bitflip, tear])
@pytest.mark.parametrize(
    "label,config", default_campaign_configs(), ids=lambda v: str(v)[:24]
)
def test_keyspace_scrub_repairs_each_config(label, config, corrupt):
    mirror = mirror3()
    _, chain = seeded_keyspace(mirror, config)
    for blob in ("s0.wal", "s1.checkpoint", "manifest"):
        corrupt(mirror.replicas[1], blob)

    report = scrub_keyspace(mirror, chain)
    assert report.ok, report.format()
    assert report.repairs == 3
    for blob in ("s0.wal", "s1.checkpoint", "manifest"):
        assert (
            mirror.replicas[1].read(blob) == mirror.replicas[0].read(blob)
        ), blob


def test_a_clean_keyspace_pass_macs_each_distinct_copy_once(monkeypatch):
    # Manifest, two checkpoints and the one journal holding a record:
    # four MACs for fifteen copies checked, (1 + 2 * shards) * replicas.
    label, config = default_campaign_configs()[4]
    mirror = mirror3()
    _, chain = seeded_keyspace(mirror, config)
    tags = count_tags(monkeypatch)
    report = scrub_keyspace(mirror, chain)
    assert report.ok and report.repairs == 0
    assert report.mac_verifications == 15
    assert tags[0] == 4


def test_keyspace_scrub_survives_a_rotation_epoch_mix():
    label, config = default_campaign_configs()[4]
    mirror = mirror3()
    keyspace, chain = seeded_keyspace(mirror, config)
    keyspace.rotate(b"rotated-master-key-fedcba98765432")
    bitflip(mirror.replicas[0], "s1.wal")

    report = scrub_keyspace(mirror, chain)
    assert report.ok, report.format()
    assert report.repairs >= 1


def test_lockstep_rollback_trips_the_anchor_not_the_scrub():
    """A rollback of *every* replica is invisible to any vote or scrub —
    only the trust anchor can catch it, as a typed StaleImageError."""
    label, config = default_campaign_configs()[4]
    mirror = mirror3()
    anchor = MemoryAnchor()
    keyspace, chain = seeded_keyspace(mirror, config, anchor=anchor)
    stale = [
        {name: r.read(name) for name in r.names()} for r in mirror.replicas
    ]
    keyspace.insert("people", [5, "name-5", "city-1"])
    keyspace.checkpoint()

    rolled = MirroredDisk([MemoryDisk(state) for state in stale])
    report = scrub_keyspace(rolled, chain)
    assert report.ok  # the scrub sees a consistent (stale) world

    with pytest.raises(StaleImageError):
        ShardedKeyspace.open(
            rolled, chain, config, shard_count=2, workers=1, anchor=anchor
        )
