"""What the one re-encryption walk of both rotations must get right.

Tombstones: ``IndexTable.delete`` only marks a leaf deleted; the row,
and its payload, stay in storage, and ``IndexTable.insert`` decodes the
leaf its descent ends on whether or not it is tombstoned.  A rotation
that skipped tombstones left them under the retired key: readable by
anyone holding it, and fatal to the next insert that lands on such a
leaf.  Both callers are checked — ``rotate_master_key`` and
``ShardedKeyspace.rotate`` — under EAX, [3] and [12].

The swap: ``rotate_master_key`` re-encrypts a clone and swaps its
tables and index structures in, keeping each ``IndexInfo``.
"""

import pytest

from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.core.keys import KeyChain
from repro.core.rotation import rotate_master_key
from repro.durability.vdisk import MemoryDisk
from repro.engine.query import PointQuery
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.storage import dump_database
from repro.errors import AuthenticationError, CryptoError
from repro.sharding import ShardedKeyspace
from repro.sharding.shard import shard_crypto

OLD_KEY = b"tombstone-old-master-0123456789ab"
NEW_KEY = b"tombstone-new-master-0123456789ab"
THIRD_KEY = b"tombstone-3rd-master-0123456789ab"

SCHEMA = TableSchema("t", [
    Column("k", ColumnType.INT),
    Column("v", ColumnType.TEXT),
])

CONFIGS = [
    pytest.param(EncryptionConfig.paper_fixed("eax"), id="eax"),
    pytest.param(EncryptionConfig.paper_broken("append", "sdm2004"), id="sdm2004"),
    pytest.param(EncryptionConfig.paper_broken("append", "dbsec2005"), id="dbsec2005"),
]


def _value(i: int) -> str:
    return f"value-{i:03d}"


def _assert_no_payload_decodes_under(db, old: EncryptedDatabase) -> None:
    """Every stored index payload, tombstones included, is out of reach
    of the retired key: its codec rejects it or reads something else."""
    for name in db.index_names:
        info = db.index(name)
        table = db.table(info.table)
        structure = info.structure
        old_codec = old._build_index_codec(
            structure.index_table_id,
            table.table_id,
            table.schema.column_index(info.column),
        )
        rows = list(structure.raw_rows())
        assert any(row.deleted for row in rows)
        for row in rows:
            refs = row.refs(structure.index_table_id)
            current = structure.codec.decode(row.payload, refs)
            try:
                stale = old_codec.decode(row.payload, refs)
            except CryptoError:
                continue
            assert stale != current, f"{name} row {row.row_id} opens under the old key"


def _build(config) -> EncryptedDatabase:
    db = EncryptedDatabase(OLD_KEY, config)
    db.create_table(SCHEMA)
    for i in range(8):
        db.insert("t", [i, _value(i)])
    db.create_index("t_v", "t", "v", kind="table")
    db.delete_row("t", 3)
    return db


@pytest.mark.parametrize("config", CONFIGS)
def test_rotate_master_key_reencrypts_tombstones(config):
    db = _build(config)

    rotate_master_key(db, NEW_KEY)

    _assert_no_payload_decodes_under(db, EncryptedDatabase(OLD_KEY, config))
    row = db.insert("t", [3, _value(3)])
    assert PointQuery("t", "v", _value(3)).execute(db).row_ids() == [row]


@pytest.mark.parametrize("config", CONFIGS)
def test_sharded_rotation_reencrypts_tombstones(config):
    keyspace = ShardedKeyspace.open(
        MemoryDisk(), KeyChain.single(OLD_KEY), config, workers=1
    )
    keyspace.create_table(SCHEMA)
    for i in range(8):
        keyspace.insert("t", [i, _value(i)])
    keyspace.create_index("t_v", "t", "v", kind="table")
    deleted = []
    for shard in keyspace.shards:
        database = shard.manager.database
        row_id = database.table("t").row_ids[0]
        deleted.append(database.get_value("t", row_id, "k"))
        shard.manager.delete_row("t", row_id)

    keyspace.rotate(NEW_KEY)

    for shard in keyspace.shards:
        old, _ = shard_crypto(keyspace.chain, shard.shard_id, 0, config)
        _assert_no_payload_decodes_under(shard.manager.database, old)
    for k in deleted:
        placed = keyspace.insert("t", [k, _value(k)])
        hits = keyspace.select_equals("t", "v", _value(k))
        assert [(index, row) for index, row, _ in hits] == [placed]


def test_a_tombstone_left_under_a_retired_key_fails_the_rotation_atomically():
    """A tombstone an older rotation left behind under its retired key
    makes the next rotation raise — it is never skipped — and the
    database keeps every byte and its key ring."""
    db = _build(EncryptionConfig.paper_fixed("eax"))
    tombstone = next(
        row for row in db.index("t_v").structure.raw_rows() if row.deleted
    )
    retired_payload = tombstone.payload
    rotate_master_key(db, NEW_KEY)
    # What an older rotation, which skipped tombstones, left behind.
    db.index("t_v").structure.tamper(tombstone.row_id, retired_payload)
    image = dump_database(db)
    ring = db.keys

    with pytest.raises(AuthenticationError):
        rotate_master_key(db, THIRD_KEY)

    assert dump_database(db) == image
    assert db.keys is ring and not ring.is_wiped
    assert db.get_value("t", 5, "v") == _value(5)


def test_the_swap_keeps_each_index_info_and_its_quarantine_flag():
    db = _build(EncryptionConfig.paper_fixed("eax"))
    info = db.quarantine_index("t_v")
    rotate_master_key(db, NEW_KEY)
    assert db.index("t_v") is info and info.quarantined
    # Queries on the quarantined column degrade to a verified scan.
    assert PointQuery("t", "v", _value(5)).execute(db).row_ids() == [5]
