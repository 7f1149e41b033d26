"""A child link that points back up the tree is corruption, not a hang.

``parse_image`` restores child links as stored, so a storage adversary
can plant a cycle.  Every walk down a structure must notice it: with
plaintext or [3] entries nothing binds the links and the walk itself
raises ``IndexCorruptionError``; under AEAD, Ref_I is associated data,
so decoding the relinked entry fails first.
"""

import pytest

from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.errors import AuthenticationError, IndexCorruptionError

MASTER_KEY = b"cyclic-links-master-key-01234567"
SCHEMA = TableSchema("t", [Column("k", ColumnType.INT)])
ROWS = 12

CONFIGS = [
    ("plaintext", EncryptionConfig(cell_scheme="plain", index_scheme="plain"),
     IndexCorruptionError),
    ("[3] Append", EncryptionConfig(
        cell_scheme="append", index_scheme="sdm2004", iv_policy="zero"),
     IndexCorruptionError),
    ("AEAD (EAX)", EncryptionConfig.paper_fixed("eax"), AuthenticationError),
]
IDS = [label for label, _, _ in CONFIGS]


def _indexed_db(config, kind):
    db = EncryptedDatabase(MASTER_KEY, config)
    db.create_table(SCHEMA)
    if kind == "btree":
        db.create_index("by_k", "t", "k", kind="btree", order=3)
    else:
        db.create_index("by_k", "t", "k", kind="table")
    for k in range(ROWS):
        db.insert("t", [k])
    return db, db.index("by_k").structure


@pytest.mark.parametrize("label, config, delete_error", CONFIGS, ids=IDS)
def test_btree_delete_and_height_stop_at_a_cyclic_child(label, config, delete_error):
    db, tree = _indexed_db(config, "btree")
    root = tree.node(tree.root_id)
    assert not root.is_leaf
    root.children[0] = root.node_id
    with pytest.raises(IndexCorruptionError, match="cycle"):
        tree.height()
    # Row 0 holds the smallest key, which routes into children[0].
    with pytest.raises(delete_error):
        db.delete_row("t", 0)


@pytest.mark.parametrize(
    "config", [config for _, config, _ in CONFIGS], ids=IDS
)
def test_index_table_height_stops_at_a_cyclic_child(config):
    _, index = _indexed_db(config, "table")
    root = index.row(index.root_id)
    assert not root.is_leaf
    root.left = root.row_id
    with pytest.raises(IndexCorruptionError, match="cycle"):
        index.height()


def _longest_path(index, row_id):
    row = index.row(row_id)
    if row.is_leaf:
        return 0
    return 1 + max(_longest_path(index, row.left), _longest_path(index, row.right))


def test_heights_of_intact_structures_are_unchanged():
    config = EncryptionConfig(cell_scheme="plain", index_scheme="plain")
    _, tree = _indexed_db(config, "btree")
    _, index = _indexed_db(config, "table")
    assert tree.height() == 2
    # Ascending inserts grow the (not self-balancing) index table into a
    # chain; a rebuild balances it.
    assert index.height() == _longest_path(index, index.root_id) == ROWS - 1
    index.rebuild()
    assert index.height() == _longest_path(index, index.root_id) == 4
