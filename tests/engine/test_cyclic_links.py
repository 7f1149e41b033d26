"""A rewritten link is corruption, not a hang.

``parse_image`` restores child links, sibling links and the leaf chain
as stored, so a storage adversary can plant a cycle or a dangling
reference.  Every walk over a structure must notice it: with plaintext
or [3] entries nothing binds the links and the walk itself raises
``IndexCorruptionError`` (a cycle) or ``NoSuchRowError`` (a dangling
link); under [12] the MAC covers Ref_I and under AEAD it is associated
data, so decoding the relinked entry fails first.

The matrix runs each walk under a watchdog, so a walk that loops fails
its test instead of hanging the suite.
"""

import signal
import struct
from contextlib import contextmanager

import pytest

from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.core.session import ClientSideTraversal
from repro.engine.btree import NO_REF, BPlusTree
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.storage import dump_database, load_database
from repro.errors import AuthenticationError, IndexCorruptionError, NoSuchRowError
from repro.robustness.faults import map_image

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


def _indexed_db(config, kind, backfill=False):
    """``backfill`` builds the index over the stored rows (a balanced
    index table); otherwise every row is inserted into it."""
    db = EncryptedDatabase(MASTER_KEY, config)
    db.create_table(SCHEMA)
    if backfill:
        for k in range(ROWS):
            db.insert("t", [k])
    if kind == "btree":
        db.create_index("by_k", "t", "k", kind="btree", order=3)
    else:
        db.create_index("by_k", "t", "k", kind="table")
    if not backfill:
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


# -- the link-fault matrix: every walk, every rewritten link ---------------

#: (label, config, whether the stored entries bind their links)
MATRIX_CONFIGS = [
    ("plain", CONFIGS[0][1], False),
    ("[3] Append", CONFIGS[1][1], False),
    ("[12] faithful", EncryptionConfig(
        cell_scheme="append", index_scheme="dbsec2005", faithful_leaf_bug=True),
     True),
    ("[12] fixed", EncryptionConfig(
        cell_scheme="append", index_scheme="dbsec2005", faithful_leaf_bug=False),
     True),
    ("AEAD (EAX)", CONFIGS[2][1], True),
]
MISSING = 10_000
ABOVE = ROWS + 5
WATCHDOG_S = 5


@contextmanager
def watchdog():
    """Fail the walk inside if it still runs after ``WATCHDOG_S`` seconds.

    Armed around the walk alone, so the alarm cannot fire while pytest
    builds the database or reports a failure."""

    def expire(signum, frame):
        pytest.fail(f"walk still running after {WATCHDOG_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, WATCHDOG_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def key_of(k: int) -> bytes:
    return (k + (1 << 63)).to_bytes(8, "big")


def _leaf_chain(structure):
    """Leaf ids in chain order, read before any fault is planted."""
    chain = [structure._leftmost_leaf()]
    while True:
        if isinstance(structure, BPlusTree):
            following = structure.node(chain[-1]).next_leaf
        else:
            following = structure.row(chain[-1]).sibling
        if following == NO_REF:
            return chain
        chain.append(following)


def _plant_ancestor(structure):
    """The root's first child links back to the root."""
    if isinstance(structure, BPlusTree):
        root = structure.node(structure.root_id)
        structure.node(root.children[0]).children[0] = root.node_id
    else:
        root = structure.row(structure.root_id)
        structure.row(root.left).left = root.row_id


def _plant_dangling(structure):
    """The root's first child link names a node that does not exist."""
    if isinstance(structure, BPlusTree):
        structure.node(structure.root_id).children[0] = MISSING
    else:
        structure.row(structure.root_id).left = MISSING


def _plant_leaf_cycle(structure):
    """The last leaf links back to the first."""
    chain = _leaf_chain(structure)
    if isinstance(structure, BPlusTree):
        structure.node(chain[-1]).next_leaf = chain[0]
    else:
        structure.row(chain[-1]).sibling = chain[0]


FAULTS = {
    "ancestor": _plant_ancestor,
    "dangling": _plant_dangling,
    "leaf cycle": _plant_leaf_cycle,
}
WALKS = {
    "insert": lambda s: s.insert(key_of(0), ABOVE),
    "delete": lambda s: s.delete(key_of(0), 0),
    # Under the B⁺-tree this is the duplicate-chain fallback: the key
    # routes to the last leaf, misses, and follows the chain.
    "delete above every key": lambda s: s.delete(key_of(ABOVE), ABOVE),
    "range_search": lambda s: s.range_search(key_of(0), None),
    "items": lambda s: s.items(),
    "height": lambda s: s.height(),
    "client search": lambda s: ClientSideTraversal(s).search(key_of(0)),
    "client range_search": lambda s: ClientSideTraversal(s).range_search(
        key_of(0), key_of(ABOVE)
    ),
}
#: (walk, fault, how the walk reads the entry whose link was rewritten:
#: "verified", "query" (the codec's decode_for_query) or "nothing").
CASES = [
    ("insert", "ancestor", "verified"),
    ("insert", "dangling", "verified"),
    ("delete", "ancestor", "verified"),
    ("delete", "dangling", "verified"),
    ("delete above every key", "leaf cycle", "verified"),
    ("range_search", "ancestor", "query"),
    ("range_search", "dangling", "query"),
    ("range_search", "leaf cycle", "query"),
    ("items", "ancestor", "nothing"),
    ("items", "dangling", "nothing"),
    ("items", "leaf cycle", "verified"),
    ("height", "ancestor", "nothing"),
    ("height", "dangling", "nothing"),
    ("client search", "ancestor", "verified"),
    ("client search", "dangling", "verified"),
    ("client range_search", "leaf cycle", "verified"),
]


@pytest.mark.parametrize("walk, fault, reads", CASES, ids=[
    f"{walk}-{fault}" for walk, fault, _ in CASES
])
@pytest.mark.parametrize("kind", ["btree", "table"])
@pytest.mark.parametrize(
    "config, binds_links",
    [(config, binds) for _, config, binds in MATRIX_CONFIGS],
    ids=[label for label, _, _ in MATRIX_CONFIGS],
)
def test_a_rewritten_link_raises_a_typed_error(
    config, binds_links, kind, walk, fault, reads
):
    _, structure = _indexed_db(config, kind, backfill=True)
    FAULTS[fault](structure)
    at_leaf = fault == "leaf cycle"
    verified = reads == "verified" or (
        reads == "query" and structure.codec.verifies_at_query(at_leaf)
    )
    if binds_links and verified:
        expected, match = AuthenticationError, None
    elif fault == "dangling":
        expected, match = NoSuchRowError, None
    else:
        expected, match = IndexCorruptionError, "cycle"
    with watchdog(), pytest.raises(expected, match=match):
        WALKS[walk](structure)


def test_a_relinked_root_in_a_stored_image_fails_the_next_insert():
    config = CONFIGS[1][1]  # [3] Append: nothing binds the links
    db, index = _indexed_db(config, "table", backfill=True)
    image = bytearray(dump_database(db))
    chart = map_image(bytes(image))
    root = next(
        record for record in chart.records
        if record.where == f"idx:by_k[{index.root_id}]"
    )
    # The record's pointers are its left, right and sibling links.
    offset, left = next(
        (offset, value) for offset, value in chart.pointers
        if root.start <= offset < root.end
    )
    assert left == index.row(index.root_id).left
    struct.pack_into(">q", image, offset, index.root_id)

    keys = EncryptedDatabase(MASTER_KEY, config)
    loaded = load_database(
        bytes(image),
        cell_codec=keys.cell_codec,
        index_codec_factory=keys._build_index_codec,
    )
    with watchdog(), pytest.raises(
        IndexCorruptionError, match="cycle through inner row"
    ):
        loaded.insert("t", [-1])
