"""The verified-entry cache inside the B⁺-tree and the index table.

A remembered plaintext must be exactly what decoding the same bytes at
the same place would return.  So the cache may change how many entries
a query decodes, and nothing else: not an answer, not an error type,
not a stored byte, and not the footnote-1 behaviour of the faithful
[12] query code.
"""

import sys
import threading
from collections import OrderedDict
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability
from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.core.rotation import rotate_master_key
from repro.engine.btree import BPlusTree
from repro.engine.codec import (
    VERIFIED_ENTRIES_BOUND,
    EntryRefs,
    PlainEntryCodec,
    VerifiedPlaintexts,
    uncached,
)
from repro.engine.indextable import NO_REF
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.storage import dump_database
from repro.errors import AuthenticationError, ReproError
from repro.robustness.campaign import default_campaign_configs

MASTER_KEY = b"verified-entries-master-key-0123"
SCHEMA = TableSchema("t", [
    Column("k", ColumnType.INT),
    Column("v", ColumnType.TEXT),
])

EAX = EncryptionConfig.paper_fixed("eax")
FAITHFUL_12 = EncryptionConfig(
    cell_scheme="append", index_scheme="dbsec2005", iv_policy="zero"
)
APPEND_3 = EncryptionConfig(
    cell_scheme="append", index_scheme="sdm2004", iv_policy="zero"
)
CONFIGS = [("EAX", EAX), ("[12] faithful", FAITHFUL_12), ("[3] Append", APPEND_3)]
IDS = [label for label, _ in CONFIGS]


@pytest.fixture(autouse=True)
def _global_observability():
    observability.disable()
    observability.reset()
    yield
    observability.disable()
    observability.reset()


def _database(config, rows=()):
    """``k`` behind a B⁺-tree, ``v`` behind an index table."""
    db = EncryptedDatabase(MASTER_KEY, config)
    db.create_table(SCHEMA)
    db.create_index("by_k", "t", "k", kind="btree", order=3)
    db.create_index("by_v", "t", "v", kind="table")
    for k, v in rows:
        db.insert("t", [k, v])
    return db


def _structures(db):
    return db.index("by_k").structure, db.index("by_v").structure


def _text(k):
    return f"v{k:03d}"


# -- differential: cached and uncached runs are indistinguishable -------

KEYS = st.integers(min_value=0, max_value=15)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), KEYS),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("point"), KEYS),
        st.tuples(st.just("range"), KEYS, KEYS),
    ),
    max_size=24,
)


def _apply(db, operation):
    kind, *args = operation
    if kind == "insert":
        return db.insert("t", [args[0], _text(args[0])])
    if kind == "delete":
        # Ids past the last insert name no row: a typed error.
        return db.delete_row("t", args[0])
    if kind == "point":
        return (
            db.select_equals("t", "k", args[0]),
            db.select_equals("t", "v", _text(args[0])),
        )
    low, high = sorted(args)
    return (
        db.select_range("t", "k", low, high),
        db.select_range("t", "v", _text(low), _text(high)),
    )


def _replay(config, operations, cold):
    """Every answer or error type of ``operations``, and the final image.

    The first ``cold`` operations run uncached, so the rest meet entries
    nothing remembered and fill the cache by decoding.
    """
    db = _database(config)
    outcomes = []
    for position, operation in enumerate(operations):
        scope = uncached() if position < cold else nullcontext()
        try:
            with scope:
                outcomes.append(_apply(db, operation))
        except ReproError as exc:
            outcomes.append(type(exc))
    return outcomes, dump_database(db)


@pytest.mark.parametrize("label, config", CONFIGS, ids=IDS)
@given(operations=OPERATIONS, cold=st.integers(min_value=0, max_value=24))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_cache_changes_no_answer_error_or_stored_byte(
    label, config, operations, cold
):
    cached = _replay(config, operations, cold)
    with uncached():
        assert _replay(config, operations, cold) == cached


@pytest.mark.parametrize(
    "label, config", default_campaign_configs(),
    ids=[label for label, _ in default_campaign_configs()],
)
def test_every_remembered_plaintext_is_what_decoding_returns(label, config):
    db = _database(config, [(k % 7, _text(k)) for k in range(30)])
    for row_id in range(0, 30, 4):
        db.delete_row("t", row_id)
    for structure in _structures(db):
        # The cache binds the fields of each entry's EntryRefs.
        remembered = [
            (payload, EntryRefs(*binding), plain)
            for (payload, binding), plain in structure._verified._entries.items()
        ]
        assert any(not refs.is_leaf for _, refs, _ in remembered)
        for payload, refs, plain in remembered:
            assert structure.codec.decode(payload, refs) == plain


# -- tampering after the cache is warm ---------------------------------

ROWS = [(k, _text(k)) for k in range(12)]


def _leaf_slots(structure):
    """(tamper address, payload) of every leaf entry, in storage order."""
    if isinstance(structure, BPlusTree):
        return [
            ((node_id, slot), entry.payload)
            for node_id, slot, entry in structure.raw_entries()
            if structure.node(node_id).is_leaf
        ]
    return [
        ((row.row_id,), row.payload)
        for row in structure.raw_rows()
        if row.is_leaf and not row.deleted
    ]


def _flip_a_leaf_bit(structure):
    address, payload = _leaf_slots(structure)[0]
    structure.tamper(*address, payload[:-1] + bytes([payload[-1] ^ 1]))


def _swap_leaves(structure):
    slots = _leaf_slots(structure)
    (first, first_payload), (second, second_payload) = slots[2], slots[9]
    structure.tamper(*first, second_payload)
    structure.tamper(*second, first_payload)


def _relink(structure):
    if isinstance(structure, BPlusTree):
        # Point the leftmost leaf's sibling link two leaves further on.
        leaf = structure.node(structure._leftmost_leaf())
        leaf.next_leaf = structure.node(leaf.next_leaf).next_leaf
    else:
        # Swap the root's two children.
        root = structure.row(structure.root_id)
        root.left, root.right = root.right, root.left


TAMPERS = {"payload": _flip_a_leaf_bit, "swap": _swap_leaves, "relink": _relink}


def _error_type(query):
    try:
        query()
    except ReproError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("structure_index", [0, 1], ids=["btree", "table"])
@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_tampering_a_warm_structure_raises_as_a_cold_one_under_aead(
    structure_index, tamper
):
    db = _database(EAX, ROWS)
    structure = _structures(db)[structure_index]
    structure.items()  # every leaf verified and remembered
    assert len(structure._verified) > 0
    TAMPERS[tamper](structure)

    def scan():
        return structure.range_search(b"", None)

    warm = _error_type(scan)
    with uncached():
        cold = _error_type(scan)
    assert warm is cold is AuthenticationError


@pytest.mark.parametrize("structure_index", [0, 1], ids=["btree", "table"])
def test_faithful_12_still_returns_swapped_leaves_after_warming(structure_index):
    db = _database(FAITHFUL_12, ROWS)
    structure = _structures(db)[structure_index]
    truth = structure.items()
    _swap_leaves(structure)
    answer = structure.range_search(truth[0][0], truth[-1][0])
    assert [row for _, row in answer] != [row for _, row in truth]
    assert sorted(answer) == sorted(truth)  # the swap, served silently (X1)
    with pytest.raises(AuthenticationError):
        structure.items()


# -- rotation drops what the old key verified ---------------------------


@pytest.mark.parametrize("label, config", CONFIGS, ids=IDS)
def test_rotation_empties_the_caches_and_queries_still_answer(label, config):
    db = _database(config, ROWS)
    before = [db.select_equals("t", "k", k) for k, _ in ROWS]
    assert all(len(structure._verified) for structure in _structures(db))
    rotate_master_key(db, b"verified-entries-rotated-key-987")
    assert [len(structure._verified) for structure in _structures(db)] == [0, 0]
    assert [db.select_equals("t", "k", k) for k, _ in ROWS] == before
    in_range = [row for answer in before[3:7] for row in answer]
    assert db.select_range("t", "v", _text(3), _text(6)) == in_range


# -- the bound -----------------------------------------------------------


def _refs(row_id):
    return EntryRefs(index_table=1, row_id=row_id, is_leaf=True, internal=(NO_REF,))


def _encoded(cache, codec, key, table_row, refs):
    """An encode that remembers its plaintext, as the structures do."""
    payload = codec.encode(key, table_row, refs)
    cache.remember(payload, refs, codec.logical(key, table_row, refs))
    return payload


def test_the_least_recently_used_entry_leaves_first():
    codec = PlainEntryCodec()
    cache = VerifiedPlaintexts("index.entry_cache")
    payloads = [
        _encoded(cache, codec, f"key-{i}".encode(), i, _refs(i))
        for i in range(VERIFIED_ENTRIES_BOUND + 44)
    ]
    assert len(cache) == VERIFIED_ENTRIES_BOUND
    observability.enable()
    # The oldest held: a hit, now newest.
    cache.decode(payloads[44], _refs(44), codec.decode)
    cache.decode(payloads[0], _refs(0), codec.decode)  # evicted: a miss, refilled
    assert len(cache) == VERIFIED_ENTRIES_BOUND
    assert (payloads[44], _refs(44)) in cache._entries
    assert (payloads[45], _refs(45)) not in cache._entries
    assert observability.REGISTRY.counters() == {
        "index.entry_cache.hits": 1, "index.entry_cache.misses": 1,
    }
    with uncached():
        assert cache.decode(payloads[1], _refs(1), codec.decode) == (b"key-1", 1)
    assert observability.REGISTRY.counters()["index.entry_cache.misses"] == 1


def test_both_structures_hold_at_most_the_bound():
    db = _database(EAX, [(k, _text(k)) for k in range(200)])
    for structure in _structures(db):
        structure.items()
        assert len(structure._verified) == VERIFIED_ENTRIES_BOUND


# -- concurrent readers ----------------------------------------------------


def test_a_lost_race_is_a_miss():
    class EvictedMeanwhile(OrderedDict):
        def move_to_end(self, key, last=True):
            raise KeyError(key)

        def popitem(self, last=True):
            raise KeyError("empty")

    codec = PlainEntryCodec()
    cache = VerifiedPlaintexts("index.entry_cache")
    payload = _encoded(cache, codec, b"key", 7, _refs(7))
    cache._entries = EvictedMeanwhile(cache._entries)
    observability.enable()
    assert cache.decode(payload, _refs(7), codec.decode) == (b"key", 7)
    assert observability.REGISTRY.counters() == {"index.entry_cache.misses": 1}


def test_two_threads_querying_past_the_bound_answer_correctly():
    db = _database(EAX, [(k, _text(k)) for k in range(150)])
    with uncached():
        expected = {k: db.select_equals("t", "k", k) for k in range(150)}
    barrier = threading.Barrier(2)
    failures = []

    def worker(keys):
        try:
            barrier.wait(timeout=10)
            for k in keys:
                assert db.select_equals("t", "k", k) == expected[k]
                assert db.select_equals("t", "v", _text(k)) == expected[k]
        except Exception as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(order,))
            for order in (range(150), range(149, -1, -1))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    for structure in _structures(db):
        assert len(structure._verified) <= VERIFIED_ENTRIES_BOUND
    assert len(db._verified_cells) <= VERIFIED_ENTRIES_BOUND  # 300 cells read
