"""The one key-interval select behind every column query kind.

Three pins the query path must keep whatever its shape: the Sect. 4
blockcipher cost of the prefix and open-bound queries (point and range
are pinned in tests/observability/test_profile.py), the per-kind names
in the audit stream and the ``db.query.<op>`` metrics, and equal keys
answered in row order whatever the index's history.
"""

import contextlib

import pytest

from repro import observability
from repro.bench.scenarios import _populated_db
from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.engine.codec import uncached
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.query import (
    AtLeastQuery,
    AtMostQuery,
    ColumnQuery,
    PointQuery,
    PrefixQuery,
    RangeQuery,
)
from repro.errors import SchemaError
from repro.observability.audit import AUDIT
from repro.observability.profile import build_query_profiles
from repro.observability.trace import TRACER
from repro.robustness.campaign import default_campaign_configs


@pytest.fixture(autouse=True)
def _global_observability():
    AUDIT.reset()
    observability.disable()
    observability.reset()
    yield
    AUDIT.reset()
    observability.disable()
    observability.reset()


#: Measured blockcipher calls of the prefix, at_least and at_most queries
#: below on the 8-row indexed scenario database, every entry decoded.
_CIPHER_CALLS = {
    "plaintext baseline": (0, 0, 0),
    "[3] Append-Scheme": (28, 49, 41),
    "[12] index (+append cells)": (46, 57, 45),
    "fixed AEAD (EAX)": (78, 123, 99),
    "fixed AEAD (OCB)": (63, 108, 84),
}

#: The same queries with the index entries the build just encoded, and
#: the ``id`` and ``payload`` cells its index backfills decoded, still
#: remembered: only the ``note`` cell decrypts remain.
_WARM_CIPHER_CALLS = {
    "plaintext baseline": (0, 0, 0),
    "[3] Append-Scheme": (5, 15, 15),
    "[12] index (+append cells)": (5, 15, 15),
    "fixed AEAD (EAX)": (11, 33, 33),
    "fixed AEAD (OCB)": (8, 24, 24),
}

_CONFIGS = [
    (label, config) for label, config in default_campaign_configs()
    if label != "[3] XOR-Scheme"  # no typed reads, as in test_profile.py
]


def _three_query_cipher_calls(config, scope):
    observability.enable()
    db = _populated_db(config, 8, with_indexes=True)
    observability.reset()  # keep the instrumented codecs, drop build spans
    queries = [
        PrefixQuery("records", "payload", "rec-003"),
        AtLeastQuery("records", "id", 5),
        AtMostQuery("records", "id", 2),
    ]
    with scope:
        assert [len(query.execute(db)) for query in queries] == [1, 3, 3]
    profiles = build_query_profiles(TRACER.finished())
    assert [profile.name for profile in profiles] == [
        "query.prefix", "query.at_least", "query.at_most",
    ]
    for profile in profiles:
        assert profile.formula_check()["ok"], profile.formula_check()
    return tuple(profile.cipher_calls for profile in profiles)


@pytest.mark.parametrize(
    "label, config", _CONFIGS, ids=[label for label, _ in _CONFIGS]
)
def test_prefix_and_open_bound_queries_match_sect4_predictions(label, config):
    calls = _three_query_cipher_calls(config, uncached())
    assert calls == _CIPHER_CALLS[label]
    counters = observability.REGISTRY.counters()
    assert "index.entry_cache.hits" not in counters
    assert "db.cell_cache.hits" not in counters


@pytest.mark.parametrize(
    "label, config", _CONFIGS, ids=[label for label, _ in _CONFIGS]
)
def test_remembered_index_entries_leave_only_cell_decrypts(label, config):
    calls = _three_query_cipher_calls(config, contextlib.nullcontext())
    assert calls == _WARM_CIPHER_CALLS[label]
    counters = observability.REGISTRY.counters()
    assert counters["index.entry_cache.hits"] > 0
    assert counters["db.cell_cache.hits"] > 0


_KINDS = [
    ("point", PointQuery("records", "id", 3), "id"),
    ("range", RangeQuery("records", "id", 2, 5), "id"),
    ("prefix", PrefixQuery("records", "payload", "rec-003"), "payload"),
    ("at_least", AtLeastQuery("records", "id", 5), "id"),
    ("at_most", AtMostQuery("records", "id", 2), "id"),
]


@pytest.mark.parametrize(
    "op, query, column", _KINDS, ids=[op for op, _, _ in _KINDS]
)
def test_each_kind_keeps_its_audit_op_and_metric_name(op, query, column):
    config = EncryptionConfig.paper_fixed("eax")
    indexed = _populated_db(config, 8, with_indexes=True)
    unindexed = _populated_db(config, 8, with_indexes=False)
    observability.enable()
    AUDIT.enable(timestamps=False)
    answers = []
    for db, used_index in ((indexed, True), (unindexed, False)):
        first = len(AUDIT.events())
        result = query.execute(db)
        assert result.used_index is used_index
        answers.append(result.rows)
        marks = [
            {key: value for key, value in event.items() if key != "seq"}
            for event in AUDIT.events()[first:]
            if event["kind"] in ("query.begin", "query.end")
        ]
        assert marks == [
            {"kind": "query.begin", "op": op, "table": "records", "column": column},
            {"kind": "query.end", "op": op},
        ]
    assert answers[0] == answers[1] and answers[0]
    assert observability.REGISTRY.counters()[f"db.query.{op}.calls"] == 2


def test_unknown_query_kind_is_rejected():
    with pytest.raises(SchemaError, match="unknown query kind 'between'"):
        ColumnQuery("records", "id", "between", (1, 2))


def _keyed_db(kind):
    db = EncryptedDatabase(
        b"select-order-master-key-01234567", EncryptionConfig.paper_fixed("eax")
    )
    db.create_table(TableSchema("t", [
        Column("k", ColumnType.INT),
        Column("v", ColumnType.TEXT),
    ]))
    db.create_index("t_k", "t", "k", kind=kind, order=4)
    return db


def _row_ids(hits):
    return [row_id for row_id, _ in hits]


@pytest.mark.parametrize("kind", ["table", "btree"])
def test_equal_keys_answer_in_row_order(kind):
    # Three inserts of one key: the index table used to answer 2, 1, 0.
    db = _keyed_db(kind)
    for _ in range(3):
        db.insert("t", [0, "x"])
    assert _row_ids(db.select_equals("t", "k", 0)) == [0, 1, 2]

    # An update to an equal key: the B+-tree used to answer 1, 0.
    db = _keyed_db(kind)
    db.insert("t", [0, "x"])
    db.insert("t", [0, "y"])
    db.update_value("t", 0, "k", 0)
    assert _row_ids(db.select_equals("t", "k", 0)) == [0, 1]

    # A range keeps key order and orders each run of equal keys by row.
    db = _keyed_db(kind)
    for key in (1, 0, 1, 0, 2):
        db.insert("t", [key, "x"])
    assert _row_ids(db.select_range("t", "k", 0, 1)) == [1, 3, 0, 2]
