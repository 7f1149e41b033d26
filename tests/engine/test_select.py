"""The one key-interval select behind every column query kind.

Two pins the query path must keep whatever its shape: the Sect. 4
blockcipher cost of the prefix and open-bound queries (point and range
are pinned in tests/observability/test_profile.py), and the per-kind
names in the audit stream and the ``db.query.<op>`` metrics.
"""

import contextlib

import pytest

from repro import observability
from repro.bench.scenarios import _populated_db
from repro.core.encrypted_db import EncryptionConfig
from repro.engine.codec import uncached_index_entries
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

#: The same queries with the index entries the build just encoded still
#: remembered: only the cell decrypts remain.
_WARM_CIPHER_CALLS = {
    "plaintext baseline": (0, 0, 0),
    "[3] Append-Scheme": (11, 33, 33),
    "[12] index (+append cells)": (11, 33, 33),
    "fixed AEAD (EAX)": (25, 75, 75),
    "fixed AEAD (OCB)": (20, 60, 60),
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
    calls = _three_query_cipher_calls(config, uncached_index_entries())
    assert calls == _CIPHER_CALLS[label]
    assert "index.entry_cache.hits" not in observability.REGISTRY.counters()


@pytest.mark.parametrize(
    "label, config", _CONFIGS, ids=[label for label, _ in _CONFIGS]
)
def test_remembered_index_entries_leave_only_cell_decrypts(label, config):
    calls = _three_query_cipher_calls(config, contextlib.nullcontext())
    assert calls == _WARM_CIPHER_CALLS[label]
    assert observability.REGISTRY.counters()["index.entry_cache.hits"] > 0


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
