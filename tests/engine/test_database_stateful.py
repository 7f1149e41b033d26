"""Model-based stateful testing of the Database against a dict model.

Hypothesis drives random insert/update/delete/query sequences against
an encrypted database and a trivial in-memory model simultaneously;
any divergence (including via the index path) is a bug.  ``k`` is
indexed by a B+-tree and ``v`` by an index table, so updates of either
column exercise both structures' delete-then-insert path.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.engine.integrity import verify_database
from repro.engine.schema import Column, ColumnType, TableSchema

SCHEMA = TableSchema("t", [
    Column("k", ColumnType.INT),
    Column("v", ColumnType.TEXT),
])

VALUES = st.integers(min_value=0, max_value=25)
TEXTS = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=12
)


class DatabaseMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.db = EncryptedDatabase(
            b"stateful-test-master-key-0123456",
            EncryptionConfig.paper_fixed("eax"),
        )
        self.db.create_table(SCHEMA)
        self.db.create_index("by_k", "t", "k", kind="btree", order=4)
        self.db.create_index("by_v", "t", "v", kind="table")
        self.model: dict[int, tuple[int, str]] = {}

    @rule(k=VALUES, v=TEXTS)
    def insert(self, k, v):
        row = self.db.insert("t", [k, v])
        self.model[row] = (k, v)

    @rule(k=VALUES)
    def update_some_row(self, k):
        if not self.model:
            return
        row = next(iter(self.model))
        self.db.update_value("t", row, "k", k)
        self.model[row] = (k, self.model[row][1])

    @rule(pick=st.integers(min_value=0), v=TEXTS)
    def update_v(self, pick, v):
        if not self.model:
            return
        row = sorted(self.model)[pick % len(self.model)]
        self.db.update_value("t", row, "v", v)
        self.model[row] = (self.model[row][0], v)

    @rule()
    def delete_some_row(self):
        if not self.model:
            return
        row = next(iter(self.model))
        self.db.delete_row("t", row)
        del self.model[row]

    @rule(k=VALUES)
    def point_query_matches_model(self, k):
        got = sorted(
            row_id for row_id, _ in self.db.select_equals("t", "k", k)
        )
        expected = sorted(
            row for row, (key, _) in self.model.items() if key == k
        )
        assert got == expected

    @rule(lo=VALUES, hi=VALUES)
    def range_query_matches_model(self, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        got = sorted(
            row_id for row_id, _ in self.db.select_range("t", "k", lo, hi)
        )
        expected = sorted(
            row for row, (key, _) in self.model.items() if lo <= key <= hi
        )
        assert got == expected

    def _check_v(self, got, keep):
        assert sorted(row_id for row_id, _ in got) == sorted(
            row for row, (_, v) in self.model.items() if keep(v)
        )

    @rule(v=TEXTS)
    def v_point_query_matches_model(self, v):
        self._check_v(self.db.select_equals("t", "v", v), lambda x: x == v)

    @rule(prefix=TEXTS)
    def v_prefix_query_matches_model(self, prefix):
        prefix = prefix[:2]
        self._check_v(
            self.db.select_prefix("t", "v", prefix),
            lambda x: x.startswith(prefix),
        )

    @rule(low=TEXTS)
    def v_at_least_matches_model(self, low):
        self._check_v(self.db.select_at_least("t", "v", low), lambda x: x >= low)

    @rule(high=TEXTS)
    def v_at_most_matches_model(self, high):
        self._check_v(self.db.select_at_most("t", "v", high), lambda x: x <= high)

    @invariant()
    def row_reads_match_model(self):
        for row, (k, v) in list(self.model.items())[:5]:
            assert self.db.get_row("t", row) == [k, v]

    def teardown(self):
        report = verify_database(self.db)
        assert report.ok, str(report.issues)


TestDatabaseStateful = DatabaseMachine.TestCase
TestDatabaseStateful.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None, derandomize=True
)
