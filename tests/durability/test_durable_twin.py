"""The durable twin: the engine behind a DurableDatabase is the engine.

Each drawn operation runs on an in-memory :class:`EncryptedDatabase` and
on the engine a :class:`DurableDatabase` journals, both keyed and
configured alike.  Their storage images must be byte-identical after
every operation, and a remount that replays the whole journal must
answer the same queries through both indexes.  XOR is left out: it
zero-extends short INT cells by design (``core/cellcrypto/xor_scheme.py``),
so its round trip is not the identity the answers are compared with.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.durability.manager import DurableDatabase
from repro.durability.vdisk import MemoryDisk
from repro.durability.wal import journal_mac
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.storage import dump_database

MASTER = b"durable-twin-master-key-01234567"

CONFIGS = {
    "aead-eax": EncryptionConfig.paper_fixed("eax"),
    "append-dbsec2005": EncryptionConfig.paper_broken("append", "dbsec2005"),
}

SCHEMA = TableSchema("t", [
    Column("k", ColumnType.INT),
    Column("v", ColumnType.TEXT),
])

keys = st.integers(-3, 3)
texts = st.text(alphabet="abc", max_size=3)
rows = st.tuples(keys, texts).map(list)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), rows),
        st.tuples(st.just("insert_many"), st.lists(rows, max_size=3)),
        st.tuples(st.just("update"), st.integers(0, 20), st.just("k"), keys),
        st.tuples(st.just("update"), st.integers(0, 20), st.just("v"), texts),
        st.tuples(st.just("delete"), st.integers(0, 20)),
    ),
    max_size=20,
)


def build(db) -> None:
    db.create_table(SCHEMA)
    db.create_index("t_k", "t", "k", kind="btree", order=4)
    db.create_index("t_v", "t", "v", kind="table")


def mount(disk: MemoryDisk, config: EncryptionConfig) -> DurableDatabase:
    enc = EncryptedDatabase(MASTER, config)
    return DurableDatabase.open(
        disk, journal_mac(enc.keys),
        cell_codec=enc.cell_codec,
        index_codec_factory=enc._build_index_codec,
    )


def run(db, op, live: list[int]) -> None:
    kind, *args = op
    if kind == "insert":
        live.append(db.insert("t", args[0]))
    elif kind == "insert_many":
        live.extend(db.insert_many("t", args[0]))
    elif live:
        row_id = live[args[0] % len(live)]
        if kind == "delete":
            db.delete_row("t", row_id)
            live.remove(row_id)
        else:
            db.update_value("t", row_id, args[1], args[2])


def answers(db, values: set) -> tuple:
    """The scan, and each point query's hits (equal keys in any order)."""
    return (
        list(db.scan("t")),
        [sorted(db.select_equals("t", "k", k)) for k, _ in sorted(values)],
        [sorted(db.select_equals("t", "v", v)) for _, v in sorted(values)],
    )


@pytest.mark.parametrize("label", sorted(CONFIGS))
@given(drawn=ops)
@settings(
    max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_durable_engine_twins_the_in_memory_engine(label, drawn):
    config = CONFIGS[label]
    memory = EncryptedDatabase(MASTER, config)
    disk = MemoryDisk()
    manager = mount(disk, config)
    durable = manager.database
    build(memory)
    build(durable)
    assert dump_database(durable) == dump_database(memory)

    live_memory: list[int] = []
    live_durable: list[int] = []
    for op in drawn:
        run(memory, op, live_memory)
        run(durable, op, live_durable)
        assert dump_database(durable) == dump_database(memory)
    assert live_durable == live_memory

    remounted = mount(MemoryDisk(disk.durable_state()), config)
    assert remounted.recovery.records_replayed == manager.last_seq
    values = {tuple(row) for _, row in memory.scan("t")} | {(9, "zz")}
    assert answers(remounted.database, values) == answers(memory, values)
