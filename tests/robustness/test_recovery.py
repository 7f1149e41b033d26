"""Resilient loader: quarantine, rebuild, degradation — and never a crash."""

import struct

import pytest

from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.durability.manager import CKPT_UNAUTHENTICATED, DurableDatabase
from repro.durability.vdisk import MemoryDisk
from repro.durability.wal import CHECKPOINT_BLOB, journal_mac
from repro.engine.query import PointQuery, RangeQuery
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.storage import dump_database, load_database
from repro.errors import ReproError
from repro.robustness.campaign import build_campaign_db, default_campaign_configs
from repro.robustness.faults import FaultSpec, map_image, plan_faults
from repro.robustness.recovery import (
    INDEX_OK,
    INDEX_QUARANTINED,
    INDEX_REBUILT,
    OUTCOME_OK,
    OUTCOME_QUARANTINED_CRYPTO,
    load_database_resilient,
)
from tests.engine.test_storage import (
    INDEX_COUNTER_IDS,
    INDEX_COUNTERS,
    rewound_index_image,
)

MASTER = b"recovery-test-key-0123456789abcd"

SCHEMA = TableSchema("t", [
    Column("k", ColumnType.INT),
    Column("v", ColumnType.TEXT),
])


def build_db(config: EncryptionConfig) -> EncryptedDatabase:
    db = EncryptedDatabase(MASTER, config)
    db.create_table(SCHEMA)
    for i in range(8):
        db.insert("t", [i, f"value-{i:03d}-{'x' * 40}"])
    db.create_index("t_k", "t", "k", kind="table")
    db.create_index("t_v", "t", "v", kind="btree")
    return db


def resilient(image: bytes, config: EncryptionConfig, **kwargs):
    keys = EncryptedDatabase(MASTER, config)
    return load_database_resilient(
        image,
        cell_codec=keys.cell_codec,
        index_codec_factory=keys._build_index_codec,
        **kwargs,
    )


def cell_span(image: bytes, row: int, column: int):
    chart = map_image(image)
    (span,) = [
        p for p in chart.payloads if p.where == f"t(r={row},c={column})"
    ]
    return span


def test_clean_image_recovers_everything():
    config = EncryptionConfig.paper_fixed("eax")
    image = dump_database(build_db(config))
    result = resilient(image, config)
    assert result.report.ok
    assert result.report.rows_recovered == 8
    assert result.report.rows_quarantined == 0
    assert set(result.report.index_outcomes.values()) == {INDEX_OK}
    # The salvaged database serves the same answers as a strict load.
    assert PointQuery("t", "k", 5).execute(result.database).row_ids() == [5]


def test_corrupt_cell_quarantines_only_that_row():
    config = EncryptionConfig.paper_fixed("eax")
    image = bytearray(dump_database(build_db(config)))
    span = cell_span(bytes(image), row=3, column=1)
    image[span.start] ^= 0x01

    result = resilient(bytes(image), config)
    report = result.report
    assert report.row_outcomes["t(r=3)"] == OUTCOME_QUARANTINED_CRYPTO
    assert all(
        outcome == OUTCOME_OK
        for where, outcome in report.row_outcomes.items()
        if where != "t(r=3)"
    )
    # The quarantined row is gone from every read path; survivors serve.
    db = result.database
    assert 3 not in db.table("t").row_ids
    assert PointQuery("t", "k", 3).execute(db).row_ids() == []
    assert PointQuery("t", "k", 4).execute(db).row_ids() == [4]
    # Indexes disagreed with the surviving rows, so they were rebuilt
    # from authenticated cells and query correctly again.
    assert set(report.index_outcomes.values()) == {INDEX_REBUILT}
    assert PointQuery("t", "v", f"value-004-{'x' * 40}").execute(db).row_ids() == [4]


def test_corrupt_index_payload_triggers_rebuild():
    config = EncryptionConfig.paper_fixed("eax")
    image = bytearray(dump_database(build_db(config)))
    chart = map_image(bytes(image))
    span = next(p for p in chart.payloads if p.group == "index:t_k")
    image[span.start] ^= 0x01

    result = resilient(bytes(image), config)
    assert result.report.rows_recovered == 8  # table rows untouched
    assert result.report.index_outcomes["t_k"] == INDEX_REBUILT
    assert result.report.index_outcomes["t_v"] == INDEX_OK
    assert PointQuery("t", "k", 2).execute(result.database).row_ids() == [2]


def test_quarantine_mode_degrades_queries_to_verified_scan():
    config = EncryptionConfig.paper_fixed("eax")
    image = bytearray(dump_database(build_db(config)))
    chart = map_image(bytes(image))
    span = next(p for p in chart.payloads if p.group == "index:t_k")
    image[span.start] ^= 0x01

    result = resilient(bytes(image), config, rebuild_indexes=False)
    assert result.report.index_outcomes["t_k"] == INDEX_QUARANTINED
    db = result.database
    outcome = PointQuery("t", "k", 2).execute(db)
    assert outcome.row_ids() == [2]   # correct, via full scan
    assert outcome.degraded           # and it says so
    assert not outcome.used_index
    healthy = PointQuery("t", "v", f"value-002-{'x' * 40}").execute(db)
    assert healthy.used_index and not healthy.degraded


def test_truncated_image_salvages_the_parseable_prefix():
    config = EncryptionConfig.paper_fixed("eax")
    image = dump_database(build_db(config))
    span = cell_span(image, row=5, column=0)
    result = resilient(image[:span.start], config)
    report = result.report
    assert not report.image_fully_parsed
    assert not report.ok
    assert report.rows_recovered == 5       # rows 0..4 framed before the cut
    assert report.rows_lost_structurally == 3
    # The cut fell before the index section, so there were no index
    # headers to salvage — the loader reports none rather than guessing.
    assert report.index_outcomes == {}
    assert list(result.database.index_names) == []
    survivors = result.database.table("t").row_ids
    assert PointQuery("t", "k", 0).execute(result.database).row_ids() == [0]
    assert 5 not in survivors


@pytest.mark.parametrize("label,config", [
    ("append-sdm2004", EncryptionConfig(
        cell_scheme="append", index_scheme="sdm2004", iv_policy="zero")),
    ("fixed-eax", EncryptionConfig.paper_fixed("eax")),
], ids=["append-sdm2004", "fixed-eax"])
def test_resilient_loader_never_raises_on_faulted_images(label, config):
    # The headline contract: whatever the injector does to the image,
    # the resilient loader returns a report instead of raising.
    image = dump_database(build_db(config))
    for spec in plan_faults(image, 25):
        result = resilient(spec.apply(image), config)
        assert result.report is not None, spec.name


XOR = EncryptionConfig(cell_scheme="xor", index_scheme="sdm2004", iv_policy="zero")


def mount(disk: MemoryDisk, config: EncryptionConfig) -> DurableDatabase:
    keys = EncryptedDatabase(MASTER, config)
    return DurableDatabase.open(
        disk, journal_mac(keys.keys),
        cell_codec=keys.cell_codec,
        index_codec_factory=keys._build_index_codec,
    )


@pytest.mark.parametrize("config", [
    pytest.param(XOR, marks=pytest.mark.xfail(strict=True, reason=(
        "the salvage type-decodes the XOR-Scheme's zero-extended "
        "plaintexts and quarantines every row of a clean image"
    ))),
    EncryptionConfig.paper_fixed("eax"),
], ids=["xor", "eax"])
def test_checkpoint_salvage_keeps_every_authentic_row(config):
    # One flipped bit in the checkpoint's trailing MAC tag leaves every
    # cell intact, yet fails the checkpoint, so the mount salvages its
    # image and folds the result into a fresh checkpoint.
    disk = MemoryDisk()
    writer = mount(disk, config)
    writer.create_table(SCHEMA)
    for i in range(5):
        writer.insert("t", [i, f"value-{i}"])
    writer.checkpoint()
    disk = MemoryDisk(disk.durable_state())
    blob = bytearray(disk.read(CHECKPOINT_BLOB))
    blob[-1] ^= 0x01
    disk.write(CHECKPOINT_BLOB, bytes(blob))
    disk.sync(CHECKPOINT_BLOB)

    salvaged = mount(disk, config)
    assert salvaged.recovery.checkpoint == CKPT_UNAUTHENTICATED
    assert salvaged.recovery.resilient is not None
    later = mount(MemoryDisk(disk.durable_state()), config)
    assert later.database.table("t").row_ids == list(range(5))


def test_resilient_matches_strict_on_clean_images():
    config = EncryptionConfig.paper_fixed("eax")
    image = dump_database(build_db(config))
    keys = EncryptedDatabase(MASTER, config)
    strict = load_database(
        image,
        cell_codec=keys.cell_codec,
        index_codec_factory=keys._build_index_codec,
    )
    result = resilient(image, config)
    assert dump_database(result.database) == dump_database(strict)


@pytest.mark.parametrize(
    "group", ["idx:t_k[", "idx:t_v[n"], ids=["index-row", "tree-node"]
)
def test_duplicate_index_record_is_recorded_and_dropped(group):
    # One index row (t_k, an index table) or tree node (t_v, a B+-tree)
    # stored twice: the first copy wins and the replay is reported.
    config = EncryptionConfig.paper_fixed("eax")
    image = dump_database(build_db(config))
    record = next(r for r in map_image(image).records if r.where.startswith(group))
    replay = FaultSpec(
        "record-duplicate", 0, (record.start, record.end, record.count_offset)
    )
    report = resilient(replay.apply(image), config).report
    assert [(issue.kind, issue.location) for issue in report.issues] == [
        ("record-structural", record.where)
    ]
    assert report.rows_recovered == 8
    assert set(report.index_outcomes.values()) == {INDEX_OK}


def test_rewound_row_counter_is_raised_past_the_stored_rows():
    config = EncryptionConfig.paper_fixed("eax")
    image = bytearray(dump_database(build_db(config)))
    counter_at = map_image(bytes(image)).records[0].count_offset - 8
    struct.pack_into(">q", image, counter_at, 2)
    result = resilient(bytes(image), config)
    assert [issue.kind for issue in result.report.issues] == ["record-structural"]
    assert result.database.insert("t", [99, "fresh"]) == 8
    assert result.database.get_row("t", 2) == [2, f"value-002-{'x' * 40}"]


@pytest.mark.parametrize(
    "kind, rows, counter, back", INDEX_COUNTERS, ids=INDEX_COUNTER_IDS
)
def test_rewound_index_counter_is_raised_past_the_stored_ids(
    kind, rows, counter, back
):
    image, _ = rewound_index_image(MASTER, kind, rows, back)
    result = resilient(image, EncryptionConfig.paper_fixed("eax"))
    assert [(issue.kind, issue.location) for issue in result.report.issues] == [
        ("record-structural", "idx:t_k")
    ]
    assert result.report.index_outcomes == {"t_k": INDEX_OK}
    db = result.database
    for i in range(10):
        db.insert("t", [100 + i, f"fresh-{i}"])
    for i in range(rows):
        found = PointQuery("t", "k", i).execute(db)
        assert found.used_index and found.row_ids() == [i]
    assert RangeQuery("t", "k", 0, 5).execute(db).row_ids() == list(range(6))


@pytest.mark.parametrize(
    "config",
    [config for _, config in default_campaign_configs()],
    ids=["plain", "xor", "append", "dbsec2005", "eax", "ocb"],
)
def test_small_integers_anywhere_never_leak(config):
    # Writing 0, 1 or 2 over any 8 octets hits every counter, id, flag and
    # reference field with the values most likely to be special-cased.
    # Structure is checked before any codec runs, so no keys are needed.
    image = dump_database(build_campaign_db(config, 3))
    for offset in range(len(image)):
        for value in (0, 1, 2):
            faulted = image[:offset] + struct.pack(">q", value) + image[offset + 8:]
            try:
                load_database(faulted)
            except ReproError:
                pass
            load_database_resilient(faulted)
