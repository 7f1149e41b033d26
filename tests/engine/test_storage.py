"""Storage images: persistence of plain and encrypted databases."""

import struct

import pytest

from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.engine.database import Database
from repro.engine.query import PointQuery
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.storage import dump_database, load_database
from repro.errors import AuthenticationError, StorageFormatError
from repro.robustness.faults import map_image

SCHEMA = TableSchema(
    "t",
    [Column("k", ColumnType.INT), Column("v", ColumnType.TEXT)],
)

MASTER = b"storage-test-key-0123456789abcde"


def populated_plain() -> Database:
    db = Database()
    db.create_table(SCHEMA)
    for i in range(25):
        db.insert("t", [i, f"value-{i:03d}"])
    db.create_index("t_k", "t", "k", kind="table")
    db.create_index("t_v", "t", "v", kind="btree")
    return db


def test_plain_round_trip():
    image = dump_database(populated_plain())
    db = load_database(image)
    assert db.count("t") == 25
    assert PointQuery("t", "k", 7).execute(db).row_ids() == [7]
    assert PointQuery("t", "v", "value-011").execute(db).row_ids() == [11]


def test_round_trip_preserves_row_id_counter():
    db = populated_plain()
    db.delete_row("t", 24)
    reloaded = load_database(dump_database(db))
    new_row = reloaded.insert("t", [99, "fresh"])
    assert new_row == 25  # ids never reused, counter survives the dump


def test_encrypted_round_trip_requires_same_key():
    config = EncryptionConfig.paper_fixed("eax")
    db = EncryptedDatabase(MASTER, config)
    db.create_table(SCHEMA)
    for i in range(10):
        db.insert("t", [i, f"secret-{i}"])
    db.create_index("t_k", "t", "k", kind="table")
    image = dump_database(db)

    # Same key: everything decrypts and queries work.
    same = EncryptedDatabase(MASTER, config)
    reloaded = load_database(
        image,
        cell_codec=same.cell_codec,
        index_codec_factory=same._build_index_codec,
    )
    assert reloaded.get_value("t", 3, "v") == "secret-3"
    assert PointQuery("t", "k", 3).execute(reloaded).row_ids() == [3]

    # Wrong key: reads fail closed.
    other = EncryptedDatabase(b"another-master-key-xxxxxxxxxxxxx", config)
    wrong = load_database(
        image,
        cell_codec=other.cell_codec,
        index_codec_factory=other._build_index_codec,
    )
    with pytest.raises(AuthenticationError):
        wrong.get_value("t", 3, "v")


def test_image_contains_no_plaintext():
    config = EncryptionConfig.paper_fixed("eax")
    db = EncryptedDatabase(MASTER, config)
    db.create_table(SCHEMA)
    db.insert("t", [1, "super-secret-diagnosis"])
    image = dump_database(db)
    assert b"super-secret-diagnosis" not in image


def test_plain_image_does_contain_plaintext():
    db = populated_plain()
    assert b"value-003" in dump_database(db)


def test_tampered_image_detected_by_fixed_scheme():
    config = EncryptionConfig.paper_fixed("eax")
    db = EncryptedDatabase(MASTER, config)
    db.create_table(SCHEMA)
    db.insert("t", [1, "payload-to-corrupt"])
    image = bytearray(dump_database(db))
    # Flip one byte in the back half (cell payload area).
    image[-10] ^= 0xFF
    same = EncryptedDatabase(MASTER, config)
    reloaded = load_database(
        bytes(image),
        cell_codec=same.cell_codec,
        index_codec_factory=same._build_index_codec,
    )
    with pytest.raises(AuthenticationError):
        reloaded.get_value("t", 0, "v")


def test_corrupt_magic_rejected():
    with pytest.raises(ValueError):
        load_database(b"NOTADB__whatever")


def test_corrupt_magic_raises_storage_format_error():
    # The modern face of the same failure: an EngineError subclass that
    # carries the offset where parsing stopped.
    with pytest.raises(StorageFormatError) as excinfo:
        load_database(b"NOTADB__whatever")
    assert excinfo.value.offset == 0


# ---------------------------------------------------------------------------
# Round-trip property and adversarial framing, across every scheme family
# ---------------------------------------------------------------------------

CONFIGS = [
    ("plain", EncryptionConfig(cell_scheme="plain", index_scheme="plain")),
    ("xor-sdm2004", EncryptionConfig(
        cell_scheme="xor", index_scheme="sdm2004", iv_policy="zero")),
    ("append-sdm2004", EncryptionConfig(
        cell_scheme="append", index_scheme="sdm2004", iv_policy="zero")),
    ("append-dbsec2005", EncryptionConfig(
        cell_scheme="append", index_scheme="dbsec2005", iv_policy="zero")),
    ("fixed-eax", EncryptionConfig.paper_fixed("eax")),
    ("fixed-ocb", EncryptionConfig.paper_fixed("ocb")),
]


def populated_encrypted(config: EncryptionConfig) -> EncryptedDatabase:
    db = EncryptedDatabase(MASTER, config)
    db.create_table(SCHEMA)
    for i in range(12):
        db.insert("t", [i, f"value-{i:03d}"])
    db.create_index("t_k", "t", "k", kind="table")
    db.create_index("t_v", "t", "v", kind="btree")
    return db


def reload(image: bytes, config: EncryptionConfig) -> Database:
    keys = EncryptedDatabase(MASTER, config)
    return load_database(
        image,
        cell_codec=keys.cell_codec,
        index_codec_factory=keys._build_index_codec,
    )


@pytest.mark.parametrize("label,config", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_dump_load_dump_is_identity(label, config):
    # The round-trip property: serialisation is a fixed point after one
    # load, for every scheme family the paper analyses.
    image = dump_database(populated_encrypted(config))
    assert dump_database(reload(image, config)) == image


@pytest.mark.parametrize("label,config", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_truncation_never_leaks_struct_error(label, config):
    # Cutting the image at *any* offset must yield StorageFormatError —
    # never a raw struct.error or IndexError from the framing layer.
    # Framing damage surfaces before any codec runs, so no keys needed.
    image = dump_database(populated_encrypted(config))
    for keep in range(len(image)):
        with pytest.raises(StorageFormatError):
            load_database(image[:keep])


def test_trailing_garbage_rejected():
    image = dump_database(populated_plain())
    with pytest.raises(StorageFormatError) as excinfo:
        load_database(image + b"\x00garbage")
    assert "trailing" in str(excinfo.value)
    assert excinfo.value.offset == len(image)


def test_duplicate_row_record_rejected():
    # Replay of a stored record: ids are allocated once, so a second
    # occurrence of the same row id is always corruption.
    db = Database()
    db.create_table(SCHEMA)
    db.insert("t", [1, "only"])
    image = dump_database(db)
    record = map_image(image).records[0]
    replayed = bytearray(image)
    replayed[record.end:record.end] = image[record.start:record.end]
    count_at = record.count_offset
    (count,) = struct.unpack_from(">q", replayed, count_at)
    struct.pack_into(">q", replayed, count_at, count + 1)
    with pytest.raises(StorageFormatError) as excinfo:
        load_database(bytes(replayed))
    assert "duplicate row" in str(excinfo.value)


def test_duplicate_index_record_rejected():
    # A second copy of a whole index record, with the leaves of keys 0
    # and 1 swapped in the first copy: queries would use the first copy
    # while an integrity sweep checks the last, so the image must not load.
    db = Database()
    db.create_table(SCHEMA)
    for i in range(4):
        db.insert("t", [i, f"value-{i}"])
    start = len(dump_database(db)) - 8  # the index count
    db.create_index("t_k", "t", "k", kind="table")
    image = dump_database(db)
    first, second = (
        next(p for p in map_image(image).payloads if p.where == f"idx:t_k[{row}]")
        for row in (0, 1)
    )
    assert len(first) == len(second)
    swapped = bytearray(image)
    swapped[first.start:first.end] = image[second.start:second.end]
    swapped[second.start:second.end] = image[first.start:first.end]
    doubled = (
        image[:start] + struct.pack(">q", 2) + bytes(swapped[start + 8:])
        + image[start + 8:]
    )
    with pytest.raises(StorageFormatError) as excinfo:
        load_database(doubled)
    assert "duplicate index 't_k'" in str(excinfo.value)
    assert excinfo.value.offset == len(image)


def test_tree_order_below_three_rejected():
    db = Database()
    db.create_table(SCHEMA)
    db.insert("t", [1, "only"])
    db.create_index("t_k", "t", "k", kind="btree")
    image = bytearray(dump_database(db))
    # The order field sits just before the tree's root reference.
    root_at, _ = map_image(bytes(image)).pointers[0]
    struct.pack_into(">q", image, root_at - 8, 2)
    with pytest.raises(StorageFormatError) as excinfo:
        load_database(bytes(image))
    assert "implausible tree order 2" in str(excinfo.value)


def test_rewound_row_counter_rejected():
    # A counter at or below a stored row id would let the next insert
    # overwrite a committed row.
    db = Database()
    db.create_table(SCHEMA)
    for i in range(5):
        db.insert("t", [i, f"value-{i}"])
    image = bytearray(dump_database(db))
    counter_at = map_image(bytes(image)).records[0].count_offset - 8
    struct.pack_into(">q", image, counter_at, 2)
    with pytest.raises(StorageFormatError) as excinfo:
        load_database(bytes(image))
    assert excinfo.value.offset == counter_at
    assert "row counter 2" in str(excinfo.value)


#: (index kind, rows, counter name, octets from the counter to the count
#: of index rows or tree nodes that follows it).
INDEX_COUNTERS = [
    ("table", 6, "row counter", 8),
    ("btree", 20, "node counter", 16),
    ("btree", 20, "entry counter", 8),
]
INDEX_COUNTER_IDS = ["index-table-row", "btree-node", "btree-entry"]


def rewound_index_image(
    master: bytes, kind: str, rows: int, back: int
) -> tuple[bytes, int]:
    """An EAX image of ``rows`` rows with an index on ``k`` (a B+-tree
    has order 4) whose counter ``back`` octets before its record count
    is rewound to 1; returns the image and the counter's offset."""
    db = EncryptedDatabase(master, EncryptionConfig.paper_fixed("eax"))
    db.create_table(SCHEMA)
    for i in range(rows):
        db.insert("t", [i, f"value-{i:03d}"])
    db.create_index("t_k", "t", "k", kind=kind, order=4)
    image = bytearray(dump_database(db))
    record = next(
        record for record in map_image(bytes(image)).records
        if record.where.startswith("idx:t_k")
    )
    counter_at = record.count_offset - back
    struct.pack_into(">q", image, counter_at, 1)
    return bytes(image), counter_at


@pytest.mark.parametrize(
    "kind, rows, counter, back", INDEX_COUNTERS, ids=INDEX_COUNTER_IDS
)
def test_rewound_index_counter_rejected(kind, rows, counter, back):
    # The next index insert would overwrite a stored index row or node.
    image, counter_at = rewound_index_image(MASTER, kind, rows, back)
    with pytest.raises(StorageFormatError) as excinfo:
        load_database(image)
    assert excinfo.value.offset == counter_at
    assert f"{counter} 1 of index 't_k'" in str(excinfo.value)


def test_implausible_count_rejected():
    # A flipped bit in a count field must not make the loader loop for
    # terabytes; counts beyond the remaining bytes are rejected outright.
    db = Database()
    db.create_table(TableSchema("t", [Column("k", ColumnType.INT)]))
    image = bytearray(dump_database(db))
    # The index count is the final 8 octets of an index-free image.
    image[-8:] = (2**40).to_bytes(8, "big")
    with pytest.raises(StorageFormatError) as excinfo:
        load_database(bytes(image))
    assert "implausible" in str(excinfo.value)
