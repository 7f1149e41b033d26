"""Key rotation: re-encrypt everything under a new master key."""

import pytest

from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.core.rotation import rotate_master_key
from repro.engine.codec import IndexEntryCodec
from repro.engine.database import CellCodec
from repro.engine.query import PointQuery, RangeQuery
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.errors import AuthenticationError, CryptoError, SessionError

OLD_KEY = b"old-master-key-0123456789abcdefg"
NEW_KEY = b"new-master-key-0123456789abcdefg"

SCHEMA = TableSchema("t", [
    Column("k", ColumnType.INT),
    Column("v", ColumnType.TEXT),
    Column("open", ColumnType.TEXT, sensitive=False),
])


def build(config=None) -> EncryptedDatabase:
    config = config or EncryptionConfig.paper_fixed("eax")
    db = EncryptedDatabase(OLD_KEY, config)
    db.create_table(SCHEMA)
    for i in range(15):
        db.insert("t", [i, f"secret-{i:02d}", f"open-{i:02d}"])
    db.create_index("t_k", "t", "k", kind="table")
    db.create_index("t_v", "t", "v", kind="btree")
    return db


def test_rotation_report_counts():
    db = build()
    report = rotate_master_key(db, NEW_KEY)
    assert report.tables == 1
    assert report.indexes == 2
    assert report.cells_reencrypted == 15 * 2  # two sensitive columns
    assert report.index_entries_reencrypted > 15 * 2  # leaves + separators


def test_queries_unchanged_after_rotation():
    db = build()
    before_point = PointQuery("t", "k", 7).execute(db).rows
    before_range = RangeQuery("t", "v", "secret-03", "secret-06").execute(db).rows
    rotate_master_key(db, NEW_KEY)
    assert PointQuery("t", "k", 7).execute(db).rows == before_point
    assert RangeQuery("t", "v", "secret-03", "secret-06").execute(db).rows == before_range
    assert db.get_value("t", 4, "v") == "secret-04"


def test_old_key_no_longer_decrypts():
    db = build()
    config = db.config
    rotate_master_key(db, NEW_KEY)
    old_instance = EncryptedDatabase(OLD_KEY, config)
    stored = db.storage_view().cell("t", 3, 1)
    address = db.table("t").address(3, 1)
    with pytest.raises(AuthenticationError):
        old_instance.cell_codec.decode_cell(stored, address)


def test_new_key_instance_interoperates():
    db = build()
    config = db.config
    rotate_master_key(db, NEW_KEY)
    new_instance = EncryptedDatabase(NEW_KEY, config)
    stored = db.storage_view().cell("t", 3, 1)
    address = db.table("t").address(3, 1)
    assert new_instance.cell_codec.decode_cell(stored, address) == b"secret-03"


def test_ciphertexts_actually_change():
    db = build()
    before = db.storage_view().cell("t", 0, 1)
    rotate_master_key(db, NEW_KEY)
    assert db.storage_view().cell("t", 0, 1) != before


def test_non_sensitive_columns_untouched():
    db = build()
    before = db.storage_view().cell("t", 0, 2)
    rotate_master_key(db, NEW_KEY)
    assert db.storage_view().cell("t", 0, 2) == before == b"open-00"


def test_old_key_ring_is_wiped():
    db = build()
    old_ring = db.keys
    rotate_master_key(db, NEW_KEY)
    assert old_ring.is_wiped
    with pytest.raises(SessionError):
        old_ring.cell_key()
    assert not db.keys.is_wiped  # the new ring is live


def test_rotation_of_legacy_configuration():
    """Rotation is scheme-agnostic: it also re-keys the broken schemes."""
    db = build(EncryptionConfig.paper_broken(index_scheme="dbsec2005"))
    report = rotate_master_key(db, NEW_KEY)
    assert report.cells_reencrypted == 30
    assert PointQuery("t", "k", 7).execute(db).row_ids() == [7]
    assert db.get_value("t", 7, "v") == "secret-07"


def test_inserts_after_rotation_use_new_key():
    db = build()
    rotate_master_key(db, NEW_KEY)
    row = db.insert("t", [99, "post-rotation", "x"])
    assert db.get_value("t", row, "v") == "post-rotation"
    assert PointQuery("t", "k", 99).execute(db).row_ids() == [row]


def test_double_rotation():
    db = build()
    rotate_master_key(db, NEW_KEY)
    rotate_master_key(db, b"third-master-key-0123456789abcde")
    assert db.get_value("t", 5, "v") == "secret-05"
    assert PointQuery("t", "v", "secret-05").execute(db).row_ids() == [5]


# -- exception safety ----------------------------------------------------------


class _ExplodingCellCodec(CellCodec):
    """Wraps a real cell codec; encoding blows up after ``fuse`` calls."""

    def __init__(self, inner, fuse: int) -> None:
        self._inner = inner
        self._fuse = fuse

    def encode_cell(self, plaintext, address):
        self._fuse -= 1
        if self._fuse < 0:
            raise CryptoError("key escrow refused mid-rotation")
        return self._inner.encode_cell(plaintext, address)

    def decode_cell(self, stored, address):
        return self._inner.decode_cell(stored, address)


class _ExplodingIndexCodec(IndexEntryCodec):
    """Wraps a real index codec; encoding blows up after ``fuse`` calls."""

    def __init__(self, inner, fuse: list) -> None:
        self._inner = inner
        self._fuse = fuse

    def encode(self, key, table_row, refs):
        self._fuse[0] -= 1
        if self._fuse[0] < 0:
            raise CryptoError("key escrow refused mid-rotation")
        return self._inner.encode(key, table_row, refs)

    def decode(self, payload, refs):
        return self._inner.decode(payload, refs)


def _sensitive_bytes(db) -> list[bytes]:
    view = db.storage_view()
    return [view.cell("t", row, col) for row in range(15) for col in (0, 1)]


def _assert_fully_readable_under_old_key(db, before_point, before_range):
    assert PointQuery("t", "k", 7).execute(db).rows == before_point
    assert RangeQuery("t", "v", "secret-03", "secret-06").execute(db).rows \
        == before_range
    for i in range(15):
        assert db.get_value("t", i, "v") == f"secret-{i:02d}"
    # The old key ring is live, not wiped, and new writes go through it.
    assert not db.keys.is_wiped
    row = db.insert("t", [99, "post-failure", "x"])
    assert db.get_value("t", row, "v") == "post-failure"


def test_failure_during_cell_reencryption_rolls_back(monkeypatch):
    """A mid-rotation CryptoError leaves the DB readable under the old key."""
    db = build()
    old_ring = db.keys
    old_codec = db.cell_codec
    stored_before = _sensitive_bytes(db)
    before_point = PointQuery("t", "k", 7).execute(db).rows
    before_range = RangeQuery("t", "v", "secret-03", "secret-06").execute(db).rows

    real_build = EncryptedDatabase._build_cell_codec
    monkeypatch.setattr(
        EncryptedDatabase,
        "_build_cell_codec",
        lambda self: _ExplodingCellCodec(real_build(self), fuse=7),
    )
    with pytest.raises(CryptoError):
        rotate_master_key(db, NEW_KEY)
    monkeypatch.undo()

    # Facade state is the old material and storage is byte-identical:
    # the seven already-rewritten cells were restored.
    assert db.keys is old_ring
    assert db.cell_codec is old_codec
    assert _sensitive_bytes(db) == stored_before
    _assert_fully_readable_under_old_key(db, before_point, before_range)


def test_failure_during_index_reencryption_rolls_back(monkeypatch):
    """Failing in the *second* index undoes cells and both indexes."""
    db = build()
    old_ring = db.keys
    stored_before = _sensitive_bytes(db)
    before_point = PointQuery("t", "k", 7).execute(db).rows
    before_range = RangeQuery("t", "v", "secret-03", "secret-06").execute(db).rows

    real_build = EncryptedDatabase._build_cell_codec
    monkeypatch.setattr(
        EncryptedDatabase,
        "_build_cell_codec",
        lambda self: real_build(self),
    )
    real_index_build = EncryptedDatabase._build_index_codec
    fuse = [20]  # all 15 t_k entries, then a few t_v entries, then boom
    monkeypatch.setattr(
        EncryptedDatabase,
        "_build_index_codec",
        lambda self, *args: _ExplodingIndexCodec(real_index_build(self, *args), fuse),
    )
    with pytest.raises(CryptoError):
        rotate_master_key(db, NEW_KEY)
    monkeypatch.undo()
    assert fuse[0] < 0  # the failure really happened mid-index

    assert db.keys is old_ring
    assert _sensitive_bytes(db) == stored_before
    _assert_fully_readable_under_old_key(db, before_point, before_range)
