"""The whole-database integrity audit."""


from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.engine.integrity import verify_database
from repro.engine.schema import Column, ColumnType, TableSchema

MASTER = b"integrity-test-master-key-012345"

SCHEMA = TableSchema("t", [
    Column("k", ColumnType.INT),
    Column("v", ColumnType.TEXT),
])


def build(config=None):
    db = EncryptedDatabase(MASTER, config or EncryptionConfig.paper_fixed("eax"))
    db.create_table(SCHEMA)
    for i in range(12):
        db.insert("t", [i, f"value-{i:02d}"])
    db.create_index("t_k", "t", "k", kind="table")
    db.create_index("t_v", "t", "v", kind="btree")
    return db


def test_clean_database_passes():
    report = verify_database(build())
    assert report.ok
    assert report.cells_checked == 24
    assert report.index_entries_checked >= 24
    assert "OK" in str(report)


def test_audit_decodes_each_cell_once(monkeypatch):
    db = build()
    codec = db.cell_codec
    decode = codec.decode_cell
    calls = []

    def counting(stored, address):
        calls.append(address)
        return decode(stored, address)

    monkeypatch.setattr(codec, "decode_cell", counting)
    report = verify_database(db)
    assert report.cells_checked == 24
    assert len(calls) == 24
    assert len(set(calls)) == 24


def test_tampered_cell_reported_with_location():
    db = build()
    storage = db.storage_view()
    stored = storage.cell("t", 3, 1)
    storage.set_cell("t", 3, 1, stored[:-1] + bytes([stored[-1] ^ 1]))
    report = verify_database(db)
    assert not report.ok
    cell_issues = [i for i in report.issues if i.kind == "cell"]
    assert len(cell_issues) == 1
    assert "r=3" in cell_issues[0].location


def test_tampered_index_entry_reported():
    db = build()
    index = db.index("t_k").structure
    leaf = next(r for r in index.raw_rows() if r.is_leaf)
    index.tamper(leaf.row_id, b"\x00" * len(leaf.payload))
    report = verify_database(db)
    assert not report.ok
    assert any(issue.kind == "index-entry" for issue in report.issues)


def test_swapped_leaves_detected_as_mismatch_under_buggy_scheme():
    """Under the faithful [12] codec the swap decodes fine (footnote 1),
    but the cross-check against the table catches the inconsistency —
    the audit compensates for the scheme's missing leaf verification."""
    db = build(EncryptionConfig(
        cell_scheme="append", index_scheme="dbsec2005", faithful_leaf_bug=True
    ))
    index = db.index("t_k").structure
    leaves = [r for r in index.raw_rows() if r.is_leaf and not r.deleted]
    # Swapping payloads moves (V, Ref_T) pairs between rows; full decode
    # (verify_all) catches it via the MAC even in buggy-query mode, so
    # this exercises the first sweep.
    a, b = leaves[0], leaves[1]
    a.payload, b.payload = b.payload, a.payload
    report = verify_database(db)
    assert not report.ok


def test_plain_database_mismatch_detection():
    """With no crypto at all, only the cross-check can notice an index
    pointing at the wrong rows."""
    db = build(EncryptionConfig(cell_scheme="plain", index_scheme="plain"))
    index = db.index("t_k").structure
    leaves = [r for r in index.raw_rows() if r.is_leaf and not r.deleted]
    a, b = leaves[0], leaves[1]
    a.payload, b.payload = b.payload, a.payload
    report = verify_database(db)
    assert not report.ok
    # The pair multiset is unchanged by a swap; the order check fires.
    assert any(issue.kind == "index-order" for issue in report.issues)


def test_stale_index_after_out_of_band_table_edit():
    db = build(EncryptionConfig(cell_scheme="plain", index_scheme="plain"))
    # Bypass the Database API: edit the table without index maintenance.
    table = db.table("t")
    column = SCHEMA.column("k")
    table.set_cell(0, 0, column.encode(999))
    report = verify_database(db)
    assert not report.ok
    assert any(issue.kind == "index-mismatch" for issue in report.issues)
