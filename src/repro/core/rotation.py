"""Key rotation for encrypted databases.

The paper's threat model (Sect. 2.1) hands session keys to the DBMS and
wipes them afterwards; any long-lived deployment additionally needs to
*retire* master keys — after suspected compromise, personnel change, or
simply on schedule.  Rotation re-encrypts every sensitive cell and every
index entry under a key ring derived from the new master key, without
changing row ids, index structure, or query results (the
structure-preservation property extends to re-keying).

Sect. 4 binds every stored cell and index entry to its place through
associated data (Ref_T; Ref_S and Ref_I), so re-keying is one walk,
:func:`reencrypt`: decode each stored payload at its refs under the old
key, encode it at the same refs under the new one.  The walk runs over a
*clone* — the database's storage image loaded under the new codecs
(:func:`clone_under`) — and both rotations use it:
:func:`rotate_master_key` swaps the finished clone into the database,
and the journaled shard rotation of :mod:`repro.sharding.rotation`
stages it as the shard's next checkpoint.

Rotation is the one operation that legitimately needs both the old and
the new keys simultaneously; it therefore lives in its own module rather
than on :class:`~repro.core.encrypted_db.EncryptedDatabase`, keeping the
facade single-keyed.

:func:`rotate_master_key` is **atomic against exceptions**: nothing of
the database changes before the swap, so if re-encryption raises (a
corrupt cell failing authentication, say) the database keeps every byte
and its old key ring.  It writes nothing durable itself; crash-safe
rotation of a journaled database is the job of the shard-by-shard state
machine in :mod:`repro.sharding.rotation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.encrypted_db import EncryptedDatabase
from repro.engine.database import Database
from repro.engine.storage import dump_database, load_database
from repro.primitives.rng import RandomSource


@dataclass(frozen=True)
class RotationReport:
    """What one rotation touched."""

    cells_reencrypted: int
    index_entries_reencrypted: int
    tables: int
    indexes: int


def clone_under(db: Database, new: EncryptedDatabase) -> Database:
    """``db``'s storage image loaded under ``new``'s codecs: every stored
    payload is still under the old key, ready for :func:`reencrypt`."""
    return load_database(
        dump_database(db),
        cell_codec=new.cell_codec,
        index_codec_factory=new._build_index_codec,
    )


def reencrypt(
    clone: Database, old: EncryptedDatabase
) -> Iterator[tuple[str, str, int]]:
    """Re-encrypt every payload of ``clone`` from ``old``'s keys to the
    clone's own codecs; yields ``(kind, name, count)`` after each table
    (``"table"``, cells) and each index (``"index"``, entries).

    A table's sensitive cells are all decoded, then all encoded, cell by
    cell in scan × column order, so nonces and IVs are drawn in that
    order.  An index's entries — tombstones included, so no payload
    stays under the retired key — are decoded by a codec ``old`` builds
    for the index and encoded by the structure's own.
    """
    for table_name in clone.table_names:
        table = clone.table(table_name)
        sensitive = [
            position
            for position, column in enumerate(table.schema.columns)
            if column.sensitive
        ]
        stored = [
            (cells[position], table.address(row_id, position))
            for row_id, cells in table.scan()
            for position in sensitive
        ]
        plaintexts = [old.cell_codec.decode_cell(*item) for item in stored]
        fresh = [
            clone.cell_codec.encode_cell(plaintext, address)
            for plaintext, (_, address) in zip(plaintexts, stored)
        ]
        for (_, address), encoded in zip(stored, fresh):
            table.set_cell(address.row, address.column, encoded)
        yield "table", table_name, len(stored)

    for index_name in clone.index_names:
        info = clone.index(index_name)
        table = clone.table(info.table)
        structure = info.structure
        old_codec = old._build_index_codec(
            structure.index_table_id,
            table.table_id,
            table.schema.column_index(info.column),
        )
        new_codec = structure.codec
        count = 0
        for refs, entry in structure.entries():
            key, table_row = old_codec.decode(entry.payload, refs)
            entry.payload = new_codec.encode(key, table_row, refs)
            count += 1
        yield "index", index_name, count


def rotate_master_key(
    db: EncryptedDatabase,
    new_master_key: bytes,
    rng: RandomSource | None = None,
) -> RotationReport:
    """Re-encrypt ``db`` under ``new_master_key``.

    After return, ``db`` behaves as if it had been created with the new
    key: its key ring, cell codec, and index codecs are replaced, old
    ciphertexts are gone from storage, and the old master key no longer
    decrypts anything.  The old key ring is wiped (Sect. 2.1 hygiene).

    The re-encryption runs on a clone and ``db`` changes only in the
    final swap, so if it raises, ``db`` keeps its tables, indexes, key
    ring, cell codec and randomness source, fully readable under the old
    master key.
    """
    new = EncryptedDatabase(new_master_key, db.config, rng)
    clone = clone_under(db, new)
    counts = {"table": 0, "index": 0}
    for kind, _, count in reencrypt(clone, db):
        counts[kind] += count

    # The swap: each IndexInfo stays, with its quarantine flag, and the
    # cell codec's setter leaves no plaintext the old key verified.
    old_keys = db.keys
    db._tables = clone._tables
    for index_name in db.index_names:
        db.index(index_name).structure = clone.index(index_name).structure
    db.keys, db._rng, db.cell_codec = new.keys, new._rng, new.cell_codec
    old_keys.wipe()
    return RotationReport(
        counts["table"], counts["index"], len(db.table_names), len(db.index_names)
    )
