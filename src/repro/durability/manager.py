"""Crash-consistent database persistence: journal-first, checkpoint-later.

:class:`DurableDatabase` wraps an engine
:class:`~repro.engine.database.Database` and a
:class:`~repro.durability.vdisk.VirtualDisk` behind one rule — **no
mutation is acknowledged before its journal record is durable**:

1. every engine mutation (create table/index, insert, update, delete)
   hands its write record to the engine's ``write_ahead`` hook, which
   encodes it as one :class:`~repro.durability.wal.JournalRecord`,
   appends and syncs it (the MAC tag is the commit marker); only then
   does :meth:`~repro.engine.database.Database.apply` apply it to the
   in-memory database.  This holds whether the mutation is called on
   the manager or on :attr:`DurableDatabase.database`;
2. :meth:`checkpoint` folds the current state into the existing storage
   image format and installs it via write-temp → sync → rename, then
   starts a fresh journal generation;
3. :meth:`open` recovers: load the checkpoint (falling back to
   :func:`~repro.robustness.recovery.load_database_resilient` when it
   is damaged), scan the journal — truncating at the first torn or
   unauthenticated suffix — and replay the committed records whose
   sequence number exceeds the checkpoint's ``applied_seq`` through the
   same ``Database.apply``.

Journal records carry the *stored* (post-codec) cell bytes, never
plaintext: the journal lives on the same untrusted storage as the
image, and physical logging also makes replay byte-deterministic — the
replayed table content is identical to the live run's, with no fresh
nonce draws.  Index maintenance is **not** replayed entry-by-entry;
whenever any record replays, every index is rebuilt from the recovered
cells with a fresh codec (the same policy, and the same nonce-rotation
caveat, as :mod:`repro.robustness.recovery`).

Audit events (``wal.*``) follow the off-by-default hook pattern of
:mod:`repro.observability.audit`: pure observation, no disk byte ever
depends on whether auditing is enabled.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field
from typing import Any, Sequence

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.resilience.anchor import TrustAnchor

from repro.engine.database import (
    OP_CREATE_INDEX,
    OP_CREATE_TABLE,
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    CellCodec,
    Database,
    IndexCodecFactory,
)
from repro.engine.schema import TableSchema
from repro.engine.storage import (
    _read_schema,
    _Reader,
    _write_bytes,
    _write_int,
    _write_schema,
    _write_text,
    dump_database,
    load_database,
)
from repro.errors import StorageFormatError
from repro.mac.base import MAC
from repro.observability.audit import AUDIT
from repro.observability.flightrecorder import RECORDER
from repro.observability.timeseries import HUB
from repro.observability.trace import TRACER as _TRACER
from repro.robustness.recovery import RecoveryReport, load_database_resilient

from repro.durability.vdisk import VirtualDisk
from repro.durability.wal import (
    CHECKPOINT_BLOB,
    CHECKPOINT_TMP,
    CheckpointRecord,
    Journal,
    JournalRecord,
    JournalScan,
    decode_checkpoint,
    encode_checkpoint,
)

#: Rotation protocol markers (written by :mod:`repro.sharding.rotation`).
#: They carry no engine mutation; the shard mount resolves them *before*
#: :meth:`DurableDatabase.open` ever scans the journal, so seeing one
#: during replay means the disk was mounted outside its keyspace.
OP_ROTATE_BEGIN = "rotate_begin"
OP_ROTATE_PROGRESS = "rotate_progress"
OP_ROTATE_COMMIT = "rotate_commit"
ROTATION_OPS = (OP_ROTATE_BEGIN, OP_ROTATE_PROGRESS, OP_ROTATE_COMMIT)

#: Checkpoint verdicts of :meth:`DurableDatabase.open`.
CKPT_OK = "ok"
CKPT_MISSING = "missing"
CKPT_UNAUTHENTICATED = "unauthenticated"
CKPT_MALFORMED = "malformed"
CKPT_UNLOADABLE = "unloadable"

#: Journal verdicts.
JOURNAL_CLEAN = "clean"
JOURNAL_TRUNCATED = "truncated"
JOURNAL_MISSING = "missing"
JOURNAL_STALE = "stale"


@dataclass
class WalRecovery:
    """What :meth:`DurableDatabase.open` found and decided."""

    checkpoint: str = CKPT_MISSING
    journal: str = JOURNAL_MISSING
    generation: int = 1
    applied_seq: int = 0
    records_replayed: int = 0
    records_skipped: int = 0
    truncated_at: int | None = None
    truncated_reason: str | None = None
    #: Why replay stopped early (a record the MAC accepted but the
    #: engine could not apply — journal/checkpoint mismatch).
    replay_stopped: str | None = None
    indexes_rebuilt: bool = False
    #: The resilient loader's report when the checkpoint needed salvage.
    resilient: RecoveryReport | None = None
    issues: list[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when recovery could not fully trust its inputs."""
        return (
            self.checkpoint not in (CKPT_OK, CKPT_MISSING)
            or self.replay_stopped is not None
        )

    def __str__(self) -> str:
        tail = f", truncated: {self.truncated_reason}" if self.truncated_reason else ""
        return (
            f"wal recovery: checkpoint={self.checkpoint} journal={self.journal} "
            f"replayed={self.records_replayed} skipped={self.records_skipped}"
            f"{tail}"
        )


# ---------------------------------------------------------------------------
# Record payload encoding (storage framing, so _Reader hardening applies)
# ---------------------------------------------------------------------------

def _encode_create_table(schema: TableSchema, table_id: int) -> bytes:
    out = io.BytesIO()
    _write_schema(out, schema, table_id)
    return out.getvalue()


def _encode_create_index(
    name: str, table: str, column: str, kind: str, order: int, index_table_id: int
) -> bytes:
    out = io.BytesIO()
    _write_text(out, name)
    _write_text(out, table)
    _write_text(out, column)
    _write_text(out, kind)
    _write_int(out, order)
    _write_int(out, index_table_id)
    return out.getvalue()


def _encode_insert(table: str, row_id: int, stored_cells: Sequence[bytes]) -> bytes:
    out = io.BytesIO()
    _write_text(out, table)
    _write_int(out, row_id)
    _write_int(out, len(stored_cells))
    for cell in stored_cells:
        _write_bytes(out, cell)
    return out.getvalue()


def _encode_update(table: str, row_id: int, column_pos: int, stored: bytes) -> bytes:
    out = io.BytesIO()
    _write_text(out, table)
    _write_int(out, row_id)
    _write_int(out, column_pos)
    _write_bytes(out, stored)
    return out.getvalue()


def _encode_delete(table: str, row_id: int) -> bytes:
    out = io.BytesIO()
    _write_text(out, table)
    _write_int(out, row_id)
    return out.getvalue()


_ENCODERS = {
    OP_CREATE_TABLE: _encode_create_table,
    OP_CREATE_INDEX: _encode_create_index,
    OP_INSERT: _encode_insert,
    OP_UPDATE: _encode_update,
    OP_DELETE: _encode_delete,
}


def _record_fields(record: JournalRecord) -> tuple:
    """Decode one committed record into its :meth:`Database.apply` fields."""
    if record.op in ROTATION_OPS:
        # A rotation marker surviving to replay means the shard-level
        # resolve never ran (the disk was mounted bare).  Refusing to
        # apply it stops replay and flags the mount as degraded — the
        # honest outcome, since only the keyspace mount knows whether
        # the rotation committed.
        raise StorageFormatError(
            f"rotation record {record.op!r} outside a keyspace mount"
        )
    reader = _Reader(record.payload)
    text, number = reader.read_text, reader.read_int
    if record.op == OP_CREATE_TABLE:
        fields = _read_schema(reader)
    elif record.op == OP_CREATE_INDEX:
        fields = (text(), text(), text(), text(), number(), number())
    elif record.op == OP_INSERT:
        table, row_id = text(), number()
        cells = [reader.read_bytes() for _ in range(reader.read_count("cell"))]
        fields = (table, row_id, cells)
    elif record.op == OP_UPDATE:
        fields = (text(), number(), number(), reader.read_bytes())
    elif record.op == OP_DELETE:
        fields = (text(), number())
    else:
        raise StorageFormatError(f"unknown journal op {record.op!r}")
    if reader.remaining:
        raise StorageFormatError(
            f"{reader.remaining} trailing byte(s) in journal payload",
            offset=reader.offset,
        )
    return fields


class _Committer:
    """The committing end of a manager's journal: the engine's
    ``write_ahead`` hook.  Nothing in it leads back to the database; a
    hook bound to the manager would close a reference cycle, and every
    dropped mount would wait for the cycle collector."""

    def __init__(
        self, journal: Journal, seq: int, generation: int,
        anchor: "TrustAnchor | None", anchor_scope: str,
    ) -> None:
        self.journal, self.seq, self.generation = journal, seq, generation
        self.anchor, self.anchor_scope = anchor, anchor_scope

    def __call__(self, op: str, fields: tuple) -> None:
        self.commit(op, _ENCODERS[op](*fields))

    def commit(self, op: str, payload: bytes) -> JournalRecord:
        record = JournalRecord(self.seq + 1, op, payload)
        self.journal.append(record)
        self.seq = record.seq
        if self.anchor is not None and op not in ROTATION_OPS:
            # Advance strictly *after* the journal append: an honest
            # crash can lose the advance but never leave the anchor
            # ahead of the disk.  Rotation protocol markers are excluded
            # — a crash mid-rotation legitimately rolls them back, and
            # they carry no user data.
            self.anchor.advance(self.anchor_scope, record.seq, self.generation)
        AUDIT.emit("wal.commit", seq=record.seq, op=op, bytes=len(payload))
        return record


def _rebuild_indexes(db: Database) -> None:
    """Rebuild every index from recovered cells with fresh codecs.

    Deterministic given the table content: indexes are processed in name
    order, rows in id order, and each codec is freshly constructed from
    the factory — so two recoveries of the same committed prefix yield
    byte-identical structures."""
    for name in db.index_names:
        info = db.index(name)
        table = db.table(info.table)
        column_pos = table.schema.column_index(info.column)
        db.rebuild_index(name, [
            (db._plain_cell(table, row_id, column_pos), row_id)
            for row_id in table.row_ids
        ])


# ---------------------------------------------------------------------------
# The durable database
# ---------------------------------------------------------------------------

class DurableDatabase:
    """An engine database whose mutations survive power cuts.

    Construct via :meth:`open` (which doubles as crash recovery).  The
    wrapped engine is :attr:`database`; its write-ahead hook journals
    each of its mutations, and the mutation methods here call it.
    """

    def __init__(
        self,
        disk: VirtualDisk,
        db: Database,
        journal: Journal,
        mac: MAC,
        generation: int,
        seq: int,
        recovery: WalRecovery,
        anchor: "TrustAnchor | None" = None,
        anchor_scope: str = "db",
        checkpoint_digest: bytes = b"",
    ) -> None:
        self._disk = disk
        self._db = db
        self._mac = mac
        self.recovery = recovery
        #: SHA-256 of the checkpoint blob this manager last wrote or
        #: loaded, ``b""`` while there is none: taken from bytes in hand,
        #: never read back.
        self.checkpoint_digest = checkpoint_digest
        self._committer = db.write_ahead = _Committer(
            journal, seq, generation, anchor, anchor_scope
        )

    # -- recovery (the only way in) -------------------------------------------

    @classmethod
    def open(
        cls,
        disk: VirtualDisk,
        mac: MAC,
        cell_codec: CellCodec | None = None,
        index_codec_factory: IndexCodecFactory | None = None,
        fold: bool = True,
        anchor: "TrustAnchor | None" = None,
        anchor_scope: str = "db",
        verified: tuple[CheckpointRecord | None, JournalScan] | None = None,
    ) -> "DurableDatabase":
        """Mount a disk: load the checkpoint, replay the journal.

        Decision table (see ``docs/robustness.md``):

        * checkpoint ok, journal clean/torn — strict load, replay the
          committed suffix;
        * checkpoint damaged, journal ok — resilient salvage of the
          embedded image, then best-effort replay;
        * both damaged — salvage what survives of each; the report's
          ``degraded`` flag is set.

        ``fold=False`` suppresses the checkpoint fold a degraded or
        torn-journal recovery normally performs.  Callers that cannot
        rule out mounting with the *wrong keys* (the sharded keyspace's
        epoch probing) use it so an unauthenticated mount never
        overwrites durable bytes a correct key could still recover.

        ``anchor`` enables rollback detection: before accepting the
        recovered state, its ``(seq, generation)`` is checked against
        the trusted :class:`~repro.resilience.anchor.TrustAnchor` under
        ``anchor_scope``, raising
        :class:`~repro.errors.StaleImageError` when the storage serves
        state older than an already-acknowledged commit.  The manager
        then keeps advancing the anchor after every durable commit
        point.

        ``verified`` hands over the checkpoint record (None when there is
        no checkpoint) and the journal scan a caller already verified
        under ``mac`` from the bytes now on this disk — the shard
        mount's rotation resolution — so neither blob is read or
        MAC-checked twice.  Without it, both are read afresh.
        """
        report = WalRecovery()
        journal = Journal(disk, mac)
        fresh_disk = not disk.exists(CHECKPOINT_BLOB) and not journal.exists()
        ckpt, scan = verified or (None, None)

        db: Database | None = None
        if ckpt is None and disk.exists(CHECKPOINT_BLOB):
            ckpt = decode_checkpoint(disk.read(CHECKPOINT_BLOB), mac)
        if ckpt is not None:
            report.generation = max(ckpt.generation, 1)
            report.applied_seq = max(ckpt.applied_seq, 0)
            if ckpt.ok:
                try:
                    db = load_database(
                        ckpt.image, cell_codec, index_codec_factory
                    )
                    report.checkpoint = CKPT_OK
                except Exception as exc:
                    report.checkpoint = CKPT_UNLOADABLE
                    report.issues.append(
                        f"authenticated checkpoint failed strict load: "
                        f"{type(exc).__name__}: {exc}"
                    )
            else:
                report.checkpoint = (
                    CKPT_UNAUTHENTICATED
                    if ckpt.status == "unauthenticated"
                    else CKPT_MALFORMED
                )
                report.issues.append(f"checkpoint {ckpt.status}: {ckpt.detail}")
            if db is None and ckpt.image is not None:
                salvage = load_database_resilient(
                    ckpt.image, cell_codec, index_codec_factory
                )
                db = salvage.database
                report.resilient = salvage.report
        if db is None:
            db = Database(
                cell_codec=cell_codec, index_codec_factory=index_codec_factory
            )

        if scan is None:
            scan = journal.scan()
        if scan.header_ok:
            report.journal = JOURNAL_CLEAN if scan.clean else JOURNAL_TRUNCATED
        else:
            report.journal = JOURNAL_MISSING
        report.truncated_at = scan.truncated_at
        report.truncated_reason = scan.truncated_reason
        if scan.truncated_at is not None and scan.header_ok:
            AUDIT.emit(
                "wal.truncated",
                offset=scan.truncated_at,
                reason=scan.truncated_reason,
            )
            RECORDER.note(
                "wal.truncated",
                offset=scan.truncated_at,
                reason=scan.truncated_reason,
            )

        # A clean checkpoint only extends a journal of its own
        # generation; a missing or degraded one takes any committed
        # records it can get (best-effort salvage — replay stops at the
        # first record that does not apply).
        records = scan.records if scan.header_ok else []
        if (
            scan.header_ok
            and report.checkpoint == CKPT_OK
            and scan.generation != report.generation
        ):
            if any(r.seq > report.applied_seq for r in records):
                report.issues.append(
                    f"journal generation {scan.generation} does not extend "
                    f"checkpoint generation {report.generation}; "
                    f"its records were not replayed"
                )
            report.journal = JOURNAL_STALE
            records = []

        seq = report.applied_seq
        with _TRACER.span("wal.replay") as replay_span:
            for record in records:
                if record.seq <= report.applied_seq:
                    report.records_skipped += 1
                    continue
                if record.seq != seq + 1:
                    report.replay_stopped = (
                        f"sequence gap: record {record.seq} after {seq}"
                    )
                    break
                try:
                    db.apply(record.op, *_record_fields(record))
                except Exception as exc:
                    report.replay_stopped = (
                        f"record {record.seq} ({record.op}) not applicable: "
                        f"{type(exc).__name__}: {exc}"
                    )
                    break
                seq = record.seq
                report.records_replayed += 1
            replay_span.add_cost("records_replayed", report.records_replayed)
        if report.replay_stopped is not None:
            report.issues.append(f"replay stopped: {report.replay_stopped}")

        if report.records_replayed or report.resilient is not None:
            _rebuild_indexes(db)
            report.indexes_rebuilt = True

        AUDIT.emit(
            "wal.replay",
            checkpoint=report.checkpoint,
            journal=report.journal,
            replayed=report.records_replayed,
            skipped=report.records_skipped,
            rebuilt=report.indexes_rebuilt,
        )
        RECORDER.note(
            "wal.replay",
            checkpoint=report.checkpoint,
            journal=report.journal,
            replayed=report.records_replayed,
            skipped=report.records_skipped,
            rebuilt=report.indexes_rebuilt,
        )
        if HUB.enabled:
            # Time-series view of the same facts: how often mounts
            # replay, and whether any mount needed the salvage fallback.
            if report.records_replayed:
                HUB.event("wal.replay.records", report.records_replayed)
                HUB.event("wal.replay.mounts", 1)
            if report.resilient is not None or report.degraded:
                HUB.event("wal.fallback.events", 1)

        if anchor is not None:
            # Rollback check *before* anything is written back: a stale
            # image must never be folded into a fresh checkpoint.  An
            # honest crash can only leave the storage at or ahead of the
            # anchor (the anchor advances strictly after each durable
            # commit point), so recovered < anchored means the store
            # rolled back or destroyed acknowledged commits.
            anchor.check(anchor_scope, seq, report.generation)
            if not report.degraded and report.replay_stopped is None:
                # Catch the anchor up — but only on a fully trusted
                # recovery: a forged (unauthenticated) checkpoint could
                # otherwise inflate the trusted watermark.
                anchor.advance(anchor_scope, seq, report.generation)

        manager = cls(
            disk, db, journal, mac,
            generation=report.generation, seq=seq, recovery=report,
            anchor=anchor, anchor_scope=anchor_scope,
            checkpoint_digest=ckpt.digest if ckpt is not None else b"",
        )
        if fresh_disk:
            journal.reset(manager.generation)
            report.journal = JOURNAL_CLEAN
        elif fold and (report.degraded or report.journal != JOURNAL_CLEAN):
            # Fold the recovered state into a fresh checkpoint so the
            # journal never grows past a torn or stale tail.
            manager.checkpoint()
        return manager

    # -- the wrapped engine ---------------------------------------------------

    @property
    def database(self) -> Database:
        return self._db

    @property
    def last_seq(self) -> int:
        return self._committer.seq

    @property
    def generation(self) -> int:
        return self._committer.generation

    @property
    def disk(self) -> VirtualDisk:
        return self._disk

    @property
    def journal(self) -> Journal:
        return self._committer.journal

    @property
    def mac(self) -> MAC:
        return self._mac

    @property
    def anchor(self) -> "TrustAnchor | None":
        return self._committer.anchor

    @property
    def anchor_scope(self) -> str:
        return self._committer.anchor_scope

    def commit_record(self, op: str, payload: bytes) -> JournalRecord:
        """Journal one protocol record (no engine mutation).

        The rotation state machine uses this for its begin/progress/
        commit markers so they share the manager's sequence numbering,
        commit-marker MAC, and ``wal.commit`` audit trail.
        """
        return self._committer.commit(op, payload)

    # -- checkpoint -----------------------------------------------------------

    def checkpoint(self) -> None:
        """Fold the current state into the image format, atomically."""
        log = self._committer
        with _TRACER.span("wal.checkpoint") as span:
            image = dump_database(self._db)
            log.generation += 1
            blob = encode_checkpoint(log.generation, log.seq, image, self._mac)
            span.add_cost("bytes_written", len(blob))
            self._disk.write(CHECKPOINT_TMP, blob)
            self._disk.sync(CHECKPOINT_TMP)
            self._disk.rename(CHECKPOINT_TMP, CHECKPOINT_BLOB)
            self.checkpoint_digest = hashlib.sha256(blob).digest()
            log.journal.reset(log.generation)
        if log.anchor is not None:
            log.anchor.advance(log.anchor_scope, log.seq, log.generation)
        AUDIT.emit(
            "wal.checkpoint",
            generation=log.generation,
            applied_seq=log.seq,
            bytes=len(blob),
        )

    # -- journaled mutations (the engine's own, through its hook) -------------

    def create_table(self, schema: TableSchema) -> None:
        self._db.create_table(schema)

    def create_index(
        self, name: str, table_name: str, column_name: str,
        kind: str = "table", order: int = 8,
    ) -> None:
        self._db.create_index(name, table_name, column_name, kind, order)

    def insert(self, table_name: str, values: Sequence[Any]) -> int:
        return self._db.insert(table_name, values)

    def update_value(
        self, table_name: str, row_id: int, column_name: str, value: Any
    ) -> None:
        self._db.update_value(table_name, row_id, column_name, value)

    def delete_row(self, table_name: str, row_id: int) -> None:
        self._db.delete_row(table_name, row_id)
