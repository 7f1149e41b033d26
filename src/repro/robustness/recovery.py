"""Resilient loading of (possibly tampered) storage images.

Both loaders read an image through one parser,
:func:`repro.engine.storage.parse_image`.  It builds every table, row
and index it can and records each anomaly it steps over: a duplicate
table, row, index name, index row or tree node (the first copy wins), a
row, node or entry counter at or below a stored id (raised past it), a
tree order below 3 or an index naming an unknown table or column (the
index is left unbuilt), and trailing bytes.  It stops only where the
framing is lost.

The strict loader (:func:`repro.engine.storage.load_database`) is the
fail-closed policy on top: any anomaly aborts the restore.  That is the
right default against an active adversary, but a deployment that *must*
come back up — the paper's motivating hospital cannot lose every
patient because one disk sector died — needs the complementary policy:
salvage everything that still authenticates, quarantine everything that
does not, and say precisely which is which.

:func:`load_database_resilient` provides that policy.  It reports every
anomaly as an issue, then verifies the parsed database through the
eager audit's own pieces, :func:`repro.engine.integrity.sweep_rows` and
:func:`repro.engine.integrity.check_index`, and keeps only its policy:
the type-decode rule, removing quarantined rows, and rebuilding or
quarantining indexes against the survivors.  Its contract:

* it never raises on corrupted input — every record of the image ends in
  exactly one :class:`RecoveryReport` bucket:

  - ``ok`` — framed, decrypted, verified, and type-decoded;
  - ``quarantined-crypto`` — framed, but the sweep found a sensitive
    cell that failed the scheme's cryptographic verification (eq. 22's
    ``invalid``);
  - ``quarantined-structural`` — the parser found the record (or the
    image region holding it) unparseable or a repeat of an earlier row
    or table, the sweep's decode raised something other than a crypto
    failure, or the salvage's type decode failed;

* quarantined rows are removed from the loaded database, so every
  surviving read path serves only verified data;
* an index that fails verification — cryptographically, structurally,
  or by disagreeing with the surviving table rows — is rebuilt from the
  surviving authenticated cells (or, with ``rebuild_indexes=False``,
  left registered-but-quarantined, in which case queries degrade to a
  verified full scan via :meth:`~repro.engine.database.Database.indexes_on`);
  an index the parser left unbuilt is rebuilt too, or ``lost``.

Note on rebuilds: a rebuilt index re-encrypts its entries with a fresh
codec from the caller's factory.  Deployments whose AEAD nonces are
counters should rotate the index key before re-persisting (see
:mod:`repro.core.rotation`); the quarantined original is discarded, so
within one image no nonce appears twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.database import CellCodec, Database, IndexCodecFactory
from repro.engine.integrity import (
    IntegrityIssue,
    IntegrityReport,
    VerifiedRows,
    check_index,
    sweep_rows,
    verified_pairs,
)
from repro.engine.storage import parse_image
from repro.errors import EngineError
from repro.observability.audit import AUDIT as _AUDIT

#: Per-record outcomes (the report's vocabulary, shared with docs/tests).
OUTCOME_OK = "ok"
OUTCOME_QUARANTINED_CRYPTO = "quarantined-crypto"
OUTCOME_QUARANTINED_STRUCTURAL = "quarantined-structural"

#: Per-index outcomes.
INDEX_OK = "ok"
INDEX_REBUILT = "rebuilt"
INDEX_QUARANTINED = "quarantined"
INDEX_LOST = "lost"

#: The row outcome for each issue kind that ends a row in the sweep.
_QUARANTINE = {
    "cell": OUTCOME_QUARANTINED_CRYPTO,
    "record-structural": OUTCOME_QUARANTINED_STRUCTURAL,
}


@dataclass
class RecoveryReport(IntegrityReport):
    """An :class:`~repro.engine.integrity.IntegrityReport` of a salvaged
    image, plus what the salvage decided record by record and index by
    index."""

    row_outcomes: dict[str, str] = field(default_factory=dict)
    index_outcomes: dict[str, str] = field(default_factory=dict)
    #: Rows declared by the image but unreachable behind a structural
    #: failure (their ids are unknown, so they cannot appear in
    #: ``row_outcomes``).
    rows_lost_structurally: int = 0
    #: False when a structural failure stopped the parse early.
    image_fully_parsed: bool = True

    def outcome_counts(self) -> dict[str, int]:
        counts = {
            OUTCOME_OK: 0,
            OUTCOME_QUARANTINED_CRYPTO: 0,
            OUTCOME_QUARANTINED_STRUCTURAL: self.rows_lost_structurally,
        }
        for outcome in self.row_outcomes.values():
            counts[outcome] = counts.get(outcome, 0) + 1
        return counts

    @property
    def rows_recovered(self) -> int:
        return self.outcome_counts()[OUTCOME_OK]

    @property
    def rows_quarantined(self) -> int:
        counts = self.outcome_counts()
        return (
            counts[OUTCOME_QUARANTINED_CRYPTO]
            + counts[OUTCOME_QUARANTINED_STRUCTURAL]
        )

    def __str__(self) -> str:
        counts = self.outcome_counts()
        status = "OK" if self.ok else f"{len(self.issues)} issue(s)"
        indexes = ", ".join(
            f"{name}={outcome}" for name, outcome in sorted(self.index_outcomes.items())
        ) or "none"
        return (
            f"recovery: {status} — rows ok={counts[OUTCOME_OK]} "
            f"crypto-quarantined={counts[OUTCOME_QUARANTINED_CRYPTO]} "
            f"structural-quarantined={counts[OUTCOME_QUARANTINED_STRUCTURAL]}; "
            f"indexes: {indexes}"
        )


@dataclass
class RecoveryResult:
    """A salvaged database plus the report explaining its gaps."""

    database: Database
    report: RecoveryReport


def load_database_resilient(
    image: bytes,
    cell_codec: CellCodec | None = None,
    index_codec_factory: IndexCodecFactory | None = None,
    rebuild_indexes: bool = True,
) -> RecoveryResult:
    """Salvage a database from a possibly-corrupted storage image.

    Never raises on bad input: structural damage truncates the salvage
    at the last parseable record, cryptographic damage quarantines the
    affected rows, and broken indexes are rebuilt from surviving cells
    (or quarantined when ``rebuild_indexes`` is False).  See the module
    docstring for the exact per-record contract.
    """
    parsed = parse_image(image, cell_codec, index_codec_factory)
    db = parsed.database
    report = RecoveryReport(
        issues=[
            IntegrityIssue(anomaly.kind, anomaly.where, anomaly.detail)
            for anomaly in parsed.anomalies
        ],
        rows_lost_structurally=parsed.rows_lost,
        image_fully_parsed=parsed.complete,
    )
    for where in parsed.duplicate_rows:
        report.row_outcomes[where] = OUTCOME_QUARANTINED_STRUCTURAL
    survivors = _settle_rows(db, report)
    _settle_indexes(db, report, parsed.unbuilt, survivors, rebuild_indexes)
    _emit_recovery_events(report)
    return RecoveryResult(database=db, report=report)


def _emit_recovery_events(report: RecoveryReport) -> None:
    """Mirror quarantine decisions into the security audit log."""
    if not _AUDIT.enabled:
        return
    for where, outcome in sorted(report.row_outcomes.items()):
        if outcome != OUTCOME_OK:
            _AUDIT.emit("recovery.row", where=where, outcome=outcome)
    for name, outcome in sorted(report.index_outcomes.items()):
        _AUDIT.emit("recovery.index", index=name, outcome=outcome)
    _AUDIT.emit(
        "recovery.report",
        rows_recovered=report.rows_recovered,
        rows_quarantined=report.rows_quarantined,
        image_fully_parsed=report.image_fully_parsed,
    )


def _settle_rows(db: Database, report: RecoveryReport) -> VerifiedRows:
    """Sweep every row, remove each one that fails, return the survivors.

    On top of the sweep a verified row must also decode at the type
    layer, or later reads would crash on it.
    """
    verified, failed = sweep_rows(db, report)
    for (table_name, row_id), kind in failed.items():
        report.row_outcomes[f"{table_name}(r={row_id})"] = _QUARANTINE[kind]
        db.table(table_name).delete_row(row_id)
    for table_name, rows in verified.items():
        table = db.table(table_name)
        for row_id, plain in list(rows.items()):
            where = f"{table_name}(r={row_id})"
            try:
                table.schema.decode_row(plain)
            except Exception as exc:
                report.issues.append(IntegrityIssue(
                    "record-structural", where,
                    f"type decode failed: {type(exc).__name__}: {exc}",
                ))
                report.row_outcomes[where] = OUTCOME_QUARANTINED_STRUCTURAL
                table.delete_row(row_id)
                del rows[row_id]
            else:
                report.row_outcomes[where] = OUTCOME_OK
    return verified


def _settle_indexes(
    db: Database,
    report: RecoveryReport,
    unbuilt: list[tuple[str, str, str, str]],
    survivors: VerifiedRows,
    rebuild_indexes: bool,
) -> None:
    """Keep each index that checks out against the survivors; rebuild
    (or quarantine) every other one."""
    for name in db.index_names:
        info = db.index(name)
        expected = verified_pairs(db, info.table, info.column, survivors)
        if check_index(info, expected, report):
            report.index_outcomes[name] = INDEX_OK
        elif rebuild_indexes:
            db.rebuild_index(name, expected, fresh_id=True)
            report.index_outcomes[name] = INDEX_REBUILT
        else:
            db.quarantine_index(name)
            report.index_outcomes[name] = INDEX_QUARANTINED

    # Indexes the parser could not build: rebuilt from the survivors when
    # their table and column exist, lost otherwise.
    for name, table, column, kind in unbuilt:
        try:
            expected = verified_pairs(db, table, column, survivors)
        except EngineError:
            report.index_outcomes[name] = INDEX_LOST
            continue
        report.issues.append(IntegrityIssue(
            "index-structural", name, "index body unusable in image",
        ))
        if not rebuild_indexes:
            report.index_outcomes[name] = INDEX_LOST
            continue
        db.register_index(name, table, column, kind).structure.bulk_build(expected)
        report.index_outcomes[name] = INDEX_REBUILT
