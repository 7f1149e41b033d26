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
anomaly as an issue, then does its own work: a cryptographic sweep of
every cell and the settling of every index.  Its contract:

* it never raises on corrupted input — every record of the image ends in
  exactly one :class:`RecoveryReport` bucket:

  - ``ok`` — framed, decrypted, verified, and type-decoded;
  - ``quarantined-crypto`` — framed, but a sensitive cell failed the
    scheme's cryptographic verification (eq. 22's ``invalid``);
  - ``quarantined-structural`` — the record itself (or the image region
    holding it) could not be parsed or type-decoded, or it repeats an
    earlier row or table;

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

from repro.engine.btree import BPlusTree
from repro.engine.database import CellCodec, Database, IndexCodecFactory
from repro.engine.indextable import IndexTable
from repro.engine.integrity import IntegrityIssue
from repro.engine.storage import parse_image
from repro.errors import CryptoError, EngineError
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


@dataclass
class RecoveryReport:
    """Everything the resilient loader decided, record by record.

    Issue kinds reuse the vocabulary of
    :class:`~repro.engine.integrity.IntegrityReport`
    (:data:`~repro.engine.integrity.ISSUE_KINDS`), so an eager audit and
    a resilient restore read the same way.
    """

    row_outcomes: dict[str, str] = field(default_factory=dict)
    index_outcomes: dict[str, str] = field(default_factory=dict)
    issues: list[IntegrityIssue] = field(default_factory=list)
    #: Rows declared by the image but unreachable behind a structural
    #: failure (their ids are unknown, so they cannot appear in
    #: ``row_outcomes``).
    rows_lost_structurally: int = 0
    #: False when a structural failure stopped the parse early.
    image_fully_parsed: bool = True

    @property
    def ok(self) -> bool:
        return not self.issues

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
    survivors = _crypto_sweep(db, report)
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


# ---------------------------------------------------------------------------
# Cryptographic sweep
# ---------------------------------------------------------------------------

def _crypto_sweep(
    db: Database, report: RecoveryReport
) -> dict[str, dict[int, list[bytes]]]:
    """Verify every parsed row; quarantine failures; return survivors.

    Survivors map ``table -> row_id -> plaintext cells`` (canonical byte
    encodings after codec verification) — exactly the material index
    rebuilds need.
    """
    survivors: dict[str, dict[int, list[bytes]]] = {}
    for table_name in db.table_names:
        table = db.table(table_name)
        survivors[table_name] = {}
        for row_id in list(table.row_ids):
            where = f"{table_name}(r={row_id})"
            cells = table.get_row(row_id)
            plain: list[bytes] = []
            outcome = OUTCOME_OK
            for position, stored in enumerate(cells):
                if table.schema.columns[position].sensitive:
                    address = table.address(row_id, position)
                    try:
                        plain.append(db.cell_codec.decode_cell(stored, address))
                        continue
                    except CryptoError as exc:
                        outcome = OUTCOME_QUARANTINED_CRYPTO
                        report.issues.append(IntegrityIssue(
                            "cell", f"{where}c={position}", str(exc)
                        ))
                    except Exception as exc:
                        outcome = OUTCOME_QUARANTINED_STRUCTURAL
                        report.issues.append(IntegrityIssue(
                            "record-structural", f"{where}c={position}",
                            f"{type(exc).__name__}: {exc}",
                        ))
                    break
                plain.append(stored)
            if outcome == OUTCOME_OK:
                # The row must also decode at the type layer, or later
                # reads would crash on it.
                try:
                    table.schema.decode_row(plain)
                except Exception as exc:
                    outcome = OUTCOME_QUARANTINED_STRUCTURAL
                    report.issues.append(IntegrityIssue(
                        "record-structural", where,
                        f"type decode failed: {type(exc).__name__}: {exc}",
                    ))
            report.row_outcomes[where] = outcome
            if outcome == OUTCOME_OK:
                survivors[table_name][row_id] = plain
            else:
                del table._rows[row_id]
    return survivors


# ---------------------------------------------------------------------------
# Index verification / rebuild
# ---------------------------------------------------------------------------

def _settle_indexes(
    db: Database,
    report: RecoveryReport,
    unbuilt: list[tuple[str, str, str, str]],
    survivors: dict[str, dict[int, list[bytes]]],
    rebuild_indexes: bool,
) -> None:
    for name in db.index_names:
        info = db.index(name)
        expected = _expected_pairs(db, info.table, info.column, survivors)
        problem = _index_problem(info.structure, expected)
        if problem is None:
            report.index_outcomes[name] = INDEX_OK
            continue
        report.issues.append(IntegrityIssue(problem[0], name, problem[1]))
        if rebuild_indexes:
            db.rebuild_index(name, expected, fresh_id=True)
            report.index_outcomes[name] = INDEX_REBUILT
        else:
            db.quarantine_index(name)
            report.index_outcomes[name] = INDEX_QUARANTINED

    # Indexes the parser could not build: rebuilt from the survivors when
    # their table and column exist, lost otherwise.
    for name, table, column, kind in unbuilt:
        expected = _expected_pairs(db, table, column, survivors)
        if expected is not None:
            report.issues.append(IntegrityIssue(
                "index-structural", name, "index body unusable in image",
            ))
        if expected is None or not rebuild_indexes:
            report.index_outcomes[name] = INDEX_LOST
            continue
        db.register_index(name, table, column, kind).structure.bulk_build(expected)
        report.index_outcomes[name] = INDEX_REBUILT


def _expected_pairs(
    db: Database,
    table_name: str,
    column_name: str,
    survivors: dict[str, dict[int, list[bytes]]],
) -> list[tuple[bytes, int]] | None:
    """(value, row_id) pairs the index should hold, from surviving rows."""
    try:
        column_pos = db.table(table_name).schema.column_index(column_name)
    except EngineError:
        return None
    return [
        (cells[column_pos], row_id)
        for row_id, cells in sorted(survivors.get(table_name, {}).items())
    ]


def _index_problem(
    structure: IndexTable | BPlusTree, expected: list[tuple[bytes, int]]
) -> tuple[str, str] | None:
    """None when the index verifies and matches the table, else
    (issue kind, detail)."""
    try:
        structure.verify_all()
        pairs = structure.items()
    except CryptoError as exc:
        return "index-entry", str(exc)
    except EngineError as exc:
        return "index-structural", str(exc)
    except Exception as exc:
        return "index-structural", f"{type(exc).__name__}: {exc}"
    keys = [key for key, _ in pairs]
    if keys != sorted(keys):
        return "index-order", "leaf chain is not key-ordered"
    if sorted(pairs) != sorted(expected):
        return "index-mismatch", (
            f"index holds {len(pairs)} pair(s), "
            f"surviving rows imply {len(expected)}"
        )
    return None
