"""Whole-database integrity audit, and the one verifier behind it.

The paper's schemes detect tampering lazily — at decryption time, cell
by cell.  A deployment also wants an eager sweep: after restoring from
untrusted storage, or after suspicious access, verify *everything* and
report what failed.  :func:`verify_database` decodes every sensitive
cell and every index entry (exercising each scheme's authentication)
and cross-checks index contents against table contents, so a
structurally-consistent-but-swapped index (footnote 1's silent failure
mode) is also caught.

It does so through two pieces that the resilient loader
(:mod:`repro.robustness.recovery`) runs as well: :func:`sweep_rows`
decodes each cell once and :func:`check_index` checks one index against
the rows that verified.  They are the only code that decodes a
database's cells and checks its indexes, so the eager audit and the
salvage cannot disagree about what verifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.database import Database, IndexInfo
from repro.errors import CryptoError, EngineError


#: Issue kinds shared by :class:`IntegrityReport` and the recovery
#: loader's :class:`~repro.robustness.recovery.RecoveryReport` (one of
#: its subclasses), so the eager audit and the resilient restore speak
#: one vocabulary.
ISSUE_KINDS = (
    "cell",               # a cell failed cryptographic verification
    "index-entry",        # an index entry failed verification / decode
    "index-structural",   # an index invariant broke (cycle, dangling ref)
    "index-order",        # leaf chain out of key order (footnote 1)
    "index-mismatch",     # index contents disagree with the table
    "index-quarantined",  # index already quarantined by recovery
    "record-structural",  # a stored record could not even be framed
    "image-structural",   # the image itself is mis-framed / truncated
)

#: ``table -> row id -> plaintext cells`` of the rows that verified; a
#: non-sensitive cell appears as stored.
VerifiedRows = dict[str, dict[int, list[bytes]]]


@dataclass
class IntegrityIssue:
    """One detected problem (kind is one of :data:`ISSUE_KINDS`)."""

    kind: str        # see ISSUE_KINDS
    location: str    # human-readable position
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.location}: {self.detail}"


@dataclass
class IntegrityReport:
    """Outcome of one full sweep."""

    cells_checked: int = 0
    index_entries_checked: int = 0
    issues: list[IntegrityIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        status = "OK" if self.ok else f"{len(self.issues)} issue(s)"
        return (
            f"integrity: {status} "
            f"({self.cells_checked} cells, "
            f"{self.index_entries_checked} index entries)"
        )


def verify_database(db: Database) -> IntegrityReport:
    """Decode-and-cross-check everything; never raises on bad data."""
    report = IntegrityReport()
    verified, _ = sweep_rows(db, report)
    for name in db.index_names:
        info = db.index(name)
        if info.quarantined:
            # Recovery already pulled this index from service; record it
            # rather than re-deriving issues from a known-bad structure.
            report.issues.append(IntegrityIssue(
                "index-quarantined", name,
                "index is quarantined pending rebuild",
            ))
            continue
        expected = verified_pairs(db, info.table, info.column, verified)
        check_index(info, expected, report)
    return report


def sweep_rows(
    db: Database, report: IntegrityReport
) -> tuple[VerifiedRows, dict[tuple[str, int], str]]:
    """Decode every row's sensitive cells, each once, in column order.

    A row ends at its first failing cell: a :class:`CryptoError` is a
    ``cell`` issue, any other exception a ``record-structural`` one.
    Returns the verified rows and, keyed ``(table, row id)``, the issue
    kind that ended each other row.
    """
    verified: VerifiedRows = {}
    failed: dict[tuple[str, int], str] = {}
    for table_name in db.table_names:
        table = db.table(table_name)
        verified[table_name] = {}
        for row_id, cells in table.scan():
            plain: list[bytes] = []
            for position, stored in enumerate(cells):
                if not table.schema.columns[position].sensitive:
                    plain.append(stored)
                    continue
                report.cells_checked += 1
                address = table.address(row_id, position)
                try:
                    plain.append(db.cell_codec.decode_cell(stored, address))
                except Exception as exc:
                    issue = _failure(
                        "cell", "record-structural",
                        f"{table_name}(r={row_id}, c={position})", exc,
                    )
                    report.issues.append(issue)
                    failed[table_name, row_id] = issue.kind
                    break
            else:
                verified[table_name][row_id] = plain
    return verified, failed


def verified_pairs(
    db: Database, table_name: str, column_name: str, verified: VerifiedRows
) -> list[tuple[bytes, int]]:
    """The (key, row id) pairs an index over the column must hold: one
    per verified row.  Raises :class:`EngineError` for an unknown table
    or column."""
    position = db.table(table_name).schema.column_index(column_name)
    return [
        (cells[position], row_id)
        for row_id, cells in verified[table_name].items()
    ]


def check_index(
    info: IndexInfo, expected: list[tuple[bytes, int]], report: IntegrityReport
) -> bool:
    """Check one index against the pairs its verified rows imply.

    Every entry must decode, the leaf chain must be key-ordered (a
    payload swap keeps the pair multiset but breaks this — footnote 1's
    failure mode) and the pairs must equal ``expected``.  Each problem
    found becomes an issue; returns True when there is none.
    """
    # Crypto and structural failures (dangling or cyclic references,
    # mis-framed payloads) are distinct issue kinds, so the fault
    # campaign's detection matrix can credit the right mechanism.
    name = info.name
    try:
        info.structure.verify_all()
    except Exception as exc:
        report.issues.append(
            _failure("index-entry", "index-structural", name, exc)
        )
        return False
    try:
        pairs = info.structure.items()
    except Exception as exc:
        report.issues.append(_failure(
            "index-entry", "index-structural", name, exc, "enumeration failed: "
        ))
        return False
    report.index_entries_checked += len(pairs)
    sound = True
    keys = [key for key, _ in pairs]
    if keys != sorted(keys):
        report.issues.append(IntegrityIssue(
            "index-order", name, "leaf chain is not key-ordered"
        ))
        sound = False
    if sorted(pairs) != sorted(expected):
        missing = set(expected) - set(pairs)
        extra = set(pairs) - set(expected)
        report.issues.append(IntegrityIssue(
            "index-mismatch", name,
            f"{len(missing)} missing, {len(extra)} unexpected entries",
        ))
        sound = False
    return sound


def _failure(
    crypto_kind: str, other_kind: str, location: str, exc: Exception,
    prefix: str = "",
) -> IntegrityIssue:
    """The issue one failed decode raised: ``crypto_kind`` for a
    :class:`CryptoError`, ``other_kind`` for anything else."""
    if isinstance(exc, CryptoError):
        return IntegrityIssue(crypto_kind, location, f"{prefix}{exc}")
    if isinstance(exc, EngineError):
        return IntegrityIssue(other_kind, location, f"{prefix}{exc}")
    return IntegrityIssue(
        other_kind, location, f"{prefix}{type(exc).__name__}: {exc}"
    )
