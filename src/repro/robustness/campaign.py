"""The fault-injection campaign: a quantitative robustness scorecard.

Sect. 3 of the paper argues *qualitatively* that the [3]/[12] schemes
accept tampered storage while the AEAD fix rejects it.  The campaign
makes that claim measurable: sweep N seeded faults (the taxonomy of
:mod:`repro.robustness.faults`) over the storage image of every scheme
configuration and classify what each configuration's verifying loader
observes:

``detected-by-MAC``
    Cryptographic verification failed — eq. (22)'s ``invalid``, the
    paper's intended detection path.
``detected-structurally``
    The image or an index invariant broke before (or without) crypto
    ever objecting: mis-framing, truncation, duplicate records, cyclic
    or dangling structure, index/table disagreement.
``silent-corruption``
    The image loads, every check passes, and the database content
    *still differs* from the original — the failure mode §3.1 proves
    for the Append-Scheme and the fix is designed to exclude.
``no-effect``
    The fault landed somewhere the loaders canonicalise away (e.g. a
    tombstoned record); content is unchanged.
``loader-crash``
    The strict loader leaked a non-repro exception — always a bug, and
    what the hardened ``_Reader`` exists to prevent.

Independently, every faulted image is fed to
:func:`~repro.robustness.recovery.load_database_resilient`, which must
*never* raise; any exception it leaks is a violation on its
configuration's row, next to the §3.1/§4 expectations that row breaks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.engine.database import Database
from repro.engine.integrity import verify_database
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.storage import dump_database, load_database
from repro.errors import CryptoError, ReproError, StorageFormatError
from repro.observability.flightrecorder import RECORDER
from repro.robustness.faults import map_image, plan_fault
from repro.robustness.recovery import load_database_resilient
from repro.robustness.reporting import CampaignMatrix, ConfigOutcome

DETECTED_MAC = "detected-by-MAC"
DETECTED_STRUCTURAL = "detected-structurally"
SILENT_CORRUPTION = "silent-corruption"
NO_EFFECT = "no-effect"
LOADER_CRASH = "loader-crash"

CAMPAIGN_OUTCOMES = (
    DETECTED_MAC,
    DETECTED_STRUCTURAL,
    SILENT_CORRUPTION,
    NO_EFFECT,
    LOADER_CRASH,
)

#: Issue kinds attributable to cryptographic verification; everything
#: else an integrity sweep reports is structural.
_CRYPTO_ISSUE_KINDS = frozenset({"cell", "index-entry"})

_CAMPAIGN_MASTER_KEY = b"faultcampaign-master-key-0123456"

#: Long enough that the stored Append-Scheme cell spans several cipher
#: blocks: §3.1's forgery needs blocks *before* the address checksum.
_PAYLOAD_WIDTH = 48
#: Even longer, and deliberately *unindexed*: an index on the column
#: would let the integrity sweep catch a garbled value by cross-checking
#: it against the (separately encrypted) index entry — §3.1's victim is
#: the cell whose only protection is the scheme itself.
_NOTE_WIDTH = 64

_SCHEMA = TableSchema("records", [
    Column("id", ColumnType.INT),          # sensitive (default)
    Column("payload", ColumnType.TEXT),    # sensitive (default)
    Column("note", ColumnType.TEXT),       # sensitive (default), unindexed
])


#: Every scheme family the paper analyses, broken and fixed, by CLI
#: slug: ``slug -> (label, config)``.  ``EncryptionConfig`` is frozen,
#: so every campaign shares these instances.
CAMPAIGN_CONFIGS: dict[str, tuple[str, EncryptionConfig]] = {
    "plain": ("plaintext baseline", EncryptionConfig(
        cell_scheme="plain", index_scheme="plain")),
    "xor": ("[3] XOR-Scheme", EncryptionConfig(
        cell_scheme="xor", index_scheme="sdm2004", iv_policy="zero")),
    "append": ("[3] Append-Scheme", EncryptionConfig(
        cell_scheme="append", index_scheme="sdm2004", iv_policy="zero")),
    "dbsec2005": ("[12] index (+append cells)", EncryptionConfig(
        cell_scheme="append", index_scheme="dbsec2005", iv_policy="zero")),
    "aead-eax": ("fixed AEAD (EAX)", EncryptionConfig.paper_fixed("eax")),
    "aead-ocb": ("fixed AEAD (OCB)", EncryptionConfig.paper_fixed("ocb")),
}


def default_campaign_configs() -> list[tuple[str, EncryptionConfig]]:
    """Every scheme family the paper analyses, broken and fixed."""
    return list(CAMPAIGN_CONFIGS.values())


@dataclass
class FaultOutcome(ConfigOutcome):
    """The fault campaign's row for one configuration: how many faults
    ended in each outcome, and the rows the resilient loader recovered
    and quarantined over all the faulted images."""

    COLUMNS = (
        (DETECTED_MAC, "detected_by_mac"),
        (DETECTED_STRUCTURAL, "detected_structurally"),
        (SILENT_CORRUPTION, "silent_corruption"),
        (NO_EFFECT, "no_effect"),
        (LOADER_CRASH, "loader_crash"),
        ("recovered", "rows_recovered"),
        ("quarantined", "rows_quarantined"),
    )

    detected_by_mac: int = 0
    detected_structurally: int = 0
    silent_corruption: int = 0
    no_effect: int = 0
    loader_crash: int = 0
    rows_recovered: int = 0
    rows_quarantined: int = 0

    def count(self, outcome: str) -> None:
        """Count one fault that ended in ``outcome``."""
        name = dict(self.COLUMNS)[outcome]
        setattr(self, name, getattr(self, name) + 1)

    def check_paper_expectations(self) -> None:
        """Record the §3.1/§4 claims this row breaks as violations: the
        broken Append-Scheme must exhibit silent corruption, no fixed
        AEAD configuration may, and nothing may ever crash a loader."""
        if self.loader_crash:
            self.violations.append(
                f"{self.config}: {self.loader_crash} loader crash(es)"
            )
        if "AEAD" in self.config and self.silent_corruption:
            self.violations.append(
                f"{self.config}: {self.silent_corruption} silent "
                f"corruption(s) under an authenticated scheme"
            )
        if "Append-Scheme" in self.config and not self.silent_corruption:
            self.violations.append(
                f"{self.config}: expected at least one silent corruption "
                f"(§3.1 forgery) but observed none"
            )


def build_campaign_db(
    config: EncryptionConfig,
    rows: int,
    master_key: bytes = _CAMPAIGN_MASTER_KEY,
    batched: bool = False,
) -> EncryptedDatabase:
    """A small fully-sensitive database with both index structures.

    ``batched=True`` loads the rows through ``insert_many`` instead of
    the per-row loop; both must produce byte-identical images —
    ``backendparity`` checks exactly that.
    """
    db = EncryptedDatabase(master_key, config)
    db.create_table(_SCHEMA)
    values = []
    for i in range(rows):
        filler = "".join(chr(ord("a") + (i * 7 + j) % 26) for j in range(_PAYLOAD_WIDTH - 10))
        note = "".join(chr(ord("A") + (i * 11 + j) % 26) for j in range(_NOTE_WIDTH))
        values.append([i, f"rec-{i:03d}-{filler}", note])
    if batched:
        db.insert_many("records", values)
    else:
        for row in values:
            db.insert("records", row)
    db.create_index("records_by_payload", "records", "payload", kind="table")
    db.create_index("records_by_id", "records", "id", kind="btree")
    return db


def _catalog(db: Database) -> dict:
    """The schema-level identity of a database: table layouts and index
    definitions.  The paper's client holds the keys *and* knows its own
    schema, so any catalog drift (a renamed table, a re-typed column, a
    vanished index) is detected on first contact — structurally, with no
    cryptography involved."""
    return {
        "tables": {
            name: tuple(
                (c.name, c.type.value, c.sensitive)
                for c in db.table(name).schema.columns
            )
            for name in db.table_names
        },
        "indexes": {
            name: (db.index(name).table, db.index(name).column)
            for name in db.index_names
        },
    }


def logical_state(db: Database, include_indexes: bool = True) -> dict:
    """The verified observable content of a database: decoded cells per
    row plus, with ``include_indexes``, every index's sorted (key, row)
    pairs."""
    tables = {}
    for name in db.table_names:
        table = db.table(name)
        tables[name] = {
            row_id: tuple(
                db._plain_cell(table, row_id, position)
                for position in range(len(table.schema.columns))
            )
            for row_id in table.row_ids
        }
    state = {"tables": tables}
    if include_indexes:
        state["indexes"] = {
            name: tuple(sorted(db.index(name).structure.items()))
            for name in db.index_names
        }
    return state


def _classify(
    faulted: bytes,
    config_db: EncryptedDatabase,
    catalog: dict,
    baseline: dict,
) -> str:
    """Run the strict, verifying restore path and classify the outcome."""
    try:
        db = load_database(
            faulted,
            cell_codec=config_db.cell_codec,
            index_codec_factory=config_db._build_index_codec,
        )
    except StorageFormatError:
        return DETECTED_STRUCTURAL
    except CryptoError:
        return DETECTED_MAC
    except ReproError:
        return DETECTED_STRUCTURAL
    except Exception:
        return LOADER_CRASH

    if _catalog(db) != catalog:
        return DETECTED_STRUCTURAL

    try:
        report = verify_database(db)
    except Exception:
        # The eager audit promises never to raise; if it does, the
        # loader stack has a bug worth surfacing loudly.
        return LOADER_CRASH
    if report.issues:
        if any(issue.kind in _CRYPTO_ISSUE_KINDS for issue in report.issues):
            return DETECTED_MAC
        return DETECTED_STRUCTURAL

    try:
        snapshot = logical_state(db)
    except CryptoError:
        return DETECTED_MAC
    except ReproError:
        return DETECTED_STRUCTURAL
    except Exception:
        return LOADER_CRASH
    return SILENT_CORRUPTION if snapshot != baseline else NO_EFFECT


def run_campaign(
    seeds: int = 25,
    rows: int = 8,
    configs: list[tuple[str, EncryptionConfig]] | None = None,
    master_key: bytes = _CAMPAIGN_MASTER_KEY,
) -> CampaignMatrix:
    """Sweep ``seeds`` deterministic faults over every configuration.

    Fault *s* against a configuration is planned from seed *s* on that
    configuration's own image, so runs are exactly reproducible.
    """
    if seeds < 1:
        raise ValueError("seeds must be positive")
    configs = configs if configs is not None else default_campaign_configs()
    campaign = CampaignMatrix(
        FaultOutcome,
        f"fault-injection detection matrix ({seeds} seeded faults per "
        f"configuration, {rows}-row database)",
    )
    for label, config in configs:
        result = campaign.add(label)
        source_db = build_campaign_db(config, rows, master_key)
        image = dump_database(source_db)
        chart = map_image(image)
        catalog = _catalog(source_db)
        baseline = logical_state(source_db)
        for seed in range(seeds):
            fault = plan_fault(chart, seed)
            faulted = fault.apply(image)
            RECORDER.tick()
            injection = RECORDER.record_injection(
                "storage-fault", config=label, seed=seed
            )
            # Fresh codec plumbing per trial: decoding is stateless, but
            # sharing one EncryptedDatabase across trials would be a
            # fixture smell, not a restore.
            trial_db = EncryptedDatabase(master_key, config)
            outcome = _classify(faulted, trial_db, catalog, baseline)
            result.count(outcome)
            if outcome in (DETECTED_STRUCTURAL, DETECTED_MAC):
                RECORDER.record_detection(
                    "storage-fault", config=label, seed=seed, outcome=outcome
                )
            elif outcome == NO_EFFECT:
                RECORDER.resolve_injection(
                    injection, "no-effect", config=label, seed=seed
                )
            # SILENT_CORRUPTION / LOADER_CRASH stay open on purpose:
            # the broken schemes miss them, which is the paper's point —
            # the class is reported but not gated.

            resilient_db = EncryptedDatabase(master_key, config)
            try:
                recovered = load_database_resilient(
                    faulted,
                    cell_codec=resilient_db.cell_codec,
                    index_codec_factory=resilient_db._build_index_codec,
                )
            except Exception as exc:
                result.violations.append(
                    f"{label}: resilient loader raised on {fault.name}: "
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            result.rows_recovered += recovered.report.rows_recovered
            result.rows_quarantined += recovered.report.rows_quarantined
        result.check_paper_expectations()
    return campaign
