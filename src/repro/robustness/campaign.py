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
*never* raise; any exception it leaks is recorded as a resilient
failure and fails the campaign.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.engine.database import Database
from repro.engine.integrity import verify_database
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.storage import dump_database, load_database
from repro.errors import CryptoError, ReproError, StorageFormatError
from repro.observability.flightrecorder import RECORDER
from repro.observability.timeseries import HUB
from repro.robustness.faults import FaultSpec, map_image, plan_fault
from repro.robustness.recovery import load_database_resilient
from repro.robustness.reporting import format_detection_matrix

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


def default_campaign_configs() -> list[tuple[str, EncryptionConfig]]:
    """Every scheme family the paper analyses, broken and fixed."""
    return [
        ("plaintext baseline", EncryptionConfig(
            cell_scheme="plain", index_scheme="plain")),
        ("[3] XOR-Scheme", EncryptionConfig(
            cell_scheme="xor", index_scheme="sdm2004", iv_policy="zero")),
        ("[3] Append-Scheme", EncryptionConfig(
            cell_scheme="append", index_scheme="sdm2004", iv_policy="zero")),
        ("[12] index (+append cells)", EncryptionConfig(
            cell_scheme="append", index_scheme="dbsec2005", iv_policy="zero")),
        ("fixed AEAD (EAX)", EncryptionConfig.paper_fixed("eax")),
        ("fixed AEAD (OCB)", EncryptionConfig.paper_fixed("ocb")),
    ]


@dataclass
class FaultRecord:
    """One (configuration, fault) trial."""

    config: str
    fault: FaultSpec
    outcome: str
    resilient_ok: bool
    resilient_error: str = ""
    rows_recovered: int = 0
    rows_quarantined: int = 0


@dataclass
class CampaignResult:
    """The full detection matrix plus the per-trial log."""

    seeds: int
    rows: int
    outcomes: dict[str, Counter] = field(default_factory=dict)
    records: list[FaultRecord] = field(default_factory=list)

    @property
    def resilient_failures(self) -> list[FaultRecord]:
        return [r for r in self.records if not r.resilient_ok]

    def counts(self, config: str) -> Counter:
        return self.outcomes.get(config, Counter())

    def format_matrix(self) -> str:
        return format_detection_matrix(
            CAMPAIGN_OUTCOMES,
            [
                (config, [counter.get(outcome, 0) for outcome in CAMPAIGN_OUTCOMES])
                for config, counter in self.outcomes.items()
            ],
            caption=(
                f"fault-injection detection matrix "
                f"({self.seeds} seeded faults per configuration, "
                f"{self.rows}-row database)"
            ),
        )

    def check_paper_expectations(self) -> list[str]:
        """The §3.1/§4 claims, as checkable assertions over the matrix.

        Returns human-readable violations (empty = matrix agrees with
        the paper): the broken Append-Scheme must exhibit silent
        corruption, no fixed AEAD configuration may, and nothing may
        ever crash a loader.
        """
        violations = []
        for config, counter in self.outcomes.items():
            if counter.get(LOADER_CRASH, 0):
                violations.append(
                    f"{config}: {counter[LOADER_CRASH]} loader crash(es)"
                )
            if "AEAD" in config and counter.get(SILENT_CORRUPTION, 0):
                violations.append(
                    f"{config}: {counter[SILENT_CORRUPTION]} silent "
                    f"corruption(s) under an authenticated scheme"
                )
            if "Append-Scheme" in config and not counter.get(SILENT_CORRUPTION, 0):
                violations.append(
                    f"{config}: expected at least one silent corruption "
                    f"(§3.1 forgery) but observed none"
                )
        if self.resilient_failures:
            for record in self.resilient_failures:
                violations.append(
                    f"{record.config}: resilient loader raised on "
                    f"{record.fault.name}: {record.resilient_error}"
                )
        return violations


def build_campaign_db(
    config: EncryptionConfig,
    rows: int,
    master_key: bytes = _CAMPAIGN_MASTER_KEY,
    batched: bool = False,
) -> EncryptedDatabase:
    """A small fully-sensitive database with both index structures.

    ``batched=True`` loads the rows through ``insert_many`` (the batched
    crypto hot path) instead of the per-row loop; both paths must
    produce byte-identical images — ``backendparity`` checks exactly
    that.
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
) -> CampaignResult:
    """Sweep ``seeds`` deterministic faults over every configuration.

    Fault *s* against a configuration is planned from seed *s* on that
    configuration's own image, so runs are exactly reproducible.
    """
    configs = configs if configs is not None else default_campaign_configs()
    result = CampaignResult(seeds=seeds, rows=rows)
    for label, config in configs:
        source_db = build_campaign_db(config, rows, master_key)
        image = dump_database(source_db)
        chart = map_image(image)
        catalog = _catalog(source_db)
        baseline = logical_state(source_db)
        counter: Counter = Counter()
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
            counter[outcome] += 1
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
            record = FaultRecord(
                config=label, fault=fault, outcome=outcome, resilient_ok=True
            )
            try:
                recovered = load_database_resilient(
                    faulted,
                    cell_codec=resilient_db.cell_codec,
                    index_codec_factory=resilient_db._build_index_codec,
                )
                record.rows_recovered = recovered.report.rows_recovered
                record.rows_quarantined = recovered.report.rows_quarantined
            except Exception as exc:
                record.resilient_ok = False
                record.resilient_error = f"{type(exc).__name__}: {exc}"
            result.records.append(record)
        result.outcomes[label] = counter
        if HUB.enabled:
            HUB.tick()
            labels = {"config": label}
            sweep = [r for r in result.records if r.config == label]
            HUB.record(
                "recovery.rows_quarantined",
                sum(r.rows_quarantined for r in sweep),
                labels=labels,
            )
            HUB.record(
                "recovery.rows_recovered",
                sum(r.rows_recovered for r in sweep),
                labels=labels,
            )
    return result
