"""One-call leakage profile of an encryption configuration.

Ties every adversarial probe in :mod:`repro.attacks` into a single
matrix: *which generic leaks does this configuration exhibit?*  This is
the summary a practitioner actually wants before choosing a
configuration, and the closing table of the benchmark harness.

Probes (all keyless, all through the storage view):

* ``equality``        — equal plaintexts produce matching ciphertext prefixes
* ``prefix``          — shared plaintext prefixes are visible
* ``frequency``       — value histogram recoverable (rank matching)
* ``index_linkage``   — index entries correlate to table cells
* ``cell_forgery``    — blind modification accepted as valid
* ``access_pattern``  — repeated queries linkable from I/O traces
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.access_pattern import evaluate_access_pattern_linking
from repro.attacks.forgery import evaluate_append_forgery
from repro.attacks.frequency import evaluate_frequency_attack
from repro.attacks.index_linkage import evaluate_index_linkage, true_index_links
from repro.attacks.pattern_matching import evaluate_pattern_matching
from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.primitives.rng import DeterministicRandom
from repro.workloads.generators import shared_prefix_strings

PROBES = (
    "equality",
    "prefix",
    "frequency",
    "index_linkage",
    "cell_forgery",
    "access_pattern",
)

_SCHEMA = TableSchema("profile", [Column("v", ColumnType.TEXT)])


@dataclass
class LeakageProfile:
    """Probe → leaked? for one configuration."""

    config_label: str
    results: dict[str, bool] = field(default_factory=dict)

    @property
    def leak_count(self) -> int:
        return sum(self.results.values())

    def leaks(self, probe: str) -> bool:
        return self.results[probe]

    def row(self) -> list:
        """Table row for the report: label + yes/no per probe."""
        return [self.config_label] + [self.results[p] for p in PROBES]


def profile_configuration(
    config: EncryptionConfig,
    label: str | None = None,
    rows: int = 24,
    seed: str = "leakage-profile",
) -> LeakageProfile:
    """Run every probe against a fresh database under ``config``."""
    rng = DeterministicRandom(seed)
    master = rng.bytes(32)
    groups = 6

    db = EncryptedDatabase(master, config, rng=rng.fork("db"))
    db.create_table(_SCHEMA)
    values = shared_prefix_strings(
        rng.fork("values"), rows, prefix_blocks=2, total_blocks=4, groups=groups
    )
    # Exact duplicates for the equality probe.
    values = values + [values[0], values[1], values[0]]
    truth_cells = {}
    for value in values:
        truth_cells[db.insert("profile", [value])] = value.encode()
    db.create_index("profile_v", "profile", "v", kind="table")
    storage = db.storage_view()

    profile = LeakageProfile(label or f"{config.cell_scheme}+{config.index_scheme}")

    # equality / prefix: same probe, ground truth at different granularity
    # computed straight from the value list.
    total = len(values)
    prefix_pairs = {
        (i, j) for i in range(total) for j in range(i + 1, total)
        if values[i][:32] == values[j][:32]
    }
    pattern = evaluate_pattern_matching(
        storage, "profile", 0, prefix_pairs, profile.config_label
    )
    profile.results["prefix"] = pattern.succeeded
    equality_pairs = {
        (i, j) for i in range(total) for j in range(i + 1, total)
        if values[i] == values[j]
    }
    equality = evaluate_pattern_matching(
        storage, "profile", 0, equality_pairs, profile.config_label,
        min_blocks=4,
    )
    profile.results["equality"] = equality.succeeded

    # Frequency needs a small, skewed alphabet: probe a dedicated table.
    freq_schema = TableSchema("freq", [Column("d", ColumnType.TEXT)])
    db.create_table(freq_schema)
    freq_truth = {}
    for value, count in (
        ("hypertension....", 8), ("diabetes-type-2.", 4), ("asthma..........", 2)
    ):
        for _ in range(count):
            freq_truth[db.insert("freq", [value])] = value.encode()
    frequency = evaluate_frequency_attack(
        storage, "freq", 0, freq_truth, profile.config_label, value_blocks=1
    )
    profile.results["frequency"] = frequency.succeeded

    linkage = evaluate_index_linkage(
        storage, "profile_v", "profile", 0,
        true_index_links(db.index("profile_v").structure), profile.config_label,
    )
    profile.results["index_linkage"] = linkage.succeeded

    forgery = evaluate_append_forgery(
        db, storage, "profile", 0, "v", 64, profile.config_label
    )
    profile.results["cell_forgery"] = forgery.succeeded

    repeated_value = values[0]
    stream = [repeated_value, values[1], repeated_value, values[2], repeated_value]
    access = evaluate_access_pattern_linking(
        db, "profile_v", "profile", "v", stream, profile.config_label
    )
    profile.results["access_pattern"] = access.succeeded

    # Plaintext storage leaks by inspection — reading beats inferring, so
    # the privacy probes are trivially true there whatever the generic
    # procedures above happened to score.
    if config.cell_scheme == "plain":
        profile.results["equality"] = True
        profile.results["prefix"] = True
        profile.results["frequency"] = True
    if config.index_scheme == "plain":
        profile.results["index_linkage"] = True

    return profile


def profile_matrix(
    configs: list[tuple[str, EncryptionConfig]],
    rows: int = 24,
) -> list[LeakageProfile]:
    """Profile several configurations under identical workloads."""
    return [
        profile_configuration(config, label, rows=rows)
        for label, config in configs
    ]
