"""Benchmark scenarios: the workloads every perf PR is measured against.

Each scenario runs the same workload against every scheme configuration
the paper analyses (the six of
:func:`~repro.robustness.campaign.default_campaign_configs`), with
observability enabled, and reports wall time plus the metric snapshot —
most importantly the raw blockcipher-invocation counters, the unit the
paper's Sect. 4 cost model is stated in.

For the AEAD configurations the bulk-insert scenario additionally
computes the *predicted* invocation count from the paper's formulas
(``2n + m + 1`` for EAX, ``n + m + 5`` for OCB ⊕ PMAC, minus the
constant our implementation precomputes per key) and cross-checks it
against the measured counter: the cost model as an executable invariant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro import observability
from repro.analysis.overhead import (
    cached_precomputation_offset,
    paper_invocation_formula,
)
from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.engine.query import PointQuery, RangeQuery
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.storage import dump_database
from repro.primitives.util import blocks_needed
from repro.robustness.faults import map_image, plan_fault
from repro.robustness.recovery import load_database_resilient

_MASTER_KEY = b"bench-master-key-0123456789abcdef"

_SCHEMA = TableSchema(
    "records",
    [
        Column("id", ColumnType.INT),
        Column("payload", ColumnType.TEXT),
        Column("note", ColumnType.TEXT),
    ],
)

#: Octets of associated data per cell: CellAddress.encode() is t ∥ r ∥ c,
#: three 8-octet fields (see :class:`repro.engine.table.CellAddress`).
_CELL_AD_OCTETS = 24

#: AEAD block size all Sect. 4 formulas are stated over (AES).
_BLOCK = 16


@dataclass
class SizeProfile:
    """Workload sizes; ``--quick`` swaps in the small profile."""

    rows: int
    queries: int
    fault_seeds: int

    @classmethod
    def full(cls) -> "SizeProfile":
        return cls(rows=24, queries=24, fault_seeds=5)

    @classmethod
    def quick(cls) -> "SizeProfile":
        return cls(rows=6, queries=6, fault_seeds=2)


@dataclass
class ScenarioResult:
    """One (scenario, configuration) measurement.

    ``skipped`` carries the reason when a workload cannot run against a
    configuration at all (the [3] XOR-Scheme with the paper's
    no-validator decode cannot round-trip typed values, so typed query
    workloads are meaningless against it); a skipped result holds no
    measurements and never fails a paper check.
    """

    scenario: str
    config: str
    wall_seconds: float
    ops: int
    counters: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    storage_overhead_bytes: int | None = None
    paper_check: dict | None = None
    skipped: str | None = None

    @property
    def ok(self) -> bool:
        return self.paper_check is None or bool(self.paper_check.get("ok"))

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "config": self.config,
            "wall_seconds": self.wall_seconds,
            "ops": self.ops,
            "ops_per_second": (
                (self.ops / self.wall_seconds) if self.wall_seconds > 0 else None
            ),
            "counters": self.counters,
            "histograms": self.histograms,
            "storage_overhead_bytes": self.storage_overhead_bytes,
            "paper_check": self.paper_check,
            "skipped": self.skipped,
        }

    @classmethod
    def skip(cls, scenario: str, config: str, reason: str) -> "ScenarioResult":
        return cls(
            scenario=scenario, config=config, wall_seconds=0.0, ops=0, skipped=reason
        )


def _row_values(i: int) -> list:
    payload = "rec-%03d-" % i + "".join(
        chr(ord("a") + (i * 7 + j) % 26) for j in range(30)
    )
    note = "".join(chr(ord("A") + (i * 11 + j) % 26) for j in range(50))
    return [i, payload, note]


def _fresh_db(config: EncryptionConfig) -> EncryptedDatabase:
    return EncryptedDatabase(_MASTER_KEY, config)


def _populated_db(
    config: EncryptionConfig, rows: int, with_indexes: bool
) -> EncryptedDatabase:
    db = _fresh_db(config)
    db.create_table(_SCHEMA)
    for i in range(rows):
        db.insert("records", _row_values(i))
    if with_indexes:
        db.create_index("records_by_payload", "records", "payload", kind="table")
        db.create_index("records_by_id", "records", "id", kind="btree")
    return db


def supports_typed_reads(config: EncryptionConfig) -> bool:
    """True when the cell codec round-trips typed values.

    The [3] XOR-Scheme under the paper's no-validator decode returns the
    still-padded block, so typed reads (and therefore typed query
    workloads) are lossy by design; everything else round-trips.
    """
    db = _fresh_db(config)
    db.create_table(_SCHEMA)
    values = _row_values(0)
    row_id = db.insert("records", values)
    try:
        return db.get_row("records", row_id) == values
    except Exception:
        return False


def _measured_cipher_calls() -> int:
    """Total raw blockcipher invocations recorded since the last reset."""
    counters = observability.REGISTRY.counters()
    return sum(
        value
        for name, value in counters.items()
        if name.startswith("cipher.") and name.endswith("_blocks")
    )


def _predicted_cell_calls(
    config: EncryptionConfig, plaintexts: list[bytes]
) -> int | None:
    """Paper-formula prediction of cipher calls to encrypt these cells.

    Only the AEAD configurations with a Sect. 4 formula (EAX, OCB) are
    predictable; returns None otherwise.
    """
    if config.cell_scheme != "aead":
        return None
    formula_offset = cached_precomputation_offset(config.aead)
    if formula_offset is None:
        return None
    m = blocks_needed(_CELL_AD_OCTETS, _BLOCK)
    total = 0
    for plain in plaintexts:
        n = blocks_needed(len(plain), _BLOCK)
        predicted = paper_invocation_formula(config.aead, n, m)
        if predicted is None:
            return None
        total += predicted + formula_offset
    return total


def _storage_overhead_bytes(db: EncryptedDatabase) -> int:
    """Σ over stored cells of (stored − plaintext) octets, the Sect. 4
    storage metric measured on the live database rather than a single
    synthetic entry."""
    total = 0
    for name in db.table_names:
        table = db.table(name)
        for row_id in table.row_ids:
            for position in range(len(table.schema.columns)):
                stored = table.get_cell(row_id, position)
                plain = db._plain_cell(table, row_id, position)
                total += len(stored) - len(plain)
    return total


def bench_bulk_insert(
    label: str, config: EncryptionConfig, sizes: SizeProfile
) -> ScenarioResult:
    """Insert R fully-sensitive rows into an unindexed table."""
    db = _fresh_db(config)
    db.create_table(_SCHEMA)
    rows = [_row_values(i) for i in range(sizes.rows)]
    schema = db.table("records").schema
    plaintexts = [plain for values in rows for plain in schema.encode_row(values)]
    observability.reset()  # excludes construction-time precomputation
    start = time.perf_counter()
    for values in rows:
        db.insert("records", values)
    wall = time.perf_counter() - start

    snapshot = observability.REGISTRY.snapshot()
    paper_check = None
    predicted = _predicted_cell_calls(config, plaintexts)
    if predicted is not None:
        measured = _measured_cipher_calls()
        paper_check = {
            "formula": f"sum over cells of {config.aead} Sect. 4 formula",
            "predicted_cipher_calls": predicted,
            "measured_cipher_calls": measured,
            "ok": predicted == measured,
        }
    return ScenarioResult(
        scenario="bulk_insert",
        config=label,
        wall_seconds=wall,
        ops=sizes.rows,
        counters=snapshot["counters"],
        histograms=snapshot["histograms"],
        storage_overhead_bytes=_storage_overhead_bytes(db),
        paper_check=paper_check,
    )


def bench_point_query(
    label: str, config: EncryptionConfig, sizes: SizeProfile
) -> ScenarioResult:
    """Index-backed equality lookups (B⁺-tree on INT, index table on TEXT)."""
    db = _populated_db(config, sizes.rows, with_indexes=True)
    observability.reset()
    start = time.perf_counter()
    hits = 0
    for i in range(sizes.queries):
        result = PointQuery("records", "id", i % sizes.rows).execute(db)
        hits += len(result)
    wall = time.perf_counter() - start
    if hits != sizes.queries:
        raise AssertionError(
            f"{label}: point queries returned {hits} rows, expected {sizes.queries}"
        )
    snapshot = observability.REGISTRY.snapshot()
    return ScenarioResult(
        scenario="point_query",
        config=label,
        wall_seconds=wall,
        ops=sizes.queries,
        counters=snapshot["counters"],
        histograms=snapshot["histograms"],
    )


def bench_range_query(
    label: str, config: EncryptionConfig, sizes: SizeProfile
) -> ScenarioResult:
    """Index-backed range scans covering half the table each."""
    db = _populated_db(config, sizes.rows, with_indexes=True)
    half = max(1, sizes.rows // 2)
    observability.reset()
    start = time.perf_counter()
    returned = 0
    for i in range(sizes.queries):
        low = i % half
        result = RangeQuery("records", "id", low, low + half - 1).execute(db)
        returned += len(result)
    wall = time.perf_counter() - start
    if returned == 0:
        raise AssertionError(f"{label}: range queries returned no rows")
    snapshot = observability.REGISTRY.snapshot()
    return ScenarioResult(
        scenario="range_query",
        config=label,
        wall_seconds=wall,
        ops=sizes.queries,
        counters=snapshot["counters"],
        histograms=snapshot["histograms"],
    )


def bench_index_build(
    label: str, config: EncryptionConfig, sizes: SizeProfile
) -> ScenarioResult:
    """Backfill both index structures over an existing table."""
    db = _populated_db(config, sizes.rows, with_indexes=False)
    observability.reset()
    start = time.perf_counter()
    db.create_index("records_by_payload", "records", "payload", kind="table")
    db.create_index("records_by_id", "records", "id", kind="btree")
    wall = time.perf_counter() - start
    snapshot = observability.REGISTRY.snapshot()
    return ScenarioResult(
        scenario="index_build",
        config=label,
        wall_seconds=wall,
        ops=2 * sizes.rows,
        counters=snapshot["counters"],
        histograms=snapshot["histograms"],
    )


def bench_fault_recovery(
    label: str, config: EncryptionConfig, sizes: SizeProfile
) -> ScenarioResult:
    """Resilient-loader recovery of seeded-fault storage images."""
    db = _populated_db(config, sizes.rows, with_indexes=True)
    image = dump_database(db)
    chart = map_image(image)
    faulted_images = [
        plan_fault(chart, seed).apply(image) for seed in range(sizes.fault_seeds)
    ]
    observability.reset()
    start = time.perf_counter()
    recovered_rows = 0
    for faulted in faulted_images:
        loader_db = _fresh_db(config)
        recovered = load_database_resilient(
            faulted,
            cell_codec=loader_db.cell_codec,
            index_codec_factory=loader_db._build_index_codec,
        )
        recovered_rows += recovered.report.rows_recovered
    wall = time.perf_counter() - start
    snapshot = observability.REGISTRY.snapshot()
    result = ScenarioResult(
        scenario="fault_recovery",
        config=label,
        wall_seconds=wall,
        ops=sizes.fault_seeds,
        counters=snapshot["counters"],
        histograms=snapshot["histograms"],
    )
    result.counters["recovery.rows_recovered"] = recovered_rows
    return result


def _durable_db(config: EncryptionConfig, disk) -> "DurableDatabase":
    from repro.core.keys import KeyRing
    from repro.durability.manager import DurableDatabase
    from repro.durability.wal import journal_mac

    db = _fresh_db(config)
    return DurableDatabase.open(
        disk,
        journal_mac(KeyRing(_MASTER_KEY)),
        cell_codec=db.cell_codec,
        index_codec_factory=db._build_index_codec,
    )


def bench_wal_commit(
    label: str, config: EncryptionConfig, sizes: SizeProfile
) -> ScenarioResult:
    """Journaled inserts (append + sync per row) plus a final checkpoint.

    The delta against ``bulk_insert`` is the write-ahead overhead the
    durability layer charges per mutation."""
    from repro.durability.vdisk import MemoryDisk

    manager = _durable_db(config, MemoryDisk())
    manager.create_table(_SCHEMA)
    rows = [_row_values(i) for i in range(sizes.rows)]
    observability.reset()
    start = time.perf_counter()
    for values in rows:
        manager.insert("records", values)
    manager.checkpoint()
    wall = time.perf_counter() - start
    snapshot = observability.REGISTRY.snapshot()
    return ScenarioResult(
        scenario="wal_commit",
        config=label,
        wall_seconds=wall,
        ops=sizes.rows,
        counters=snapshot["counters"],
        histograms=snapshot["histograms"],
    )


def bench_wal_replay(
    label: str, config: EncryptionConfig, sizes: SizeProfile
) -> ScenarioResult:
    """Crash-recovery mounts of a disk whose journal holds half the rows.

    Measures the replay path: checkpoint load, committed-suffix replay,
    and the end-of-replay index rebuild."""
    from repro.durability.vdisk import MemoryDisk

    disk = MemoryDisk()
    manager = _durable_db(config, disk)
    manager.create_table(_SCHEMA)
    half = max(1, sizes.rows // 2)
    for i in range(half):
        manager.insert("records", _row_values(i))
    manager.create_index("records_by_payload", "records", "payload", kind="table")
    manager.create_index("records_by_id", "records", "id", kind="btree")
    manager.checkpoint()
    for i in range(half, sizes.rows):
        manager.insert("records", _row_values(i))
    image = {name: disk.read(name) for name in disk.names()}

    mounts = max(1, sizes.fault_seeds)
    observability.reset()
    start = time.perf_counter()
    replayed = 0
    for _ in range(mounts):
        recovered = _durable_db(config, MemoryDisk(image))
        replayed += recovered.recovery.records_replayed
    wall = time.perf_counter() - start
    if replayed != mounts * (sizes.rows - half):
        raise AssertionError(
            f"{label}: replayed {replayed} records, "
            f"expected {mounts * (sizes.rows - half)}"
        )
    snapshot = observability.REGISTRY.snapshot()
    return ScenarioResult(
        scenario="wal_replay",
        config=label,
        wall_seconds=wall,
        ops=mounts,
        counters=snapshot["counters"],
        histograms=snapshot["histograms"],
    )


def bench_shard_rotation(
    label: str, config: EncryptionConfig, sizes: SizeProfile
) -> ScenarioResult:
    """Online key rotation of a sharded keyspace, under query load.

    Seeds a two-shard keyspace, then rotates it to a new master key
    while issuing an index-backed point query at every protocol write
    boundary (for configurations whose codecs round-trip typed reads —
    the [3] XOR-Scheme rotates unqueried).  Measures the full rotation:
    re-encryption of every cell and index entry, staged checkpoints,
    WAL resets, and manifest rewrites."""
    from repro.core.keys import KeyChain
    from repro.durability.vdisk import MemoryDisk
    from repro.sharding.keyspace import ShardedKeyspace

    keyspace = ShardedKeyspace.open(
        MemoryDisk(), KeyChain.single(_MASTER_KEY), config,
        shard_count=2, workers=1,
    )
    keyspace.create_table(_SCHEMA)
    for i in range(sizes.rows):
        keyspace.insert("records", _row_values(i))
    keyspace.create_index("records_by_payload", "records", "payload", kind="table")
    keyspace.create_index("records_by_id", "records", "id", kind="btree")
    keyspace.checkpoint()

    queried = sizes.rows > 0 and supports_typed_reads(config)
    mid_rotation_hits = 0

    def query_under_rotation(_shard_id: str, _phase: str) -> None:
        nonlocal mid_rotation_hits
        if queried:
            key = mid_rotation_hits % sizes.rows
            mid_rotation_hits += len(
                keyspace.select_equals("records", "id", key)
            )

    observability.reset()
    start = time.perf_counter()
    report = keyspace.rotate(
        b"bench-rotated-key-9876543210fedcba",
        on_phase=query_under_rotation,
    )
    wall = time.perf_counter() - start
    snapshot = observability.REGISTRY.snapshot()
    result = ScenarioResult(
        scenario="shard_rotation",
        config=label,
        wall_seconds=wall,
        ops=report.cells_reencrypted + report.index_entries_reencrypted,
        counters=snapshot["counters"],
        histograms=snapshot["histograms"],
    )
    result.counters["rotation.cells_reencrypted"] = report.cells_reencrypted
    result.counters["rotation.index_entries_reencrypted"] = (
        report.index_entries_reencrypted
    )
    result.counters["rotation.mid_rotation_query_hits"] = mid_rotation_hits
    if queried and mid_rotation_hits == 0:
        raise AssertionError(
            f"{label}: no query answered during rotation — the online "
            f"claim went unmeasured"
        )
    return result


def bench_scrub(
    label: str, config: EncryptionConfig, sizes: SizeProfile
) -> ScenarioResult:
    """Anti-entropy repair throughput over a mirrored sharded keyspace.

    Seeds a two-shard keyspace on a three-way mirror, then runs repeated
    scrub passes, corrupting one MAC'd blob on one replica before each;
    every pass must repair its corruption.  The paper check pins the
    Sect. 4 accounting: scrubbing is HMAC-only, so the blockcipher
    counters must stay at exactly **zero**, and the verifier
    applications must match the closed form (1 + 2·shards) · replicas
    per pass — one per blob per replica, nothing hidden."""
    from repro.core.keys import KeyChain
    from repro.durability.vdisk import MemoryDisk
    from repro.resilience.replica import MirroredDisk
    from repro.resilience.scrub import scrub_keyspace
    from repro.sharding.keyspace import ShardedKeyspace

    shards, replicas = 2, 3
    bases = [MemoryDisk() for _ in range(replicas)]
    mirror = MirroredDisk(bases)
    chain = KeyChain.single(_MASTER_KEY)
    keyspace = ShardedKeyspace.open(
        mirror, chain, config, shard_count=shards, workers=1
    )
    keyspace.create_table(_SCHEMA)
    for i in range(sizes.rows):
        keyspace.insert("records", _row_values(i))
    keyspace.checkpoint()

    targets = ["manifest"] + [
        f"s{k}.{blob}" for k in range(shards) for blob in ("wal", "checkpoint")
    ]
    passes = max(1, sizes.fault_seeds)
    observability.reset()
    wall = 0.0
    repairs = 0
    total_macs = 0
    for k in range(passes):
        name = targets[k % len(targets)]
        base = bases[k % replicas]
        blob = bytearray(base.read(name))
        blob[len(blob) // 2] ^= 0x01
        base.write(name, bytes(blob))
        base.sync(name)
        start = time.perf_counter()
        report = scrub_keyspace(mirror, chain)
        wall += time.perf_counter() - start
        if not report.ok:
            raise AssertionError(
                f"{label}: scrub pass {k} left unrepairable blob(s): "
                f"{', '.join(report.unrepaired)}"
            )
        if report.repairs < 1:
            raise AssertionError(
                f"{label}: scrub pass {k} repaired nothing — the "
                f"injected corruption went unhealed"
            )
        repairs += report.repairs
        total_macs += report.mac_verifications

    measured = _measured_cipher_calls()
    predicted_macs = passes * (1 + 2 * shards) * replicas
    paper_check = {
        "formula": (
            "scrub is MAC-only (Sect. 4: zero blockcipher calls); "
            "(1 + 2·shards)·replicas verifier applications per pass"
        ),
        "predicted_cipher_calls": 0,
        "measured_cipher_calls": measured,
        "predicted_mac_verifications": predicted_macs,
        "measured_mac_verifications": total_macs,
        "ok": measured == 0 and total_macs == predicted_macs,
    }
    snapshot = observability.REGISTRY.snapshot()
    result = ScenarioResult(
        scenario="scrub",
        config=label,
        wall_seconds=wall,
        ops=repairs,
        counters=snapshot["counters"],
        histograms=snapshot["histograms"],
        paper_check=paper_check,
    )
    result.counters["scrub.passes"] = passes
    result.counters["scrub.repairs"] = repairs
    result.counters["scrub.mac_verifications"] = total_macs
    return result


ScenarioRunner = Callable[[str, EncryptionConfig, SizeProfile], ScenarioResult]

#: Name → runner, in reporting order.
SCENARIOS: dict[str, ScenarioRunner] = {
    "bulk_insert": bench_bulk_insert,
    "point_query": bench_point_query,
    "range_query": bench_range_query,
    "index_build": bench_index_build,
    "fault_recovery": bench_fault_recovery,
    "wal_commit": bench_wal_commit,
    "wal_replay": bench_wal_replay,
    "shard_rotation": bench_shard_rotation,
    "scrub": bench_scrub,
}

#: Scenarios that read typed values back and so are skipped for
#: configurations where :func:`supports_typed_reads` is False.
REQUIRES_TYPED_READS = frozenset({"point_query", "range_query"})
