"""The write-boundary crash sweep, and the journaled mutation workload.

Two durability promises are checked the same way.  The journal protocol
of :mod:`repro.durability.manager` promises **atomic logical
mutations**: however the power dies, a remount recovers the database to
exactly the state before or after some logical operation, never a
hybrid.  The rotation protocol promises **epoch atomicity** (its
workload lives in :mod:`repro.sharding.campaign`).  :func:`sweep`
checks either promise for a :class:`SweepWorkload`:

1. a reference pass runs the workload once on a pass-through
   :class:`~repro.durability.vdisk.CrashDisk` to learn every write
   boundary, recording at each logical step the workload marks the
   state a remount of the surviving bytes reduces to;
2. one trial per (boundary, crash mode) pair — clean cut, torn write,
   dropped write-cache — re-runs the workload with a power cut planned
   at that boundary, remounts the survivor, and requires the reduced
   state to equal the mark just before or just after the cut; each
   trial records a ``crash`` injection in the flight recorder, and a
   recovery to either side records its detection;
3. the workload runs crash-free with ``AUDIT`` disabled and enabled,
   and both runs must leave byte-identical disks (audit events are pure
   observation).

Both sides of each comparison go through the same remount, so the
oracle is exact even for randomized codecs: recovery replays *stored*
cell bytes physically and rebuilds indexes with freshly constructed
(deterministically seeded) codecs.

The mutation workload adds a **flaky-backend equivalence** check: run
through a :class:`~repro.durability.vdisk.FlakyDisk` under a
:class:`~repro.durability.retry.RetryingDisk`, it lands on the same
final bytes as the fault-free run (transient failures are invisible).
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.storage import dump_database
from repro.errors import PowerCutError, ReproError
from repro.observability.audit import AUDIT
from repro.observability.flightrecorder import RECORDER
from repro.primitives.rng import DeterministicRandom
from repro.robustness.campaign import default_campaign_configs, logical_state
from repro.robustness.reporting import (
    CampaignMatrix,
    ConfigOutcome,
    sweep_caption,
)

from repro.durability.manager import DurableDatabase
from repro.durability.retry import RetryingDisk, RetryPolicy
from repro.durability.vdisk import (
    BYTE_OPS,
    CrashDisk,
    CrashPlan,
    FlakyDisk,
    MemoryDisk,
    VirtualDisk,
)
from repro.durability.wal import journal_mac

CRASH_MODES = ("cut", "torn", "drop")

_CRASH_MASTER_KEY = b"crashcampaign-master-key-0123456"

_SCHEMA = TableSchema("people", [
    Column("id", ColumnType.INT),          # sensitive (default)
    Column("name", ColumnType.TEXT),       # sensitive (default)
    Column("city", ColumnType.TEXT, sensitive=False),
])


def _row_values(i: int) -> list:
    return [i, f"name-{i:03d}-{'x' * (8 + i % 5)}", f"city-{i % 3}"]


def _check_modes(modes: tuple[str, ...]) -> None:
    for mode in modes:
        if mode not in CRASH_MODES:
            raise ValueError(f"unknown crash mode {mode!r}")


def _round_trips(config: EncryptionConfig, master_key: bytes) -> bool:
    """True when typed reads round-trip (everything but the XOR-Scheme,
    whose paper-faithful decode returns the still-padded block)."""
    db = EncryptedDatabase(master_key, config)
    db.create_table(_SCHEMA)
    row_id = db.insert("people", _row_values(0))
    try:
        return db.get_row("people", row_id) == _row_values(0)
    except ReproError:
        return False


def _crash_points(total: int, limit: int | None) -> list[int]:
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    if limit is None or total <= limit:
        return list(range(total))
    if limit == 1:
        return [0]
    return sorted({round(i * (total - 1) / (limit - 1)) for i in range(limit)})


@dataclass
class SweepOutcome(ConfigOutcome):
    """What :func:`sweep` counts for one configuration: the boundaries
    it swept, the trials it ran, and the recoveries to either side."""

    COLUMNS = (
        ("boundaries", "boundaries"),
        ("trials", "trials"),
        ("pre", "recovered_pre"),
        ("post", "recovered_post"),
    )

    boundaries: int = 0
    trials: int = 0
    recovered_pre: int = 0
    recovered_post: int = 0


class SweepWorkload:
    """What :func:`sweep` power-cuts, for one configuration.

    ``run(disk, mark)`` drives the workload on ``disk``.  On the
    reference pass ``mark(label)`` must be called after each logical
    step; it returns the remounted survivor, and the sweep covers the
    write boundaries from the first mark on.  Other passes get
    ``mark=None``.  ``recover(survivor)`` remounts surviving bytes and
    returns ``(comparable state, remounted object)``; ``tally`` counts
    one trial's remounted object into ``outcome``.
    """

    #: The ``via`` field of the sweep's crash detection records.
    via = "recovery"

    def __init__(self, outcome: SweepOutcome) -> None:
        self.outcome = outcome

    def run(
        self, disk: VirtualDisk, mark: Callable[[str], Any] | None = None
    ) -> None:
        raise NotImplementedError

    def recover(self, survivor: MemoryDisk) -> tuple[Any, Any]:
        raise NotImplementedError

    def tally(self, recovered: Any) -> None:
        """Count one trial's remount (nothing by default)."""

    def violation(self, message: str) -> None:
        self.outcome.violations.append(f"{self.outcome.config}: {message}")


def crash_free_bytes(workload: SweepWorkload) -> dict[str, bytes]:
    """The durable bytes ``workload`` leaves when nothing fails."""
    disk = MemoryDisk()
    workload.run(disk)
    return disk.durable_state()


def sweep(
    workload: SweepWorkload, limit: int | None, modes: tuple[str, ...]
) -> SweepOutcome:
    """Power-cut ``workload`` at every (or ``limit`` evenly spaced)
    write boundary from its first mark on, under every crash mode, then
    check that audit hooks leave its bytes alone."""
    outcome = workload.outcome
    reference = CrashDisk(MemoryDisk())
    marks: list[tuple[str, int, Any]] = []  # (label, boundaries run, state)

    def mark(label: str) -> Any:
        state, recovered = workload.recover(reference.survivor())
        marks.append((label, reference.op_count, state))
        return recovered

    workload.run(reference, mark)
    op_log = reference.op_log
    start = marks[0][1]
    cutoffs = [ops for _, ops, _ in marks]
    outcome.boundaries = len(op_log) - start

    for offset in _crash_points(outcome.boundaries, limit):
        op_index = start + offset
        for mode in modes:
            if mode == "torn" and op_log[op_index] not in BYTE_OPS:
                continue  # tears identically to "cut" on payload-free ops
            where = f"boundary {op_index} ({mode}, {op_log[op_index]})"
            disk = CrashDisk(MemoryDisk(), CrashPlan(op_index, mode))
            with suppress(PowerCutError):
                workload.run(disk)
            if not disk.crashed:
                workload.violation(f"planned crash at {where} never fired")
                continue
            outcome.trials += 1
            RECORDER.tick()
            context = {"config": outcome.config, "mode": mode, "op_index": op_index}
            RECORDER.record_injection("crash", **context)
            try:
                state, recovered = workload.recover(disk.survivor())
            except Exception as exc:
                workload.violation(
                    f"recovery raised after crash at {where}: "
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            workload.tally(recovered)
            # Boundary op_index interrupts the step *after* the last
            # mark whose boundary count is <= op_index.
            pre_index = bisect_right(cutoffs, op_index) - 1
            label, _, pre = marks[pre_index]
            post = marks[pre_index + 1][2] if pre_index + 1 < len(marks) else pre
            if state == post:
                outcome.recovered_post += 1
            elif state == pre:
                outcome.recovered_pre += 1
            else:
                workload.violation(
                    f"crash at {where} recovered to a hybrid state — "
                    f"neither pre nor post step {label!r}"
                )
                continue
            RECORDER.record_detection("crash", **context, via=workload.via)

    was_enabled = AUDIT.enabled
    try:
        AUDIT.disable()
        quiet = crash_free_bytes(workload)
        AUDIT.enable()
        audited = crash_free_bytes(workload)
    finally:
        AUDIT.enabled = was_enabled
    if quiet != audited:
        workload.violation("enabling audit hooks changed the stored bytes")
    return outcome


def _mount(
    disk: VirtualDisk, config: EncryptionConfig, master_key: bytes
) -> DurableDatabase:
    """Open a durable database with fresh codec plumbing for ``config``.

    A fresh :class:`EncryptedDatabase` per mount is what a real restart
    does — and what makes recovery deterministic: every codec starts
    from its seeded initial state."""
    enc = EncryptedDatabase(master_key, config)
    return DurableDatabase.open(
        disk,
        journal_mac(enc.keys),
        cell_codec=enc.cell_codec,
        index_codec_factory=enc._build_index_codec,
    )


@dataclass
class ConfigCrashResult(SweepOutcome):
    """Mutation sweep outcome for one scheme configuration."""

    COLUMNS = SweepOutcome.COLUMNS + (
        ("fallbacks", "resilient_fallbacks"),
        ("truncations", "wal_truncations"),
        ("retried", "flaky_failures_retried"),
    )

    resilient_fallbacks: int = 0
    wal_truncations: int = 0
    flaky_failures_retried: int = 0


class _MutationWorkload(SweepWorkload):
    """The seeded journaled workload under one configuration."""

    def __init__(
        self,
        outcome: ConfigCrashResult,
        config: EncryptionConfig,
        master_key: bytes,
        rows: int,
    ) -> None:
        super().__init__(outcome)
        self.config = config
        self.master_key = master_key
        self.rows = rows
        self.include_indexes = _round_trips(config, master_key)

    def run(self, disk, mark=None) -> None:
        """DDL, inserts, two indexes, checkpoints, updates, deletes, and
        post-checkpoint tail inserts — every journal op kind, on both
        sides of a checkpoint."""
        if mark is not None:
            mark("empty")  # before the mount, so its boundaries are swept
        manager = _mount(disk, self.config, self.master_key)

        def step(label: str) -> None:
            if mark is None:
                return
            recovered = mark(label)
            live = logical_state(manager.database, self.include_indexes)
            if live != logical_state(recovered.database, self.include_indexes):
                self.violation(
                    f"recovery after step {label!r} lost or changed "
                    f"committed content"
                )

        step("mounted")
        manager.create_table(_SCHEMA)
        step("create_table")
        row_ids = []
        for i in range(self.rows):
            row_ids.append(manager.insert("people", _row_values(i)))
            step(f"insert {i}")
        manager.create_index("people_by_name", "people", "name", kind="table")
        step("create_index table")
        manager.create_index("people_by_id", "people", "id", kind="btree")
        step("create_index btree")
        manager.checkpoint()
        step("checkpoint 1")
        for i in range(0, self.rows, 2):
            manager.update_value("people", row_ids[i], "name", f"renamed-{i:03d}")
            step(f"update {i}")
        if self.rows >= 2:
            manager.delete_row("people", row_ids[1])
            step("delete")
        manager.checkpoint()
        step("checkpoint 2")
        for i in range(self.rows, self.rows + 2):
            manager.insert("people", _row_values(i))
            step(f"tail insert {i}")

    def recover(self, survivor: MemoryDisk) -> tuple[bytes, DurableDatabase]:
        recovered = _mount(survivor, self.config, self.master_key)
        return dump_database(recovered.database), recovered

    def tally(self, recovered: DurableDatabase) -> None:
        if recovered.recovery.resilient is not None:
            self.outcome.resilient_fallbacks += 1
        if recovered.recovery.truncated_reason is not None:
            self.outcome.wal_truncations += 1

    def flaky_retry_check(self) -> None:
        reference = crash_free_bytes(self)
        inner = MemoryDisk()
        flaky = FlakyDisk(
            inner,
            DeterministicRandom(b"crash-flaky-disk").fork(self.outcome.config),
            fail_rate=0.25,
        )
        policy = RetryPolicy(
            deadline=60.0, rng=DeterministicRandom(b"crash-retry-policy")
        )
        self.run(RetryingDisk(flaky, policy))
        self.outcome.flaky_failures_retried = flaky.failures_injected
        if flaky.failures_injected == 0:
            self.violation("flaky backend injected no failures — check is vacuous")
        if inner.durable_state() != reference:
            self.violation("retried transient failures changed the final bytes")


def run_crash_campaign(
    rows: int = 5,
    limit: int | None = None,
    configs: list[tuple[str, EncryptionConfig]] | None = None,
    master_key: bytes = _CRASH_MASTER_KEY,
    modes: tuple[str, ...] = CRASH_MODES,
) -> CampaignMatrix:
    """Sweep every (or ``limit`` evenly-spaced) write boundaries of the
    journaled mutation workload under every crash mode, for every
    configuration.  :func:`repro.sharding.campaign.run_rotation_campaign`
    sweeps the key-rotation workload the same way."""
    _check_modes(modes)
    configs = configs if configs is not None else default_campaign_configs()
    campaign = CampaignMatrix(
        ConfigCrashResult,
        sweep_caption(
            "crash-recovery campaign",
            f"{rows}-row workload, modes {'/'.join(modes)}",
            limit,
        ),
    )
    for label, config in configs:
        workload = _MutationWorkload(campaign.add(label), config, master_key, rows)
        sweep(workload, limit, tuple(modes))
        workload.flaky_retry_check()
    return campaign
