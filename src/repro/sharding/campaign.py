"""The key-rotation workload of the write-boundary crash sweep.

The rotation protocol of :mod:`repro.sharding.rotation` claims one
invariant — **epoch atomicity**: however the power dies mid-rotation, a
remount recovers every shard to exactly the old or the new key epoch,
never a mixture, with the cross-shard manifest verifying throughout.
:func:`run_rotation_campaign` checks it with the sweep of
:mod:`repro.durability.crashcampaign`.  The workload seeds a keyspace
(every shard's blobs and the manifest share one disk, so one op counter
sees every write boundary), marks, and rotates it, marking after every
protocol phase, so only the rotation's boundaries are swept.  A
survivor remounts through the parallel keyspace recovery and reduces
to its per-shard epoch and logical dump, manifest verdict, and (for
round-tripping schemes) point and range answers.  Re-encryption under
the new epoch is deterministic (seeded RNGs, counting nonces), so
matching states match byte for byte.

The reference pass also checks the **online** half of the claim: at
every rotation phase boundary the live keyspace must answer the seeded
point and range queries identically to the pre-rotation baseline —
shards not currently rotating never notice a sibling's rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.encrypted_db import EncryptionConfig
from repro.core.keys import KeyChain
from repro.engine.storage import dump_database
from repro.observability.timeseries import HUB
from repro.robustness.campaign import default_campaign_configs
from repro.robustness.reporting import CampaignMatrix, sweep_caption

from repro.durability.crashcampaign import (
    _CRASH_MASTER_KEY,
    _SCHEMA,
    _check_modes,
    _round_trips,
    _row_values,
    CRASH_MODES,
    SweepOutcome,
    SweepWorkload,
    crash_free_bytes,
    sweep,
)
from repro.durability.vdisk import MemoryDisk
from repro.sharding.keyspace import ShardedKeyspace

_ROTATED_MASTER_KEY = b"crashcampaign-rotated-key-765432"


def _seed_keyspace(keyspace: ShardedKeyspace, rows: int) -> None:
    """The pre-rotation workload: table, rows, both index kinds, fold."""
    keyspace.create_table(_SCHEMA)
    for i in range(rows):
        keyspace.insert("people", _row_values(i))
    keyspace.create_index("people_by_name", "people", "name", kind="table")
    keyspace.create_index("people_by_id", "people", "id", kind="btree")
    keyspace.checkpoint()


def _query_answers(keyspace: ShardedKeyspace, rows: int) -> dict[str, Any]:
    """Point answers per seeded key plus one fan-out range answer."""
    answers: dict[str, Any] = {
        "range": keyspace.select_range("people", "id", 0, rows + 10),
    }
    for i in range(rows):
        answers[f"id:{i}"] = keyspace.select_equals("people", "id", i)
    answers["name"] = keyspace.select_equals(
        "people", "name", _row_values(min(2, rows - 1))[1]
    )
    return answers


@dataclass
class ConfigRotationResult(SweepOutcome):
    """Rotation sweep outcome for one scheme configuration."""

    COLUMNS = SweepOutcome.COLUMNS + (
        ("rollbacks", "rollbacks"),
        ("rollforwards", "rollforwards"),
    )

    rollbacks: int = 0
    rollforwards: int = 0

    @property
    def rotation_boundaries(self) -> int:
        """The rotation's write boundaries (seeding is not swept)."""
        return self.boundaries


class _RotationWorkload(SweepWorkload):
    """Seed a keyspace, then rotate it to a second master key."""

    via = "rotation-recovery"

    def __init__(
        self,
        outcome: ConfigRotationResult,
        config: EncryptionConfig,
        rows: int,
        shard_count: int,
    ) -> None:
        super().__init__(outcome)
        self.config = config
        self.rows = rows
        self.shard_count = shard_count
        self.include_queries = _round_trips(config, _CRASH_MASTER_KEY)
        self.chain = KeyChain([_CRASH_MASTER_KEY, _ROTATED_MASTER_KEY])

    def run(self, disk, mark=None) -> None:
        keyspace = ShardedKeyspace.open(
            disk, KeyChain.single(_CRASH_MASTER_KEY), self.config,
            shard_count=self.shard_count, workers=1,
        )
        _seed_keyspace(keyspace, self.rows)
        if mark is None:
            keyspace.rotate(_ROTATED_MASTER_KEY)
            return
        baseline = (
            _query_answers(keyspace, self.rows) if self.include_queries else None
        )
        mark("seeded")

        def phase(shard_id: str, name: str) -> None:
            label = f"{shard_id}:{name}"
            mark(label)
            if baseline is not None and _query_answers(keyspace, self.rows) != baseline:
                self.violation(
                    f"live keyspace answers changed at rotation phase "
                    f"{label!r} — a sibling's rotation is visible"
                )

        keyspace.rotate(_ROTATED_MASTER_KEY, on_phase=phase)

    def recover(self, survivor: MemoryDisk) -> tuple[dict, ShardedKeyspace]:
        keyspace = ShardedKeyspace.open(survivor, self.chain, self.config)
        state: dict[str, Any] = {
            "manifest": keyspace.recovery.manifest,
            "shards": tuple(
                (shard.epoch, shard.degraded, dump_database(shard.manager.database))
                for shard in keyspace.shards
            ),
        }
        if self.include_queries:
            state["queries"] = _query_answers(keyspace, self.rows)
        return state, keyspace

    def tally(self, recovered: ShardedKeyspace) -> None:
        for shard in recovered.shards:
            self.outcome.rollbacks += shard.resolution.rolled_back
            self.outcome.rollforwards += shard.resolution.rolled_forward


def _final_rotated_disk(
    config: EncryptionConfig, rows: int, shard_count: int
) -> dict[str, bytes]:
    workload = _RotationWorkload(
        ConfigRotationResult(config="final"), config, rows, shard_count
    )
    return crash_free_bytes(workload)


def run_rotation_campaign(
    rows: int = 4,
    shard_count: int = 2,
    limit: int | None = None,
    configs: list[tuple[str, EncryptionConfig]] | None = None,
    modes: tuple[str, ...] = CRASH_MODES,
) -> CampaignMatrix:
    """Sweep every (or ``limit`` evenly-spaced) rotation write boundary
    under every crash mode, for every configuration."""
    _check_modes(modes)
    if shard_count < 1:
        raise ValueError("shard_count must be at least 1")
    configs = configs if configs is not None else default_campaign_configs()
    campaign = CampaignMatrix(
        ConfigRotationResult,
        sweep_caption(
            "key-rotation crash campaign",
            f"{rows}-row workload, {shard_count} shards, "
            f"modes {'/'.join(modes)}",
            limit,
        ),
    )
    for label, config in configs:
        workload = _RotationWorkload(campaign.add(label), config, rows, shard_count)
        result = sweep(workload, limit, tuple(modes))
        if HUB.enabled:
            labels = {"config": label}
            HUB.tick()
            for name in (
                "trials", "recovered_pre", "recovered_post",
                "rollbacks", "rollforwards",
            ):
                HUB.record(
                    f"rotation.campaign.{name}", getattr(result, name), labels=labels
                )
            HUB.record(
                "rotation.campaign.violations", len(result.violations), labels=labels
            )
    return campaign
