"""The sharded keyspace: N independent shards behind one facade.

Each shard is a self-contained durable encrypted database on a prefixed
namespace (``s0.``, ``s1.``, …) of one shared
:class:`~repro.durability.vdisk.VirtualDisk`, keyed by its own per-shard
per-epoch master (:meth:`~repro.core.keys.KeyChain.shard_master`).  The
MAC'd cross-shard manifest (:mod:`repro.sharding.manifest`) binds the
shards: which epoch each one is at, which checkpoint generation, and the
digest of its checkpoint blob.

Rows are routed by a deterministic hash of the table's first column
(the *shard key*); point queries on that column touch one shard, every
other query fans out and merges.  Mounting recovers all shards through
a worker pool — per-shard recovery is embarrassingly parallel because
no shard reads another's blobs — and a shard whose bytes cannot be
authenticated degrades to the resilient salvage path of
:mod:`repro.robustness.recovery` (via ``DurableDatabase.open``) instead
of failing the keyspace.

Rotation (:meth:`ShardedKeyspace.rotate`) runs the journaled state
machine of :mod:`repro.sharding.rotation` shard by shard, rewriting the
manifest after each shard's install, so a crash at any write boundary
leaves every shard at exactly one epoch and the manifest at most one
shard behind — the gap :func:`~repro.sharding.shard.mount_shard`
closes on the next open.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.resilience.anchor import TrustAnchor

from repro.core.encrypted_db import EncryptionConfig
from repro.core.keys import KeyChain
from repro.engine.schema import TableSchema
from repro.errors import DiskError, SchemaError
from repro.observability.audit import AUDIT
from repro.observability.timeseries import HUB, scheme_label

from repro.durability.vdisk import PrefixDisk, VirtualDisk
from repro.sharding.manifest import (
    MANIFEST_MISSING,
    MANIFEST_OK,
    Manifest,
    ShardEntry,
    read_manifest,
    write_manifest,
)
from repro.sharding.rotation import ShardRotation, ShardRotationOutcome
from repro.sharding.shard import Shard, mount_shard

#: Shards are named ``s<k>``; their blobs live under prefix ``s<k>.``.
DEFAULT_SHARD_COUNT = 2

#: Cap for the recovery worker pool (pure-Python crypto is GIL-bound,
#: so this bounds thread overhead, not parallel speedup).
_MAX_WORKERS = 8


def shard_id_for(index: int) -> str:
    return f"s{index}"


def shard_prefix_for(index: int) -> str:
    return f"s{index}."


def _shard_source(shard: "Shard"):
    """A telemetry pull-sampler for one mounted shard.

    Samples only logical state (degraded flag, epoch, per-table row
    counts) — everything here is deterministic under seeded workloads.
    The closure tracks the live shard through ``adopt`` swaps, so the
    same source stays valid across a rotation install.
    """

    def sample():
        yield ("shard.degraded", {}, float(shard.degraded))
        yield ("shard.epoch", {}, float(shard.epoch))
        yield from shard.manager.database.telemetry_sample()

    return sample


@dataclass
class KeyspaceRecovery:
    """What :meth:`ShardedKeyspace.open` found and decided."""

    manifest: str = MANIFEST_MISSING
    manifest_repaired: bool = False
    fresh: bool = False
    issues: list[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return self.manifest not in (MANIFEST_OK, MANIFEST_MISSING)


@dataclass(frozen=True)
class KeyspaceRotationReport:
    """What one keyspace rotation did."""

    to_epoch: int
    outcomes: tuple[ShardRotationOutcome, ...]
    skipped: tuple[str, ...]

    @property
    def cells_reencrypted(self) -> int:
        return sum(o.cells_reencrypted for o in self.outcomes)

    @property
    def index_entries_reencrypted(self) -> int:
        return sum(o.index_entries_reencrypted for o in self.outcomes)


class ShardedKeyspace:
    """N shards and their manifest on one shared disk."""

    def __init__(
        self,
        disk: VirtualDisk,
        chain: KeyChain,
        config: EncryptionConfig,
        shards: list[Shard],
        recovery: KeyspaceRecovery,
        anchor: "TrustAnchor | None" = None,
    ) -> None:
        self.disk = disk
        self.chain = chain
        self.config = config
        self.shards = shards
        self.recovery = recovery
        self._manifest_seq = 0
        self._anchor = anchor

    # -- mounting (doubles as parallel recovery) ------------------------------

    @classmethod
    def open(
        cls,
        disk: VirtualDisk,
        chain: KeyChain,
        config: EncryptionConfig | None = None,
        shard_count: int | None = None,
        workers: int | None = None,
        anchor: "TrustAnchor | None" = None,
    ) -> "ShardedKeyspace":
        """Mount (or create) a keyspace, recovering every shard.

        ``workers`` sizes the recovery pool; ``1`` forces sequential
        mounts (the crash campaign uses this for deterministic write
        boundaries on its fault-injecting disks).

        ``anchor`` enables rollback detection across the whole
        keyspace: the manifest is checked under the scope
        ``"manifest"`` and every shard under ``"shard.<id>"``; any
        scope behind the anchor raises
        :class:`~repro.errors.StaleImageError` instead of mounting.
        """
        config = config if config is not None else EncryptionConfig()
        recovery = KeyspaceRecovery()
        record = read_manifest(disk, chain)
        recovery.manifest = record.status
        if anchor is not None and record.ok:
            anchor.check(
                "manifest", record.manifest.seq, record.manifest.key_epoch
            )
            anchor.advance(
                "manifest", record.manifest.seq, record.manifest.key_epoch
            )

        if record.ok:
            count = len(record.manifest.entries)
            hints = {e.shard_id: e.key_epoch for e in record.manifest.entries}
            seq = record.manifest.seq
            if shard_count is not None and shard_count != count:
                recovery.issues.append(
                    f"manifest records {count} shard(s); ignoring requested "
                    f"shard_count={shard_count}"
                )
        else:
            observed = cls._observed_shard_count(disk)
            if record.status == MANIFEST_MISSING and observed == 0:
                recovery.fresh = True
                count = shard_count if shard_count is not None else DEFAULT_SHARD_COUNT
            else:
                # Manifest lost or unreadable over existing shards: mount
                # whatever namespaces exist and probe epochs per shard.
                count = observed if observed else (
                    shard_count if shard_count is not None else DEFAULT_SHARD_COUNT
                )
                recovery.issues.append(
                    f"manifest {record.status} ({record.detail}); mounting "
                    f"{count} shard(s) by epoch probing"
                )
            hints = {}
            seq = 0
        if anchor is not None and not record.ok:
            mark = anchor.get("manifest")
            if mark is not None:
                # A lost manifest must not restart the seq counter: the
                # repaired manifest resumes numbering from the trusted
                # watermark, so later mounts stay monotonic.
                seq = max(seq, mark.seq)
        if count < 1:
            raise SchemaError("a keyspace needs at least one shard")

        def mount(index: int) -> Shard:
            shard_id = shard_id_for(index)
            return mount_shard(
                PrefixDisk(disk, shard_prefix_for(index)),
                chain,
                shard_id,
                index,
                config,
                epoch_hint=hints.get(shard_id, 0),
                anchor=anchor,
            )

        pool_size = workers if workers is not None else min(count, _MAX_WORKERS)
        if pool_size <= 1 or count == 1:
            shards = [mount(index) for index in range(count)]
        else:
            with ThreadPoolExecutor(max_workers=pool_size) as pool:
                shards = list(pool.map(mount, range(count)))

        keyspace = cls(disk, chain, config, shards, recovery, anchor=anchor)
        keyspace._manifest_seq = seq
        for shard in shards:
            recovery.issues.extend(shard.resolution.issues)
            recovery.issues.extend(
                f"{shard.shard_id}: {issue}"
                for issue in shard.manager.recovery.issues
            )
        keyspace._reconcile_manifest(record.manifest if record.ok else None)
        if HUB.enabled:
            scheme = scheme_label(config)
            for shard in shards:
                labels = {"shard": shard.shard_id, "scheme": scheme}
                HUB.record("shard.degraded", float(shard.degraded), labels=labels)
                # Keyed per shard id: a campaign's re-mounts replace the
                # previous mount's sampler instead of accumulating one
                # dead source per trial.
                HUB.add_source(
                    _shard_source(shard), labels=labels, key=("shard", shard.shard_id)
                )
        return keyspace

    @staticmethod
    def _observed_shard_count(disk: VirtualDisk) -> int:
        """How many ``s<k>.`` namespaces hold blobs (contiguous from 0)."""
        indexes = set()
        for name in disk.names():
            if not name.startswith("s"):
                continue
            head, dot, _ = name.partition(".")
            if dot and head[1:].isdigit():
                indexes.add(int(head[1:]))
        count = 0
        while count in indexes:
            count += 1
        return count

    # -- manifest maintenance -------------------------------------------------

    def _current_manifest(self) -> Manifest:
        entries = tuple(
            ShardEntry(
                shard_id=shard.shard_id,
                key_epoch=shard.epoch,
                generation=shard.manager.generation,
                checkpoint_digest=shard.manager.checkpoint_digest,
            )
            for shard in self.shards
        )
        return Manifest(
            key_epoch=max(shard.epoch for shard in self.shards),
            seq=self._manifest_seq + 1,
            entries=entries,
        )

    def _write_manifest(self) -> None:
        manifest = self._current_manifest()
        write_manifest(self.disk, manifest, self.chain)
        self._manifest_seq = manifest.seq
        if self._anchor is not None:
            # After the durable write, never before: an honest crash
            # leaves the anchor at or behind the stored manifest.
            self._anchor.advance("manifest", manifest.seq, manifest.key_epoch)

    def _reconcile_manifest(self, manifest: Manifest | None) -> None:
        """After mounting, make the manifest match the shards on disk."""
        unauthenticated = [
            shard.shard_id
            for shard in self.shards
            if shard.resolution.unauthenticated
        ]
        if unauthenticated:
            # Almost certainly the wrong chain: re-signing the manifest
            # here would shadow the real one (epoch-0 keys are often
            # shared across chains) and mislead the next correct mount.
            self.recovery.issues.append(
                "manifest left untouched: "
                + ", ".join(unauthenticated)
                + " did not authenticate under this chain (a mount with "
                "the right chain can still recover them)"
            )
            return
        if manifest is None:
            self._write_manifest()
            self.recovery.manifest_repaired = not self.recovery.fresh
            return
        drift = []
        for shard in self.shards:
            entry = manifest.entry(shard.shard_id)
            if entry is None:
                drift.append(f"{shard.shard_id}: missing from manifest")
            elif entry.key_epoch != shard.epoch:
                drift.append(
                    f"{shard.shard_id}: manifest epoch {entry.key_epoch}, "
                    f"shard at {shard.epoch}"
                )
            elif (
                entry.generation != shard.manager.generation
                or entry.checkpoint_digest != shard.manager.checkpoint_digest
            ):
                drift.append(f"{shard.shard_id}: stale generation/digest")
        if drift:
            self.recovery.issues.extend(f"manifest drift — {d}" for d in drift)
            self._write_manifest()
            self.recovery.manifest_repaired = True

    # -- routing --------------------------------------------------------------

    def _schema(self, table_name: str) -> TableSchema:
        return self.shards[0].manager.database.table(table_name).schema

    def _route_key(self, table_name: str, value: Any) -> int:
        """Deterministic shard index for one shard-key value."""
        encoded = self._schema(table_name).columns[0].encode(value)
        digest = hashlib.sha256(b"repro-shard-route/" + encoded).digest()
        return int.from_bytes(digest[:8], "big") % len(self.shards)

    def shard_for(self, table_name: str, values: Sequence[Any]) -> Shard:
        return self.shards[self._route_key(table_name, values[0])]

    @property
    def degraded_shards(self) -> list[str]:
        return [shard.shard_id for shard in self.shards if shard.degraded]

    # -- DDL and DML ----------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        for shard in self.shards:
            shard.manager.create_table(schema)

    def create_index(
        self, name: str, table_name: str, column_name: str,
        kind: str = "table", order: int = 8,
    ) -> None:
        for shard in self.shards:
            shard.manager.create_index(name, table_name, column_name, kind, order)

    def insert(self, table_name: str, values: Sequence[Any]) -> tuple[int, int]:
        """Insert one row; returns ``(shard_index, row_id)``."""
        shard = self.shard_for(table_name, values)
        return shard.index, shard.manager.insert(table_name, values)

    def checkpoint(self) -> None:
        unauthenticated = [
            shard.shard_id
            for shard in self.shards
            if shard.resolution.unauthenticated
        ]
        if unauthenticated:
            raise DiskError(
                "refusing to checkpoint: "
                + ", ".join(unauthenticated)
                + " did not authenticate under this chain; a checkpoint "
                "would overwrite bytes the right chain could recover"
            )
        for shard in self.shards:
            shard.manager.checkpoint()
        self._write_manifest()

    # -- queries (fan-out + merge) --------------------------------------------

    def _merge(self, per_shard: list[tuple[int, list]]) -> list[tuple[int, int, list[Any]]]:
        merged = [
            (index, row_id, row)
            for index, rows in per_shard
            for row_id, row in rows
        ]
        merged.sort(key=lambda item: (item[0], item[1]))
        return merged

    def select_equals(
        self, table_name: str, column_name: str, value: Any
    ) -> list[tuple[int, int, list[Any]]]:
        """Point query; single-shard when on the shard key, else fan-out.
        Returns ``(shard_index, row_id, row)`` triples."""
        if self._schema(table_name).columns[0].name == column_name:
            targets = [self.shards[self._route_key(table_name, value)]]
        else:
            targets = self.shards
        return self._merge([
            (s.index, s.manager.database.select_equals(table_name, column_name, value))
            for s in targets
        ])

    def select_range(
        self, table_name: str, column_name: str, low: Any, high: Any
    ) -> list[tuple[int, int, list[Any]]]:
        """Range query: always a fan-out (hash routing scatters ranges)."""
        return self._merge([
            (s.index, s.manager.database.select_range(table_name, column_name, low, high))
            for s in self.shards
        ])

    def count(self, table_name: str) -> int:
        return sum(s.manager.database.count(table_name) for s in self.shards)

    # -- rotation -------------------------------------------------------------

    def rotate(
        self,
        new_master_key: bytes | None = None,
        shard_id: str | None = None,
        on_phase=None,
    ) -> KeyspaceRotationReport:
        """Rotate shards to a new key epoch, shard by shard, online.

        With ``new_master_key`` the chain is extended first; without it,
        shards still behind the chain's head epoch are brought up to it
        (resuming an interrupted rotation).  ``shard_id`` restricts the
        rotation to one shard.  ``on_phase(shard_id, phase)`` fires after
        every synced protocol step — sibling shards answer queries
        normally throughout.
        """
        if new_master_key is not None:
            to_epoch = self.chain.extend(new_master_key)
        else:
            to_epoch = self.chain.head_epoch
        targets = self.shards
        if shard_id is not None:
            targets = [s for s in self.shards if s.shard_id == shard_id]
            if not targets:
                raise SchemaError(f"no shard {shard_id!r} in this keyspace")

        outcomes = []
        skipped = []
        for shard in targets:
            if shard.epoch >= to_epoch:
                skipped.append(shard.shard_id)
                continue
            if shard.degraded:
                skipped.append(shard.shard_id)
                self.recovery.issues.append(
                    f"{shard.shard_id}: degraded shard left at epoch "
                    f"{shard.epoch}; not rotating"
                )
                continue
            rotation = ShardRotation(shard, self.chain, shard.epoch + 1)
            outcomes.append(rotation.run(on_phase))
            self._write_manifest()
            if HUB.enabled:
                HUB.event(
                    "rotation.manifest.writes",
                    1,
                    labels={"shard": shard.shard_id},
                )
                HUB.tick()
            if on_phase is not None:
                on_phase(shard.shard_id, "manifest")
        AUDIT.emit(
            "rotation.complete",
            to_epoch=to_epoch,
            rotated=len(outcomes),
            skipped=len(skipped),
        )
        return KeyspaceRotationReport(
            to_epoch=to_epoch,
            outcomes=tuple(outcomes),
            skipped=tuple(skipped),
        )
