"""One shard: its disk namespace, key lineage, and crash resolution.

A shard is a complete durable database in its own right — its own
:class:`~repro.durability.vdisk.VirtualDisk` (a prefixed view of the
keyspace's shared disk), its own MAC-committed WAL and authenticated
checkpoint, and its own purpose keys, all derived from the per-shard
per-epoch master ``KeyChain.shard_master(shard_id, epoch)``.

Mounting a shard runs the **rotation resolution** before the ordinary
WAL recovery of :class:`~repro.durability.manager.DurableDatabase`:

=========================================  =================================
WAL (under the shard's current epoch e)    resolution
=========================================  =================================
no rotation records                        normal mount at e (drop any
                                           stray staged checkpoint)
``rotate_begin`` without ``rotate_commit``  **roll back**: delete the staged
                                           checkpoint, reset the WAL, stay
                                           at e (``rotation.abort``)
``rotate_begin`` and ``rotate_commit``      **roll forward**: install the
                                           staged checkpoint, reset the WAL
                                           under e+1's MAC, move to e+1
nothing authenticates under e, but the     already installed: adopt e+1,
checkpoint authenticates under e+1         discard the stale old-epoch WAL
nothing authenticates under any epoch      degraded: mount anyway and let
                                           the resilient salvage path run —
                                           but *never write*: the durable
                                           bytes stay untouched so a mount
                                           with the right chain recovers
=========================================  =================================

Resolution is idempotent: a crash *during* resolution re-resolves to the
same outcome, because every step preserves the property that the WAL's
committed prefix still names the decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.resilience.anchor import TrustAnchor

from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.core.keys import KeyChain, KeyRing
from repro.errors import DiskError
from repro.mac.base import MAC
from repro.observability.audit import AUDIT

from repro.durability.manager import (
    OP_ROTATE_BEGIN,
    OP_ROTATE_COMMIT,
    DurableDatabase,
)
from repro.durability.vdisk import VirtualDisk
from repro.durability.wal import (
    CHECKPOINT_BLOB,
    JOURNAL_BLOB,
    CheckpointRecord,
    Journal,
    JournalScan,
    decode_checkpoint,
    journal_mac,
)

#: The staged new-epoch checkpoint a rotation writes before committing.
CHECKPOINT_NEXT = "checkpoint.next"


def shard_journal_mac(chain: KeyChain, shard_id: str, epoch: int) -> MAC:
    """The shard's WAL/checkpoint MAC at one epoch (cheap — no codecs)."""
    return journal_mac(KeyRing(chain.shard_master(shard_id, epoch)))


def shard_crypto(
    chain: KeyChain, shard_id: str, epoch: int, config: EncryptionConfig
) -> tuple[EncryptedDatabase, MAC]:
    """Full codec plumbing plus the WAL MAC for one (shard, epoch)."""
    enc = EncryptedDatabase(chain.shard_master(shard_id, epoch), config)
    return enc, journal_mac(enc.keys)


@dataclass
class ShardResolution:
    """What mounting one shard found and decided."""

    shard_id: str
    epoch: int
    rolled_back: bool = False
    rolled_forward: bool = False
    #: No epoch in the chain authenticates the shard's durable bytes —
    #: almost certainly the *wrong chain*, so the mount must not write.
    unauthenticated: bool = False
    issues: list[str] = field(default_factory=list)


class Shard:
    """A mounted shard: crypto plumbing + durable manager on one disk."""

    def __init__(
        self,
        shard_id: str,
        index: int,
        disk: VirtualDisk,
        config: EncryptionConfig,
        epoch: int,
        enc: EncryptedDatabase,
        manager: DurableDatabase,
        resolution: ShardResolution,
    ) -> None:
        self.shard_id = shard_id
        self.index = index
        self.disk = disk
        self.config = config
        self.epoch = epoch
        self.enc = enc
        self.manager = manager
        self.resolution = resolution

    @property
    def degraded(self) -> bool:
        return self.manager.recovery.degraded

    def adopt(
        self, enc: EncryptedDatabase, manager: DurableDatabase, epoch: int
    ) -> None:
        """Switch the live shard to freshly-installed epoch plumbing
        (the last step of a completed rotation)."""
        self.enc = enc
        self.manager = manager
        self.epoch = epoch


def _authenticating_epoch(
    disk: VirtualDisk,
    chain: KeyChain,
    shard_id: str,
    epoch_hint: int,
) -> tuple[int, MAC, CheckpointRecord | None, JournalScan | None] | None:
    """Which epoch's keys this shard's durable bytes authenticate under.

    The checkpoint MAC is the anchor; a shard without a checkpoint yet is
    judged by its WAL records.  Candidates are tried hint-first, then
    hint+1 (the mid-rotation neighbour), then every remaining epoch
    newest-first (the degraded, manifest-less probe).  The checkpoint
    blob is read once and decoded under each candidate's MAC.

    Returns the epoch, its journal MAC, and what decided it: the
    checkpoint record, or the journal scan of a shard with no checkpoint
    yet; None when a checkpoint exists but no epoch authenticates it.
    """
    candidates = [epoch_hint]
    if epoch_hint + 1 <= chain.head_epoch:
        candidates.append(epoch_hint + 1)
    for epoch in range(chain.head_epoch, -1, -1):
        if epoch not in candidates:
            candidates.append(epoch)

    blob = disk.read(CHECKPOINT_BLOB) if disk.exists(CHECKPOINT_BLOB) else None
    hinted = None
    for epoch in candidates:
        mac = shard_journal_mac(chain, shard_id, epoch)
        if blob is not None:
            checkpoint = decode_checkpoint(blob, mac)
            if checkpoint.ok:
                return epoch, mac, checkpoint, None
        else:
            scan = Journal(disk, mac).scan()
            if scan.records:
                return epoch, mac, None, scan
            if epoch == epoch_hint:
                # Header-only (or missing) WAL and no checkpoint: nothing
                # is epoch-specific yet, so the hint is as good as any
                # answer.
                hinted = epoch, mac, None, scan
    return hinted


def _delete_if_exists(disk: VirtualDisk, name: str) -> bool:
    if disk.exists(name):
        try:
            disk.delete(name)
            return True
        except DiskError:
            return False
    return False


def _resolve(
    disk: VirtualDisk, chain: KeyChain, shard_id: str, epoch_hint: int
) -> tuple[ShardResolution, tuple[CheckpointRecord | None, JournalScan] | None]:
    """Run the rotation decision table before the ordinary WAL recovery.

    Also returns the checkpoint record and journal scan the table
    verified, for :meth:`DurableDatabase.open` to use instead of reading
    them again — but only on the rows that rewrite neither blob: a
    verdict never outlives a rewrite.
    """
    resolution = ShardResolution(shard_id=shard_id, epoch=epoch_hint)
    if not disk.exists(CHECKPOINT_BLOB) and not disk.exists(JOURNAL_BLOB):
        return resolution, None  # brand-new shard

    found = _authenticating_epoch(disk, chain, shard_id, epoch_hint)
    if found is None:
        resolution.unauthenticated = True
        resolution.issues.append(
            f"{shard_id}: no key epoch in the chain authenticates the "
            f"checkpoint; mounting degraded at epoch {epoch_hint} without "
            f"touching the durable bytes"
        )
        return resolution, None
    epoch, mac, checkpoint, scan = found
    resolution.epoch = epoch
    if epoch != epoch_hint:
        resolution.issues.append(
            f"{shard_id}: manifest said epoch {epoch_hint}, "
            f"bytes authenticate under epoch {epoch}"
        )
        if epoch == epoch_hint + 1:
            # The rotation installed its checkpoint but crashed before
            # the manifest (or the old WAL) caught up.
            resolution.rolled_forward = True

    journal = Journal(disk, mac)
    if scan is None:
        scan = journal.scan()
    begin = next((r for r in scan.records if r.op == OP_ROTATE_BEGIN), None)
    commit = next((r for r in scan.records if r.op == OP_ROTATE_COMMIT), None)

    if commit is not None:
        _roll_forward(disk, chain, shard_id, epoch, resolution)
        return resolution, None
    if begin is not None:
        _roll_back(disk, journal, shard_id, epoch, scan.generation, resolution)
        return resolution, None
    if _delete_if_exists(disk, CHECKPOINT_NEXT):
        resolution.issues.append(f"{shard_id}: removed a stray staged checkpoint")
    if resolution.rolled_forward and checkpoint is not None and not scan.clean:
        # The stale old-epoch WAL (it authenticates under e-1, not
        # e) would read as torn; found it afresh under this epoch.
        journal.reset(max(checkpoint.generation, 1))
        return resolution, None
    return resolution, (checkpoint, scan)


def _roll_forward(
    disk: VirtualDisk,
    chain: KeyChain,
    shard_id: str,
    epoch: int,
    resolution: ShardResolution,
) -> None:
    """A committed rotation: finish installing the new epoch."""
    to_epoch = epoch + 1
    if to_epoch > chain.head_epoch:
        resolution.issues.append(
            f"{shard_id}: WAL commits a rotation to epoch {to_epoch} but the "
            f"chain ends at {chain.head_epoch}; cannot roll forward"
        )
        return
    new_mac = shard_journal_mac(chain, shard_id, to_epoch)
    if not disk.exists(CHECKPOINT_NEXT):
        # A crash after the install rename never lands here: the
        # checkpoint then authenticates only under e+1, which hides the
        # old WAL's commit (the already-installed row).
        resolution.issues.append(
            f"{shard_id}: committed rotation left neither a staged nor "
            f"an installed new-epoch checkpoint"
        )
        return
    staged = decode_checkpoint(disk.read(CHECKPOINT_NEXT), new_mac)
    if not staged.ok:
        resolution.issues.append(
            f"{shard_id}: committed rotation's staged checkpoint is "
            f"{staged.status}; refusing to install it"
        )
        return
    disk.rename(CHECKPOINT_NEXT, CHECKPOINT_BLOB)
    Journal(disk, new_mac).reset(staged.generation)
    resolution.epoch = to_epoch
    resolution.rolled_forward = True


def _roll_back(
    disk: VirtualDisk,
    journal: Journal,
    shard_id: str,
    epoch: int,
    generation: int,
    resolution: ShardResolution,
) -> None:
    """An uncommitted rotation: erase every trace, stay at the old epoch."""
    _delete_if_exists(disk, CHECKPOINT_NEXT)
    journal.reset(generation)
    resolution.rolled_back = True
    AUDIT.emit(
        "rotation.abort",
        shard=shard_id,
        from_epoch=epoch,
        to_epoch=epoch + 1,
    )


def mount_shard(
    disk: VirtualDisk,
    chain: KeyChain,
    shard_id: str,
    index: int,
    config: EncryptionConfig,
    epoch_hint: int = 0,
    anchor: "TrustAnchor | None" = None,
) -> Shard:
    """Resolve any in-flight rotation, then mount the shard.

    With ``anchor`` set, the mount checks freshness under the scope
    ``"shard.<shard_id>"`` and raises
    :class:`~repro.errors.StaleImageError` on rollback."""
    resolution, verified = _resolve(disk, chain, shard_id, epoch_hint)
    enc, mac = shard_crypto(chain, shard_id, resolution.epoch, config)
    manager = DurableDatabase.open(
        disk,
        mac,
        cell_codec=enc.cell_codec,
        index_codec_factory=enc._build_index_codec,
        # A wrong-chain mount must not fold its (empty) salvage over the
        # checkpoint the correct chain could still authenticate.
        fold=not resolution.unauthenticated,
        anchor=anchor,
        anchor_scope=f"shard.{shard_id}",
        verified=verified,
    )
    return Shard(
        shard_id=shard_id,
        index=index,
        disk=disk,
        config=config,
        epoch=resolution.epoch,
        enc=enc,
        manager=manager,
        resolution=resolution,
    )
