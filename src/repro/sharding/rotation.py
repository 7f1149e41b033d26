"""The crash-safe, per-shard key-rotation state machine.

Both rotations re-encrypt a clone through the one walk of
:mod:`repro.core.rotation`.  :func:`~repro.core.rotation.rotate_master_key`
swaps the finished clone into a live database and writes nothing
durable; this machine journals every step and never overwrites a byte
the old epoch still needs, so a power cut at any point recovers to one
epoch or the other.  Protocol, per shard:

1. **fold** — ``manager.checkpoint()``: the old-epoch WAL is now empty,
   so every later WAL record is a rotation marker;
2. **arm** — append ``rotate_begin`` (old-epoch MAC) and sync;
3. **stage** — re-encrypt a *clone* of the database under the new
   epoch's keys (progress markers journaled per table/index) and write
   it as a staged checkpoint blob ``checkpoint.next`` under the new
   epoch's MAC, then sync;
4. **commit** — append ``rotate_commit`` and sync.  *This is the commit
   point*: before it, recovery rolls back to the old epoch; at or after
   it, recovery rolls forward to the new one;
5. **install** — rename ``checkpoint.next`` over ``checkpoint``, reset
   the WAL under the new epoch's MAC, and swap the live shard onto the
   new plumbing.

Every arrow in that sequence is one synced write boundary, which is
exactly the granularity the rotation crash campaign
(:mod:`repro.sharding.campaign`) cuts power at.

The machine is a generator (:meth:`ShardRotation.steps`) so a caller —
the keyspace, a benchmark, a test — can interleave work between write
boundaries: that is what makes the rotation *online*, with sibling
shards serving queries mid-rotation.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from typing import Iterator

from repro.core.keys import KeyChain
from repro.core.rotation import clone_under, reencrypt
from repro.engine.storage import _Reader, _write_int, _write_text, dump_database
from repro.errors import StorageFormatError
from repro.observability.audit import AUDIT
from repro.observability.timeseries import HUB

from repro.durability.manager import (
    OP_ROTATE_BEGIN,
    OP_ROTATE_COMMIT,
    OP_ROTATE_PROGRESS,
    DurableDatabase,
)
from repro.durability.wal import CHECKPOINT_BLOB, Journal, encode_checkpoint
from repro.sharding.shard import CHECKPOINT_NEXT, Shard, shard_crypto


@dataclass(frozen=True)
class ShardRotationOutcome:
    """What rotating one shard re-encrypted."""

    shard_id: str
    from_epoch: int
    to_epoch: int
    cells_reencrypted: int
    index_entries_reencrypted: int


def encode_epoch_transition(from_epoch: int, to_epoch: int) -> bytes:
    out = io.BytesIO()
    _write_int(out, from_epoch)
    _write_int(out, to_epoch)
    return out.getvalue()


def decode_epoch_transition(payload: bytes) -> tuple[int, int]:
    reader = _Reader(payload)
    from_epoch = reader.read_int()
    to_epoch = reader.read_int()
    if reader.remaining:
        raise StorageFormatError("trailing bytes in rotation record")
    return from_epoch, to_epoch


def _encode_progress(stage: str, count: int) -> bytes:
    out = io.BytesIO()
    _write_text(out, stage)
    _write_int(out, count)
    return out.getvalue()


class ShardRotation:
    """Drives one shard from its current epoch to ``to_epoch``."""

    def __init__(self, shard: Shard, chain: KeyChain, to_epoch: int) -> None:
        if to_epoch > chain.head_epoch:
            raise ValueError(
                f"cannot rotate to epoch {to_epoch}: chain ends at "
                f"{chain.head_epoch}"
            )
        if to_epoch != shard.epoch + 1:
            raise ValueError(
                f"shard {shard.shard_id} is at epoch {shard.epoch}; "
                f"rotation targets must be the next epoch, not {to_epoch}"
            )
        self.shard = shard
        self.chain = chain
        self.to_epoch = to_epoch
        self.cells = 0
        self.entries = 0

    def run(self, on_phase=None) -> ShardRotationOutcome:
        for phase in self.steps():
            if HUB.enabled:
                # One logical tick per synced write boundary: the hub's
                # clock advances exactly where the crash campaign cuts
                # power, so telemetry is deterministic under seeds.
                HUB.event(
                    "rotation.phase.steps",
                    1,
                    labels={
                        "shard": self.shard.shard_id,
                        "rotation_phase": phase.split()[0],
                    },
                )
                HUB.record(
                    "rotation.cells_reencrypted",
                    self.cells,
                    labels={"shard": self.shard.shard_id},
                )
                HUB.tick()
            if on_phase is not None:
                on_phase(self.shard.shard_id, phase)
        return ShardRotationOutcome(
            shard_id=self.shard.shard_id,
            from_epoch=self.to_epoch - 1,
            to_epoch=self.to_epoch,
            cells_reencrypted=self.cells,
            index_entries_reencrypted=self.entries,
        )

    def steps(self) -> Iterator[str]:
        shard = self.shard
        manager = shard.manager
        from_epoch = shard.epoch
        transition = encode_epoch_transition(from_epoch, self.to_epoch)

        # 1+2. fold, then journal the intent under the old epoch's MAC.
        manager.checkpoint()
        manager.commit_record(OP_ROTATE_BEGIN, transition)
        AUDIT.emit(
            "rotation.begin",
            shard=shard.shard_id,
            from_epoch=from_epoch,
            to_epoch=self.to_epoch,
        )
        yield "armed"

        # 3. stage: re-encrypt a clone under the new epoch's keys.
        new_enc, new_mac = shard_crypto(
            self.chain, shard.shard_id, self.to_epoch, shard.config
        )
        clone = clone_under(manager.database, new_enc)
        for kind, name, count in reencrypt(clone, shard.enc):
            if kind == "table":
                self.cells += count
            else:
                self.entries += count
            manager.commit_record(
                OP_ROTATE_PROGRESS, _encode_progress(f"{kind}:{name}", count)
            )
            yield f"reencrypted {kind} {name}"

        generation = manager.generation + 1
        commit_seq = manager.last_seq + 1  # the commit record's seq
        staged = encode_checkpoint(
            generation, commit_seq, dump_database(clone), new_mac
        )
        shard.disk.write(CHECKPOINT_NEXT, staged)
        shard.disk.sync(CHECKPOINT_NEXT)
        yield "staged"

        # 4. the commit point.
        record = manager.commit_record(OP_ROTATE_COMMIT, transition)
        assert record.seq == commit_seq
        AUDIT.emit(
            "rotation.shard-commit",
            shard=shard.shard_id,
            from_epoch=from_epoch,
            to_epoch=self.to_epoch,
            cells=self.cells,
            entries=self.entries,
        )
        yield "committed"

        # 5. install and swap the live plumbing.
        shard.disk.rename(CHECKPOINT_NEXT, CHECKPOINT_BLOB)
        new_journal = Journal(shard.disk, new_mac)
        new_journal.reset(generation)
        new_manager = DurableDatabase(
            shard.disk,
            clone,
            new_journal,
            new_mac,
            generation=generation,
            seq=commit_seq,
            recovery=manager.recovery,
            anchor=manager.anchor,
            anchor_scope=manager.anchor_scope,
            checkpoint_digest=hashlib.sha256(staged).digest(),
        )
        if manager.anchor is not None:
            # The install is durable (checkpoint renamed in, journal
            # reset); acknowledge the new generation so a subsequent
            # rollback to the pre-rotation epoch is detected.
            manager.anchor.advance(manager.anchor_scope, commit_seq, generation)
        shard.adopt(new_enc, new_manager, self.to_epoch)
        yield "installed"
