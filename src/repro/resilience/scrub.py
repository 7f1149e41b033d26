"""Anti-entropy scrubbing: verify MACs, repair replicas, report healing.

Read-repair (:mod:`repro.resilience.replica`) heals divergence the read
path happens to touch; the **scrubber** walks *everything* — journal,
checkpoint, cross-shard manifest, staged rotation blobs — across every
replica of a :class:`~repro.resilience.replica.MirroredDisk`:

1. read each blob from each replica independently (no majority vote —
   a corrupt value that outvotes the healthy one must still lose);
2. verify each copy cryptographically with the blob's own format
   verifier (checkpoint/journal/manifest MACs — HMAC-SHA256 only, zero
   blockcipher calls, exactly the Sect. 4 accounting the ``scrub``
   bench scenario pins) and extract a *freshness* tuple;
3. elect the authentic copy with the highest freshness (majority bytes
   break exact ties) and rewrite every replica that differs;
4. report: blobs checked, replica repairs performed, and — fatally —
   blobs with **no** authentic copy anywhere (unrepairable).

Freshness ordering matters beyond corruption: a replica serving an
*older* authentic copy (single-replica rollback) is simply less fresh
and gets overwritten by the newest authentic one.  A rollback of *all*
replicas in lockstep is invisible to any vote and is the anchor's job
(:mod:`repro.resilience.anchor`).

Blobs without a verifier (in-flight ``*.tmp`` staging files) are
majority-repaired when a majority exists and skipped otherwise — they
are never load-bearing after a clean shutdown.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.core.keys import KeyChain
from repro.errors import DiskError, PowerCutError
from repro.observability.audit import AUDIT
from repro.observability.flightrecorder import RECORDER
from repro.observability.timeseries import HUB
from repro.mac.base import MAC

from repro.durability.wal import (
    CHECKPOINT_BLOB,
    JOURNAL_BLOB,
    decode_checkpoint,
    scan_journal,
)
from repro.resilience.replica import MirroredDisk
from repro.sharding.manifest import MANIFEST_BLOB, decode_manifest
from repro.sharding.shard import CHECKPOINT_NEXT, shard_journal_mac

#: A verifier maps one replica's bytes to (authentic, freshness): the
#: copy is cryptographically sound, and a tuple ordering copies from
#: oldest to newest.  Verifiers never raise on malformed input.
Verifier = Callable[[bytes], "tuple[bool, tuple]"]

OUTCOME_OK = "ok"
OUTCOME_REPAIRED = "repaired"
OUTCOME_DIVERGENT = "divergent"      # repairs disabled or failed
OUTCOME_UNREPAIRED = "unrepaired"    # no authentic copy anywhere
OUTCOME_SKIPPED = "skipped"          # unverifiable, no majority


# -- format verifiers --------------------------------------------------------


def checkpoint_verifier(mac: MAC) -> Verifier:
    def verify(data: bytes) -> tuple[bool, tuple]:
        record = decode_checkpoint(data, mac)
        return record.ok, (record.generation, record.applied_seq)

    return verify


def journal_verifier(mac: MAC, max_generation: int | None = None) -> Verifier:
    def verify(data: bytes) -> tuple[bool, tuple]:
        scan = scan_journal(data, mac)
        if not scan.header_ok:
            return False, ()
        # The header generation is the one *unauthenticated* field in the
        # journal format (record MACs cover seq/op/payload only), and it
        # leads the freshness tuple — so a single flipped bit there would
        # let a corrupt copy win the election and roll every healthy
        # replica back.  A live journal's generation never exceeds the
        # newest checkpoint's (reset happens after the rename), so any
        # copy claiming more than the MAC-verified checkpoint bound is
        # corrupt or forged, not merely stale.
        if max_generation is not None and scan.generation > max_generation:
            return False, ()
        last_seq = scan.records[-1].seq if scan.records else 0
        # A torn/unauthenticated tail is salvageable, not fatal — but it
        # is strictly *less fresh* than a clean copy of the same length,
        # so a healthy sibling wins the election and repairs it.
        return True, (scan.generation, last_seq, int(scan.clean))

    return verify


def manifest_verifier(chain: KeyChain) -> Verifier:
    def verify(data: bytes) -> tuple[bool, tuple]:
        record = decode_manifest(data, chain)
        if not record.ok:
            return False, ()
        return True, (record.manifest.key_epoch, record.manifest.seq)

    return verify


def _epoch_sweep(
    chain: KeyChain, shard_id: str, build: Callable[[MAC], Verifier]
) -> Verifier:
    """Probe every chain epoch and keep the best freshness any yields.

    Shard blobs don't say which epoch keys them — the rotation protocol
    resolves that at mount time — so the scrubber tries each epoch's
    MAC.  Freshness tuples lead with the checkpoint *generation*, which
    is monotonic across rotations (a rotation install bumps it exactly
    like a checkpoint), so copies compare correctly across epochs with
    no epoch prefix; taking the max also handles the journal verifier,
    whose header parses under every epoch but whose records only
    authenticate under the right one.
    """

    def verify(data: bytes) -> tuple[bool, tuple]:
        best: tuple | None = None
        for epoch in range(chain.head_epoch + 1):
            authentic, freshness = build(
                shard_journal_mac(chain, shard_id, epoch)
            )(data)
            if authentic and (best is None or freshness > best):
                best = freshness
        return best is not None, (best if best is not None else ())

    return verify


def _one_verdict_per_copy(
    verifier_for: Callable[[str], Verifier | None],
) -> Callable[[str], Verifier | None]:
    """Remember each verdict of one pass per distinct (blob name, bytes).

    Replicas normally hold byte-identical copies, and a verdict depends
    only on the name and the bytes, so identical copies share one MAC
    check, and the journal bound reads the checkpoint verdicts the
    election already computed instead of decoding every copy again.
    """
    verdicts: dict[tuple[str, bytes], tuple[bool, tuple]] = {}

    def remembered_for(name: str) -> Verifier | None:
        verifier = verifier_for(name)
        if verifier is None:
            return None

        def verify(data: bytes) -> tuple[bool, tuple]:
            key = (name, data)
            if key not in verdicts:
                verdicts[key] = verifier(data)
            return verdicts[key]

        return verify

    return remembered_for


def _newest_generation(
    mirror: MirroredDisk,
    names: tuple[str, ...],
    verifier_for: Callable[[str], Verifier | None],
) -> int | None:
    """The newest MAC-authenticated checkpoint generation among the
    copies of ``names`` on any replica (checkpoint freshness tuples lead
    with the generation)."""
    best: int | None = None
    for name in names:
        verify = verifier_for(name)
        for value in _gather(mirror, name):
            if value is None:
                continue
            authentic, freshness = verify(value)
            if authentic and (best is None or freshness[0] > best):
                best = freshness[0]
    return best


# -- reports -----------------------------------------------------------------


@dataclass
class BlobOutcome:
    """What the scrubber decided about one logical blob."""

    name: str
    outcome: str
    #: Replica indexes rewritten (read-repair style) for this blob.
    repaired_replicas: tuple[int, ...] = ()
    detail: str = ""


@dataclass
class ScrubReport:
    """One scrub pass over a mirrored disk."""

    replicas: int
    outcomes: list[BlobOutcome] = field(default_factory=list)
    #: MAC verifications performed, one per replica copy checked — the
    #: scrubber's *only* cryptographic work; the ``scrub`` bench scenario
    #: asserts zero blockcipher calls ride along.  A copy byte-identical
    #: to one already checked in the pass reuses that verdict, so it is
    #: counted here without computing its MACs again.
    mac_verifications: int = 0

    @property
    def blobs_checked(self) -> int:
        return len(self.outcomes)

    @property
    def repairs(self) -> int:
        return sum(len(o.repaired_replicas) for o in self.outcomes)

    @property
    def unrepaired(self) -> list[str]:
        return [o.name for o in self.outcomes if o.outcome == OUTCOME_UNREPAIRED]

    @property
    def ok(self) -> bool:
        return not self.unrepaired

    def format(self) -> str:
        lines = [
            f"scrub: {self.blobs_checked} blob(s) across {self.replicas} "
            f"replica(s), {self.repairs} replica repair(s), "
            f"{len(self.unrepaired)} unrepairable, "
            f"{self.mac_verifications} MAC verification(s)"
        ]
        for o in self.outcomes:
            if o.outcome == OUTCOME_OK:
                continue
            where = (
                f" (replicas {', '.join(map(str, o.repaired_replicas))})"
                if o.repaired_replicas
                else ""
            )
            detail = f" — {o.detail}" if o.detail else ""
            lines.append(f"  {o.name}: {o.outcome}{where}{detail}")
        return "\n".join(lines)


# -- the scrub pass ----------------------------------------------------------


def _union_names(mirror: MirroredDisk) -> list[str]:
    """Every name on *any* replica — a blob missing from a majority must
    still be scrubbed, not hidden by the quorum view."""
    names: set[str] = set()
    for replica in mirror.replicas:
        try:
            names.update(replica.names())
        except PowerCutError:
            raise
        except DiskError:
            pass
    return sorted(names)


def _gather(mirror: MirroredDisk, name: str) -> list[bytes | None]:
    values: list[bytes | None] = []
    for replica in mirror.replicas:
        try:
            values.append(replica.read(name))
        except PowerCutError:
            raise
        except DiskError:
            values.append(None)
    return values


def _rewrite(mirror: MirroredDisk, index: int, name: str, data: bytes) -> bool:
    replica = mirror.replicas[index]
    try:
        replica.write(name, data)
        replica.sync(name)
    except PowerCutError:
        raise
    except DiskError:
        return False
    return True


def scrub_mirrored_disk(
    mirror: MirroredDisk,
    verifier_for: Callable[[str], Verifier | None],
    repair: bool = True,
) -> ScrubReport:
    """One anti-entropy pass: verify every blob on every replica and
    heal what can be healed.  Never raises on damaged content; the
    report's ``unrepaired`` list is the caller's failure signal."""
    report = ScrubReport(replicas=len(mirror.replicas))
    for name in _union_names(mirror):
        values = _gather(mirror, name)
        verifier = verifier_for(name)
        if verifier is None:
            report.outcomes.append(_scrub_unverified(mirror, name, values, repair))
        else:
            report.outcomes.append(
                _scrub_verified(mirror, name, values, verifier, repair, report)
            )
    if HUB.enabled:
        HUB.tick()
        HUB.record("scrub.blobs", report.blobs_checked)
        HUB.record("scrub.repairs", report.repairs)
        HUB.record("scrub.unrepaired", len(report.unrepaired))
    AUDIT.emit(
        "scrub.report",
        blobs=report.blobs_checked,
        repairs=report.repairs,
        unrepaired=list(report.unrepaired),
        mac_verifications=report.mac_verifications,
    )
    return report


def _scrub_verified(
    mirror: MirroredDisk,
    name: str,
    values: list[bytes | None],
    verifier: Verifier,
    repair: bool,
    report: ScrubReport,
) -> BlobOutcome:
    verdicts: list[tuple[bool, tuple]] = []
    for value in values:
        if value is None:
            verdicts.append((False, ()))
        else:
            verdicts.append(verifier(value))
            report.mac_verifications += 1
    authentic = [i for i, (ok, _) in enumerate(verdicts) if ok]
    if not authentic:
        AUDIT.emit("scrub.unrepaired", blob=name)
        RECORDER.record_detection("unrepairable", blob=name, via="scrub")
        return BlobOutcome(
            name,
            OUTCOME_UNREPAIRED,
            detail="no replica holds an authentic copy",
        )
    best = max(verdicts[i][1] for i in authentic)
    electorate = [i for i in authentic if verdicts[i][1] == best]
    votes = Counter(values[i] for i in electorate)
    winner = votes.most_common(1)[0][0]
    bad = [i for i, value in enumerate(values) if value != winner]
    # MAC-invalid losers are *detections* (only deliberate tampering
    # defeats the MAC); missing or authentic-but-stale losers are normal
    # crash/flake residue and stay forensic breadcrumbs.
    invalid = {
        i for i in bad if values[i] is not None and not verdicts[i][0]
    }
    return _heal(mirror, name, winner, bad, repair, invalid=invalid)


def _scrub_unverified(
    mirror: MirroredDisk, name: str, values: list[bytes | None], repair: bool
) -> BlobOutcome:
    votes = Counter(v for v in values if v is not None)
    if not votes or votes.most_common(1)[0][1] < mirror.quorum:
        return BlobOutcome(
            name, OUTCOME_SKIPPED, detail="unverifiable blob without a majority"
        )
    winner = votes.most_common(1)[0][0]
    bad = [i for i, value in enumerate(values) if value != winner]
    return _heal(mirror, name, winner, bad, repair)


def _heal(
    mirror: MirroredDisk,
    name: str,
    winner: bytes,
    bad: list[int],
    repair: bool,
    invalid: set[int] = frozenset(),
) -> BlobOutcome:
    if not bad:
        return BlobOutcome(name, OUTCOME_OK)
    for index in sorted(invalid):
        RECORDER.record_detection("tamper", blob=name, replica=index, via="scrub")
    if not repair:
        return BlobOutcome(
            name, OUTCOME_DIVERGENT, detail=f"{len(bad)} replica(s) differ"
        )
    healed = tuple(i for i in bad if _rewrite(mirror, i, name, winner))
    for index in healed:
        AUDIT.emit("scrub.repair", blob=name, replica=index)
        if index not in invalid:
            RECORDER.note("scrub.freshness-repair", blob=name, replica=index)
    if HUB.enabled:
        for index in healed:
            HUB.event("scrub.repaired_replicas", labels={"replica": index})
    if len(healed) < len(bad):
        return BlobOutcome(
            name,
            OUTCOME_DIVERGENT,
            repaired_replicas=healed,
            detail=f"{len(bad) - len(healed)} replica(s) refused the rewrite",
        )
    return BlobOutcome(name, OUTCOME_REPAIRED, repaired_replicas=healed)


# -- entry points ------------------------------------------------------------


def scrub_database(
    mirror: MirroredDisk, mac: MAC, repair: bool = True
) -> ScrubReport:
    """Scrub a single :class:`~repro.durability.manager.DurableDatabase`
    home: its journal and checkpoint under one journal MAC.  The journal
    election is bounded by the newest MAC-authenticated checkpoint
    generation on any replica (see :func:`journal_verifier`)."""

    @functools.cache
    def checkpoint_bound() -> int | None:
        return _newest_generation(mirror, (CHECKPOINT_BLOB,), verifier_for)

    def blob_verifier(name: str) -> Verifier | None:
        if name == CHECKPOINT_BLOB:
            return checkpoint_verifier(mac)
        if name == JOURNAL_BLOB:
            return lambda data: journal_verifier(mac, checkpoint_bound())(data)
        return None

    verifier_for = _one_verdict_per_copy(blob_verifier)
    return scrub_mirrored_disk(mirror, verifier_for, repair=repair)


def scrub_keyspace(
    mirror: MirroredDisk, chain: KeyChain, repair: bool = True
) -> ScrubReport:
    """Scrub a :class:`~repro.sharding.keyspace.ShardedKeyspace` home:
    the cross-shard manifest plus every shard's journal, checkpoint,
    and staged rotation checkpoint, probing each blob under every
    chain epoch (rotation may be mid-flight).  Each shard's journal
    election is bounded by that shard's newest MAC-authenticated
    checkpoint generation — installed or staged — on any replica."""

    @functools.cache
    def shard_bound(prefix: str) -> int | None:
        names = (f"{prefix}.{CHECKPOINT_BLOB}", f"{prefix}.{CHECKPOINT_NEXT}")
        return _newest_generation(mirror, names, verifier_for)

    def blob_verifier(name: str) -> Verifier | None:
        if name == MANIFEST_BLOB:
            return manifest_verifier(chain)
        if "." not in name:
            return None
        prefix, _, blob = name.partition(".")
        if not (prefix.startswith("s") and prefix[1:].isdigit()):
            return None
        if blob == CHECKPOINT_BLOB:
            return _epoch_sweep(chain, prefix, checkpoint_verifier)
        if blob == JOURNAL_BLOB:
            return _epoch_sweep(
                chain,
                prefix,
                lambda mac: journal_verifier(mac, shard_bound(prefix)),
            )
        if blob == CHECKPOINT_NEXT:
            # Staged under the *target* epoch; authentic under any epoch
            # is good enough — install re-verifies at mount.
            return _epoch_sweep(chain, prefix, checkpoint_verifier)
        return None

    verifier_for = _one_verdict_per_copy(blob_verifier)
    return scrub_mirrored_disk(mirror, verifier_for, repair=repair)
