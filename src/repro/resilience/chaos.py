"""The unified chaos campaign: everything bad, on one seeded schedule.

The three existing campaigns each stress one failure axis in isolation
(`faultcampaign` — tampered bytes, `crashcampaign` — mid-write power
cuts, the rotation campaign — mid-protocol cuts).  The chaos campaign
composes the axes the way production does: per configuration it drives
one sharded keyspace on an N-way :class:`~repro.resilience.replica.MirroredDisk`
(each replica optionally behind its own flaky/retrying wrapper stack)
through a seeded schedule interleaving

* **inserts** (acknowledged only when the mirrored, synced journal
  append succeeds — the oracle set),
* **checkpoints** and **online key rotations**,
* **whole-host crashes** (every replica drops to durable state, some
  losing their write cache) followed by a full remount,
* **single-replica corruptions** (bitflip or torn truncation of one
  MAC'd blob on exactly one replica),
* **anti-entropy scrubs** (:mod:`repro.resilience.scrub`), and
* **rollbacks**: every replica restored in lockstep to an earlier
  durable snapshot — the one failure replication cannot vote away —
  which the next mount must refuse with
  :class:`~repro.errors.StaleImageError`.

Crashes land *between* logical operations; the per-write-boundary
interleavings inside one operation remain the crash campaign's job.

The invariants asserted per configuration:

1. **no acknowledged commit is ever lost** — after every remount the
   keyspace holds every acknowledged row (and, for round-tripping
   schemes, answers point queries for each of them);
2. **every rollback is detected** — each injected rollback raises
   ``StaleImageError``; an undetected rollback is a violation;
3. **every repairable corruption is repaired** — scrubs report zero
   unrepairable blobs, and at the end of the run all replicas hold
   byte-identical state.

A forced tail closes every run: a rollback (after one checkpoint when
nothing advanced since the last snapshot, so an older state exists) and
a corruption if the schedule drew none, then a scrub, a crash and the
final checks.  ``tests/resilience/test_chaos_machine.py`` drives the
same events from a hypothesis state machine, so a failing schedule
shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.encrypted_db import EncryptionConfig
from repro.core.keys import KeyChain
from repro.errors import DiskError, StaleImageError, TransientDiskError
from repro.observability.flightrecorder import RECORDER
from repro.primitives.rng import DeterministicRandom

from repro.durability.crashcampaign import (
    _CRASH_MASTER_KEY,
    _round_trips,
    _row_values,
)
from repro.durability.retry import RetryingDisk, RetryPolicy
from repro.durability.vdisk import FlakyDisk, MemoryDisk, VirtualDisk
from repro.resilience.anchor import MemoryAnchor
from repro.resilience.replica import MirroredDisk
from repro.resilience.scrub import scrub_keyspace
from repro.robustness.campaign import default_campaign_configs
from repro.robustness.reporting import CampaignMatrix, ConfigOutcome
from repro.sharding.campaign import _seed_keyspace
from repro.sharding.keyspace import ShardedKeyspace

#: Event kinds with their schedule weights.  Inserts dominate (they
#: grow the oracle the other events must preserve); rollbacks and
#: rotations are rare but guaranteed by the forced tail of every run.
_EVENT_WEIGHTS = (
    ("insert", 38),
    ("checkpoint", 10),
    ("crash", 12),
    ("corrupt", 10),
    ("scrub", 10),
    ("rollback", 6),
    ("rotate", 4),
    ("verify", 10),
)

_MAX_ROTATIONS = 2

_ROTATION_KEYS = (
    b"chaoscampaign-rotated-key-000001",
    b"chaoscampaign-rotated-key-000002",
)

#: MAC-verified blob suffixes — the corruption targets.  Unverifiable
#: staging blobs are excluded: a torn ``*.tmp`` is not repairable from
#: a MAC and not load-bearing either.
_CORRUPTIBLE_SUFFIXES = ("checkpoint", "wal", "manifest", "checkpoint.next")


@dataclass
class ConfigChaosResult(ConfigOutcome):
    """Chaos outcome for one scheme configuration."""

    COLUMNS = (
        ("events", "events"),
        ("acked", "inserts_acked"),
        ("crashes", "crashes"),
        ("corruptions", "corruptions"),
        ("repairs", "repairs"),
        ("rollbacks", "rollbacks_injected"),
        ("detected", "rollbacks_detected"),
        ("rotations", "rotations"),
        ("scrubs", "scrubs"),
    )

    events: int = 0
    inserts_acked: int = 0
    inserts_unacked: int = 0
    crashes: int = 0
    corruptions: int = 0
    repairs: int = 0
    rollbacks_injected: int = 0
    rollbacks_detected: int = 0
    rotations: int = 0
    scrubs: int = 0
    flaky_failures: int = 0


class _ChaosRun:
    """One configuration's run: the live keyspace plus its oracle."""

    def __init__(
        self,
        label: str,
        config: EncryptionConfig,
        rng: DeterministicRandom,
        shard_count: int,
        replicas: int,
        flaky: bool,
        result: ConfigChaosResult,
    ) -> None:
        self.label = label
        self.config = config
        self.rng = rng
        self.shard_count = shard_count
        self.replica_count = replicas
        self.flaky = flaky
        self.result = result
        self.include_queries = _round_trips(config, _CRASH_MASTER_KEY)
        self.chain = KeyChain.single(_CRASH_MASTER_KEY)
        self.anchor = MemoryAnchor()
        self.acked: list[tuple[int, list]] = []  # (id value, full row)
        self.next_row = 0
        self.checkpoints = 0
        #: Blobs corrupted since the last scrub (blob -> replica index):
        #: a second corruption of the same blob on another replica could
        #: make it genuinely unrepairable, which is not this campaign's
        #: contract.
        self.outstanding: dict[str, int] = {}
        #: Open flight-recorder tamper injections: (injection id, blob,
        #: replica index, the corrupt bytes as written).  Swept against
        #: current replica bytes to resolve injections that a remount's
        #: read-repair or a freshness heal removed before any MAC-level
        #: detector could grade them.
        self.live_injections: list[tuple[str, str, int, bytes]] = []
        #: Durable snapshots for rollback injection: (progress marker,
        #: per-replica durable state).
        self.history: list[tuple[int, list[dict[str, bytes]]]] = []
        self.bases: list[MemoryDisk] = []
        self.mirror: MirroredDisk | None = None
        self.keyspace: ShardedKeyspace | None = None

    # -- plumbing --------------------------------------------------------------

    def _progress(self) -> int:
        """Monotonic progress marker: any durable advance since a
        snapshot makes a rollback to that snapshot detectable."""
        return len(self.acked) + self.checkpoints + self.result.rotations

    def _wrap(self, base: MemoryDisk, replica: int) -> VirtualDisk:
        if not self.flaky:
            return base
        flaky = FlakyDisk(
            base,
            self.rng.fork(f"flaky-{self.label}-{replica}-{self.result.crashes}"),
            fail_rate=0.05,
        )
        policy = RetryPolicy(
            deadline=120.0,
            rng=self.rng.fork(f"retry-{self.label}-{replica}-{self.result.crashes}"),
        )
        self._flaky_disks.append(flaky)
        return RetryingDisk(flaky, policy)

    def _build(self, states: list[dict[str, bytes]] | None) -> None:
        self._flaky_disks: list[FlakyDisk] = []
        self.bases = [
            MemoryDisk(states[i]) if states is not None else MemoryDisk()
            for i in range(self.replica_count)
        ]
        self.mirror = MirroredDisk(
            [self._wrap(base, i) for i, base in enumerate(self.bases)]
        )

    def _harvest_flaky(self) -> None:
        self.result.flaky_failures += sum(
            disk.failures_injected for disk in self._flaky_disks
        )

    def _mount(self) -> None:
        self.keyspace = ShardedKeyspace.open(
            self.mirror,
            self.chain,
            self.config,
            shard_count=self.shard_count,
            workers=1,
            anchor=self.anchor,
        )

    def _snapshot(self) -> list[dict[str, bytes]]:
        return [base.durable_state() for base in self.bases]

    def _violation(self, message: str) -> None:
        self.result.violations.append(f"{self.label}: {message}")

    def _sweep_superseded(self, reason: str) -> None:
        """Resolve tracked tamper injections whose corrupt bytes are no
        longer on the replica: a remount's read-repair or a freshness
        heal overwrote them before a MAC verdict graded them, so they
        leave the detectable denominator instead of counting as misses."""
        remaining: list[tuple[str, str, int, bytes]] = []
        for inj_id, name, replica, corrupt in self.live_injections:
            try:
                current: bytes | None = self.bases[replica].read(name)
            except DiskError:
                current = None
            if current != corrupt:
                RECORDER.resolve_injection(
                    inj_id, reason, blob=name, replica=replica
                )
            else:
                remaining.append((inj_id, name, replica, corrupt))
        self.live_injections = remaining

    # -- oracle ----------------------------------------------------------------

    def verify(self, where: str) -> None:
        count = self.keyspace.count("people")
        low = len(self.acked)
        high = low + self.result.inserts_unacked
        if not low <= count <= high:
            self._violation(
                f"{where}: keyspace holds {count} row(s), oracle "
                f"acknowledges {low} (plus at most "
                f"{self.result.inserts_unacked} unacknowledged)"
            )
            return
        if not self.include_queries:
            return
        for id_value, row in self.acked:
            answers = self.keyspace.select_equals("people", "id", id_value)
            if not any(answer[2] == row for answer in answers):
                self._violation(
                    f"{where}: acknowledged row id={id_value} lost or changed"
                )
                return  # one lost row is enough evidence

    # -- events ----------------------------------------------------------------

    def start(self) -> None:
        self._build(None)
        self._mount()
        _seed_keyspace(self.keyspace, 2)
        for i in range(2):
            self.acked.append((i, _row_values(i)))
        self.next_row = 2
        self.checkpoints += 1  # _seed_keyspace folds once
        self.history.append((self._progress(), self._snapshot()))

    def event_insert(self) -> None:
        RECORDER.tick()
        row = _row_values(self.next_row)
        self.next_row += 1
        try:
            self.keyspace.insert("people", row)
        except (TransientDiskError, DiskError):
            # The mirror lost its quorum for this write: the commit is
            # *not* acknowledged, but a minority of replicas may hold
            # the journal record — the oracle tolerates the extra row.
            self.result.inserts_unacked += 1
            return
        self.acked.append((row[0], row))
        self.result.inserts_acked += 1

    def event_checkpoint(self) -> None:
        RECORDER.tick()
        self.keyspace.checkpoint()
        self.checkpoints += 1

    def event_crash(self) -> None:
        RECORDER.tick()
        self.result.crashes += 1
        RECORDER.record_injection(
            "crash", config=self.label, crash=self.result.crashes
        )
        self._harvest_flaky()
        for base in self.bases:
            base.crash(drop_unsynced=bool(self.rng.randint(2)))
        states = [base.durable_state() for base in self.bases]
        self._build(states)
        try:
            self._mount()
        except StaleImageError as exc:
            self._violation(f"honest crash remount raised StaleImageError: {exc}")
            raise
        self.outstanding.clear()  # remount read-repairs what it touches
        self.verify(f"after crash {self.result.crashes}")
        # The remount's WAL replay + oracle check *is* the detection:
        # the crash was noticed and recovered, not silently absorbed.
        RECORDER.record_detection(
            "crash", config=self.label, crash=self.result.crashes, via="remount"
        )
        self._sweep_superseded("read-repaired")
        self.history.append((self._progress(), self._snapshot()))

    def event_corrupt(self) -> None:
        RECORDER.tick()
        replica = self.rng.randint(self.replica_count)
        base = self.bases[replica]
        targets = [
            name
            for name in base.names()
            if name.endswith(_CORRUPTIBLE_SUFFIXES) and name not in self.outstanding
        ]
        if not targets:
            return
        name = targets[self.rng.randint(len(targets))]
        blob = bytearray(base.read(name))
        if self.rng.randint(2) and len(blob) > 1:
            mode = "torn"
            corrupt = bytes(blob[: (len(blob) + 1) // 2])
        else:
            mode = "bitflip"
            blob[self.rng.randint(len(blob))] ^= 1 + self.rng.randint(255)
            corrupt = bytes(blob)
        base.write(name, corrupt)
        base.sync(name)
        self.outstanding[name] = replica
        self.result.corruptions += 1
        injection = RECORDER.record_injection(
            "tamper", blob=name, replica=replica, mode=mode, config=self.label
        )
        self.live_injections.append((injection, name, replica, corrupt))

    def event_scrub(self) -> None:
        RECORDER.tick()
        # Injections a remount already healed were never scrubbable.
        self._sweep_superseded("read-repaired")
        before = self.mirror.read_repairs
        report = scrub_keyspace(self.mirror, self.chain)
        self.result.scrubs += 1
        self.result.repairs += report.repairs + (self.mirror.read_repairs - before)
        if not report.ok:
            self._violation(
                f"scrub left unrepairable blob(s): {', '.join(report.unrepaired)}"
            )
        # Whatever the scrub overwrote without a MAC-invalid verdict was
        # healed by the freshness election (a damaged journal tail is
        # indistinguishable from an honest torn write — wal salvage
        # semantics, not a MAC break), so it leaves the denominator.
        self._sweep_superseded("freshness-healed")
        for inj_id, name, replica, _ in self.live_injections:
            if name.endswith("wal"):
                RECORDER.resolve_injection(
                    inj_id, "torn-tail-salvage", blob=name, replica=replica
                )
        # The scrub is the detector of record: anything else still open
        # here was a genuine miss and must stay open in the record
        # stream, where the scorecard gate will flag it.
        self.live_injections = []
        self.outstanding.clear()

    def event_rollback(self) -> None:
        RECORDER.tick()
        candidates = [
            states
            for marker, states in self.history
            if marker < self._progress()
        ]
        if not candidates:
            return
        target = candidates[self.rng.randint(len(candidates))]
        current = self._snapshot()
        self.result.rollbacks_injected += 1
        # Ground truth before the attack: the anchor's raise (a
        # ``rollback`` detection record) must close this injection, or
        # the scorecard gate fails exactly where the campaign would.
        RECORDER.record_injection(
            "rollback", config=self.label, rollback=self.result.rollbacks_injected
        )
        self._build([dict(state) for state in target])
        try:
            self._mount()
        except StaleImageError:
            self.result.rollbacks_detected += 1
        else:
            self._violation(
                "rollback to an earlier snapshot mounted without "
                "StaleImageError"
            )
        # Undo the attack and carry on from the pre-rollback state.
        self._build(current)
        self._mount()
        self.verify(f"after rollback {self.result.rollbacks_injected}")
        self._sweep_superseded("read-repaired")

    def event_rotate(self) -> None:
        RECORDER.tick()
        if self.result.rotations >= _MAX_ROTATIONS:
            return
        self.keyspace.rotate(_ROTATION_KEYS[self.result.rotations])
        self.result.rotations += 1

    def finish(self) -> None:
        # The headline invariants must never be vacuous: if the weighted
        # draw produced no rollback or no corruption, inject one now so
        # every run proves detection and repair, not just survival.
        if self.result.rollbacks_injected == 0:
            if all(marker >= self._progress() for marker, _ in self.history):
                # Nothing advanced since the last snapshot: advance once,
                # so the forced rollback has an older state to restore.
                self.event_checkpoint()
            self.event_rollback()
        if self.result.corruptions == 0:
            self.event_corrupt()
        self.event_scrub()
        self.event_crash()
        self.verify("final")
        self._harvest_flaky()
        # Anti-entropy must have converged the replicas byte-for-byte.
        views = [
            {name: base.read(name) for name in base.names()}
            for base in self.bases
        ]
        if any(view != views[0] for view in views[1:]):
            self._violation("replicas diverge after the final scrub")
        if self.flaky and self.result.flaky_failures == 0:
            self._violation("flaky wrappers injected no failures — vacuous run")
        if self.result.rollbacks_injected == 0:
            self._violation("schedule injected no rollback — vacuous run")
        if self.result.corruptions == 0:
            self._violation("schedule injected no corruption — vacuous run")


def _pick_event(rng: DeterministicRandom) -> str:
    total = sum(weight for _, weight in _EVENT_WEIGHTS)
    draw = rng.randint(total)
    for kind, weight in _EVENT_WEIGHTS:
        draw -= weight
        if draw < 0:
            return kind
    return _EVENT_WEIGHTS[0][0]  # pragma: no cover - weights sum exactly


def run_chaos_campaign(
    steps: int = 60,
    seed: int = 0,
    shard_count: int = 2,
    replicas: int = 3,
    flaky: bool = True,
    configs: list[tuple[str, EncryptionConfig]] | None = None,
) -> CampaignMatrix:
    """Run the seeded chaos schedule once per configuration.

    ``steps`` scheduled events are drawn per configuration from the
    weighted taxonomy; a forced tail (scrub, crash + remount, final
    verification, convergence check) closes every run so the headline
    invariants are exercised even on tiny schedules.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    if replicas < 2:
        raise ValueError("a mirrored campaign needs at least two replicas")
    configs = configs if configs is not None else default_campaign_configs()
    wrappers = "flaky+retrying replicas" if flaky else "bare replicas"
    campaign = CampaignMatrix(
        ConfigChaosResult,
        f"chaos campaign ({steps} scheduled events, seed {seed}, "
        f"{replicas} {wrappers}, {shard_count} shards per configuration)",
    )
    for label, config in configs:
        result = campaign.add(label)
        rng = DeterministicRandom(f"chaoscampaign-{seed}".encode()).fork(label)
        run = _ChaosRun(label, config, rng, shard_count, replicas, flaky, result)
        run.start()
        handlers = {
            "insert": run.event_insert,
            "checkpoint": run.event_checkpoint,
            "crash": run.event_crash,
            "corrupt": run.event_corrupt,
            "scrub": run.event_scrub,
            "rollback": run.event_rollback,
            "rotate": run.event_rotate,
            "verify": lambda: run.verify("scheduled check"),
        }
        for _ in range(steps):
            result.events += 1
            handlers[_pick_event(rng)]()
        run.finish()
    return campaign
