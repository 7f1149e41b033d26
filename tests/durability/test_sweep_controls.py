"""Negative controls: the write-boundary sweep reports what it must.

Each toy workload writes blobs to a bare ``MemoryDisk`` and recovers to
the survivor's durable bytes.  All but the first break one promise the
sweep checks — an atomic step, a recovery that never raises, a
deterministic boundary count, audit neutrality — and the sweep must
report exactly that as a violation instead of passing or raising.
"""

from repro.durability.crashcampaign import SweepOutcome, SweepWorkload, sweep
from repro.observability.audit import AUDIT


class _Toy(SweepWorkload):
    """One logical step that writes and syncs each blob of ``blobs()``."""

    BLOBS = ("a",)

    def __init__(self):
        super().__init__(SweepOutcome(config="toy"))

    def blobs(self):
        return self.BLOBS

    def run(self, disk, mark=None):
        mark = mark or (lambda label: None)
        mark("empty")
        for name in self.blobs():
            disk.write(name, name.encode() * 8)
            disk.sync(name)
        mark("written")

    def recover(self, survivor):
        state = survivor.durable_state()
        return state, state


def test_an_atomic_step_passes():
    outcome = sweep(_Toy(), None, ("cut", "drop"))
    assert outcome.violations == []
    assert outcome.boundaries == 2
    assert outcome.trials == 4
    assert outcome.recovered_pre == 3 and outcome.recovered_post == 1


class _TwoBlobs(_Toy):
    BLOBS = ("a", "b")


def test_two_writes_in_one_step_are_reported_as_hybrids():
    outcome = sweep(_TwoBlobs(), None, ("cut",))
    hybrids = [v for v in outcome.violations if "hybrid" in v]
    # A cut after blob a reached the disk, before blob b did.
    assert len(hybrids) == 2
    assert all(v.startswith("toy: crash at boundary ") for v in hybrids)
    assert outcome.trials == 4
    assert outcome.recovered_pre + outcome.recovered_post == 2


class _TornIntolerant(_Toy):
    """A recovery that cannot read a half-written blob."""

    def recover(self, survivor):
        state = survivor.durable_state()
        if any(data != name.encode() * 8 for name, data in state.items()):
            raise ValueError("torn blob")
        return state, state


def test_a_raising_recovery_is_a_violation_not_an_exception():
    outcome = sweep(_TornIntolerant(), None, ("torn",))
    assert outcome.trials == 1
    assert outcome.violations == [
        "toy: recovery raised after crash at boundary 0 (torn, write): "
        "ValueError: torn blob"
    ]


class _Shrinking(_TwoBlobs):
    """Writes both blobs on its reference run, only blob a afterwards."""

    runs = 0

    def blobs(self):
        self.runs += 1
        return self.BLOBS if self.runs == 1 else self.BLOBS[:1]


def test_a_crash_point_the_rerun_never_reaches_is_reported():
    outcome = sweep(_Shrinking(), None, ("cut",))
    never = [v for v in outcome.violations if "never fired" in v]
    assert never == [
        "toy: planned crash at boundary 2 (cut, write) never fired",
        "toy: planned crash at boundary 3 (cut, sync) never fired",
    ]
    assert outcome.trials == 2


class _AuditTrail(_Toy):
    """Writes one more blob whenever audit hooks are on."""

    def blobs(self):
        return self.BLOBS + (("audit",) if AUDIT.enabled else ())


def test_bytes_that_depend_on_audit_hooks_are_reported():
    was_enabled = AUDIT.enabled
    outcome = sweep(_AuditTrail(), None, ("cut",))
    assert AUDIT.enabled == was_enabled
    assert outcome.violations == [
        "toy: enabling audit hooks changed the stored bytes"
    ]
