"""The chaos campaign's events as a hypothesis state machine.

The seeded campaign draws its schedule from fixed weights, so a failing
schedule cannot shrink.  Here hypothesis picks the events of one chaos
run — inserts, checkpoints, whole-host crashes, single-replica
corruptions, scrubs, lockstep rollbacks and online rotations — checks
the run's oracle after every step, and ends with the campaign's forced
tail, so any failure shrinks to a minimal schedule.  The keyspace has
no delete, so neither does the machine.  Replicas are bare: the flaky
wrappers' vacuity check needs a schedule long enough to hit a fault.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.primitives.rng import DeterministicRandom
from repro.resilience.chaos import ConfigChaosResult, _ChaosRun, run_chaos_campaign
from repro.robustness.campaign import default_campaign_configs

CONFIGS = default_campaign_configs()


class ChaosMachine(RuleBasedStateMachine):
    def __init__(self, label, config):
        super().__init__()
        self.result = ConfigChaosResult(config=label)
        self.run = _ChaosRun(
            label,
            config,
            DeterministicRandom(b"chaos-machine").fork(label),
            shard_count=2,
            replicas=3,
            flaky=False,
            result=self.result,
        )
        self.run.start()

    @rule()
    def insert(self):
        self.run.event_insert()

    @rule()
    def checkpoint(self):
        self.run.event_checkpoint()

    @rule()
    def crash(self):
        self.run.event_crash()

    @rule()
    def corrupt(self):
        self.run.event_corrupt()

    @rule()
    def scrub(self):
        self.run.event_scrub()

    @rule()
    def rollback(self):
        self.run.event_rollback()

    @rule()
    def rotate(self):
        self.run.event_rotate()

    @invariant()
    def verify(self):
        self.run.verify("invariant")
        assert self.result.violations == []

    def teardown(self):
        self.run.finish()
        assert self.result.violations == []


@pytest.mark.parametrize(
    "label, config", CONFIGS, ids=[label for label, _ in CONFIGS]
)
def test_every_event_schedule_keeps_the_chaos_invariants(label, config):
    run_state_machine_as_test(
        lambda: ChaosMachine(label, config),
        settings=settings(
            max_examples=5,
            stateful_step_count=12,
            deadline=None,
            derandomize=True,
        ),
    )


def test_a_schedule_without_progress_still_proves_a_rollback():
    """The machine's shrunk failure, start() then the forced tail: with
    nothing advanced since the seed snapshot, the forced rollback must
    checkpoint first instead of finding nothing older to restore."""
    result = run_chaos_campaign(steps=1, seed=1, configs=[CONFIGS[0]])
    assert result.ok, result.violations
    (per,) = result.per_config
    assert per.rollbacks_injected == 1
    assert per.rollbacks_detected == 1
