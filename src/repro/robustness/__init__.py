"""Robustness under active corruption of the untrusted store.

The paper's adversary "can copy or modify" the storage image (Sect. 1);
this package turns that sentence into an engineering discipline:

* :mod:`repro.robustness.faults` — a deterministic, seed-driven fault
  injector over storage images.  Every fault is a named, replayable
  :class:`~repro.robustness.faults.FaultSpec`.
* :mod:`repro.robustness.recovery` — a resilient loader that quarantines
  undecodable records instead of crashing, rebuilds broken indexes from
  surviving authenticated cells, and reports every decision in a
  :class:`~repro.robustness.recovery.RecoveryReport`.
* :mod:`repro.robustness.campaign` — a campaign runner sweeping seeded
  faults across every scheme configuration and emitting the detection
  matrix that quantifies the paper's §3.1/§3.2 forgery claims.
"""

from repro.robustness.faults import (
    FAULT_KINDS,
    FaultSpec,
    ImageMap,
    PayloadSpan,
    RecordSpan,
    map_image,
    plan_fault,
    plan_faults,
)
from repro.robustness.recovery import (
    RecoveryReport,
    RecoveryResult,
    load_database_resilient,
)
from repro.robustness.campaign import (
    CAMPAIGN_OUTCOMES,
    FaultOutcome,
    default_campaign_configs,
    run_campaign,
)

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "ImageMap",
    "PayloadSpan",
    "RecordSpan",
    "map_image",
    "plan_fault",
    "plan_faults",
    "RecoveryReport",
    "RecoveryResult",
    "load_database_resilient",
    "CAMPAIGN_OUTCOMES",
    "FaultOutcome",
    "default_campaign_configs",
    "run_campaign",
]
