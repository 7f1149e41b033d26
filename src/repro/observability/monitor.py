"""The ``repro monitor`` driver: workloads under the telemetry hub.

Runs any bench scenario — or the rotation-under-faults campaign — with
the :data:`~repro.observability.timeseries.HUB` collecting labeled
time-series and a :class:`~repro.observability.health.HealthEngine`
evaluating the rule set against them, then emits a schema-validated
``HEALTH.json``:

* per-shard / per-scheme / per-config labeled series (deterministic
  samples only — wall-clock-derived series are volatile and never enter
  the report, so two same-seed runs produce byte-identical documents
  modulo the ``meta`` block);
* the rule table with per-rule fired counts;
* the fired alerts, and an overall ``ok`` verdict.

Fault injection (``inject=("cipher-miscount",)`` /
``--inject cipher-miscount``) exists so the *negative* path is testable:
a simulated Sect. 4 accounting bug or WAL fallback must fire its rule —
a health monitor whose alarms have never rung is untested wiring.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Sequence

from repro.observability.audit import AUDIT
from repro.observability.health import (
    HealthEngine,
    Rule,
    SEVERITY_CRITICAL,
    ThresholdRule,
    default_rules,
)
from repro.observability.leakmon import LeakMonitor
from repro.observability.metrics import REGISTRY
from repro.observability.profile import build_query_profiles
from repro.observability.runmeta import run_metadata
from repro.observability.timeseries import HUB, TelemetryHub, scheme_label
from repro.observability.trace import TRACER

HEALTH_SCHEMA = "repro-health/1"

#: The pseudo-scenario driving the rotation-under-faults campaign
#: (``crashcampaign --phases rotation``) instead of a bench runner.
CAMPAIGN_SCENARIO = "rotation_campaign"

#: Scenarios whose *job* is crashing and replaying: the WAL replay rule
#: would alert on the behaviour under test, so it is dropped for them.
REPLAY_SCENARIOS = frozenset({CAMPAIGN_SCENARIO, "wal_replay", "fault_recovery"})

#: Scenarios where checkpoint/journal damage — and so recovery fallback
#: — is deliberately induced.
FALLBACK_SCENARIOS = frozenset({CAMPAIGN_SCENARIO, "fault_recovery"})

#: Supported fault injections (see module docstring).
INJECTIONS = ("cipher-miscount", "wal-fallback")

#: Cipher calls a simulated Sect. 4 accounting bug adds to the drift.
_MISCOUNT_DRIFT = 7

#: Leak-monitor counters that measure *structural* leakage: ciphertext
#: collisions an adversary can exploit without any key.  Two estimators
#: are deliberately excluded because they measure the workload, not the
#: scheme, under monitored multi-database scenarios:
#: ``access_pattern`` (repeated queries trace identically under every
#: scheme, including the fixed AEADs) and ``cell_forgery`` (shards and
#: rotation clones share ``(table, row, col)`` addresses, so one
#: shard's legitimate write looks like tampering at its sibling's
#: address — forgery stays covered by the offline ``analysis.leakage``
#: probes and the single-database ``audit --live`` cross-validation).
STRUCTURAL_LEAK_COUNTERS = (
    "leak.equality.collisions",
    "leak.prefix.collisions",
    "leak.frequency.repeats",
    "leak.index_linkage.collisions",
)


def config_slug(label: str, config) -> str:
    """The CLI slug for a campaign configuration label (``aead-eax``,
    ``dbsec2005``, …); falls back to the cell-scheme label."""
    # Imported lazily: the campaign module imports the observability
    # package, which imports this module.
    from repro.robustness.campaign import CAMPAIGN_CONFIGS

    for slug, (campaign_label, _) in CAMPAIGN_CONFIGS.items():
        if campaign_label == label:
            return slug
    return scheme_label(config)


def monitor_scenarios() -> list[str]:
    """Every scenario name ``run_monitor`` accepts, in reporting order."""
    from repro.bench.scenarios import SCENARIOS

    return list(SCENARIOS) + [CAMPAIGN_SCENARIO]


def default_monitor_configs() -> list[tuple[str, object]]:
    """The default monitored configuration: the fixed AEAD (EAX) —
    healthy code must hold every budget on it."""
    from repro.core.encrypted_db import EncryptionConfig

    return [("fixed AEAD (EAX)", EncryptionConfig.paper_fixed("eax"))]


def _sect4_drift(result) -> int:
    """Accumulated |measured − predicted| cipher calls: per-query
    profiles where the Sect. 4 predictor applies, plus the scenario's
    own paper check when it ran one."""
    drift = 0
    for profile in build_query_profiles(TRACER.finished()):
        check = profile.formula_check()
        if check.get("applicable"):
            drift += abs(
                check["measured_cipher_calls"] - check["predicted_cipher_calls"]
            )
    paper_check = getattr(result, "paper_check", None)
    if paper_check is not None:
        drift += abs(
            int(paper_check["predicted_cipher_calls"])
            - int(paper_check["measured_cipher_calls"])
        )
    return drift


def _structural_leaks(leakmon: LeakMonitor) -> int:
    counters = leakmon.registry.counters()
    return sum(counters.get(name, 0) for name in STRUCTURAL_LEAK_COUNTERS)


def _campaign_rules() -> list[Rule]:
    return [
        ThresholdRule(
            "rotation-violations",
            "rotation.campaign.violations",
            ">",
            0,
            severity=SEVERITY_CRITICAL,
        )
    ]


def _run_campaign(label, config, quick: bool, limit: int | None):
    from repro.sharding.campaign import run_rotation_campaign

    result = run_rotation_campaign(
        rows=3 if quick else 4,
        shard_count=2,
        limit=limit if limit is not None else (24 if quick else 60),
        configs=[(label, config)],
    )
    sweep = result.per_config[0]
    return {
        "ops": sweep.trials,
        "paper_ok": result.ok,
        "detail": {
            "trials": sweep.trials,
            "rotation_boundaries": sweep.rotation_boundaries,
            "recovered_pre": sweep.recovered_pre,
            "recovered_post": sweep.recovered_post,
            "rollbacks": sweep.rollbacks,
            "rollforwards": sweep.rollforwards,
            "violations": list(sweep.violations),
        },
    }


def _scenario_supported(scenario: str, config) -> bool:
    """Typed-read scenarios cannot run against lossy codecs.  Probed
    *before* the audit tap is attached: the probe inserts the same
    seeded row the scenario will, and its deterministic ciphertext
    would alias into the leak sketches as a collision."""
    from repro.bench.scenarios import REQUIRES_TYPED_READS, supports_typed_reads

    return scenario not in REQUIRES_TYPED_READS or supports_typed_reads(config)


def _run_bench_scenario(scenario: str, label, config, quick: bool):
    from repro.bench.scenarios import SCENARIOS, SizeProfile

    sizes = SizeProfile.quick() if quick else SizeProfile.full()
    result = SCENARIOS[scenario](label, config, sizes)
    if result.skipped:
        return None
    return result


def run_monitor(
    scenario: str = "shard_rotation",
    config_items: Sequence[tuple[str, object]] | None = None,
    quick: bool = False,
    baseline: dict | None = None,
    extra_rules: Sequence[Rule] | None = None,
    inject: Sequence[str] = (),
    limit: int | None = None,
    follow: Callable[[int, TelemetryHub], None] | None = None,
    hub: TelemetryHub = HUB,
) -> dict:
    """Drive one scenario across configurations under the hub; return
    the JSON-ready health document (see :func:`validate_health_report`).
    """
    from repro import observability
    from repro.engine.codec import uncached

    scenarios = monitor_scenarios()
    if scenario not in scenarios:
        raise ValueError(
            f"unknown scenario {scenario!r}; available: {', '.join(scenarios)}"
        )
    for fault in inject:
        if fault not in INJECTIONS:
            raise ValueError(
                f"unknown injection {fault!r}; available: {', '.join(INJECTIONS)}"
            )
    items = list(config_items) if config_items else default_monitor_configs()

    rules = default_rules(
        baseline=baseline,
        allow_replay=scenario in REPLAY_SCENARIOS,
        allow_fallback=scenario in FALLBACK_SCENARIOS,
    )
    if scenario == CAMPAIGN_SCENARIO:
        rules.extend(_campaign_rules())
    rules.extend(extra_rules or [])
    engine = HealthEngine(rules)

    was_enabled = observability.enabled()
    hub.reset()
    hub.enable()
    hub.on_tick = follow
    observability.enable()
    config_reports = []
    try:
        for label, config in items:
            slug = config_slug(label, config)
            base = {"scenario": scenario, "scheme": slug, "config": label}
            hub.clear_sources()
            observability.reset()
            if not _scenario_supported(scenario, config):
                config_reports.append(
                    {
                        "config": label,
                        "scheme": slug,
                        "skipped": "scheme cannot round-trip typed reads",
                    }
                )
                continue

            # The leak estimators are per-database-instance sketches; the
            # crash campaign deterministically replays one workload over
            # hundreds of fresh instances, so cross-trial digest repeats
            # would measure the replay harness, not the scheme.  Leakage
            # budgets are enforced on the single-instance scenarios.
            attach_leakmon = scenario != CAMPAIGN_SCENARIO
            leakmon = LeakMonitor()
            AUDIT.reset()
            if attach_leakmon:
                AUDIT.subscribe(leakmon.feed)
                AUDIT.enable(timestamps=False)
            try:
                # Sample the paper's cold per-query cost: no index entry
                # or cell is remembered between decodes.
                if scenario == CAMPAIGN_SCENARIO:
                    with uncached():
                        outcome = _run_campaign(label, config, quick, limit)
                else:
                    with uncached():
                        result = _run_bench_scenario(scenario, label, config, quick)
                    if result is None:
                        config_reports.append(
                            {
                                "config": label,
                                "scheme": slug,
                                "skipped": "scheme cannot round-trip typed reads",
                            }
                        )
                        continue
                    outcome = {
                        "ops": result.ops,
                        "paper_ok": result.ok,
                        "detail": None,
                    }
                    drift = _sect4_drift(result)
            finally:
                if attach_leakmon:
                    AUDIT.unsubscribe(leakmon.feed)
                AUDIT.reset()

            if scenario == CAMPAIGN_SCENARIO:
                drift = _sect4_drift(None)
            if "cipher-miscount" in inject:
                drift += _MISCOUNT_DRIFT
            if "wal-fallback" in inject:
                hub.event("wal.fallback.events", 1, labels=base)

            hub.tick()
            hub.sample_registry(REGISTRY, labels=base)
            hub.record("sect4.drift", drift, labels=base)
            if attach_leakmon:
                hub.record(
                    "leak.structural",
                    _structural_leaks(leakmon),
                    labels=base,
                )
            hub.tick()
            config_reports.append(
                {
                    "config": label,
                    "scheme": slug,
                    "skipped": None,
                    "ops": outcome["ops"],
                    "paper_ok": outcome["paper_ok"],
                    "sect4_drift": drift,
                    "leak_events": (
                        leakmon.summary()["events"] if attach_leakmon else None
                    ),
                    "detail": outcome["detail"],
                }
            )
    finally:
        hub.on_tick = None
        hub.clear_sources()
        if not was_enabled:
            observability.disable()

    alerts = engine.evaluate(hub)
    snapshot = hub.snapshot()
    return {
        "schema": HEALTH_SCHEMA,
        "meta": run_metadata(scenario=scenario),
        "scenario": scenario,
        "quick": quick,
        "injected": sorted(inject),
        "ticks": snapshot["tick"],
        "configs": config_reports,
        "series": snapshot["series"],
        "rules": engine.report(),
        "alerts": [alert.to_dict() for alert in alerts],
        "ok": not alerts,
    }


def validate_health_report(doc: dict) -> list[str]:
    """Structural problems with a health document; empty when valid."""
    problems = []
    if not isinstance(doc, dict):
        return ["health report must be an object"]
    if doc.get("schema") != HEALTH_SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {HEALTH_SCHEMA!r}"
        )
    for key, kind in (
        ("meta", dict),
        ("scenario", str),
        ("quick", bool),
        ("injected", list),
        ("ticks", int),
        ("configs", list),
        ("series", list),
        ("rules", list),
        ("alerts", list),
        ("ok", bool),
    ):
        if not isinstance(doc.get(key), kind):
            problems.append(f"'{key}' must be a {kind.__name__}")
    for i, entry in enumerate(doc.get("series") or []):
        where = f"series[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where} must be an object")
            continue
        if not isinstance(entry.get("name"), str) or not entry.get("name"):
            problems.append(f"{where} needs a non-empty 'name'")
        if not isinstance(entry.get("labels"), dict):
            problems.append(f"{where} needs a 'labels' object")
        samples = entry.get("samples")
        if not isinstance(samples, list):
            problems.append(f"{where} needs a 'samples' array")
            continue
        last_tick = None
        for sample in samples:
            if (
                not isinstance(sample, list)
                or len(sample) != 2
                or not isinstance(sample[0], int)
                or not isinstance(sample[1], (int, float))
            ):
                problems.append(f"{where} samples must be [tick, value] pairs")
                break
            if last_tick is not None and sample[0] < last_tick:
                problems.append(f"{where} ticks must be non-decreasing")
                break
            last_tick = sample[0]
    for i, rule in enumerate(doc.get("rules") or []):
        where = f"rules[{i}]"
        if not isinstance(rule, dict):
            problems.append(f"{where} must be an object")
            continue
        for key in ("name", "kind", "series", "severity"):
            if not isinstance(rule.get(key), str) or not rule.get(key):
                problems.append(f"{where} needs a non-empty '{key}'")
        if not isinstance(rule.get("fired"), int):
            problems.append(f"{where} needs an integer 'fired'")
    for i, alert in enumerate(doc.get("alerts") or []):
        where = f"alerts[{i}]"
        if not isinstance(alert, dict):
            problems.append(f"{where} must be an object")
            continue
        for key in ("rule", "severity", "series", "message"):
            if not isinstance(alert.get(key), str) or not alert.get(key):
                problems.append(f"{where} needs a non-empty '{key}'")
        if not isinstance(alert.get("tick"), int):
            problems.append(f"{where} needs an integer 'tick'")
    if isinstance(doc.get("ok"), bool) and isinstance(doc.get("alerts"), list):
        if doc["ok"] == bool(doc["alerts"]):
            problems.append("'ok' must be true exactly when no alert fired")
    return problems


def render_health(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_health(doc: dict, path: str | Path) -> Path:
    """Validate and write ``HEALTH.json``; refuses an invalid document."""
    problems = validate_health_report(doc)
    if problems:
        raise ValueError("invalid health report: " + "; ".join(problems))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_health(doc))
    return path
