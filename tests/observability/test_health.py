"""Health rules: matching, evaluation, parsing, and the default set."""

import pytest

from repro.observability.health import (
    LEAK_BUDGETS,
    SEVERITY_CRITICAL,
    BaselineP99Rule,
    DeltaRule,
    HealthEngine,
    LeakBudgetRule,
    SloBurnRule,
    ThresholdRule,
    default_rules,
    load_rules,
    parse_rule,
)
from repro.observability.timeseries import TelemetryHub


def _hub() -> TelemetryHub:
    hub = TelemetryHub()
    hub.enable()
    return hub


def test_threshold_fires_on_latest_sample_only():
    hub = _hub()
    hub.record("sect4.drift", 5.0)
    hub.tick()
    hub.record("sect4.drift", 0.0)
    rule = ThresholdRule("drift", "sect4.drift", ">", 0)
    assert rule.evaluate(hub) == []
    hub.record("sect4.drift", 2.0)
    [alert] = rule.evaluate(hub)
    assert alert.rule == "drift"
    assert alert.value == 2.0
    assert alert.series == "sect4.drift"


def test_threshold_label_filter_restricts_matching():
    hub = _hub()
    hub.record("shard.degraded", 1.0, labels={"shard": "s0"})
    hub.record("shard.degraded", 0.0, labels={"shard": "s1"})
    rule = ThresholdRule("deg", "shard.degraded", ">", 0, labels={"shard": "s1"})
    assert rule.evaluate(hub) == []
    rule = ThresholdRule("deg", "shard.degraded", ">", 0, labels={"shard": "s0"})
    [alert] = rule.evaluate(hub)
    assert alert.labels["shard"] == "s0"


def test_prefix_pattern_matches_by_name():
    hub = _hub()
    hub.record("wal.replay.records", 3.0)
    hub.record("wal.fallback.events", 1.0)
    rule = ThresholdRule("wal", "wal.*", ">", 0)
    assert len(rule.evaluate(hub)) == 2


def test_delta_needs_two_samples_in_window():
    hub = _hub()
    rule = DeltaRule("growth", "e", max_increase=2, window=3)
    hub.tick()
    hub.event("e", 1)
    assert rule.evaluate(hub) == []
    hub.tick()
    hub.event("e", 5)
    [alert] = rule.evaluate(hub)
    assert alert.value == 5.0  # grew 1 -> 6 inside the window


def test_delta_ignores_growth_outside_window():
    hub = _hub()
    hub.tick()
    hub.event("e", 100)
    for _ in range(5):
        hub.tick()
    hub.event("e", 1)
    rule = DeltaRule("growth", "e", max_increase=2, window=2)
    assert rule.evaluate(hub) == []


def test_slo_burn_rate():
    hub = _hub()
    rule = SloBurnRule("burn", "errors", budget=2, window=4)
    hub.tick()
    hub.event("errors", 2)
    assert rule.evaluate(hub) == []  # exactly 1x budget does not fire
    hub.event("errors", 3)
    [alert] = rule.evaluate(hub)
    # First in-window sample (value 2) is the baseline: growth 3, 1.5x.
    assert alert.value == pytest.approx(1.5)


def test_leak_budget_exempts_broken_schemes():
    hub = _hub()
    hub.record("leak.structural", 40.0, labels={"scheme": "xor"})
    hub.record("leak.structural", 1.0, labels={"scheme": "aead-eax"})
    rule = LeakBudgetRule()
    [alert] = rule.evaluate(hub)
    assert alert.labels["scheme"] == "aead-eax"
    assert LEAK_BUDGETS["xor"] is None
    assert LEAK_BUDGETS["aead-eax"] == 0


def test_leak_budget_unknown_scheme_defaults_to_zero():
    hub = _hub()
    hub.record("leak.structural", 1.0, labels={"scheme": "mystery"})
    assert len(LeakBudgetRule().evaluate(hub)) == 1


def test_baseline_p99_rule_matches_scenario_config_metric():
    baseline = {
        "scenarios": [
            {
                "scenario": "bulk_insert",
                "config": "fixed AEAD (EAX)",
                "histograms": {"db.insert.seconds": {"p99": 0.001}},
            }
        ]
    }
    rule = BaselineP99Rule(baseline, tolerance=1.0)
    hub = _hub()
    labels = {"scenario": "bulk_insert", "config": "fixed AEAD (EAX)"}
    hub.record("db.insert.seconds.p99", 0.0015, labels=labels, volatile=True)
    assert rule.evaluate(hub) == []  # within 2x
    hub.record("db.insert.seconds.p99", 0.0025, labels=labels, volatile=True)
    [alert] = rule.evaluate(hub)
    assert "pinned baseline" in alert.message
    # A series with no pinned counterpart never fires.
    hub.record(
        "db.other.seconds.p99",
        9.9,
        labels={"scenario": "x", "config": "y"},
        volatile=True,
    )
    assert len(rule.evaluate(hub)) == 1


def test_parse_rule_round_trips_each_kind():
    specs = [
        {"rule": "threshold", "name": "t", "series": "s", "op": ">=", "limit": 1},
        {"rule": "delta", "name": "d", "series": "s", "max_increase": 2, "window": 3},
        {"rule": "slo-burn", "name": "b", "series": "s", "budget": 4, "window": 5},
    ]
    rules = load_rules(specs)
    assert [r.kind for r in rules] == ["threshold", "delta", "slo-burn"]
    assert rules[0].describe()["op"] == ">="
    assert rules[1].describe()["window"] == 3
    assert rules[2].describe()["budget"] == 4


@pytest.mark.parametrize(
    "spec, fragment",
    [
        ("not a dict", "must be an object"),
        ({"rule": "bogus", "name": "x", "series": "s"}, "unknown rule kind"),
        ({"rule": "threshold", "series": "s", "limit": 1}, "non-empty 'name'"),
        ({"rule": "threshold", "name": "x", "limit": 1}, "non-empty 'series'"),
        ({"rule": "threshold", "name": "x", "series": "s"}, "missing field"),
        ({"rule": "delta", "name": "x", "series": "s", "max_increase": 1,
          "window": 0}, "at least 1"),
        ({"rule": "threshold", "name": "x", "series": "s", "op": "~",
          "limit": 1}, "unknown comparison"),
        ({"rule": "threshold", "name": "x", "series": "s", "limit": 1,
          "severity": "fatal"}, "unknown severity"),
    ],
)
def test_parse_rule_rejects_malformed_specs(spec, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_rule(spec)


def test_default_rules_toggle_wal_rules():
    names = {rule.name for rule in default_rules()}
    assert {"sect4-drift", "shard-degraded", "rows-quarantined",
            "leak-budget", "wal-fallback", "wal-replay"} <= names
    relaxed = {r.name for r in default_rules(allow_replay=True, allow_fallback=True)}
    assert "wal-replay" not in relaxed
    assert "wal-fallback" not in relaxed
    with_baseline = default_rules(baseline={"scenarios": []})
    assert any(r.name == "p99-regression" for r in with_baseline)


def test_engine_rejects_duplicate_names_and_counts_fired():
    with pytest.raises(ValueError, match="duplicate"):
        HealthEngine([
            ThresholdRule("same", "a", ">", 0),
            ThresholdRule("same", "b", ">", 0),
        ])
    hub = _hub()
    hub.record("sect4.drift", 1.0)
    engine = HealthEngine(default_rules())
    alerts = engine.evaluate(hub)
    assert [a.rule for a in alerts] == ["sect4-drift"]
    assert alerts[0].severity == SEVERITY_CRITICAL
    report = {row["name"]: row["fired"] for row in engine.report()}
    assert report["sect4-drift"] == 1
    assert report["leak-budget"] == 0


def test_alert_to_dict_sorts_labels():
    hub = _hub()
    hub.record("m", 1.0, labels={"b": "2", "a": "1"})
    [alert] = ThresholdRule("r", "m", ">", 0).evaluate(hub)
    assert list(alert.to_dict()["labels"]) == ["a", "b"]
