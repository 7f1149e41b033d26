"""Incident forensics: the injection/detection join, the scorecard
gate, the timeline, and the reference flight drivers."""

import hashlib
import json

import pytest

from repro.observability.flightrecorder import (
    GATED_CLASSES,
    RECORDER,
    load_flight,
)
from repro.observability.forensics import (
    build_scorecard,
    build_timeline,
    flight_incidents,
    public_scorecard,
    render_scorecard,
    render_timeline,
    run_chaos_flight,
    run_healthy_flight,
    scorecard_gate,
)


@pytest.fixture(autouse=True)
def _clean_global_recorder():
    RECORDER.reset()
    yield
    RECORDER.reset()


def _fault(seq, tick, kind, **fields):
    return {
        "seq": seq,
        "tick": tick,
        "channel": "fault",
        "kind": kind,
        "fields": fields,
    }


# -- the join ----------------------------------------------------------------


def test_detection_closes_matching_injection_with_latency():
    records = [
        _fault(1, 2, "injection", **{"class": "tamper"}, id="inj-1",
               blob="s0.wal", replica=1),
        _fault(2, 5, "detection", **{"class": "tamper"}, blob="s0.wal",
               replica=1, via="scrub"),
    ]
    scorecard = build_scorecard(records)
    entry = scorecard["classes"]["tamper"]
    assert entry["injected"] == 1
    assert entry["detected"] == 1
    assert entry["open"] == 0
    assert entry["rate"] == 1.0
    assert entry["latency"] == {"min": 3, "max": 3, "mean": 3.0}
    assert scorecard["false_positives"] == []
    assert scorecard["ok"] is True


def test_detection_closes_oldest_open_injection_first():
    records = [
        _fault(1, 1, "injection", **{"class": "tamper"}, id="inj-1",
               blob="s0.wal"),
        _fault(2, 2, "injection", **{"class": "tamper"}, id="inj-2",
               blob="s0.wal"),
        _fault(3, 3, "detection", **{"class": "tamper"}, blob="s0.wal"),
    ]
    scorecard = build_scorecard(records)
    # inj-1 (the older) was closed: latency 3-1, not 3-2.
    assert scorecard["classes"]["tamper"]["latency"]["min"] == 2
    assert scorecard["classes"]["tamper"]["open"] == 1


def test_mismatched_shared_fields_block_the_join():
    records = [
        _fault(1, 1, "injection", **{"class": "tamper"}, id="inj-1",
               blob="s0.wal", replica=0),
        _fault(2, 2, "detection", **{"class": "tamper"}, blob="s0.wal",
               replica=2),
    ]
    scorecard = build_scorecard(records)
    assert scorecard["classes"]["tamper"]["detected"] == 0
    assert len(scorecard["false_positives"]) == 1
    assert scorecard["ok"] is False


def test_field_present_on_one_side_only_does_not_constrain():
    # The anchor detection is keyed by scope; the campaign injection by
    # config.  No shared field -> unconditional match.
    records = [
        _fault(1, 1, "injection", **{"class": "rollback"}, id="inj-1",
               config="fixed AEAD (EAX)"),
        _fault(2, 1, "detection", **{"class": "rollback"},
               scope="shard.s0", via="anchor"),
    ]
    scorecard = build_scorecard(records)
    assert scorecard["classes"]["rollback"]["detected"] == 1
    assert scorecard["false_positives"] == []


def test_duplicate_detection_of_closed_injection_is_not_a_false_positive():
    records = [
        _fault(1, 1, "injection", **{"class": "rollback"}, id="inj-1"),
        _fault(2, 2, "detection", **{"class": "rollback"}),
        _fault(3, 3, "detection", **{"class": "rollback"}),
    ]
    scorecard = build_scorecard(records)
    entry = scorecard["classes"]["rollback"]
    assert entry["detected"] == 1
    assert entry["duplicates"] == 1
    assert scorecard["false_positives"] == []
    assert scorecard["ok"] is True


def test_resolution_removes_from_detectable_denominator():
    records = [
        _fault(1, 1, "injection", **{"class": "tamper"}, id="inj-1",
               blob="s0.wal"),
        _fault(2, 2, "resolved", id="inj-1", reason="read-repaired"),
    ]
    scorecard = build_scorecard(records)
    entry = scorecard["classes"]["tamper"]
    assert entry["detectable"] == 0
    assert entry["rate"] is None
    assert scorecard["ok"] is True


def test_resolution_after_detection_is_ignored():
    records = [
        _fault(1, 1, "injection", **{"class": "tamper"}, id="inj-1"),
        _fault(2, 2, "detection", **{"class": "tamper"}),
        _fault(3, 3, "resolved", id="inj-1", reason="too-late"),
    ]
    entry = build_scorecard(records)["classes"]["tamper"]
    assert entry["resolved"] == 0
    assert entry["detected"] == 1
    assert entry["rate"] == 1.0


def test_missed_gated_injection_fails_the_gate_but_crash_does_not():
    records = [
        _fault(1, 1, "injection", **{"class": "tamper"}, id="inj-1"),
        _fault(2, 1, "injection", **{"class": "crash"}, id="inj-2"),
    ]
    scorecard = build_scorecard(records)
    problems = scorecard_gate(scorecard)
    assert len(problems) == 1
    assert "tamper" in problems[0]
    assert scorecard["ok"] is False


def test_require_fails_when_a_gated_class_was_never_exercised():
    scorecard = build_scorecard([])
    assert scorecard["ok"] is True  # nothing graded, nothing wrong
    problems = scorecard_gate(scorecard, require=GATED_CLASSES)
    assert len(problems) == len(GATED_CLASSES)
    assert all("no detectable injection" in p for p in problems)


def test_public_scorecard_strips_internal_keys():
    scorecard = build_scorecard([])
    assert "_matches" in scorecard
    public = public_scorecard(scorecard)
    assert "_matches" not in public
    json.dumps(public)  # JSON-safe without the record references


# -- the timeline ------------------------------------------------------------


def test_timeline_links_detections_alerts_and_wal_offsets():
    doc = {
        "records": [
            _fault(1, 1, "injection", **{"class": "rollback"}, id="inj-1",
                   config="c"),
            {"seq": 2, "tick": 1, "channel": "note", "kind": "wal.truncated",
             "fields": {"offset": 96, "reason": "torn tail"}},
            _fault(3, 2, "detection", **{"class": "rollback"}, config="c"),
            {"seq": 4, "tick": 3, "channel": "alert", "kind": "wal-fallback",
             "fields": {"severity": "warning", "message": "fell back"}},
            _fault(5, 4, "detection", **{"class": "tamper"}, blob="ghost"),
        ]
    }
    timeline = build_timeline(doc)
    assert [entry["seq"] for entry in timeline] == [1, 2, 3, 4, 5]
    matched = timeline[2]["cause"]
    assert matched["injection"] == "inj-1"
    assert matched["wal_offset"] == 96
    assert "nearest" not in matched
    attributed = timeline[3]["cause"]
    assert attributed["nearest"] is True
    assert attributed["injection"] == "inj-1"
    assert timeline[4].get("false_positive") is True

    rendered = render_timeline(timeline)
    assert "<- injection=inj-1" in rendered
    assert "~> injection=inj-1" in rendered
    assert "!! FALSE POSITIVE" in rendered


def test_render_scorecard_marks_gated_classes():
    records = [
        _fault(1, 1, "injection", **{"class": "crash"}, id="inj-1"),
        _fault(2, 1, "injection", **{"class": "tamper"}, id="inj-2"),
        _fault(3, 2, "detection", **{"class": "tamper"}),
    ]
    rendered = render_scorecard(build_scorecard(records))
    assert " *tamper" in rendered
    assert "  crash" in rendered
    assert "false positives: 0" in rendered


# -- the reference drivers ---------------------------------------------------


def test_chaos_flight_detects_every_gated_class(tmp_path):
    out = tmp_path / "FLIGHT.json"
    campaign, doc, scorecard = run_chaos_flight(
        steps=10, seed=3, configs=None, out=out
    )
    assert campaign.ok
    assert scorecard_gate(scorecard, require=GATED_CLASSES) == []
    for fault_class in GATED_CLASSES:
        entry = scorecard["classes"][fault_class]
        assert entry["detectable"] > 0
        assert entry["rate"] == 1.0
        assert all(latency >= 0 for latency in (
            entry["latency"]["min"], entry["latency"]["max"]
        ))
    assert scorecard["false_positives"] == []
    # The artifact on disk validates and regrades identically.
    reloaded = load_flight(out)
    assert public_scorecard(build_scorecard(reloaded)) == public_scorecard(
        scorecard
    )


def test_chaos_flight_is_byte_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    run_chaos_flight(steps=8, seed=11, out=first)
    run_chaos_flight(steps=8, seed=11, out=second)
    assert first.read_bytes() == second.read_bytes()
    # Pinned, not just repeatable: a change that moves the flight
    # document moves it in both runs.
    assert hashlib.sha256(first.read_bytes()).hexdigest() == (
        "05d2aef39cf1347a8ccde80bbeca9f7c7c5ea33523cf2a2575471f20519a2ca5"
    )
    # CI's forensics smoke run: `forensics --chaos --steps 20 --seed 1`.
    ci = tmp_path / "FLIGHT.json"
    run_chaos_flight(steps=20, seed=1, out=ci)
    assert hashlib.sha256(ci.read_bytes()).hexdigest() == (
        "cc122d8c100767d9c430c2afc6f826d671cafdc41c6f262085db92de270251df"
    )


def test_chaos_flight_different_seeds_differ(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    run_chaos_flight(steps=8, seed=11, out=first)
    run_chaos_flight(steps=8, seed=12, out=second)
    assert first.read_bytes() != second.read_bytes()


def test_healthy_flight_reports_zero_incidents(tmp_path):
    out = tmp_path / "FLIGHT.json"
    health, doc, incidents = run_healthy_flight(
        scenario="shard_rotation", limit=6, out=out
    )
    assert health["ok"] is True
    assert incidents == []
    assert doc["records"]  # the recorder did listen
    assert load_flight(out)["reason"] == "healthy-run"


def test_injected_fault_surfaces_as_incident():
    health, doc, incidents = run_healthy_flight(
        scenario="shard_rotation", limit=6, inject=("cipher-miscount",)
    )
    assert health["ok"] is False
    assert incidents
    assert any("sect4-drift" in incident for incident in incidents)
    assert flight_incidents(doc) == incidents
