"""The flight recorder: ring semantics, drop accounting, and the
``repro-flight/1`` document plumbing."""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.flightrecorder import (
    CHANNELS,
    DEFAULT_CAPACITY,
    FLIGHT_SCHEMA,
    GATED_CLASSES,
    RECORDER,
    FlightRecorder,
    load_flight,
    validate_flight_report,
    write_flight,
)


@pytest.fixture(autouse=True)
def _clean_global_recorder():
    RECORDER.reset()
    yield
    RECORDER.reset()


def test_record_shape_and_sequencing():
    recorder = FlightRecorder(capacity=16)
    first = recorder.record("note", "hello", blob="manifest")
    recorder.tick()
    second = recorder.record("note", "world")
    assert first["seq"] == 1 and first["tick"] == 0
    assert second["seq"] == 2 and second["tick"] == 1
    assert first["channel"] == "note" and first["kind"] == "hello"
    assert first["fields"] == {"blob": "manifest"}


def test_unknown_channel_rejected():
    recorder = FlightRecorder(capacity=4)
    with pytest.raises(ValueError, match="unknown channel"):
        recorder.record("gossip", "x")
    with pytest.raises(ValueError, match="capacity"):
        FlightRecorder(capacity=0)


def test_ring_respects_capacity_with_per_channel_drop_accounting():
    recorder = FlightRecorder(capacity=4)
    for _ in range(4):
        recorder.note("old")
    for _ in range(3):
        recorder.record("audit", "new", audit_seq=1)
    entries = recorder.records()
    assert len(entries) == 4
    # The three oldest ``note`` records were evicted and accounted
    # against their own channel, not the incoming one.
    assert recorder.dropped == {"note": 3}
    assert [e["channel"] for e in entries] == ["note", "audit", "audit", "audit"]
    # seq keeps increasing across evictions — nothing is renumbered.
    assert [e["seq"] for e in entries] == [4, 5, 6, 7]


@settings(max_examples=50, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=32),
    channels=st.lists(
        st.sampled_from([c for c in CHANNELS if c != "fault"]),
        min_size=0,
        max_size=120,
    ),
)
def test_flood_never_exceeds_capacity_and_drops_balance(capacity, channels):
    recorder = FlightRecorder(capacity=capacity)
    for channel in channels:
        recorder.record(channel, "flood")
    held = recorder.records()
    assert len(held) == min(capacity, len(channels))
    assert sum(recorder.dropped.values()) == max(0, len(channels) - capacity)
    # What survives is exactly the newest suffix, in order.
    assert [e["seq"] for e in held] == list(
        range(len(channels) - len(held) + 1, len(channels) + 1)
    )
    # Per-channel drop counts match the evicted prefix exactly.
    evicted = channels[: len(channels) - len(held)]
    expected: dict[str, int] = {}
    for channel in evicted:
        expected[channel] = expected.get(channel, 0) + 1
    assert recorder.dropped == expected
    # And the flight document validates even after heavy eviction.
    assert validate_flight_report(recorder.snapshot()) == []


def test_injection_ids_are_sequential_and_typed():
    recorder = FlightRecorder(capacity=16)
    first = recorder.record_injection("tamper", blob="s0.wal", replica=1)
    second = recorder.record_injection("rollback", config="x")
    assert (first, second) == ("inj-1", "inj-2")
    faults = recorder.records("fault")
    assert faults[0]["fields"]["class"] == "tamper"
    assert faults[0]["fields"]["id"] == "inj-1"
    recorder.record_detection("tamper", blob="s0.wal", replica=1)
    recorder.resolve_injection(second, "read-repaired")
    assert [f["kind"] for f in recorder.records("fault")] == [
        "injection",
        "injection",
        "detection",
        "resolved",
    ]


def test_record_audit_strips_wall_clock_and_renames_seq():
    recorder = FlightRecorder(capacity=8)
    recorder.record_audit(
        {"kind": "cell.encrypt", "seq": 7, "ts": 123.456, "table": "people"}
    )
    (entry,) = recorder.records("audit")
    assert entry["kind"] == "cell.encrypt"
    assert entry["fields"] == {"table": "people", "audit_seq": 7}
    assert "ts" not in entry["fields"]


def test_hub_tick_advances_the_logical_clock():
    recorder = FlightRecorder(capacity=8)
    recorder.record_hub_tick(41, series_count=3)
    (entry,) = recorder.records("telemetry")
    assert recorder.current_tick == 1
    assert entry["tick"] == 1
    assert entry["fields"] == {"hub_tick": 41, "series": 3}


def test_fields_are_coerced_to_json(tmp_path):
    recorder = FlightRecorder(capacity=8)
    recorder.note(
        "mixed",
        raw=b"\x00\xff",
        path=tmp_path / "x",
        nested={"k": (1, b"\x01")},
        obj=object(),
    )
    (entry,) = recorder.records()
    fields = entry["fields"]
    assert fields["raw"] == "00ff"
    assert fields["path"] == str(tmp_path / "x")
    assert fields["nested"] == {"k": [1, "01"]}
    assert fields["obj"].startswith("<object object")
    json.dumps(fields)  # must be serialisable as-is


def test_reset_forgets_everything():
    recorder = FlightRecorder(capacity=2)
    recorder.tick()
    for _ in range(5):
        recorder.note("x")
    recorder.record_injection("tamper")
    recorder.reset()
    assert recorder.records() == []
    assert recorder.dropped == {}
    assert recorder.current_tick == 0
    assert recorder.record_injection("tamper") == "inj-1"


def test_snapshot_validates_and_round_trips(tmp_path):
    recorder = FlightRecorder(capacity=8)
    recorder.tick()
    inj = recorder.record_injection("rollback", config="c")
    recorder.record_detection("rollback", config="c")
    recorder.resolve_injection(inj, "superseded")
    doc = recorder.snapshot(reason="unit-test", meta={"seed": 1})
    assert doc["schema"] == FLIGHT_SCHEMA
    assert validate_flight_report(doc) == []
    path = write_flight(doc, tmp_path / "FLIGHT.json")
    assert load_flight(path) == doc


def test_write_flight_refuses_invalid_documents(tmp_path):
    recorder = FlightRecorder(capacity=8)
    doc = recorder.snapshot()
    doc["records"] = [{"seq": 0}]  # seq must start at 1
    with pytest.raises(ValueError, match="refusing to write"):
        write_flight(doc, tmp_path / "bad.json")
    assert not (tmp_path / "bad.json").exists()


def test_validator_rejects_structural_damage():
    recorder = FlightRecorder(capacity=8)
    recorder.record_injection("tamper")
    good = recorder.snapshot()
    assert validate_flight_report(good) == []

    bad = json.loads(json.dumps(good))
    bad["schema"] = "repro-flight/0"
    assert any("schema" in p for p in validate_flight_report(bad))

    bad = json.loads(json.dumps(good))
    bad["records"][0]["fields"].pop("class")
    assert any("needs a class" in p for p in validate_flight_report(bad))

    bad = json.loads(json.dumps(good))
    bad["records"][0]["tick"] = -1
    assert any("tick" in p for p in validate_flight_report(bad))

    bad = json.loads(json.dumps(good))
    bad["dropped"] = {"gossip": 1}
    assert any("unknown channel" in p for p in validate_flight_report(bad))


def test_concurrent_recording_is_safe_and_lossless_up_to_capacity():
    recorder = FlightRecorder(capacity=DEFAULT_CAPACITY)
    threads = [
        threading.Thread(
            target=lambda: [recorder.note("burst") for _ in range(200)]
        )
        for _ in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    entries = recorder.records()
    assert len(entries) == 1600
    assert recorder.dropped == {}
    assert [e["seq"] for e in entries] == list(range(1, 1601))


def test_gated_classes_are_the_mac_covered_ones():
    assert GATED_CLASSES == ("tamper", "rollback", "unrepairable")
