"""The monitor driver: HEALTH.json shape, determinism, and the alarms.

The acceptance contract of the observability PR, as tests:

* a healthy ``shard_rotation`` run is schema-valid, carries per-shard
  labeled series, and fires zero alerts;
* two same-seed runs produce byte-identical documents modulo ``meta``;
* an injected Sect. 4 cipher miscount fires ``sect4-drift`` and an
  injected (or real) WAL fallback fires ``wal-fallback`` — the alarms
  demonstrably ring.
"""

import hashlib
import json

import pytest

from repro import observability
from repro.core.keys import KeyRing
from repro.durability.manager import DurableDatabase
from repro.durability.vdisk import MemoryDisk
from repro.durability.wal import CHECKPOINT_BLOB, journal_mac
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.observability.health import HealthEngine, default_rules
from repro.observability.monitor import (
    CAMPAIGN_SCENARIO,
    HEALTH_SCHEMA,
    config_slug,
    monitor_scenarios,
    run_monitor,
    validate_health_report,
    write_health,
)
from repro.observability.timeseries import HUB


@pytest.fixture(autouse=True)
def _clean_observability():
    observability.disable()
    observability.reset()
    HUB.disable()
    HUB.reset()
    yield
    observability.disable()
    observability.reset()
    HUB.disable()
    HUB.reset()


@pytest.fixture(scope="module")
def healthy_doc():
    return run_monitor(scenario="shard_rotation", quick=True)


def test_healthy_shard_rotation_is_schema_valid(healthy_doc):
    assert healthy_doc["schema"] == HEALTH_SCHEMA
    assert validate_health_report(healthy_doc) == []
    assert healthy_doc["ok"] is True
    assert healthy_doc["alerts"] == []
    assert healthy_doc["ticks"] > 0


def test_healthy_shard_rotation_has_per_shard_series(healthy_doc):
    shards = {
        entry["labels"]["shard"]
        for entry in healthy_doc["series"]
        if "shard" in entry["labels"]
    }
    assert shards == {"s0", "s1"}
    names = {entry["name"] for entry in healthy_doc["series"]}
    assert "rotation.phase.steps" in names
    assert "shard.degraded" in names
    assert "shard.epoch" in names
    assert "db.rows" in names
    assert "sect4.drift" in names
    assert "leak.structural" in names
    phases = {
        entry["labels"]["rotation_phase"]
        for entry in healthy_doc["series"]
        if entry["name"] == "rotation.phase.steps"
    }
    assert phases == {"armed", "reencrypted", "staged", "committed", "installed"}


def test_no_volatile_series_enter_the_report(healthy_doc):
    assert not any(
        entry["name"].endswith(".p99") for entry in healthy_doc["series"]
    )


def test_same_seed_runs_are_byte_identical_modulo_meta():
    first = run_monitor(scenario="shard_rotation", quick=True)
    second = run_monitor(scenario="shard_rotation", quick=True)
    first.pop("meta")
    second.pop("meta")
    text = json.dumps(first, sort_keys=True)
    assert text == json.dumps(second, sort_keys=True)
    # Pinned, not just repeatable: a change that moves HEALTH.json
    # moves it in both runs.
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "602f8ba06ea9fe02931157054ded146487d41283a34662ed88e7e41c6185ccbf"
    )


def test_injected_cipher_miscount_fires_sect4_drift():
    doc = run_monitor(
        scenario="shard_rotation", quick=True, inject=["cipher-miscount"]
    )
    assert doc["ok"] is False
    assert [a["rule"] for a in doc["alerts"]] == ["sect4-drift"]
    assert doc["alerts"][0]["severity"] == "critical"
    assert validate_health_report(doc) == []


def test_injected_wal_fallback_fires_wal_fallback():
    doc = run_monitor(scenario="shard_rotation", quick=True, inject=["wal-fallback"])
    assert doc["ok"] is False
    assert [a["rule"] for a in doc["alerts"]] == ["wal-fallback"]


def test_real_wal_fallback_fires_the_rule():
    """A genuinely corrupted checkpoint drives the salvage path under
    the hub, and the default rule set turns that into an alert."""
    mac = journal_mac(KeyRing(b"monitor-fallback-master-key-0123"))
    disk = MemoryDisk()
    manager = DurableDatabase.open(disk, mac)
    manager.create_table(
        TableSchema("t", [Column("k", ColumnType.INT), Column("v", ColumnType.TEXT)])
    )
    for i in range(4):
        manager.insert("t", [i, f"v{i}"])
    manager.checkpoint()
    blob = bytearray(disk.read(CHECKPOINT_BLOB))
    blob[-1] ^= 0xFF  # break the checkpoint MAC
    disk.write(CHECKPOINT_BLOB, bytes(blob))
    disk.sync(CHECKPOINT_BLOB)  # the corruption must survive the power cut

    observability.enable()
    HUB.enable()
    HUB.reset()
    try:
        DurableDatabase.open(MemoryDisk(disk.durable_state()), mac)
        HUB.tick()
        engine = HealthEngine(default_rules())
        alerts = engine.evaluate(HUB)
    finally:
        HUB.reset()
        HUB.disable()
    assert "wal-fallback" in {a.rule for a in alerts}


def test_real_wal_replay_records_the_series():
    mac = journal_mac(KeyRing(b"monitor-replay-master-key-012345"))
    disk = MemoryDisk()
    manager = DurableDatabase.open(disk, mac)
    manager.create_table(TableSchema("t", [Column("k", ColumnType.INT)]))
    manager.insert("t", [1])

    HUB.enable()
    HUB.reset()
    observability.enable()
    try:
        reopened = DurableDatabase.open(MemoryDisk(disk.durable_state()), mac)
        assert reopened.recovery.records_replayed >= 1
        series = {s.name for s in HUB.all_series()}
    finally:
        HUB.reset()
        HUB.disable()
    assert "wal.replay.records" in series
    assert "wal.replay.mounts" in series


def test_rotation_campaign_scenario_relaxes_wal_rules():
    doc = run_monitor(scenario=CAMPAIGN_SCENARIO, quick=True, limit=4)
    assert validate_health_report(doc) == []
    assert doc["ok"] is True
    rule_names = {rule["name"] for rule in doc["rules"]}
    assert "wal-replay" not in rule_names
    assert "wal-fallback" not in rule_names
    assert "rotation-violations" in rule_names
    [entry] = doc["configs"]
    assert entry["detail"]["trials"] >= 1
    assert entry["detail"]["violations"] == []
    names = {s["name"] for s in doc["series"]}
    assert "rotation.campaign.trials" in names


def test_typed_read_scenarios_skip_lossy_schemes():
    from repro.core.encrypted_db import EncryptionConfig

    xor = EncryptionConfig(cell_scheme="xor", index_scheme="sdm2004", iv_policy="zero")
    doc = run_monitor(
        scenario="point_query",
        config_items=[("[3] XOR-Scheme", xor)],
        quick=True,
    )
    [entry] = doc["configs"]
    assert entry["skipped"] == "scheme cannot round-trip typed reads"
    assert doc["ok"] is True
    assert validate_health_report(doc) == []


def test_unknown_scenario_and_injection_raise():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_monitor(scenario="bogus")
    with pytest.raises(ValueError, match="unknown injection"):
        run_monitor(scenario="shard_rotation", inject=["bogus"])


def test_monitor_scenarios_cover_bench_and_campaign():
    names = monitor_scenarios()
    assert "shard_rotation" in names
    assert "bulk_insert" in names
    assert names[-1] == CAMPAIGN_SCENARIO


def test_config_slug_known_and_fallback():
    from repro.core.encrypted_db import EncryptionConfig

    assert config_slug("fixed AEAD (EAX)", None) == "aead-eax"
    assert config_slug("[12] index (+append cells)", None) == "dbsec2005"
    cfg = EncryptionConfig.paper_fixed("ocb")
    assert config_slug("unlabeled", cfg) == "aead-ocb"


def test_validate_health_report_flags_problems(healthy_doc):
    assert validate_health_report("nope") == ["health report must be an object"]
    assert validate_health_report({"schema": "bogus"})
    broken = json.loads(json.dumps(healthy_doc))
    broken["ok"] = False  # inconsistent with zero alerts
    assert any("'ok'" in p for p in validate_health_report(broken))
    unordered = json.loads(json.dumps(healthy_doc))
    unordered["series"][0]["samples"] = [[5, 1.0], [1, 1.0]]
    assert any("non-decreasing" in p for p in validate_health_report(unordered))


def test_write_health_round_trips_and_refuses_invalid(tmp_path, healthy_doc):
    path = write_health(healthy_doc, tmp_path / "HEALTH.json")
    assert json.loads(path.read_text()) == healthy_doc
    with pytest.raises(ValueError, match="invalid health report"):
        write_health({"schema": "bogus"}, tmp_path / "bad.json")


def test_monitoring_enabled_images_stay_byte_identical():
    """The hub's golden-hash pin: telemetry collection changes no
    stored byte in any campaign configuration."""
    import hashlib

    from repro.engine.storage import dump_database
    from repro.robustness.campaign import build_campaign_db, default_campaign_configs
    from tests.observability.test_regression import GOLDEN_IMAGE_SHA256

    observability.enable()
    HUB.enable()
    HUB.reset()
    for label, config in default_campaign_configs():
        image = dump_database(build_campaign_db(config, 8))
        assert hashlib.sha256(image).hexdigest() == GOLDEN_IMAGE_SHA256[label], label
