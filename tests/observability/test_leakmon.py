"""Streaming leakage monitor vs the offline analysis matrix."""

import pytest

from repro.observability import LeakMonitor, render_prometheus, write_snapshot
from repro.observability.audit import AUDIT
from repro.observability.leakmon import PROBES, run_live_profile
from repro.robustness.campaign import default_campaign_configs


@pytest.fixture(autouse=True)
def _clean_audit():
    AUDIT.reset()
    yield
    AUDIT.reset()


def test_probe_catalogue_matches_offline():
    from repro.analysis.leakage import PROBES as OFFLINE_PROBES

    assert PROBES == OFFLINE_PROBES


@pytest.mark.parametrize(
    "label, config",
    default_campaign_configs(),
    ids=[label for label, _ in default_campaign_configs()],
)
def test_streaming_verdicts_match_offline_live_and_replayed(label, config):
    """The acceptance gate: for every campaign configuration the live
    streaming verdicts, a replay of the captured event log, and the
    offline analysis matrix must agree on all six probes."""
    monitor, events, offline = run_live_profile(config, label)
    assert events, "live profile emitted no events"

    live = monitor.verdicts()
    replayed = LeakMonitor()
    replayed.feed_all(events)

    assert live == offline, f"{label}: live vs offline"
    assert replayed.verdicts() == offline, f"{label}: replay vs offline"


def test_monitor_counters_land_in_registry():
    label, config = default_campaign_configs()[2]  # [3] Append-Scheme
    monitor, _, _ = run_live_profile(config, label)
    counters = monitor.registry.counters()
    assert counters["leak.events"] > 0
    assert counters["leak.equality.collisions"] > 0
    assert counters["leak.prefix.collisions"] > 0
    assert counters["leak.access_pattern.linked_queries"] > 0


def test_summary_shape():
    monitor = LeakMonitor()
    monitor.feed({"kind": "cell.encrypt", "scheme": "plain",
                  "table": 1, "row": 0, "col": 0,
                  "bytes": 16, "digests": ["a" * 12]})
    summary = monitor.summary()
    assert summary["events"] == 1
    assert set(summary["verdicts"]) == set(PROBES)
    assert summary["metrics"]["counters"]["leak.events"] == 1


def test_plain_scheme_forces_inspection_verdicts():
    monitor = LeakMonitor()
    monitor.feed({"kind": "cell.encrypt", "scheme": "plain",
                  "table": 1, "row": 0, "col": 0,
                  "bytes": 16, "digests": ["a" * 12]})
    verdicts = monitor.verdicts()
    assert verdicts["equality"] and verdicts["prefix"] and verdicts["frequency"]
    assert not verdicts["cell_forgery"]


def test_forgery_requires_accepted_tamper():
    monitor = LeakMonitor()
    base = {"scheme": "append", "table": 1, "row": 0, "col": 0, "bytes": 32}
    monitor.feed({"kind": "cell.encrypt", "digests": ["a" * 12, "b" * 12], **base})
    # Same bytes back: no tamper.
    monitor.feed({"kind": "cell.decrypt", "digests": ["a" * 12, "b" * 12],
                  "ok": True, **base})
    assert not monitor.verdicts()["cell_forgery"]
    # Different bytes, rejected by the codec: detected, not leaked.
    monitor.feed({"kind": "cell.decrypt", "digests": ["c" * 12, "b" * 12],
                  "ok": False, "error": "ValueError", **base})
    assert not monitor.verdicts()["cell_forgery"]
    # Different bytes, decrypted fine: blind modification accepted.
    monitor.feed({"kind": "cell.decrypt", "digests": ["c" * 12, "b" * 12],
                  "ok": True, **base})
    assert monitor.verdicts()["cell_forgery"]


def test_access_pattern_requires_repeated_trace():
    monitor = LeakMonitor()

    def query(nodes):
        monitor.feed({"kind": "query.begin", "op": "point",
                      "table": "t", "column": "c"})
        for node in nodes:
            monitor.feed({"kind": "index.node_read", "index": 9, "node": node})
        monitor.feed({"kind": "query.end", "op": "point"})

    query([1, 2, 3])
    assert not monitor.verdicts()["access_pattern"]
    query([1, 2, 4])
    assert not monitor.verdicts()["access_pattern"]
    query([1, 2, 3])
    assert monitor.verdicts()["access_pattern"]


def test_exporters_render_leak_metrics(tmp_path):
    label, config = default_campaign_configs()[1]  # [3] XOR-Scheme
    monitor, _, _ = run_live_profile(config, label)
    prom = render_prometheus(monitor.registry.snapshot())
    assert "# TYPE repro_leak_events counter" in prom
    written = write_snapshot(
        monitor.registry.snapshot(),
        jsonl_path=tmp_path / "m.jsonl",
        prometheus_path=tmp_path / "m.prom",
    )
    assert len(written) == 2
    assert all(path.read_text() for path in written)
