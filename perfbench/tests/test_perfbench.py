"""Self-tests of the benchmark: tiny smoke runs, names and units against
BENCHMARK.json, seeded inputs, exact per-layer counts, and the host-speed
scaling.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from workloads import TINY, WORKLOADS, Recorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(WORKLOADS)


def _units(section: str) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in SPEC[section]}


def _units_of(result: dict) -> dict[str, str]:
    return {name: value["unit"] for name, value in result["metrics"].items()}


def test_workloads_match_the_spec():
    assert NAMES == sorted(entry["name"] for entry in SPEC["workloads"])


@pytest.mark.parametrize("name", NAMES)
def test_smoke_end_to_end(name, tmp_path):
    result = run.run_end_to_end(
        WORKLOADS[name], 3, 0.2, TINY[name], tmp_path, out=lambda line: None
    )
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert _units_of(result) == _units("end_to_end")
    assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced(name, tmp_path):
    result = run.run_traced(WORKLOADS[name], 3, TINY[name], tmp_path,
                            out=lambda line: None)
    assert result["correct"], result
    assert _units_of(result) == _units("per_layer")
    metrics = result["metrics"]
    assert (metrics["observability.cipher_blocks"]["value"]
            == metrics["primitives.aes_blocks"]["value"] > 0)


def _inputs(name: str, seed: int, draws: int = 60) -> tuple:
    workload = WORKLOADS[name](seed, TINY[name], Path("unused"))
    return workload.rows, [workload.draw() for _ in range(draws)]


@pytest.mark.parametrize("name", NAMES)
def test_inputs_repeat_for_a_seed(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    assert _inputs(name, 7) != _inputs(name, 8)


def test_layer_counts_repeat_exactly(tmp_path):
    counted = ("primitives.aes_blocks", "primitives.sha256_bytes", "aead.calls",
               "mac.tags", "mac.verifies", "disk.bytes_written")

    def counts() -> list:
        result = run.run_traced(WORKLOADS["recover_sharded"], 5,
                                TINY["recover_sharded"], tmp_path,
                                out=lambda line: None)
        return [result["metrics"][name]["value"] for name in counted]

    first = counts()
    assert first == counts()
    assert all(value > 0 for value in first)


def test_host_speed_scales_by_nearby_probes():
    host = HostSpeed()  # WINDOW_S is 0.5
    host.starts = [0.0, 0.2, 0.4, 5.0]
    host.costs = [2 * REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S, REFERENCE_S]
    assert host.normalise(0.1, 0.3) == pytest.approx(0.1)  # median of the first three
    assert host.normalise(5.0, 5.5) == pytest.approx(0.5)
    assert host.scale(2.5, 2.6) == pytest.approx(0.25)  # none close: the nearest


def test_probes_run_only_between_timed_calls():
    probes = []
    rec = Recorder(between=lambda: probes.append(1))
    rec.call("outer", lambda: rec.call("inner", lambda: None))
    rec.call("next", lambda: None)
    assert len(probes) == 2
    assert sorted(rec.spans) == ["inner", "next", "outer"]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "source tree" in done.stderr
