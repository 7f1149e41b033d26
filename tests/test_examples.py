"""The example scripts run end to end, as a reader would run them."""

import os
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(repro.__file__).resolve().parents[1])


def _run(script: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_key_lifecycle_rotates_every_cell_and_index_entry():
    proc = _run("key_lifecycle.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "rotated: 9 cells and 3 index entries re-encrypted" in lines


def test_attack_demo_runs_every_attack():
    proc = _run("attack_demo.py")
    assert proc.returncode == 0, proc.stderr
