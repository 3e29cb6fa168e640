"""Smoke test of the benchmark harness in ``perfbench/``.

The traced run requires a span from every layer it lists, among them
``dynamics.next_event`` and ``dynamics.prepare_sides``; this keeps a change
to those code paths from breaking the benchmark unnoticed.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_orbit_workload_runs():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orbit-holed",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert '"failed": 0' in proc.stdout
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["failed"] == 0
