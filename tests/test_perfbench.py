"""Smoke test of the benchmark harness in ``perfbench/``.

The traced run requires a span from every layer it lists, among them
``dynamics.next_event`` and, in every workload's set-up,
``dynamics.prepare_sides``; running each workload once keeps a change to
those code paths from breaking the benchmark unnoticed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["correlate-square", "sweep-lshape",
                                      "chain-refined-lshape", "orbit-holed"])
def test_traced_workload_runs(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert '"failed": 0' in proc.stdout
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["failed"] == 0


def test_selftest_passes():
    """The harness's own unit tests: span and self-time arithmetic and the
    metric names."""
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
