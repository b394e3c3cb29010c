"""Smoke test for the benchmark: every workload at its smallest size, untraced
and traced, with every output check.  Run with `python3 -m pytest bench`."""

import json
import os
import subprocess
import sys

import pytest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_workload_correctly(trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "all", "--seed", "1", "--seconds", "0", "--trace", trace, "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 3, proc.stdout
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stdout
        assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())
