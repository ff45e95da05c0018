"""The benchmark harness runs against this checkout: every workload
completes a short traced run with every output correct.  Its span
recorder wraps names the package binds, so a rename shows up here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["corpus", "reject", "enumerate", "naturality"])
def test_bench_workload_runs_correctly(workload):
    r = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.3", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    if workload == "corpus":  # the CLI's lookups reach the wrapped Lexicon.types_of
        metrics = result["metrics"]
        assert metrics["lexicon.types_of.calls"]["value"] > 0
        assert metrics["lexicon.alternatives_per_token"]["value"] >= 1
