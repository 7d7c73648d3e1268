"""The benchmark runs end to end on tiny sizes and reports every check
passed, so an engine change that breaks it fails here first."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_fast_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/bench.py", "--fast", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


def test_bench_traced_intra_delay_routes_sweeps_through_advance():
    """A traced intra_delay pass counts its sweeps in engine.advance: the
    batch driver calls the traced advance once per sweep."""
    proc = subprocess.run(
        [sys.executable, "bench/bench.py", "--workload", "intra_delay", "--fast",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["metrics"]["engine.advance.calls"]["value"] > 0, result
