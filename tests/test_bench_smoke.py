"""The benchmark runs end to end on tiny sizes and reports every check
passed, so an engine change that breaks it fails here first."""

import json
import subprocess
import sys
from pathlib import Path

from cluster_consensus import engine

ROOT = Path(__file__).resolve().parent.parent


def traced_fast_pass(workload):
    """The JSON result of one traced fast run of `workload`."""
    proc = subprocess.run(
        [sys.executable, "bench/bench.py", "--workload", workload, "--fast",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    return result


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
    batch driver calls the traced advance once per block of sweeps."""
    result = traced_fast_pass("intra_delay")
    assert result["metrics"]["engine.advance.calls"]["value"] > 0, result


def test_bench_traced_ensemble_verify_sweeps_once_per_block(monkeypatch):
    """A traced ensemble_verify pass calls the traced advance at most once
    per diagnostics block of its runs, each of which spans its run."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    specs = workloads.WORKLOADS["ensemble_verify"](0, True, ROOT).scenarios
    blocks = sum(-(-(spec.max_iters + 1) // engine._block_length(
        spec.total_nodes, spec.d, spec.max_iters + 1)) for spec in specs)
    assert blocks == len(specs)
    result = traced_fast_pass("ensemble_verify")
    assert 0 < result["metrics"]["engine.advance.calls"]["value"] <= blocks, result
