"""Benchmark of the cluster-consensus toolkit: four workloads, end-to-end
metrics from untraced runs and per-layer metrics from traced runs.

    python3 bench/bench.py                       # all workloads, a child process each
    python3 bench/bench.py --workload large_settle --seed 0 --seconds 30 --trace 0
    python3 bench/bench.py --workload wide_spectral --trace 1
    python3 bench/bench.py --self-check          # tiny sizes, every metric present

Run it from the repository root.  It imports the package from src/ next to
this directory, never an installed copy, and writes its artifacts under
.bench_out/.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  See README.md beside this file
for the workloads and the definition of every metric.
"""

import os

# Fixed before numpy loads: one BLAS thread (never more than nproc) keeps
# CPU time equal to wall time and the figures steady on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("large_settle", "ensemble_verify", "intra_delay", "wide_spectral")
DEFAULT_SECONDS = 33
SETUP_SHARE = 0.1       # share of the run spent repeating set-up alone
CHILD_TIMEOUT = 900     # seconds one workload's child process may take

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# Per-layer metrics from the traced run.  <layer>.<function>.<stat> reads
# the spans of that function; the rest are counts and rates.
PER_LAYER = {
    "topology.build_clustered_network.s": "s",
    "topology.validate_weights.s": "s",
    "topology.spectral_summary.s": "s",
    "topology.second_largest_singular_value.s": "s",
    "topology.second_largest_singular_value.calls": "count",
    "engine.advance.s": "s",
    "engine.advance.calls": "count",
    "engine.advance.us_p50": "us",
    "engine.advance.us_p98": "us",
    "engine.follower_step.s": "s",
    "engine.follower_step.calls": "count",
    "engine.leader_step.s": "s",
    "engine.stopping_metric.s": "s",
    "engine.run_until.self_s": "s",
    "engine.run.self_s": "s",
    "engine.iterations": "count",
    "engine.node_steps": "count",
    "engine.node_steps_per_s": "1/s",
    "analysis.diagnostics.s": "s",
    "analysis.diagnostics.calls": "count",
    "analysis.verify_bounds.s": "s",
    "analysis.checks": "count",
    "analysis.verify_checks_per_s": "1/s",
    "analysis.theoretical_bounds.s": "s",
    "analysis.theoretical_bounds.calls": "count",
    "analysis.bound_params.s": "s",
    "experiments.intra_delay_study.self_s": "s",
    "cli.write_trace.s": "s",
    "cli.trace_bytes": "count",
    "trace_overhead_s": "s",
}
SPAN_STATS = ("s", "self_s", "calls", "us_p50", "us_p98")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def environment() -> dict:
    import numpy
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            revision = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_revision": revision,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def timed_passes(run_pass, checks, seconds: float, min_passes: int):
    """Run passes until the next one would end after `seconds`."""
    passes = []
    durations = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(checks))
        durations.append(perf_counter() - t0)
        if (len(passes) >= min_passes
                and perf_counter() - start + statistics.median(durations) > seconds):
            return passes


def end_to_end(workload, passes, setups, fast: bool) -> tuple:
    """JSON metrics and the human-only figures of an untraced run."""
    def work_ratio(p):
        if workload.reference_work is None or fast:
            return 1.0
        return workload.reference_work / p.work

    metrics = {
        "wall_s": statistics.median(p.wall_s * work_ratio(p) for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"pass_s": (statistics.median(p.wall_s for p in passes), "s")}
    run_s = sum(p.run_s for p in passes)
    if run_s > 0:
        extra["node_steps_per_s"] = (sum(p.node_steps for p in passes) / run_s, "1/s")
    verify_s = sum(p.verify_s for p in passes)
    if verify_s > 0:
        extra["verify_checks_per_s"] = (
            sum(p.verify_checks for p in passes) / verify_s, "1/s")
    samples = [t for p in passes for t in p.scenario_s]
    if len(samples) >= 50:
        extra["scenario_s_p50"] = (statistics.median(samples), "s")
        extra["scenario_s_p80"] = (percentile(samples, 80), "s")
    return metrics, extra


def per_layer(stats, functions, traced, untraced) -> tuple:
    """Per-layer metrics per traced pass, and the named functions that this
    version of the package does not have.  A function that is absent or
    that the workload never calls reads 0."""
    passes = len(traced)
    metrics = {}
    absent = set()
    for name in PER_LAYER:
        function, _, stat = name.rpartition(".")
        if stat not in SPAN_STATS:
            continue
        s = stats.get(function)
        if s is None:
            metrics[name] = 0.0
            if function not in functions:
                absent.add(function)
        elif stat in ("us_p50", "us_p98"):
            metrics[name] = percentile(s["durations"], float(stat[4:])) * 1e6
        else:
            metrics[name] = s[stat] / passes
    run_drivers = sum(stats.get(f, {"s": 0.0})["s"] for f in ("engine.run_until", "engine.run"))
    verify_s = stats.get("analysis.verify_bounds", {"s": 0.0})["s"]
    node_steps = sum(p.node_steps for p in traced)
    checks = sum(p.verify_checks for p in traced)
    metrics.update({
        "engine.iterations": stats.get("engine.advance", {"calls": 0})["calls"] / passes,
        "engine.node_steps": node_steps / passes,
        "engine.node_steps_per_s": node_steps / run_drivers if run_drivers else 0.0,
        "analysis.checks": checks / passes,
        "analysis.verify_checks_per_s": checks / verify_s if verify_s else 0.0,
        "cli.trace_bytes": sum(p.trace_bytes for p in traced) / passes,
        "trace_overhead_s": statistics.median(
            t.wall_s - u.wall_s for u, t in zip(untraced, traced)),
    })
    return metrics, sorted(absent)


def warm_up(name: str, seed: int, checks):
    """One untimed pass of the workload at the fast sizes, so that lazy
    imports, numpy's first calls and the output files are paid for before
    the clock starts.  Only its failed checks count, known defects aside."""
    import workloads

    warm_dir = OUT_DIR / "warmup"
    warm_dir.mkdir(exist_ok=True)
    warm_checks = workloads.Checks()
    workloads.WORKLOADS[name](seed, True, warm_dir).run_pass(warm_checks)
    for what in warm_checks.failed:
        checks.check(False, f"warm-up: {what}")
    gc.collect()


def run_workload(name: str, seed: int, seconds: float, trace: bool, fast: bool):
    import workloads
    from spans import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, fast, OUT_DIR)
    checks = workloads.Checks()
    warm_up(name, seed, checks)
    if trace:
        # Untraced and traced passes alternate, so each traced pass has an
        # untraced neighbour to measure the overhead against, closer in time
        # than the machine's speed drifts.  large_settle's byte-identity
        # check spans both kinds.
        tracer = Tracer("cluster_consensus")

        def pair(checks):
            untraced = workload.run_pass(checks)
            tracer.install()
            try:
                with tracer.span("bench.pass"):
                    traced = workload.run_pass(checks)
            finally:
                tracer.uninstall()
            return untraced, traced

        untraced, traced = zip(*timed_passes(pair, checks, seconds, 1))
        tracer.write(OUT_DIR / f"{name}.spans.csv")
        stats = tracer.aggregate()
        metrics, absent = per_layer(stats, tracer.functions, traced, untraced)
        units = PER_LAYER
        extra = {}
        shares = _shares(stats)
    else:
        # Each pass gives one set-up sample, and after each pass set-up alone
        # is repeated for SETUP_SHARE of the time.  The machine's speed
        # drifts over seconds, so the samples are spread over the run rather
        # than taken in one block.  Collecting first keeps the pass's garbage
        # out of the samples.
        setups = []
        run_end = perf_counter() + seconds

        def pass_and_setups(checks):
            t0 = perf_counter()
            p = workload.run_pass(checks)
            setups.append(p.setup_s)
            burst = SETUP_SHARE / (1 - SETUP_SHARE) * (perf_counter() - t0)
            gc.collect()
            deadline = min(perf_counter() + burst, run_end)
            while perf_counter() + statistics.median(setups) <= deadline:
                setups.append(workloads.time_setup(workload.scenarios))
            return p

        passes = timed_passes(pass_and_setups, checks, seconds, workload.min_passes)
        metrics, extra = end_to_end(workload, passes, setups, fast)
        units = END_TO_END
        shares = {}
        absent = []
        extra["passes"] = (len(passes), "count")
        extra["setup_samples"] = (len(setups), "count")
    total_failures = len(checks.failed) + len(checks.known)
    extra["failed_share"] = (total_failures / checks.attempted, "ratio")
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "fast": fast,
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "failures": sorted(set(checks.failed)),
        "known_defects": sorted(set(checks.known)),
        "absent": absent,
        "shares": shares,
    }


def _shares(stats) -> dict:
    """Inclusive time of each traced function as a share of the passes."""
    total = stats["bench.pass"]["s"]
    return {name: s["s"] / total for name, s in sorted(
        stats.items(), key=lambda item: -item[1]["s"]) if name != "bench.pass"}


def report(result: dict):
    name = result["workload"]
    for key in ("metrics", "extra"):
        for metric, m in result[key].items():
            print(f"{name:16s} {metric:44s} {m['value']:.6g} {m['unit']}")
    for share_name, share in list(result["shares"].items())[:12]:
        print(f"{name:16s} share {share_name:38s} {100 * share:.1f} %")
    for function in result["absent"]:
        print(f"{name:16s} absent: {function} (not in this version)")
    for what in result["known_defects"]:
        print(f"{name:16s} known defect: {what}")
    for what in result["failures"]:
        print(f"{name:16s} FAILED: {what}")


def contract_line(result: dict) -> str:
    return json.dumps({key: result[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def run_child(name: str, seed: int, seconds: float, trace: int, fast: bool):
    """Run one workload in a process of its own, so that ru_maxrss is that
    workload's peak.  Returns the process and its result line, or None."""
    command = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if fast:
        command.append("--fast")
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    return proc, result


def run_all(seed: int, seconds: float, fast: bool) -> int:
    """Every workload untraced, one child process each, and one result line
    that merges theirs."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc, result = run_child(name, seed, seconds, 0, fast)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or result is None:
            print("\n".join(lines))
            print(f"error: workload {name} failed", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        print(name, lines[-1])
        results[name] = result
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def self_check() -> int:
    """Run every workload at tiny sizes, untraced and traced, in child
    processes, and check that each reports every metric BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    if expected[0] != set(END_TO_END) or expected[1] != set(PER_LAYER):
        print("self-check: BENCHMARK.json and bench.py name different metrics")
        return 1
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc, result = run_child(name, 0, 1, trace, True)
            try:
                missing = expected[trace] - set(result["metrics"])
                good = proc.returncode == 0 and result["correct"] and not missing
            except (TypeError, KeyError):
                missing, good = {"result line"}, False
            ok &= good
            print(f"self-check {name:16s} trace={trace} "
                  f"{'ok' if good else 'FAILED'} {proc.stderr.strip()[-300:] if not good else ''}"
                  f"{' missing ' + str(sorted(missing)) if missing else ''}")
    print("self-check", "passed" if ok else "failed")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--fast", action="store_true",
                        help="tiny sizes, same code paths (for the self-check)")
    parser.add_argument("--self-check", action="store_true", dest="self_check")
    args = parser.parse_args(argv)

    if not (SRC / "cluster_consensus" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check()
    if args.workload == "all":
        if args.trace:
            parser.error("--trace 1 runs one workload at a time")
        return run_all(args.seed, args.seconds, args.fast)

    env = environment()
    print("environment", json.dumps(env))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.fast)
    result["environment"] = env
    (OUT_DIR / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n")
    report(result)
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
