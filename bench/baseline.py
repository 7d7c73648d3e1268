"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/baseline.py                      # 10 seeds, every workload
    python3 bench/baseline.py --seeds 5 --workload wide_spectral
    python3 bench/baseline.py --write bench/baseline.json --traced

For every workload and end-to-end metric it prints the median, the
quartiles from statistics.quantiles(values, n=4), and the spread: the
distance between the quartiles as a share of the median, which must stay
within the metric's bound in BENCHMARK.json.  With --traced it also makes
one traced run per workload at the default seed.  With --write it stores
the summary and the environment as JSON, for later changes to quote their
deltas against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "bench.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".bench_out" / f"{workload}.trace{trace}.json").read_text())
    if detail["metrics"] != last["metrics"]:
        raise SystemExit(f"{workload} seed {seed}: result file does not match the output")
    return detail


def summary(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--traced", action="store_true",
                        help="add one traced run per workload at the default seed")
    parser.add_argument("--write", help="store the summary as JSON here")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seeds = list(range(args.seeds))

    out = {"seeds": seeds, "run_seconds": config["run_seconds"], "workloads": {}}
    for name in names:
        runs = [run(name, seed, config["run_seconds"], 0) for seed in seeds]
        out.setdefault("environment", runs[0]["environment"])
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "known_defects": runs[0]["known_defects"],
                 "end_to_end": {}, "extra": {}}
        for key in ("end_to_end", "extra"):
            source = "metrics" if key == "end_to_end" else "extra"
            for metric, m in runs[0][source].items():
                values = [r[source][metric]["value"] for r in runs
                          if metric in r[source]]
                if len(values) == len(runs):
                    entry[key][metric] = dict(summary(values), unit=m["unit"])
        for metric, s in entry["end_to_end"].items():
            print(f"{name:16s} {metric:14s} median {s['median']:.6g} {s['unit']:4s} "
                  f"spread {s['spread']:.3f} (bound {bounds[metric]})")
        for metric, s in entry["extra"].items():
            print(f"{name:16s} {metric:22s} median {s['median']:.6g} {s['unit']}")
        print(f"{name:16s} correct {entry['correct']} failed {entry['failed']}")
        if args.traced:
            traced = run(name, seeds[0], config["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["shares"] = traced["shares"]
        out["workloads"][name] = entry
        sys.stdout.flush()
    if args.write:
        Path(args.write).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
