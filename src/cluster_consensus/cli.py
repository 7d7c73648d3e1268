"""Command-line front end.

Subcommands:

    preset         emit a ready-made configuration document
    spectral       print the spectral quantities and the step-size verdict
    run            simulate until settled, write a trace CSV and a manifest
    verify-bounds  re-run a configuration and check it against the envelopes
    sweep-tau      iterations-to-threshold across inter-leader delays
    rate-study     residual-floor scaling under gamma = beta^(1/3)
    intra-delay    time-scale separation under intra-cluster delays

The three studies share one command, cmd_study: each study's subparser
names its study function, how to parse its list of values and what to say
when the list is empty.

Exit codes: 0 success, 1 verification failure, 2 usage, 3 bad configuration,
4 topology failure, 5 cap exhaustion, 6 storage failure.  Floats in CSV
artifacts carry 17 significant digits so parsing them back is lossless.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import BoundParams, bound_params, envelopes, verify_bounds
from .engine import RunResult, Trace, run_until
from .errors import (
    ConfigError,
    ConsensusError,
    DomainError,
    StorageError,
    TopologyError,
)
from .experiments import (
    SweepResult,
    intra_delay_study,
    preset_large,
    preset_small,
    rate_study,
    tau_sweep,
)
from .scenario import ScenarioSpec, parse_config_text
from .topology import build_clustered_network, spectral_summary

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_TOPOLOGY = 4
EXIT_CAP = 5
EXIT_STORAGE = 6

TOOL_NAME = "cluster-consensus"


def _fmt(x) -> str:
    """17 significant digits: enough for exact float round-trips."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------
# artifact io
# ---------------------------------------------------------------------

def parse_config(path) -> ScenarioSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise StorageError(f"cannot read configuration {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"configuration {path} is not UTF-8: {e}") from e
    return parse_config_text(text)


def _write_text(path, text: str):
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise StorageError(f"cannot write {path}: {e}") from e


def write_report(data: dict, path):
    """Pretty-printed JSON report."""
    _write_text(path, json.dumps(data, indent=2) + "\n")


def trace_header(cluster_count: int, with_bounds: bool = False) -> list:
    r = cluster_count
    cols = (["k"]
            + [f"follower_dis_{a + 1}" for a in range(r)]
            + ["leader_dis"]
            + [f"gap_{a + 1}" for a in range(r)]
            + ["global_err"])
    if with_bounds:
        cols += ([f"L1_{a + 1}" for a in range(r)]
                 + ["L2"]
                 + [f"L3_{a + 1}" for a in range(r)]
                 + [f"T1_{a + 1}" for a in range(r)])
    return cols


def write_trace(trace: Trace, path, params: BoundParams | None = None):
    """Trace CSV: one row per iteration, envelope columns when params given.

    Inapplicable envelope values are written as NA, never as numbers.  Each
    row goes through one format string, whose %.17g equals _fmt.
    """
    count = len(trace)
    if not count:
        raise ConsensusError("refusing to write an empty trace")
    r = trace.follower_disagreement.shape[1]
    columns = [np.arange(count), trace.follower_disagreement,
               trace.leader_disagreement, trace.leader_follower_gap, trace.global_error]
    cells = ["%d"] + ["%.17g"] * (2 * r + 2)
    if params is not None:
        for values, width in zip(envelopes(params, count), (r, 1, r, r)):
            if values is None:
                cells += ["NA"] * width
            else:
                cells += ["%.17g"] * width
                columns.append(values)
    row = ",".join(cells)
    lines = [",".join(trace_header(r, params is not None))]
    lines += [row % tuple(values) for values in np.column_stack(columns).tolist()]
    _write_text(path, "\n".join(lines) + "\n")


def sweep_csv(result: SweepResult, path):
    keys = list(result.rows[0].keys())
    lines = [",".join(keys)]
    for row in result.rows:
        cells = []
        for key in keys:
            v = row[key]
            if v is None:
                cells.append("NA")
            elif isinstance(v, bool):
                cells.append(str(v).lower())
            elif isinstance(v, float):
                cells.append(_fmt(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------

@dataclass
class RunManifest:
    """Reproduction record: config echo, spectral context, outcome, artifacts."""

    config: dict
    spectral: dict
    admissibility: dict
    outcome: dict
    artifacts: dict

    def to_dict(self) -> dict:
        return {"tool": TOOL_NAME, "version": __version__, **asdict(self)}


def build_manifest(spec: ScenarioSpec, network, result: RunResult,
                   artifacts: dict) -> RunManifest:
    summary = spectral_summary(network, spec.tau)
    return RunManifest(
        config=spec.to_dict(),
        spectral={
            "sigma_per_cluster": list(summary.sigma_per_cluster),
            "delta_c": summary.delta_c,
            "beta_max": summary.beta_max,
            "eta": summary.rate(spec.beta),
        },
        admissibility={
            "verdict": _verdict(summary, spec.beta),
            "beta": spec.beta,
            "beta_max": summary.beta_max,
        },
        outcome={
            "converged": result.converged,
            "iterations": result.iterations,
            "cap": spec.max_iters,
            "threshold": spec.threshold,
        },
        artifacts=artifacts,
    )


def _verdict(summary, beta: float) -> str:
    return "admissible" if summary.admits(beta) else "inadmissible"


def manifest_path(trace_path) -> Path:
    return Path(trace_path).with_suffix(".manifest.json")


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------

def _load_spec(args) -> ScenarioSpec:
    spec = parse_config(args.config)
    overrides = {name: getattr(args, name) for name in ("seed", "max_iters", "threshold")
                 if getattr(args, name) is not None}
    return spec.replace(**overrides) if overrides else spec


def cmd_preset(args) -> int:
    spec = preset_small() if args.name == "small" else preset_large()
    if args.seed is not None:
        spec = spec.replace(seed=args.seed)
    text = spec.to_json()
    if args.config:
        _write_text(args.config, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_spectral(args) -> int:
    spec = _load_spec(args)
    network = build_clustered_network(spec)
    summary = spectral_summary(network, spec.tau)
    for a, sigma in enumerate(summary.sigma_per_cluster):
        print(f"sigma_{a + 1} = {_fmt(sigma)}")
    print(f"delta_c = {_fmt(summary.delta_c)}")
    print(f"beta_max = {_fmt(summary.beta_max)}")
    rate = summary.rate(spec.beta)
    print(f"eta(beta={spec.beta}) = "
          + ("n/a (beta = 1)" if rate is None else _fmt(rate)))
    print(f"verdict: {_verdict(summary, spec.beta)}")
    return EXIT_OK


def cmd_run(args) -> int:
    spec = _load_spec(args)
    network = build_clustered_network(spec)
    result = run_until(network, spec)
    params = bound_params(network, spec) if args.with_bounds else None
    write_trace(result.trace, args.trace, params)
    mpath = manifest_path(args.trace)
    manifest = build_manifest(
        spec, network, result,
        artifacts={"trace": str(args.trace), "manifest": str(mpath)},
    )
    write_report(manifest.to_dict(), mpath)
    return EXIT_OK if result.converged else EXIT_CAP


def _skipped_families(report, params: BoundParams) -> list:
    """One line per envelope family the report left unchecked, naming the
    hypothesis the run violates: an admissible beta for the leader family,
    no intra-cluster delay for the follower families, both for node errors."""
    delay = f"tau_intra = {params.tau_intra} > 0"
    beta = f"beta = {params.beta!r} is not below beta_max = {params.beta_max!r}"
    lines = []
    for name, family in report.families.items():
        if family.applicable:
            continue
        reasons = []
        if name != "leader_disagreement" and not params.follower_applicable:
            reasons.append(delay)
        if name in ("leader_disagreement", "node_error") and not params.leader_applicable:
            reasons.append(beta)
        lines.append(f"{name} not checked: {'; '.join(reasons)}")
    return lines


def cmd_verify_bounds(args) -> int:
    spec = _load_spec(args)
    network = build_clustered_network(spec)
    result = run_until(network, spec)
    params = bound_params(network, spec)
    report = verify_bounds(result.trace, params)
    write_report(report.to_dict(), args.report)
    for line in _skipped_families(report, params):
        print(f"verify-bounds: {line}", file=sys.stderr)
    if not report.all_satisfied:
        return EXIT_FAILURE
    return EXIT_OK if result.converged else EXIT_CAP


def _parse_list(text: str, kind, noun: str) -> list:
    """The comma-separated values of `text`, each converted by `kind`."""
    try:
        return [kind(x) for x in text.split(",") if x.strip()]
    except ValueError as e:
        raise ConfigError(f"expected a comma-separated {noun} list, "
                          f"got {text!r}") from e


def cmd_study(args) -> int:
    """One parameter study: args.study over the values of args.values,
    parsed by args.kind, with the rows as CSV and the report as JSON."""
    spec = _load_spec(args)
    values = _parse_list(args.values, *args.kind)
    if not values:
        raise ConfigError(args.empty)
    result = args.study(spec, values)
    if args.trace is not None:          # optional, but an empty path is a path
        sweep_csv(result, args.trace)
    data = {"axis": result.axis, "rows": result.rows}
    if result.fit is not None:
        data["fit"] = asdict(result.fit)
    write_report(data, args.report)
    return EXIT_CAP if result.all_capped else EXIT_OK


# ---------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Two-time-scale consensus over clustered networks: "
                    "simulate, sweep, and check convergence envelopes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trace=False, report=False):
        p.add_argument("--config", required=True, help="scenario JSON document")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--max-iters", type=int, dest="max_iters",
                       help="override the iteration cap")
        p.add_argument("--threshold", type=float,
                       help="override the stopping threshold")
        if trace:
            p.add_argument("--trace", required=True, help="output CSV path")
        if report:
            p.add_argument("--report", required=True, help="output JSON path")

    p = sub.add_parser("preset", help="emit a ready-made configuration")
    p.add_argument("name", choices=("small", "large"))
    p.add_argument("--seed", type=int, help="override the preset seed")
    p.add_argument("--config", help="write here instead of stdout")
    p.set_defaults(func=cmd_preset)

    p = sub.add_parser("spectral", help="print spectral quantities and verdict")
    common(p)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("run", help="simulate until settled; write trace + manifest")
    common(p, trace=True)
    p.add_argument("--with-bounds", action="store_true", dest="with_bounds",
                   help="append envelope columns to the trace")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify-bounds",
                       help="check a run against the convergence envelopes")
    common(p, report=True)
    p.set_defaults(func=cmd_verify_bounds)

    p = sub.add_parser("sweep-tau", help="iterations-to-threshold per delay")
    common(p, report=True)
    p.add_argument("--taus", required=True, dest="values", metavar="TAUS",
                   help="comma-separated delays")
    p.add_argument("--trace", help="optional CSV of the sweep rows")
    p.set_defaults(func=cmd_study, study=tau_sweep, kind=(int, "integer"),
                   empty="--taus names no delays")

    p = sub.add_parser("rate-study",
                       help="residual scaling under gamma = beta^(1/3)")
    common(p, report=True)
    p.add_argument("--betas", required=True, dest="values", metavar="BETAS",
                   help="comma-separated step sizes")
    p.add_argument("--trace", help="optional CSV of the study rows")
    p.set_defaults(func=cmd_study, study=rate_study, kind=(float, "float"),
                   empty="--betas names no step sizes")

    p = sub.add_parser("intra-delay",
                       help="time-scale separation per intra-cluster delay")
    common(p, report=True)
    p.add_argument("--tau-intra", required=True, dest="values", metavar="TAU_INTRA",
                   help="comma-separated intra-cluster delays")
    p.add_argument("--trace", help="optional CSV of the study rows")
    p.set_defaults(func=cmd_study, study=intra_delay_study, kind=(int, "integer"),
                   empty="--tau-intra names no delays")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as e:
        print(f"parameter error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except TopologyError as e:
        print(f"topology error: {e}", file=sys.stderr)
        return EXIT_TOPOLOGY
    except StorageError as e:
        print(f"storage error: {e}", file=sys.stderr)
        return EXIT_STORAGE
    except ConsensusError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
