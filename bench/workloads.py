"""The four benchmark workloads: scenario generation, one timed pass each,
and the correctness checks on every pass's outputs.

Every call into the package goes through a module attribute looked up at
call time (``cc.run_until``, ``cli.write_trace``), so that the tracer in
``spans.py`` sees the calls once it has rebound those attributes.

Each workload is a closed loop: the next operation starts when the previous
one has returned.  The workload seed only reaches the program through the
generated ScenarioSpec objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import cluster_consensus as cc
from cluster_consensus import cli

DEFAULT_SEED = 0       # reproduces the frozen reference values
UNSEEN_SEED = 7        # held back for the "holds on an unseen seed" check

ENVELOPE_SLACK = 1e-9  # the acceptance suite's verification slack
SIGMA_TOL = 1e-12      # a sigma may sit at most this far below the exact value

# Above this many followers second_largest_singular_value switches to power
# iteration, which under-estimates sigma (the unsafe direction).  Failures of
# the sigma check on such clusters are the known defect that ROADMAP item 4
# fixes: they are counted and listed, but they do not make a pass incorrect,
# as long as the shortfall stays within the measured defect.  The largest
# measured is 4.1e-7, on the 800-follower ring; a larger shortfall fails.
KNOWN_UNSAFE_ABOVE = 512
KNOWN_SHORTFALL = 1e-6


def spec_seed(base: int, seed: int) -> int:
    """Scenario seed for workload seed `seed`; `base` at the default seed."""
    return (base + seed) % 2**32


def time_setup(specs) -> float:
    """Seconds to build each scenario's network and its spectral summary."""
    t0 = perf_counter()
    for spec in specs:
        cc.spectral_summary(cc.build_clustered_network(spec), spec.tau)
    return perf_counter() - t0


def settle_steps(spec, result) -> int:
    """Sweeps run_until executed: past the settling iteration it runs the
    confirmation window of max(tau, tau_intra) + 1 iterations."""
    if not result.converged:
        return spec.max_iters
    return result.iterations + max(spec.tau, spec.tau_intra)


@dataclass
class Checks:
    """Outcome of the correctness checks over all passes of one run."""

    attempted: int = 0
    failed: list = field(default_factory=list)
    known: list = field(default_factory=list)

    def check(self, ok: bool, what: str, known: bool = False):
        self.attempted += 1
        if not ok:
            (self.known if known else self.failed).append(what)


@dataclass
class Pass:
    """Timings and work counts of one pass.

    wall_s covers the program's work and the checks of the pass, but not
    the exact reference values the checks compare against (those depend
    only on the inputs and are computed once per run).  work counts
    iterations executed, the unit used to scale wall_s to the default
    seed's amount of work on the settling workloads.
    """

    wall_s: float
    setup_s: float
    run_s: float
    node_steps: int
    work: int
    scenario_s: list = field(default_factory=list)   # per instance, build to verdict
    verify_s: float = 0.0
    verify_checks: int = 0
    trace_bytes: int = 0


class SigmaReference:
    """Exact sigma of each follower matrix, independent of the package's
    spectral code: the ring closed form 1/3 + (2/3) cos(2 pi / n), or a
    dense SVD of W - (1/n) 11^T.  Cached per matrix; `spent` accumulates
    the time spent computing them so passes can leave it out."""

    def __init__(self):
        self._cache = {}
        self.spent = 0.0

    def value(self, family: str, weights: np.ndarray) -> float:
        n = weights.shape[0]
        if family == "ring":
            return 1.0 / 3.0 + (2.0 / 3.0) * math.cos(2.0 * math.pi / n)
        key = weights.tobytes()
        if key not in self._cache:
            t0 = perf_counter()
            dev = weights - np.full((n, n), 1.0 / n)
            self._cache[key] = float(np.linalg.svd(dev, compute_uv=False)[0])
            self.spent += perf_counter() - t0
        return self._cache[key]

    def check(self, spec, network, sigmas, checks: Checks, label: str):
        for a, (cluster, sigma) in enumerate(zip(network.clusters, sigmas)):
            weights = np.asarray(cluster.follower_weights.entries)
            n = weights.shape[0]
            exact = self.value(spec.family, weights)
            checks.check(
                sigma >= exact - SIGMA_TOL,
                f"{label} cluster {a + 1} ({n} followers): sigma {sigma!r} is "
                f"{exact - sigma:.2g} below the exact {exact!r}",
                known=n > KNOWN_UNSAFE_ABOVE and exact - sigma <= KNOWN_SHORTFALL,
            )


def check_envelope_columns(csv_text: str, checks: Checks, label: str):
    """Every empirical column of a --with-bounds trace stays under its
    envelope column (plus slack) on every row where the envelope applies."""
    lines = csv_text.splitlines()
    col = {name: i for i, name in enumerate(lines[0].split(","))}
    r = sum(1 for name in col if name.startswith("follower_dis_"))
    families = {
        "follower_disagreement": [(f"follower_dis_{a}", f"L1_{a}") for a in range(1, r + 1)],
        "leader_disagreement": [("leader_dis", "L2")],
        "leader_follower_gap": [(f"gap_{a}", f"L3_{a}") for a in range(1, r + 1)],
    }
    rows = [line.split(",") for line in lines[1:]]
    for family, pairs in families.items():
        applicable = False
        worst = None
        for cells in rows:
            for emp, env in pairs:
                bound = cells[col[env]]
                if bound == "NA":
                    continue
                applicable = True
                if float(cells[col[emp]]) > float(bound) + ENVELOPE_SLACK:
                    worst = worst or cells[0]
        if applicable:
            checks.check(worst is None,
                         f"{label}: {family} exceeds its envelope at k = {worst}")


# ---------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------

class LargeSettle:
    """preset_large through the `run --with-bounds` path."""

    name = "large_settle"
    min_passes = 2                  # byte-identity compares two passes
    reference_work = 623            # advance() calls at the default seed

    def __init__(self, seed: int, fast: bool, out_dir):
        spec = cc.preset_large(spec_seed(cc.experiments.LARGE_PRESET_SEED, seed))
        if fast:
            spec = spec.replace(cluster_sizes=(12, 12, 12), radius=0.6)
        self.spec = spec
        self.scenarios = [spec]
        self.frozen = seed == DEFAULT_SEED and not fast
        self.trace_path = out_dir / f"{self.name}.trace.csv"
        self.first_artifacts = None
        self.reference = SigmaReference()

    def run_pass(self, checks: Checks) -> Pass:
        spec = self.spec
        spent = self.reference.spent
        t0 = perf_counter()
        network = cc.build_clustered_network(spec)
        cc.spectral_summary(network, spec.tau)
        t1 = perf_counter()
        result = cc.run_until(network, spec)
        t2 = perf_counter()
        params = cc.bound_params(network, spec)
        cli.write_trace(result.trace, self.trace_path, params)
        mpath = cli.manifest_path(self.trace_path)
        manifest = cli.build_manifest(
            spec, network, result,
            artifacts={"trace": str(self.trace_path), "manifest": str(mpath)},
        )
        cli.write_report(manifest.to_dict(), mpath)

        label = self.name
        artifacts = (self.trace_path.read_bytes(), mpath.read_bytes())
        checks.check(result.converged, f"{label}: run hit the cap")
        if self.frozen:
            checks.check(result.iterations == 603,
                         f"{label}: settled at {result.iterations}, expected 603")
        if self.first_artifacts is None:
            self.first_artifacts = artifacts
        else:
            checks.check(artifacts == self.first_artifacts,
                         f"{label}: trace or manifest bytes differ between passes")
        check_envelope_columns(artifacts[0].decode(), checks, label)
        self.reference.check(spec, network, manifest.spectral["sigma_per_cluster"],
                             checks, label)
        steps = settle_steps(spec, result)
        wall = perf_counter() - t0 - (self.reference.spent - spent)
        return Pass(wall_s=wall, setup_s=t1 - t0, run_s=t2 - t1,
                    node_steps=network.total_nodes * steps, work=steps,
                    trace_bytes=len(artifacts[0]))


def criterion_one_instance(rng, index: int, seed: int, fast: bool):
    """Acceptance criterion 1's generator: beta at half its admissible
    ceiling.  The shapes come from `rng`; the workload seed moves the
    scenario seed, which draws the graphs and the initial values."""
    r = int(rng.integers(2, 6))
    sizes = tuple(int(s) for s in rng.integers(3, 11, size=r))
    tau = int(rng.integers(0, 11))
    gamma = float(rng.uniform(0.3, 0.9))
    d = int(rng.choice([1, 3]))
    delta = cc.second_largest_singular_value(cc.metropolis_weights(cc.line_graph(r)))
    ceiling = 1.0 - delta ** (1.0 / tau) if tau >= 1 else 1.0 - delta
    return cc.ScenarioSpec(
        family="geometric", cluster_sizes=sizes, radius=0.8, gamma=gamma,
        beta=0.5 * ceiling, tau=tau, tau_intra=0, d=d,
        seed=spec_seed(1000 + index, 50 * seed),
        max_iters=100 if fast else 500,
    )


class EnsembleVerify:
    """Criterion 1: build, bound_params, run, verify_bounds per instance."""

    name = "ensemble_verify"
    min_passes = 1
    reference_work = None           # every seed runs the same iterations

    def __init__(self, seed: int, fast: bool, out_dir):
        rng = np.random.default_rng(2024)
        count = 3 if fast else 50
        self.scenarios = [criterion_one_instance(rng, i, seed, fast)
                          for i in range(count)]
        self.frozen = seed == DEFAULT_SEED and not fast

    def run_pass(self, checks: Checks) -> Pass:
        label = self.name
        start = perf_counter()
        setup_s = run_s = verify_s = 0.0
        node_steps = steps = verify_checks = 0
        scenario_s = []
        for index, spec in enumerate(self.scenarios):
            t0 = perf_counter()
            network = cc.build_clustered_network(spec)
            cc.spectral_summary(network, spec.tau)
            t1 = perf_counter()
            params = cc.bound_params(network, spec)
            t2 = perf_counter()
            trace = cc.run(network, spec)
            t3 = perf_counter()
            report = cc.verify_bounds(trace, params, slack=ENVELOPE_SLACK)
            t4 = perf_counter()
            setup_s += t1 - t0
            run_s += t3 - t2
            verify_s += t4 - t3
            scenario_s.append(t4 - t0)
            steps += spec.max_iters
            node_steps += network.total_nodes * spec.max_iters
            verify_checks += sum(f.checked for f in report.families.values())
            where = f"{label} instance {index}"
            checks.check(params.beta_admissible, f"{where}: beta not admissible")
            checks.check(report.all_satisfied, f"{where}: an envelope is violated")
            checks.check(
                all(f.applicable and f.checked > 0 for f in report.families.values()),
                f"{where}: an envelope family was not checked")
        if self.frozen:
            checks.check(verify_checks == 300_099,
                         f"{label}: {verify_checks} envelope checks, expected 300099")
        return Pass(wall_s=perf_counter() - start, setup_s=setup_s, run_s=run_s,
                    node_steps=node_steps, work=steps, scenario_s=scenario_s,
                    verify_s=verify_s, verify_checks=verify_checks)


class IntraDelay:
    """Criterion 9 through intra_delay_study."""

    name = "intra_delay"
    min_passes = 1
    reference_work = 3234           # advance() calls at the default seed
    tau_intra_values = (0, 2, 15)

    def __init__(self, seed: int, fast: bool, out_dir):
        self.base = cc.ScenarioSpec(
            family="geometric", cluster_sizes=(8, 8, 8) if fast else (20,) * 5,
            radius=0.6 if fast else 0.3, gamma=0.5, beta=0.05, tau=20,
            seed=spec_seed(23, seed), max_iters=20_000,
        )
        self.scenarios = [self.base.replace(tau_intra=t) for t in self.tau_intra_values]
        self.frozen = seed == DEFAULT_SEED and not fast

    def run_pass(self, checks: Checks) -> Pass:
        # The study builds its networks internally, so set-up is timed on
        # separate builds of the same specs, outside the pass's wall time.
        setup_s = time_setup(self.scenarios)
        t1 = perf_counter()
        study = cc.intra_delay_study(self.base, self.tau_intra_values)
        t2 = perf_counter()
        rows = study.rows
        iterations = [row["iterations"] for row in rows]
        label = self.name
        for row in rows:
            checks.check(row["converged"],
                         f"{label}: tau_intra = {row['tau_intra']} hit the cap")
        if self.frozen:
            checks.check(iterations == [664, 995, 1515],
                         f"{label}: settled at {iterations}, expected [664, 995, 1515]")
        steps = sum(row["iterations"] + max(self.base.tau, row["tau_intra"])
                    for row in rows)       # as settle_steps, from the rows
        return Pass(wall_s=perf_counter() - t1, setup_s=setup_s, run_s=t2 - t1,
                    node_steps=self.base.total_nodes * steps, work=steps)


class WideSpectral:
    """The `spectral` subcommand path on a ring and a geometric scenario,
    each with one cluster on each side of the exact/power-iteration split."""

    name = "wide_spectral"
    min_passes = 1
    reference_work = None           # the sizes, so the work, are fixed

    def __init__(self, seed: int, fast: bool, out_dir):
        sizes = ((7, 10), (8, 516)) if fast else ((401, 801), (401, 801))
        common = dict(gamma=0.5, beta=0.05, tau=20, seed=spec_seed(23, seed),
                      max_iters=1000)
        self.scenarios = [
            cc.ScenarioSpec(family="ring", cluster_sizes=sizes[0], **common),
            cc.ScenarioSpec(family="geometric", cluster_sizes=sizes[1],
                            radius=0.6 if fast else 0.1, **common),
        ]
        self.reference = SigmaReference()

    def run_pass(self, checks: Checks) -> Pass:
        spent = self.reference.spent
        start = perf_counter()
        setup_s = 0.0
        for spec in self.scenarios:
            t0 = perf_counter()
            network = cc.build_clustered_network(spec)
            summary = cc.spectral_summary(network, spec.tau)
            setup_s += perf_counter() - t0
            # the rest of `spectral`: the rate and the admissibility verdict
            if spec.beta < 1.0:
                cc.eta(spec.beta, summary.delta_c, spec.tau)
            _admissible = 0.0 < spec.beta < summary.beta_max
            self.reference.check(spec, network, summary.sigma_per_cluster, checks,
                                 f"{self.name} {spec.family}")
        wall = perf_counter() - start - (self.reference.spent - spent)
        return Pass(wall_s=wall, setup_s=setup_s, run_s=0.0, node_steps=0, work=0)


WORKLOADS = {w.name: w for w in (LargeSettle, EnsembleVerify, IntraDelay, WideSpectral)}
