"""Preset scenarios and parameter studies.

The small preset is a 60-node network: three clusters of 20, followers on a
ring, leaders chained on a line graph, gamma = 0.5, beta = 0.1, delay 10.
The large preset scales to 400 nodes: five random-geometric clusters of 80
(radius 0.3), delay 20, beta = 0.05.  All studies reuse one seed and one
network across rows so that differences between rows come from the swept
parameter alone, and they run their rows as one batch (see _run_rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scenario
from .analysis import bound_params, verify_bounds
from .engine import _drive, _follower_disagreement
from .errors import DomainError
from .scenario import ScenarioSpec
from .topology import _check_delay, build_clustered_network, spectral_summary

SMALL_PRESET_SEED = 11
LARGE_PRESET_SEED = 23


def preset_small(seed: int = SMALL_PRESET_SEED) -> ScenarioSpec:
    """60 nodes: 3 ring clusters of 20, leaders at ids 0/20/40 on a line."""
    return ScenarioSpec(
        family="ring",
        cluster_sizes=(20, 20, 20),
        gamma=0.5,
        beta=0.1,
        tau=10,
        seed=seed,
        max_iters=10_000,
    )


def preset_large(seed: int = LARGE_PRESET_SEED) -> ScenarioSpec:
    """400 nodes: 5 random-geometric clusters of 80, radius 0.3, delay 20."""
    return ScenarioSpec(
        family="geometric",
        cluster_sizes=(80, 80, 80, 80, 80),
        radius=0.3,
        gamma=0.5,
        beta=0.05,
        tau=20,
        seed=seed,
        max_iters=20_000,
    )


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float


@dataclass
class SweepResult:
    """Rows of one parameter study, ordered by the swept axis.

    Rows are dicts sharing one key set per study; `fit` is a least-squares
    line over the converged rows where the study requests one, or None when
    the converged rows hold fewer than two distinct values of the axis.
    """

    axis: str
    rows: list
    fit: LinearFit | None = None

    @property
    def all_capped(self) -> bool:
        return all(not r["converged"] for r in self.rows)


def _linear_fit(xs, ys) -> LinearFit | None:
    if len(set(xs)) < 2:
        return None
    x = np.asarray(xs, float)
    y = np.asarray(ys, float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LinearFit(float(slope), float(intercept), r2)


def _run_rows(network, specs, until: bool, row, evaluate=None) -> list:
    """One row per spec of a study, in order: row(spec, result) of the
    spec's RunResult, whose trace holds the columns that `evaluate`
    records (see engine._drive), every error family without it.  Each
    distinct spec runs once, and equal specs get copies of its row.  The
    distinct specs run in consecutive batches through the engine's batch
    driver, each batch as long as its estimated peak memory stays within
    MAX_PEAK_BYTES, and a batch's results become rows before the next
    batch runs, so the traces of one batch at a time are alive."""
    batches = []
    for spec in dict.fromkeys(specs):
        if not batches or (scenario._peak_bytes(*batches[-1], spec)
                           > scenario.MAX_PEAK_BYTES):
            batches.append([])
        batches[-1].append(spec)
    rows = {}
    for batch in batches:
        # A generator, so that no loop variable keeps a result alive.
        rows.update((spec, row(spec, result)) for spec, result
                    in zip(batch, _drive(network, batch, until, evaluate)))
    return [dict(rows[spec]) for spec in specs]


def _no_columns(followers, leaders, starts, sizes) -> tuple:
    """Records no error family: a tau_sweep row reads only whether and when
    its run settled."""
    return ()


def _follower_column(followers, leaders, starts, sizes) -> tuple:
    """Records follower disagreement alone, the one family that an
    intra_delay_study row reads."""
    return (_follower_disagreement(followers, starts, sizes)[1],)


def tau_sweep(base: ScenarioSpec, taus) -> SweepResult:
    """Iterations-to-threshold as a function of the inter-leader delay.

    beta is re-checked against beta_max for every tau (the admissible range
    shrinks with the delay); inadmissible rows are flagged but still run.
    Capped rows carry iterations = max_iters and are excluded from the fit.
    """
    network = build_clustered_network(base)
    specs = [base.replace(tau=tau)
             for tau in sorted(_check_delay("tau", t) for t in taus)]

    def row(spec, result):
        summary = spectral_summary(network, spec.tau)
        return {
            "tau": spec.tau,
            "converged": result.converged,
            "iterations": result.iterations,
            "admissible": summary.admits(spec.beta),
            "beta_max": summary.beta_max,
        }

    rows = _run_rows(network, specs, True, row, _no_columns)
    done = [r for r in rows if r["converged"]]
    line = _linear_fit([r["tau"] for r in done], [r["iterations"] for r in done])
    return SweepResult("tau", rows, line)


def rate_study(base: ScenarioSpec, betas) -> SweepResult:
    """Residual-floor scaling under the coupling gamma = beta^(1/3).

    Each row runs the base scenario with the pair (beta, beta^(1/3)) and
    records the gap envelope's residual term 2 * P * beta^(2/3) next to the
    observed supremum of the leader-follower gap, checking the gap envelope
    at every iteration along the way.
    """
    if base.tau_intra != 0:
        raise DomainError("rate study checks the gap envelope, which requires "
                          "tau_intra = 0")
    network = build_clustered_network(base)
    betas = sorted(float(b) for b in betas)
    for beta in betas:
        if not (0.0 < beta < 1.0):
            raise DomainError(f"rate study needs beta in (0, 1), got {beta}")
    specs = [base.replace(beta=beta, gamma=beta ** (1.0 / 3.0)) for beta in betas]

    def row(spec, result):
        beta, gamma, trace = spec.beta, spec.gamma, result.trace
        params = bound_params(network, spec)
        report = verify_bounds(trace, params)
        return {
            "beta": beta,
            "gamma": gamma,
            "converged": True,       # fixed-horizon run
            "admissible": params.beta_admissible,
            "residual_term": 2.0 * params.p_max * beta ** (2.0 / 3.0),
            "sup_gap": float(trace.leader_follower_gap.max()),
            "bound_ok": report.families["leader_follower_gap"].failures == 0,
        }

    return SweepResult("beta", _run_rows(network, specs, False, row))


def intra_delay_study(base: ScenarioSpec, tau_intra_values) -> SweepResult:
    """Effect of a uniform intra-cluster delay on both time scales.

    Per value, records the iteration where the follower disagreement first
    reaches the threshold, the settled iterations-to-threshold of the full
    network, and their ratio (the time-scale separation indicator).
    """
    network = build_clustered_network(base)
    admissible = spectral_summary(network, base.tau).admits(base.beta)
    specs = [base.replace(tau_intra=tau_intra) for tau_intra in
             sorted(_check_delay("tau_intra", t) for t in tau_intra_values)]

    def row(spec, result):
        follower_dis, = result.trace
        below = follower_dis.max(axis=1) <= spec.threshold
        follower_iter = int(below.argmax()) if below.any() else None
        ratio = None
        if result.converged and follower_iter is not None:
            ratio = result.iterations / max(follower_iter, 1)
        return {
            "tau_intra": spec.tau_intra,
            "converged": result.converged,
            "iterations": result.iterations,
            "follower_iterations": follower_iter,
            "separation_ratio": ratio,
            "admissible": admissible,
        }

    return SweepResult("tau_intra", _run_rows(network, specs, True, row,
                                              _follower_column))
