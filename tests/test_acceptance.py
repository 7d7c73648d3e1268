"""Acceptance suite: one test per gating criterion.

Each test is self-contained and prints nothing on success; expected values
were frozen from independent dense-arithmetic reference runs before the
suite was wired up.  Criterion 6 encodes a destabilisation expectation for
the unit leader step size; see the "Tests" section of README.md for the
analysis of that scenario.
"""

import subprocess
import time

import numpy as np

import oracle
from cluster_consensus import (
    ScenarioSpec,
    StepSizes,
    advance,
    bound_params,
    build_clustered_network,
    eta,
    init_state,
    intra_delay_study,
    line_graph,
    max_stable_beta,
    metropolis_weights,
    preset_small,
    rate_study,
    run,
    run_until,
    sample_initial_values,
    second_largest_singular_value,
    tau_sweep,
    verify_bounds,
)
from cluster_consensus import engine

SLACK = 1e-9
STEP_TOL = 1e-12


def random_admissible_instance(rng, index):
    """One randomized scenario with beta at half its admissible ceiling."""
    r = int(rng.integers(2, 6))
    sizes = tuple(int(s) for s in rng.integers(3, 11, size=r))
    tau = int(rng.integers(0, 11))
    gamma = float(rng.uniform(0.3, 0.9))
    d = int(rng.choice([1, 3]))
    delta = second_largest_singular_value(metropolis_weights(line_graph(r)))
    ceiling = 1.0 - delta ** (1.0 / tau) if tau >= 1 else 1.0 - delta
    return ScenarioSpec(
        family="geometric",
        cluster_sizes=sizes,
        radius=0.8,
        gamma=gamma,
        beta=0.5 * ceiling,
        tau=tau,
        tau_intra=0,
        d=d,
        seed=1000 + index,
        max_iters=500,
    )


def test_criterion_01_envelope_satisfaction():
    """50 randomized admissible runs stay under all four envelopes for
    500 iterations, within 1e-9 of slack, in under a minute."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for index in range(50):
        spec = random_admissible_instance(rng, index)
        network = build_clustered_network(spec)
        params = bound_params(network, spec)
        assert params.beta_admissible, spec
        report = verify_bounds(run(network, spec), params, slack=SLACK)
        assert report.all_satisfied, (spec, report.to_dict()["families"])
        for name, fam in report.families.items():
            assert fam.applicable and fam.checked > 0, (name, spec)
    assert time.perf_counter() - started < 60.0


def test_criterion_01_runs_in_one_block(monkeypatch):
    """Each criterion-1 run sweeps its 500 iterations in one call and one
    diagnostics block, and its columns are the bytes of a run in blocks of
    BLOCK_ITERATIONS, eight per run."""
    rng = np.random.default_rng(2024)
    specs = [random_admissible_instance(rng, index) for index in range(50)]
    networks = [build_clustered_network(spec) for spec in specs]
    sweep, block_length, counts = engine.advance, engine._block_length, []

    def counting(state, count=1):
        counts.append(count)
        return sweep(state, count)

    def columns():
        counts.clear()
        return [[c.tobytes() for c in run(network, spec).columns]
                for network, spec in zip(networks, specs)]

    monkeypatch.setattr(engine, "advance", counting)
    whole = columns()
    assert counts == [500] * 50
    monkeypatch.setattr(engine, "_block_length",
                        lambda rows, d, iterations=None: block_length(rows, d))
    assert columns() == whole
    assert counts == [63, 64, 64, 64, 64, 64, 64, 53] * 50


def test_criterion_02_rate_boundary_identity():
    """The contraction rate lands on exactly 1 at the admissible ceiling
    (1000 random delay/spectrum pairs) and stays below 1 inside it."""
    rng = np.random.default_rng(4096)
    for _ in range(1000):
        delta = float(rng.uniform(0.005, 0.995))
        tau = int(rng.integers(1, 51))
        ceiling = max_stable_beta(delta, tau)
        assert abs(eta(ceiling, delta, tau) - 1.0) <= 1e-9
        for theta in (0.1, 0.5, 0.9):
            assert eta(theta * ceiling, delta, tau) < 1.0


EQUIVALENCE_INSTANCES = [
    dict(family="ring", cluster_sizes=(5, 5), gamma=0.5, beta=0.2, tau=0),
    dict(family="ring", cluster_sizes=(5, 5, 5), gamma=0.3, beta=0.1, tau=4),
    dict(family="ring", cluster_sizes=(6, 4), gamma=0.7, beta=1.0, tau=2),
    dict(family="ring", cluster_sizes=(5, 5), gamma=0.5, beta=0.2, tau=3,
         tau_intra=2),
    dict(family="ring", cluster_sizes=(5, 5), gamma=0.5, beta=0.2, tau=1,
         tau_intra=5, d=3),
    dict(family="geometric", cluster_sizes=(8, 7, 9), gamma=0.4, beta=0.15,
         tau=5, radius=0.6, leader_graph="complete", d=2),
    dict(family="geometric", cluster_sizes=(10, 10), gamma=0.6, beta=0.05,
         tau=7, tau_intra=3, radius=0.5),
    dict(family="ring", cluster_sizes=(4, 4, 4, 4), gamma=0.45, beta=0.3,
         tau=10),
    dict(family="geometric", cluster_sizes=(6, 6, 6, 6, 6), gamma=0.55,
         beta=0.08, tau=6, radius=0.7, tau_intra=1),
    dict(family="ring", cluster_sizes=(7, 5, 6), gamma=0.35, beta=0.5,
         tau=0, d=3),
]


def _global(network, state):
    out = np.zeros((network.total_nodes, state.followers_at(0).shape[1]))
    out[[i for cl in network.clusters for i in cl.follower_ids]] = state.followers_at(0)
    out[[c.leader_id for c in network.clusters]] = state.leaders_at(0)
    return out


def _follower_means(state):
    return np.stack([b.mean(axis=0)
                     for b in np.split(state.followers_at(0), state.starts[1:])])


def test_criterion_03_engine_equivalence():
    """The engine's neighbour-list updates and dense matrix arithmetic
    agree to 1e-12 over 100 steps on ten varied instances."""
    for index, kw in enumerate(EQUIVALENCE_INSTANCES):
        spec = ScenarioSpec(seed=40 + index, max_iters=100, **kw)
        network = build_clustered_network(spec)
        init = sample_initial_values(spec, network.total_nodes)
        state = init_state(network, init, spec.tau, spec.tau_intra,
                           steps=StepSizes(spec.gamma, spec.beta))
        ref = oracle.simulate_dense(network, init, spec.gamma, spec.beta,
                                   spec.tau, spec.tau_intra, steps=100)
        for k in range(1, 101):
            advance(state)
            assert np.allclose(_global(network, state), ref[k],
                               atol=1e-12), (index, k)


def test_criterion_04_average_conservation():
    """Cluster and leader averages follow their one-step recursions to
    1e-12 on every instance of the envelope suite; with the constant
    prefilled history the leader average never drifts over 500 steps."""
    rng = np.random.default_rng(2024)      # same instances as criterion 1
    for index in range(50):
        spec = random_admissible_instance(rng, index)
        network = build_clustered_network(spec)
        init = sample_initial_values(spec, network.total_nodes)
        state = init_state(network, init, spec.tau, spec.tau_intra,
                           steps=StepSizes(spec.gamma, spec.beta))
        fmeans = [_follower_means(state)]
        lmeans = [state.leaders_at(0).mean(axis=0)]
        leaders = [state.leaders_at(0).copy()]
        steps = 500 if index == 0 else 60
        for _ in range(steps):
            advance(state)
            fmeans.append(_follower_means(state))
            lmeans.append(state.leaders_at(0).mean(axis=0))
            leaders.append(state.leaders_at(0).copy())
        for k in range(steps):
            want = ((1 - spec.gamma) * fmeans[k]
                    + spec.gamma * leaders[k])
            assert np.max(np.abs(fmeans[k + 1] - want)) <= STEP_TOL
            delayed = lmeans[max(k - spec.tau, 0)]
            want_l = (1 - spec.beta) * lmeans[k] + spec.beta * delayed
            assert np.max(np.abs(lmeans[k + 1] - want_l)) <= STEP_TOL
        drift = np.max(np.abs(np.stack(lmeans) - lmeans[0]))
        assert drift <= STEP_TOL


def test_criterion_05_small_network_two_time_scale():
    """The 60-node delayed scenario settles below its cap in seconds, with
    follower agreement arriving at least three times earlier than global
    agreement."""
    started = time.perf_counter()
    spec = preset_small()
    network = build_clustered_network(spec)
    result = run_until(network, spec)
    elapsed = time.perf_counter() - started

    assert result.converged
    assert result.iterations < spec.max_iters
    assert result.iterations == 174          # frozen reference value

    crossing = next(
        k for k, row in enumerate(result.trace.follower_disagreement.tolist())
        if max(row) <= spec.threshold
    )
    assert crossing == 12                    # frozen reference value
    assert result.iterations / crossing >= 3.0
    assert elapsed < 5.0


def test_criterion_06_unit_leader_step_instability():
    """With the leader step size at its maximum the delayed exchange is
    expected to destabilise: no settling within the nominal scenario's
    iteration count and leader disagreement rising on at least a fifth of
    the first 200 steps."""
    nominal = 174                            # settling count of the nominal run
    spec = preset_small().replace(beta=1.0, max_iters=nominal)
    network = build_clustered_network(spec)
    result = run_until(network, spec)
    assert not result.converged, (
        f"settled at iteration {result.iterations} despite beta = 1"
    )

    trace = run(network, preset_small().replace(beta=1.0, max_iters=200))
    dis = [rec.leader_disagreement for rec in trace.records]
    rises = sum(1 for a, b in zip(dis, dis[1:]) if b > a)
    assert rises >= 0.2 * (len(dis) - 1), (
        f"leader disagreement rose on {rises} of {len(dis) - 1} steps"
    )


def test_criterion_07_delay_linearity():
    """Settling time grows with the inter-leader delay, nondecreasing and
    close to linear across delays 0 through 50."""
    started = time.perf_counter()
    result = tau_sweep(preset_small(), [0, 10, 20, 30, 40, 50])
    elapsed = time.perf_counter() - started

    iters = [row["iterations"] for row in result.rows]
    assert all(row["converged"] for row in result.rows)
    assert iters == [118, 174, 222, 262, 301, 319]   # frozen reference values
    assert all(a <= b for a, b in zip(iters, iters[1:]))
    assert result.fit.r_squared >= 0.9
    assert elapsed < 30.0


def test_criterion_08_residual_scaling():
    """Coupling the step sizes as gamma = beta^(1/3) puts the gap envelope's
    floor at exactly 2 * P * beta^(2/3); an eightfold beta moves it by a
    factor of four, and every run stays under its envelope."""
    base = preset_small().replace(max_iters=500)
    betas = [1e-3, 8e-3]
    result = rate_study(base, betas)

    for row in result.rows:
        spec = base.replace(beta=row["beta"], gamma=row["beta"] ** (1 / 3))
        vals = sample_initial_values(spec, spec.total_nodes)
        p_max = float(np.linalg.norm(vals, axis=1).max())
        assert row["residual_term"] == 2.0 * p_max * row["beta"] ** (2.0 / 3.0)
        assert row["bound_ok"]

    lo, hi = result.rows
    assert abs(hi["residual_term"] / lo["residual_term"] - 4.0) <= 1e-12


def test_criterion_09_intra_delay_variant():
    """Five random-geometric clusters of 20 with delayed leader exchange:
    all runs settle, settling time is nondecreasing in the intra-cluster
    delay, and the time-scale separation collapses as that delay grows."""
    base = ScenarioSpec(
        family="geometric",
        cluster_sizes=(20, 20, 20, 20, 20),
        radius=0.3,
        gamma=0.5,
        beta=0.05,
        tau=20,
        seed=23,
        max_iters=20_000,
    )
    result = intra_delay_study(base, [0, 2, 15])

    assert all(row["converged"] for row in result.rows)
    iters = [row["iterations"] for row in result.rows]
    assert iters == [664, 995, 1515]          # frozen reference values
    assert all(a <= b for a, b in zip(iters, iters[1:]))
    ratios = {row["tau_intra"]: row["separation_ratio"] for row in result.rows}
    assert ratios[15] < ratios[0]


def test_criterion_10_process_determinism(tmp_path, cli):
    """Two separate command-line invocations of the same configuration
    produce byte-identical traces and manifests."""
    config = tmp_path / "config.json"
    config.write_text(preset_small().to_json())
    trace = tmp_path / "trace.csv"
    manifest = tmp_path / "trace.manifest.json"
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [*cli.command, "run", "--config", str(config),
             "--trace", str(trace)],
            capture_output=True, text=True, env=cli.env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append((trace.read_bytes(), manifest.read_bytes()))
    assert outs[0] == outs[1]
