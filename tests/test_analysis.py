import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from cluster_consensus import (
    ConsistencyError,
    DomainError,
    ScenarioSpec,
    Trace,
    bound_params,
    build_clustered_network,
    envelopes,
    eta,
    max_stable_beta,
    preset_small,
    run,
    sample_initial_values,
    verify_bounds,
)
from cluster_consensus.engine import _squares

DELTA_LINE3 = 2 / 3    # three leaders on a line under max-degree weights


def admissible_spec(**overrides):
    """Ring clusters, delayed leaders, beta safely inside (0, beta_max)."""
    base = dict(family="ring", cluster_sizes=(5, 5, 5), gamma=0.5, beta=0.06,
                tau=3, seed=31, max_iters=80)
    base.update(overrides)
    return ScenarioSpec(**base)


# ---------------------------------------------------------------------
# step-size algebra
# ---------------------------------------------------------------------

def test_max_stable_beta_values():
    assert max_stable_beta(DELTA_LINE3, 10) == pytest.approx(
        0.039735499207781966, abs=1e-15)
    assert max_stable_beta(DELTA_LINE3, 1) == pytest.approx(1 / 3, abs=1e-12)
    assert max_stable_beta(DELTA_LINE3, 0) == pytest.approx(1 / 3, abs=1e-12)


def test_max_stable_beta_shrinks_with_delay():
    values = [max_stable_beta(0.5, t) for t in range(1, 30)]
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("dc,tau", [(0.0, 1), (1.0, 1), (-0.2, 1), (0.5, -1)])
def test_max_stable_beta_domain(dc, tau):
    with pytest.raises(DomainError):
        max_stable_beta(dc, tau)


def test_eta_boundary_identity_with_delay():
    # at beta_max the rate lands exactly on 1 whenever tau >= 1
    for tau in (1, 2, 5, 10, 25):
        bm = max_stable_beta(DELTA_LINE3, tau)
        assert eta(bm, DELTA_LINE3, tau) == pytest.approx(1.0, abs=1e-12)


def test_eta_boundary_identity_fails_without_delay():
    # the tau = 0 threshold comes from a different argument, so the rate
    # at beta_max stays strictly below 1 there
    bm = max_stable_beta(DELTA_LINE3, 0)
    assert eta(bm, DELTA_LINE3, 0) == pytest.approx(8 / 9, abs=1e-12)
    assert eta(bm, DELTA_LINE3, 0) < 1.0


def test_eta_contracts_inside_admissible_range():
    for tau in (1, 4, 12):
        bm = max_stable_beta(DELTA_LINE3, tau)
        assert eta(0.5 * bm, DELTA_LINE3, tau) < 1.0
        assert eta(min(1.5 * bm, 0.9), DELTA_LINE3, tau) > 1.0


def test_eta_single_leader():
    assert eta(0.3, 0.0, 7) == pytest.approx(0.7, abs=1e-15)


def test_eta_zero_beta():
    assert eta(0.0, 0.5, 3) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("beta,dc,tau", [
    (1.0, 0.5, 2), (-0.1, 0.5, 2), (0.5, 1.0, 2), (0.5, -0.1, 2),
    (0.5, 0.5, -1),
])
def test_eta_domain(beta, dc, tau):
    with pytest.raises(DomainError):
        eta(beta, dc, tau)


# ---------------------------------------------------------------------
# bound parameters
# ---------------------------------------------------------------------

def test_bound_params_fields():
    spec = admissible_spec()
    network = build_clustered_network(spec)
    params = bound_params(network, spec)
    vals = sample_initial_values(spec, network.total_nodes)

    assert params.fingerprint == spec.fingerprint()
    assert params.p_max == pytest.approx(np.linalg.norm(vals, axis=1).max())
    assert params.delta_c == pytest.approx(DELTA_LINE3, abs=1e-12)
    assert len(params.sigma_per_cluster) == 3
    for a, cl in enumerate(network.clusters):
        block = vals[list(cl.follower_ids)]
        assert params.follower_init_norms[a] == pytest.approx(
            np.linalg.norm(block))
        assert params.initial_gaps[a] == pytest.approx(
            np.linalg.norm(block.mean(axis=0) - vals[cl.leader_id]))
    assert params.beta_admissible
    assert params.leader_applicable
    assert params.follower_applicable


def test_bound_params_inadmissible_beta():
    spec = admissible_spec(beta=0.5)    # far above beta_max ~ 0.126
    network = build_clustered_network(spec)
    params = bound_params(network, spec)
    assert not params.beta_admissible
    assert not params.leader_applicable
    assert params.eta is not None       # the rate is still a number, just > 1
    assert params.eta > 1.0


def test_bound_params_beta_one_has_no_rate():
    spec = admissible_spec(beta=1.0)
    network = build_clustered_network(spec)
    params = bound_params(network, spec)
    assert params.eta is None
    assert not params.leader_applicable


def test_bound_params_intra_delay_blocks_follower_families():
    spec = admissible_spec(tau_intra=2)
    network = build_clustered_network(spec)
    params = bound_params(network, spec)
    assert not params.follower_applicable
    assert params.leader_applicable     # leader dynamics ignore tau_intra


# ---------------------------------------------------------------------
# envelope evaluation
# ---------------------------------------------------------------------

def test_bounds_at_zero():
    spec = admissible_spec()
    network = build_clustered_network(spec)
    params = bound_params(network, spec)
    follower, leader, gap, node = (v[0] for v in envelopes(params, 1))
    residual = 2 * params.p_max * params.beta / params.gamma
    assert follower == pytest.approx(params.follower_init_norms)
    assert leader == pytest.approx(2 * params.leader_init_norm)
    assert gap == pytest.approx(np.array(params.initial_gaps) + residual)
    assert node == pytest.approx(follower + leader + gap)


def test_bounds_geometric_decay():
    spec = admissible_spec()
    network = build_clustered_network(spec)
    params = bound_params(network, spec)
    follower, leader, _, _ = envelopes(params, 13)
    for k in (0, 3, 11):
        for a, sigma in enumerate(params.sigma_per_cluster):
            assert follower[k + 1, a] == pytest.approx(
                follower[k, a] * (1 - params.gamma) * sigma)
        assert leader[k + 1] == pytest.approx(leader[k] * params.eta)


def test_bounds_gap_residual_floor():
    spec = admissible_spec()
    network = build_clustered_network(spec)
    params = bound_params(network, spec)
    residual = 2 * params.p_max * params.beta / params.gamma
    _, _, gap, _ = envelopes(params, 5001)
    for g in gap[5000]:
        assert g == pytest.approx(residual, rel=1e-12)


def test_bounds_sum_identity():
    spec = admissible_spec()
    network = build_clustered_network(spec)
    params = bound_params(network, spec)
    follower, leader, gap, node = envelopes(params, 41)
    for k in (0, 1, 7, 40):
        for a in range(3):
            assert node[k, a] == pytest.approx(
                follower[k, a] + leader[k] + gap[k, a], abs=1e-15)


def test_bounds_inapplicable_families_are_none():
    spec = admissible_spec(beta=0.5)
    network = build_clustered_network(spec)
    follower, leader, gap, node = envelopes(bound_params(network, spec), 11)
    assert leader is None and node is None
    assert follower.shape == gap.shape == (11, 3)

    spec2 = admissible_spec(tau_intra=1)
    network2 = build_clustered_network(spec2)
    follower, leader, gap, node = envelopes(bound_params(network2, spec2), 11)
    assert follower is None and gap is None and node is None
    assert leader.shape == (11,)


def test_bounds_reject_bad_iteration():
    spec = admissible_spec()
    params = bound_params(build_clustered_network(spec), spec)
    with pytest.raises(DomainError):
        envelopes(params, -1)
    with pytest.raises(DomainError):
        envelopes(params, 1.5)
    assert all(v.shape[0] == 0 for v in envelopes(params, 0))


def power_table_envelopes(params, count):
    """envelopes as one Python float ** int per entry, built row by row."""
    rates = [(1.0 - params.gamma) * s for s in params.sigma_per_cluster]
    powers = np.array([[q ** k for q in rates] for k in range(count)], float)
    follower = powers.reshape(count, len(rates)) * np.array(params.follower_init_norms)
    decay = np.array([(1.0 - params.gamma) ** k for k in range(count)], float)
    gap = (decay[:, None] * np.array(params.initial_gaps)
           + 2.0 * params.p_max * params.beta / params.gamma)
    leader = (2.0 * np.array([params.eta ** k for k in range(count)], float)
              * params.leader_init_norm)
    return follower, leader, gap, follower + leader[:, None] + gap


# 0, 1, the smallest subnormal, a larger subnormal and values next to 1.
EDGE_RATES = st.sampled_from([0.0, 1.0, 5e-324, 1e-310, 1.0 - 2.0 ** -53,
                              1.0 - 2.0 ** -52, 1.0 - 1e-9])


@settings(max_examples=80, deadline=None)
@given(
    gamma=st.one_of(st.sampled_from([0.5, 2.0 ** -52, 1.0 - 2.0 ** -53]),
                    st.floats(1e-9, 1.0, exclude_max=True)),
    sigmas=st.lists(st.one_of(EDGE_RATES, st.just(2.0), st.floats(0.0, 1.0)),
                    min_size=3, max_size=3),
    rate=st.one_of(EDGE_RATES, st.floats(0.0, 1.0)),
    count=st.one_of(st.sampled_from([0, 1, 2, 501]), st.integers(0, 700)),
)
def test_envelopes_equal_float_powers(gamma, sigmas, rate, count):
    """Every envelope table holds the bytes of Python's q ** k per entry,
    at rates 0 and 1, subnormal rates and rates next to 1 (sigma = 2 with
    gamma = 1/2 gives a follower rate of exactly 1)."""
    spec = admissible_spec()
    params = dataclasses.replace(bound_params(build_clustered_network(spec), spec),
                                 gamma=gamma, sigma_per_cluster=tuple(sigmas), eta=rate)
    for got, want in zip(envelopes(params, count), power_table_envelopes(params, count)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------

def test_verify_admissible_run_satisfies_everything():
    spec = admissible_spec()
    network = build_clustered_network(spec)
    trace = run(network, spec)
    report = verify_bounds(trace, bound_params(network, spec))
    assert report.all_satisfied
    for name, fam in report.families.items():
        assert fam.applicable, name
        assert fam.checked > 0, name
        assert fam.failures == 0, name
        assert fam.worst_margin <= report.slack
        assert fam.ok


def test_verify_inadmissible_beta_skips_leader_families():
    spec = admissible_spec(beta=0.5)
    network = build_clustered_network(spec)
    trace = run(network, spec)
    report = verify_bounds(trace, bound_params(network, spec))
    assert report.all_satisfied    # nothing checked can fail
    assert not report.families["leader_disagreement"].applicable
    assert report.families["leader_disagreement"].checked == 0
    assert not report.families["node_error"].applicable
    assert report.families["follower_disagreement"].checked == 3 * len(trace)


def test_verify_intra_delay_skips_follower_families():
    spec = admissible_spec(tau_intra=2)
    network = build_clustered_network(spec)
    trace = run(network, spec)
    report = verify_bounds(trace, bound_params(network, spec))
    assert report.families["follower_disagreement"].checked == 0
    assert report.families["leader_follower_gap"].checked == 0
    assert report.families["node_error"].checked == 0
    assert report.families["leader_disagreement"].checked == len(trace)


def test_verify_rejects_mismatched_fingerprint():
    spec = admissible_spec()
    network = build_clustered_network(spec)
    trace = run(network, spec)
    other = bound_params(network, spec.replace(seed=99))
    with pytest.raises(ConsistencyError):
        verify_bounds(trace, other)


def test_verify_empty_trace_checks_nothing():
    spec = admissible_spec()
    network = build_clustered_network(spec)
    params = bound_params(network, spec)
    empty = Trace(spec.fingerprint(), *(c[:0] for c in run(network, spec).columns))
    report = verify_bounds(empty, params)
    assert report.all_satisfied and report.violations == ()
    for fam in report.families.values():
        assert fam.applicable and fam.checked == 0
        assert fam.worst_margin is None and fam.first_violation_k is None


def _sabotaged_trace(trace, index, factor):
    follower = trace.follower_disagreement.copy()
    follower[index] *= factor
    return dataclasses.replace(trace, follower_disagreement=follower)


def test_verify_detects_violation():
    spec = admissible_spec()
    network = build_clustered_network(spec)
    trace = _sabotaged_trace(run(network, spec), index=4, factor=1e6)
    report = verify_bounds(trace, bound_params(network, spec))
    assert not report.all_satisfied
    fam = report.families["follower_disagreement"]
    assert fam.failures == 3          # one per cluster at the doctored step
    assert fam.first_violation_k == 4
    assert not fam.ok
    data = report.to_dict()
    assert not data["all_satisfied"]
    assert len(data["violations"]) == 3
    assert all(v["family"] == "follower_disagreement"
               for v in data["violations"])


def test_verify_slack_is_honoured():
    spec = admissible_spec(max_iters=0)
    network = build_clustered_network(spec)
    params = bound_params(network, spec)
    trace = run(network, spec)
    theo = envelopes(params, 1)[0][0]
    # push cluster 0 exactly 0.4 above its envelope, leave the rest alone
    follower = trace.follower_disagreement.copy()
    follower[0, 0] = theo[0] + 0.4
    doctored = dataclasses.replace(trace, follower_disagreement=follower)
    assert verify_bounds(doctored, params, slack=0.5).families[
        "follower_disagreement"].failures == 0
    assert verify_bounds(doctored, params, slack=0.3).families[
        "follower_disagreement"].failures == 1


def test_report_dict_shape():
    spec = admissible_spec(max_iters=5)
    network = build_clustered_network(spec)
    trace = run(network, spec)
    data = verify_bounds(trace, bound_params(network, spec)).to_dict()
    assert set(data) == {"fingerprint", "slack", "all_satisfied", "families",
                         "checked", "violations"}
    assert set(data["families"]) == {
        "follower_disagreement", "leader_disagreement",
        "leader_follower_gap", "node_error",
    }
    assert data["checked"] == 6 * 3 + 6 + 6 * 3 + 6 * 3


def test_verify_counts_nan_as_failure():
    spec = admissible_spec(max_iters=5)
    network = build_clustered_network(spec)
    trace = run(network, spec)
    leader = trace.leader_disagreement.copy()
    leader[2] = math.nan
    report = verify_bounds(dataclasses.replace(trace, leader_disagreement=leader),
                           bound_params(network, spec))
    fam = report.families["leader_disagreement"]
    assert fam.failures == 1 and fam.first_violation_k == 2
    assert math.isnan(fam.worst_margin)
    assert [v["k"] for v in report.violations] == [2]


def test_violations_match_per_iteration_reference():
    """The whole-column verifier reports exactly the failing comparisons a
    per-iteration loop over the envelope table finds, in iteration order, then
    follower, gap, leader and node family, then cluster; and every envelope
    value equals the one-float-at-a-time reference."""
    spec = preset_small().replace(beta=0.02, gamma=0.45, max_iters=200)
    network = build_clustered_network(spec)
    params = bound_params(network, spec)
    assert params.beta_admissible
    trace = run(network, spec)
    follower, leader, gap, node = (c.copy() for c in (
        trace.follower_disagreement, trace.leader_disagreement,
        trace.leader_follower_gap, trace.cluster_node_error))
    follower[3, 1] += 1e3
    leader[3] += 1e3
    gap[40, 2] += 1e3
    node[40, 0] += 1e3
    node[41] += 1e3
    follower[150, 0] += 1e3
    gap[150, 0] += 1e3
    leader[150] = 1e3
    doctored = dataclasses.replace(
        trace, follower_disagreement=follower, leader_disagreement=leader,
        leader_follower_gap=gap, cluster_node_error=node)
    report = verify_bounds(doctored, params)

    table = envelopes(params, len(doctored))
    expected = []
    for k in range(len(doctored)):
        v_follower, v_leader, v_gap, v_node = oracle.envelope_row(table, k)
        assert (v_follower, v_leader, v_gap, v_node) == oracle.envelopes(params, k)
        rows = [("follower_disagreement", a, e, t) for a, (e, t) in
                enumerate(zip(follower[k].tolist(), v_follower))]
        rows += [("leader_follower_gap", a, e, t) for a, (e, t) in
                 enumerate(zip(gap[k].tolist(), v_gap))]
        rows += [("leader_disagreement", None, leader[k].item(), v_leader)]
        rows += [("node_error", a, e, t) for a, (e, t) in
                 enumerate(zip(node[k].tolist(), v_node))]
        expected += [{"k": k, "family": family, "cluster": a,
                      "empirical": e, "theoretical": t}
                     for family, a, e, t in rows if not e <= t + report.slack]
    data = report.to_dict()
    assert len(expected) == 10
    assert data["violations"] == expected
    assert {name: f["failures"] for name, f in data["families"].items()} == {
        "follower_disagreement": 2, "leader_disagreement": 2,
        "leader_follower_gap": 2, "node_error": 4}
    assert data["checked"] == 201 * (3 + 1 + 3 + 3)


# ---------------------------------------------------------------------
# squared norms
# ---------------------------------------------------------------------

SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-300, 1e300])


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 9),
    lead=st.lists(st.integers(1, 5), max_size=3),
    data=st.data(),
)
def test_squares_equals_reduce_bytes(d, lead, data):
    """The slice-by-slice sum gives the bytes of numpy's reduction on both
    sides of d = 7, signed zeros, infinities and NaNs included."""
    shape = tuple(lead) + (d,)
    count = int(np.prod(shape))
    values = data.draw(st.lists(st.one_of(st.floats(allow_nan=True), SPECIAL),
                                min_size=count, max_size=count))
    x = np.array(values, dtype=float).reshape(shape)
    with np.errstate(all="ignore"):
        expected = np.add.reduce(x * x, axis=-1)
        got = _squares(x)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
