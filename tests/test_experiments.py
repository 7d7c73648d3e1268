import math
import warnings

import pytest

from cluster_consensus import (
    DomainError,
    ScenarioSpec,
    bound_params,
    build_clustered_network,
    intra_delay_study,
    preset_large,
    preset_small,
    rate_study,
    tau_sweep,
)


def small_base(**overrides):
    base = dict(family="ring", cluster_sizes=(5, 5, 5), gamma=0.5, beta=0.05,
                tau=2, seed=31, max_iters=3000)
    base.update(overrides)
    return ScenarioSpec(**base)


# ---------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------

def test_preset_small_shape():
    spec = preset_small()
    assert spec.total_nodes == 60
    assert spec.cluster_count == 3
    assert spec.family == "ring"
    assert (spec.gamma, spec.beta, spec.tau) == (0.5, 0.1, 10)
    assert spec.seed == 11


def test_preset_large_shape():
    spec = preset_large()
    assert spec.total_nodes == 400
    assert spec.cluster_count == 5
    assert spec.family == "geometric"
    assert spec.radius == 0.3
    assert (spec.beta, spec.tau) == (0.05, 20)
    assert spec.seed == 23


def test_preset_seed_override():
    assert preset_small(seed=99).seed == 99
    assert preset_large(seed=99).seed == 99


# ---------------------------------------------------------------------
# delay sweep
# ---------------------------------------------------------------------

def test_tau_sweep_rows_sorted_and_monotone():
    result = tau_sweep(small_base(), [4, 0, 2])
    assert result.axis == "tau"
    assert [r["tau"] for r in result.rows] == [0, 2, 4]
    assert all(r["converged"] for r in result.rows)
    iters = [r["iterations"] for r in result.rows]
    assert iters == sorted(iters)
    bmax = [r["beta_max"] for r in result.rows]
    assert bmax[0] > bmax[1] > bmax[2]


def test_tau_sweep_fit():
    result = tau_sweep(small_base(), [0, 2, 4, 6])
    assert result.fit is not None
    assert result.fit.slope > 0
    assert 0.0 <= result.fit.r_squared <= 1.0


def test_tau_sweep_single_row_has_no_fit():
    result = tau_sweep(small_base(), [3])
    assert len(result.rows) == 1
    assert result.fit is None


def test_tau_sweep_repeated_delay_has_no_fit():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = tau_sweep(small_base(), [5, 5])
    assert len(result.rows) == 2 and all(r["converged"] for r in result.rows)
    assert result.fit is None


def test_tau_sweep_repeated_delay_fits_with_another():
    result = tau_sweep(small_base(), [5, 5, 10])
    assert result.fit is not None
    assert math.isfinite(result.fit.slope) and math.isfinite(result.fit.intercept)


def test_tau_sweep_capped_rows():
    result = tau_sweep(small_base(max_iters=2), [0, 2])
    assert result.all_capped
    assert all(r["iterations"] == 2 for r in result.rows)
    assert result.fit is None      # nothing converged to fit through


def test_tau_sweep_flags_admissibility():
    # beta_max shrinks with tau; 0.05 is fine at tau=2 and too big at tau=30
    result = tau_sweep(small_base(), [2, 30])
    by_tau = {r["tau"]: r for r in result.rows}
    assert by_tau[2]["admissible"]
    assert not by_tau[30]["admissible"]


@pytest.mark.parametrize("overrides,taus,admissible", [
    # delta_c = 2/3: beta_max(tau) falls from 1/3 at tau <= 1 to 0.049 at 8
    ({"beta": 0.06}, [0, 1, 5, 8], [True, True, True, False]),
    # one leader: delta_c = 0 and beta_max = 1 at every delay
    ({"cluster_sizes": (5,), "beta": 0.5}, [0, 4], [True, True]),
    ({"cluster_sizes": (5,), "beta": 1.0}, [0, 4], [False, False]),
], ids=["three_leaders", "one_leader", "one_leader_unit_beta"])
def test_tau_sweep_admissible_column(overrides, taus, admissible):
    result = tau_sweep(small_base(max_iters=5, **overrides), taus)
    assert [r["admissible"] for r in result.rows] == admissible


# ---------------------------------------------------------------------
# rate study
# ---------------------------------------------------------------------

def test_rate_study_rows():
    base = small_base(max_iters=400)
    result = rate_study(base, [8e-3, 1e-3])
    assert result.axis == "beta"
    assert [r["beta"] for r in result.rows] == [1e-3, 8e-3]
    for row in result.rows:
        assert row["gamma"] == pytest.approx(row["beta"] ** (1 / 3))
        assert row["bound_ok"]
        assert row["converged"]
        assert row["sup_gap"] > 0


def test_rate_study_residual_formula():
    base = small_base(max_iters=50)
    result = rate_study(base, [2e-3])
    row = result.rows[0]
    spec = base.replace(beta=2e-3, gamma=2e-3 ** (1 / 3))
    params = bound_params(build_clustered_network(spec), spec)
    assert row["residual_term"] == 2.0 * params.p_max * 2e-3 ** (2 / 3)


def test_rate_study_eightfold_beta_quadruples_residual():
    result = rate_study(small_base(max_iters=50), [1e-3, 8e-3])
    lo, hi = result.rows
    assert hi["residual_term"] / lo["residual_term"] == pytest.approx(
        4.0, abs=1e-12)


def test_rate_study_rejects_intra_delay():
    with pytest.raises(DomainError):
        rate_study(small_base(tau_intra=1), [1e-3])


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5])
def test_rate_study_rejects_bad_beta(bad):
    with pytest.raises(DomainError):
        rate_study(small_base(), [bad])


def test_rate_study_flags_inadmissible_rows():
    # at tau=2 and delta_c=2/3, beta_max ~ 0.1835; 0.5 is far outside
    result = rate_study(small_base(max_iters=50), [0.5])
    assert not result.rows[0]["admissible"]


# ---------------------------------------------------------------------
# intra-cluster delay study
# ---------------------------------------------------------------------

def test_intra_delay_study_rows():
    result = intra_delay_study(small_base(tau=8), [0, 4])
    assert result.axis == "tau_intra"
    assert [r["tau_intra"] for r in result.rows] == [0, 4]
    for row in result.rows:
        assert row["converged"]
        assert row["follower_iterations"] is not None
        assert row["follower_iterations"] <= row["iterations"]
        assert row["separation_ratio"] is not None


def test_intra_delay_study_separation_shrinks():
    # intra-cluster delay slows the fast time scale, so the two scales
    # drift together and the ratio drops
    result = intra_delay_study(small_base(tau=8), [0, 6])
    first, last = result.rows
    assert first["separation_ratio"] > last["separation_ratio"]


def test_intra_delay_study_capped_rows():
    result = intra_delay_study(small_base(max_iters=1), [0])
    row = result.rows[0]
    assert not row["converged"]
    assert row["separation_ratio"] is None


@pytest.mark.parametrize("overrides,admissible", [
    ({"tau": 4}, True),
    ({"tau": 4, "beta": 0.5}, False),
    ({"cluster_sizes": (5,), "beta": 1.0}, False),
], ids=["admissible", "beta_too_large", "one_leader_unit_beta"])
def test_intra_delay_study_admissible_column(overrides, admissible):
    result = intra_delay_study(small_base(max_iters=5, **overrides), [0, 3])
    assert [r["admissible"] for r in result.rows] == [admissible, admissible]


@pytest.mark.parametrize("study,values", [
    (tau_sweep, [0, 1, 3]),
    (rate_study, [0.01, 0.02]),
    (intra_delay_study, [0, 1, 2]),
])
def test_studies_build_one_network(monkeypatch, study, values):
    from cluster_consensus import experiments
    builds = []

    def counting_build(spec):
        builds.append(spec)
        return build_clustered_network(spec)

    monkeypatch.setattr(experiments, "build_clustered_network", counting_build)
    study(small_base(max_iters=40), values)
    assert len(builds) == 1
