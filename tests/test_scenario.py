import json
import math
import tracemalloc

import numpy as np
import pytest

from cluster_consensus import (
    ConfigError,
    ScenarioSpec,
    bound_params,
    build_clustered_network,
    parse_config_text,
    preset_large,
    preset_small,
    run,
    run_until,
    scenario,
)


def make_spec(**overrides):
    base = dict(family="ring", cluster_sizes=(5, 5), gamma=0.5, beta=0.2,
                tau=1, seed=3, max_iters=50)
    base.update(overrides)
    return ScenarioSpec(**base)


def test_defaults():
    spec = make_spec()
    assert spec.tau_intra == 0
    assert spec.d == 1
    assert spec.leader_graph == "line"
    assert spec.threshold == pytest.approx(1e-3)
    assert spec.total_nodes == 10
    assert spec.cluster_count == 2


def test_cluster_sizes_become_tuple():
    spec = make_spec(cluster_sizes=[5, 5])
    assert spec.cluster_sizes == (5, 5)


@pytest.mark.parametrize("field,value", [
    ("gamma", 0.0),
    ("gamma", 1.0),
    ("beta", 0.0),
    ("beta", 1.5),
    ("tau", -1),
    ("tau_intra", -2),
    ("max_iters", -1),
    ("d", 0),
    ("threshold", 0.0),
    ("cluster_sizes", ()),
    ("cluster_sizes", (5, 0)),
    ("family", "torus"),
    ("leader_graph", "star"),
    ("cluster_sizes", "abc"),
    ("cluster_sizes", 5),
    ("cluster_sizes", [20.9, 20]),
    ("radius", "x"),
    ("threshold", "x"),
    ("init_low", "a"),
    ("init_high", math.inf),
    ("init_low", -math.inf),
    ("beta", True),
    ("tau", True),
    ("seed", 1.0),
    ("cluster_edges", ([(0, "a")], [(0, 1)])),
    ("leader_edges", [(0, 1.5)]),
    pytest.param("init_high", 10**400, id="init_high-int-beyond-float"),
    pytest.param("threshold", 10**400, id="threshold-int-beyond-float"),
])
def test_rejects_bad_field(field, value):
    with pytest.raises(ConfigError) as err:
        make_spec(**{field: value})
    assert field.split("_")[0] in str(err.value) or field in str(err.value)


def test_geometric_requires_radius():
    with pytest.raises(ConfigError):
        make_spec(family="geometric")
    make_spec(family="geometric", radius=0.4)   # fine


def test_explicit_requires_edges():
    with pytest.raises(ConfigError):
        make_spec(family="explicit")
    with pytest.raises(ConfigError, match="got 1 edge lists for 2 clusters"):
        make_spec(family="explicit", cluster_edges=([(0, 1)],))


def test_explicit_leader_graph_requires_edges():
    with pytest.raises(ConfigError, match="explicit leader graph needs an edge list"):
        make_spec(leader_graph="explicit")
    make_spec(leader_graph="explicit", leader_edges=[(0, 1)])    # fine


def test_init_range_ordering():
    with pytest.raises(ConfigError):
        make_spec(init_low=2.0, init_high=-2.0)
    with pytest.raises(ConfigError):        # the width overflows to inf
        make_spec(init_low=-1e308, init_high=1e308)
    with pytest.raises(ConfigError):        # the width overflows as an integer
        make_spec(init_low=-int(1e308), init_high=int(1e308))


def test_init_interval_whose_squared_norms_overflow_is_refused():
    """No sum of squares that the diagnostics and bound_params take exceeds
    m * m * total_nodes * d, m = max(|init_low|, |init_high|, init_high -
    init_low), so an interval that makes that overflow is refused."""
    with pytest.raises(ConfigError, match="overflow"):
        make_spec(init_low=-1e200, init_high=1e200)


@pytest.mark.parametrize("preset", [preset_small, preset_large])
def test_init_interval_of_1e150_keeps_families_finite(preset):
    """Both preset shapes accept a +-1e150 interval, and a run's error
    families and bound parameters stay finite (a RuntimeWarning fails the
    suite)."""
    spec = preset().replace(init_low=-1e150, init_high=1e150, max_iters=20)
    network = build_clustered_network(spec)
    assert all(np.isfinite(column).all() for column in run(network, spec).columns)
    params = bound_params(network, spec)
    assert np.isfinite([params.p_max, params.leader_init_norm,
                        *params.follower_init_norms, *params.initial_gaps]).all()


def test_round_trip_through_json():
    spec = make_spec(family="geometric", radius=0.35, tau_intra=2, d=3)
    again = ScenarioSpec.from_dict(json.loads(spec.to_json()))
    assert again == spec


def test_from_dict_rejects_unknown_keys():
    data = make_spec().to_dict()
    data["extra_knob"] = 1
    with pytest.raises(ConfigError) as err:
        ScenarioSpec.from_dict(data)
    assert "extra_knob" in str(err.value)


def test_from_dict_reports_missing_keys():
    data = make_spec().to_dict()
    del data["gamma"]
    with pytest.raises(ConfigError) as err:
        ScenarioSpec.from_dict(data)
    assert "gamma" in str(err.value)


def test_replace_keeps_other_fields():
    spec = make_spec()
    other = spec.replace(tau=9)
    assert other.tau == 9
    assert other.gamma == spec.gamma
    assert spec.tau == 1


def test_fingerprint_stable_and_sensitive():
    a = make_spec()
    assert a.fingerprint() == make_spec().fingerprint()
    assert a.fingerprint() != a.replace(seed=4).fingerprint()
    assert len(a.fingerprint()) == 64


def test_fingerprint_ignores_representation():
    # ints that arrive as floats from JSON should not change identity
    a = make_spec(gamma=0.5)
    b = make_spec(gamma=1 / 2)
    assert a.fingerprint() == b.fingerprint()


def test_parse_config_text_round_trip():
    spec = make_spec()
    assert parse_config_text(spec.to_json()) == spec


def test_parse_config_text_reports_location():
    with pytest.raises(ConfigError) as err:
        parse_config_text('{"family": "ring",\n  "cluster_sizes": [5 5]}')
    msg = str(err.value)
    assert "line 2" in msg


def test_parse_config_text_rejects_non_object():
    with pytest.raises(ConfigError):
        parse_config_text("[1, 2, 3]")


def test_from_dict_drops_first_leader_placement():
    spec = make_spec()
    data = spec.to_dict()
    assert "leader_placement" not in data
    data["leader_placement"] = "first"     # written by earlier versions
    assert ScenarioSpec.from_dict(data) == spec


def test_from_dict_rejects_other_leader_placement():
    data = make_spec().to_dict()
    data["leader_placement"] = "last"
    with pytest.raises(ConfigError, match="leader_placement"):
        ScenarioSpec.from_dict(data)


def test_from_dict_drops_non_negative_record_stride():
    spec = make_spec()
    assert "record_stride" not in spec.to_dict()
    for stride in (0, 5):                  # written by earlier versions
        data = spec.to_dict()
        data["record_stride"] = stride
        assert ScenarioSpec.from_dict(data) == spec


@pytest.mark.parametrize("value", [-1, "x", 1.5, True])
def test_from_dict_rejects_bad_record_stride(value):
    data = make_spec().to_dict()
    data["record_stride"] = value
    with pytest.raises(ConfigError, match="record_stride"):
        ScenarioSpec.from_dict(data)


# The presets, the shapes the benchmark runs (preset_large, the largest
# criterion-1 instance, criterion 9's network at its longest follower delay
# and the two wide-cluster networks), preset_large at a long delay, and
# rings of d = 10, whose sweeps hold several (N, d) arrays beside a narrow
# gather.
PEAK_SHAPES = {
    "preset-small": preset_small(),
    "preset-large": preset_large(),
    "criterion-1": ScenarioSpec(family="geometric", cluster_sizes=(10,) * 5,
                                radius=0.8, gamma=0.5, beta=0.01, tau=10, d=3,
                                seed=1000, max_iters=500),
    "intra-delay": ScenarioSpec(family="geometric", cluster_sizes=(20,) * 5,
                                radius=0.3, gamma=0.5, beta=0.05, tau=20,
                                tau_intra=15, seed=23, max_iters=20_000),
    "wide-ring": ScenarioSpec(family="ring", cluster_sizes=(401, 801), gamma=0.5,
                              beta=0.05, tau=20, seed=23, max_iters=1000),
    "wide-geometric": ScenarioSpec(family="geometric", cluster_sizes=(401, 801),
                                   radius=0.1, gamma=0.5, beta=0.05, tau=20,
                                   seed=23, max_iters=1000),
    "preset-large-tau-1000": preset_large().replace(tau=1000),
    "ring-d10": ScenarioSpec(family="ring", cluster_sizes=(30,) * 4, gamma=0.5,
                             beta=0.05, tau=3, d=10, seed=5, max_iters=300),
}


@pytest.mark.parametrize("name", list(PEAK_SHAPES))
def test_peak_bytes_covers_buffer_and_gather(monkeypatch, swept_bytes, name):
    """Without the per-pair charge for building and solving, the memory
    estimate still covers the history buffer and the arrays of the sweeps
    as the engine allocates them, both for a run, whose block spans the
    run, and for a run_until, whose blocks are shorter."""
    spec = PEAK_SHAPES[name]
    network = build_clustered_network(spec)
    allocated = [swept_bytes(network, [spec], until) for until in (False, True)]
    monkeypatch.setattr(scenario, "_BYTES_PER_PAIR", 0)
    assert scenario._peak_bytes(spec) >= max(allocated)


@pytest.mark.parametrize("name", list(PEAK_SHAPES))
def test_peak_bytes_covers_measured_run_peak(name):
    """The estimate covers the peak that tracemalloc measures while run and
    run_until execute, on a network built beforehand, traces aside (the
    blocks' columns and their concatenation, twice the trace's bytes)."""
    spec = PEAK_SHAPES[name]
    network = build_clustered_network(spec)
    for driver in (run, run_until):
        tracemalloc.start()
        try:
            result = driver(network, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        trace = getattr(result, "trace", result)
        traces = 2 * sum(column.nbytes for column in trace.columns)
        assert scenario._peak_bytes(spec) + traces >= peak, driver.__name__
