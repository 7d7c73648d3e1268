"""The batch driver: every instance of a batch equals its run of its own,
byte for byte, and the studies run their rows through it."""

import gc
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluster_consensus import (
    ScenarioSpec,
    StepSizes,
    advance,
    build_clustered_network,
    experiments,
    intra_delay_study,
    preset_small,
    rate_study,
    run,
    run_until,
    sample_initial_values,
    scenario,
    tau_sweep,
)
from cluster_consensus import engine

INTRA_DELAY_BASE = ScenarioSpec(family="geometric", cluster_sizes=(20,) * 5, radius=0.3,
                                gamma=0.5, beta=0.05, tau=20, seed=23, max_iters=20_000)


def column_bytes(trace):
    return [c.tobytes() for c in trace.columns]


def solo(network, spec, until):
    """(converged, iterations, column bytes) of a run of spec on its own."""
    if until:
        result = run_until(network, spec)
        return result.converged, result.iterations, column_bytes(result.trace)
    return False, spec.max_iters, column_bytes(run(network, spec))


def assert_batch_matches_solo(network, specs, until):
    results = engine._drive(network, specs, until)
    assert len(results) == len(specs)
    for spec, result in zip(specs, results):
        got = (result.converged, result.iterations, column_bytes(result.trace))
        assert result.trace.fingerprint == spec.fingerprint()
        assert got == solo(network, spec, until), spec
    return results


def test_intra_delay_rows_batch_equals_solo():
    network = build_clustered_network(INTRA_DELAY_BASE)
    specs = [INTRA_DELAY_BASE.replace(tau_intra=t) for t in (0, 2, 15)]
    results = assert_batch_matches_solo(network, specs, until=True)
    assert [r.iterations for r in results] == [664, 995, 1515]


def test_tau_sweep_rows_batch_equals_solo():
    base = preset_small()
    network = build_clustered_network(base)
    specs = [base.replace(tau=t) for t in (0, 10, 20, 30, 40, 50)]
    results = assert_batch_matches_solo(network, specs, until=True)
    assert [r.iterations for r in results] == [118, 174, 222, 262, 301, 319]


def test_rate_study_rows_batch_equals_solo():
    base = preset_small().replace(max_iters=500)
    network = build_clustered_network(base)
    specs = [base.replace(beta=b, gamma=b ** (1.0 / 3.0)) for b in (1e-3, 8e-3, 0.05)]
    assert_batch_matches_solo(network, specs, until=False)


def tiny_base(**changes):
    fields = dict(family="explicit", cluster_sizes=(3, 5, 2, 4),
                  cluster_edges=(((0, 1),), ((0, 1), (1, 2), (2, 3), (0, 3)), (),
                                 ((0, 1), (1, 2))),
                  leader_graph="complete", gamma=0.5, beta=0.2, tau=2, seed=4,
                  max_iters=120, threshold=1e-2)
    fields.update(changes)
    return ScenarioSpec(**fields)


@pytest.mark.parametrize("block", [5, 64])
def test_batch_stops_in_same_block_different_blocks_and_at_cap(monkeypatch, block):
    """Instances that settle in one block, in different blocks, and one cut
    by its cap while the others still run, in one batch.  A byte budget
    of `block` iterations of the batch caps the blocks of its run, which
    would otherwise span the run."""
    monkeypatch.setattr(engine, "BLOCK_ITERATIONS", block)
    base = tiny_base()
    network = build_clustered_network(base)
    specs = [base.replace(threshold=1e-2), base.replace(threshold=1.5e-2),
             base.replace(threshold=1e-4, tau_intra=3), base.replace(tau=9, max_iters=17),
             base.replace(threshold=1e-12, max_iters=100)]
    monkeypatch.setattr(engine, "BLOCK_BYTES", block * 8 * len(specs) * network.total_nodes)
    outcomes = [solo(network, spec, until=True)[:2] for spec in specs]
    ends = [it + max(s.tau, s.tau_intra) if ok else s.max_iters
            for (ok, it), s in zip(outcomes, specs)]
    assert outcomes == [(True, 26), (True, 24), (True, 72), (False, 17), (False, 100)]
    assert ends[0] // block == ends[1] // block         # the same block
    assert len({end // block for end in ends}) >= 2     # and different ones
    assert_batch_matches_solo(network, specs, until=True)
    assert_batch_matches_solo(network, specs, until=False)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12),
                            st.floats(0.05, 0.95), st.floats(0.02, 1.0),
                            st.integers(0, 90), st.sampled_from([1e-1, 1e-2, 1e-3])),
                  min_size=1, max_size=4),
    d=st.sampled_from([1, 3]),
    block=st.sampled_from([3, 8, 64]),
    until=st.booleans(),
)
def test_batch_equals_solo_property(rows, d, block, until):
    base = tiny_base(d=d)
    network = build_clustered_network(base)
    specs = [base.replace(tau=tau, tau_intra=tau_intra, gamma=gamma, beta=beta,
                          max_iters=cap, threshold=threshold)
             for tau, tau_intra, gamma, beta, cap, threshold in rows]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "BLOCK_ITERATIONS", block)
        patch.setattr(engine, "BLOCK_BYTES", block * 8 * len(specs) * network.total_nodes * d)
        assert_batch_matches_solo(network, specs, until)


@settings(max_examples=40, deadline=None)
@given(
    delays=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                    min_size=1, max_size=3),
    d=st.sampled_from([1, 3]),
    block=st.sampled_from([1, 4, 64]),
    counts=st.lists(st.integers(1, 40), max_size=4),
)
def test_advance_count_equals_single_sweeps(delays, d, block, counts):
    """advance(..., count=n) writes the bytes of n calls of one sweep each,
    also where the buffer is full and the window moves to its front; the
    last count spans the whole buffer, so it always crosses that shift."""
    base = tiny_base(d=d)
    network = build_clustered_network(base)
    values = [sample_initial_values(base.replace(seed=s), network.total_nodes)
              for s in range(len(delays))]
    steps = tuple(StepSizes(0.3 + 0.2 * b, 0.1 + 0.3 * b) for b in range(len(delays)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "BLOCK_ITERATIONS", block)
        many, single = (engine.NetworkState(network, values, delays, steps)
                        for _ in range(2))
    for count in counts + [len(many._history)]:
        advance(many, count)
        for _ in range(count):
            advance(single)
        assert (many.k, many._slot) == (single.k, single._slot)
        assert (many._history[:many._slot + 1].tobytes()
                == single._history[:single._slot + 1].tobytes())


def test_dropping_instances_keeps_their_windows(monkeypatch):
    """After the batch drops an instance, the others read the same history
    as before: each kept instance's window moves whole into a buffer as
    deep as the longest kept delay.  Their next sweep table comes from the
    _ellpack table built for the first one."""
    monkeypatch.setattr(engine, "BLOCK_ITERATIONS", 4)
    base = tiny_base(d=2)
    network = build_clustered_network(base)
    delays = [(3, 1), (7, 0), (2, 5)]
    values = [sample_initial_values(base.replace(seed=s), network.total_nodes)
              for s in range(3)]
    steps = tuple(StepSizes(0.3 + 0.1 * b, 0.2) for b in range(3))
    state = engine.NetworkState(network, values, delays, steps)
    while state.k < 11:
        advance(state)
    width = state._rows
    before = {b: state._history[state._slot - 5:state._slot + 1,
                                b * width:(b + 1) * width].copy() for b in (0, 2)}
    state._keep([0, 2])
    assert state.delays == ((3, 1), (2, 5)) and (state.tau, state.tau_intra) == (3, 5)
    assert state.steps == (steps[0], steps[2]) and state._table is None
    assert len(state._history) == engine._history_slots(5, 4)
    for to, b in enumerate((0, 2)):
        assert (state._history[state._slot - 5:state._slot + 1,
                               to * width:(to + 1) * width].tobytes()
                == before[b].tobytes())
    band = state._band
    monkeypatch.setattr(engine, "_ellpack", None)
    advance(state)
    assert state._band is band and state._table is not None
    split = width - len(network.clusters)
    now = state._history[state._slot]
    for to in range(2):
        followers, leaders = state.block_states(12, to)
        assert followers.shape == (1, split, 2) and leaders.shape == (1, width - split, 2)
        assert followers.tobytes() == now[to * width:to * width + split].tobytes()
        assert leaders.tobytes() == now[to * width + split:(to + 1) * width].tobytes()


def test_sweep_table_built_once_per_set_of_instances(monkeypatch):
    """500 sweeps of one advance call each build the sweep table once;
    dropping an instance builds it once more, on the next sweep, and never
    again after that."""
    base = tiny_base(d=2)
    network = build_clustered_network(base)
    values = [sample_initial_values(base.replace(seed=s), network.total_nodes)
              for s in range(2)]
    state = engine.NetworkState(network, values, [(3, 1), (7, 0)],
                                [StepSizes(0.3, 0.2), StepSizes(0.4, 0.1)])
    built = []
    build = engine._sweep_table

    def counted(state):
        built.append(state.k)
        return build(state)

    monkeypatch.setattr(engine, "_sweep_table", counted)
    for _ in range(500):
        advance(state)
    assert built == [0]
    advance(state, -(state.k + 1) % state.block)      # k ends a block
    kept_at = state.k
    state._keep([1])
    assert built == [0]
    for _ in range(500):
        advance(state)
    assert built == [0, kept_at]


def test_batch_peak_bytes_covers_buffers_and_gather(monkeypatch, swept_bytes):
    """The estimate for a batch covers the buffer twice (the old and the
    fresh one while instances are dropped), the table, one gather and
    the accumulator, with the blocks of a run and of a run_until; and, with the
    per-pair charge, the peak that tracemalloc measures while the batch
    runs, traces aside (twice their bytes, as in a run of one)."""
    for base in (tiny_base(d=3), ScenarioSpec(family="ring", cluster_sizes=(30,) * 4,
                                              gamma=0.5, beta=0.05, tau=3, d=10, seed=5,
                                              max_iters=300)):
        specs = [base.replace(tau=t, tau_intra=ti)
                 for t, ti in ((0, 0), (40, 3), (5, 70))]
        network = build_clustered_network(base)
        estimate = scenario._peak_bytes(*specs)
        assert scenario._peak_bytes(specs[0]) < estimate
        for until in (False, True):
            tracemalloc.start()
            try:
                results = engine._drive(network, specs, until)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            traces = 2 * sum(c.nbytes for result in results for c in result.trace.columns)
            assert estimate + traces >= peak, until
        with monkeypatch.context() as patch:
            patch.setattr(scenario, "_BYTES_PER_PAIR", 0)
            for until in (False, True):
                assert scenario._peak_bytes(*specs) >= swept_bytes(network, specs, until)


# ---------------------------------------------------------------------
# the studies
# ---------------------------------------------------------------------

def spy_batches(monkeypatch):
    """Record the specs of every batch the studies run."""
    batches = []
    drive = engine._drive

    def recording(network, specs, until, evaluate=None):
        batches.append(list(specs))
        return drive(network, specs, until, evaluate)

    monkeypatch.setattr(experiments, "_drive", recording)
    return batches


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls in the
    returned list's one entry."""
    calls, function = [0], getattr(module, name)

    def counting(*args):
        calls[0] += 1
        return function(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_tau_sweep_records_no_family(monkeypatch):
    """A tau_sweep row reads whether and when its run settled, so the
    study never evaluates the error families; run_until does."""
    diagnostics = count_calls(monkeypatch, engine, "_diagnostics_block")
    run_until(build_clustered_network(preset_small()), preset_small())
    assert diagnostics[0] > 0
    diagnostics[0] = 0
    rows = tau_sweep(preset_small(), [0, 10]).rows
    assert [row["iterations"] for row in rows] == [118, 174]
    assert diagnostics == [0]


def test_intra_delay_study_records_follower_disagreement_alone(monkeypatch):
    """An intra_delay_study row reads follower disagreement alone, so the
    study evaluates only that family."""
    diagnostics = count_calls(monkeypatch, engine, "_diagnostics_block")
    followers = count_calls(monkeypatch, experiments, "_follower_disagreement")
    intra_delay_study(INTRA_DELAY_BASE.replace(max_iters=400), [0, 2, 15])
    assert diagnostics == [0] and followers[0] > 0


def test_intra_delay_follower_column_equals_diagnostics():
    """The one column that intra_delay_study records is byte-equal to the
    first column of every error family, with the same outcomes."""
    base = INTRA_DELAY_BASE.replace(max_iters=700)
    network = build_clustered_network(base)
    specs = [base.replace(tau_intra=t) for t in (0, 2, 15)]
    full = engine._drive(network, specs, True)
    alone = engine._drive(network, specs, True, experiments._follower_column)
    for a, b in zip(alone, full):
        assert (a.converged, a.iterations) == (b.converged, b.iterations)
        column, = a.trace
        assert column.tobytes() == b.trace.follower_disagreement.tobytes()
    assert [r.converged for r in full] == [True, False, False]


def test_repeated_study_value_runs_once(monkeypatch):
    batches = spy_batches(monkeypatch)
    result = tau_sweep(preset_small(), [10, 0, 10])
    assert [[s.tau for s in batch] for batch in batches] == [[0, 10]]
    once = tau_sweep(preset_small(), [0, 10]).rows
    assert result.rows == [once[0], once[1], once[1]]


@pytest.mark.parametrize("study,base,values", [
    (intra_delay_study, INTRA_DELAY_BASE.replace(max_iters=400), [0, 2, 15]),
    (tau_sweep, preset_small(), [0, 10, 20]),
    (rate_study, preset_small().replace(max_iters=200), [1e-3, 8e-3]),
])
def test_study_splits_rows_under_peak_limit(monkeypatch, study, base, values):
    """With a limit that admits each row alone but no two rows together,
    the study runs one batch per row and reports the same rows."""
    whole = study(base, values)
    batches = spy_batches(monkeypatch)
    study(base, values)
    assert [len(batch) for batch in batches] == [len(values)]
    specs = batches[0]
    monkeypatch.setattr(scenario, "MAX_PEAK_BYTES",
                        max(scenario._peak_bytes(spec) for spec in specs))
    batches.clear()
    split = study(base, values)
    assert [len(batch) for batch in batches] == [1] * len(values)
    assert [batch[0] for batch in batches] == specs
    assert repr(split) == repr(whole)


def test_study_releases_each_batch_before_the_next(monkeypatch):
    """A study turns a batch's results into rows before it runs the next
    batch, so only one batch's traces are alive at a time."""
    base, values = INTRA_DELAY_BASE.replace(max_iters=400), [0, 2, 15]
    drive, alive = engine._drive, []

    def recording(network, specs, until, evaluate=None):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        results = drive(network, specs, until, evaluate)
        refs.extend(weakref.ref(column)
                    for result in results for column in result.trace)
        return results

    refs = []
    monkeypatch.setattr(experiments, "_drive", recording)
    monkeypatch.setattr(scenario, "MAX_PEAK_BYTES", max(
        scenario._peak_bytes(base.replace(tau_intra=t)) for t in values))
    intra_delay_study(base, values)
    assert alive == [0, 0, 0] and len(refs) == 3
