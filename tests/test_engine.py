import itertools
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from cluster_consensus import (
    DomainError,
    NumericError,
    ScenarioSpec,
    ShapeError,
    StepSizes,
    advance,
    build_clustered_network,
    init_state,
    preset_large,
    preset_small,
    run,
    run_until,
    sample_initial_values,
    spectral_summary,
)
from cluster_consensus import engine


def leader_ids(network):
    return [c.leader_id for c in network.clusters]


def steps_of(spec):
    return StepSizes(spec.gamma, spec.beta)


# Step sizes for states that are built but never swept.
UNUSED_STEPS = StepSizes(0.5, 0.1)


def global_state(network, state):
    """Reassemble the engine's follower and leader stacks into one (N, d)
    array indexed by global node id."""
    out = np.zeros((network.total_nodes, state.followers_at(0).shape[1]))
    out[[i for cl in network.clusters for i in cl.follower_ids]] = state.followers_at(0)
    out[leader_ids(network)] = state.leaders_at(0)
    return out


def cluster_blocks(state, followers):
    """Split an (N_f, d) follower stack into its per-cluster blocks."""
    return np.split(followers, state.starts[1:])


def trajectory(network, spec, steps):
    """Advance the engine step by step, collecting global state arrays."""
    init = sample_initial_values(spec, network.total_nodes)
    state = init_state(network, init, spec.tau, spec.tau_intra, steps=steps_of(spec))
    out = [global_state(network, state)]
    for _ in range(steps):
        advance(state)
        out.append(global_state(network, state))
    return init, out


# ---------------------------------------------------------------------
# history buffer and parameter guards
# ---------------------------------------------------------------------

# Block lengths under which the buffer is checked: each delay below spans
# up to three blocks of 4 or of 64, so the window is copied to the front
# of the buffer many times, also when the window is longer than a block.
HISTORY_BLOCKS = (1, 4, engine.BLOCK_ITERATIONS)


@pytest.mark.parametrize("tau,tau_intra", [(0, 0), (3, 0), (2, 5), (7, 3),
                                           (11, 9), (130, 191)])
def test_history_rings(tiny_spec, tiny_network, monkeypatch, tau, tau_intra):
    init = sample_initial_values(tiny_spec.replace(d=2), 12)
    depth = max(tau, tau_intra) + 1
    for block in HISTORY_BLOCKS:
        monkeypatch.setattr(engine, "BLOCK_ITERATIONS", block)
        state = init_state(tiny_network, init, tau, tau_intra, steps=steps_of(tiny_spec))
        assert state.block == block
        seen = []
        for k in range(3 * depth + 2):
            assert state.k == k
            seen.append((state.followers_at(0).copy(), state.leaders_at(0).copy()))
            for t in range(depth):
                past = seen[max(k - t, 0)]
                assert state.leaders_at(t).tobytes() == past[1].tobytes(), (block, k, t)
                if t <= tau_intra:
                    assert state.followers_at(t).tobytes() == past[0].tobytes()
            advance(state)
        for offset in (-1, depth):
            with pytest.raises(DomainError):
                state.leaders_at(offset)
        with pytest.raises(DomainError):
            state.followers_at(tau_intra + 1)


@pytest.mark.parametrize("gamma,beta", [
    (0.0, 0.5), (1.0, 0.5), (-0.1, 0.5),
    (0.5, 0.0), (0.5, 1.1),
])
def test_step_sizes_rejected(gamma, beta):
    with pytest.raises(DomainError):
        StepSizes(gamma, beta)


def test_step_sizes_beta_one_allowed():
    assert StepSizes(0.5, 1.0).beta == 1.0


# ---------------------------------------------------------------------
# state initialisation
# ---------------------------------------------------------------------

def test_init_state_promotes_vector(tiny_network):
    vals = np.arange(12, dtype=float)
    state = init_state(tiny_network, vals, tau=0, steps=UNUSED_STEPS)
    assert state.followers_at(0).shape[1] == 1
    assert state.followers_at(0)[:, 0].tolist() == [1, 2, 3, 5, 6, 7, 9, 10, 11]
    assert state.leaders_at(0)[:, 0].tolist() == [0, 4, 8]


def test_init_state_shape_mismatch(tiny_network):
    with pytest.raises(ShapeError):
        init_state(tiny_network, np.zeros((5, 1)), tau=0, steps=UNUSED_STEPS)


def test_init_state_nonfinite(tiny_network):
    vals = np.zeros((12, 1))
    vals[3] = np.inf
    with pytest.raises(NumericError):
        init_state(tiny_network, vals, tau=0, steps=UNUSED_STEPS)


def test_init_state_negative_delay(tiny_network):
    with pytest.raises(DomainError):
        init_state(tiny_network, np.zeros((12, 1)), tau=-1, steps=UNUSED_STEPS)
    with pytest.raises(DomainError):
        init_state(tiny_network, np.zeros((12, 1)), tau=0, tau_intra=-1, steps=UNUSED_STEPS)


@pytest.mark.parametrize("tau,tau_intra", [(2.5, 0), (2, 0.7), (2.0, 0), (0, 1.0)])
def test_init_state_fractional_delay(tiny_network, tau, tau_intra):
    with pytest.raises(DomainError):
        init_state(tiny_network, np.zeros((12, 1)), tau=tau, tau_intra=tau_intra,
                   steps=UNUSED_STEPS)


def test_init_state_numpy_integer_delay(tiny_network):
    state = init_state(tiny_network, np.zeros((12, 1)), tau=np.int64(2),
                       tau_intra=np.int32(1), steps=UNUSED_STEPS)
    assert (state.tau, state.tau_intra) == (2, 1)


def test_state_refuses_steps_and_instances_it_cannot_sweep(tiny_network):
    """Step sizes that are not a StepSizes, and values, delays and step
    sizes of different counts, fail where the state is built, not on its
    first sweep."""
    vals = np.zeros((12, 1))
    with pytest.raises(DomainError, match="StepSizes"):
        init_state(tiny_network, vals, tau=0, steps=(0.5, 0.1))
    with pytest.raises(ShapeError):
        engine.NetworkState(tiny_network, [vals, vals], [(0, 0)] * 2, [UNUSED_STEPS])
    with pytest.raises(ShapeError):
        engine.NetworkState(tiny_network, [vals, vals], [(0, 0)], [UNUSED_STEPS] * 2)


def test_sample_initial_values_deterministic(tiny_spec):
    a = sample_initial_values(tiny_spec, 12)
    b = sample_initial_values(tiny_spec, 12)
    assert np.array_equal(a, b)
    assert a.shape == (12, 1)
    assert a.min() >= tiny_spec.init_low and a.max() <= tiny_spec.init_high
    c = sample_initial_values(tiny_spec.replace(seed=8), 12)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------
# dynamics against the dense reference
# ---------------------------------------------------------------------

CROSS_CHECK_SPECS = [
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
]


@pytest.mark.parametrize("kw", CROSS_CHECK_SPECS)
def test_engine_matches_dense_reference(kw):
    spec = ScenarioSpec(seed=13, max_iters=40, **kw)
    network = build_clustered_network(spec)
    init, states = trajectory(network, spec, 40)
    ref = oracle.simulate_dense(network, init, spec.gamma, spec.beta,
                               spec.tau, spec.tau_intra, steps=40)
    for k, (got, want) in enumerate(zip(states, ref)):
        assert np.allclose(got, want, atol=1e-12), f"diverged at step {k}"


def test_beta_one_pure_mixing(tiny_spec, tiny_network):
    # with beta = 1 and tau = 0 the leaders apply the mixing matrix directly
    init = sample_initial_values(tiny_spec, 12)
    state = init_state(tiny_network, init, tau=0, steps=StepSizes(0.5, 1.0))
    before = state.leaders_at(0).copy()
    advance(state)
    v = tiny_network.leader_weights.entries
    assert np.allclose(state.leaders_at(0), v @ before, atol=1e-14)


# ---------------------------------------------------------------------
# vectorised updates against the per-node reference
# ---------------------------------------------------------------------

def reference_follower_step(network, state, cluster_index, gamma):
    """Per-node accumulation over the neighbour list, one follower at a time."""
    cluster = network.clusters[cluster_index]
    w = cluster.follower_weights.entries
    block = cluster_blocks(state, state.followers_at(state.tau_intra))[cluster_index]
    lead = state.leaders_at(state.tau_intra)[cluster_index]
    new = np.empty_like(block)
    for i in range(block.shape[0]):
        acc = w[i, i] * block[i]
        for j in cluster.follower_weights.support.neighbors(i):
            acc += w[i, j] * block[j]
        new[i] = (1.0 - gamma) * acc + gamma * lead
    return new


def reference_leader_step(state, beta, weights):
    """Per-node accumulation over the leader neighbour list."""
    current = state.leaders_at(0)
    delayed = state.leaders_at(state.tau)
    v = weights.entries
    new = np.empty_like(current)
    for a in range(current.shape[0]):
        acc = v[a, a] * delayed[a]
        for b in weights.support.neighbors(a):
            acc += v[a, b] * delayed[b]
        new[a] = (1.0 - beta) * current[a] + beta * acc
    return new


FAMILIES = ("follower_disagreement", "leader_disagreement", "leader_follower_gap",
            "cluster_node_error", "global_error")

# The error families at one iteration k.
Record = namedtuple("Record", ("k",) + FAMILIES)


def one_iteration(state):
    """The error families and the stopping metric of the state's current
    iteration: the run driver's block evaluations on a block of that one
    iteration, so they equal its row of a traced run bit for bit."""
    followers, leaders = state.followers_at(0)[None], state.leaders_at(0)[None]
    columns = engine._diagnostics_block(followers, leaders, state.starts, state.sizes)
    follower, leader, gap, node, error = (c[0].tolist() for c in columns)
    record = Record(int(state.k), tuple(follower), leader, tuple(gap), tuple(node), error)
    metric = float(engine._stopping_block(followers, leaders, state.owner)[0])
    return record, metric


def reference_diagnostics(state):
    """The error families computed cluster by cluster with mean and
    np.linalg.norm."""
    blocks = cluster_blocks(state, state.followers_at(0))
    leaders = state.leaders_at(0)
    lead_avg = leaders.mean(axis=0)
    follower_dis = []
    gaps = []
    node_err = []
    for a, block in enumerate(blocks):
        avg = block.mean(axis=0)
        follower_dis.append(float(np.linalg.norm(block - avg)))
        gaps.append(float(np.linalg.norm(avg - leaders[a])))
        node_err.append(float(np.linalg.norm(block - lead_avg, axis=1).max()))
    leader_dis = float(np.linalg.norm(leaders - lead_avg))
    leader_err = float(np.linalg.norm(leaders - lead_avg, axis=1).max())
    return Record(
        k=int(state.k),
        follower_disagreement=tuple(follower_dis),
        leader_disagreement=leader_dis,
        leader_follower_gap=tuple(gaps),
        cluster_node_error=tuple(node_err),
        global_error=max(max(node_err), leader_err),
    )


def reference_stopping_metric(state):
    """Largest follower-to-leader distance, cluster by cluster."""
    leaders = state.leaders_at(0)
    return max(
        float(np.linalg.norm(block - leaders[a], axis=1).max())
        for a, block in enumerate(cluster_blocks(state, state.followers_at(0)))
    )


def assert_records_close(got, want, tol):
    assert got.k == want.k
    for name in FAMILIES:
        assert np.ravel(getattr(got, name)) == pytest.approx(
            np.ravel(getattr(want, name)), rel=0.0, abs=tol), name


def assert_sweep_matches_reference(state):
    """The followers and leaders that advance computes on a copy of
    `state` and the stopping metric of `state` equal their per-node and
    per-cluster references to the bit.  The diagnostics sum each cluster by
    segment reductions, in another order than mean and np.linalg.norm, so
    they agree with the per-cluster reference to rounding."""
    network, (steps,) = state.network, state.steps
    new = advance(state.copy())
    for a, got in enumerate(cluster_blocks(state, new.followers_at(0))):
        want = reference_follower_step(network, state, a, steps.gamma)
        assert got.tobytes() == want.tobytes(), f"cluster {a}"
    want = reference_leader_step(state, steps.beta, network.leader_weights)
    assert new.leaders_at(0).tobytes() == want.tobytes(), "leaders"
    record, metric = one_iteration(state)
    assert_records_close(record, reference_diagnostics(state), 1e-13)
    assert repr(metric) == repr(reference_stopping_metric(state))


@st.composite
def connected_edges(draw, node_count):
    """A random spanning tree plus random extra edges."""
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, node_count)}
    pairs = [(i, j) for i in range(node_count) for j in range(i + 1, node_count)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=4)))
    return sorted(edges)


@st.composite
def networks(draw, family, d, tau_intra):
    """A small scenario of the given family, dimension and follower delay
    and a network for it.  A complete graph of four leaders over ring
    followers makes the leader table the wider one."""
    r = draw(st.integers(1, 4))
    low = 4 if family == "ring" else 2
    sizes = tuple(draw(st.lists(st.integers(low, 9), min_size=r, max_size=r)))
    extra = {}
    if family == "geometric":
        extra["radius"] = draw(st.sampled_from([0.6, 0.9]))
    elif family == "explicit":
        extra["cluster_edges"] = tuple(draw(connected_edges(s - 1)) for s in sizes)
    spec = ScenarioSpec(
        family=family, cluster_sizes=sizes,
        gamma=draw(st.floats(0.05, 0.95)), beta=draw(st.floats(0.05, 1.0)),
        tau=draw(st.integers(0, 5)), tau_intra=tau_intra, d=d,
        seed=draw(st.integers(0, 10_000)),
        leader_graph=draw(st.sampled_from(["line", "complete"])),
        max_iters=25, **extra,
    )
    return spec, build_clustered_network(spec)


@pytest.mark.parametrize("tau_intra", [0, 2])
@pytest.mark.parametrize("d", [1, 3])
# "static": one leader exchange matrix for the whole run
@pytest.mark.parametrize("family", ["ring", "geometric", "explicit"],
                         ids=lambda family: f"{family}-static")
@settings(derandomize=True, max_examples=5, deadline=None, database=None)
@given(data=st.data())
def test_updates_match_per_node_reference(family, d, tau_intra, data):
    spec, network = data.draw(networks(family, d, tau_intra))
    init = sample_initial_values(spec, network.total_nodes)
    state = init_state(network, init, spec.tau, spec.tau_intra, steps=steps_of(spec))
    ref = oracle.simulate_dense(network, init, spec.gamma, spec.beta, spec.tau,
                                spec.tau_intra, steps=spec.max_iters)
    stepped = []
    for k, want in enumerate(ref):
        got = global_state(network, state)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12), f"step {k}"
        stepped.append(one_iteration(state)[0])
        if k == spec.max_iters:
            break
        assert_sweep_matches_reference(state)
        advance(state)

    # the families of one state are the traced row of its iteration, bit for bit
    trace = run(network, spec)
    for name, column in zip(FAMILIES, trace.columns):
        want = np.array([getattr(rec, name) for rec in stepped])
        assert column.tobytes() == want.tobytes(), name


def reference_block_sum(blocks, x):
    """Per-node accumulation w_ii x_i + sum_j w_ij x_j over each row's
    non-zero off-diagonal entries in ascending column order, block by
    block: the witness of the order in which the gather-sum adds."""
    out = np.empty_like(x)
    offset = 0
    for w in blocks:
        for i in range(len(w)):
            acc = w[i, i] * x[offset + i]
            for j in np.flatnonzero(w[i]):
                if j != i:
                    acc += w[i, j] * x[offset + j]
            out[offset + i] = acc
        offset += len(w)
    return out


def states_for(blocks, d, rng, negative_zero):
    """Row states over many magnitudes; with negative_zero, every row of the
    last block is -0.0, so the last block's sums are -0.0 and so is each of
    their padding terms (the row's own id, weight 0.0).  Row 0 stays
    non-zero where it lies in another block, so a padding term that read
    any other row would turn such a sum into +0.0."""
    n = sum(len(w) for w in blocks)
    x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-6, 6, (n, d))
    if negative_zero:
        x[n - len(blocks[-1]):] = -0.0
    return x


def assert_gather_sum_matches(blocks, x, width):
    """The sweep kernel on the blocks' table, with a last slot that tracks
    each row's own state and a step per row drawn at random, equals
    step * (per-node sum) + tracking term, to the bit."""
    index, weight = engine._ellpack(blocks)
    n = len(x)
    assert index.shape == (width + 1, n) and weight.shape == (width + 1, n, 1)
    rng = np.random.default_rng(n * x.shape[1] + width)
    hold, track = rng.uniform(0.05, 1.0, (2, n, 1))
    weight = np.concatenate([weight, track[None]])
    table = (np.vstack([index, np.arange(n)]),
             np.broadcast_to(weight, weight.shape[:2] + x.shape[1:]),
             np.broadcast_to(hold, x.shape))
    history = np.stack([x, np.empty_like(x)])
    assert engine._sweeps(table, history, 0, 1, 1) == 1
    got = history[1]
    want = hold * reference_block_sum(blocks, x) + track * x
    assert got.tobytes() == want.tobytes()


@st.composite
def neighbour_blocks(draw, width):
    """One to three square blocks whose rows have at most `width` non-zero
    off-diagonal entries, row 0 exactly `width`, with weights spread over
    many magnitudes, and a generator for the states."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for b in range(draw(st.integers(1, 3))):
        low = width + 1 if b == 0 else 1
        n = draw(st.integers(low, width + 3))
        w = np.diag(rng.uniform(0.05, 1.0, n))
        for i in range(n):
            degree = (width if b == i == 0
                      else int(rng.integers(0, min(width, n - 1) + 1)))
            cols = rng.choice(np.delete(np.arange(n), i), size=degree, replace=False)
            w[i, cols] = (rng.uniform(0.05, 1.0, degree)
                          * 10.0 ** rng.integers(-6, 3, degree))
        blocks.append(w)
    return blocks, rng


@pytest.mark.parametrize("negative_zero", [False, True], ids=["signed", "minus-zero"])
@pytest.mark.parametrize("d", [1, 3, 9])
@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 16, 33])
@settings(derandomize=True, max_examples=5, deadline=None, database=None)
@given(data=st.data())
def test_gather_sum_matches_per_node_loop(width, d, negative_zero, data):
    """One reduction over the slots of the diagonal-first table adds every
    row in the per-node order, to the bit, at widths on both sides of
    numpy's 8-way pairwise summation."""
    blocks, rng = data.draw(neighbour_blocks(width))
    assert_gather_sum_matches(blocks, states_for(blocks, d, rng, negative_zero), width)


@pytest.mark.parametrize("negative_zero", [False, True], ids=["signed", "minus-zero"])
@pytest.mark.parametrize("sizes,d,width", [
    ((1,), 1, 0), ((1,), 2, 0), ((2,), 1, 1), ((1, 1), 1, 0),
], ids=["1x1", "1x2", "2x1-linked", "2x1-apart"])
def test_gather_sum_tiny_stacks(sizes, d, width, negative_zero):
    """N * d of 1 and 2: the stacks on which numpy could reduce along the
    slots in its innermost loop."""
    rng = np.random.default_rng(sum(sizes) + d)
    blocks = [np.full((n, n), 0.5) for n in sizes]
    assert_gather_sum_matches(blocks, states_for(blocks, d, rng, negative_zero), width)


def sweep_against_reference(spec, steps):
    network = build_clustered_network(spec)
    init = sample_initial_values(spec, network.total_nodes)
    state = init_state(network, init, spec.tau, spec.tau_intra, steps=steps_of(spec))
    for _ in range(steps):
        assert_sweep_matches_reference(state)
        advance(state)
    return network


def follower_table(network):
    """The ELLPACK table of the followers' block-diagonal matrix alone."""
    return engine._ellpack([c.follower_weights.entries for c in network.clusters])


def ring_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


@pytest.mark.parametrize("sizes,edges,width", [
    ((2, 2), ((), ()), 0),
    ((2, 5, 2), ((), ring_edges(4), ()), 2),
], ids=["all-single", "some-single"])
@pytest.mark.parametrize("tau_intra", [0, 2])
def test_sweep_single_follower_clusters(sizes, edges, width, tau_intra):
    spec = ScenarioSpec(family="explicit", cluster_sizes=sizes, cluster_edges=edges,
                        gamma=0.4, beta=0.3, tau=2, tau_intra=tau_intra, d=2,
                        seed=5, max_iters=10)
    network = sweep_against_reference(spec, 30)
    index, weight = follower_table(network)
    followers = sum(sizes) - len(sizes)
    # slot 0 is each row's diagonal, the neighbour slots follow it
    assert index[0].tolist() == list(range(followers))
    assert index.shape == (width + 1, followers)
    assert weight.shape == (width + 1, followers, 1)


def test_sweep_pads_clusters_of_different_degree():
    complete = [(i, j) for i in range(9) for j in range(i + 1, 9)]
    spec = ScenarioSpec(family="explicit", cluster_sizes=(6, 10, 4),
                        cluster_edges=(ring_edges(5), complete, [(0, 1), (1, 2)]),
                        gamma=0.6, beta=0.2, tau=3, d=3, seed=9, max_iters=10)
    network = sweep_against_reference(spec, 30)
    index, weight = follower_table(network)
    assert index.shape == (9, 17)
    assert index[0].tolist() == list(range(17)) and (weight[0] > 0.0).all()
    # after the diagonal slot, each row fills as many leading slots as it
    # has neighbours; the rest is padding at the row's own id
    index, weight = index[1:], weight[1:]
    filled = weight[..., 0] != 0.0
    assert filled.sum(axis=0).tolist() == [2] * 5 + [8] * 9 + [1, 2, 1]
    assert (filled == (np.arange(8)[:, None] < filled.sum(axis=0))).all()
    assert (index[~filled] == np.nonzero(~filled)[1]).all()


def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@pytest.mark.parametrize("negative_zero", [False, True], ids=["signed", "minus-zero"])
@pytest.mark.parametrize("d", [1, 3])
@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_sweep_pads_leader_table_narrower_than_followers(d, negative_zero, data):
    """Complete clusters under a line of leaders: the leader rows carry
    padding slots that their own table lacks.  With negative_zero every
    leader and the followers of some clusters start at -0.0, so their sums
    are -0.0 at every sweep.  Follower and leader rows equal their per-node
    references to the bit."""
    r = data.draw(st.integers(2, 5))
    sizes = tuple(data.draw(st.lists(st.integers(5, 9), min_size=r, max_size=r)))
    spec = ScenarioSpec(
        family="explicit", cluster_sizes=sizes,
        cluster_edges=tuple(complete_edges(s - 1) for s in sizes), leader_graph="line",
        gamma=data.draw(st.floats(0.05, 0.95)), beta=data.draw(st.floats(0.05, 1.0)),
        tau=data.draw(st.integers(0, 4)), tau_intra=data.draw(st.integers(0, 3)), d=d,
        seed=data.draw(st.integers(0, 10_000)), max_iters=10)
    network = build_clustered_network(spec)
    leader_width = network.leader_weights.support.degrees().max()
    assert leader_width <= 2 < max(c.follower_weights.support.degrees().max()
                                   for c in network.clusters)
    init = sample_initial_values(spec, network.total_nodes)
    if negative_zero:
        init[leader_ids(network)] = -0.0
        zeroed = data.draw(st.lists(st.booleans(), min_size=r, max_size=r))
        for cluster in itertools.compress(network.clusters, zeroed):
            init[list(cluster.follower_ids)] = -0.0
    state = init_state(network, init, spec.tau, spec.tau_intra, steps=steps_of(spec))
    for _ in range(2 * max(spec.tau, spec.tau_intra) + 3):
        assert_sweep_matches_reference(state)
        advance(state)
    if negative_zero:
        assert np.signbit(state.leaders_at(0)).all() and not state.leaders_at(0).any()


@pytest.mark.parametrize("negative_zero", [False, True], ids=["signed", "minus-zero"])
@pytest.mark.parametrize("r,tau,tau_intra,d", [(4, 0, 0, 1), (4, 3, 2, 3), (6, 5, 1, 2)])
def test_sweep_pads_follower_table_narrower_than_leaders(r, tau, tau_intra, d,
                                                         negative_zero):
    """Ring clusters under a complete graph of leaders: the follower rows
    carry padding slots that their own table lacks.  With negative_zero
    every leader and the followers of the last cluster start at -0.0, so
    their sums are -0.0 at every sweep.  Follower and leader rows equal
    their per-node references to the bit."""
    spec = ScenarioSpec(family="ring", cluster_sizes=tuple(range(4, 4 + r)),
                        leader_graph="complete", gamma=0.45, beta=0.15, tau=tau,
                        tau_intra=tau_intra, d=d, seed=r + tau, max_iters=10)
    network = build_clustered_network(spec)
    leader_width = network.leader_weights.support.degrees().max()
    assert max(c.follower_weights.support.degrees().max()
               for c in network.clusters) == 2 < leader_width
    init = sample_initial_values(spec, network.total_nodes)
    if negative_zero:
        init[leader_ids(network)] = -0.0
        init[list(network.clusters[-1].follower_ids)] = -0.0
    state = init_state(network, init, spec.tau, spec.tau_intra, steps=steps_of(spec))
    for _ in range(2 * max(tau, tau_intra) + 6):
        assert_sweep_matches_reference(state)
        advance(state)
    if negative_zero:
        last = cluster_blocks(state, state.followers_at(0))[-1]
        assert np.signbit(last).all() and not last.any()


def block_diagonal(blocks):
    n = sum(len(w) for w in blocks)
    out = np.zeros((n, n))
    offset = 0
    for w in blocks:
        out[offset:offset + len(w), offset:offset + len(w)] = w
        offset += len(w)
    return out


SWEEP_TABLE_SPECS = {
    "preset-small": preset_small(),
    "preset-large": preset_large(),
    "complete-leaders-over-rings": ScenarioSpec(
        family="ring", cluster_sizes=(4, 5, 6, 7, 8, 9), leader_graph="complete",
        gamma=0.45, beta=0.15, tau=3, tau_intra=1, d=2, seed=6, max_iters=10),
    "single-follower-clusters": ScenarioSpec(
        family="explicit", cluster_sizes=(2, 5, 2), cluster_edges=((), ring_edges(4), ()),
        gamma=0.4, beta=0.3, tau=2, tau_intra=1, d=2, seed=5, max_iters=10),
    "tau-intra-above-tau": preset_small().replace(tau=2, tau_intra=5, d=3),
}


@pytest.mark.parametrize("name", list(SWEEP_TABLE_SPECS))
def test_sweep_table_is_ellpack_of_block_diagonal(name):
    """Each row i of the sweep table is row i of blockdiag(W_1 .. W_r, V):
    slot 0 holds (i, A_ii), the next slots the non-zeros of the row in
    ascending order, the rest (i, 0.0), every id at the offset of the row's
    delay into the window; the last slot is the tracking term.  Weights
    and steps repeat each row's value over the d columns of its state."""
    spec = SWEEP_TABLE_SPECS[name]
    network = build_clustered_network(spec)
    state = init_state(network, sample_initial_values(spec, network.total_nodes),
                       spec.tau, spec.tau_intra, steps=steps_of(spec))
    index, weight, hold = engine._sweep_table(state)
    a = block_diagonal([c.follower_weights.entries for c in network.clusters]
                       + [network.leader_weights.entries])
    n = len(a)
    parts = (n - len(network.clusters), len(network.clusters))
    reach = max(spec.tau, spec.tau_intra)
    delay = np.repeat([spec.tau_intra, spec.tau], parts)
    off_diagonal = a.copy()
    np.fill_diagonal(off_diagonal, 0.0)
    width = int(np.count_nonzero(off_diagonal, axis=1).max())
    assert index.shape == (width + 2, n) and weight.shape == (width + 2, n, spec.d)
    assert hold.shape == (n, spec.d)
    assert (weight == weight[..., :1]).all() and (hold == hold[:, :1]).all()
    for i in range(n):
        ids = index[:-1, i] - (reach - delay[i]) * n
        w = weight[:-1, i, 0]
        cols = np.flatnonzero(off_diagonal[i])
        m = len(cols) + 1
        assert ids[0] == i and w[0] == a[i, i]
        assert ids[1:m].tolist() == cols.tolist()
        assert w[1:m].tolist() == a[i, cols].tolist()
        assert (ids[m:] == i).all() and not np.signbit(w[m:]).any() and not w[m:].any()
    cluster = np.repeat(np.arange(parts[1]), [len(c.follower_ids) for c in network.clusters])
    own = np.concatenate([parts[0] + cluster, np.arange(parts[0], n)])
    track_delay = np.repeat([spec.tau_intra, 0], parts)
    assert index[-1].tolist() == (own + (reach - track_delay) * n).tolist()
    assert weight[-1, :, 0].tolist() == np.repeat([spec.gamma, 1.0 - spec.beta],
                                                  parts).tolist()
    assert hold[:, 0].tolist() == np.repeat([1.0 - spec.gamma, spec.beta],
                                            parts).tolist()


def test_sweep_many_clusters():
    spec = ScenarioSpec(family="geometric", cluster_sizes=(21,) * 200, radius=0.6,
                        gamma=0.5, beta=0.05, tau=5, seed=3, max_iters=10)
    network = sweep_against_reference(spec, 4)
    assert follower_table(network)[0][0].tolist() == list(range(4000))


def test_ellpack_allocates_less_than_a_dense_block(traced_peak):
    """The ELLPACK build reads the non-zeros of each block where they lie:
    on the clusters of 400 and 800 followers of a ring, it allocates less
    than one dense follower block."""
    spec = ScenarioSpec(family="ring", cluster_sizes=(401, 801), gamma=0.5,
                        beta=0.05, tau=20, seed=23, max_iters=10)
    network = build_clustered_network(spec)
    blocks = ([c.follower_weights.entries for c in network.clusters]
              + [network.leader_weights.entries])
    (index, weight), peak = traced_peak(lambda: engine._ellpack(blocks))
    assert index.shape == (3, 1202)
    assert peak < min(w.nbytes for w in blocks[:-1])


def test_advance_takes_a_non_negative_integer_count(tiny_spec):
    """A count that is no integer fails as a negative one does, and an
    integer of any kind advances k by its int value."""
    network = build_clustered_network(tiny_spec)
    state = init_state(network, sample_initial_values(tiny_spec, 12), tiny_spec.tau,
                       steps=steps_of(tiny_spec))
    for count in (2.5, "3", None):
        with pytest.raises(DomainError, match="sweep count"):
            advance(state, count)
    advance(state, np.int64(2))
    assert state.k == 2 and type(state.k) is int


def test_sweep_table_built_once_on_first_sweep(tiny_spec):
    network = build_clustered_network(tiny_spec)
    spectral_summary(network, tiny_spec.tau)
    state = init_state(network, sample_initial_values(tiny_spec, 12), tiny_spec.tau,
                       steps=steps_of(tiny_spec))
    assert state._table is None
    advance(state)
    table = state._table
    assert table is not None
    advance(state)
    assert state._table is table
    advance(state, 0)
    with pytest.raises(DomainError):
        advance(state, -1)
    assert state.k == 2 and state._table is table


@pytest.mark.parametrize("bad_id", [10**9, -10**9])
def test_sweep_table_refuses_an_id_outside_the_window(monkeypatch, tiny_spec,
                                                      tiny_network, bad_id):
    """The ids are range-checked when the table is built, since the sweeps
    gather with mode="clip"."""
    ellpack = engine._ellpack

    def corrupt(blocks):
        index, weight = ellpack(blocks)
        index[0, 0] = bad_id
        return index, weight

    state = init_state(tiny_network, sample_initial_values(tiny_spec, 12),
                       tiny_spec.tau, steps=steps_of(tiny_spec))
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_ellpack", corrupt)
        with pytest.raises(ShapeError, match="outside the window"):
            advance(state)
    assert state.k == 0
    state._band = None
    assert advance(state).k == 1


def families_one_sqrt_per_row(followers, leaders, starts, owner):
    """The error families and the stopping metric with a sqrt per row
    before every maximum, the formulas that _diagnostics_block and
    _stopping_block replace with a sqrt of the largest square, and the
    follower averages.  Each average reaches the rows of its cluster by a
    gather by owner, where _follower_disagreement repeats it by sizes."""
    def norms(x):
        return np.sqrt(engine._squares(x))

    counts = np.diff(starts, append=followers.shape[1])[:, None]
    avg = np.add.reduceat(followers, starts, axis=1) / counts
    spread = engine._squares(followers - avg[:, owner])
    follower_dis = np.sqrt(np.add.reduceat(spread, starts, axis=1))
    gap = norms(avg - leaders)
    lead_avg = np.add.reduce(leaders, axis=1, keepdims=True) / leaders.shape[1]
    node_err = np.maximum.reduceat(norms(followers - lead_avg), starts, axis=1)
    leader_sq = engine._squares(leaders - lead_avg)
    leader_dis = np.sqrt(np.add.reduce(leader_sq, axis=1))
    global_err = np.maximum(node_err.max(axis=1), np.sqrt(leader_sq.max(axis=1)))
    metric = norms(followers - leaders.take(owner, axis=1)).max(axis=1)
    return follower_dis, leader_dis, gap, node_err, global_err, metric, avg


# Values whose squares are +0.0, subnormal, zero by underflow or infinite.
EXTREMES = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, 1e300, -1e300])


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(d=st.integers(1, 10), r=st.integers(1, 200), n=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), share=st.sampled_from([0.0, 0.2, 1.0]))
def test_block_evaluation_takes_sqrt_of_largest_square(d, r, n, seed, share):
    """Taking the maximum of squared distances before the sqrt gives the
    bytes of a sqrt per row: on up to 200 clusters of 1 to 4 followers,
    d from 1 to 10, and values spread from 1e-300 to 1e300 with a share of
    -0.0, subnormals and 1e300 in them; the follower averages and the
    spreads taken from them are the bytes of a gather by owner."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 5, r)
    starts = np.cumsum(np.concatenate([[0], sizes[:-1]]))
    owner = np.repeat(np.arange(r), sizes)
    x = (rng.choice([-1.0, 1.0], (n, sizes.sum() + r, d))
         * 10.0 ** rng.uniform(-300, 300, (n, sizes.sum() + r, d)))
    special = rng.random(x.shape) < share
    x[special] = rng.choice(EXTREMES, special.sum())
    followers, leaders = x[:, :sizes.sum()], x[:, sizes.sum():]
    with np.errstate(all="ignore"):
        want = families_one_sqrt_per_row(followers, leaders, starts, owner)
        got = (*engine._diagnostics_block(followers, leaders, starts, sizes),
               engine._stopping_block(followers, leaders, owner),
               engine._follower_disagreement(followers, starts, sizes)[0])
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------
# conserved quantities
# ---------------------------------------------------------------------

def _states_with_clamp(states, k):
    return states[max(k, 0)]


@pytest.mark.parametrize("tau,tau_intra", [(0, 0), (4, 0), (3, 2), (2, 6)])
def test_follower_average_recursion(tau, tau_intra):
    spec = ScenarioSpec(family="ring", cluster_sizes=(6, 5), gamma=0.35,
                        beta=0.2, tau=tau, tau_intra=tau_intra, seed=21,
                        max_iters=10)
    network = build_clustered_network(spec)
    _, states = trajectory(network, spec, 30)
    for k in range(30):
        past = _states_with_clamp(states, k - tau_intra)
        for cl in network.clusters:
            ids = list(cl.follower_ids)
            got = states[k + 1][ids].mean(axis=0)
            want = ((1 - spec.gamma) * past[ids].mean(axis=0)
                    + spec.gamma * past[cl.leader_id])
            assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("tau", [0, 1, 5])
def test_leader_average_recursion(tau):
    spec = ScenarioSpec(family="ring", cluster_sizes=(5, 5, 5), gamma=0.5,
                        beta=0.3, tau=tau, seed=2, max_iters=10)
    network = build_clustered_network(spec)
    _, states = trajectory(network, spec, 25)
    leaders = leader_ids(network)
    for k in range(25):
        got = states[k + 1][leaders].mean(axis=0)
        want = ((1 - spec.beta) * states[k][leaders].mean(axis=0)
                + spec.beta * _states_with_clamp(states, k - tau)[leaders].mean(axis=0))
        assert np.allclose(got, want, atol=1e-12)


def test_leader_average_constant():
    # constant prefill makes the leader average an exact invariant
    spec = ScenarioSpec(family="ring", cluster_sizes=(5, 5, 5), gamma=0.5,
                        beta=0.25, tau=6, seed=14, max_iters=10, d=2)
    network = build_clustered_network(spec)
    _, states = trajectory(network, spec, 40)
    leaders = leader_ids(network)
    first = states[0][leaders].mean(axis=0)
    for s in states[1:]:
        assert np.allclose(s[leaders].mean(axis=0), first, atol=1e-12)


def test_iterates_stay_bounded():
    rng = np.random.default_rng(77)
    for seed in rng.integers(0, 10_000, size=5):
        spec = ScenarioSpec(family="ring", cluster_sizes=(6, 6), gamma=0.45,
                            beta=0.6, tau=3, tau_intra=1, seed=int(seed),
                            max_iters=10)
        network = build_clustered_network(spec)
        init, states = trajectory(network, spec, 50)
        p_max = float(np.linalg.norm(init, axis=1).max())
        for s in states:
            assert np.linalg.norm(s, axis=1).max() <= p_max + 1e-9


# ---------------------------------------------------------------------
# run drivers
# ---------------------------------------------------------------------

def test_run_trace_length(tiny_spec, tiny_network):
    trace = run(tiny_network, tiny_spec.replace(max_iters=17))
    assert len(trace) == 18
    assert trace.fingerprint == tiny_spec.replace(max_iters=17).fingerprint()


def test_run_zero_iters(tiny_spec, tiny_network):
    trace = run(tiny_network, tiny_spec.replace(max_iters=0))
    assert len(trace) == 1


def test_run_records_match_reference(tiny_spec, tiny_network):
    trace = run(tiny_network, tiny_spec.replace(max_iters=20))
    init = sample_initial_values(tiny_spec, 12)
    ref = oracle.simulate_dense(tiny_network, init, tiny_spec.gamma,
                               tiny_spec.beta, tiny_spec.tau, steps=20)
    assert len(trace) == len(ref)
    for k, s in enumerate(ref):
        assert trace.leader_disagreement[k] == pytest.approx(
            oracle.leader_disagreement(tiny_network, s), abs=1e-12)
        assert trace.leader_follower_gap[k] == pytest.approx(
            oracle.leader_follower_gaps(tiny_network, s), abs=1e-12)
        assert trace.follower_disagreement[k] == pytest.approx(
            oracle.follower_disagreements(tiny_network, s), abs=1e-12)
        assert trace.cluster_node_error[k] == pytest.approx(
            oracle.node_errors(tiny_network, s), abs=1e-12)
        assert trace.global_error[k] >= trace.cluster_node_error[k].max()


def test_stopping_metric_matches_reference(tiny_spec, tiny_network):
    init = sample_initial_values(tiny_spec, 12)
    state = init_state(tiny_network, init, tiny_spec.tau, steps=steps_of(tiny_spec))
    want = oracle.worst_follower_leader_distance(tiny_network, init)
    assert one_iteration(state)[1] == pytest.approx(want, abs=1e-12)
    for _ in range(20):
        assert one_iteration(state)[1] == reference_stopping_metric(state)
        advance(state)


def test_run_until_settles(tiny_spec, tiny_network):
    result = run_until(tiny_network, tiny_spec)
    assert result.converged
    window = tiny_spec.tau + 1
    settle = result.iterations
    assert len(result.trace) == settle + window
    # recompute the stopping metric per iteration from the reference route
    init = sample_initial_values(tiny_spec, 12)
    ref = oracle.simulate_dense(tiny_network, init, tiny_spec.gamma,
                               tiny_spec.beta, tiny_spec.tau,
                               steps=len(result.trace) - 1)
    metrics = [oracle.worst_follower_leader_distance(tiny_network, s)
               for s in ref]
    assert all(m <= tiny_spec.threshold for m in metrics[settle:])
    if settle > 0:
        assert metrics[settle - 1] > tiny_spec.threshold


def test_run_until_respects_cap(tiny_spec, tiny_network):
    result = run_until(tiny_network, tiny_spec.replace(max_iters=3))
    assert not result.converged
    assert result.iterations == 3
    assert len(result.trace) == 4


def test_run_until_immediate_settle(tiny_network):
    spec = ScenarioSpec(family="ring", cluster_sizes=(4, 4, 4), gamma=0.5,
                        beta=0.1, tau=3, seed=7, max_iters=50,
                        init_low=-1e-6, init_high=1e-6)
    result = run_until(tiny_network, spec)
    assert result.converged
    assert result.iterations == 0
    assert len(result.trace) == spec.tau + 1


def test_run_until_threshold_override(tiny_spec, tiny_network):
    loose = run_until(tiny_network, tiny_spec.replace(threshold=1.0))
    tight = run_until(tiny_network, tiny_spec.replace(threshold=1e-6))
    assert loose.iterations < tight.iterations


def test_run_until_prefix_of_run(tiny_spec, tiny_network):
    until = run_until(tiny_network, tiny_spec)
    full = run(tiny_network, tiny_spec.replace(max_iters=len(until.trace)))
    for a, b in zip(until.trace.columns, full.columns):
        assert np.array_equal(a, b[:len(a)])


class SettlingRule:
    """run_until's confirmation rule fed one iteration at a time; keeps the
    iterations at which a candidate starts and at which one is reset."""

    def __init__(self, threshold, window):
        self.threshold, self.window = threshold, window
        self.candidate = None
        self.starts, self.resets = [], []

    def confirmed(self, k, value) -> bool:
        if value > self.threshold:
            if self.candidate is not None:
                self.resets.append(k)
            self.candidate = None
            return False
        if self.candidate is None:
            self.candidate = k
            self.starts.append(k)
        return k - self.candidate + 1 >= self.window


def per_sweep_run_until(network, spec):
    """run_until with the rule checked on the stopping metric after every
    sweep and the diagnostics taken one iteration at a time.  Returns
    (converged, iterations), the five columns and the rule."""
    state = init_state(network, sample_initial_values(spec, network.total_nodes),
                       spec.tau, spec.tau_intra, steps=steps_of(spec))
    rule = SettlingRule(spec.threshold, max(spec.tau, spec.tau_intra) + 1)
    records = []
    while True:
        record, metric = one_iteration(state)
        records.append(record)
        if rule.confirmed(state.k, metric):
            outcome = (True, rule.candidate)
            break
        if state.k >= spec.max_iters:
            outcome = (False, spec.max_iters)
            break
        advance(state)
    columns = [np.array([getattr(rec, name) for rec in records]) for name in FAMILIES]
    return outcome, columns, rule


def metric_sequence(network, spec):
    """The stopping metric at iterations 0..spec.max_iters."""
    state = init_state(network, sample_initial_values(spec, network.total_nodes),
                       spec.tau, spec.tau_intra, steps=steps_of(spec))
    out = [one_iteration(state)[1]]
    for _ in range(spec.max_iters):
        advance(state)
        out.append(one_iteration(state)[1])
    return out


def threshold_where(metrics, window, wanted):
    """The smallest threshold at which the rule confirms on `metrics` with
    wanted(rule, stop) true, stop being the confirming iteration."""
    for threshold in sorted(set(metrics)):
        rule = SettlingRule(threshold, window)
        for k, value in enumerate(metrics):
            if rule.confirmed(k, value):
                if wanted(rule, k):
                    return threshold
                break
    raise AssertionError("no threshold gives the wanted case")


STOP_BASE = ScenarioSpec(family="ring", cluster_sizes=(5, 6, 5), gamma=0.3, beta=0.1,
                         tau=3, seed=4, max_iters=400)

# (spec fields, how the threshold is chosen: a fixed value or a predicate
# on the confirmed rule and its stopping iteration, given the block length)
STOP_CASES = {
    "window-straddles-boundary": (
        {}, lambda block: lambda rule, stop: rule.candidate // block < stop // block),
    "candidate-resets-inside-block": (
        dict(tau=5, tau_intra=2),
        lambda block: lambda rule, stop: any(
            s // block == r // block for s, r in zip(rule.starts, rule.resets))),
    "window-longer-than-block": (dict(tau=70), lambda block: lambda rule, stop: True),
    "cap-inside-block": (dict(max_iters=100), 1e-12),
    "no-sweep-unsettled": (dict(max_iters=0), 1e-12),
    "no-sweep-settled": (dict(tau=0, max_iters=0), 1e3),
    "settled-at-zero": ({}, 1e3),
}


@pytest.mark.parametrize("block", [7, engine.BLOCK_ITERATIONS])
@pytest.mark.parametrize("case", list(STOP_CASES))
def test_run_until_matches_per_sweep_check(monkeypatch, case, block):
    """Checking the stopping rule once per block, on the block's metric
    column, gives the outcome and the column bytes of a check after every
    sweep."""
    monkeypatch.setattr(engine, "BLOCK_ITERATIONS", block)
    fields, threshold = STOP_CASES[case]
    spec = STOP_BASE.replace(**fields)
    network = build_clustered_network(spec)
    window = max(spec.tau, spec.tau_intra) + 1
    if callable(threshold):
        threshold = threshold_where(metric_sequence(network, spec), window,
                                    threshold(block))
    spec = spec.replace(threshold=threshold)
    outcome, columns, rule = per_sweep_run_until(network, spec)
    # the case is what its name says
    stop = len(columns[0]) - 1
    if case == "candidate-resets-inside-block":
        assert rule.resets
    if case == "window-longer-than-block":
        assert window > block and outcome[0]
    if case == "cap-inside-block":
        assert not outcome[0] and stop % block not in (0, block - 1)
    if case == "settled-at-zero":
        assert outcome == (True, 0) and window > 1
    assert outcome[0] == (case not in ("cap-inside-block", "no-sweep-unsettled"))

    result = run_until(network, spec)
    assert (result.converged, result.iterations) == outcome
    assert column_bytes(result.trace) == [c.tobytes() for c in columns]


# ---------------------------------------------------------------------
# diagnostics blocks
# ---------------------------------------------------------------------

BLOCKS = (1, 7, engine.BLOCK_ITERATIONS)


def column_bytes(trace):
    return [c.tobytes() for c in trace.columns]


@pytest.mark.parametrize("sizes,edges", [
    ((2, 2), ((), ())),
    ((2, 5, 2), ((), ring_edges(4), ())),
    ((6, 4, 5), (ring_edges(5), [(0, 1), (1, 2)], ring_edges(4))),
], ids=["all-single", "some-single", "multi"])
@pytest.mark.parametrize("d,tau_intra", [(1, 0), (3, 2)])
def test_columns_independent_of_block_length(monkeypatch, sizes, edges, d, tau_intra):
    """Traced columns are the same bytes whatever the block length and
    wherever the run ends relative to a block boundary, and a shorter run
    or a run_until is a byte prefix of a longer run.  A byte budget of
    `block` iterations caps the blocks of a run, which would otherwise
    span the run; the last length spans the longest run whole."""
    spec = ScenarioSpec(family="explicit", cluster_sizes=sizes, cluster_edges=edges,
                        gamma=0.4, beta=0.3, tau=3, tau_intra=tau_intra, d=d,
                        seed=17, max_iters=130, threshold=1e-2)
    network = build_clustered_network(spec)
    full = None
    for block in BLOCKS + (spec.max_iters + 1,):
        monkeypatch.setattr(engine, "BLOCK_ITERATIONS", block)
        monkeypatch.setattr(engine, "BLOCK_BYTES", block * 8 * network.total_nodes * d)
        full = full or column_bytes(run(network, spec))      # blocks of 1
        # 7, 14 and 21 rows end on a boundary of blocks of 7, 64 rows on one
        # of blocks of 64; the other lengths end in a partial block
        for max_iters in (0, 6, 13, 20, 63, 64, 130):
            trace = run(network, spec.replace(max_iters=max_iters))
            assert len(trace) == max_iters + 1
            got = column_bytes(trace)
            assert [f[:len(g)] for f, g in zip(full, got)] == got, (block, max_iters)
        until = run_until(network, spec)
        assert until.converged and len(until.trace) < spec.max_iters
        got = column_bytes(until.trace)
        assert [f[:len(g)] for f, g in zip(full, got)] == got, block


def test_block_length_capped_by_bytes(tiny_network, monkeypatch):
    init = np.arange(24, dtype=float).reshape(12, 2)
    sweep_bytes = init.nbytes          # one iteration of all 12 nodes
    for budget, block in ((1 << 20, engine.BLOCK_ITERATIONS),
                          (5 * sweep_bytes + 1, 5), (sweep_bytes - 1, 1)):
        monkeypatch.setattr(engine, "BLOCK_BYTES", budget)
        state = init_state(tiny_network, init, tau=3, tau_intra=9, steps=UNUSED_STEPS)
        assert state.block == block
        # the window of the longest delay, then at least as many slots in
        # whole blocks
        assert len(state._history) == 10 + -(-10 // block) * block
        state.followers_at(9)
        with pytest.raises(DomainError):
            state.followers_at(10)


def test_block_states_are_one_block(tiny_spec, tiny_network, monkeypatch):
    monkeypatch.setattr(engine, "BLOCK_ITERATIONS", 4)
    state = init_state(tiny_network, sample_initial_values(tiny_spec, 12), tau=2,
                       steps=steps_of(tiny_spec))
    seen = []
    for _ in range(6):
        seen.append(state.followers_at(0).copy())
        advance(state)
    seen.append(state.followers_at(0).copy())
    followers, leaders = state.block_states(4)
    assert followers.shape == (3, 9, 1) and leaders.shape == (3, 3, 1)
    assert followers.tobytes() == np.stack(seen[4:]).tobytes()
    for first in (3, 0):               # not a block start; more than a block
        with pytest.raises(DomainError):
            state.block_states(first)


def test_state_copy_is_independent(tiny_spec, tiny_network, monkeypatch):
    init = sample_initial_values(tiny_spec, 12)
    for block, tau_intra in itertools.product(HISTORY_BLOCKS, (0, 2, 11, 70)):
        monkeypatch.setattr(engine, "BLOCK_ITERATIONS", block)
        state = init_state(tiny_network, init, tiny_spec.tau, tau_intra,
                           steps=steps_of(tiny_spec))
        reach = max(state.tau, tau_intra)
        # copy at each iteration of a buffer's length, so that the window
        # has been shifted to the front before some copies and is shifted
        # right after others
        for k in range(len(state._history)):
            frozen = state.copy()
            mark = frozen.leaders_at(0).copy()
            for t in range(reach + 1):
                assert np.array_equal(frozen.leaders_at(t), state.leaders_at(t))
            for t in range(tau_intra + 1):
                assert np.array_equal(frozen.followers_at(t), state.followers_at(t))
            advance(state)
            assert np.array_equal(frozen.leaders_at(0), mark)
            assert frozen.k == k and state.k == k + 1
            # the copy continues exactly like the original would have
            advance(frozen)
            for t in range(reach + 1):
                assert np.array_equal(frozen.leaders_at(t), state.leaders_at(t))
            for t in range(tau_intra + 1):
                assert np.array_equal(frozen.followers_at(t), state.followers_at(t))


# ---------------------------------------------------------------------
# package exports
# ---------------------------------------------------------------------

def test_all_exports_resolve():
    import cluster_consensus

    for name in cluster_consensus.__all__:
        assert hasattr(cluster_consensus, name), name
    namespace = {}
    exec("from cluster_consensus import *", namespace)
    assert set(cluster_consensus.__all__) <= set(namespace)
