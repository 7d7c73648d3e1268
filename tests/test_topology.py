import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from cluster_consensus import (
    AdjacencyGraph,
    Cluster,
    ClusteredNetwork,
    ConstructionError,
    DomainError,
    NumericError,
    ScenarioSpec,
    ShapeError,
    TopologyError,
    WeightMatrix,
    build_clustered_network,
    complete_graph,
    geometric_graph,
    line_graph,
    metropolis_weights,
    ring_graph,
    second_largest_singular_value,
    spectral_summary,
    validate_weights,
)
from cluster_consensus.experiments import preset_large, preset_small
from cluster_consensus.topology import GEOMETRIC_ATTEMPTS, WeightViolation

# The three-leader line graph under max-degree weights; its spectrum is
# {1, 2/3, 0} so the deviation norm is exactly 2/3.
LINE3_WEIGHTS = np.array([
    [2 / 3, 1 / 3, 0.0],
    [1 / 3, 1 / 3, 1 / 3],
    [0.0, 1 / 3, 2 / 3],
])


# ---------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------

def test_ring_graph_shape():
    g = ring_graph(5)
    assert g.node_count == 5
    assert len(g.edges) == 5
    assert all(len(g.neighbors(i)) == 2 for i in range(5))
    assert g.is_connected()


def test_ring_too_small():
    with pytest.raises(ConstructionError):
        ring_graph(2)


def test_line_graph_shape():
    g = line_graph(4)
    assert len(g.edges) == 3
    assert len(g.neighbors(0)) == 1 and len(g.neighbors(3)) == 1
    assert len(g.neighbors(1)) == 2 and len(g.neighbors(2)) == 2


def test_line_graph_single_node():
    g = line_graph(1)
    assert g.node_count == 1
    assert len(g.edges) == 0
    assert g.is_connected()


def test_complete_graph_shape():
    g = complete_graph(4)
    assert len(g.edges) == 6
    assert all(len(g.neighbors(i)) == 3 for i in range(4))


def test_edges_canonicalised():
    a = AdjacencyGraph.from_edges(3, [(2, 0), (1, 2)])
    b = AdjacencyGraph.from_edges(3, [(0, 2), (2, 1)])
    assert np.array_equal(a.edges, b.edges)
    assert a.neighbors(2) == (0, 1)


def test_self_loop_rejected():
    with pytest.raises(TopologyError):
        AdjacencyGraph.from_edges(3, [(1, 1)])


def test_edge_out_of_range_rejected():
    with pytest.raises(TopologyError):
        AdjacencyGraph.from_edges(3, [(0, 3)])


@pytest.mark.parametrize("edges,message", [
    ([(0, 1), (0, 5), (2, 2)], r"edge \(0, 5\) references a node outside \[0, 3\)"),
    ([(0, 1), (2, 2), (0, 5)], "self-loop on node 2 is not allowed"),
    ([(1, 0), (4, 4)], "self-loop on node 4 is not allowed"),
    ([(2, 1), (-1, 0)], r"edge \(-1, 0\) references a node outside \[0, 3\)"),
    ([(3, 0)], r"edge \(3, 0\) references a node outside \[0, 3\)"),
])
def test_from_edges_reports_first_offending_edge(edges, message):
    with pytest.raises(TopologyError, match=f"^{message}$"):
        AdjacencyGraph.from_edges(3, edges)


@pytest.mark.parametrize("edges", [[(0, 1, 2), (1, 2, 3)], [0, 1], [[(0, 1)]]])
def test_from_edges_rejects_non_pairs(edges):
    with pytest.raises(ShapeError, match="pairs"):
        AdjacencyGraph.from_edges(4, edges)


def test_from_edges_collapses_duplicate_and_reversed_pairs():
    g = AdjacencyGraph.from_edges(
        4, [(1, 0), (2, 3), (0, 1), (0, 1), (3, 2), (2, 1), (1, 2)])
    assert g.edges.dtype == np.intp and g.edges.shape == (3, 2)
    assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3]]
    assert g.degrees().tolist() == [1, 2, 2, 1]
    assert [g.neighbors(i) for i in range(4)] == [(1,), (0, 2), (1, 3), (2,)]


def test_edges_are_sorted_and_read_only():
    for g in (ring_graph(6), complete_graph(5),
              AdjacencyGraph.from_edges(5, [(4, 0), (3, 1), (0, 2), (1, 0)]),
              geometric_graph(30, 0.4, np.random.default_rng(1))):
        pairs = g.edges.tolist()
        assert pairs == sorted(pairs) and all(i < j for i, j in pairs)
        assert len(set(map(tuple, pairs))) == len(pairs)
        with pytest.raises(ValueError):
            g.edges[0, 0] = 1


@pytest.mark.parametrize("graph", [
    line_graph(1),
    AdjacencyGraph.from_edges(1, []),
    geometric_graph(1, 0.3, np.random.default_rng(0)),
], ids=["line", "from_edges", "geometric"])
def test_edgeless_graph(graph):
    assert graph.edges.shape == (0, 2) and graph.edges.dtype == np.intp
    assert len(graph.edges) == 0 and list(graph.edges) == []
    assert graph.degrees().tolist() == [0]
    assert graph.neighbors(0) == ()
    assert graph.is_connected()
    w = metropolis_weights(graph)
    assert w.entries.tolist() == [[1.0]] and w.min_edge_weight == 1.0
    assert w.sigma == 0.0


def test_disconnected_detected():
    g = AdjacencyGraph.from_edges(4, [(0, 1), (2, 3)])
    assert not g.is_connected()


def test_geometric_graph_deterministic():
    a = geometric_graph(15, 0.5, np.random.default_rng(3))
    b = geometric_graph(15, 0.5, np.random.default_rng(3))
    assert np.array_equal(a.edges, b.edges)
    assert a.is_connected()


def test_connectivity_searched_once_per_graph():
    # geometric_graph's search is the one that metropolis_weights and
    # ClusteredNetwork read again
    g = geometric_graph(15, 0.5, np.random.default_rng(3))
    assert vars(g)["_connected"] is True
    metropolis_weights(g)
    assert vars(g)["_connected"] is True
    apart = AdjacencyGraph.from_edges(4, [(0, 1), (2, 3)])
    assert not apart.is_connected() and vars(apart)["_connected"] is False


def test_geometric_graph_gives_up():
    with pytest.raises(ConstructionError):
        geometric_graph(12, 1e-6, np.random.default_rng(0))


def test_geometric_radius_positive():
    with pytest.raises(ConstructionError):
        geometric_graph(5, 0.0, np.random.default_rng(0))


def _norm_rule_graph(n, radius, rng):
    """The rule before edge arrays: norm over an (n, n, 2) difference
    stack, upper triangle, resampled until a breadth-first search over
    the dense adjacency reaches every node.  Returns the edges and the
    draws taken, or None and GEOMETRIC_ATTEMPTS."""
    for attempt in range(1, GEOMETRIC_ATTEMPTS + 1):
        pts = rng.random((n, 2))
        close = np.linalg.norm(pts[:, None] - pts[None], axis=2) < radius
        reached = np.zeros(n, dtype=bool)
        reached[0] = True
        frontier = reached.copy()
        while frontier.any():
            frontier = close[frontier].any(axis=0) & ~reached
            reached |= frontier
        if reached.all():
            return np.argwhere(np.triu(close, 1)), attempt
    return None, GEOMETRIC_ATTEMPTS


def _check_norm_rule(n, radius, seed) -> int:
    """geometric_graph gives the norm rule's edges and leaves the generator
    where the norm rule leaves it; returns the draws taken."""
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    edges, attempts = _norm_rule_graph(n, radius, ref_rng)
    if edges is None:
        with pytest.raises(ConstructionError,
                           match=f"within {GEOMETRIC_ATTEMPTS} attempts"):
            geometric_graph(n, radius, rng)
    else:
        assert np.array_equal(geometric_graph(n, radius, rng).edges, edges)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return attempts


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_geometric_graph_matches_norm_rule(data):
    n = data.draw(st.sampled_from([*range(1, 41), 400, 800]), label="n")
    small = n <= 40      # a radius that gives up at 400 nodes takes seconds
    radius = data.draw(st.floats(1e-3 if small else 0.09, 1.5), label="radius")
    _check_norm_rule(n, radius, data.draw(st.integers(0, 2**32 - 1), label="seed"))


@pytest.mark.parametrize("n,radius,seed,attempts", [
    (20, 0.25, 0, 23),                   # resampled
    (400, 0.08, 0, 2),
    (800, 0.06, 1, 2),
    (40, 1.5, 3, 1),                     # complete graph
    (12, 1e-3, 0, GEOMETRIC_ATTEMPTS),   # gives up
], ids=["resample", "resample_400", "resample_800", "complete", "gives_up"])
def test_geometric_graph_norm_rule_regimes(n, radius, seed, attempts):
    assert _check_norm_rule(n, radius, seed) == attempts
    if radius > 2 ** 0.5:
        graph = geometric_graph(n, radius, np.random.default_rng(seed))
        assert np.array_equal(graph.edges, complete_graph(n).edges)


# ---------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------

def test_metropolis_line3_exact():
    w = metropolis_weights(line_graph(3))
    assert np.allclose(w.entries, LINE3_WEIGHTS, atol=1e-15)
    assert w.min_edge_weight == pytest.approx(1 / 3)


def test_metropolis_matches_dense_reference():
    rng = np.random.default_rng(42)
    for _ in range(10):
        g = geometric_graph(12, 0.6, rng)
        w = metropolis_weights(g)
        ref = oracle.metropolis_dense(oracle.adjacency_of(g))
        assert np.allclose(w.entries, ref, atol=1e-14)


def test_metropolis_weights_equal_per_edge_loop():
    """The edge weights taken over whole edge arrays are the bytes of the
    per-edge loop."""
    rng = np.random.default_rng(5)
    graphs = [line_graph(1), line_graph(2), ring_graph(7), complete_graph(6)]
    graphs += [geometric_graph(n, 0.5, rng) for n in (5, 20, 60)]
    for g in graphs:
        deg = g.degrees()
        ref = np.zeros((g.node_count, g.node_count))
        for i, j in g.edges:
            ref[i, j] = ref[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
        np.fill_diagonal(ref, 1.0 - ref.sum(axis=1))
        assert metropolis_weights(g).entries.tobytes() == ref.tobytes()


def test_metropolis_doubly_stochastic():
    rng = np.random.default_rng(9)
    for _ in range(10):
        g = geometric_graph(10, 0.7, rng)
        w = metropolis_weights(g).entries
        assert np.allclose(w.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(w, w.T)


def test_metropolis_needs_connected_graph():
    g = AdjacencyGraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(TopologyError):
        metropolis_weights(g)


def test_validate_weights_flags_row_sum():
    w = LINE3_WEIGHTS.copy()
    w[0, 0] += 0.1
    report = validate_weights(w, line_graph(3), 1 / 3)
    assert not report.ok
    clauses = {v.clause for v in report.violations}
    assert "row_sum" in clauses and "column_sum" in clauses


def test_validate_weights_flags_support():
    w = LINE3_WEIGHTS.copy()
    w[0, 2] = w[2, 0] = 0.05   # entry off the support graph
    report = validate_weights(w, line_graph(3), 1 / 3)
    assert any(v.clause == "support" for v in report.violations)


def test_validate_weights_flags_small_diagonal():
    w = np.array([[0.1, 0.9], [0.9, 0.1]])
    report = validate_weights(w, line_graph(2), 0.5)
    assert any(v.clause == "diagonal" for v in report.violations)


def test_validate_weights_reports_violations_in_order():
    # row and column sums, then off-diagonal pairs i < j row-major with
    # (i, j) before (j, i), then the diagonal
    w = np.array([
        [0.6, 0.1, 0.25, 0.0],
        [0.5, 0.5, -0.1, 0.0],
        [0.0, 0.0, 0.4, 0.6],
        [0.2, 0.0, 0.5, 0.1],
    ])
    report = validate_weights(w, line_graph(4), 0.3)
    assert report.violations == (
        WeightViolation("row_sum", (0,), 0.95),
        WeightViolation("row_sum", (1,), 0.9),
        WeightViolation("row_sum", (3,), 0.7999999999999999),
        WeightViolation("column_sum", (0,), 1.3),
        WeightViolation("column_sum", (1,), 0.6),
        WeightViolation("column_sum", (2,), 1.05),
        WeightViolation("column_sum", (3,), 0.7),
        WeightViolation("edge_weight", (0, 1), 0.1),
        WeightViolation("support", (0, 2), 0.25),
        WeightViolation("support", (3, 0), 0.2),
        WeightViolation("support", (1, 2), -0.1),
        WeightViolation("support", (2, 1), 0.0),
        WeightViolation("diagonal", (3, 3), 0.1),
    )


def test_validate_weights_shape_mismatch():
    with pytest.raises(ShapeError):
        validate_weights(np.eye(2), line_graph(3), 0.5)


def test_validate_weights_nonfinite():
    w = LINE3_WEIGHTS.copy()
    w[1, 1] = np.nan
    with pytest.raises(NumericError):
        validate_weights(w, line_graph(3), 1 / 3)


def test_validate_weights_bad_alpha():
    with pytest.raises(DomainError):
        validate_weights(LINE3_WEIGHTS, line_graph(3), 0.0)


def test_weight_matrix_rejects_invalid():
    with pytest.raises(TopologyError):
        WeightMatrix(np.eye(3), line_graph(3), 0.5)


def test_weight_matrix_is_read_only():
    w = metropolis_weights(line_graph(3))
    with pytest.raises(ValueError):
        w.entries[0, 0] = 5.0


# ---------------------------------------------------------------------
# spectral quantities
# ---------------------------------------------------------------------

def test_sigma_line3():
    assert second_largest_singular_value(LINE3_WEIGHTS) == pytest.approx(
        2 / 3, abs=1e-12)


def test_sigma_ring4():
    w = metropolis_weights(ring_graph(4))
    assert second_largest_singular_value(w) == pytest.approx(1 / 3, abs=1e-12)


def test_sigma_ring19():
    # circulant eigenvalues: 1/3 + (2/3) cos(2 pi k / 19)
    w = metropolis_weights(ring_graph(19))
    expected = 1 / 3 + (2 / 3) * np.cos(2 * np.pi / 19)
    assert second_largest_singular_value(w) == pytest.approx(expected, abs=1e-12)


def test_sigma_identity_and_projector():
    assert second_largest_singular_value(np.eye(6)) == pytest.approx(1.0)
    assert second_largest_singular_value(np.full((6, 6), 1 / 6)) == pytest.approx(
        0.0, abs=1e-12)


def test_sigma_permutation_matrix():
    # non-symmetric doubly stochastic input goes through the svd route
    p = np.roll(np.eye(5), 1, axis=1)
    assert second_largest_singular_value(p) == pytest.approx(1.0, abs=1e-12)


def test_sigma_matches_dense_reference():
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = geometric_graph(14, 0.55, rng)
        w = metropolis_weights(g)
        assert second_largest_singular_value(w) == pytest.approx(
            oracle.deviation_sigma(w.entries), abs=1e-10)


def test_sigma_large_matrix():
    # spectrum chosen so the answer is exactly one half
    n = 600
    w = 0.5 * np.eye(n) + 0.5 * np.full((n, n), 1.0 / n)
    assert second_largest_singular_value(w) == pytest.approx(0.5, abs=1e-8)


@pytest.mark.parametrize("n", [513, 1000])
def test_sigma_large_ring_is_exact(n):
    # circulant eigenvalues: 1/3 + (2/3) cos(2 pi k / n)
    w = metropolis_weights(ring_graph(n))
    sigma = second_largest_singular_value(w)
    assert sigma == pytest.approx(1 / 3 + (2 / 3) * np.cos(2 * np.pi / n),
                                  abs=1e-12)
    assert sigma == pytest.approx(oracle.deviation_sigma(w.entries), abs=1e-12)


def test_sigma_rejects_nonsquare():
    with pytest.raises(ShapeError):
        second_largest_singular_value(np.ones((2, 3)))


def test_sigma_rejects_nan():
    w = np.full((3, 3), np.nan)
    with pytest.raises(NumericError):
        second_largest_singular_value(w)


# ---------------------------------------------------------------------
# leader exchange matrix
# ---------------------------------------------------------------------

def test_delta_c_line3():
    assert metropolis_weights(line_graph(3)).sigma == pytest.approx(2 / 3, abs=1e-12)


def test_delta_c_single_leader():
    assert metropolis_weights(line_graph(1)).sigma == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------
# clustered networks
# ---------------------------------------------------------------------

def test_build_small_network_layout(tiny_network, tiny_spec):
    net = tiny_network
    assert net.total_nodes == 12
    assert len(net.clusters) == 3
    assert [c.leader_id for c in net.clusters] == [0, 4, 8]
    assert net.clusters[1].follower_ids == (5, 6, 7)
    for c in net.clusters:
        assert c.follower_weights.support.is_connected()
        assert len(c.follower_ids) + 1 == 4


def test_build_is_deterministic():
    spec = ScenarioSpec(family="geometric", cluster_sizes=(8, 8), gamma=0.5,
                        beta=0.2, tau=2, seed=5, max_iters=10, radius=0.6)
    a = build_clustered_network(spec)
    b = build_clustered_network(spec)
    for ca, cb in zip(a.clusters, b.clusters):
        assert np.array_equal(ca.follower_weights.support.edges,
                              cb.follower_weights.support.edges)
        assert np.array_equal(ca.follower_weights.entries,
                              cb.follower_weights.entries)


def test_build_seed_changes_geometric_topology():
    base = ScenarioSpec(family="geometric", cluster_sizes=(12, 12), gamma=0.5,
                        beta=0.2, tau=2, seed=5, max_iters=10, radius=0.5)
    a = build_clustered_network(base)
    b = build_clustered_network(base.replace(seed=6))
    assert any(not np.array_equal(ca.follower_weights.support.edges,
                                  cb.follower_weights.support.edges)
               for ca, cb in zip(a.clusters, b.clusters))


# SHA-256 of every follower and leader matrix (entries.tobytes()) and
# repr(sigma) of preset_small, preset_large and intra_delay's seed-0 base
NETWORK_SHA256 = (
    "e34e079c185e663a710e1e18c4c83ed614deadac246a193c83e7948e7673105e")


def test_network_bytes_digest():
    """Edges and weights may only move between versions on purpose."""
    specs = [preset_small(), preset_large(), ScenarioSpec(
        family="geometric", cluster_sizes=(20,) * 5, radius=0.3, gamma=0.5,
        beta=0.05, tau=20, seed=23, max_iters=20_000)]
    h = hashlib.sha256()
    for spec in specs:
        net = build_clustered_network(spec)
        for w in [c.follower_weights for c in net.clusters] + [net.leader_weights]:
            h.update(w.entries.tobytes())
            h.update(repr(w.sigma).encode())
    assert h.hexdigest() == NETWORK_SHA256, (
        f"network digest is {h.hexdigest()}; if intentional, disclose the "
        "byte move in CHANGES.md and update the digest")


def test_build_single_follower_clusters():
    spec = ScenarioSpec(family="geometric", cluster_sizes=(2, 2, 5), radius=0.9,
                        gamma=0.5, beta=0.1, tau=1, seed=4, max_iters=10)
    net = build_clustered_network(spec)
    for c in net.clusters[:2]:
        assert c.follower_weights.support.edges.shape == (0, 2)
        assert c.follower_weights.entries.tolist() == [[1.0]]
    assert spectral_summary(net, 1).sigma_per_cluster[:2] == (0.0, 0.0)


def test_build_ring_needs_three_followers():
    spec = ScenarioSpec(family="ring", cluster_sizes=(3, 4), gamma=0.5,
                        beta=0.2, tau=0, seed=1, max_iters=10)
    with pytest.raises(ConstructionError):
        build_clustered_network(spec)


def test_build_explicit_edges():
    spec = ScenarioSpec(
        family="explicit",
        cluster_sizes=(4, 4),
        gamma=0.4,
        beta=0.3,
        tau=1,
        seed=0,
        max_iters=10,
        cluster_edges=(((0, 1), (1, 2), (0, 2)), ((0, 1), (1, 2), (2, 0))),
        leader_graph="explicit",
        leader_edges=((0, 1),),
    )
    net = build_clustered_network(spec)
    assert np.array_equal(net.clusters[0].follower_weights.support.edges,
                          [(0, 1), (0, 2), (1, 2)])
    assert np.array_equal(net.leader_weights.support.edges, [(0, 1)])


def test_build_single_cluster():
    spec = ScenarioSpec(family="ring", cluster_sizes=(6,), gamma=0.5,
                        beta=0.2, tau=0, seed=1, max_iters=10)
    net = build_clustered_network(spec)
    assert len(net.clusters) == 1
    assert np.allclose(net.leader_weights.entries, [[1.0]])


def test_network_rejects_overlapping_clusters(tiny_network):
    c = tiny_network.clusters[0]
    dup = Cluster(c.follower_weights, c.leader_id, c.follower_ids)
    with pytest.raises(TopologyError):
        ClusteredNetwork((c, dup), tiny_network.leader_weights, 24)


def test_network_rejects_disconnected_leader_graph(tiny_network):
    # doubly stochastic with a positive diagonal, but leader 2 talks to no one
    support = AdjacencyGraph.from_edges(3, [(0, 1)])
    w = WeightMatrix([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], support, 0.5)
    with pytest.raises(TopologyError, match="connected"):
        ClusteredNetwork(tiny_network.clusters, w, tiny_network.total_nodes)


def test_network_rejects_leader_matrix_size_mismatch(tiny_network):
    w = metropolis_weights(line_graph(4))
    with pytest.raises(ShapeError):
        ClusteredNetwork(tiny_network.clusters, w, tiny_network.total_nodes)


def test_spectral_summary_small(tiny_network):
    s = spectral_summary(tiny_network, tau=3)
    # each follower ring has 3 nodes: complete graph, sigma = 0
    assert s.sigma_per_cluster == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
    assert s.delta_c == pytest.approx(2 / 3, abs=1e-12)
    assert s.beta_max == pytest.approx(1 - (2 / 3) ** (1 / 3), abs=1e-12)


def test_spectral_summary_tau_zero(tiny_network):
    s = spectral_summary(tiny_network, tau=0)
    assert s.beta_max == pytest.approx(1 / 3, abs=1e-12)


def test_spectral_summary_rejects_negative_tau(tiny_network):
    for tau in (-1, 2.5, "3"):
        with pytest.raises(DomainError):
            spectral_summary(tiny_network, tau=tau)


def test_spectral_summary_numpy_integer_tau(tiny_network):
    s = spectral_summary(tiny_network, tau=np.int64(3))
    assert s == spectral_summary(tiny_network, tau=3)
    assert type(s.tau) is int and type(s.beta_max) is float
