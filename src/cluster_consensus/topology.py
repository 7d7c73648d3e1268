"""Graphs, mixing matrices, and spectral quantities for clustered networks.

A clustered network consists of r clusters, each holding one leader and a
connected graph of followers, plus a connected graph over the leaders
themselves.  Followers mix through a doubly stochastic weight matrix built
from the max-degree rule; leaders mix through one doubly stochastic matrix
with a positive diagonal, the leader exchange matrix.  The convergence
theory consumes two spectral quantities computed here: the second largest
singular value sigma_a of each follower matrix and its counterpart delta_c
of the leader exchange matrix.  From delta_c and the delay tau follow the
largest admissible leader step size beta_max and the leader contraction
rate eta, decided in one place (`SpectralSummary`).  A graph searches its
connectivity once and keeps the answer, and a weight matrix its sigma.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

from .errors import (
    ConfigError,
    ConstructionError,
    DomainError,
    NumericError,
    ShapeError,
    TopologyError,
)

DOUBLY_STOCHASTIC_TOL = 1e-12
GEOMETRIC_ATTEMPTS = 100     # point draws before geometric_graph gives up


# =====================================================================
# graphs
# =====================================================================

def _canonical_edges(node_count: int, edges) -> frozenset:
    out = set()
    for e in edges:
        i, j = int(e[0]), int(e[1])
        if i == j:
            raise TopologyError(f"self-loop on node {i} is not allowed")
        if not (0 <= i < node_count and 0 <= j < node_count):
            raise TopologyError(
                f"edge ({i}, {j}) references a node outside [0, {node_count})"
            )
        out.add((i, j) if i < j else (j, i))
    return frozenset(out)


@dataclass(frozen=True, eq=True)
class AdjacencyGraph:
    """Undirected simple graph on nodes 0..node_count-1."""

    node_count: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.node_count < 1:
            raise TopologyError("graph needs at least one node")
        object.__setattr__(self, "edges", _canonical_edges(self.node_count, self.edges))

    @classmethod
    def from_edges(cls, node_count: int, edges) -> "AdjacencyGraph":
        return cls(node_count, [(i, j) for i, j in edges])

    @cached_property
    def _adjacency(self) -> tuple:
        nbrs = [[] for _ in range(self.node_count)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return tuple(tuple(sorted(n)) for n in nbrs)

    @cached_property
    def _edge_array(self) -> np.ndarray:
        """(2, m) array of the edges' endpoint ids, in the set's own order."""
        return np.array(list(self.edges), dtype=np.intp).reshape(-1, 2).T

    def neighbors(self, i: int) -> tuple:
        return self._adjacency[i]

    def degrees(self) -> np.ndarray:
        return np.array([len(n) for n in self._adjacency], dtype=int)

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        adjacency = self._adjacency
        seen = {0}
        stack = [0]
        while stack:
            for j in adjacency[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == self.node_count


def ring_graph(node_count: int) -> AdjacencyGraph:
    """Cycle where each node touches its nearest two peers (needs >= 3 nodes)."""
    if node_count < 3:
        raise ConstructionError(
            f"a ring needs at least 3 nodes, got {node_count}"
        )
    return AdjacencyGraph.from_edges(
        node_count, [(i, (i + 1) % node_count) for i in range(node_count)]
    )


def line_graph(node_count: int) -> AdjacencyGraph:
    """Path 0-1-...-(n-1); a single node yields the edgeless graph."""
    return AdjacencyGraph.from_edges(
        node_count, [(i, i + 1) for i in range(node_count - 1)]
    )


def complete_graph(node_count: int) -> AdjacencyGraph:
    return AdjacencyGraph.from_edges(
        node_count,
        [(i, j) for i in range(node_count) for j in range(i + 1, node_count)],
    )


def geometric_graph(node_count: int, radius: float, rng) -> AdjacencyGraph:
    """Random geometric graph: uniform points in the unit square, edge iff
    the Euclidean distance is below `radius`.  Resamples until connected,
    giving up after GEOMETRIC_ATTEMPTS draws.
    """
    if radius <= 0:
        raise ConstructionError(f"geometric radius must be positive, got {radius}")
    for _ in range(GEOMETRIC_ATTEMPTS):
        pts = rng.random((node_count, 2))
        dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        ii, jj = np.nonzero(dists < radius)
        upper = ii < jj
        graph = AdjacencyGraph.from_edges(
            node_count, zip(ii[upper].tolist(), jj[upper].tolist()))
        if graph.is_connected():
            return graph
    raise ConstructionError(
        f"no connected geometric graph on {node_count} nodes with radius "
        f"{radius} within {GEOMETRIC_ATTEMPTS} attempts"
    )


# =====================================================================
# weight matrices
# =====================================================================

@dataclass(frozen=True)
class WeightViolation:
    """One violated clause of the doubly stochastic weight contract."""

    clause: str          # row_sum | column_sum | support | diagonal | edge_weight
    where: tuple
    value: float

    def __str__(self):
        return f"{self.clause} violated at {self.where} (value {self.value!r})"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "weights valid"
        return "; ".join(str(v) for v in self.violations)


def validate_weights(entries, support: AdjacencyGraph,
                     alpha: float) -> ValidationReport:
    """Check a candidate mixing matrix against its support graph.

    Clauses checked: row sums and column sums equal one (within
    DOUBLY_STOCHASTIC_TOL), off-diagonal entries are positive exactly on
    edges of `support`, diagonal entries reach `alpha`, and edge weights
    reach `alpha` (the lower bounds get the same tolerance, since a
    diagonal computed as one minus a row sum can land a rounding error
    below alpha).
    """
    w = np.asarray(entries, dtype=float)
    n = support.node_count
    if w.shape != (n, n):
        raise ShapeError(f"weight matrix shape {w.shape} does not match {n} nodes")
    if not np.isfinite(w).all():
        raise NumericError("weight matrix contains non-finite entries")
    if not (0 < alpha <= 1):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")

    tol = DOUBLY_STOCHASTIC_TOL
    bad = []
    rows = w.sum(axis=1)
    for i in np.nonzero(np.abs(rows - 1.0) > tol)[0]:
        bad.append(WeightViolation("row_sum", (int(i),), float(rows[i])))
    cols = w.sum(axis=0)
    for j in np.nonzero(np.abs(cols - 1.0) > tol)[0]:
        bad.append(WeightViolation("column_sum", (int(j),), float(cols[j])))
    on_edge = np.zeros((n, n), dtype=bool)
    ii, jj = support._edge_array
    on_edge[ii, jj] = on_edge[jj, ii] = True
    off_support = ((w > 0.0) != on_edge) | (w < 0.0)
    np.fill_diagonal(off_support, False)
    a, b = np.nonzero(off_support | (on_edge & (w < alpha - tol)))
    # pairs i < j in row-major order, (i, j) before (j, i)
    for i, j in sorted(zip(a.tolist(), b.tolist()),
                       key=lambda p: (min(p), max(p), p[0] > p[1])):
        clause = "support" if off_support[i, j] else "edge_weight"
        bad.append(WeightViolation(clause, (i, j), float(w[i, j])))
    for i in np.flatnonzero(w.diagonal() < alpha - tol):
        bad.append(WeightViolation("diagonal", (int(i), int(i)), float(w[i, i])))
    return ValidationReport(tuple(bad))


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Doubly stochastic mixing matrix tied to a support graph.

    `min_edge_weight` is the uniform lower bound alpha that diagonal and
    edge entries must reach.  The contract is validated at construction.
    """

    entries: np.ndarray
    support: AdjacencyGraph
    min_edge_weight: float

    def __post_init__(self):
        w = np.array(self.entries, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "entries", w)
        report = validate_weights(w, self.support, self.min_edge_weight)
        if not report.ok:
            raise TopologyError(f"invalid weight matrix: {report}")

    @property
    def size(self) -> int:
        return self.support.node_count

    @cached_property
    def sigma(self) -> float:
        """second_largest_singular_value of this matrix, computed once."""
        return second_largest_singular_value(self)


def metropolis_weights(graph: AdjacencyGraph) -> WeightMatrix:
    """Max-degree mixing matrix: w_ij = 1 / (1 + max(deg_i, deg_j)) on edges,
    with the diagonal absorbing whatever each row has left.

    The graph must be connected.  The result is symmetric, doubly
    stochastic, and bounded below by alpha = 1 / (1 + max degree) on the
    diagonal and on every edge.
    """
    if not graph.is_connected():
        raise TopologyError(
            f"max-degree weights need a connected graph "
            f"({graph.node_count} nodes, {len(graph.edges)} edges)"
        )
    n = graph.node_count
    deg = graph.degrees()
    w = np.zeros((n, n))
    i, j = graph._edge_array
    w[i, j] = w[j, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    diag = 1.0 - w.sum(axis=1)
    assert np.all(diag > 0), "max-degree rule produced a non-positive diagonal"
    np.fill_diagonal(w, diag)
    alpha = 1.0 / (1.0 + int(deg.max()))
    return WeightMatrix(w, graph, alpha)


# =====================================================================
# spectral quantities
# =====================================================================

def _deviation(w: np.ndarray) -> np.ndarray:
    n = w.shape[0]
    return w - np.full((n, n), 1.0 / n)


def second_largest_singular_value(weights) -> float:
    """Spectral norm of W minus the averaging projector (1/n) * ones.

    For a doubly stochastic W this equals the second largest singular value
    of W itself, the contraction factor of W on the disagreement subspace.
    Computed exactly at every size: symmetric matrices (every max-degree
    matrix) through their eigenvalues, others through a dense SVD.
    """
    if isinstance(weights, WeightMatrix):
        w = weights.entries          # square and finite, validated at construction
    else:
        w = np.asarray(weights, float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise NumericError("matrix contains non-finite entries")
    dev = _deviation(w)
    if np.abs(w - w.T).max() <= 1e-13:
        return float(np.max(np.abs(np.linalg.eigvalsh(dev))))
    return float(np.linalg.svd(dev, compute_uv=False)[0])


# =====================================================================
# step-size algebra
# =====================================================================

def _beta_max(delta_c: float, tau: int) -> float:
    """1 - delta_c^(1/tau), or 1 - delta_c without delay."""
    return 1.0 - delta_c ** (1.0 / tau) if tau else 1.0 - delta_c


def max_stable_beta(delta_c: float, tau: int) -> float:
    """Largest leader step size with a contracting envelope: for tau >= 1
    this is 1 - delta_c^(1/tau); without delay it degenerates to
    1 - delta_c."""
    if not (0.0 < delta_c < 1.0):
        raise DomainError(f"delta_c must lie in (0, 1), got {delta_c}")
    if not (isinstance(tau, Integral) and tau >= 0):
        raise DomainError(f"tau must be a non-negative integer, got {tau!r}")
    return _beta_max(delta_c, tau)


def eta(beta: float, delta_c: float, tau: int) -> float:
    """Leader-disagreement contraction rate 1 - beta + delta_c*beta/(1-beta)^tau.

    Defined for beta in [0, 1); at beta = 1 the delay correction degenerates.
    delta_c = 0 (single leader) is allowed and gives 1 - beta.
    """
    if not (0.0 <= beta < 1.0):
        raise DomainError(f"beta must lie in [0, 1) for eta, got {beta}")
    if not (0.0 <= delta_c < 1.0):
        raise DomainError(f"delta_c must lie in [0, 1), got {delta_c}")
    if not (isinstance(tau, Integral) and tau >= 0):
        raise DomainError(f"tau must be a non-negative integer, got {tau!r}")
    return 1.0 - beta + delta_c * beta / (1.0 - beta) ** tau


@dataclass(frozen=True)
class SpectralSummary:
    """Spectral inputs of the convergence bounds for one network and delay.
    A single leader has delta_c = 0 (a 1x1 matrix has no disagreement
    direction) and beta_max = 1."""

    sigma_per_cluster: tuple
    delta_c: float
    tau: int
    beta_max: float

    def admits(self, beta: float) -> bool:
        """Whether the leader envelope contracts: 0 < beta < beta_max."""
        return 0.0 < beta < self.beta_max

    def rate(self, beta: float) -> float | None:
        """eta at this beta; None at beta = 1, where it is not defined."""
        return eta(beta, self.delta_c, self.tau) if beta < 1.0 else None


def spectral_summary(network: "ClusteredNetwork", tau: int) -> SpectralSummary:
    if not (isinstance(tau, Integral) and tau >= 0):
        raise DomainError(f"tau must be a non-negative integer, got {tau!r}")
    sigmas = tuple(c.follower_weights.sigma for c in network.clusters)
    dc = network.leader_weights.sigma
    return SpectralSummary(sigmas, dc, int(tau), _beta_max(dc, int(tau)))


# =====================================================================
# clustered networks
# =====================================================================

@dataclass(frozen=True, eq=False)
class Cluster:
    """One cluster: its follower weights, whose support is the follower
    graph, and its global node ids.

    The follower matrix ranges over followers only; the leader couples into
    the follower update solely through the leader-tracking term.
    """

    follower_weights: WeightMatrix
    leader_id: int
    follower_ids: tuple


@dataclass(frozen=True, eq=False)
class ClusteredNetwork:
    """The clusters and the leader exchange matrix, whose row a is the
    leader of clusters[a] and whose support must be connected."""

    clusters: tuple
    leader_weights: WeightMatrix
    total_nodes: int

    def __post_init__(self):
        ids = []
        for c in self.clusters:
            ids.append(c.leader_id)
            ids.extend(c.follower_ids)
        if len(ids) != len(set(ids)):
            raise TopologyError("cluster node sets overlap")
        if len(ids) != self.total_nodes:
            raise TopologyError(
                f"cluster sizes sum to {len(ids)}, expected {self.total_nodes}"
            )
        if self.leader_weights.size != len(self.clusters):
            raise ShapeError("leader matrix size must match the cluster count")
        if not self.leader_weights.support.is_connected():
            raise TopologyError("leader graph must be connected")


def build_clustered_network(spec) -> "ClusteredNetwork":
    """Realise a scenario: follower graphs per cluster, weights, leader graph.

    Every cluster occupies a contiguous block of global node ids with the
    leader at the block start.  Randomised families draw from a generator
    seeded by (spec.seed, 0), so identical specs give identical networks.
    """
    rng = np.random.default_rng([spec.seed, 0])
    clusters = []
    offset = 0
    for a, size in enumerate(spec.cluster_sizes):
        followers = size - 1
        if followers < 1:
            raise ConstructionError(f"cluster {a} has no followers (size {size})")
        if spec.family == "ring":
            if followers < 3:
                raise ConstructionError(
                    f"cluster {a}: a follower ring needs at least 3 followers, "
                    f"got {followers}"
                )
            graph = ring_graph(followers)
        elif spec.family == "geometric":
            graph = geometric_graph(followers, spec.radius, rng)
        elif spec.family == "explicit":
            graph = AdjacencyGraph.from_edges(followers, spec.cluster_edges[a])
        else:  # pragma: no cover - scenario validation rejects this earlier
            raise ConfigError(f"unknown topology family {spec.family!r}")
        weights = metropolis_weights(graph)
        clusters.append(
            Cluster(
                follower_weights=weights,
                leader_id=offset,
                follower_ids=tuple(range(offset + 1, offset + size)),
            )
        )
        offset += size

    r = len(clusters)
    if spec.leader_graph == "line":
        lg = line_graph(r)
    elif spec.leader_graph == "complete":
        lg = complete_graph(r) if r > 1 else line_graph(1)
    elif spec.leader_graph == "explicit":
        lg = AdjacencyGraph.from_edges(r, spec.leader_edges)
    else:  # pragma: no cover - scenario validation rejects this earlier
        raise ConfigError(f"unknown leader graph {spec.leader_graph!r}")
    return ClusteredNetwork(tuple(clusters), metropolis_weights(lg), offset)
