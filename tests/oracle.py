"""Reference implementations used to cross-check the package.

Everything here is written as dense matrix products with a plain
clamped-index history list of whole-network states, deliberately unlike the
engine's padded neighbour-table sums and sliding history buffer.  The
envelopes are evaluated one iteration and one Python float at a time,
unlike the package's whole-column evaluation.  Agreement between the two
routes is the evidence the tests lean on.
"""

import numpy as np


def metropolis_dense(adjacency: np.ndarray) -> np.ndarray:
    """Metropolis weights from a 0/1 adjacency matrix, dense arithmetic."""
    adjacency = np.asarray(adjacency, dtype=float)
    n = adjacency.shape[0]
    deg = adjacency.sum(axis=1)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and adjacency[i, j]:
                w[i, j] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def deviation_sigma(w: np.ndarray) -> float:
    """Largest singular value of W - (1/n) 11^T, by full SVD."""
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    dev = w - np.full((n, n), 1.0 / n)
    return float(np.linalg.svd(dev, compute_uv=False)[0])


def adjacency_of(graph) -> np.ndarray:
    a = np.zeros((graph.node_count, graph.node_count))
    for i, j in graph.edges:
        a[i, j] = a[j, i] = 1.0
    return a


def simulate_dense(network, initial, gamma, beta, tau, tau_intra=0,
                   steps=100):
    """Matrix-form trajectory over the global state array.

    Returns the list of states [x(0), ..., x(steps)], each of shape (N, d).
    Delayed reads clamp the index at zero, which is the same thing as
    prefilling the history with the initial values.
    """
    initial = np.asarray(initial, dtype=float)
    if initial.ndim == 1:
        initial = initial[:, None]
    states = [initial.copy()]
    leader_ids = [c.leader_id for c in network.clusters]
    v = network.leader_weights.entries
    for k in range(steps):
        cur = states[-1]
        intra = states[max(k - tau_intra, 0)]
        inter = states[max(k - tau, 0)]
        new = cur.copy()
        for cl in network.clusters:
            ids = list(cl.follower_ids)
            w = cl.follower_weights.entries
            new[ids] = ((1.0 - gamma) * (w @ intra[ids])
                        + gamma * intra[cl.leader_id])
        delayed_leaders = inter[leader_ids]
        current_leaders = cur[leader_ids]
        mixed = (1.0 - beta) * current_leaders + beta * (v @ delayed_leaders)
        for a, lid in enumerate(leader_ids):
            new[lid] = mixed[a]
        states.append(new)
    return states


def follower_disagreements(network, state) -> list:
    """Per cluster: Frobenius deviation of the follower block from its mean."""
    return [frobenius_deviation(state[list(cl.follower_ids)])
            for cl in network.clusters]


def leader_disagreement(network, state) -> float:
    """Frobenius deviation of the leader stack from the leader average."""
    return frobenius_deviation(state[[c.leader_id for c in network.clusters]])


def leader_follower_gaps(network, state) -> list:
    """Per cluster: distance from the follower average to the own leader."""
    out = []
    for cl in network.clusters:
        avg = state[list(cl.follower_ids)].mean(axis=0)
        out.append(float(np.linalg.norm(avg - state[cl.leader_id])))
    return out


def node_errors(network, state) -> list:
    """Per cluster: worst follower distance to the leader average."""
    lead_avg = state[[c.leader_id for c in network.clusters]].mean(axis=0)
    return [float(np.linalg.norm(state[list(cl.follower_ids)] - lead_avg,
                                 axis=1).max())
            for cl in network.clusters]


def worst_follower_leader_distance(network, state) -> float:
    """Max over all followers of the distance to their own leader."""
    return max(
        float(np.linalg.norm(state[list(cl.follower_ids)] - state[cl.leader_id],
                             axis=1).max())
        for cl in network.clusters
    )


def frobenius_deviation(block: np.ndarray) -> float:
    """Frobenius norm of the deviation from the row average."""
    block = np.asarray(block, dtype=float)
    return float(np.linalg.norm(block - block.mean(axis=0), ord="fro"))


def envelopes(params, k: int) -> tuple:
    """The closed-form envelopes at iteration k: (follower, leader, gap,
    node), tuples per cluster or a float, None where a family does not
    apply."""
    follower = leader = gap = node = None
    if params.follower_applicable:
        follower = tuple(((1.0 - params.gamma) * s) ** k * n0
                         for s, n0 in zip(params.sigma_per_cluster,
                                          params.follower_init_norms))
        residual = 2.0 * params.p_max * params.beta / params.gamma
        gap = tuple((1.0 - params.gamma) ** k * g0 + residual
                    for g0 in params.initial_gaps)
    if params.leader_applicable:
        leader = 2.0 * params.eta ** k * params.leader_init_norm
    if follower is not None and leader is not None:
        node = tuple(f + leader + g for f, g in zip(follower, gap))
    return follower, leader, gap, node


def envelope_row(table, k: int) -> tuple:
    """Row k of a package envelope table, (follower, leader, gap, node)
    arrays or None, in the form envelopes above returns."""
    return tuple(None if v is None else v[k].item() if v.ndim == 1
                 else tuple(v[k].tolist()) for v in table)
