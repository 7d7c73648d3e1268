"""Protocol execution: vectorised updates over state history rings, and
the run driver.

One iteration is one synchronous sweep: every follower mixes with its
neighbours at step size gamma and tracks its own leader; every leader mixes
with the other leaders at step size beta, reading their states through a
uniform delay of tau iterations.  All reads use pre-step values.  States are
d-dimensional row vectors: all followers in one array stacked cluster by
cluster, all leaders in another, each kept in a ring of recent iterations
deep enough for the delays that read it.

A sweep updates every follower of every cluster in one gather-sum over the
network's block-diagonal neighbour table (`ClusteredNetwork.mix_followers`)
and gives each row its own leader's state through the per-row cluster index
`NetworkState.owner`; there is no per-cluster follower step.  The leaders
mix through `WeightMatrix.mix` over the same kind of table.  Both sum each
row in neighbour-list order, so every value equals the per-node
accumulation bit for bit.  The stopping metric is one reduction over all
follower rows.

The run driver evaluates the error families of a whole block of iterations
at once, reading the block's states straight from the rings
(`NetworkState.block_states`), and writes them into the columns of a
`Trace`; no Python object is built per iteration.  The test suite checks
the updates against the per-node form and against an independent dense
matrix-form evaluation of the same equations.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .analysis import _diagnostics_block, _row_norms
from .errors import DomainError, NumericError, ShapeError


@dataclass(frozen=True)
class StepSizes:
    """Step-size pair: fast follower mixing gamma, slow leader mixing beta."""

    gamma: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise DomainError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not (0.0 < self.beta <= 1.0):
            raise DomainError(f"beta must lie in (0, 1], got {self.beta}")


# Diagnostics are evaluated for up to BLOCK_ITERATIONS consecutive
# iterations at once, fewer where one iteration of the network's states
# takes more than BLOCK_BYTES / BLOCK_ITERATIONS bytes.
BLOCK_ITERATIONS = 64
BLOCK_BYTES = 2 << 20


class NetworkState:
    """Mutable simulation state at some iteration k, with its history.

    Two rings hold the history, each indexed modulo its depth so that slot
    k % depth holds iteration k: the followers, shape (depth_f, N_f, d),
    stacked cluster by cluster, and the leaders, shape (depth_l, r, d).
    Each depth is the history its delays read (tau_intra + 1 for the
    followers, max(tau, tau_intra) + 1 for the leaders) rounded up to a
    multiple of `block`, so the iterations of one diagnostics block, which
    starts at a multiple of `block`, lie in consecutive slots of both rings
    (see `block_states`).  Every slot starts at the initial values, which
    realises the convention that states before iteration 0 equal the
    initial values.  followers_at(t) and leaders_at(t) read the states of
    t iterations ago, t = 0 the current ones.  Both return views into the
    rings, which later iterations overwrite, so a caller copies what it
    keeps.  owner[i] is the cluster of follower row i and starts[a] the
    first row of cluster a.  p_max is the largest initial per-node norm;
    the protocol keeps every node inside that ball.
    """

    def __init__(self, followers, leaders, cluster_sizes, tau, tau_intra, p_max):
        self.tau = int(tau)
        self.tau_intra = int(tau_intra)
        self.k = 0
        self.p_max = float(p_max)
        self.owner = np.repeat(np.arange(len(cluster_sizes)), cluster_sizes)
        self.starts = np.cumsum([0] + list(cluster_sizes[:-1]))
        sweep_bytes = followers.nbytes + leaders.nbytes
        self.block = max(1, min(BLOCK_ITERATIONS, BLOCK_BYTES // sweep_bytes))
        self._reach = (self.tau_intra, max(self.tau, self.tau_intra))
        self._followers, self._leaders = (
            np.repeat(x[None], -(-(reach + 1) // self.block) * self.block, axis=0)
            for x, reach in zip((followers, leaders), self._reach)
        )

    @property
    def dimension(self) -> int:
        return self._leaders.shape[2]

    def _at(self, ring, reach, offset):
        if not (0 <= offset <= reach):
            raise DomainError(f"history offset {offset} outside [0, {reach}]")
        return ring[(self.k - offset) % len(ring)]

    def followers_at(self, offset: int) -> np.ndarray:
        """(N_f, d) view of all followers, offset iterations ago."""
        return self._at(self._followers, self._reach[0], offset)

    def leaders_at(self, offset: int) -> np.ndarray:
        """(r, d) view of all leaders, offset iterations ago."""
        return self._at(self._leaders, self._reach[1], offset)

    def block_states(self, first: int) -> tuple:
        """(n, N_f, d) and (n, r, d) views of the followers and leaders of
        iterations first..k, one layer per iteration; first must start a
        block and k lie in it."""
        n = self.k - first + 1
        if first % self.block or not (0 < n <= self.block):
            raise DomainError(f"iterations {first}..{self.k} do not lie in one "
                              f"block of {self.block}")
        return tuple(ring[first % len(ring):][:n]
                     for ring in (self._followers, self._leaders))

    def push(self, followers: np.ndarray, leaders: np.ndarray):
        """Store the states of iteration k + 1 and move to it."""
        self.k += 1
        self._followers[self.k % len(self._followers)] = followers
        self._leaders[self.k % len(self._leaders)] = leaders

    def copy(self) -> "NetworkState":
        other = copy.copy(self)
        other._followers = self._followers.copy()
        other._leaders = self._leaders.copy()
        return other


@dataclass(eq=False)
class Trace:
    """Error families of one run, one column per family; row k of every
    column is iteration k, from 0.

    follower_disagreement, leader_follower_gap and cluster_node_error have
    shape (K, r), leader_disagreement and global_error shape (K,); the
    families are those of `DiagnosticsRecord`.
    """

    fingerprint: str
    follower_disagreement: np.ndarray
    leader_disagreement: np.ndarray
    leader_follower_gap: np.ndarray
    cluster_node_error: np.ndarray
    global_error: np.ndarray

    def __len__(self):
        return len(self.global_error)

    @property
    def columns(self) -> tuple:
        """The five family columns, in DiagnosticsRecord field order."""
        return (self.follower_disagreement, self.leader_disagreement,
                self.leader_follower_gap, self.cluster_node_error, self.global_error)


@dataclass
class RunResult:
    """Outcome of run_until: converged tells cap exhaustion apart from success."""

    converged: bool
    iterations: int
    trace: Trace


# ---------------------------------------------------------------------
# state construction
# ---------------------------------------------------------------------

def sample_initial_values(spec, total_nodes: int) -> np.ndarray:
    """Uniform initial values over [init_low, init_high], one row per node,
    drawn from a generator seeded by (spec.seed, 1)."""
    rng = np.random.default_rng([spec.seed, 1])
    return rng.uniform(spec.init_low, spec.init_high, size=(total_nodes, spec.d))


def init_state(network, initial_values, tau: int, tau_intra: int = 0) -> NetworkState:
    """Distribute per-node initial values into the rings."""
    vals = np.asarray(initial_values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.ndim != 2 or vals.shape[0] != network.total_nodes:
        raise ShapeError(
            f"initial values shape {vals.shape} does not provide one row for "
            f"each of {network.total_nodes} nodes"
        )
    if not np.all(np.isfinite(vals)):
        raise NumericError("initial values contain non-finite entries")
    for name, delay in (("tau", tau), ("tau_intra", tau_intra)):
        if not (isinstance(delay, Integral) and delay >= 0):
            raise DomainError(f"{name} must be a non-negative integer, got {delay!r}")
    followers = vals[[i for c in network.clusters for i in c.follower_ids]]
    leaders = vals[[c.leader_id for c in network.clusters]]
    p_max = float(np.linalg.norm(vals, axis=1).max())
    return NetworkState(
        followers, leaders, [len(c.follower_ids) for c in network.clusters],
        tau, tau_intra, p_max,
    )


# ---------------------------------------------------------------------
# one-step updates
# ---------------------------------------------------------------------

def leader_step(state: NetworkState, beta: float, weights) -> np.ndarray:
    """New leader block; neighbour states are read through the tau delay.

    The own state enters twice: undelayed through the (1 - beta) hold and
    delayed through the mixing matrix diagonal.
    """
    current = state.leaders_at(0)
    delayed = state.leaders_at(state.tau)
    return (1.0 - beta) * current + beta * weights.mix(delayed)


def advance(network, state: NetworkState, steps: StepSizes) -> NetworkState:
    """One synchronous sweep: all blocks update from pre-step values.

    Each follower keeps (1 - gamma) of its neighbourhood average and moves
    gamma towards its own leader, both read tau_intra iterations ago.
    """
    v_k = network.leader_schedule.matrix_at(state.k)
    stale = state.followers_at(state.tau_intra)
    lead = state.leaders_at(state.tau_intra)[state.owner]
    new_followers = ((1.0 - steps.gamma) * network.mix_followers(stale)
                     + steps.gamma * lead)
    new_leaders = leader_step(state, steps.beta, v_k)
    state.push(new_followers, new_leaders)
    return state


# ---------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------

def _drive(network, spec, until: bool) -> RunResult:
    """Record diagnostics at every iteration from 0 and sweep until
    spec.max_iters; with `until`, stop at a confirmed settling iteration
    (see run_until).

    The diagnostics of a block of state.block iterations are evaluated
    together once its last iteration is in the rings, and those of the
    last, possibly partial, block when the run ends.
    """
    state = init_state(
        network, sample_initial_values(spec, network.total_nodes),
        spec.tau, spec.tau_intra,
    )
    steps = StepSizes(spec.gamma, spec.beta)
    window = max(spec.tau, spec.tau_intra) + 1
    blocks = []
    first = 0              # first iteration of the block being filled
    candidate = None
    while True:
        outcome = None
        if until:
            if stopping_metric(state) <= spec.threshold:
                if candidate is None:
                    candidate = state.k
                if state.k - candidate + 1 >= window:
                    outcome = (True, candidate)
            else:
                candidate = None
        if outcome is None and state.k >= spec.max_iters:
            outcome = (False, spec.max_iters)
        if outcome is not None or state.k - first + 1 == state.block:
            blocks.append(_diagnostics_block(*state.block_states(first),
                                             state.starts, state.owner))
            first = state.k + 1
        if outcome is not None:
            trace = Trace(spec.fingerprint(),
                          *(np.concatenate(c) for c in zip(*blocks)))
            return RunResult(*outcome, trace)
        advance(network, state, steps)


def run(network, spec) -> Trace:
    """Execute spec.max_iters sweeps and record diagnostics every iteration."""
    return _drive(network, spec, until=False).trace


def stopping_metric(state: NetworkState) -> float:
    """Largest distance from any follower to its own leader."""
    dev = state.followers_at(0) - state.leaders_at(0)[state.owner]
    return float(_row_norms(dev).max())


def run_until(network, spec) -> RunResult:
    """Run until every follower stays within spec.threshold of its leader.

    Reports the first iteration from which the stopping metric remains at or
    below the threshold for a full confirmation window of
    max(tau, tau_intra) + 1 consecutive iterations.  The window guards
    against transient dips: with large delays the leaders stall while their
    delayed inputs still carry old values, followers briefly catch up, and
    the metric can touch the threshold long before the network settles.
    Cap exhaustion (no confirmed crossing within spec.max_iters sweeps) is
    reported through converged=False, not as an error.
    """
    return _drive(network, spec, until=True)
