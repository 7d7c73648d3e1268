"""Protocol execution: vectorised updates over state history rings, and
the run driver.

One iteration is one synchronous sweep: every follower mixes with its
neighbours at step size gamma and tracks its own leader; every leader mixes
with the other leaders at step size beta, reading their states through a
uniform delay of tau iterations.  All reads use pre-step values.  States are
d-dimensional row vectors: all followers in one array stacked cluster by
cluster, all leaders in another, each kept in a ring of recent iterations
deep enough for the delays that read it.

A sweep costs a fixed number of numpy calls, whatever the degrees and the
number of clusters.  Every follower of every cluster is updated in one
gather-sum over the network's block-diagonal neighbour table
(`ClusteredNetwork.mix_followers`), and each row gets its own leader's state
through the per-row cluster index `NetworkState.owner`; the leaders mix
through `WeightMatrix.mix` over the same kind of table.  Each table holds a
row's diagonal in slot 0 and its neighbours after it, and one reduction
over the slots sums each row in that order, so every value equals the
per-node accumulation bit for bit.  The new states are written straight
into the ring slots of the next iteration.

The run driver sweeps a block of iterations back to back and then
evaluates the block at once, reading its states straight from the rings
(`NetworkState.block_states`): the stopping metric of every iteration in
one reduction, and every error family, written into the columns of a
`Trace`.  No Python object is built per iteration.  The test suite checks
the updates against the per-node form, the block-wise stopping rule
against a check after every sweep, and both against an independent dense
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
    first row of cluster a.
    """

    def __init__(self, followers, leaders, cluster_sizes, tau, tau_intra):
        self.tau = int(tau)
        self.tau_intra = int(tau_intra)
        self.k = 0
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
    return NetworkState(
        followers, leaders, [len(c.follower_ids) for c in network.clusters],
        tau, tau_intra,
    )


# ---------------------------------------------------------------------
# one-step updates
# ---------------------------------------------------------------------

def leader_step(state: NetworkState, beta: float, weights, out=None) -> np.ndarray:
    """New leader block, written into `out` when given; neighbour states
    are read through the tau delay.

    The own state enters twice: undelayed through the (1 - beta) hold and
    delayed through the mixing matrix diagonal.
    """
    current = state.leaders_at(0)
    delayed = state.leaders_at(state.tau)
    return np.add((1.0 - beta) * current, beta * weights.mix(delayed), out=out)


def advance(network, state: NetworkState, steps: StepSizes) -> NetworkState:
    """One synchronous sweep: all blocks update from pre-step values, and
    the new states go straight into the ring slots of iteration k + 1.

    Each follower keeps (1 - gamma) of its neighbourhood average and moves
    gamma towards its own leader, both read tau_intra iterations ago.
    Every term is computed before its slot is written, so a slot that is
    read in the same sweep (a ring as deep as the delay) is safe.
    """
    v_k = network.leader_schedule.matrix_at(state.k)
    followers, leaders = state._followers, state._leaders
    stale = followers[(state.k - state.tau_intra) % len(followers)]
    lead = leaders[(state.k - state.tau_intra) % len(leaders)].take(state.owner, axis=0)
    after = state.k + 1
    np.add((1.0 - steps.gamma) * network.mix_followers(stale), steps.gamma * lead,
           out=followers[after % len(followers)])
    leader_step(state, steps.beta, v_k, out=leaders[after % len(leaders)])
    state.k = after
    return state


# ---------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------

def _stopping_block(followers, leaders, owner) -> np.ndarray:
    """Stopping metric of each of n iterations, from their (n, N_f, d)
    follower and (n, r, d) leader stacks."""
    return _row_norms(followers - leaders.take(owner, axis=1)).max(axis=1)


def _drive(network, spec, until: bool) -> RunResult:
    """Record diagnostics at every iteration from 0 and sweep until
    spec.max_iters; with `until`, stop at a confirmed settling iteration
    (see run_until).

    The sweeps of a block of state.block iterations run back to back.  Once
    the block's last iteration is in the rings, or spec.max_iters is, the
    driver evaluates the block: with `until`, the stopping metric of every
    iteration in one reduction, scanned for the confirmation window (a
    candidate carries over from block to block); then every error family,
    cut at the iteration where the run ends.  A run that stops inside a
    block has swept up to the block's end, at most state.block - 1
    iterations more than it records; the result holds no state, so those
    sweeps change nothing that the caller sees.
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
        last = min(first + state.block - 1, spec.max_iters)
        while state.k < last:
            advance(network, state, steps)
        followers, leaders = state.block_states(first)
        outcome = None
        if until:
            metric = _stopping_block(followers, leaders, state.owner)
            for k, value in enumerate(metric.tolist(), first):
                if value > spec.threshold:
                    candidate = None
                    continue
                if candidate is None:
                    candidate = k
                if k - candidate + 1 >= window:
                    outcome, last = (True, candidate), k
                    break
        if outcome is None and last == spec.max_iters:
            outcome = (False, spec.max_iters)
        n = last - first + 1
        blocks.append(_diagnostics_block(followers[:n], leaders[:n],
                                         state.starts, state.owner))
        if outcome is not None:
            trace = Trace(spec.fingerprint(),
                          *(np.concatenate(c) for c in zip(*blocks)))
            return RunResult(*outcome, trace)
        first = last + 1


def run(network, spec) -> Trace:
    """Execute spec.max_iters sweeps and record diagnostics every iteration."""
    return _drive(network, spec, until=False).trace


def stopping_metric(state: NetworkState) -> float:
    """Largest distance from any follower to its own leader: the block
    evaluation of the run driver, applied to the current iteration alone."""
    return float(_stopping_block(state.followers_at(0)[None],
                                 state.leaders_at(0)[None], state.owner)[0])


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

    The rule is checked once per diagnostics block (see _drive), on the
    same per-iteration values as stopping_metric, so the outcome and the
    trace equal those of a check after every sweep; the sweeps the driver
    runs past the stop, to the end of its block, are not visible.
    """
    return _drive(network, spec, until=True)
