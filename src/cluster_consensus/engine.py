"""Protocol execution: vectorised updates, delay buffers, and run drivers.

One iteration is one synchronous sweep: every follower mixes with its
neighbours at step size gamma and tracks its own leader; every leader mixes
with the other leaders at step size beta, reading their states through a
uniform delay of tau iterations.  All reads use pre-step values.  States are
d-dimensional row vectors stacked into per-cluster blocks.

Both updates apply their mixing matrix through `WeightMatrix.mix`, which
sums each row over a padded neighbour table in neighbour-list order, so
every value equals the per-node accumulation bit for bit.  The test suite
checks the updates against that per-node form and against an independent
dense matrix-form evaluation of the same equations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .analysis import DiagnosticsRecord, diagnostics
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


class DelayBuffer:
    """Ring of the last delay+1 snapshots of some quantity.

    lookup(t) returns the snapshot from t steps ago; at the start the ring
    is filled with the initial snapshot, which realises the convention that
    states before iteration 0 equal the initial values.  With delay 0 the
    ring holds exactly one snapshot, the current one.
    """

    def __init__(self, delay: int, initial):
        if delay < 0:
            raise DomainError(f"delay must be non-negative, got {delay}")
        self._delay = int(delay)
        self._ring = deque([initial] * (self._delay + 1), maxlen=self._delay + 1)

    @property
    def delay(self) -> int:
        return self._delay

    def lookup(self, offset: int):
        if not (0 <= offset <= self._delay):
            raise DomainError(
                f"lookup offset {offset} outside [0, {self._delay}]"
            )
        return self._ring[-1 - offset]

    def push(self, snapshot):
        self._ring.append(snapshot)


class NetworkState:
    """Mutable simulation state at some iteration k.

    follower_blocks[a] is the (n_a, d) block of cluster a's followers,
    leader_block the (r, d) stack of leader states.  leader_delay keeps
    enough leader history to serve both the leader update (offset tau) and,
    when tau_intra > 0, the follower update's leader term (offset
    tau_intra); intra_delay keeps follower-block history and exists only
    when tau_intra > 0.  p_max is the largest initial per-node norm; the
    protocol keeps every node inside that ball.
    """

    def __init__(self, follower_blocks, leader_block, tau, tau_intra, p_max):
        self.follower_blocks = list(follower_blocks)
        self.leader_block = leader_block
        self.tau = int(tau)
        self.tau_intra = int(tau_intra)
        self.k = 0
        self.p_max = float(p_max)
        self.leader_delay = DelayBuffer(max(self.tau, self.tau_intra), leader_block)
        self.intra_delay = (
            DelayBuffer(self.tau_intra, tuple(self.follower_blocks))
            if self.tau_intra > 0 else None
        )

    @property
    def cluster_count(self) -> int:
        return len(self.follower_blocks)

    @property
    def dimension(self) -> int:
        return self.leader_block.shape[1]

    def copy(self) -> "NetworkState":
        other = NetworkState(
            [b.copy() for b in self.follower_blocks],
            self.leader_block.copy(),
            self.tau, self.tau_intra, self.p_max,
        )
        other.k = self.k
        # replay the delay rings
        for t in range(max(self.tau, self.tau_intra), -1, -1):
            other.leader_delay.push(self.leader_delay.lookup(t))
        if self.intra_delay is not None:
            for t in range(self.tau_intra, -1, -1):
                other.intra_delay.push(self.intra_delay.lookup(t))
        return other


@dataclass
class Trace:
    """Per-iteration diagnostics of one run, indexed contiguously from 0."""

    fingerprint: str
    records: list = field(default_factory=list)
    raw_states: dict | None = None

    def __len__(self):
        return len(self.records)


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
    """Distribute per-node initial values into blocks and prime the buffers."""
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
    if tau < 0 or tau_intra < 0:
        raise DomainError("delays must be non-negative")
    blocks = [vals[list(c.follower_ids)].copy() for c in network.clusters]
    leaders = np.stack([vals[c.leader_id] for c in network.clusters])
    p_max = float(np.linalg.norm(vals, axis=1).max())
    return NetworkState(blocks, leaders, tau, tau_intra, p_max)


# ---------------------------------------------------------------------
# one-step updates
# ---------------------------------------------------------------------

def follower_step(network, state: NetworkState, cluster_index: int,
                  gamma: float) -> np.ndarray:
    """New follower block for one cluster; does not modify the state.

    Each follower keeps (1 - gamma) of its neighbourhood average and moves
    gamma towards its leader.  With tau_intra > 0 both reads use the values
    from tau_intra iterations ago.
    """
    weights = network.clusters[cluster_index].follower_weights
    if state.intra_delay is not None:
        block = state.intra_delay.lookup(state.tau_intra)[cluster_index]
        lead = state.leader_delay.lookup(state.tau_intra)[cluster_index]
    else:
        block = state.follower_blocks[cluster_index]
        lead = state.leader_block[cluster_index]
    return (1.0 - gamma) * weights.mix(block) + gamma * lead


def leader_step(state: NetworkState, beta: float, weights) -> np.ndarray:
    """New leader block; neighbour states are read through the tau delay.

    The own state enters twice: undelayed through the (1 - beta) hold and
    delayed through the mixing matrix diagonal.
    """
    current = state.leader_block
    delayed = state.leader_delay.lookup(state.tau)
    return (1.0 - beta) * current + beta * weights.mix(delayed)


def advance(network, state: NetworkState, steps: StepSizes,
            schedule=None) -> NetworkState:
    """One synchronous sweep: all blocks update from pre-step values."""
    if schedule is None:
        schedule = network.leader_schedule
    v_k = schedule.matrix_at(state.k)
    new_blocks = [
        follower_step(network, state, a, steps.gamma)
        for a in range(state.cluster_count)
    ]
    new_leaders = leader_step(state, steps.beta, v_k)
    state.follower_blocks = new_blocks
    state.leader_block = new_leaders
    state.leader_delay.push(new_leaders)
    if state.intra_delay is not None:
        state.intra_delay.push(tuple(new_blocks))
    state.k += 1
    return state


# ---------------------------------------------------------------------
# run drivers
# ---------------------------------------------------------------------

def _snapshot(trace, state, stride):
    if stride and state.k % stride == 0:
        trace.raw_states[state.k] = (
            tuple(b.copy() for b in state.follower_blocks),
            state.leader_block.copy(),
        )


def run(network, spec) -> Trace:
    """Execute spec.max_iters sweeps and record diagnostics every iteration."""
    state = init_state(
        network, sample_initial_values(spec, network.total_nodes),
        spec.tau, spec.tau_intra,
    )
    steps = StepSizes(spec.gamma, spec.beta)
    trace = Trace(
        fingerprint=spec.fingerprint(),
        raw_states={} if spec.record_stride > 0 else None,
    )
    trace.records.append(diagnostics(state))
    _snapshot(trace, state, spec.record_stride)
    for _ in range(spec.max_iters):
        advance(network, state, steps)
        trace.records.append(diagnostics(state))
        _snapshot(trace, state, spec.record_stride)
    return trace


def stopping_metric(state: NetworkState) -> float:
    """Largest distance from any follower to its own leader."""
    return max(
        float(np.linalg.norm(block - state.leader_block[a], axis=1).max())
        for a, block in enumerate(state.follower_blocks)
    )


def run_until(network, spec, threshold: float | None = None) -> RunResult:
    """Run until every follower stays within `threshold` of its leader.

    Reports the first iteration from which the stopping metric remains at or
    below the threshold for a full confirmation window of
    max(tau, tau_intra) + 1 consecutive iterations.  The window guards
    against transient dips: with large delays the leaders stall while their
    delayed inputs still carry old values, followers briefly catch up, and
    the metric can touch the threshold long before the network settles.
    Cap exhaustion (no confirmed crossing within spec.max_iters sweeps) is
    reported through converged=False, not as an error.
    """
    if threshold is None:
        threshold = spec.threshold
    if threshold <= 0:
        raise DomainError(f"threshold must be positive, got {threshold}")
    state = init_state(
        network, sample_initial_values(spec, network.total_nodes),
        spec.tau, spec.tau_intra,
    )
    steps = StepSizes(spec.gamma, spec.beta)
    window = max(spec.tau, spec.tau_intra) + 1
    trace = Trace(
        fingerprint=spec.fingerprint(),
        raw_states={} if spec.record_stride > 0 else None,
    )
    candidate = None
    k = 0
    while True:
        trace.records.append(diagnostics(state))
        _snapshot(trace, state, spec.record_stride)
        if stopping_metric(state) <= threshold:
            if candidate is None:
                candidate = k
            if k - candidate + 1 >= window:
                return RunResult(True, candidate, trace)
        else:
            candidate = None
        if k >= spec.max_iters:
            return RunResult(False, spec.max_iters, trace)
        advance(network, state, steps)
        k += 1
