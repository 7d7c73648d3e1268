"""Protocol execution: one linear map per sweep over a single history
buffer, and the run driver.

One iteration is one synchronous sweep: every follower mixes with its
neighbours at step size gamma and tracks its own leader, both read
tau_intra iterations ago; every leader holds 1 - beta of its own state and
mixes at step size beta with the other leaders, reading their states
through a uniform delay of tau iterations.  All reads use pre-step values.
States are d-dimensional row vectors, all followers stacked cluster by
cluster and then all leaders, and one buffer keeps the recent iterations
of that stack in consecutive slots, as deep as the longest delay.

A sweep costs five numpy calls, whatever the delays, the degrees and the
number of clusters.  Each run builds one sweep table (`_sweep_table`) from
one ELLPACK build (`_ellpack`) of the block-diagonal matrix of all follower
matrices and the leader exchange matrix, diagonal first, so that one
reduction over the slots sums each row in the per-node order.  Its ids
point into the window of the last max(tau, tau_intra) + 1 iterations, so a
delayed read is a fixed offset; `_sweep` gathers every term at once and
writes the new states straight into the buffer slot of the next iteration.
Every value equals the per-node accumulation bit for bit.

The run driver sweeps a block of iterations back to back and then
evaluates the block at once, reading its states straight from the buffer
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


def _history_layout(rows: int, d: int, reach: int) -> tuple:
    """Block length and number of buffer slots for `rows` nodes of
    dimension d whose delays reach back `reach` iterations: a window of
    reach + 1 slots and whole blocks after it, at least as many slots as
    the window, so that the shift (see NetworkState) copies at most one
    slot per sweep on average."""
    block = max(1, min(BLOCK_ITERATIONS, BLOCK_BYTES // (8 * rows * d)))
    window = reach + 1
    return block, window + -(-window // block) * block


class NetworkState:
    """Mutable simulation state at some iteration k, with its history.

    One buffer of shape (length, N_f + r, d) holds the history, one slot
    per iteration: the followers, stacked cluster by cluster, then the
    leaders.  Iterations k - reach .. k, reach = max(tau, tau_intra), sit
    in consecutive slots, so the window a sweep reads is one slice.  The
    initial values fill the window before iteration 0, which realises the
    convention that states before iteration 0 equal the initial values.
    When a sweep finds the buffer full, it first copies the window to the
    front.  The slots after the window hold whole blocks, and iteration 0
    starts a block right after the window, so a copy happens only as a
    block starts and the iterations of one diagnostics block stay in
    consecutive slots (see block_states).

    followers_at(t) and leaders_at(t) read the states of t iterations ago,
    t = 0 the current ones.  Both return views into the buffer, which
    later iterations overwrite, so a caller copies what it keeps.
    owner[i] is the cluster of follower row i and starts[a] the first row
    of cluster a.
    """

    def __init__(self, followers, leaders, cluster_sizes, tau, tau_intra):
        self.tau = int(tau)
        self.tau_intra = int(tau_intra)
        self.k = 0
        self.owner = np.repeat(np.arange(len(cluster_sizes)), cluster_sizes)
        self.starts = np.cumsum([0] + list(cluster_sizes[:-1]))
        self._split = len(followers)
        self._reach = max(self.tau, self.tau_intra)
        rows = np.concatenate([followers, leaders])
        self.block, length = _history_layout(*rows.shape, self._reach)
        self._slot = self._reach + 1            # the slot of iteration k
        self._history = np.empty((length,) + rows.shape)
        self._history[:self._slot + 1] = rows
        self._tables = None                     # (network, steps, sweep table)

    def _at(self, reach, offset):
        if not (0 <= offset <= reach):
            raise DomainError(f"history offset {offset} outside [0, {reach}]")
        return self._history[self._slot - offset]

    def followers_at(self, offset: int) -> np.ndarray:
        """(N_f, d) view of all followers, offset iterations ago."""
        return self._at(self.tau_intra, offset)[:self._split]

    def leaders_at(self, offset: int) -> np.ndarray:
        """(r, d) view of all leaders, offset iterations ago."""
        return self._at(self._reach, offset)[self._split:]

    def block_states(self, first: int) -> tuple:
        """(n, N_f, d) and (n, r, d) views of the followers and leaders of
        iterations first..k, one layer per iteration; first must start a
        block and k lie in it."""
        n = self.k - first + 1
        if first % self.block or not (0 < n <= self.block):
            raise DomainError(f"iterations {first}..{self.k} do not lie in one "
                              f"block of {self.block}")
        layers = self._history[self._slot + 1 - n:self._slot + 1]
        return layers[:, :self._split], layers[:, self._split:]

    def copy(self) -> "NetworkState":
        other = copy.copy(self)
        other._history = self._history.copy()
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
    """Distribute per-node initial values into the history buffer."""
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

def _ellpack(blocks) -> tuple:
    """Padded neighbour table in ELLPACK form (Bell & Garland, SC'09) of the
    block-diagonal matrix with the given square blocks.

    Returns the ids (width + 1, n) and the weights (width + 1, n, 1), where
    n is the total size and width the largest row degree.  Slot 0 of row i
    holds i itself with weight w_ii; slot s >= 1 holds the s-th neighbour
    of i in ascending order, ids shifted by the offset of i's block.  Rows
    with fewer neighbours are padded with their own id i and weight 0.0.
    """
    rows, cols, values = [], [], []
    offset = 0
    for w in blocks:
        off = w.copy()
        np.fill_diagonal(off, 0.0)
        i, j = np.nonzero(off)
        rows.append(i + offset)
        cols.append(j + offset)
        values.append(w[i, j])
        offset += len(w)
    rows, cols, values = map(np.concatenate, (rows, cols, values))
    counts = np.bincount(rows, minlength=offset)
    width = int(counts.max()) if rows.size else 0
    slots = 1 + np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    index = np.tile(np.arange(offset), (width + 1, 1))
    weight = np.zeros((width + 1, offset, 1))
    weight[0, :, 0] = np.concatenate([np.diagonal(w) for w in blocks])
    index[slots, rows] = cols
    weight[slots, rows, 0] = values
    return index, weight


def _sweep_table(network, state: NetworkState, steps: StepSizes) -> tuple:
    """The table of every sweep of a run: ids (width + 2, N) into the
    window of iterations k - reach .. k flattened to (reach + 1) * N rows,
    weights (width + 2, N, 1) and the step that scales each row's mixing
    sum, (N, 1).

    Slots 0..width are the one _ellpack table of blockdiag(W_1 .. W_r, V),
    read tau_intra iterations ago on a follower row and tau on a leader
    row.  The last slot is the tracking term, gamma times the own leader
    read tau_intra iterations ago for a follower and 1 - beta times the own
    current state for a leader.
    """
    index, weight = _ellpack([c.follower_weights.entries for c in network.clusters]
                             + [network.leader_weights.entries])
    split, reach, n = state._split, state._reach, index.shape[1]
    parts = (split, n - split)                  # follower rows, leader rows
    own = np.concatenate([split + state.owner, np.arange(split, n)])
    index = np.vstack([
        index + (reach - np.repeat([state.tau_intra, state.tau], parts)) * n,
        own + (reach - np.repeat([state.tau_intra, 0], parts)) * n,
    ])
    track = np.repeat([steps.gamma, 1.0 - steps.beta], parts)[None, :, None]
    hold = np.repeat([1.0 - steps.gamma, steps.beta], parts)[:, None]
    return index, np.concatenate([weight, track]), hold


def _sweep(table, x: np.ndarray, out=None) -> np.ndarray:
    """Apply a sweep table to an (M, d) stack of row states:
    hold * (the sum of every slot but the last) + the last slot, per row.

    One reduction over the outer axis of the C-contiguous stack of mixing
    terms adds the slots one after the other, element by element, so each
    sum is bit-identical to the per-node sum w_ii x_i + sum_j w_ij x_j over
    the neighbour list.  The reduction starts from -0.0, which leaves the
    first term as it is.  A padding term is 0.0 times the row's own
    diagonal read, and a sum is -0.0 only if that read is negative or
    -0.0, so the padding never changes a sum.  (numpy would sum pairwise
    along the slots only for a stack of one or two values, and such a
    table has fewer than eight slots.)
    """
    index, weight, hold = table
    terms = weight * x.take(index, axis=0)
    return np.add(hold * np.add.reduce(terms[:-1], axis=0, initial=-0.0), terms[-1],
                  out=out)


def advance(network, state: NetworkState, steps: StepSizes) -> NetworkState:
    """One synchronous sweep: every row updates from pre-step values, and
    the new states go straight into the buffer slot of iteration k + 1.

    The first sweep with a given network and step sizes builds the sweep
    table, which every later sweep reuses.  The window is read whole before
    the new slot is written, which never lies inside it.
    """
    cached = state._tables
    if cached is None or cached[0] is not network or cached[1] is not steps:
        cached = state._tables = (network, steps,
                                  _sweep_table(network, state, steps))
    history, slot, window = state._history, state._slot + 1, state._reach + 1
    if slot == len(history):
        history[:window] = history[slot - window:]
        slot = window
    rows = history[slot - window:slot].reshape(-1, history.shape[2])
    _sweep(cached[2], rows, out=history[slot])
    state._slot = slot
    state.k += 1
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
    the block's last iteration is in the buffer, or spec.max_iters is, the
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
