"""Protocol execution: one linear map per sweep over a single history
buffer, and the run driver, which runs one scenario or a batch of them.

One iteration is one synchronous sweep: every follower mixes with its
neighbours at step size gamma and tracks its own leader, both read
tau_intra iterations ago; every leader holds 1 - beta of its own state and
mixes at step size beta with the other leaders, reading their states
through a uniform delay of tau iterations.  All reads use pre-step values.
States are d-dimensional row vectors, all followers stacked cluster by
cluster and then all leaders, and one buffer keeps the recent iterations
of that stack in consecutive slots, as deep as the longest delay.

A state owns its run: its network and each instance's delays and step
sizes are fixed when it is built, and `advance(state, count)` takes
nothing else.

A batch is several instances of one network with the same d, each with
its own delays, step sizes, initial values and stopping rule.  Their
stacks sit one after the other in the buffer, instance-major: instance b
owns rows b * (N_f + r) up to (b + 1) * (N_f + r), so a batch of one is
the stack of a single run.  `run` and `run_until` are batches of one; the
parameter studies run their rows as one batch.

A sweep costs five numpy calls, whatever the delays, the degrees, the
number of clusters and the number of instances.  Each state builds one sweep
table (`_sweep_table`) from one ELLPACK build (`_ellpack`) of the
block-diagonal matrix of all follower matrices and the leader exchange
matrix, diagonal first, so that one reduction over the slots sums each row
in the per-node order, and repeats it for every instance at the offset of
its rows.  Its ids point into the window of the last iterations, as many
as the longest delay of the batch plus one, so a delayed read is a fixed
offset, the row's own delay back, and are range-checked once, when the
table is built; its weights and steps come broadcast to the full shape of
the terms.  `_sweeps` runs a block of sweeps in one loop on that table;
each sweep gathers every term at once into one stack allocated per call
and writes the new states straight into the buffer slot of the next
iteration.  Every value equals the per-node accumulation bit for bit.

The run driver records four error families at every iteration, the
columns of a `Trace` (defined there): follower disagreement per cluster,
leader disagreement, the leader-follower gap per cluster and per-node
error.  The analysis module bounds each family by a closed-form envelope.
`run`, `run_until` and the rate study record them all; the other
parameter studies record only the columns their rows read, follower
disagreement or none (see _drive).

The run driver sweeps a block of iterations back to back, in one call of
`advance`, and then evaluates the block at once, instance by instance,
reading its states from the buffer (`NetworkState.block_states`): the
stopping metric of every iteration in one reduction, and every error
family (`_diagnostics_block`) by segment sums and maxima over each
cluster's rows (np.add.reduceat, np.maximum.reduceat) and sums over the
state dimension, applied to the stack of the block's states, one layer
per iteration.  A largest distance takes one sqrt, of the largest
squared distance.  No Python object is built per iteration.  A run_until
checks its stopping rule after each block of up to BLOCK_ITERATIONS; a
run, which checks none, makes one block of the whole run (see
_block_length).  An instance that has stopped leaves the batch at the end
of its block.  The test suite checks the updates against the per-node
form, the block-wise stopping rule against a check after every sweep,
both against an independent dense matrix-form evaluation of the same
equations, and every instance of a batch against its run of its own, byte
for byte.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ShapeError
from .topology import _check_delay


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


# Diagnostics are evaluated for a block of consecutive iterations at once:
# up to BLOCK_ITERATIONS of them where a stopping rule is checked after each
# block, the whole run where none is, and never more iterations of the
# network's states than BLOCK_BYTES holds.
BLOCK_ITERATIONS = 64
BLOCK_BYTES = 2 << 20

# Arrays as large as one instance's states over a diagnostics block that
# evaluating the block holds at once: tracemalloc measures at most 4.0 on
# the shapes of the tests (d from 1 to 10, 2 to 200 clusters), from the
# per-row deviations, their squares and the norms of the error families.
_DIAGNOSTICS_STACKS = 5


def _block_length(rows: int, d: int, iterations: int | None = None) -> int:
    """Iterations per diagnostics block for a stack of `rows` nodes of
    dimension d: BLOCK_ITERATIONS, or `iterations` for a run of that many
    iterations (0..max_iters) that checks no stopping rule, and at most as
    many as fit in BLOCK_BYTES."""
    longest = BLOCK_ITERATIONS if iterations is None else iterations
    return max(1, min(longest, BLOCK_BYTES // (8 * rows * d)))


def _history_slots(reach: int, block: int) -> int:
    """Buffer slots for delays that reach back `reach` iterations: a window
    of reach + 1 slots and whole blocks after it, at least as many slots as
    the window, so that the shift (see NetworkState) copies at most one
    slot per sweep on average."""
    window = reach + 1
    return window + -(-window // block) * block


def _held_bytes(nodes: int, d: int, width: int, reach: int, max_iters: int,
                count: int) -> int:
    """Bytes that the run driver holds at its peak for a batch of `count`
    instances of a network of `nodes` rows (N_f + r) of dimension d, no row
    with more than `width` neighbours, delays that reach back `reach`
    iterations and runs of at most max_iters sweeps (see _drive).

    The history buffer, with the blocks of a run or of a run_until,
    whichever needs more slots, is charged twice for a batch of more than
    one instance, because dropping the finished instances copies the others
    into a fresh buffer while the old one is alive.  The sweeps hold the
    sweep table, its ids and its weights (width + 2, M) and (width + 2, M, d)
    and its steps (M, d), over the M rows of all instances; one gather as
    large as the weights; the (M, d) accumulator; and the _ellpack table of
    one instance.  Evaluating an instance's block holds _DIAGNOSTICS_STACKS
    times its states over the longer of the blocks that the instance would
    get alone, which no batch's blocks exceed.  Traces are not charged: a
    run holds K x (3r + 2) x 8 bytes for K recorded iterations, and a batch
    holds that for every instance until it ends."""
    rows = nodes * count
    caps = (None, max_iters + 1)
    history = 8 * d * rows * max(
        _history_slots(reach, _block_length(rows, d, cap)) for cap in caps)
    sweeps = 8 * rows * ((1 + 2 * d) * (width + 2) + 2 * d) + 16 * nodes * (width + 1)
    diagnostics = _DIAGNOSTICS_STACKS * 8 * d * nodes * max(
        _block_length(nodes, d, cap) for cap in caps)
    return min(count, 2) * history + sweeps + diagnostics


class NetworkState:
    """Mutable simulation state at some iteration k, with its history.

    A state holds one or more instances of `network`, which share d and
    each have their own delays and step sizes: delays[b] is the (tau,
    tau_intra) pair of instance b and steps[b] its StepSizes, and tau and
    tau_intra are the longest delays over the instances.  The network and
    the step sizes are fixed when the state is built; only dropping
    instances (_keep) changes which ones the state holds.  init_state builds
    a state of one instance; the run driver stacks several (see _drive).

    One buffer of shape (length, B * (N_f + r), d) holds the history, one
    slot per iteration.  Each slot is instance-major: instance b owns rows
    b * (N_f + r) up to (b + 1) * (N_f + r), its followers, stacked cluster
    by cluster, then its leaders.  Iterations k - reach .. k, reach =
    max(tau, tau_intra), sit in consecutive slots, so the window a sweep
    reads is one slice.  The initial values fill the window before
    iteration 0, which realises the convention that states before
    iteration 0 equal the initial values.  When a sweep finds the buffer
    full, it first copies the window to the front.  The slots after the
    window hold whole blocks, and iteration 0 starts a block right after
    the window, so a copy happens only as a block starts and the
    iterations of one diagnostics block stay in consecutive slots (see
    block_states).

    followers_at(t) and leaders_at(t) read the states of instance 0, t
    iterations ago, t = 0 the current ones.  Both return views into the
    buffer, which later iterations overwrite, so a caller copies what it
    keeps.  owner[i] is the cluster of follower row i and starts[a] the
    first row of cluster a, the same in every instance.
    """

    def __init__(self, network, values, delays, steps, iterations=None):
        """One instance per (N, d) array of initial values in `values`, row
        i the node of global id i, with the delays and the StepSizes of the
        same position; `iterations` sets the block length (see
        _block_length).  Lists of different lengths raise ShapeError, and
        an entry of `steps` that is not a StepSizes raises DomainError."""
        if not len(values) == len(delays) == len(steps):
            raise ShapeError(f"{len(values)} value arrays, {len(delays)} delay pairs "
                             f"and {len(steps)} step sizes do not pair up")
        if not all(isinstance(s, StepSizes) for s in steps):
            raise DomainError(f"steps must be StepSizes, got {list(steps)!r}")
        sizes = [len(c.follower_ids) for c in network.clusters]
        order = ([i for c in network.clusters for i in c.follower_ids]
                 + [c.leader_id for c in network.clusters])
        rows = np.concatenate([v[order] for v in values])
        self.network = network
        self.k = 0
        self.owner = np.repeat(np.arange(len(sizes)), sizes)
        self.starts = np.cumsum([0] + sizes[:-1])
        self._split = sum(sizes)
        self._rows = len(order)                 # N_f + r
        self._set_instances(delays, steps)
        self.block = _block_length(*rows.shape, iterations)
        self._history = np.empty((_history_slots(self._reach, self.block),)
                                 + rows.shape)
        self._slot = self._reach + 1            # the slot of iteration k
        self._history[:self._slot + 1] = rows
        self._table = None      # the sweep table, built on the first sweep
        self._band = None       # the _ellpack table of the network's matrices

    def _set_instances(self, delays, steps):
        self.delays = tuple((int(tau), int(tau_intra)) for tau, tau_intra in delays)
        self.steps = tuple(steps)
        self.tau = max(tau for tau, _ in self.delays)
        self.tau_intra = max(tau_intra for _, tau_intra in self.delays)
        self._reach = max(self.tau, self.tau_intra)

    def _at(self, reach, offset):
        if not (0 <= offset <= reach):
            raise DomainError(f"history offset {offset} outside [0, {reach}]")
        return self._history[self._slot - offset]

    def followers_at(self, offset: int) -> np.ndarray:
        """(N_f, d) view of all followers, offset iterations ago."""
        return self._at(self.tau_intra, offset)[:self._split]

    def leaders_at(self, offset: int) -> np.ndarray:
        """(r, d) view of all leaders, offset iterations ago."""
        return self._at(self._reach, offset)[self._split:self._rows]

    def block_states(self, first: int, member: int = 0) -> tuple:
        """(n, N_f, d) and (n, r, d) stacks of the followers and leaders of
        instance `member` at iterations first..k, one layer per iteration;
        first must start a block and k lie in it.  They are views into the
        buffer, which later iterations overwrite."""
        n = self.k - first + 1
        if first % self.block or not (0 < n <= self.block):
            raise DomainError(f"iterations {first}..{self.k} do not lie in one "
                              f"block of {self.block}")
        layers = self._history[self._slot + 1 - n:self._slot + 1,
                               member * self._rows:(member + 1) * self._rows]
        return layers[:, :self._split], layers[:, self._split:]

    def _keep(self, members) -> None:
        """Keep only the instances at positions `members`, in ascending
        order, with their delays and step sizes: a fresh buffer, as deep as
        their longest delay, takes their window, and the next sweep builds
        their sweep table from the kept _ellpack table (see _sweep_table).
        k must end a block, so that the next iteration starts one right
        after the window, as after init."""
        self._table = None
        old, last, width = self._history, self._slot + 1, self._rows
        self._set_instances([self.delays[b] for b in members],
                            [self.steps[b] for b in members])
        window = self._reach + 1
        self._history = np.empty((_history_slots(self._reach, self.block),
                                  len(members) * width, old.shape[2]))
        for to, b in enumerate(members):
            self._history[:window, to * width:(to + 1) * width] = (
                old[last - window:last, b * width:(b + 1) * width])
        self._slot = window - 1

    def copy(self) -> "NetworkState":
        other = copy.copy(self)
        other._history = self._history.copy()
        return other


@dataclass(eq=False)
class Trace:
    """Error families of one run, one column per family; row k of every
    column is iteration k, from 0.

    follower_disagreement[k, a] is the Frobenius distance of cluster a's
    follower block from its own average, leader_disagreement[k] that of the
    leaders from the leader average, and leader_follower_gap[k, a] the
    distance from cluster a's follower average to its leader.
    cluster_node_error[k, a] is the largest distance from a follower of
    cluster a to the leader average; global_error[k] extends that maximum
    over the leaders as well.  Distances between vectors are Euclidean.
    Columns indexed by a have shape (K, r), the others shape (K,).
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
        """The five family columns, in field order."""
        return (self.follower_disagreement, self.leader_disagreement,
                self.leader_follower_gap, self.cluster_node_error, self.global_error)


@dataclass
class RunResult:
    """Outcome of run_until: converged tells cap exhaustion apart from success.
    trace is the run's Trace, or the columns that a parameter study's
    evaluator records (see _drive)."""

    converged: bool
    iterations: int
    trace: Trace | tuple


# ---------------------------------------------------------------------
# state construction
# ---------------------------------------------------------------------

def sample_initial_values(spec, total_nodes: int) -> np.ndarray:
    """Uniform initial values over [init_low, init_high], one row per node,
    drawn from a generator seeded by (spec.seed, 1)."""
    rng = np.random.default_rng([spec.seed, 1])
    return rng.uniform(spec.init_low, spec.init_high, size=(total_nodes, spec.d))


def init_state(network, initial_values, tau: int, tau_intra: int = 0, *,
               steps: StepSizes) -> NetworkState:
    """A state of one run on `network` with step sizes `steps`: the
    per-node initial values distributed into the history buffer."""
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
    tau, tau_intra = _check_delay("tau", tau), _check_delay("tau_intra", tau_intra)
    return NetworkState(network, [vals], [(tau, tau_intra)], [steps])


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
        i, j = np.nonzero(w)
        off = i != j
        i, j = i[off], j[off]
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


def _sweep_table(state: NetworkState) -> tuple:
    """The table of every sweep of the state's run, as _sweeps runs on it:
    ids (width + 2, M) into the window of iterations k - reach .. k
    flattened to (reach + 1) * M rows, M = B * (N_f + r) the rows of the
    state's B instances, weights (width + 2, M, d) and the step that scales
    each row's mixing sum, (M, d), each row's value repeated over the d
    columns.

    Slots 0..width are the one _ellpack table of blockdiag(W_1 .. W_r, V),
    repeated for every instance at the offset of its rows, and read
    tau_intra iterations ago on a follower row and tau on a leader row,
    with the instance's own delays.  The last slot is the tracking term,
    gamma times the own leader read tau_intra iterations ago for a
    follower and 1 - beta times the own current state for a leader.

    The sweeps gather without bounds checks (see _sweeps), so every id is
    checked here, once, to lie in the window.  The _ellpack table depends
    on the network alone, so the state keeps it for the next table, which
    dropping instances calls for (see NetworkState._keep).
    """
    if state._band is None:
        network = state.network
        state._band = _ellpack([c.follower_weights.entries for c in network.clusters]
                               + [network.leader_weights.entries])
    index, weight = state._band
    split, width, count = state._split, state._rows, len(state.delays)
    m = width * count

    def per_row(pairs):
        """A value for the follower rows and one for the leader rows of
        each instance, spread over its rows."""
        return np.repeat(np.ravel(pairs), (split, width - split) * count)

    own = np.concatenate([split + state.owner, np.arange(split, width)])
    first = np.repeat(np.arange(count) * width, width)     # each row's instance
    lag = state._reach - per_row([(tau_intra, tau) for tau, tau_intra in state.delays])
    own_lag = state._reach - per_row([(tau_intra, 0) for _, tau_intra in state.delays])
    index = np.vstack([np.tile(index, count) + first + lag * m,
                       np.tile(own, count) + first + own_lag * m])
    if index.min() < 0 or index.max() >= (state._reach + 1) * m:
        raise ShapeError(f"sweep table reads outside the window of "
                         f"{state._reach + 1} iterations of {m} rows")
    track = per_row([(s.gamma, 1.0 - s.beta) for s in state.steps])[None, :, None]
    hold = per_row([(1.0 - s.gamma, s.beta) for s in state.steps])[:, None]
    weight = np.concatenate([np.tile(weight, (count, 1)), track])
    d = state._history.shape[2]
    return (index, np.broadcast_to(weight, weight.shape[:2] + (d,)).copy(),
            np.broadcast_to(hold, (m, d)).copy())


def _sweeps(table, history: np.ndarray, slot: int, window: int, count: int) -> int:
    """Run `count` sweeps of a sweep table (see _sweep_table) on a
    (slots, M, d) buffer whose `window` slots up to `slot` hold the window
    that the table's ids point into, and return the slot of the last
    sweep.  A sweep writes, per row, hold * (the sum of every slot of the
    table but the last) + the last slot into the slot after the window,
    after copying the window to the front where the buffer is full.

    One reduction over the outer axis of the C-contiguous stack of mixing
    terms adds the slots one after the other, element by element, so each
    sum is bit-identical to the per-node sum w_ii x_i + sum_j w_ij x_j over
    the neighbour list.  The reduction starts from -0.0, which leaves the
    first term as it is.  A padding term is 0.0 times the row's own
    diagonal read, and a sum is -0.0 only if that read is negative or
    -0.0, so the padding never changes a sum.  (numpy would sum pairwise
    along the slots only for a stack of one or two values, and such a
    table has fewer than eight slots.)  The weights scale the gathered
    terms in place, and a multiply of two operands of one shape is about
    twice as fast as one that broadcasts over d.

    Every sweep gathers into one stack of terms, and one accumulator
    serves every sweep, both allocated once per call, so no sweep
    allocates.  Taking into `out` buffers the result in take's default
    mode, which checks every id on every sweep; mode="clip" writes
    straight into the stack.  Clipping never acts: _sweep_table checks
    once that every id lies in the window, and the window always holds
    (reach + 1) * M rows of the buffer, M and reach those the table was
    built for.
    """
    index, weight, hold = table
    terms = np.empty(weight.shape)
    acc = np.empty(hold.shape)
    multiply, add, reduce = np.multiply, np.add, np.add.reduce
    flat = history.reshape(-1, history.shape[2])
    rows, end = history.shape[1], len(history)
    for _ in range(count):
        slot += 1
        if slot == end:
            history[:window] = history[slot - window:]
            slot = window
        flat[(slot - window) * rows:slot * rows].take(index, 0, terms, "clip")
        multiply(weight, terms, out=terms)
        reduce(terms[:-1], axis=0, initial=-0.0, out=acc)
        multiply(hold, acc, out=acc)
        add(acc, terms[-1], out=history[slot])
    return slot


def advance(state: NetworkState, count: int = 1) -> NetworkState:
    """`count` synchronous sweeps of the state's network, with its step
    sizes: every row updates from pre-step values, and the new states of
    iteration k + 1 go straight into its buffer slot (see _sweeps).

    The state's first sweep builds the sweep table, which every later sweep
    reuses until the state drops instances (see NetworkState._keep).  The
    window is read whole before the new slot is written, which never lies
    inside it.
    """
    count = _check_delay("sweep count", count)
    if state._table is None:
        state._table = _sweep_table(state)
    state._slot = _sweeps(state._table, state._history, state._slot, state._reach + 1,
                          count)
    state.k += count
    return state


# ---------------------------------------------------------------------
# error families
# ---------------------------------------------------------------------

def _squares(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every vector along the last axis, bit for
    bit np.add.reduce(x * x, axis=-1).

    numpy adds fewer than eight values left to right, so for d <= 7 the
    d slices are added one after the other, which is several times faster
    than numpy's reduction over a short last axis.  From eight values on,
    numpy sums pairwise, so longer vectors keep the reduction.
    """
    squares = x * x
    if x.shape[-1] > 7:
        return np.add.reduce(squares, axis=-1)
    total = squares[..., 0]
    for i in range(1, x.shape[-1]):
        total = total + squares[..., i]
    return total


def _follower_disagreement(followers, starts, owner) -> tuple:
    """The follower averages of each cluster, (n, r, d), and the follower
    disagreement, (n, r), at each of n iterations, from an (n, N_f, d)
    stack laid out as in _diagnostics_block."""
    counts = np.diff(starts, append=followers.shape[1])[:, None]
    avg = np.add.reduceat(followers, starts, axis=1) / counts
    spread = _squares(followers - avg[:, owner])
    return avg, np.sqrt(np.add.reduceat(spread, starts, axis=1))


def _diagnostics_block(followers, leaders, starts, owner) -> tuple:
    """Every error family at each of n iterations at once.

    followers is an (n, N_f, d) stack of the follower rows of n iterations,
    cluster a occupying rows starts[a] up to starts[a + 1] and owner[i]
    naming the cluster of row i; leaders is the matching (n, r, d) stack.
    Returns the columns (follower disagreement, leader disagreement,
    leader-follower gap, cluster node error, global error), shaped (n, r),
    (n,), (n, r), (n, r) and (n,).  Per-cluster sums are segment
    reductions over the row axis and norms reductions over d, so no value
    depends on n or on the other iterations of the stack.  A largest
    distance is the sqrt of the largest squared distance: sqrt is monotone
    and correctly rounded, so that equals the largest of the distances bit
    for bit, with one sqrt per cluster in place of one per row.
    """
    avg, follower_dis = _follower_disagreement(followers, starts, owner)
    gap = np.sqrt(_squares(avg - leaders))
    lead_avg = np.add.reduce(leaders, axis=1, keepdims=True) / leaders.shape[1]
    node_err = np.sqrt(np.maximum.reduceat(_squares(followers - lead_avg), starts,
                                           axis=1))
    leader_sq = _squares(leaders - lead_avg)
    leader_dis = np.sqrt(np.add.reduce(leader_sq, axis=1))
    global_err = np.maximum(node_err.max(axis=1), np.sqrt(leader_sq.max(axis=1)))
    return follower_dis, leader_dis, gap, node_err, global_err


def _stopping_block(followers, leaders, owner) -> np.ndarray:
    """Stopping metric of each of n iterations, the largest distance from
    any follower to its own leader, from their (n, N_f, d) follower and
    (n, r, d) leader stacks: one sqrt per iteration, of the largest squared
    distance (see _diagnostics_block)."""
    return np.sqrt(_squares(followers - leaders.take(owner, axis=1)).max(axis=1))


# ---------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------

def _drive(network, specs, until: bool, evaluate=None) -> list:
    """Run `specs`, which share `network` and d, as one batch: record
    diagnostics of each at every iteration from 0 and sweep until its
    max_iters; with `until`, stop at a confirmed settling iteration (see
    run_until).  Returns one RunResult per spec, in order.

    `evaluate(followers, leaders, starts, owner)` maps the (n, N_f, d) and
    (n, r, d) stacks of a block (see _diagnostics_block) to the tuple of
    columns to record, one row per iteration.  Without it the driver
    records every error family, by _diagnostics_block, and each result
    holds a Trace; with it each result holds the tuple of its columns over
    the run.  A parameter study passes one that returns only the columns
    its rows read, or none.

    The instances are the stacked rows of one state, so one sweep advances
    them all.  The sweeps of a block of state.block iterations run back to
    back, in one call of advance; without `until` nothing is checked
    between blocks, so one block spans the longest max_iters as far as
    BLOCK_BYTES allows.  Once the block's last iteration is in the buffer,
    or the longest max_iters of the instances still recording is, the
    driver evaluates the block instance by instance: with `until`, the
    stopping metric of every iteration in one reduction, scanned for the
    confirmation window (a candidate carries over from block to block);
    then the columns, cut at the iteration where the instance's run ends.
    An instance that ends inside a block has swept up to the block's end,
    at most state.block - 1 iterations more than it records, and leaves
    the batch at that block boundary: the rows of the others move to a
    fresh buffer.  The results hold no state, so the extra sweeps change
    nothing that the caller sees, and each instance's columns equal those
    of a run of its own.
    """
    record = _diagnostics_block if evaluate is None else evaluate
    state = NetworkState(network, [sample_initial_values(s, network.total_nodes)
                                   for s in specs],
                         [(s.tau, s.tau_intra) for s in specs],
                         [StepSizes(s.gamma, s.beta) for s in specs],
                         None if until else max(s.max_iters for s in specs) + 1)
    live = list(range(len(specs)))      # the spec of each instance of the state
    blocks = [[] for _ in specs]
    candidates = [None] * len(specs)
    results = [None] * len(specs)
    first = 0              # first iteration of the block being filled
    while True:
        end = min(first + state.block - 1, max(specs[b].max_iters for b in live))
        if state.k < end:
            advance(state, end - state.k)
        keep = []
        for member, b in enumerate(live):
            spec, candidate = specs[b], candidates[b]
            last = min(end, spec.max_iters)
            followers, leaders = (layers[:last - first + 1]
                                  for layers in state.block_states(first, member))
            outcome = None
            if until:
                window = max(spec.tau, spec.tau_intra) + 1
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
                candidates[b] = candidate
            if outcome is None and last == spec.max_iters:
                outcome = (False, spec.max_iters)
            n = last - first + 1
            blocks[b].append(record(followers[:n], leaders[:n], state.starts,
                                    state.owner))
            if outcome is None:
                keep.append(member)
                continue
            columns = tuple(np.concatenate(c) for c in zip(*blocks[b]))
            trace = Trace(spec.fingerprint(), *columns) if evaluate is None else columns
            results[b], blocks[b] = RunResult(*outcome, trace), None
        if not keep:
            return results
        if len(keep) < len(live):
            state._keep(keep)
            live = [live[member] for member in keep]
        first = end + 1


def run(network, spec) -> Trace:
    """Execute spec.max_iters sweeps and record diagnostics every iteration."""
    return _drive(network, [spec], until=False)[0].trace


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
    metric of every iteration of the block, so the outcome and the trace
    equal those of a check after every sweep; the sweeps the driver
    runs past the stop, to the end of its block, are not visible.
    """
    return _drive(network, [spec], until=True)[0]
