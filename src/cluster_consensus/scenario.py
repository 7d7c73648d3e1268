"""Scenario descriptions: everything needed to reproduce a run exactly.

A ScenarioSpec pins the topology family and its parameters, the step sizes,
the delays, the initial-value interval, the seed, and the stopping rule.
There is no hidden global state: two runs from equal specs produce
byte-identical artifacts.  Specs round-trip through JSON documents whose
unknown keys are rejected rather than ignored.  Every value is checked for
its type before anything is coerced, and a spec whose run would need more
than MAX_PEAK_BYTES is rejected before anything is built.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass
from math import isfinite
from numbers import Integral, Real

from .engine import _held_bytes
from .errors import ConfigError

TOPOLOGY_FAMILIES = ("ring", "geometric", "explicit")
LEADER_GRAPHS = ("line", "complete", "explicit")

_REQUIRED_KEYS = ("family", "cluster_sizes", "gamma", "beta", "tau", "seed", "max_iters")
_INT_FIELDS = ("tau", "tau_intra", "seed", "max_iters", "d")
_REAL_FIELDS = ("gamma", "beta", "init_low", "init_high", "threshold")

# Largest estimated peak memory of a run (see _peak_bytes) that a spec may
# describe; larger specs fail with ConfigError before anything is built.
MAX_PEAK_BYTES = 2 << 30

# Bytes per node pair that building and solving one cluster (or the leader
# graph) holds at its peak, by the kind of its graph: the dense weights and
# the copy that validates them, the one (n, n) buffer of the spectral solve
# and the copy LAPACK makes of it, which tracemalloc does not see (8), and
# for geometric, explicit and complete graphs the edge arrays and the
# neighbour lists of the connectivity search; a geometric graph adds its
# two (n, n) coordinate differences and the distance test.  On 64-bit
# CPython 3.11 with numpy 2.4, tracemalloc measures on clusters of 1,000
# followers a build peak of 19.8 and a spectral peak of 8.1 on a ring, and
# 56.0 and 8.1 on a complete geometric cluster (radius 1.5), the worst case
# of the dense kinds (a complete explicit cluster builds at 28.5).  Each
# charge is build + spectral + 8, with a margin of about 10%.
_BYTES_PER_PAIR = {"ring": 40, "line": 40,
                   "geometric": 80, "explicit": 80, "complete": 80}

# Keys that earlier versions wrote, each with the test a value must pass to be
# discarded: the one placement was "first", the stride snapshot interval
# was a non-negative integer.
_RETIRED_KEYS = {
    "leader_placement": (lambda v: v == "first",
                         "only 'first' (leader at each block start) is supported"),
    "record_stride": (lambda v: _is_int(v) and v >= 0,
                      "must be a non-negative integer"),
}


def _is_int(v) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A number that converts to a float: no bool, and no integer beyond
    the float range."""
    return (isinstance(v, Real) and not isinstance(v, bool)
            and not (isinstance(v, Integral) and abs(v) > sys.float_info.max))


def _is_edge_list(edges) -> bool:
    return isinstance(edges, (list, tuple)) and all(
        isinstance(e, (list, tuple)) and len(e) == 2 and all(_is_int(i) for i in e)
        for e in edges)


def _edges_tuple(edges):
    return tuple((int(i), int(j)) for i, j in edges)


@dataclass(frozen=True)
class ScenarioSpec:
    """Full description of one simulation scenario.

    cluster_sizes counts every node in a cluster, leader included; a cluster
    of size s has s - 1 followers.  Leaders sit at the first global id of
    each cluster block.  tau is the inter-leader delay, tau_intra an
    optional uniform delay on the follower update's reads.
    """

    family: str
    cluster_sizes: tuple
    gamma: float
    beta: float
    tau: int
    seed: int
    max_iters: int
    radius: float | None = None
    cluster_edges: tuple | None = None
    leader_graph: str = "line"
    leader_edges: tuple | None = None
    tau_intra: int = 0
    d: int = 1
    init_low: float = -4.0
    init_high: float = 4.0
    threshold: float = 1e-3

    def __post_init__(self):
        self._validate()
        # normalise every given value so equal specs fingerprint identically
        def normalise(name, kind):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, kind(getattr(self, name)))

        normalise("cluster_sizes", lambda sizes: tuple(map(int, sizes)))
        for name in _INT_FIELDS:
            normalise(name, int)
        for name in _REAL_FIELDS + ("radius",):
            normalise(name, float)
        normalise("cluster_edges", lambda lists: tuple(map(_edges_tuple, lists)))
        normalise("leader_edges", _edges_tuple)

    def _validate(self):
        def bad(name, why):
            raise ConfigError(f"invalid {name}: {why}")

        if self.family not in TOPOLOGY_FAMILIES:
            bad("family", f"{self.family!r} is not one of {TOPOLOGY_FAMILIES}")
        sizes = self.cluster_sizes
        if not (isinstance(sizes, (list, tuple)) and all(_is_int(s) for s in sizes)):
            bad("cluster_sizes", f"must be a list of integers, got {sizes!r}")
        if not sizes:
            bad("cluster_sizes", "must name at least one cluster")
        if any(s < 2 for s in sizes):
            bad("cluster_sizes", f"every cluster needs a leader and at least one "
                                 f"follower, got {sizes}")
        for name in _REAL_FIELDS + (() if self.radius is None else ("radius",)):
            if not _is_real(getattr(self, name)):
                bad(name, f"must be a number within the float range, "
                          f"got {getattr(self, name)!r}")
        for name in _INT_FIELDS:
            value, least = getattr(self, name), 1 if name == "d" else 0
            if not (_is_int(value) and value >= least):
                bad(name, f"must be an integer of at least {least}, got {value!r}")
        if not (0.0 < self.gamma < 1.0):
            bad("gamma", f"must lie in (0, 1), got {self.gamma}")
        if not (0.0 < self.beta <= 1.0):
            bad("beta", f"must lie in (0, 1], got {self.beta}")
        low, high = float(self.init_low), float(self.init_high)
        if not (low < high and isfinite(high - low)):
            bad("init_low/init_high", f"need init_low < init_high a finite distance "
                                      f"apart, got [{low}, {high}]")
        if not (self.threshold > 0):
            bad("threshold", f"must be positive, got {self.threshold}")
        if self.family == "geometric":
            if self.radius is None or not (self.radius > 0):
                bad("radius", "geometric topology needs a positive radius")
        if self.cluster_edges is not None and not (
                isinstance(self.cluster_edges, (list, tuple))
                and all(_is_edge_list(e) for e in self.cluster_edges)):
            bad("cluster_edges", "must be one list of integer pairs per cluster")
        if self.family == "explicit":
            if self.cluster_edges is None:
                bad("cluster_edges", "explicit topology needs per-cluster edge lists")
            if len(self.cluster_edges) != len(sizes):
                bad("cluster_edges",
                    f"got {len(self.cluster_edges)} edge lists for "
                    f"{len(sizes)} clusters")
        if self.leader_edges is not None and not _is_edge_list(self.leader_edges):
            bad("leader_edges", "must be a list of integer pairs")
        if self.leader_graph not in LEADER_GRAPHS:
            bad("leader_graph", f"{self.leader_graph!r} is not one of {LEADER_GRAPHS}")
        if self.leader_graph == "explicit" and self.leader_edges is None:
            bad("leader_edges", "explicit leader graph needs an edge list")
        peak = _peak_bytes(self)
        if peak > MAX_PEAK_BYTES:
            raise ConfigError(f"scenario too large: a run is estimated to need "
                              f"{peak / 2**30:.3g} GiB at its peak, above the "
                              f"limit of {MAX_PEAK_BYTES / 2**30:g} GiB")
        # Every sum of squares that the diagnostics and the bound parameters
        # take is at most m * m * total_nodes * d, since every state stays in
        # the interval; d and the sizes are bounded by now.
        m = max(abs(low), abs(high), high - low)
        if not isfinite(m * m * self.total_nodes * self.d):
            bad("init_low/init_high", f"squared norms of {self.total_nodes} nodes of "
                                      f"dimension {self.d} with values in [{low}, "
                                      f"{high}] overflow a float")

    # -- derived ------------------------------------------------------

    @property
    def total_nodes(self) -> int:
        return sum(self.cluster_sizes)

    @property
    def cluster_count(self) -> int:
        return len(self.cluster_sizes)

    def replace(self, **changes) -> "ScenarioSpec":
        return dataclasses.replace(self, **changes)

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = _untuple(v)
            out[f.name] = v
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        if not isinstance(data, dict):
            raise ConfigError(f"configuration must be a JSON object, "
                              f"got {type(data).__name__}")
        data = dict(data)
        for key, (accepted, why) in _RETIRED_KEYS.items():
            if key in data and not accepted(value := data.pop(key)):
                raise ConfigError(f"invalid {key}: {why}, got {value!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
        missing = sorted(k for k in _REQUIRED_KEYS if k not in data)
        if missing:
            raise ConfigError(f"missing configuration keys: {', '.join(missing)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def fingerprint(self) -> str:
        """Stable digest of the canonical JSON form of this spec."""
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _peak_bytes(*specs) -> int:
    """Estimated peak memory of building the network of specs[0] and
    running `specs`, which share it and d, as one batch (see engine._drive),
    in bytes: the _BYTES_PER_PAIR of the cluster family for every node pair
    of each cluster, that of the leader graph for every pair of leaders,
    and what the run driver holds (engine._held_bytes), with a width that
    bounds every row's degree."""
    spec = specs[0]
    followers = [s - 1 for s in spec.cluster_sizes]
    r = len(followers)
    width = max(2 if spec.family == "ring" else max(followers) - 1,
                min(2, r - 1) if spec.leader_graph == "line" else r - 1)
    setup = (_BYTES_PER_PAIR[spec.family] * sum(n * n for n in followers)
             + _BYTES_PER_PAIR[spec.leader_graph] * r * r)
    reach = max(max(s.tau, s.tau_intra) for s in specs)
    return setup + _held_bytes(
        sum(followers) + r, spec.d, width, reach, max(s.max_iters for s in specs),
        len(specs))


def _untuple(v):
    return [_untuple(x) if isinstance(x, tuple) else x for x in v]


def parse_config_text(text: str) -> ScenarioSpec:
    """Parse a JSON configuration document into a validated spec.

    Malformed JSON is reported with its line and column, and JSON nested
    deeper than the parser can recurse as too deep; unknown keys and
    out-of-range values raise ConfigError naming the offender.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except RecursionError as e:
        raise ConfigError(f"JSON nests too deeply: {e}") from e
    return ScenarioSpec.from_dict(data)
