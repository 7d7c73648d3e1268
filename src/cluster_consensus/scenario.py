"""Scenario descriptions: everything needed to reproduce a run exactly.

A ScenarioSpec pins the topology family and its parameters, the step sizes,
the delays, the initial-value interval, the seed, and the stopping rule.
There is no hidden global state: two runs from equal specs produce
byte-identical artifacts.  Specs round-trip through JSON documents whose
unknown keys are rejected rather than ignored.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from .errors import ConfigError

TOPOLOGY_FAMILIES = ("ring", "geometric", "explicit")
LEADER_GRAPHS = ("line", "complete", "explicit")

_REQUIRED_KEYS = ("family", "cluster_sizes", "gamma", "beta", "tau", "seed", "max_iters")


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
    record_stride: int = 0

    def __post_init__(self):
        object.__setattr__(self, "cluster_sizes",
                           tuple(int(s) for s in self.cluster_sizes))
        self._validate()
        # normalise numeric fields so equal specs fingerprint identically
        for name in ("gamma", "beta", "init_low", "init_high", "threshold"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.radius is not None:
            object.__setattr__(self, "radius", float(self.radius))
        if self.cluster_edges is not None:
            object.__setattr__(
                self, "cluster_edges",
                tuple(_edges_tuple(e) for e in self.cluster_edges),
            )
        if self.leader_edges is not None:
            object.__setattr__(self, "leader_edges", _edges_tuple(self.leader_edges))

    def _validate(self):
        def bad(name, why):
            raise ConfigError(f"invalid {name}: {why}")

        if self.family not in TOPOLOGY_FAMILIES:
            bad("family", f"{self.family!r} is not one of {TOPOLOGY_FAMILIES}")
        if not self.cluster_sizes:
            bad("cluster_sizes", "must name at least one cluster")
        if any(s < 2 for s in self.cluster_sizes):
            bad("cluster_sizes", f"every cluster needs a leader and at least one "
                                 f"follower, got {self.cluster_sizes}")
        if not (isinstance(self.gamma, (int, float)) and 0.0 < self.gamma < 1.0):
            bad("gamma", f"must lie in (0, 1), got {self.gamma}")
        if not (isinstance(self.beta, (int, float)) and 0.0 < self.beta <= 1.0):
            bad("beta", f"must lie in (0, 1], got {self.beta}")
        if not (isinstance(self.tau, int) and self.tau >= 0):
            bad("tau", f"must be a non-negative integer, got {self.tau!r}")
        if not (isinstance(self.tau_intra, int) and self.tau_intra >= 0):
            bad("tau_intra", f"must be a non-negative integer, got {self.tau_intra!r}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            bad("seed", f"must be a non-negative integer, got {self.seed!r}")
        if not (isinstance(self.max_iters, int) and self.max_iters >= 0):
            bad("max_iters", f"must be a non-negative integer, got {self.max_iters!r}")
        if not (isinstance(self.d, int) and self.d >= 1):
            bad("d", f"state dimension must be a positive integer, got {self.d!r}")
        if not (self.init_low < self.init_high):
            bad("init_low/init_high",
                f"need init_low < init_high, got [{self.init_low}, {self.init_high}]")
        if not (self.threshold > 0):
            bad("threshold", f"must be positive, got {self.threshold}")
        if not (isinstance(self.record_stride, int) and self.record_stride >= 0):
            bad("record_stride", f"must be a non-negative integer, "
                                 f"got {self.record_stride!r}")
        if self.family == "geometric":
            if self.radius is None or not (self.radius > 0):
                bad("radius", "geometric topology needs a positive radius")
        if self.family == "explicit":
            if self.cluster_edges is None:
                bad("cluster_edges", "explicit topology needs per-cluster edge lists")
            if len(self.cluster_edges) != len(self.cluster_sizes):
                bad("cluster_edges",
                    f"got {len(self.cluster_edges)} edge lists for "
                    f"{len(self.cluster_sizes)} clusters")
        if self.leader_graph not in LEADER_GRAPHS:
            bad("leader_graph", f"{self.leader_graph!r} is not one of {LEADER_GRAPHS}")
        if self.leader_graph == "explicit" and self.leader_edges is None:
            bad("leader_edges", "explicit leader graph needs an edge list")

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
        # earlier versions wrote leader_placement, whose one value was "first"
        data = dict(data)
        placement = data.pop("leader_placement", "first")
        if placement != "first":
            raise ConfigError(f"invalid leader_placement: only 'first' (leader at "
                              f"each block start) is supported, got {placement!r}")
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


def _untuple(v):
    return [_untuple(x) if isinstance(x, tuple) else x for x in v]


def parse_config_text(text: str) -> ScenarioSpec:
    """Parse a JSON configuration document into a validated spec.

    Malformed JSON is reported with its line and column; unknown keys and
    out-of-range values raise ConfigError naming the offender.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    return ScenarioSpec.from_dict(data)
