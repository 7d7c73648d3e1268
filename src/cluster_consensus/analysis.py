"""Closed-form convergence bounds and their verification.

A run records four error families (see engine.Trace): per-cluster
follower disagreement, leader disagreement, the per-cluster gap between
follower average and leader, and per-node distance from the leader
average.  Each family has a closed-form envelope:

    follower disagreement:  ((1 - gamma) * sigma_a)^k * ||X_a(0)||
    leader disagreement:    2 * eta^k * ||X_L(0)||
    leader-follower gap:    (1 - gamma)^k * gap_a(0) + 2 * P * beta / gamma
    per-node error:         sum of the three above

with eta = 1 - beta + delta_c * beta / (1 - beta)^tau.  The leader envelope
contracts exactly when beta < beta_max = 1 - delta_c^(1/tau); at beta_max
the rate eta equals one.  Matrix norms are Frobenius, vector norms
Euclidean.

The envelopes are evaluated as one table over all recorded iterations
(`envelopes`).  A verification report keeps one summary per family plus
only the comparisons that failed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from numbers import Integral

import numpy as np

from .engine import sample_initial_values
from .errors import ConsistencyError, DomainError
from .topology import spectral_summary

VERIFY_SLACK = 1e-9

BOUND_FAMILIES = ("follower_disagreement", "leader_disagreement",
                  "leader_follower_gap", "node_error")


# ---------------------------------------------------------------------
# bound parameters
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class BoundParams:
    """Everything the closed-form envelopes need about one run.

    The leader and node-error envelopes require an admissible beta
    (0 < beta < beta_max); the follower families additionally require the
    run to use no intra-cluster delay, since their derivation reads
    neighbour states undelayed.
    """

    sigma_per_cluster: tuple
    delta_c: float
    beta_max: float
    tau: int
    tau_intra: int
    gamma: float
    beta: float
    eta: float | None
    beta_admissible: bool
    p_max: float
    follower_init_norms: tuple
    leader_init_norm: float
    initial_gaps: tuple
    fingerprint: str

    @property
    def leader_applicable(self) -> bool:
        return self.beta_admissible     # beta < beta_max <= 1, so eta is set

    @property
    def follower_applicable(self) -> bool:
        return self.tau_intra == 0


def bound_params(network, spec) -> BoundParams:
    """Assemble bound parameters for the run that `spec` describes.

    Recomputes the seeded initial values, so the result matches the traces
    produced by the run drivers for the same spec.
    """
    summary = spectral_summary(network, spec.tau)
    vals = sample_initial_values(spec, network.total_nodes)
    blocks = [vals[list(c.follower_ids)] for c in network.clusters]
    leaders = np.stack([vals[c.leader_id] for c in network.clusters])
    return BoundParams(
        sigma_per_cluster=summary.sigma_per_cluster,
        delta_c=summary.delta_c,
        beta_max=summary.beta_max,
        tau=spec.tau,
        tau_intra=spec.tau_intra,
        gamma=spec.gamma,
        beta=spec.beta,
        eta=summary.rate(spec.beta),
        beta_admissible=summary.admits(spec.beta),
        p_max=float(np.linalg.norm(vals, axis=1).max()),
        follower_init_norms=tuple(float(np.linalg.norm(b)) for b in blocks),
        leader_init_norm=float(np.linalg.norm(leaders)),
        initial_gaps=tuple(
            float(np.linalg.norm(b.mean(axis=0) - leaders[a]))
            for a, b in enumerate(blocks)
        ),
        fingerprint=spec.fingerprint(),
    )


# ---------------------------------------------------------------------
# closed-form envelopes
# ---------------------------------------------------------------------

def _powers(q: float, count: int) -> np.ndarray:
    """q ** k for k = 0 .. count - 1, each Python's float ** int, which
    np.power does not always match to the last bit."""
    return np.array(list(map(q.__pow__, range(count))), float)


def envelopes(params: BoundParams, count: int) -> tuple:
    """Every applicable envelope at iterations 0..count-1.

    Returns (follower, leader, gap, node): arrays of shape (count, r),
    (count,), (count, r) and (count, r), None for a family whose hypotheses
    the run violates (beta outside (0, beta_max) for the leader and node
    families, intra-cluster delay for the follower families).
    """
    if not (isinstance(count, Integral) and count >= 0):
        raise DomainError(f"iteration count must be a non-negative integer, "
                          f"got {count!r}")
    r = len(params.sigma_per_cluster)
    follower = leader = gap = node = None
    if params.follower_applicable:
        follower = np.empty((count, r))
        for a, s in enumerate(params.sigma_per_cluster):
            follower[:, a] = _powers((1.0 - params.gamma) * s, count)
        follower *= np.array(params.follower_init_norms)
        residual = 2.0 * params.p_max * params.beta / params.gamma
        gap = (_powers(1.0 - params.gamma, count)[:, None] * np.array(params.initial_gaps)
               + residual)
    if params.leader_applicable:
        leader = 2.0 * _powers(params.eta, count) * params.leader_init_norm
    if follower is not None and leader is not None:
        node = follower + leader[:, None] + gap
    return follower, leader, gap, node


# ---------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySummary:
    applicable: bool
    checked: int
    failures: int
    worst_margin: float | None     # max(empirical - theoretical); <= slack if ok
    first_violation_k: int | None

    @property
    def ok(self) -> bool:
        return self.applicable and self.failures == 0


@dataclass(frozen=True)
class BoundReport:
    """Per-family summaries plus the comparisons that failed, ordered by
    record, then family (follower, gap, leader, node), then cluster."""

    fingerprint: str
    slack: float
    violations: tuple
    families: dict

    @property
    def all_satisfied(self) -> bool:
        return all(f.failures == 0 for f in self.families.values())

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "slack": self.slack,
            "all_satisfied": self.all_satisfied,
            "families": {name: asdict(f) for name, f in self.families.items()},
            "checked": sum(f.checked for f in self.families.values()),
            "violations": [dict(v) for v in self.violations],
        }


# order of the families within one record of the violation list
_VIOLATION_ORDER = ("follower_disagreement", "leader_follower_gap",
                    "leader_disagreement", "node_error")


def verify_bounds(trace, params: BoundParams,
                  slack: float = VERIFY_SLACK) -> BoundReport:
    """Compare every recorded iteration against the closed-form envelopes.

    Each column of the trace is compared with its envelope as a whole
    array; row k of a column is iteration k.  A comparison holds when
    empirical <= theoretical + slack, so a NaN fails.  The trace and the
    parameters must fingerprint the same configuration; a mismatch raises
    ConsistencyError rather than producing a nonsense verdict.
    """
    if trace.fingerprint != params.fingerprint:
        raise ConsistencyError(
            f"trace fingerprint {trace.fingerprint[:12]}... does not match "
            f"bound parameters {params.fingerprint[:12]}..."
        )
    follower, leader, gap, node = envelopes(params, len(trace))
    columns = {
        "follower_disagreement": (follower, trace.follower_disagreement),
        "leader_disagreement": (leader, trace.leader_disagreement),
        "leader_follower_gap": (gap, trace.leader_follower_gap),
        "node_error": (node, trace.cluster_node_error),
    }
    families = {}
    failing = []
    for name in BOUND_FAMILIES:
        theo, emp = columns[name]
        if theo is None:
            families[name] = FamilySummary(False, 0, 0, None, None)
            continue
        bad = ~(emp <= theo + slack)
        rows, clusters = np.nonzero(bad if bad.ndim == 2 else bad[:, None])
        families[name] = FamilySummary(
            applicable=True,
            checked=emp.size,
            failures=len(rows),
            worst_margin=float((emp - theo).max()) if emp.size else None,
            first_violation_k=int(rows[0]) if len(rows) else None,
        )
        rank = _VIOLATION_ORDER.index(name)
        for i, a, e, t in zip(rows.tolist(), clusters.tolist(),
                              emp[bad].tolist(), theo[bad].tolist()):
            failing.append(((i, rank, a), {
                "k": i, "family": name, "cluster": a if theo.ndim == 2 else None,
                "empirical": e, "theoretical": t,
            }))
    failing.sort(key=lambda item: item[0])
    violations = tuple(v for _, v in failing)
    return BoundReport(trace.fingerprint, slack, violations, families)
