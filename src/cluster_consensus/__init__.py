"""Two-time-scale consensus over clustered networks with inter-leader delays.

Followers in each cluster run a fast local averaging step pulled toward
their leader; leaders run a slow exchange with each other over delayed
links.  The package builds the networks, executes the coupled dynamics,
and checks trajectories against closed-form convergence envelopes.
"""

from .analysis import (
    BoundParams,
    BoundReport,
    bound_params,
    envelopes,
    verify_bounds,
)
from .engine import (
    NetworkState,
    RunResult,
    StepSizes,
    Trace,
    advance,
    init_state,
    run,
    run_until,
    sample_initial_values,
)
from .errors import (
    ConfigError,
    ConsensusError,
    ConsistencyError,
    ConstructionError,
    DomainError,
    NumericError,
    ShapeError,
    StorageError,
    TopologyError,
)
from .experiments import (
    LinearFit,
    SweepResult,
    intra_delay_study,
    preset_large,
    preset_small,
    rate_study,
    tau_sweep,
)
from .scenario import ScenarioSpec, parse_config_text
from .topology import (
    AdjacencyGraph,
    Cluster,
    ClusteredNetwork,
    SpectralSummary,
    WeightMatrix,
    build_clustered_network,
    complete_graph,
    eta,
    geometric_graph,
    line_graph,
    max_stable_beta,
    metropolis_weights,
    ring_graph,
    second_largest_singular_value,
    spectral_summary,
    validate_weights,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyGraph",
    "BoundParams",
    "BoundReport",
    "Cluster",
    "ClusteredNetwork",
    "ConfigError",
    "ConsensusError",
    "ConsistencyError",
    "ConstructionError",
    "DomainError",
    "LinearFit",
    "NetworkState",
    "NumericError",
    "RunResult",
    "ScenarioSpec",
    "ShapeError",
    "SpectralSummary",
    "StepSizes",
    "StorageError",
    "SweepResult",
    "TopologyError",
    "Trace",
    "WeightMatrix",
    "advance",
    "bound_params",
    "build_clustered_network",
    "complete_graph",
    "envelopes",
    "eta",
    "geometric_graph",
    "init_state",
    "intra_delay_study",
    "line_graph",
    "max_stable_beta",
    "metropolis_weights",
    "parse_config_text",
    "preset_large",
    "preset_small",
    "rate_study",
    "ring_graph",
    "run",
    "run_until",
    "sample_initial_values",
    "second_largest_singular_value",
    "spectral_summary",
    "tau_sweep",
    "validate_weights",
    "verify_bounds",
]
