"""Distributed coordination of energy resources over time-varying graphs.

Library + simulator for the single-balance economic dispatch problem:
exact solutions by multiplier bisection, four distributed iterations
(gradient-tracking and crude primal-dual over undirected graphs; push-sum
and packet-loss-robust running-sum primal-dual over directed graphs) and
the centralized projected primal-dual baseline they distribute, all
stepped by one driver, deterministic link-failure schedules, and
convergence/invariant analysis.
"""

from .algorithms import (
    ALGORITHMS,
    State,
    equilibrium_state,
    initial_state,
    run,
)
from .errors import (
    CaseParseError,
    ConfigError,
    DercoordError,
    DimensionMismatchError,
    DivergenceError,
    FitWindowError,
    GeneratorSpecError,
    InfeasibleInstanceError,
    InternalInvariantError,
    InvalidCostError,
    InvalidGraphError,
    InvalidInstanceError,
    ModeMismatchError,
)
from .experiment import (
    ExperimentConfig,
    GraphSpec,
    InstanceSpec,
    generate_graph,
    generate_instance,
    load_case,
    load_config,
    load_graph,
    run_experiment,
    write_case,
)
from .metrics import (
    BUDGETS,
    InvariantReport,
    RateEstimate,
    RunTrace,
    consensus_deviation,
    convergence_error,
    deviation_from_optimum,
    fit_rate,
    invariant_report,
    weighted_norm,
)
from .network import (
    GraphSchedule,
    NominalGraph,
    check_B_connectivity,
    minimal_connectivity_window,
)
from .oracle import DispatchSolution, clamped_best_response, solve_bisection
from .problem import (
    AlgorithmParams,
    ConstantStep,
    DiminishingStep,
    GeneralCost,
    ProblemInstance,
    QuadraticCost,
    default_p0,
    kkt_residual,
)

__version__ = "0.1.0"
