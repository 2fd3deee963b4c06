"""Distributed coordination of energy resources over time-varying graphs.

Library + simulator for the single-balance economic dispatch problem:
exact solutions by multiplier bisection, a centralized projected
primal-dual baseline, four distributed iterations (gradient-tracking and
crude primal-dual over undirected graphs; push-sum and packet-loss-robust
running-sum primal-dual over directed graphs), deterministic link-failure
schedules, and convergence/invariant analysis.
"""

from .algorithms import (
    ALGORITHMS,
    DirectedState,
    RobustState,
    UndirectedState,
    VirtualState,
    equilibrium_state,
    init_directed,
    init_robust,
    init_undirected,
    init_virtual,
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
    load_graph,
    minimal_connectivity_window,
    write_graph,
)
from .oracle import DispatchSolution, centralized_pd_run, clamped_best_response, solve_bisection
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
