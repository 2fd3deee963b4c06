"""The public names of `dercoord`, spelled out, so every API change shows in a diff."""

import types

import dercoord as dc

PUBLIC_NAMES = [
    "ALGORITHMS",
    "AlgorithmParams",
    "BUDGETS",
    "CaseParseError",
    "ConfigError",
    "ConstantStep",
    "DercoordError",
    "DimensionMismatchError",
    "DiminishingStep",
    "DispatchSolution",
    "DivergenceError",
    "ExperimentConfig",
    "FitWindowError",
    "GeneralCost",
    "GeneratorSpecError",
    "GraphSchedule",
    "GraphSpec",
    "InfeasibleInstanceError",
    "InstanceSpec",
    "InternalInvariantError",
    "InvalidCostError",
    "InvalidGraphError",
    "InvalidInstanceError",
    "InvariantReport",
    "ModeMismatchError",
    "NominalGraph",
    "ProblemInstance",
    "QuadraticCost",
    "RateEstimate",
    "RunTrace",
    "State",
    "check_B_connectivity",
    "clamped_best_response",
    "consensus_deviation",
    "convergence_error",
    "default_p0",
    "deviation_from_optimum",
    "equilibrium_state",
    "fit_rate",
    "generate_graph",
    "generate_instance",
    "initial_state",
    "invariant_report",
    "kkt_residual",
    "load_case",
    "load_config",
    "load_graph",
    "minimal_connectivity_window",
    "run",
    "run_experiment",
    "solve_bisection",
    "weighted_norm",
    "write_case",
]


def test_public_names_are_the_listed_ones():
    # Submodules are left out: which of them are attributes depends on what was imported before.
    names = sorted(n for n, v in vars(dc).items() if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC_NAMES
