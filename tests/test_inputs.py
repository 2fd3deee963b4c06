"""One table of every public scalar parameter and the rule its boundary checks.

Each parameter is fed values its rule refuses: a str, None, NaN and
+-inf, plus True and NumPy's True for a number, 2.5 for an integer and
"no" for a bool; a bound of `GraphSchedule.block` is also fed integers
that break 0 <= lo <= hi <= horizon. Each must raise the package's error
for that boundary, with the message the checkers in `network` write
(``what=value must be ...`` or ``what must be ...``), never a bare
TypeError or a returned value. A second table feeds the run inputs that
are objects (a start state, an optimum, a state's algorithm) a value of
the wrong type, which must be refused the same way.
"""

import re

import numpy as np
import pytest

import dercoord as dc
from dercoord.errors import (
    GeneratorSpecError,
    InvalidCostError,
    InvalidGraphError,
    InvalidInstanceError,
    ModeMismatchError,
)
from dercoord.experiment import _RANGES

INST = dc.ProblemInstance([1.0, 1.0], [0.0, 0.0], [3.0, 3.0], dc.QuadraticCost([1.0, 2.0]))
GRAPH = dc.NominalGraph(3, [(0, 1), (1, 2), (2, 0)], True)
SCHEDULE = dc.GraphSchedule(GRAPH, 0.2, 1, 10)
STEP = dc.ConstantStep(0.1)
SERIES = [1.0, 0.5, 0.25, 0.125]


def general_cost(m=2.0, n=1):
    return dc.GeneralCost(lambda p: p * p, lambda p: 2.0 * p, lambda p: np.full_like(p, 2.0), m=m, n=n)


NOT_NUMBERS = ["1", None, np.nan, np.inf, -np.inf]
# A bool is no number: only a bool parameter takes one (`checked_bool`).
REFUSED = {"real": NOT_NUMBERS + [True, np.True_]}
REFUSED["int"] = REFUSED["real"] + [2.5]
REFUSED["bool"] = NOT_NUMBERS + ["no"]
# Parameters whose None means "the default" are fed the other values only.
REFUSED["real or None"] = [v for v in REFUSED["real"] if v is not None]
REFUSED["int or None"] = [v for v in REFUSED["int"] if v is not None]
# SCHEDULE.block(v, 3) and SCHEDULE.block(2, v): a negative lo, then lo > hi and hi > horizon.
REFUSED["block lo"] = REFUSED["int"] + [-1]
REFUSED["block hi"] = REFUSED["int"] + [1, 11]

# (what the message names, kind, error, the call that takes the value)
BOUNDARIES = [
    ("node count n", "int", InvalidGraphError, lambda v: dc.NominalGraph(v, [(0, 1)], False)),
    ("directed", "bool", InvalidGraphError, lambda v: dc.NominalGraph(3, GRAPH.edges, v)),
    ("perm entry", "int", InvalidGraphError, lambda v: GRAPH.relabeled([v, 1, 0])),
    ("failure probability q", "real", InvalidGraphError, lambda v: dc.GraphSchedule(GRAPH, v, 1, 10)),
    ("schedule seed", "int", InvalidGraphError, lambda v: dc.GraphSchedule(GRAPH, 0.2, v, 10)),
    ("schedule horizon", "int", InvalidGraphError, lambda v: dc.GraphSchedule(GRAPH, 0.2, 1, v)),
    ("step k", "int", InvalidGraphError, lambda v: SCHEDULE.active_mask(v)),
    ("window length B", "int", InvalidGraphError, lambda v: dc.check_B_connectivity(SCHEDULE, v)),
    ("prefix length K", "int or None", InvalidGraphError, lambda v: dc.minimal_connectivity_window(SCHEDULE, v)),
    ("declared strong convexity m", "real", InvalidCostError, lambda v: general_cost(m=v)),
    ("agent count n", "int", InvalidCostError, lambda v: general_cost(n=v)),
    ("stepsize s", "real", InvalidInstanceError, lambda v: dc.ConstantStep(v)),
    ("schedule a", "real", InvalidInstanceError, lambda v: dc.DiminishingStep(v, 1.0)),
    ("schedule b", "real", InvalidInstanceError, lambda v: dc.DiminishingStep(1.0, v)),
    ("xi", "real", InvalidInstanceError, lambda v: dc.AlgorithmParams(STEP, xi=v)),
    ("nhat", "real", InvalidInstanceError, lambda v: dc.AlgorithmParams(STEP, nhat=v)),
    ("gamma", "real", InvalidInstanceError, lambda v: dc.AlgorithmParams(STEP, gamma=v)),
    ("horizon K", "int", InvalidInstanceError, lambda v: dc.AlgorithmParams(STEP, horizon=v)),
    ("lam", "real", InvalidInstanceError, lambda v: dc.kkt_residual(INST, [1.0, 1.0], v, 1.0, 2.0)),
    ("xi", "real", InvalidInstanceError, lambda v: dc.kkt_residual(INST, [1.0, 1.0], 0.5, v, 2.0)),
    ("nhat", "real", InvalidInstanceError, lambda v: dc.kkt_residual(INST, [1.0, 1.0], 0.5, 1.0, v)),
    ("scale", "real", InvalidInstanceError, lambda v: dc.clamped_best_response(INST, v, 0.5)),
    ("lam", "real", InvalidInstanceError, lambda v: dc.clamped_best_response(INST, 1.0, v)),
    ("xi", "real", InvalidInstanceError, lambda v: dc.solve_bisection(INST, xi=v)),
    ("nhat", "real or None", InvalidInstanceError, lambda v: dc.solve_bisection(INST, nhat=v)),
    ("tol", "real", InvalidInstanceError, lambda v: dc.solve_bisection(INST, tol=v)),
    ("a", "real", ValueError, lambda v: dc.weighted_norm(SERIES, v, 2)),
    ("K", "int", ValueError, lambda v: dc.weighted_norm(SERIES, 0.5, v)),
    ("window end", "int", ValueError, lambda v: dc.fit_rate(SERIES, (v, 3))),
    ("window end", "int", ValueError, lambda v: dc.fit_rate(SERIES, (0, v))),
    ("instance spec n", "int", GeneratorSpecError, lambda v: dc.InstanceSpec(n=v)),
    *((f"{name} low", "real", GeneratorSpecError, lambda v, name=name: dc.InstanceSpec(n=3, **{name: (v, 5.0)}))
      for name in _RANGES),
    *((f"{name} high", "real", GeneratorSpecError, lambda v, name=name: dc.InstanceSpec(n=3, **{name: (0.25, v)}))
      for name in _RANGES),
    ("graph spec n", "int", GeneratorSpecError, lambda v: dc.GraphSpec(n=v)),
    ("graph spec extra_edges", "int", GeneratorSpecError, lambda v: dc.GraphSpec(n=4, extra_edges=v)),
    ("graph spec directed", "bool", GeneratorSpecError, lambda v: dc.GraphSpec(n=4, directed=v)),
    ("instance seed", "int", GeneratorSpecError, lambda v: dc.generate_instance(dc.InstanceSpec(n=3), v)),
    ("graph seed", "int", GeneratorSpecError, lambda v: dc.generate_graph(dc.GraphSpec(n=4), v)),
    ("block start lo", "block lo", InvalidGraphError, lambda v: SCHEDULE.block(v, 3)),
    ("block end hi", "block hi", InvalidGraphError, lambda v: SCHEDULE.block(2, v)),
]


@pytest.mark.parametrize("what, error, call, value", [
    pytest.param(what, error, call, value, id=f"{i}:{what}={value!r}")
    for i, (what, kind, error, call) in enumerate(BOUNDARIES)
    for value in REFUSED[kind]
])
def test_every_public_scalar_is_checked_at_its_boundary(what, error, call, value):
    with pytest.raises(error) as err:
        call(value)
    assert re.match(rf"{re.escape(what)}(={re.escape(repr(value))})? must be ", str(err.value)), str(err.value)


@pytest.mark.parametrize("what, kind, call", [
    pytest.param(what, kind, call, id=f"{i}:{what}") for i, (what, kind, _, call) in enumerate(BOUNDARIES)
])
def test_every_boundary_in_the_table_accepts_a_valid_value(what, kind, call):
    # A row whose call raised for every value would pass the table above without checking anything.
    valid = {"bool": True, "int": 2, "block lo": 2, "block hi": 2, "int or None": None, "real or None": None}
    call(valid.get(kind, 0.5))


# A short pd1 run on INST over an undirected graph of its two agents, its trace and the oracle's solution.
PAIR = dc.GraphSchedule(dc.NominalGraph(2, [(0, 1)], False), 0.2, 1, 5)
PARAMS = dc.AlgorithmParams(STEP, horizon=3)
TRACE, SOLUTION = dc.run("pd1", INST, PAIR, PARAMS), dc.solve_bisection(INST)

# (what the message names, what it got, the call): an object of the wrong type where a run or an analysis takes a
# state or a solution, each refused where it enters with `ModeMismatchError`, never read into a bare AttributeError
# or KeyError.
WRONG_TYPES = [
    ("init", "RunTrace", lambda: dc.run("pd1", INST, PAIR, PARAMS, init=TRACE)),
    ("init", "ndarray", lambda: dc.run("pd1", INST, PAIR, PARAMS, init=TRACE.final.nodes)),
    ("optimum", "ndarray", lambda: dc.run("pd1", INST, PAIR, PARAMS, optimum=SOLUTION.p_star)),
    ("solution", "ndarray", lambda: dc.convergence_error(TRACE, SOLUTION.p_star)),
    ("solution", "ndarray", lambda: dc.deviation_from_optimum(TRACE, SOLUTION.p_star)),
    ("solution", "ndarray", lambda: dc.equilibrium_state("pd1", INST, PAIR.nominal, PARAMS, SOLUTION.p_star)),
    ("State algorithm", "'nope'", lambda: dc.State("nope", TRACE.final.nodes)),
]


@pytest.mark.parametrize("what, got, call", [
    pytest.param(*row, id=f"{i}:{row[0]}={row[1]}") for i, row in enumerate(WRONG_TYPES)
])
def test_every_wrongly_typed_run_input_is_refused_at_its_boundary(what, got, call):
    with pytest.raises(ModeMismatchError) as err:
        call()
    assert re.match(rf"{re.escape(what)} must be .*, got {re.escape(got)}$", str(err.value)), str(err.value)


def test_the_right_types_are_taken():
    # The values the table's calls get wrong, given right: each call of the table above runs with them.
    dc.run("pd1", INST, PAIR, PARAMS, init=TRACE.final, optimum=SOLUTION)
    assert dc.convergence_error(TRACE, SOLUTION).shape == dc.deviation_from_optimum(TRACE, SOLUTION).shape == (4,)
    assert dc.State("pd1", TRACE.final.nodes).p is not None
    assert dc.equilibrium_state("pd1", INST, PAIR.nominal, PARAMS, SOLUTION).algorithm == "pd1"
