import dataclasses
import inspect
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dercoord as dc
from dercoord.errors import InfeasibleInstanceError, InvalidCostError, InvalidInstanceError
from dercoord.cli import build_parser
from dercoord.experiment import ExperimentConfig
from dercoord.oracle import ORACLE_TOL
from reference import reference_centralized


def grid_search_quadratic(inst, scale, step=1e-4):
    """Independent dense search over the multiplier (quadratic costs)."""
    a, b = inst.cost.a, inst.cost.b
    lam_lo = float((2 * a * inst.p_lo + b).min()) / scale - 1.0
    lam_hi = float((2 * a * inst.p_hi + b).max()) / scale + 1.0
    grid = np.arange(lam_lo, lam_hi + step, step)
    p = np.clip((scale * grid[:, None] - b) / (2 * a), inst.p_lo, inst.p_hi)
    gaps = np.abs(p.sum(axis=1) - inst.total_load)
    best = int(np.argmin(gaps))
    return p[best], float(grid[best])


class TestSolveBisection:
    def test_single_agent_interior(self):
        inst = dc.ProblemInstance([5.0], [0.0], [10.0], dc.QuadraticCost([1.0]))
        sol = dc.solve_bisection(inst)
        assert sol.p_star[0] == pytest.approx(5.0, abs=1e-10)
        assert sol.lambda_star == pytest.approx(10.0, abs=1e-9)

    def test_two_identical_agents_split_symmetrically(self):
        inst = dc.ProblemInstance([2.0, 2.0], [0.0] * 2, [10.0] * 2, dc.QuadraticCost([1.0, 1.0]))
        sol = dc.solve_bisection(inst)
        np.testing.assert_allclose(sol.p_star, [2.0, 2.0], atol=1e-9)

    def test_waterfilling_closed_form(self, small_instance):
        sol = dc.solve_bisection(small_instance)
        np.testing.assert_allclose(sol.p_star, [12 / 7, 6 / 7, 3 / 7], atol=1e-9)
        assert sol.lambda_star == pytest.approx(24 / 7, abs=1e-7)
        p_grid, lam_grid = grid_search_quadratic(small_instance, 1.0)
        np.testing.assert_allclose(sol.p_star, p_grid, atol=1e-3)

    def test_solution_invariants(self, small_instance):
        sol = dc.solve_bisection(small_instance, xi=0.5, nhat=2.0)
        total = small_instance.total_load
        assert abs(sol.p_star.sum() - total) <= 1e-9 * (1 + abs(total))
        assert np.all(sol.p_star >= small_instance.p_lo)
        assert np.all(sol.p_star <= small_instance.p_hi)
        assert sol.kkt_residual <= 1e-9
        assert np.all(sol.mu_star >= 0) and np.all(sol.nu_star >= 0)
        comp_hi = sol.mu_star * (sol.p_star - small_instance.p_hi)
        comp_lo = sol.nu_star * (small_instance.p_lo - sol.p_star)
        assert np.abs(comp_hi).max() <= 1e-9 and np.abs(comp_lo).max() <= 1e-9

    def test_active_bounds_get_multipliers(self):
        # cheap agent pinned at its cap, expensive one at its floor
        inst = dc.ProblemInstance(
            [2.0, 2.0], [0.0, 1.0], [2.5, 10.0], dc.QuadraticCost([0.1, 10.0])
        )
        sol = dc.solve_bisection(inst)
        assert sol.p_star[0] == pytest.approx(2.5)
        assert sol.p_star[1] == pytest.approx(1.5)
        assert dc.kkt_residual(inst, sol.p_star, sol.lambda_star, 1.0, 2.0) <= 1e-9

    def test_iteration_count_bounded_by_bracket_halving(self, small_instance):
        sol = dc.solve_bisection(small_instance, tol=1e-12)
        lam_lo, lam_hi = sol.bracket
        # |g| <= tol is reached no later than the bracket hitting machine width
        width_floor = 4 * np.finfo(float).eps * max(1.0, abs(lam_lo), abs(lam_hi))
        assert sol.iterations <= int(np.ceil(np.log2((lam_hi - lam_lo) / width_floor))) + 1

    def test_lambda_invariant_under_permutation(self):
        inst = dc.generate_instance(dc.InstanceSpec(n=7), seed=11)
        perm = np.array([3, 0, 6, 1, 5, 2, 4])
        permuted = dc.ProblemInstance(
            inst.loads[perm],
            inst.p_lo[perm],
            inst.p_hi[perm],
            dc.QuadraticCost(inst.cost.a[perm], inst.cost.b[perm], inst.cost.c[perm]),
        )
        sol = dc.solve_bisection(inst)
        sol_p = dc.solve_bisection(permuted)
        assert sol_p.lambda_star == pytest.approx(sol.lambda_star, abs=1e-9)
        np.testing.assert_allclose(sol_p.p_star, sol.p_star[perm], atol=1e-9)

    def test_general_cost_oracle(self):
        cost = dc.GeneralCost(
            value_fn=lambda p: p**4 + p**2,
            grad_fn=lambda p: 4 * p**3 + 2 * p,
            hess_fn=lambda p: 12 * p**2 + 2,
            m=2.0,
            n=2,
        )
        inst = dc.ProblemInstance([1.0, 1.0], [0.0] * 2, [3.0] * 2, cost)
        sol = dc.solve_bisection(inst)
        np.testing.assert_allclose(sol.p_star, [1.0, 1.0], atol=1e-8)
        assert sol.kkt_residual <= 1e-9

    @pytest.mark.parametrize("bound", [0.0, 3.0])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_gradient_not_finite_at_a_bound_is_rejected(self, bound, value):
        # Agent 1's f' is 2p except at one bound, so the multiplier bracket would have no
        # finite end: the instance rejects the cost before the oracle sees it.
        cost = dc.GeneralCost(
            value_fn=lambda p: p**2,
            grad_fn=lambda p: np.where((p == bound) & (np.arange(p.size) == 1), value, 2 * p),
            hess_fn=lambda p: np.full_like(p, 2.0),
            m=2.0,
            n=2,
        )
        with pytest.raises(InvalidCostError, match="agent 1: f' is not finite"):
            dc.ProblemInstance([1.0, 1.0], [0.0] * 2, [3.0] * 2, cost)

    @pytest.mark.parametrize(
        "bound, a, b",
        [("lam_hi", [1e300, 1.0], [0.0, 0.0]), ("lam_lo", [1.0, 1.0], [-1e300, 0.0])],
    )
    def test_overflowing_multiplier_bracket_is_rejected(self, bound, a, b):
        # f' is finite at both box ends, but f'(p_hi) = 2e302 (or f'(p_lo) = -1e300)
        # over xi*nhat/n = 1e-10 is not: the bracket would have an infinite end.
        inst = dc.ProblemInstance([2.0, 2.0], [0.0] * 2, [100.0, 5.0], dc.QuadraticCost(a, b))
        with pytest.raises(InvalidInstanceError, match=rf"{bound} = -?inf is not finite.*xi\*nhat/n = 1e-10"):
            dc.solve_bisection(inst, xi=1e-10, nhat=2.0)
        assert np.isfinite(dc.solve_bisection(inst, xi=1.0, nhat=2.0).lambda_star)

    @pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
    @pytest.mark.parametrize("name", ["xi", "nhat", "tol"])
    def test_parameters_must_be_positive_and_finite(self, small_instance, name, value):
        with pytest.raises(InvalidInstanceError, match=f"{name}={value} must be positive and finite"):
            dc.solve_bisection(small_instance, **{name: value})

    @pytest.mark.parametrize("name, value", [("xi", "1"), ("nhat", "3"), ("tol", "1e-12")])
    def test_parameters_that_are_not_numbers_are_named(self, small_instance, name, value):
        with pytest.raises(InvalidInstanceError, match=re.escape(f"{name}={value!r} must be positive and finite")):
            dc.solve_bisection(small_instance, **{name: value})

    def test_scaled_convention_shifts_lambda_only(self, small_instance):
        base = dc.solve_bisection(small_instance, xi=1.0, nhat=3.0)
        scaled = dc.solve_bisection(small_instance, xi=0.1, nhat=6.0)
        np.testing.assert_allclose(scaled.p_star, base.p_star, atol=1e-8)
        assert scaled.lambda_star * 0.1 * 6.0 == pytest.approx(base.lambda_star * 3.0, rel=1e-6)


    def test_default_tolerance_is_one_constant(self):
        # The solver's default is the one statement; no config key or `dercoord solve` flag overrides it.
        assert inspect.signature(dc.solve_bisection).parameters["tol"].default is ORACLE_TOL
        assert "oracle_tol" not in {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert not hasattr(build_parser().parse_args(["solve", "case.txt"]), "tol")

    @given(
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32),
        pinned=st.integers(0, 11),
        xi=st.floats(0.05, 2.0),
        nhat_scale=st.floats(0.5, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_bound_multipliers_with_agents_at_their_bounds(self, n, seed, pinned, xi, nhat_scale):
        # Narrow boxes put agents at p_lo and at p_hi. Up to n - 1 agents then get
        # p_lo = p_hi = their optimal dispatch, which keeps the instance feasible unless
        # every other agent sits at a bound.
        spec = dc.InstanceSpec(n=n, lo_range=(0.0, 0.8), hi_range=(0.9, 1.6), load_range=(0.4, 1.4))
        inst = dc.generate_instance(spec, seed)
        nhat = nhat_scale * n
        pinned = min(pinned, n - 1)
        lo, hi = inst.p_lo.copy(), inst.p_hi.copy()
        lo[:pinned] = hi[:pinned] = dc.solve_bisection(inst, xi=xi, nhat=nhat).p_star[:pinned]
        try:
            inst = dc.ProblemInstance(inst.loads, lo, hi, inst.cost)
        except InfeasibleInstanceError:
            assume(False)
        sol = dc.solve_bisection(inst, xi=xi, nhat=nhat)
        # The multipliers absorb the stationarity gap at the bounds, and only there.
        stat = xi * nhat / n * sol.lambda_star - inst.cost.grad(sol.p_star)
        assert np.abs(stat - sol.mu_star + sol.nu_star).max() <= sol.kkt_residual <= 1e-9
        assert np.all(sol.mu_star >= 0.0) and np.all(sol.nu_star >= 0.0)
        assert not np.any(sol.mu_star[sol.p_star < inst.p_hi]) and not np.any(sol.nu_star[sol.p_star > inst.p_lo])

    def test_nan_gradient_at_the_solution_shows_in_the_residual(self):
        # The certificate takes f' at p* once more after the bisection, as the cost's last call. A NaN there
        # must make the residual NaN, not leave it at the balance part.
        calls, poisoned = [], None

        def grad(p):
            calls.append(p)
            return np.full_like(p, np.nan) if len(calls) == poisoned else 2.0 * p

        cost = dc.GeneralCost(lambda p: p * p, grad, lambda p: np.full_like(p, 2.0), m=2.0, n=2)
        inst = dc.ProblemInstance([1.0, 1.0], [0.0, 0.0], [3.0, 3.0], cost)
        calls.clear()
        assert dc.solve_bisection(inst).kkt_residual <= 1e-9
        poisoned = len(calls)
        calls.clear()
        assert np.isnan(dc.solve_bisection(inst).kkt_residual)


def centralized(inst, params, graph=None, init=None):
    """`run("centralized")` over `graph` (a path if None; the iteration reads no link), from `init` if given."""
    graph = dc.NominalGraph(inst.n, [(i, i + 1) for i in range(inst.n - 1)], False) if graph is None else graph
    return dc.run("centralized", inst, dc.GraphSchedule(graph, 0.0, 0, params.horizon), params, init=init)


def centralized_start(p0, lam0):
    """The centralized state with dispatch p0 and multiplier lam0 in every agent's row."""
    p0 = np.asarray(p0, dtype=float)
    return dc.State("centralized", np.stack([p0, np.full(p0.size, lam0)]))


class TestCentralizedRun:
    def scalar_reference(self, s, xi, K, load=5.0, a=1.0, lo=0.0, hi=10.0):
        p, lam = 0.0, 0.0
        ps = [p]
        for _ in range(K):
            p_new = min(max(p - s * 2 * a * p + s * xi * lam, lo), hi)
            lam = lam - s * (p - load)
            p = p_new
            ps.append(p)
        return np.array(ps)

    def test_matches_independent_scalar_recursion(self):
        inst = dc.ProblemInstance([5.0], [0.0], [10.0], dc.QuadraticCost([1.0]))
        params = dc.AlgorithmParams(step=dc.ConstantStep(0.1), xi=1.0, nhat=1.0, horizon=500)
        trace = centralized(inst, params)
        np.testing.assert_allclose(trace.p[:, 0], self.scalar_reference(0.1, 1.0, 500), atol=1e-12)
        assert abs(trace.p[-1, 0] - 5.0) <= 1e-6
        assert trace.warnings == []

    def test_fixed_point_is_invariant(self, small_instance):
        params = dc.AlgorithmParams(step=dc.ConstantStep(0.05), xi=1.0, nhat=3.0, horizon=200)
        sol = dc.solve_bisection(small_instance, xi=1.0, nhat=3.0)
        lam0 = sol.lambda_star * params.nhat / small_instance.n
        trace = centralized(small_instance, params, init=centralized_start(sol.p_star, lam0))
        assert np.abs(trace.p - sol.p_star).max() <= 1e-10
        assert np.abs(trace.consensus - lam0).max() <= 1e-10

    def test_oversized_stepsize_is_flagged(self):
        inst = dc.ProblemInstance([5.0], [0.0], [10.0], dc.QuadraticCost([1.0]))
        params = dc.AlgorithmParams(step=dc.ConstantStep(10.0), xi=1.0, nhat=1.0, horizon=500)
        trace = centralized(inst, params)
        assert any("no-progress" in w for w in trace.warnings)

    def test_p0_outside_box_rejected(self):
        inst = dc.ProblemInstance([5.0], [0.0], [10.0], dc.QuadraticCost([1.0]))
        params = dc.AlgorithmParams(step=dc.ConstantStep(0.1), horizon=10)
        with pytest.raises(InvalidInstanceError):
            dc.initial_state("centralized", inst, dc.NominalGraph(1, [], False), params, p0=[11.0])

    @pytest.mark.parametrize("step", [dc.ConstantStep(0.01), dc.DiminishingStep(1.0, 50.0)], ids=["constant", "diminishing"])
    @pytest.mark.parametrize("start", [False, True], ids=["default-start", "p0-lam0"])
    def test_equals_reference_loop_bit_for_bit(self, case39_undirected, step, start):
        # The driver steps the one multiplier as a row of n copies; each copy, the
        # dispatch and the imbalance must carry the scalar loop's bits.
        inst, graph = case39_undirected
        params = dc.AlgorithmParams(step=step, xi=0.05, nhat=39.0, horizon=1500)
        kwargs = {"p0": 0.5 * (inst.p_lo + inst.p_hi), "lam0": 3.7} if start else {}
        trace = centralized(inst, params, graph, init=centralized_start(**kwargs) if start else None)
        p, lam, imbalance = reference_centralized(inst, params, **kwargs)
        pairs = [(trace.p, p), (trace.residuals["imbalance"], imbalance)]
        pairs += [(trace.consensus[:, [j]], lam) for j in range(inst.n)]
        for got, ref in pairs:
            assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))

    def test_converges_to_bisection_solution(self, small_instance):
        params = dc.AlgorithmParams(step=dc.ConstantStep(0.05), xi=1.0, nhat=3.0, horizon=4000)
        sol = dc.solve_bisection(small_instance, xi=1.0, nhat=3.0)
        trace = centralized(small_instance, params)
        assert np.linalg.norm(trace.p[-1] - sol.p_star) <= 1e-6

    def test_deviation_from_optimum_reaches_zero(self, case39_undirected):
        # The multiplier sits in every agent's row, so the nhat-scaled row sum is
        # the scaled lambda the oracle reports; a one-column trace read 47.4 here.
        inst, graph = case39_undirected
        params = dc.AlgorithmParams(step=dc.ConstantStep(0.01), xi=0.05, nhat=39.0, horizon=20000)
        sol = dc.solve_bisection(inst, xi=params.xi, nhat=params.nhat)
        trace = centralized(inst, params, graph)
        assert trace.consensus.shape == (params.horizon + 1, inst.n)
        assert np.all(trace.residuals["consensus_spread"] == 0.0)
        assert dc.deviation_from_optimum(trace, sol)[-1] <= 1e-9
