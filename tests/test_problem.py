import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dercoord as dc
from dercoord.errors import (
    InfeasibleInstanceError,
    InvalidCostError,
    InvalidInstanceError,
)
from dercoord.problem import checked_p0, kkt_multipliers

NOT_POSITIVE = [0.0, -1.0, -np.inf, np.inf, np.nan]


def quartic_cost():
    # f(p) = p^4 + p^2 per agent; f'' = 12p^2 + 2 >= 2 on any box
    return dc.GeneralCost(
        value_fn=lambda p: p**4 + p**2,
        grad_fn=lambda p: 4.0 * p**3 + 2.0 * p,
        hess_fn=lambda p: 12.0 * p**2 + 2.0,
        m=2.0,
        n=1,
    )


class TestCostGrad:
    def test_quadratic_scalar(self):
        cost = dc.QuadraticCost([1.0])
        assert cost.grad(np.array([3.0])) == pytest.approx([6.0], abs=0)

    def test_quadratic_at_origin(self):
        cost = dc.QuadraticCost([1.0, 2.0], b=[1.0, 0.0])
        np.testing.assert_allclose(cost.grad(np.zeros(2)), [1.0, 0.0])

    def test_general_hook_matches_finite_difference(self):
        cost = quartic_cost()
        h = 1e-6
        fd = (cost.value(np.array([2.0 + h])) - cost.value(np.array([2.0 - h]))) / (2 * h)
        grad = cost.grad(np.array([2.0]))
        assert abs(grad[0] - fd[0]) <= 1e-4
        assert grad[0] == pytest.approx(36.0)

    @given(
        a=arrays(float, 4, elements=st.floats(0.1, 5.0)),
        b=arrays(float, 4, elements=st.floats(-2.0, 2.0)),
        p=arrays(float, 4, elements=st.floats(-10.0, 10.0)),
    )
    @settings(max_examples=50, deadline=None)
    def test_quadratic_matches_central_differences(self, a, b, p):
        cost = dc.QuadraticCost(a, b)
        h = 1e-6
        fd = (cost.value(p + h) - cost.value(p - h)) / (2 * h)
        np.testing.assert_allclose(cost.grad(p), fd, rtol=1e-6, atol=1e-6)


def box(lo, hi):
    """An instance whose capacity box is [lo, hi] (loads at the lower bounds)."""
    return dc.ProblemInstance(lo, lo, hi, dc.QuadraticCost(np.ones(len(lo))))


class TestClamp:
    def test_upper_clamp(self):
        assert box([0.0], [3.0]).clamp(np.array([5.0]))[0] == 3.0

    def test_interior_unchanged(self):
        assert box([0.0], [3.0]).clamp(np.array([1.0]))[0] == 1.0

    def test_mixed(self):
        out = box([0.0] * 3, [3.0] * 3).clamp(np.array([-2.0, 0.5, 9.0]))
        np.testing.assert_array_equal(out, [0.0, 0.5, 3.0])

    @given(
        p=arrays(float, 5, elements=st.floats(-100, 100)),
        q=arrays(float, 5, elements=st.floats(-100, 100)),
        lo=arrays(float, 5, elements=st.floats(-50, 0)),
        hi=arrays(float, 5, elements=st.floats(0, 50)),
    )
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_nonexpansive(self, p, q, lo, hi):
        inst = box(lo, hi)
        pp = inst.clamp(p)
        np.testing.assert_array_equal(inst.clamp(pp), pp)
        qq = inst.clamp(q)
        assert np.linalg.norm(pp - qq) <= np.linalg.norm(p - q) + 1e-12

    def test_clip_falls_back_to_numpy_core_without_numpy_underscore_core(self, monkeypatch):
        # NumPy 1.x has no numpy._core.umath: the package imported afresh where that import fails binds the same
        # clip ufunc through numpy.core.umath, which NumPy 2 still serves, with a DeprecationWarning.
        import importlib.util
        import sys
        from pathlib import Path

        monkeypatch.setitem(sys.modules, "numpy._core.umath", None)  # importing it now raises ImportError
        init = Path(dc.__file__)
        spec = importlib.util.spec_from_file_location("clip_fallback", init,
                                                      submodule_search_locations=[str(init.parent)])
        package = sys.modules["clip_fallback"] = importlib.util.module_from_spec(spec)
        try:
            with pytest.warns(DeprecationWarning, match="numpy.core"):
                spec.loader.exec_module(package)
        finally:
            for name in [key for key in sys.modules if key.split(".")[0] == "clip_fallback"]:
                del sys.modules[name]
        assert package.problem.clip is dc.problem.clip and isinstance(dc.problem.clip, np.ufunc)
        assert package.problem.clip.__name__ == "clip"


class TestKktResidual:
    def one_agent(self):
        return dc.ProblemInstance([5.0], [0.0], [10.0], dc.QuadraticCost([1.0]))

    def test_zero_at_optimum(self):
        inst = self.one_agent()
        assert dc.kkt_residual(inst, [5.0], 10.0, 1.0, 1.0) == 0.0

    def test_stationarity_gap(self):
        inst = self.one_agent()
        assert dc.kkt_residual(inst, [5.0], 8.0, 1.0, 1.0) == pytest.approx(2.0)

    def test_waterfilling_point(self, small_instance):
        # p_i = lam/(2 a_i), lam chosen so the dispatch sums to the demand
        p = np.array([12 / 7, 6 / 7, 3 / 7])
        lam = 24 / 7
        assert dc.kkt_residual(small_instance, p, lam, 1.0, 3.0) <= 1e-12

    def test_bound_multiplier_absorbs_gap(self):
        # at the upper cap, f'(cap) < lam is absorbed by mu >= 0
        inst = dc.ProblemInstance([2.0], [0.0], [2.0], dc.QuadraticCost([1.0]))
        assert dc.kkt_residual(inst, [2.0], 10.0, 1.0, 1.0) == 0.0
        # symmetric at the lower cap: f'(floor) > lam absorbed by nu >= 0
        inst2 = dc.ProblemInstance([1.0], [1.0], [5.0], dc.QuadraticCost([1.0]))
        assert dc.kkt_residual(inst2, [1.0], 0.5, 1.0, 1.0) == 0.0

    def test_nan_gradient_is_not_hidden_by_a_zero_balance(self):
        # f' is NaN inside (0.4, 0.6) but finite at the box ends, which is all `ProblemInstance` checks. At
        # p = load the balance part is 0, and a max that skipped the NaN stationarity part would read 0.0.
        cost = dc.GeneralCost(
            lambda p: p * p, lambda p: np.where((p > 0.4) & (p < 0.6), np.nan, 2.0 * p),
            lambda p: np.full_like(p, 2.0), m=2.0, n=1,
        )
        inst = dc.ProblemInstance([0.5], [0.0], [1.0], cost)
        assert np.isnan(dc.kkt_residual(inst, [0.5], 123.0, 1.0, 1.0))
        assert dc.kkt_residual(inst, [0.7], 1.4, 1.0, 1.0) == pytest.approx(0.2)

    def test_nan_multiplier_or_dispatch_gives_a_nan_residual(self, case39_undirected):
        inst, _ = case39_undirected
        sol = dc.solve_bisection(inst)
        c = 1.0  # xi*nhat/n at the oracle's defaults, xi = 1 and nhat = n
        assert kkt_multipliers(inst, sol.p_star, sol.lambda_star, c)[2] < 1e-9
        assert np.isnan(kkt_multipliers(inst, sol.p_star, np.nan, c)[2])
        p = sol.p_star.copy()
        p[3] = np.nan
        assert np.isnan(dc.kkt_residual(inst, p, sol.lambda_star, 1.0, inst.n))
        with pytest.raises(InvalidInstanceError, match="lam=nan must be a real number in"):
            dc.kkt_residual(inst, sol.p_star, np.nan, 1.0, inst.n)


class TestInstanceValidation:
    def test_inverted_box(self):
        with pytest.raises(InvalidInstanceError):
            dc.ProblemInstance([1.0], [2.0], [1.0], dc.QuadraticCost([1.0]))

    def test_infeasible_low(self):
        with pytest.raises(InfeasibleInstanceError, match="1'p_lo"):
            dc.ProblemInstance([1.0], [2.0], [3.0], dc.QuadraticCost([1.0]))

    def test_infeasible_high(self):
        with pytest.raises(InfeasibleInstanceError, match="1'p_hi"):
            dc.ProblemInstance([5.0], [0.0], [3.0], dc.QuadraticCost([1.0]))

    @pytest.mark.parametrize("loads, p_lo, p_hi", [
        ([1e308, 1e308], [0.0, 0.0], [1e308, 1e308]),
        ([0.0, 0.0], [-1e308, -1e308], [1.0, 1.0]),
        ([1.0, 1.0], [0.0, 0.0], [1e308, 1e308]),
    ])
    def test_overflowing_sums_are_rejected_without_a_warning(self, loads, p_lo, p_hi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInstanceError, match="must be finite"):
                dc.ProblemInstance(loads, p_lo, p_hi, dc.QuadraticCost([1e-10, 1e-10]))

    def test_nonpositive_quadratic_coefficient(self):
        with pytest.raises(InvalidCostError):
            dc.QuadraticCost([0.0])

    @pytest.mark.parametrize("column", ["a", "b", "c"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_quadratic_coefficient(self, column, value):
        coefficients = {"a": [1.0, 1.0], "b": [0.0, 0.0], "c": [0.0, 0.0]}
        coefficients[column][1] = value
        with pytest.raises(InvalidCostError, match="agent 1: quadratic coefficients a, b, c must be finite"):
            dc.QuadraticCost(**coefficients)

    @pytest.mark.parametrize("a,p_lo,p_hi", [(1e300, 0.0, 1e10), (1e300, -1e10, 0.0), (1e308, 0.0, 5.0)])
    def test_gradient_not_finite_at_a_bound_is_rejected(self, a, p_lo, p_hi):
        # finite coefficients whose f' = 2a*p + b overflows (or is inf*0) at a box end
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidCostError, match="agent 1: f' is not finite at p_lo or p_hi"):
                dc.ProblemInstance([1.0, 1.0], [0.0, p_lo], [5.0, p_hi], dc.QuadraticCost([1.0, a]))

    def test_general_hook_convexity_grid_check(self):
        # f(p) = p^4: f''(0) = 0 < declared m on a box containing 0
        bad = dc.GeneralCost(
            value_fn=lambda p: p**4,
            grad_fn=lambda p: 4 * p**3,
            hess_fn=lambda p: 12 * p**2,
            m=1.0,
            n=1,
        )
        with pytest.raises(InvalidCostError):
            dc.ProblemInstance([0.5], [0.0], [1.0], bad)

    def test_nan_second_derivative_fails_the_convexity_check(self):
        cost = dc.GeneralCost(
            value_fn=lambda p: p**2,
            grad_fn=lambda p: 2 * p,
            hess_fn=lambda p: np.where(p > 0.5, np.nan, 2.0),
            m=1.0,
            n=1,
        )
        with pytest.raises(InvalidCostError, match="second derivative nan"):
            dc.ProblemInstance([0.5], [0.0], [1.0], cost)

    @pytest.mark.parametrize("m", NOT_POSITIVE)
    def test_declared_convexity_must_be_positive_and_finite(self, m):
        with pytest.raises(InvalidCostError, match=f"m={m} must be positive and finite"):
            dc.GeneralCost(lambda p: p**2, lambda p: 2 * p, lambda p: np.full_like(p, 2.0), m=m, n=1)

    @pytest.mark.parametrize("p0", [[np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0], [-1.0, 1.0]])
    def test_p0_outside_the_box_or_nan_is_rejected(self, p0):
        inst = box([0.0, 0.0], [3.0, 3.0])
        with pytest.raises(InvalidInstanceError, match="capacity box"):
            checked_p0(inst, p0)
        assert checked_p0(inst, [0.0, 3.0]).tolist() == [0.0, 3.0]

    def test_validated_arrays_cannot_change(self):
        # The instance keeps read-only copies, so no check made at construction goes stale.
        loads = np.array([1.0, 1.0])
        inst = dc.ProblemInstance(loads, [0.0, 0.0], [3.0, 3.0], dc.QuadraticCost([1.0, 2.0]))
        loads[0] = 100.0
        assert inst.total_load == 2.0
        for arr in (inst.loads, inst.p_lo, inst.p_hi, inst.cost.a, inst.cost.b, inst.cost.c):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 100.0

    def test_general_hook_accepted_on_valid_box(self):
        inst = dc.ProblemInstance([1.0], [0.0], [2.0], quartic_cost())
        assert inst.n == 1


class TestAlgorithmParams:
    def test_scaling_range_warns_not_raises(self):
        params = dc.AlgorithmParams(step=dc.ConstantStep(0.1), xi=1.0, nhat=5.0)
        warnings = params.configuration_warnings(n=3)
        assert len(warnings) == 1 and "xi*nhat" in warnings[0]
        assert params.configuration_warnings(n=10) == []

    def test_diminishing_schedule(self):
        step = dc.DiminishingStep(1.0, 100.0)
        assert step.at(0) == pytest.approx(0.01)
        assert step.at(100) == pytest.approx(0.005)

    @given(
        a=st.floats(1e-6, 1e6),
        b=st.floats(1e-6, 1e6),
        k0=st.one_of(st.integers(0, 10_000), st.integers(0, 2**53 - 64)),
        count=st.integers(1, 64),
    )
    @settings(max_examples=300, deadline=None)
    def test_diminishing_steps_of_a_block_are_the_python_floats(self, a, b, k0, count):
        # `run` takes a block's stepsizes from one call over its step numbers; each must be the float that
        # Python's a / (k + b) gives for that step alone, bit for bit.
        for step in (dc.DiminishingStep(a, b), dc.DiminishingStep(np.float32(a), np.float32(b))):
            block = step.at(np.arange(k0, k0 + count))
            want = np.array([step.at(k) for k in range(k0, k0 + count)])
            assert block.dtype == np.float64
            np.testing.assert_array_equal(block.view(np.uint64), want.view(np.uint64))

    def test_invalid_values_rejected(self):
        with pytest.raises(InvalidInstanceError):
            dc.ConstantStep(0.0)
        with pytest.raises(InvalidInstanceError):
            dc.AlgorithmParams(step=dc.ConstantStep(0.1), gamma=1.0)
        with pytest.raises(InvalidInstanceError):
            dc.AlgorithmParams(step=dc.ConstantStep(0.1), xi=-1.0)
        for horizon in (float("nan"), 2.5, "10"):
            with pytest.raises(InvalidInstanceError, match="horizon K must be an integer"):
                dc.AlgorithmParams(step=dc.ConstantStep(0.1), horizon=horizon)
        with pytest.raises(InvalidInstanceError, match="horizon K must be >= 0, got -1"):
            dc.AlgorithmParams(step=dc.ConstantStep(0.1), horizon=-1)
        assert type(dc.AlgorithmParams(step=dc.ConstantStep(0.1), horizon=np.int64(5)).horizon) is int

    @pytest.mark.parametrize("value", NOT_POSITIVE)
    @pytest.mark.parametrize("name", ["s", "a", "b", "xi", "nhat"])
    def test_positive_parameters_must_be_positive_and_finite(self, name, value):
        make = {
            "s": lambda: dc.ConstantStep(value),
            "a": lambda: dc.DiminishingStep(value, 1.0),
            "b": lambda: dc.DiminishingStep(1.0, value),
            "xi": lambda: dc.AlgorithmParams(step=dc.ConstantStep(0.1), xi=value),
            "nhat": lambda: dc.AlgorithmParams(step=dc.ConstantStep(0.1), nhat=value),
        }[name]
        with pytest.raises(InvalidInstanceError, match=f"{name}={value}"):
            make()

    @pytest.mark.parametrize("value", ["0.1", None])
    def test_stepsize_that_is_not_a_number_is_named(self, value):
        with pytest.raises(InvalidInstanceError, match=re.escape(f"stepsize s={value!r} must be positive")):
            dc.ConstantStep(value)

    @pytest.mark.parametrize("a, b, named", [(1.0, None, "b=None"), ("1", 2.0, "a='1'")])
    def test_schedule_that_is_not_a_number_is_named(self, a, b, named):
        with pytest.raises(InvalidInstanceError, match=re.escape(f"schedule {named} must be positive and finite")):
            dc.DiminishingStep(a, b)

    @pytest.mark.parametrize("name, value, rule", [
        ("xi", "1", "must be positive"), ("nhat", None, "must be positive"),
        ("gamma", "0.5", "must be a real number in (0, 1)"), ("gamma", None, "must be a real number in (0, 1)"),
    ])
    def test_params_that_are_not_numbers_are_named(self, name, value, rule):
        with pytest.raises(InvalidInstanceError, match=re.escape(f"{name}={value!r} {rule}")):
            dc.AlgorithmParams(step=dc.ConstantStep(0.1), **{name: value})

    @pytest.mark.parametrize("gamma", [0.0, 1.0, np.nan, np.inf])
    def test_gamma_must_lie_in_the_open_unit_interval(self, gamma):
        with pytest.raises(InvalidInstanceError, match=re.escape(f"gamma={gamma} must be a real number in (0, 1)")):
            dc.AlgorithmParams(step=dc.ConstantStep(0.1), gamma=gamma)
