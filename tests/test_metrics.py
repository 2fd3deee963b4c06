import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dercoord as dc
from dercoord.errors import DimensionMismatchError, FitWindowError
from dercoord import metrics
from dercoord.metrics import _ERROR_BLOCK_ENTRIES, RunTrace, flag_no_progress


def make_trace(p, **kwargs):
    return RunTrace(algorithm="pd1", p=np.asarray(p, dtype=float), **kwargs)


class TestConvergenceError:
    def solution(self, p_star):
        # a_i = 10/p_i equalizes marginal costs exactly at p_star, so the
        # oracle optimum is the requested dispatch
        p_star = np.asarray(p_star, float)
        inst = dc.ProblemInstance(
            p_star,
            np.full(len(p_star), -10.0),
            np.full(len(p_star), 10.0),
            dc.QuadraticCost(10.0 / p_star),
        )
        return dc.solve_bisection(inst)

    def test_row_distance_is_the_norm_bit_for_bit(self):
        # Rows long enough for the summation order to show, subnormal and overflowing ones, and rows and a p*
        # holding -0.0, +-inf, NaN and subnormals.
        rng = np.random.default_rng(7)
        special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310])
        rows, p_star = rng.normal(size=(40, 300)), rng.normal(size=300) * 1e-310
        rows[10:20] *= 1e-310
        rows[20:25] *= 1e300
        for row in rows[25:]:
            row[rng.integers(0, 300, size=3)] = rng.choice(special, 3)
        p_star[:5] = -0.0
        cases = [(rows, p_star), (special[:, None], special[:1]), (np.empty((0, 4)), np.ones(4)), (np.empty((4, 0)), [])]
        for rows, p_star in cases:
            with np.errstate(all="ignore"):
                got, want = metrics.row_distance(rows, p_star), np.linalg.norm(rows - p_star, axis=1)
            assert got.tobytes() == want.tobytes(), rows.shape

    def test_constant_at_optimum_is_zero(self):
        sol = self.solution([1.0, 2.0])
        trace = make_trace(np.tile(sol.p_star, (5, 1)))
        np.testing.assert_array_equal(dc.convergence_error(trace, sol), 0.0)

    def test_three_four_five(self):
        sol = self.solution([3.0, 4.0])
        trace = make_trace([[0.0, 0.0]])
        assert dc.convergence_error(trace, sol)[0] == pytest.approx(5.0)

    def test_dimension_mismatch(self):
        sol = self.solution([1.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            dc.convergence_error(make_trace([[0.0, 0.0, 0.0]]), sol)

    def test_invariant_under_consistent_permutation(self):
        sol = self.solution([1.0, 2.0, 4.0])
        rng = np.random.default_rng(0)
        p = rng.normal(size=(6, 3))
        trace = make_trace(p)
        err = dc.convergence_error(trace, sol)
        perm = np.array([2, 0, 1])
        sol_p = self.solution(np.asarray(sol.p_star)[perm])
        err_p = dc.convergence_error(make_trace(p[:, perm]), sol_p)
        np.testing.assert_allclose(err_p, err, atol=1e-12)

    @given(
        n=st.one_of(st.integers(1, 40), st.integers(_ERROR_BLOCK_ENTRIES + 1, _ERROR_BLOCK_ENTRIES + 40)),
        count=st.sampled_from(["0", "1", "block - 1", "block", "block + 1"]),
        scale=st.sampled_from([1e-300, 1.0, 1e160, 1e300]),
        bad=st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from([np.nan, np.inf, -np.inf]))),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocked_norm_equals_full_norm(self, n, count, scale, bad, seed):
        # One block holds _ERROR_BLOCK_ENTRIES // n rows, or one row when n exceeds it.
        block = max(1, _ERROR_BLOCK_ENTRIES // n)
        rows = {"0": 0, "1": 1, "block - 1": block - 1, "block": block, "block + 1": block + 1}[count]
        rng = np.random.default_rng(seed)
        p = scale * rng.normal(size=(rows, n))
        p_star = scale * rng.normal(size=n)
        for row, value in bad:
            if rows:
                p[row % rows, row % n] = value
        with np.errstate(over="ignore", invalid="ignore"):
            err = dc.convergence_error(make_trace(p), SimpleNamespace(p_star=p_star))
            want = np.linalg.norm(p - p_star, axis=1)
        assert err.shape == want.shape
        np.testing.assert_array_equal(err, want)
        assert np.array_equal(np.signbit(err), np.signbit(want))

    def test_memory_beyond_trace_does_not_grow_with_horizon(self, case39_directed):
        inst, g = case39_directed
        sol = dc.solve_bisection(inst, xi=0.2, nhat=20.0)

        def peak_beyond_trace(K):
            params = dc.AlgorithmParams(step=dc.ConstantStep(0.02), xi=0.2, nhat=20.0, gamma=0.9, horizon=K)
            sched = dc.GraphSchedule(g, 0.2, 1, K)
            sched.masks  # sampled before measuring
            tracemalloc.start()
            try:
                trace = dc.run("robust", inst, sched, params)
                err = dc.convergence_error(trace, sol)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            kept = [trace.p, trace.consensus, trace.y, trace.v, *trace.residuals.values(), err]
            return peak - sum(a.nbytes for a in kept)

        growth = peak_beyond_trace(20_000) - peak_beyond_trace(2_000)
        assert growth < 1_000_000, f"peak beyond the trace and error grew by {growth} bytes"


class TestWeightedNorm:
    def test_constant_series(self):
        assert dc.weighted_norm([3.0, 3.0, 3.0], 0.5, 2) == pytest.approx(12.0)

    def test_geometric_series_cancels(self):
        series = 7.0 * 0.5 ** np.arange(20)
        for K in (0, 5, 19):
            assert dc.weighted_norm(series, 0.5, K) == pytest.approx(7.0)

    def test_invalid_a_rejected(self):
        with pytest.raises(ValueError):
            dc.weighted_norm([1.0], 1.0, 0)
        with pytest.raises(ValueError):
            dc.weighted_norm([1.0], 0.0, 0)

    def test_K_must_be_an_integer(self):
        with pytest.raises(ValueError, match="K must be an integer, got 2.5"):
            dc.weighted_norm([1.0, 0.5, 0.25, 0.125], 0.5, 2.5)

    def test_nan_values_rejected(self):
        # A NaN entry fails the nonnegativity check, which would otherwise let the norm come out as nan.
        with pytest.raises(ValueError, match="series values must be nonnegative"):
            dc.weighted_norm([1.0, np.nan, 0.25], 0.5, 2)

    @given(
        a=st.floats(0.1, 0.95),
        K1=st.integers(0, 18),
        K2=st.integers(0, 18),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_K_antitone_in_a(self, a, K1, K2, seed):
        rng = np.random.default_rng(seed)
        series = rng.uniform(0.01, 2.0, size=19)
        lo, hi = min(K1, K2), max(K1, K2)
        assert dc.weighted_norm(series, a, lo) <= dc.weighted_norm(series, a, hi) + 1e-12
        a2 = min(0.99, a + 0.04)
        assert dc.weighted_norm(series, a2, hi) <= dc.weighted_norm(series, a, hi) * (1 + 1e-12)


class TestFitRate:
    def test_exact_geometric_series(self):
        series = 2.0 ** -np.arange(40.0)
        est = dc.fit_rate(series, window=(5, 30))
        assert est.rate == pytest.approx(0.5, abs=1e-12)
        assert est.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_default_window_is_last_half(self):
        series = 0.8 ** np.arange(30.0)
        est = dc.fit_rate(series)
        assert est.window == (15, 29)
        assert est.rate == pytest.approx(0.8, abs=1e-12)

    def test_small_additive_noise_barely_moves_fit(self):
        ks = np.arange(40.0)
        clean = dc.fit_rate(0.9**ks)
        noisy = dc.fit_rate(0.9**ks + 1e-12)
        assert abs(noisy.rate - clean.rate) <= 1e-3

    def test_diverging_series_flagged(self):
        est = dc.fit_rate(1.5 ** np.arange(20.0))
        assert est.rate > 1.0 and est.diverging

    def test_floor_values_excluded(self):
        series = np.concatenate([0.5 ** np.arange(30.0), np.full(10, 1e-16)])
        est = dc.fit_rate(series, window=(0, 39))
        assert est.n_points == 30
        assert est.rate == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("window", [(0.5, 8), (0, 8.0), (None, 8)])
    def test_window_ends_must_be_integers(self, window):
        with pytest.raises(ValueError, match="window end must be an integer"):
            dc.fit_rate(0.5 ** np.arange(10.0), window=window)

    def test_unusable_window_suggests_start(self):
        series = np.concatenate([np.zeros(5), 0.5 ** np.arange(10.0)])
        with pytest.raises(FitWindowError) as err:
            dc.fit_rate(series, window=(0, 4))
        assert err.value.suggested_start == 5


class TestInvariantReport:
    def healthy_trace(self, case39_undirected=None):
        inst = dc.generate_instance(dc.InstanceSpec(n=6), seed=1)
        g = dc.generate_graph(dc.GraphSpec(n=6, extra_edges=2, directed=False), 3)
        params = dc.AlgorithmParams(step=dc.ConstantStep(0.05), xi=0.5, nhat=6.0, horizon=400)
        sched = dc.GraphSchedule(g, 0.2, 4, 400)
        return dc.run("pd1", inst, sched, params), sched

    def test_healthy_run_passes_budgets(self):
        trace, _ = self.healthy_trace()
        report = dc.invariant_report(trace)
        assert report.passed
        assert report["conservation"].value <= dc.BUDGETS["conservation"]

    def test_corrupted_step_is_localized(self):
        trace, _ = self.healthy_trace()
        trace.residuals["conservation"] = trace.residuals["conservation"].copy()
        trace.residuals["conservation"][137] = 0.5  # inject a fault at one step
        report = dc.invariant_report(trace)
        assert not report.passed
        check = report["conservation"]
        assert not check.passed and check.worst_step == 137

    def test_v_floor_reported_with_margin(self):
        inst = dc.generate_instance(dc.InstanceSpec(n=3), seed=2)
        g = dc.NominalGraph(3, [(0, 1), (1, 2), (2, 0)], True)
        params = dc.AlgorithmParams(
            step=dc.ConstantStep(0.02), xi=0.2, nhat=3.0, gamma=0.9, horizon=60
        )
        sched = dc.GraphSchedule(g, 0.2, 8, 60)
        trace = dc.run("robust", inst, sched, params)
        report = dc.invariant_report(trace, schedule=sched)
        check = report["v_floor"]
        assert check.passed
        assert check.budget is not None
        assert check.value - check.budget > 6  # decades: the bound is very loose
        assert check.value == math.log10(trace.residuals["min_v"][1:].min())

    def test_v_floor_fails_below_the_bound(self):
        inst = dc.generate_instance(dc.InstanceSpec(n=3), seed=2)
        g = dc.NominalGraph(3, [(0, 1), (1, 2), (2, 0)], True)
        params = dc.AlgorithmParams(
            step=dc.ConstantStep(0.02), xi=0.2, nhat=3.0, gamma=0.9, horizon=60
        )
        sched = dc.GraphSchedule(g, 0.2, 8, 60)
        trace = dc.run("robust", inst, sched, params)
        budget = dc.invariant_report(trace, schedule=sched)["v_floor"].budget
        trace.residuals["min_v"][17] = 10.0 ** (budget - 0.5)
        check = dc.invariant_report(trace, schedule=sched)["v_floor"]
        assert not check.passed and check.worst_step == 17
        assert check.budget == budget

    @pytest.mark.parametrize("algorithm", ["robust", "virtual"])
    def test_v_floor_informational_at_horizon_zero(self, algorithm):
        inst = dc.generate_instance(dc.InstanceSpec(n=3), seed=2)
        g = dc.NominalGraph(3, [(0, 1), (1, 2), (2, 0)], True)
        params = dc.AlgorithmParams(
            step=dc.ConstantStep(0.02), xi=0.2, nhat=3.0, gamma=0.9, horizon=0
        )
        sched = dc.GraphSchedule(g, 0.2, 8, 0)
        trace = dc.run(algorithm, inst, sched, params)
        check = dc.invariant_report(trace, schedule=sched)["v_floor"]
        assert check.passed and check.budget is None
        assert math.isnan(check.value)

    @pytest.mark.parametrize("algorithm", ["robust", "virtual"])
    def test_min_v_skips_the_zero_start_of_virtual_nodes(self, algorithm):
        inst = dc.generate_instance(dc.InstanceSpec(n=3), seed=2)
        g = dc.NominalGraph(3, [(0, 1), (1, 2), (2, 0)], True)
        for K in (60, 0):
            params = dc.AlgorithmParams(
                step=dc.ConstantStep(0.02), xi=0.2, nhat=3.0, gamma=0.9, horizon=K
            )
            trace = dc.run(algorithm, inst, dc.GraphSchedule(g, 0.2, 8, K), params)
            series = trace.residuals["min_v"]
            assert series[0] == 0.0  # virtual nodes start empty
            check = dc.invariant_report(trace)["min_v"]
            assert check.budget is None and check.passed
            if K:
                assert check.value > 0.0 and check.value == series[1:].min()
                assert check.worst_step == 1 + int(np.argmin(series[1:]))
            else:
                assert math.isnan(check.value) and check.worst_step == 0

    def test_v_floor_budget_does_not_underflow_on_case39(self, repo_root):
        # (1-gamma)/n * tau^(N(2B-1)) is far below the smallest double here
        config = dc.load_config(repo_root / "configs" / "benchmark39_robust.cfg")
        sched = dc.GraphSchedule(config.graph, config.q, 1, config.params.horizon)
        trace = dc.run("robust", config.instance, sched, config.params)
        check = dc.invariant_report(trace, schedule=sched)["v_floor"]
        assert np.isfinite(check.budget) and check.budget < -400
        assert check.passed


class TestRateCertificate:
    def test_weighted_norm_bounded_at_fitted_rate(self):
        # on a converged run, a^{-k}||err|| stays bounded in K for the
        # fitted a, certifying O(a^k) decay over the decay window
        inst = dc.generate_instance(dc.InstanceSpec(n=6), seed=1)
        g = dc.generate_graph(dc.GraphSpec(n=6, extra_edges=2, directed=False), 3)
        params = dc.AlgorithmParams(step=dc.ConstantStep(0.05), xi=0.5, nhat=6.0, horizon=700)
        trace = dc.run("pd1", inst, dc.GraphSchedule(g, 0.2, 4, 700), params)
        sol = dc.solve_bisection(inst, xi=0.5, nhat=6.0)
        err = dc.convergence_error(trace, sol)
        stop = int(np.argmax(err <= 1e-10 * err[0]))
        window = (stop // 4, stop)
        fit = dc.fit_rate(err, window=window)
        assert fit.rate < 1.0
        # pad the rate slightly: the fit is a least-squares mid-line
        a = min(0.999, fit.rate * 1.05)
        series = err[window[0] : window[1] + 1]
        norms = [dc.weighted_norm(series, a, K) for K in range(10, len(series), 50)]
        assert max(norms) <= 1e3 * norms[0]


class TestDeviationSeries:
    def test_consensus_deviation_zero_at_consensus(self):
        trace = make_trace(
            np.zeros((3, 2)), consensus=np.full((3, 2), 1.5), v=np.ones((3, 2))
        )
        np.testing.assert_allclose(dc.consensus_deviation(trace), 0.0, atol=1e-15)

    def test_deviation_from_optimum_shrinks_on_converging_run(self):
        inst = dc.generate_instance(dc.InstanceSpec(n=5), seed=3)
        g = dc.generate_graph(dc.GraphSpec(n=5, extra_edges=2, directed=False), 1)
        params = dc.AlgorithmParams(step=dc.ConstantStep(0.05), xi=0.5, nhat=5.0, horizon=2000)
        sched = dc.GraphSchedule(g, 0.1, 2, 2000)
        trace = dc.run("pd1", inst, sched, params)
        sol = dc.solve_bisection(inst, xi=0.5, nhat=5.0)
        z = dc.deviation_from_optimum(trace, sol)
        assert z[-1] <= 1e-6 * z[0]


class TestReducedTrace:
    """A run given an optimum keeps reductions, not states: what reads a series fails by name, the rest works."""

    @pytest.fixture
    def runs(self, case39_directed):
        inst, g = case39_directed
        params = dc.AlgorithmParams(step=dc.ConstantStep(0.02), xi=0.2, nhat=20.0, gamma=0.9, horizon=50)
        sched = dc.GraphSchedule(g, 0.2, 1, 50)
        sol = dc.solve_bisection(inst, xi=0.2, nhat=20.0)
        return dc.run("robust", inst, sched, params), dc.run("robust", inst, sched, params, optimum=sol), sched, sol

    @pytest.mark.parametrize("read", [
        lambda trace, sol: dc.convergence_error(trace, sol),
        lambda trace, sol: dc.consensus_deviation(trace),
        lambda trace, sol: dc.deviation_from_optimum(trace, sol),
    ], ids=["convergence_error", "consensus_deviation", "deviation_from_optimum"])
    def test_a_series_reader_points_to_err_p(self, runs, read):
        full, reduced, _, sol = runs
        read(full, sol)
        with pytest.raises(ValueError, match=r"no state series .*residuals\['err_p'\]"):
            read(reduced, sol)

    def test_steps_and_invariant_report_read_both_kinds(self, runs):
        full, reduced, sched, _ = runs
        assert full.steps == reduced.steps == 50
        assert reduced.p.shape == (0, full.p.shape[1])
        assert dc.invariant_report(reduced, sched) == dc.invariant_report(full, sched)
        assert "v_floor" in dc.invariant_report(reduced, sched)

    def test_an_optimum_of_another_size_is_refused(self, runs, case39_directed):
        _, reduced, sched, sol = runs
        inst, _ = case39_directed
        short = SimpleNamespace(p_star=sol.p_star[:-1])
        with pytest.raises(DimensionMismatchError, match=r"optimum\.p_star: expected shape \(39,\), got \(38,\)"):
            dc.run("robust", inst, sched, reduced.params, optimum=short)


class TestNoProgressFlag:
    def test_limit_cycle_flagged(self):
        imbalance = np.tile([5.0, 5.0], 100)
        assert flag_no_progress(imbalance)

    def test_decaying_run_not_flagged(self):
        assert not flag_no_progress(5.0 * 0.9 ** np.arange(200.0))

    def test_balanced_start_not_flagged(self):
        assert not flag_no_progress(np.zeros(100))
