import itertools
import re
import tracemalloc
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dercoord as dc
from dercoord.algorithms import _MIN_BLOCK_ROWS, _RESIDUAL_BLOCK_ENTRIES
from dercoord import algorithms
from dercoord.errors import (
    DercoordError,
    DimensionMismatchError,
    DivergenceError,
    InternalInvariantError,
    ModeMismatchError,
)
from dercoord.metrics import BUDGETS
from reference import (
    CONFIGS,
    augmented_push_matrix,
    directed,
    fields_of,
    push_matrix,
    reference_run,
    run_over,
)


def ring(n, directed):
    return dc.NominalGraph(n, [(i, (i + 1) % n) for i in range(n)], directed)


def params_for(n, s=0.05, xi=0.5, horizon=100, gamma=0.9):
    return dc.AlgorithmParams(
        step=dc.ConstantStep(s), xi=xi, nhat=float(n), gamma=gamma, horizon=horizon
    )


class TestInitialization:
    def test_tracker_starts_at_scaled_local_imbalance(self, small_instance):
        params = params_for(3)
        state = dc.initial_state("pd1", small_instance, ring(3, False), params, p0=[0.5, 1.0, 2.0])
        np.testing.assert_allclose(
            state.y, params.nhat * (np.array([0.5, 1.0, 2.0]) - small_instance.loads)
        )
        assert np.sum(state.y) == pytest.approx(
            params.nhat * np.sum(state.p - small_instance.loads)
        )

    def test_default_start_is_clamped_zero(self):
        inst = dc.ProblemInstance([2.0], [1.0], [5.0], dc.QuadraticCost([1.0]))
        state = dc.initial_state("pd1", inst, dc.NominalGraph(1, [], False), params_for(1))
        assert state.p[0] == 1.0  # zero clamped up to the floor

    def test_directed_init_values(self, small_instance):
        state = dc.initial_state("directed", small_instance, ring(3, True), params_for(3))
        np.testing.assert_array_equal(state.lam, 0.0)
        np.testing.assert_array_equal(state.x, 0.0)
        np.testing.assert_array_equal(state.v, 1.0)

    def test_virtual_start_pads_one_node_per_arc(self, small_instance):
        g = dc.NominalGraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)], True)
        state = dc.initial_state("virtual", small_instance, g, params_for(3))
        direct = dc.initial_state("directed", small_instance, g, params_for(3))
        assert state.nodes.shape == (5, 3 + g.m)
        np.testing.assert_array_equal(state.nodes[:, :3], direct.nodes)
        np.testing.assert_array_equal(state.nodes[:, 3:], 0.0)

    def test_virtual_start_rejects_undirected_graph(self, small_instance):
        params = params_for(3)
        with pytest.raises(ModeMismatchError, match="virtual requires a directed graph"):
            dc.initial_state("virtual", small_instance, ring(3, False), params)
        sol = dc.solve_bisection(small_instance, xi=params.xi, nhat=params.nhat)
        with pytest.raises(ModeMismatchError, match="virtual requires a directed graph"):
            dc.equilibrium_state("virtual", small_instance, ring(3, False), params, sol)

    @pytest.mark.parametrize("algorithm", dc.ALGORITHMS)
    def test_start_rejects_graph_of_another_size(self, small_instance, algorithm):
        # 3 agents on a 4-node graph
        params = params_for(3)
        graph = ring(4, directed(algorithm))
        with pytest.raises(ModeMismatchError, match="graph has 4 nodes, instance has 3"):
            dc.initial_state(algorithm, small_instance, graph, params)
        sol = dc.solve_bisection(small_instance, xi=params.xi, nhat=params.nhat)
        with pytest.raises(ModeMismatchError, match="graph has 4 nodes, instance has 3"):
            dc.equilibrium_state(algorithm, small_instance, graph, params, sol)


class TestUndirectedSteps:
    def test_balanced_start_keeps_multiplier_at_zero(self, small_instance):
        params = params_for(3)
        g = ring(3, False)
        for algorithm in (a for a in dc.ALGORITHMS if not directed(a)):
            state = dc.initial_state(algorithm, small_instance, g, params, p0=small_instance.loads)
            new = run_over(algorithm, small_instance, g, [np.ones(3, bool)], params, state).final
            np.testing.assert_allclose(new.lam, 0.0, atol=1e-15)

    def test_conservation_after_one_step(self, small_instance):
        params = params_for(3)
        g = ring(3, False)
        state = dc.initial_state("pd1", small_instance, g, params, p0=[0.1, 2.3, 0.7])
        new = run_over("pd1", small_instance, g, [[True, False, True]], params, state).final
        lhs = np.sum(new.y)
        rhs = params.nhat * np.sum(new.p - small_instance.loads)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_pd1_fixed_point(self, small_instance):
        params = params_for(3)
        sol = dc.solve_bisection(small_instance, xi=params.xi, nhat=params.nhat)
        g = ring(3, False)
        state = dc.equilibrium_state("pd1", small_instance, g, params, sol)
        assert np.abs(state.y).max() == 0.0
        new = run_over("pd1", small_instance, g, [np.ones(3, bool)], params, state).final
        np.testing.assert_allclose(new.p, state.p, atol=1e-14)
        np.testing.assert_allclose(new.lam, state.lam, atol=1e-14)

    def test_pd2_has_no_tracker(self, small_instance):
        params = params_for(3)
        g = ring(3, False)
        state = dc.initial_state("pd2", small_instance, g, params)
        trace = run_over("pd2", small_instance, g, [np.ones(3, bool)], params, state)
        assert trace.y is None and trace.final.y is None

    def test_divergence_guard(self, small_instance):
        params = params_for(3)
        bad = dc.UndirectedState(np.stack([[0.0, np.nan, 0.0], np.zeros(3), np.zeros(3)]))  # p, lam, y
        g = ring(3, False)
        with pytest.raises(DivergenceError, match=r"at step 0 \(pd1: p\)$"):  # the start is checked before any step
            run_over("pd1", small_instance, g, [np.ones(3, bool)], params, bad)


class TestDirectedSteps:
    def test_two_node_symmetric_push_keeps_unit_weights(self):
        inst = dc.ProblemInstance([1.0, 1.0], [0.0] * 2, [4.0] * 2, dc.QuadraticCost([1.0, 2.0]))
        g = dc.NominalGraph(2, [(0, 1), (1, 0)], True)
        params = params_for(2, horizon=10)
        sched = dc.GraphSchedule(g, 0.0, 0, 10)
        trace = dc.run("directed", inst, sched, params)
        np.testing.assert_allclose(trace.v, 1.0, atol=1e-14)
        # with unit weights the ratio equals the raw multiplier estimate
        lam = trace.consensus * trace.v
        np.testing.assert_allclose(trace.consensus, lam, atol=1e-14)

    def test_multiplier_total_identity(self, small_instance):
        # 1'lam[k+1] = 1'lam[k] - s 1'y[k] for any column-stochastic mixing
        g = ring(3, True)
        params = params_for(3)
        state = dc.initial_state("directed", small_instance, g, params, p0=[0.2, 0.9, 1.4])
        new = run_over("directed", small_instance, g, [[True, False, True]], params, state).final
        expect = np.sum(state.lam) - params.stepsize(0) * np.sum(state.y)
        assert np.sum(new.lam) == pytest.approx(expect, abs=1e-12)

    def test_ratio_consensus_reaches_average_on_frozen_values(self):
        # pure push-sum anchor: mixing alone drives the ratio to the mean
        g = ring(3, True)
        sched = dc.GraphSchedule(g, 0.2, 17, 300)
        lam = np.array([3.0, -1.0, 2.0])
        v = np.ones(3)
        for k in range(300):
            P = push_matrix(g, sched.active_mask(k))
            lam, v = P @ lam, P @ v
        np.testing.assert_allclose(lam / v, np.mean([3.0, -1.0, 2.0]), atol=1e-10)

    def test_three_ring_converges_to_oracle(self, small_instance):
        g = ring(3, True)
        params = params_for(3, s=0.05, xi=0.5, horizon=5000)
        sol = dc.solve_bisection(small_instance, xi=0.5, nhat=3.0)
        trace = dc.run("directed", small_instance, dc.GraphSchedule(g, 0.2, 2, 5000), params)
        err = dc.convergence_error(trace, sol)
        assert err[-1] <= 1e-6

    def test_fixed_point(self, small_instance):
        params = params_for(3)
        sol = dc.solve_bisection(small_instance, xi=params.xi, nhat=params.nhat)
        g = ring(3, True)
        state = dc.equilibrium_state("directed", small_instance, g, params, sol)
        new = run_over("directed", small_instance, g, [[True, True, False]], params, state).final
        np.testing.assert_allclose(new.p, state.p, atol=1e-13)
        np.testing.assert_allclose(new.x, state.x, atol=1e-13)


class TestRobustSteps:
    def pinned_instance(self):
        # box [0,0] freezes the dispatch so the consensus layer is isolated
        return dc.ProblemInstance([0.0, 0.0], [0.0] * 2, [0.0] * 2, dc.QuadraticCost([1.0, 1.0]))

    def test_mirror_three_case_update(self):
        inst = self.pinned_instance()
        g = dc.NominalGraph(2, [(0, 1), (1, 0)], True)
        params = params_for(2, gamma=0.9)
        state = dc.initial_state("robust", inst, g, params)
        # craft: node 0's broadcast running sum is 1.0, mirror still 0
        state = replace(state, nodes=state.nodes.copy())
        state.sums[0] = [1.0, 0.0]  # the lam row
        active = np.array([True, False])  # only arc (0, 1) delivers
        new = run_over("robust", inst, g, [active], params, state).final
        l01 = 0  # position of arc (0, 1) in the edge list
        assert new.mirror[0, l01] == pytest.approx(0.9)  # (1-g)*0 + g*1.0
        assert new.lam[1] == pytest.approx(0.9)  # delivered contribution
        l10 = 1
        assert new.mirror[0, l10] == 0.0  # undelivered arc unchanged

    def test_sidecar_matches_virtual_twin(self, case39_directed):
        # the in-flight sidecar is the virtual twin's virtual-node state
        inst, g = case39_directed
        params = dc.AlgorithmParams(
            step=dc.ConstantStep(0.02), xi=0.2, nhat=20.0, gamma=0.9, horizon=1200
        )
        sched = dc.GraphSchedule(g, 0.2, 1, 1200)
        robust = dc.initial_state("robust", inst, g, params)
        twin = dc.initial_state("virtual", inst, g, params)
        n = inst.n
        worst = 0.0
        for active in sched.masks:  # one run per step: the constant step needs no step index
            robust = run_over("robust", inst, g, [active], params, robust).final
            twin = run_over("virtual", inst, g, [active], params, twin).final
            for row in range(3):  # lam, v, y
                gap = np.abs(twin.z[row, n:] - robust.virt[row]).max()
                worst = max(worst, float(gap))
        assert worst <= BUDGETS["conservation"]

    def test_failure_free_high_gamma_limit(self, small_instance):
        # q=0, gamma near 1: virtual nodes hold vanishing mass and the
        # trace still reaches the exact optimum
        g = dc.NominalGraph(3, [(0, 1), (1, 2), (2, 0), (0, 2), (2, 1)], True)
        params = dc.AlgorithmParams(
            step=dc.ConstantStep(0.05), xi=0.5, nhat=3.0, gamma=0.999, horizon=4000
        )
        sched = dc.GraphSchedule(g, 0.0, 1, 4000)
        trr = dc.run("robust", small_instance, sched, params)
        trv = dc.run("virtual", small_instance, sched, params)
        np.testing.assert_allclose(trr.p, trv.p, atol=1e-12)
        sol = dc.solve_bisection(small_instance, xi=0.5, nhat=3.0)
        assert dc.convergence_error(trr, sol)[-1] <= 1e-8
        virtual_mass = 3.0 - trr.v[-1].sum()
        assert 0 <= virtual_mass <= 0.05

    def test_equivalence_spot_check(self, small_instance):
        g = dc.NominalGraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)], True)
        params = params_for(3, horizon=150)
        sched = dc.GraphSchedule(g, 0.3, 11, 150)
        trr = dc.run("robust", small_instance, sched, params)
        trv = dc.run("virtual", small_instance, sched, params)
        for field in ("p", "consensus", "y", "v"):
            np.testing.assert_allclose(
                getattr(trr, field), getattr(trv, field), atol=1e-12
            )


class TestVirtualDomain:
    def test_step_equals_matrix_action(self, small_instance):
        g = dc.NominalGraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)], True)
        params = params_for(3, horizon=30)
        sched = dc.GraphSchedule(g, 0.3, 7, 30)
        state = dc.initial_state("virtual", small_instance, g, params)
        n = 3
        for k in range(30):
            act = sched.active_mask(k)
            P = augmented_push_matrix(g, act, params.gamma)
            s = params.stepsize(k)
            lam_ref = P @ state.lam
            Py = P @ state.y
            lam_ref[:n] -= s * Py[:n]
            v_ref = P @ state.v
            state = run_over("virtual", small_instance, g, [act], params, state).final
            np.testing.assert_allclose(state.lam, lam_ref, atol=1e-13)
            np.testing.assert_allclose(state.v, v_ref, atol=1e-13)

    def test_augmented_mass_and_virtual_dispatch_stay_pinned(self, small_instance):
        g = dc.NominalGraph(3, [(0, 1), (1, 2), (2, 0)], True)
        params = params_for(3, horizon=200)
        sched = dc.GraphSchedule(g, 0.2, 3, 200)
        state = dc.initial_state("virtual", small_instance, g, params)
        for k in range(200):
            state = run_over("virtual", small_instance, g, [sched.active_mask(k)], params, state).final
            assert np.sum(state.v) == pytest.approx(3.0, abs=1e-12)
            assert np.all(state.p[3:] == 0.0)


class TestRun:
    def test_zero_horizon_records_initial_state_only(self, small_instance):
        g = ring(3, False)
        params = params_for(3, horizon=0)
        trace = dc.run("pd1", small_instance, dc.GraphSchedule(g, 0.2, 1, 0), params)
        assert trace.p.shape == (1, 3)
        assert trace.steps == 0

    def test_mode_mismatch_rejected(self, small_instance):
        params = params_for(3)
        with pytest.raises(ModeMismatchError):
            dc.run("pd1", small_instance, dc.GraphSchedule(ring(3, True), 0.2, 1, 100), params)
        with pytest.raises(ModeMismatchError):
            dc.run("directed", small_instance, dc.GraphSchedule(ring(3, False), 0.2, 1, 100), params)
        with pytest.raises(ModeMismatchError):
            dc.run("nope", small_instance, dc.GraphSchedule(ring(3, False), 0.2, 1, 100), params)

    def test_check_pairing_rejects_unknown_ids(self, small_instance):
        for graph in (ring(3, False), ring(3, True)):
            with pytest.raises(ModeMismatchError, match="unknown algorithm 'warp'"):
                algorithms.check_pairing("warp", small_instance, graph)

    def test_init_of_another_algorithm_rejected(self, small_instance):
        params = params_for(3)
        g = ring(3, True)
        sched = dc.GraphSchedule(ring(3, False), 0.2, 1, 100)
        with pytest.raises(ModeMismatchError, match="UndirectedState.*DirectedState"):
            dc.run("pd1", small_instance, sched, params, init=dc.initial_state("directed", small_instance, g, params))
        directed_sched = dc.GraphSchedule(g, 0.2, 1, 100)
        twin = dc.initial_state("virtual", small_instance, g, params)
        with pytest.raises(ModeMismatchError, match="DirectedState.*VirtualState"):
            dc.run("directed", small_instance, directed_sched, params, init=twin)

    def test_init_of_wrong_length_names_the_field(self, small_instance):
        params = params_for(3)
        sched = dc.GraphSchedule(ring(3, False), 0.2, 1, 100)
        state = dc.initial_state("pd1", small_instance, ring(3, False), params)
        with pytest.raises(DimensionMismatchError, match=r"init\.nodes: expected shape \(3, 3\), got \(3, 4\)"):
            dc.run("pd1", small_instance, sched, params, init=replace(state, nodes=np.zeros((3, 4))))
        with pytest.raises(DimensionMismatchError, match=r"init\.nodes: expected shape \(3, 3\), got \(2, 3\)"):
            dc.run("pd1", small_instance, sched, params, init=replace(state, nodes=np.zeros((2, 3))))
        # pd1 and pd2 share the state type, but not its rows.
        pd2_state = dc.initial_state("pd2", small_instance, ring(3, False), params)
        with pytest.raises(DimensionMismatchError, match=r"init\.nodes: expected shape \(2, 3\), got \(3, 3\)"):
            dc.run("pd2", small_instance, sched, params, init=state)
        with pytest.raises(DimensionMismatchError, match=r"init\.nodes: expected shape \(3, 3\), got \(2, 3\)"):
            dc.run("pd1", small_instance, sched, params, init=pd2_state)
        g = ring(3, True)
        robust = dc.initial_state("robust", small_instance, g, params)
        with pytest.raises(DimensionMismatchError, match=r"init\.arcs: expected shape \(6, 3\), got \(6, 2\)"):
            dc.run("robust", small_instance, dc.GraphSchedule(g, 0.2, 1, 100), params,
                   init=replace(robust, arcs=np.zeros((6, 2))))
        twin = dc.initial_state("virtual", small_instance, g, params)
        with pytest.raises(DimensionMismatchError, match=r"init\.nodes: expected shape \(5, 6\), got \(5, 3\)"):
            dc.run("virtual", small_instance, dc.GraphSchedule(g, 0.2, 1, 100), params,
                   init=replace(twin, nodes=np.zeros((5, 3))))

    def test_repeat_runs_identical(self, small_instance):
        g = ring(3, True)
        params = params_for(3, horizon=200)
        sched = dc.GraphSchedule(g, 0.3, 9, 200)
        t1 = dc.run("directed", small_instance, sched, params)
        t2 = dc.run("directed", small_instance, sched, params)
        assert np.array_equal(t1.p, t2.p)
        assert np.array_equal(t1.consensus, t2.consensus)
        assert t1.schedule_digest == t2.schedule_digest

    def test_single_agent_degeneracy_matches_centralized(self):
        inst = dc.ProblemInstance([5.0], [0.0], [10.0], dc.QuadraticCost([1.0]))
        params = dc.AlgorithmParams(step=dc.ConstantStep(0.1), xi=1.0, nhat=1.0, horizon=300)
        reference = dc.run("centralized", inst, dc.GraphSchedule(dc.NominalGraph(1, [], False), 0.0, 0, 300), params)
        for alg in dc.ALGORITHMS:
            g = dc.NominalGraph(1, [], directed(alg))
            trace = dc.run(alg, inst, dc.GraphSchedule(g, 0.0, 0, 300), params)
            np.testing.assert_allclose(trace.p, reference.p, atol=1e-12)

    def test_permutation_equivariance(self, small_instance):
        g = dc.NominalGraph(3, [(0, 1), (1, 2), (2, 0)], False)
        params = params_for(3, horizon=150)
        perm = np.array([2, 0, 1])
        permuted_inst = dc.ProblemInstance(
            small_instance.loads[perm],
            small_instance.p_lo[perm],
            small_instance.p_hi[perm],
            dc.QuadraticCost(small_instance.cost.a[perm]),
        )
        base = dc.run("pd1", small_instance, dc.GraphSchedule(g, 0.3, 4, 150), params)
        # new agent r carries base agent perm[r], so base node b relabels to
        # the inverse image of perm
        relabel = np.empty(3, dtype=int)
        relabel[perm] = np.arange(3)
        g2 = g.relabeled(relabel)
        other = dc.run("pd1", permuted_inst, dc.GraphSchedule(g2, 0.3, 4, 150), params)
        np.testing.assert_allclose(other.p, base.p[:, perm], atol=1e-12)
        np.testing.assert_allclose(other.consensus, base.consensus[:, perm], atol=1e-12)

    def test_connectivity_warning_when_links_never_fire(self, small_instance):
        g = ring(3, False)
        params = params_for(3, horizon=2)
        sched = dc.GraphSchedule(g, 0.99, 12, 2)
        masks = np.stack([sched.active_mask(k) for k in range(2)])
        trace = dc.run("pd1", small_instance, sched, params)
        if not masks.any():
            assert any("connectivity" in w for w in trace.warnings)
        else:  # seed-dependent guard: the chosen seed must keep all links dark
            pytest.fail("seed 12 unexpectedly produced an active link")

    def test_no_connectivity_warning_for_a_step_that_reads_no_link(self, small_instance):
        sched = dc.GraphSchedule(dc.NominalGraph(3, [(0, 1), (1, 2)], False), 0.999, 12, 2)
        assert not sched.masks.any()
        params = params_for(3, horizon=2)
        assert dc.run("centralized", small_instance, sched, params).warnings == []
        assert any("connectivity" in w for w in dc.run("pd1", small_instance, sched, params).warnings)

    def test_scaling_warning_recorded(self, small_instance):
        g = ring(3, False)
        params = dc.AlgorithmParams(step=dc.ConstantStep(0.01), xi=2.0, nhat=3.0, horizon=5)
        trace = dc.run("pd1", small_instance, dc.GraphSchedule(g, 0.0, 0, 5), params)
        assert any("xi*nhat" in w for w in trace.warnings)

    def test_trace_digest_matches_schedule(self, small_instance):
        g = ring(3, False)
        params = params_for(3, horizon=10)
        sched = dc.GraphSchedule(g, 0.2, 6, 10)
        trace = dc.run("pd1", small_instance, sched, params)
        assert trace.schedule_digest == sched.digest()

    def test_no_dense_matrix_in_any_step(self):
        # One dense 2000 x 2000 float64 matrix is 32 MB; edge-list mixing
        # needs O(n + m).
        n = 2000
        inst = dc.generate_instance(dc.InstanceSpec(n=n), seed=1)
        ring_edges = [(i, (i + 1) % n) for i in range(n)]
        graphs = {
            False: dc.NominalGraph(n, ring_edges + [(i, (i + 7) % n) for i in range(0, n, 3)], False),
            True: dc.NominalGraph(n, ring_edges + [(j, i) for i, j in ring_edges], True),
        }
        params = dc.AlgorithmParams(step=dc.ConstantStep(0.01), xi=0.05, nhat=float(n), horizon=3)
        for algorithm in dc.ALGORITHMS:
            sched = dc.GraphSchedule(graphs[directed(algorithm)], 0.2, 1, 3)
            sched.masks  # sampled before measuring
            tracemalloc.start()
            try:
                dc.run(algorithm, inst, sched, params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8_000_000, f"{algorithm}: tracemalloc peak {peak} bytes"

    def test_converged_consensus_state_satisfies_kkt(self, small_instance):
        # small spread plus a frozen dispatch certify a KKT point: spread
        # <= 1e-8 and |p[K]-p[K-1]| <= 1e-10 imply residual <= 1e-6
        g = dc.NominalGraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)], True)
        params = params_for(3, s=0.05, xi=0.5, horizon=4000)
        sched = dc.GraphSchedule(g, 0.2, 8, 4000)
        trace = dc.run("directed", small_instance, sched, params)
        spread = trace.residuals["consensus_spread"][-1]
        dp = np.linalg.norm(trace.p[-1] - trace.p[-2])
        assert spread <= 1e-8 and dp <= 1e-10  # premises hold at convergence
        x_bar = trace.consensus[-1].mean()
        lam = x_bar * small_instance.n / params.nhat
        res = dc.kkt_residual(small_instance, trace.p[-1], lam, params.xi, params.nhat)
        assert res <= 1e-6


class TestResume:
    """`run(..., init=trace.final)` over the masks that remain continues a run bit for bit."""

    @pytest.mark.parametrize("algorithm", dc.ALGORITHMS)
    def test_resumed_run_continues_the_uninterrupted_one(self, repo_root, algorithm):
        name = CONFIGS[algorithm]
        config = dc.load_config(repo_root / "configs" / f"benchmark39_{name}.cfg")
        inst, params = config.instance, config.params
        K = params.horizon
        k1 = 2 * K // 5 + 1  # inside a block
        sched = dc.GraphSchedule(config.graph, config.q, 1, K)
        whole = dc.run(algorithm, inst, sched, params)
        head = dc.run(algorithm, inst, sched, replace(params, horizon=k1))
        # The resumed run numbers its steps from 0, so pd2's DiminishingStep(a, b) resumes as (a, b + k1).
        step = replace(params.step, b=params.step.b + k1) if algorithm == "pd2" else params.step
        tail = run_over(algorithm, inst, config.graph, sched.masks[k1:], replace(params, step=step), head.final)
        for name in ("p", "consensus", "y", "v"):
            series = getattr(whole, name)
            if series is None:
                assert getattr(head, name) is None and getattr(tail, name) is None, name
                continue
            assert bit_equal(getattr(head, name), series[: k1 + 1]), name
            assert bit_equal(getattr(tail, name), series[k1:]), name
        assert set(head.residuals) == set(tail.residuals) == set(whole.residuals)
        for key, series in whole.residuals.items():
            assert bit_equal(head.residuals[key], series[: k1 + 1]), key
            assert bit_equal(tail.residuals[key][1:], series[k1 + 1 :]), key
        for f in fields(whole.final):
            assert bit_equal(getattr(tail.final, f.name), getattr(whole.final, f.name)), f.name

    @pytest.mark.parametrize("algorithm", dc.ALGORITHMS)
    def test_final_is_a_copy_of_the_last_state(self, small_instance, algorithm):
        g = ring(3, directed(algorithm))
        init = dc.initial_state(algorithm, small_instance, g, params_for(3))
        for K in (0, 5):
            params = params_for(3, horizon=K)
            trace = dc.run(algorithm, small_instance, dc.GraphSchedule(g, 0.2, 1, K), params, init=init)
            final = trace.final
            assert type(final) is type(init)
            assert bit_equal(final.p[:3], trace.p[-1])
            kept = [a for a in (trace.p, trace.consensus, trace.y, trace.v) if a is not None]
            for f in fields(final):
                got, start = getattr(final, f.name), getattr(init, f.name)
                assert not any(np.shares_memory(got, a) for a in [*kept, *trace.residuals.values(), start]), f.name
                assert K or bit_equal(got, start), f.name


def block_rows(g):
    return max(_MIN_BLOCK_ROWS, _RESIDUAL_BLOCK_ENTRIES // max(g.m, 1))


class TestResidualBlocks:
    """`run` reduces the residual series per block of recorded rows, as `reference_run` does per state."""

    @given(
        algorithm=st.sampled_from(dc.ALGORITHMS),
        n=st.integers(4, 12),
        extra=st.integers(2, 10),
        seed=st.integers(0, 2**32),
        q=st.floats(0.0, 0.95),
        gamma=st.floats(0.01, 0.99),
        horizon=st.sampled_from(["0", "1", "rows-1", "rows", "rows+1"]),
        equilibrium=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_residuals_equal_stepwise(self, algorithm, n, extra, seed, q, gamma, horizon, equilibrium):
        g = dc.generate_graph(dc.GraphSpec(n=n, extra_edges=extra, directed=directed(algorithm)), seed)
        rows = block_rows(g)
        K = {"0": 0, "1": 1, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1}[horizon]
        self.check_residuals(algorithm, g, q, seed, gamma, K, equilibrium)

    @pytest.mark.parametrize("algorithm", dc.ALGORITHMS)
    def test_fewest_rows_per_block(self, algorithm):
        g = dc.generate_graph(dc.GraphSpec(n=100, extra_edges=4200, directed=directed(algorithm)), 5)
        assert block_rows(g) == _MIN_BLOCK_ROWS
        for K in (_MIN_BLOCK_ROWS - 1, 2 * _MIN_BLOCK_ROWS, 2 * _MIN_BLOCK_ROWS + 1):
            self.check_residuals(algorithm, g, 0.3, 7, 0.6, K, equilibrium=False)

    def check_residuals(self, algorithm, g, q, seed, gamma, K, equilibrium):
        inst = dc.generate_instance(dc.InstanceSpec(n=g.n), seed)
        params = dc.AlgorithmParams(
            step=dc.ConstantStep(0.01), xi=0.5, nhat=float(g.n), gamma=gamma, horizon=K
        )
        sched = dc.GraphSchedule(g, q, seed, K)
        init = None
        if equilibrium:
            solution = dc.solve_bisection(inst, xi=params.xi, nhat=params.nhat)
            init = dc.equilibrium_state(algorithm, inst, g, params, solution)
        arrays, want, _ = reference_run(algorithm, inst, sched, params, start=init)
        trace = dc.run(algorithm, inst, sched, params, init=init)
        for name, series in arrays.items():
            assert np.array_equal(getattr(trace, name), series), name
        got = trace.residuals
        assert set(got) == set(want)
        for key, series in want.items():
            assert np.array_equal(got[key], series), key

    @pytest.mark.parametrize("algorithm", ["robust", "virtual"])
    def test_buffer_memory_does_not_grow_with_horizon(self, algorithm, case39_directed):
        inst, g = case39_directed

        def peak_beyond_trace(K):
            params = dc.AlgorithmParams(step=dc.ConstantStep(0.02), xi=0.2, nhat=20.0, gamma=0.9, horizon=K)
            sched = dc.GraphSchedule(g, 0.2, 1, K)
            sched.masks  # sampled before measuring
            tracemalloc.start()
            try:
                trace = dc.run(algorithm, inst, sched, params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            kept = [trace.p, trace.consensus, trace.y, trace.v, *trace.residuals.values()]
            return peak - sum(a.nbytes for a in kept)

        growth = peak_beyond_trace(20_000) - peak_beyond_trace(2_000)
        assert growth < 1_000_000, f"peak beyond the trace grew by {growth} bytes"

    @pytest.mark.parametrize("algorithm", dc.ALGORITHMS)
    def test_traced_series_are_contiguous_views_of_one_block(
        self, algorithm, case39_undirected, case39_directed
    ):
        inst, g = case39_directed if directed(algorithm) else case39_undirected
        K = 2 * block_rows(g) + 3
        trace = dc.run(algorithm, inst, dc.GraphSchedule(g, 0.2, 1, K), params_for(inst.n, s=0.01, horizon=K))
        series = [a for a in (trace.p, trace.consensus, trace.y, trace.v) if a is not None]
        assert len(series) == {"pd1": 3, "pd2": 2, "centralized": 2}.get(algorithm, 4)
        for a in series:
            assert a.shape == (K + 1, inst.n) and a.flags.c_contiguous
        # One allocation holds exactly the series.
        block = series[0].base
        assert all(a.base is block for a in series)
        assert block.nbytes == sum(a.nbytes for a in series)
        # And another exactly the residual series.
        residuals = list(trace.residuals.values())
        assert all(a.base is residuals[0].base for a in residuals)
        assert residuals[0].base.nbytes == sum(a.nbytes for a in residuals)

    def test_residual_memory_does_not_grow_with_horizon(self, case39_undirected):
        inst, g = case39_undirected

        def peak_beyond_trace(K):
            params = dc.AlgorithmParams(step=dc.ConstantStep(0.01), xi=0.05, nhat=39.0, horizon=K)
            sched = dc.GraphSchedule(g, 0.2, 1, K)
            sched.masks  # sampled before measuring
            tracemalloc.start()
            try:
                trace = dc.run("pd1", inst, sched, params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            kept = [trace.p, trace.consensus, trace.y, *trace.residuals.values()]
            return peak - sum(a.nbytes for a in kept)

        growth = peak_beyond_trace(20_000) - peak_beyond_trace(2_000)
        assert growth < 1_000_000, f"peak beyond the trace grew by {growth} bytes"


class TestRunProperties:
    """Invariants of whole runs over random graphs and parameters."""

    @given(
        algorithm=st.sampled_from(["pd1", "directed", "robust", "virtual"]),
        n=st.integers(1, 12),
        extra=st.integers(0, 10),
        seed=st.integers(0, 2**32),
        q=st.floats(0.0, 0.95),
        gamma=st.floats(0.01, 0.99),
        s=st.floats(0.001, 0.1),
        K=st.integers(0, 300),
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation_and_mass_within_budgets(self, algorithm, n, extra, seed, q, gamma, s, K):
        g = dc.generate_graph(dc.GraphSpec(n=n, extra_edges=extra, directed=algorithm != "pd1"), seed)
        inst = dc.generate_instance(dc.InstanceSpec(n=n), seed)
        params = dc.AlgorithmParams(step=dc.ConstantStep(s), xi=0.5, nhat=float(n), gamma=gamma, horizon=K)
        trace = dc.run(algorithm, inst, dc.GraphSchedule(g, q, seed, K), params)
        for key in ("conservation", "mass"):
            if key in trace.residuals:
                assert trace.residuals[key].max() <= BUDGETS[key], key

    @given(
        n=st.integers(1, 12),
        extra=st.integers(0, 10),
        seed=st.integers(0, 2**32),
        q=st.floats(0.0, 0.95),
        gamma=st.floats(0.01, 0.99),
        s=st.floats(0.001, 0.1),
        K=st.integers(0, 300),
    )
    @settings(max_examples=40, deadline=None)
    # Weights fall to 1.6e-13 here, |x| = |lam / v| reaches 6.6e11, and the two
    # implementations' last-bit differences in v grow into a 1.5e-9 gap in y.
    @example(n=9, extra=0, seed=63123, q=0.8984375, gamma=0.99, s=0.03125, K=141)
    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="absolute budget does not hold once push-sum weights get tiny")
    def test_robust_equals_virtual_on_real_coordinates(self, n, extra, seed, q, gamma, s, K):
        g = dc.generate_graph(dc.GraphSpec(n=n, extra_edges=extra, directed=True), seed)
        inst = dc.generate_instance(dc.InstanceSpec(n=n), seed)
        params = dc.AlgorithmParams(step=dc.ConstantStep(s), xi=0.5, nhat=float(n), gamma=gamma, horizon=K)
        sched = dc.GraphSchedule(g, q, seed, K)
        robust = dc.run("robust", inst, sched, params)
        virtual = dc.run("virtual", inst, sched, params)
        budget = BUDGETS["conservation"]
        pairs = {
            "p": (robust.p, virtual.p),
            "y": (robust.y, virtual.y),
            "v": (robust.v, virtual.v),
            "lam": (robust.consensus * robust.v, virtual.consensus * virtual.v),
        }
        for name, (a, b) in pairs.items():
            assert np.abs(a - b).max() <= budget, name


class TestDivergenceNames:
    """A `DivergenceError` names its step and every non-finite field."""

    @pytest.mark.parametrize("algorithm, named", [
        ("pd1", "pd1: y"),
        ("pd2", "pd2: lam"),
        ("directed", "directed: y"),
        ("robust", "robust: y"),
        ("virtual", "virtual: y"),
        ("centralized", "centralized: lam"),
    ])
    def test_inf_in_y_names_step_and_fields(self, small_instance, algorithm, named):
        # The start is checked before the first step, so only the row that holds the inf is named, at step 0.
        graph = ring(3, directed(algorithm))
        params = params_for(3, horizon=10)
        start = dc.initial_state(algorithm, small_instance, graph, params)
        start = replace(start, nodes=start.nodes.copy())
        (start.lam if start.y is None else start.y)[0] = np.inf  # pd2 and centralized carry no tracker
        with pytest.raises(DivergenceError, match=rf"^non-finite iterate at step 0 \({named}\)$") as err:
            dc.run(algorithm, small_instance, dc.GraphSchedule(graph, 0.2, 1, 10), params, init=start)
        assert err.value.step == 0

    @pytest.mark.parametrize("algorithm, row, named", [
        ("robust", "sums", "robust: sums.y"),
        ("virtual", "virtual lam", "virtual: lam"),
    ])
    def test_nan_in_the_start_names_only_its_row(self, case39_directed, algorithm, row, named):
        inst, graph = case39_directed
        params = params_for(inst.n, horizon=10)
        start = dc.initial_state(algorithm, inst, graph, params)
        start = replace(start, nodes=start.nodes.copy())
        if row == "sums":
            start.sums[2, 5] = np.nan
        else:
            start.lam[inst.n + 3] = np.nan  # a virtual node: its v starts at 0, which the start check allows
        with pytest.raises(DivergenceError, match=rf"^non-finite iterate at step 0 \({named}\)$"):
            dc.run(algorithm, inst, dc.GraphSchedule(graph, 0.2, 1, 10), params, init=start)

    @pytest.mark.parametrize("part, row, value, named", [
        ("mirror", 0, np.nan, "robust: mirror.lam"),
        ("virt", 1, np.inf, "robust: virt.v"),
        ("virt", 2, -np.inf, "robust: virt.y"),
    ])
    def test_non_finite_arc_rows_are_named_at_step_0(self, case39_directed, part, row, value, named):
        # The guard after each block reads node rows only, so the start check is where an arc row is named:
        # a NaN mirror would otherwise show at step 1 under the node rows it reaches, an inf in-flight
        # value only as an infinite mass residual.
        inst, graph = case39_directed
        params = params_for(inst.n, horizon=10)
        start = dc.initial_state("robust", inst, graph, params)
        start = replace(start, arcs=start.arcs.copy())
        getattr(start, part)[row, 7] = value
        with pytest.raises(DivergenceError, match=rf"^non-finite iterate at step 0 \({named}\)$") as err:
            dc.run("robust", inst, dc.GraphSchedule(graph, 0.2, 1, 10), params, init=start)
        assert err.value.step == 0

    @pytest.mark.parametrize("algorithm", ["directed", "robust", "virtual"])
    def test_overflow_in_x_alone_names_x(self, small_instance, algorithm):
        # lam and v stay finite and v positive, but lam / v overflows: the one
        # guard over the whole state sees x, and names x alone.
        graph = ring(3, True)
        params = params_for(3, horizon=10)
        start = dc.initial_state(algorithm, small_instance, graph, params)
        start = replace(start, nodes=start.nodes.copy())
        start.lam[:3] = 1e10
        start.v[:3] = 1e-300
        if algorithm == "robust":
            start.sums[:] = start.z / graph.out_degrees  # running sums through step 0
        with np.errstate(over="ignore"), pytest.raises(
            DivergenceError, match=rf"^non-finite iterate at step 1 \({algorithm}: x\)$"
        ):
            dc.run(algorithm, small_instance, dc.GraphSchedule(graph, 0.2, 1, 10), params, init=start)

    @pytest.mark.parametrize("algorithm, what", [
        ("directed", "push-sum weight v lost positivity"),
        ("robust", "push-sum weight v hit zero"),
        ("virtual", "augmented push-sum weight hit zero"),
    ])
    def test_positivity_guard_names_its_step(self, small_instance, algorithm, what):
        graph = ring(3, True)
        params = params_for(3, horizon=10)
        start = dc.initial_state(algorithm, small_instance, graph, params)
        start = replace(start, nodes=start.nodes.copy())
        start.v[:] = 0.0
        if algorithm == "robust":
            start.sums[:] = start.z / graph.out_degrees
        with pytest.raises(InternalInvariantError, match=rf"at step 1: {what}$") as err:
            dc.run(algorithm, small_instance, dc.GraphSchedule(graph, 0.2, 1, 10), params, init=start)
        assert err.value.step == 1


@dataclass(frozen=True)
class SpikeStep:
    """Stepsize s before step k and `spike` from step k on, to make the iterates fail at step k + 1."""

    s: float
    k: int
    spike: float

    def at(self, k):
        return np.where(k < self.k, self.s, self.spike)


def raised(fn):
    """(type, step, message) of the package error `fn` raises, or None if it returns."""
    try:
        fn()
    except DercoordError as exc:
        return type(exc), exc.step, str(exc)
    return None


class TestBlockGuard:
    """`run` guards a block of steps at once, and raises what guarding one step per block raises."""

    @given(
        algorithm=st.sampled_from(dc.ALGORITHMS),
        n=st.integers(2, 8),
        extra=st.integers(0, 6),
        seed=st.integers(0, 2**32),
        q=st.floats(0.0, 0.9),
        rows=st.integers(_MIN_BLOCK_ROWS, _MIN_BLOCK_ROWS + 4),
        trigger=st.sampled_from(["init inf", "init nan", "zero v", "stepsize"]),
        place=st.sampled_from(["first", "middle", "last", "second block"]),
        spike=st.sampled_from([1e150, 1e300, np.inf, np.nan]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_run_raises_what_one_step_blocks_raise(
        self, algorithm, n, extra, seed, q, rows, trigger, place, spike, data
    ):
        assume(trigger != "zero v" or directed(algorithm))
        g = dc.generate_graph(dc.GraphSpec(n=n, extra_edges=extra, directed=directed(algorithm)), seed)
        inst = dc.generate_instance(dc.InstanceSpec(n=n), seed)
        K = 2 * rows + 3
        # Block 0 makes states 1 .. rows, block 1 states rows + 1 .. 2 rows.
        fail_at = {"first": 1, "middle": rows // 2, "last": rows, "second block": rows + 1}[place]
        step = SpikeStep(0.02, fail_at - 1, spike) if trigger == "stepsize" else dc.ConstantStep(0.02)
        params = dc.AlgorithmParams(step=step, xi=0.5, nhat=float(n), gamma=0.9, horizon=K)
        sched = dc.GraphSchedule(g, q, seed, K)
        start = dc.initial_state(algorithm, inst, g, params)
        start = replace(start, nodes=start.nodes.copy())
        if trigger == "zero v":
            start.v[:] = 0.0
            if algorithm == "robust":
                start.sums[:] = start.z / g.out_degrees  # running sums through step 0
        elif trigger.startswith("init"):
            row = data.draw(st.integers(0, len(start.nodes) - 1), label="row")
            col = data.draw(st.integers(0, start.nodes.shape[1] - 1), label="column")
            start.nodes[row, col] = np.inf if trigger == "init inf" else np.nan

        def run_from_start():
            return dc.run(algorithm, inst, sched, params, init=start)

        with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
            mp.setattr(algorithms, "_MIN_BLOCK_ROWS", 1)
            mp.setattr(algorithms, "_RESIDUAL_BLOCK_ENTRIES", 1)
            want = raised(run_from_start)  # every block one step, guarded on its own
            mp.setattr(algorithms, "_MIN_BLOCK_ROWS", _MIN_BLOCK_ROWS)
            mp.setattr(algorithms, "_RESIDUAL_BLOCK_ENTRIES", rows * g.m)
            got = raised(run_from_start)
        assert got == want
        if trigger == "stepsize" and np.isnan(spike):  # a NaN stepsize makes p NaN at once
            assert want is not None and want[:2] == (DivergenceError, fail_at)
        if trigger == "zero v":
            assert want is not None and want[:2] == (InternalInvariantError, 1)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_one_non_finite_entry_anywhere_in_a_block_is_named(self, value):
        # Robust's node rows, its running sums included, over a block of three states of four nodes.
        spec = algorithms._specs()["robust"]
        block = np.ones((3, len(spec.names), 4))
        algorithms._check_block("robust", spec.names, spec.lost_weight, 5, block)  # a finite block passes
        for step, row, col in itertools.product(range(3), range(len(spec.names)), range(4)):
            bad = block.copy()
            bad[step, row, col] = value
            if row == 1 and value < 0:  # a weight v of -inf fails positivity first
                error, detail = InternalInvariantError, f": {spec.lost_weight}"
            else:
                error, detail = DivergenceError, rf" \(robust: {re.escape(spec.names[row])}\)"
            with pytest.raises(error, match=rf"at step {5 + step}{detail}$"):
                algorithms._check_block("robust", spec.names, spec.lost_weight, 5, bad)


def bit_equal(a, b):
    """Same shape, same values and same sign bits (so -0.0 differs from 0.0)."""
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestBitIdentity:
    """`run` reproduces the per-field, allocating iterations of `reference_run` bit for bit."""

    @given(
        algorithm=st.sampled_from(dc.ALGORITHMS),
        n=st.integers(1, 12),
        extra=st.integers(0, 10),
        seed=st.integers(0, 2**32),
        q=st.floats(0.0, 0.95),
        gamma=st.floats(0.01, 0.99),
        step=st.one_of(
            st.builds(dc.ConstantStep, st.floats(0.001, 0.1)),
            st.builds(lambda s, b: dc.DiminishingStep(s * b, b), st.floats(0.001, 0.1), st.floats(1.0, 200.0)),
        ),
        K=st.integers(0, 200),
    )
    @settings(max_examples=100, deadline=None)
    def test_run_equals_reference_stepping(self, algorithm, n, extra, seed, q, gamma, step, K):
        g = dc.generate_graph(dc.GraphSpec(n=n, extra_edges=extra, directed=directed(algorithm)), seed)
        inst = dc.generate_instance(dc.InstanceSpec(n=n), seed)
        params = dc.AlgorithmParams(step=step, xi=0.5, nhat=float(n), gamma=gamma, horizon=K)
        sched = dc.GraphSchedule(g, q, seed, K)
        trace = dc.run(algorithm, inst, sched, params)
        arrays, residuals, last = reference_run(algorithm, inst, sched, params)
        got = {name: getattr(trace, name) for name in ("p", "consensus", "y", "v")}
        assert {name for name, a in got.items() if a is not None} == set(arrays)
        assert set(trace.residuals) == set(residuals)
        for name, want in arrays.items():
            assert bit_equal(got[name], want), name
        for key, want in residuals.items():
            assert bit_equal(trace.residuals[key], want), key
        # Every field of the last state, robust's mirrors and in-flight values among them, sign bits included.
        final = vars(fields_of(algorithm, trace.final))
        assert set(final) == set(vars(last))
        for name, want in vars(last).items():
            assert bit_equal(final[name], want), name

    @pytest.mark.parametrize("algorithm", dc.ALGORITHMS)
    def test_no_output_reads_an_unwritten_buffer(self, repo_root, monkeypatch, algorithm):
        # Every float array `np.empty` makes starts as NaN: a value read before it is written shows in the output.
        name = CONFIGS[algorithm]
        config = dc.load_config(repo_root / "configs" / f"benchmark39_{name}.cfg")
        params = replace(config.params, horizon=3 * block_rows(config.graph) + 5)
        sched = dc.GraphSchedule(config.graph, config.q, 1, params.horizon)
        want = dc.run(algorithm, config.instance, sched, params)
        empty = np.empty

        def nan_empty(*args, **kwargs):
            a = empty(*args, **kwargs)
            if a.dtype.kind == "f":  # a NaN cast to another dtype warns
                a.fill(np.nan)
            return a

        monkeypatch.setattr(np, "empty", nan_empty)
        got = dc.run(algorithm, config.instance, sched, params)
        for name in ("p", "consensus", "y", "v"):
            assert (getattr(got, name) is None) == (getattr(want, name) is None), name
            assert getattr(want, name) is None or getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert set(got.residuals) == set(want.residuals)
        for key, series in want.residuals.items():
            assert got.residuals[key].tobytes() == series.tobytes(), key
        for f in fields(want.final):
            assert getattr(got.final, f.name).tobytes() == getattr(want.final, f.name).tobytes(), f.name


    @pytest.mark.parametrize("algorithm", dc.ALGORITHMS)
    def test_rows_left_unrepeated_change_no_bit(self, repo_root, monkeypatch, algorithm):
        # A weight row longer than STACK_ROW_MAX stays one row, which the step's ufuncs broadcast over
        # the stack: with every row taken as long, the traces are those of the repeated rows bit for bit.
        from dercoord import network

        config = dc.load_config(repo_root / "configs" / f"benchmark39_{CONFIGS[algorithm]}.cfg")
        params = replace(config.params, horizon=2 * block_rows(config.graph) + 5)
        sched = dc.GraphSchedule(config.graph, config.q, 1, params.horizon)
        want = dc.run(algorithm, config.instance, sched, params)
        monkeypatch.setattr(network, "STACK_ROW_MAX", 0)
        got = dc.run(algorithm, config.instance, sched, params)
        for name in ("p", "consensus", "y", "v"):
            assert getattr(want, name) is None or bit_equal(getattr(got, name), getattr(want, name)), name
        for key, series in want.residuals.items():
            assert bit_equal(got.residuals[key], series), key
        for f in fields(want.final):
            assert bit_equal(getattr(got.final, f.name), getattr(want.final, f.name)), f.name

    @pytest.mark.parametrize("algorithm", dc.ALGORITHMS)
    def test_general_cost_runs_as_its_quadratic(self, repo_root, algorithm):
        # The kernels call the cost's own grad: a GeneralCost whose f' is the
        # quadratic's, 2a*p + b, gives the quadratic run's traces bit for bit.
        name = CONFIGS[algorithm]
        config = dc.load_config(repo_root / "configs" / f"benchmark39_{name}.cfg")
        inst, params = config.instance, config.params
        a, b, c, twice_a = inst.cost.a, inst.cost.b, inst.cost.c, inst.cost.twice_a
        general = dc.GeneralCost(
            lambda p: a * p * p + b * p + c, lambda p: twice_a * p + b, lambda p: twice_a, float(twice_a.min()), inst.n
        )
        wrapped = dc.ProblemInstance(inst.loads, inst.p_lo, inst.p_hi, general)
        sched = dc.GraphSchedule(config.graph, config.q, 1, params.horizon)
        want, got = dc.run(algorithm, inst, sched, params), dc.run(algorithm, wrapped, sched, params)
        for name in ("p", "consensus", "y", "v"):
            assert (getattr(want, name) is None) == (getattr(got, name) is None), name
            assert getattr(want, name) is None or bit_equal(getattr(got, name), getattr(want, name)), name
        assert set(got.residuals) == set(want.residuals)
        for key, series in want.residuals.items():
            assert bit_equal(got.residuals[key], series), key


class TestWeightTables:
    @pytest.mark.parametrize("algorithm, builder", [
        ("pd1", "metropolis_table"),
        ("pd2", "metropolis_table"),
        ("directed", "push_table"),
        ("robust", "_release_table"),
        ("virtual", "_release_table"),
    ])
    def test_built_once_per_block(self, monkeypatch, algorithm, builder):
        from dercoord import algorithms

        g = dc.generate_graph(dc.GraphSpec(n=8, extra_edges=4, directed=directed(algorithm)), 3)
        rows = block_rows(g)
        K = 2 * rows + 3  # blocks of rows, rows and 3 steps
        original = getattr(algorithms, builder)
        built = []

        def counting(graph, masks, *rest):  # the release table also takes the run's params
            built.append(masks.shape[0])
            return original(graph, masks, *rest)

        monkeypatch.setattr(algorithms, builder, counting)
        inst = dc.generate_instance(dc.InstanceSpec(n=g.n), 3)
        dc.run(algorithm, inst, dc.GraphSchedule(g, 0.3, 5, K), params_for(g.n, s=0.01, horizon=K))
        assert built == [rows, rows, 3]

    @pytest.mark.parametrize("algorithm", dc.ALGORITHMS)
    def test_one_bin_pass_per_table_block(self, monkeypatch, algorithm):
        # A block's table takes one set of offset bins at most: the Metropolis and push tables one
        # each, for their per-row sums; the release table none, and centralized reads no link.
        from dercoord import network

        g = dc.generate_graph(dc.GraphSpec(n=8, extra_edges=4, directed=directed(algorithm)), 3)
        rows = block_rows(g)
        K = 2 * rows + 3
        inst = dc.generate_instance(dc.InstanceSpec(n=g.n), 3)
        params = params_for(g.n, s=0.01, horizon=K)
        sched = dc.GraphSchedule(g, 0.3, 5, K)
        dc.run(algorithm, inst, sched, params)  # the graph's own bins, cached per graph, are made here
        original = network.offset_bins
        made = []

        def counting(heads, block, n):
            made.append(block)
            return original(heads, block, n)

        monkeypatch.setattr(network, "offset_bins", counting)
        dc.run(algorithm, inst, sched, params)
        assert made == ([rows, rows, 3] if algorithm in ("pd1", "pd2", "directed") else [])


def permuted_instance(inst, perm):
    """Agent r of the result is agent perm[r] of `inst`."""
    cost = inst.cost
    return dc.ProblemInstance(
        inst.loads[perm], inst.p_lo[perm], inst.p_hi[perm],
        dc.QuadraticCost(cost.a[perm], cost.b[perm], cost.c[perm]),
    )


# Relabeling can reorder a node's arrivals (push-sum sums them by tail, and an
# undirected edge may swap its ends), so traces agree only up to roundoff:
# within RELABEL_RTOL of each field's largest magnitude over the run.
RELABEL_RTOL = 1e-9


class TestRelabelEquivariance:
    @given(
        algorithm=st.sampled_from(dc.ALGORITHMS),
        n=st.integers(1, 10),
        extra=st.integers(0, 10),
        seed=st.integers(0, 2**32),
        data=st.data(),
        q=st.floats(0.0, 0.95),
        gamma=st.floats(0.01, 0.99),
        s=st.floats(0.001, 0.1),
        K=st.integers(0, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_relabeled_run_permutes_the_trace(self, algorithm, n, extra, seed, data, q, gamma, s, K):
        perm = np.array(data.draw(st.permutations(range(n)), label="perm"), dtype=int)
        g = dc.generate_graph(dc.GraphSpec(n=n, extra_edges=extra, directed=directed(algorithm)), seed)
        inst = dc.generate_instance(dc.InstanceSpec(n=n), seed)
        params = params_for(n, s=s, horizon=K, gamma=gamma)
        base = dc.run(algorithm, inst, dc.GraphSchedule(g, q, seed, K), params)
        # new agent r carries base agent perm[r], so base node b is renamed to
        # the inverse image of perm; edge order, hence every mask, is kept
        relabel = np.empty(n, dtype=int)
        relabel[perm] = np.arange(n)
        other = dc.run(algorithm, permuted_instance(inst, perm),
                       dc.GraphSchedule(g.relabeled(relabel), q, seed, K), params)
        for name in ("p", "consensus", "y", "v"):
            want = getattr(base, name)
            if want is None:
                continue
            scale = max(1.0, float(np.abs(want).max()))
            np.testing.assert_allclose(getattr(other, name), want[:, perm], rtol=0,
                                       atol=RELABEL_RTOL * scale, err_msg=name)
