import itertools
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dercoord as dc
from dercoord import network
from dercoord.errors import CaseParseError, InvalidGraphError
from dercoord.algorithms import _release_table
from dercoord.network import (
    _earliest_connect,
    _prefix_lengths,
    format_graph,
    metropolis_table,
    mix,
    numbered_lines,
    parse_graph_lines,
    push_table,
    row_bincount,
    stacked,
    union_connected,
    windows_connected,
)
from reference import (
    augmented_push_matrix,
    earliest_connect_scan,
    metropolis_weights,
    push_matrix,
    run_over,
)


def random_connected_graph(rng, n, directed, extra=3):
    spec = dc.GraphSpec(n=n, extra_edges=extra, directed=directed)
    return dc.generate_graph(spec, int(rng.integers(0, 2**32)))


def scipy_union_connected(nominal, mask):
    """Reference verdict from SciPy's connected components."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n = nominal.n
    src, dst = nominal.srcs[mask], nominal.dsts[mask]
    adj = coo_matrix((np.ones(src.shape[0]), (src, dst)), shape=(n, n))
    kind = "strong" if nominal.directed else "weak"
    return connected_components(adj, directed=nominal.directed, connection=kind, return_labels=False) == 1


def brute_windows(nominal, masks, B):
    K = masks.shape[0]
    return np.array(
        [scipy_union_connected(nominal, masks[s : s + B].any(axis=0)) for s in range(0, K - B + 1, B)],
        dtype=bool,
    )


def sampled(schedule, K):
    masks = np.zeros((max(K, 0), schedule.nominal.m), dtype=bool)
    for k in range(K):
        masks[k] = schedule.active_mask(k)
    return masks


def brute_minimal_window(schedule, K):
    """Try every B in turn, resampling each step: the reference definition."""
    K = schedule.horizon if K is None else min(K, schedule.horizon)
    masks = sampled(schedule, K)
    for B in range(1, K + 1):
        if brute_windows(schedule.nominal, masks, B).all():
            return B
    return None


def philox_rows(schedule):
    """philox4x64-v1 by definition: row k holds the first m uniforms of a fresh Philox keyed by (seed, k), kept where >= q."""
    m = schedule.nominal.m
    block = np.empty((schedule.horizon, m), dtype=bool)
    for k in range(schedule.horizon):
        key = np.array([schedule.seed, k], dtype=np.uint64)
        block[k] = np.random.Generator(np.random.Philox(key=key)).random(m) >= schedule.q
    return block


def chunk_rows(m):
    """Steps per chunk of the sampler's buffer of at most 2^13 uniforms (at least one step)."""
    return max(1, 2**13 // max(m, 1))


@st.composite
def sampled_schedules(draw):
    """Small graphs (n = 1 has m = 0), any 64-bit seed, q in [0, 1), short horizons or one at a chunk boundary."""
    spec = dc.GraphSpec(n=draw(st.integers(1, 11)), extra_edges=draw(st.integers(0, 8)), directed=draw(st.booleans()))
    g = dc.generate_graph(spec, draw(st.integers(0, 2**32)))
    rows = chunk_rows(g.m)
    horizon = draw(st.one_of(st.integers(0, 40), st.sampled_from([rows - 1, rows, rows + 1])))
    seed = draw(st.one_of(st.sampled_from([0, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)))
    return dc.GraphSchedule(g, draw(st.floats(0.0, 1.0, exclude_max=True)), seed, horizon)


schedules = st.builds(
    lambda n, extra, directed, q, seed, horizon: dc.GraphSchedule(
        dc.generate_graph(dc.GraphSpec(n=n, extra_edges=extra, directed=directed), seed), q, seed, horizon
    ),
    n=st.integers(1, 11),
    extra=st.integers(0, 8),
    directed=st.booleans(),
    q=st.floats(0.0, 0.95),
    seed=st.integers(0, 2**32),
    horizon=st.integers(0, 60),
)


class TestNominalGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidGraphError, match="self-loop"):
            dc.NominalGraph(3, [(0, 0), (0, 1), (1, 2)], False)

    def test_rejects_duplicate_undirected_edge(self):
        with pytest.raises(InvalidGraphError, match="duplicate"):
            dc.NominalGraph(3, [(0, 1), (1, 0), (1, 2)], False)

    def test_rejects_non_integer_node_count_and_endpoints(self):
        with pytest.raises(InvalidGraphError, match="edge endpoint must be an integer, got 1.7"):
            dc.NominalGraph(3, [(0, 1.7), (1, 2)], False)
        with pytest.raises(InvalidGraphError, match="node count n must be an integer, got 2.5"):
            dc.NominalGraph(2.5, [(0, 1)], False)
        with pytest.raises(InvalidGraphError, match="node count n must be >= 1, got 0"):
            dc.NominalGraph(0, [], False)
        g = dc.NominalGraph(np.int64(3), [(np.int32(0), np.uint8(1)), (1, 2)], False)
        assert type(g.n) is int and all(type(end) is int for edge in g.edges for end in edge)
        assert g == dc.NominalGraph(3, [(0, 1), (1, 2)], False)

    @pytest.mark.parametrize("edge", [(0, 1, 7), (0,), (), 5])
    def test_rejects_an_edge_without_exactly_two_endpoints(self, edge):
        with pytest.raises(InvalidGraphError, match=rf"^edge {re.escape(repr(edge))} must have exactly two endpoints$"):
            dc.NominalGraph(3, [edge, (1, 2)], False)

    def test_directed_opposite_arcs_allowed(self):
        g = dc.NominalGraph(2, [(0, 1), (1, 0)], True)
        assert g.m == 2

    def test_rejects_disconnected(self):
        with pytest.raises(InvalidGraphError, match="connected"):
            dc.NominalGraph(4, [(0, 1), (2, 3)], False)

    def test_rejects_weakly_but_not_strongly_connected(self):
        with pytest.raises(InvalidGraphError, match="strongly"):
            dc.NominalGraph(3, [(0, 1), (1, 2)], True)

    def test_degrees_include_self(self):
        g = dc.NominalGraph(3, [(0, 1), (1, 2)], False)
        np.testing.assert_array_equal(g.degrees, [2.0, 3.0, 2.0])

    def test_out_degrees_include_self(self):
        g = dc.NominalGraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)], True)
        np.testing.assert_array_equal(g.out_degrees, [3.0, 2.0, 2.0])


class TestSchedule:
    def graph(self):
        return dc.NominalGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], False)

    def test_no_failures_keeps_all_edges(self):
        sched = dc.GraphSchedule(self.graph(), 0.0, 1, 50)
        for k in range(50):
            assert sched.active_mask(k).all()

    def test_deterministic_per_seed_and_step(self):
        sched = dc.GraphSchedule(self.graph(), 0.4, 42, 100)
        first = sched.active_mask(7)
        again = sched.active_mask(7)
        np.testing.assert_array_equal(first, again)
        # lazily sampling step 7 never requires earlier steps: a fresh
        # schedule gives the same answer without touching k < 7
        other = dc.GraphSchedule(self.graph(), 0.4, 42, 100)
        np.testing.assert_array_equal(other.active_mask(7), first)

    def test_high_failure_rate_matches_binomial_statistics(self):
        q = 0.95
        sched = dc.GraphSchedule(self.graph(), q, 3, 10_000)
        total = sum(int(sched.active_mask(k).sum()) for k in range(10_000))
        trials = 10_000 * sched.nominal.m
        mean = trials * (1 - q)
        sigma = np.sqrt(trials * q * (1 - q))
        assert abs(total - mean) <= 3 * sigma

    def test_digest_distinguishes_inputs(self):
        g = self.graph()
        base = dc.GraphSchedule(g, 0.2, 1, 10).digest()
        # Pinned: normalizing integer seeds, or any other change, must not move an existing digest.
        assert base == "cba4cef9bcf62d7b31a7345494eb985dccc1ef579611b5136e32615a0fe878ec"
        assert dc.GraphSchedule(g, 0.2, 2, 10).digest() != base
        assert dc.GraphSchedule(g, 0.3, 1, 10).digest() != base
        assert dc.GraphSchedule(g, 0.2, 1, 11).digest() != base
        assert dc.GraphSchedule(g, 0.2, 1, 10).digest() == base

    def test_seed_must_be_an_integer(self):
        g = dc.NominalGraph(3, [(0, 1), (1, 2)], False)
        with pytest.raises(InvalidGraphError, match="seed must be an integer, got 1.5"):
            dc.GraphSchedule(g, 0.2, 1.5, 10)
        base = dc.GraphSchedule(g, 0.2, 1, 10)
        same = dc.GraphSchedule(g, 0.2, np.uint64(1), 10)
        assert type(same.seed) is int
        assert same.digest() == base.digest()
        np.testing.assert_array_equal(same.masks, base.masks)

    def test_horizon_must_be_an_integer(self):
        g = dc.NominalGraph(3, [(0, 1), (1, 2)], False)
        for horizon in (2.5, float("nan")):
            with pytest.raises(InvalidGraphError, match="schedule horizon must be an integer"):
                dc.GraphSchedule(g, 0.2, 1, horizon)
        with pytest.raises(InvalidGraphError, match="schedule horizon must be >= 0, got -1"):
            dc.GraphSchedule(g, 0.2, 1, -1)
        same = dc.GraphSchedule(g, 0.2, 1, np.int64(10))
        assert type(same.horizon) is int and same.digest() == dc.GraphSchedule(g, 0.2, 1, 10).digest()

    def test_out_of_horizon_step_rejected(self):
        sched = dc.GraphSchedule(self.graph(), 0.2, 1, 10)
        with pytest.raises(InvalidGraphError):
            sched.active_mask(10)

    @given(sched=schedules)
    @settings(max_examples=60, deadline=None)
    def test_mask_block_rows_are_active_masks(self, sched):
        block = sched.masks
        assert block.shape == (sched.horizon, sched.nominal.m) and block.dtype == bool
        for k in range(sched.horizon):
            np.testing.assert_array_equal(block[k], sched.active_mask(k))
        assert sched.masks is block
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[...] = True

    def test_invalid_q_rejected(self):
        with pytest.raises(InvalidGraphError):
            dc.GraphSchedule(self.graph(), 1.0, 1, 10)

    @pytest.mark.parametrize("seed", [0, 42, 2**63, 2**63 + 12345, 2**64 - 1])
    @pytest.mark.parametrize(
        "n, edges, directed",
        [
            (2, [(0, 1)], False),  # m = 1
            (4, [(0, 1), (1, 2), (2, 3), (3, 0)], False),  # m = 4
            (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], True),  # m = 5
        ],
    )
    @pytest.mark.parametrize("q", [0.0, 0.35])
    def test_masks_are_numpy_philox_streams(self, seed, n, edges, directed, q):
        # philox4x64-v1 pinned to NumPy itself: step k is the first m
        # uniforms of a fresh Philox keyed by (seed, k), kept where >= q.
        # The key is built as uint64: a plain list of seeds >= 2**63 passes
        # through float64 and loses bits.
        sched = dc.GraphSchedule(dc.NominalGraph(n, edges, directed), q, seed, 5)
        for k in range(5):
            key = np.array([seed, k], dtype=np.uint64)
            want = np.random.Generator(np.random.Philox(key=key)).random(len(edges)) >= q
            np.testing.assert_array_equal(sched.masks[k], want)
            np.testing.assert_array_equal(sched.active_mask(k), want)

    @given(sched=sampled_schedules())
    @example(sched=dc.GraphSchedule(dc.NominalGraph(1, [], False), 0.5, 2**64 - 1, 3))
    @example(sched=dc.GraphSchedule(dc.NominalGraph(2, [(0, 1)], False), 0.0, 0, 0))
    @example(sched=dc.GraphSchedule(dc.NominalGraph(2, [(0, 1)], False), 0.5, 2**63, chunk_rows(1) + 1))
    @settings(max_examples=80, deadline=None)
    def test_masks_are_fresh_philox_streams(self, sched):
        want = philox_rows(sched)
        assert np.array_equal(sched.masks, want)
        for k in {0, chunk_rows(sched.nominal.m) - 1, chunk_rows(sched.nominal.m), sched.horizon - 1}:
            if 0 <= k < sched.horizon:
                assert np.array_equal(sched.active_mask(k), want[k])

    @pytest.mark.parametrize("m", [4097, 8193])  # one or two steps per chunk
    def test_masks_cross_chunk_boundaries(self, m):
        path = dc.NominalGraph(m + 1, [(i, i + 1) for i in range(m)], False)
        rows = chunk_rows(m)
        for horizon in (rows - 1, rows, rows + 1):
            sched = dc.GraphSchedule(path, 0.3, 2**63 + 12345, horizon)
            assert np.array_equal(sched.masks, philox_rows(sched))

    def test_an_edge_whose_uniform_equals_q_is_active(self):
        # the contract keeps uniforms >= q, so q set to a drawn uniform pins the comparison
        g = self.graph()
        u = np.random.Generator(np.random.Philox(key=np.array([5, 3], dtype=np.uint64))).random(g.m)
        sched = dc.GraphSchedule(g, float(u[1]), 5, 4)
        assert sched.masks[3, 1] and sched.active_mask(3)[1]
        assert not dc.GraphSchedule(g, float(np.nextafter(u[1], 1.0)), 5, 4).masks[3, 1]

    def test_mask_block_peak_is_its_own_block(self):
        # n = 3000, m = 4500: the temporaries beside the (K, m) block stay
        # under 1 MiB; a buffer of uniforms for the whole horizon would be 72 MB.
        g = dc.generate_graph(dc.GraphSpec(n=3000, extra_edges=1500, directed=False), 7)
        sched = dc.GraphSchedule(g, 0.2, 11, 2000)
        tracemalloc.start()
        try:
            block = sched.masks
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - block.nbytes <= 2**20, f"masks peaked {peak - block.nbytes} bytes above its block"

    def test_mask_block_builds_one_generator(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def counted(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        dc.GraphSchedule(self.graph(), 0.3, 9, 40).masks
        assert len(built) == 1


class TestMetropolisWeights:
    def test_symmetric_pair(self):
        g = dc.NominalGraph(2, [(0, 1)], False)
        W = metropolis_weights(g, np.array([True]))
        np.testing.assert_allclose(W, [[0.5, 0.5], [0.5, 0.5]])

    def test_weight_uses_max_nominal_degree(self):
        # star around 0 plus a path keeps degrees unequal: d0=4, d1=3
        g = dc.NominalGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)], False)
        W = metropolis_weights(g, np.ones(4, dtype=bool))
        assert W[0, 1] == pytest.approx(1.0 / 4.0)
        assert W[1, 2] == pytest.approx(1.0 / 3.0)

    def test_no_active_edges_gives_identity(self):
        g = dc.NominalGraph(3, [(0, 1), (1, 2)], False)
        W = metropolis_weights(g, np.zeros(2, dtype=bool))
        np.testing.assert_array_equal(W, np.eye(3))

    @given(n=st.integers(3, 12), seed=st.integers(0, 10_000), q=st.floats(0.0, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_stochasticity_and_diagonal_floor(self, n, seed, q):
        g = dc.generate_graph(dc.GraphSpec(n=n, extra_edges=3, directed=False), seed)
        sched = dc.GraphSchedule(g, q, seed, 2)
        W = metropolis_weights(g, sched.active_mask(0))
        np.testing.assert_allclose(W, W.T, atol=0)
        np.testing.assert_allclose(W.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(W >= 0)
        assert np.all(np.diag(W) >= 1.0 / g.degrees.max() - 1e-12)


class TestPushMatrix:
    def test_single_out_arc_splits_in_half(self):
        g = dc.NominalGraph(2, [(0, 1), (1, 0)], True)
        P = push_matrix(g, np.array([True, False]))
        assert P[0, 0] == pytest.approx(0.5)
        assert P[1, 0] == pytest.approx(0.5)
        assert P[1, 1] == pytest.approx(1.0)

    def test_no_active_arcs_gives_identity(self):
        g = dc.NominalGraph(3, [(0, 1), (1, 2), (2, 0)], True)
        np.testing.assert_array_equal(push_matrix(g, np.zeros(3, bool)), np.eye(3))

    def test_three_ring_fully_active(self):
        g = dc.NominalGraph(3, [(0, 1), (1, 2), (2, 0)], True)
        P = push_matrix(g, np.ones(3, bool))
        np.testing.assert_allclose(P.sum(axis=0), 1.0, atol=1e-15)
        for j in range(3):
            col = P[:, j]
            np.testing.assert_allclose(np.sort(col[col > 0]), [0.5, 0.5])


class TestAugmentedPushMatrix:
    def graph(self):
        return dc.NominalGraph(2, [(0, 1), (1, 0)], True)

    def test_active_arc_splits_gamma(self):
        g = self.graph()
        P = augmented_push_matrix(g, np.array([True, False]), 0.9)
        l01 = g.n + g.edges.index((0, 1))  # arc e is virtual node n + e
        assert P[0, 0] == pytest.approx(0.5)  # real self 1/d
        assert P[1, 0] == pytest.approx(0.45)  # gamma/d to target
        assert P[l01, 0] == pytest.approx(0.05)  # (1-gamma)/d to the arc node
        assert P[1, l01] == pytest.approx(0.9)  # virtual release
        assert P[l01, l01] == pytest.approx(0.1)  # virtual keep
        np.testing.assert_allclose(P.sum(axis=0), 1.0, atol=1e-15)

    def test_inactive_arc_diverts_to_virtual(self):
        g = self.graph()
        P = augmented_push_matrix(g, np.array([False, False]), 0.9)
        l01 = g.n + g.edges.index((0, 1))  # arc e is virtual node n + e
        assert P[0, 0] == pytest.approx(0.5)
        assert P[1, 0] == 0.0
        assert P[l01, 0] == pytest.approx(0.5)
        assert P[l01, l01] == pytest.approx(1.0)

    @given(n=st.integers(2, 10), seed=st.integers(0, 10_000), gamma=st.floats(0.05, 0.95), q=st.floats(0.0, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_columns_stochastic_and_entry_floor(self, n, seed, gamma, q):
        g = dc.generate_graph(dc.GraphSpec(n=n, extra_edges=2, directed=True), seed)
        sched = dc.GraphSchedule(g, q, seed, 2)
        P = augmented_push_matrix(g, sched.active_mask(0), gamma)
        np.testing.assert_allclose(P.sum(axis=0), 1.0, atol=1e-12)
        tau = min(gamma, 1 - gamma) / n
        nz = P[P > 0]
        assert nz.min() >= tau - 1e-15
        assert np.all(P.diagonal() > 0)
        # exactly one virtual node per arc; virtual columns have <= 2 nonzeros
        assert P.shape == (n + g.m, n + g.m)
        for col in range(n, n + g.m):
            assert np.count_nonzero(P[:, col]) <= 2

    def test_virtual_node_of_arc_e_is_column_n_plus_e(self, small_instance):
        # With every arc down, each virtual node holds its source's share of lam.
        g = dc.NominalGraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)], True)
        params = dc.AlgorithmParams(step=dc.ConstantStep(0.1))
        lam = np.array([1.0, 2.0, 4.0, 0.0, 0.0, 0.0, 0.0])
        state = dc.VirtualState(np.stack([lam, np.ones(7), np.zeros(7), np.zeros(7), lam]))
        down = np.zeros(g.m, bool)
        new = run_over("virtual", small_instance, g, [down], params, state).final
        P = augmented_push_matrix(g, down, params.gamma)
        for e, (src, _) in enumerate(g.edges):
            assert new.lam[g.n + e] == lam[src] / g.out_degrees[src]
            assert P[g.n + e, src] == 1.0 / g.out_degrees[src]


class TestEdgeListMixing:
    """The O(n + m) mixing the steps use against the dense reference matrices."""

    @given(
        n=st.integers(1, 12),
        directed=st.booleans(),
        seed=st.integers(0, 10_000),
        q=st.floats(0.0, 0.95),
        gamma=st.floats(0.01, 0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_mix_equals_dense_action(self, n, directed, seed, q, gamma):
        rng = np.random.default_rng(seed)
        g = dc.generate_graph(dc.GraphSpec(n=n, extra_edges=3, directed=directed), seed)
        active = rng.random(g.m) >= q
        params = dc.AlgorithmParams(step=dc.ConstantStep(0.1), gamma=gamma)
        if not directed:
            z = rng.normal(size=(2, n))  # a two-field stack mixes each row by W
            W = metropolis_weights(g, active)
            # (2, n) and (2, 2m): one row per field of the stack
            self_w, w = (a[0] for a in metropolis_table(g, active[None], 2))
            assert (self_w == self_w[0]).all() and (w == w[0]).all()
            tails, bins, _ = g.metropolis_arcs
            mixed = mix((self_w * z).ravel(), bins, (w * z[:, tails]).ravel())  # the stack and arc values, flat
            np.testing.assert_allclose(mixed.reshape(z.shape), z @ W.T, rtol=0, atol=1e-13)
            return
        z = rng.normal(size=(3, n))
        D, D_vy, live = (a[0] for a in push_table(g, active[None]))  # D for the lam row, then (2, n) and (3, m) over the mixed rows
        assert (D_vy == D).all() and (live == live[0]).all()
        _, tails, bins = g.arcs_by_head
        P = push_matrix(g, active)
        mixed = mix((z / D).ravel(), bins, ((z / D)[:, tails] * live).ravel())
        np.testing.assert_allclose(mixed.reshape(z.shape), z @ P.T, rtol=0, atol=1e-13)
        # The virtual step's mixing of lam and v (y = 0) is the augmented action.
        N = n + g.m
        A = augmented_push_matrix(g, active, gamma)
        inst = dc.ProblemInstance(np.zeros(n), np.zeros(n), np.zeros(n), dc.QuadraticCost(np.ones(n)))
        state = dc.VirtualState(np.stack([rng.normal(size=N), rng.random(N) + 0.5, np.zeros(N), np.zeros(N), np.zeros(N)]))
        new = run_over("virtual", inst, g, [active], params, state).final
        np.testing.assert_allclose(new.lam, A @ state.lam, rtol=0, atol=1e-13)
        np.testing.assert_allclose(new.v, A @ state.v, rtol=0, atol=1e-13)
        (g_rows,) = _release_table(g, active[None], params)
        assert (g_rows[0] == g_rows[0, 0]).all()  # (3, m): one row per mixed field

    @given(
        n=st.integers(1, 12),
        m=st.integers(0, 30),
        rows=st.integers(1, 6),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_row_bincount_is_a_per_row_bincount(self, n, m, rows, seed):
        # Bit for bit: each row's entries are summed per bin in the same order as a bincount of that row alone.
        rng = np.random.default_rng(seed)
        index = rng.integers(0, n, size=m)
        weights = rng.normal(size=(rows, m))
        want = np.array([np.bincount(index, row, n) for row in weights])
        got = row_bincount(index, weights, n)
        assert got.shape == (rows, n)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_stacked_repeats_short_rows_only(self):
        table = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(stacked(table, 3), np.stack([table] * 3, axis=1))
        np.testing.assert_array_equal(stacked(table[0], 3), np.stack([table[0]] * 3))
        long = np.arange(2.0 * (network.STACK_ROW_MAX + 1)).reshape(2, -1)
        assert stacked(long, 3).shape == (2, 1, network.STACK_ROW_MAX + 1) and np.shares_memory(stacked(long, 3), long)
        assert stacked(long[0], 3).shape == (1, network.STACK_ROW_MAX + 1)


class TestConnectivityWindows:
    def test_window_length_checked_at_every_horizon(self):
        g = dc.NominalGraph(3, [(0, 1), (1, 2)], False)
        for K in (0, 5):
            sched = dc.GraphSchedule(g, 0.2, 1, K)
            with pytest.raises(InvalidGraphError, match="B must be >= 1"):
                dc.check_B_connectivity(sched, 0)
            for B in (K + 1, K + 2):  # no complete window fits
                verdicts = dc.check_B_connectivity(sched, B)
                assert verdicts.dtype == bool and verdicts.shape == (0,)

    def test_no_failures_all_windows_connected(self):
        g = dc.NominalGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], False)
        sched = dc.GraphSchedule(g, 0.0, 1, 20)
        assert dc.check_B_connectivity(sched, 1).all()

    def test_forced_bridge_failure_disconnects_every_window(self):
        # path graph 0-1-2: dropping the bridge {1,2} forever keeps every
        # window union disconnected
        g = dc.NominalGraph(3, [(0, 1), (1, 2)], False)
        masks = np.tile([True, False], (12, 1))
        assert not windows_connected(g, masks, 3).any()

    def test_moderate_failures_windows_usually_connected(self):
        g = dc.generate_graph(dc.GraphSpec(n=10, extra_edges=4, directed=False), 3)
        sched = dc.GraphSchedule(g, 0.2, 5, 100)
        verdicts = dc.check_B_connectivity(sched, 10)
        assert verdicts.all()

    def test_minimal_window_measured(self):
        g = dc.NominalGraph(3, [(0, 1), (1, 2), (2, 0)], True)
        sched = dc.GraphSchedule(g, 0.0, 1, 12)
        assert dc.minimal_connectivity_window(sched) == 1

    def test_union_connected_empty_mask(self):
        g = dc.NominalGraph(3, [(0, 1), (1, 2)], False)
        assert not union_connected(g, np.zeros(2, bool))

    def test_window_need_not_be_monotone(self):
        # both links live only at steps 2 and 3: windows of 3 ([0, 3), [3, 6))
        # each catch one, the second window of 4 ([4, 8)) catches none, and
        # one window of 5 fits in 8 steps
        g = dc.NominalGraph(3, [(0, 1), (1, 2)], False)
        masks = np.zeros((8, 2), dtype=bool)
        masks[2:4] = True
        verdicts = [bool(windows_connected(g, masks, B).all()) for B in range(1, 6)]
        assert verdicts == [False, False, True, False, True]
        np.testing.assert_array_equal(_earliest_connect(g, masks), [3, 2, 1, 1, 9, 9, 9, 9])

    @given(
        n=st.integers(1, 8),
        directed=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_union_connected_matches_scipy(self, n, directed, data):
        # the complete nominal graph: masks reach every subgraph
        pairs = itertools.permutations(range(n), 2) if directed else itertools.combinations(range(n), 2)
        g = dc.NominalGraph(n, list(pairs), directed)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m)), dtype=bool)
        assert union_connected(g, mask) == scipy_union_connected(g, mask)

    @given(sched=schedules, K=st.none() | st.integers(-1, 70))
    @settings(max_examples=150, deadline=None)
    def test_minimal_window_matches_brute_force(self, sched, K):
        assert dc.minimal_connectivity_window(sched, K) == brute_minimal_window(sched, K)

    @given(
        n=st.integers(1, 10),
        extra=st.integers(0, 8),
        directed=st.booleans(),
        q=st.floats(0.0, 0.95),
        seed=st.integers(0, 2**32),
        K=st.integers(0, 80),
    )
    @settings(max_examples=200, deadline=None)
    def test_earliest_connect_matches_the_scan(self, n, extra, directed, q, seed, K):
        g = dc.generate_graph(dc.GraphSpec(n=n, extra_edges=extra, directed=directed), seed)
        masks = dc.GraphSchedule(g, q, seed, K).masks
        assert np.array_equal(_earliest_connect(g, masks), earliest_connect_scan(g, masks))

    def test_earliest_connect_needs_more_than_one_sweep(self):
        # a directed ring 0 -> 1 -> 2 -> 3 -> 0 listed mostly against the order
        # in which a search from node 0 meets its arcs, so neither direction
        # settles in one sweep; arc 0 -> 1 goes live at step 3
        g = dc.NominalGraph(4, [(2, 3), (1, 2), (0, 1), (3, 0)], True)
        masks = np.ones((6, 4), dtype=bool)
        masks[:3, 2] = False
        np.testing.assert_array_equal(_earliest_connect(g, masks), [4, 3, 2, 1, 1, 1])
        np.testing.assert_array_equal(earliest_connect_scan(g, masks), [4, 3, 2, 1, 1, 1])

    @given(sched=schedules)
    @settings(max_examples=80, deadline=None)
    def test_prefix_lengths_equal_a_fresh_search(self, sched):
        assert not sched.connect_lengths.flags.writeable
        for K in range(sched.horizon + 1):
            want = _earliest_connect(sched.nominal, sched.masks[:K])
            assert np.array_equal(_prefix_lengths(sched, K), want), K

    def test_search_runs_once_per_schedule(self, case39_directed, monkeypatch):
        import dercoord.network as network

        calls = []

        def counted(nominal, masks):
            calls.append(masks.shape[0])
            return _earliest_connect(nominal, masks)

        monkeypatch.setattr(network, "_earliest_connect", counted)
        inst, g = case39_directed
        params = dc.AlgorithmParams(step=dc.ConstantStep(0.01), xi=0.05, nhat=39.0, gamma=0.9, horizon=60)
        sched = dc.GraphSchedule(g, 0.2, 3, 80)
        for algorithm in ("robust", "virtual"):
            dc.invariant_report(dc.run(algorithm, inst, sched, params), schedule=sched)
        for K in (None, 1, 40, 60, 80):
            dc.minimal_connectivity_window(sched, K)
        assert calls == [80]

    @given(
        n=st.integers(1, 10),
        extra=st.integers(0, 8),
        directed=st.booleans(),
        seed=st.integers(0, 2**32),
        K=st.integers(0, 40),
        B=st.integers(1, 12),
        density=st.sampled_from([0.1, 0.5, 0.9]),
    )
    @settings(max_examples=200, deadline=None)
    def test_windows_connected_matches_scipy(self, n, extra, directed, seed, K, B, density):
        # Each flag live with probability `density`, so windows fail as well as pass (a sparse draw fails most).
        g = dc.generate_graph(dc.GraphSpec(n=n, extra_edges=extra, directed=directed), seed)
        masks = np.random.default_rng(seed).random((K, g.m)) < density
        verdicts = windows_connected(g, masks, B)
        assert verdicts.dtype == bool and verdicts.shape == (K // B,)
        np.testing.assert_array_equal(verdicts, brute_windows(g, masks, B))

    def test_one_missing_arc_fails_only_its_window_on_a_3000_ring(self):
        # A directed ring is strongly connected only with every arc, so exactly the window that misses
        # one arc fails. Each window is its own O(n + m) search; one quadratic in n would make these
        # 40 windows at n = 3000 take minutes.
        n, B = 3000, 5
        g = dc.NominalGraph(n, [(i, (i + 1) % n) for i in range(n)], True)
        masks = np.ones((40 * B, n), dtype=bool)
        masks[17 * B : 18 * B, 1234] = False
        expected = np.ones(40, dtype=bool)
        expected[17] = False
        np.testing.assert_array_equal(windows_connected(g, masks, B), expected)

    @given(sched=schedules, B=st.integers(1, 70))
    @settings(max_examples=100, deadline=None)
    def test_window_verdicts_match_brute_force(self, sched, B):
        expected = brute_windows(sched.nominal, sampled(sched, sched.horizon), B)
        np.testing.assert_array_equal(dc.check_B_connectivity(sched, B), expected)


def test_import_loads_no_scipy():
    # SciPy is a test-only dependency; importing it costs a few tenths of a second
    src = os.path.dirname(os.path.dirname(os.path.abspath(dc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, dercoord; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestGraphFiles:
    def test_round_trip(self, tmp_path):
        g = dc.generate_graph(dc.GraphSpec(n=6, extra_edges=2, directed=True), 9)
        path = tmp_path / "g.txt"
        path.write_text(format_graph(g), encoding="utf-8")
        loaded = dc.load_graph(path)
        assert loaded.n == g.n and loaded.edges == g.edges and loaded.directed

    def test_parse_error_carries_line_number(self):
        lines = numbered_lines("3 2 undirected\n0 1\nbad line\n")
        with pytest.raises(CaseParseError) as err:
            parse_graph_lines(lines)
        assert err.value.line == 3

    def test_bad_mode_rejected(self):
        with pytest.raises(CaseParseError, match="mode"):
            parse_graph_lines(numbered_lines("2 1 sideways\n0 1\n"))

    def test_disconnected_file_rejected(self):
        text = "4 2 undirected\n0 1\n2 3\n"
        with pytest.raises(CaseParseError):
            parse_graph_lines(numbered_lines(text))

    def test_format_is_header_plus_edges(self):
        g = dc.NominalGraph(2, [(0, 1)], False)
        assert format_graph(g) == "2 1 undirected\n0 1\n"
