import hashlib
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dercoord as dc
from dercoord import network
from dercoord.errors import InvalidGraphError
from dercoord.algorithms import _release_table
from dercoord.network import (
    _earliest_connect,
    _prefix_lengths,
    checked_bool,
    checked_real,
    metropolis_table,
    mix,
    offset_bins,
    push_table,
    row_bincount,
    stacked,
    union_connected,
    windows_connected,
)
from reference import (
    _metropolis,
    augmented,
    augmented_push_matrix,
    dfs_windows_connected,
    earliest_connect_scan,
    metropolis_weights,
    push_matrix,
    run_over,
    virtual_state,
)


def filled(bound, masks):
    """The rows a weight table bound as ``(table, fill)`` holds for the steps of `masks` once filled from them."""
    table, fill = bound
    fill(masks)
    return tuple(a[: len(masks)] for a in table)


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


def path_schedule(m, seed, horizon, q=0.3):
    """A schedule over the undirected path of m edges."""
    return dc.GraphSchedule(dc.NominalGraph(m + 1, [(i, i + 1) for i in range(m)], False), q, seed, horizon)


@st.composite
def packed_ranges(draw):
    """A path schedule and (lo, hi) ranges in its horizon: empty ones, and ones at 0, anywhere or across a chunk edge.

    m from 1 to 17 leaves every padding width in the last packed byte, and
    46 and 49 are the case39 graphs' edge counts.
    """
    m = draw(st.one_of(st.integers(1, 17), st.sampled_from([46, 49])))
    rows = chunk_rows(m)
    horizon = draw(st.one_of(st.integers(0, 40), st.integers(rows - 2, rows + 30)))
    sched = path_schedule(m, draw(st.integers(0, 2**64 - 1)), horizon, draw(st.floats(0.0, 0.9)))
    ranges = [(0, 0), (horizon, horizon)]
    for _ in range(draw(st.integers(1, 4))):
        lo = draw(st.one_of(st.integers(0, horizon), st.integers(max(0, min(rows, horizon) - 8), min(rows, horizon))))
        ranges.append((lo, draw(st.integers(lo, min(horizon, lo + 40)))))
    return sched, draw(st.permutations(ranges))


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


class TestInputRules:
    @pytest.mark.parametrize("value", [1e-300, 1e308, np.float64(2.0), np.float32(0.5), 3, Fraction(1, 3)])
    def test_real_default_interval_is_positive_and_finite(self, value):
        assert checked_real(value, "x", ValueError) is value

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0, -np.inf, np.inf, np.nan, "1", None, np.array(1.0), 1j])
    def test_real_default_interval_refuses_the_rest_by_name(self, value):
        with pytest.raises(ValueError, match=f"^x={re.escape(repr(value))} must be positive and finite$"):
            checked_real(value, "x", ValueError)

    def test_real_closed_interval_takes_its_low_end_only(self):
        assert checked_real(0.0, "q", ValueError, 0, 1, closed=True) == 0.0
        assert checked_real(-0.0, "q", ValueError, 0, 1, closed=True) == 0.0
        for value in (1.0, -1e-300, np.nan):
            with pytest.raises(ValueError, match=re.escape(f"q={value!r} must be a real number in [0, 1)")):
                checked_real(value, "q", ValueError, 0, 1, closed=True)
        with pytest.raises(ValueError, match=re.escape("g=0.0 must be a real number in (0, 1)")):
            checked_real(0.0, "g", ValueError, 0, 1)
        with pytest.raises(ValueError, match=re.escape("z=inf must be a real number in (-inf, inf)")):
            checked_real(np.inf, "z", ValueError, -np.inf)
        # The ends are written by `str`, so a float end reads exactly, and a 0.0 end still gives the default rule.
        with pytest.raises(ValueError, match=re.escape("h=0.1 must be a real number in [0.1234567, inf)")):
            checked_real(0.1, "h", ValueError, 0.1234567, closed=True)
        with pytest.raises(ValueError, match=re.escape("x=0.0 must be positive and finite")):
            checked_real(0.0, "x", ValueError, 0.0)

    def test_bool_takes_python_and_numpy_bools_only(self):
        assert checked_bool(True, "flag", ValueError) is True
        assert checked_bool(np.False_, "flag", ValueError) is False
        for value in (1, 0, "no", "false", None, np.nan):
            with pytest.raises(ValueError, match=f"^flag must be True or False, got {re.escape(repr(value))}$"):
                checked_bool(value, "flag", ValueError)


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

    def test_relabeled_rejects_a_perm_that_is_not_a_permutation(self):
        g = dc.NominalGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], False)
        for perm in ([0, 1], [0, 0, 1, 2, 3], [1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5]):
            with pytest.raises(InvalidGraphError, match=re.escape("perm must be a permutation of range(5)")):
                g.relabeled(perm)
        with pytest.raises(InvalidGraphError, match="perm entry must be an integer, got 1.5"):
            g.relabeled([0, 1.5, 2, 3, 4])
        relabeled = g.relabeled(np.array([4, 3, 2, 1, 0]))
        assert all(type(end) is int for edge in relabeled.edges for end in edge)
        assert relabeled == dc.NominalGraph(5, [(4, 3), (3, 2), (2, 1), (1, 0), (0, 4)], False)

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

    def test_digest_hashes_the_edge_text_formed_once_per_graph(self):
        g = dc.NominalGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=True)
        assert g.edge_text == "0,1;1,2;2,3;3,0" and g.edge_text is g.edge_text
        parts = ["philox4x64-v1", "4", "directed", "0,1;1,2;2,3;3,0", "0.20000000000000001", "1", "10"]
        want = hashlib.sha256("|".join(parts).encode()).hexdigest()
        assert dc.GraphSchedule(g, 0.2, 1, 10).digest() == want

    def test_negative_zero_q_gives_the_digest_of_zero(self):
        g = self.graph()
        zero, negative = dc.GraphSchedule(g, 0.0, 1, 10), dc.GraphSchedule(g, -0.0, 1, 10)
        assert negative == zero and negative.digest() == zero.digest()
        assert np.copysign(1.0, negative.q) == 1.0
        np.testing.assert_array_equal(negative.masks, zero.masks)

    def test_step_must_be_an_integer(self):
        sched = dc.GraphSchedule(self.graph(), 0.2, 1, 10)
        with pytest.raises(InvalidGraphError, match="step k must be an integer, got 1.5"):
            sched.active_mask(1.5)
        np.testing.assert_array_equal(sched.active_mask(np.int64(3)), sched.masks[3])

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

    @pytest.mark.parametrize("q", ["0.2", None])
    def test_q_that_is_not_a_number_is_named(self, q):
        # Checked before the range comparison, which would raise a bare TypeError.
        message = f"failure probability q={q!r} must be a real number in [0, 1)"
        with pytest.raises(InvalidGraphError, match=re.escape(message)):
            dc.GraphSchedule(self.graph(), q, 1, 10)

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
        # n = 3000, m = 4500: sampling the horizon into its packed cache
        # (1.1 MB) peaks under 1 MiB above it, so no (K, m) bool block (9 MB)
        # is made; a buffer of uniforms for the whole horizon would be 72 MB.
        # Unpacking `masks` then adds its own block and under 1 MiB more.
        g = dc.generate_graph(dc.GraphSpec(n=3000, extra_edges=1500, directed=False), 7)
        sched = dc.GraphSchedule(g, 0.2, 11, 2000)
        packed = sched.horizon * -(-g.m // 8)
        tracemalloc.start()
        try:
            sched.block(0, 0)  # the first use samples the horizon
            filled = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            block = sched.masks
            unpacked = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert filled - packed <= 2**20, f"sampling peaked {filled - packed} bytes above the packed bits"
        above = unpacked - packed - block.nbytes
        assert above <= 2**20, f"masks peaked {above} bytes above its block and the packed bits"

    @given(case=packed_ranges())
    @example(case=(path_schedule(1, 2**63, chunk_rows(1) + 3), [(chunk_rows(1) - 2, chunk_rows(1) + 3)]))
    @example(case=(path_schedule(49, 0, chunk_rows(49) + 1), [(0, chunk_rows(49) + 1)]))
    @settings(max_examples=60, deadline=None)
    def test_blocks_unpack_the_sampled_rows(self, case):
        sched, ranges = case
        m, horizon = sched.nominal.m, sched.horizon
        blocks = [sched.block(lo, hi) for lo, hi in ranges]  # the first samples the cache, before `masks`
        masks = sched.masks
        for (lo, hi), block in zip(ranges, blocks):
            assert block.shape == (hi - lo, m) and block.dtype == bool
            assert np.array_equal(block, masks[lo:hi]) and np.array_equal(sched.block(lo, hi), block)
            for k in range(lo, hi):
                assert np.array_equal(block[k - lo], sched.active_mask(k))
        assert sched.masks is masks and not masks.flags.writeable
        fresh = sched.block(0, horizon)
        assert fresh.flags.writeable and not np.shares_memory(fresh, masks)

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
        state = virtual_state(np.stack([lam, np.ones(7), np.zeros(7)]), np.zeros(3), lam[:3])
        down = np.zeros(g.m, bool)
        new = run_over("virtual", small_instance, g, [down], params, state).final
        P = augmented_push_matrix(g, down, params.gamma)
        for e, (src, _) in enumerate(g.edges):
            assert augmented(new)[0, g.n + e] == new.arcs[0, e] == lam[src] / g.out_degrees[src]
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
            self_w, w = (a[0] for a in filled(metropolis_table(g, 1, 2), active[None]))
            assert (self_w == self_w[0]).all() and (w == w[0]).all()
            tails, bins, _ = g.metropolis_arcs
            mixed = mix((self_w * z).ravel(), bins, (w * z[:, tails]).ravel())  # the stack and arc values, flat
            np.testing.assert_allclose(mixed.reshape(z.shape), z @ W.T, rtol=0, atol=1e-13)
            return
        z = rng.normal(size=(3, n))
        D, D_vy, live = (a[0] for a in filled(push_table(g, 1), active[None]))  # D for the lam row, then (2, n) and (3, m) over the mixed rows
        assert (D_vy == D).all() and (live == live[0]).all()
        _, tails, bins = g.arcs_by_head
        P = push_matrix(g, active)
        mixed = mix((z / D).ravel(), bins, ((z / D)[:, tails] * live).ravel())
        np.testing.assert_allclose(mixed.reshape(z.shape), z @ P.T, rtol=0, atol=1e-13)
        # The virtual step's mixing of lam and v (y = 0) is the augmented action.
        N = n + g.m
        A = augmented_push_matrix(g, active, gamma)
        inst = dc.ProblemInstance(np.zeros(n), np.zeros(n), np.zeros(n), dc.QuadraticCost(np.ones(n)))
        z = np.stack([rng.normal(size=N), rng.random(N) + 0.5, np.zeros(N)])  # lam, v and y of all N nodes
        state = virtual_state(z, np.zeros(n), np.zeros(n))
        new = augmented(run_over("virtual", inst, g, [active], params, state).final)
        np.testing.assert_allclose(new[0], A @ z[0], rtol=0, atol=1e-13)
        np.testing.assert_allclose(new[1], A @ z[1], rtol=0, atol=1e-13)
        (g_rows,) = filled(_release_table(g, 1, params), active[None])
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
        got = row_bincount(offset_bins(index, rows + 2, n), weights, n)  # bins bound for longer blocks serve it
        assert got.shape == (rows, n)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_dispatcher_free_bincount_is_numpys(self):
        # `mix` and `row_bincount` call bincount's C implementation, past NumPy's array-function dispatcher:
        # the same sums bit for bit, -0.0, infinities, NaN and subnormals among the weights, and empty bins.
        tiny = np.finfo(float).smallest_subnormal
        weights = np.array([-0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1.0, tiny, 5e-324, -0.0, 2.5])
        bins = np.array([0, 0, 1, 1, 2, 3, 3, 3, 5, 5, 7, 9])  # bins 4, 6 and 8 (and 10, 11) empty
        for minlength in (0, 12):
            want = np.bincount(bins, weights, minlength)
            assert network._bincount(bins, weights, minlength).tobytes() == want.tobytes()
        own = np.arange(12.0)
        assert mix(own.copy(), bins, weights).tobytes() == (own + np.bincount(bins, weights, 12)).tobytes()
        assert np.bincount(np.array([], dtype=np.intp), np.array([]), 3).tobytes() == network._bincount(
            np.array([], dtype=np.intp), np.array([]), 3).tobytes()

    def test_bincount_falls_back_to_numpys_without_an_implementation_attribute(self, monkeypatch):
        # A NumPy whose np.bincount has no `_implementation` gets np.bincount itself: the package imported
        # afresh under such a NumPy binds it, and mixes with it.
        import importlib.util

        calls, original = [], np.bincount

        def bincount(*args):
            calls.append(len(args))
            return original(*args)

        monkeypatch.setattr(np, "bincount", bincount)
        init = Path(network.__file__).parent / "__init__.py"
        spec = importlib.util.spec_from_file_location("network_fallback", init,
                                                      submodule_search_locations=[str(init.parent)])
        package = sys.modules["network_fallback"] = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(package)
            own = np.array([1.0, 2.0, 3.0])
            mixed = package.network.mix(own, np.array([2, 0]), np.array([0.5, 0.25]))
        finally:
            for name in [key for key in sys.modules if key.split(".")[0] == "network_fallback"]:
                del sys.modules[name]
        assert package.network._bincount is bincount
        assert mixed.tolist() == [1.25, 2.0, 3.5]
        assert calls == [3]

    @given(
        n=st.integers(1, 10),
        directed=st.booleans(),
        seed=st.integers(0, 10_000),
        q=st.floats(0.0, 0.95),
        rows=st.integers(1, 5),
        fields=st.integers(1, 3),
        long=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_tables_are_written_block_by_block(self, n, directed, seed, q, rows, fields, long):
        # A table bound once for blocks of up to `rows` steps holds, after each block's fill, each step's weights
        # as the reference steps build them, bit for bit, laid out over the stack as `stacked` lays them, or left
        # one row when every row counts as long; a shorter block leaves the rows after it unread.
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n, directed)
        params = dc.AlgorithmParams(step=dc.ConstantStep(0.1), gamma=float(rng.uniform(0.01, 0.99)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(network, "STACK_ROW_MAX", -1 if long else network.STACK_ROW_MAX)
            if directed:
                kinds, bound = ("push", "release"), [push_table(g, rows), _release_table(g, rows, params)]
            else:
                kinds, bound = ("metropolis",), [metropolis_table(g, rows, fields)]
            for k in (rows, max(1, rows - 2), rows):
                masks = rng.random((k, g.m)) >= q
                for kind, table in zip(kinds, [filled(b, masks) for b in bound]):
                    for j, active in enumerate(masks):
                        if kind == "metropolis":
                            self_w, w, _, _ = _metropolis(g, active)
                            want, stacks = (self_w, w), (fields, fields)
                        elif kind == "push":
                            order, tails, _ = g.arcs_by_head
                            live = active[order].astype(float)
                            D = 1.0 + np.bincount(tails, weights=live, minlength=n)
                            want, stacks = (D, D, live), (None, 2, 3)
                        else:
                            want, stacks = (params.gamma * active,), (3,)
                        for got, row, stack in zip(table, want, stacks, strict=True):
                            expect = row if stack is None else stacked(row, stack)
                            assert got[j].shape == expect.shape and got[j].tobytes() == expect.tobytes(), kind

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
            with pytest.raises(InvalidGraphError, match="window length B must be an integer, got 1.5"):
                dc.check_B_connectivity(sched, 1.5)
            with pytest.raises(InvalidGraphError, match="window length B must be an integer, got 1.5"):
                windows_connected(g, sched.masks, 1.5)
            for B in (K + 1, K + 2):  # no complete window fits
                verdicts = dc.check_B_connectivity(sched, B)
                assert verdicts.dtype == bool and verdicts.shape == (0,)

    def test_window_prefix_must_be_an_integer(self):
        g = dc.NominalGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], False)
        sched = dc.GraphSchedule(g, 0.0, 1, 20)
        with pytest.raises(InvalidGraphError, match="prefix length K must be an integer, got 2.5"):
            dc.minimal_connectivity_window(sched, 2.5)
        assert dc.minimal_connectivity_window(sched, np.int64(5)) == dc.minimal_connectivity_window(sched, 5) == 1

    def test_window_prefix_must_not_be_negative(self):
        # A negative K is an error, not a prefix with no window; an empty prefix has none.
        g = dc.NominalGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], False)
        sched = dc.GraphSchedule(g, 0.0, 1, 20)
        with pytest.raises(InvalidGraphError, match="prefix length K must be >= 0, got -3"):
            dc.minimal_connectivity_window(sched, -3)
        assert dc.minimal_connectivity_window(sched, 0) is None

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
        if K is not None and K < 0:  # no prefix is that long
            with pytest.raises(InvalidGraphError, match=f"prefix length K must be >= 0, got {K}"):
                dc.minimal_connectivity_window(sched, K)
            return
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
        K=st.integers(0, 160),
        B=st.integers(1, 12),
        density=st.sampled_from([0.1, 0.5, 0.9]),
        cut=st.integers(0, 4),
    )
    @example(n=1, extra=0, directed=False, seed=0, K=212, B=3, density=0.5, cut=2)  # no link at all, 70 windows
    @example(n=1, extra=0, directed=True, seed=0, K=3, B=4, density=0.5, cut=0)  # K < B: no window
    @example(n=6, extra=2, directed=True, seed=3, K=128, B=2, density=0.9, cut=3)  # exactly one 64-bit word
    @example(n=6, extra=2, directed=True, seed=3, K=131, B=2, density=0.9, cut=3)  # one bit into a second
    @example(n=5, extra=3, directed=False, seed=7, K=130, B=1, density=0.9, cut=4)  # three words
    @example(n=5, extra=3, directed=False, seed=7, K=13, B=1, density=0.5, cut=1)  # not whole bytes
    @settings(max_examples=200, deadline=None)
    def test_windows_connected_matches_scipy(self, n, extra, directed, seed, K, B, density, cut):
        # All windows judged at once, one bit each, against one depth-first search per window and against
        # SciPy's components. Each flag is live with probability `density`, so windows fail as well as pass (a
        # sparse draw fails most), and every window w with w % 5 < cut has node 0 cut off for its B steps.
        g = dc.generate_graph(dc.GraphSpec(n=n, extra_edges=extra, directed=directed), seed)
        masks = np.random.default_rng(seed).random((K, g.m)) < density
        at_0 = (g.srcs == 0) | (g.dsts == 0)
        for w in range(K // B):
            if w % 5 < cut:
                masks[w * B : (w + 1) * B, at_0] = False
        verdicts = windows_connected(g, masks, B)
        assert verdicts.dtype == bool and verdicts.shape == (K // B,)
        np.testing.assert_array_equal(verdicts, dfs_windows_connected(g, masks, B))
        np.testing.assert_array_equal(verdicts, brute_windows(g, masks, B))
        assert n == 1 or not verdicts[:cut].any()  # a window with node 0 cut off fails, unless node 0 is all

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

