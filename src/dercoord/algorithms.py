"""The centralized primal-dual baseline, the four distributed dispatch iterations and the virtual-domain twin.

One driver, `run`, steps every algorithm. Update ordering within a step
is fixed: the dispatch p[k+1] is the projected
primal step from step-k values (`problem._primal_step`, which every
algorithm takes), multiplier/weight estimates are mixed
from step-k values, and the imbalance tracker y is mixed from step-k
values and then incremented with nhat*(p[k+1] - p[k]).

Each state keeps its node fields as the rows of one contiguous (R, n)
array `nodes`, and the named fields are row views of it: (p, lam, y) for
pd1, (p, lam) for pd2 and centralized, and (lam, v, y, p, x) for the
push-sum algorithms, with the running sums of lam, v and y as three more
rows for robust. The rows a step mixes are adjacent, the stack `z`:
(lam, y), (lam,) or (lam, v, y); centralized mixes none. Robust's
per-arc mirror and in-flight values are one (6, m) array `arcs`. Each
algorithm's arithmetic is one private kernel, bound once per run:
``kernel(inst, graph, params) -> (views, step)``. Binding
looks up what is fixed for the run (the primal step with its cost
gradient and box, nhat as a 0-d array, the graph's tails, exact-length
`mix` bins and out-degrees) and allocates the scratch buffers a step
writes through, with their row and flat views. ``views(*arrays)`` makes
the view tuple of one state's arrays (`nodes`, then robust's `arcs`):
the rows and row stacks the step reads or writes, and the flat view of
the mixed stack that `mix` adds into (virtual's spans the full rows of
all N nodes, its bins offset by N per row, since its real-node stack is
strided).
``step(cur, nxt, weights, s, sxi)`` reads the views `cur`, the step's row
of the algorithm's weight table and the stepsize s and its product
s*xi, both as 0-d arrays, and fills `nxt` with ufuncs writing through
positional `out`, mixing the whole stack in one call of the edge-list
primitive `network.mix` in O(F (n + m)). The table's rows come in the
shape of the stack each one meets: pd1 reads self weights (2, n) and arc
weights (2, 2m), pd2 the same over one row, directed D (n,) for lam, D
(2, n) for v and y and the live arcs (3, m), and robust and virtual the
release fractions (3, m); robust and virtual divide by their
out-degrees as a bound (3, n) array. So a step's ufunc calls meet
operands of one shape and take NumPy's same-shape loop, with the bits
of the broadcasting one; a row longer than `network.STACK_ROW_MAX`
stays one row, which the call broadcasts (`network.stacked`). A step
allocates no array (but `mix`'s sums) and makes no view, and no Python
float reaches its ufuncs; each expression keeps its operands and their
order, so the bits are those of the plain NumPy expressions. No kernel
builds a dense matrix.

Each algorithm is declared once, as one `_Spec` entry plus its kernel.
The entry gives its state type (whose rows say the graph kind: push-sum
states need a directed graph), how its start lifts from the push-sum
rows, the names its guard gives the node rows and what a lost push-sum
weight reads, its kernel and weight table, the rows it records and the
rows that carry its tracked imbalance and push-sum mass. `ALGORITHMS`,
`check_pairing`'s rules and `RUNNING_SUM_ALGORITHMS` derive from the
table. Every start comes from one builder, `_start`: `initial_state`
gives the standard start (lam = 0, y = nhat*(p - load)) and
`equilibrium_state` the state at the oracle's solution (a fixed point of
every algorithm but pd2), both for any algorithm.

`run` steps any algorithm over the schedule's mask block. It records
state 0 first, once its node rows and robust's arc rows are found finite
(a non-finite one is named at step 0; positivity waits for step 1, since
virtual nodes start at v = 0), then works through the steps in blocks of
about 2^13 link entries and at least 8 steps, in place in a ring of rows + 1 slots
per state array, each slot starting as the start state (so what no step
writes, such as virtual's pinned dispatch, keeps its start value): slot
0 holds the state before the block, the block's step j reads slot j and
writes slot j + 1, and the last slot written then moves to slot 0 in
place. The ring's arrays are never reallocated, so each slot's view
tuple is made once per run and the step loop makes none. A block's
weight table is formed once, and its stepsizes s and s*xi fill two
vectors whose 0-d views are made once per run, s from one
``params.stepsize`` call over the block's step numbers. For robust and
virtual the table is the release fractions g = gamma*mask, which the step
multiplies into a bound buffer (an idle arc gives +-0.0, which leaves
every sum it enters unchanged, but a non-finite value on an idle arc
gives NaN). After the block, one positivity reduction over the v rows
and one finiteness reduction over all node rows guard it. Only on
failure are its slots taken in order, to raise the error of the first
failing step: positivity before finiteness, every non-finite row named,
p first. The block's later steps have by then run on that step's values,
which may be non-finite, but nothing they computed is kept. The steps
run with NumPy's floating-point warnings off: an overflow, invalid value
or division by zero ends in a non-finite or non-positive iterate, which
the guard names by step and field. The trace is one series-major
(series, K + 1, n) block, so each recorded series is a C-contiguous
(K + 1, n) view of it, and the residual series are the rows of one
(residuals, K + 1) block. One `record` per block copies the block's
states into the trace as one slice and writes the block's rows of every
residual series, reduced row-wise over those rows and, for the
tracked-imbalance and mass totals, over the ring rows the spec names
(robust's in-flight values among them, and virtual's v and y over all N
nodes), in the order of one state at a time, so they are bit-identical
to a per-step evaluation.
After the last block, slot 0 holds the last state, which the trace keeps
a copy of as `final`: ``run(..., init=trace.final)`` resumes from it.
The resumed run numbers its steps from 0 again, so it takes its
schedule's masks and the stepsize of step 0 onwards: a
``DiminishingStep(a, b)`` run stopped after k1 steps resumes with
``DiminishingStep(a, b + k1)``, bit for bit when b is integer-valued.

Algorithms (ids used by `run`):

* ``pd1``         gradient-tracking primal-dual over undirected graphs
* ``pd2``         crude variant using only the local imbalance
* ``directed``    push-sum (ratio consensus) primal-dual, instantaneous
                  out-degrees known
* ``robust``      running-sum primal-dual, only nominal out-degrees known
* ``virtual``     the robust algorithm rewritten over real + virtual nodes
                  (nominal arc e is virtual node n + e); its real-node
                  coordinates coincide with ``robust`` step by
                  step, which is the strongest oracle for both
* ``centralized`` the projected primal-dual baseline the others
                  distribute: one multiplier fed the exact total
                  imbalance, held in every agent's lam row; it reads no
                  link, and pairs with undirected graphs as pd1 does

The robust algorithm is stated exactly as the protocol runs: each node
broadcasts running sums of its shares and keeps one mirror accumulator per
nominal in-arc plus itself; state advances are differences of mirror
advances, all mirrors being advanced before any difference is formed.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np
from numpy import add, divide, multiply, subtract

from .errors import DimensionMismatchError, DivergenceError, InternalInvariantError, ModeMismatchError
from .metrics import RunTrace, run_warnings
from .network import (
    GraphSchedule,
    NominalGraph,
    metropolis_table,
    mix,
    offset_bins,
    push_table,
    stacked,
    union_connected,
)
from .problem import AlgorithmParams, ProblemInstance, _primal_step, checked_p0

# Trace rows per block: about this many link entries (rows = this // m),
# so a block's temporaries stay small whatever the horizon, ...
_RESIDUAL_BLOCK_ENTRIES = 2**13
# ... but at least this many, so that each block's fixed cost of a dozen
# reductions is shared (at n = 3000 one-row blocks cost more per step
# than reducing each state on its own).
_MIN_BLOCK_ROWS = 8


@dataclass(frozen=True)
class UndirectedState:
    """Iterates of pd1/pd2/centralized as the rows of one (R, n) array: p, then the mixed stack z.

    z is (lam, y), the multiplier estimates and the imbalance tracker; pd2
    and the centralized baseline carry no tracker, so their z is (lam,)
    and their y is None.
    """

    nodes: np.ndarray

    p = property(lambda self: self.nodes[0])
    z = property(lambda self: self.nodes[1:])
    lam = property(lambda self: self.nodes[1])
    y = property(lambda self: self.nodes[2] if len(self.nodes) > 2 else None)


class _PushSumRows:
    """A push-sum state's node rows: lam, v, y (the mixed stack z), then p and x."""

    z = property(lambda self: self.nodes[:3])
    lam = property(lambda self: self.nodes[0])
    v = property(lambda self: self.nodes[1])
    y = property(lambda self: self.nodes[2])
    p = property(lambda self: self.nodes[3])
    x = property(lambda self: self.nodes[4])


@dataclass(frozen=True)
class DirectedState(_PushSumRows):
    """Push-sum iterates: rows lam, v, y, p, x; v the push-sum weights, x = lam / v."""

    nodes: np.ndarray


@dataclass(frozen=True)
class RobustState(_PushSumRows):
    """Running-sum iterates: node rows as for push-sum, then the running sums.

    The last three node rows, ``sums``, are the broadcast running sums of
    lam, v and y through the current step. ``arcs`` holds one (6, m) array
    over the nominal arcs: ``mirror``, the accumulators kept at the
    receiving node, then ``virt``, the in-flight values (the virtual-node
    states the protocol implies), each a stack of the three families in the
    rows of z. Memory is O(n + arcs) per family. ``virt`` is advanced
    alongside the protocol for diagnostics; no node update reads it.
    """

    nodes: np.ndarray
    arcs: np.ndarray

    sums = property(lambda self: self.nodes[5:])
    mirror = property(lambda self: self.arcs[:3])
    virt = property(lambda self: self.arcs[3:])


@dataclass(frozen=True)
class VirtualState(_PushSumRows):
    """Augmented iterates over the n real nodes, then one virtual node per nominal arc (N = n + m columns).

    Virtual dispatch entries are pinned to zero (their box is [0, 0]);
    virtual lam/v/y start at zero.
    """

    nodes: np.ndarray


def _robust_start(graph: NominalGraph, start: DirectedState) -> RobustState:
    """The node values of `start`, running sums through step 0, zero mirrors and in-flight values."""
    return RobustState(np.concatenate([start.nodes, start.z / graph.out_degrees]), np.zeros((6, graph.m)))


def _virtual_start(graph: NominalGraph, start: DirectedState) -> VirtualState:
    """The real nodes of `start`, then one virtual node per nominal arc (arc e is node n + e) holding zero."""
    return VirtualState(np.pad(start.nodes, ((0, 0), (0, graph.m))))


def _start(spec: _Spec, graph: NominalGraph, p, lam, y):
    """The state of `spec`'s algorithm with dispatch p, multiplier estimates lam and tracker y.

    Undirected states take the first len(spec.names) of p, lam and y (pd2
    has no y); push-sum states take lam, v = 1, y, p and x = lam, then the
    spec's lift.
    """
    if not spec.directed:
        return spec.state(np.stack([p, lam, y][: len(spec.names)]))
    return spec.lift(graph, DirectedState(np.stack([lam, np.ones(len(p)), y, p, lam])))


def initial_state(algorithm: str, inst: ProblemInstance, graph: NominalGraph, params: AlgorithmParams, p0=None):
    """The standard start `run` takes by default: lam = 0, v = 1, y_i = nhat*(p_i[0] - load_i).

    p[0] is `p0`, checked to lie in the box, or `default_p0`. Robust's
    running sums include step 0 and its mirrors start at zero; virtual
    nodes start at zero. Raises `ModeMismatchError` unless the algorithm
    fits the graph (`check_pairing`).
    """
    spec = check_pairing(algorithm, inst, graph)
    p = checked_p0(inst, p0)
    return _start(spec, graph, p, np.zeros(inst.n), params.nhat * (p - inst.loads))


def equilibrium_state(algorithm: str, inst: ProblemInstance, graph: NominalGraph, params: AlgorithmParams, solution):
    """The state at the oracle's `solution`: an exact fixed point, for equilibrium-invariance tests.

    The multiplier estimates sit at (nhat/n) * lambda* (oracle scaled
    convention) and the imbalance trackers at zero; for push-sum
    algorithms lam stays proportional to v, keeping x constant even as the
    weights mix. pd2 has no fixed point: its multipliers see only the
    local imbalance, so they leave this state. Raises `ModeMismatchError`
    unless the algorithm fits the graph (`check_pairing`).
    """
    spec = check_pairing(algorithm, inst, graph)
    lam = np.full(inst.n, params.nhat / inst.n * solution.lambda_star)
    return _start(spec, graph, np.asarray(solution.p_star, dtype=float), lam, np.zeros(inst.n))


def _check_block(algorithm: str, names, what: str | None, first: int, block: np.ndarray) -> None:
    """Guard the node arrays of consecutive states, the first at step `first`, with two reductions.

    The rows are `names`; v (row 1) must stay positive unless `what`, the
    error's detail, is None. fmin skips NaNs, so a minimum v <= 0 means
    some weight is <= 0. Only a failing block is taken state by state, for
    the first failing state's error.
    """
    if (what is None or not np.fmin.reduce(block[:, 1], axis=None) <= 0.0) and np.isfinite(block).all():
        return
    for step, nodes in enumerate(block, first):
        if what is not None and np.fmin.reduce(nodes[1]) <= 0.0:
            raise InternalInvariantError(step, what)
        bad = [name for name, row in zip(names, nodes) if not np.isfinite(row).all()]
        if bad:
            bad.sort(key=lambda name: name != "p")
            raise DivergenceError(step, f"{algorithm}: {', '.join(bad)}")


def _scalar(x) -> np.ndarray:
    """x as a 0-d float array: a ufunc takes one faster than a Python float, with the same bits."""
    return np.array(x, dtype=float)


def _pd2(inst, graph, params):
    """Crude variant: the multiplier sees only the local imbalance.

    lam[k+1] = W lam[k] - s*nhat*(p[k] - load), W the doubly stochastic
    Metropolis weights. Needs a diminishing stepsize to converge; with a
    constant one it stalls at a bias.
    """
    primal, loads, nhat = _primal_step(inst, params), inst.loads, _scalar(params.nhat)
    tails, bins, _ = graph.metropolis_arcs
    gathered, scratch, snhat = np.empty((1, len(tails))), np.empty(inst.n), np.empty(())
    bins, flat = bins[: gathered.size], gathered.reshape(-1)

    def step(cur, nxt, weights, s, sxi):
        self_w, w = weights
        (p0, lam0, z0), (p, lam, z) = cur, nxt
        primal(s, sxi, p0, lam0, p)
        multiply(z0, self_w, z)
        multiply(z0.take(tails, 1, gathered, "clip"), w, gathered)
        mix(lam, bins, flat)  # lam: the one-row stack z, flat
        subtract(lam, multiply(subtract(p0, loads, scratch), multiply(s, nhat, snhat), scratch), lam)

    return lambda a: (a[0], a[1], a[1:2]), step


def _pd1(inst, graph, params):
    """Gradient-tracking primal-dual step over the doubly stochastic Metropolis weights."""
    primal, nhat = _primal_step(inst, params), _scalar(params.nhat)
    tails, bins, _ = graph.metropolis_arcs
    gathered, scratch = np.empty((2, len(tails))), np.empty(inst.n)
    flat = gathered.reshape(-1)

    def step(cur, nxt, weights, s, sxi):
        self_w, w = weights
        (p0, lam0, y0, z0, _), (p, lam, y, z, z_flat) = cur, nxt
        primal(s, sxi, p0, lam0, p)
        multiply(z0, self_w, z)
        multiply(z0.take(tails, 1, gathered, "clip"), w, gathered)
        mix(z_flat, bins, flat)
        subtract(lam, multiply(y0, s, scratch), lam)
        add(y, multiply(subtract(p, p0, scratch), nhat, scratch), y)

    return lambda a: (a[0], a[1], a[2], a[1:], a[1:].reshape(-1)), step


def _directed(inst, graph, params):
    """Push-sum primal-dual step; instantaneous out-degrees are known.

    The mixing is evaluated the way the nodes compute it: each source
    divides its value by its instantaneous out-degree and receivers sum
    the shares, which keeps the push-sum totals conserved to a much
    tighter floating-point tolerance than a dense matrix product would.
    lam mixes together with -s*y.
    """
    primal, nhat = _primal_step(inst, params), _scalar(params.nhat)
    _, tails, bins = graph.arcs_by_head
    gathered, scratch = np.empty((3, graph.m)), np.empty(inst.n)
    flat = gathered.reshape(-1)

    def step(cur, nxt, weights, s, sxi):
        D, D_vy, live = weights
        lam0, _, y0, p0, x0, _, vy0, _ = cur
        lam, v, y, p, x, z, vy, z_flat = nxt  # z: each node's share of (lam - s*y, v, y), mixed in place
        primal(s, sxi, p0, x0, p)
        divide(subtract(lam0, multiply(y0, s, scratch), scratch), D, lam)
        divide(vy0, D_vy, vy)
        multiply(z.take(tails, 1, gathered, "clip"), live, gathered)
        mix(z_flat, bins, flat)
        add(y, multiply(subtract(p, p0, scratch), nhat, scratch), y)
        divide(lam, v, x)

    return lambda a: (a[0], a[1], a[2], a[3], a[4], a[:3], a[1:3], a[:3].reshape(-1)), step


def _robust(inst, graph, params):
    """Running-sum primal-dual step; only nominal out-degrees are used.

    Mirror advance for arc (j, i): the mirror jumps to
    (1-g)*mirror + g*(running sum of j), g the arc's release fraction
    (gamma on delivery, 0 otherwise). A node keeps its own current share.
    All mirrors advance first; node states are then their own shares plus
    the delivered mirror differences (with the y differences entering the
    lam update at -s). The step's weights are its release fractions over
    the three mixed rows, as a 1-tuple.
    """
    primal, nhat = _primal_step(inst, params), _scalar(params.nhat)
    srcs, bins, dplus = graph.srcs, graph.arc_bins, stacked(graph.out_degrees, 3)  # as z0 meets it
    gathered, own_y, scratch, dy = np.empty((3, graph.m)), np.empty(inst.n), np.empty(inst.n), np.empty(graph.m)
    d = np.empty((3, graph.m))  # the mirror advances, then what the arcs deliver
    d_lam, d_y, d_flat = d[0], d[2], d.reshape(-1)

    def step(cur, nxt, weights, s, sxi):
        (g,) = weights
        _, _, _, p0, x0, z0, _, sums0, mirror0, virt0 = cur
        lam, v, y, p, x, z, z_flat, sums, mirror, virt = nxt
        primal(s, sxi, p0, x0, p)
        # Mirror advances in increment form: g*(sum - mirror) equals
        # (1-g)*mirror + g*sum exactly, but the subtraction of the two
        # nearby running quantities is exact in floating point, so the node
        # updates are free of the large-magnitude rounding the running sums
        # would otherwise inject. An idle arc advances by +-0.0.
        multiply(subtract(sums0.take(srcs, 1, gathered, "clip"), mirror0, gathered), g, d)
        add(mirror0, d, mirror)
        divide(z0, dplus, z)  # each node's shares, mixed in place below
        # In-flight sidecar: every step an arc absorbs its source's share and
        # releases exactly the delivered mirror difference, so the augmented
        # conservation sums telescope without touching the large running sums.
        subtract(add(virt0, z.take(srcs, 1, gathered, "clip"), virt), d, virt)
        multiply(y, s, own_y)
        subtract(d_lam, multiply(d_y, s, dy), d_lam)  # lam arrives together with -s times y
        mix(z_flat, bins, d_flat)
        subtract(lam, own_y, lam)
        add(y, multiply(subtract(p, p0, scratch), nhat, scratch), y)
        divide(lam, v, x)
        add(divide(z, dplus, sums), sums0, sums)

    return lambda a, arcs: (*a[:5], a[:3], a[:3].reshape(-1), a[5:], arcs[:3], arcs[3:]), step


def _virtual(inst, graph, params):
    """Augmented-system step: the action of the column-stochastic mixing.

    lam mixes together with -s*y on the real rows only (virtual nodes
    accumulate raw lam shares); v mixes plainly; y mixes and the real rows
    gain nhat*(p[k+1] - p[k]). The mixing is evaluated per column the way
    the augmented matrix is defined: each real source splits off
    1/out-degree shares, an arc releases the fraction g of its held value
    plus the incoming share (gamma on delivery, 0 otherwise) and retains
    the complement (the retained part is computed as inflow minus the
    released product, so the masses cancel exactly). Real-node
    coordinates match `_robust` step by step, and the result equals
    applying the augmented push matrix to (lam - s*y on real rows, v, y)
    up to roundoff. The step's weights are its release fractions over the
    three mixed rows, as a 1-tuple. The virtual nodes' dispatch is never
    written: every ring slot starts as the run's start state.
    """
    n, primal, nhat = inst.n, _primal_step(inst, params), _scalar(params.nhat)
    srcs, dplus = graph.srcs, stacked(graph.out_degrees, 3)  # as real0 meets it
    bins = offset_bins(graph.dsts, 3, n + graph.m)  # the arc heads in rows of all N nodes
    gathered, own_y, scratch, dy = np.empty((3, graph.m)), np.empty(n), np.empty(n), np.empty(graph.m)
    released = np.empty((3, graph.m))
    released_lam, released_y, released_flat = released[0], released[2], released.reshape(-1)

    def step(cur, nxt, weights, s, sxi):
        (g,) = weights
        real0, held0, _, _, p0, x0, _, _, _, _, _ = cur
        real, held, lam, y, p, _, full_lam, v, x, z, z_flat = nxt
        primal(s, sxi, p0, x0, p)
        divide(real0, dplus, real)  # each real node's shares, mixed in place below
        add(held0, z.take(srcs, 1, gathered, "clip"), held)  # from the contiguous rows: take copies a strided source
        subtract(held, multiply(held, g, released), held)
        # real rows mix (lam - s*y); virtual rows carry lam and y separately
        multiply(y, s, own_y)
        subtract(released_lam, multiply(released_y, s, dy), released_lam)
        mix(z_flat, bins, released_flat)  # virtual nodes gain +0.0, and held - held*g is never -0.0: same bits
        subtract(lam, own_y, lam)
        add(y, multiply(subtract(p, p0, scratch), nhat, scratch), y)
        divide(full_lam, v, x)

    return lambda a: (a[:3, :n], a[:3, n:], a[0, :n], a[2, :n], a[3, :n], a[4, :n], a[0], a[1], a[4], a[:3],
                      a[:3].reshape(-1)), step


def _centralized(inst, graph, params):
    """Centralized projected primal-dual step: every lam row holds the one multiplier.

    lam[k+1] = lam[k] - s*1'(p[k] - load), the exact total imbalance, so
    each element goes through the operations of the scalar iteration. The
    step reads no link: its weights (the masks) go unread.
    """
    primal, loads, gap = _primal_step(inst, params), inst.loads, np.empty(inst.n)
    total, scaled = np.empty(()), np.empty(())  # apart: a 0-d ufunc writing over its input runs at half speed

    def step(cur, nxt, weights, s, sxi):
        (p0, lam0), (p, lam) = cur, nxt
        primal(s, sxi, p0, lam0, p)
        add.reduce(subtract(p0, loads, gap), 0, None, total)  # what gap.sum() computes
        subtract(lam0, multiply(total, s, scaled), lam)

    return lambda a: (a[0], a[1]), step


def _release_table(graph: NominalGraph, masks: np.ndarray, params) -> tuple:
    """Running-sum weight table: the release fractions g = gamma*mask over the three mixed rows (`stacked`)."""
    return (stacked(params.gamma * masks, 3),)


@dataclass(frozen=True)
class _Spec:
    """One algorithm, declared once: how it starts, how it is guarded, stepped and recorded.

    ``state`` is its state type. A push-sum state (rows lam, v, y, p, x)
    runs on a directed graph, any other on an undirected one
    (``directed``). ``lift`` maps (graph, push-sum start) to a push-sum
    algorithm's state (see `_start`); the undirected algorithms have none.
    ``names`` names the state's node rows in guard errors (an undirected
    state has exactly these rows); ``lost_weight`` is what a lost
    positivity of the push-sum weights v reads (None: no weights).
    ``kernel`` binds the views and the step to a run (see the module
    docstring). The trace records node rows ``rows`` of each state, as the
    series named in ``series`` (row for row), with one copy per block;
    "consensus" is the multiplier estimates. ``y`` and ``v`` are the
    (state field, row) pairs of the state ring whose totals, over all the
    field's columns, are the tracked imbalance and the push-sum mass;
    empty means the algorithm carries no such quantity.
    ``weights`` maps (graph, masks, params) to the weight table of a
    (rows, m) block of masks, a tuple of arrays whose row r the block's
    step r takes, each in the shape of the stack it meets (see the module
    docstring): the Metropolis or push-sum table, or the running sums'
    release fractions g = gamma*mask (`_release_table`). It is None for a
    step that reads no link, which then takes the masks, unread, and whose
    run makes no connectivity note. ``arc_names`` names the rows of the
    state's ``arcs`` array (robust's mirrors, then its in-flight values),
    which `run` checks finite at step 0, beside the node rows; the guard
    after each block reads node rows only.
    """

    state: type
    lift: Callable | None
    names: tuple[str, ...]
    lost_weight: str | None
    kernel: Callable
    weights: Callable
    rows: slice
    series: tuple[str, ...]
    y: tuple
    v: tuple
    arc_names: tuple[str, ...] = ()

    @property
    def directed(self) -> bool:
        return issubclass(self.state, _PushSumRows)


def _specs() -> dict[str, _Spec]:
    # Built per run, so the step kernels and table builders are looked
    # up when the run starts: a profiler or tracer that wraps them in place
    # sees the calls. A kernel is called once per run, to bind its step.
    names = ("lam", "v", "y", "p", "x")
    push = {"rows": slice(1, 5), "series": ("v", "y", "p", "consensus")}
    # The link tables read no parameter; the release table reads gamma.
    metropolis = lambda fields: lambda graph, masks, params: metropolis_table(graph, masks, fields)  # noqa: E731
    pushes = lambda graph, masks, params: push_table(graph, masks)  # noqa: E731
    own = {"y": (("nodes", 2),), "v": (("nodes", 1),)}  # the state's own y and v rows
    return {
        "pd1": _Spec(
            UndirectedState, None, ("p", "lam", "y"), None,
            _pd1, metropolis(2), slice(0, 3), ("p", "consensus", "y"), y=(("nodes", 2),), v=(),
        ),
        "pd2": _Spec(
            UndirectedState, None, ("p", "lam"), None,
            _pd2, metropolis(1), slice(0, 2), ("p", "consensus"), y=(), v=(),
        ),
        "directed": _Spec(
            DirectedState, lambda graph, start: start, names, "push-sum weight v lost positivity",
            _directed, pushes, **push, **own,
        ),
        "robust": _Spec(
            RobustState, _robust_start, names + ("sums.lam", "sums.v", "sums.y"), "push-sum weight v hit zero",
            _robust, _release_table, **push,
            y=(("nodes", 2), ("arcs", 5)), v=(("nodes", 1), ("arcs", 4)),  # in-flight y and v too
            arc_names=tuple(f"{part}.{row}" for part in ("mirror", "virt") for row in names[:3]),
        ),
        "virtual": _Spec(
            VirtualState, _virtual_start, names, "augmented push-sum weight hit zero",
            _virtual, _release_table, **push, **own,  # over all N nodes
        ),
        "centralized": _Spec(
            UndirectedState, None, ("p", "lam"), None,
            _centralized, None, slice(0, 2), ("p", "consensus"), y=(), v=(),
        ),
    }


ALGORITHMS = tuple(_specs())
# The running-sum algorithms: their weight table is the release fractions, and their mirrors retain a share gamma.
RUNNING_SUM_ALGORITHMS = tuple(name for name, spec in _specs().items() if spec.weights is _release_table)


def _checked_init(algorithm: str, init, start):
    """`init` if it has the type of the standard `start` and every array its shape."""
    if type(init) is not type(start):
        raise ModeMismatchError(f"{algorithm} starts from a {type(start).__name__}, got {type(init).__name__}")
    for f in fields(start):
        want = getattr(start, f.name).shape
        got = np.shape(getattr(init, f.name))
        if got != want:
            raise DimensionMismatchError(f"init.{f.name}", want, got)
    return init


def check_pairing(algorithm: str, inst: ProblemInstance, graph: NominalGraph) -> _Spec:
    """The spec of `algorithm`; `ModeMismatchError` unless it is a known id that fits the graph.

    It fits when the graph has the algorithm's directedness and the instance's size.
    """
    spec = _specs().get(algorithm)
    if spec is None:
        raise ModeMismatchError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if graph.directed != spec.directed:
        raise ModeMismatchError(f"{algorithm} requires {'a directed' if spec.directed else 'an undirected'} graph")
    if graph.n != inst.n:
        raise ModeMismatchError(f"graph has {graph.n} nodes, instance has {inst.n}")
    return spec


def run(
    algorithm: str,
    inst: ProblemInstance,
    schedule: GraphSchedule,
    params: AlgorithmParams,
    init=None,
) -> RunTrace:
    """Drive one algorithm for params.horizon steps and record the trace.

    The trace is deterministic in (instance, schedule, params, init):
    identical inputs give byte-identical traces. Invariant residuals
    (imbalance, consensus spread, conservation, mass, min weight) get one
    value per step where the algorithm carries the quantities; they are
    reduced per block of recorded rows, not per step. Conservation and
    mass are what column-stochastic mixing keeps, so they are the checks
    of the mixing weights too. For the running-sum algorithm they are
    evaluated over the augmented vector using its in-flight sidecar. Each
    block is stepped in place in a ring of states, under one guard that
    raises the error of the block's first failing step (see the module
    docstring). The recorded series are C-contiguous views of one
    allocation that holds them all, and the residual series of another.
    Without `init` the run takes `initial_state`; an `init` must have
    that state's type and shapes.
    ``final`` is a copy of the last state, which `init` takes to resume
    the run. The resumed run numbers its steps from 0 again: a run with
    ``DiminishingStep(a, b)`` stopped after k1 steps resumes with
    ``DiminishingStep(a, b + k1)``, bit for bit when b is integer-valued.
    """
    graph = schedule.nominal
    spec = check_pairing(algorithm, inst, graph)
    K = params.horizon
    if K > schedule.horizon:
        raise ModeMismatchError(f"horizon {K} exceeds schedule horizon {schedule.horizon}")
    start = initial_state(algorithm, inst, graph, params)
    state = start if init is None else _checked_init(algorithm, init, start)

    n, nhat = inst.n, params.nhat
    keys = ["imbalance", "consensus_spread"]
    if spec.y:
        keys.append("conservation")
    if spec.v:
        keys += ["mass", "min_v"]
    # One (series, K + 1, n) block holds every series, so each series is a contiguous (K + 1, n) view.
    trace_rows = np.empty((len(spec.series), K + 1, n))
    series = dict(zip(spec.series, trace_rows))
    residuals = dict(zip(keys, np.empty((len(keys), K + 1))))  # every row is written by `record`
    rows = max(_MIN_BLOCK_ROWS, _RESIDUAL_BLOCK_ENTRIES // max(graph.m, 1))
    # Slot 0 holds the state before a block, state 0 in the first; slot j the state after its j-th step.
    ring = {f.name: np.empty((rows + 1, *getattr(state, f.name).shape)) for f in fields(state)}
    for name, arrays in ring.items():
        arrays[:] = getattr(state, name)  # every slot, so what no step writes holds the start's values

    def record(lo: int, hi: int, slot: int) -> None:
        """Trace rows lo..hi-1 and their residuals, from the ring's slots from `slot` on, by row-wise reductions."""
        span = slice(slot, slot + hi - lo)
        trace_rows[:, lo:hi] = ring["nodes"][span, spec.rows, :n].swapaxes(0, 1)
        imb = (series["p"][lo:hi] - inst.loads).sum(axis=1)
        c = series["consensus"][lo:hi]
        residuals["imbalance"][lo:hi] = np.abs(imb)
        residuals["consensus_spread"][lo:hi] = c.max(axis=1) - c.min(axis=1)
        if spec.y:
            total = sum(ring[name][span, row].sum(axis=1) for name, row in spec.y)
            residuals["conservation"][lo:hi] = np.abs(total - nhat * imb)
        if spec.v:
            parts = [ring[name][span, row] for name, row in spec.v]
            residuals["mass"][lo:hi] = np.abs(sum(a.sum(axis=1) for a in parts) - n)
            # Python's min: a later part replaces the running minimum only where it is smaller.
            lows = [a.min(axis=1) for a in parts if a.shape[1]]
            low = lows[0]
            for other in lows[1:]:
                low = np.where(other < low, other, low)
            residuals["min_v"][lo:hi] = low

    views, step = spec.kernel(inst, graph, params)
    # The ring's arrays are never reallocated (slot 0 is overwritten in place), so each slot's views serve the run;
    # so do the 0-d views of each block's stepsizes s and s*xi.
    slot_views = [views(*slot) for slot in zip(*ring.values())]
    sizes, scaled = np.empty(rows), np.empty(rows)
    size_views = [(sizes[j, ...], scaled[j, ...]) for j in range(rows)]
    masks = schedule.masks[:K]
    for arrays, names in zip(ring.values(), (spec.names, spec.arc_names)):  # nodes, then robust's arcs
        _check_block(algorithm, names, None, 0, arrays[:1])  # finite only: virtual nodes start at v = 0
    record(0, 1, 0)
    for k0 in range(0, K, rows):  # steps k0..k1-1 make rows k0+1..k1
        k1 = min(k0 + rows, K)
        block = masks[k0:k1]
        table = (block,) if spec.weights is None else spec.weights(graph, block, params)  # masks unread
        with np.errstate(all="ignore"):  # a step that overflows fails the guard, which names it
            sizes[: k1 - k0] = params.stepsize(np.arange(k0, k1))  # int to float64 is exact: Python's bits
            multiply(sizes[: k1 - k0], params.xi, scaled[: k1 - k0])  # the products Python's s * xi gives
            for cur, nxt, row, (s, sxi) in zip(slot_views, slot_views[1:], zip(*table), size_views):
                step(cur, nxt, row, s, sxi)
        _check_block(algorithm, spec.names, spec.lost_weight, k0 + 1, ring["nodes"][1 : k1 - k0 + 1])
        record(k0 + 1, k1 + 1, 1)
        for arrays in ring.values():
            arrays[0] = arrays[k1 - k0]

    warnings = run_warnings(params, n, residuals["imbalance"])
    if spec.weights is not None and K > 0 and not union_connected(graph, masks.any(axis=0)):
        warnings.append("connectivity: union of active links over the horizon is not connected")
    return RunTrace(
        algorithm=algorithm,
        **series,
        residuals=residuals,
        params=params,
        seed=schedule.seed,
        schedule_digest=schedule.digest(),
        warnings=warnings,
        final=spec.state(*(arrays[0].copy() for arrays in ring.values())),
    )
