"""The four distributed dispatch iterations plus the virtual-domain twin.

One driver, `run`, steps every algorithm. Update ordering within a step
is fixed: the dispatch p[k+1] is the projected
primal step from step-k values (`problem._primal_step`, the step the
centralized baseline takes too), multiplier/weight estimates are mixed
from step-k values, and the imbalance tracker y is mixed from step-k
values and then incremented with nhat*(p[k+1] - p[k]).

Each state keeps its node fields as the rows of one contiguous (R, n)
array `nodes`, and the named fields are row views of it: (p, lam, y) for
pd1, (p, lam) for pd2 and (lam, v, y, p, x) for the push-sum algorithms,
with the running sums of lam, v and y as three more rows for robust.
The rows a step mixes are adjacent, the stack `z`: (lam, y), (lam,) or
(lam, v, y). Robust's per-arc mirror and in-flight values are one (6, m)
array `arcs`. Each algorithm's arithmetic is one private kernel, bound
once per run: ``kernel(inst, graph, params) -> (views, step)``. Binding
looks up what is fixed for the run (the primal step with its cost
gradient and box, xi, nhat and gamma, the graph's tails, exact-length
`mix` bins and out-degrees) and allocates the scratch buffers a step
writes through. ``views(*arrays)`` makes the view tuple of one state's
arrays (`nodes`, then robust's `arcs`): the rows and row stacks the step
reads or writes. ``step(cur, nxt, weights, s)`` reads the views `cur`,
the step's row of the algorithm's weight table and the stepsize s, and
fills `nxt` with ufuncs writing through positional `out`, mixing the
whole stack in one call of the edge-list primitive `network.mix` in
O(F (n + m)); each expression keeps its operands and their order, so
the bits are those of the plain NumPy expressions. No kernel builds a
dense matrix.

`run` steps any algorithm over the schedule's mask block.
A small per-algorithm spec tells it how to start (and what a valid
`init` looks like), which kernel to call, how to build its weight table,
which state fields to record, and which residuals the algorithm carries.
The driver works in blocks of about 2^13 link entries and at least 8
rows, in place in a ring of rows + 1 slots per state array: slot 0 holds
the state before the block, step j reads slot j and writes slot j + 1,
and the last slot then moves to slot 0. Each step makes the view tuple of
the slot it writes, which the next step reads. A block's weight table and
stepsizes are formed once; the stochasticity residuals come from the
same table, so they measure exactly the weights the steps use. After the
block, one positivity reduction over the v rows and one finiteness
reduction over all node rows guard it. Only on failure are its slots
taken in order, to raise the error of the first failing step: positivity
before finiteness, every non-finite row named, p first. The block's
later steps have by then run on that step's values, which may be
non-finite, but nothing they computed is kept. The steps run with NumPy's
floating-point warnings off: an overflow, invalid value or division by
zero ends in a non-finite or non-positive iterate, which the guard names
by step and field. The
trace is one series-major (series, K + 1, n) block, so each recorded
series is a C-contiguous (K + 1, n) view of it; a block's traced rows go
into it as one slice, and the residual series are
reduced row-wise over them (and over robust's in-flight and virtual's
full-width v and y, read from the ring) in the order of one state at a
time, so they are bit-identical to a per-step evaluation. After the last
block, slot 0 holds the last state, which the trace keeps a copy of as
`final`: ``run(..., init=trace.final)`` resumes from it. The resumed run
numbers its steps from 0 again, so it takes its schedule's masks and
the stepsize of step 0 onwards.

Algorithms (ids used by `run`):

* ``pd1``      gradient-tracking primal-dual over undirected graphs
* ``pd2``      crude variant using only the local imbalance
* ``directed`` push-sum (ratio consensus) primal-dual, instantaneous
               out-degrees known
* ``robust``   running-sum primal-dual, only nominal out-degrees known
* ``virtual``  the robust algorithm rewritten over real + virtual nodes
               (nominal arc e is virtual node n + e); its real-node
               coordinates coincide with ``robust`` step by
               step, which is the strongest oracle for both

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

from .errors import (
    DimensionMismatchError,
    DivergenceError,
    InternalInvariantError,
    InvalidGraphError,
    InvalidInstanceError,
    ModeMismatchError,
)
from .metrics import RunTrace, run_warnings
from .network import (
    GraphSchedule,
    NominalGraph,
    column_residual,
    metropolis_table,
    mix,
    push_table,
    union_connected,
)
from .problem import AlgorithmParams, ProblemInstance, _primal_step, checked_p0

UNDIRECTED_ALGORITHMS = ("pd1", "pd2")
DIRECTED_ALGORITHMS = ("directed", "robust", "virtual")
ALGORITHMS = UNDIRECTED_ALGORITHMS + DIRECTED_ALGORITHMS

# Trace rows per block: about this many link entries (rows = this // m),
# so a block's temporaries stay small whatever the horizon, ...
_RESIDUAL_BLOCK_ENTRIES = 2**13
# ... but at least this many, so that each block's fixed cost of a dozen
# reductions is shared (at n = 3000 one-row blocks cost more per step
# than reducing each state on its own).
_MIN_BLOCK_ROWS = 8


@dataclass(frozen=True)
class UndirectedState:
    """Iterates of pd1/pd2 as the rows of one (R, n) array: p, then the mixed stack z.

    z is (lam, y), the multiplier estimates and the imbalance tracker; pd2
    carries no tracker, so its z is (lam,) and its y is None.
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


def init_undirected(
    inst: ProblemInstance,
    params: AlgorithmParams,
    p0=None,
    tracker: bool = True,
) -> UndirectedState:
    """Standard start: lam = 0, y_i = nhat*(p_i[0] - load_i)."""
    p = checked_p0(inst, p0)
    lam = np.zeros(inst.n)
    rows = [lam, params.nhat * (p - inst.loads)] if tracker else [lam]
    return UndirectedState(np.stack([p, *rows]))


def init_directed(inst: ProblemInstance, params: AlgorithmParams, p0=None) -> DirectedState:
    """Standard start: x = 0, lam = 0, v = 1, y_i = nhat*(p_i[0] - load_i)."""
    p = checked_p0(inst, p0)
    n = inst.n
    return DirectedState(np.stack([np.zeros(n), np.ones(n), params.nhat * (p - inst.loads), p, np.zeros(n)]))


def _check_graph_size(inst: ProblemInstance, graph: NominalGraph) -> None:
    if graph.n != inst.n:
        raise InvalidInstanceError(f"graph has {graph.n} nodes, instance has {inst.n}")


def _robust_start(graph: NominalGraph, start: DirectedState) -> RobustState:
    """The node values of `start`, running sums through step 0, zero mirrors and in-flight values."""
    return RobustState(np.concatenate([start.nodes, start.z / graph.out_degrees]), np.zeros((6, graph.m)))


def _virtual_start(graph: NominalGraph, start: DirectedState) -> VirtualState:
    """The real nodes of `start`, then one virtual node per nominal arc (arc e is node n + e) holding zero."""
    if not graph.directed:
        raise InvalidGraphError("virtual nodes are defined for directed graphs")
    return VirtualState(np.pad(start.nodes, ((0, 0), (0, graph.m))))


def init_robust(
    inst: ProblemInstance, graph: NominalGraph, params: AlgorithmParams, p0=None
) -> RobustState:
    """Standard start plus zero mirrors; running sums include step 0."""
    _check_graph_size(inst, graph)
    return _robust_start(graph, init_directed(inst, params, p0))


def init_virtual(
    inst: ProblemInstance, graph: NominalGraph, params: AlgorithmParams, p0=None
) -> VirtualState:
    """Augmented start: the directed start, virtual lam/v/y/x/p all zero."""
    _check_graph_size(inst, graph)
    return _virtual_start(graph, init_directed(inst, params, p0))


def equilibrium_state(
    algorithm: str,
    inst: ProblemInstance,
    params: AlgorithmParams,
    solution,
    graph: NominalGraph | None = None,
):
    """Exact fixed point of an algorithm, for equilibrium-invariance tests.

    The consensus multiplier value is (nhat/n) * lambda* (oracle scaled
    convention) and the imbalance trackers sit at zero; for push-sum
    algorithms lam stays proportional to v, keeping x constant even as the
    weights mix.
    """
    xstar = np.full(inst.n, params.nhat / inst.n * solution.lambda_star)
    p = np.asarray(solution.p_star, dtype=float)
    zero = np.zeros(inst.n)
    if algorithm == "pd1":
        return UndirectedState(np.stack([p, xstar, zero]))
    if algorithm not in DIRECTED_ALGORITHMS:
        raise InvalidInstanceError(f"no equilibrium construction for algorithm {algorithm!r}")
    state = DirectedState(np.stack([xstar, np.ones(inst.n), zero, p, xstar]))
    if algorithm == "directed":
        return state
    if graph is None:
        raise InvalidInstanceError(f"{algorithm} equilibrium needs the nominal graph")
    _check_graph_size(inst, graph)
    return _robust_start(graph, state) if algorithm == "robust" else _virtual_start(graph, state)


# Per algorithm: the names of its states' node rows, for error messages, and
# what a lost positivity of the push-sum weights v reads (None: no weights).
_PUSH_ROWS = ("lam", "v", "y", "p", "x")
_GUARDS = {
    "pd1": (("p", "lam", "y"), None),
    "pd2": (("p", "lam"), None),
    "directed": (_PUSH_ROWS, "push-sum weight v lost positivity"),
    "robust": (_PUSH_ROWS + ("sums.lam", "sums.v", "sums.y"), "push-sum weight v hit zero"),
    "virtual": (_PUSH_ROWS, "augmented push-sum weight hit zero"),
}


def _check_block(algorithm: str, first: int, block: np.ndarray) -> None:
    """Guard the node arrays of consecutive states, the first at step `first`, with two reductions.

    fmin skips NaNs, so a minimum v <= 0 means some weight is <= 0. Only a
    failing block is taken state by state, for the first failing state's error.
    """
    names, what = _GUARDS[algorithm]
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
    primal, loads, nhat = _primal_step(inst, params), inst.loads, params.nhat
    tails, bins, _ = graph.metropolis_arcs
    gathered, scratch = np.empty((1, len(tails))), np.empty(inst.n)
    bins, flat = bins[: gathered.size], gathered.reshape(-1)

    def step(cur, nxt, weights, s):
        self_w, w = weights
        (p0, lam0, z0), (p, lam, z) = cur, nxt
        primal(s, p0, lam0, p)
        multiply(z0, self_w, z)
        multiply(z0.take(tails, 1, gathered, "clip"), w, gathered)
        mix(z, bins, flat)
        subtract(lam, multiply(subtract(p0, loads, scratch), s * nhat, scratch), lam)

    return lambda a: (a[0], a[1], a[1:2]), step


def _pd1(inst, graph, params):
    """Gradient-tracking primal-dual step over the doubly stochastic Metropolis weights."""
    primal, nhat = _primal_step(inst, params), _scalar(params.nhat)
    tails, bins, _ = graph.metropolis_arcs
    gathered, scratch = np.empty((2, len(tails))), np.empty(inst.n)
    flat = gathered.reshape(-1)

    def step(cur, nxt, weights, s):
        self_w, w = weights
        (p0, lam0, y0, z0), (p, lam, y, z) = cur, nxt
        primal(s, p0, lam0, p)
        multiply(z0, self_w, z)
        multiply(z0.take(tails, 1, gathered, "clip"), w, gathered)
        mix(z, bins, flat)
        subtract(lam, multiply(y0, s, scratch), lam)
        add(y, multiply(subtract(p, p0, scratch), nhat, scratch), y)

    return lambda a: (a[0], a[1], a[2], a[1:]), step


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

    def step(cur, nxt, weights, s):
        D, live = weights
        lam0, _, y0, p0, x0, _, vy0 = cur
        lam, v, y, p, x, z, vy = nxt  # z: each node's share of (lam - s*y, v, y), mixed in place
        primal(s, p0, x0, p)
        divide(subtract(lam0, multiply(y0, s, scratch), scratch), D, lam)
        divide(vy0, D, vy)
        multiply(z.take(tails, 1, gathered, "clip"), live, gathered)
        mix(z, bins, flat)
        add(y, multiply(subtract(p, p0, scratch), nhat, scratch), y)
        divide(lam, v, x)

    return lambda a: (a[0], a[1], a[2], a[3], a[4], a[:3], a[1:3]), step


def _robust(inst, graph, params):
    """Running-sum primal-dual step; only nominal out-degrees are used.

    Mirror advance for arc (j, i): on delivery the mirror jumps to
    (1-gamma)*mirror + gamma*(running sum of j); otherwise it is
    unchanged. A node keeps its own current share. All mirrors advance
    first; node states are then their own shares plus the delivered mirror
    differences (with the y differences entering the lam update at -s).
    The step's weights are its active mask, as a 1-tuple.
    """
    primal, nhat, gamma = _primal_step(inst, params), _scalar(params.nhat), _scalar(params.gamma)
    srcs, bins, dplus = graph.srcs, graph.arc_bins, graph.out_degrees
    gathered, own_y, scratch, dy = np.empty((3, graph.m)), np.empty(inst.n), np.empty(inst.n), np.empty(graph.m)

    def step(cur, nxt, weights, s):
        (active,) = weights
        _, _, _, p0, x0, z0, sums0, mirror0, virt0 = cur
        lam, v, y, p, x, z, sums, mirror, virt = nxt
        primal(s, p0, x0, p)
        # Mirror advances in increment form: gamma*(sum - mirror) equals
        # (1-gamma)*mirror + gamma*sum exactly, but the subtraction of the two
        # nearby running quantities is exact in floating point, so the node
        # updates are free of the large-magnitude rounding the running sums
        # would otherwise inject.
        gap = subtract(sums0.take(srcs, 1, gathered, "clip"), mirror0, gathered)
        d = np.where(active, multiply(gap, gamma, gathered), 0.0)
        add(mirror0, d, mirror)
        divide(z0, dplus, z)  # each node's shares, mixed in place below
        # In-flight sidecar: every step an arc absorbs its source's share and
        # releases exactly the delivered mirror difference, so the augmented
        # conservation sums telescope without touching the large running sums.
        subtract(add(virt0, z.take(srcs, 1, gathered, "clip"), virt), d, virt)
        multiply(y, s, own_y)
        subtract(d[0], multiply(d[2], s, dy), d[0])  # lam arrives together with -s times y
        mix(z, bins, d.reshape(-1))
        subtract(lam, own_y, lam)
        add(y, multiply(subtract(p, p0, scratch), nhat, scratch), y)
        divide(lam, v, x)
        add(divide(z, dplus, sums), sums0, sums)

    return lambda a, arcs: (*a[:5], a[:3], a[5:], arcs[:3], arcs[3:]), step


def _virtual(inst, graph, params):
    """Augmented-system step: the action of the column-stochastic mixing.

    lam mixes together with -s*y on the real rows only (virtual nodes
    accumulate raw lam shares); v mixes plainly; y mixes and the real rows
    gain nhat*(p[k+1] - p[k]). The mixing is evaluated per column the way
    the augmented matrix is defined: each real source splits off
    1/out-degree shares, a delivering arc releases the gamma portion of
    its held value plus the incoming share and retains the complement (the
    retained part is computed as inflow minus the released product, so the
    masses cancel exactly). Real-node coordinates match `_robust` step by
    step, and the result equals applying the augmented push matrix to
    (lam - s*y on real rows, v, y) up to roundoff. The step's weights are
    its active mask, as a 1-tuple.
    """
    n, primal, nhat, gamma = inst.n, _primal_step(inst, params), _scalar(params.nhat), _scalar(params.gamma)
    srcs, bins, dplus = graph.srcs, graph.arc_bins, graph.out_degrees
    gathered, own_y, scratch, dy = np.empty((3, graph.m)), np.empty(n), np.empty(n), np.empty(graph.m)

    def step(cur, nxt, weights, s):
        (active,) = weights
        real0, held0, _, _, p0, pinned0, x0, _, _, _ = cur
        real, held, lam, y, p, pinned, _, full_lam, v, x = nxt  # pinned: the virtual nodes' dispatch
        pinned[...] = pinned0
        primal(s, p0, x0, p)
        divide(real0, dplus, real)  # each real node's shares, mixed in place below
        add(held0, real.take(srcs, 1, gathered, "clip"), held)
        released = np.where(active, multiply(held, gamma, gathered), 0.0)
        subtract(held, released, held)
        # real rows mix (lam - s*y); virtual rows carry lam and y separately
        multiply(y, s, own_y)
        subtract(released[0], multiply(released[2], s, dy), released[0])
        mix(real, bins, released.reshape(-1))
        subtract(lam, own_y, lam)
        add(y, multiply(subtract(p, p0, scratch), nhat, scratch), y)
        divide(full_lam, v, x)

    return lambda a: (a[:3, :n], a[:3, n:], a[0, :n], a[2, :n], a[3, :n], a[3, n:], a[4, :n], a[0], a[1], a[4]), step


def _mask_table(graph: NominalGraph, masks: np.ndarray) -> tuple[np.ndarray]:
    """Running-sum weight table: the masks themselves (gamma and the nominal degrees are fixed)."""
    return (masks,)


def _metropolis_stochasticity(graph: NominalGraph, table, params) -> np.ndarray:
    self_w, w = table
    # Each edge carries the same weight both ways, so columns are rows.
    return column_residual(self_w, graph.metropolis_arcs[0], w)


def _push_stochasticity(graph: NominalGraph, table, params) -> np.ndarray:
    D, live = table
    tails = graph.arcs_by_head[1]
    return column_residual(1.0 / D, tails, live / D[:, tails])


def _augmented_stochasticity(graph: NominalGraph, table, params) -> np.ndarray:
    # Real column j keeps 1/d_j and sends g/d_j to the head and (1-g)/d_j
    # to the virtual node of each out-arc; a virtual column keeps 1 - g and
    # releases g. g is gamma on active arcs, 0 on the others.
    n, m = graph.n, graph.m
    share = 1.0 / graph.out_degrees
    arc_share = share[graph.srcs]
    g = np.where(table[0], params.gamma, 0.0)
    virt = n + np.arange(m)
    return column_residual(
        np.concatenate([np.broadcast_to(share, (g.shape[0], n)), 1.0 - g], axis=1),
        np.concatenate([graph.srcs, graph.srcs, virt]),
        np.concatenate([g * arc_share, (1.0 - g) * arc_share, g], axis=1),
    )


@dataclass(frozen=True)
class _Spec:
    """What the run driver needs to know about one algorithm.

    ``kernel`` binds the views and the step to a run (see the module
    docstring). The trace records node rows ``rows``
    of each state, as the series named in ``series`` (row for row), with
    one copy per block; "consensus" is the multiplier estimates. ``y`` and
    ``v`` say where the totals of the tracked imbalance and the push-sum
    mass are read: a trace series by name, or (state field, row) of the
    state ring over all the field's columns; empty means the algorithm
    carries no such quantity.
    ``weights`` maps (graph, masks) to the weight table of a (rows, m)
    block of masks, a tuple of arrays whose row r the step of the block's
    row r takes. ``stochasticity`` maps (graph, table, params) to the
    residual of each step's mixing weights, or is None when the weights
    are not formed.
    """

    state: type
    init: Callable
    kernel: Callable
    weights: Callable
    rows: slice
    series: tuple[str, ...]
    y: tuple
    v: tuple
    stochasticity: Callable | None


def _specs() -> dict[str, _Spec]:
    # Built per run, so the step kernels and table builders are looked
    # up when the run starts: a profiler or tracer that wraps them in place
    # sees the calls. A kernel is called once per run, to bind its step.
    push = {"rows": slice(1, 5), "series": ("v", "y", "p", "consensus")}
    return {
        "pd1": _Spec(
            UndirectedState,
            lambda inst, graph, params: init_undirected(inst, params),
            _pd1, metropolis_table, slice(0, 3), ("p", "consensus", "y"), y=("y",), v=(),
            stochasticity=_metropolis_stochasticity,
        ),
        "pd2": _Spec(
            UndirectedState,
            lambda inst, graph, params: init_undirected(inst, params, tracker=False),
            _pd2, metropolis_table, slice(0, 2), ("p", "consensus"), y=(), v=(),
            stochasticity=_metropolis_stochasticity,
        ),
        "directed": _Spec(
            DirectedState,
            lambda inst, graph, params: init_directed(inst, params),
            _directed, push_table, **push, y=("y",), v=("v",),
            stochasticity=_push_stochasticity,
        ),
        "robust": _Spec(
            RobustState,
            init_robust,
            _robust, _mask_table, **push,
            y=("y", ("arcs", 5)), v=("v", ("arcs", 4)),  # in-flight v and y
            stochasticity=None,
        ),
        "virtual": _Spec(
            VirtualState,
            init_virtual,
            _virtual, _mask_table, **push,
            y=(("nodes", 2),), v=(("nodes", 1),),  # v and y over all N nodes
            stochasticity=_augmented_stochasticity,
        ),
    }


def _spec(algorithm: str) -> _Spec:
    spec = _specs().get(algorithm)
    if spec is None:
        raise ModeMismatchError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    return spec


def _checked_init(algorithm: str, spec: _Spec, init, inst, graph, params):
    """`init` if it has the algorithm's state type and every array its shape."""
    if type(init) is not spec.state:
        raise ModeMismatchError(
            f"{algorithm} starts from a {spec.state.__name__}, got {type(init).__name__}"
        )
    reference = spec.init(inst, graph, params)
    for f in fields(reference):
        want = getattr(reference, f.name).shape
        got = np.shape(getattr(init, f.name))
        if got != want:
            raise DimensionMismatchError(f"init.{f.name}", want, got)
    return init


def check_pairing(algorithm: str, inst: ProblemInstance, graph: NominalGraph) -> None:
    """Raise `ModeMismatchError` unless `algorithm` is a known id that fits the graph.

    It fits when the graph has the algorithm's directedness and the instance's size.
    """
    if algorithm not in ALGORITHMS:
        raise ModeMismatchError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    directed = algorithm in DIRECTED_ALGORITHMS
    if graph.directed != directed:
        raise ModeMismatchError(f"{algorithm} requires {'a directed' if directed else 'an undirected'} graph")
    if graph.n != inst.n:
        raise ModeMismatchError(f"graph has {graph.n} nodes, instance has {inst.n}")


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
    (imbalance, consensus spread, mixing stochasticity, conservation,
    mass, min weight) get one value per step where the algorithm carries
    the quantities; they are reduced per block of recorded rows, not per
    step. For the running-sum algorithm the conservation and mass
    identities are evaluated over the augmented vector using its in-flight
    sidecar. Each block is stepped in place in a ring of states, under one
    guard that raises the error of the block's first failing step (see
    the module docstring). The recorded series are C-contiguous views of
    one allocation that holds them all. ``final`` is a copy of the last
    state, which `init` takes to resume the run.
    """
    spec = _spec(algorithm)
    graph = schedule.nominal
    check_pairing(algorithm, inst, graph)
    K = params.horizon
    if K > schedule.horizon:
        raise ModeMismatchError(f"horizon {K} exceeds schedule horizon {schedule.horizon}")
    if init is None:
        state = spec.init(inst, graph, params)
    else:
        state = _checked_init(algorithm, spec, init, inst, graph, params)

    n, nhat = inst.n, params.nhat
    keys = ["imbalance", "consensus_spread"]
    if spec.stochasticity is not None:
        keys.append("stochasticity")
    if spec.y:
        keys.append("conservation")
    if spec.v:
        keys += ["mass", "min_v"]
    # One (series, K + 1, n) block holds every series, so each series is a contiguous (K + 1, n) view.
    trace_rows = np.empty((len(spec.series), K + 1, n))
    series = dict(zip(spec.series, trace_rows))
    residuals = {key: np.empty(K + 1) for key in keys}
    stochasticity = residuals.get("stochasticity")
    rows = max(_MIN_BLOCK_ROWS, _RESIDUAL_BLOCK_ENTRIES // max(graph.m, 1))
    # Slot 0 holds the state before a block, state 0 in the first.
    ring = {f.name: np.empty((rows + 1, *getattr(state, f.name).shape)) for f in fields(state)}
    for name, arrays in ring.items():
        arrays[0] = getattr(state, name)
    slots = list(zip(*ring.values()))

    def block_residuals(lo: int, hi: int, slot: int) -> None:
        """The residual rows lo..hi-1 from the recorded rows and the ring from `slot`, by row-wise reductions."""

        def block(ref):
            return series[ref][lo:hi] if isinstance(ref, str) else ring[ref[0]][slot : slot + hi - lo, ref[1]]

        imb = (series["p"][lo:hi] - inst.loads).sum(axis=1)
        c = series["consensus"][lo:hi]
        residuals["imbalance"][lo:hi] = np.abs(imb)
        residuals["consensus_spread"][lo:hi] = c.max(axis=1) - c.min(axis=1)
        if spec.y:
            total = sum(block(a).sum(axis=1) for a in spec.y)
            residuals["conservation"][lo:hi] = np.abs(total - nhat * imb)
        if spec.v:
            parts = [block(a) for a in spec.v]
            residuals["mass"][lo:hi] = np.abs(sum(a.sum(axis=1) for a in parts) - n)
            # Python's min: a later part replaces the running minimum only where it is smaller.
            lows = [a.min(axis=1) for a in parts if a.shape[1]]
            low = lows[0]
            for other in lows[1:]:
                low = np.where(other < low, other, low)
            residuals["min_v"][lo:hi] = low

    views, step = spec.kernel(inst, graph, params)
    masks = schedule.masks[:K]
    if stochasticity is not None:
        stochasticity[0] = 0.0
    for lo in range(0, K + 1, rows):
        hi = min(lo + rows, K + 1)
        first = max(lo, 1)  # row k >= 1 follows step k - 1
        last = hi - first  # the slot of row hi - 1
        if last:
            table = spec.weights(graph, masks[first - 1 : hi - 1])
            if stochasticity is not None:
                stochasticity[first:hi] = spec.stochasticity(graph, table, params)
            steps = [params.stepsize(k) for k in range(first - 1, hi - 1)]
            cur = views(*slots[0])
            with np.errstate(all="ignore"):  # a step that overflows fails the guard, which names it
                for nxt, weights, s in zip((views(*slot) for slot in slots[1:]), zip(*table), steps):
                    step(cur, nxt, weights, s)
                    cur = nxt
            _check_block(algorithm, first, ring["nodes"][1 : last + 1])
        slot = last + 1 - (hi - lo)  # the slot of row lo
        trace_rows[:, lo:hi] = ring["nodes"][slot : last + 1, spec.rows, :n].swapaxes(0, 1)
        block_residuals(lo, hi, slot)
        for arrays in ring.values():
            arrays[0] = arrays[last]

    warnings = run_warnings(params, n, residuals["imbalance"])
    if K > 0 and not union_connected(graph, masks.any(axis=0)):
        warnings.append("connectivity: union of active links over the horizon is not connected")
    return RunTrace(
        algorithm=algorithm,
        p=series["p"],
        consensus=series["consensus"],
        y=series.get("y"),
        v=series.get("v"),
        residuals=residuals,
        params=params,
        seed=schedule.seed,
        schedule_digest=schedule.digest(),
        warnings=warnings,
        final=spec.state(*(arrays[0].copy() for arrays in ring.values())),
    )
