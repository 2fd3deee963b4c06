"""The centralized primal-dual baseline, the four distributed dispatch iterations and the virtual-domain twin.

One driver, `run`, steps every algorithm. Update ordering within a step
is fixed: the dispatch p[k+1] is the projected
primal step from step-k values (`problem._primal_step`, which every
algorithm takes), multiplier/weight estimates are mixed
from step-k values, and the imbalance tracker y is mixed from step-k
values and then incremented with nhat*(p[k+1] - p[k]).

Every algorithm's state is one type, `State(algorithm, nodes, arcs)`.
Its node values are the rows of one contiguous (R, n) array `nodes`:
(p, lam, y) for pd1, (p, lam) for pd2 and centralized, and
(lam, v, y, p, x) for the push-sum algorithms, with the running sums of
lam, v and y as three more rows for robust. Per-arc values are the rows
of one contiguous array `arcs`: robust's mirrors and in-flight values
(6, m), and virtual's in-flight values (3, m), which are its virtual
nodes' lam, v and y. A state reads each row, and each stack of rows
sharing a prefix (sums, mirror, virt), by the name its algorithm's
table entry gives it, as a view. The rows a step mixes are adjacent,
the stack `z`: (lam, y), (lam,) or (lam, v, y); centralized mixes none.
Each algorithm's arithmetic is one private kernel, bound once per run:
``kernel(inst, graph, params) -> (views, step)``. Binding
looks up what is fixed for the run (nhat as a 0-d array, the graph's
tails, exact-length `mix` bins and out-degrees) and allocates the
scratch buffers a step writes through, with their row and flat views,
the product rows among them, two of which the primal step is bound to.
``views(coef, *arrays)`` takes the run's coefficient rows and its state
arrays (`nodes`, then `arcs`), each with a leading axis of ring slots,
and gives one view per kind over all the slots: the slot's coefficient
rows, the rows and row stacks the step reads or writes, each
C-contiguous, and the flat view of the mixed stack that `mix` adds
into. Iterated over the slots, these give each slot's view tuple.
``step(cur, nxt, weights, s)`` reads the views `cur`, the step's row
of the algorithm's weight table and the stepsize s as a 0-d array, and
fills `nxt` with ufuncs writing through positional `out`. It first forms
the products of its step-k rows in one multiply of adjacent state rows
by the coefficient rows of its slot, which its spec names (``coefficients``):
p and its feedback row by 2a and s*xi, and y by s where y is adjacent,
so pd1 multiplies (p, lam, y) by (2a, s*xi, s), directed (y, p, x) by
(s, 2a, s*xi), and the others (p, lam) or (p, x) by (2a, s*xi); pd2
reads s*nhat from one more row. It then takes the primal step on those
products, and mixes the whole stack in one call of the edge-list
primitive `network.mix` in O(F (n + m)). The table's rows come in the
shape of the stack each one meets: pd1 reads self weights (2, n) and arc
weights (2, 2m), pd2 the same over one row, directed D (n,) for lam, D
(2, n) for v and y and the live arcs (3, m), and robust and virtual the
release fractions (3, m); robust and virtual divide by their
out-degrees as a bound (3, n) array, robust once per step: the shares
z / d+ of the state a step writes are kept in a (3, n) buffer bound
once per run, which the next step gathers, mixes and scales s*y from,
and which `views` first forms from slot 0. So a step's ufunc calls meet
operands of one shape and take NumPy's same-shape loop, with the bits
of the broadcasting one; a row longer than `network.STACK_ROW_MAX`
stays one row, which the call broadcasts (`network.stacked`). A step
allocates no array (but `mix`'s sums) and makes no view, of its weight
rows neither, and no Python float reaches its ufuncs; each expression
keeps its operands and their grouping (the operands of a product commute
exactly), so the bits are those of the plain NumPy expressions. No
kernel builds a dense matrix.

Each algorithm is declared once, as one entry of the one table `_SPECS`
plus its kernel. The entry gives the names of its node rows and arc
rows, its kernel and weight table, the state arrays its guard reads
after each block and the coefficient rows its step multiplies by. The
names state the layout, and the rest derives from them: a state with
push-sum weights (a row named v) needs a directed graph, `State` reads
each row by its name, the start builds each row from its name, the trace
records the rows named p, y and v, and as its consensus series x, or lam
where the state has no x; the tracked imbalance is the total of the rows
named y and virt.y, the push-sum mass that of the rows named v and
virt.v (the in-flight rows virt.* are the running-sum protocol's
virtual-node masses), and the guard keeps those weights positive and
names every failing row. `ALGORITHMS`, `check_pairing`'s rules and
`RUNNING_SUM_ALGORITHMS` derive from the table. The table is built once,
at import: a test that wraps a kernel or a table builder replaces its
entry (``monkeypatch.setitem(_SPECS, id, replace(spec, kernel=...))``).
Every start comes from one function, `_start`, which reads each row off
its name: `initial_state` gives the standard start (lam = 0, y =
nhat*(p - load)) and `equilibrium_state` the state at the oracle's
solution (a fixed point of every algorithm but pd2), both for any
algorithm.

`run` steps any algorithm over its schedule (`network.Schedule`), whose
masks it reads one block of steps at a time, with `schedule.block`. The
links live at some step are or-ed up as the blocks come, until every link
has been, for the closing connectivity note, which needs no search when
every link was live: the union is then the nominal graph. It records
state 0 first, once its node rows and arc rows are found finite (a
non-finite one is named at step 0; positivity waits for step 1, since
virtual nodes start at v = 0), then works through the steps in blocks of
about 2^13 link entries and at least 8 steps, in place in a ring of rows + 1 slots
per state array, slot 0 starting as the start state (every step writes
every row of the slot after it): slot
0 holds the state before the block, the block's step j reads slot j and
writes slot j + 1, and the last slot written then moves to slot 0 in
place. The ring's arrays are never reallocated, so each slot's view
tuple is made once per run, from one view per kind over the ring. So
is the weight table's binding (`_Spec.weights`): buffers of a block's
rows, which its fill writes over for each block, so that row j serves
step j of every block and the step loop makes no view. Per block, the
fill writes the block's table once, and
one ``params.stepsize`` call over the block's step numbers fills a
vector of stepsizes, whose 0-d views are made once per run, and each
slot's coefficient rows beside the ring: a per-step row is s times its
factor (xi, 1 or nhat), copied along the row, and the 2a row is the
cost's, filled once per run (a `GeneralCost`'s step takes its
``grad(p)`` and leaves that product unread). For robust and
virtual the table is the release fractions g = gamma*mask, which the step
multiplies into a bound buffer (an idle arc gives +-0.0, which leaves
every sum it enters unchanged, but a non-finite value on an idle arc
gives NaN). After the block, one positivity reduction over each weight
row (v, and virtual's virt.v) and one finiteness reduction over all rows
of each state array the spec guards (the node rows, and virtual's
in-flight values) guard it. Only on failure are its slots taken in
order, to raise the error of the first failing step: positivity before
finiteness, every failing row named (a non-finite p first), as in
``internal invariant violated at step 1: virtual: v, virt.v not
positive``. The block's later steps have by then run on that step's
values, which may be non-finite, but nothing they computed is kept. The steps
run with NumPy's floating-point warnings off: an overflow, invalid value
or division by zero ends in a non-finite or non-positive iterate, which
the guard names by step and field. The trace is one series-major
(series, K + 1, n) block, so each recorded series is a C-contiguous
(K + 1, n) view of it, and the residual series are the rows of one
(residuals, K + 1) block. One `record` per block copies each recorded
row of the block's states into its series as one slice and writes the
block's rows of every residual series, reduced row-wise over those rows
and, for the tracked-imbalance and mass totals, over the ring rows named
for them (the real nodes' part, then robust's or virtual's in-flight
part), in the order of one state at a time, so they are bit-identical
to a per-step evaluation. A run given an optimum copies no state: its
series have no rows, and ``record`` reduces ||p - p*||_2 from the same ring
rows into one more residual series, ``err_p``.
After the last block, slot 0 holds the last state, which the trace keeps
a copy of as `final`: ``run(..., init=trace.final)`` resumes from it,
and a state of another algorithm is refused even where its arrays have
the right shapes.
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
from dataclasses import dataclass
from functools import reduce

import numpy as np
from numpy import add, divide, multiply, subtract

from .errors import DimensionMismatchError, DivergenceError, InternalInvariantError, ModeMismatchError
from .metrics import RunTrace, optimum_dispatch, row_distance, run_warnings
from .network import (
    NominalGraph,
    Schedule,
    metropolis_table,
    mix,
    push_table,
    stacked,
    stacked_empty,
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
# The rows whose totals `run` records, by name: the tracked imbalance y and the push-sum weights v, each
# with its in-flight part where the state has one (virt.y and virt.v, the running-sum protocol's
# virtual-node masses). The guard keeps the weights positive.
_TRACKER, _WEIGHT = ("y", "virt.y"), ("v", "virt.v")
# The rows a step mixes, adjacent in every state that has them: the stack z.
_MIXED = ("lam", "v", "y")


@dataclass(frozen=True)
class State:
    """The iterates of one algorithm, read by the names its `_SPECS` entry gives their rows.

    ``nodes`` is one (R, n) array whose rows are the entry's ``names``;
    ``arcs`` is one (A, m) array whose rows are its ``arc_names``, or None
    where it has none; ``arrays`` is ``nodes``, then ``arcs`` where present.
    ``state.p``, ``lam``, ``v``, ``y`` and ``x`` are the rows of those
    names. ``state.sums``, ``mirror`` and ``virt`` are the stacks of the
    rows named ``sums.*``, ``mirror.*`` and ``virt.*``: robust's running
    sums and mirrors, and the running-sum algorithms' in-flight values.
    ``state.z`` is the mixed stack, the rows named lam, v and y. Each is a
    view, not a copy. A name that another algorithm has but this one lacks
    reads None (pd2's y); any other raises `AttributeError`.
    """

    algorithm: str
    nodes: np.ndarray
    arcs: np.ndarray | None = None

    arrays = property(lambda self: (self.nodes,) if self.arcs is None else (self.nodes, self.arcs))
    z = property(lambda self: self._rows(_MIXED))

    def __getattr__(self, name: str):
        # Only a name the class lacks comes here. It is checked before any field is read: unpickling and
        # copying ask for __setstate__ before `algorithm` is set, and reading that would come back here.
        if name not in _ROW_NAMES:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute or row {name!r}")
        row = self._rows((name,))  # None where `name` is a stack's prefix, such as sums, or a row this state lacks
        return self._rows(tuple(f"{name}.{family}" for family in _MIXED)) if row is None else row[0]

    def _rows(self, wanted: tuple[str, ...]) -> np.ndarray | None:
        """The view of the rows named in `wanted`, which are adjacent rows of one array, or None if there are none."""
        located = _SPECS[self.algorithm]._located(wanted)
        if not located:
            return None
        (field, first), (_, last) = located[0], located[-1]
        return getattr(self, field)[first : last + 1]


def _start(algorithm: str, graph: NominalGraph, p, lam, y):
    """The state of `algorithm` with dispatch p, multiplier estimates lam and tracker y, row by row.

    The node row named p, lam or y is that vector, v is 1 and x = lam / v
    is lam; ``sums.<f>``, robust's running sum of row f through step 0, is
    f over the nominal out-degrees. Every arc row starts at 0: robust's
    mirrors and in-flight values, virtual's virtual nodes. Any other name
    raises `KeyError`, so a misspelt one is not silently started at 0.
    """
    spec = _SPECS[algorithm]
    rows = {"p": p, "lam": lam, "y": y, "v": np.ones(len(p)), "x": lam}
    nodes = [rows[name[5:]] / graph.out_degrees if name.startswith("sums.") else rows[name] for name in spec.names]
    return State(algorithm, np.stack(nodes), np.zeros((len(spec.arc_names), graph.m)) if spec.arc_names else None)


def initial_state(algorithm: str, inst: ProblemInstance, graph: NominalGraph, params: AlgorithmParams, p0=None):
    """The standard start `run` takes by default: lam = 0, v = 1, y_i = nhat*(p_i[0] - load_i).

    p[0] is `p0`, checked to lie in the box, or `default_p0`. Robust's
    running sums include step 0 and its mirrors start at zero; virtual
    nodes start at zero. Raises `ModeMismatchError` unless the algorithm
    fits the graph (`check_pairing`).
    """
    check_pairing(algorithm, inst, graph)
    p = checked_p0(inst, p0)
    return _start(algorithm, graph, p, np.zeros(inst.n), params.nhat * (p - inst.loads))


def equilibrium_state(algorithm: str, inst: ProblemInstance, graph: NominalGraph, params: AlgorithmParams, solution):
    """The state at the oracle's `solution`: an exact fixed point, for equilibrium-invariance tests.

    The multiplier estimates sit at (nhat/n) * lambda* (oracle scaled
    convention) and the imbalance trackers at zero; for push-sum
    algorithms lam stays proportional to v, keeping x constant even as the
    weights mix. pd2 has no fixed point: its multipliers see only the
    local imbalance, so they leave this state. Raises `ModeMismatchError`
    unless the algorithm fits the graph (`check_pairing`).
    """
    check_pairing(algorithm, inst, graph)
    lam = np.full(inst.n, params.nhat / inst.n * solution.lambda_star)
    return _start(algorithm, graph, np.asarray(solution.p_star, dtype=float), lam, np.zeros(inst.n))


def _check_block(algorithm: str, first: int, blocks, positive=_WEIGHT) -> None:
    """Guard consecutive states, the first at step `first`, with two reductions per state array.

    `blocks` pairs each state array over those states with the names of
    its rows (node rows, then arc rows). The rows named in `positive`,
    push-sum weights, must stay positive: fmin skips NaNs, so a minimum
    <= 0 means some weight is <= 0. Only a failing block is taken state
    by state, for the first failing state's error: positivity before
    finiteness, every failing row named, a non-finite p first.
    """
    weights = [(name, b[:, i]) for names, b in blocks for i, name in enumerate(names) if name in positive]
    lost = any(np.fmin.reduce(w, axis=None, initial=np.inf) <= 0.0 for _, w in weights)
    if not lost and all(np.isfinite(b).all() for _, b in blocks):
        return
    for j in range(len(blocks[0][1])):
        low = [name for name, w in weights if np.fmin.reduce(w[j], initial=np.inf) <= 0.0]
        if low:
            raise InternalInvariantError(first + j, f"{algorithm}: {', '.join(low)} not positive")
        bad = [name for names, b in blocks for name, row in zip(names, b[j]) if not np.isfinite(row).all()]
        if bad:
            bad.sort(key=lambda name: name != "p")
            raise DivergenceError(first + j, f"{algorithm}: {', '.join(bad)}")


def _scalar(x) -> np.ndarray:
    """x as a 0-d float array: a ufunc takes one faster than a Python float, with the same bits."""
    return np.array(x, dtype=float)


def _pd2(inst, graph, params):
    """Crude variant: the multiplier sees only the local imbalance.

    lam[k+1] = W lam[k] - s*nhat*(p[k] - load), W the doubly stochastic
    Metropolis weights. Needs a diminishing stepsize to converge; with a
    constant one it stalls at a bias.
    """
    tails, bins, _ = graph.metropolis_arcs
    gathered, scratch, prod = np.empty((1, len(tails))), np.empty(inst.n), np.empty((2, inst.n))  # prod: 2a*p, s*xi*lam
    primal, loads, bins, flat = _primal_step(inst, *prod), inst.loads, bins[: gathered.size], gathered.reshape(-1)

    def step(cur, nxt, weights, s):
        self_w, w = weights
        (c, snhat, pl0, p0, _, z0), (_, _, _, p, lam, z) = cur, nxt
        multiply(pl0, c, prod)
        primal(s, p0, p)
        multiply(z0, self_w, z)
        multiply(z0.take(tails, 1, gathered, "clip"), w, gathered)
        mix(lam, bins, flat)  # lam: the one-row stack z, flat
        subtract(lam, multiply(subtract(p0, loads, scratch), snhat, scratch), lam)

    return lambda c, a: (c[:, :2], c[:, 2], a, *a.swapaxes(0, 1), a[:, 1:2]), step


def _pd1(inst, graph, params):
    """Gradient-tracking primal-dual step over the doubly stochastic Metropolis weights."""
    tails, bins, _ = graph.metropolis_arcs
    # prod: 2a*p, s*xi*lam, s*y
    gathered, scratch, prod = np.empty((2, len(tails))), np.empty(inst.n), np.empty((3, inst.n))
    primal, nhat, sy, flat = _primal_step(inst, *prod[:2]), _scalar(params.nhat), prod[2], gathered.reshape(-1)

    def step(cur, nxt, weights, s):
        self_w, w = weights
        (c, pdy0, p0, _, _, z0, _), (_, _, p, lam, y, z, z_flat) = cur, nxt
        multiply(pdy0, c, prod)
        primal(s, p0, p)
        multiply(z0, self_w, z)
        multiply(z0.take(tails, 1, gathered, "clip"), w, gathered)
        mix(z_flat, bins, flat)
        subtract(lam, sy, lam)
        add(y, multiply(subtract(p, p0, scratch), nhat, scratch), y)

    return lambda c, a: (c, a, *a.swapaxes(0, 1), a[:, 1:], a[:, 1:].reshape(len(a), -1)), step


def _directed(inst, graph, params):
    """Push-sum primal-dual step; instantaneous out-degrees are known.

    The mixing is evaluated the way the nodes compute it: each source
    divides its value by its instantaneous out-degree and receivers sum
    the shares, which keeps the push-sum totals conserved to a much
    tighter floating-point tolerance than a dense matrix product would.
    lam mixes together with -s*y.
    """
    _, tails, bins = graph.arcs_by_head
    gathered, scratch, prod = np.empty((3, graph.m)), np.empty(inst.n), np.empty((3, inst.n))  # prod: s*y, 2a*p, s*xi*x
    primal, nhat, sy, flat = _primal_step(inst, *prod[1:]), _scalar(params.nhat), prod[0], gathered.reshape(-1)

    def step(cur, nxt, weights, s):
        D, D_vy, live = weights
        c, lam0, _, _, p0, _, _, vy0, ypx0, _ = cur
        _, lam, v, y, p, x, z, vy, _, z_flat = nxt  # z: each node's share of (lam - s*y, v, y), mixed in place
        multiply(ypx0, c, prod)
        primal(s, p0, p)
        divide(subtract(lam0, sy, scratch), D, lam)
        divide(vy0, D_vy, vy)
        multiply(z.take(tails, 1, gathered, "clip"), live, gathered)
        mix(z_flat, bins, flat)
        add(y, multiply(subtract(p, p0, scratch), nhat, scratch), y)
        divide(lam, v, x)

    return lambda c, a: (c, *a.swapaxes(0, 1), a[:, :3], a[:, 1:3], a[:, 2:], a[:, :3].reshape(len(a), -1)), step


def _robust(inst, graph, params):
    """Running-sum primal-dual step; only nominal out-degrees are used.

    Mirror advance for arc (j, i): the mirror jumps to
    (1-g)*mirror + g*(running sum of j), g the arc's release fraction
    (gamma on delivery, 0 otherwise). A node keeps its own current share.
    All mirrors advance first; node states are then their own shares plus
    the delivered mirror differences (with the y differences entering the
    lam update at -s). The step's weights are its release fractions over
    the three mixed rows, as a 1-tuple.

    The step divides by d+ once: the shares z / d+ of the state it writes,
    which its running sums add and which the next step reads, from a (3, n)
    buffer bound once per run. `views` forms them from slot 0, the run's
    start, when it binds the slots; the ring's move of the last state to
    slot 0 leaves them those of slot 0's state, so each block starts right.
    """
    srcs, bins, dplus = graph.srcs, graph.arc_bins, stacked(graph.out_degrees, 3)  # as z0 meets it
    own_y, scratch, dy, prod = np.empty(inst.n), np.empty(inst.n), np.empty(graph.m), np.empty((2, inst.n))
    # prod: 2a*p, s*xi*x. kept: each node's shares z / d+ of the state in the slot a step reads, formed from slot 0
    # by `views`, then by each step from the state it writes, whose running sums add them; the ring moves that state
    # to slot 0.
    kept = np.empty((3, inst.n))
    primal, nhat, kept_flat, kept_y = _primal_step(inst, *prod), _scalar(params.nhat), kept.reshape(-1), kept[2]
    # What the arc rows (mirrors, then in-flight values) advance by: d, the mirror advances (then what the
    # arcs deliver), and the shares gathered from the arcs' sources.
    moved = np.empty((6, graph.m))
    d, shares, d_lam, d_y, d_flat = moved[:3], moved[3:], moved[0], moved[2], moved[:3].reshape(-1)

    def step(cur, nxt, weights, s):
        (g,) = weights
        c, _, _, _, p0, _, px0, _, _, sums0, arcs0, mirror0, _ = cur
        _, lam, v, y, p, x, _, z, z_flat, sums, arcs, _, virt = nxt
        multiply(px0, c, prod)
        primal(s, p0, p)
        # Mirror advances in increment form: g*(sum - mirror) equals
        # (1-g)*mirror + g*sum exactly, but the subtraction of the two
        # nearby running quantities is exact in floating point, so the node
        # updates are free of the large-magnitude rounding the running sums
        # would otherwise inject. An idle arc advances by +-0.0.
        multiply(subtract(sums0.take(srcs, 1, shares, "clip"), mirror0, shares), g, d)
        # In-flight sidecar: every step an arc absorbs its source's share and
        # releases exactly the delivered mirror difference, so the augmented
        # conservation sums telescope without touching the large running sums.
        kept.take(srcs, 1, shares, "clip")
        add(arcs0, moved, arcs)  # mirrors advance by d, in-flight values absorb the shares
        subtract(virt, d, virt)
        multiply(kept_y, s, own_y)
        subtract(d_lam, multiply(d_y, s, dy), d_lam)  # lam arrives together with -s times y
        mix(kept_flat, bins, d_flat, z_flat)  # z: each node's own shares plus what arrives
        subtract(lam, own_y, lam)
        add(y, multiply(subtract(p, p0, scratch), nhat, scratch), y)
        divide(lam, v, x)
        add(divide(z, dplus, kept), sums0, sums)

    def views(c, a, arcs):
        divide(a[0, :3], dplus, kept)  # slot 0 holds the run's start
        return (c, *a.swapaxes(0, 1)[:5], a[:, 3:5], a[:, :3], a[:, :3].reshape(len(a), -1), a[:, 5:], arcs,
                arcs[:, :3], arcs[:, 3:])

    return views, step


def _virtual(inst, graph, params):
    """Augmented-system step: the action of the column-stochastic mixing.

    lam mixes together with -s*y on the real nodes only (virtual nodes
    accumulate raw lam shares); v mixes plainly; y mixes and the real nodes
    gain nhat*(p[k+1] - p[k]). The mixing is evaluated per column the way
    the augmented matrix is defined: each real source splits off
    1/out-degree shares, an arc releases the fraction g of its held value
    plus the incoming share (gamma on delivery, 0 otherwise) and retains
    the complement (the retained part is computed as inflow minus the
    released product, so the masses cancel exactly). Real-node
    coordinates match `_robust` step by step, and the result equals
    applying the augmented push matrix to (lam - s*y on real nodes, v, y)
    up to roundoff. The real rows and the arcs' held values are separate
    contiguous stacks, as robust's node rows and in-flight values are:
    the real stack mixes over the graph's arc bins, and x is formed over
    the real nodes only. The step's weights are its release fractions
    over the three mixed rows, as a 1-tuple.
    """
    srcs, bins, dplus = graph.srcs, graph.arc_bins, stacked(graph.out_degrees, 3)  # as z0 meets it
    gathered, own_y, scratch, dy = np.empty((3, graph.m)), np.empty(inst.n), np.empty(inst.n), np.empty(graph.m)
    released, prod = np.empty((3, graph.m)), np.empty((2, inst.n))  # prod: 2a*p, s*xi*x
    released_lam, released_y, released_flat = released[0], released[2], released.reshape(-1)
    primal, nhat = _primal_step(inst, *prod), _scalar(params.nhat)

    def step(cur, nxt, weights, s):
        (g,) = weights
        c, _, _, _, p0, _, px0, z0, _, held0 = cur
        _, lam, v, y, p, x, _, z, z_flat, held = nxt
        multiply(px0, c, prod)
        primal(s, p0, p)
        divide(z0, dplus, z)  # each real node's shares, mixed in place below
        add(held0, z.take(srcs, 1, gathered, "clip"), held)
        subtract(held, multiply(held, g, released), held)
        # real nodes mix (lam - s*y); virtual nodes carry lam and y separately
        multiply(y, s, own_y)
        subtract(released_lam, multiply(released_y, s, dy), released_lam)
        mix(z_flat, bins, released_flat)
        subtract(lam, own_y, lam)
        add(y, multiply(subtract(p, p0, scratch), nhat, scratch), y)
        divide(lam, v, x)

    return lambda c, a, arcs: (c, *a.swapaxes(0, 1), a[:, 3:], a[:, :3], a[:, :3].reshape(len(a), -1), arcs), step


def _centralized(inst, graph, params):
    """Centralized projected primal-dual step: every lam row holds the one multiplier.

    lam[k+1] = lam[k] - s*1'(p[k] - load), the exact total imbalance, so
    each element goes through the operations of the scalar iteration. The
    step reads no link: `run` reads no block of its schedule, and its
    weights row goes unread.
    """
    loads, gap, prod = inst.loads, np.empty(inst.n), np.empty((2, inst.n))  # prod: 2a*p, s*xi*lam
    # total and scaled apart: a 0-d ufunc writing over its input runs at half speed
    primal, total, scaled = _primal_step(inst, *prod), np.empty(()), np.empty(())

    def step(cur, nxt, weights, s):
        (c, pl0, p0, lam0), (_, _, p, lam) = cur, nxt
        multiply(pl0, c, prod)
        primal(s, p0, p)
        add.reduce(subtract(p0, loads, gap), 0, None, total)  # what gap.sum() computes
        subtract(lam0, multiply(total, s, scaled), lam)

    return lambda c, a: (c, a, *a.swapaxes(0, 1)), step


def _release_table(graph: NominalGraph, rows: int, params) -> tuple:
    """Running-sum weight table of blocks of up to `rows` steps, and its fill (see `network.metropolis_table`).

    The table is the release fractions g = gamma*mask over the three mixed
    rows, (rows, 3, m) as `stacked` lays them; ``fill(masks)`` writes its
    first len(masks) rows in one multiply.
    """
    g, gamma = stacked_empty(rows, graph.m, 3), params.gamma
    return (g,), lambda masks: multiply(gamma, masks[:, None, :], g[: len(masks)])


@dataclass(frozen=True)
class _Spec:
    """One algorithm, declared once by the names of its rows: how it starts, is stepped, guarded and recorded.

    ``names`` names the rows of its `State`'s ``nodes`` in order, and
    ``arc_names`` the rows of its ``arcs`` array: robust's mirrors, then
    its in-flight values, and virtual's in-flight values. A state with
    push-sum weights (a row named v) runs on a directed graph, any other
    on an undirected one (``directed``). ``kernel`` binds
    the views and the step to a run (see the module docstring).
    ``weights`` binds the weight table to a run: (graph, rows, params) ->
    (table, fill), the table a tuple of arrays of `rows` rows whose row r
    step r of each block takes, each in the shape of the stack it meets
    (see the module docstring), and ``fill(masks)`` the writer of a (k, m)
    block of masks into its first k rows: the Metropolis or push-sum table,
    or the running sums' release fractions g = gamma*mask
    (`_release_table`). It is None for a
    step that reads no link, whose run reads no block of the schedule and
    makes no connectivity note. ``guarded`` are the state arrays the
    guard after each block reads (`run` checks every array finite at step
    0): virtual's in-flight values are among them, robust's arcs are not
    (a mirror's v is 0 until its arc delivers), so a robust step pays for
    no per-arc reduction. ``coefficients`` names the rows of each step's
    coefficients, in the order of the adjacent state rows the kernel's
    one multiply meets: ``2a`` (the cost's), ``s``, ``sxi`` (s*xi) or
    ``snhat`` (s*nhat), which `run` fills.

    The rest derives from the names. `_start` builds each row from its
    name, and `State` reads each row by it. The trace records the node
    rows named p, y and v, and as "consensus" the row named x, or lam
    where the state has no x (``series``). The tracked imbalance is the total of the rows
    named y and virt.y (``tracker``) and the push-sum mass that of the rows
    named v and virt.v (``mass``), whose rows in the guarded arrays the
    guard keeps positive. Guard errors name the failing rows.
    """

    names: tuple[str, ...]
    kernel: Callable
    weights: Callable | None
    arc_names: tuple[str, ...] = ()
    guarded: tuple[str, ...] = ("nodes",)
    coefficients: tuple[str, ...] = ("2a", "sxi")

    directed = property(lambda self: "v" in self.names)

    # The names of the rows of each state array, by the array's name, in the order of `State.arrays`.
    labels = property(lambda self: {"nodes": self.names, "arcs": self.arc_names})

    @property
    def series(self) -> dict[str, int]:
        """Each recorded series and the node row it copies."""
        row = {name: i for i, name in enumerate(self.names)}
        recorded = {name: row[name] for name in ("p", "y", "v") if name in row}
        return {**recorded, "consensus": row.get("x", row["lam"])}

    def _located(self, wanted: tuple[str, ...]) -> tuple[tuple[str, int], ...]:
        """The (state field, row) of each row named in `wanted`: node rows, then arc rows."""
        return tuple((f, i) for f, names in self.labels.items() for i, name in enumerate(names) if name in wanted)

    tracker = property(lambda self: self._located(_TRACKER))
    mass = property(lambda self: self._located(_WEIGHT))


def _link_table(build, *args):
    """The weight-table binder `build(graph, rows, *args)`: a link table reads no parameter."""
    return lambda graph, rows, params: build(graph, rows, *args)


_PUSH_SUM = _MIXED + ("p", "x")
# The one table of algorithms. A test that wraps a kernel or a table builder replaces its entry.
_SPECS = {
    "pd1": _Spec(("p", "lam", "y"), _pd1, _link_table(metropolis_table, 2), coefficients=("2a", "sxi", "s")),
    "pd2": _Spec(("p", "lam"), _pd2, _link_table(metropolis_table, 1), coefficients=("2a", "sxi", "snhat")),
    "directed": _Spec(_PUSH_SUM, _directed, _link_table(push_table), coefficients=("s", "2a", "sxi")),
    "robust": _Spec(
        _PUSH_SUM + tuple(f"sums.{row}" for row in _MIXED), _robust, _release_table,
        arc_names=tuple(f"{part}.{row}" for part in ("mirror", "virt") for row in _MIXED),
    ),
    "virtual": _Spec(
        _PUSH_SUM, _virtual, _release_table,
        arc_names=tuple(f"virt.{row}" for row in _MIXED), guarded=("nodes", "arcs"),
    ),
    "centralized": _Spec(("p", "lam"), _centralized, None),
}
ALGORITHMS = tuple(_SPECS)
# The names a state reads rows by (`State`): each row name, or the part of it before a dot (sums, mirror, virt).
_ROW_NAMES = {name.partition(".")[0] for spec in _SPECS.values() for name in spec.names + spec.arc_names}
# The running-sum algorithms: their weight table is the release fractions, and their mirrors retain a share gamma.
RUNNING_SUM_ALGORITHMS = tuple(name for name, spec in _SPECS.items() if spec.weights is _release_table)


def _checked_init(algorithm: str, init: State, start: State) -> State:
    """`init` if it is a state of `algorithm` with each array of the standard `start`'s shape."""
    if init.algorithm != algorithm:
        raise ModeMismatchError(f"{algorithm} cannot start from a state of {init.algorithm}")
    for name in ("nodes", "arcs"):
        want, got = np.shape(getattr(start, name)), np.shape(getattr(init, name))
        if got != want:
            raise DimensionMismatchError(f"init.{name}", want, got)
    return init


def check_pairing(algorithm: str, inst: ProblemInstance, graph: NominalGraph) -> _Spec:
    """The spec of `algorithm`; `ModeMismatchError` unless it is a known id that fits the graph.

    It fits when the graph has the algorithm's directedness and the instance's size.
    """
    spec = _SPECS.get(algorithm)
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
    schedule: Schedule,
    params: AlgorithmParams,
    init=None,
    optimum=None,
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
    raises the error of the block's first failing step; each step reads
    its stepsize and its coefficient rows (the cost's 2a, and s times xi,
    1 or nhat) from buffers filled once per block beside the weight
    table, through views made once per run (see the module docstring).
    The recorded series are C-contiguous views of one allocation that
    holds them all, and the residual series of another.
    Without `init` the run takes `initial_state`; an `init` must be a
    state of the same algorithm (else `ModeMismatchError`, naming both)
    with that state's array shapes (else `DimensionMismatchError`).
    Given an `optimum` (the oracle's solution, or anything with a
    ``p_star`` of n entries), the run keeps reductions, not states: it
    allocates none of the (K + 1, n) series, which are empty (0, n) arrays,
    and records ``residuals["err_p"]``, ||p[k] - p*||_2 per step, reduced
    per block from the ring's p rows with `convergence_error`'s bits. Its
    memory is then O(block + K), not O(K n), beside the schedule's own:
    `run` reads the masks block by block (`schedule.block`), and a
    `GraphSchedule` keeps its horizon as packed bits, horizon * ceil(m/8)
    bytes, so no run makes a horizon-sized bool block.
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
    p_star = None if optimum is None else optimum_dispatch(optimum, inst.n, "optimum.p_star")

    n, nhat = inst.n, params.nhat
    recorded, tracker, mass = spec.series, spec.tracker, spec.mass
    keys = ["err_p"] * (p_star is not None) + ["imbalance", "consensus_spread"]
    keys += ["conservation"] * bool(tracker) + ["mass", "min_v"] * bool(mass)
    # One (series, K + 1, n) block holds every series, so each series is a contiguous (K + 1, n) view.
    series = dict(zip(recorded, np.empty((len(recorded), K + 1 if p_star is None else 0, n))))
    residuals = dict(zip(keys, np.empty((len(keys), K + 1))))  # every row is written by `record`
    rows = max(_MIN_BLOCK_ROWS, _RESIDUAL_BLOCK_ENTRIES // max(graph.m, 1))
    # Slot 0 holds the state before a block, state 0 in the first; slot j the state after its j-th step.
    ring = {name: np.empty((rows + 1, *array.shape)) for name, array in zip(spec.labels, state.arrays)}
    for arrays, array in zip(ring.values(), state.arrays):
        arrays[0] = array  # each step writes every row of the slot after it

    def record(lo: int, hi: int, slot: int) -> None:
        """Trace rows lo..hi-1 and their residuals, from the ring's slots from `slot` on, by row-wise reductions."""
        span = slice(slot, slot + hi - lo)
        p, c = ring["nodes"][span, recorded["p"]], ring["nodes"][span, recorded["consensus"]]
        if p_star is None:
            for name, row in recorded.items():
                series[name][lo:hi] = ring["nodes"][span, row]
        else:
            residuals["err_p"][lo:hi] = row_distance(p, p_star)
        imb = (p - inst.loads).sum(axis=1)
        residuals["imbalance"][lo:hi] = np.abs(imb)
        residuals["consensus_spread"][lo:hi] = c.max(axis=1) - c.min(axis=1)
        if tracker:
            total = sum(ring[name][span, row].sum(axis=1) for name, row in tracker)
            residuals["conservation"][lo:hi] = np.abs(total - nhat * imb)
        if mass:
            parts = [ring[name][span, row] for name, row in mass]
            residuals["mass"][lo:hi] = np.abs(sum(a.sum(axis=1) for a in parts) - n)
            # Python's min: a later part replaces the running minimum only where it is smaller.
            lows = (a.min(axis=1) for a in parts if a.shape[1])
            residuals["min_v"][lo:hi] = reduce(lambda low, other: np.where(other < low, other, low), lows)

    views, step = spec.kernel(inst, graph, params)
    # Slot j's coefficient rows are step j's, by the spec's names: 2a for the run (a GeneralCost's step takes
    # grad(p) and leaves that product unread), and the block's stepsizes s times the factor of each other row.
    coef, sizes = np.empty((rows + 1, len(spec.coefficients), n)), np.empty((rows, 1))
    factors = {"s": 1.0, "sxi": params.xi, "snhat": _scalar(nhat)}
    coef[:, spec.coefficients.index("2a")] = getattr(inst.cost, "twice_a", 0.0)
    per_step = [(coef[:, i], factors[name]) for i, name in enumerate(spec.coefficients) if name != "2a"]
    # A step that reads no link takes an empty row per step, and its run reads no block.
    table, fill = ((np.empty((rows, 0)),), None) if spec.weights is None else spec.weights(graph, rows, params)
    # Neither the ring's arrays, the coefficients nor the weight table are ever reallocated (slot 0 is overwritten
    # in place, and each block's table is written over the last one's), so each step's operands, taken from one
    # view of each kind over all the slots, serve the run: slot j's views, slot j + 1's, row j of the table and s,
    # made for the first min(rows, K) steps only.
    slot_views = list(zip(*views(coef, *ring.values())))
    steps = list(zip(slot_views, slot_views[1 : K + 1], zip(*table), (sizes[j, 0, ...] for j in range(rows))))
    live = np.zeros(graph.m, dtype=bool)  # the links live at some step so far
    # Finite only: virtual's in-flight v starts at 0.
    _check_block(algorithm, 0, [(spec.labels[f], arrays[:1]) for f, arrays in ring.items()], positive=())
    record(0, 1, 0)
    for k0 in range(0, K, rows):  # steps k0..k1-1 make rows k0+1..k1
        k1 = min(k0 + rows, K)
        if fill is not None:
            block = schedule.block(k0, k1)
            if not live.all():  # once every link has been live, later blocks cannot change the union
                live |= block.any(axis=0)
            fill(block)
        with np.errstate(all="ignore"):  # a step that overflows fails the guard, which names it
            sizes[: k1 - k0, 0] = params.stepsize(np.arange(k0, k1))  # int to float64 is exact: Python's bits
            for rows_of, factor in per_step:  # the products Python's s * xi gives (s * 1.0 == s), copied along rows
                rows_of[: k1 - k0] = sizes[: k1 - k0] * factor
            for cur, nxt, row, s in steps[: k1 - k0]:
                step(cur, nxt, row, s)
        _check_block(algorithm, k0 + 1, [(spec.labels[f], ring[f][1 : k1 - k0 + 1]) for f in spec.guarded])
        record(k0 + 1, k1 + 1, 1)
        for arrays in ring.values():
            arrays[0] = arrays[k1 - k0]

    warnings = run_warnings(params, n, residuals["imbalance"])
    # With every link live the union is the nominal graph, which `NominalGraph` found connected.
    if spec.weights is not None and K > 0 and not live.all() and not union_connected(graph, live):
        warnings.append("connectivity: union of active links over the horizon is not connected")
    return RunTrace(
        algorithm=algorithm,
        **series,
        residuals=residuals,
        params=params,
        seed=schedule.seed,
        schedule_digest=schedule.digest(),
        warnings=warnings,
        final=State(algorithm, *(arrays[0].copy() for arrays in ring.values())),
    )
