"""The four distributed dispatch iterations plus the virtual-domain twin.

All step functions are pure, with one signature,
``step(state, inst, graph, active, params, k) -> state``: `graph` is the
nominal graph and `active` the boolean mask of its links that deliver
during step k. Update ordering within a step is fixed: the dispatch
p[k+1] is the projected primal step from step-k values, multiplier/weight
estimates are mixed from step-k values, and the imbalance tracker y is
mixed from step-k values and then incremented with nhat*(p[k+1] - p[k]).
Every step mixes through the edge-list primitive `network.mix` in
O(n + m); no step builds a dense matrix.

One driver, `run`, steps any algorithm over the schedule's mask block.
A small per-algorithm spec tells it how to start (and what a valid
`init` looks like), which step to call, which state fields to record,
and which residuals the algorithm carries. The driver works through the
trace in blocks of about 2^13 link entries and at least 8 rows. Within a
block each step only calls the step function and copies the recorded
state rows into the trace (plus, where a total needs more than the
recorded rows, the whole field into a small block buffer). After the
block, the residual series are reduced row-wise over those rows, with
the same reductions in the same order as one state at a time, so they
are bit-identical to a per-step evaluation. The stochasticity residuals
depend on the schedule alone and come from the block's masks before it
is stepped.

Algorithms (ids used by `run`):

* ``pd1``      gradient-tracking primal-dual over undirected graphs
* ``pd2``      crude variant using only the local imbalance
* ``directed`` push-sum (ratio consensus) primal-dual, instantaneous
               out-degrees known
* ``robust``   running-sum primal-dual, only nominal out-degrees known
* ``virtual``  the robust algorithm rewritten over real + virtual nodes;
               its real-node coordinates coincide with ``robust`` step by
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

from .errors import (
    DimensionMismatchError,
    DivergenceError,
    InternalInvariantError,
    InvalidInstanceError,
    ModeMismatchError,
)
from .metrics import RunTrace, flag_no_progress
from .network import (
    GraphSchedule,
    NominalGraph,
    VirtualIndexMap,
    column_residual,
    metropolis_edge_weights,
    mix,
    push_out_degrees,
    row_bincount,
    union_connected,
)
from .problem import AlgorithmParams, ProblemInstance, checked_p0

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
    """Iterates of pd1/pd2: dispatch, multiplier estimates, imbalance tracker.

    pd2 carries no tracker; its y is None.
    """

    p: np.ndarray
    lam: np.ndarray
    y: np.ndarray | None = None


@dataclass(frozen=True)
class DirectedState:
    """Push-sum iterates: v are the push-sum weights, x = lam / v."""

    p: np.ndarray
    lam: np.ndarray
    v: np.ndarray
    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class RobustState:
    """Running-sum iterates.

    ``mirror_*`` are per-nominal-arc accumulators held at the receiving
    node; ``sum_*`` are the broadcast running sums through the current step.
    Memory is O(n + arcs) per tracked scalar family.

    ``virt_*`` are per-arc in-flight values (the virtual-node states the
    protocol implies), advanced incrementally alongside the protocol for
    diagnostics; they are not used by any node update.
    """

    p: np.ndarray
    lam: np.ndarray
    v: np.ndarray
    x: np.ndarray
    y: np.ndarray
    mirror_lam: np.ndarray
    mirror_v: np.ndarray
    mirror_y: np.ndarray
    sum_lam: np.ndarray
    sum_v: np.ndarray
    sum_y: np.ndarray
    virt_lam: np.ndarray
    virt_v: np.ndarray
    virt_y: np.ndarray


@dataclass(frozen=True)
class VirtualState:
    """Augmented iterates over real followed by virtual nodes (length N).

    Virtual dispatch entries are pinned to zero (their box is [0, 0]);
    virtual lam/v/y start at zero.
    """

    p: np.ndarray
    lam: np.ndarray
    v: np.ndarray
    x: np.ndarray
    y: np.ndarray


def init_undirected(
    inst: ProblemInstance,
    params: AlgorithmParams,
    p0=None,
    lam0=None,
    tracker: bool = True,
) -> UndirectedState:
    """Standard start: lam = 0, y_i = nhat*(p_i[0] - load_i)."""
    p = checked_p0(inst, p0)
    lam = np.zeros(inst.n) if lam0 is None else np.asarray(lam0, dtype=float).copy()
    y = params.nhat * (p - inst.loads) if tracker else None
    return UndirectedState(p=p, lam=lam, y=y)


def init_directed(inst: ProblemInstance, params: AlgorithmParams, p0=None) -> DirectedState:
    """Standard start: x = 0, lam = 0, v = 1, y_i = nhat*(p_i[0] - load_i)."""
    p = checked_p0(inst, p0)
    n = inst.n
    return DirectedState(
        p=p,
        lam=np.zeros(n),
        v=np.ones(n),
        x=np.zeros(n),
        y=params.nhat * (p - inst.loads),
    )


def _robust_from_node_values(graph: NominalGraph, p, lam, v, x, y) -> RobustState:
    dplus = graph.out_degrees
    m = graph.m
    return RobustState(
        p=p,
        lam=lam,
        v=v,
        x=x,
        y=y,
        mirror_lam=np.zeros(m),
        mirror_v=np.zeros(m),
        mirror_y=np.zeros(m),
        sum_lam=lam / dplus,
        sum_v=v / dplus,
        sum_y=y / dplus,
        virt_lam=np.zeros(m),
        virt_v=np.zeros(m),
        virt_y=np.zeros(m),
    )


def init_robust(
    inst: ProblemInstance, graph: NominalGraph, params: AlgorithmParams, p0=None
) -> RobustState:
    """Standard start plus zero mirrors; running sums include step 0."""
    p = checked_p0(inst, p0)
    n = inst.n
    if graph.n != n:
        raise InvalidInstanceError(f"graph has {graph.n} nodes, instance has {n}")
    return _robust_from_node_values(
        graph,
        p=p,
        lam=np.zeros(n),
        v=np.ones(n),
        x=np.zeros(n),
        y=params.nhat * (p - inst.loads),
    )


def init_virtual(
    inst: ProblemInstance, vmap: VirtualIndexMap, params: AlgorithmParams, p0=None
) -> VirtualState:
    """Augmented start: virtual lam/v/y/x/p all zero."""
    p = checked_p0(inst, p0)
    n, N = inst.n, vmap.size
    pa = np.zeros(N)
    pa[:n] = p
    lam = np.zeros(N)
    v = np.zeros(N)
    v[:n] = 1.0
    y = np.zeros(N)
    y[:n] = params.nhat * (p - inst.loads)
    return VirtualState(p=pa, lam=lam, v=v, x=np.zeros(N), y=y)


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
    xstar = params.nhat / inst.n * solution.lambda_star
    p = np.asarray(solution.p_star, dtype=float).copy()
    n = inst.n
    if algorithm == "pd1":
        return UndirectedState(p=p, lam=np.full(n, xstar), y=np.zeros(n))
    if algorithm == "directed":
        return DirectedState(
            p=p, lam=np.full(n, xstar), v=np.ones(n), x=np.full(n, xstar), y=np.zeros(n)
        )
    if algorithm == "robust":
        if graph is None:
            raise InvalidInstanceError("robust equilibrium needs the nominal graph")
        return _robust_from_node_values(
            graph, p=p, lam=np.full(n, xstar), v=np.ones(n), x=np.full(n, xstar), y=np.zeros(n)
        )
    if algorithm == "virtual":
        if graph is None:
            raise InvalidInstanceError("virtual equilibrium needs the nominal graph")
        vmap = VirtualIndexMap(graph)
        N = vmap.size
        pa = np.zeros(N)
        pa[:n] = p
        lam = np.zeros(N)
        lam[:n] = xstar
        v = np.zeros(N)
        v[:n] = 1.0
        x = np.zeros(N)
        x[:n] = xstar
        return VirtualState(p=pa, lam=lam, v=v, x=x, y=np.zeros(N))
    raise InvalidInstanceError(f"no equilibrium construction for algorithm {algorithm!r}")


def _check_finite(step: int, algorithm: str, *arrays) -> None:
    for arr in arrays:
        if arr is not None and not np.isfinite(arr).all():
            raise DivergenceError(step, algorithm)


def _primal_step(inst: ProblemInstance, params: AlgorithmParams, s: float, p, feedback):
    """Projected primal step clamp(p - s f'(p) + s xi feedback) on the real nodes."""
    return inst.clamp(p - s * inst.cost.grad(p) + s * params.xi * feedback)


def _metropolis_mixer(graph: NominalGraph, active: np.ndarray):
    self_w, tails, heads, w = metropolis_edge_weights(graph, active)
    return lambda z: mix(self_w * z, heads, w * z[tails])


def pd2_step(
    state: UndirectedState,
    inst: ProblemInstance,
    graph: NominalGraph,
    active: np.ndarray,
    params: AlgorithmParams,
    k: int,
) -> UndirectedState:
    """Crude variant: the multiplier sees only the local imbalance.

    lam[k+1] = W lam[k] - s*nhat*(p[k] - load). Needs a diminishing
    stepsize to converge; with a constant one it stalls at a bias.
    """
    s = params.stepsize(k)
    p_new = _primal_step(inst, params, s, state.p, state.lam)
    lam_new = _metropolis_mixer(graph, active)(state.lam) - s * params.nhat * (state.p - inst.loads)
    _check_finite(k + 1, "pd2", p_new, lam_new)
    return UndirectedState(p=p_new, lam=lam_new, y=None)


def pd1_step(
    state: UndirectedState,
    inst: ProblemInstance,
    graph: NominalGraph,
    active: np.ndarray,
    params: AlgorithmParams,
    k: int,
) -> UndirectedState:
    """Gradient-tracking primal-dual step over the doubly stochastic Metropolis weights."""
    s = params.stepsize(k)
    p_new = _primal_step(inst, params, s, state.p, state.lam)
    W = _metropolis_mixer(graph, active)
    lam_new = W(state.lam) - s * state.y
    y_new = W(state.y) + params.nhat * (p_new - state.p)
    _check_finite(k + 1, "pd1", p_new, lam_new, y_new)
    return UndirectedState(p=p_new, lam=lam_new, y=y_new)


def directed_pd_step(
    state: DirectedState,
    inst: ProblemInstance,
    graph: NominalGraph,
    active: np.ndarray,
    params: AlgorithmParams,
    k: int,
) -> DirectedState:
    """Push-sum primal-dual step; instantaneous out-degrees are known.

    The mixing is evaluated the way the nodes compute it: each source
    divides its value by its instantaneous out-degree and receivers sum
    the shares, which keeps the push-sum totals conserved to a much
    tighter floating-point tolerance than a dense matrix product would.
    """
    s = params.stepsize(k)
    p_new = _primal_step(inst, params, s, state.p, state.x)
    D, tails, heads = push_out_degrees(graph, active)

    def push(z: np.ndarray) -> np.ndarray:
        share = z / D
        return mix(share, heads, share[tails])

    lam_new = push(state.lam - s * state.y)
    v_new = push(state.v)
    if np.any(v_new <= 0.0):
        raise InternalInvariantError(k + 1, "push-sum weight v lost positivity")
    x_new = lam_new / v_new
    y_new = push(state.y) + params.nhat * (p_new - state.p)
    _check_finite(k + 1, "directed", p_new, lam_new, y_new, x_new)
    return DirectedState(p=p_new, lam=lam_new, v=v_new, x=x_new, y=y_new)


def robust_pd_step(
    state: RobustState,
    inst: ProblemInstance,
    graph: NominalGraph,
    active: np.ndarray,
    params: AlgorithmParams,
    k: int,
) -> RobustState:
    """Running-sum primal-dual step; only nominal out-degrees are used.

    Mirror advance for arc (j, i): on delivery the mirror jumps to
    (1-gamma)*mirror + gamma*(running sum of j); otherwise it is
    unchanged. A node keeps its own current share. All mirrors advance
    first; node states are then their own shares plus the delivered mirror
    differences (with the y differences entering the lam update at -s).
    """
    s = params.stepsize(k)
    gamma = params.gamma
    dplus = graph.out_degrees
    srcs, dsts = graph.srcs, graph.dsts
    act = np.asarray(active, dtype=bool)

    p_new = _primal_step(inst, params, s, state.p, state.x)

    # Mirror advances in increment form: gamma*(sum - mirror) equals
    # (1-gamma)*mirror + gamma*sum exactly, but the subtraction of the two
    # nearby running quantities is exact in floating point, so the node
    # updates are free of the large-magnitude rounding the running sums
    # would otherwise inject.
    d_lam = np.where(act, gamma * (state.sum_lam[srcs] - state.mirror_lam), 0.0)
    d_v = np.where(act, gamma * (state.sum_v[srcs] - state.mirror_v), 0.0)
    d_y = np.where(act, gamma * (state.sum_y[srcs] - state.mirror_y), 0.0)
    ds_lam = state.lam / dplus
    ds_v = state.v / dplus
    ds_y = state.y / dplus

    lam_new = mix(ds_lam, dsts, d_lam - s * d_y) - s * ds_y
    v_new = mix(ds_v, dsts, d_v)
    y_new = mix(ds_y, dsts, d_y) + params.nhat * (p_new - state.p)
    if np.any(v_new <= 0.0):
        raise InternalInvariantError(k + 1, "push-sum weight v hit zero")
    x_new = lam_new / v_new
    _check_finite(k + 1, "robust", p_new, lam_new, y_new, x_new)

    # In-flight sidecar: every step an arc absorbs its source's share and
    # releases exactly the delivered mirror difference, so the augmented
    # conservation sums telescope without touching the large running sums.
    return RobustState(
        p=p_new,
        lam=lam_new,
        v=v_new,
        x=x_new,
        y=y_new,
        mirror_lam=state.mirror_lam + d_lam,
        mirror_v=state.mirror_v + d_v,
        mirror_y=state.mirror_y + d_y,
        sum_lam=state.sum_lam + lam_new / dplus,
        sum_v=state.sum_v + v_new / dplus,
        sum_y=state.sum_y + y_new / dplus,
        virt_lam=state.virt_lam + ds_lam[srcs] - d_lam,
        virt_v=state.virt_v + ds_v[srcs] - d_v,
        virt_y=state.virt_y + ds_y[srcs] - d_y,
    )


def virtual_domain_step(
    state: VirtualState,
    inst: ProblemInstance,
    graph: NominalGraph,
    active: np.ndarray,
    params: AlgorithmParams,
    k: int,
) -> VirtualState:
    """Augmented-system step: the action of the column-stochastic mixing.

    lam mixes together with -s*y on the real rows only (virtual nodes
    accumulate raw lam shares); v mixes plainly; y mixes and the real rows
    gain nhat*(p[k+1] - p[k]). The mixing is evaluated per column the way
    the augmented matrix is defined: each real source splits off
    1/out-degree shares, a delivering arc releases the gamma portion of
    its held value plus the incoming share and retains the complement (the
    retained part is computed as inflow minus the released product, so the
    masses cancel exactly). Real-node coordinates match `robust_pd_step`
    step by step, and the result equals applying `augmented_push_matrix`
    to (lam - s*y on real rows, v, y) up to roundoff.
    """
    n = inst.n
    s = params.stepsize(k)
    gamma = params.gamma
    dplus = graph.out_degrees
    srcs, dsts = graph.srcs, graph.dsts
    act = np.asarray(active, dtype=bool)

    p_new = state.p.copy()
    p_new[:n] = _primal_step(inst, params, s, state.p[:n], state.x[:n])

    def mix_parts(z: np.ndarray):
        share = z[:n] / dplus
        inflow = z[n:] + share[srcs]
        released = np.where(act, gamma * inflow, 0.0)
        return share, released, inflow - released

    lam_share, lam_rel, lam_virt = mix_parts(state.lam)
    y_share, y_rel, y_virt = mix_parts(state.y)
    v_share, v_rel, v_virt = mix_parts(state.v)
    # real rows mix (lam - s*y); virtual rows carry lam and y separately
    lam_real = mix(lam_share, dsts, lam_rel - s * y_rel) - s * y_share
    v_real = mix(v_share, dsts, v_rel)
    y_real = mix(y_share, dsts, y_rel) + params.nhat * (p_new[:n] - state.p[:n])
    v_new = np.concatenate([v_real, v_virt])
    if np.any(v_new <= 0.0):
        raise InternalInvariantError(k + 1, "augmented push-sum weight hit zero")
    lam_new = np.concatenate([lam_real, lam_virt])
    x_new = lam_new / v_new
    y_new = np.concatenate([y_real, y_virt])
    _check_finite(k + 1, "virtual", p_new, lam_new, y_new, x_new)
    return VirtualState(p=p_new, lam=lam_new, v=v_new, x=x_new, y=y_new)


def _metropolis_stochasticity(graph: NominalGraph, masks: np.ndarray, params) -> np.ndarray:
    tails, _, w = graph.metropolis_arcs
    w = w * np.concatenate([masks, masks], axis=1)  # inactive edges weigh 0
    self_w = 1.0 - row_bincount(tails, w, graph.n)
    # Each edge carries the same weight both ways, so columns are rows.
    return column_residual(self_w, tails, w)


def _push_stochasticity(graph: NominalGraph, masks: np.ndarray, params) -> np.ndarray:
    order, tails, _ = graph.arcs_by_head
    live = masks[:, order]
    D = 1.0 + row_bincount(tails, live.astype(float), graph.n)
    return column_residual(1.0 / D, tails, np.where(live, 1.0 / D[:, tails], 0.0))


def _augmented_stochasticity(graph: NominalGraph, masks: np.ndarray, params) -> np.ndarray:
    # Real column j keeps 1/d_j and sends g/d_j to the head and (1-g)/d_j
    # to the virtual node of each out-arc; a virtual column keeps 1 - g and
    # releases g. g is gamma on active arcs, 0 on the others.
    n, m = graph.n, graph.m
    share = 1.0 / graph.out_degrees
    arc_share = share[graph.srcs]
    g = np.where(masks, params.gamma, 0.0)
    virt = n + np.arange(m)
    return column_residual(
        np.concatenate([np.broadcast_to(share, (g.shape[0], n)), 1.0 - g], axis=1),
        np.concatenate([graph.srcs, graph.srcs, virt]),
        np.concatenate([g * arc_share, (1.0 - g) * arc_share, g], axis=1),
    )


@dataclass(frozen=True)
class _Spec:
    """What the run driver needs to know about one algorithm.

    ``consensus`` names the state field recorded as the trace's multiplier
    estimates. ``y`` and ``v`` name the fields whose totals make the
    tracked imbalance and the push-sum mass (the first of each is the one
    recorded); empty means the algorithm carries no such quantity.
    ``stochasticity`` maps (graph, masks, params) to the residual of each
    step's mixing weights for a (rows, m) block of masks, or is None when
    the weights are not formed.
    """

    state: type
    init: Callable
    step: Callable
    consensus: str
    y: tuple[str, ...]
    v: tuple[str, ...]
    stochasticity: Callable | None


def _specs() -> dict[str, _Spec]:
    # Built per run, so the step functions are looked up when the run
    # starts: a profiler or tracer that wraps them in place sees the calls.
    return {
        "pd1": _Spec(
            UndirectedState,
            lambda inst, graph, params: init_undirected(inst, params),
            pd1_step, consensus="lam", y=("y",), v=(),
            stochasticity=_metropolis_stochasticity,
        ),
        "pd2": _Spec(
            UndirectedState,
            lambda inst, graph, params: init_undirected(inst, params, tracker=False),
            pd2_step, consensus="lam", y=(), v=(),
            stochasticity=_metropolis_stochasticity,
        ),
        "directed": _Spec(
            DirectedState,
            lambda inst, graph, params: init_directed(inst, params),
            directed_pd_step, consensus="x", y=("y",), v=("v",),
            stochasticity=_push_stochasticity,
        ),
        "robust": _Spec(
            RobustState,
            init_robust,
            robust_pd_step, consensus="x", y=("y", "virt_y"), v=("v", "virt_v"),
            stochasticity=None,
        ),
        "virtual": _Spec(
            VirtualState,
            lambda inst, graph, params: init_virtual(inst, VirtualIndexMap(graph), params),
            virtual_domain_step, consensus="x", y=("y",), v=("v",),
            stochasticity=_augmented_stochasticity,
        ),
    }


def _checked_init(algorithm: str, spec: _Spec, init, inst, graph, params):
    """`init` if it has the algorithm's state type and every array its length."""
    if type(init) is not spec.state:
        raise ModeMismatchError(
            f"{algorithm} starts from a {spec.state.__name__}, got {type(init).__name__}"
        )
    reference = spec.init(inst, graph, params)
    for f in fields(reference):
        want = getattr(reference, f.name)
        got = getattr(init, f.name)
        if want is not None and np.shape(got) != want.shape:
            actual = 0 if got is None else np.size(got)
            raise DimensionMismatchError(f"init.{f.name}", want.shape[0], actual)
    return init


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
    step, so the step loop only steps and records. For the running-sum
    algorithm the conservation and mass identities are evaluated over the
    augmented vector using its in-flight sidecar. The step functions keep
    their own finite and positivity guards, so a failure names its step.
    """
    spec = _specs().get(algorithm)
    if spec is None:
        raise ModeMismatchError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    graph = schedule.nominal
    if algorithm in UNDIRECTED_ALGORITHMS and graph.directed:
        raise ModeMismatchError(f"{algorithm} requires an undirected schedule")
    if algorithm in DIRECTED_ALGORITHMS and not graph.directed:
        raise ModeMismatchError(f"{algorithm} requires a directed schedule")
    if graph.n != inst.n:
        raise ModeMismatchError(f"schedule has {graph.n} nodes, instance has {inst.n}")
    K = params.horizon
    if K > schedule.horizon:
        raise ModeMismatchError(f"horizon {K} exceeds schedule horizon {schedule.horizon}")
    if init is None:
        state = spec.init(inst, graph, params)
    else:
        state = _checked_init(algorithm, spec, init, inst, graph, params)

    n, nhat = inst.n, params.nhat
    recorded = {"p": "p", "consensus": spec.consensus}  # trace field -> state field
    keys = ["imbalance", "consensus_spread"]
    if spec.stochasticity is not None:
        keys.append("stochasticity")
    if spec.y:
        recorded["y"] = spec.y[0]
        keys.append("conservation")
    if spec.v:
        recorded["v"] = spec.v[0]
        keys += ["mass", "min_v"]
    series = {name: np.empty((K + 1, n)) for name in recorded}
    residuals = {key: np.empty(K + 1) for key in keys}
    columns = [(series[name], attr) for name, attr in recorded.items()]
    stochasticity = residuals.get("stochasticity")
    rows = max(_MIN_BLOCK_ROWS, _RESIDUAL_BLOCK_ENTRIES // max(graph.m, 1))

    # A total reads its field's trace rows when the trace holds the whole
    # field, else a block buffer that the step loop fills beside the trace.
    traced = {attr: series[name] for name, attr in recorded.items()}
    buffers = {}
    for attr in spec.y + spec.v:
        width = getattr(state, attr).shape[0]
        if attr not in traced or width != n:
            buffers[attr] = np.empty((rows, width))

    def block_residuals(lo: int, hi: int) -> None:
        """The residual rows lo..hi-1 from the recorded rows, by row-wise reductions."""

        def block(attr):
            return buffers[attr][: hi - lo] if attr in buffers else traced[attr][lo:hi]

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

    masks = schedule.masks[:K]
    if stochasticity is not None:
        stochasticity[0] = 0.0
    for lo in range(0, K + 1, rows):
        hi = min(lo + rows, K + 1)
        first = max(lo, 1)  # row k >= 1 follows step k - 1
        if stochasticity is not None and first < hi:
            stochasticity[first:hi] = spec.stochasticity(graph, masks[first - 1 : hi - 1], params)
        for k in range(lo, hi):
            if k:
                state = spec.step(state, inst, graph, masks[k - 1], params, k - 1)
            for column, attr in columns:
                column[k] = getattr(state, attr)[:n]
            for attr, buffer in buffers.items():
                buffer[k - lo] = getattr(state, attr)
        block_residuals(lo, hi)

    warnings = params.configuration_warnings(n)
    if flag_no_progress(residuals["imbalance"]):
        warnings.append("no-progress: imbalance did not decay (stepsize too large?)")
    if K > 0 and not union_connected(graph, masks.any(axis=0)):
        warnings.append("connectivity: union of active links over the horizon is not connected")
    trace = RunTrace(
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
    )
    trace.validate()
    return trace
