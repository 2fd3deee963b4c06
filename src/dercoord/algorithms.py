"""The four distributed dispatch iterations plus the virtual-domain twin.

All step functions are pure: state in, new state out. Update ordering
within a step is fixed: the dispatch p[k+1] is computed first from step-k
values, multiplier/weight estimates are mixed from step-k values, and the
imbalance tracker y is mixed from step-k values and then incremented with
nhat*(p[k+1] - p[k]).

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

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
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
    augmented_push_matrix,
    metropolis_weights,
    push_matrix,
    union_connected,
)
from .problem import AlgorithmParams, ProblemInstance, project_box

UNDIRECTED_ALGORITHMS = ("pd1", "pd2")
DIRECTED_ALGORITHMS = ("directed", "robust", "virtual")
ALGORITHMS = UNDIRECTED_ALGORITHMS + DIRECTED_ALGORITHMS


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
    node; ``self_*`` are each node's mirror of its own share stream;
    ``sum_*`` are the broadcast running sums through the current step.
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
    self_lam: np.ndarray
    self_v: np.ndarray
    self_y: np.ndarray
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


def default_p0(inst: ProblemInstance) -> np.ndarray:
    """Zero dispatch clamped onto the box (the standard initialization)."""
    return project_box(np.zeros(inst.n), inst.p_lo, inst.p_hi)


def _checked_p0(inst: ProblemInstance, p0) -> np.ndarray:
    if p0 is None:
        return default_p0(inst)
    p0 = np.asarray(p0, dtype=float).copy()
    if p0.shape != (inst.n,):
        raise InvalidInstanceError(f"p0 must have shape ({inst.n},)")
    if np.any(p0 < inst.p_lo) or np.any(p0 > inst.p_hi):
        raise InvalidInstanceError("p0 must lie within the capacity box")
    return p0


def init_undirected(
    inst: ProblemInstance,
    params: AlgorithmParams,
    p0=None,
    lam0=None,
    tracker: bool = True,
) -> UndirectedState:
    """Standard start: lam = 0, y_i = nhat*(p_i[0] - load_i)."""
    p = _checked_p0(inst, p0)
    lam = np.zeros(inst.n) if lam0 is None else np.asarray(lam0, dtype=float).copy()
    y = params.nhat * (p - inst.loads) if tracker else None
    return UndirectedState(p=p, lam=lam, y=y)


def init_directed(inst: ProblemInstance, params: AlgorithmParams, p0=None) -> DirectedState:
    """Standard start: x = 0, lam = 0, v = 1, y_i = nhat*(p_i[0] - load_i)."""
    p = _checked_p0(inst, p0)
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
        self_lam=np.zeros(graph.n),
        self_v=np.zeros(graph.n),
        self_y=np.zeros(graph.n),
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
    p = _checked_p0(inst, p0)
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
    p = _checked_p0(inst, p0)
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
        if arr is not None and not np.all(np.isfinite(arr)):
            raise DivergenceError(step, algorithm)


def pd2_step(
    state: UndirectedState,
    inst: ProblemInstance,
    W: np.ndarray,
    params: AlgorithmParams,
    k: int,
) -> UndirectedState:
    """Crude variant: the multiplier sees only the local imbalance.

    lam[k+1] = W lam[k] - s*nhat*(p[k] - load). Needs a diminishing
    stepsize to converge; with a constant one it stalls at a bias.
    """
    s = params.stepsize(k)
    p_new = project_box(
        state.p - s * inst.cost.grad(state.p) + s * params.xi * state.lam,
        inst.p_lo,
        inst.p_hi,
    )
    lam_new = W @ state.lam - s * params.nhat * (state.p - inst.loads)
    _check_finite(k + 1, "pd2", p_new, lam_new)
    return UndirectedState(p=p_new, lam=lam_new, y=None)


def pd1_step(
    state: UndirectedState,
    inst: ProblemInstance,
    W: np.ndarray,
    params: AlgorithmParams,
    k: int,
) -> UndirectedState:
    """Gradient-tracking primal-dual step over a doubly stochastic W."""
    s = params.stepsize(k)
    p_new = project_box(
        state.p - s * inst.cost.grad(state.p) + s * params.xi * state.lam,
        inst.p_lo,
        inst.p_hi,
    )
    lam_new = W @ state.lam - s * state.y
    y_new = W @ state.y + params.nhat * (p_new - state.p)
    _check_finite(k + 1, "pd1", p_new, lam_new, y_new)
    return UndirectedState(p=p_new, lam=lam_new, y=y_new)


def directed_pd_step(
    state: DirectedState,
    inst: ProblemInstance,
    P: np.ndarray,
    params: AlgorithmParams,
    k: int,
) -> DirectedState:
    """Push-sum primal-dual step over a column-stochastic P.

    The mixing is evaluated the way the nodes compute it: each source
    divides its value by its instantaneous out-degree and receivers sum
    the shares. This is exactly the action of P (whose nonzero pattern and
    out-degrees are read back from it) and keeps the push-sum totals
    conserved to a much tighter floating-point tolerance than a dense
    matrix product would.
    """
    s = params.stepsize(k)
    n = state.p.shape[0]
    p_new = project_box(
        state.p - s * inst.cost.grad(state.p) + s * params.xi * state.x,
        inst.p_lo,
        inst.p_hi,
    )
    D = np.rint(1.0 / P.diagonal())
    rows, cols = np.nonzero(P)
    off = rows != cols
    rows, cols = rows[off], cols[off]

    def mix(z: np.ndarray) -> np.ndarray:
        share = z / D
        return np.bincount(rows, weights=share[cols], minlength=n) + share

    lam_new = mix(state.lam - s * state.y)
    v_new = mix(state.v)
    if np.any(v_new <= 0.0):
        raise InternalInvariantError(k + 1, "push-sum weight v lost positivity")
    x_new = lam_new / v_new
    y_new = mix(state.y) + params.nhat * (p_new - state.p)
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
    unchanged. Each node's own mirror always advances by its current
    share. All mirrors advance first; node states are then sums of mirror
    differences (with the y differences entering the lam update at -s).
    """
    s = params.stepsize(k)
    gamma = params.gamma
    n = graph.n
    dplus = graph.out_degrees
    srcs, dsts = graph.srcs, graph.dsts
    act = np.asarray(active, dtype=bool)

    p_new = project_box(
        state.p - s * inst.cost.grad(state.p) + s * params.xi * state.x,
        inst.p_lo,
        inst.p_hi,
    )

    # Mirror advances in increment form: gamma*(sum - mirror) equals
    # (1-gamma)*mirror + gamma*sum exactly, but the subtraction of the two
    # nearby running quantities is exact in floating point, so the node
    # updates are free of the large-magnitude rounding the running sums
    # would otherwise inject.
    d_lam = np.where(act, gamma * (state.sum_lam[srcs] - state.mirror_lam), 0.0)
    d_v = np.where(act, gamma * (state.sum_v[srcs] - state.mirror_v), 0.0)
    d_y = np.where(act, gamma * (state.sum_y[srcs] - state.mirror_y), 0.0)
    mirror_lam = state.mirror_lam + d_lam
    mirror_v = state.mirror_v + d_v
    mirror_y = state.mirror_y + d_y
    ds_lam = state.lam / dplus
    ds_v = state.v / dplus
    ds_y = state.y / dplus
    self_lam = state.self_lam + ds_lam
    self_v = state.self_v + ds_v
    self_y = state.self_y + ds_y

    lam_new = np.bincount(dsts, weights=d_lam - s * d_y, minlength=n) + ds_lam - s * ds_y
    v_new = np.bincount(dsts, weights=d_v, minlength=n) + ds_v
    y_new = np.bincount(dsts, weights=d_y, minlength=n) + ds_y + params.nhat * (p_new - state.p)
    if np.any(v_new <= 0.0):
        raise InternalInvariantError(k + 1, "push-sum weight v hit zero")
    x_new = lam_new / v_new
    _check_finite(k + 1, "robust", p_new, lam_new, y_new, x_new)

    # In-flight sidecar: every step an arc absorbs its source's share and
    # releases exactly the delivered mirror difference, so the augmented
    # conservation sums telescope without touching the large running sums.
    virt_lam = state.virt_lam + ds_lam[srcs] - d_lam
    virt_v = state.virt_v + ds_v[srcs] - d_v
    virt_y = state.virt_y + ds_y[srcs] - d_y

    return RobustState(
        p=p_new,
        lam=lam_new,
        v=v_new,
        x=x_new,
        y=y_new,
        mirror_lam=mirror_lam,
        mirror_v=mirror_v,
        mirror_y=mirror_y,
        self_lam=self_lam,
        self_v=self_v,
        self_y=self_y,
        sum_lam=state.sum_lam + lam_new / dplus,
        sum_v=state.sum_v + v_new / dplus,
        sum_y=state.sum_y + y_new / dplus,
        virt_lam=virt_lam,
        virt_v=virt_v,
        virt_y=virt_y,
    )


def robust_virtual_values(state: RobustState, graph: NominalGraph):
    """In-flight (virtual node) values implied by sums and mirrors.

    For arc (j, i): value = sum_j - mirror_ij - share_j, exact in exact
    arithmetic; used to monitor the augmented conservation identities
    without running the virtual twin.
    """
    srcs = graph.srcs
    dplus = graph.out_degrees
    lam_v = state.sum_lam[srcs] - state.mirror_lam - state.lam[srcs] / dplus[srcs]
    v_v = state.sum_v[srcs] - state.mirror_v - state.v[srcs] / dplus[srcs]
    y_v = state.sum_y[srcs] - state.mirror_y - state.y[srcs] / dplus[srcs]
    return lam_v, v_v, y_v


def virtual_domain_step(
    state: VirtualState,
    inst: ProblemInstance,
    vmap: VirtualIndexMap,
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
    step by step, and the result equals applying the augmented matrix to
    (lam - s*y on real rows, v, y) up to roundoff.
    """
    n = inst.n
    s = params.stepsize(k)
    gamma = params.gamma
    graph = vmap.nominal
    dplus = graph.out_degrees
    srcs, dsts = graph.srcs, graph.dsts
    act = np.asarray(active, dtype=bool)

    p_new = state.p.copy()
    p_new[:n] = project_box(
        state.p[:n] - s * inst.cost.grad(state.p[:n]) + s * params.xi * state.x[:n],
        inst.p_lo,
        inst.p_hi,
    )

    def mix_parts(z: np.ndarray):
        share = z[:n] / dplus
        inflow = z[n:] + share[srcs]
        released = np.where(act, gamma * inflow, 0.0)
        return share, released, inflow - released

    lam_share, lam_rel, lam_virt = mix_parts(state.lam)
    y_share, y_rel, y_virt = mix_parts(state.y)
    v_share, v_rel, v_virt = mix_parts(state.v)
    # real rows mix (lam - s*y); virtual rows carry lam and y separately
    lam_real = np.bincount(dsts, weights=lam_rel - s * y_rel, minlength=n) + lam_share - s * y_share
    v_real = np.bincount(dsts, weights=v_rel, minlength=n) + v_share
    y_real = (
        np.bincount(dsts, weights=y_rel, minlength=n)
        + y_share
        + params.nhat * (p_new[:n] - state.p[:n])
    )
    v_new = np.concatenate([v_real, v_virt])
    if np.any(v_new <= 0.0):
        raise InternalInvariantError(k + 1, "augmented push-sum weight hit zero")
    lam_new = np.concatenate([lam_real, lam_virt])
    x_new = lam_new / v_new
    y_new = np.concatenate([y_real, y_virt])
    _check_finite(k + 1, "virtual", p_new, lam_new, y_new, x_new)
    return VirtualState(p=p_new, lam=lam_new, v=v_new, x=x_new, y=y_new)


def _stochasticity_residual(M: np.ndarray, doubly: bool) -> float:
    col = float(np.abs(M.sum(axis=0) - 1.0).max())
    if not doubly:
        return col
    row = float(np.abs(M.sum(axis=1) - 1.0).max())
    return max(col, row)


class _Recorder:
    """Preallocated per-step storage for one run."""

    def __init__(self, K: int, n: int, fields: tuple[str, ...], residual_keys: tuple[str, ...]):
        self.arrays = {f: np.empty((K + 1, n)) for f in fields}
        self.residuals = {key: np.empty(K + 1) for key in residual_keys}

    def record(self, k: int, values: dict[str, np.ndarray], residuals: dict[str, float]):
        for name, val in values.items():
            self.arrays[name][k] = val
        for name, val in residuals.items():
            self.residuals[name][k] = val


def run(
    algorithm: str,
    inst: ProblemInstance,
    schedule: GraphSchedule,
    params: AlgorithmParams,
    init=None,
) -> RunTrace:
    """Drive one algorithm for params.horizon steps and record the trace.

    The trace is deterministic in (instance, schedule, params, init):
    identical inputs give byte-identical traces. Per-step invariant
    residuals (imbalance, conservation, mass, min weight, consensus
    spread, mixing-matrix stochasticity) are recorded where the algorithm
    carries the quantities; for the running-sum algorithm the conservation
    and mass identities are evaluated over the augmented vector using the
    in-flight values implied by its own sums and mirrors.
    """
    if algorithm not in ALGORITHMS:
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

    warnings = params.configuration_warnings(inst.n)
    try:
        runner = _RUNNERS[algorithm]
    except KeyError:  # pragma: no cover
        raise ModeMismatchError(f"unknown algorithm {algorithm!r}") from None
    trace = runner(inst, schedule, params, init, K)
    trace.params = params
    trace.seed = schedule.seed
    trace.schedule_digest = schedule.digest()
    if flag_no_progress(trace.residuals["imbalance"]):
        warnings.append("no-progress: imbalance did not decay (stepsize too large?)")
    if K > 0 and not union_connected(graph, schedule.masks[:K].any(axis=0)):
        warnings.append("connectivity: union of active links over the horizon is not connected")
    trace.warnings = warnings + trace.warnings
    trace.validate()
    return trace


def _run_undirected(inst, schedule, params, init, K, crude: bool):
    algorithm = "pd2" if crude else "pd1"
    state = init if init is not None else init_undirected(inst, params, tracker=not crude)
    if crude and state.y is not None:
        state = replace(state, y=None)
    n = inst.n
    fields = ("p", "lam") + (() if crude else ("y",))
    keys = ("imbalance", "consensus_spread", "stochasticity") + (() if crude else ("conservation",))
    rec = _Recorder(K, n, fields, keys)
    nhat = params.nhat

    def diagnostics(st, stoch):
        imb = float(np.sum(st.p - inst.loads))
        out = {
            "imbalance": abs(imb),
            "consensus_spread": float(st.lam.max() - st.lam.min()),
            "stochasticity": stoch,
        }
        if not crude:
            out["conservation"] = abs(float(np.sum(st.y)) - nhat * imb)
        return out

    vals = {"p": state.p, "lam": state.lam} if crude else {"p": state.p, "lam": state.lam, "y": state.y}
    rec.record(0, vals, diagnostics(state, 0.0))
    step_fn = pd2_step if crude else pd1_step
    for k, active in enumerate(schedule.masks[:K]):
        W = metropolis_weights(schedule.nominal, active)
        state = step_fn(state, inst, W, params, k)
        stoch = _stochasticity_residual(W, doubly=True)
        vals = {"p": state.p, "lam": state.lam} if crude else {"p": state.p, "lam": state.lam, "y": state.y}
        rec.record(k + 1, vals, diagnostics(state, stoch))
    return RunTrace(
        algorithm=algorithm,
        p=rec.arrays["p"],
        consensus=rec.arrays["lam"],
        y=None if crude else rec.arrays["y"],
        residuals=rec.residuals,
    )


def _run_directed(inst, schedule, params, init, K):
    state = init if init is not None else init_directed(inst, params)
    n = inst.n
    keys = ("imbalance", "consensus_spread", "stochasticity", "conservation", "mass", "min_v")
    rec = _Recorder(K, n, ("p", "x", "y", "v"), keys)
    nhat = params.nhat

    def diagnostics(st, stoch):
        imb = float(np.sum(st.p - inst.loads))
        return {
            "imbalance": abs(imb),
            "consensus_spread": float(st.x.max() - st.x.min()),
            "stochasticity": stoch,
            "conservation": abs(float(np.sum(st.y)) - nhat * imb),
            "mass": abs(float(np.sum(st.v)) - n),
            "min_v": float(st.v.min()),
        }

    rec.record(0, {"p": state.p, "x": state.x, "y": state.y, "v": state.v}, diagnostics(state, 0.0))
    for k, active in enumerate(schedule.masks[:K]):
        P = push_matrix(schedule.nominal, active)
        state = directed_pd_step(state, inst, P, params, k)
        stoch = _stochasticity_residual(P, doubly=False)
        rec.record(
            k + 1, {"p": state.p, "x": state.x, "y": state.y, "v": state.v}, diagnostics(state, stoch)
        )
    return RunTrace(
        algorithm="directed",
        p=rec.arrays["p"],
        consensus=rec.arrays["x"],
        y=rec.arrays["y"],
        v=rec.arrays["v"],
        residuals=rec.residuals,
    )


def _run_robust(inst, schedule, params, init, K):
    graph = schedule.nominal
    state = init if init is not None else init_robust(inst, graph, params)
    n = inst.n
    keys = ("imbalance", "consensus_spread", "conservation", "mass", "min_v")
    rec = _Recorder(K, n, ("p", "x", "y", "v"), keys)
    nhat = params.nhat

    def diagnostics(st):
        imb = float(np.sum(st.p - inst.loads))
        aug_y = float(np.sum(st.y)) + float(np.sum(st.virt_y))
        aug_v = float(np.sum(st.v)) + float(np.sum(st.virt_v))
        min_v = float(min(st.v.min(), st.virt_v.min())) if graph.m else float(st.v.min())
        return {
            "imbalance": abs(imb),
            "consensus_spread": float(st.x.max() - st.x.min()),
            "conservation": abs(aug_y - nhat * imb),
            "mass": abs(aug_v - n),
            "min_v": min_v,
        }

    rec.record(0, {"p": state.p, "x": state.x, "y": state.y, "v": state.v}, diagnostics(state))
    for k, active in enumerate(schedule.masks[:K]):
        state = robust_pd_step(state, inst, graph, active, params, k)
        rec.record(k + 1, {"p": state.p, "x": state.x, "y": state.y, "v": state.v}, diagnostics(state))
    return RunTrace(
        algorithm="robust",
        p=rec.arrays["p"],
        consensus=rec.arrays["x"],
        y=rec.arrays["y"],
        v=rec.arrays["v"],
        residuals=rec.residuals,
    )


def _run_virtual(inst, schedule, params, init, K):
    graph = schedule.nominal
    vmap = VirtualIndexMap(graph)
    state = init if init is not None else init_virtual(inst, vmap, params)
    n = inst.n
    keys = ("imbalance", "consensus_spread", "stochasticity", "conservation", "mass", "min_v")
    rec = _Recorder(K, n, ("p", "x", "y", "v"), keys)
    nhat = params.nhat

    def diagnostics(st, stoch):
        imb = float(np.sum(st.p[:n] - inst.loads))
        return {
            "imbalance": abs(imb),
            "consensus_spread": float(st.x[:n].max() - st.x[:n].min()),
            "stochasticity": stoch,
            "conservation": abs(float(np.sum(st.y)) - nhat * imb),
            "mass": abs(float(np.sum(st.v)) - n),
            "min_v": float(st.v.min()),
        }

    def real(st):
        return {"p": st.p[:n], "x": st.x[:n], "y": st.y[:n], "v": st.v[:n]}

    rec.record(0, real(state), diagnostics(state, 0.0))
    for k, active in enumerate(schedule.masks[:K]):
        P = augmented_push_matrix(graph, active, params.gamma, vmap)
        state = virtual_domain_step(state, inst, vmap, active, params, k)
        stoch = _stochasticity_residual(P, doubly=False)
        rec.record(k + 1, real(state), diagnostics(state, stoch))
    return RunTrace(
        algorithm="virtual",
        p=rec.arrays["p"],
        consensus=rec.arrays["x"],
        y=rec.arrays["y"],
        v=rec.arrays["v"],
        residuals=rec.residuals,
    )


_RUNNERS = {
    "pd1": lambda inst, sched, params, init, K: _run_undirected(inst, sched, params, init, K, crude=False),
    "pd2": lambda inst, sched, params, init, K: _run_undirected(inst, sched, params, init, K, crude=True),
    "directed": _run_directed,
    "robust": _run_robust,
    "virtual": _run_virtual,
}
