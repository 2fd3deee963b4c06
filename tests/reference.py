"""Reference constructions the tests compare the package against.

* Dense mixing matrices (`metropolis_weights`, `push_matrix`,
  `augmented_push_matrix`): the n x n (or N x N) matrix of one step's
  mixing, built entry by entry.
* `directed` and `CONFIGS`: each algorithm's graph kind, read from the
  package's one declaration of it, and the shipped config whose
  parameters its pinned and resumed runs take.
* `augmented` and `virtual_state`: a virtual state's mixed rows over all
  N = n + m nodes of the augmented system (the real rows, then the
  in-flight values of arc e as node n + e), and the state made from such
  rows, so a test can hold it against the dense N x N matrix.
* `reference_run`: the six iterations written per field, allocating a
  new array for every intermediate, the way the package evaluated them
  before each state became one contiguous array filled in place. Each
  step forms its weights from the step's mask alone. `run` must give the
  same trace, residual series and last state (its ``final``, as
  `fields_of` gives it) bit for bit, from the standard start or from any
  state given as ``start=`` (what `run` takes as ``init``). virtual's
  step runs over all N = n + m nodes of the augmented system, as its
  dense matrix defines it; only its totals take `run`'s order, the real
  nodes' part, then the in-flight part.
* `FixedMasks` and `run_over`: a schedule of given masks, and `run` over
  one, so a test steps any state through masks of its choosing (one
  mask: one step, read back as ``trace.final``) or resumes a run over the
  masks that remain.
* `reference_centralized`: the centralized primal-dual loop as it was
  written before it shared the distributed iterations' primal step,
  with its one multiplier as a (K + 1, 1) column.
* `dfs_union_connected` and `dfs_windows_connected`: connectivity of one
  union by a depth-first search from node 0 over per-node (arc, head)
  lists, along the arcs and against them, and the window verdicts as one
  such search per window, the way the package judged them before it
  searched every window at once over per-node bitsets.
* `earliest_connect_scan`: the earliest-connect lengths found by a
  backward two-pointer scan that judges each probed window union with
  `dfs_union_connected`, the way the package found them before it took
  minimax path weights for every start at once.
* `reference_trace_csv`: a trace CSV written with one f-string per step,
  the way the package wrote it before it formatted the whole body with one
  `%` over a repeated row template. The CSVs must be byte-equal.
"""

import hashlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

import dercoord as dc
from dercoord.algorithms import _SPECS
from dercoord.errors import InvalidGraphError
from dercoord.experiment import TRACE_COLUMNS


# Algorithm -> the shipped config (benchmark39_<name>.cfg) whose parameters its runs take.
CONFIGS = {
    "pd1": "pd1", "pd2": "pd2", "directed": "robust", "robust": "robust", "virtual": "robust", "centralized": "pd1",
}


def directed(algorithm: str) -> bool:
    """Whether `algorithm` runs on a directed graph, as its `_Spec` entry declares."""
    return _SPECS[algorithm].directed


def augmented(state: dc.State) -> np.ndarray:
    """The (3, N) stack (lam, v, y) of a virtual state over all N = n + m nodes: column n + e is arc e's."""
    return np.concatenate([state.z, state.arcs], axis=1)


def virtual_state(z, p, x) -> dc.State:
    """The virtual state whose mixed rows over all N nodes are the (3, N) stack `z`, with the n real p and x."""
    n = len(p)
    z = np.asarray(z, dtype=float)
    return dc.State("virtual", np.vstack([z[:, :n], p, x]), z[:, n:].copy())


def metropolis_weights(nominal: dc.NominalGraph, active: np.ndarray) -> np.ndarray:
    """Dense reference: symmetric doubly stochastic weights on the active edges."""
    if nominal.directed:
        raise InvalidGraphError("Metropolis weights require an undirected graph")
    n = nominal.n
    W = np.zeros((n, n))
    if nominal.m:
        d = nominal.degrees
        srcs, dsts = nominal.srcs[active], nominal.dsts[active]
        w = 1.0 / np.maximum(d[srcs], d[dsts])
        W[srcs, dsts] = w
        W[dsts, srcs] = w
    W[np.diag_indices(n)] = 1.0 - W.sum(axis=1)
    return W


def push_matrix(nominal: dc.NominalGraph, active: np.ndarray) -> np.ndarray:
    """Dense reference: column-stochastic push matrix from instantaneous out-degrees."""
    if not nominal.directed:
        raise InvalidGraphError("push matrices require a directed graph")
    n = nominal.n
    D = np.ones(n)
    srcs, dsts = nominal.srcs[active], nominal.dsts[active]
    np.add.at(D, srcs, 1.0)
    P = np.zeros((n, n))
    P[np.diag_indices(n)] = 1.0 / D
    P[dsts, srcs] = 1.0 / D[srcs]
    return P


def augmented_push_matrix(nominal: dc.NominalGraph, active: np.ndarray, gamma: float) -> np.ndarray:
    """Dense reference: column-stochastic mixing over real plus virtual nodes.

    The virtual node of nominal arc e is index n + e. Uses only nominal
    out-degrees. An active arc (j, i) routes gamma/d_j
    of node j's share to i and (1-gamma)/d_j to the arc's virtual node,
    which also retains (1-gamma) of its own mass and releases gamma to i;
    an inactive arc diverts the full 1/d_j share to the virtual node, which
    keeps everything. Every nonzero entry is >= min(gamma, 1-gamma)/n.
    """
    if not nominal.directed:
        raise InvalidGraphError("virtual nodes are defined for directed graphs")
    if not (0.0 < gamma < 1.0):
        raise InvalidGraphError("gamma must lie in (0, 1)")
    n, m = nominal.n, nominal.m
    N = n + m
    dplus = nominal.out_degrees
    P = np.zeros((N, N))
    P[np.arange(n), np.arange(n)] = 1.0 / dplus
    if m == 0:
        return P
    srcs, dsts = nominal.srcs, nominal.dsts
    virt = n + np.arange(m)
    share = 1.0 / dplus[srcs]
    act = np.asarray(active, dtype=bool)
    ina = ~act
    P[dsts[act], srcs[act]] = gamma * share[act]
    P[virt[act], srcs[act]] = (1.0 - gamma) * share[act]
    P[dsts[act], virt[act]] = gamma
    P[virt[act], virt[act]] = 1.0 - gamma
    P[virt[ina], srcs[ina]] = share[ina]
    P[virt[ina], virt[ina]] = 1.0
    return P


class FixedMasks:
    """A schedule of given masks: row k of `masks` is step k's active mask.

    It is a `network.Schedule`: ``nominal``, ``horizon`` (the number of
    masks), ``seed``, ``digest()`` and ``block(lo, hi)``, a copy of masks
    lo..hi-1.
    """

    def __init__(self, nominal: dc.NominalGraph, masks):
        self.nominal, self.seed = nominal, None
        self.masks = np.array(masks, dtype=bool, ndmin=2)
        self.horizon = len(self.masks)

    def digest(self) -> str:
        return hashlib.sha256(self.masks.tobytes()).hexdigest()

    def block(self, lo: int, hi: int) -> np.ndarray:
        return self.masks[lo:hi].copy()


def run_over(algorithm, inst, nominal, masks, params, init=None, optimum=None):
    """`run` from `init` (the standard start if None) through `masks`, one step per mask."""
    schedule = FixedMasks(nominal, masks)
    return dc.run(algorithm, inst, schedule, replace(params, horizon=schedule.horizon), init=init, optimum=optimum)


def _arc_lists(nominal: dc.NominalGraph):
    """Per-node (arc, head) lists for each search: along the arcs, then against them.

    An undirected edge goes both ways in the first lists, which are then the only ones.
    """
    for reverse in (False, True)[: 1 + nominal.directed]:
        out = [[] for _ in range(nominal.n)]
        for a, ends in enumerate(nominal.edges):
            i, j = ends[::-1] if reverse else ends
            out[i].append((a, j))
            if not nominal.directed:
                out[j].append((a, i))
        yield out


def _reaches_all(out, live) -> bool:
    """Does node 0 reach every node along the live arcs of the per-node (arc, head) lists `out`?"""
    seen = [True] + [False] * (len(out) - 1)
    stack = [0]
    while stack:
        for a, j in out[stack.pop()]:
            if live[a] and not seen[j]:
                seen[j] = True
                stack.append(j)
    return all(seen)


def dfs_union_connected(nominal: dc.NominalGraph, mask) -> bool:
    """Is the subgraph of the edges flagged by `mask` (strongly) connected? One search from node 0 per direction."""
    live = np.asarray(mask, dtype=bool).tolist()
    return all(_reaches_all(out, live) for out in _arc_lists(nominal))


def dfs_windows_connected(nominal: dc.NominalGraph, masks: np.ndarray, B: int) -> np.ndarray:
    """Connectivity of each complete window [wB, (w+1)B) of `masks`, one `dfs_union_connected` per window."""
    unions = [masks[s : s + B].any(axis=0) for s in range(0, len(masks) - B + 1, B)]
    return np.array([dfs_union_connected(nominal, union) for union in unions], dtype=bool)


def earliest_connect_scan(nominal: dc.NominalGraph, masks: np.ndarray) -> np.ndarray:
    """L[s]: fewest steps from s whose active sets join into a connected union, K + 1 if none do.

    Windows ending later grow, so s + L[s] <= (s+1) + L[s+1]: walking s
    backwards the window end only retreats, and each step costs O(1)
    amortized connectivity tests. Prefix counts make any window union O(m).
    """
    K = masks.shape[0]
    counts = np.cumsum(np.pad(masks, ((1, 0), (0, 0))), axis=0, dtype=np.int32)
    lengths = np.full(K, K + 1)
    end = K + 1  # exclusive end of the earliest connected window from s + 1
    for s in range(K - 1, -1, -1):
        if end > K and not dfs_union_connected(nominal, counts[K] > counts[s]):
            continue
        end = min(end, K)
        while end - 1 > s:
            shorter = counts[end - 1] > counts[s]
            # A last step that adds no link leaves the union, and its verdict, unchanged.
            if (masks[end - 1] > shorter).any() and not dfs_union_connected(nominal, shorter):
                break
            end -= 1
        lengths[s] = end - s
    return lengths


def reference_trace_csv(trace, error: np.ndarray) -> str:
    """The trace CSV, one f-string per step; an absent residual series is written as nan."""
    nan = np.full(trace.p.shape[0], np.nan)
    keys = ("consensus_spread", "conservation", "mass", "min_v")
    columns = [error.tolist()] + [trace.residuals.get(key, nan).tolist() for key in keys]
    rows = [f"{k},{e:.17g},{s:.17g},{c:.17g},{m:.17g},{v:.17g}"
            for k, (e, s, c, m, v) in enumerate(zip(*columns))]
    return "\n".join([",".join(TRACE_COLUMNS), *rows]) + "\n"


# -- per-field iterations ----------------------------------------------------


def _mix(own, heads, arc_values):
    """own[f, i] plus the arc values of row f arriving at i, in arc order, for a (F, n) stack."""
    rows, n = own.shape
    bins = (np.arange(rows)[:, None] * n + heads).ravel()
    sums = np.bincount(bins, weights=arc_values.ravel(), minlength=own.size)
    return sums.reshape(own.shape) + own


def _primal(inst, params, s, p, feedback):
    cost = inst.cost
    return np.clip(p - s * (2.0 * cost.a * p + cost.b) + s * params.xi * feedback, inst.p_lo, inst.p_hi)


def _metropolis(g, active):
    d = g.degrees
    w = 1.0 / np.maximum(d[g.srcs], d[g.dsts])
    w = np.concatenate([w, w]) * np.concatenate([active, active])
    tails = np.concatenate([g.srcs, g.dsts])
    return 1.0 - np.bincount(tails, weights=w, minlength=g.n), w, tails, np.concatenate([g.dsts, g.srcs])


def _pd1(st, inst, g, active, params, k):
    s = params.stepsize(k)
    z = st.z
    p_new = _primal(inst, params, s, st.p, z[0])
    self_w, w, tails, heads = _metropolis(g, active)
    z_new = _mix(self_w * z, heads, w * z.take(tails, axis=1))
    z_new[0] -= s * z[1]
    z_new[1] += params.nhat * (p_new - st.p)
    return SimpleNamespace(p=p_new, z=z_new)


def _pd2(st, inst, g, active, params, k):
    s = params.stepsize(k)
    z = st.z
    p_new = _primal(inst, params, s, st.p, z[0])
    self_w, w, tails, heads = _metropolis(g, active)
    z_new = _mix(self_w * z, heads, w * z.take(tails, axis=1))
    z_new[0] -= s * params.nhat * (st.p - inst.loads)
    return SimpleNamespace(p=p_new, z=z_new)


def _centralized(st, inst, g, active, params, k):
    # `reference_centralized`'s expressions, over a lam row that holds the one multiplier n times.
    s = params.stepsize(k)
    p, lam = st.p, st.z[0]
    p_new = np.clip(p - s * inst.cost.grad(p) + s * params.xi * lam, inst.p_lo, inst.p_hi)
    return SimpleNamespace(p=p_new, z=np.stack([lam - s * float(np.sum(p - inst.loads))]))


def _directed(st, inst, g, active, params, k):
    s = params.stepsize(k)
    order = np.lexsort((g.srcs, g.dsts))
    tails, heads = g.srcs[order], g.dsts[order]
    live = active[order].astype(float)
    D = 1.0 + np.bincount(tails, weights=live, minlength=g.n)
    p_new = _primal(inst, params, s, st.p, st.x)
    z = st.z.copy()
    z[0] -= s * z[2]
    share = z / D
    z_new = _mix(share, heads, share.take(tails, axis=1) * live)
    z_new[2] += params.nhat * (p_new - st.p)
    return SimpleNamespace(p=p_new, z=z_new, x=z_new[0] / z_new[1])


def _robust(st, inst, g, active, params, k):
    s = params.stepsize(k)
    dplus, srcs = g.out_degrees, g.srcs
    p_new = _primal(inst, params, s, st.p, st.x)
    d = np.where(active, params.gamma * (st.sums.take(srcs, axis=1) - st.mirror), 0.0)
    shares = st.z / dplus
    arcs = d.copy()
    arcs[0] -= s * d[2]
    z_new = _mix(shares, g.dsts, arcs)
    z_new[0] -= s * shares[2]
    z_new[2] += params.nhat * (p_new - st.p)
    return SimpleNamespace(
        p=p_new,
        z=z_new,
        x=z_new[0] / z_new[1],
        mirror=st.mirror + d,
        sums=st.sums + z_new / dplus,
        virt=st.virt + shares.take(srcs, axis=1) - d,
    )


def _virtual(st, inst, g, active, params, k):
    n = inst.n
    s = params.stepsize(k)
    z = st.z
    p_new = st.p.copy()
    p_new[:n] = _primal(inst, params, s, st.p[:n], st.x[:n])
    share = z[:, :n] / g.out_degrees
    inflow = z[:, n:] + share.take(g.srcs, axis=1)
    released = np.where(active, params.gamma * inflow, 0.0)
    arcs = released.copy()
    arcs[0] -= s * released[2]
    real = _mix(share, g.dsts, arcs)
    real[0] -= s * share[2]
    real[2] += params.nhat * (p_new[:n] - st.p[:n])
    z_new = np.concatenate([real, inflow - released], axis=1)
    return SimpleNamespace(p=p_new, z=z_new, x=real[0] / real[1])  # x of the real nodes: nothing reads the rest


STEPS = {"pd1": _pd1, "pd2": _pd2, "directed": _directed, "robust": _robust, "virtual": _virtual,
         "centralized": _centralized}


def reference_start(algorithm, inst, g, params):
    """The standard start of `algorithm`, as per-field arrays."""
    n = inst.n
    p = np.clip(np.zeros(n), inst.p_lo, inst.p_hi)
    y = params.nhat * (p - inst.loads)
    if algorithm == "pd1":
        return SimpleNamespace(p=p, z=np.stack([np.zeros(n), y]))
    if algorithm in ("pd2", "centralized"):
        return SimpleNamespace(p=p, z=np.stack([np.zeros(n)]))
    st = SimpleNamespace(p=p, z=np.stack([np.zeros(n), np.ones(n), y]), x=np.zeros(n))
    if algorithm == "robust":
        st.mirror, st.sums, st.virt = np.zeros((3, g.m)), st.z / g.out_degrees, np.zeros((3, g.m))
    elif algorithm == "virtual":
        pad = (0, g.m)
        st = SimpleNamespace(p=np.pad(st.p, pad), z=np.pad(st.z, ((0, 0), pad)), x=st.x)
    return st


def fields_of(algorithm, state):
    """A package state as copies of the per-field arrays the reference steps take.

    A virtual state's p and z span all N nodes, virtual nodes holding no dispatch (p = 0) and their in-flight values.
    """
    if algorithm == "virtual":
        return SimpleNamespace(p=np.pad(state.p, (0, state.arcs.shape[1])), z=augmented(state), x=np.array(state.x))
    names = ["p", "z"]
    if directed(algorithm):
        names.append("x")
    if algorithm == "robust":
        names += ["sums", "mirror", "virt"]
    return SimpleNamespace(**{name: np.array(getattr(state, name)) for name in names})


def reference_run(algorithm, inst, sched, params, start=None):
    """Trace arrays, residual series and last per-field state of `run`, from per-field steps and per-state reductions.

    The run steps from `start`, a package state as `run` takes for `init`,
    or from the standard start if it is None.
    """
    g, n, nhat = sched.nominal, inst.n, params.nhat
    push = directed(algorithm)
    tracked = algorithm not in ("pd2", "centralized")
    fields = ["p", "consensus"] + (["y"] if tracked else []) + (["v"] if push else [])
    trace = {name: [] for name in fields}
    res = {"imbalance": [], "consensus_spread": []}
    if tracked:
        res["conservation"] = []
    if push:
        res["mass"], res["min_v"] = [], []

    def parts(st, row):
        """Row `row` of z in the parts `run` totals, in its order: the nodes' row, then the in-flight values."""
        if algorithm == "robust":
            return [st.z[row], st.virt[row]]
        return [st.z[row, :n], st.z[row, n:]] if algorithm == "virtual" else [st.z[row]]

    def record(st):
        p = st.p[:n]
        c = (st.x if push else st.z[0])[:n]
        trace["p"].append(p)
        trace["consensus"].append(c)
        imb = float((p - inst.loads).sum())
        res["imbalance"].append(abs(imb))
        res["consensus_spread"].append(float(c.max() - c.min()))
        if not tracked:
            return
        ys = parts(st, 2 if push else 1)
        trace["y"].append(ys[0])
        res["conservation"].append(abs(sum(float(a.sum()) for a in ys) - nhat * imb))
        if not push:
            return
        vs = parts(st, 1)
        trace["v"].append(vs[0])
        res["mass"].append(abs(sum(float(a.sum()) for a in vs) - n))
        res["min_v"].append(min(float(a.min()) for a in vs if a.size))

    st = reference_start(algorithm, inst, g, params) if start is None else fields_of(algorithm, start)
    record(st)
    for k in range(params.horizon):
        active = sched.masks[k]
        st = STEPS[algorithm](st, inst, g, active, params, k)
        record(st)
    arrays = {name: np.array(rows) for name, rows in trace.items()}
    return arrays, {key: np.array(v) for key, v in res.items()}, st


def reference_centralized(inst, params, p0=None, lam0=0.0):
    """(p, lam, imbalance) of the centralized iteration from (p0, lam0), by its own scalar-multiplier loop."""
    p = np.clip(np.zeros(inst.n), inst.p_lo, inst.p_hi) if p0 is None else np.asarray(p0, dtype=float).copy()
    lam = float(lam0)
    K = params.horizon
    p_hist, lam_hist, imbalance = np.empty((K + 1, inst.n)), np.empty((K + 1, 1)), np.empty(K + 1)
    p_hist[0], lam_hist[0, 0] = p, lam
    imbalance[0] = abs(float(np.sum(p - inst.loads)))
    for k in range(K):
        s = params.stepsize(k)
        p_new = np.clip(p - s * inst.cost.grad(p) + s * params.xi * lam, inst.p_lo, inst.p_hi)
        lam = lam - s * float(np.sum(p - inst.loads))
        p = p_new
        p_hist[k + 1], lam_hist[k + 1, 0] = p, lam
        imbalance[k + 1] = abs(float(np.sum(p - inst.loads)))
    return p_hist, lam_hist, imbalance
