"""Reference constructions the tests compare the package against.

* Dense mixing matrices (`metropolis_weights`, `push_matrix`,
  `augmented_push_matrix`): the n x n (or N x N) matrix of one step's
  mixing, built entry by entry.
* `reference_run`: the five iterations written per field, allocating a
  new array for every intermediate, the way the package evaluated them
  before each state became one contiguous array filled in place. Each
  step forms its weights from the step's mask alone. `run` must give the
  same trace and residual series bit for bit, from the standard start or
  from any state given as ``start=`` (what `run` takes as ``init``).
* `FixedMasks` and `run_over`: a schedule of given masks, and `run` over
  one, so a test steps any state through masks of its choosing (one
  mask: one step, read back as ``trace.final``) or resumes a run over the
  masks that remain.
* `stepwise_stochasticity`: one step's column-sum residual from its edge
  weights.
* `reference_centralized`: the centralized primal-dual loop as it was
  written before it shared the distributed iterations' primal step.
* `earliest_connect_scan`: the earliest-connect lengths found by a
  backward two-pointer scan that judges each probed window union with
  `union_connected`, the way the package found them before it took
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
from dercoord.errors import InvalidGraphError
from dercoord.experiment import TRACE_COLUMNS
from dercoord.network import union_connected


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

    It has what `run` reads of a `GraphSchedule`: ``nominal``, ``horizon``
    (the number of masks), ``masks``, ``seed`` and ``digest()``.
    """

    def __init__(self, nominal: dc.NominalGraph, masks):
        self.nominal, self.seed = nominal, None
        self.masks = np.array(masks, dtype=bool, ndmin=2)
        self.horizon = len(self.masks)

    def digest(self) -> str:
        return hashlib.sha256(self.masks.tobytes()).hexdigest()


def run_over(algorithm, inst, nominal, masks, params, init=None):
    """`run` from `init` (the standard start if None) through `masks`, one step per mask."""
    schedule = FixedMasks(nominal, masks)
    return dc.run(algorithm, inst, schedule, replace(params, horizon=schedule.horizon), init=init)


def stepwise_stochasticity(algorithm, g, active, gamma):
    """One step's residual from its edge weights, formed from the mask alone."""
    n = g.n
    if algorithm in ("pd1", "pd2"):
        # Metropolis: both directions of each active edge weigh 1/max(d_i, d_j).
        d = g.degrees
        tails = np.concatenate([g.srcs, g.dsts])
        w = np.tile(active / np.maximum(d[g.srcs], d[g.dsts]), 2)
        sums = np.bincount(tails, weights=w, minlength=n) + (1.0 - np.bincount(tails, weights=w, minlength=n))
    elif algorithm == "directed":
        # Push-sum over the live arcs, summed per tail in (head, tail) order.
        order = np.lexsort((g.srcs, g.dsts))
        tails = g.srcs[order][active[order]]
        D = 1.0 + np.bincount(tails, minlength=n)
        sums = np.bincount(tails, weights=1.0 / D[tails], minlength=n) + 1.0 / D
    else:
        share = 1.0 / g.out_degrees
        arc_share = share[g.srcs]
        gg = np.where(active, gamma, 0.0)
        tails = np.concatenate([g.srcs, g.srcs, n + np.arange(g.m)])
        w = np.concatenate([gg * arc_share, (1.0 - gg) * arc_share, gg])
        sums = np.bincount(tails, weights=w, minlength=n + g.m) + np.concatenate([share, 1.0 - gg])
    return float(np.abs(sums - 1.0).max())



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
        if end > K and not union_connected(nominal, counts[K] > counts[s]):
            continue
        end = min(end, K)
        while end - 1 > s:
            shorter = counts[end - 1] > counts[s]
            # A last step that adds no link leaves the union, and its verdict, unchanged.
            if (masks[end - 1] > shorter).any() and not union_connected(nominal, shorter):
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
    return SimpleNamespace(p=p_new, z=z_new, x=z_new[0] / z_new[1])


STEPS = {"pd1": _pd1, "pd2": _pd2, "directed": _directed, "robust": _robust, "virtual": _virtual}


def reference_start(algorithm, inst, g, params):
    """The standard start of `algorithm`, as per-field arrays."""
    n = inst.n
    p = np.clip(np.zeros(n), inst.p_lo, inst.p_hi)
    y = params.nhat * (p - inst.loads)
    if algorithm == "pd1":
        return SimpleNamespace(p=p, z=np.stack([np.zeros(n), y]))
    if algorithm == "pd2":
        return SimpleNamespace(p=p, z=np.stack([np.zeros(n)]))
    st = SimpleNamespace(p=p, z=np.stack([np.zeros(n), np.ones(n), y]), x=np.zeros(n))
    if algorithm == "robust":
        st.mirror, st.sums, st.virt = np.zeros((3, g.m)), st.z / g.out_degrees, np.zeros((3, g.m))
    elif algorithm == "virtual":
        pad = (0, g.m)
        st = SimpleNamespace(p=np.pad(st.p, pad), z=np.pad(st.z, ((0, 0), pad)), x=np.pad(st.x, pad))
    return st


def fields_of(algorithm, state):
    """A package state as copies of the per-field arrays the reference steps take."""
    names = ["p", "z"]
    if algorithm in ("directed", "robust", "virtual"):
        names.append("x")
    if algorithm == "robust":
        names += ["sums", "mirror", "virt"]
    return SimpleNamespace(**{name: np.array(getattr(state, name)) for name in names})


def reference_run(algorithm, inst, sched, params, start=None):
    """Trace arrays and residual series of `run`, from per-field steps and per-state reductions.

    The run steps from `start`, a package state as `run` takes for `init`,
    or from the standard start if it is None.
    """
    g, n, nhat = sched.nominal, inst.n, params.nhat
    push = algorithm in ("directed", "robust", "virtual")
    fields = ["p", "consensus"] + (["y"] if algorithm != "pd2" else []) + (["v"] if push else [])
    trace = {name: [] for name in fields}
    res = {"imbalance": [], "consensus_spread": []}
    if algorithm != "robust":
        res["stochasticity"] = [0.0]
    if algorithm != "pd2":
        res["conservation"] = []
    if push:
        res["mass"], res["min_v"] = [], []

    def record(st):
        p = st.p[:n]
        c = (st.x if push else st.z[0])[:n]
        trace["p"].append(p)
        trace["consensus"].append(c)
        imb = float((p - inst.loads).sum())
        res["imbalance"].append(abs(imb))
        res["consensus_spread"].append(float(c.max() - c.min()))
        if algorithm == "pd2":
            return
        ys = [st.z[2] if push else st.z[1]]
        trace["y"].append(ys[0][:n])
        if algorithm == "robust":
            ys.append(st.virt[2])
        res["conservation"].append(abs(sum(float(a.sum()) for a in ys) - nhat * imb))
        if not push:
            return
        vs = [st.z[1]] + ([st.virt[1]] if algorithm == "robust" else [])
        trace["v"].append(vs[0][:n])
        res["mass"].append(abs(sum(float(a.sum()) for a in vs) - n))
        res["min_v"].append(min(float(a.min()) for a in vs if a.size))

    st = reference_start(algorithm, inst, g, params) if start is None else fields_of(algorithm, start)
    record(st)
    for k in range(params.horizon):
        active = sched.masks[k]
        st = STEPS[algorithm](st, inst, g, active, params, k)
        if "stochasticity" in res:
            res["stochasticity"].append(stepwise_stochasticity(algorithm, g, active, params.gamma))
        record(st)
    return {name: np.array(rows) for name, rows in trace.items()}, {key: np.array(v) for key, v in res.items()}


def reference_centralized(inst, params, p0=None, lam0=0.0):
    """(p, consensus, imbalance) of `centralized_pd_run`, from its own inline loop."""
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
