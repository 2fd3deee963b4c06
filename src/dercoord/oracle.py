"""Exact dispatch solutions and the centralized projected primal-dual baseline.

The exact optimum is found by bisection on the scalar multiplier: each
agent's optimal response p_i(lam) = clamp((f_i')^{-1}(xi*(nhat/n)*lam)) is
monotone nondecreasing in lam, so the total-generation curve crosses the
demand exactly once over an instance-derived bracket.

lambda* is reported in the scaled convention (the fixed point shared by
the distributed iterations); rescaling by n/(xi*nhat) recovers the raw
multiplier of the balance constraint, and the dispatch p* is the same in
both conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InvalidCostError, InvalidInstanceError
from .metrics import RunTrace, run_warnings
from .problem import (
    AlgorithmParams,
    ProblemInstance,
    QuadraticCost,
    _primal_step,
    checked_p0,
    kkt_residual,
    positive,
)

# The default balance tolerance |1'p - 1'load| of `solve_bisection`, also
# the config's `oracle_tol` and `dercoord solve --tol` default.
ORACLE_TOL = 1e-12

# Inner vectorized bisection for inverting f' on the box (general costs).
_INVERSE_ITERATIONS = 80


@dataclass(frozen=True)
class DispatchSolution:
    """Exact optimum: dispatch, scaled multiplier, KKT multipliers, residual."""

    p_star: np.ndarray
    lambda_star: float
    mu_star: np.ndarray
    nu_star: np.ndarray
    kkt_residual: float
    iterations: int
    bracket: tuple[float, float]


def clamped_best_response(inst: ProblemInstance, scale: float, lam: float) -> np.ndarray:
    """p(lam): componentwise clamp of (f')^{-1}(scale * lam) onto the box, for a scalar lam."""
    t = scale * float(lam)
    cost = inst.cost
    if isinstance(cost, QuadraticCost):
        return inst.clamp(cost.grad_inverse(t))
    # monotone f' (f'' >= m > 0): bisect within the box, then clamp is implicit
    lo = inst.p_lo.copy()
    hi = inst.p_hi.copy()
    g_lo = cost.grad(lo) - t
    g_hi = cost.grad(hi) - t
    out = np.empty(inst.n)
    at_lo = g_lo >= 0.0
    at_hi = g_hi <= 0.0
    out[at_lo] = lo[at_lo]
    out[at_hi] = hi[at_hi]
    interior = ~(at_lo | at_hi)
    if np.any(interior):
        a = lo.copy()
        b = hi.copy()
        for _ in range(_INVERSE_ITERATIONS):
            mid = 0.5 * (a + b)
            pos = cost.grad(mid) - t > 0.0
            b = np.where(pos, mid, b)
            a = np.where(pos, a, mid)
        out[interior] = (0.5 * (a + b))[interior]
    return out


def solve_bisection(
    inst: ProblemInstance,
    xi: float = 1.0,
    nhat: float | None = None,
    tol: float = ORACLE_TOL,
) -> DispatchSolution:
    """Exact optimum of the dispatch problem by bisection on the multiplier.

    Bisects lam until |1'p(lam) - 1'load| <= tol (or the bracket reaches
    machine resolution). The initial bracket is instance-derived and
    guaranteed to straddle the optimum by monotonicity; `ProblemInstance`
    has already checked that the instance is feasible and its cost
    strongly convex. xi, nhat (default n) and tol must be positive and
    finite (`problem.positive`), else `InvalidInstanceError` names the
    first that is not. A cost whose gradient is not finite at a capacity
    bound leaves no bracket and raises `InvalidCostError`; a finite one
    that overflows the bracket once divided by xi*nhat/n raises
    `InvalidInstanceError`.
    """
    if nhat is None:
        nhat = float(inst.n)
    for name, value in (("xi", xi), ("nhat", nhat), ("tol", tol)):
        if not positive(value):
            raise InvalidInstanceError(f"{name}={value} must be positive and finite")
    scale = xi * nhat / inst.n
    total = inst.total_load

    g_lo = inst.cost.grad(inst.p_lo)
    g_hi = inst.cost.grad(inst.p_hi)
    bad = np.flatnonzero(~(np.isfinite(g_lo) & np.isfinite(g_hi)))
    if bad.size:
        raise InvalidCostError(f"agent {bad[0]}: f' is not finite at p_lo or p_hi")
    lam_lo = float(g_lo.min()) / scale - 1.0
    lam_hi = float(g_hi.max()) / scale + 1.0
    for name, bound in (("lam_lo", lam_lo), ("lam_hi", lam_hi)):
        if not np.isfinite(bound):
            raise InvalidInstanceError(
                f"multiplier bracket {name} = {bound} is not finite: f' at the box ends over "
                f"xi*nhat/n = {scale:.17g} overflows"
            )
    bracket = (lam_lo, lam_hi)

    lam = 0.5 * (lam_lo + lam_hi)
    p = clamped_best_response(inst, scale, lam)
    best = (abs(float(p.sum()) - total), lam, p)
    iterations = 0
    width_floor = 4.0 * np.finfo(float).eps * max(1.0, abs(lam_lo), abs(lam_hi))
    while True:
        iterations += 1
        lam = 0.5 * (lam_lo + lam_hi)
        p = clamped_best_response(inst, scale, lam)
        gap = float(p.sum()) - total
        if abs(gap) < best[0]:
            best = (abs(gap), lam, p)
        if abs(gap) <= tol or (lam_hi - lam_lo) <= width_floor:
            break
        if gap < 0.0:
            lam_lo = lam
        else:
            lam_hi = lam

    _, lam_star, p_star = best
    grad = inst.cost.grad(p_star)
    stat_gap = scale * lam_star - grad
    mu = np.where(p_star >= inst.p_hi, np.maximum(stat_gap, 0.0), 0.0)
    nu = np.where(p_star <= inst.p_lo, np.maximum(-stat_gap, 0.0), 0.0)
    res = kkt_residual(inst, p_star, lam_star, xi, nhat)
    return DispatchSolution(
        p_star=p_star,
        lambda_star=float(lam_star),
        mu_star=mu,
        nu_star=nu,
        kkt_residual=res,
        iterations=iterations,
        bracket=bracket,
    )


def centralized_pd_run(
    inst: ProblemInstance,
    params: AlgorithmParams,
    p0=None,
    lam0: float = 0.0,
) -> RunTrace:
    """Projected primal-dual iteration with the exact total imbalance.

    p[k+1] = clamp(p[k] - s f'(p[k]) + s xi lam[k]),
    lam[k+1] = lam[k] - s 1'(p[k] - load);
    both updates read step-k values. The primal step is the one the
    distributed kernels take, `problem._primal_step` bound once per run,
    with the scalar lam as every agent's feedback. Serves as the
    single-multiplier baseline the distributed algorithms emulate.
    """
    n = inst.n
    K = params.horizon
    p_hist = np.empty((K + 1, n))
    lam_hist = np.empty((K + 1, 1))
    imbalance = np.empty(K + 1)
    p_hist[0] = checked_p0(inst, p0)
    lam = float(lam0)
    lam_hist[0, 0] = lam
    gap = float(np.sum(p_hist[0] - inst.loads))  # 1'(p[k] - load), read by imbalance[k] and the lam update
    imbalance[0] = abs(gap)
    primal = _primal_step(inst, params)
    for k in range(K):
        s = params.stepsize(k)
        p = p_hist[k + 1]
        primal(s, p_hist[k], lam, p)
        lam -= s * gap
        if not (np.all(np.isfinite(p)) and np.isfinite(lam)):
            raise DivergenceError(k + 1, "centralized iterate")
        lam_hist[k + 1, 0] = lam
        gap = float(np.sum(p - inst.loads))
        imbalance[k + 1] = abs(gap)
    return RunTrace(
        algorithm="centralized",
        p=p_hist,
        consensus=lam_hist,
        residuals={"imbalance": imbalance},
        params=params,
        warnings=run_warnings(params, n, imbalance),
    )
