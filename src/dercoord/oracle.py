"""Exact solutions of the dispatch problem.

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

from .errors import InvalidInstanceError
from .network import checked_real
from .problem import ProblemInstance, QuadraticCost, kkt_multipliers

# The default balance tolerance |1'p - 1'load| of `solve_bisection`, which
# `run_experiment` and `dercoord solve` take.
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
    """p(lam): componentwise clamp of (f')^{-1}(scale * lam) onto the box, for a scalar lam.

    scale must be positive and finite and lam a finite real number
    (`checked_real`), else `InvalidInstanceError` names the first that is
    not.
    """
    scale = checked_real(scale, "scale", InvalidInstanceError)
    t = scale * float(checked_real(lam, "lam", InvalidInstanceError, -np.inf))
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
    finite (`network.checked_real`), else `InvalidInstanceError` names the
    first that is not. `ProblemInstance` has checked that f' is
    finite at both ends of every box; an f' that overflows the bracket once
    divided by xi*nhat/n raises `InvalidInstanceError`.
    """
    if nhat is None:
        nhat = float(inst.n)
    for name, value in (("xi", xi), ("nhat", nhat), ("tol", tol)):
        checked_real(value, name, InvalidInstanceError)
    scale = xi * nhat / inst.n
    total = inst.total_load

    lam_lo = float(inst.cost.grad(inst.p_lo).min()) / scale - 1.0
    lam_hi = float(inst.cost.grad(inst.p_hi).max()) / scale + 1.0
    for name, bound in (("lam_lo", lam_lo), ("lam_hi", lam_hi)):
        if not np.isfinite(bound):
            raise InvalidInstanceError(
                f"multiplier bracket {name} = {bound} is not finite: f' at the box ends over "
                f"xi*nhat/n = {scale:.17g} overflows"
            )
    bracket = (lam_lo, lam_hi)

    best = None  # (|gap|, lam, p) of the first midpoint, then of each closer one
    iterations = 0
    width_floor = 4.0 * np.finfo(float).eps * max(1.0, abs(lam_lo), abs(lam_hi))
    while True:
        iterations += 1
        lam = 0.5 * (lam_lo + lam_hi)
        p = clamped_best_response(inst, scale, lam)
        gap = float(p.sum()) - total
        if best is None or abs(gap) < best[0]:
            best = (abs(gap), lam, p)
        if abs(gap) <= tol or (lam_hi - lam_lo) <= width_floor:
            break
        if gap < 0.0:
            lam_lo = lam
        else:
            lam_hi = lam

    _, lam_star, p_star = best
    mu, nu, res = kkt_multipliers(inst, p_star, lam_star, scale)
    return DispatchSolution(
        p_star=p_star,
        lambda_star=float(lam_star),
        mu_star=mu,
        nu_star=nu,
        kkt_residual=res,
        iterations=iterations,
        bracket=bracket,
    )
