"""Dispatch problem definition: costs, capacity box, feasibility, KKT residual.

The problem is: minimize sum_i f_i(p_i) subject to 1'p = 1'load and
lo <= p <= hi, with every f_i twice differentiable and strongly convex on
its box. All powers are in MW; cost units are abstract (the source problem
never fixes them).

The stationarity convention used throughout the package is the scaled one,
f_i'(p_i) = xi*(nhat/n)*lambda, which is the fixed point shared by the
centralized and distributed iterations. It differs from the raw multiplier
of the balance constraint only by a constant rescaling of lambda; the
optimal dispatch is identical.

The projected primal step every iteration takes lives here once, as
`_primal_step(inst, params)`: each kernel in `algorithms`, the
centralized baseline's among them, binds it once per run.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

try:
    from numpy._core.umath import clip  # the ufunc that np.clip reaches after its Python wrappers
except ImportError:  # NumPy 1.x
    from numpy.core.umath import clip

from .errors import (
    DimensionMismatchError,
    InfeasibleInstanceError,
    InvalidCostError,
    InvalidInstanceError,
)
from .network import checked_int

# Grid resolution of the best-effort strong-convexity check for general
# (callable) cost models. Quadratic models are checked exactly.
CONVEXITY_GRID_POINTS = 1000


def positive(x) -> bool:
    """The rule for the problem's positive parameters: 0 < x < inf, which NaN fails."""
    return 0.0 < x < np.inf


def _as_vector(x, name: str, n: int | None = None) -> np.ndarray:
    """A read-only float copy of x, which must be a vector of length n: what is validated cannot change later."""
    v = np.array(x, dtype=float)
    v.flags.writeable = False
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise InvalidInstanceError(f"{name} must be a 1-D vector")
    if n is not None and v.shape[0] != n:
        raise DimensionMismatchError(name, n, v.shape[0])
    return v


@dataclass(frozen=True)
class QuadraticCost:
    """Per-agent quadratic costs f_i(p) = a_i*p^2 + b_i*p + c_i with finite coefficients and a_i > 0."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __init__(self, a, b=None, c=None):
        a = _as_vector(a, "a")
        n = a.shape[0]
        b = _as_vector(np.zeros(n) if b is None else b, "b", n)
        c = _as_vector(np.zeros(n) if c is None else c, "c", n)
        bad = np.flatnonzero(~(np.isfinite(a) & np.isfinite(b) & np.isfinite(c)))
        if bad.size:
            raise InvalidCostError(f"agent {bad[0]}: quadratic coefficients a, b, c must be finite")
        if np.any(a <= 0):
            raise InvalidCostError("quadratic coefficients a_i must be positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def value(self, p: np.ndarray) -> np.ndarray:
        return self.a * p * p + self.b * p + self.c

    @cached_property
    def twice_a(self) -> np.ndarray:
        """2a, formed once: (2a)*p is how 2.0*a*p evaluates, so the bits are the same."""
        return 2.0 * self.a

    def grad(self, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """f'(p) = (2a)*p + b, written into `out` if given."""
        return np.add(np.multiply(self.twice_a, p, out), self.b, out)

    def grad_inverse(self, t: np.ndarray) -> np.ndarray:
        """Solve f_i'(p) = t_i for p, componentwise."""
        return (t - self.b) / self.twice_a


@dataclass(frozen=True)
class GeneralCost:
    """General convex hook: user-supplied vectorized evaluators.

    ``value``/``grad``/``hess`` map a length-n vector to per-agent values.
    The user declares the strong-convexity parameter m, which must be
    `positive`; it is verified on a sampled grid when the cost is attached
    to an instance (best effort, see `validate_on_box`; a NaN second
    derivative fails it). Derivatives are never approximated
    numerically inside iteration loops.
    """

    value_fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    hess_fn: Callable[[np.ndarray], np.ndarray]
    m: float
    n: int

    def __post_init__(self):
        if not positive(self.m):
            raise InvalidCostError(f"declared strong convexity m={self.m} must be positive and finite")
        if self.n < 1:
            raise InvalidCostError("agent count must be >= 1")

    def value(self, p: np.ndarray) -> np.ndarray:
        return np.asarray(self.value_fn(p), dtype=float)

    def grad(self, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """f'(p) as a new array; `out` is accepted for the quadratic's signature and ignored."""
        return np.asarray(self.grad_fn(p), dtype=float)

    def hess(self, p: np.ndarray) -> np.ndarray:
        return np.asarray(self.hess_fn(p), dtype=float)

    def validate_on_box(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Sampled check that f'' >= m on [lo, hi] (grid of 1000 points/agent)."""
        ts = np.linspace(0.0, 1.0, CONVEXITY_GRID_POINTS)
        grid = lo[None, :] + ts[:, None] * (hi - lo)[None, :]
        h = np.vstack([self.hess(row) for row in grid])
        slack = 1e-9 * max(1.0, abs(self.m))
        if not np.all(h >= self.m - slack):  # NaN fails too, and argmin finds it first
            bad = np.unravel_index(int(np.argmin(h)), h.shape)
            raise InvalidCostError(
                f"second derivative {h[bad]:.6g} below declared m={self.m:.6g} "
                f"at agent {bad[1]}"
            )


CostModel = QuadraticCost | GeneralCost


@dataclass(frozen=True)
class ProblemInstance:
    """A dispatch problem: n agents with costs, per-agent box, fixed loads.

    The cost's f' must be finite at both ends of every box, so the
    oracle's multiplier bracket exists.
    """

    loads: np.ndarray
    p_lo: np.ndarray
    p_hi: np.ndarray
    cost: CostModel

    def __init__(self, loads, p_lo, p_hi, cost: CostModel):
        loads = _as_vector(loads, "loads")
        n = loads.shape[0]
        p_lo = _as_vector(p_lo, "p_lo", n)
        p_hi = _as_vector(p_hi, "p_hi", n)
        object.__setattr__(self, "loads", loads)
        object.__setattr__(self, "p_lo", p_lo)
        object.__setattr__(self, "p_hi", p_hi)
        object.__setattr__(self, "cost", cost)
        self._validate()

    @property
    def n(self) -> int:
        return self.loads.shape[0]

    def _validate(self) -> None:
        n = self.n
        if self.cost.n != n:
            raise DimensionMismatchError("cost model", n, self.cost.n)
        if not (
            np.all(np.isfinite(self.loads))
            and np.all(np.isfinite(self.p_lo))
            and np.all(np.isfinite(self.p_hi))
        ):
            raise InvalidInstanceError("loads and capacity bounds must be finite")
        bad = np.nonzero(self.p_lo > self.p_hi)[0]
        if bad.size:
            i = int(bad[0])
            raise InvalidInstanceError(
                f"agent {i}: p_lo={self.p_lo[i]:.6g} > p_hi={self.p_hi[i]:.6g}"
            )
        with np.errstate(over="ignore"):  # a sum that overflows is rejected, not warned about
            total, lo_sum, hi_sum = (float(a.sum()) for a in (self.loads, self.p_lo, self.p_hi))
        if not np.isfinite([total, lo_sum, hi_sum]).all():
            raise InvalidInstanceError(
                f"1'load = {total:.6g}, 1'p_lo = {lo_sum:.6g} and 1'p_hi = {hi_sum:.6g} must be finite"
            )
        if lo_sum > total:
            raise InfeasibleInstanceError(
                f"1'p_lo = {lo_sum:.6g} > 1'load = {total:.6g}"
            )
        if total > hi_sum:
            raise InfeasibleInstanceError(
                f"1'load = {total:.6g} > 1'p_hi = {hi_sum:.6g}"
            )
        if isinstance(self.cost, GeneralCost):
            self.cost.validate_on_box(self.p_lo, self.p_hi)
        with np.errstate(all="ignore"):  # an overflowing f' is rejected, not warned about
            bad = np.flatnonzero(~(np.isfinite(self.cost.grad(self.p_lo)) & np.isfinite(self.cost.grad(self.p_hi))))
        if bad.size:
            raise InvalidCostError(f"agent {bad[0]}: f' is not finite at p_lo or p_hi")

    @property
    def total_load(self) -> float:
        return float(self.loads.sum())

    def clamp(self, p: np.ndarray) -> np.ndarray:
        """Componentwise clamp of float array p onto the box, validated at construction."""
        return clip(p, self.p_lo, self.p_hi)


@dataclass(frozen=True)
class ConstantStep:
    """Constant stepsize s, positive and finite."""

    s: float

    def __post_init__(self):
        if not positive(self.s):
            raise InvalidInstanceError(f"stepsize s={self.s} must be positive and finite")

    def at(self, k: int) -> float:
        return self.s


@dataclass(frozen=True)
class DiminishingStep:
    """Diminishing schedule s[k] = a / (k + b), with a and b positive and finite."""

    a: float
    b: float

    def __post_init__(self):
        if not (positive(self.a) and positive(self.b)):
            raise InvalidInstanceError(f"schedule a={self.a}, b={self.b}: a and b must be positive and finite")

    def at(self, k):
        """s[k] for an int k, or elementwise for an int array, in float64 either way.

        int to float64 is exact below 2^53, so both give the same bits. a and
        b are taken as Python floats, since a NumPy float32 would make a
        scalar k compute in float32 but an array of k in float64.
        """
        return float(self.a) / (k + float(self.b))


Stepsize = ConstantStep | DiminishingStep


@dataclass(frozen=True)
class AlgorithmParams:
    """Shared knobs of the dispatch iterations.

    ``step`` is either a constant stepsize or an a/(k+b) schedule; its
    ``at(k)`` takes a step number or an int array of them (`run` asks for
    a block's steps at once), giving a float or what broadcasts over k. ``xi``
    scales the multiplier feedback into the primal step; ``nhat`` is each
    agent's estimate of the network size; ``gamma`` is the retention mix of
    the running-sum protocol; ``horizon`` is the default number of steps,
    an integer >= 0 (`checked_int`).
    """

    step: Stepsize
    xi: float = 1.0
    nhat: float = 1.0
    gamma: float = 0.9
    horizon: int = 1000

    def __post_init__(self):
        for name in ("xi", "nhat"):
            if not positive(getattr(self, name)):
                raise InvalidInstanceError(f"{name}={getattr(self, name)} must be positive and finite")
        if not (0.0 < self.gamma < 1.0):
            raise InvalidInstanceError(f"gamma={self.gamma} must lie in (0, 1)")
        object.__setattr__(self, "horizon", checked_int(self.horizon, "horizon K", InvalidInstanceError, 0))

    def stepsize(self, k):
        return self.step.at(k)

    def configuration_warnings(self, n: int) -> list[str]:
        """Range checks that flag but do not abort a run."""
        out = []
        if self.xi * self.nhat > n:
            out.append(
                f"xi*nhat = {self.xi * self.nhat:.6g} exceeds n = {n}; "
                "the multiplier scaling lies outside the supported range"
            )
        return out


def _primal_step(inst: ProblemInstance, params: AlgorithmParams) -> Callable:
    """The projected primal step clamp(p - s f'(p) + s xi feedback), bound to one run: ``step(s, sxi, p, feedback, out)``.

    The one primal step of every algorithm, the centralized baseline's
    included (its feedback rows all hold the one multiplier): each kernel
    in `algorithms` binds it once per run. s and sxi = s*xi arrive as 0-d
    arrays (`run` forms both per block).
    The cost's `grad`, the box and one scratch row are bound. Evaluated
    as (p - s*f'(p)) + (s*xi)*feedback, then the clip ufunc, writing into
    `out` (not p) and allocating nothing for a quadratic cost (its f'
    goes into the scratch row): regrouping changes the last bits of every
    trace.
    """
    grad, lo, hi = inst.cost.grad, inst.p_lo, inst.p_hi
    scratch = np.empty(inst.n)

    def step(s, sxi, p, feedback, out) -> None:
        np.subtract(p, np.multiply(grad(p, scratch), s, scratch), out)
        np.add(out, np.multiply(feedback, sxi, scratch), out)
        clip(out, lo, hi, out)

    return step


def default_p0(inst: ProblemInstance) -> np.ndarray:
    """Zero dispatch clamped onto the box (the standard initialization)."""
    return inst.clamp(np.zeros(inst.n))


def checked_p0(inst: ProblemInstance, p0=None) -> np.ndarray:
    """A fresh initial dispatch: `default_p0` if p0 is None, else a checked copy."""
    if p0 is None:
        return default_p0(inst)
    p0 = np.asarray(p0, dtype=float).copy()
    if p0.shape != (inst.n,):
        raise InvalidInstanceError(f"p0 must have shape ({inst.n},)")
    if not (np.all(p0 >= inst.p_lo) and np.all(p0 <= inst.p_hi)):  # NaN fails
        raise InvalidInstanceError("p0 must lie within the capacity box")
    return p0


def kkt_multipliers(inst: ProblemInstance, p: np.ndarray, lam: float, c: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Bound multipliers (mu, nu) at (p, lam) with c = xi*nhat/n, and the KKT residual they leave.

    The residual is the max of the balance violation |1'(p - load)| and
    the worst per-agent stationarity violation |c*lam - f_i'(p_i) - mu_i
    + nu_i|: an agent at a bound is charged only for the part a
    nonnegative multiplier cannot absorb. It is zero iff (p, lam) solves
    the KKT system in the scaled convention.
    """
    stat = c * lam - inst.cost.grad(p)
    # At the upper bound mu >= 0 absorbs c*lam - f' >= 0; symmetric below.
    mu = np.where(p >= inst.p_hi, np.maximum(stat, 0.0), 0.0)
    nu = np.where(p <= inst.p_lo, np.maximum(-stat, 0.0), 0.0)
    balance = abs(float(np.sum(p - inst.loads)))
    return mu, nu, max(balance, float(np.abs(stat - mu + nu).max()))


def kkt_residual(inst: ProblemInstance, p, lam: float, xi: float, nhat: float) -> float:
    """Residual of the scaled KKT system at (p, lam) (see `kkt_multipliers`)."""
    return kkt_multipliers(inst, _as_vector(p, "p", inst.n), float(lam), xi * nhat / inst.n)[2]
