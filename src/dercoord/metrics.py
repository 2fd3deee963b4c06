"""Trace containers and convergence/invariant analysis.

A run produces a `RunTrace`: per-step iterates plus diagnostic residual
series recorded while stepping. The functions here turn traces into
convergence-error series, exponentially weighted norms, fitted geometric
rates, and pass/fail invariant reports. `run_warnings` builds the
warnings every run carries.

Residual budgets live in one table (`BUDGETS`) so the test suite and the
CLI summaries agree on what "healthy" means. The CLI summary's residual
extrema are `invariant_report` values, so each extremum, including the
k >= 1 rule for the least push-sum weight, is computed here only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatchError, FitWindowError
from .problem import AlgorithmParams

# Values at or below this are treated as converged-to-noise and excluded
# from rate fits (100x double-precision epsilon).
FIT_FLOOR = 100.0 * np.finfo(float).eps

# Entries of p per block of `convergence_error`'s row-wise norm.
_ERROR_BLOCK_ENTRIES = 1 << 16

# Accumulated-tolerance budgets for runs up to ~1e5 steps.
BUDGETS: dict[str, float] = {
    "conservation": 1e-9,
    "mass": 1e-12,
    "stochasticity": 1e-12,
}


@dataclass
class RunTrace:
    """Time-indexed record of a run: iterates, diagnostics, metadata.

    Arrays are step-major: row k holds the state at step k, k = 0..K.
    `run` records each series as one C-contiguous (K + 1, n) view of a
    single series-major block, so hashing or saving one copies nothing.
    ``consensus`` holds the per-agent multiplier estimates (lambda for the
    undirected algorithms, the push-sum ratio x for the directed ones).
    ``residuals`` maps diagnostic names to per-step series; only the
    quantities an algorithm actually carries are present. ``final`` is
    the state after the last step, of the algorithm's own state type and
    sharing no memory with the series, so ``run(..., init=trace.final)``
    resumes the run; None for `centralized_pd_run`.
    """

    algorithm: str
    p: np.ndarray
    consensus: np.ndarray | None = None
    y: np.ndarray | None = None
    v: np.ndarray | None = None
    residuals: dict[str, np.ndarray] = field(default_factory=dict)
    params: AlgorithmParams | None = None
    seed: int | None = None
    schedule_digest: str | None = None
    warnings: list[str] = field(default_factory=list)
    final: object | None = None

    @property
    def steps(self) -> int:
        return self.p.shape[0] - 1


@dataclass(frozen=True)
class RateEstimate:
    """Least-squares geometric rate fitted on log(error) over a window."""

    rate: float
    window: tuple[int, int]
    r_squared: float
    residuals: np.ndarray
    n_points: int

    @property
    def diverging(self) -> bool:
        return self.rate >= 1.0


@dataclass(frozen=True)
class InvariantCheck:
    """One invariant over one run: observed extremum vs its budget.

    For most checks ``value`` is the max residual and passing means
    value <= budget; for ``v_floor`` value and budget are log10 of the min
    push-sum weight and of its floor (the floor underflows in linear
    scale), value - budget is the margin in decades, and passing means
    value >= budget. A budget of None marks a purely informational entry.
    """

    name: str
    value: float
    worst_step: int
    budget: float | None
    passed: bool


@dataclass(frozen=True)
class InvariantReport:
    checks: tuple[InvariantCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> InvariantCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(c.name == name for c in self.checks)


def convergence_error(trace: RunTrace, solution) -> np.ndarray:
    """Euclidean distance ||p[k] - p*||_2 for every recorded step.

    The norm is taken over blocks of about `_ERROR_BLOCK_ENTRIES` entries,
    so the temporaries stay O(block) however long the trace. Each row is
    reduced on its own, so the result is bit-identical to one full-array
    ``np.linalg.norm(p - p_star, axis=1)``.
    """
    p_star = np.asarray(solution.p_star, dtype=float)
    p = trace.p
    if p.shape[1] != p_star.shape[0]:
        raise DimensionMismatchError("solution.p_star", p.shape[1], p_star.shape[0])
    err = np.empty(p.shape[0])
    rows = max(1, _ERROR_BLOCK_ENTRIES // max(p.shape[1], 1))
    for lo in range(0, p.shape[0], rows):
        err[lo : lo + rows] = np.linalg.norm(p[lo : lo + rows] - p_star, axis=1)
    return err


def weighted_norm(series, a: float, K: int) -> float:
    """Exponentially weighted sup norm: max over 0<=k<=K of a^(-k) * series[k].

    Boundedness of this quantity as K grows certifies O(a^k) decay of the
    series. Evaluated in log space so large K does not overflow.
    """
    if not (0.0 < a < 1.0):
        raise ValueError(f"a must lie in (0, 1), got {a}")
    series = np.asarray(series, dtype=float)
    if K < 0 or K >= series.shape[0]:
        raise ValueError(f"K={K} outside series of length {series.shape[0]}")
    vals = series[: K + 1]
    if np.any(vals < 0):
        raise ValueError("series values must be nonnegative")
    with np.errstate(divide="ignore"):
        logs = np.log(vals) - np.arange(K + 1) * np.log(a)
    return float(np.exp(np.max(logs)))


def fit_rate(series, window: tuple[int, int] | None = None) -> RateEstimate:
    """Fit error[k] ~ C * a^k by least squares on (k, log error).

    The default window is the last half of the series (the transient is
    skipped). Non-positive values and values at or below `FIT_FLOOR` are
    excluded; if fewer than two usable points remain, a `FitWindowError`
    suggests a better window start.
    """
    series = np.asarray(series, dtype=float)
    K = series.shape[0] - 1
    if window is None:
        window = (series.shape[0] // 2, K)
    k0, k1 = window
    if not (0 <= k0 <= k1 <= K):
        raise ValueError(f"window {window} outside series of length {K + 1}")
    usable = series > FIT_FLOOR
    ks = np.arange(k0, k1 + 1)
    mask = usable[k0 : k1 + 1]
    if mask.sum() < 2:
        valid = np.nonzero(usable)[0]
        suggestion = int(valid[0]) if valid.size else None
        raise FitWindowError(
            f"window [{k0}, {k1}] has {int(mask.sum())} usable points", suggestion
        )
    ks = ks[mask]
    logs = np.log(series[ks])
    slope, intercept = np.polyfit(ks, logs, 1)
    fitted = slope * ks + intercept
    resid = logs - fitted
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateEstimate(
        rate=float(np.exp(slope)),
        window=(int(k0), int(k1)),
        r_squared=r2,
        residuals=resid,
        n_points=int(ks.shape[0]),
    )


def consensus_deviation(trace: RunTrace) -> np.ndarray:
    """Norm series of e[k]: multiplier estimates minus their network mean.

    For push-sum algorithms the mean is taken over lambda = x * v, matching
    the deviation the feedback decomposition tracks.
    """
    if trace.consensus is None:
        raise ValueError("trace has no consensus estimates")
    est = trace.consensus
    lam = est if trace.v is None else est * trace.v
    e = est - lam.mean(axis=1, keepdims=True)
    return np.linalg.norm(e, axis=1)


def deviation_from_optimum(trace: RunTrace, solution) -> np.ndarray:
    """Norm series of z[k] = (p[k] - p*, lambda_hat[k] - lambda*).

    lambda_hat is the nhat-scaled multiplier sum, which converges to the
    oracle's lambda* in the scaled convention.
    """
    if trace.consensus is None or trace.params is None:
        raise ValueError("trace lacks consensus estimates or params")
    lam = trace.consensus if trace.v is None else trace.consensus * trace.v
    lam_hat = lam.sum(axis=1) / trace.params.nhat
    dp = trace.p - np.asarray(solution.p_star)[None, :]
    dlam = lam_hat - solution.lambda_star
    return np.sqrt(np.linalg.norm(dp, axis=1) ** 2 + dlam**2)


def _max_check(name: str, series: np.ndarray, budget: float | None) -> InvariantCheck:
    worst = int(np.argmax(series))
    value = float(series[worst])
    passed = True if budget is None else value <= budget
    return InvariantCheck(name, value, worst, budget, passed)


def invariant_report(trace: RunTrace, schedule=None) -> InvariantReport:
    """Summarize per-step residuals against the central budgets.

    The maxima of the conservation, mass, stochasticity and consensus
    spread series are checked (the spread without a budget). The smallest
    push-sum weight is taken over the steps k >= 1 only, because virtual
    nodes start at v = 0. When the producing `schedule` is supplied and
    the trace came from a running-sum (robust/virtual) run, that weight is
    checked as ``v_floor`` against (1-gamma)/n * tau^(N(2B-1)) with B
    measured from the realized schedule, both as log10. Otherwise it is an
    informational ``min_v`` entry. Without a step k >= 1 either one is
    informational with value NaN.
    """
    checks: list[InvariantCheck] = []
    res = trace.residuals
    for key in ("conservation", "mass", "stochasticity"):
        if key in res:
            checks.append(_max_check(key, res[key], BUDGETS[key]))
    if "consensus_spread" in res:
        checks.append(_max_check("consensus_spread", res["consensus_spread"], None))
    if (
        "min_v" in res
        and schedule is not None
        and trace.params is not None
        and trace.algorithm in ("robust", "virtual")
    ):
        checks.append(_v_floor_check(trace, schedule))
    elif "min_v" in res:
        checks.append(_lowest_weight(trace))
    return InvariantReport(tuple(checks))


def _lowest_weight(trace: RunTrace) -> InvariantCheck:
    """min_i v_i[k] over the steps k >= 1 and its step; NaN at step 0 when there is none."""
    series = trace.residuals["min_v"][1:]
    if series.size == 0:
        return InvariantCheck("min_v", math.nan, 0, None, True)
    worst = int(np.argmin(series))
    return InvariantCheck("min_v", float(series[worst]), worst + 1, None, True)


def _v_floor_check(trace: RunTrace, schedule) -> InvariantCheck:
    from .network import minimal_connectivity_window  # local import, no cycle at module load

    low = _lowest_weight(trace)
    if low.worst_step == 0:  # no step k >= 1 to bound
        return replace(low, name="v_floor")
    value = math.log10(low.value) if low.value > 0.0 else -math.inf
    B = minimal_connectivity_window(schedule, trace.steps)
    if B is None:
        return InvariantCheck("v_floor", value, low.worst_step, None, True)
    n = schedule.nominal.n
    N = n + schedule.nominal.m
    gamma = trace.params.gamma
    tau = min(gamma, 1.0 - gamma) / n
    budget = math.log10((1.0 - gamma) / n) + N * (2 * B - 1) * math.log10(tau)
    return InvariantCheck("v_floor", value, low.worst_step, budget, value >= budget)


def run_warnings(params: AlgorithmParams, n: int, imbalance: np.ndarray) -> list[str]:
    """The warnings every run carries: the parameters' range checks, then the no-progress monitor."""
    warnings = params.configuration_warnings(n)
    if flag_no_progress(imbalance):
        warnings.append("no-progress: imbalance did not decay (stepsize too large?)")
    return warnings


def flag_no_progress(imbalance: np.ndarray) -> bool:
    """Heuristic non-convergence monitor on the |1'(p - load)| series.

    Flags runs whose tail shows no decay relative to the head (covers both
    sustained growth and limit cycling). Runs that start at balance are
    never flagged.
    """
    m = imbalance.shape[0]
    if m < 8:
        return False
    quarter = m // 4
    head = float(np.mean(imbalance[:quarter]))
    tail = float(np.mean(imbalance[-quarter:]))
    return head > 0.0 and tail > 0.5 * head and tail > 1e-12
