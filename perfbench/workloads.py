"""The three benchmark workloads: inputs, one timed batch, and its checks.

Every workload is a closed loop of identical batches; a batch is the unit
that `wall_s` times, from its first call into dercoord until its outputs are
written and checked. All instance, graph and schedule seeds derive from the
workload seed, so one seed gives one set of inputs.

* ``paper39`` -- the three shipped ``configs/benchmark39_*.cfg`` through
  ``dercoord.cli.main(["run", cfg, "--seeds", s, ...])`` in-process, one
  call per seed, PAPER39_SEEDS seeds each: the paper's own experiment,
  dominated by per-step Python overhead, schedule sampling and recording.
* ``scale3000`` -- one generated n = 3000 ring-plus-chords instance running
  pd1, directed and robust through library ``run()``, checked against the
  oracle: dense O(n^2) mixing dominates the pd1 and directed steps.
* ``certify39`` -- ``cases/case39_directed.txt`` at the robust config's
  parameters; per schedule seed directed, robust and virtual on one
  schedule, robust == virtual, invariant reports with the weight floor and
  the measured connectivity window: connectivity analysis dominates.

Each operation (one seed of one config, one algorithm run, one certified
schedule seed) is checked; a raise, a missing artifact or a failed check
marks it failed. Invariant-budget verdicts are collected separately and do
not fail an operation.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from dercoord import algorithms, cli, experiment, metrics, network, oracle

WORKLOADS = ("paper39", "scale3000", "certify39")

PAPER39_CONFIGS = ("pd1", "pd2", "robust")
PAPER39_SEEDS = 3
# Final-error accuracy every pd1 and robust seed must reach on paper39.
PAPER39_ACCURACY = 1e-6

SCALE_N = 3000
SCALE_EXTRA_EDGES = 1500
# pd1 and directed mix through dense n x n matrices (tens of ms per step at
# n = 3000): pd1's conservation residual crosses its budget from K ~ 10 on.
# robust runs the horizon at which its mass identity crosses its budget.
SCALE_HORIZONS = {"pd1": 20, "directed": 10, "robust": 2000}

CERTIFY_SEEDS = 2

# The oracle's default balance tolerance (also the config default).
ORACLE_TOL = 1e-12


def derive_seeds(workload: str, seed: int, count: int) -> list[int]:
    """`count` distinct positive seeds determined by (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    seeds: list[int] = []
    while len(seeds) < count:
        s = rng.randrange(1, 2**31)
        if s not in seeds:
            seeds.append(s)
    return seeds


def scale_seeds(seed: int) -> list[int]:
    """Instance, graph and schedule seeds of scale3000."""
    return derive_seeds("scale3000", seed, 3)


def config_path(root: Path, name: str) -> Path:
    return root / "configs" / f"benchmark39_{name}.cfg"


# -- inputs ------------------------------------------------------------------


def build_inputs(root: Path, workload: str, seed: int):
    """Build a workload's inputs: what `setup_s` times after the import."""
    if workload == "paper39":
        seeds = ",".join(map(str, derive_seeds(workload, seed, PAPER39_SEEDS)))
        return {
            name: experiment.load_config(config_path(root, name), seeds_override=seeds)
            for name in PAPER39_CONFIGS
        }
    if workload == "certify39":
        return experiment.load_config(config_path(root, "robust"))
    if workload == "scale3000":
        inst_seed, graph_seed, _ = scale_seeds(seed)
        inst = experiment.generate_instance(experiment.InstanceSpec(n=SCALE_N), inst_seed)
        graphs = {
            directed: experiment.generate_graph(
                experiment.GraphSpec(n=SCALE_N, extra_edges=SCALE_EXTRA_EDGES, directed=directed),
                graph_seed,
            )
            for directed in (False, True)
        }
        return inst, graphs
    raise ValueError(f"unknown workload {workload!r}")


def scale_case_paths(workdir: Path) -> dict[bool, Path]:
    return {directed: workdir / f"scale3000_{'directed' if directed else 'undirected'}.txt"
            for directed in (False, True)}


def write_scale_cases(inputs, workdir: Path) -> None:
    """Store generated scale3000 inputs so the measuring process can load them.

    The generator's O(n^2) candidate list would otherwise set the measuring
    process's peak memory. Case files round-trip losslessly.
    """
    inst, graphs = inputs
    for directed, path in scale_case_paths(workdir).items():
        experiment.write_case(path, inst, graphs[directed])


# -- results -----------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


@dataclass(frozen=True)
class BudgetCheck:
    """One invariant of one operation: observed value against its budget."""

    label: str
    name: str
    value: float
    budget: float
    passed: bool

    @property
    def vacuous(self) -> bool:
        return self.budget == 0.0


# Calibration kernel: interpreter work, small NumPy calls and one pass over
# 4 MiB, the mix the workloads are made of. Neighbours on a shared machine
# slow every process on it by up to 2x for stretches of a minute or more,
# longer than a run; a segment's time divided by the kernel's time just
# before it moves much less with them.
_CAL_IDX = np.arange(64) % 13
_CAL_W = np.linspace(0.0, 1.0, 64)
_CAL_BIG = np.ones(1 << 19)
# The kernel's time on an idle core of the 2-core Xeon VM the benchmark was
# defined on: scaled times are seconds at that speed.
REFERENCE_S = 0.6e-3


def calibration_s() -> float:
    """Fastest of five runs of the calibration kernel."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(100):
            b = np.bincount(_CAL_IDX, weights=_CAL_W, minlength=13)
            acc += float(np.where(b > 2.0, b, 0.0).max()) + i
        acc += float(_CAL_BIG.sum())
        best = min(best, time.perf_counter() - t0)
    return best


class Segments:
    """Summed wall time of one batch's segments, raw and scaled.

    Segments are kept under about a second where the work allows. Each is
    preceded by the calibration kernel (not timed as part of it); its scaled
    time is its wall time times REFERENCE_S over that kernel time. The
    kernel after a segment is not used: after BLAS-heavy work it runs slow
    while the BLAS worker threads still spin.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.scaled_s = 0.0

    @contextlib.contextmanager
    def __call__(self):
        kernel = calibration_s()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self.raw_s += elapsed
            self.scaled_s += elapsed * REFERENCE_S / kernel


@dataclass
class BatchResult:
    """Checks and timed segments of one batch, and the outputs the trace
    digest covers."""

    segment: Segments = field(default_factory=Segments)
    tally: Tally = field(default_factory=Tally)
    budgets: list[BudgetCheck] = field(default_factory=list)
    traces: list = field(default_factory=list)
    csv_dirs: list[Path] = field(default_factory=list)

    def digest(self) -> tuple[str, int]:
        """sha256 over trace arrays and CSV artifacts, and the CSV byte count."""
        hasher = hashlib.sha256()
        for trace in self.traces:
            hash_trace(hasher, trace)
        csv_bytes = 0
        for out in self.csv_dirs:
            for path in sorted(out.glob("*.csv")):
                data = path.read_bytes()
                csv_bytes += len(data)
                hasher.update(f"{out.name}/{path.name}".encode())
                hasher.update(data)
        return hasher.hexdigest(), csv_bytes


def _report_budgets(result: BatchResult, label: str, report) -> None:
    for check in report.checks:
        if check.budget is not None:
            result.budgets.append(
                BudgetCheck(label, check.name, check.value, check.budget, check.passed))


def hash_trace(hasher, trace) -> None:
    """Feed a trace's arrays and residual series into `hasher`."""
    for name in ("p", "consensus", "y", "v"):
        arr = getattr(trace, name)
        if arr is not None:
            hasher.update(name.encode())
            hasher.update(_raw(arr))
    for key in sorted(trace.residuals):
        hasher.update(key.encode())
        hasher.update(_raw(trace.residuals[key]))


def _raw(arr: np.ndarray) -> np.ndarray:
    """The array's bytes as a flat view (no copy for contiguous arrays)."""
    return np.ascontiguousarray(arr).reshape(-1).view(np.uint8)


# -- paper39 -----------------------------------------------------------------


def check_summary(algorithm: str, seeds: list[int], out: Path) -> dict[int, list[str]]:
    """Per-seed problems in one config's CLI artifacts."""
    problems: dict[int, list[str]] = {s: [] for s in seeds}
    summary = out / "summary.csv"
    if not summary.is_file():
        return {s: ["summary.csv missing"] for s in seeds}
    with open(summary, newline="", encoding="utf-8") as fh:
        rows = {int(r["seed"]): r for r in csv.DictReader(fh)}
    for s in seeds:
        row = rows.get(s)
        if row is None:
            problems[s].append("no summary row")
            continue
        if not (out / f"trace_{s}.csv").is_file():
            problems[s].append(f"trace_{s}.csv missing")
        if row["status"] != "ok":
            problems[s].append(f"status {row['status']}")
        final = float(row["final_error"])
        if algorithm in ("pd1", "robust") and not final <= PAPER39_ACCURACY:
            problems[s].append(f"final_error {final:.3g} > {PAPER39_ACCURACY:g}")
        rate = float(row["fitted_rate"])
        if algorithm == "pd2" and not rate < 1.0:
            problems[s].append(f"fitted rate {rate:.6g} not below 1")
    return problems


def summary_budgets(result: BatchResult, label: str, out: Path) -> None:
    """Budget verdicts from the CLI summary (its per-seed residual maxima)."""
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            for name, column in (("conservation", "max_conservation_residual"),
                                 ("mass", "max_mass_residual")):
                value = float(row[column])
                budget = metrics.BUDGETS[name]
                if not np.isnan(value):
                    result.budgets.append(BudgetCheck(
                        f"{label}/seed {row['seed']}", name, value, budget, value <= budget))


def paper39_batch(root: Path, configs, workdir: Path) -> BatchResult:
    """One CLI call per (config, seed), each checked against its artifacts."""
    result = BatchResult()
    for name, config in configs.items():
        for s in config.seeds:
            label = f"{name}/seed {s}"
            out = workdir / name / str(s)
            if out.exists():
                shutil.rmtree(out)
            argv = ["run", str(config_path(root, name)), "--seeds", str(s), "--out", str(out)]
            try:
                with result.segment():
                    with contextlib.redirect_stdout(io.StringIO()):  # per-seed progress lines
                        code = cli.main(argv)
                    problems = check_summary(config.algorithm, [s], out)[s]
            except Exception as exc:  # counted as a failed operation, the run goes on
                result.tally.record(label, [f"raised {exc!r}"])
                continue
            result.tally.record(label, problems + ([] if code == 0 else [f"cli exit code {code}"]))
            if (out / "summary.csv").is_file():
                summary_budgets(result, name, out)
            result.csv_dirs.append(out)
    return result


# -- scale3000 ---------------------------------------------------------------


def scale_params(root: Path, n: int):
    """pd1 at the pd1 config's parameters, the directed pair at the robust
    config's; pd1's nhat is the network size, as in its config."""
    pd1 = experiment.load_config(config_path(root, "pd1"))
    rob = experiment.load_config(config_path(root, "robust"))
    return {
        "pd1": (replace(pd1.params, nhat=float(n), horizon=SCALE_HORIZONS["pd1"]), pd1.q),
        "directed": (replace(rob.params, horizon=SCALE_HORIZONS["directed"]), rob.q),
        "robust": (replace(rob.params, horizon=SCALE_HORIZONS["robust"]), rob.q),
    }


def oracle_certificate(inst, solution, xi: float, nhat: float, tol: float) -> list[str]:
    """Problems with the oracle's answer, judged by its documented contract.

    The bisection stops when the balance gap is within `tol` or the bracket
    reaches machine resolution. The exact multiplier must therefore lie
    within a few resolution widths of lambda*: the (monotone) balance gap
    must change sign, up to `tol`, across that interval.
    """
    problems = []
    if not np.all(np.isfinite(solution.p_star)):
        return ["non-finite p*"]
    lo, hi = solution.bracket
    width = 8.0 * np.finfo(float).eps * max(1.0, abs(lo), abs(hi))
    scale = xi * nhat / inst.n
    total = inst.total_load
    below = float(oracle.clamped_best_response(inst, scale, solution.lambda_star - width).sum()) - total
    above = float(oracle.clamped_best_response(inst, scale, solution.lambda_star + width).sum()) - total
    if not (below <= tol and above >= -tol):
        problems.append(f"balance gap does not change sign near lambda* ({below:.3g}, {above:.3g})")
    return problems


def scale3000_batch(inst, graphs, params, seed: int) -> BatchResult:
    result = BatchResult()
    schedule_seed = scale_seeds(seed)[2]
    solutions = {}
    for alg in ("pd1", "directed", "robust"):
        p, q = params[alg]
        label = f"{alg} n={inst.n} K={p.horizon}"
        problems: list[str] = []
        try:
            key = (p.xi, p.nhat)
            if key not in solutions:
                with result.segment():
                    sol = oracle.solve_bisection(inst, xi=p.xi, nhat=p.nhat, tol=ORACLE_TOL)
                    problems += oracle_certificate(inst, sol, p.xi, p.nhat, ORACLE_TOL)
                solutions[key] = sol
                result.budgets.append(BudgetCheck(
                    f"oracle xi={p.xi:g} nhat={p.nhat:g}", "kkt_residual", sol.kkt_residual,
                    ORACLE_TOL, sol.kkt_residual <= ORACLE_TOL))
            sol = solutions[key]
            schedule = network.GraphSchedule(graphs[alg != "pd1"], q, schedule_seed, p.horizon)
            with result.segment():
                trace = algorithms.run(alg, inst, schedule, p)
            with result.segment():
                err = metrics.convergence_error(trace, sol)
                for name in ("p", "consensus", "y", "v"):
                    arr = getattr(trace, name)
                    if arr is not None and not np.all(np.isfinite(arr)):
                        problems.append(f"non-finite {name}")
                if not np.all(np.isfinite(err)):
                    problems.append("non-finite convergence error")
                if np.any(trace.p < inst.p_lo) or np.any(trace.p > inst.p_hi):
                    problems.append("dispatch left its box")
                report = metrics.invariant_report(trace)
            _report_budgets(result, label, report)
            result.traces.append(trace)
        except Exception as exc:  # counted as a failed operation, the run goes on
            problems.append(f"raised {exc!r}")
        result.tally.record(label, problems)
    return result


# -- certify39 ---------------------------------------------------------------


def equivalence_problems(robust, virtual, budget: float) -> list[str]:
    """Robust and virtual real-node coordinates (p, y, v, lam = x*v) must agree."""
    pairs = {
        "p": (robust.p, virtual.p),
        "y": (robust.y, virtual.y),
        "v": (robust.v, virtual.v),
        "lam": (robust.consensus * robust.v, virtual.consensus * virtual.v),
    }
    problems = []
    for name, (a, b) in pairs.items():
        if a.shape != b.shape:
            problems.append(f"{name} shapes differ")
            continue
        gap = float(np.max(np.abs(a - b))) if a.size else 0.0
        if not gap <= budget:
            problems.append(f"robust/virtual {name} gap {gap:.3g} > {budget:.3g}")
    return problems


def certify39_batch(config, seed: int) -> BatchResult:
    result = BatchResult()
    p = config.params
    for s in derive_seeds("certify39", seed, CERTIFY_SEEDS):
        label = f"seed {s}"
        problems: list[str] = []
        try:
            schedule = network.GraphSchedule(config.graph, config.q, s, p.horizon)
            traces = {}
            for alg in ("directed", "robust", "virtual"):
                with result.segment():
                    traces[alg] = algorithms.run(alg, config.instance, schedule, p)
            with result.segment():
                problems += equivalence_problems(traces["robust"], traces["virtual"],
                                                 metrics.BUDGETS["conservation"])
            for alg, trace in traces.items():
                with result.segment():
                    report = metrics.invariant_report(trace, schedule)
                _report_budgets(result, f"{alg}/{label}", report)
                result.traces.append(trace)
            with result.segment():
                B = network.minimal_connectivity_window(schedule, p.horizon)
                if B is None:
                    problems.append("no connectivity window")
                elif not network.check_B_connectivity(schedule, B).all():
                    problems.append(f"a window of the measured B={B} is not connected")
        except Exception as exc:  # counted as a failed operation, the run goes on
            problems.append(f"raised {exc!r}")
        result.tally.record(label, problems)
    return result
