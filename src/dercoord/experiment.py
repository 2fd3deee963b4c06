"""Config-driven experiments: case files, random instances, CSV artifacts.

A run is described by one INI-style config (sections [instance], [graph],
[algorithm], [run], [output]); every algorithm parameter must appear
explicitly, there are no hidden defaults for them. Each seed produces
``trace_<seed>.csv`` and the batch produces ``summary.csv``; floats are
rendered with 17 significant digits so values round-trip losslessly and
repeated runs are byte-identical. A seed is finished in one pass and
leaves only its `SeedOutcome`, whose residual extrema are its
`invariant_report`: the summary computes none of them itself.

Case file format (text)::

    n
    a_i b_i c_i p_lo p_hi load       (one line per agent)
    n m mode                         (graph section, mode undirected|directed)
    i j                              (one line per edge, 0-based)
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algorithms import check_pairing, run
from .errors import (
    CaseParseError,
    ConfigError,
    DercoordError,
    GeneratorSpecError,
    InvalidCostError,
    InvalidInstanceError,
)
from .metrics import InvariantReport, RunTrace, convergence_error, fit_rate, invariant_report
from .network import (
    _MAX_SEED,
    GraphSchedule,
    NominalGraph,
    format_graph,
    load_graph,
    numbered_lines,
    parse_graph_lines,
)
from .oracle import ORACLE_TOL, solve_bisection
from .problem import AlgorithmParams, ConstantStep, DiminishingStep, ProblemInstance, QuadraticCost, positive

# Stream tags keep generator draws disjoint from schedule draws (which use
# key = [seed, step]).
_TAG_INSTANCE = (1 << 63) + 1
_TAG_GRAPH = (1 << 63) + 2

_REJECTION_LIMIT = 1000

_RANGES = ("a_range", "b_range", "c_range", "load_range", "lo_range", "hi_range")

TRACE_COLUMNS = (
    "k",
    "err_p",
    "consensus_spread",
    "conservation_residual",
    "mass_residual",
    "min_v",
)
SUMMARY_COLUMNS = (
    "seed",
    "fitted_rate",
    "fit_r_squared",
    "final_error",
    "max_conservation_residual",
    "max_mass_residual",
    "max_consensus_spread",
    "min_v",
    "status",
    "warnings",
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _stream(seed: int, tag: int) -> np.random.Generator:
    key = np.array([seed, tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class InstanceSpec:
    """Randomization recipe for dispatch instances.

    Quadratic coefficients, loads, and capacity bounds are drawn uniformly
    from the given (low, high) ranges, which must be finite with low <= high
    (and a positive); infeasible draws are rejected and redrawn.
    """

    n: int
    a_range: tuple[float, float] = (0.5, 2.0)
    b_range: tuple[float, float] = (0.0, 0.0)
    c_range: tuple[float, float] = (0.0, 0.0)
    load_range: tuple[float, float] = (0.2, 1.8)
    lo_range: tuple[float, float] = (0.0, 0.0)
    hi_range: tuple[float, float] = (1.0, 3.0)

    def __post_init__(self):
        if self.n < 1:
            raise GeneratorSpecError("instance spec needs n >= 1")
        for name in _RANGES:  # each comparison is False for NaN
            low, high = getattr(self, name)
            if not -np.inf < low <= high < np.inf:
                raise GeneratorSpecError(f"{name}=({low}, {high}) must be finite with low <= high")
        if self.a_range[0] <= 0:
            raise GeneratorSpecError("a_range must be strictly positive")


def _generate_instance(spec: InstanceSpec, seed: int) -> tuple[ProblemInstance, int]:
    gen = _stream(seed, _TAG_INSTANCE)

    def draw(rng: tuple[float, float], size: int) -> np.ndarray:
        lo, hi = rng
        return np.full(size, lo) if lo == hi else gen.uniform(lo, hi, size)

    for attempt in range(1, _REJECTION_LIMIT + 1):
        a = draw(spec.a_range, spec.n)
        b = draw(spec.b_range, spec.n)
        c = draw(spec.c_range, spec.n)
        loads = draw(spec.load_range, spec.n)
        lo = draw(spec.lo_range, spec.n)
        hi = draw(spec.hi_range, spec.n)
        if np.any(lo > hi):
            continue
        total = loads.sum()
        if not (lo.sum() <= total <= hi.sum()):
            continue
        inst = ProblemInstance(loads, lo, hi, QuadraticCost(a, b, c))
        return inst, attempt
    raise GeneratorSpecError(
        f"{_REJECTION_LIMIT} consecutive infeasible draws; widen the spec ranges"
    )


def generate_instance(spec: InstanceSpec, seed: int) -> ProblemInstance:
    """Deterministic feasible instance for (spec, seed)."""
    inst, _ = _generate_instance(spec, seed)
    return inst


@dataclass(frozen=True)
class GraphSpec:
    """Ring-plus-chords topology recipe.

    A ring over all nodes guarantees (strong) connectivity; `extra_edges`
    chords are added between non-adjacent pairs. Directed chords get a
    random orientation and occasionally both arcs.
    """

    n: int
    extra_edges: int = 0
    directed: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise GeneratorSpecError("graph spec needs n >= 1")


def generate_graph(spec: GraphSpec, seed: int) -> NominalGraph:
    gen = _stream(seed, _TAG_GRAPH)
    n = spec.n
    if n == 1:
        return NominalGraph(1, [], spec.directed)
    if spec.directed:
        edges = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1), (1, 0)]
    else:
        edges = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    # Chord candidates are the non-ring pairs i < j in lexicographic order:
    # row 0 holds j = 2..n-2 and row i >= 1 holds j = i+2..n-1. A pick is
    # mapped to its pair through the row starts, without listing all pairs.
    pairs = max(n - 3, 0) * n // 2
    count = min(spec.extra_edges, pairs)
    if count:
        picks = np.sort(gen.choice(pairs, size=count, replace=False))
        sizes = n - 2 - np.arange(n - 2)
        sizes[0] -= 1
        starts = np.cumsum(sizes) - sizes
        rows = np.searchsorted(starts, picks, side="right") - 1
        for i, j in zip(rows.tolist(), (picks - starts[rows] + rows + 2).tolist()):
            if not spec.directed:
                edges.append((i, j))
                continue
            r = gen.random()
            if r < 0.4:
                edges.append((i, j))
            elif r < 0.8:
                edges.append((j, i))
            else:
                edges.append((i, j))
                edges.append((j, i))
    return NominalGraph(n, edges, spec.directed)


def format_case(inst: ProblemInstance, graph: NominalGraph) -> str:
    if not isinstance(inst.cost, QuadraticCost):
        raise InvalidInstanceError("case files store quadratic costs only")
    lines = [str(inst.n)]
    for i in range(inst.n):
        lines.append(
            " ".join(
                _fmt(v)
                for v in (
                    inst.cost.a[i],
                    inst.cost.b[i],
                    inst.cost.c[i],
                    inst.p_lo[i],
                    inst.p_hi[i],
                    inst.loads[i],
                )
            )
        )
    return "\n".join(lines) + "\n" + format_graph(graph)


def write_case(path, inst: ProblemInstance, graph: NominalGraph) -> None:
    Path(path).write_text(format_case(inst, graph), encoding="utf-8")


def parse_case(text: str) -> tuple[ProblemInstance, NominalGraph]:
    lines = numbered_lines(text)
    if not lines:
        raise CaseParseError(0, "empty case file")
    lineno, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise CaseParseError(lineno, f"expected agent count, got {head!r}") from None
    if n < 1:
        raise CaseParseError(lineno, "agent count must be >= 1")
    if len(lines) < 1 + n:
        raise CaseParseError(lines[-1][0], f"expected {n} agent lines, found {len(lines) - 1}")
    cols = np.empty((n, 6))
    for row in range(n):
        lineno, content = lines[1 + row]
        parts = content.split()
        if len(parts) != 6:
            raise CaseParseError(lineno, f"expected 'a b c p_lo p_hi load', got {content!r}")
        try:
            cols[row] = [float(p) for p in parts]
        except ValueError:
            raise CaseParseError(lineno, f"non-numeric field in {content!r}") from None
        if cols[row, 3] > cols[row, 4]:
            raise InvalidInstanceError(
                f"line {lineno}: p_lo={cols[row, 3]:.6g} > p_hi={cols[row, 4]:.6g}"
            )
        if cols[row, 0] <= 0:
            raise InvalidInstanceError(f"line {lineno}: quadratic coefficient a={cols[row, 0]:.6g} must be > 0")
    graph = parse_graph_lines(lines[1 + n :])
    if graph.n != n:
        raise CaseParseError(lines[1 + n][0], f"graph has {graph.n} nodes but case has {n} agents")
    inst = ProblemInstance(
        loads=cols[:, 5],
        p_lo=cols[:, 3],
        p_hi=cols[:, 4],
        cost=QuadraticCost(cols[:, 0], cols[:, 1], cols[:, 2]),
    )
    return inst, graph


def load_case(path) -> tuple[ProblemInstance, NominalGraph]:
    return parse_case(Path(path).read_text(encoding="utf-8"))


@dataclass
class ExperimentConfig:
    """Fully resolved experiment: instance, graph, algorithm, seeds, output."""

    instance: ProblemInstance
    graph: NominalGraph
    algorithm: str
    params: AlgorithmParams
    q: float
    seeds: tuple[int, ...]
    out_dir: Path | None
    oracle_tol: float = ORACLE_TOL


def _range(text: str) -> tuple[float, float]:
    low, high = map(float, text.split())  # ValueError unless two numbers
    return low, high


_KINDS = {int: "an integer", float: "a number", _range: "two numbers 'low high'"}


def _get(cp: configparser.ConfigParser, section: str, key: str, kind=str, default=None):
    """[section] key parsed by `kind` (str, int, float or `_range`), or `default` if it is absent.

    A key without a default is required. Each error names the key, and a
    value `kind` cannot parse is quoted in it. Ranges and positivity are
    checked by what the value is given to.
    """
    if not cp.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing required key '{key}' in [{section}]")
        return default
    text = cp[section][key]
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be {_KINDS[kind]}, got {text!r}") from None


def _path(cp: configparser.ConfigParser, config: Path, section: str, key: str, exists: bool = True) -> Path:
    """[section] key as a path, a relative one taken from the config file's directory."""
    path = config.parent / _get(cp, section, key)
    if exists and not path.is_file():
        raise ConfigError(f"[{section}] {key}: file not found: {path}")
    return path


def _check_seed(seed: int, key: str) -> None:
    if not 0 <= seed < _MAX_SEED:
        raise ConfigError(f"{key} must lie in [0, 2^64), got {seed}")


def _instance_and_graph(cp: configparser.ConfigParser, path: Path) -> tuple[ProblemInstance, NominalGraph]:
    if cp.has_option("instance", "case"):
        return load_case(_path(cp, path, "instance", "case"))
    inst_seed = _get(cp, "instance", "seed", int)
    _check_seed(inst_seed, "[instance] seed")
    ranges = {key: _get(cp, "instance", key, _range) for key in _RANGES if cp.has_option("instance", key)}
    inst = generate_instance(InstanceSpec(n=_get(cp, "instance", "n", int), **ranges), inst_seed)
    if "graph" not in cp:
        raise ConfigError("generated instances need a [graph] section")
    if cp.has_option("graph", "file"):
        return inst, load_graph(_path(cp, path, "graph", "file"))
    mode = _get(cp, "graph", "mode").lower()
    if mode not in ("undirected", "directed"):
        raise ConfigError(f"graph mode must be undirected|directed, got {mode!r}")
    graph_seed = _get(cp, "graph", "seed", int, inst_seed)
    _check_seed(graph_seed, "[graph] seed")
    spec = GraphSpec(inst.n, _get(cp, "graph", "extra_edges", int, GraphSpec.extra_edges), mode == "directed")
    return inst, generate_graph(spec, graph_seed)


def _params(cp: configparser.ConfigParser, algorithm: str) -> AlgorithmParams:
    alg = cp["algorithm"]
    if "s" in alg:
        if "step_a" in alg or "step_b" in alg:
            raise ConfigError("give either s or step_a/step_b, not both")
        step = ConstantStep(_get(cp, "algorithm", "s", float))
    elif "step_a" in alg and "step_b" in alg:
        step = DiminishingStep(_get(cp, "algorithm", "step_a", float), _get(cp, "algorithm", "step_b", float))
    else:
        raise ConfigError("missing stepsize: give s or step_a and step_b in [algorithm]")
    gamma = _get(cp, "algorithm", "gamma", float, None if algorithm in ("robust", "virtual") else AlgorithmParams.gamma)
    return AlgorithmParams(
        step, _get(cp, "algorithm", "xi", float), _get(cp, "algorithm", "nhat", float), gamma, _get(cp, "run", "K", int)
    )


def load_config(path, out_override=None, seeds_override=None) -> ExperimentConfig:
    """Parse and fully resolve a config file; all validation happens here.

    Every key is read through one typed reader, so a missing or
    unparsable value is a `ConfigError` that names its key. Every invalid
    input raises `ConfigError`: a missing file, an instance, cost or
    graph the library rejects (an unknown algorithm id, or one whose
    directedness or size does not match the graph, among them), and
    parameters the `AlgorithmParams` and stepsize constructors reject (s,
    step_a, step_b, xi and nhat must be positive and finite). Paths in
    the config (`case`, `file`, `[output] dir`) are relative to its
    directory.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(path.read_text(encoding="utf-8"))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    for section in ("instance", "algorithm", "run"):
        if section not in cp:
            raise ConfigError(f"missing section [{section}]")
    algorithm = _get(cp, "algorithm", "id").lower()
    try:
        inst, graph = _instance_and_graph(cp, path)
        check_pairing(algorithm, inst, graph)
        params = _params(cp, algorithm)
    except (InvalidInstanceError, InvalidCostError) as exc:
        raise ConfigError(str(exc)) from exc

    q = _get(cp, "run", "q", float)
    if not 0.0 <= q < 1.0:
        raise ConfigError(f"q={q} outside [0, 1)")
    oracle_tol = _get(cp, "run", "oracle_tol", float, ExperimentConfig.oracle_tol)
    if not positive(oracle_tol):
        raise ConfigError(f"oracle_tol={oracle_tol} must be positive and finite")
    seeds_text = seeds_override if seeds_override is not None else _get(cp, "run", "seeds")
    try:
        seeds = tuple(int(s) for s in str(seeds_text).replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"seeds must be integers, got {seeds_text!r}") from None
    if not seeds:
        raise ConfigError("empty seed list")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("duplicate seeds")
    for seed in seeds:
        _check_seed(seed, "seeds")

    out_dir = out_override
    if out_dir is None and cp.has_option("output", "dir"):
        out_dir = _path(cp, path, "output", "dir", exists=False)
    return ExperimentConfig(
        instance=inst,
        graph=graph,
        algorithm=algorithm,
        params=params,
        q=q,
        seeds=seeds,
        out_dir=None if out_dir is None else Path(out_dir),
        oracle_tol=oracle_tol,
    )


@dataclass
class SeedOutcome:
    """One seed's result: status, error message and the values of its summary row.

    It holds no arrays, so a batch keeps one seed's trace at a time. The
    residual extrema are the seed's `invariant_report`, taken without a
    schedule; a seed that errored has an empty report.
    """

    seed: int
    status: str
    final_error: float = float("nan")
    fitted_rate: float = float("nan")
    fit_r_squared: float = float("nan")
    report: InvariantReport = InvariantReport(())
    warnings: tuple[str, ...] = ()
    message: str = ""


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    outcomes: list[SeedOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.status == "ok" for o in self.outcomes)


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="\n")
    os.replace(tmp, path)


def _trace_csv(trace: RunTrace, error: np.ndarray) -> str:
    """The trace CSV, its body formatted by one `%` over a row template repeated per step.

    A residual the algorithm does not carry is the literal `nan` in the
    template; `%.17g` of a Python float formats exactly as `_fmt` does.
    """
    keys = ("consensus_spread", "conservation", "mass", "min_v")
    series = [trace.residuals[key] for key in keys if key in trace.residuals]
    table = np.column_stack([np.arange(len(error)), error, *series])
    row = ",".join(["%d", "%.17g", *("%.17g" if key in trace.residuals else "nan" for key in keys)]) + "\n"
    return ",".join(TRACE_COLUMNS) + "\n" + (row * len(error)) % tuple(table.ravel().tolist())


def _summary_row(outcome: SeedOutcome) -> str:
    report = outcome.report
    extrema = [report[name].value if name in report else float("nan")
               for name in ("conservation", "mass", "consensus_spread", "min_v")]
    cells = (
        str(outcome.seed),
        _fmt(outcome.fitted_rate),
        _fmt(outcome.fit_r_squared),
        _fmt(outcome.final_error),
        *map(_fmt, extrema),
        outcome.status,
        str(len(outcome.warnings)),
    )
    return ",".join(cells)


def _run_seed(config: ExperimentConfig, solution, seed: int, out: Path) -> SeedOutcome:
    """Run one seed, write its trace CSV and keep its summary values; its arrays die on return."""
    schedule = GraphSchedule(config.graph, config.q, seed, config.params.horizon)
    trace = run(config.algorithm, config.instance, schedule, config.params)
    err = convergence_error(trace, solution)
    try:
        fit = fit_rate(err)
        rate, r_squared = fit.rate, fit.r_squared
    except DercoordError:  # converged-to-floor or too-short series: rate stays nan
        rate = r_squared = float("nan")
    _write_atomic(out / f"trace_{seed}.csv", _trace_csv(trace, err))
    return SeedOutcome(seed, "ok", float(err[-1]), rate, r_squared, invariant_report(trace), tuple(trace.warnings))


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every seed, write per-seed trace CSVs plus summary.csv.

    Each seed is finished before the next starts, and only its
    `SeedOutcome` is kept. Per-seed failures are recorded and remaining
    seeds still run; the result's `ok` flag is False if any seed errored.
    Output files are written atomically and are byte-identical across
    repeated runs of the same config. The oracle is solved before the
    output directory is made, so an oracle failure leaves none behind.
    """
    if config.out_dir is None:
        raise ConfigError("no output directory: set [output] dir or pass --out")
    solution = solve_bisection(
        config.instance, xi=config.params.xi, nhat=config.params.nhat, tol=config.oracle_tol
    )
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror or exc}") from exc
    result = ExperimentResult(config=config)
    for seed in config.seeds:
        try:
            outcome = _run_seed(config, solution, seed, out)
        except DercoordError as exc:
            outcome = SeedOutcome(seed=seed, status="error", message=str(exc))
        result.outcomes.append(outcome)
    header = ",".join(SUMMARY_COLUMNS)
    body = "\n".join(_summary_row(o) for o in result.outcomes)
    _write_atomic(out / "summary.csv", header + "\n" + body + "\n")
    return result


__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "GraphSpec",
    "InstanceSpec",
    "SeedOutcome",
    "format_case",
    "generate_graph",
    "generate_instance",
    "load_case",
    "load_config",
    "parse_case",
    "run_experiment",
    "write_case",
]
