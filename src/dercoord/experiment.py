"""Config-driven experiments: case files, random instances, CSV artifacts.

A run is described by one INI-style config (sections [instance], [graph],
[algorithm], [run], [output]); every algorithm parameter must appear
explicitly, there are no hidden defaults for them, and a key that nothing
reads is an error. Each seed produces
``trace_<seed>.csv`` and the batch produces ``summary.csv``; floats are
rendered with 17 significant digits so values round-trip losslessly and
repeated runs are byte-identical. A seed is finished in one pass and
leaves only its `SeedOutcome`, whose residual extrema are its
`invariant_report`: the summary computes none of them itself.

This module owns every file the package reads or writes: configs, case
files, graph files and the CSVs. Case file format (text)::

    n
    a b c p_lo p_hi load             (one line per agent)
    n m mode                         (graph section, mode undirected|directed)
    i j                              (one line per edge, 0-based)

A graph file, which ``[graph] file`` names, is the graph section alone.
Both skip blank lines and lines that start with ``#``, and read the mode
in any case. Every other line must hold exactly its fields, and a
`CaseParseError` names its 1-based number and the field it rejects.
Written numbers have 17 significant digits, so a written case reads back
bit for bit.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algorithms import RUNNING_SUM_ALGORITHMS, check_pairing, run
from .errors import (
    CaseParseError,
    ConfigError,
    DercoordError,
    GeneratorSpecError,
    InvalidCostError,
    InvalidGraphError,
    InvalidInstanceError,
)
from .metrics import InvariantReport, RunTrace, fit_rate, invariant_report
from .network import (
    GraphSchedule,
    NominalGraph,
    checked_bool,
    checked_int,
    checked_real,
    checked_seed,
)
from .oracle import solve_bisection
from .problem import AlgorithmParams, ConstantStep, DiminishingStep, ProblemInstance, QuadraticCost

# Stream tags keep generator draws disjoint from schedule draws (which use
# key = [seed, step]).
_TAG_INSTANCE = (1 << 63) + 1
_TAG_GRAPH = (1 << 63) + 2

_REJECTION_LIMIT = 1000

# The spec's ranges in the order `generate_instance` draws them.
_RANGES = ("a_range", "b_range", "c_range", "load_range", "lo_range", "hi_range")
# The fields of a case file's agent line, in order.
_AGENT_FIELDS = "a b c p_lo p_hi load"

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


def _stream(seed, tag: int, what: str) -> np.random.Generator:
    """The Philox stream keyed by (seed, tag); `GeneratorSpecError` unless `seed` is a 64-bit seed."""
    key = np.array([checked_seed(seed, what, GeneratorSpecError), tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class InstanceSpec:
    """Randomization recipe for dispatch instances.

    Quadratic coefficients, loads, and capacity bounds are drawn uniformly
    from the given (low, high) ranges: each a pair whose low is a finite
    real number (a positive one for a_range) and whose high is one in
    [low, inf) (`checked_real`). Infeasible draws are rejected and
    redrawn. n must be an integer >= 1 (`checked_int`). Otherwise
    `GeneratorSpecError` names the field, as in ``a_range low=0.0 must be
    positive and finite``.
    """

    n: int
    a_range: tuple[float, float] = (0.5, 2.0)
    b_range: tuple[float, float] = (0.0, 0.0)
    c_range: tuple[float, float] = (0.0, 0.0)
    load_range: tuple[float, float] = (0.2, 1.8)
    lo_range: tuple[float, float] = (0.0, 0.0)
    hi_range: tuple[float, float] = (1.0, 3.0)

    def __post_init__(self):
        object.__setattr__(self, "n", checked_int(self.n, "instance spec n", GeneratorSpecError, 1))
        for name in _RANGES:
            try:
                low, high = getattr(self, name)
            except (TypeError, ValueError):  # not two values
                raise GeneratorSpecError(f"{name}={getattr(self, name)!r} must be a pair (low, high)") from None
            low = checked_real(low, f"{name} low", GeneratorSpecError, 0 if name == "a_range" else -np.inf)
            checked_real(high, f"{name} high", GeneratorSpecError, low, closed=True)


def generate_instance(spec: InstanceSpec, seed: int) -> ProblemInstance:
    """Deterministic feasible instance for (spec, seed): the first draw `ProblemInstance` accepts.

    Raises `GeneratorSpecError`, chained to the last rejection and quoting
    it, after `_REJECTION_LIMIT` rejected draws, or after the first when
    every range is one value (every draw is then the same).
    """
    gen = _stream(seed, _TAG_INSTANCE, "instance seed")

    def draw(rng: tuple[float, float], size: int) -> np.ndarray:
        lo, hi = rng
        return np.full(size, lo) if lo == hi else gen.uniform(lo, hi, size)

    ranges = [getattr(spec, name) for name in _RANGES]
    tries = 1 if all(low == high for low, high in ranges) else _REJECTION_LIMIT
    for _ in range(tries):
        a, b, c, loads, lo, hi = (draw(rng, spec.n) for rng in ranges)
        try:  # `ProblemInstance` rejects an inverted box or an infeasible load (`InfeasibleInstanceError`)
            return ProblemInstance(loads, lo, hi, QuadraticCost(a, b, c))
        except InvalidInstanceError as err:
            rejected = err
    advice = "every range is one value, so every draw is this one" if tries == 1 else "widen the spec ranges"
    raise GeneratorSpecError(f"{tries} consecutive draws rejected, the last with: {rejected}; {advice}") from rejected


@dataclass(frozen=True)
class GraphSpec:
    """Ring-plus-chords topology recipe.

    A ring over all nodes guarantees (strong) connectivity; `extra_edges`
    chords are added between non-adjacent pairs. Directed chords get a
    random orientation and occasionally both arcs. n must be an integer
    >= 1 and `extra_edges` one >= 0 (`checked_int`), and `directed` a bool
    (`checked_bool`); otherwise `GeneratorSpecError` names the field.
    """

    n: int
    extra_edges: int = 0
    directed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n", checked_int(self.n, "graph spec n", GeneratorSpecError, 1))
        extra_edges = checked_int(self.extra_edges, "graph spec extra_edges", GeneratorSpecError, 0)
        object.__setattr__(self, "extra_edges", extra_edges)
        object.__setattr__(self, "directed", checked_bool(self.directed, "graph spec directed", GeneratorSpecError))


def generate_graph(spec: GraphSpec, seed: int) -> NominalGraph:
    gen = _stream(seed, _TAG_GRAPH, "graph seed")
    n = spec.n
    # The ring: n links, but two nodes have one edge or two arcs, and one node none.
    edges = [(i, (i + 1) % n) for i in range(n if n > 2 else (n - 1) * (1 + spec.directed))]
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


def numbered_lines(text: str) -> list[tuple[int, str]]:
    """Non-empty, non-comment lines of `text` with their 1-based numbers."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            out.append((lineno, stripped))
    return out


def is_directed(mode: str) -> bool:
    """The graph mode word: True for 'directed', False for 'undirected', in any case; ValueError otherwise."""
    mode = mode.lower()
    if mode not in ("undirected", "directed"):
        raise ValueError(mode)
    return mode == "directed"


def _range(text: str) -> tuple[float, float]:
    low, high = map(float, text.split())  # ValueError unless two numbers
    return low, high


# What each field parser of `parse_fields` and `_get` accepts, for the error that rejects a value.
_KINDS = {int: "an integer", float: "a number", is_directed: "'undirected' or 'directed'",
          _range: "two numbers 'low high'"}


def parse_fields(line: tuple[int, str], names: str, kinds: tuple) -> list:
    """The values of a numbered line of exactly the fields `names`, field i parsed by kinds[i].

    Each `CaseParseError` carries the line number: a wrong field count
    quotes the line, a value its parser rejects names its field.
    """
    lineno, content = line
    words = content.split()
    if len(words) != len(kinds):
        raise CaseParseError(lineno, f"expected '{names}', got {content!r}")
    values = []
    for name, kind, word in zip(names.split(), kinds, words):
        try:
            values.append(kind(word))
        except ValueError:
            raise CaseParseError(lineno, f"{name} must be {_KINDS[kind]}, got {word!r}") from None
    return values


def parse_graph_lines(lines: list[tuple[int, str]], before: int = 0) -> NominalGraph:
    """Parse the graph section: header ``n m mode`` then one edge per line.

    `lines` are (1-based line number, content) pairs; numbers are carried
    into parse errors. An empty section is blamed on line `before`, the one
    it follows (0 for a graph file, which has no line before it).
    """
    if not lines:
        raise CaseParseError(before, "missing graph header 'n m mode'")
    n, m, directed = parse_fields(lines[0], "n m mode", (int, int, is_directed))
    if m < 0:
        raise CaseParseError(lines[0][0], f"edge count must be >= 0, got {m}")
    if len(lines) - 1 < m:
        raise CaseParseError(lines[-1][0], f"expected {m} edge lines, found {len(lines) - 1}")
    if len(lines) - 1 > m:
        raise CaseParseError(lines[1 + m][0], f"unexpected content after {m} edge lines")
    edges = [parse_fields(line, "i j", (int, int)) for line in lines[1 : 1 + m]]
    try:
        return NominalGraph(n, edges, directed)
    except InvalidGraphError as exc:
        raise CaseParseError(lines[0][0], str(exc)) from exc


def format_graph(graph: NominalGraph) -> str:
    mode = "directed" if graph.directed else "undirected"
    lines = [f"{graph.n} {graph.m} {mode}"]
    lines += [f"{i} {j}" for i, j in graph.edges]
    return "\n".join(lines) + "\n"


def load_graph(path) -> NominalGraph:
    return parse_graph_lines(numbered_lines(Path(path).read_text(encoding="utf-8")))


def format_case(inst: ProblemInstance, graph: NominalGraph) -> str:
    cost = inst.cost
    if not isinstance(cost, QuadraticCost):
        raise InvalidInstanceError("case files store quadratic costs only")
    col = {"a": cost.a, "b": cost.b, "c": cost.c, "p_lo": inst.p_lo, "p_hi": inst.p_hi, "load": inst.loads}
    table = np.column_stack([col[name] for name in _AGENT_FIELDS.split()])
    agents = [" ".join(map(_fmt, row)) for row in table.tolist()]
    return "\n".join([str(inst.n), *agents]) + "\n" + format_graph(graph)


def write_case(path, inst: ProblemInstance, graph: NominalGraph) -> None:
    Path(path).write_text(format_case(inst, graph), encoding="utf-8")


def parse_case(text: str) -> tuple[ProblemInstance, NominalGraph]:
    lines = numbered_lines(text)
    if not lines:
        raise CaseParseError(0, "empty case file")
    (n,) = parse_fields(lines[0], "n", (int,))
    if n < 1:
        raise CaseParseError(lines[0][0], "agent count must be >= 1")
    if len(lines) < 1 + n:
        raise CaseParseError(lines[-1][0], f"expected {n} agent lines, found {len(lines) - 1}")
    names = _AGENT_FIELDS.split()
    table = np.empty((n, len(names)))
    for row, line in zip(table, lines[1 : 1 + n]):
        row[:] = values = parse_fields(line, _AGENT_FIELDS, (float,) * len(names))
        agent = dict(zip(names, values))
        for name, value in agent.items():  # float() takes nan and inf, which no agent value may be
            if not np.isfinite(value):
                raise CaseParseError(line[0], f"{name} must be finite, got {value!r}")
        # Checked here too, because here the error can name the file's line.
        if agent["p_lo"] > agent["p_hi"]:
            raise InvalidInstanceError(f"line {line[0]}: p_lo={agent['p_lo']:.6g} > p_hi={agent['p_hi']:.6g}")
        if agent["a"] <= 0:
            raise InvalidInstanceError(f"line {line[0]}: quadratic coefficient a={agent['a']:.6g} must be > 0")
    graph = parse_graph_lines(lines[1 + n :], lines[n][0])
    if graph.n != n:
        raise CaseParseError(lines[1 + n][0], f"graph has {graph.n} nodes but case has {n} agents")
    col = dict(zip(names, table.T))
    return ProblemInstance(col["load"], col["p_lo"], col["p_hi"], QuadraticCost(col["a"], col["b"], col["c"])), graph


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


class _Config(configparser.ConfigParser):
    """A parsed config that records each key asked about, so that `load_config` can name every other key.

    Every read asks `has_option`: `_get` does, and so do ``key in section``
    and ``section[key]``.
    """

    def __init__(self):
        # No header names the section "", so [DEFAULT] is an ordinary section, which no reader reads.
        super().__init__(inline_comment_prefixes=("#",), default_section="")
        self.asked: set[tuple[str, str]] = set()

    def has_option(self, section, option):
        self.asked.add((section, self.optionxform(option)))
        return super().has_option(section, option)


def _get(cp: _Config, section: str, key: str, kind=str, default=None):
    """[section] key parsed by `kind` (str, int, float, `_range` or `is_directed`), or `default` if it is absent.

    A key without a default is required. Each error names the key, and a
    value `kind` cannot parse is quoted in it. Ranges, positivity, q and
    seeds are checked by what the value is given to. Asking for the key
    makes it known to `cp`, so `load_config` accepts it.
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


def _path(cp: _Config, config: Path, section: str, key: str, exists: bool = True) -> Path:
    """[section] key as a path, a relative one taken from the config file's directory."""
    path = config.parent / _get(cp, section, key)
    if exists and not path.is_file():
        raise ConfigError(f"[{section}] {key}: file not found: {path}")
    return path


def _instance_and_graph(cp: _Config, path: Path) -> tuple[ProblemInstance, NominalGraph]:
    if cp.has_option("instance", "case"):
        return load_case(_path(cp, path, "instance", "case"))
    inst_seed = _get(cp, "instance", "seed", int)
    ranges = {key: _get(cp, "instance", key, _range) for key in _RANGES if cp.has_option("instance", key)}
    inst = generate_instance(InstanceSpec(n=_get(cp, "instance", "n", int), **ranges), inst_seed)
    if cp.has_option("graph", "file"):
        return inst, load_graph(_path(cp, path, "graph", "file"))
    directed = _get(cp, "graph", "mode", is_directed)
    graph_seed = _get(cp, "graph", "seed", int, inst_seed)
    spec = GraphSpec(inst.n, _get(cp, "graph", "extra_edges", int, GraphSpec.extra_edges), directed)
    return inst, generate_graph(spec, graph_seed)


def _params(cp: _Config, algorithm: str) -> AlgorithmParams:
    alg = cp["algorithm"]
    if "s" in alg:
        if "step_a" in alg or "step_b" in alg:
            raise ConfigError("give either s or step_a/step_b, not both")
        step = ConstantStep(_get(cp, "algorithm", "s", float))
    elif "step_a" in alg and "step_b" in alg:
        step = DiminishingStep(_get(cp, "algorithm", "step_a", float), _get(cp, "algorithm", "step_b", float))
    else:
        raise ConfigError("missing stepsize: give s or step_a and step_b in [algorithm]")
    # Only the running-sum algorithms read gamma, so any other algorithm leaves the key unread.
    gamma = _get(cp, "algorithm", "gamma", float) if algorithm in RUNNING_SUM_ALGORITHMS else AlgorithmParams.gamma
    return AlgorithmParams(
        step, _get(cp, "algorithm", "xi", float), _get(cp, "algorithm", "nhat", float), gamma, _get(cp, "run", "K", int)
    )


def load_config(path, out_override=None, seeds_override=None) -> ExperimentConfig:
    """Parse and fully resolve a config file; all validation happens here.

    Every key is read through one typed reader, so a missing or
    unparsable value is a `ConfigError` that names its key, and so is a
    key that nothing reads: a misspelt one, or one the other keys leave
    unused (`[graph]` keys beside a `case`, `gamma` for an algorithm
    without running sums). `seeds` and `[output] dir`
    are read even when `seeds_override` and `out_override` replace them.
    Every value is checked by what it is given to, and every invalid
    input raises `ConfigError`: a missing file, an instance, cost or
    graph the library rejects (an unknown algorithm id, or one whose
    directedness or size does not match the graph, among them),
    parameters the `AlgorithmParams` and stepsize constructors reject (s,
    step_a, step_b, xi and nhat must be positive and finite), generator
    seeds `generate_instance` and `generate_graph` reject, and a q or a
    seed each seed's `GraphSchedule` rejects (q in [0, 1), seeds in
    [0, 2^64)). Paths in the config (`case`, `file`, `[output] dir`) are
    relative to its directory.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = _Config()
    try:
        cp.read_string(path.read_text(encoding="utf-8"))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    for section in ("instance", "algorithm", "run"):
        if section not in cp:
            raise ConfigError(f"missing section [{section}]")
    algorithm = _get(cp, "algorithm", "id").lower()
    in_config = _get(cp, "run", "seeds", default=seeds_override)  # asked even when overridden, so the key stays known
    seeds_text = in_config if seeds_override is None else seeds_override
    try:
        seeds = tuple(int(s) for s in str(seeds_text).replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"seeds must be integers, got {seeds_text!r}") from None
    if not seeds:
        raise ConfigError("empty seed list")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("duplicate seeds")
    try:
        inst, graph = _instance_and_graph(cp, path)
        check_pairing(algorithm, inst, graph)
        params = _params(cp, algorithm)
        q = _get(cp, "run", "q", float)
        for seed in seeds:  # sampling is lazy: a schedule draws nothing until a block of it is read
            GraphSchedule(graph, q, seed, params.horizon)
    except (InvalidInstanceError, InvalidCostError, InvalidGraphError) as exc:
        raise ConfigError(str(exc)) from exc
    out_dir = _path(cp, path, "output", "dir", exists=False) if cp.has_option("output", "dir") else None
    if out_override is not None:
        out_dir = Path(out_override)
    unread = [f"[{s}] {key}" for s in cp.sections() for key in cp.options(s) if (s, key) not in cp.asked]
    if unread:
        raise ConfigError(f"no reader for {', '.join(unread)}: a misspelt key, or one the other keys leave unused")
    return ExperimentConfig(
        instance=inst,
        graph=graph,
        algorithm=algorithm,
        params=params,
        q=q,
        seeds=seeds,
        out_dir=out_dir,
    )


@dataclass
class SeedOutcome:
    """One seed's result: status, error message and the values of its summary row.

    It holds no arrays, so a batch keeps one seed's trace at a time, and
    that trace holds reductions only: `final_error` is the last entry of
    its ``residuals["err_p"]``. The residual extrema are the seed's
    `invariant_report`, taken without a schedule; a seed that errored has
    an empty report.
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
    """Run one seed, write its trace CSV and keep its summary values; its arrays die on return.

    The run is given the optimum, so it keeps the residual series and ||p - p*|| (``err_p``), O(K), and no state
    series, which would be O(K n).
    """
    schedule = GraphSchedule(config.graph, config.q, seed, config.params.horizon)
    trace = run(config.algorithm, config.instance, schedule, config.params, optimum=solution)
    err = trace.residuals["err_p"]
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
    `SeedOutcome` is kept. Each seed's `run` is given the oracle's
    solution, so it records ||p - p*|| per step and no state series: the
    memory is O(block + K) per seed, not O(K n). Per-seed failures are
    recorded and remaining seeds still run; the result's `ok` flag is
    False if any seed errored.
    Output files are written atomically and are byte-identical across
    repeated runs of the same config. The oracle is solved before the
    output directory is made, so an oracle failure leaves none behind.
    """
    if config.out_dir is None:
        raise ConfigError("no output directory: set [output] dir or pass --out")
    solution = solve_bisection(config.instance, xi=config.params.xi, nhat=config.params.nhat)
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

