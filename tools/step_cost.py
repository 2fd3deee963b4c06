"""Per-step cost of `run`: each algorithm on its 39-agent case at the shipped configs' parameters, and some at scaled n.

The scaled cases (pd1, directed, robust and virtual at n = 300, 1000 and 3000) run on a
generated instance and ring-plus-chords graph of n/2 chords, both of seed 1,
over a short horizon, at the parameters of the config their 39-agent case takes.
The ``_opt`` cases (pd1 and robust at case39, robust at n = 3000) time the CLI's
path: `run` given the oracle's solution, which keeps ||p - p*|| and the
residual series but no state series.

Each source root's package is imported into this process under a name of its
own, which works because the package uses only relative imports. Each case
builds its inputs once per package and runs once untimed per package, so
cached graph arrays and first-call costs stay out of the numbers. Each case
is one call of `run` timed twice, at its horizon K and at K = 0, each time by
`timeit` (so with the garbage collector off); the roots' runs alternate, A,B
then B,A, for R pairs. The K = 0 call is the run's set-up (state, ring,
views, the trace and its digest), so the table splits each case in two
columns: ``setup_us``, the best time at K = 0, and ``us/step``, (T(K) -
T(0)) / K from the best of each, both in microseconds. Given two roots,
each column adds the median paired ratio B/A, of T(0) and of T(K) - T(0),
and its 95 % interval (`ratio_interval`); a ratio whose interval excludes 1
is marked ``*``, resolved. Import and first-call costs are perfbench's to
measure.

The connectivity layer gets rows of its own, below the table's: one call
timed whole, ``us/call``, best of R in microseconds and, given two roots,
paired as above. ``check_B`` is `check_B_connectivity` on certify39's
schedule (case39's directed graph at the robust config's q and horizon,
seed 1) at the B that `minimal_connectivity_window` measures on it;
``windows_3000`` is `windows_connected` over LAYER_WINDOWS windows of
LAYER_B steps on the generated directed n = 3000 graph of scale3000
(n/2 chords, seed 1) at that q; ``union_3000`` is `union_connected` on
the full mask of that graph and of its undirected twin, the checks that
building the two graphs makes.

A third column, ``calls/step``, is a count, the same on every run: the NumPy
calls each step of the case makes, over its first COUNTED_STEPS steps
(`calls_per_step`). It counts the calls of every ufunc (its ``reduce`` among
them) and of bincount that a step makes through the names the package's
`algorithms`, `problem` and `network` modules hold, NumPy's own (``np.add``)
included. ``take`` is an ndarray method, which no module name reaches, so
it is not counted; the table's first line says so. Given two roots, the
column gives both counts.

Usage: ``python tools/step_cost.py [--runs R] [--only NAME,...] SRC [SRC2]``,
NAME a case of either table (all by default),
SRC being a directory that holds the ``dercoord`` package (``src``).
"""

import argparse
import importlib.util
import math
import statistics
import sys
import timeit
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
# Case -> (the shipped config whose parameters it takes, n of a scaled case or None); a case runs the algorithm
# that its name begins with, given the optimum when its name ends in _opt.
CASES = {"pd1": ("pd1", None), "pd2": ("pd2", None), "directed": ("robust", None), "robust": ("robust", None),
         "virtual": ("robust", None), "centralized": ("pd1", None)}
SCALED = ("pd1", "directed", "robust", "virtual")
CASES |= {f"{name}_{n}": (CASES[name][0], n) for n in (300, 1000, 3000) for name in SCALED}
CASES |= {f"{name}_opt": CASES[name] for name in ("pd1", "robust", "robust_3000")}
SCALE_K = 200  # the scaled cases' short horizon
COUNTED_STEPS = 20  # the steps of each case whose NumPy calls `calls_per_step` counts
LEGEND = (f"# calls/step: ufunc and bincount calls per step, over the first {COUNTED_STEPS} steps; "
          "ndarray methods (take) not counted")
LAYER = ("check_B", "windows_3000", "union_3000")  # the connectivity layer's cases, each one call
LAYER_B, LAYER_WINDOWS = 5, 100  # windows_3000's window length and window count
LAYER_LEGEND = "# connectivity layer: one call of each case, in microseconds"


def load(root: str, name: str):
    """The ``dercoord`` package under `root`, imported afresh as `name`, which its relative imports then resolve to."""
    for module in [key for key in sys.modules if key.split(".")[0] == name]:
        del sys.modules[module]
    init = Path(root) / "dercoord" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return package


def prepare(dc, name: str):
    """The call of `dc.run` on case `name` at its horizon K and at K = 0, each run once untimed, and K.

    An ``_opt`` case's run is given the optimum.
    """
    cfg, n = CASES[name]
    config = dc.load_config(REPO / "configs" / f"benchmark39_{cfg}.cfg")
    inst, graph, params = config.instance, config.graph, config.params
    if n is not None:
        inst = dc.generate_instance(dc.InstanceSpec(n=n), 1)
        graph = dc.generate_graph(dc.GraphSpec(n=n, extra_edges=n // 2, directed=graph.directed), 1)
        params = replace(params, horizon=SCALE_K)
    schedule = dc.GraphSchedule(graph, config.q, 1, params.horizon)
    solution = dc.solve_bisection(inst, xi=params.xi, nhat=params.nhat) if name.endswith("_opt") else None

    algorithm = name.split("_")[0]
    calls = [partial(dc.run, algorithm, inst, schedule, replace(params, horizon=horizon), optimum=solution)
             for horizon in (params.horizon, 0)]
    for call in calls:
        call()  # the warm-up: it samples the schedule and fills the graph's cached arrays
    return calls, params.horizon


def prepare_layer(dc, name: str):
    """The call of connectivity case `name` by package `dc`, run once untimed."""
    config = dc.load_config(REPO / "configs" / "benchmark39_robust.cfg")
    if name == "check_B":
        schedule = dc.GraphSchedule(config.graph, config.q, 1, config.params.horizon)
        call = partial(dc.check_B_connectivity, schedule, dc.minimal_connectivity_window(schedule))
    else:
        graphs = [dc.generate_graph(dc.GraphSpec(n=3000, extra_edges=1500, directed=directed), 1)
                  for directed in (True, False)]
        masks = dc.GraphSchedule(graphs[0], config.q, 1, LAYER_B * LAYER_WINDOWS).masks
        full = [np.ones(graph.m, dtype=bool) for graph in graphs]
        call = {"windows_3000": partial(dc.network.windows_connected, graphs[0], masks, LAYER_B),
                "union_3000": lambda: [dc.network.union_connected(*pair) for pair in zip(graphs, full)]}[name]
    call()
    return call


class Tally:
    """The NumPy calls counted while `on`, and the steps they were counted over."""

    def __init__(self):
        self.calls, self.steps, self.on = 0, 0, False

    def wrap(self, value):
        """`value` wrapped to be counted if it is a ufunc or bincount, else `value` itself."""
        bincounts = (np.bincount, getattr(np.bincount, "_implementation", np.bincount))
        return Counted(value, self) if isinstance(value, np.ufunc) or any(value is b for b in bincounts) else value


class Counted:
    """A ufunc or bincount whose calls, and ``reduce`` calls, its tally counts while on."""

    def __init__(self, f, tally: Tally):
        self.f, self.tally = f, tally

    def __call__(self, *args, **kwargs):
        self.tally.calls += self.tally.on
        return self.f(*args, **kwargs)

    def reduce(self, *args, **kwargs):
        self.tally.calls += self.tally.on
        return self.f.reduce(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.f, name)


class CountedNumpy:
    """NumPy as a module sees it through its ``np`` name, with each ufunc and bincount counted."""

    def __init__(self, tally: Tally):
        self.tally = tally

    def __getattr__(self, name):
        return self.tally.wrap(getattr(np, name))


def calls_per_step(dc, call, algorithm: str) -> float:
    """NumPy calls per step of `call`, a run of `algorithm` by package `dc`, over its first COUNTED_STEPS steps.

    Every ufunc and bincount that `dc`'s `algorithms`, `problem` and
    `network` modules name, and their ``np``, is replaced by one that counts
    its calls, and the algorithm's kernel by one whose step turns counting on
    while it runs; all are restored after the run.
    """
    tally, spec = Tally(), dc.algorithms._SPECS[algorithm]

    def kernel(*args):
        views, step = spec.kernel(*args)

        def counted(*step_args):
            tally.on = tally.steps < COUNTED_STEPS
            tally.steps += tally.on
            step(*step_args)
            tally.on = False

        return views, counted

    saved = [(module, name, value) for module in (dc.algorithms, dc.problem, dc.network)
             for name, value in vars(module).items() if name == "np" or tally.wrap(value) is not value]
    try:
        for module, name, value in saved:
            setattr(module, name, CountedNumpy(tally) if name == "np" else tally.wrap(value))
        dc.algorithms._SPECS[algorithm] = replace(spec, kernel=kernel)
        call()
    finally:
        dc.algorithms._SPECS[algorithm] = spec
        for module, name, value in saved:
            setattr(module, name, value)
    return tally.calls / tally.steps


def ratio_interval(ratios) -> tuple[float, float, float]:
    """The median of N paired ratios and its distribution-free 95 % interval.

    The count of ratios below the true median is Binomial(N, 1/2), so the
    order statistics j and N + 1 - j (1-based) bracket it with probability
    1 - 2 P(count <= j - 1); j is the largest rank that keeps this >= 0.95
    (6 and 15 at N = 20, 10 and 21 at N = 30). Below N = 6 no rank does,
    and the interval is (-inf, inf).
    """
    x = [-math.inf, *sorted(ratios), math.inf]
    n = len(x) - 2
    # 2^N P(count <= k - 1) grows with k, so j is the number of ranks k whose tail is at most 0.025.
    j = sum(40 * sum(math.comb(n, i) for i in range(k)) <= 2**n for k in range(1, n + 1))
    return statistics.median(x[1:-1]), x[j], x[n + 1 - j]


def paired(calls: list[list], runs: int) -> list[list[list[float]]]:
    """times[i][j]: the seconds of root i's call j, one per pair; the roots alternate, A,B then B,A."""
    times = [[[] for _ in root] for root in calls]
    for pair in range(runs):
        for i in range(len(calls)) if pair % 2 == 0 else reversed(range(len(calls))):
            for seconds, call in zip(times[i], calls[i]):
                seconds.append(timeit.timeit(call, number=1))
    return times


def cells(column) -> str:
    """One column of a row: each root's best, and given two roots the median paired ratio B/A and its interval.

    `column` holds, per root, (best, the values its ratios pair).
    """
    text = "".join(f"{best:>10.2f}" for best, _ in column)
    if len(column) == 2:
        median, low, high = ratio_interval([b / a for a, b in zip(column[0][1], column[1][1])])
        text += f"{median:>8.3f}  {f'[{low:.3f},{high:.3f}]':<15}" + ("  " if low <= 1 <= high else " *")
    return text


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("roots", nargs="+", metavar="SRC")
    ap.add_argument("--runs", type=int, default=20)
    known = [*CASES, *LAYER]
    ap.add_argument("--only", type=lambda names: names.split(","), default=known, help=", ".join(known))
    args = ap.parse_args(argv)
    if set(args.only) - set(known) or len(args.roots) > 2 or args.runs < 1:
        ap.error(f"cases must be among {', '.join(known)}, at most two roots given, and runs >= 1")
    packages = [load(root, f"step_cost_{i}") for i, root in enumerate(args.roots)]
    ratio = f"{'ratio':>8}  {'interval':<17}" if len(packages) == 2 else ""
    steps, layer = [name for name in args.only if name in CASES], [name for name in args.only if name in LAYER]
    if steps:
        print(LEGEND)
        header = "".join(f"{column:>10}" * len(packages) + ratio for column in ("setup_us", "us/step"))
        print(f"{'case':<14}" + header + f"{'calls/step':>12}" * len(packages))
    for name in steps:
        cases = [prepare(dc, name) for dc in packages]
        counts = [calls_per_step(dc, calls[0], name.split("_")[0]) for dc, (calls, _) in zip(packages, cases)]
        horizon = cases[0][1]
        # Per root, each column's best in microseconds and the values its ratios pair: T(0), and T(K) - T(0).
        columns = [[(min(t0) * 1e6, t0), ((min(tk) - min(t0)) / horizon * 1e6, [a - b for a, b in zip(tk, t0)])]
                   for tk, t0 in paired([calls for calls, _ in cases], args.runs)]
        print(f"{name:<14}" + "".join(map(cells, zip(*columns))) + "".join(f"{count:>12g}" for count in counts))
    if layer:
        print(LAYER_LEGEND)
        print(f"{'case':<14}" + f"{'us/call':>10}" * len(packages) + ratio)
    for name in layer:
        times = paired([[prepare_layer(dc, name)] for dc in packages], args.runs)
        print(f"{name:<14}" + cells([(min(seconds) * 1e6, seconds) for (seconds,) in times]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
