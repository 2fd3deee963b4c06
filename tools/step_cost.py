"""Per-step cost of `run`: each algorithm on its 39-agent case at the shipped configs' parameters, and some at scaled n.

The scaled cases (pd1, directed, robust and virtual at n = 300, 1000 and 3000) run on a
generated instance and ring-plus-chords graph of n/2 chords, both of seed 1,
over a short horizon, at the parameters of the config their 39-agent case takes.
The ``_opt`` cases (pd1 and robust at case39, robust at n = 3000) time the CLI's
path: `run` given the oracle's solution, which keeps ||p - p*|| and the
residual series but no state series. A package whose `run` takes no optimum
gets what its CLI does instead, the full trace and then `convergence_error`, so
two roots compare the CLI paths as the other cases compare library `run`.

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

Usage: ``python tools/step_cost.py [--runs R] [--only NAME,...] SRC [SRC2]``,
SRC being a directory that holds the ``dercoord`` package (``src``).
"""

import argparse
import importlib.util
import inspect
import math
import statistics
import sys
import timeit
from dataclasses import replace
from functools import partial
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# Case -> (the shipped config whose parameters it takes, n of a scaled case or None); a case runs the algorithm
# that its name begins with, given the optimum when its name ends in _opt.
CASES = {"pd1": ("pd1", None), "pd2": ("pd2", None), "directed": ("robust", None), "robust": ("robust", None),
         "virtual": ("robust", None), "centralized": ("pd1", None)}
SCALED = ("pd1", "directed", "robust", "virtual")
CASES |= {f"{name}_{n}": (CASES[name][0], n) for n in (300, 1000, 3000) for name in SCALED}
CASES |= {f"{name}_opt": CASES[name] for name in ("pd1", "robust", "robust_3000")}
SCALE_K = 200  # the scaled cases' short horizon


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

    def call_at(horizon: int):
        args = (name.split("_")[0], inst, schedule, replace(params, horizon=horizon))
        if solution is None:
            return partial(dc.run, *args)
        if "optimum" in inspect.signature(dc.run).parameters:
            return partial(dc.run, *args, optimum=solution)
        return lambda: dc.convergence_error(dc.run(*args), solution)  # the CLI's path before `run` took an optimum

    calls = [call_at(params.horizon), call_at(0)]
    for call in calls:
        call()  # the warm-up: it samples the schedule and fills the graph's cached arrays
    return calls, params.horizon


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("roots", nargs="+", metavar="SRC")
    ap.add_argument("--runs", type=int, default=20)
    ap.add_argument("--only", type=lambda names: names.split(","), default=list(CASES), help=", ".join(CASES))
    args = ap.parse_args(argv)
    if set(args.only) - set(CASES) or len(args.roots) > 2 or args.runs < 1:
        ap.error(f"cases must be among {', '.join(CASES)}, at most two roots given, and runs >= 1")
    packages = [load(root, f"step_cost_{i}") for i, root in enumerate(args.roots)]
    paired = f"{'ratio':>8}  {'interval':<17}" if len(packages) == 2 else ""
    header = f"{'case':<14}" + "".join(f"{column:>10}" * len(packages) + paired for column in ("setup_us", "us/step"))
    print(header.rstrip())
    for name in args.only:
        cases = [prepare(dc, name) for dc in packages]
        horizon = cases[0][1]
        # times[i][j]: root i's runs at K (j = 0) and at K = 0 (j = 1), pair by pair
        times = [([], []) for _ in cases]
        for pair in range(args.runs):
            for i in range(len(cases)) if pair % 2 == 0 else reversed(range(len(cases))):
                for runs, call in zip(times[i], cases[i][0]):
                    runs.append(timeit.timeit(call, number=1))
        # Per root, each column's best in microseconds and the values its ratios pair: T(0), and T(K) - T(0).
        columns = [[(min(t0) * 1e6, t0), ((min(tk) - min(t0)) / horizon * 1e6, [a - b for a, b in zip(tk, t0)])]
                   for tk, t0 in times]
        row = f"{name:<14}"
        for column in zip(*columns):
            row += "".join(f"{best:>10.2f}" for best, _ in column)
            if len(column) == 2:
                median, low, high = ratio_interval([b / a for a, b in zip(column[0][1], column[1][1])])
                row += f"{median:>8.3f}  {f'[{low:.3f},{high:.3f}]':<15}" + ("  " if low <= 1 <= high else " *")
        print(row.rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
