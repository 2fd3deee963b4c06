"""Per-step cost of `run`: each algorithm on its 39-agent case at the shipped configs' parameters, and some at scaled n.

The scaled cases (pd1, directed and robust at n = 300 and 1000, and at
n = 3000, where robust's case keeps its older name ``robust3000``) run on a
generated instance and ring-plus-chords graph of n/2 chords, both of seed 1,
over a short horizon, at the parameters of the config their 39-agent case takes.

Each number is the best of R runs in each of P fresh processes, the least
over all of them, as microseconds per step (the whole `run` over its
horizon): on a shared machine a neighbour slows a whole process at a time.
Given a second source root, the processes alternate between the two roots,
and the table gains a second column and the ratio of the second to the
first.

Usage: ``python tools/step_cost.py [--runs R] [--procs P] [--only NAME,...] SRC [SRC2]``,
SRC being a directory that holds the ``dercoord`` package (``src``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# Case -> (algorithm, the shipped config whose parameters it takes, n of a scaled case or None).
CASES = {"pd1": ("pd1", "pd1", None), "pd2": ("pd2", "pd2", None), "directed": ("directed", "robust", None),
         "robust": ("robust", "robust", None), "virtual": ("virtual", "robust", None),
         "centralized": ("centralized", "pd1", None)}
CASES |= {f"{name}_{n}": (*CASES[name][:2], n) for n in (300, 1000, 3000) for name in ("pd1", "directed", "robust")}
CASES["robust3000"] = CASES.pop("robust_3000")
SCALE_K = 200  # the scaled cases' short horizon


def measure(names: list[str], runs: int) -> dict[str, float]:
    import dercoord as dc

    costs = {}
    for name in names:
        algorithm, cfg, n = CASES[name]
        config = dc.load_config(REPO / "configs" / f"benchmark39_{cfg}.cfg")
        inst, graph, params = config.instance, config.graph, config.params
        if n is not None:
            inst = dc.generate_instance(dc.InstanceSpec(n=n), 1)
            graph = dc.generate_graph(dc.GraphSpec(n=n, extra_edges=n // 2, directed=graph.directed), 1)
            params = replace(params, horizon=SCALE_K)
        schedule = dc.GraphSchedule(graph, config.q, 1, params.horizon)
        schedule.masks  # sampled once, before the timed runs
        best = float("inf")
        for _ in range(runs):
            start = time.perf_counter()
            dc.run(algorithm, inst, schedule, params)
            best = min(best, time.perf_counter() - start)
        costs[name] = best / params.horizon * 1e6
    return costs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("roots", nargs="+", metavar="SRC")
    ap.add_argument("--runs", type=int, default=15)
    ap.add_argument("--procs", type=int, default=8)
    ap.add_argument("--only", type=lambda names: names.split(","), default=list(CASES), help=", ".join(CASES))
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if set(args.only) - set(CASES) or len(args.roots) > 2:
        ap.error(f"cases must be among {', '.join(CASES)}, and at most two roots given")
    if args.child:
        print(json.dumps(measure(args.only, args.runs)))
        return 0
    roots = [str(Path(root).resolve()) for root in args.roots]
    samples = {root: [] for root in roots}
    for p in range(args.procs):
        for root in roots if p % 2 == 0 else roots[::-1]:
            cmd = [sys.executable, __file__, "--child", "--runs", str(args.runs), "--only", ",".join(args.only), root]
            out = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=root), capture_output=True, text=True, check=True)
            samples[root].append(json.loads(out.stdout))
    print(f"{'case':<12}" + "".join(f"{'us/step':>10}" for _ in roots) + (f"{'ratio':>8}" if len(roots) == 2 else ""))
    for name in args.only:
        cols = [min(s[name] for s in samples[root]) for root in roots]
        print(f"{name:<12}" + "".join(f"{c:>10.2f}" for c in cols) + (f"{cols[1] / cols[0]:>8.3f}" if len(cols) == 2 else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
