"""Command-line entry point.

Subcommands:

* ``run <config> [--out DIR] [--seeds LIST]`` -- execute an experiment
  config, writing per-seed trace CSVs and a summary.
* ``solve <case>`` -- print the exact dispatch and multiplier for a case.
* ``validate <case>`` -- parse and validate a case file.

Exit codes follow the kind of error, not the command:

* 0 -- success;
* 2 -- bad input: a missing or malformed file, an invalid config, case or
  parameter, or a problem the oracle cannot solve. Every package error
  that escapes a command is one of these, since `run` records each seed's
  own errors instead of raising them. Nothing is written: a failing
  `run` stops before it makes its output directory;
* 3 -- `run` finished, but some seed failed; each failure is printed as
  ``seed <s>: error: <message>`` and that seed's summary row reads
  ``error``.
"""

from __future__ import annotations

import argparse
import sys

from .errors import DercoordError
from .experiment import _fmt, load_case, load_config, run_experiment
from .oracle import solve_bisection


def _cmd_run(args) -> int:
    config = load_config(args.config, out_override=args.out, seeds_override=args.seeds)
    result = run_experiment(config)
    for outcome in result.outcomes:
        if outcome.status == "ok":
            print(
                f"seed {outcome.seed}: ok  final_error={_fmt(outcome.final_error)}  "
                f"rate={_fmt(outcome.fitted_rate)}"
            )
            for note in outcome.warnings:
                print(f"seed {outcome.seed}: warning: {note}")
        else:
            print(f"seed {outcome.seed}: error: {outcome.message}", file=sys.stderr)
    print(f"artifacts written to {config.out_dir}")
    return 0 if result.ok else 3


def _cmd_solve(args) -> int:
    inst, _graph = load_case(args.case)
    sol = solve_bisection(inst, xi=args.xi, nhat=args.nhat)
    print(f"lambda_star = {_fmt(sol.lambda_star)}")
    print(f"kkt_residual = {_fmt(sol.kkt_residual)}")
    print("p_star:")
    for i, val in enumerate(sol.p_star):
        print(f"  {i} {_fmt(val)}")
    return 0


def _cmd_validate(args) -> int:
    inst, graph = load_case(args.case)
    mode = "directed" if graph.directed else "undirected"
    print(
        f"ok: {inst.n} agents, {graph.m} {mode} links, "
        f"total load {_fmt(inst.total_load)}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dercoord",
        description="Distributed economic dispatch simulator over time-varying graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to the experiment config file")
    p_run.add_argument("--out", help="output directory (overrides [output] dir)")
    p_run.add_argument("--seeds", help="comma-separated seed list (overrides [run] seeds)")
    p_run.set_defaults(fn=_cmd_run)

    p_solve = sub.add_parser("solve", help="print the exact solution of a case")
    p_solve.add_argument("case", help="path to a case file")
    p_solve.add_argument("--xi", type=float, default=1.0, help="multiplier scaling (default 1)")
    p_solve.add_argument("--nhat", type=float, default=None, help="size estimate (default n)")
    p_solve.set_defaults(fn=_cmd_solve)

    p_val = sub.add_parser("validate", help="parse and validate a case file")
    p_val.add_argument("case", help="path to a case file")
    p_val.set_defaults(fn=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DercoordError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
