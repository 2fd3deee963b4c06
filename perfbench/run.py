"""dercoord benchmark: one workload per call, a closed loop of checked batches.

    python3 perfbench/run.py --workload paper39 --seed 1 --seconds 20 --trace 0

Workloads (see `workloads.py`): ``paper39``, ``scale3000``, ``certify39``.

A call runs in three steps, from the root of a source checkout:

1. Set-up: SETUP_REPEATS fresh interpreters (`probe.py`) each time
   ``import dercoord`` from ``src/`` and the building of the workload's
   inputs; `setup_s` is the median of their sums, scaled (see below).
2. Measurement: this process loads the inputs and runs one warm-up batch
   (both untimed), then identical batches back to back, each starting after
   the previous one ends, until ``--seconds`` have passed. A batch runs from the first call into
   dercoord until every output is written and checked; `wall_s` is the
   median batch time, scaled.
3. Report: human-readable lines (provenance, raw and scaled timings with
   sample counts, invariant budgets, trace digest, every metric by name and
   unit), then, as the last line, one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

Scaled times: neighbours on a shared machine slow every process on it by
up to 2x for stretches longer than a run. Each timed segment of a batch (a
second or less where the work allows) is therefore preceded by a fixed
calibration kernel (`workloads.calibration_s`), and its time is multiplied
by ``workloads.REFERENCE_S`` over the kernel's time: seconds at the speed
where the kernel takes REFERENCE_S. Raw times are printed beside them.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` untraced and traced batches alternate: the traced ones
run with `tracer.Tracer` installed and give the per-layer metrics, and the
untraced ones give the traced-versus-untraced wall time. End-to-end numbers
only ever come from untraced batches. The spans of the first traced batch
are written to ``.perfbench_out/spans_<workload>_<seed>.csv``.

BLAS threads are capped at the number of usable CPUs. The machine is
assumed shared and untuned; nothing about it is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    return env


def run_probes(workload: str, seed: int, trace: int, workdir: Path) -> list[dict]:
    samples = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "probe.py"), "--root", str(ROOT),
               "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
        if i == 0 and workload == "scale3000":
            cmd += ["--write", str(workdir)]
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dercoord" / "__init__.py").is_file():
        return fail(f"no dercoord sources under {ROOT / 'src'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    for var in BLAS_VARS:
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        probes = run_probes(args.workload, args.seed, args.trace, workdir)
        import measure  # imports numpy and dercoord: after the BLAS cap

        outcome = measure.run_workload(ROOT, args.workload, args.seed, args.seconds,
                                       bool(args.trace), workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        outcome.spans_path = OUT / f"spans_{args.workload}_{args.seed}.csv"
        outcome.tracer.write(outcome.spans_path)
    values = measure.metric_values(outcome, probes, bool(args.trace))
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[section]}
    missing = sorted(set(wanted) - set(values))
    if missing:
        return fail(f"metrics not measured: {missing}")

    import dercoord
    import numpy
    import scipy

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"provenance: git {git_sha()}; nproc {NPROC}; BLAS threads capped at {NPROC}; "
          f"python {platform.python_version()}; numpy {numpy.__version__}; scipy {scipy.__version__}; "
          f"dercoord {dercoord.__version__}; prng {dercoord.network.PRNG_VERSION}")
    print("machine: shared with other workloads and untuned (no pinning, no frequency or "
          "memory settings); expect run-to-run noise")
    measure.print_report(outcome, probes, values, wanted)
    result = {
        "correct": outcome.tally.failed == 0,
        "attempted": outcome.tally.attempted,
        "failed": outcome.tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
