"""One set-up sample in a fresh interpreter: import dercoord, build inputs.

Run by `run.py`, never imported. Prints one JSON object:
``{"import_s": ..., "build_s": ..., "kernel_s": ..., "layers": {span: busy_s}}``
where ``kernel_s`` is the calibration kernel's time before the build. With
``--trace 1`` the set-up calls (case load, instance and graph generation)
are traced; ``--write DIR`` stores generated scale3000 inputs as case files
after the timing ends.

    python3 perfbench/probe.py --root . --workload scale3000 --seed 1 --trace 0
"""

import time

_t0 = time.perf_counter()
import dercoord  # noqa: E402  (the import is what is timed)

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write")
    args = parser.parse_args()
    root = Path(args.root).resolve()
    if Path(dercoord.__file__).resolve().parent != root / "src" / "dercoord":
        print(f"dercoord imported from {dercoord.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = tracing.Tracer([t for t in tracing.TARGETS if t[3] in tracing.SETUP_SPANS])
        tracer.install()
    kernel_s = workloads.calibration_s()
    try:
        t0 = time.perf_counter()
        inputs = workloads.build_inputs(root, args.workload, args.seed)
        build_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.remove()
    layers = {}
    if tracer is not None:
        layers = {name: entry["busy_s"] for name, entry in tracer.layer_summary().items()}
    if args.write:
        workloads.write_scale_cases(inputs, Path(args.write))
    print(json.dumps({"import_s": IMPORT_S, "build_s": build_s, "kernel_s": kernel_s,
                      "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
