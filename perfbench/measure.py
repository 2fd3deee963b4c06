"""The measuring loop of `run.py`: batches, checks, tracing and metrics."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from dercoord import experiment

import tracer as tracing
import workloads


@dataclass
class Outcome:
    """Everything one run measured."""

    tally: workloads.Tally = field(default_factory=workloads.Tally)
    # per batch: raw and calibration-scaled wall time, untraced and traced
    untraced_raw: list[float] = field(default_factory=list)
    untraced_scaled: list[float] = field(default_factory=list)
    traced_raw: list[float] = field(default_factory=list)
    traced_scaled: list[float] = field(default_factory=list)
    layers: list[dict[str, float]] = field(default_factory=list)  # one per traced batch
    budgets: list = field(default_factory=list)  # of the first batch
    digest: str = ""
    csv_bytes: int = 0
    tracer: tracing.Tracer = field(default_factory=tracing.Tracer)
    spans_path: Path | None = None


def load_measure_inputs(root: Path, workload: str, seed: int, workdir: Path):
    """Inputs for this process: a batch callable taking no arguments."""
    if workload == "paper39":
        configs = workloads.build_inputs(root, workload, seed)
        return lambda: workloads.paper39_batch(root, configs, workdir)
    if workload == "certify39":
        config = workloads.build_inputs(root, workload, seed)
        return lambda: workloads.certify39_batch(config, seed)
    if workload == "scale3000":
        cases = workloads.scale_case_paths(workdir)
        inst, undirected = experiment.load_case(cases[False])
        _, directed = experiment.load_case(cases[True])
        graphs = {False: undirected, True: directed}
        params = workloads.scale_params(root, inst.n)
        return lambda: workloads.scale3000_batch(inst, graphs, params, seed)
    raise ValueError(f"unknown workload {workload!r}")


def layer_metrics(tracer: tracing.Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced batch."""
    layers = tracer.layer_summary()
    c = tracer.counters

    def get(name: str, quantity: str) -> float:
        return layers.get(name, {}).get(quantity, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    mask_calls = get("network.active_mask", "calls")
    run_busy = get("algorithms.run", "busy_s")
    agent_steps = c.get("algorithms.run.agent_steps", 0)
    return {
        "network.active_mask.calls": mask_calls,
        "network.active_mask.busy_s": get("network.active_mask", "busy_s"),
        "network.active_mask.calls_per_step": ratio(mask_calls, c.get("algorithms.run.steps", 0)),
        "network.active_mask.useful_ratio": ratio(c.get("network.active_mask.distinct", 0), mask_calls),
        "network.mixing.calls": get("network.mixing", "calls"),
        "network.mixing.busy_s": get("network.mixing", "busy_s"),
        "network.mixing.bytes_computed": c.get("network.mixing.bytes_computed", 0),
        "network.mixing.fill": ratio(c.get("network.mixing.nonzeros", 0), c.get("network.mixing.entries", 0)),
        "network.connectivity.calls": get("network.connectivity", "calls"),
        "network.connectivity.busy_s": get("network.connectivity", "busy_s"),
        "network.minimal_connectivity_window.busy_s": get("network.minimal_connectivity_window", "busy_s"),
        "algorithms.run.calls": get("algorithms.run", "calls"),
        "algorithms.run.busy_s": run_busy,
        "algorithms.run.self_s": get("algorithms.run", "self_s"),
        "algorithms.run.agent_steps": agent_steps,
        "algorithms.run.agent_steps_per_s": ratio(agent_steps, run_busy),
        "algorithms.step.calls": get("algorithms.step", "calls"),
        "algorithms.step.busy_s": get("algorithms.step", "busy_s"),
        "algorithms.step.self_s": get("algorithms.step", "self_s"),
        "problem.project_box.busy_s": get("problem.project_box", "busy_s"),
        "problem.cost_grad.busy_s": get("problem.cost_grad", "busy_s"),
        "oracle.solve_bisection.calls": get("oracle.solve_bisection", "calls"),
        "oracle.solve_bisection.busy_s": get("oracle.solve_bisection", "busy_s"),
        "oracle.solve_bisection.iterations": c.get("oracle.solve_bisection.iterations", 0),
        "metrics.convergence_error.busy_s": get("metrics.convergence_error", "busy_s"),
        "metrics.fit_rate.busy_s": get("metrics.fit_rate", "busy_s"),
        "metrics.invariant_report.self_s": get("metrics.invariant_report", "self_s"),
        "experiment.run_experiment.self_s": get("experiment.run_experiment", "self_s"),
        "cli.main.self_s": get("cli.main", "self_s"),
    }


# Per-layer metrics that must repeat exactly from batch to batch.
COUNT_SUFFIXES = (".calls", ".calls_per_step", ".useful_ratio", ".bytes_computed", ".fill",
                  ".agent_steps", ".iterations")


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> Outcome:
    """A warm-up batch, then batches back to back until `seconds` have passed.

    The warm-up batch is checked but not timed: it pays first-call costs
    (lazy imports, first large allocations) that later batches do not. With
    `trace`, untraced and traced batches alternate. Every batch is checked,
    and must reproduce the first batch's trace digest.
    """
    outcome = Outcome()
    batch = load_measure_inputs(root, workload, seed, workdir)
    hygiene: list[str] = []

    def one(traced: bool, timed: bool = True) -> None:
        if traced:
            outcome.tracer.reset()
            outcome.tracer.install()
        try:
            result = batch()
        finally:
            if traced:
                outcome.tracer.remove()
        left = tracing.leftover_wrappers()
        if left:
            hygiene.append(f"wrappers installed after a {'traced' if traced else 'untraced'} batch: {left}")
        if timed:
            kind = "traced" if traced else "untraced"
            getattr(outcome, f"{kind}_raw").append(result.segment.raw_s)
            getattr(outcome, f"{kind}_scaled").append(result.segment.scaled_s)
        outcome.tally.merge(result.tally)
        digest, csv_bytes = result.digest()
        if not outcome.digest:
            outcome.budgets = result.budgets
            outcome.digest, outcome.csv_bytes = digest, csv_bytes
        elif digest != outcome.digest:
            outcome.tally.record("determinism", ["a batch's trace digest differs from the first batch's"])
        if traced:
            outcome.layers.append(layer_metrics(outcome.tracer))
            if not outcome.tracer.kept:
                outcome.tracer.keep_spans()

    one(False, timed=False)
    start = time.perf_counter()
    while True:
        one(False)
        if trace:
            one(True)
        if time.perf_counter() - start >= seconds:
            break
    if trace:
        counts = [{k: v for k, v in layer.items() if k.endswith(COUNT_SUFFIXES)}
                  for layer in outcome.layers]
        if any(c != counts[0] for c in counts):
            outcome.tally.record("trace counts", ["per-layer counts differ between traced batches"])
    outcome.tally.record("tracing hygiene", hygiene)
    return outcome


def metric_values(outcome: Outcome, probes: list[dict], trace: bool) -> dict[str, float]:
    """Metric name -> value for the section the run reports."""
    violations = sum(1 for b in outcome.budgets if not b.passed)
    vacuous = sum(1 for b in outcome.budgets if b.vacuous)
    if not trace:
        return {
            "wall_s": statistics.median(outcome.untraced_scaled),
            "setup_s": statistics.median(scaled_setup_s(probes)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": (outcome.tally.attempted - outcome.tally.failed) / outcome.tally.attempted,
        }
    # Counts repeat from batch to batch (checked in run_workload): take the
    # first batch's; times are medians over the traced batches.
    values = {key: first if key.endswith(COUNT_SUFFIXES)
              else statistics.median(layer[key] for layer in outcome.layers)
              for key, first in outcome.layers[0].items()}
    for name in tracing.SETUP_SPANS:
        values[f"{name}.busy_s"] = statistics.median(p["layers"].get(name, 0.0) for p in probes)
    values.update({
        "package.import_s": statistics.median(p["import_s"] for p in probes),
        "metrics.budget_violations": violations,
        "metrics.vacuous_budgets": vacuous,
        "experiment.csv_bytes": outcome.csv_bytes,
        "tracing.untraced_wall_s": statistics.median(outcome.untraced_scaled),
        "tracing.traced_wall_s": statistics.median(outcome.traced_scaled),
    })
    values["tracing.overhead_s"] = values["tracing.traced_wall_s"] - values["tracing.untraced_wall_s"]
    return values


def scaled_setup_s(probes: list[dict]) -> list[float]:
    """Each probe's import plus build time, scaled to reference speed."""
    return [(p["import_s"] + p["build_s"]) * workloads.REFERENCE_S / p["kernel_s"] for p in probes]


def tail_percentile(samples: list[float]):
    """Highest of p50/p75/p90/p95/p99/p99.9 with at least ten samples above it."""
    data = sorted(samples)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        rank = int(len(data) * p / 100.0)  # index of the nearest-rank value
        if len(data) - rank - 1 >= 10:
            best = (p, data[rank])
    return best


def describe(samples: list[float], unit: str = "s") -> str:
    """Median, sample count and the highest percentile with 10 samples beyond it."""
    tail = tail_percentile(samples)
    tail_text = f"p{tail[0]:g} {tail[1]:.6g} {unit}" if tail else "no percentile has 10 samples beyond it"
    return f"median {statistics.median(samples):.6g} {unit} (n={len(samples)}; {tail_text})"


def print_report(outcome: Outcome, probes: list[dict], values: dict[str, float],
                 wanted: dict[str, str]) -> None:
    for kind in ("untraced", "traced"):
        raw, scaled = getattr(outcome, f"{kind}_raw"), getattr(outcome, f"{kind}_scaled")
        if raw:
            print(f"{kind} batch wall time: {describe(raw)}")
            print(f"  scaled to reference speed: {describe(scaled)}")
            print(f"  each batch, raw/scaled: {' '.join(f'{r:.3f}/{c:.3f}' for r, c in zip(raw, scaled))}")
    print(f"set-up wall time: {describe([p['import_s'] + p['build_s'] for p in probes])}")
    print(f"  of which import: {describe([p['import_s'] for p in probes])}")
    print(f"  scaled to reference speed: {describe(scaled_setup_s(probes))}")
    rate = outcome.tally.failed / outcome.tally.attempted
    print(f"operations: {outcome.tally.attempted} attempted, {outcome.tally.failed} failed "
          f"(failed_share {rate:.6g})")
    for failure in outcome.tally.failures[:20]:
        print(f"  FAILED {failure}")
    print(f"trace digest (sha256 over trace arrays and CSVs of one batch): {outcome.digest}")
    print(f"csv bytes per batch: {outcome.csv_bytes}")
    groups: dict[tuple[str, str], list] = {}
    for b in outcome.budgets:
        groups.setdefault((b.label.split("/")[0].split(" ")[0], b.name), []).append(b)
    violations = sum(1 for b in outcome.budgets if not b.passed)
    vacuous = sum(1 for b in outcome.budgets if b.vacuous)
    print(f"invariant budgets per batch: {len(outcome.budgets)} checks, {violations} violated, "
          f"{vacuous} vacuous (budget 0.0); not counted as failed operations")
    for (alg, name), checks in sorted(groups.items()):
        observed = [c.value for c in checks]
        budgets = sorted({c.budget for c in checks})
        print(f"  {alg:<9} {name:<13} value {min(observed):.3g}..{max(observed):.3g} "
              f"budget {'/'.join(f'{x:.3g}' for x in budgets)}: "
              f"{sum(not c.passed for c in checks)}/{len(checks)} violated, "
              f"{sum(c.vacuous for c in checks)}/{len(checks)} vacuous")
    if outcome.spans_path is not None:
        print(f"spans: {outcome.spans_path} ({len(outcome.tracer.kept)} spans)")
        if outcome.tracer.missing:
            print(f"tracer targets not found: {outcome.tracer.missing}")
        by_name: dict[str, list[float]] = {}
        for name, s0, s1, _, _ in outcome.tracer.kept:
            by_name.setdefault(name, []).append(s1 - s0)
        for name, durations in sorted(by_name.items()):
            print(f"  span {name:<36} {describe(durations)}")
    for name, unit in wanted.items():
        print(f"metric {name} = {values[name]!r} {unit}")
