"""Self-tests of the benchmark harness (checks, counters, tracer hygiene).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import dercoord as dc  # noqa: E402
import measure  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

K = 4


@pytest.fixture
def tiny():
    graph = dc.NominalGraph(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    inst = dc.generate_instance(dc.InstanceSpec(n=3), seed=1)
    params = dc.AlgorithmParams(step=dc.ConstantStep(0.02), xi=0.2, nhat=3.0, gamma=0.9, horizon=K)
    schedule = dc.GraphSchedule(graph, q=0.2, seed=5, horizon=K)
    return inst, schedule, params


def test_perturbed_trace_fails_its_check_and_counts_as_failed(tiny):
    inst, schedule, params = tiny
    robust = dc.run("robust", inst, schedule, params)
    virtual = dc.run("virtual", inst, schedule, params)
    budget = dc.BUDGETS["conservation"]
    assert workloads.equivalence_problems(robust, virtual, budget) == []

    virtual.p[2, 1] += 1e-6
    tally = workloads.Tally()
    tally.record("seed 5", workloads.equivalence_problems(robust, virtual, budget))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "robust/virtual p gap" in tally.failures[0]


def test_oracle_certificate_fails_for_a_shifted_multiplier():
    inst = dc.generate_instance(dc.InstanceSpec(n=50), seed=3)
    sol = dc.solve_bisection(inst, xi=0.2, nhat=20.0)
    assert workloads.oracle_certificate(inst, sol, 0.2, 20.0, 1e-12) == []
    shifted = dataclasses.replace(sol, lambda_star=sol.lambda_star * (1 + 1e-6))
    assert workloads.oracle_certificate(inst, shifted, 0.2, 20.0, 1e-12) != []


def test_mask_counters_are_exact_on_a_tiny_schedule(tiny, monkeypatch):
    # An independent tally of every sampling call is the reference; the
    # harness's ratios must equal it exactly, however often the package
    # samples a step.
    inst, schedule, params = tiny
    seen = []
    sample = dc.GraphSchedule.active_mask

    def counted(self, k):
        seen.append((self.digest(), k))
        return sample(self, k)

    monkeypatch.setattr(dc.GraphSchedule, "active_mask", counted)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        dc.algorithms.run("robust", inst, schedule, params)
        dc.network.minimal_connectivity_window(schedule, K)
        for k in range(K):
            schedule.active_mask(k)
        layer = measure.layer_metrics(tracer)
    finally:
        tracer.remove()
    calls = len(seen)
    assert calls >= K
    assert layer["network.active_mask.calls"] == calls
    assert layer["network.active_mask.calls_per_step"] == calls / K
    assert layer["network.active_mask.useful_ratio"] == len(set(seen)) / calls
    assert layer["algorithms.run.agent_steps"] == 3 * K


def test_tracer_restores_every_target():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = len(tracing.TARGETS) - len(tracer.missing)
        assert len(tracing.leftover_wrappers()) == installed
    finally:
        tracer.remove()
    assert tracing.leftover_wrappers() == []


def test_wrapper_left_installed_is_detected_and_counted(monkeypatch, tmp_path):
    stray = tracing.Tracer()

    def leaky_batch():
        if not tracing.leftover_wrappers():
            stray.install()
        return workloads.BatchResult()

    monkeypatch.setattr(measure, "load_measure_inputs", lambda *a: leaky_batch)
    try:
        outcome = measure.run_workload(tmp_path, "paper39", 1, 0.0, True, tmp_path)
    finally:
        stray.remove()
    assert outcome.tally.failed == 1
    assert outcome.tally.failures[-1].startswith("tracing hygiene: wrappers installed")


def test_reported_metrics_match_benchmark_json(monkeypatch, tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    monkeypatch.setattr(measure, "load_measure_inputs", lambda *a: workloads.BatchResult)
    outcome = measure.run_workload(tmp_path, "paper39", 1, 0.0, True, tmp_path)
    assert outcome.tally.failed == 0
    probes = [{"import_s": 0.5, "build_s": 0.1, "kernel_s": 1e-3, "layers": {}}]
    for section, trace in (("end_to_end", False), ("per_layer", True)):
        values = measure.metric_values(outcome, probes, trace)
        assert set(values) == {m["name"] for m in spec[section]}
        assert all(np.isfinite(v) for v in values.values())
