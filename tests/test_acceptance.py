"""Acceptance suite: one test per criterion, one printed verdict line each.

Run `pytest tests/test_acceptance.py -s` to see the verdict lines as the
criteria execute; without -s the assertions still gate the suite.
"""

import time
from pathlib import Path

import numpy as np

import dercoord as dc
from dercoord.experiment import InstanceSpec, load_config, run_experiment
from dercoord.network import minimal_connectivity_window
from reference import augmented_push_matrix, metropolis_weights, push_matrix

REPO = Path(__file__).resolve().parents[1]


def report(num: int, ok: bool, detail: str, elapsed: float, limit: float | None = None):
    verdict = "PASS" if ok else "FAIL"
    budget = "" if limit is None else f", limit {limit:.0f}s"
    print(f"[{verdict}] criterion {num}: {detail} ({elapsed:.1f}s{budget})")
    assert ok, f"criterion {num} failed: {detail}"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded its runtime limit"


def circulant(n, offsets):
    return dc.NominalGraph(n, [(i, (i + o) % n) for i in range(n) for o in offsets], True)


def test_criterion_1_oracle_correctness():
    t0 = time.perf_counter()
    worst_balance, worst_kkt = 0.0, 0.0
    for i in range(1000):
        inst = dc.generate_instance(InstanceSpec(n=(i % 50) + 1), seed=i)
        sol = dc.solve_bisection(inst)
        total = inst.total_load
        worst_balance = max(
            worst_balance, abs(sol.p_star.sum() - total) / (1 + abs(total))
        )
        worst_kkt = max(worst_kkt, sol.kkt_residual)
    ok = worst_balance <= 1e-9 and worst_kkt <= 1e-9

    # cross-check against an independent dense multiplier grid on small n
    worst_gap = 0.0
    for i in range(25):
        inst = dc.generate_instance(InstanceSpec(n=(i % 5) + 1), seed=10_000 + i)
        sol = dc.solve_bisection(inst)
        a, b = inst.cost.a, inst.cost.b
        lam_lo = float((2 * a * inst.p_lo + b).min()) - 1.0
        lam_hi = float((2 * a * inst.p_hi + b).max()) + 1.0
        grid = np.arange(lam_lo, lam_hi + 1e-4, 1e-4)
        p = np.clip((grid[:, None] - b) / (2 * a), inst.p_lo, inst.p_hi)
        best = int(np.argmin(np.abs(p.sum(axis=1) - inst.total_load)))
        worst_gap = max(worst_gap, float(np.abs(p[best] - sol.p_star).max()))
    ok = ok and worst_gap <= 1e-3
    report(
        1,
        ok,
        f"1000 oracle solves: balance<={worst_balance:.1e}, kkt<={worst_kkt:.1e}, "
        f"grid gap<={worst_gap:.1e}",
        time.perf_counter() - t0,
        limit=10,
    )


def test_criterion_2_fixed_points(case39_undirected, case39_directed):
    t0 = time.perf_counter()
    inst_u, gu = case39_undirected
    inst_d, gd = case39_directed
    worst = 0.0
    setups = (
        ("pd1", inst_u, gu, dict(s=0.01, xi=0.05, nhat=39.0)),
        ("directed", inst_d, gd, dict(s=0.02, xi=0.2, nhat=20.0)),
        ("robust", inst_d, gd, dict(s=0.02, xi=0.2, nhat=20.0)),
    )
    for alg, inst, graph, kw in setups:
        params = dc.AlgorithmParams(
            step=dc.ConstantStep(kw["s"]), xi=kw["xi"], nhat=kw["nhat"], gamma=0.9, horizon=1000
        )
        sol = dc.solve_bisection(inst, xi=kw["xi"], nhat=kw["nhat"])
        state = dc.equilibrium_state(alg, inst, graph, params, sol)
        sched = dc.GraphSchedule(graph, 0.0, 0, 1000)
        trace = dc.run(alg, inst, sched, params, init=state)
        drift = max(
            float(np.abs(trace.p - trace.p[0]).max()),
            float(np.abs(trace.consensus - trace.consensus[0]).max()),
        )
        worst = max(worst, drift)
    report(
        2,
        worst <= 1e-10,
        f"equilibrium traces constant over K=1000: max drift {worst:.1e} <= 1e-10",
        time.perf_counter() - t0,
        limit=5,
    )


def test_criterion_3_conservation(case39_undirected, case39_directed):
    t0 = time.perf_counter()
    inst_u, gu = case39_undirected
    inst_d, gd = case39_directed
    results = []
    params_u = dc.AlgorithmParams(step=dc.ConstantStep(0.01), xi=0.05, nhat=39.0, horizon=5000)
    tr = dc.run("pd1", inst_u, dc.GraphSchedule(gu, 0.2, 11, 5000), params_u)
    results.append(("pd1", tr.residuals["conservation"].max(), None))
    params_d = dc.AlgorithmParams(step=dc.ConstantStep(0.02), xi=0.2, nhat=20.0, horizon=5000)
    tr = dc.run("directed", inst_d, dc.GraphSchedule(gd, 0.2, 11, 5000), params_d)
    results.append(("directed", tr.residuals["conservation"].max(), tr.residuals["mass"].max()))
    params_r = dc.AlgorithmParams(
        step=dc.ConstantStep(0.02), xi=0.2, nhat=20.0, gamma=0.9, horizon=5000
    )
    for alg in ("robust", "virtual"):
        tr = dc.run(alg, inst_d, dc.GraphSchedule(gd, 0.2, 11, 5000), params_r)
        results.append((alg, tr.residuals["conservation"].max(), tr.residuals["mass"].max()))
    ok = all(c <= 1e-9 for _, c, _ in results) and all(
        m <= 1e-12 for _, _, m in results if m is not None
    )
    detail = "; ".join(
        f"{alg}: cons {c:.1e}" + ("" if m is None else f", mass {m:.1e}")
        for alg, c, m in results
    )
    report(3, ok, "K=5000 runs (pd2 carries no tracked aggregate): " + detail,
           time.perf_counter() - t0, limit=30)


def test_criterion_4_robust_virtual_equivalence():
    t0 = time.perf_counter()
    inst = dc.generate_instance(InstanceSpec(n=10), seed=5)
    graph = circulant(10, (1, 2, 3, 5))
    params = dc.AlgorithmParams(
        step=dc.ConstantStep(0.02), xi=0.2, nhat=10.0, gamma=0.9, horizon=200
    )
    worst = 0.0
    for q in (0.0, 0.2, 0.5):
        for seed in range(20):
            sched = dc.GraphSchedule(graph, q, seed, 200)
            trr = dc.run("robust", inst, sched, params)
            trv = dc.run("virtual", inst, sched, params)
            for field in ("p", "consensus", "y", "v"):
                worst = max(worst, float(np.abs(getattr(trr, field) - getattr(trv, field)).max()))
            worst = max(worst, float(np.abs(trr.consensus * trr.v - trv.consensus * trv.v).max()))
    report(
        4,
        worst <= 1e-12,
        f"20 seeds x q in (0, 0.2, 0.5), K=200: real coordinates agree to {worst:.1e}",
        time.perf_counter() - t0,
        limit=10,
    )


def _run_shipped(name: str, out_dir) -> "dc.experiment.ExperimentResult":
    return run_experiment(load_config(REPO / "configs" / name, out_override=out_dir))


def _trace_column(out_dir, seed: int, column: str) -> np.ndarray:
    """One column of a seed's trace CSV (17 significant digits, so every value round-trips)."""
    return np.genfromtxt(Path(out_dir) / f"trace_{seed}.csv", delimiter=",", names=True)[column]


def test_criterion_5_pd1_geometric_convergence(tmp_path):
    t0 = time.perf_counter()
    result = _run_shipped("benchmark39_pd1.cfg", tmp_path)
    assert result.config.params.horizon <= 20_000
    ok = result.ok
    details = []
    for outcome in result.outcomes:
        err = _trace_column(tmp_path, outcome.seed, "err_p")
        reached = bool(np.any(err <= 1e-6 * err[0]))
        fit_ok = outcome.fitted_rate < 1.0 and outcome.fit_r_squared > 0.95
        ok = ok and reached and fit_ok
        details.append(f"seed {outcome.seed}: a={outcome.fitted_rate:.4f} R2={outcome.fit_r_squared:.3f}")
    report(
        5,
        ok,
        "pd1 s=0.01 xi=0.05 q=0.2 reaches 1e-6 rel within K<=2e4 on 5/5 seeds; " + "; ".join(details),
        time.perf_counter() - t0,
        limit=60,
    )


def test_criterion_6_pd1_beats_pd2(tmp_path):
    t0 = time.perf_counter()
    pd1 = _run_shipped("benchmark39_pd1.cfg", tmp_path / "pd1")
    pd2 = _run_shipped("benchmark39_pd2.cfg", tmp_path / "pd2")
    assert pd1.ok and pd2.ok
    finals_pd1 = {o.seed: _trace_column(tmp_path / "pd1", o.seed, "err_p")[-1] for o in pd1.outcomes}
    finals_pd2 = {o.seed: _trace_column(tmp_path / "pd2", o.seed, "err_p")[-1] for o in pd2.outcomes}
    ok = set(finals_pd1) == set(finals_pd2) and all(
        finals_pd1[s] < finals_pd2[s] for s in finals_pd1
    )
    gap = min(finals_pd2[s] / finals_pd1[s] for s in finals_pd1)
    report(
        6,
        ok,
        f"pd1 final error < pd2 final error at equal K on all seeds (min ratio {gap:.1e})",
        time.perf_counter() - t0,
    )


def test_criterion_7_robust_geometric_convergence(tmp_path):
    t0 = time.perf_counter()
    result = _run_shipped("benchmark39_robust.cfg", tmp_path)
    ok = result.ok
    details = []
    for outcome in result.outcomes:
        err = _trace_column(tmp_path, outcome.seed, "err_p")
        rel = err[-1] / err[0]
        fit_ok = outcome.fitted_rate < 1.0 and outcome.fit_r_squared > 0.95
        ok = ok and rel <= 1e-5 and fit_ok
        details.append(
            f"seed {outcome.seed}: a={outcome.fitted_rate:.4f} R2={outcome.fit_r_squared:.3f} rel={rel:.1e}"
        )
    report(
        7,
        ok,
        "robust gamma=0.9 nhat=20 s=0.02 xi=0.2 q=0.2 on 5/5 seeds; " + "; ".join(details),
        time.perf_counter() - t0,
        limit=120,
    )


def test_criterion_8_push_weight_floor():
    t0 = time.perf_counter()
    graph = dc.NominalGraph(3, [(0, 1), (1, 2), (2, 0)], True)
    inst = dc.generate_instance(InstanceSpec(n=3), seed=0)
    checked = 0
    ok = True
    worst_margin = np.inf
    for run_idx in range(100):
        q = (0.05, 0.1, 0.15)[run_idx % 3]
        gamma = (0.9, 0.6)[run_idx % 2]
        params = dc.AlgorithmParams(
            step=dc.ConstantStep(0.02), xi=0.2, nhat=3.0, gamma=gamma, horizon=80
        )
        sched = dc.GraphSchedule(graph, q, 1000 + run_idx, 80)
        trace = dc.run("virtual", inst, sched, params)
        B = minimal_connectivity_window(sched)
        assert B is not None, "realized schedule lost connectivity entirely"
        N = 6
        tau = min(gamma, 1 - gamma) / 3
        bound = (1 - gamma) / 3 * tau ** (N * (2 * B - 1))
        min_v = float(trace.residuals["min_v"][1:].min())
        ok = ok and min_v >= bound
        if bound > 0:
            worst_margin = min(worst_margin, min_v / bound)
        checked += 1
    report(
        8,
        ok and checked == 100,
        f"min_i v_i[k] >= (1-gamma)/n * tau^(N(2B-1)) in 100 runs (min margin {worst_margin:.1e})",
        time.perf_counter() - t0,
    )


def test_criterion_9_matrix_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    graphs_u = [
        dc.generate_graph(dc.GraphSpec(n=int(rng.integers(3, 13)), extra_edges=3, directed=False), s)
        for s in range(10)
    ]
    graphs_d = [
        dc.generate_graph(dc.GraphSpec(n=int(rng.integers(3, 13)), extra_edges=3, directed=True), s)
        for s in range(10)
    ]
    count = 0
    ok = True
    for i in range(40_000):
        g = graphs_u[i % 10]
        sched = dc.GraphSchedule(g, 0.3, i, 1)
        W = metropolis_weights(g, sched.active_mask(0))
        ok = ok and np.array_equal(W, W.T)
        ok = ok and np.abs(W.sum(axis=0) - 1).max() <= 1e-12
        ok = ok and np.abs(W.sum(axis=1) - 1).max() <= 1e-12
        ok = ok and W.min() >= 0 and np.diag(W).min() > 0
        count += 1
    for i in range(30_000):
        g = graphs_d[i % 10]
        sched = dc.GraphSchedule(g, 0.3, i, 1)
        P = push_matrix(g, sched.active_mask(0))
        ok = ok and np.abs(P.sum(axis=0) - 1).max() <= 1e-12
        ok = ok and P.min() >= 0 and np.diag(P).min() > 0
        count += 1
    for i in range(30_000):
        g = graphs_d[i % 10]
        gamma = (0.9, 0.5, 0.25)[i % 3]
        sched = dc.GraphSchedule(g, 0.3, i, 1)
        P = augmented_push_matrix(g, sched.active_mask(0), gamma)
        ok = ok and np.abs(P.sum(axis=0) - 1).max() <= 1e-12
        nz = P[P > 0]
        tau = min(gamma, 1 - gamma) / g.n
        ok = ok and nz.min() >= tau - 1e-15 and np.diag(P).min() > 0
        count += 1
    report(
        9,
        ok and count == 100_000,
        "1e5 randomized W/P/augmented constructions pass stochasticity and floors",
        time.perf_counter() - t0,
        limit=20,
    )


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        """
[instance]
n = 8
seed = 3

[graph]
mode = directed
extra_edges = 3

[algorithm]
id = robust
s = 0.05
xi = 0.5
nhat = 8
gamma = 0.9

[run]
K = 400
q = 0.2
seeds = 1,2
"""
    )
    for d in ("a", "b"):
        run_experiment(load_config(cfg, out_override=tmp_path / d))
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("trace_1.csv", "trace_2.csv", "summary.csv")
    )
    report(
        10,
        same,
        "repeated executions produce byte-identical trace and summary CSVs",
        time.perf_counter() - t0,
    )
