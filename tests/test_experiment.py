import configparser
import dataclasses
import io
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dercoord as dc
from dercoord.cli import main as cli_main
from dercoord.errors import (
    CaseParseError,
    ConfigError,
    GeneratorSpecError,
    InvalidCostError,
    InvalidInstanceError,
)
from dercoord.experiment import (
    _TAG_GRAPH,
    TRACE_COLUMNS,
    InstanceSpec,
    _generate_instance,
    _stream,
    _trace_csv,
    format_case,
    load_config,
    parse_case,
    run_experiment,
)
from reference import reference_trace_csv

RESIDUAL_KEYS = ("consensus_spread", "conservation", "mass", "min_v")
# float64 bit patterns: any, plus +-0, the extreme subnormals, +-inf and NaNs of either sign
FLOAT_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([0, 1 << 63, 1, (1 << 63) | 1, 0x000FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000,
                     0xFFF0000000000000, 0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001]),
)


class TestCaseFiles:
    def test_minimal_single_agent_case(self):
        text = "1\n1.0 0.0 0.0 0.0 10.0 5.0\n1 0 undirected\n"
        inst, graph = parse_case(text)
        assert inst.n == 1 and graph.n == 1 and graph.m == 0

    def test_inverted_bounds_point_at_line(self):
        text = "2\n1.0 0 0 0 5 2\n1.0 0 0 6 5 2\n2 1 undirected\n0 1\n"
        with pytest.raises(InvalidInstanceError, match="line 3"):
            parse_case(text)

    def test_malformed_agent_line(self):
        text = "1\n1.0 0.0 oops 0.0 10.0 5.0\n1 0 undirected\n"
        with pytest.raises(CaseParseError) as err:
            parse_case(text)
        assert err.value.line == 2

    def test_graph_agent_count_mismatch(self):
        text = "1\n1.0 0 0 0 10 5\n2 1 undirected\n0 1\n"
        with pytest.raises(CaseParseError):
            parse_case(text)

    def test_round_trip_identity(self, tmp_path):
        inst = dc.generate_instance(InstanceSpec(n=5), seed=4)
        graph = dc.generate_graph(dc.GraphSpec(n=5, extra_edges=2, directed=True), 4)
        path = tmp_path / "case.txt"
        dc.write_case(path, inst, graph)
        inst2, graph2 = dc.load_case(path)
        np.testing.assert_array_equal(inst2.loads, inst.loads)
        np.testing.assert_array_equal(inst2.cost.a, inst.cost.a)
        np.testing.assert_array_equal(inst2.p_hi, inst.p_hi)
        assert graph2.edges == graph.edges and graph2.directed == graph.directed
        assert format_case(inst2, graph2) == format_case(inst, graph)

    def test_shipped_cases_valid(self, case39_undirected, case39_directed):
        inst, gu = case39_undirected
        _, gd = case39_directed
        assert inst.n == 39 and not gu.directed and gd.directed

    def test_shipped_case_write_then_read_identity(self, repo_root, case39_directed):
        inst, graph = case39_directed
        text = (repo_root / "cases" / "case39_directed.txt").read_text(encoding="utf-8")
        assert format_case(inst, graph) == text


class TestGenerators:
    def test_same_spec_and_seed_identical(self):
        spec = InstanceSpec(n=6)
        a = dc.generate_instance(spec, 9)
        b = dc.generate_instance(spec, 9)
        np.testing.assert_array_equal(a.loads, b.loads)
        np.testing.assert_array_equal(a.cost.a, b.cost.a)

    def test_degenerate_ranges_give_point_instance(self):
        spec = InstanceSpec(
            n=3,
            a_range=(1.0, 1.0),
            load_range=(1.0, 1.0),
            lo_range=(0.0, 0.0),
            hi_range=(2.0, 2.0),
        )
        inst = dc.generate_instance(spec, 0)
        np.testing.assert_array_equal(inst.loads, 1.0)
        np.testing.assert_array_equal(inst.cost.a, 1.0)

    def test_batch_of_seeds_all_feasible(self):
        spec = InstanceSpec(n=12)
        for seed in range(100):
            inst = dc.generate_instance(spec, seed)
            assert inst.p_lo.sum() <= inst.total_load <= inst.p_hi.sum()

    def test_impossible_spec_raises_after_rejections(self):
        # loads always exceed the total capacity: every draw is infeasible
        spec = InstanceSpec(n=2, load_range=(5.0, 6.0), hi_range=(1.0, 2.0))
        with pytest.raises(GeneratorSpecError):
            dc.generate_instance(spec, 1)

    def test_rejection_count_recorded(self):
        _, attempts = _generate_instance(InstanceSpec(n=4), 2)
        assert attempts >= 1

    @pytest.mark.parametrize("name,bounds", [
        ("a_range", (np.nan, 1.0)), ("load_range", (1.0, np.nan)), ("hi_range", (1.0, np.inf)),
        ("b_range", (-np.inf, 0.0)), ("lo_range", (1.0, 0.0)),
    ])
    def test_spec_ranges_must_be_finite_and_ordered(self, name, bounds):
        with pytest.raises(GeneratorSpecError, match=rf"{name}=\(.*\) must be finite with low <= high"):
            InstanceSpec(n=3, **{name: bounds})

    def test_generated_graphs_connected_and_sized(self):
        for seed in range(20):
            g = dc.generate_graph(dc.GraphSpec(n=9, extra_edges=3, directed=True), seed)
            assert g.n == 9 and g.m >= 9  # ring plus oriented chords

    @pytest.mark.parametrize("n", [*range(1, 40), 57, 100, 211])
    def test_chords_equal_candidate_list_construction(self, n):
        for extra, directed, seed in itertools.product((0, 1, 2, 7, 40, 10**6), (False, True), (0, 3, 2**40)):
            spec = dc.GraphSpec(n=n, extra_edges=extra, directed=directed)
            assert dc.generate_graph(spec, seed).edges == candidate_list_graph(spec, seed).edges


def candidate_list_graph(spec, seed):
    """Ring-plus-chords graph drawn from the explicit list of all non-ring pairs."""
    gen = _stream(seed, _TAG_GRAPH)
    n = spec.n
    if n == 1:
        return dc.NominalGraph(1, [], spec.directed)
    if spec.directed:
        edges = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1), (1, 0)]
    else:
        edges = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    ring = {(min(i, j), max(i, j)) for i, j in edges}
    candidates = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in ring]
    count = min(spec.extra_edges, len(candidates))
    if count:
        picks = gen.choice(len(candidates), size=count, replace=False)
        for idx in sorted(int(i) for i in picks):
            i, j = candidates[idx]
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
    return dc.NominalGraph(n, edges, spec.directed)


def write_config(path, body):
    path.write_text(body, encoding="utf-8")
    return path


def trace_column(out_dir, seed, column):
    """One column of a seed's trace CSV (17 significant digits, so every value round-trips)."""
    return np.genfromtxt(out_dir / f"trace_{seed}.csv", delimiter=",", names=True)[column]


def case_config(case, algorithm="pd1"):
    """A config for `case` (a path) with the parameters every algorithm needs."""
    return f"""
[instance]
case = {case}

[algorithm]
id = {algorithm}
s = 0.01
xi = 0.05
nhat = 39
gamma = 0.9

[run]
K = 10
q = 0.2
seeds = 1
"""


GOOD_CONFIG = """
[instance]
n = 6
seed = 3

[graph]
mode = directed
extra_edges = 2

[algorithm]
id = directed
s = 0.05
xi = 0.5
nhat = 6

[run]
K = 300
q = 0.2
seeds = 1,2
"""


def config_with(section, key, value, body=GOOD_CONFIG):
    """`body` with [section] key = value; step_a and step_b (1 and 10 unless given) replace s."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read_string(body)
    if key.startswith("step_"):
        cp.remove_option("algorithm", "s")
        cp["algorithm"].update(step_a="1", step_b="10")
    cp[section][key] = value
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()


NUMERIC_KEYS = [
    ("instance", "n"), ("instance", "seed"), ("instance", "a_range"), ("instance", "b_range"),
    ("instance", "c_range"), ("instance", "load_range"), ("instance", "lo_range"), ("instance", "hi_range"),
    ("graph", "extra_edges"), ("graph", "seed"), ("algorithm", "s"), ("algorithm", "step_a"),
    ("algorithm", "step_b"), ("algorithm", "xi"), ("algorithm", "nhat"), ("algorithm", "gamma"),
    ("run", "K"), ("run", "q"), ("run", "oracle_tol"), ("run", "seeds"),
]
# (section, key, value, what the error names): a number the key's rule rejects
BAD_NUMBERS = [
    *(("algorithm", key, value, f"{name}={value}") for key, name in
      (("s", "s"), ("step_a", "a"), ("step_b", "b"), ("xi", "xi"), ("nhat", "nhat")) for value in ("nan", "inf")),
    ("run", "oracle_tol", "nan", "oracle_tol=nan"), ("run", "oracle_tol", "inf", "oracle_tol=inf"),
    ("algorithm", "gamma", "nan", "gamma=nan"), ("run", "q", "nan", "q=nan"),
]
BAD_VALUES = [
    *((section, key, "abc", f"{key} must be ") for section, key in NUMERIC_KEYS),
    *BAD_NUMBERS,
    ("algorithm", "id", "warp", "unknown algorithm 'warp'"),
]


class TestConfigs:
    @pytest.mark.parametrize("section,key", NUMERIC_KEYS)
    def test_non_numeric_value_names_its_key_and_text(self, tmp_path, section, key):
        with pytest.raises(ConfigError, match=re.escape(f"{key} must be ")) as err:
            load_config(write_config(tmp_path / "c.cfg", config_with(section, key, "abc")))
        assert "'abc'" in str(err.value)
        if section != "run" or key != "seeds":  # seeds may come from --seeds too
            assert str(err.value).startswith(f"[{section}] {key} must be ")

    @pytest.mark.parametrize("section,key,value,named", BAD_NUMBERS)
    def test_number_outside_its_rule_names_its_key(self, tmp_path, section, key, value, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_config(write_config(tmp_path / "c.cfg", config_with(section, key, value)))

    @pytest.mark.parametrize("section,key", [("instance", "case"), ("graph", "file")])
    def test_missing_file_is_a_config_error_naming_the_path(self, tmp_path, section, key):
        body = config_with(section, key, "missing.txt")
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}: file not found: {tmp_path / 'missing.txt'}")):
            load_config(write_config(tmp_path / "c.cfg", body))

    def test_missing_stepsize_rejected(self, tmp_path):
        bad = GOOD_CONFIG.replace("s = 0.05\n", "")
        with pytest.raises(ConfigError, match="stepsize"):
            load_config(write_config(tmp_path / "c.cfg", bad))

    def test_empty_seed_list_rejected(self, tmp_path):
        bad = GOOD_CONFIG.replace("seeds = 1,2", "seeds =")
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path / "c.cfg", bad))

    def test_unknown_algorithm_rejected(self, tmp_path):
        bad = GOOD_CONFIG.replace("id = directed", "id = warp")
        with pytest.raises(ConfigError, match="algorithm"):
            load_config(write_config(tmp_path / "c.cfg", bad))

    def test_robust_requires_gamma(self, tmp_path):
        bad = GOOD_CONFIG.replace("id = directed", "id = robust")
        with pytest.raises(ConfigError, match="gamma"):
            load_config(write_config(tmp_path / "c.cfg", bad))

    def test_case_path_resolved_relative_to_config(self, tmp_path, repo_root):
        rel = repo_root / "cases" / "case39_undirected.txt"
        body = f"""
[instance]
case = {rel}

[algorithm]
id = pd1
s = 0.01
xi = 0.05
nhat = 39

[run]
K = 10
q = 0.2
seeds = 1
"""
        config = load_config(write_config(tmp_path / "c.cfg", body))
        assert config.instance.n == 39

    @pytest.mark.parametrize("algorithm,case,want", [
        ("pd1", "directed", "an undirected"), ("pd2", "directed", "an undirected"), ("robust", "undirected", "a directed"),
    ])
    def test_algorithm_must_match_graph_directedness(self, tmp_path, repo_root, algorithm, case, want):
        body = case_config(repo_root / "cases" / f"case39_{case}.txt", algorithm)
        with pytest.raises(ConfigError, match=f"{algorithm} requires {want} graph"):
            load_config(write_config(tmp_path / "c.cfg", body))

    def test_graph_file_must_have_the_instance_size(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", GOOD_CONFIG.replace("mode = directed\nextra_edges = 2", "file = g.txt"))
        for n in (4, 7, 6):
            (tmp_path / "g.txt").write_text(f"{n} {n} directed\n" + "".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
            if n == 6:
                assert load_config(cfg).graph.n == 6
            else:
                with pytest.raises(ConfigError, match=f"graph has {n} nodes, instance has 6"):
                    load_config(cfg)

    def test_seeds_override(self, tmp_path):
        config = load_config(
            write_config(tmp_path / "c.cfg", GOOD_CONFIG), seeds_override="7, 8, 9"
        )
        assert config.seeds == (7, 8, 9)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, tmp_path, seed):
        cfg = write_config(tmp_path / "c.cfg", GOOD_CONFIG)
        with pytest.raises(ConfigError, match=r"seeds must lie in \[0, 2\^64\)"):
            load_config(cfg, seeds_override=str(seed))
        with pytest.raises(ConfigError, match="seeds must lie"):
            load_config(write_config(tmp_path / "d.cfg", GOOD_CONFIG.replace("seeds = 1,2", f"seeds = 1,{seed}")))
        assert load_config(cfg, seeds_override=f"0,{2**64 - 1}").seeds == (0, 2**64 - 1)

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_oracle_tol_must_be_positive_and_finite(self, tmp_path, tol):
        bad = GOOD_CONFIG.replace("seeds = 1,2", f"seeds = 1,2\noracle_tol = {tol}")
        with pytest.raises(ConfigError, match="oracle_tol"):
            load_config(write_config(tmp_path / "c.cfg", bad))


class TestRunExperiment:
    def test_artifacts_and_summary(self, tmp_path):
        config = load_config(
            write_config(tmp_path / "c.cfg", GOOD_CONFIG), out_override=tmp_path / "out"
        )
        result = run_experiment(config)
        assert result.ok
        for seed in (1, 2):
            assert (tmp_path / "out" / f"trace_{seed}.csv").exists()
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("seed,fitted_rate,fit_r_squared,final_error")
        assert len(summary) == 3

    def test_oracle_failure_leaves_no_output_directory(self, tmp_path):
        config = load_config(write_config(tmp_path / "c.cfg", GOOD_CONFIG), out_override=tmp_path / "out")
        # f' is inf at p_hi for every agent, so the oracle has no bracket
        cost = dc.GeneralCost(
            value_fn=lambda p: p**2,
            grad_fn=lambda p: np.where(p == 3.0, np.inf, 2 * p),
            hess_fn=lambda p: np.full_like(p, 2.0),
            m=2.0,
            n=6,
        )
        config = dataclasses.replace(config, instance=dc.ProblemInstance([1.0] * 6, [0.0] * 6, [3.0] * 6, cost))
        with pytest.raises(InvalidCostError, match="f' is not finite"):
            run_experiment(config)
        assert not (tmp_path / "out").exists()

    def test_trace_csv_round_trips_and_fit_matches_summary(self, tmp_path):
        config = load_config(
            write_config(tmp_path / "c.cfg", GOOD_CONFIG), out_override=tmp_path / "out"
        )
        result = run_experiment(config)
        rows = (tmp_path / "out" / "trace_1.csv").read_text().splitlines()
        header = rows[0].split(",")
        err_col = header.index("err_p")
        err = np.array([float(r.split(",")[err_col]) for r in rows[1:]])
        refit = dc.fit_rate(err)
        summary_line = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1].split(",")
        assert float(summary_line[1]) == refit.rate  # same code path, lossless CSV
        outcome = result.outcomes[0]
        schedule = dc.GraphSchedule(config.graph, config.q, 1, config.params.horizon)
        trace = dc.run(config.algorithm, config.instance, schedule, config.params)
        sol = dc.solve_bisection(config.instance, xi=config.params.xi, nhat=config.params.nhat)
        np.testing.assert_array_equal(err, dc.convergence_error(trace, sol))  # 17g round-trip is exact
        assert err[-1] == outcome.final_error

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.cfg", GOOD_CONFIG)
        for d in ("a", "b"):
            run_experiment(load_config(cfg_path, out_override=tmp_path / d))
        for name in ("trace_1.csv", "trace_2.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_trace_csv_cells_are_17g_of_each_value(self, tmp_path):
        config = load_config(
            write_config(tmp_path / "c.cfg", GOOD_CONFIG.replace("K = 300", "K = 5"))
        )
        sched = dc.GraphSchedule(config.graph, config.q, 1, 5)
        trace = dc.run(config.algorithm, config.instance, sched, config.params)
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308])
        keys = ("consensus_spread", "conservation", "mass", "min_v")
        for shift, key in enumerate(keys, 1):
            trace.residuals[key][:] = np.roll(special, shift)
        del trace.residuals["mass"]  # an absent series is written as nan
        cells = [special] + [trace.residuals.get(key, np.full(6, np.nan)) for key in keys]
        want = [",".join(TRACE_COLUMNS)] + [
            ",".join([str(k)] + [format(float(c[k]), ".17g") for c in cells]) for k in range(6)
        ]
        assert _trace_csv(trace, special) == "\n".join(want) + "\n"

    @given(
        rows=st.integers(1, 50),
        present=st.sets(st.sampled_from(RESIDUAL_KEYS)),
        bits=arrays(np.uint64, (5, 50), elements=FLOAT_BITS),
    )
    @example(rows=1, present=set(), bits=np.full((5, 50), 0xFFF8000000000000, dtype=np.uint64))
    @example(rows=50, present=set(RESIDUAL_KEYS), bits=np.full((5, 50), 0xFFF8000000000000, dtype=np.uint64))
    @settings(max_examples=150, deadline=None)
    def test_trace_csv_matches_the_row_by_row_writer(self, rows, present, bits):
        error, *series = bits[:, :rows].view(np.float64)
        present = [key for key in RESIDUAL_KEYS if key in present]
        trace = dc.RunTrace("pd1", np.zeros((rows, 1)), residuals=dict(zip(present, series)))
        assert _trace_csv(trace, error) == reference_trace_csv(trace, error)

    @pytest.mark.parametrize("name", ["pd1", "pd2", "robust"])
    def test_trace_csv_matches_the_row_by_row_writer_on_the_shipped_configs(self, repo_root, name):
        config = load_config(repo_root / "configs" / f"benchmark39_{name}.cfg")
        params = dataclasses.replace(config.params, horizon=2000)
        schedule = dc.GraphSchedule(config.graph, config.q, 1, params.horizon)
        trace = dc.run(config.algorithm, config.instance, schedule, params)
        error = dc.convergence_error(trace, dc.solve_bisection(config.instance, xi=params.xi, nhat=params.nhat))
        assert len(error) == 2001
        assert _trace_csv(trace, error) == reference_trace_csv(trace, error)

    def test_summary_min_v_skips_the_zero_start_of_virtual_nodes(self, tmp_path):
        body = GOOD_CONFIG.replace("id = directed", "id = robust\ngamma = 0.9")
        config = load_config(write_config(tmp_path / "c.cfg", body), out_override=tmp_path / "out")
        result = run_experiment(config)
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        header = summary[0].split(",")
        for outcome, line in zip(result.outcomes, summary[1:]):
            min_v = float(line.split(",")[header.index("min_v")])
            series = trace_column(tmp_path / "out", outcome.seed, "min_v")
            assert series[0] == 0.0  # the in-flight (virtual) weights start empty
            assert min_v > 0.0 and min_v == series[1:].min()

    def test_summary_counts_warnings_after_status(self, tmp_path):
        header = None
        for xi, want in (("0.5", 0), ("2.0", 1)):  # xi*nhat = 12 exceeds n = 6
            body = GOOD_CONFIG.replace("xi = 0.5", f"xi = {xi}")
            out = tmp_path / xi
            result = run_experiment(load_config(write_config(tmp_path / "c.cfg", body), out_override=out))
            summary = (out / "summary.csv").read_text().splitlines()
            header = summary[0].split(",")
            for outcome, line in zip(result.outcomes, summary[1:]):
                scaling = [w for w in outcome.warnings if "xi*nhat" in w]
                assert len(scaling) == want
                assert int(line.split(",")[header.index("warnings")]) == len(outcome.warnings)
        assert header == [
            "seed", "fitted_rate", "fit_r_squared", "final_error", "max_conservation_residual",
            "max_mass_residual", "max_consensus_spread", "min_v", "status", "warnings",
        ]

    def test_peak_memory_does_not_grow_with_seed_count(self, repo_root, tmp_path):
        # Each seed's trace is released before the next seed runs; a batch that kept them
        # would add about 1.9 MiB per pd1 seed on case39.
        cfg = repo_root / "configs" / "benchmark39_pd1.cfg"

        def peak(seeds, out):
            config = load_config(cfg, out_override=tmp_path / out, seeds_override=seeds)
            tracemalloc.start()
            try:
                run_experiment(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("1", "warm-up")  # one-time allocations (caches, imports) land here
        assert peak("1,2,3,4,5", "five") - peak("1", "one") < 0.5 * 2**20

    @pytest.mark.parametrize("name", ["pd1", "pd2", "robust"])
    def test_summary_extrema_are_the_invariant_report(self, repo_root, tmp_path, name):
        config = load_config(repo_root / "configs" / f"benchmark39_{name}.cfg", out_override=tmp_path, seeds_override="1,2")
        result = run_experiment(config)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        columns = {"max_conservation_residual": "conservation", "max_mass_residual": "mass",
                   "max_consensus_spread": "consensus_spread", "min_v": "min_v"}
        for outcome, line in zip(result.outcomes, lines[1:]):
            cells = dict(zip(header, line.split(",")))
            schedule = dc.GraphSchedule(config.graph, config.q, outcome.seed, config.params.horizon)
            report = dc.invariant_report(dc.run(config.algorithm, config.instance, schedule, config.params))
            assert report == outcome.report
            for column, check in columns.items():
                want = report[check].value if check in report else float("nan")
                assert float(cells[column]) == want or (np.isnan(want) and cells[column] == "nan")
            if name == "robust":
                assert float(cells["min_v"]) > 0.0

    def test_missing_output_dir_rejected(self, tmp_path):
        config = load_config(write_config(tmp_path / "c.cfg", GOOD_CONFIG))
        with pytest.raises(ConfigError, match="output"):
            run_experiment(config)


class TestCli:
    def test_validate_ok(self, repo_root, capsys):
        rc = cli_main(["validate", str(repo_root / "cases" / "case39_directed.txt")])
        assert rc == 0
        assert "39 agents" in capsys.readouterr().out

    def test_validate_missing_file_exits_2(self, tmp_path):
        assert cli_main(["validate", str(tmp_path / "nope.txt")]) == 2

    def test_validate_bad_case_exits_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1.0 0 0 0 5 2\n1.0 0 0 6 5 2\n2 1 undirected\n0 1\n")
        assert cli_main(["validate", str(bad)]) == 2

    def test_solve_prints_solution(self, repo_root, capsys):
        rc = cli_main(
            ["solve", str(repo_root / "cases" / "case39_undirected.txt"), "--xi", "0.05", "--nhat", "39"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "lambda_star" in out and "p_star" in out

    def test_run_end_to_end(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", GOOD_CONFIG)
        rc = cli_main(["run", str(cfg), "--out", str(tmp_path / "out"), "--seeds", "5"])
        assert rc == 0
        assert (tmp_path / "out" / "trace_5.csv").exists()

    def test_run_bad_config_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", GOOD_CONFIG.replace("id = directed", "id = warp"))
        assert cli_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_run_with_negative_seed_exits_2_without_artifacts(self, repo_root, tmp_path, capsys):
        cfg = repo_root / "configs" / "benchmark39_pd1.cfg"
        assert cli_main(["run", str(cfg), "--seeds=-1", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: seeds must lie in [0, 2^64)")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section", ["instance", "graph"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_run_with_generator_seed_outside_64_bits_exits_2_without_artifacts(
        self, tmp_path, capsys, section, seed
    ):
        if section == "instance":
            body = GOOD_CONFIG.replace("seed = 3", f"seed = {seed}")
        else:
            body = GOOD_CONFIG.replace("[graph]\n", f"[graph]\nseed = {seed}\n")
        cfg = write_config(tmp_path / "c.cfg", body)
        assert cli_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: [{section}] seed must lie in [0, 2^64)")
        assert not (tmp_path / "out").exists()
        edge = write_config(tmp_path / "d.cfg", body.replace(f"seed = {seed}", f"seed = {2**64 - 1}"))
        assert load_config(edge).instance.n == 6

    @pytest.mark.parametrize("mismatch", ["directedness", "graph size"])
    def test_run_with_mismatched_graph_exits_2_without_artifacts(self, repo_root, tmp_path, capsys, mismatch):
        if mismatch == "directedness":
            body = case_config(repo_root / "cases" / "case39_directed.txt")
        else:
            (tmp_path / "g.txt").write_text("4 4 directed\n0 1\n1 2\n2 3\n3 0\n")
            body = GOOD_CONFIG.replace("n = 6", "n = 5").replace("mode = directed\nextra_edges = 2", "file = g.txt")
        cfg = write_config(tmp_path / "c.cfg", body)
        assert cli_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "solve", "run"])
    @pytest.mark.parametrize("column,value", [(0, "nan"), (1, "inf"), (2, "nan"), (1, "-inf")])
    def test_non_finite_cost_exits_2(self, tmp_path, capsys, command, column, value):
        row = ["1.0", "0", "0", "0", "5", "2"]
        row[column] = value
        case = tmp_path / "case.txt"
        case.write_text(f"2\n{' '.join(row)}\n1.0 0 0 0 5 2\n2 1 undirected\n0 1\n")
        if command == "run":
            cfg = write_config(tmp_path / "c.cfg", case_config(case).replace("nhat = 39", "nhat = 2"))
            argv = ["run", str(cfg), "--out", str(tmp_path / "out")]
        else:
            argv = [command, str(case)]
        assert cli_main(argv) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")  # rejected before any overflow warning
    @pytest.mark.parametrize("command", ["validate", "solve", "run"])
    def test_gradient_overflow_at_a_bound_exits_2(self, tmp_path, capsys, command):
        # finite coefficients, but f'(p_hi) = 2e300 * 1e10 overflows
        case = tmp_path / "case.txt"
        case.write_text("2\n1e300 0 0 0 1e10 2\n1 0 0 0 5 2\n2 1 undirected\n0 1\n")
        if command == "run":
            cfg = write_config(tmp_path / "c.cfg", case_config(case).replace("nhat = 39", "nhat = 2"))
            argv = ["run", str(cfg), "--out", str(tmp_path / "out")]
        else:
            argv = [command, str(case)]
        assert cli_main(argv) == 2
        assert "agent 0: f' is not finite at p_lo or p_hi" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["validate", "solve", "run"])
    def test_overflowing_multiplier_bracket_fails_without_artifacts(self, tmp_path, capsys, command):
        # f'(p_hi) = 2e302 is finite, but over xi*nhat/n = 1e-10 it overflows the
        # multiplier bracket; the case itself is valid.
        case = tmp_path / "case.txt"
        case.write_text("2\n1e300 0 0 0 100 2\n1 0 0 0 5 2\n2 1 undirected\n0 1\n")
        if command == "run":
            body = case_config(case).replace("xi = 0.05", "xi = 1e-10").replace("nhat = 39", "nhat = 2")
            argv = ["run", str(write_config(tmp_path / "c.cfg", body)), "--out", str(tmp_path / "out")]
        elif command == "solve":
            argv = ["solve", str(case), "--xi", "1e-10", "--nhat", "2"]
        else:
            argv = ["validate", str(case)]
        rc = cli_main(argv)
        err = capsys.readouterr().err
        if command == "validate":
            assert rc == 0 and err == ""
        else:
            assert rc == 2  # an input error, whichever command meets it
            assert "multiplier bracket lam_hi = inf is not finite" in err and "xi*nhat/n = 1e-10" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,key,value,named", BAD_VALUES)
    def test_bad_value_exits_2_without_artifacts(self, tmp_path, capsys, section, key, value, named):
        cfg = write_config(tmp_path / "c.cfg", config_with(section, key, value))
        assert cli_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,key", [("instance", "case"), ("graph", "file")])
    def test_missing_file_exits_2_without_artifacts(self, tmp_path, capsys, section, key):
        cfg = write_config(tmp_path / "c.cfg", config_with(section, key, "missing.txt"))
        assert cli_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: [{section}] {key}: file not found: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")  # the iterates overflow, and the guard alone reports it
    def test_run_in_which_every_seed_fails_exits_3(self, repo_root, tmp_path, capsys):
        body = case_config(repo_root / "cases" / "case39_undirected.txt").replace("s = 0.01", "s = 1e307")
        cfg = write_config(tmp_path / "c.cfg", body)
        out = tmp_path / "out"
        assert cli_main(["run", str(cfg), "--seeds", "1,2", "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert [f"seed {seed}: error: non-finite iterate at step 1 (pd1: lam)" for seed in (1, 2)] == err
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[1:] == [f"{seed},nan,nan,nan,nan,nan,nan,nan,error,0" for seed in (1, 2)]
        assert [path.name for path in out.iterdir()] == ["summary.csv"]
        result = run_experiment(load_config(cfg, out_override=tmp_path / "lib", seeds_override="1,2"))
        assert not result.ok and [o.status for o in result.outcomes] == ["error", "error"]

    def test_run_into_uncreatable_directory_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", GOOD_CONFIG)
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        for out in (blocker, blocker / "x"):
            assert cli_main(["run", str(cfg), "--out", str(out), "--seeds", "5"]) == 2
            assert capsys.readouterr().err.startswith(f"error: cannot create output directory {out}")
        assert blocker.read_text() == "not a directory"
