"""The tools: `count_code_lines.py`, the code-line counter the size claims use, and `step_cost.py`, the per-step timer."""

import importlib.util
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import dercoord as dc
from conftest import REPO


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


counter = load_tool("count_code_lines")
step_cost = load_tool("step_cost")

SNIPPET = '''"""Module docstring,
over two lines."""

# A comment line.
import math


class Box:
    """Class docstring."""

    side = 2  # a trailing comment keeps its line

    def area(self):
        """Function docstring,

        over three lines."""
        return (
            self.side
            * self.side
        )


NOTE = """a string that is not a docstring,
over two lines"""
'''


def test_counts_code_lines_only():
    # import, class, side, def, the four lines of the return, NOTE's two lines
    assert counter.count_code_lines(SNIPPET) == 10


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert counter.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["     1  b.py", "    10  pkg/a.py", "    11  total"]


def test_step_cost_prints_one_row_per_case(capsys):
    # One run of each case, over the package of this checkout: a 39-agent case, a scaled one and a CLI-path one.
    cases = ["centralized", "pd1_300", "robust_opt"]
    assert step_cost.main(["--runs", "1", "--only", ",".join(cases), str(REPO / "src")]) == 0
    legend, header, *rows = capsys.readouterr().out.splitlines()
    assert legend == step_cost.LEGEND and "take" in legend
    assert header.split() == ["case", "setup_us", "us/step", "calls/step"]
    assert [row.split()[0] for row in rows] == cases
    assert all(float(value) > 0 for row in rows for value in row.split()[1:])
    assert [row.split()[-1] for row in rows] == [str(CALLS_PER_STEP[name.split("_")[0]]) for name in cases]


PAIRED_HEADER = ["case", "setup_us", "setup_us", "ratio", "interval", "us/step", "us/step", "ratio", "interval",
                 "calls/step", "calls/step"]


def paired_columns(row):
    """The case of a two-root row, per column (set-up, per step) both values, the ratio and its interval, and both
    counts of calls per step."""
    name, *cells = row.replace("*", "").split()
    columns = []
    for a, b, ratio, interval in (cells[:4], cells[4:8]):
        columns.append((float(a), float(b), float(ratio), *map(float, interval.strip("[]").split(","))))
    return name, columns, [float(count) for count in cells[8:]]


def test_step_cost_pairs_two_roots(capsys):
    # The same tree as both roots: both columns twice, each with the median paired ratio and its interval,
    # which holds the median, and the two equal counts of calls per step.
    cases = ["centralized", "pd1_300"]
    root = str(REPO / "src")
    assert step_cost.main(["--runs", "6", "--only", ",".join(cases), root, root]) == 0
    _, header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == PAIRED_HEADER
    assert [paired_columns(row)[0] for row in rows] == cases
    for name, row in zip(cases, rows):
        _, columns, counts = paired_columns(row)
        for a, b, ratio, low, high in columns:
            assert a > 0 and b > 0 and low <= ratio <= high
        assert counts == [CALLS_PER_STEP[name.split("_")[0]]] * 2


def test_step_cost_splits_setup_from_steps(monkeypatch, capsys):
    # Each case is timed at its horizon K and at K = 0: set-up is T(0), a step (T(K) - T(0)) / K, each paired.
    # Root A: T(K) = 10.5 ms, T(0) = 0.5 ms; root B: 6.5 and 0.4 ms; K = 100. Each root's count is printed.
    seconds = {("A", "K"): 0.0105, ("A", "0"): 0.0005, ("B", "K"): 0.0065, ("B", "0"): 0.0004}
    packages = iter("AB")
    monkeypatch.setattr(step_cost, "load", lambda root, name: next(packages))
    monkeypatch.setattr(step_cost, "prepare", lambda package, name: ([(package, "K"), (package, "0")], 100))
    monkeypatch.setattr(step_cost, "timeit", SimpleNamespace(timeit=lambda call, number: seconds[call]))
    monkeypatch.setattr(step_cost, "calls_per_step", lambda package, call, algorithm: {"A": 25, "B": 24}[package])
    assert step_cost.main(["--runs", "6", "--only", "pd1", "a", "b"]) == 0
    _, header, row = capsys.readouterr().out.splitlines()
    assert header.split() == PAIRED_HEADER
    _, (setup, step), counts = paired_columns(row)
    assert setup == pytest.approx((500.0, 400.0, 0.8, 0.8, 0.8))
    assert step == pytest.approx((100.0, 61.0, 0.61, 0.61, 0.61))
    assert counts == [25, 24]
    assert row.count("*") == 2  # both ratios resolved


def test_step_cost_times_the_connectivity_layer(capsys):
    # One run of each connectivity case, over the package of this checkout, in a table of its own.
    assert step_cost.main(["--runs", "1", "--only", ",".join(step_cost.LAYER), str(REPO / "src")]) == 0
    legend, header, *rows = capsys.readouterr().out.splitlines()
    assert legend == step_cost.LAYER_LEGEND
    assert header.split() == ["case", "us/call"]
    assert [row.split()[0] for row in rows] == list(step_cost.LAYER)
    assert all(float(row.split()[1]) > 0 for row in rows)


def test_connectivity_cases_judge_what_their_rows_name():
    # check_B: certify39's schedule at its measured B, every window connected; windows_3000: LAYER_WINDOWS windows
    # of the directed n = 3000 graph, which fail as well as pass; union_3000: both full n = 3000 graphs connected.
    package = step_cost.load(REPO / "src", "step_cost_layer")
    check = step_cost.prepare_layer(package, "check_B")
    schedule, B = check.args
    assert schedule.nominal.directed and schedule.nominal.n == 39 and schedule.seed == 1
    assert B == package.minimal_connectivity_window(schedule) and check().all()
    windows = step_cost.prepare_layer(package, "windows_3000")
    graph, masks, B = windows.args
    assert (graph.n, graph.directed, B, masks.shape[0]) == (3000, True, step_cost.LAYER_B, B * step_cost.LAYER_WINDOWS)
    verdicts = windows()
    assert verdicts.shape == (step_cost.LAYER_WINDOWS,) and verdicts.any() and not verdicts.all()
    assert step_cost.prepare_layer(package, "union_3000")() == [True, True]


def test_step_cost_pairs_the_connectivity_layer(monkeypatch, capsys):
    # Root A's call takes 2 ms and root B's 0.1 ms in every pair: the paired ratio is 0.05, resolved. By default
    # the layer's rows follow the per-step table, so a run with no --only prints them.
    seconds = {("A", "K"): 0.0105, ("A", "0"): 0.0005, ("B", "K"): 0.0065, ("B", "0"): 0.0004,
               ("A", "call"): 0.002, ("B", "call"): 0.0001}
    packages = iter("AB")
    monkeypatch.setattr(step_cost, "load", lambda root, name: next(packages))
    monkeypatch.setattr(step_cost, "prepare", lambda package, name: ([(package, "K"), (package, "0")], 100))
    monkeypatch.setattr(step_cost, "prepare_layer", lambda package, name: (package, "call"))
    monkeypatch.setattr(step_cost, "timeit", SimpleNamespace(timeit=lambda call, number: seconds[call]))
    monkeypatch.setattr(step_cost, "calls_per_step", lambda package, call, algorithm: 1)
    assert step_cost.main(["--runs", "6", "a", "b"]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index(step_cost.LAYER_LEGEND)
    assert at == 2 + len(step_cost.CASES)
    assert lines[at + 1].split() == ["case", "us/call", "us/call", "ratio", "interval"]
    for name, row in zip(step_cost.LAYER, lines[at + 2 :], strict=True):
        case, a, b, ratio, interval, mark = row.split()
        assert case == name and mark == "*"
        assert (float(a), float(b), float(ratio)) == pytest.approx((2000.0, 100.0, 0.05))
        assert interval == "[0.050,0.050]"


# NumPy calls per step of each algorithm at case39, as `calls_per_step` counts them: every ufunc call (a ufunc's
# reduce among them) and bincount call of the step, `mix` being one bincount and one add; ndarray.take is not counted.
CALLS_PER_STEP = {"pd1": 14, "pd2": 13, "directed": 16, "robust": 22, "virtual": 20, "centralized": 10}


def test_calls_per_step_counts_each_numpy_call_of_the_steps():
    # The six kernels' counts, and the counting of each way a module reaches NumPy, inside the steps only: a
    # ufunc it names, its reduce, its `np` (np.multiply) and `mix`, whose bincount `network` names; take is an
    # ndarray method, and is not counted. Every name is restored afterwards.
    package = step_cost.load(REPO / "src", "step_cost_count")
    for name, want in CALLS_PER_STEP.items():
        calls, horizon = step_cost.prepare(package, name)
        assert horizon > step_cost.COUNTED_STEPS
        assert step_cost.calls_per_step(package, calls[0], name) == want, name
    algorithms, network = package.algorithms, package.network
    spec = algorithms._SPECS["centralized"]
    made = []

    def kernel(*args):
        views, step = spec.kernel(*args)

        def counted(cur, nxt, weights, s):
            a = np.arange(4.0)
            algorithms.add.reduce(algorithms.add(a, a), 0, None, s.copy())  # 2 calls
            network.np.multiply(a, a)  # 1
            network.mix(a, np.array([1, 3]), a[:2])  # bincount and add: 2
            a.take([0, 1])  # an ndarray method: none
            step(cur, nxt, weights, s)  # centralized's own

        return views, counted

    algorithms._SPECS["centralized"] = replace(spec, kernel=kernel)
    try:
        calls, _ = step_cost.prepare(package, "centralized")
        assert step_cost.calls_per_step(package, calls[0], "centralized") == 5 + CALLS_PER_STEP["centralized"]
    finally:
        algorithms._SPECS["centralized"] = spec
    modules = (algorithms, package.problem, network)
    assert network.np is np and not any(isinstance(v, step_cost.Counted) for m in modules for v in vars(m).values())


def test_an_optimum_case_times_the_cli_path():
    # Given the optimum, `run` keeps ||p - p*|| and no state series, at K and at K = 0.
    package = step_cost.load(REPO / "src", "step_cost_cli")
    calls, horizon = step_cost.prepare(package, "robust_opt")
    traces = [call() for call in calls]
    assert [(trace.p.shape, trace.steps) for trace in traces] == [((0, 39), horizon), ((0, 39), 0)]
    assert [len(trace.residuals["err_p"]) for trace in traces] == [horizon + 1, 1]


def test_ratio_interval_ranks():
    # Distribution-free 95 % interval of the median: order statistics j and N + 1 - j of the sorted ratios.
    rng = np.random.default_rng(1)
    for n, median, ranks in [(20, 10.5, (6, 15)), (30, 15.5, (10, 21)), (6, 3.5, (1, 6))]:
        assert step_cost.ratio_interval(rng.permutation(np.arange(1.0, n + 1))) == (median, *ranks)
    for n in range(1, 6):
        assert step_cost.ratio_interval(np.arange(1.0, n + 1))[1:] == (-math.inf, math.inf)


def test_each_load_imports_the_package_afresh_under_its_own_name():
    first = step_cost.load(REPO / "src", "step_cost_test")
    again = step_cost.load(REPO / "src", "step_cost_test")
    assert first.network is not dc.network and again.network is not first.network
    assert again.run.__module__ == "step_cost_test.algorithms"
