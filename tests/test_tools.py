"""The tools: `count_code_lines.py`, the code-line counter the size claims use, and `step_cost.py`, the per-step timer."""

import importlib.util
import math

import numpy as np

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
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["case", "us/step"]
    assert [row.split()[0] for row in rows] == cases
    assert all(float(row.split()[1]) > 0 for row in rows)


def test_step_cost_pairs_two_roots(capsys):
    # The same tree as both roots: two columns, the median paired ratio and its interval, which holds the median.
    cases = ["centralized", "pd1_300"]
    root = str(REPO / "src")
    assert step_cost.main(["--runs", "6", "--only", ",".join(cases), root, root]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["case", "us/step", "us/step", "ratio", "interval"]
    assert [row.split()[0] for row in rows] == cases
    for row in rows:
        a, b, ratio = map(float, row.split()[1:4])
        low, high = map(float, row.split()[4].strip("[]").split(","))
        assert a > 0 and b > 0 and low <= ratio <= high


def test_an_optimum_case_times_the_cli_path_of_either_package(monkeypatch):
    # Given the optimum, `run` keeps ||p - p*||; a package whose `run` takes no optimum gets what its CLI did,
    # the full trace and then `convergence_error`, with the same values.
    package = step_cost.load(REPO / "src", "step_cost_cli")
    call, horizon = step_cost.prepare(package, "robust_opt")
    trace = call()
    assert trace.p.shape == (0, 39) and trace.steps == horizon
    full = package.run
    monkeypatch.setattr(package, "run", lambda algorithm, inst, schedule, params, init=None:
                        full(algorithm, inst, schedule, params, init))
    call, _ = step_cost.prepare(package, "robust_opt")
    assert np.array_equal(call(), trace.residuals["err_p"])


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
