"""The tools: `count_code_lines.py`, the code-line counter the size claims use, and `step_cost.py`, the per-step timer."""

import importlib.util

from conftest import REPO


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


counter = load_tool("count_code_lines")

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
    # One run in one fresh process, over the package of this checkout: a 39-agent case and a scaled one.
    cases = ["centralized", "pd1_300"]
    assert load_tool("step_cost").main(["--runs", "1", "--procs", "1", "--only", ",".join(cases), str(REPO / "src")]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["case", "us/step"]
    assert [row.split()[0] for row in rows] == cases
    assert all(float(row.split()[1]) > 0 for row in rows)
