"""`tools/count_code_lines.py`, the code-line counter the size claims use."""

import importlib.util

from conftest import REPO

_spec = importlib.util.spec_from_file_location("count_code_lines", REPO / "tools" / "count_code_lines.py")
counter = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(counter)

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
