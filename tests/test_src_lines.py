"""Unit tests of the line counts that tools/src_lines.py prints."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "src_lines", Path(__file__).resolve().parents[1] / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# A comment line.
import math  # a trailing comment keeps its line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring.

        Three lines."""
        text = """a string that is
no docstring"""
        return text

    x = "a lone string after the first statement is no docstring"
'''


def test_count_drops_blanks_comments_and_docstrings():
    # Code lines: import, class, def, the two lines of text, return, x.
    assert src_lines.count(SOURCE) == (19, 7)


def test_empty_module():
    assert src_lines.count("") == (0, 0)
    assert src_lines.count('"""Only a docstring."""\n') == (1, 0)


def test_table_totals_and_missing_modules():
    tree = {"a.py": "x = 1\n\n# c\n", "b.py": "y = 2\n"}
    base = {"a.py": "x = 1\n"}
    rows = src_lines.table([tree, base])
    assert [row.split() for row in rows] == [
        ["a.py", "3", "1", "1", "1"],
        ["b.py", "1", "1", "0", "0"],
        ["total", "4", "2", "1", "1"],
    ]


def test_tree_counts_every_module(capsys):
    assert src_lines.main([]) == 0
    out = capsys.readouterr().out.splitlines()
    names = {line.split()[0] for line in out[1:]}
    assert {"mcmc.py", "distribution.py", "__init__.py", "total"} <= names
