"""tools/code_lines.py, the script that counts the package's code lines."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 8 code lines: import, class, x = 1, def, the three lines of the string, return
SOURCE = '''"""Module docstring,
over two lines."""

# a comment

import os  # a trailing comment


class A:
    """Class docstring."""

    x = 1


def f():
    """Function
    docstring."""
    # a comment in a body
    s = """a string
that spans
three lines"""

    return s
'''


def test_counts_code_lines_outside_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert code_lines.code_lines(path) == 8


def test_main_prints_each_module_by_size_then_the_total(tmp_path, capsys):
    (tmp_path / "big.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "small.py").write_text('"""Only a docstring."""\nX = 1\n', encoding="utf-8")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     8  big.py", "     1  small.py", "     9  total"]
