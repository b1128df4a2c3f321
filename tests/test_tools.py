"""The repository's own tools: tools/code_lines.py counts code lines."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

_SPEC = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# module, function and class docstrings, comment and blank lines, which do
# not count; a trailing comment, a multi-line expression and a multi-line
# string that is not a docstring, every line of which counts
FIXTURE = '''"""A module docstring,
over two lines."""

import os  # a trailing comment leaves its line code


# a comment line
def shift(x):
    """A function docstring."""
    return (x
            + 1)


class Holder:
    """A class
    docstring."""

    values = [1,
              2]
    text = """not a
docstring"""
'''


def test_code_lines_counts_code_only():
    # import, def, the two lines of the return, class, the two lines of
    # the list and the two of the string
    assert code_lines.code_lines(FIXTURE) == 9


def test_code_lines_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text('"""Doc."""\nx = 1\n', encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n", encoding="utf-8")
    code_lines.main([str(tmp_path / "pkg")])
    assert capsys.readouterr().out.splitlines() == [
        f"     9  {tmp_path / 'pkg' / 'a.py'}",
        f"     1  {tmp_path / 'pkg' / 'b.py'}",
        "    10  total"]
