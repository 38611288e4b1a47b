"""tools/code_lines.py counts the lines holding a token, less docstrings."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

PLANTED = '''"""A module docstring,
over two lines."""

import os  # a comment after code


def f(a,
      b):
    """A function docstring."""
    # a comment on its own line

    x = """a string that is
no docstring"""
    return x


class C:
    """A class docstring."""

    y = 1
'''

# import, def over two lines, the string's two lines, return, class, y = 1
PLANTED_LINES = 8


def test_a_planted_source_counts_its_code_lines_alone():
    assert code_lines.code_lines(PLANTED) == PLANTED_LINES


def test_each_module_is_counted_and_totalled(tmp_path, capsys):
    (tmp_path / "planted.py").write_text(PLANTED, encoding="utf-8")
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.count(tmp_path) == {"empty.py": 0, "planted.py": PLANTED_LINES}
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == [
        "empty.py", "0", "planted.py", str(PLANTED_LINES), "total", str(PLANTED_LINES)
    ]
