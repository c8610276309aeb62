"""tools/code_lines.py counts the lines that hold code: not blank lines,
comment lines or the lines of a docstring."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_code_lines():
    spec = importlib.util.spec_from_file_location(
        "code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""A module docstring
over two lines."""
import os  # a trailing comment keeps its line

# a comment line


def f(x):
    """One-line docstring."""
    text = """a string that is
    assigned, not a docstring"""
    return (x +
            1)
'''


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path, capsys):
    code_lines = _load_code_lines()
    # import; def; the assigned string's two lines; return over two lines
    assert code_lines.code_lines(SNIPPET) == 6
    (tmp_path / "b.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     1  a.py", "     6  b.py", "     7  total", ""]
