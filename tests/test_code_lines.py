"""The code-line count of ``scripts/code_lines.py``, which the simplicity
gates (src/ code lines not up) are measured with."""

from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

SOURCE = '''"""A module docstring,
over two lines."""

# a comment line
import os  # a comment after code


class C:
    """A class docstring."""

    def f(self, a,
          b):
        """A function docstring."""
        s = """a string value,
        not a docstring"""
        return (a +
                b)
'''


def test_counts_code_lines_only(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from code_lines import count_code_lines
    # import os; class C:; def f(self, a,; b):; both lines of s; both of
    # the return
    assert count_code_lines(SOURCE) == 8
    assert count_code_lines("") == 0


def test_compares_two_trees(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from code_lines import count_dir, report
    base, change = tmp_path / "base", tmp_path / "change"
    base.mkdir()
    change.mkdir()
    (base / "a.py").write_text("x = 1\ny = 2\n")
    (base / "gone.py").write_text("z = 3\n")
    (change / "a.py").write_text("x = 1\n")
    (change / "new.py").write_text(SOURCE)
    # each module in both trees, 0 where it is missing, and the difference
    assert report([count_dir(base), count_dir(change)]) == [
        "     2       1      -1  a.py",
        "     1       0      -1  gone.py",
        "     0       8      +8  new.py",
        "     3       9      +6  total"]
    assert report([count_dir(change)]) == [
        "     1  a.py", "     8  new.py", "     9  total"]
