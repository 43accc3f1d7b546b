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
