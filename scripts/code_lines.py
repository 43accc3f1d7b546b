#!/usr/bin/env python3
"""Print the code lines of every module of a source directory, and their
total: physical lines that hold a token other than a comment or a
docstring, so blank lines, comment lines and docstrings are left out and
each line of a multi-line statement or string value counts.

    python3 scripts/code_lines.py [SRC_DIR]    # default: src/kwspot
    python3 scripts/code_lines.py BASE_DIR CHANGE_DIR

Given two source directories, say the parent's and a change's, it prints
each module's code lines in both, then CHANGE_DIR's minus BASE_DIR's (a
module missing from one counts 0 there), so the totals' line shows
whether the change added or removed code.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of the module, its classes
    and its functions starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def count_code_lines(source: str) -> int:
    """The number of code lines of a module's source."""
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count_dir(src_dir: Path) -> dict[str, int]:
    """The code lines of each module of src_dir, by file name."""
    return {path.name: count_code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(src_dir.glob("*.py"))}


def report(counts: list[dict[str, int]]) -> list[str]:
    """One line per module, then one for the total: the module's code
    lines in each count of counts and, for two counts, the second's minus
    the first's."""
    lines = []
    for name in [*sorted(set().union(*counts)), "total"]:
        ns = [sum(c.values()) if name == "total" else c.get(name, 0)
              for c in counts]
        cells = [f"{n:6d}" for n in ns]
        if len(ns) == 2:
            cells.append(f"{ns[1] - ns[0]:+6d}")
        lines.append("  ".join([*cells, name]))
    return lines


def main() -> None:
    root = Path(__file__).resolve().parents[1]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src_dirs", nargs="*", type=Path, metavar="SRC_DIR",
                    default=[root / "src" / "kwspot"])
    args = ap.parse_args()
    if len(args.src_dirs) > 2:
        ap.error("give one source directory, or two to compare")
    print("\n".join(report([count_dir(d) for d in args.src_dirs])))


if __name__ == "__main__":
    main()
