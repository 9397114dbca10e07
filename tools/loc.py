"""Count the lines of each src/iqprox module and of each tests module.

    python3 tools/loc.py

Prints two blocks, src/iqprox and then tests, each headed by its directory:
one line per module, its total lines and its code lines, then the totals.  Code lines leave out blank lines, comment-only lines and the lines
of docstrings (the string that opens a module, a class or a function body,
found with the stdlib ast module).  These are the two sizes that a change
meant to simplify the package states.  Takes no options; the exit status is
0 whatever the counts.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = ("src/iqprox", "tests")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one source file."""
    text = path.read_text()
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text, str(path)))
    code = sum(1 for i, line in enumerate(lines, 1)
               if i not in skip and line.strip() and not line.strip().startswith("#"))
    return len(lines), code


def main() -> int:
    for block in BLOCKS:
        print(block)
        total = code = 0
        for path in sorted((ROOT / block).glob("*.py")):
            t, c = counts(path)
            total += t
            code += c
            print(f"{path.name:24} {t:6} {c:6}")
        print(f"{'total':24} {total:6} {code:6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
