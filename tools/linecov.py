"""List the statements in src/iqprox function bodies that Tier-1 never runs.

    python3 tools/linecov.py

Runs the Tier-1 suite in this process under a sys.settrace line tracer,
then prints one line per unrun statement, path:line and its source, and a
count.  A statement counts as run when a line event fires on one of its
lines that has bytecode: its header for a compound statement (an if, a for,
a with), every line for a simple one.  A statement with no such line (a
bare try:) is not counted.  Docstrings are not statements here, and
statements at module or class level, which run at import, are left out.

Only this process is traced, so code that runs only in the suite's
subprocesses (python -m iqprox.cli) reads as unrun.  The suite runs about
2.5 times slower than untraced.  The exit status is the suite's when
the suite fails, else 1 when a statement is listed, else 0.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "iqprox"


def code_lines(code) -> set[int]:
    """The lines that hold bytecode in a code object and those nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def body_statements(tree: ast.Module):
    """(statement, lines) for each statement inside a function body, lines
    the range that is the statement itself: up to its first nested body
    for a compound statement."""
    def walk(stmts, in_function):
        for i, stmt in enumerate(stmts):
            if (i == 0 and in_function and isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)):
                continue  # a docstring
            nested = [getattr(stmt, f) for f in ("body", "orelse", "finalbody", "handlers")
                      if getattr(stmt, f, None)]
            if in_function:
                end = min([s[0].lineno for s in nested] or [stmt.end_lineno + 1]) - 1
                yield stmt, range(stmt.lineno, max(end, stmt.lineno) + 1)
            for body in nested:
                inner = in_function or isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                if body is getattr(stmt, "handlers", None):
                    for handler in body:
                        yield from walk(handler.body, inner)
                else:
                    yield from walk(body, inner)

    yield from walk(tree.body, False)


def main() -> int:
    os.chdir(ROOT)  # pyproject.toml puts src/ on the path and names the tests
    root = str(PACKAGE)
    ours: dict[str, bool] = {}
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        mine = ours.get(name)
        if mine is None:
            mine = ours[name] = os.path.realpath(name).startswith(root + os.sep)
        return local if mine else None

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-o", "addopts=", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)

    run = {(os.path.realpath(name), line) for name, line in hits}
    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        executable = code_lines(compile(source, str(path), "exec"))
        lines = source.splitlines()
        for stmt, span in body_statements(ast.parse(source)):
            live = [line for line in span if line in executable]
            if not live:
                continue
            total += 1
            if not any((str(path), line) in run for line in live):
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{stmt.lineno}: {lines[stmt.lineno - 1].strip()}")
    print(f"{unrun} of {total} statements in src/iqprox function bodies never ran")
    return int(status) or int(unrun > 0)


if __name__ == "__main__":
    sys.exit(main())
