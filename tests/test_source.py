import ast
from pathlib import Path

import iqprox

SOURCES = sorted(Path(iqprox.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    """Claims raise ClaimViolation; `python -O` would strip an assert."""
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
