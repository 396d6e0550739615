"""Source-level checks on the package itself."""

import ast
from pathlib import Path

import stairpow

SRC = Path(stairpow.__file__).parent


def test_no_assert_statements():
    # ``assert`` vanishes under ``python -O``; invariants must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src: {found}"
