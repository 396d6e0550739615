"""Source-level checks on the package itself."""

import ast
import importlib.util
from pathlib import Path

import stairpow

SRC = Path(stairpow.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "stairbench" / "spans.py"


def test_no_assert_statements():
    # ``assert`` vanishes under ``python -O``; invariants must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src: {found}"


def test_traced_names_exist():
    # The benchmark's span tracer patches these names; a missing one breaks
    # every traced run.
    spec = importlib.util.spec_from_file_location("stairbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for _, owner, attr, _ in spans.PATCHES
        if not hasattr(owner, attr)
    ]
    assert not missing, f"traced names missing from stairpow: {missing}"
