"""Source-level checks on the package itself."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import stairpow
from stairpow.ideals import naive_power
from stairpow.oracle import RandomIdealSpec, random_ideal
from stairpow.textio import parse_ideal

SRC = Path(stairpow.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "stairbench" / "spans.py"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
IDEALS = ROOT / "benchmarks" / "ideals.txt"


def test_no_assert_statements():
    # ``assert`` vanishes under ``python -O``; invariants must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src: {found}"


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10.
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_src_line_budget():
    # The cap on the package's size, by ``wc -l src/stairpow/*.py``.
    lines = sum(len(path.read_bytes().splitlines()) for path in SRC.glob("*.py"))
    assert lines <= 1937, f"src/stairpow has {lines} lines, over the 1937-line budget"


def _load_spans():
    spec = importlib.util.spec_from_file_location("stairbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_no_unused_imports():
    # A name the span tracer looks up on a stairpow module may be imported
    # only so that the tracer finds it.
    traced = {
        (owner.__name__.rsplit(".", 1)[-1], attr)
        for _, owner, attr, _ in _load_spans().PATCHES
        if isinstance(owner, types.ModuleType)
    }
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used and (path.stem, name) not in traced:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"unused imports in src: {unused}"


def _defined_names(path):
    """The top-level functions, classes and assigned names of a module."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _read_names(path, strings=False):
    """Names a file loads, attributes it reads, and with ``strings`` its string constants."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_no_test_only_names():
    # A name in src/ must be exported or used by the package, the benchmark
    # (whose tracer looks names up by string) or a demo; a wrapper that only
    # the tests call belongs in the tests.
    read = set(stairpow.__all__)
    for path in sorted(SRC.glob("*.py")) + DEMOS:
        read.update(_read_names(path))
    for path in sorted((ROOT / "stairbench").glob("*.py")):
        read.update(_read_names(path, strings=True))
    unread = [
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for name in _defined_names(path)
        if name not in read
    ]
    assert not unread, f"names in src that only the tests use: {unread}"


def test_traced_names_exist():
    # The benchmark's span tracer patches these names; a missing one breaks
    # every traced run.
    spans = _load_spans()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for _, owner, attr, _ in spans.PATCHES
        if not hasattr(owner, attr)
    ]
    assert not missing, f"traced names missing from stairpow: {missing}"


def _env():
    # The package from this checkout, ahead of any installed copy.
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demos_run(demo, tmp_path):
    # In a scratch directory, so that nothing a demo leaves lands in the checkout.
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _python(*args):
    proc = subprocess.run(
        [sys.executable, *args],
        env=_env(),
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


#: Runs ``stairpow power`` on each ``(ideal, n)`` of its JSON argument through
#: ``cli.main``, each from a fresh plan, and prints one JSON ``[exit code,
#: output]`` line per case; it exits at once unless ``-O`` stripped the asserts.
_POWER_CASES = """
import contextlib, io, json, sys
from stairpow import cli, engine
if __debug__:
    sys.exit("run me under -O")
for ideal, n in json.loads(sys.argv[1]):
    engine._plan.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["power", ideal, str(n)])
    print(json.dumps([code, out.getvalue()]))
"""


def test_power_under_optimize():
    # Every route with every assert stripped by -O, in one child.  I2
    # certifies the onset m = 1 with s = 7 (the staircase sum at 6, assembly
    # from 7 on, which 39, 41 and 244 take too); seed 23 certifies none and
    # keeps D_P = 68 and s = 324: one power below D_P, one between and one from s.
    (line,) = [l for l in IDEALS.read_text(encoding="utf-8").splitlines() if l.startswith("I2:")]
    i2, seed_23 = line.split(":", 1)[1].strip(), str(random_ideal(RandomIdealSpec(8, 20, seed=23)))
    cases = [(i2, 6), (i2, 7), (i2, 39), (i2, 41), (i2, 244), (seed_23, 67), (seed_23, 200), (seed_23, 330)]
    records = _python("-O", "-c", _POWER_CASES, json.dumps(cases)).decode().splitlines()
    assert len(records) == len(cases), records
    for (ideal, n), record in zip(cases, records):
        naive = str(naive_power(parse_ideal(ideal), n)) + "\n"
        assert json.loads(record) == [0, naive], (ideal, n)


#: Prints the name of the error each call raises, or ``none``; it exits at
#: once unless ``-O`` stripped the asserts.  The child runs without the
#: suite's check of ``MonomialIdeal._canonical``, so only the O(1) checks
#: of ``shift``, ``pair_power``, ``link_blocks`` and ``_canonical``'s dtype
#: check can raise.
_RANGE_CASES = """
import sys
from stairpow.ideals import MonomialIdeal, pair_power
from stairpow.links import link_blocks
if __debug__:
    sys.exit("run me under -O")
part = MonomialIdeal(((0, 2), (3, 0)))
for call in (
    lambda: part.shift((-1, 0)),
    lambda: part.shift((0, -1)),
    lambda: part.shift((0.5, 0)),
    lambda: pair_power((-1, 2), (3, 0), 2),
    lambda: pair_power((0.5, 2), (3, 0), 2),
    lambda: link_blocks([(part, 2)], (-1, 0)),
    lambda: link_blocks([(part, 2)], (0, -1)),
    lambda: link_blocks([(part.shift((1, 0)), 2)]),
    lambda: link_blocks([(MonomialIdeal(((0, 1), (1, 0))), -1), (MonomialIdeal(((0, 2), (1, 1), (3, 0))), 1)], (4, 4)),
):
    try:
        call()
        print("none")
    except Exception as exc:
        print(type(exc).__name__)
"""


def test_range_checks_under_optimize():
    names = _python("-O", "-c", _RANGE_CASES).decode().split()
    overflow = "ExponentOverflowError"
    assert names == [
        overflow, overflow, "ValueError", overflow, "ValueError", overflow, overflow, "ValueError", "ValueError"
    ], names


def test_check_under_optimize():
    # The band shift's generator count and the glued-span checks raise rather
    # than assert, so the differential suite still checks them under -O.
    out = _python("-O", "-m", "stairpow.cli", "check", "--count", "3").decode()
    assert "3 ideals" in out and "0 mismatches" in out, out
