"""Source-level checks on the package itself."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import stairpow
from stairpow import engine
from stairpow.ideals import naive_power
from stairpow.oracle import RandomIdealSpec, random_ideal
from stairpow.textio import parse_ideal
from test_ideals import fixed_ideals

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
    assert lines <= 2194, f"src/stairpow has {lines} lines, over the 2194-line budget"


def _is_frozen_dataclass(decorator):
    return (
        isinstance(decorator, ast.Call)
        and getattr(decorator.func, "id", None) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", None) is True for k in decorator.keywords)
    )


def test_no_frozen_dataclass_has_a_default_factory():
    # A frozen dataclass is a value: a field made by ``default_factory``, a
    # dict or a list to fill after construction, would let its state depend
    # on the calls it has served.
    frozen, found = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(map(_is_frozen_dataclass, node.decorator_list)):
                frozen.add(node.name)
                found += [
                    f"{path.name}:{call.lineno}"
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call) and any(k.arg == "default_factory" for k in call.keywords)
                ]
    assert {"LinkTemplates", "StableDecomposition"} <= frozen, frozen
    assert not found, f"default_factory fields in frozen dataclasses: {found}"


def _private_names_outside(module):
    """Where a ``src/`` module other than ``module`` imports an underscore
    name from it or reads one off it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == module:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").rsplit(".", 1)[-1] == module:
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == module:
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.startswith("_")]
    return found


def test_no_private_engine_names_outside_engine():
    # The plan reaches every other module through its public names.
    found = _private_names_outside("engine")
    assert not found, f"private engine names used outside engine: {found}"


def test_no_private_link_names_outside_links():
    # The link kernel and its run record are decisions of ``links`` alone:
    # every other module links through ``link_many`` or ``LinkTemplates``.
    found = _private_names_outside("links")
    assert not found, f"private links names used outside links: {found}"


def test_onset_policy_lives_in_engine():
    # The level kernel only steps levels: how many levels the onset search
    # tries, the (E*) predicate it asks and its give-up are engine's loop
    # alone.  ``segments`` defines ``_pairs_covered``; only ``engine`` reads
    # it or ``_ONSET_TRIES``, which only ``engine`` assigns.
    policy, assigned, read = {"_ONSET_TRIES", "_pairs_covered"}, [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                read += [(path.stem, alias.name) for alias in node.names if alias.name in policy]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                if name in policy:
                    (assigned if isinstance(node.ctx, ast.Store) else read).append((path.stem, name))
    assert assigned == [("engine", "_ONSET_TRIES")], assigned
    assert set(read) == {("engine", "_ONSET_TRIES"), ("engine", "_pairs_covered")}, read


def test_only_engine_and_level_power_iterate_the_level_kernel():
    # The level kernel only steps levels: each loop over it in src/ is a
    # policy of engine's (the onset search, the block form's read) or
    # level_power's last level, and nothing else reads or imports it.
    loops, reads, imports = [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            loops += [
                (path.stem, function.name)
                for node in ast.walk(function)
                if isinstance(node, ast.For) and getattr(getattr(node.iter, "func", None), "id", None) == "_levels"
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "_levels":
                reads.append(path.stem)
            elif isinstance(node, ast.ImportFrom):
                imports += [path.stem for alias in node.names if alias.name == "_levels"]
    assert sorted(loops) == [("engine", "__init__"), ("engine", "read"), ("ideals", "level_power")], loops
    assert len(reads) == len(loops) and imports == ["engine"], (reads, imports)


def test_staircase_sum_allocates_and_sweeps_once():
    # Slices and window tables are both pieces of one level array: the sum
    # allocates it in one place and sweeps in one place, whichever route it takes.
    tree = ast.parse((SRC / "segments.py").read_text(encoding="utf-8"))
    function = next(node for node in ast.walk(tree) if getattr(node, "name", None) == "staircase_sum")
    calls = Counter(ast.unparse(node.func) for node in ast.walk(function) if isinstance(node, ast.Call))
    assert (calls["np.empty"], calls["_level_staircase"]) == (1, 1), calls


def _index_calls(tree):
    """The lines of the ``operator.index(...)`` calls under an AST node."""
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "index"
        and getattr(node.func.value, "id", None) == "operator"
    }


def test_counts_have_one_reader():
    # ideals._count is the one caller of operator.index: every public count
    # is read there, exactly, where it enters.
    calls, reader = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(n, ast.ImportFrom) and n.module == "operator" for n in ast.walk(tree)), path.name
        calls |= {(path.name, line) for line in _index_calls(tree)}
        if path.name == "ideals.py":
            (count,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_count"]
            reader = {(path.name, line) for line in _index_calls(count)}
    assert reader and calls == reader, sorted(calls - reader)


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


def _python(*args, timeout=120):
    proc = subprocess.run(
        [sys.executable, *args],
        env=_env(),
        capture_output=True,
        timeout=timeout,
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
    engine.cached_plan.cache_clear()
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


#: Prints a JSON ``[name, message]`` line for the error each call raises,
#: or ``["none", ""]``; it exits at once unless ``-O`` stripped the asserts.
#: The child runs without the suite's check of ``MonomialIdeal._canonical``,
#: so only the O(1) checks of ``shift``, ``colon``, ``pair_power``, ``LinkTemplates``,
#: ``_canonical``'s dtype check, the exact reads of numpy integer counts and
#: monomials, the range checks behind them and ``glued_cut``'s two checks of
#: the cut (each an AssertionError that ``-O`` keeps) can raise; a RuntimeWarning
#: (an int64 sum or product that wrapped) is raised as an error.
_RANGE_CASES = """
import json, sys, warnings
import numpy as np
from stairpow.engine import decomposed_power
from stairpow.geometry import persistence_profile
from stairpow.ideals import UNIT, MonomialIdeal, level_power, mon_pow, pair_power
from stairpow.links import LinkTemplates
from stairpow.segments import glued_components, glued_cut, glued_power, staircase_sum
if __debug__:
    sys.exit("run me under -O")
warnings.simplefilter("error")
part, huge, big = MonomialIdeal(((0, 2), (3, 0))), np.int64(2**62 + 1), np.int64(2**62)
one = LinkTemplates((UNIT, UNIT), (part,))
for call in (
    lambda: part.shift((-1, 0)),
    lambda: part.shift((0, -1)),
    lambda: part.shift((0.5, 0)),
    lambda: pair_power((-1, 2), (3, 0), 2),
    lambda: pair_power((0.5, 2), (3, 0), 2),
    # A bool is no exponent and no count, as the constructor refuses it.
    lambda: part.shift((True, 0)),
    lambda: pair_power((0, True), (3, 0), 2),
    lambda: pair_power((0, 2), (3, 0), True),
    lambda: one.link(2, (-1, 0)),
    lambda: one.link(2, (0, -1)),
    lambda: LinkTemplates((UNIT, UNIT), (part.shift((1, 0)),)),
    lambda: one.link(-1, (4, 4)),
    lambda: level_power(part, huge),
    lambda: pair_power((0, 2), (3, 0), huge),
    lambda: staircase_sum(((0, 2), (3, 0)), huge, part),
    lambda: decomposed_power(part, persistence_profile(part), huge),
    lambda: one.link(huge),
    lambda: glued_power(glued_components(((0, 2), (3, 0)), part, 1), huge),
    # A colon reads its monomial exactly and refuses a negative exponent.
    lambda: part.colon((-1, 0)),
    lambda: part.colon((np.int64(-2**63), 0)),
    lambda: part.colon((0.5, 0)),
    # Cuts of the pair y^2, x^3 at r = 1 without a link point, and with a
    # middle block one too high (see test_segments).
    lambda: glued_cut(part.gens, MonomialIdeal(((0, 1), (9, 0))), 1),
    lambda: glued_cut(part.gens, MonomialIdeal(((0, 6), (2, 5), (5, 3), (6, 2), (8, 1), (9, 0))), 1),
    # Numpy integer monomials, whose sums and products wrapped before any range check.
    lambda: one.link(2, (np.int64(2**63 - 2), 0)),
    lambda: part.shift((np.int64(2**63 - 1), 0)),
    lambda: pair_power((0, big), (big, 0), 2),
    lambda: mon_pow((big, 1), 2),
):
    try:
        call()
        print(json.dumps(["none", ""]))
    except Exception as exc:
        print(json.dumps([type(exc).__name__, str(exc)]))
"""


def test_range_checks_under_optimize():
    records = [json.loads(line) for line in _python("-O", "-c", _RANGE_CASES).decode().splitlines()]
    overflow = "ExponentOverflowError"
    assert [name for name, _ in records] == [
        overflow, overflow, "TypeError", overflow, "TypeError", *["TypeError"] * 3,
        overflow, overflow, "ValueError", "ValueError",
        *[overflow] * 6, "ValueError", "ValueError", "TypeError", "AssertionError", "AssertionError",
        *[overflow] * 4,
    ], records
    assert [message for _, message in records[5:8]] == ["'bool' object cannot be interpreted as an integer"] * 3, records
    assert [message for _, message in records[18:20]] == [
        f"colon exponent must be non-negative, got {m}" for m in (-1, -2**63)
    ], records
    assert [message for _, message in records[21:23]] == [
        "no generator above the link-point threshold", "middle block 1 does not span its staircase step"
    ], records
    # The numpy monomials are read exactly: each error names the true exponents.
    assert [message for _, message in records[-4:]] == [
        f"exponent pair ({pair}) out of range"
        for pair in (f"{2**63 + 4}, 4", f"{2**63 + 2}, 2", f"{2**63}, {2**63}", f"{2**63}, 2")
    ], records


#: Prints the name of the error each call raises, or ``none``: powers whose
#: repeated multiplication would run practically forever, run in a child
#: with a timeout so that a hang fails instead of blocking the suite.
_HUGE_POWERS = """
from stairpow.ideals import MonomialIdeal, level_power, naive_power
for call in (
    lambda: naive_power(MonomialIdeal(((0, 2), (2, 1), (3, 0))), 2**62 + 1),
    # A sparse span, so level_power hands it to naive_power.
    lambda: level_power(MonomialIdeal(((0, 900), (2, 500), (7, 200), (300, 0))), 2**62),
):
    try:
        call()
        print("none")
    except Exception as exc:
        print(type(exc).__name__)
"""


def test_huge_powers_are_refused_at_once():
    names = _python("-c", _HUGE_POWERS, timeout=60).decode().split()
    assert names == ["ExponentOverflowError"] * 2, names


#: Prints the generators of principal ideals' powers: once computed by
#: ``n - 1`` multiplications, so run in a child with a timeout, as above.
_PRINCIPAL_POWERS = """
from stairpow.ideals import ExponentOverflowError, MonomialIdeal, level_power, naive_power
for power in (naive_power, level_power):
    for gen, n in (((0, 0), 10**12), ((1, 2), 10**12), ((3, 0), 2**61), ((2, 1), 2**62)):
        try:
            print(power(MonomialIdeal((gen,)), n).gens)
        except ExponentOverflowError as exc:
            print(exc)
"""


def test_principal_powers_return_at_once():
    lines = _python("-c", _PRINCIPAL_POWERS, timeout=60).decode().splitlines()
    expected = [f"(({a}, {b}),)" for a, b in ((0, 0), (10**12, 2 * 10**12), (3 * 2**61, 0))]
    expected.append(f"exponent pair ({2**63}, {2**62}) out of range")
    assert lines == expected * 2, lines


def test_no_numpy_python_frame_on_the_routes_of_power():
    # Every route of power reaches numpy by its C entry points (ufuncs, array
    # methods, np.empty), never by a Python-level wrapper such as np.full or
    # np.take, whose frames cost most on a cold cache.  Each plan is built
    # first, to pick the powers; the onset search of a fresh twin is
    # profiled with them.
    numpy_dir = str(Path(np.__file__).parent) + os.sep
    given = [*fixed_ideals().values(), *(random_ideal(RandomIdealSpec(8, 20, seed=seed)) for seed in range(50))]
    found = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            found.append(f"{frame.f_code.co_name} from {frame.f_back.f_code.co_name}")

    for ideal in given + [ideal.transpose() for ideal in given]:
        plan = engine.cached_plan(ideal)
        powers = sorted(n for n in {2, plan.m - 1, plan.m + 1, plan.s - 1, plan.s, plan.s + 100} if n >= 1)
        sys.setprofile(profile)
        try:
            engine.Plan(ideal)
            for n in powers:
                engine.power(ideal, n)
        finally:
            sys.setprofile(None)
        assert not found, (str(ideal), powers, found)


def test_no_numpy_python_frame_in_stable_decomposition():
    # The paper cut of a fresh ideal, as the decompose benchmark runs it on
    # each ideal transposed or not and shifted by (xy)^j, reaches numpy by
    # its C entry points alone.  Nothing is built first: the (E*) predicate
    # plans its products per plan and caches no pattern.
    numpy_dir = str(Path(np.__file__).parent) + os.sep
    given = [*fixed_ideals().values(), *(random_ideal(RandomIdealSpec(8, 20, seed=seed)) for seed in range(50))]
    given = [form for ideal in given if not ideal.is_principal for form in (ideal, ideal.transpose())]
    found = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            found.append(f"{frame.f_code.co_name} from {frame.f_back.f_code.co_name}")

    for j in (1, 2, 3):  # each shift a new ideal, with nothing cached
        for ideal in given:
            shifted = ideal.shift((j, j))
            sys.setprofile(profile)
            try:
                engine.stable_decomposition(shifted)
            finally:
                sys.setprofile(None)
            assert not found, (str(shifted), found)


def test_readme_library_tour():
    # The README's tour runs as written, and its comments state true values.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(tour, "README.md", "exec"), scope)
    dec, poly = scope["dec"], scope["poly"]
    assert (dec.D, dec.r, dec.s) == (1, 1, 3)
    assert poly(10**9) == 7 + 2 * (10**9 - 3)


def test_check_under_optimize():
    # The band shift's generator count and the glued-span checks raise rather
    # than assert, so the differential suite still checks them under -O.
    out = _python("-O", "-m", "stairpow.cli", "check", "--count", "3").decode()
    assert "3 ideals" in out and "0 mismatches" in out, out
