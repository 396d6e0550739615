import csv
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from stairpow import cli, engine, oracle
from stairpow.cli import main
from stairpow.ideals import ExponentOverflowError, MonomialIdeal, naive_power
from stairpow.oracle import RandomIdealSpec, random_ideal
from stairpow.textio import ParseError

SMALL = MonomialIdeal(((0, 2), (2, 1), (3, 0)))
BIG = MonomialIdeal.of((0, 10), (1, 9), (2, 5), (4, 4), (5, 3), (6, 2), (12, 1), (15, 0))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_small(capsys):
    code, out, _ = run(capsys, "analyze", "y^2 + x^2*y + x^3")
    assert code == 0
    assert "D                  1" in out
    assert "reduction m        none" in out  # P misses x^2*y, and only m = 0 is below D = 1
    assert "r                  1" in out
    assert "s                  3" in out


def test_analyze_big(capsys):
    code, out, _ = run(
        capsys, "analyze", "[(0,10),(1,9),(2,5),(4,4),(5,3),(6,2),(12,1),(15,0)]"
    )
    assert code == 0
    assert "D                  40" in out
    assert "reduction m        1" in out
    assert "r                  200" in out
    assert "s                  241" in out
    # The count at the paper's s, from the polynomial of the onset's s = 7.
    assert out.splitlines()[-3:] == [
        "mu(I^s)            1688", "slope              7", "mu(I^n)            1688 + 7*(n - 241) for n >= 241"
    ]


@pytest.mark.parametrize(
    "text, level", [(str(BIG), 1), (str(random_ideal(RandomIdealSpec(8, 20, seed=23))), 68)], ids=["BIG", "seed23"]
)
def test_analyze_cuts_one_decomposition(capsys, monkeypatch, text, level):
    # The plan's one decomposition, at the onset (BIG: m = 1) or, where none
    # is certified (seed 23), at D_P = 68: no power at the paper's s is built.
    levels, real = [], engine.Plan.cut
    monkeypatch.setattr(engine.Plan, "cut", lambda plan, level: levels.append(level) or real(plan, level))
    code, _, err = run(capsys, "analyze", text)
    assert (code, levels) == (0, [level]), err


@pytest.mark.parametrize("text, weakly, onset", [
    ("y^2 + x^2*y + x^3", False, ("none", "none")),  # D_P = 1: no level to try
    (str(BIG), False, ("1", "7")),
    ("[(0,4),(1,3),(2,2),(4,0)]", False, ("2", "5")),
    ("[(0,4),(1,3),(2,2),(4,0)]", True, ("1", "6")),  # P = P*(I) = G(I): reduction number 0
])
def test_analyze_onset_lines(capsys, text, weakly, onset):
    # The onset power() serves from, for the chosen P, after the paper's s.
    code, out, _ = run(capsys, "analyze", text, *(["--use-weakly-persistent"] if weakly else []))
    assert code == 0
    lines = out.splitlines()
    s = lines.index(next(line for line in lines if line.startswith("s ")))
    assert lines[s + 1 : s + 3] == [f"onset m            {onset[0]}", f"onset s            {onset[1]}"]


def test_analyze_reduction_from_the_plan(capsys):
    # D = 6: the plan's kernel checks every step below D and finds m = 2.
    code, out, _ = run(capsys, "analyze", "[(0,4),(1,3),(2,2),(4,0)]")
    assert code == 0
    assert _analyze_lines(out)["reduction m"] == "2"


def test_analyze_principal_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "x^3")
    assert code == 2
    assert "principal" in err


def test_analyze_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "analyze", "x^2 + qq")
    assert code == 1
    assert "position" in err


def test_pair_list_parse_error_position(capsys):
    code, out, err = run(capsys, "analyze", "  [(0,2),\n (3,0)+]")
    assert (code, out, err) == (1, "", "error: malformed pair list (at position 17)\n")


def test_invalid_pair_names_no_position(capsys):
    # Only a parse error at a known offset names a position.
    code, out, err = run(capsys, "power", "[(0,5),(1,-1)]", "2")
    assert (code, out, err) == (1, "", "error: invalid exponent pair (1, -1)\n")


def test_power_fast_vs_naive(capsys):
    # n = s = 3: the assembled route.
    code, out, _ = run(capsys, "power", "y^2 + x^2*y + x^3", "3")
    assert (code, out) == (0, str(naive_power(SMALL, 3)) + "\n")
    assert out.count("(") == 7


def _analyze_lines(out):
    return dict((line[:19].strip(), line[19:]) for line in out.splitlines())


#: Ideal text -> its P*(I) and P(I), as generators of the ideal as given.
BOUNDARY_SETS = {
    "[(0,4),(1,3),(2,2),(4,0)]": ("[(0, 4), (1, 3), (2, 2), (4, 0)]", "[(0, 4), (4, 0)]"),
    "[(2,7),(3,6),(4,5),(6,3)]": ("[(2, 7), (3, 6), (4, 5), (6, 3)]", "[(2, 7), (6, 3)]"),
}


@pytest.mark.parametrize("text", BOUNDARY_SETS)
def test_analyze_weakly_persistent(capsys, text):
    # The edge from y^4 to x^4 carries x*y^3 and x^2*y^2; the second ideal is
    # the first times x^2*y^3.
    weakly, persistent = BOUNDARY_SETS[text]
    code, out, _ = run(capsys, "analyze", text, "--use-weakly-persistent")
    assert code == 0
    lines = _analyze_lines(out)
    assert lines["chosen P"] == lines["weakly persistent"] == weakly
    assert lines["persistent P(I)"] == persistent
    assert lines["reduction m"] == "0"  # P is all of G(I)


def test_power_decomposed_builds_no_decomposition(capsys, monkeypatch):
    # Where power() reads the block form, no decomposition is built: BIG
    # (m = 1, s = 7) reads at t = 1 and seed 23, which certifies no onset
    # (m = D_P = 68, s = 324), at t = 4, so every power here is the read's
    # link, below s and from it.
    cuts = []
    real = engine.Plan.cut
    monkeypatch.setattr(engine.Plan, "cut", lambda plan, level: cuts.append(level) or real(plan, level))
    shifted, uncertified = BIG.shift((2, 3)), random_ideal(RandomIdealSpec(8, 20, seed=23))
    for ideal, n in ((shifted, 1), (shifted, 5), (shifted, 9), (uncertified, 67), (uncertified, 200)):
        code, out, err = run(capsys, "power", str(ideal), str(n))
        assert (code, out) == (0, str(naive_power(ideal, n)) + "\n"), err
        assert cuts == [], (n, cuts)


def test_power_n1_echo(capsys):
    code, out, _ = run(capsys, "power", "x^3 + y^2", "1")
    assert code == 0
    assert out.strip() == "[(0, 2), (3, 0)]"


def test_power_terms_format(capsys):
    code, out, _ = run(capsys, "power", "y^2+x^3", "2", "--format", "terms")
    assert code == 0
    assert out.splitlines() == ["y^4", "x^3*y^2", "x^6"]


def test_power_invalid_n_exit_2(capsys):
    code, _, _ = run(capsys, "power", "y^2+x^3", "0")
    assert code == 2


def test_mu_polynomial_output(capsys):
    code, out, _ = run(capsys, "mu", "y^2 + x^2*y + x^3")
    assert code == 0
    assert "7 + 2*(n - 3) for n >= 3" in out


def test_mu_prestable(capsys):
    code, out, _ = run(capsys, "mu", "y^2 + x^2*y + x^3", "2")
    assert code == 0
    assert "pre-stable" in out and "mu(I^2) = 5" in out


def test_mu_at_n(capsys):
    code, out, _ = run(capsys, "mu", "y^2 + x^2*y + x^3", "10")
    assert code == 0
    assert "mu(I^10) = 21" in out


@pytest.mark.parametrize("argv, line", [([], "mu(I^n) = 1 for all n >= 1 (principal ideal)"), (["7"], "mu(I^7) = 1")])
def test_mu_principal(capsys, argv, line):
    code, out, err = run(capsys, "mu", "x^2*y^3", *argv)
    assert (code, out, err) == (0, line + "\n", "")


@pytest.mark.parametrize("text", ["x^2*y^3", "y^2 + x^2*y + x^3"])
@pytest.mark.parametrize("n", ["0", "-4"])
def test_mu_invalid_n_exit_2(capsys, text, n):
    code, out, err = run(capsys, "mu", text, n)
    assert (code, out) == (2, "") and "power must be >= 1" in err


def test_mu_prestable_builds_no_decomposition(capsys, monkeypatch):
    # The onset's s = 7 comes from the plan; below it the count is that of I^n.
    def refuse(*args, **kwargs):
        raise AssertionError("mu_polynomial called")

    monkeypatch.setattr(cli, "mu_polynomial", refuse)
    code, out, _ = run(capsys, "mu", str(BIG), "5")
    assert (code, out) == (0, f"mu(I^5) = {naive_power(BIG, 5).mu}  (pre-stable: n < s = 7)\n")


@pytest.mark.parametrize(
    "argv, line", [(["7"], "mu(I^7) = 50"), (["100"], "mu(I^100) = 701"), ([], "mu(I^n) = 50 + 7*(n - 7) for n >= 7")]
)
def test_mu_from_the_onset_builds_no_power(capsys, monkeypatch, argv, line):
    # From the onset's s = 7 on, below the paper's s = 241 too, the count is
    # the polynomial's: no I^n is assembled to count it.
    def refuse(*args, **kwargs):
        raise AssertionError("power called")

    monkeypatch.setattr(cli, "power", refuse)
    code, out, err = run(capsys, "mu", str(BIG), *argv)
    assert (code, out, err) == (0, line + "\n", "")
    assert (naive_power(BIG, 7).mu, naive_power(BIG, 100).mu) == (50, 701)


def test_bench_csv(tmp_path, capsys):
    ideals = tmp_path / "ideals.txt"
    ideals.write_text("small: y^2 + x^2*y + x^3\n# comment\n")
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys,
        "bench",
        str(ideals),
        "--powers",
        "s,s+10",
        "--methods",
        "naive,decomposed,assembled",
        "--timeout",
        "60",
        "--csv",
        str(csv_path),
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
    assert {r["method"] for r in rows} == {"naive", "decomposed", "assembled"}
    assert set(rows[0]) == {"ideal", "method", "n", "preprocess_ms", "compute_ms", "mu"}
    # generator counts agree across methods per (ideal, n)
    by_n = {}
    for r in rows:
        by_n.setdefault(r["n"], set()).add(r["mu"])
    assert all(len(v) == 1 for v in by_n.values())


def test_bench_decomposed_cell_builds_no_decomposition(monkeypatch):
    # The decomposed route needs only the profile and I^D_P.
    def refuse(*args, **kwargs):
        raise AssertionError("stable_decomposition called")

    monkeypatch.setattr(cli, "stable_decomposition", refuse)
    _, _, mu = cli._bench_cell(BIG, "decomposed", 60)
    assert mu == naive_power(BIG, 60).mu


def test_bench_s_without_decomposition(tmp_path, capsys, monkeypatch):
    # s follows from the persistence profile; naive cells need nothing more.
    def refuse(*args, **kwargs):
        raise AssertionError("stable_decomposition called")

    monkeypatch.setattr(cli, "stable_decomposition", refuse)
    ideals = tmp_path / "ideals.txt"
    ideals.write_text("small: y^2 + x^2*y + x^3\nsh: [(2,13),(3,10),(5,8),(9,3)]\n")
    csv_path = tmp_path / "rows.csv"
    argv = ["bench", str(ideals), "--powers", "s,s+1", "--methods", "naive"]
    argv += ["--csv", str(csv_path)]
    # The longest timeout poll takes still joins the workers.
    code, _, err = run(capsys, *argv, "--timeout", str(cli.BENCH_TIMEOUT_MAX))
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
    assert [(r["ideal"], r["n"]) for r in rows] == [
        ("small", "3"), ("small", "4"), ("sh", "88"), ("sh", "89")
    ]
    ideals.write_text("p: x^3*y^2\n")
    code, _, err = run(capsys, *argv)
    assert code == 2 and "principal" in err


def test_bench_refuses_out_of_range_cells(tmp_path, capsys, monkeypatch):
    # D_P = 40 and s = 241 come from the profile; a cell below its method's
    # least power is refused with the engine's message before any fork.
    def refuse(*args, **kwargs):
        raise AssertionError("worker forked")

    monkeypatch.setattr(cli.multiprocessing, "get_context", refuse)
    ideals = tmp_path / "ideals.txt"
    ideals.write_text("big: [(0,10),(1,9),(2,5),(4,4),(5,3),(6,2),(12,1),(15,0)]\n")
    argv = ["bench", str(ideals), "--powers", "5,241", "--methods"]
    code, out, err = run(capsys, *argv, "naive,decomposed,assembled")
    assert (code, out) == (2, "") and "decomposed power needs n >= D_P = 40, got 5" in err
    code, out, err = run(capsys, *argv, "naive,assembled")
    assert (code, out) == (2, "") and "assembled power needs n >= s = 241, got 5" in err
    # n < 1 is refused for every method with the message power and mu give.
    for method in ("naive", "decomposed", "assembled"):
        for n in ("0", "-3"):
            code, out, err = run(capsys, "bench", str(ideals), f"--powers={n}", "--methods", method)
            assert (code, out) == (2, "") and f"power must be >= 1, got {n}" in err, method


@pytest.mark.parametrize(
    "option",
    [
        "--powers=", "--powers= , ", "--methods=", "--methods=naive,foo",
        "--timeout=0", "--timeout=-1", "--timeout=nan",
        "--timeout=inf", "--timeout=3e6", f"--timeout={cli.BENCH_TIMEOUT_MAX + 1}",
    ],
)
def test_bench_refuses_bad_arguments(tmp_path, capsys, monkeypatch, option):
    # No power, no method, or a timeout that is not positive or longer than
    # poll takes: a usage error before any fork, not an empty table, a table
    # of dashes or an OverflowError in the join.
    def refuse(*args, **kwargs):
        raise AssertionError("worker forked")

    monkeypatch.setattr(cli.multiprocessing, "get_context", refuse)
    ideals = tmp_path / "ideals.txt"
    ideals.write_text(f"small: {SMALL}\n")
    code, out, err = run(capsys, "bench", str(ideals), option)
    assert (code, out) == (1, "") and err.startswith("error: ") and "position" not in err, err


def test_bench_unreadable_or_empty_file_exit_1(tmp_path, capsys):
    code, out, err = run(capsys, "bench", str(tmp_path / "missing.txt"))
    assert (code, out) == (1, "") and "No such file" in err
    path = tmp_path / "comments.txt"
    path.write_text("# only a comment\n\n")
    code, out, err = run(capsys, "bench", str(path))
    assert (code, out) == (1, "") and "no ideals found" in err


def test_read_bench_ideals_splits_at_the_last_colon(tmp_path):
    # Ideal text never holds a colon, so a label may; no label numbers the line.
    path = tmp_path / "ideals.txt"
    path.write_text("# comment\nrun 2: I1: y^2 + x^2*y + x^3\n[(0,4),(4,0)]\n: [(0,2),(2,1),(3,0)]\n")
    assert cli._read_bench_ideals(str(path)) == [
        ("run 2: I1", SMALL), ("I_2", MonomialIdeal.of((0, 4), (4, 0))), ("I_3", SMALL)
    ]


@pytest.mark.parametrize(
    "token, expected",
    [
        ("s", 3),
        ("1e4", 10_000),
        ("s+1e2", 103),
        ("9007199254740993", 9007199254740993),
        ("s+123456789012345678", 123456789012345681),
        ("2.7", ParseError),
        ("s+0.5", ParseError),
        ("nan", ParseError),
        ("inf", ParseError),
        ("s+abc", ParseError),
        ("1e999999999", ExponentOverflowError),
    ],
)
def test_parse_power_token_exact(token, expected):
    # s = 3; integers are read exactly, never through a float.
    if isinstance(expected, int):
        assert cli._parse_power_token(token, 3) == expected
    else:
        with pytest.raises(expected):
            cli._parse_power_token(token, 3)


def test_bench_timeout_dash(tmp_path, capsys, monkeypatch):
    # A cell that outlives --timeout; the forked worker inherits the patch.
    monkeypatch.setattr(cli, "_bench_cell", lambda *args: time.sleep(5))
    ideals = tmp_path / "ideals.txt"
    ideals.write_text("[(0,9),(2,6),(5,3),(9,0)]\n")
    code, out, _ = run(
        capsys,
        "bench",
        str(ideals),
        "--powers",
        "s+200",
        "--methods",
        "naive",
        "--timeout",
        "0.05",
    )
    assert code == 0
    assert "—" in out


def test_bench_raised_cell_is_an_error(tmp_path, capsys):
    # I^(10^18) of SMALL has about 2e18 generators: the worker raises, which
    # is an error row and exit 2, not the timeout's dash.
    ideals = tmp_path / "small.txt"
    ideals.write_text(f"{SMALL}\n")
    code, out, err = run(capsys, "bench", str(ideals), "--powers", "1e18", "--methods", "assembled")
    assert code == 2 and "1 bench cell(s) raised" in err
    (row,) = list(csv.DictReader(io.StringIO(out.split("\n\n", 1)[1])))
    assert row["n"] == str(10**18) and row["preprocess_ms"] == row["compute_ms"] == row["mu"] == "error"
    assert "—" not in out


def test_bench_cells_ignore_the_plan_memo(monkeypatch):
    # A forked worker inherits the parent's plans; preprocess_ms must still
    # time a decomposition and an I^D_P of its own.
    s = engine.persistence_profile(BIG).s
    engine.power(BIG, s)
    decompositions, bases = [], []
    real_decomposition, real_level_power = cli.stable_decomposition, cli.level_power
    monkeypatch.setattr(cli, "stable_decomposition", lambda *a: decompositions.append(a) or real_decomposition(*a))
    monkeypatch.setattr(cli, "level_power", lambda *a: bases.append(a) or real_level_power(*a))
    assert cli._bench_cell(BIG, "assembled", s)[2] == engine.power(BIG, s).mu
    assert len(decompositions) == 1
    assert cli._bench_cell(BIG, "decomposed", 60)[2] == naive_power(BIG, 60).mu
    assert bases == [(BIG, 40, engine.persistence_profile(BIG).chosen)]


@pytest.mark.parametrize(
    "argv, forms", [(["5"], 1), (["300"], 1), ([], 1), (["100"], 1), (["6"], 1), (["7"], 1), (["1"], 0)]
)
def test_mu_builds_one_profile(capsys, monkeypatch, argv, forms):
    # s, the count below it and the polynomial from s on share one plan, which
    # builds one block form.  Below the onset's s = 7 the count is power's, the
    # link of the read at t = 1; from s on, below the paper's s = 241 too, the
    # count is the polynomial's, from the one cut at m.  I^1 needs neither.
    calls = {"persistence_profile": [], "cut": [], "read": []}
    for owner, name in ((engine, "persistence_profile"), (cli, "persistence_profile"), (engine.Plan, "cut")):
        real, seen = getattr(owner, name), calls[name]
        monkeypatch.setattr(owner, name, lambda *a, seen=seen, real=real: seen.append(a) or real(*a))
    read = engine.Plan.read.func
    monkeypatch.setattr(engine.Plan, "read", property(lambda plan: calls["read"].append(plan) or read(plan)))
    code, out, err = run(capsys, "mu", str(BIG), *argv)
    assert code == 0, err
    assert len(calls["persistence_profile"]) == 1
    assert (len(calls["read"]), len(calls["cut"])) == ((forms, 0) if argv and int(argv[0]) < 7 else (0, forms))


def test_check_suite(capsys):
    code, out, _ = run(capsys, "check", "--count", "3")
    assert code == 0
    assert "0 mismatches" in out


@pytest.mark.parametrize("count", ["0", "-3"])
def test_check_refuses_an_empty_suite(capsys, monkeypatch, count):
    # No ideal to compare would pass vacuously: a usage error before any is built.
    def refuse(*args, **kwargs):
        raise AssertionError("suite ran")

    monkeypatch.setattr(cli, "check_corpus", refuse)
    code, out, err = run(capsys, "check", "--count", count)
    assert (code, out, err) == (1, "", f"error: --count must be at least 1, got {count}\n")


def test_check_prints_a_failure(capsys, monkeypatch):
    # Assembly drops a generator at s = 663 of the first corpus ideal, whose
    # 77 records compare with the staircase expansion or repeated
    # multiplication (power() assembles 663 through the engine's own,
    # unpatched name): one FAIL record, its ideal's FAIL summary and exit 1.
    real = oracle.assemble_power

    def dropped(dec, n):
        result = real(dec, n)
        return MonomialIdeal(result.gens[1:]) if n == 663 else result

    monkeypatch.setattr(oracle, "assemble_power", dropped)
    code, out, _ = run(capsys, "check", "--count", "1")
    assert (code, out.splitlines()) == (1, [
        "FAIL seed=0 n=663 assembled vs decomposed",
        "FAIL seed=0: 77 comparisons, 1 mismatches",
        "check suite: 1 ideals, 77 comparisons, 1 mismatches (seed=0)",
    ])


@pytest.mark.parametrize("option", ["--verbose", "--tail=3", "--mu-max=5", "--exp-max=9"])
def test_check_takes_only_count_and_seed(capsys, option):
    code, out, err = run(capsys, "check", "--count", "1", option)
    assert (code, out) == (1, "") and "unrecognized arguments" in err


#: The ``stairpow`` entry point, and one that prints again after ``main``
#: returned, as the interpreter's own flush at exit may.
ENTRIES = {
    "module": ["-m", "stairpow.cli"],
    "print after": ["-c", "import sys; from stairpow.cli import main; code = main(); print(); sys.exit(code)"],
}


@pytest.mark.parametrize("entry", ENTRIES)
def test_broken_pipe_exit_141(entry):
    # The reader closes stdout after one line: no traceback, no error line.
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable, *ENTRIES[entry], "power", str(SMALL), "100000", "--format", "terms"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"y^200000\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (141, b"")


def test_usage_error_exit_1(capsys):
    assert main(["nonsense"]) == 1


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 1.46 TiB for an array"), ": Unable to allocate 1.46 TiB for an array"),
        (MemoryError(), ""),
    ],
    ids=["numpy", "bare"],
)
def test_memory_error_exit_2(capsys, monkeypatch, exc, message):
    # G(I^(5e10)) of SMALL needs about 1.46 TiB.  The error is raised here,
    # never provoked: where memory is overcommitted the real request would
    # fill memory instead of being refused.
    def refuse(*args):
        raise exc

    monkeypatch.setattr(cli, "power", refuse)
    code, out, err = run(capsys, "power", str(SMALL), "50000000000")
    assert (code, out, err) == (2, "", f"error: output too large to allocate{message}\n")


def test_output_past_one_array_exit_2(capsys):
    # 2^63 generators fit no numpy array: refused before any allocation.
    code, out, err = run(capsys, "power", "[(0,1),(1,0)]", str(2**63 - 1))
    message = f"{2**63} generators, over the {2**59 - 1} one array holds"
    assert (code, out, err) == (2, "", f"error: output too large to allocate: {message}\n")


def test_overflow_exit_3(capsys):
    huge = 1 << 62
    code, _, err = run(capsys, "power", f"[({huge}, 0), (0, {huge})]", "4")
    assert code == 3
