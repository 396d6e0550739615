import csv
import io
import time

import pytest

from stairpow import cli
from stairpow.cli import main
from stairpow.ideals import MonomialIdeal, naive_power


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_small(capsys):
    code, out, _ = run(capsys, "analyze", "y^2 + x^2*y + x^3")
    assert code == 0
    assert "D                  1" in out
    assert "r                  1" in out
    assert "s                  3" in out


def test_analyze_big(capsys):
    code, out, _ = run(
        capsys, "analyze", "[(0,10),(1,9),(2,5),(4,4),(5,3),(6,2),(12,1),(15,0)]"
    )
    assert code == 0
    assert "D                  40" in out
    assert "r                  200" in out
    assert "s                  241" in out


def test_analyze_principal_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "x^3")
    assert code == 2
    assert "principal" in err


def test_analyze_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "analyze", "x^2 + qq")
    assert code == 1
    assert "position" in err


def test_power_fast_vs_naive(capsys):
    _, fast, _ = run(capsys, "power", "y^2 + x^2*y + x^3", "3", "--method", "fast")
    _, naive, _ = run(capsys, "power", "y^2 + x^2*y + x^3", "3", "--method", "naive")
    assert fast == naive
    assert fast.count("(") == 7


def _analyze_lines(out):
    return dict((line[:19].strip(), line[19:]) for line in out.splitlines())


@pytest.mark.parametrize("text", ["[(0,4),(1,3),(2,2),(4,0)]", "[(2,7),(3,6),(4,5),(6,3)]"])
def test_analyze_weakly_persistent(capsys, text):
    # The edge from y^4 to x^4 carries x*y^3 and x^2*y^2; the second ideal is
    # the first times x^2*y^3.
    code, out, _ = run(capsys, "analyze", text, "--use-weakly-persistent")
    assert code == 0
    lines = _analyze_lines(out)
    assert lines["chosen P"] == lines["weakly persistent"] == "[(0, 4), (1, 3), (2, 2), (4, 0)]"
    assert lines["persistent P(I)"] == "[(0, 4), (4, 0)]"


def test_power_decomposed_builds_no_decomposition(capsys, monkeypatch):
    # The decomposed route needs only the profile: D and the chosen P.
    def refuse(*args, **kwargs):
        raise AssertionError("stable_decomposition called")

    monkeypatch.setattr(cli, "stable_decomposition", refuse)
    big = MonomialIdeal.of((0, 10), (1, 9), (2, 5), (4, 4), (5, 3), (6, 2), (12, 1), (15, 0))
    text = str(big.shift((2, 3)))
    expected = str(naive_power(big.shift((2, 3)), 50)) + "\n"
    for flags in ([], ["--use-weakly-persistent"]):
        code, out, err = run(capsys, "power", text, "50", "--method", "decomposed", *flags)
        assert (code, out) == (0, expected), err
    code, _, err = run(capsys, "power", text, "39", "--method", "decomposed")
    assert code == 2 and "D_P = 40" in err


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


def test_power_fast_below_s_exit_2(capsys):
    code, _, err = run(capsys, "power", "y^2 + x^2*y + x^3", "2", "--method", "fast")
    assert code == 2
    assert "n >= s" in err


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
    big = MonomialIdeal.of((0, 10), (1, 9), (2, 5), (4, 4), (5, 3), (6, 2), (12, 1), (15, 0))
    _, _, mu = cli._bench_cell(big, "decomposed", 60)
    assert mu == naive_power(big, 60).mu


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
    code, _, err = run(capsys, *argv, "--timeout", "60")
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


def test_plot_writes_file(tmp_path, capsys):
    out_file = tmp_path / "plot.svg"
    code, out, _ = run(capsys, "plot", "x^4 + x*y + y^3", "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("<svg")


def test_plot_unwritable_exit_1(tmp_path, capsys):
    code, _, err = run(
        capsys, "plot", "x^4 + y^3", "--out", str(tmp_path / "no" / "dir" / "x.svg")
    )
    assert code == 1


def test_check_suite(capsys):
    code, out, _ = run(capsys, "check", "--count", "3")
    assert code == 0
    assert "0 mismatches" in out


def test_check_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("STAIRPOW_SEED", "99")
    code, out, _ = run(capsys, "check", "--count", "2")
    assert code == 0
    assert "seed=99" in out


def test_usage_error_exit_1(capsys):
    assert main(["nonsense"]) == 1


def test_overflow_exit_3(capsys):
    huge = 1 << 62
    code, _, err = run(capsys, "power", f"[({huge}, 0), (0, {huge})]", "4")
    assert code == 3
