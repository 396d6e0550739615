import dataclasses

import pytest

from stairpow import oracle
from stairpow.ideals import MonomialIdeal, PrincipalIdealError
from stairpow.oracle import (
    CheckRecord,
    RandomIdealSpec,
    check_corpus,
    corpus_powers,
    differential_check,
    random_ideal,
)
from stairpow.engine import stable_decomposition
from stairpow.geometry import weakly_persistent_generators

SMALL = MonomialIdeal(((0, 2), (2, 1), (3, 0)))


def test_random_ideal_deterministic():
    spec = RandomIdealSpec(mu_max=5, exp_max=10, seed=1)
    assert random_ideal(spec).gens == random_ideal(spec).gens


def test_random_ideal_valid_antichain():
    I = random_ideal(RandomIdealSpec(mu_max=5, exp_max=10, seed=1))
    assert I.mu >= 2  # canonical antichain enforced at construction


def test_random_ideal_sweep():
    for seed in range(1000):
        I = random_ideal(RandomIdealSpec(mu_max=8, exp_max=20, seed=seed))
        assert not I.is_principal
        # construction would have raised on any antichain violation
        assert MonomialIdeal(I.gens).gens == I.gens


def test_infeasible_spec():
    with pytest.raises(ValueError):
        RandomIdealSpec(mu_max=1, exp_max=10, seed=0)
    with pytest.raises(ValueError):
        RandomIdealSpec(mu_max=12, exp_max=10, seed=0)


def test_differential_check_small():
    report = differential_check(SMALL, range(1, 16))
    assert report.passed
    assert report.records
    assert all(r.equal for r in report.records)


def test_differential_check_rejects_principal():
    with pytest.raises(PrincipalIdealError):
        differential_check(MonomialIdeal(((1, 2),)), range(1, 5))


def test_differential_check_detects_mutation():
    report = differential_check(SMALL, [4])
    record = report.records[0]
    mutated = dataclasses.replace(record, equal=False)
    report.records[0] = mutated
    assert not report.passed and len(report.failures) == 1
    assert "FAIL" in mutated.line


def test_check_record_line():
    assert CheckRecord("seed=3", 4, "assembled", "naive", True).line == "ok   seed=3 n=4 assembled vs naive"
    assert CheckRecord("I", 9, "shifted", "decomposed", False).line == "FAIL I n=9 shifted vs decomposed"


def test_report_lines_format():
    report = differential_check(SMALL, [3, 4])
    lines = report.lines()
    assert lines[-1].startswith("PASS")
    assert all("n=" in line for line in lines[:-1])


def test_big_example_at_s():
    big = MonomialIdeal.of((0, 10), (1, 9), (2, 5), (4, 4), (5, 3), (6, 2), (12, 1), (15, 0))
    report = differential_check(big, [241])
    assert report.passed
    assert any(r.method == "assembled" and r.n == 241 for r in report.records)


def test_differential_check_weakly_persistent_decomposition():
    # With P = P*(I) the reference, the staircase expansion and the assembly
    # all step from the same profile, so they agree.
    edge = MonomialIdeal.of((0, 4), (1, 3), (2, 2), (4, 0))
    bends = MonomialIdeal.of((0, 12), (2, 8), (4, 4), (5, 3), (7, 1), (9, 0))
    for ideal in (edge, bends, bends.shift((2, 3)).transpose()):
        dec = stable_decomposition(ideal, chosen=weakly_persistent_generators(ideal))
        assert len(dec.profile.chosen) > len(dec.profile.persistent)
        powers = [1, 2, dec.D - 1, dec.D, dec.D + 1, dec.s - 1, dec.s, dec.s + 1]
        report = differential_check(ideal, powers, dec=dec)
        assert not report.failures, report.lines()
        assert any(r.method == "assembled" for r in report.records)


def test_differential_check_band_shift():
    # SMALL has s = 3, so each n in 4..7 is the band shift of n - 1.
    report = differential_check(SMALL, range(3, 8))
    shifted = [r for r in report.records if r.method == "shifted"]
    assert [(r.n, r.reference) for r in shifted] == [(n, "naive") for n in range(4, 8)]
    assert report.passed


def test_differential_check_catches_a_wrong_band_shift(monkeypatch):
    # g_k stands in for g_(k+1), so the lowest band drops its second factor.
    shift = oracle.shift_generators

    def dropped(dec, gens_n, n):
        return shift(dataclasses.replace(dec, gs=dec.gs[:-1] + dec.gs[-2:-1]), gens_n, n)

    monkeypatch.setattr(oracle, "shift_generators", dropped)
    report = differential_check(SMALL, range(3, 8))
    assert [(r.method, r.n) for r in report.failures] == [("shifted", n) for n in range(4, 8)]



def test_differential_check_catches_a_wrong_power(monkeypatch):
    # power() serves BIG by assembly from its onset's s = 7 on, below the
    # paper's D = 40: a generator dropped there shows against repeated
    # multiplication, and one dropped at the paper's s against the expansion.
    big = MonomialIdeal.of((0, 10), (1, 9), (2, 5), (4, 4), (5, 3), (6, 2), (12, 1), (15, 0))
    real = oracle.power
    dropped = lambda ideal, n: MonomialIdeal(real(ideal, n).gens[1:]) if n in (7, 241) else real(ideal, n)
    monkeypatch.setattr(oracle, "power", dropped)
    report = differential_check(big, [6, 7, 8, 241])
    failures = [(r.n, r.method, r.reference) for r in report.failures]
    assert failures == [(7, "power", "naive"), (241, "power", "decomposed")]

def test_corpus_powers_window():
    # 1..min(s, 30) plus the window s..s+15: SMALL has s = 3, BIG s = 241.
    assert corpus_powers(stable_decomposition(SMALL)) == list(range(1, 19))
    big = MonomialIdeal.of((0, 10), (1, 9), (2, 5), (4, 4), (5, 3), (6, 2), (12, 1), (15, 0))
    assert corpus_powers(stable_decomposition(big)) == [*range(1, 31), *range(241, 257)]


def test_check_corpus_reproducible():
    a = check_corpus(3, seed=5)
    b = check_corpus(3, seed=5)
    assert [r.label for r in a] == [r.label for r in b]
    assert all(r.passed for r in a)


#: ``(n, method, reference, equal)`` of each record of SMALL over 1..15, in
#: order: D = 1 and s = 3, so repeated multiplication is the reference
#: throughout, assembly joins at s, the band shift at s + 1, and power() is
#: checked at every n.
SMALL_RECORDS = [
    (1, "decomposed", "naive", True), (1, "power", "naive", True),
    (2, "decomposed", "naive", True), (2, "power", "naive", True),
    (3, "decomposed", "naive", True), (3, "assembled", "naive", True), (3, "power", "naive", True),
    (4, "decomposed", "naive", True), (4, "assembled", "naive", True), (4, "shifted", "naive", True),
    (4, "power", "naive", True),
    (5, "decomposed", "naive", True), (5, "assembled", "naive", True), (5, "shifted", "naive", True),
    (5, "power", "naive", True),
    (6, "decomposed", "naive", True), (6, "assembled", "naive", True), (6, "shifted", "naive", True),
    (6, "power", "naive", True),
    (7, "decomposed", "naive", True), (7, "assembled", "naive", True), (7, "shifted", "naive", True),
    (7, "power", "naive", True),
    (8, "decomposed", "naive", True), (8, "assembled", "naive", True), (8, "shifted", "naive", True),
    (8, "power", "naive", True),
    (9, "decomposed", "naive", True), (9, "assembled", "naive", True), (9, "shifted", "naive", True),
    (9, "power", "naive", True),
    (10, "decomposed", "naive", True), (10, "assembled", "naive", True), (10, "shifted", "naive", True),
    (10, "power", "naive", True),
    (11, "decomposed", "naive", True), (11, "assembled", "naive", True), (11, "shifted", "naive", True),
    (11, "power", "naive", True),
    (12, "decomposed", "naive", True), (12, "assembled", "naive", True), (12, "shifted", "naive", True),
    (12, "power", "naive", True),
    (13, "decomposed", "naive", True), (13, "assembled", "naive", True), (13, "shifted", "naive", True),
    (13, "power", "naive", True),
    (14, "decomposed", "naive", True), (14, "assembled", "naive", True), (14, "shifted", "naive", True),
    (14, "power", "naive", True),
    (15, "decomposed", "naive", True), (15, "assembled", "naive", True), (15, "shifted", "naive", True),
    (15, "power", "naive", True),
]


def test_differential_check_records_pinned():
    # The order of the records and the reference of each n.  BIG has D = 40
    # and s = 241: at D - 1 = 39 > NAIVE_LIMIT no route applies, and at D and
    # s - 1 the staircase expansion checks power() alone.
    records = lambda report: [(r.n, r.method, r.reference, r.equal) for r in report.records]
    assert records(differential_check(SMALL, range(1, 16))) == SMALL_RECORDS
    big = MonomialIdeal.of((0, 10), (1, 9), (2, 5), (4, 4), (5, 3), (6, 2), (12, 1), (15, 0))
    dec = stable_decomposition(big)
    assert (dec.D, dec.s) == (40, 241)
    assert records(differential_check(big, [39, 40, 240, 241, 242], dec=dec)) == [
        (40, "power", "decomposed", True),
        (240, "power", "decomposed", True),
        (241, "assembled", "decomposed", True), (241, "power", "decomposed", True),
        (242, "assembled", "decomposed", True),
        (242, "shifted", "decomposed", True), (242, "power", "decomposed", True),
    ]
