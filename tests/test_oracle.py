import dataclasses

import pytest

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


def test_corpus_powers_window():
    dec = stable_decomposition(SMALL)
    powers = corpus_powers(dec, naive_limit=30, tail=4)
    assert powers[0] == 1
    assert dec.s + 4 in powers


def test_check_corpus_reproducible():
    a = check_corpus(3, seed=5)
    b = check_corpus(3, seed=5)
    assert [r.label for r in a] == [r.label for r in b]
    assert all(r.passed for r in a)
