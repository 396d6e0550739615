"""Acceptance gate: one test per criterion, each printing one PASS line.

Every comparison is exact (integer generator lists); runtime budgets are
asserted with wall-clock measurements.
"""

import random
import time

from stairpow.ideals import Axis, MonomialIdeal, naive_power
from stairpow.engine import (
    assemble_power,
    assemble_power_counted,
    decomposed_power,
    mu_polynomial,
    power,
    stable_decomposition,
)
from stairpow.links import link, link_many, unlink
from stairpow.oracle import RandomIdealSpec, check_corpus, random_ideal
from stairpow.segments import glued_components, glued_power

SMALL = MonomialIdeal(((0, 2), (2, 1), (3, 0)))
BIG = MonomialIdeal.of((0, 10), (1, 9), (2, 5), (4, 4), (5, 3), (6, 2), (12, 1), (15, 0))


def test_criterion_1_small_golden():
    start = time.perf_counter()
    dec = stable_decomposition(SMALL)
    assert (dec.D, dec.r, dec.s) == (1, 1, 3)
    assert dec.components[0].gens == ((0, 4), (2, 3), (3, 2), (5, 1), (6, 0))
    assert dec.middles[0].gens == SMALL.gens
    assert dec.components[1].gens == SMALL.gens
    poly = mu_polynomial(SMALL)
    for ell in range(51):
        assert poly(3 + ell) == 7 + 2 * ell
    for n in range(1, 21):
        assert power(SMALL, n).gens == naive_power(SMALL, n).gens
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS — small golden: D=1 r=1 s=3, mu=7+2l, n<=20 oracle-equal ({elapsed:.2f} s)")


def test_criterion_2_big_golden():
    start = time.perf_counter()
    dec = stable_decomposition(BIG)
    assert dec.profile.persistent == ((0, 10), (2, 5), (6, 2), (15, 0))
    assert (dec.profile.D_P, dec.r, dec.s) == (40, 200, 241)
    assert dec.boundary_points[1:4] == ((162, 2005), (753, 1002), (1815, 400))
    assert dec.base_power.mu == 1688
    assert dec.slope == 7
    anchored, _ = BIG.anchor()
    assert (
        assemble_power(dec, 241).gens
        == decomposed_power(anchored, dec.profile, 241).gens
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 2 PASS — big golden: D_P=40 r=200 s=241, h_i exact, mu(I^241)=1688 slope 7 ({elapsed:.2f} s)")


def test_criterion_3_differential_suite():
    start = time.perf_counter()
    reports = check_corpus(200, seed=0)
    mismatches = sum(len(r.failures) for r in reports)
    assert mismatches == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    total = sum(len(r.records) for r in reports)
    print(f"ACCEPTANCE 3 PASS — differential suite: 200 ideals, {total} comparisons, 0 mismatches ({elapsed:.0f} s)")


def test_criterion_4_link_arithmetic():
    start = time.perf_counter()
    for seed in range(500):
        A = random_ideal(RandomIdealSpec(6, 12, seed=seed))
        B = random_ideal(RandomIdealSpec(6, 12, seed=10_000 + seed))
        assert link(A, B).mu == A.mu + B.mu - 1
        chain = link_many([A, B])
        parts = unlink(chain.ideal, chain.link_points)
        assert parts[0].gens == A.anchor()[0].gens
        assert parts[1].gens == B.anchor()[0].gens
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 4 PASS — link arithmetic: mu additivity + unlink round trip on 500 pairs ({elapsed:.1f} s)")


def test_criterion_5_segment_bands():
    start = time.perf_counter()
    rng = random.Random(1234)
    pair_oracle = lambda u, v, J, n: naive_power(MonomialIdeal(((0, v), (u, 0))), n) * J
    for trial in range(100):
        J = random_ideal(RandomIdealSpec(5, 8, seed=20_000 + trial)).anchor()[0]
        u, v = rng.randint(1, 4), rng.randint(1, 4)
        r = max(1, -(-J.dist(Axis.Y) // v)) + rng.randint(0, 1)
        tr = glued_components(((0, v), (u, 0)), J, r)
        ((_, beta),) = tr.link_points
        base = glued_power(tr, 0)
        L = [f for f in base.gens if f[1] >= beta]
        M = [f for f in base.gens if beta <= f[1] < beta + v]
        R = [f for f in base.gens if f[1] < beta]
        for ell in range(5):
            expected = {(f[0], f[1] + v * ell) for f in L}
            for j in range(1, ell + 1):
                expected |= {(f[0] + u * j, f[1] + v * (ell - j)) for f in M}
            expected |= {(f[0] + u * ell, f[1]) for f in R}
            assert set(pair_oracle(u, v, J, r + 1 + ell).gens) == expected
            assert glued_power(tr, ell).gens == pair_oracle(u, v, J, r + 1 + ell).gens
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"ACCEPTANCE 5 PASS — segment bands: L/M/R partition reproduces 100 powers, l<=4 ({elapsed:.1f} s)")


def test_criterion_6_bound_conformance():
    checked = 0
    for seed in range(200):
        I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
        dec = stable_decomposition(I)
        anchored, _ = I.anchor()
        d = min(anchored.dist(Axis.X), anchored.dist(Axis.Y))
        if len(dec.profile.chosen) == 2:
            assert dec.s == 2 * (I.mu - 2) * (d - 1) + 1
        else:
            assert dec.s <= I.mu * (d * d - 1) + 1
        checked += 1
    print(f"ACCEPTANCE 6 PASS — bound conformance on {checked} random ideals (exact)")


def test_criterion_7_scaling():
    dec = stable_decomposition(BIG)

    # The two sizes alternate, so a slow or fast spell of a shared host
    # reaches both of them rather than one.
    best = {10**4: float("inf"), 10**5: float("inf")}
    for _ in range(5):
        for ell in best:
            t0 = time.perf_counter()
            assemble_power(dec, dec.s + ell)
            best[ell] = min(best[ell], time.perf_counter() - t0)

    t4, t5 = best[10**4], best[10**5]
    assert t4 < 60.0
    ratio = t5 / t4
    assert ratio <= 15.0
    print(f"ACCEPTANCE 7 PASS — scaling: s+1e4 in {t4:.3f} s, s+1e5/s+1e4 ratio {ratio:.1f} <= 15")


def test_criterion_8_addition_counter():
    # The count is of the generators the link kernel's writes fill, so an
    # emitter that wrote any copy twice would overshoot mu(I^s) + l*slope.
    for ideal in (SMALL, BIG):
        dec = stable_decomposition(ideal)
        base = dec.base_power.mu
        slope = sum(h.mu for h in dec.middles) - dec.k
        for ell in (0, 10, 100, 1000):
            result, written = assemble_power_counted(dec, dec.s + ell)
            assert written == base + ell * slope
            assert written == result.mu
    print(
        "ACCEPTANCE 8 PASS — O(l) witness: generators written by the link kernel exactly "
        "mu(I^s) + l*(sum mu(H_i) - k) at l in {0,10,100,1000}"
    )
