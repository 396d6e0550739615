import hashlib
import json
from collections import Counter
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import brute
from stairpow import engine, geometry, links, segments
from stairpow import ideals as ideals_module
from stairpow.ideals import (
    Axis,
    ExponentOverflowError,
    MonomialIdeal,
    PrincipalIdealError,
    naive_power,
)
from stairpow.engine import (
    assemble_power,
    assemble_power_counted,
    decomposed_power,
    mu_polynomial,
    power,
    stable_decomposition,
)
from stairpow.segments import glued_components
from stairpow.geometry import (
    pair_dist,
    persistence_profile,
    persistent_generators,
    stabilization_radius,
    weakly_persistent_generators,
)
from stairpow.oracle import RandomIdealSpec, random_ideal, shift_generators
from stairpow.textio import parse_ideal
from test_ideals import ideals

ROOT = Path(__file__).resolve().parents[1]
REFERENCES = ROOT / "stairbench" / "references.json"

SMALL = MonomialIdeal(((0, 2), (2, 1), (3, 0)))
BIG = MonomialIdeal.of((0, 10), (1, 9), (2, 5), (4, 4), (5, 3), (6, 2), (12, 1), (15, 0))


def test_decomposed_power_small():
    profile = persistence_profile(SMALL)
    for n in range(profile.D_P, 9):
        assert decomposed_power(SMALL, profile, n).gens == naive_power(SMALL, n).gens
    with pytest.raises(ValueError):
        decomposed_power(SMALL, profile, profile.D_P - 1)


def test_decomposed_power_at_d_is_base():
    profile = persistence_profile(SMALL)
    assert decomposed_power(SMALL, profile, profile.D_P).gens == naive_power(
        SMALL, profile.D_P
    ).gens


def test_small_decomposition_golden():
    dec = stable_decomposition(SMALL)
    assert (dec.D, dec.r, dec.s) == (1, 1, 3)
    assert dec.axis is Axis.Y
    assert dec.components[0].gens == ((0, 4), (2, 3), (3, 2), (5, 1), (6, 0))
    assert dec.middles[0].gens == SMALL.gens
    assert dec.components[1].gens == SMALL.gens
    assert dec.boundary_points == ((0, 6), (6, 2), (9, 0))


def test_big_decomposition_golden():
    dec = stable_decomposition(BIG)
    assert (dec.D, dec.r, dec.s) == (40, 200, 241)
    assert dec.boundary_points == (
        (0, 2410),
        (162, 2005),
        (753, 1002),
        (1815, 400),
        (3615, 0),
    )
    assert dec.base_power.mu == 1688
    assert dec.slope == 7


def test_boundary_point_degree_sandwich():
    # deg_y g_{i+1}^s <= deg_y h_i <= deg_y g_i^{r+1}
    for ideal in (SMALL, BIG):
        dec = stable_decomposition(ideal)
        for i in range(1, dec.k + 1):
            h = dec.boundary_points[i]
            assert dec.gs[i][1] * dec.s <= h[1] <= dec.gs[i - 1][1] * (dec.r + 1)


def test_two_generator_pipeline():
    I = MonomialIdeal(((0, 4), (3, 0)))
    dec = stable_decomposition(I)
    assert (dec.D, dec.r, dec.s) == (0, 0, 1)
    assert dec.middles[0].gens == I.gens
    for n in range(1, 6):
        assert assemble_power(dec, n).gens == naive_power(I, n).gens
    poly = mu_polynomial(I)
    for n in range(1, 10):
        assert poly(n) == n + 1


def test_assemble_equals_oracle_small():
    dec = stable_decomposition(SMALL)
    for n in range(dec.s, 12):
        assert assemble_power(dec, n).gens == naive_power(SMALL, n).gens
    with pytest.raises(ValueError):
        assemble_power(dec, dec.s - 1)


def test_assemble_big_against_decomposed():
    # The transpose is assembled along the x-axis, the shifted copy has a
    # nonzero gcd; both are emitted directly in original coordinates.
    axes = []
    for ideal in (BIG, BIG.transpose(), BIG.shift((3, 2))):
        dec = stable_decomposition(ideal)
        axes.append(dec.axis)
        for n in (dec.s, dec.s + 10):
            expected = decomposed_power(ideal, dec.profile, n)
            assert assemble_power(dec, n).gens == expected.gens
    assert axes == [Axis.Y, Axis.X, Axis.Y]
    assert assemble_power(stable_decomposition(BIG), 251).mu == 1688 + 70


def test_assemble_overflow_checked():
    dec = stable_decomposition(BIG.shift((2**55, 0)))
    assemble_power(dec, 255)
    with pytest.raises(ExponentOverflowError):
        assemble_power(dec, 256)


def test_numpy_integer_powers_are_read_exactly():
    # n is read once as a Python int, so a numpy integer cannot wrap in an
    # int64 product before the range check; a float is no power.
    with pytest.raises(ExponentOverflowError):
        power(MonomialIdeal.of((4, 0)), np.int64(2**62))
    poly = mu_polynomial(SMALL)
    assert poly(np.int64(2**62)) == poly(2**62) == 7 + (2**62 - 3) * 2 == 2**63 + 1
    dec = stable_decomposition(SMALL)
    for n in (dec.s, dec.s + 1, dec.s + 40):
        assert assemble_power(dec, np.int64(n)) == assemble_power(dec, n)
    for call in (lambda: poly(3.5), lambda: power(SMALL, 3.0), lambda: assemble_power(dec, float(dec.s))):
        with pytest.raises(TypeError):
            call()


def test_power_dispatcher_boundaries():
    dec = stable_decomposition(SMALL)
    for n in [max(1, dec.D - 1), dec.D, dec.s - 1, dec.s, dec.s + 3]:
        if n < 1:
            continue
        assert power(SMALL, n).gens == naive_power(SMALL, n).gens
    assert power(SMALL, 1).gens == SMALL.gens
    with pytest.raises(ValueError):
        power(SMALL, 0)


def test_power_computes_profile_once(monkeypatch):
    expected = assemble_power(stable_decomposition(BIG), 300).gens
    calls = []
    real = engine.persistence_profile
    monkeypatch.setattr(engine, "persistence_profile", lambda *a: calls.append(a) or real(*a))
    assert power(BIG, 300).gens == expected
    assert len(calls) == 1


def test_power_below_s_never_anchors(monkeypatch):
    # Below s both routes work in the ideal's own coordinates.
    def refuse(self):
        raise AssertionError("anchor called")

    monkeypatch.setattr(MonomialIdeal, "anchor", refuse)
    for seed in (1, 3, 8, 13, 16, 21):
        I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
        for J in (I.shift((3, 5)), I.transpose().shift((2, 0))):
            profile = persistence_profile(J)
            for n in sorted({profile.D_P, (profile.D_P + profile.s) // 2, profile.s - 1}):
                expected = naive_power(J, n)
                assert power(J, n) == expected, (seed, n)
                assert decomposed_power(J, profile, n) == expected, (seed, n)


@pytest.mark.parametrize("ideal", [SMALL, BIG, random_ideal(RandomIdealSpec(8, 20, seed=23))])
def test_power_decomposes_only_from_s(monkeypatch, ideal):
    # Below the plan's s -- from the certified onset (BIG: m = 1, s = 7) or
    # else from D_P (SMALL, and seed 23: D_P = 68, s = 324) -- power builds
    # no decomposition; at s it builds the one it keeps.
    plan = engine._plan(ideal)
    level, s = plan.m, plan.s
    calls = _count_calls(monkeypatch, engine, "_decompose")
    for n in sorted({level, s - 1} - {0}):
        assert power(ideal, n) == naive_power(ideal, n), n
        assert calls == []
    assert power(ideal, s) == naive_power(ideal, s)
    assert len(calls) == 1


@pytest.mark.parametrize("ideal", [SMALL, BIG])
def test_decompose_builds_no_candidate_power(monkeypatch, ideal):
    # I^D and the powers below D_P come from the level array: no candidate
    # product of two ideals is formed.
    dec = stable_decomposition(ideal)
    d = dec.D
    expected = {n: naive_power(ideal, n) for n in (d - 1, d, dec.s) if n >= 1}

    def forbidden(*args):
        raise AssertionError("candidate product formed")

    monkeypatch.setattr(engine, "naive_power", forbidden)
    monkeypatch.setattr(MonomialIdeal, "__mul__", forbidden)
    assert assemble_power(stable_decomposition(ideal), dec.s) == expected[dec.s]
    assert decomposed_power(ideal, dec.profile, d) == expected[d]
    for n in expected:
        assert power(ideal, n) == expected[n]


def test_power_principal():
    assert power(MonomialIdeal(((2, 3),)), 4).gens == ((8, 12),)


def test_power_large_mu():
    assert power(BIG, 10**4 + 241).mu == 1688 + 7 * 10**4


def test_mu_polynomial_examples():
    poly = mu_polynomial(SMALL)
    assert (poly.s, poly.intercept, poly.slope) == (3, 7, 2)
    poly = mu_polynomial(BIG)  # from the onset's s = 7, not the paper's 241
    assert (poly.s, poly.intercept, poly.slope) == (7, 50, 7)
    assert poly(241) == 1688
    with pytest.raises(ValueError):
        poly(poly.s - 1)
    with pytest.raises(PrincipalIdealError):
        mu_polynomial(MonomialIdeal(((1, 1),)))


def test_mu_slope_cross_check():
    for seed in range(10):
        I = random_ideal(RandomIdealSpec(6, 12, seed=seed))
        dec = stable_decomposition(I)
        s1 = assemble_power(dec, dec.s + 1).mu
        s0 = assemble_power(dec, dec.s).mu
        assert dec.slope == s1 - s0


def test_mu_linearity_random():
    for seed in range(10):
        I = random_ideal(RandomIdealSpec(6, 12, seed=50 + seed))
        dec = stable_decomposition(I)
        poly = mu_polynomial(I)
        for ell in range(11):
            assert assemble_power(dec, dec.s + ell).mu == poly(dec.s + ell)


def test_shift_invariance_of_decomposition():
    for seed in range(10):
        I = random_ideal(RandomIdealSpec(6, 12, seed=seed))
        J = I.shift((3, 5))
        a, b = stable_decomposition(I), stable_decomposition(J)
        assert a.components == b.components
        assert a.middles == b.middles
        assert (a.D, a.r, a.s) == (b.D, b.r, b.s)
        assert mu_polynomial(I) == mu_polynomial(J)


def _weakly_differs(seed):
    I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
    return weakly_persistent_generators(I) != persistent_generators(I)


#: The corpus seeds among the first 300 whose ideal has P*(I) != P(I).
WEAKLY_SEEDS = [seed for seed in range(300) if _weakly_differs(seed)]


@pytest.mark.parametrize("seed", WEAKLY_SEEDS)
def test_weakly_persistent_choice_assembles(seed):
    # P = P*(I) against the staircase expansion of the default P = P(I),
    # as given and with a nonzero gcd.
    I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
    for J in (I, I.shift((2, 3))):
        dec = stable_decomposition(J, chosen=weakly_persistent_generators(J))
        assert dec.profile.chosen == weakly_persistent_generators(J)
        profile = persistence_profile(J)
        for n in (dec.s, dec.s + 1, dec.s + 3):
            assert assemble_power(dec, n) == decomposed_power(J, profile, n)


def test_weakly_persistent_sample():
    assert len(WEAKLY_SEEDS) == 32


def test_shift_generators_small():
    dec = stable_decomposition(SMALL)
    four = shift_generators(dec, assemble_power(dec, 3), 3)
    assert four.mu == 9
    assert four.gens == naive_power(SMALL, 4).gens


def test_shift_generators_iterated():
    for seed in (0, 3, 7):
        I = random_ideal(RandomIdealSpec(6, 10, seed=seed))
        dec = stable_decomposition(I)
        cur = assemble_power(dec, dec.s)
        for n in range(dec.s, dec.s + 5):
            cur = shift_generators(dec, cur, n)
            assert cur.gens == assemble_power(dec, n + 1).gens


def test_shift_generators_matches_per_generator_loop():
    # Both orientations and a nonzero gcd, against the band rule applied to
    # one generator at a time.
    for seed in range(40):
        I = random_ideal(RandomIdealSpec(7, 16, seed=seed))
        for J in (I, I.transpose(), I.shift((2, 3))):
            dec = stable_decomposition(J)
            for n in (dec.s, dec.s + 2):
                gens_n = assemble_power(dec, n)
                got = shift_generators(dec, gens_n, n).gens
                assert got == brute.shift_generators(dec, gens_n, n)


def test_shift_generators_band_cases():
    dec = stable_decomposition(SMALL)
    n = 4
    gens_n = assemble_power(dec, n)
    result = set(shift_generators(dec, gens_n, n).gens)
    # Below the lowest band, a generator moves by g_{k+1} = x^3 only.
    bottom = min(gens_n.gens, key=lambda g: g[1])
    assert (bottom[0] + 3, bottom[1]) in result
    # The link point itself sits in the double band and contributes both
    # products; one of them collides with a neighbour's product.
    expected_mu = gens_n.mu + dec.slope
    assert len(result) == expected_mu


def test_shift_generators_validates_n():
    dec = stable_decomposition(SMALL)
    with pytest.raises(ValueError):
        shift_generators(dec, SMALL, 1)


def test_addition_counter_linear():
    dec = stable_decomposition(SMALL)
    base = assemble_power_counted(dec, dec.s)[1]
    slope_with_corrections = sum(h.mu for h in dec.middles) - dec.k
    for ell in (10, 100, 1000):
        _, adds = assemble_power_counted(dec, dec.s + ell)
        assert adds == base + ell * slope_with_corrections


def test_bound_conformance_random():
    for seed in range(40):
        I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
        dec = stable_decomposition(I)
        anchored, _ = I.anchor()
        d = min(anchored.dist(Axis.X), anchored.dist(Axis.Y))
        if len(dec.profile.chosen) == 2:
            assert dec.s == 2 * (I.mu - 2) * (d - 1) + 1
        else:
            assert dec.s <= I.mu * (d * d - 1) + 1


def test_principal_rejected():
    with pytest.raises(PrincipalIdealError):
        stable_decomposition(MonomialIdeal(((3, 4),)))


def _recorded_at_s():
    """The recorded row of I^s per anchored decompose ideal, both orientations."""
    # The benchmark recorded SHA-256 digests of I^s, from candidate products,
    # for both orientations of every decompose ideal; each ideal's least n
    # is its s (the other rows are emit cells at s + ell, ell >= 1000).
    least = {}
    for row in json.loads(REFERENCES.read_text(encoding="utf-8")):
        key = tuple(map(tuple, row["ideal"]))
        if key not in least or row["n"] < least[key]["n"]:
            least[key] = row
    assert len(least) == 259
    return least


def test_profile_holds_d_r_s():
    # The 131 decompose ideals as given and transposed (259 distinct images):
    # the profile's radii are the stabilization radii at D_P, its s is the
    # recorded one, and the decomposition takes D, r, s and the axis from it.
    for gens, row in _recorded_at_s().items():
        ideal = MonomialIdeal(gens)
        profile = persistence_profile(ideal)
        radii = [stabilization_radius(ideal, profile, profile.D_P, axis) for axis in (Axis.X, Axis.Y)]
        assert [profile.r_x, profile.r_y] == radii, gens
        assert profile.r == min(radii) and profile.s == profile.D_P + profile.r + 1 == row["n"]
        dec = stable_decomposition(ideal)
        assert (dec.D, dec.r, dec.s, dec.axis) == (profile.D_P, profile.r, profile.s, profile.axis)
        assert dec.profile == profile


def test_decompositions_match_recorded_digests():
    for gens, row in _recorded_at_s().items():
        dec = stable_decomposition(MonomialIdeal(gens))
        assert dec.s == row["n"], gens
        xy = assemble_power(dec, dec.s).xy
        digest = hashlib.sha256(np.ascontiguousarray(xy.T).tobytes()).hexdigest()
        assert (xy.shape[1], digest) == (row["mu"], row["digest"]), gens


def _count_calls(monkeypatch, owner, name, keep=lambda *a: True):
    """Patch ``owner.name`` to record the arguments of the calls ``keep`` picks."""
    calls, real = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: (keep(*a) and calls.append(a)) or real(*a, **k))
    return calls


@pytest.mark.parametrize("ideal", [BIG, BIG.shift((2, 3)).transpose()])
def test_plan_builds_each_stage_once(monkeypatch, ideal):
    # Every route of power() and mu_polynomial(), each called twice, share
    # one profile, one run of the level kernel (to the onset m = 1) and one
    # decomposition (at the onset's s = 7).
    profile = persistence_profile(ideal)
    expected = {n: naive_power(ideal, n) for n in (1, 6, 7, profile.D_P - 1, profile.D_P, 100)}
    expected[profile.s + 5] = decomposed_power(ideal, profile, profile.s + 5)
    profiles = _count_calls(monkeypatch, engine, "persistence_profile")
    kernels = _count_calls(monkeypatch, engine, "_certified_level_power")
    decompositions = _count_calls(monkeypatch, engine, "_decompose")
    for _ in range(2):
        for n, ideal_n in expected.items():
            assert power(ideal, n) == ideal_n, n
        poly = mu_polynomial(ideal)
        assert poly(profile.s + 5) == expected[profile.s + 5].mu
    assert (len(profiles), len(kernels), len(decompositions)) == (1, 1, 1)
    assert engine._plan(ideal).m == 1 and engine._plan(ideal).s == 7
    assert engine._plan.cache_info().currsize == 1


def test_plan_shared_by_equal_ideals(monkeypatch):
    decompositions = _count_calls(monkeypatch, engine, "_decompose")
    twin = MonomialIdeal(BIG.xy.copy())
    assert twin is not BIG and twin == BIG
    assert power(BIG, 241) == power(twin, 241)
    assert mu_polynomial(twin) == mu_polynomial(BIG)
    info = engine._plan.cache_info()
    assert (info.misses, info.hits, len(decompositions)) == (1, 3, 1)


@pytest.mark.parametrize("seed", [4, 8, 12, 14, 22])
def test_plan_images_are_misses(seed):
    # Shifted and transposed images are other ideals with other plans; each
    # answers for itself, on every route, on the first call and the second.
    I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
    images = {I, I.shift((2, 3)), I.transpose(), I.transpose().shift((0, 5))}
    for J in images:
        profile = persistence_profile(J)
        d, s = profile.D_P, profile.s
        for n in sorted({d, (d + s) // 2, s - 1, s, s + 7} - {0}):
            expected = naive_power(J, n)
            assert power(J, n) == expected and power(J, n) == expected, (seed, n)
    assert engine._plan.cache_info().misses == len(images)


def test_plan_memo_is_bounded():
    info = engine._plan.cache_info()
    assert info.maxsize == engine._PLAN_CACHE_SIZE == 16
    for j in range(info.maxsize + 5):
        assert power(SMALL.shift((j, 0)), 5).mu == 11
        assert engine._plan.cache_info().currsize <= info.maxsize
    assert engine._plan.cache_info().misses == info.maxsize + 5


@pytest.mark.parametrize("seed", range(10))
def test_decompose_orients_the_given_base(monkeypatch, seed):
    # _decompose anchors and orients the I^s it is given; the result is the
    # I^s of the anchored, oriented ideal, in every placement.
    bases, real = [], engine.glued_cut
    monkeypatch.setattr(engine, "glued_cut", lambda gs, base, r: bases.append(base) or real(gs, base, r))
    I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
    for J in (I, I.transpose(), I.shift((2, 3))):
        bases.clear()
        dec = stable_decomposition(J)
        oriented = J.anchor()[0]
        if dec.axis is Axis.X:
            oriented = oriented.transpose()
        assert bases == [engine.level_power(oriented, dec.s)], seed


# -- the certified onset ---------------------------------------------------


def _fixed_ideals():
    lines = (ROOT / "benchmarks" / "ideals.txt").read_text(encoding="utf-8").splitlines()
    return dict(
        (label.strip(), parse_ideal(text))
        for label, text in (line.split(":", 1) for line in lines if line and not line.startswith("#"))
    )


def _onset(plan):
    """The plan's onset m, the search's I^m and the reduction number."""
    return plan.m, plan.searched, plan.reduction_number


def test_onset_of_the_fixed_ideals():
    # I1-I4 certify at m = 1, 1, 1 and 3: s drops from 61, 241, 989 and 2377
    # to 5, 7, 14 and 28.
    got = {label: (engine._plan(I).m, engine._plan(I).s) for label, I in _fixed_ideals().items()}
    assert got == {"I1": (1, 5), "I2": (1, 7), "I3": (1, 14), "I4": (3, 28)}


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("label", ["I1", "I2", "I3", "I4", "seed 23"])
def test_decomposition_reorients_only_p_and_the_base(monkeypatch, label, transposed):
    # I^s is summed in the working orientation from P and I^m: no ideal
    # larger than I^m, such as the whole I^s, is shifted or transposed.
    # Seed 23 certifies no onset, so its I^m is I^D_P.
    ideal = random_ideal(RandomIdealSpec(8, 20, seed=23)) if label == "seed 23" else _fixed_ideals()[label]
    ideal = ideal.transpose() if transposed else ideal
    limit = engine._Plan(ideal).base.mu
    calls = [_count_calls(monkeypatch, MonomialIdeal, name) for name in ("shift", "transpose")]
    for decompose in (lambda: stable_decomposition(ideal), lambda: engine._Plan(ideal).decomposition):
        decompose()
        sizes = [args[0].mu for found in calls for args in found]
        assert sizes and max(sizes) <= limit, (sizes, limit)


def test_onset_on_the_corpus():
    # Of the seeds 0-199 of RandomIdealSpec(8, 20) with D_P > 0, 157 of 168
    # certify an onset; their s sum to 2734, against 48295 for the paper's.
    certified, onset_s, paper_s, missed = 0, 0, 0, []
    for seed in range(200):
        plan = engine._Plan(random_ideal(RandomIdealSpec(8, 20, seed=seed)))
        if plan.profile.D_P == 0:
            continue
        if plan.m < plan.profile.D_P:
            certified, onset_s, paper_s = certified + 1, onset_s + plan.s, paper_s + plan.profile.s
        else:
            missed.append(seed)
    assert (certified, onset_s, paper_s) == (157, 2734, 48295)
    assert missed == UNCERTIFIED


#: The corpus seeds whose onset stays at D_P: (A) certifies at no level below
#: D_P, or (E*) at none of the levels tried.
UNCERTIFIED = [8, 21, 23, 41, 54, 62, 88, 100, 124, 133, 157]

#: Those among them whose search certifies (A) but gives up on (E*) past its
#: tries, so that I^D_P (23 to 68) is built afresh, from I.
GIVE_UP = [23, 41, 62, 88, 124, 133, 157]


@pytest.mark.parametrize("seed", UNCERTIFIED)
def test_uncertified_seeds_keep_the_paper_route(seed):
    I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
    plan = engine._plan(I)
    d, s = plan.profile.D_P, plan.profile.s
    assert (plan.m, plan.s) == (d, s)
    assert (plan.searched is None and plan.reduction_number is not None) == (seed in GIVE_UP)
    current, at = I, 1
    for n in sorted({max(d - 1, 1), d, (d + s) // 2, s - 1, s, s + 3}):
        for _ in range(at, n):
            current = current * I
        at = n
        assert power(I, n) == current, n


def test_uncertified_plan_stops_its_search(monkeypatch):
    # Seed 23 certifies (A) at 2 but (E*) at none of the levels 2-12, so its
    # search stops at 13; I^D_P = I^68 is one level_power call with P, made
    # only once a power from D_P on needs it.
    I = random_ideal(RandomIdealSpec(8, 20, seed=23))
    profile = persistence_profile(I)
    expected = {n: decomposed_power(I, profile, n) for n in (100, 324, 330)}
    kernels = _count_calls(monkeypatch, engine, "_certified_level_power")
    levels = _count_calls(monkeypatch, engine, "level_power")
    assert power(I, 13) == naive_power(I, 13)
    assert power(I, 67) == naive_power(I, 67)
    assert _onset(engine._plan(I)) == (68, None, 2)
    assert not hasattr(engine._plan(I), "stopped")
    assert _kernel_runs(kernels) == [68] and levels == [(I, 13), (I, 67)]
    for n, ideal_n in expected.items():
        assert power(I, n) == ideal_n, n
    assert _kernel_runs(kernels) == [68] and levels == [(I, 13), (I, 67), (I, 68, profile.chosen)]


def test_sparse_ideal_below_d_builds_no_i_d(monkeypatch):
    # A y-span beyond 16 mu(I) keeps the level kernel, and so the onset
    # search, out: a power below D_P = 1192 builds no I^D_P.
    I = MonomialIdeal(((0, 900), (2, 500), (7, 200), (300, 0)))
    levels = _count_calls(monkeypatch, engine, "level_power")
    assert power(I, 3) == naive_power(I, 3)
    assert _onset(engine._plan(I))[:2] == (1192, None) and levels == [(I, 3)]


@pytest.mark.parametrize("seed, reduction, onset", [(11, 1, 5), (15, 0, 2), (19, 1, 3)])
def test_onset_refuses_every_level_below_it(seed, reduction, onset):
    # (A) holds from the reduction number on, but I^(m+j) = Q_j I^m only
    # from the onset on: (E*) must refuse every level between.
    I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
    gs = persistence_profile(I).chosen
    assert brute.reduction_number(I, gs, onset) == reduction
    powers = [naive_power(I, n) for n in range(onset + 31)]
    for m in range(max(reduction, 1), onset):
        assert not segments._pairs_covered(gs, brute.staircase(powers[m])), m
        assert any(segments.staircase_sum(gs, j, powers[m]) != powers[m + j] for j in range(2, 31)), m
    assert segments._pairs_covered(gs, brute.staircase(powers[onset]))
    assert _onset(engine._plan(I)) == (onset, powers[onset], reduction)


def test_onset_gives_up_past_its_tries(monkeypatch):
    # Seed 11 reduces at m = 1 and certifies (E*) first at 5: with 4 tries
    # the search finds that onset, with 3 it gives up at 5 and the plan keeps
    # D_P = 53, built afresh by level_power.
    I = random_ideal(RandomIdealSpec(8, 20, seed=11))
    monkeypatch.setattr(ideals_module, "_ONSET_TRIES", 4)
    plan = engine._Plan(I)
    assert _onset(plan) == (5, naive_power(I, 5), 1) and plan.s == 39
    monkeypatch.setattr(ideals_module, "_ONSET_TRIES", 3)
    plan = engine._Plan(I)
    assert _onset(plan) == (53, None, 1) and plan.s == 399
    assert plan.base == naive_power(I, 53)


def test_onset_search_sweeps_no_power_it_gives_up(monkeypatch):
    # Seed 23 gives up at level 13 (D_P = 68): the kernel returns without
    # sweeping an I^13 that the plan would discard.  BIG certifies at m = 1
    # and sweeps that one I^1.  The onset is read by name, not as a triple.
    seed23 = random_ideal(RandomIdealSpec(8, 20, seed=23))
    sweeps = _count_calls(monkeypatch, ideals_module, "_level_staircase")
    for ideal, onset, s, swept in ((seed23, (68, None, 2), 324, 0), (BIG, (1, BIG, 1), 7, 1)):
        sweeps.clear()
        plan = engine._Plan(ideal)
        assert (plan.s, len(sweeps)) == (s, swept)
        assert _onset(plan) == onset and not hasattr(plan, "onset")


def _radius_grows(ideal, chosen=None):
    # s_at(L) = L + r(L) + 1 strictly grows up to s_at(D_P), the paper's s, so
    # an onset below D_P always has the earlier s; r(L) is the smaller of
    # the per-axis ceil(L dist(I) / least step of P), y on a tie.
    profile = persistence_profile(ideal, chosen)
    d = profile.D_P
    steps = {axis: min(pair_dist(g, h, axis) for g, h in zip(profile.chosen, profile.chosen[1:])) for axis in Axis}
    s_at = [level + profile.radius(level)[0] + 1 for level in range(d + 1)]
    assert all(a < b for a, b in zip(s_at, s_at[1:])) and s_at[d] == profile.s
    for level in range(d + 1):
        r_x, r_y = (-(-level * ideal.dist(axis) // steps[axis]) for axis in (Axis.X, Axis.Y))
        assert profile.radius(level) == ((r_y, Axis.Y) if r_y <= r_x else (r_x, Axis.X)), level


def test_onset_s_grows_with_the_level_on_the_corpus():
    for seed in range(200):
        I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
        for J in (I, I.transpose()):
            for chosen in (None, weakly_persistent_generators(J)):
                _radius_grows(J, chosen)


@given(ideals().filter(lambda ideal: not ideal.is_principal), st.booleans())
def test_onset_s_grows_with_the_level(ideal, weakly):
    _radius_grows(ideal, weakly_persistent_generators(ideal) if weakly else None)


def test_rewriting_lemma_by_candidate_products():
    # Wherever (A) and (E*) hold at I^m, the candidate products of (P)^j I^m
    # and of Q_j I^m agree for j <= 6; |P| = 2 needs (A) alone.
    held = {2: 0, 3: 0}
    for seed in range(80):
        I = random_ideal(RandomIdealSpec(6, 10, seed=seed))
        gs = persistence_profile(I).chosen
        J = I
        for m in range(1, 5):
            reduces = brute.reduction_times(gs, 1, J) == brute.product(I, J)
            if reduces and segments._pairs_covered(gs, brute.staircase(J)):
                held[min(len(gs), 3)] += 1
                for j in range(1, 7):
                    assert brute.reduction_times(gs, j, J) == brute.staircase_sum(gs, j, J), (seed, m, j)
            J = J * I
    assert min(held.values()) >= 20, held


@st.composite
def corpus_image(draw, pairs):
    """A corpus ideal of ``RandomIdealSpec(8, 20)``, maybe transposed, maybe
    shifted, whose P has two generators (``pairs`` 2) or more (3)."""
    I = random_ideal(RandomIdealSpec(8, 20, seed=draw(st.integers(0, 10**6))))
    assume(min(len(persistence_profile(I).chosen), 3) == pairs)
    if draw(st.booleans()):
        I = I.transpose()
    return I.shift((draw(st.integers(0, 4)), draw(st.integers(0, 4))))


def _onset_route_matches_naive(ideal):
    plan = engine._plan(ideal)
    assume(plan.s <= 150)  # bounds the repeated multiplication
    n = max(plan.s - 1, 1)
    current = naive_power(ideal, n)
    for n in range(n, plan.s + 41):
        assert power(ideal, n) == current, n
        current = current * ideal


@settings(max_examples=25, deadline=None)
@given(corpus_image(2))
def test_onset_route_matches_naive_for_one_pair(ideal):
    _onset_route_matches_naive(ideal)


@settings(max_examples=25, deadline=None)
@given(corpus_image(3))
def test_onset_route_matches_naive_for_more_pairs(ideal):
    _onset_route_matches_naive(ideal)


def _kernel_runs(kernels):
    """The ``n`` of each recorded call of the level kernel."""
    return [args[1] for args in kernels]


def test_stable_decomposition_runs_the_kernel_once(monkeypatch):
    # BIG certifies its onset at 1: the one search stops there and builds no
    # other power.  Seed 23 certifies none: its search gives up at 13, and
    # I^D_P = I^68 is one level_power call with P.  (x^2, y^3) has D_P = 0:
    # the kernel hands back I^0 itself and no level_power call follows.
    kernels = _count_calls(monkeypatch, engine, "_certified_level_power")
    levels = _count_calls(monkeypatch, engine, "level_power")
    seed23 = random_ideal(RandomIdealSpec(8, 20, seed=23))
    cases = [(BIG, []), (seed23, [(seed23, 68, persistence_profile(seed23).chosen)])]
    cases.append((MonomialIdeal(((0, 3), (2, 0))), []))
    for ideal, built in cases:
        kernels.clear()
        levels.clear()
        dec, profile = stable_decomposition(ideal), persistence_profile(ideal)
        assert (dec.D, dec.r, dec.s, dec.axis) == (profile.D_P, profile.r, profile.s, profile.axis)
        assert _kernel_runs(kernels) == [profile.D_P] and levels == built


def _paper_route_cases():
    """Seeds 0-199 of RandomIdealSpec(8, 20), as given and transposed, with
    P = P(I), and with P = P*(I) where that differs."""
    for seed in range(200):
        I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
        for chosen in {persistent_generators(I), weakly_persistent_generators(I)}:
            yield seed, I, chosen, brute.reduction_number(I, chosen, persistence_profile(I, chosen).D_P - 1)


def test_stable_decomposition_is_the_paper_route():
    # Built from the certified onset, the decomposition is field by field the
    # paper's: glued_components of the anchored, oriented I^D_P that every
    # generator's level kernel builds, and the reduction number is the least
    # m <= D_P - 1 that repeated candidate products find.
    cases = Counter()
    for seed, I, chosen, reduction in _paper_route_cases():
        for J, P in ((I, chosen), (I.transpose(), tuple((b, a) for a, b in reversed(chosen)))):
            dec, profile = stable_decomposition(J, P), persistence_profile(J, P)
            shift = J.gcd()
            gs, base = MonomialIdeal(P).shift((-shift[0], -shift[1])), J.shift((-shift[0], -shift[1]))
            if profile.axis is Axis.X:
                gs, base = gs.transpose(), base.transpose()
            paper = glued_components(gs.gens, engine.level_power(base, profile.D_P), profile.r)
            assert vars(dec) == {
                **vars(paper), "gcd_shift": shift, "profile": profile, "reduction_number": reduction,
                "D": profile.D_P, "r": profile.r, "axis": profile.axis,
            }, seed
            cases[engine._Plan(J, P).m < profile.D_P] += 1
    assert cases == {True: 346, False: 100}


def test_mu_polynomial_from_the_onset(monkeypatch):
    # The polynomial of the decomposition at the onset, from the onset's s:
    # no kernel runs to D_P and no decomposition is cut at the paper's s.
    # At the paper's s it gives the count of stable_decomposition's I^s.
    expected = {"I1": (5, 21, 4), "I2": (7, 50, 7), "I3": (14, 127, 9), "I4": (28, 446, 16)}
    paper = {"I1": (61, 245), "I2": (241, 1688), "I3": (989, 8902), "I4": (2377, 38030)}
    kernels = _count_calls(monkeypatch, engine, "_certified_level_power")
    levels = _count_calls(monkeypatch, engine, "_decompose")
    polys = {label: mu_polynomial(ideal) for label, ideal in _fixed_ideals().items()}
    assert {label: (poly.s, poly.intercept, poly.slope) for label, poly in polys.items()} == expected
    assert {label: (s, polys[label](s)) for label, (s, _) in paper.items()} == paper
    assert [n for _, n, *rest in kernels] == [18, 40, 76, 264]  # each D_P, stopped at m
    assert [level for _, level, *rest in levels] == [1, 1, 1, 3]
    dec = stable_decomposition(_fixed_ideals()["I1"])
    assert (dec.s, dec.base_power.mu, dec.slope) == (61, 245, 4)


def test_mu_polynomial_is_the_onset_route_on_the_corpus():
    # Seeds 0-199 of RandomIdealSpec(8, 20), as given and transposed: the
    # polynomial starts at the plan's s, agrees with power() there, past it
    # and at the paper's s, and refuses the level below it.
    for seed in range(200):
        I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
        for J in (I, I.transpose()):
            poly, plan = mu_polynomial(J), engine._plan(J)
            assert poly.s == plan.s, seed
            for n in {plan.s, plan.s + 1, plan.s + 5, plan.profile.s, plan.profile.s + 7}:
                assert poly(n) == power(J, n).mu, (seed, n)
            with pytest.raises(ValueError):
                poly(plan.s - 1)


def test_decomposition_reads_each_radius_once(monkeypatch):
    # The profile computes r_x and r_y at D_P; stable_decomposition cuts with
    # those, and the plan reads the radii at its onset once more.
    calls = _count_calls(monkeypatch, geometry, "_radius")
    for seed in range(20):
        I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
        calls.clear()
        stable_decomposition(I)
        assert len(calls) == 2, seed
        calls.clear()
        assert mu_polynomial(I) == mu_polynomial(I)
        assert len(calls) == 4, seed


@pytest.mark.parametrize(
    "ideal", [MonomialIdeal(((0, 6), (1, 2), (3, 1), (2**59, 0))), MonomialIdeal(((0, 4), (1, 3), (5, 1), (2**60, 0)))]
)
def test_powers_below_an_overflowing_d(ideal):
    # I^D_P leaves int64 (D_P = 16 and 8), so no onset is searched: the powers
    # below D_P are served as before, and from D_P on power and mu raise.
    d = persistence_profile(ideal).D_P
    for n in range(1, d):
        assert power(ideal, n) == naive_power(ideal, n), n
    with pytest.raises(ExponentOverflowError):
        power(ideal, d)
    with pytest.raises(ExponentOverflowError):
        mu_polynomial(ideal)


# -- link templates --------------------------------------------------------


def _template_free_blocks(glued, ell):
    """``C_0, (H_1, ell), C_1, ..., (H_k, ell), C_k``, the blocks before templates."""
    blocks = [(glued.components[0], 1)]
    for middle, component in zip(glued.middles, glued.components[1:]):
        blocks += [(middle, ell), (component, 1)]
    return blocks


def _template_copies(middle, longest=10**9):
    """The largest power of two c with ``c (mu - 1) <= 1024`` and ``c <= longest``, or 1."""
    c = 1
    while 2 * c * (middle.mu - 1) <= 1024 and 2 * c <= longest:
        c *= 2
    return c


def _template_cases():
    fixed = _fixed_ideals()
    cases = [(label, fixed[label]) for label in ("I1", "I2", "I3", "I4")]
    cases += [("I2^T", fixed["I2"].transpose()), ("I1*x^3y^2", fixed["I1"].shift((3, 2)))]
    for seed in range(50):
        ideal = random_ideal(RandomIdealSpec(8, 20, seed=seed))
        if not ideal.is_principal:
            cases += [(f"seed {seed}", ideal), (f"seed {seed}^T", ideal.transpose())]
    return cases


TEMPLATE_CASES = _template_cases()


@pytest.mark.parametrize("ideal", [ideal for _, ideal in TEMPLATE_CASES], ids=[label for label, _ in TEMPLATE_CASES])
def test_emission_at_template_boundaries(ideal):
    # ell = q c + r around the edges of q and r for each middle's largest
    # template of c copies, against the per-generator link of ell plain
    # copies in the working orientation, which emission transposes on axis X
    # and shifts.  Rising ells meet growing templates, falling ones the
    # largest, with q = 0 below c.
    dec = engine._plan(ideal).decomposition
    counts = {_template_copies(middle) for middle in dec.middles}
    ells = sorted({ell for c in counts for ell in (0, 1, c - 1, c, c + 1, 2 * c - 1, 2 * c, 5 * c + 3)})
    for ell in ells + ells[::-1]:
        gens = brute.link_blocks(_template_free_blocks(dec, ell))
        n, expected = dec.s + ell, np.fromiter(chain.from_iterable(gens), np.int64, 2 * len(gens)).reshape(-1, 2).T
        assert np.array_equal(segments.glued_power(dec, ell).xy, expected), ell
        result, written = assemble_power_counted(dec, n)
        assert written == result.mu == mu_polynomial(ideal)(n), ell
        oriented = expected if dec.axis is Axis.Y else expected[::-1, ::-1]
        assert np.array_equal(result.xy, oriented + np.reshape(ideals_module.mon_pow(dec.gcd_shift, n), (2, 1))), ell


@pytest.mark.parametrize("ideal", [BIG, BIG.transpose().shift((2, 1))])
def test_templates_grow_with_the_runs_they_serve(monkeypatch, ideal):
    # Every emission is one link call.  After it, a middle's template holds
    # the largest power of two of copies within 1024 generators past its
    # first and within the longest run emitted so far, if that is 2 or more.
    # It is cut from an emission's output and replaced only by a longer one.
    # BIG's middles have 3, 4 and 3 generators, so at most 512, 256 and 512.
    calls, real = [], links._link_counted
    monkeypatch.setattr(segments, "_link_counted", lambda blocks, origin: calls.append(blocks) or real(blocks, origin))
    dec = stable_decomposition(ideal)
    assert dec.axis is (Axis.Y if ideal == BIG else Axis.X)
    templates, kept, longest = dec.emission_templates, {}, 0
    assert sorted(_template_copies(middle) for middle in templates.middles) == [256, 512, 512]
    for ell in (0, 1, 0, 3, 2, 255, 1, 256, 300, 511, 512, 10**4, 0, 512, 5000):
        calls.clear()
        assemble_power(dec, dec.s + ell)
        assert len(calls) == 1, ell
        longest = max(longest, ell)
        for i, middle in enumerate(templates.middles):
            c = _template_copies(middle, longest)
            if c == 1:
                assert i not in templates.built, ell
                continue
            template, copies = templates.built[i]
            assert copies == c, ell
            if i in kept and kept[i][1] == c:
                assert template is kept[i][0], ell
            else:
                assert template.gens == brute.link_blocks([(middle, c)]), ell
            kept[i] = template, c
    assert sorted(c for _, c in kept.values()) == [256, 512, 512]


@pytest.mark.parametrize("gens", [((0, 1), (2**57, 0)), ((0, 3), (2, 1), (2**57, 0)), ((0, 2**57), (1, 1), (3, 0))])
def test_emission_with_a_middle_near_the_exponent_limit(gens):
    # A middle spanning about 2**57 would need about 2**67 for its template
    # of 1024 copies; runs of fewer copies fit and link plain ones, and an
    # emission out of range raises whichever path it takes.
    ideal = MonomialIdeal(gens)
    dec = stable_decomposition(ideal)
    assert any(_template_copies(h) * max(h.dist(Axis.X), h.dist(Axis.Y)) >= 2**63 for h in dec.middles)
    for ell in range(1, 6):
        expected = naive_power(ideal, dec.s + ell)
        assert assemble_power(dec, dec.s + ell) == expected == power(ideal, dec.s + ell), ell
    for ell in (64, 1024):
        with pytest.raises(ExponentOverflowError):
            assemble_power(dec, dec.s + ell)
