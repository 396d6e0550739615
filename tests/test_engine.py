import hashlib
import json
import warnings
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
    level_power,
    naive_power,
    pair_power,
)
from stairpow.engine import (
    assemble_power,
    assemble_power_counted,
    decomposed_power,
    mu_polynomial,
    power,
    stable_decomposition,
)
from stairpow.segments import glued_components, staircase_times
from stairpow.geometry import (
    persistence_profile,
    persistent_generators,
    stabilization_radius,
    weakly_persistent_generators,
)
from stairpow.oracle import RandomIdealSpec, random_ideal, shift_generators
from stairpow.textio import parse_ideal
from test_ideals import fixed_ideals, ideals
from test_links import check_templates, template_copies

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
    # m = 0 and s = 1: no level lies below s for the block form to start at.
    plan = engine.Plan(I)
    assert (plan.m, plan.s, plan.read) == (0, 1, None)
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


def test_outputs_past_one_array_raise_memory_error():
    # An output that no (2, size) int64 array can hold is refused in Python
    # ints, naming its generator count, before numpy's own ValueError; the
    # limit is numpy's, and nothing near it is allocated.  A pair's window
    # table names its levels, (n + 1 + floor(dist_y(J) / v)) v of them.
    limit = ideals_module._MAX_COLUMNS
    with pytest.raises(ValueError):
        np.empty((2, limit + 1), dtype=np.int64)
    I = MonomialIdeal(((0, 1), (1, 0)))
    dec = stable_decomposition(MonomialIdeal(((0, 3), (1, 1), (3, 0))))
    for call, size in (
        (lambda: power(I, 2**59), f"{2**59 + 1} generators"),
        (lambda: level_power(I, 2**60), f"up to {2**60 + 1} generators"),
        (lambda: assemble_power(dec, 2**61), f"{2**62 + 1} generators"),
        (lambda: decomposed_power(I, persistence_profile(I), 2**61), f"up to {2**61 + 1} generators"),
        (lambda: glued_components(((0, 2), (3, 0)), I, 2**61), f"up to {(2**61 + 2) * 2} generators"),
        (lambda: staircase_times((0, 1), (1, 0), 2**61, I), f"up to {2**61 + 2} generators"),
        (lambda: pair_power((0, 1), (1, 0), 2**61), f"{2**61 + 1} generators"),
    ):
        with pytest.raises(MemoryError, match=f"^{size}, over the {limit} one array holds$"):
            call()


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


#: At this count every entry point's output leaves int64: an int64 product
#: of it wraps, so it must be read as a Python int before any arithmetic.
HUGE = np.int64(2**62 + 1)

#: Entry points that take a count, each as ``count -> call``.
COUNTED = {
    "level_power": lambda n: ideals_module.level_power(SMALL, n),
    "pair_power": lambda n: ideals_module.pair_power((0, 2), (3, 0), n),
    "staircase_sum": lambda n: segments.staircase_sum(((0, 2), (3, 0)), n, SMALL),
    "decomposed_power": lambda n: decomposed_power(SMALL, persistence_profile(SMALL), n),
    "glued_power": lambda n: segments.glued_power(glued_components(((0, 2), (3, 0)), SMALL, 1), n),
}


@pytest.mark.parametrize("name", COUNTED)
def test_numpy_integer_counts_are_read_exactly_at_every_entry(name):
    # The error names the exponents of the true count, as a Python int gets
    # it; no int64 product wraps first (a RuntimeWarning, then a wrong error).
    errors = []
    for n in (HUGE, int(HUGE)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExponentOverflowError) as caught:
                COUNTED[name](n)
        errors.append(str(caught.value))
    assert errors[0] == errors[1] and "-" not in errors[0], errors


@pytest.mark.parametrize("name", ["glued_power", "shift_generators", "contains"])
@pytest.mark.parametrize("count", [2.0, 2.5, True])
def test_a_float_count_is_a_type_error(name, count):
    # contains reads its monomial as shift and colon do: (2.5, 1) is no
    # monomial, not one that (2, 1) divides.
    dec = stable_decomposition(SMALL)
    calls = {
        **COUNTED,
        "shift_generators": lambda n: shift_generators(dec, assemble_power(dec, dec.s), n),
        "contains": lambda n: SMALL.contains((n, 1)),
    }
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        calls[name](count)


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_is_no_count_at_any_entry(flag):
    # operator.index reads a bool as 0 or 1; ideals._count, which reads every
    # count and monomial exponent, refuses it as the constructor does.
    dec = stable_decomposition(SMALL)
    templates = links.LinkTemplates(dec.components, dec.middles)
    calls = [
        lambda b: power(SMALL, b),
        lambda b: engine.Plan(SMALL).cut(b),
        lambda b: naive_power(SMALL, b),
        lambda b: level_power(SMALL, b),
        lambda b: decomposed_power(SMALL, persistence_profile(SMALL), b),
        lambda b: assemble_power(dec, b),
        lambda b: mu_polynomial(SMALL)(b),
        lambda b: shift_generators(dec, assemble_power(dec, dec.s), b),
        lambda b: ideals_module.pair_power((0, 2), (3, 0), b),
        lambda b: ideals_module.pair_power((0, b), (3, 0), 2),
        lambda b: ideals_module.mon_pow((b, 1), 2),
        lambda b: SMALL.shift((b, 0)),
        lambda b: SMALL.colon((0, b)),
        lambda b: SMALL.contains((b, 0)),
        lambda b: SMALL.contains((3, b)),
        lambda b: segments.staircase_sum(((0, 2), (3, 0)), b, SMALL),
        lambda b: glued_components(((0, 2), (3, 0)), SMALL, b),
        lambda b: templates.link(b),
        lambda b: templates.link(0, (b, 0)),
    ]
    for i, call in enumerate(calls):
        with pytest.raises(TypeError, match="'bool' object cannot be interpreted as an integer"):
            call(flag)
            pytest.fail(f"call {i} took a bool")


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


@pytest.mark.parametrize(
    "ideal", [SMALL, BIG, random_ideal(RandomIdealSpec(8, 20, seed=23)), random_ideal(RandomIdealSpec(8, 20, seed=14))]
)
def test_power_decomposes_only_from_s(monkeypatch, ideal):
    # Where the plan reads the block form (SMALL: m = 1, s = 3, t = 1; BIG:
    # m = 1, s = 7, t = 1; seed 23 after its give-up: m = 68, s = 324, t =
    # 4), power emits from t and builds no decomposition, below s or from it.
    # Seed 14 (m = 0, s = 1) has no level below s to read at: power cuts at
    # m once, at s, and builds no other.
    plan = engine.cached_plan(ideal)
    calls = _count_calls(monkeypatch, engine.Plan, "cut")
    for n in sorted({plan.m, plan.s - 1, plan.s, plan.s + 9} - {0}):
        assert power(ideal, n) == naive_power(ideal, n), n
    assert (plan.read is None, calls) == ((False, []) if plan.s > 1 else (True, [(plan, plan.m)]))


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
    # one profile, two runs of the level kernel (to the onset m = 1, and the
    # block form's walk to s - 1 = 6, for power at 6) and one decomposition
    # (at the onset's s = 7).
    profile = persistence_profile(ideal)
    expected = {n: naive_power(ideal, n) for n in (1, 6, 7, profile.D_P - 1, profile.D_P, 100)}
    expected[profile.s + 5] = decomposed_power(ideal, profile, profile.s + 5)
    profiles = _count_calls(monkeypatch, engine, "persistence_profile")
    kernels = _count_calls(monkeypatch, engine, "_levels")
    decompositions = _count_calls(monkeypatch, engine.Plan, "cut")
    for _ in range(2):
        for n, ideal_n in expected.items():
            assert power(ideal, n) == ideal_n, n
        poly = mu_polynomial(ideal)
        assert poly(profile.s + 5) == expected[profile.s + 5].mu
    assert (len(profiles), len(kernels), len(decompositions)) == (1, 2, 1)
    assert engine.cached_plan(ideal).m == 1 and engine.cached_plan(ideal).s == 7
    assert engine.cached_plan.cache_info().currsize == 1


def test_plan_shared_by_equal_ideals(monkeypatch):
    decompositions = _count_calls(monkeypatch, engine.Plan, "cut")
    twin = MonomialIdeal(BIG.xy.copy())
    assert twin is not BIG and twin == BIG
    assert power(BIG, 241) == power(twin, 241)
    assert mu_polynomial(twin) is mu_polynomial(BIG)  # one plan, whose polynomial is built once
    info = engine.cached_plan.cache_info()
    assert (info.misses, info.hits, len(decompositions)) == (1, 3, 1)
    # Each ideal hashes its read-only array once, and equal arrays hash alike.
    assert vars(twin)["_hash"] == vars(BIG)["_hash"] == hash(BIG.xy.tobytes())


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
    assert engine.cached_plan.cache_info().misses == len(images)


def test_plan_memo_is_bounded():
    info = engine.cached_plan.cache_info()
    assert info.maxsize == engine._PLAN_CACHE_SIZE == 16
    for j in range(info.maxsize + 5):
        assert power(SMALL.shift((j, 0)), 5).mu == 11
        assert engine.cached_plan.cache_info().currsize <= info.maxsize
    assert engine.cached_plan.cache_info().misses == info.maxsize + 5


@pytest.mark.parametrize("seed", range(10))
def test_decompose_orients_the_given_base(monkeypatch, seed):
    # Plan.cut anchors and orients the I^s it is given; the result is the
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


def _onset(plan):
    """The plan's onset m, the search's I^m and the reduction number."""
    return plan.m, plan.searched, plan.reduction_number


def test_onset_of_the_fixed_ideals():
    # I1-I4 certify at m = 1, 1, 1 and 3: s drops from 61, 241, 989 and 2377
    # to 5, 7, 14 and 28.
    got = {label: (engine.cached_plan(I).m, engine.cached_plan(I).s) for label, I in fixed_ideals().items()}
    assert got == {"I1": (1, 5), "I2": (1, 7), "I3": (1, 14), "I4": (3, 28)}


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("label", ["I1", "I2", "I3", "I4", "seed 23"])
def test_decomposition_reorients_only_p_and_the_base(monkeypatch, label, transposed):
    # I^s is summed in the working orientation from P and I^m: no ideal
    # larger than I^m, such as the whole I^s, is shifted or transposed.
    # Seed 23 certifies no onset, so its I^m is I^D_P.
    ideal = random_ideal(RandomIdealSpec(8, 20, seed=23)) if label == "seed 23" else fixed_ideals()[label]
    ideal = ideal.transpose() if transposed else ideal
    limit = engine.Plan(ideal).base.mu
    calls = [_count_calls(monkeypatch, MonomialIdeal, name) for name in ("shift", "transpose")]
    for decompose in (lambda: stable_decomposition(ideal), lambda: engine.Plan(ideal).decomposition):
        decompose()
        sizes = [args[0].mu for found in calls for args in found]
        assert sizes and max(sizes) <= limit, (sizes, limit)


def test_onset_on_the_corpus():
    # Of the seeds 0-199 of RandomIdealSpec(8, 20) with D_P > 0, 157 of 168
    # certify an onset; their s sum to 2734, against 48295 for the paper's.
    certified, onset_s, paper_s, missed = 0, 0, 0, []
    for seed in range(200):
        plan = engine.Plan(random_ideal(RandomIdealSpec(8, 20, seed=seed)))
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
    plan = engine.cached_plan(I)
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
    # search stops at 12, after its last check; I^D_P = I^68 is one
    # level_power call with P, made only once a power from D_P on needs it:
    # here with no read, which test_read_runs_the_kernel_to_its_last_level covers.
    monkeypatch.setattr(engine.Plan, "read", None)
    engine.cached_plan.cache_clear()
    I = random_ideal(RandomIdealSpec(8, 20, seed=23))
    profile = persistence_profile(I)
    expected = {n: decomposed_power(I, profile, n) for n in (100, 324, 330)}
    kernels = _count_calls(monkeypatch, engine, "_levels")
    levels = _count_calls(monkeypatch, engine, "level_power")
    assert power(I, 13) == naive_power(I, 13)
    assert power(I, 67) == naive_power(I, 67)
    assert _onset(engine.cached_plan(I)) == (68, None, 2)
    assert not hasattr(engine.cached_plan(I), "stopped")
    assert _kernel_runs(kernels) == [68] and levels == [(I, 13), (I, 67)]
    for n, ideal_n in expected.items():
        assert power(I, n) == ideal_n, n
    assert _kernel_runs(kernels) == [68] and levels == [(I, 13), (I, 67), (I, 68, profile.chosen)]


def test_read_runs_the_kernel_to_its_last_level(monkeypatch):
    # Seed 23 gives up its onset search (m = D_P = 68, s = 324) with the
    # reduction number 2: the read tries levels 2-11, one kernel run to 11 +
    # W + 1, W = ceil(2Y / min dy_i) + 1, not to s, and reads at t = 4.
    # Every power from t on is its link: none builds I^D_P or a decomposition.
    I = random_ideal(RandomIdealSpec(8, 20, seed=23))
    gs = persistence_profile(I).chosen
    w = -(-2 * (gs[0][1] - gs[-1][1]) // min(b - d for (_, b), (_, d) in zip(gs, gs[1:]))) + 1
    kernels = _count_calls(monkeypatch, engine, "_levels")
    levels = _count_calls(monkeypatch, engine, "level_power")
    cuts = _count_calls(monkeypatch, engine.Plan, "cut")
    for n in (4, 13, 67, 68, 100, 330):
        assert power(I, n) == naive_power(I, n), n
    plan = engine.cached_plan(I)
    assert (plan.m, plan.s, plan.reduction_number, plan.read[0]) == (68, 324, 2, 4)
    assert _kernel_runs(kernels) == [68, 11 + w + 1] and levels == cuts == []
    assert power(I, 3) == naive_power(I, 3) and levels == [(I, 3)]


def test_a_moved_step_or_a_rotated_middle_is_refused(monkeypatch):
    # The read is accepted by its links alone: one step of a component
    # moved, or a middle rotated by one step (both still span what they
    # spanned), makes every read refused, so power takes the routes below.
    real = engine._split

    def moved(part):
        word = list(brute._word(part))
        at = next(i for i in range(len(word) - 1) if word[i] != word[i + 1])
        word[at], word[at + 1] = word[at + 1], word[at]
        return MonomialIdeal(brute._gens(word))

    def rotated(part):
        word = list(brute._word(part))
        return MonomialIdeal(brute._gens(word[1:] + word[:1]))

    I = fixed_ideals()["I1"]
    assert engine.Plan(I).read is not None
    for tamper in ("component", "middle"):
        def split(*args, tamper=tamper):
            read = real(*args)
            if read is None:
                return None
            parts = [list(read.components), list(read.middles)]
            which = parts[tamper == "middle"]
            i = next(i for i, p in enumerate(which) if len(set(brute._word(p))) > 1)
            which[i] = (moved if tamper == "component" else rotated)(which[i])
            return links.LinkTemplates(*map(tuple, parts))

        monkeypatch.setattr(engine, "_split", split)
        plan = engine.Plan(I)
        assert plan.read is None, tamper
        engine.cached_plan.cache_clear()
        assert power(I, plan.s - 1) == level_power(I, plan.s - 1), tamper
    engine.cached_plan.cache_clear()


def test_sparse_ideal_below_d_builds_no_i_d(monkeypatch):
    # A y-span beyond 16 mu(I) keeps the level kernel, and so the onset
    # search, out: a power below D_P = 1192 builds no I^D_P.
    I = MonomialIdeal(((0, 900), (2, 500), (7, 200), (300, 0)))
    levels = _count_calls(monkeypatch, engine, "level_power")
    assert power(I, 3) == naive_power(I, 3)
    assert _onset(engine.cached_plan(I))[:2] == (1192, None) and levels == [(I, 3)]


@pytest.mark.parametrize("seed, reduction, onset", [(11, 1, 5), (15, 0, 2), (19, 1, 3)])
def test_onset_refuses_every_level_below_it(seed, reduction, onset):
    # (A) holds from the reduction number on, but I^(m+j) = Q_j I^m only
    # from the onset on: (E*) must refuse every level between.
    I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
    gs = persistence_profile(I).chosen
    assert brute.reduction_number(I, gs, onset) == reduction
    powers = [naive_power(I, n) for n in range(onset + 31)]
    covered = segments._pairs_covered(gs)
    for m in range(max(reduction, 1), onset):
        assert not covered(brute.staircase(powers[m])), m
        assert any(segments.staircase_sum(gs, j, powers[m]) != powers[m + j] for j in range(2, 31)), m
    assert covered(brute.staircase(powers[onset]))
    assert _onset(engine.cached_plan(I)) == (onset, powers[onset], reduction)


def test_onset_gives_up_past_its_tries(monkeypatch):
    # Seed 11 reduces at m = 1 and certifies (E*) first at 5: with 4 tries
    # the search finds that onset, with 3 it gives up at 5 and the plan keeps
    # D_P = 53, built afresh by level_power.
    I = random_ideal(RandomIdealSpec(8, 20, seed=11))
    monkeypatch.setattr(engine, "_ONSET_TRIES", 4)
    plan = engine.Plan(I)
    assert _onset(plan) == (5, naive_power(I, 5), 1) and plan.s == 39
    monkeypatch.setattr(engine, "_ONSET_TRIES", 3)
    plan = engine.Plan(I)
    assert _onset(plan) == (53, None, 1) and plan.s == 399
    assert plan.base == naive_power(I, 53)


def test_onset_search_sweeps_no_power_it_gives_up(monkeypatch):
    # Seed 23 gives up at level 12 (D_P = 68): the search leaves the run
    # without sweeping an I^12 that the plan would discard.  BIG certifies at
    # m = 1 and sweeps that one I^1.  The onset is read by name, not as a triple.
    seed23 = random_ideal(RandomIdealSpec(8, 20, seed=23))
    sweeps = _count_calls(monkeypatch, ideals_module, "_level_staircase")
    for ideal, onset, s, swept in ((seed23, (68, None, 2), 324, 0), (BIG, (1, BIG, 1), 7, 1)):
        sweeps.clear()
        plan = engine.Plan(ideal)
        assert (plan.s, len(sweeps)) == (s, swept)
        assert _onset(plan) == onset and not hasattr(plan, "onset")


def test_onset_search_checks_few_levels(monkeypatch):
    # The search checks (E*) once per level, on that level's staircase,
    # from the first level that shows (A) up: a found onset costs one check
    # per level up to it, and a give-up one per level tried, at most 11.
    # m and searched are what a check of level_power's I^j at every level
    # finds.
    checks, real = [], segments._pairs_covered

    def counted(gs):
        covered = real(gs)
        return lambda staircase: checks.append(len(staircase)) or covered(staircase)

    monkeypatch.setattr(engine, "_pairs_covered", counted)
    searches = Counter()
    for J in _corpus_and_fixed():
        checks.clear()
        plan = engine.Plan(J)
        if plan.reduction_number is None:
            assert not checks
            continue
        covered, first, d = real(plan.profile.chosen), max(plan.reduction_number, 1), plan.profile.D_P
        tried = range(first, min(plan.reduction_number + engine._ONSET_TRIES, d - 1) + 1)
        linear = next((j for j in tried if covered(level_power(J, j).staircase)), None)
        if linear is None:  # a give-up, unless the run reached D_P first
            assert (plan.m, plan.searched) == (d, None if tried and d - 1 > tried[-1] else level_power(J, d)), J
            assert len(checks) == len(tried) <= engine._ONSET_TRIES + 1, (J, checks)
            searches["gave up" if plan.searched is None else "reached D_P"] += 1
        else:
            assert (plan.m, plan.searched) == (linear, level_power(J, linear)), J
            assert len(checks) == linear - first + 1, (J, checks)
            searches["found"] += 1
        assert checks == [J.dist(Axis.Y) * j + 1 for j in range(first, first + len(checks))], (J, checks)
    assert searches == {"found": 322, "reached D_P": 64, "gave up": 2 * len(GIVE_UP)}, searches


def test_the_kernel_hands_on_the_staircase_of_its_power(monkeypatch):
    # The plan's I^m keeps the staircase its kernel run ended with, and the
    # cut's anchored I^m a shift of it, which the staircase sum reads on
    # axis Y (on axis X the base is transposed and builds its own; below 2
    # an I^D_P is the unit ideal or I, which no kernel run built): each one
    # the brute staircase, read-only, and no view of a kernel buffer.
    bases, real = [], engine.staircase_sum
    monkeypatch.setattr(engine, "staircase_sum", lambda gs, n, base: bases.append((base, "staircase" in vars(base)))
                        or real(gs, n, base))
    axes = Counter()
    for J in _corpus_and_fixed()[::3]:
        plan = engine.Plan(J)
        bases.clear()
        dec = stable_decomposition(J)
        (base, kept), = bases
        assert kept == (dec.axis is Axis.Y) or (plan.m < 2 and not kept), J
        axes[dec.axis, kept] += 1
        assert plan.m < 2 or "staircase" in vars(plan.base), J
        for ideal in (plan.base, base):
            if "staircase" in vars(ideal):
                staircase = vars(ideal)["staircase"]
                assert np.array_equal(staircase, brute.staircase(ideal)), J
                assert staircase.base is None and staircase.flags.owndata and not staircase.flags.writeable
    assert axes[Axis.X, False] and axes[Axis.Y, True] > 10 * axes[Axis.Y, False], axes


def _radius_grows(ideal, chosen=None):
    # s_at(L) = L + r(L) + 1 strictly grows up to s_at(D_P), the paper's s, so
    # an onset below D_P always has the earlier s; r(L) is the smaller of
    # the per-axis ceil(L dist(I) / least step of P), y on a tie.
    profile = persistence_profile(ideal, chosen)
    d = profile.D_P
    chain = list(zip(profile.chosen, profile.chosen[1:]))
    steps = {axis: min(abs(g[i] - h[i]) for g, h in chain) for i, axis in enumerate((Axis.X, Axis.Y))}
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
        covered, J = segments._pairs_covered(gs), I
        for m in range(1, 5):
            reduces = brute.reduction_times(gs, 1, J) == brute.product(I, J)
            if reduces and covered(brute.staircase(J)):
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


def _corpus_and_fixed():
    """Seeds 0-199, I1-I4 and their transposes, principal ideals left out."""
    ideals = [random_ideal(RandomIdealSpec(8, 20, seed=seed)) for seed in range(200)]
    ideals += fixed_ideals().values()
    return [J for I in ideals for J in (I, I.transpose()) if not J.is_principal]


def test_pairs_covered_holds_on_from_the_onset():
    # With (A), (E*) at I^j gives it at I^(j+1): at every certified onset m
    # it holds at each level from m to m + 5, on 224 onsets with |P| >= 3
    # and 170 with |P| = 2, where it is vacuous.
    onsets = Counter()
    for J in _corpus_and_fixed():
        plan = engine.Plan(J)
        if plan.searched is None:
            continue
        covered = segments._pairs_covered(plan.profile.chosen)
        for j in range(plan.m, plan.m + 6):
            assert covered(level_power(J, j).staircase), (J, plan.m, j)
        onsets[len(plan.profile.chosen) > 2] += 1
    assert onsets == {True: 224, False: 170}, onsets


def test_glued_cut_is_unlink_and_colon(monkeypatch):
    # Every cut of I^s that the decompositions make, at the paper's r and at
    # the onset's, against the link points scanned from every generator,
    # unlink at them and a colon per middle.
    cuts, real = [], engine.glued_cut
    monkeypatch.setattr(engine, "glued_cut", lambda gs, base, r: cuts.append((gs, base, r)) or real(gs, base, r))
    ideals = _corpus_and_fixed()
    for J in ideals:
        stable_decomposition(J)
        engine.Plan(J).decomposition
    assert len(cuts) == 2 * len(ideals)
    for gs, base, r in cuts:
        glued = real(gs, base, r)
        assert (glued.components, glued.middles, glued.link_points) == brute.glued_cut(MonomialIdeal(gs), base, r)


def _onset_route_matches_naive(ideal):
    plan = engine.cached_plan(ideal)
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


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("seed", [2, 9, 110, 115, 144])
def test_powers_below_the_onset_s_on_both_sum_routes(monkeypatch, seed, transposed):
    # On these seeds n - m runs past the slices' break-even below the onset's
    # s, so power sums I^n by slices for small n - m and by window tables
    # above; I^n is checked against repeated multiplication up to n = 30 and
    # against decomposed_power past it (seed 115, D_P = 28, s = 55).
    monkeypatch.setattr(engine.Plan, "read", None)  # the sum serves every power below s where there is no read
    engine.cached_plan.cache_clear()
    I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
    I = I.transpose() if transposed else I
    plan = engine.cached_plan(I)
    tables = _count_calls(monkeypatch, segments, "_pair_levels")
    routes, current = set(), naive_power(I, plan.m)
    for n in range(plan.m, plan.s):
        built = len(tables)
        expected = current if n <= 30 else decomposed_power(I, plan.profile, n)
        assert power(I, n) == expected, n
        routes.add((n > plan.m) * (1 + (len(tables) > built)))  # 0: I^m, 1: slices, 2: tables
        current = current * I if n < 30 else None
    assert routes == {0, 1, 2}


def _kernel_runs(kernels):
    """The ``n`` of each recorded call of the level kernel."""
    return [args[1] for args in kernels]


def test_stable_decomposition_runs_the_kernel_once(monkeypatch):
    # BIG certifies its onset at 1: the one search stops there and builds no
    # other power.  Seed 23 certifies none: its search gives up at 12, and
    # I^D_P = I^68 is one level_power call with P.  (x^2, y^3) has D_P = 0:
    # the kernel yields no level, the plan keeps I^0 and no level_power call follows.
    kernels = _count_calls(monkeypatch, engine, "_levels")
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
            cases[engine.Plan(J, P).m < profile.D_P] += 1
    assert cases == {True: 346, False: 100}


def test_mu_polynomial_from_the_onset(monkeypatch):
    # The polynomial of the decomposition at the onset, from the onset's s:
    # no kernel runs to D_P and no decomposition is cut at the paper's s.
    # At the paper's s it gives the count of stable_decomposition's I^s.
    expected = {"I1": (5, 21, 4), "I2": (7, 50, 7), "I3": (14, 127, 9), "I4": (28, 446, 16)}
    paper = {"I1": (61, 245), "I2": (241, 1688), "I3": (989, 8902), "I4": (2377, 38030)}
    kernels = _count_calls(monkeypatch, engine, "_levels")
    levels = _count_calls(monkeypatch, engine.Plan, "cut")
    polys = {label: mu_polynomial(ideal) for label, ideal in fixed_ideals().items()}
    assert {label: (poly.s, poly.intercept, poly.slope) for label, poly in polys.items()} == expected
    assert {label: (s, polys[label](s)) for label, (s, _) in paper.items()} == paper
    assert [n for _, n, *rest in kernels] == [18, 40, 76, 264]  # each D_P, stopped at m
    assert [level for _, level, *rest in levels] == [1, 1, 1, 3]
    dec = stable_decomposition(fixed_ideals()["I1"])
    assert (dec.s, dec.base_power.mu, dec.slope) == (61, 245, 4)


def test_mu_polynomial_is_the_onset_route_on_the_corpus():
    # Seeds 0-199 of RandomIdealSpec(8, 20), as given and transposed: the
    # polynomial starts at the plan's s, agrees with power() there, past it
    # and at the paper's s, and refuses the level below it.
    for seed in range(200):
        I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
        for J in (I, I.transpose()):
            poly, plan = mu_polynomial(J), engine.cached_plan(J)
            assert poly.s == plan.s, seed
            for n in {plan.s, plan.s + 1, plan.s + 5, plan.profile.s, plan.profile.s + 7}:
                assert poly(n) == power(J, n).mu, (seed, n)
            with pytest.raises(ValueError):
                poly(plan.s - 1)


def test_mu_polynomial_against_the_order():
    # With its gcd divided out, I′ is (x, y)-primary.  The generators of
    # I′^n left of one of least degree n·ord(I′) number at most its x, those
    # right of it at most its y, so mu(I^n) <= n·ord(I′) + 1 and the slope is
    # at most ord(I′).  Products of contracted ideals, mu(I′) = ord(I′) + 1,
    # are contracted (Zariski), so there mu(I^n) = n·ord(I′) + 1 from n = 1.
    equal = contracted = 0
    for seed in range(200):
        I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
        for J in (I, I.transpose(), I.shift((2, 5))):
            order, slope = brute.ord(J), mu_polynomial(J).slope
            assert slope <= order, seed
            equal += slope == order
            if J.mu == order + 1:
                contracted += 1
                assert slope == order, seed
                assert [power(J, n).mu for n in range(1, 13)] == [n * order + 1 for n in range(1, 13)], seed
    assert (equal, contracted) == (84, 21)


def _mu_onset_cases():
    """I1-I4 and the seeds 0-199 of RandomIdealSpec(8, 20) with D_P > 0,
    but seed 133, whose walk from S = 1225 is the slowest by far."""
    cases = list(fixed_ideals().values())
    for seed in range(200):
        I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
        if seed != 133 and persistence_profile(I).D_P > 0:
            cases.append(I)
    return cases


def test_mu_becomes_linear_by_the_plans_s():
    # n1, the least n from which mu(I^n) is the mu polynomial (the
    # postulation number of the fiber cone's Hilbert function), walked down
    # in one kernel run from the plan's s = S, where the polynomial is
    # proven: n1 <= S, level_power agrees with it at n1 and not at n1 - 1.
    # Every level walked keeps mu(I^n) <= n·ord(I′) + 1, and so does the
    # polynomial at S + 10^k.
    cases, sum_s, sum_n1, largest = _mu_onset_cases(), 0, 0, 0
    for I in cases:
        poly, order = mu_polynomial(I), brute.ord(I)
        n1, mus = brute.mu_onset(I)
        assert 1 <= n1 <= poly.s and sorted(mus) == list(range(1, poly.s)), I
        assert level_power(I, n1).mu == poly.intercept + (n1 - poly.s) * poly.slope, I
        assert n1 == 1 or level_power(I, n1 - 1).mu != poly.intercept + (n1 - 1 - poly.s) * poly.slope, I
        assert all(mu <= n * order + 1 for n, mu in mus.items()), I
        assert all(poly(poly.s + 10**k) <= (poly.s + 10**k) * order + 1 for k in range(16)), I
        sum_s, sum_n1, largest = sum_s + poly.s, sum_n1 + n1, max(largest, n1)
    assert (len(cases), sum_s, sum_n1, largest) == (171, 4084, 409, 11)


def _form_cases():
    """I1-I4 and the seeds 0-199 of RandomIdealSpec(8, 20) with D_P > 0 whose
    plan holds its own I^m, so that brute.form_onset's walk down from its s is
    short, each as given, transposed and shifted by x^2 y^5."""
    cases = list(fixed_ideals().values())
    for seed in range(200):
        I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
        if persistence_profile(I).D_P > 0 and engine.cached_plan(I).searched is not None:
            cases.append(I)
    return [J for I in cases for J in (I, I.transpose(), I.shift((2, 5)))]


def test_the_read_starts_at_or_above_the_block_forms_onset():
    # n0, the least n from which G(I^n) has the block form, walked down from
    # the plan's s = S by brute.form_onset, is at most the read's t; from t on,
    # power equals level_power, the last level of one kernel run, up to S + 20.
    # Every other case keeps the test near 3 s.
    cases, sums = _form_cases()[::2], [0, 0]
    for I in cases:
        plan = engine.cached_plan(I)
        n0, (t, _), s = brute.form_onset(I), plan.read, plan.s
        assert n0 <= t < s, (I, n0, t, s)
        gy, checked = I.gens[-1][1], []
        for n, staircase, _ in ideals_module._levels(I, s + 20, ()):
            if n >= t:
                assert power(I, n) == ideals_module._level_ideal(staircase, n * gy), (I, n)
                checked.append(n)
        assert checked == list(range(t, s + 21)), I
        sums = [sums[0] + n0, sums[1] + t]
    assert (len(cases), sums) == (248, [637, 747])


def _read_cases():
    """I1-I4 and the seeds 0-199 of RandomIdealSpec(8, 20), each as given,
    transposed and shifted by x^2 y^5."""
    cases = [*fixed_ideals().values(), *(random_ideal(RandomIdealSpec(8, 20, seed=seed)) for seed in range(200))]
    return [J for I in cases for J in (I, I.transpose(), I.shift((2, 5)))]


def test_the_read_is_the_brute_read_and_links_every_power():
    # Wherever a level lies below s, the plan reads the block form at t, at
    # most 7 levels past max(reduction number, 1), and its parts are those of
    # brute.read_form at t.  Their words, concatenated, give level_power at t
    # to t + 30 (one kernel run) and power at s + 10^k for k <= 4.
    cases, reads, sum_t, first = _read_cases(), 0, 0, 0
    for I in cases:
        plan = engine.cached_plan(I)
        if plan.read is None:
            assert plan.s == 1, I
            continue
        (t, read), (gx, gy) = plan.read, I.gcd()
        rn = plan.reduction_number
        assert 0 <= t - max(plan.profile.D_P if rn is None else rn, 1) <= 7, I
        parts = brute.read_form(I, t)
        assert parts == (tuple(c.gens for c in read.components), tuple(h.gens for h in read.middles)), I
        for n, staircase, _ in ideals_module._levels(I, t + 30, ()):
            if n >= t:
                assert np.array_equal(brute.expand(parts, n - t, (gx * n, gy * n)), ideals_module._level_staircase(staircase, n * gy)), (I, n)
        for n in (plan.s + 10**k for k in range(5)):
            assert np.array_equal(brute.expand(parts, n - t, (gx * n, gy * n)), power(I, n).xy), (I, n)
        reads, sum_t, first = reads + 1, sum_t + t, first + (t == max(plan.profile.D_P if rn is None else rn, 1))
    assert (len(cases), reads, sum_t, first) == (612, 516, 1545, 438)


def test_decompose_and_emit_never_build_the_read(monkeypatch):
    # stable_decomposition, mu_polynomial and assemble_power, which the
    # decompose and emit workloads run, never read the block form: only
    # power does.
    monkeypatch.setattr(engine.Plan, "read", property(lambda plan: pytest.fail("read built")))
    engine.cached_plan.cache_clear()
    for I in [*fixed_ideals().values(), BIG, *(random_ideal(RandomIdealSpec(8, 20, seed=seed)) for seed in range(8))]:
        dec = stable_decomposition(I)
        assert assemble_power(dec, dec.s + 3) == level_power(I, dec.s + 3)
        plan, poly = engine.cached_plan(I), mu_polynomial(I)
        assert assemble_power(plan.decomposition, plan.s + 9).mu == poly(plan.s + 9)


def test_mu_is_linear_from_the_first_power_on_contracted_ideals():
    # mu(I′) = ord(I′) + 1 makes every power contracted, with mu(I^n) =
    # n·ord(I′) + 1 from n = 1 (test_mu_polynomial_against_the_order): the
    # walk down from the plan's s finds n1 = 1 on each of the 21 images.
    onsets = []
    for seed in range(200):
        I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
        if I.mu == brute.ord(I) + 1:
            onsets += [brute.mu_onset(J)[0] for J in (I, I.transpose(), I.shift((2, 5)))]
    assert onsets == [1] * 21


@pytest.mark.parametrize("seed", [0, 8, 23, 41])
def test_plan_cuts_at_every_level_from_m(seed):
    # I^(L+j) = Q_j I^L from every level L >= m, so a cut there, with the
    # radius at L, assembles every power from its s; below m it is refused.
    I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
    for J in (I, I.transpose()):
        plan = engine.Plan(J)
        m, d = plan.m, plan.profile.D_P
        for level in sorted({m, m + 1, (m + d) // 2, d, d + 2}):
            dec = plan.cut(np.int64(level))
            assert (type(dec.D), dec.D, (dec.r, dec.axis)) == (int, level, plan.profile.radius(level))
            for n in (dec.s, dec.s + 3):
                assert assemble_power(dec, n) == level_power(J, n), (seed, level, n)
        with pytest.raises(ValueError, match=f"a cut needs level >= m = {m}, got {m - 1}"):
            plan.cut(m - 1)


def test_decomposition_reads_each_radius_once(monkeypatch):
    # The profile computes r_x and r_y at D_P, and every cut reads both radii
    # at its own level once: the plan's at m, and stable_decomposition's at
    # D_P are the profile's own, so it reads two radii, not four.  The plan's
    # s and its cut at m share that one read at m, so the first power past s
    # on an empty memo reads four radii, not six, and two where m is D_P.
    calls = _count_calls(monkeypatch, geometry, "_radius")
    at_d = 0
    for seed in range(20):
        I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
        calls.clear()
        stable_decomposition(I)
        assert len(calls) == 2, seed
        expected = 2 if engine.Plan(I).m == persistence_profile(I).D_P else 4
        at_d += expected == 2
        calls.clear()
        assert mu_polynomial(I) == mu_polynomial(I)
        assert len(calls) == expected, seed
        s = mu_polynomial(I).s
        engine.cached_plan.cache_clear()
        calls.clear()
        assert power(I, s + 3).mu == mu_polynomial(I)(s + 3), seed
        assert len(calls) == expected, seed
    assert 0 < at_d < 20, at_d


@pytest.mark.parametrize(
    "ideal", [MonomialIdeal(((0, 6), (1, 2), (3, 1), (2**59, 0))), MonomialIdeal(((0, 4), (1, 3), (5, 1), (2**60, 0)))]
)
def test_powers_below_an_overflowing_d(ideal):
    # I^D_P leaves int64 (D_P = 16 and 8), so no onset is searched: the powers
    # below D_P are served as before, and from D_P on power and mu raise.  P
    # is all of G(I) on both, so the reduction number is still 0.
    d = persistence_profile(ideal).D_P
    assert engine.Plan(ideal).reduction_number == 0
    for n in range(1, d):
        assert power(ideal, n) == naive_power(ideal, n), n
    with pytest.raises(ExponentOverflowError):
        power(ideal, d)
    with pytest.raises(ExponentOverflowError):
        mu_polynomial(ideal)


def test_powers_below_an_overflowing_s():
    # I^m fits in int64 but I^s does not (m = 1, s = 5): the read's levels
    # leave int64, so there is no read, and the powers below s take the
    # staircase sum as before.
    ideal = MonomialIdeal(((0, 3), (1, 1), (2**61, 0)))
    plan = engine.cached_plan(ideal)
    assert (plan.m, plan.s, plan.searched is None, plan.read) == (1, 5, False, None)
    for n in range(1, 4):
        assert power(ideal, n) == naive_power(ideal, n), n
    with pytest.raises(ExponentOverflowError):
        power(ideal, 4)


# -- link templates --------------------------------------------------------


def _template_free_blocks(glued, ell):
    """``C_0, (H_1, ell), C_1, ..., (H_k, ell), C_k``, the blocks before templates."""
    blocks = [(glued.components[0], 1)]
    for middle, component in zip(glued.middles, glued.components[1:]):
        blocks += [(middle, ell), (component, 1)]
    return blocks


def _template_cases():
    fixed = fixed_ideals()
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
    # and shifts.  Rising and falling ells meet the same templates, with
    # q = 0 below c.
    dec = engine.cached_plan(ideal).decomposition
    counts = {template_copies(middle) for middle in dec.middles}
    ells = sorted({ell for c in counts for ell in (0, 1, c - 1, c, c + 1, 2 * c - 1, 2 * c, 5 * c + 3)})
    for ell in ells + ells[::-1]:
        gens = brute.link_blocks(_template_free_blocks(dec, ell))
        n, expected = dec.s + ell, np.fromiter(chain.from_iterable(gens), np.int64, 2 * len(gens)).reshape(-1, 2).T
        assert np.array_equal(segments.glued_power(dec, ell).xy, expected), ell
        result, written = assemble_power_counted(dec, n)
        assert written == result.mu == mu_polynomial(ideal)(n), ell
        oriented = expected if dec.axis is Axis.Y else expected[::-1, ::-1]
        assert np.array_equal(result.xy, oriented + np.reshape(ideals_module.mon_pow(dec.gcd_shift, n), (2, 1))), ell


def _filled_columns(monkeypatch):
    """Record the ``(row, start, stop)`` of every ``np.add`` the link kernel writes, by offset into its array."""
    filled = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def add(self, a, b, out):
            start, size = (out.ctypes.data - out.base.ctypes.data) // 8, out.base.shape[1]
            filled.append((start // size, start % size, start % size + out.shape[0]))
            return np.add(a, b, out=out)

    monkeypatch.setattr(links, "np", Numpy())
    return filled


@pytest.mark.parametrize("label", ["I1", "I2", "I3"])
def test_the_written_count_is_what_the_writes_filled(monkeypatch, label):
    # At ell = c - 1, c, c + 1, 2c - 1, 2c and 2c + 1 for every power of two
    # c up to the largest template's copies, each link's 1-D adds fill every
    # column but the first once in the x row and once in the y row, its
    # written count is the y row's filled columns plus that first one, and
    # its output is the per-generator link of ell copies.  The templates are
    # built before the adds are recorded.
    dec = engine.cached_plan(fixed_ideals()[label]).decomposition
    templates = links.LinkTemplates(dec.components, dec.middles)
    copies, filled = check_templates(templates), _filled_columns(monkeypatch)
    sizes = {c for c in (1 << i for i in range(11)) if c <= max(copies)}
    assert max(sizes) == max(copies) >= 64
    for ell in sorted({ell for c in sizes for ell in (c - 1, c, c + 1, 2 * c - 1, 2 * c, 2 * c + 1)}):
        filled.clear()
        ideal, written = templates.link(ell)
        assert ideal.gens == brute.link_blocks(_template_free_blocks(dec, ell)), ell
        for row in (0, 1):
            counts = np.zeros(ideal.mu, dtype=int)
            for start, stop in [(a, b) for r, a, b in filled if r == row]:
                counts[start:stop] += 1
            assert counts[0] == 0 and (counts[1:] == 1).all(), (ell, row)
        assert written == 1 + sum(b - a for r, a, b in filled if r == 1) == ideal.mu, ell


def _assert_fresh_array(ideal, label):
    """``ideal.xy`` is a read-only, C-contiguous ``(2, mu)`` int64 array."""
    xy = ideal.xy
    layout = (xy.dtype, xy.shape, xy.flags.c_contiguous, xy.flags.writeable)
    assert layout == (np.int64, (2, ideal.mu), True, False), label


@pytest.mark.parametrize("label", ["I1", "I4", "seed 3"])
@pytest.mark.parametrize("form", ["given", "transposed", "shifted", "pairs"])
def test_every_route_returns_a_read_only_c_contiguous_array(label, form):
    # Below m (I4's m is 3, so power(I, 1) is I itself), from m to s and
    # from s on, assembled, on ideals built every way the library builds one:
    # parsed or drawn, transposed, shifted and from exponent pairs.
    ideal = random_ideal(RandomIdealSpec(8, 20, seed=3)) if label == "seed 3" else fixed_ideals()[label]
    forms = {"given": ideal, "transposed": ideal.transpose(), "shifted": ideal.shift((1, 2))}
    ideal = forms.get(form) or MonomialIdeal(ideal.transpose().gens)
    plan = engine.cached_plan(ideal)
    levels = {1, 2, plan.m, plan.m + 1, plan.s - 1, plan.s, plan.s + 1, plan.s + 1025}
    routes = {n: power(ideal, n) for n in sorted(levels)}
    assert any(n < plan.m for n in routes) == (label == "I4")
    routes["assemble_power"] = assemble_power(plan.decomposition, plan.s + 7)
    routes["link_many"] = links.link_many([ideal, ideal.transpose(), SMALL]).ideal
    for n, result in routes.items():
        _assert_fresh_array(result, (label, n))


@pytest.mark.parametrize("ideal", [BIG, BIG.transpose().shift((2, 1))])
def test_templates_are_built_once(monkeypatch, ideal):
    # A decomposition's templates are built at its first emission, one link
    # per middle whose template holds 2 copies or more, and every emission
    # is one link more.  No emission changes them: each middle keeps the
    # largest power of two of copies within 1024 generators past its first.
    # BIG's middles have 3, 4 and 3 generators, so 512, 256 and 512.
    calls, real = [], links._link_counted
    monkeypatch.setattr(links, "_link_counted", lambda blocks, origin: calls.append(blocks) or real(blocks, origin))
    dec = stable_decomposition(ideal)
    assert dec.axis is (Axis.Y if ideal == BIG else Axis.X)
    assert "emission_templates" not in vars(dec)
    assemble_power(dec, dec.s)
    assert len(calls) == 3 + 1
    templates = dec.emission_templates
    record = templates._templates
    assert sorted(check_templates(templates)) == [256, 512, 512]
    for ell in (1, 0, 3, 2, 255, 1, 256, 300, 511, 512, 10**4, 0, 512, 5000):
        calls.clear()
        assemble_power(dec, dec.s + ell)
        assert len(calls) == 1 and dec.emission_templates._templates is record, ell


@pytest.mark.parametrize("label", ["I1", "I2", "I3", "seed 3"])
def test_emission_does_not_depend_on_earlier_emissions(monkeypatch, label):
    # Emitted in ascending, descending and shuffled order, each order on a
    # fresh decomposition, every ell gives the same ideal, the same written
    # count and the same runs handed to the link kernel.
    ideal = random_ideal(RandomIdealSpec(8, 20, seed=3)) if label == "seed 3" else fixed_ideals()[label]
    ells = [0, 1, 3, 100, 511, 512, 513, 10**4]
    calls, real = [], links._link_counted
    monkeypatch.setattr(links, "_link_counted", lambda runs, origin: calls.append(runs) or real(runs, origin))
    emitted = []
    for order in (ells, ells[::-1], [511, 3, 10**4, 0, 513, 1, 512, 100]):
        dec = stable_decomposition(ideal)
        dec.emission_templates  # built before any run is recorded
        by_ell = {}
        for ell in order:
            calls.clear()
            result, written = assemble_power_counted(dec, dec.s + ell)
            (runs,) = calls
            by_ell[ell] = result.xy.tobytes(), written, [(rest.tobytes(), *counts) for rest, *counts in runs]
        emitted.append(by_ell)
    assert emitted[0] == emitted[1] == emitted[2]


@pytest.mark.parametrize("gens", [((0, 1), (2**57, 0)), ((0, 3), (2, 1), (2**57, 0)), ((0, 2**57), (1, 1), (3, 0))])
def test_emission_with_a_middle_near_the_exponent_limit(gens):
    # A middle spanning about 2**57 would need about 2**67 for a template of
    # 1024 copies, so its template holds only as many as int64 spans, and
    # ell = 1..5 are prefixes of it; an emission out of range raises
    # whichever path it takes.
    ideal = MonomialIdeal(gens)
    dec = stable_decomposition(ideal)
    templates = dec.emission_templates
    copies = check_templates(templates)
    assert any(2 * c * (h.mu - 1) <= 1024 for h, c in zip(templates.middles, copies))  # capped by the span
    for ell in range(1, 6):
        expected = naive_power(ideal, dec.s + ell)
        assert assemble_power(dec, dec.s + ell) == expected == power(ideal, dec.s + ell), ell
    for ell in (64, 1024):
        with pytest.raises(ExponentOverflowError):
            assemble_power(dec, dec.s + ell)
