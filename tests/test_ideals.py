import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import brute
from stairpow import ideals as ideals_module
from stairpow.geometry import persistence_profile, persistent_generators, weakly_persistent_generators
from stairpow.ideals import (
    EXP_LIMIT,
    UNIT,
    Axis,
    ExponentOverflowError,
    MonomialIdeal,
    ideal_sum,
    level_power,
    minimalize,
    mon_divides,
    naive_power,
    pair_power,
)
from stairpow.oracle import RandomIdealSpec, random_ideal


def test_minimalize_divisor_wins():
    assert minimalize([(2, 0), (3, 0)]).gens == ((2, 0),)


def test_minimalize_dominated_point_dropped():
    assert minimalize([(0, 2), (2, 1), (3, 0), (2, 2)]).gens == ((0, 2), (2, 1), (3, 0))


def test_minimalize_square_products():
    I = MonomialIdeal(((0, 2), (2, 1), (3, 0)))
    products = [(a + c, b + d) for a, b in I.gens for c, d in I.gens]
    assert minimalize(products).gens == ((0, 4), (2, 3), (3, 2), (5, 1), (6, 0))


def test_minimalize_empty_rejected():
    with pytest.raises(ValueError):
        minimalize([])


def test_minimalize_matches_bruteforce():
    rng = random.Random(11)
    for _ in range(50):
        pts = [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(rng.randint(1, 15))]
        got = minimalize(pts).gens
        expected = sorted(
            {
                p
                for p in pts
                if not any(q != p and mon_divides(q, p) for q in pts)
            }
        )
        # Equal points: keep one representative.
        assert list(got) == [p for p in expected if p in got]
        for p in pts:
            assert any(mon_divides(g, p) for g in got)


def test_numpy_and_small_minimalization_agree():
    # The bucket-min kernel on a dense and on a sparse y-span, against the
    # brute lexsort reference.
    rng = random.Random(5)
    dense = [(rng.randint(0, 300), rng.randint(0, 300)) for _ in range(5000)]
    sparse = [(rng.randint(0, 300), rng.randint(0, 2**50)) for _ in range(5000)]
    for pts in (dense, sparse):
        assert minimalize(pts).gens == brute.lexsort_minimal(pts)


def test_canonical_order_enforced():
    with pytest.raises(ValueError):
        MonomialIdeal(((2, 1), (0, 2)))
    with pytest.raises(ValueError):
        MonomialIdeal(((0, 2), (1, 2)))
    with pytest.raises(ValueError):
        MonomialIdeal(())


def test_constructor_rejects_other_arrays():
    with pytest.raises(ValueError):
        MonomialIdeal(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        MonomialIdeal(np.array([[0, 2], [1, 1], [2, 0]], dtype=np.int64))


def test_canonical_is_fully_checked_under_the_suite():
    # The suite's fixture validates every array handed to the unchecked
    # constructor; without it these would pass as ideals.
    with pytest.raises(ValueError, match="canonical antichain order"):
        MonomialIdeal._canonical(np.array([[2, 0], [0, 2]], dtype=np.int64))
    with pytest.raises(ExponentOverflowError, match="negative exponent"):
        MonomialIdeal._canonical(np.array([[0, 2], [3, -1]], dtype=np.int64))


def test_multiply_small_example_square():
    I = MonomialIdeal(((0, 2), (2, 1), (3, 0)))
    assert (I * I).gens == ((0, 4), (2, 3), (3, 2), (5, 1), (6, 0))


def test_multiply_unit_identity():
    I = MonomialIdeal(((0, 3), (4, 1), (6, 0)))
    assert (I * UNIT).gens == I.gens


def test_multiply_binomial_two_generators():
    I = MonomialIdeal(((0, 5), (6, 0)))
    assert (I * I).gens == ((0, 10), (6, 5), (12, 0))


def test_multiply_commutative_associative():
    for seed in range(15):
        A = random_ideal(RandomIdealSpec(8, 30, seed=seed))
        B = random_ideal(RandomIdealSpec(8, 30, seed=100 + seed))
        C = random_ideal(RandomIdealSpec(8, 30, seed=200 + seed))
        assert (A * B).gens == (B * A).gens
        assert ((A * B) * C).gens == (A * (B * C)).gens


def test_multiply_numpy_path_agrees():
    A = MonomialIdeal(tuple((i, 60 - i) for i in range(61)))
    B = MonomialIdeal(tuple((2 * i, 80 - 2 * i) for i in range(41)))
    assert (A * B).gens == brute.product(A, B)
    sparse = MonomialIdeal(((0, 2**50), (3, 2**40), (7, 0)))
    assert (A * sparse).gens == brute.product(A, sparse)


def test_naive_power_identity_and_small_example():
    I = MonomialIdeal(((0, 2), (2, 1), (3, 0)))
    assert naive_power(I, 1).gens == I.gens
    assert naive_power(I, 3).mu == 7
    assert naive_power(I, 0).gens == UNIT.gens


def test_naive_power_refuses_a_negative_power():
    with pytest.raises(ValueError):
        naive_power(MonomialIdeal(((0, 1), (1, 0))), -1)


def test_naive_power_persistent_middle_generator():
    I = MonomialIdeal(((0, 5), (5, 1), (6, 0)))
    assert (20, 4) in naive_power(I, 4).gens


def test_naive_power_additivity():
    I = MonomialIdeal(((0, 3), (2, 2), (5, 0)))
    assert naive_power(I, 5).gens == (naive_power(I, 2) * naive_power(I, 3)).gens


def test_sum_idempotent_and_union():
    I = MonomialIdeal(((0, 2), (3, 0)))
    assert (I + I).gens == I.gens
    assert (MonomialIdeal(((0, 2),)) + MonomialIdeal(((3, 0),))).gens == ((0, 2), (3, 0))


def test_sum_figure_link():
    left = MonomialIdeal(((0, 3), (1, 1), (4, 0))).shift((0, 2))
    right = MonomialIdeal(((0, 2), (2, 0))).shift((4, 0))
    assert (left + right).gens == ((0, 5), (1, 3), (4, 2), (6, 0))


def test_colon_examples():
    I = MonomialIdeal(((0, 2), (2, 1), (3, 0)))
    cube = naive_power(I, 3)
    assert cube.colon((0, 2)).gens == ((0, 4), (2, 3), (3, 2), (5, 1), (6, 0))
    assert I.colon((0, 0)).gens == I.gens
    assert I.colon((2, 1)).gens == ((0, 0),)


def test_gcd_and_anchor():
    assert MonomialIdeal(((0, 2), (2, 1), (3, 0))).gcd() == (0, 0)
    assert MonomialIdeal(((2, 3), (5, 1))).gcd() == (2, 1)
    I = MonomialIdeal(((4, 3), (6, 1)))
    assert I.gcd() == (4, 1)
    anch, g = MonomialIdeal(((2, 5), (4, 2))).anchor()
    assert anch.gens == ((0, 3), (2, 0)) and g == (2, 2)
    anch, g = MonomialIdeal(((3, 4),)).anchor()
    assert anch.gens == ((0, 0),) and g == (3, 4)
    already, g = MonomialIdeal(((0, 2), (3, 0))).anchor()
    assert g == (0, 0) and already.gens == ((0, 2), (3, 0))


def test_dist():
    I = MonomialIdeal(((0, 2), (2, 1), (3, 0)))
    assert I.dist(Axis.X) == 3 and I.dist(Axis.Y) == 2
    big = MonomialIdeal.of((0, 10), (1, 9), (2, 5), (4, 4), (5, 3), (6, 2), (12, 1), (15, 0))
    assert big.dist(Axis.Y) == 10 and big.dist(Axis.X) == 15
    pair = MonomialIdeal(((1, 7), (5, 2)))
    assert pair.dist(Axis.X) == 4 and pair.dist(Axis.Y) == 5


def test_round_trip_canonical():
    for seed in range(30):
        I = random_ideal(RandomIdealSpec(8, 25, seed=seed))
        assert minimalize(I.gens).gens == I.gens


def test_overflow_checked():
    huge = MonomialIdeal(((0, EXP_LIMIT - 1), (1, 0)))
    with pytest.raises(ExponentOverflowError):
        huge * huge
    for m in ((0, 1), (-1, 0), (0, -1)):
        with pytest.raises(ExponentOverflowError):
            huge.shift(m)


def test_constructor_rejects_out_of_range_exponents():
    for pairs in (
        ((-1, 2), (0, 0)),
        ((0, 2**70), (1, 0)),
        ((0, EXP_LIMIT), (1, 0)),
        ((0, 3), (2, 1), (5, -4)),
    ):
        with pytest.raises(ExponentOverflowError):
            MonomialIdeal(pairs)
    assert MonomialIdeal(((0, EXP_LIMIT - 1), (EXP_LIMIT - 1, 0))).mu == 2


def test_copies_stay_read_only():
    I = MonomialIdeal(((0, 7), (2, 4), (4, 3), (5, 2), (6, 0)))
    I.gens  # cache the tuple view before copying
    for J in (pickle.loads(pickle.dumps(I)), copy.deepcopy(I), copy.copy(I)):
        assert J == I and J.gens == I.gens
        assert not J.xy.flags.writeable
        with pytest.raises(ValueError):
            J.xy[0, 0] = 1


def test_minimalize_rejects_exponents_past_int64():
    with pytest.raises(ExponentOverflowError):
        minimalize([(1, 2), (EXP_LIMIT, 0)])
    with pytest.raises(ExponentOverflowError):
        minimalize([(0, 2**64)])
    assert minimalize([(EXP_LIMIT - 1, 0)]).gens == ((EXP_LIMIT - 1, 0),)


def test_minimalize_rejects_negative_exponents():
    with pytest.raises(ExponentOverflowError):
        minimalize([(1, 2), (3, -1)])
    with pytest.raises(ExponentOverflowError):
        minimalize([(-EXP_LIMIT - 1, 0)])


@pytest.mark.parametrize(
    "pairs",
    [((0, 2.5), (1.5, 0)), ((0.9, 1), (1, 0)), (("1", 0),), ((True, 0),), ((0, 2), (np.float64(1), 0))],
)
def test_non_integer_exponents_refused(pairs):
    # A float, a string or a bool is no exponent: refused, never truncated to one.
    for build in (lambda: MonomialIdeal.of(*pairs), lambda: minimalize(pairs), lambda: MonomialIdeal(pairs)):
        with pytest.raises(ValueError, match="is not an integer"):
            build()


def test_numpy_integer_exponents_accepted():
    assert MonomialIdeal.of((np.int32(0), np.uint8(3)), (np.int64(2), 0)).gens == ((0, 3), (2, 0))
    with pytest.raises(ExponentOverflowError):
        MonomialIdeal.of((np.uint64(EXP_LIMIT), 0))


points = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=60)


@st.composite
def ideals(draw, max_exp=40):
    mu = draw(st.integers(1, 10))
    coords = st.lists(st.integers(0, max_exp), min_size=mu, max_size=mu, unique=True)
    xs, ys = sorted(draw(coords)), sorted(draw(coords), reverse=True)
    return MonomialIdeal(tuple(zip(xs, ys)))


@given(points)
def test_minimalize_is_the_antichain(pts):
    assert minimalize(pts).gens == brute.antichain(pts)


@given(points, st.integers(0, 2**40))
def test_minimalize_sparse_span_is_the_antichain(pts, lift):
    # One lifted point stretches the y-span past the bucket kernel's range.
    pts = pts + [(0, lift)]
    assert minimalize(pts).gens == brute.antichain(pts)


@given(ideals(), st.tuples(st.integers(0, 50), st.integers(0, 50)))
@example(MonomialIdeal(((0, 4), (2, 1), (5, 0))), (2, 1))  # a generator: unit
@example(MonomialIdeal(((0, 4), (2, 1), (5, 0))), (3, 2))  # inside the ideal
@example(MonomialIdeal(((0, 4), (2, 1), (5, 0))), (9, 0))  # past the x end
@example(MonomialIdeal(((0, 4), (2, 1), (5, 0))), (0, 9))  # past the y end
@example(MonomialIdeal(((3, 4), (6, 1))), (1, 0))  # left of every generator
@example(MonomialIdeal(((3, 4), (6, 1))), (0, 0))
def test_colon_matches_clamped_differences(ideal, m):
    u, v = m
    expected = minimalize((max(a - u, 0), max(b - v, 0)) for a, b in ideal.gens)
    got = ideal.colon(m)
    assert got.gens == expected.gens
    assert got.is_unit == ideal.contains(m)


def test_pair_power_staircase():
    P = pair_power((0, 2), (3, 0), 4)
    assert P.gens == ((0, 8), (3, 6), (6, 4), (9, 2), (12, 0))
    assert P.gens == naive_power(MonomialIdeal(((0, 2), (3, 0))), 4).gens
    with pytest.raises(ValueError):
        pair_power((0, 0), (1, 1), 2)
    assert pair_power((0, 2), (3, 0), 0) == UNIT
    with pytest.raises(ExponentOverflowError):
        pair_power((-1, 2), (3, 0), 2)
    with pytest.raises(ValueError):
        pair_power((0.5, 2), (3, 0), 2)


def test_pair_power_refuses_a_negative_power():
    # A usage error, not an exponent pair out of range.
    with pytest.raises(ValueError, match="power must be non-negative, got -1"):
        pair_power((0, 2), (3, 0), -1)


def test_ideal_sum_helper():
    parts = [MonomialIdeal(((0, 2),)), MonomialIdeal(((1, 1),)), MonomialIdeal(((3, 0),))]
    assert ideal_sum(parts).gens == ((0, 2), (1, 1), (3, 0))
    with pytest.raises(ValueError):
        ideal_sum([])


def test_transpose_involution():
    for seed in range(10):
        I = random_ideal(RandomIdealSpec(6, 15, seed=seed))
        assert I.transpose().transpose().gens == I.gens


#: Corpus ideals (the Tier-1 distribution) with D_P from 4 to 115.
LEVEL_CORPUS = [random_ideal(RandomIdealSpec(8, 20, seed=seed)) for seed in range(10)]


@pytest.mark.parametrize("seed", range(len(LEVEL_CORPUS)))
def test_level_power_matches_naive(seed):
    # With every generator, and with P(I) or P*(I) as the reduction.
    I = LEVEL_CORPUS[seed]
    for J in (I, I.transpose(), I.shift((2, 3))):
        d = persistence_profile(J.anchor()[0]).D_P
        reductions = ((), persistent_generators(J), weakly_persistent_generators(J))
        for n in (0, 1, 2, d, d + 3):
            expected = naive_power(J, n)
            for P in reductions:
                assert level_power(J, n, P) == expected, (J.gens, n, P)


def _checked_steps(ideal, n):
    """The last step at which ``level_power(ideal, n, P)`` checks for a
    certificate: every step of the kernel, where it runs."""
    if n < 2 or ideal.dist(Axis.Y) > ideals_module._BUCKET_SPAN_FACTOR * ideal.mu:
        return 0
    return n - 1


@given(ideals(), st.integers(0, 30), st.booleans())
@example(MonomialIdeal(((3, 5),)), 7, False)  # principal: P is G(I)
def test_level_power_with_a_reduction(ideal, n, weakly):
    # I^n as repeated multiplication gives it, and the certified m is the
    # least m with I^(m+1) = (P) I^m among the steps that were checked.
    boundary = weakly_persistent_generators if weakly else persistent_generators
    chosen = ideal.gens if ideal.is_principal else boundary(ideal)
    _, power, m = ideals_module._certified_level_power(ideal, n, chosen)
    assert power == naive_power(ideal, n)
    assert m == brute.reduction_number(ideal, chosen, _checked_steps(ideal, n))


def test_level_power_refuses_a_reduction_without_both_extremes():
    # The slices of the lowest and the highest generator reach every level.
    I = MonomialIdeal(((0, 4), (1, 2), (3, 1), (5, 0)))
    assert level_power(I, 30, ((0, 4), (5, 0))) == naive_power(I, 30)
    for P in (((0, 4), (1, 2)), ((1, 2), (5, 0))):
        for n in (1, 30):
            with pytest.raises(ValueError, match="extreme generator"):
                level_power(I, n, P)


#: I4 of ``benchmarks/ideals.txt``.
I4 = MonomialIdeal.of(
    (0, 24), (3, 21), (4, 20), (6, 17), (8, 15), (10, 13), (11, 12), (13, 11),
    (14, 10), (15, 9), (16, 7), (17, 3), (19, 2), (21, 1), (24, 0),
)


@pytest.mark.parametrize(
    "ideal, boundary, m",
    [
        (LEVEL_CORPUS[2], persistent_generators, 4),
        (LEVEL_CORPUS[9], persistent_generators, 6),
        (LEVEL_CORPUS[9], weakly_persistent_generators, 1),
        (I4, persistent_generators, 3),
    ],
    ids=["seed2-P", "seed9-P", "seed9-P*", "I4-P"],
)
def test_level_power_certifies_late_reductions(ideal, boundary, m):
    # Certificates from m >= 3 on: I^D_P from the steps of P alone equals
    # the all-generator kernel's, and m is the least with I^(m+1) = (P) I^m.
    chosen, d = boundary(ideal), persistence_profile(ideal).D_P
    _, power, certified = ideals_module._certified_level_power(ideal, d, chosen)
    assert certified == m == brute.reduction_number(ideal, chosen, m)
    assert power == level_power(ideal, d)
    # At least four steps of P alone follow the certificate at step m.
    n = m + 5
    assert level_power(ideal, n, chosen) == naive_power(ideal, n)


@given(ideals(), st.integers(0, 8))
@example(MonomialIdeal(((3, 5),)), 7)  # principal: a y-span of 0
def test_level_power_matches_naive_random(ideal, n):
    assert level_power(ideal, n) == naive_power(ideal, n)


def _raise(*args, **kwargs):
    raise AssertionError("patched-out function called")


def test_level_power_dense_path(monkeypatch):
    # With the oracle disabled, the dense path alone must give I^20.
    I = LEVEL_CORPUS[5]
    cases = [(J, naive_power(J, 20)) for J in (I, I.transpose(), I.shift((2, 3)))]
    monkeypatch.setattr(ideals_module, "naive_power", _raise)
    for J, expected in cases:
        assert level_power(J, 20) == expected


def test_level_power_sparse_span_falls_back(monkeypatch):
    calls = []

    def counted(ideal, n):
        calls.append(n)
        return naive_power(ideal, n)

    monkeypatch.setattr(ideals_module, "naive_power", counted)
    sparse = MonomialIdeal(((0, 3 << 36), (2, 1 << 36), (5, 0)))
    assert level_power(sparse, 3) == naive_power(sparse, 3)
    assert calls == [3]
    # A y-span of exactly 16 * mu stays dense; one more falls back.
    edge = MonomialIdeal(((0, 32), (1, 0)))
    assert level_power(edge, 5) == naive_power(edge, 5)
    assert calls == [3]
    wide = MonomialIdeal(((0, 33), (1, 0)))
    assert level_power(wide, 5) == naive_power(wide, 5)
    assert calls == [3, 5]


def test_level_power_overflow_checked_before_allocation(monkeypatch):
    # Dense y-spans, so that no case takes the fallback; the three-generator
    # ideals take their two extreme generators as the reduction.
    top = (1 << 61) + 1
    cases = [
        (MonomialIdeal(((0, 1), (top, 0))), ()),
        (MonomialIdeal(((0, top), (1, top - 1))), ()),
        (MonomialIdeal(((0, 2), (top - 1, 1), (top, 0))), ((0, 2), (top, 0))),
        (MonomialIdeal(((0, top), (1, top - 1), (2, top - 2))), ((0, top), (2, top - 2))),
    ]
    for I, P in cases:
        n = -(-EXP_LIMIT // top)  # the least n with n * top >= 2**63
        assert level_power(I, n - 1, P) == naive_power(I, n - 1)
        with pytest.raises(ExponentOverflowError):
            naive_power(I, n)
        with monkeypatch.context() as patch:
            patch.setattr(np, "full", _raise)
            with pytest.raises(ExponentOverflowError):
                level_power(I, n, P)
