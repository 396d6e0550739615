import pytest

import brute
from stairpow.ideals import Axis, MonomialIdeal, PrincipalIdealError, mon_pow, naive_power
from stairpow.geometry import (
    persistence_profile,
    persistent_generators,
    stabilization_radius,
    weakly_persistent_generators,
)
from stairpow.oracle import RandomIdealSpec, random_ideal

SMALL = MonomialIdeal(((0, 2), (2, 1), (3, 0)))
BIG = MonomialIdeal.of((0, 10), (1, 9), (2, 5), (4, 4), (5, 3), (6, 2), (12, 1), (15, 0))


def test_persistent_generators_examples():
    assert persistent_generators(SMALL) == ((0, 2), (3, 0))
    assert persistent_generators(BIG) == ((0, 10), (2, 5), (6, 2), (15, 0))
    assert persistent_generators(MonomialIdeal(((0, 5), (1, 4), (6, 0)))) == (
        (0, 5),
        (1, 4),
        (6, 0),
    )
    with pytest.raises(PrincipalIdealError):
        persistent_generators(MonomialIdeal(((2, 3),)))


def test_persistent_equals_closure_filter():
    # Brute-force cross-check of the hull against the definitional filter.
    for seed in range(40):
        I = random_ideal(RandomIdealSpec(8, 15, seed=seed))
        assert persistent_generators(I) == brute.persistent(I.gens), seed


def test_weakly_persistent_equals_closure_filter():
    # Against the definitional filter, and unchanged by a shift of the ideal.
    differ = 0
    for seed in range(300):
        I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
        weakly = weakly_persistent_generators(I)
        assert weakly == brute.weakly_persistent(I.gens), seed
        for m in ((2, 3), (0, 7), (2**40, 1)):
            assert weakly_persistent_generators(I.shift(m)) == tuple(
                (a + m[0], b + m[1]) for a, b in weakly
            ), (seed, m)
        differ += weakly != persistent_generators(I)
    assert differ >= 20  # the sample exercises edges with interior generators


def test_persistent_powers_stay_minimal():
    for seed in range(8):
        I = random_ideal(RandomIdealSpec(6, 10, seed=seed))
        for f in persistent_generators(I):
            for n in range(1, 7):
                assert mon_pow(f, n) in naive_power(I, n).gens


def test_non_weakly_persistent_powers_drop_out():
    # Powers of a non-weakly-persistent generator stop being minimal once
    # the exponent reaches delta_P + 1 (sharp: x^5*y stays minimal in
    # (y^5, x^5*y, x^6)^n up to n = delta_P = 4).
    sharp = MonomialIdeal(((0, 5), (5, 1), (6, 0)))
    assert mon_pow((5, 1), 4) in naive_power(sharp, 4).gens
    assert mon_pow((5, 1), 5) not in naive_power(sharp, 5).gens
    for seed in range(20):
        I = random_ideal(RandomIdealSpec(6, 10, seed=seed))
        profile = persistence_profile(I)
        n = profile.delta_P + 1
        if n > 6:
            continue
        weakly = set(profile.weakly_persistent)
        power = naive_power(I, n)
        for f in I.gens:
            if f not in weakly:
                assert mon_pow(f, n) not in power.gens


def test_weakly_persistent_examples():
    assert weakly_persistent_generators(SMALL) == ((0, 2), (3, 0))
    mid = MonomialIdeal(((0, 4), (2, 2), (4, 0)))
    assert weakly_persistent_generators(mid) == ((0, 4), (2, 2), (4, 0))
    assert (4, 4) not in weakly_persistent_generators(BIG)
    with pytest.raises(PrincipalIdealError):
        weakly_persistent_generators(MonomialIdeal(((2, 3),)))


def test_profile_examples():
    p = persistence_profile(SMALL)
    assert (p.delta_P, p.d_P, p.D_P) == (1, 0, 1)
    p = persistence_profile(BIG)
    assert (p.delta_P, p.d_P, p.D_P) == (2, 8, 40)
    two = persistence_profile(MonomialIdeal(((0, 7), (4, 0))))
    assert (two.delta_P, two.d_P, two.D_P) == (min(4, 7) - 1, 0, 0)


def test_profile_chosen_validation():
    p = persistence_profile(MonomialIdeal(((0, 4), (2, 2), (4, 0))), chosen=((0, 4), (2, 2), (4, 0)))
    assert p.chosen == ((0, 4), (2, 2), (4, 0))
    with pytest.raises(ValueError):
        persistence_profile(SMALL, chosen=((0, 2), (2, 1), (3, 0)))
    with pytest.raises(ValueError, match="ordered by descending y-degree"):
        persistence_profile(SMALL, chosen=((3, 0), (0, 2)))


def test_stabilization_radius():
    prof = persistence_profile(SMALL)
    assert stabilization_radius(SMALL, prof, 1, Axis.Y) == 1
    assert stabilization_radius(SMALL, prof, 1, Axis.X) == 1
    prof = persistence_profile(BIG)
    assert stabilization_radius(BIG, prof, 40, Axis.Y) == 200
    assert stabilization_radius(BIG, prof, 40, Axis.X) == 300
    assert stabilization_radius(BIG, prof, 0, Axis.Y) == 0
