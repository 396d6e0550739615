import pytest

from stairpow.ideals import UNIT, Axis, MonomialIdeal, naive_power
from stairpow.links import link, link_many, link_point, unlink
from stairpow.oracle import RandomIdealSpec, random_ideal

FIG_I = MonomialIdeal(((0, 3), (1, 1), (4, 0)))
FIG_J = MonomialIdeal(((0, 2), (2, 0)))


def test_link_figure_example():
    assert link(FIG_I, FIG_J).gens == ((0, 5), (1, 3), (4, 2), (6, 0))
    assert link(FIG_I, FIG_J).mu == FIG_I.mu + FIG_J.mu - 1


def test_link_with_unit():
    assert link(FIG_I, UNIT).gens == FIG_I.gens
    assert link(UNIT, FIG_I).gens == FIG_I.gens


def test_link_point_examples():
    assert link_point(FIG_I, FIG_J) == (4, 2)
    small = MonomialIdeal(((0, 2), (2, 1), (3, 0)))
    assert link_point(small, small) == (3, 2)
    # I (.)_x J = J (.)_y I, so the link points coincide as well.
    assert link_point(FIG_I, FIG_J, Axis.X) == link_point(FIG_J, FIG_I, Axis.Y)


def test_link_point_is_generator():
    for seed in range(30):
        A = random_ideal(RandomIdealSpec(5, 10, seed=seed))
        B = random_ideal(RandomIdealSpec(5, 10, seed=500 + seed))
        assert link_point(A, B) in link(A, B).gens


def test_link_x_axis_is_swapped_y():
    assert link(FIG_I, FIG_J, Axis.X).gens == link(FIG_J, FIG_I, Axis.Y).gens


def test_mu_recurrence_and_chain():
    H = MonomialIdeal(((0, 2), (2, 1), (3, 0)))
    chain = link_many([H, H])
    assert chain.ideal.mu == 5
    chain = link_many([H, H, H])
    assert chain.ideal.mu == 7
    single = link_many([H.shift((2, 5))])
    assert single.ideal.gens == H.gens and single.link_points == ()


def test_link_associative():
    for seed in range(25):
        A = random_ideal(RandomIdealSpec(5, 9, seed=seed)).anchor()[0]
        B = random_ideal(RandomIdealSpec(5, 9, seed=1000 + seed)).anchor()[0]
        C = random_ideal(RandomIdealSpec(5, 9, seed=2000 + seed)).anchor()[0]
        assert link(link(A, B), C).gens == link(A, link(B, C)).gens


def test_mu_additivity_randomized():
    for seed in range(100):
        A = random_ideal(RandomIdealSpec(6, 12, seed=seed))
        B = random_ideal(RandomIdealSpec(6, 12, seed=7000 + seed))
        assert link(A, B).mu == A.mu + B.mu - 1


def test_unlink_round_trip():
    for seed in range(40):
        parts = [
            random_ideal(RandomIdealSpec(5, 9, seed=seed * 10 + j)).anchor()[0]
            for j in range(3)
        ]
        for axis in (Axis.Y, Axis.X):
            chain = link_many(parts, axis)
            back = unlink(chain.ideal, chain.link_points, axis)
            assert [p.gens for p in back] == [p.gens for p in parts]


def test_unlink_small_example():
    I = MonomialIdeal(((0, 2), (2, 1), (3, 0)))
    cube = naive_power(I, 3)
    c0, c1 = unlink(cube, [(6, 2)])
    assert c0.gens == ((0, 4), (2, 3), (3, 2), (5, 1), (6, 0))
    assert c1.gens == I.gens


def test_unlink_edge_cases():
    I = MonomialIdeal(((0, 2), (2, 1), (3, 0)))
    assert unlink(I, [])[0].gens == I.gens
    fig = link(FIG_I, FIG_J)
    a, b = unlink(fig, [(4, 2)])
    assert a.gens == FIG_I.gens and b.gens == FIG_J.gens
    with pytest.raises(ValueError):
        unlink(I, [(1, 1)])
    with pytest.raises(ValueError):
        unlink(I.shift((1, 0)), [])


def test_boundary_points_sentinels():
    chain = link_many([FIG_I, FIG_J])
    assert chain.boundary_points == ((0, 5), (4, 2), (6, 0))


def test_link_many_x_axis_pinned():
    chain = link_many([FIG_I, FIG_J], Axis.X)
    assert chain.ideal.gens == ((0, 5), (2, 3), (3, 1), (6, 0))
    assert chain.link_points == ((2, 3),)
    assert chain.boundary_points == ((6, 0), (2, 3), (0, 5))
