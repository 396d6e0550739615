import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import brute
from stairpow import links
from stairpow.engine import assemble_power, stable_decomposition
from stairpow.ideals import UNIT, Axis, ExponentOverflowError, MonomialIdeal, naive_power
from stairpow.links import LinkTemplates, link, link_many, link_point, unlink
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


def test_link_point_is_generator():
    for seed in range(30):
        A = random_ideal(RandomIdealSpec(5, 10, seed=seed))
        B = random_ideal(RandomIdealSpec(5, 10, seed=500 + seed))
        assert link_point(A, B) in link(A, B).gens


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
        chain = link_many(parts)
        back = unlink(chain.ideal, chain.link_points)
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


def test_unlink_takes_link_points_in_link_order():
    A = MonomialIdeal(((0, 2), (2, 1), (3, 0)))
    B = MonomialIdeal(((0, 3), (1, 1), (4, 0)))
    C = MonomialIdeal(((0, 1), (2, 0)))
    chain = link_many([A, B, C])
    assert chain.ideal.mu == 6 and chain.link_points == ((3, 4), (7, 1))
    with pytest.raises(ValueError, match="link order"):
        unlink(chain.ideal, chain.link_points[::-1])
    # A repeated point cuts out a unit part.
    first, unit, rest = unlink(chain.ideal, [(3, 4), (3, 4)])
    assert first.gens == A.gens and unit.gens == UNIT.gens
    assert rest.gens == link(B, C).gens


def test_link_many_refuses_an_empty_sequence():
    with pytest.raises(ValueError):
        link_many([])


def test_boundary_points_sentinels():
    chain = link_many([FIG_I, FIG_J])
    assert chain.boundary_points == ((0, 5), (4, 2), (6, 0))


@st.composite
def anchored_parts(draw, least=1):
    mu = draw(st.integers(least, 6))  # 1: the single-generator part (0, 0)
    coords = st.lists(st.integers(0, 30), min_size=mu, max_size=mu, unique=True)
    xs, ys = sorted(draw(coords)), sorted(draw(coords), reverse=True)
    return MonomialIdeal(tuple(zip(xs, ys))).anchor()[0]


#: Components C_0..C_k and middles H_1..H_k, k from 0 to 3.
chains = st.integers(0, 3).flatmap(
    lambda k: st.tuples(
        st.lists(anchored_parts(), min_size=k + 1, max_size=k + 1),
        st.lists(anchored_parts(2), min_size=k, max_size=k),
    )
)
origins = st.tuples(st.integers(0, 50), st.integers(0, 50))


def _blocks(components, middles, ell):
    """The ``(part, reps)`` blocks of ``C_0 . H_1^ell . C_1 ... H_k^ell . C_k``."""
    blocks = [(components[0], 1)]
    for middle, component in zip(middles, components[1:]):
        blocks += [(middle, ell), (component, 1)]
    return blocks


def template_copies(middle):
    """The largest power of two c with ``c (mu - 1) <= 1024`` and ``c max(dist_x, dist_y) < 2^63``, or 1."""
    c = 1
    while 2 * c * (middle.mu - 1) <= 1024 and 2 * c * max(middle.dist(Axis.X), middle.dist(Axis.Y)) < 2**63:
        c *= 2
    return c


def check_templates(templates):
    """Each middle's template, read from the record the templates keep: the
    per-generator link of ``template_copies`` copies of the middle, in a
    read-only array.  Returns the copies."""
    copies = [template_copies(middle) for middle in templates.middles]
    for (rest, c, h, dx, dy), middle, want in zip(templates._templates, templates.middles, copies, strict=True):
        gens = ((0, c * dy), *zip(rest[0].tolist(), rest[1].tolist()))
        assert (gens, c) == (brute.link_blocks([(middle, want)]), want)
        assert (h, dx, dy) == (middle.mu - 1, middle.dist(Axis.X), middle.dist(Axis.Y))
        assert not rest.flags.writeable
    return copies


@given(chains, st.integers(0, 40), origins)
@example(([UNIT, FIG_J, FIG_I], [FIG_J, FIG_I]), 0, (7, 4))  # no copies, a unit first part
@example(([UNIT, FIG_J], [FIG_J]), 4, (0, 0))
# Copies are written by doubling: ells at, just above and just below a power of two.
@example(([FIG_I, FIG_J], [FIG_J]), 32, (3, 1))
@example(([UNIT, FIG_I, UNIT], [FIG_I, FIG_J]), 33, (0, 9))
@example(([FIG_J, UNIT], [FIG_I]), 31, (1, 1))
@example(([FIG_J, UNIT, FIG_I], [FIG_J, FIG_I]), 15, (2, 0))  # h = 0 between real parts
@example(([FIG_I, FIG_J, FIG_I], [FIG_I, FIG_J]), 16, (5, 5))
@example(([FIG_I, FIG_J, FIG_I], [FIG_I, FIG_J]), 17, (5, 5))
def test_link_blocks_matches_per_generator_loop(chain, ell, origin):
    # The kernel writes ell plain copies of each middle by doubling and
    # fills each generator once; the templates' link, q copies of each
    # template and a prefix of it, is the same ideal and count.
    components, middles = chain
    blocks = _blocks(components, middles, ell)
    ideal, written = links._link_counted([links._run(part, reps) for part, reps in blocks], origin)
    assert ideal.gens == brute.link_blocks(blocks, origin)
    assert written == ideal.mu
    templates = LinkTemplates(tuple(components), tuple(middles))
    check_templates(templates)
    assert templates.link(ell, origin) == (ideal, written)


def test_link_blocks_without_copies_is_the_origin():
    assert LinkTemplates((UNIT,) * 3, (FIG_I, FIG_J)).link(0, (2, 3))[0].gens == ((2, 3),)


def test_link_blocks_many_copies_match_the_closed_form():
    # Generator j >= 1 of copy c sits at (x0 + c*dx + x_j, y_top - (c+1)*dy + y_j).
    part, reps, (x0, y0) = MonomialIdeal(((0, 4), (1, 2), (3, 1), (5, 0))), 2**17 + 3, (6, 2)
    dx, dy = part.dist(Axis.X), part.dist(Axis.Y)
    top, copy = y0 + reps * dy, np.arange(reps)[:, None]
    xs = x0 + copy * dx + part.xy[0, 1:]
    ys = top - (copy + 1) * dy + part.xy[1, 1:]
    expected = np.stack(([x0, *xs.ravel()], [top, *ys.ravel()]))
    assert np.array_equal(LinkTemplates((UNIT, UNIT), (part,)).link(reps, (x0, y0))[0].xy, expected)


def test_link_blocks_reaches_the_exponent_limit():
    part = MonomialIdeal(((0, 2), (1, 1), (2**60, 0)))
    origin = (2**63 - 1 - 7 * 2**60, 0)
    linked = LinkTemplates((UNIT, UNIT), (part,)).link(7, origin)[0]
    assert linked.gens == brute.link_blocks([(part, 7)], origin)
    assert linked.gens[-1] == (2**63 - 1, 0)
    with pytest.raises(ExponentOverflowError):
        LinkTemplates((UNIT, UNIT), (part,)).link(7, (origin[0] + 1, 0))


def test_link_blocks_refuses_a_negative_origin_and_unanchored_parts(monkeypatch):
    # Each before anything is allocated: the origin by the kernel, the parts
    # once, when their templates are built.
    shifted_i, shifted_j = FIG_I.shift((0, 1)), FIG_J.shift((1, 0))
    templates = LinkTemplates((FIG_I, UNIT), (FIG_J,))
    monkeypatch.setattr(links.np, "empty", lambda *a, **k: pytest.fail("allocated before the check"))
    for origin in ((-1, 0), (0, -1)):
        with pytest.raises(ExponentOverflowError):
            templates.link(2, origin)
    with pytest.raises(ValueError, match="anchored"):
        LinkTemplates((FIG_I, shifted_j), (FIG_J,))
    with pytest.raises(ValueError, match="anchored"):
        LinkTemplates((UNIT, UNIT), (shifted_i,))


@pytest.mark.parametrize("blocks", [("Q", -1), ("P", -1), ("PQ", -1), ("P", 1.0), ("P", True)])
def test_link_blocks_refuses_a_count_that_is_not_a_non_negative_integer(monkeypatch, blocks):
    # The middles by name and the count of each, refused before anything is
    # allocated.  A float or a bool is no count at all: a TypeError, as at
    # every entry point.
    parts = {"Q": MonomialIdeal(((0, 1), (1, 0))), "P": MonomialIdeal(((0, 2), (1, 1), (3, 0)))}
    names, ell = blocks
    templates = LinkTemplates((UNIT,) * (len(names) + 1), tuple(parts[name] for name in names))
    monkeypatch.setattr(links.np, "empty", lambda *a, **k: pytest.fail("allocated before the check"))
    error, match = (ValueError, "non-negative") if ell == -1 else (TypeError, "interpreted as an integer")
    with pytest.raises(error, match=match):
        templates.link(ell, (4, 4))


def test_no_numpy_scalars_escape():
    chain = link_many([FIG_I, FIG_J.shift((1, 2)), FIG_I])
    dec = stable_decomposition(MonomialIdeal(((0, 3), (2, 1), (5, 0))).shift((1, 1)))
    emitted = assemble_power(dec, dec.s + 3)
    values = []
    for ideal in (chain.ideal, emitted, *dec.components, *dec.middles, emitted.transpose()):
        values += [c for g in ideal.gens for c in g]
        values += [*ideal.gcd(), ideal.dist(Axis.X), ideal.dist(Axis.Y), ideal.mu]
    for points in (chain.link_points, chain.boundary_points, dec.boundary_points, dec.gs):
        values += [c for p in points for c in p]
    assert {type(v) for v in values} == {int}
    with pytest.raises(ValueError):
        emitted.xy[0, 0] = 1
    with pytest.raises(ValueError):
        chain.ideal.transpose().xy[1, -1] = 1
