import random

import pytest
from hypothesis import example, given, strategies as st

import brute
from stairpow import segments
from stairpow.ideals import (
    UNIT,
    Axis,
    ExponentOverflowError,
    MonomialIdeal,
    ideal_sum,
    naive_power,
    pair_power,
)
from stairpow.geometry import persistence_profile
from stairpow.oracle import RandomIdealSpec, random_ideal
from stairpow.segments import (
    LinkTemplates,
    glued_components,
    glued_power,
    staircase_sum,
    staircase_times,
)

SMALL = MonomialIdeal(((0, 2), (2, 1), (3, 0)))
FIG3_J = MonomialIdeal.of((0, 10), (2, 7), (3, 5), (5, 4), (7, 2), (9, 0))


def oracle_power(u, v, J, n):
    return naive_power(MonomialIdeal(((0, v), (u, 0))), n) * J


def test_staircase_times_equals_product():
    for n in (0, 1, 3, 6):
        assert staircase_times((0, 4), (3, 0), n, FIG3_J).gens == oracle_power(3, 4, FIG3_J, n).gens


def test_staircase_times_overflow_checked():
    # 2^62 + 2^62 wraps to -2^63 in an int64 add; it must raise first.
    pair = MonomialIdeal(((0, 1), (2**62, 0)))
    with pytest.raises(ExponentOverflowError):
        staircase_times((0, 1), (2**62, 0), 1, pair)


def test_staircase_times_refuses_a_comparable_pair():
    with pytest.raises(ValueError, match="comparable"):
        staircase_times((0, 1), (1, 2), 1, SMALL)


def counted_pair_power(monkeypatch):
    """Count the calls of the candidate-product fallback."""
    calls = []

    def counted(*args):
        calls.append(args)
        return pair_power(*args)

    monkeypatch.setattr(segments, "pair_power", counted)
    return calls


def test_staircase_times_near_int64(monkeypatch):
    # x exponents near 2^62: every generator of the product is in range, but
    # the window values are not, so both calls take the candidate product.
    calls = counted_pair_power(monkeypatch)
    J = MonomialIdeal(tuple((i, 4 - i) for i in range(5)))
    g, h = (0, 1), (2**62 - 8, 0)
    assert staircase_times(g, h, 1, J).gens == brute.staircase_times(g, h, 1, J)
    assert staircase_times(h, g, 1, J).gens == brute.staircase_times(g, h, 1, J)
    assert len(calls) == 2


def test_staircase_times_sparse_span(monkeypatch):
    # A y-span far beyond the candidate count takes the candidate product, a
    # dense one the window.
    calls = counted_pair_power(monkeypatch)
    g, h = (0, 2**40), (3, 0)
    assert staircase_times(g, h, 4, FIG3_J).gens == brute.staircase_times(g, h, 4, FIG3_J)
    g, h = (0, 3 << 36), (3, 0)
    assert staircase_times(h, g, 2, FIG3_J).gens == brute.staircase_times(g, h, 2, FIG3_J)
    assert len(calls) == 2
    assert staircase_times((0, 4), (3, 0), 20, FIG3_J).gens == oracle_power(3, 4, FIG3_J, 20).gens
    assert len(calls) == 2


@pytest.mark.parametrize(
    "g, h, J",
    [
        ((0, 4), (3, 0), FIG3_J),
        ((3, 0), (0, 4), FIG3_J),
        ((2, 7), (5, 3), FIG3_J.shift((2, 3))),
        ((5, 3), (2, 7), FIG3_J.shift((2, 3))),
        ((1, 1), (4, 0), MonomialIdeal(((2, 5),))),
        ((4, 0), (1, 1), MonomialIdeal(((2, 5),))),
    ],
)
def test_staircase_times_window_path(monkeypatch, g, h, J):
    # Dense cases never reach the candidate product.
    calls = counted_pair_power(monkeypatch)
    assert staircase_times(g, h, 20, J).gens == brute.staircase_times(g, h, 20, J)
    assert not calls


@st.composite
def pair_and_ideal(draw):
    """A staircase pair in either order, and a possibly unanchored J."""
    mu = draw(st.integers(1, 12))
    coords = st.lists(st.integers(0, 2 * mu), min_size=mu, max_size=mu, unique=True)
    xs, ys = sorted(draw(coords)), sorted(draw(coords), reverse=True)
    u, v = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.integers(0, 3)) == 0:
        u += 2**57  # x exponents up to about 2^62
    if draw(st.integers(0, 3)) == 0:
        v <<= 36  # a y-span far beyond the candidate count
    gx, hy = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    g, h = (gx, hy + v), (gx + u, hy)
    if draw(st.booleans()):
        g, h = h, g
    return g, h, MonomialIdeal(tuple(zip(xs, ys)))


@given(pair_and_ideal(), st.integers(0, 25))
@example(((0, 1), (1, 0), MonomialIdeal(((0, 2), (1, 1), (3, 0)))), 0)
@example(((0, 1), (2, 0), FIG3_J), 2)  # n < dist_y(J) / v
@example(((1, 0), (0, 2), FIG3_J.shift((2, 3))), 6)  # unanchored, pair reversed
@example(((0, 2**40), (3, 0), FIG3_J), 5)  # sparse y-span
def test_staircase_times_matches_candidate_product(case, n):
    g, h, J = case
    assert staircase_times(g, h, n, J).gens == brute.staircase_times(g, h, n, J)


@st.composite
def chain_and_ideal(draw):
    """Two to five boundary generators, descending in y or reversed, with
    possibly one pair near int64 and one far sparser than its candidates,
    and a possibly unanchored J."""
    k = draw(st.integers(1, 4))
    us = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    vs = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    if draw(st.integers(0, 3)) == 0:
        us[draw(st.integers(0, k - 1))] += 2**57  # x exponents up to about 2^62
    if draw(st.integers(0, 3)) == 0:
        vs[draw(st.integers(0, k - 1))] <<= 36  # that pair takes the candidate product
    x, y = draw(st.integers(0, 5)), draw(st.integers(0, 5)) + sum(vs)
    gs = [(x, y)]
    for u, v in zip(us, vs):
        x, y = x + u, y - v
        gs.append((x, y))
    if draw(st.booleans()):
        gs.reverse()
    mu = draw(st.integers(1, 12))
    coords = st.lists(st.integers(0, 2 * mu), min_size=mu, max_size=mu, unique=True)
    xs, ys = sorted(draw(coords)), sorted(draw(coords), reverse=True)
    return tuple(gs), MonomialIdeal(tuple(zip(xs, ys)))


@given(chain_and_ideal(), st.integers(0, 25))
@example((((0, 4), (3, 1), (5, 0)), FIG3_J.shift((2, 3))), 6)  # unanchored
@example((((5, 0), (3, 1), (0, 4)), FIG3_J), 2)  # reversed, n < dist_y(J) / v
@example((((0, 2**40 + 4), (3, 4), (5, 0)), FIG3_J), 5)  # one sparse pair
def test_staircase_sum_matches_candidate_products(case, n):
    gs, J = case
    assert staircase_sum(gs, n, J).gens == brute.staircase_sum(gs, n, J)


def test_staircase_sum_is_one_level_array(monkeypatch):
    # Dense pairs share one level array, swept once: no candidate product,
    # and ideal_sum gets that one ideal.  One sparse pair is the only
    # product, and ideal_sum joins it to the array of the other two pairs.
    calls = counted_pair_power(monkeypatch)
    sums = []
    monkeypatch.setattr(segments, "ideal_sum", lambda ideals: sums.append(len(ideals)) or ideal_sum(ideals))
    dense = ((0, 9), (1, 6), (3, 2), (7, 0))
    for gs in (dense, dense[::-1]):
        assert staircase_sum(gs, 20, FIG3_J).gens == brute.staircase_sum(gs, 20, FIG3_J)
    assert calls == [] and max(sums, default=0) <= 1
    sums.clear()
    sparse = ((0, 2**40 + 6),) + dense[1:]
    assert staircase_sum(sparse, 20, FIG3_J).gens == brute.staircase_sum(sparse, 20, FIG3_J)
    assert (len(calls), sums) == (1, [2])


@st.composite
def segment_case(draw):
    """An anchored J (the unit ideal included), a step (u, v) and an r from
    the stabilization bound up."""
    mu = draw(st.integers(1, 8))
    coords = st.lists(st.integers(1, 3 * mu), min_size=mu - 1, max_size=mu - 1, unique=True)
    xs, ys = [0] + sorted(draw(coords)), sorted(draw(coords), reverse=True) + [0]
    J = MonomialIdeal(tuple(zip(xs, ys)))
    u, v = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return u, v, J, -(-J.dist(Axis.Y) // v) + draw(st.integers(0, 3))


def one_pair(u, v, J, r):
    """The glued components of the single pair y^v, x^u over J -- the
    r-segments -- with their link point, the pivot (alpha, beta), checked to
    lie on the (r+1)-th staircase step."""
    gl = glued_components(((0, v), (u, 0)), J, r)
    ((alpha, beta),) = gl.link_points
    assert u <= alpha <= (r + 1) * u and beta < (r + 1) * v
    return gl, alpha, beta


@given(segment_case())
@example((1, 1, UNIT, 0))
@example((1, 5, FIG3_J, 2))
@example((4, 1, FIG3_J, 12))
def test_segments_match_direct_extraction(case):
    u, v, J, r = case
    gl, alpha, beta = one_pair(u, v, J, r)
    A, B, H = (c.gens for c in gl.components + gl.middles)
    assert (alpha, beta, A, H, B) == brute.r_segments(u, v, J, r)


def test_figure3_middle_block_size():
    gl, _, _ = one_pair(3, 4, FIG3_J, 3)
    assert gl.middles[0].mu - 1 == 2  # |M| = 2, the two encircled generators


def test_unit_symmetric_segments():
    gl, alpha, beta = one_pair(1, 1, UNIT, 1)
    assert (alpha, beta) == (1, 1)
    assert [c.gens for c in gl.components + gl.middles] == [((0, 1), (1, 0))] * 3


def test_small_example_segments():
    gl, alpha, beta = one_pair(3, 2, SMALL, 1)
    (A, B), (H,) = gl.components, gl.middles
    assert (alpha, beta) == (6, 2)
    assert A.gens == ((0, 4), (2, 3), (3, 2), (5, 1), (6, 0))
    assert H.gens == SMALL.gens
    assert B.gens == SMALL.gens


def test_r_bound_enforced():
    with pytest.raises(ValueError):
        glued_components(((0, 4), (3, 0)), FIG3_J, 2)  # ceil(10/4) = 3


def test_triple_invariants_random():
    rng = random.Random(17)
    for trial in range(40):
        J = random_ideal(RandomIdealSpec(5, 8, seed=300 + trial)).anchor()[0]
        u, v = rng.randint(1, 5), rng.randint(1, 5)
        rmin = -(-J.dist(Axis.Y) // v)
        r = rmin + rng.randint(0, 2)
        if r < 1:
            r = 1
        gl, _, _ = one_pair(u, v, J, r)
        (H,) = gl.middles
        assert H.dist(Axis.X) == u and H.dist(Axis.Y) == v
        assert H.mu >= 2  # M is never empty


def test_one_segment_power_vs_oracle():
    gl, _, _ = one_pair(3, 4, FIG3_J, 3)
    for ell in range(4):
        assert glued_power(gl, ell).gens == oracle_power(3, 4, FIG3_J, 3 + 1 + ell).gens


def test_one_segment_mu_linear():
    gl, _, _ = one_pair(3, 4, FIG3_J, 3)
    mu0 = glued_power(gl, 0).mu
    for ell in range(1, 5):
        assert glued_power(gl, ell).mu == mu0 + ell * (gl.middles[0].mu - 1)


def test_band_partition_random():
    # The generators of (x^u, y^v)^(r+1+l) J are the l=0 generators shifted
    # band by band: y^(vl) L, the middle copies of M, and x^(ul) R.
    rng = random.Random(23)
    for trial in range(25):
        J = random_ideal(RandomIdealSpec(5, 8, seed=600 + trial)).anchor()[0]
        u, v = rng.randint(1, 4), rng.randint(1, 4)
        r = max(1, -(-J.dist(Axis.Y) // v)) + rng.randint(0, 1)
        gl, _, beta = one_pair(u, v, J, r)
        base = glued_power(gl, 0)
        L = [f for f in base.gens if f[1] >= beta]
        M = [f for f in base.gens if beta <= f[1] < beta + v]
        R = [f for f in base.gens if f[1] < beta]
        for ell in range(5):
            expected = set()
            for f in L:
                expected.add((f[0], f[1] + v * ell))
            for j in range(1, ell + 1):
                for f in M:
                    expected.add((f[0] + u * j, f[1] + v * (ell - j)))
            for f in R:
                expected.add((f[0] + u * ell, f[1]))
            got = oracle_power(u, v, J, r + 1 + ell).gens
            assert set(got) == expected, (trial, ell)
            assert len(got) == len(L) + ell * len(M) + len(R)


def test_y_sections_divisibility():
    rng = random.Random(29)
    for trial in range(20):
        J = random_ideal(RandomIdealSpec(5, 8, seed=900 + trial)).anchor()[0]
        u, v = rng.randint(1, 4), rng.randint(1, 4)
        r = max(1, -(-J.dist(Axis.Y) // v))
        for ell in range(3):
            S = oracle_power(u, v, J, r + 1 + ell)
            for f in S.gens:
                j = f[1] // v
                assert f[1] >= v * (j - r)


def test_glued_power_vs_sum_oracle():
    for trial in range(12):
        I = random_ideal(RandomIdealSpec(6, 10, seed=4000 + trial)).anchor()[0]
        gs = persistence_profile(I).chosen
        J = naive_power(I, 2)
        vs = [g[1] - h[1] for g, h in zip(gs, gs[1:])]
        r = max(-(-J.dist(Axis.Y) // v) for v in vs) + 1
        gl = glued_components(gs, J, r)
        for ell in range(4):
            ref = ideal_sum(
                [staircase_times(g, h, r + 1 + ell, J) for g, h in zip(gs, gs[1:])]
            )
            assert glued_power(gl, ell).gens == ref.gens, (trial, ell)


@pytest.mark.parametrize("d, copies", [(512, 2), (1024, 1), (1025, 1)])
def test_glued_power_at_the_template_budget(d, copies):
    # J = (x, y)^d gives a middle of d + 1 generators, so its template is
    # the largest power of two of copies within 1024 generators past the
    # first and within the longest run, 5; a middle with no room for two
    # copies gets none.
    J = MonomialIdeal(tuple((t, d - t) for t in range(d + 1)))
    gl = glued_components(((0, d), (d, 0)), J, 1)
    templates = LinkTemplates(gl.components, gl.middles)
    assert gl.middles[0].mu == d + 1
    for ell in (0, 1, 2, 3, 5):
        blocks = [(gl.components[0], 1), (gl.middles[0], ell), (gl.components[1], 1)]
        assert glued_power(gl, ell).gens == templates.link(ell)[0].gens == brute.link_blocks(blocks), ell
    expected = [(brute.link_blocks([(gl.middles[0], copies)]), copies)] if copies > 1 else []
    assert [(template.gens, c) for template, c in templates.built.values()] == expected


def test_glued_power_with_a_middle_near_the_exponent_limit():
    # The middle spans 2**57, so its template of 1024 copies would span
    # 2**67; runs of fewer copies link plain ones and stay in range.
    gl = glued_components(((0, 1), (2**57, 0)), MonomialIdeal(((0, 1), (1, 0))), 1)
    assert [(h.mu, h.dist(Axis.X)) for h in gl.middles] == [(2, 2**57)]
    for ell in range(1, 6):
        blocks = [(gl.components[0], 1), (gl.middles[0], ell), (gl.components[1], 1)]
        assert glued_power(gl, ell).gens == brute.link_blocks(blocks), ell
    for ell in (64, 1024):
        with pytest.raises(ExponentOverflowError):
            glued_power(gl, ell)


def test_glued_mu_identity():
    gl = glued_components(((0, 2), (3, 0)), SMALL, 1)
    for ell in range(5):
        mu = glued_power(gl, ell).mu
        assert mu == 1 + sum(c.mu - 1 for c in gl.components) + ell * sum(
            h.mu - 1 for h in gl.middles
        )


def test_glued_validation():
    with pytest.raises(ValueError):
        glued_components(((0, 2),), SMALL, 1)
    with pytest.raises(ValueError):
        glued_components(((0, 2), (3, 0)), SMALL.shift((1, 0)), 1)
    with pytest.raises(ValueError):
        glued_components(((1, 2), (3, 0)), SMALL, 1)


def test_refusals_of_the_segment_powers():
    with pytest.raises(ValueError):
        glued_components(((0, 2), (0, 0)), SMALL, 1)  # u = 0
    with pytest.raises(ValueError):
        glued_power(glued_components(((0, 2), (3, 0)), SMALL, 1), -1)


# I^s of the pair y^2, x^3 over SMALL at r = 1 is
# (0,6) (2,5) (3,4) (5,3) (6,2) (8,1) (9,0), with link point (6, 2) and
# middle block I^s : (3, 2) = SMALL.  The corrupted copies below break one
# invariant of the cut each.


def test_glued_components_refuses_a_cut_without_link_point(monkeypatch):
    # Every generator lies below the threshold y = 2 of the link point.
    monkeypatch.setattr(segments, "staircase_sum", lambda *args: MonomialIdeal(((0, 1), (9, 0))))
    with pytest.raises(AssertionError, match="threshold"):
        glued_components(((0, 2), (3, 0)), SMALL, 1)


def test_glued_components_refuses_a_short_middle_block(monkeypatch):
    # Without (3, 4) the middle block I^s : (3, 2) starts at (2, 5), one too high.
    base = MonomialIdeal(((0, 6), (2, 5), (5, 3), (6, 2), (8, 1), (9, 0)))
    monkeypatch.setattr(segments, "staircase_sum", lambda *args: base)
    with pytest.raises(AssertionError, match="middle block 1"):
        glued_components(((0, 2), (3, 0)), SMALL, 1)


def test_pairs_covered_matches_containment():
    # (E*) on level arrays against the divisibility check of every generator,
    # on the corpus seeds 0-199 with |P| >= 3 at I^1 .. I^6; shifting J
    # changes nothing.  Both verdicts occur.
    verdicts = {True: 0, False: 0}
    for seed in range(200):
        I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
        gs = persistence_profile(I).chosen
        if len(gs) < 3:
            continue
        J = I
        for m in range(1, 7):
            got = segments._pairs_covered(gs, brute.staircase(J))
            shifted = segments._pairs_covered(gs, brute.staircase(J.shift((3, 1))))
            assert got == brute.pairs_covered(gs, J) == shifted, (seed, m)
            verdicts[got] += 1
            J = J * I
    assert min(verdicts.values()) >= 100, verdicts


def test_pairs_covered_is_vacuous_for_one_pair():
    assert segments._pairs_covered(((0, 5), (7, 0)), brute.staircase(FIG3_J))


def test_pairs_covered_certifies_nothing_beyond_int64():
    # g_2^2 J would reach x = 2^63: no certificate, rather than a wrapped add.
    assert not segments._pairs_covered(((0, 4), (1, 1), (2**62, 0)), brute.staircase(SMALL))
