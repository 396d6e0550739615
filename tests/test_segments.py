import dataclasses
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import brute
from stairpow import links, segments
from stairpow.ideals import (
    UNIT,
    Axis,
    ExponentOverflowError,
    MonomialIdeal,
    ideal_sum,
    level_power,
    naive_power,
    pair_power,
)
from stairpow.geometry import persistence_profile
from stairpow.oracle import RandomIdealSpec, random_ideal
from stairpow.links import LinkTemplates
from stairpow.segments import (
    glued_components,
    glued_power,
    staircase_sum,
    staircase_times,
)
from test_links import check_templates

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
    # At n = 16, above the slices' break-even, x exponents near 2^63: every
    # generator of the product is in range, the largest 2^63 - 124, but the
    # window values are not, so both calls take the candidate product.
    calls = counted_pair_power(monkeypatch)
    J = MonomialIdeal(tuple((i, 4 - i) for i in range(5)))
    g, h = (0, 1), (2**59 - 8, 0)
    assert staircase_times(g, h, 16, J).gens == brute.staircase_times(g, h, 16, J)
    assert staircase_times(h, g, 16, J).gens == brute.staircase_times(g, h, 16, J)
    assert len(calls) == 2
    # n * h_x + 9 is far inside int64, but the table's 27 rows of u = 3 * 2^57
    # are not (top = 10 over FIG3_J), so this takes the candidate product too.
    g, h = (0, 1), (3 << 57, 0)
    assert staircase_times(g, h, 16, FIG3_J).gens == brute.staircase_times(g, h, 16, FIG3_J)
    assert len(calls) == 3


def test_staircase_times_sparse_span(monkeypatch):
    # Above the slices' break-even, a y-span far beyond the candidate count
    # takes the candidate product, a dense one the window.
    calls = counted_pair_power(monkeypatch)
    g, h = (0, 2**40), (3, 0)
    assert staircase_times(g, h, 12, FIG3_J).gens == brute.staircase_times(g, h, 12, FIG3_J)
    g, h = (0, 3 << 36), (3, 0)
    assert staircase_times(h, g, 14, FIG3_J).gens == brute.staircase_times(g, h, 14, FIG3_J)
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


#: Powers on both sides of the slices' break-even: n <= 9 for one pair,
#: n <= 10 for two or more.
POWERS = st.one_of(st.integers(0, 10), st.integers(11, 25))


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


@given(pair_and_ideal(), POWERS)
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


@given(chain_and_ideal(), POWERS)
@example((((0, 4), (3, 1), (5, 0)), FIG3_J.shift((2, 3))), 6)  # unanchored
@example((((5, 0), (3, 1), (0, 4)), FIG3_J), 2)  # reversed, n < dist_y(J) / v
@example((((0, 2**40 + 4), (3, 4), (5, 0)), FIG3_J), 5)  # one sparse pair
# A sparse pair between dense ones: their tables lie 2^36 levels apart.
@example((((0, 2**36 + 3), (1, 2**36 + 2), (2, 2), (3, 1), (4, 0)), UNIT), 1)
# dist_y(J) = 10 is five steps v = 2, so top = 5: n below, at, just past and far past it.
@example((((0, 4), (3, 2), (4, 0)), FIG3_J), 3)
@example((((0, 4), (3, 2), (4, 0)), FIG3_J), 5)
@example((((4, 0), (3, 2), (0, 4)), FIG3_J.shift((2, 3))), 6)
@example((((0, 4), (3, 2), (4, 0)), FIG3_J), 60)
# rows * u leaves int64 while n * h_x does not: the candidate product.
@example((((0, 1), (3 << 57, 0)), FIG3_J), 16)
def test_staircase_sum_matches_candidate_products(case, n):
    gs, J = case
    assert staircase_sum(gs, n, J).gens == brute.staircase_sum(gs, n, J)


def counted_pair_levels(monkeypatch):
    """Count the window tables staircase_sum builds."""
    calls, table = [], segments._pair_levels
    monkeypatch.setattr(segments, "_pair_levels", lambda *args: calls.append(args) or table(*args))
    return calls


def test_small_sums_take_slices(monkeypatch):
    # Q_n J is one slice per generator of Q_n, two numpy calls each, while
    # that is fewer calls than _TABLE_CALLS per pair's window table: up to n
    # = 9 for one pair and 10 for two or three, and no further.
    tables = counted_pair_levels(monkeypatch)
    chain = ((0, 9), (1, 6), (3, 2), (7, 0))
    for k, last in ((1, 9), (2, 10), (3, 10)):
        for n in range(last + 2):
            for gs in (chain[: k + 1], chain[k::-1]):
                assert staircase_sum(gs, n, FIG3_J).gens == brute.staircase_sum(gs, n, FIG3_J), (gs, n)
            assert len(tables) == 2 * k * (n > last), (k, n)
            tables.clear()


def test_slices_keep_the_guards(monkeypatch):
    # A comparable pair and an exponent past int64 raise before any slice or
    # table, and a span past _BUCKET_SPAN_FACTOR levels per candidate goes to
    # the pairs' own route: here the candidate product.
    tables, products = counted_pair_levels(monkeypatch), counted_pair_power(monkeypatch)
    with pytest.raises(ValueError, match="comparable"):
        staircase_sum(((0, 4), (3, 0), (4, 1)), 2, FIG3_J)
    gs = ((0, 1), (2**62 - 8, 0))
    assert staircase_sum(gs, 2, FIG3_J).gens == brute.staircase_sum(gs, 2, FIG3_J)
    for gs in (gs, ((0, 2**62 - 8), (1, 0))):
        with pytest.raises(ExponentOverflowError):
            staircase_sum(gs, 3, FIG3_J)  # 3 * (2^62 - 8) + 9 or + 10 >= 2^63
    assert tables == products == []
    # (v + 11) levels for 2 * 6 candidates: slices up to v = 16 * 12 - 11.
    for v, routed in ((181, 0), (182, 1)):
        gs = ((0, v), (3, 0))
        assert staircase_sum(gs, 1, FIG3_J).gens == brute.staircase_sum(gs, 1, FIG3_J)
        assert (len(tables), len(products)) == (routed, routed), v


def test_staircase_sum_is_one_level_array(monkeypatch):
    # Above the slices' break-even, dense pairs share one level array, swept
    # once: no candidate product, and ideal_sum gets that one ideal, a lone
    # pair's table included.  One sparse pair is the only product, and
    # ideal_sum joins it to the array of the other two pairs.
    calls = counted_pair_power(monkeypatch)
    sums = []
    monkeypatch.setattr(segments, "ideal_sum", lambda ideals: sums.append(len(ideals)) or ideal_sum(ideals))
    dense = ((0, 9), (1, 6), (3, 2), (7, 0))
    for gs in (dense, dense[::-1]):
        assert staircase_sum(gs, 20, FIG3_J).gens == brute.staircase_sum(gs, 20, FIG3_J)
    # Up to _BUCKET_SPAN_FACTOR = 16 levels per candidate, the table: this
    # pair has (12 + 1 + 0) * 30 levels for (12 + 1) * 6 candidates, 5 each.
    between = ((0, 30), (3, 0))
    assert staircase_sum(between, 12, FIG3_J).gens == brute.staircase_sum(between, 12, FIG3_J)
    assert calls == [] and max(sums, default=0) <= 1 and len(sums) == 3
    sums.clear()
    sparse = ((0, 2**40 + 6),) + dense[1:]
    assert staircase_sum(sparse, 20, FIG3_J).gens == brute.staircase_sum(sparse, 20, FIG3_J)
    assert (len(calls), sums) == (1, [2])


def test_a_sparse_span_builds_no_staircase(monkeypatch):
    # J's staircase would hold 2^40 + 1 levels: past the dense-span guards,
    # the level kernel and staircase_sum's candidate route never read it.
    products = counted_pair_power(monkeypatch)
    J = MonomialIdeal(((0, 2**40), (1, 5), (3, 0)))
    assert level_power(J, 3) == naive_power(J, 3)
    for n in (1, 12):  # either side of the slices' break-even
        assert staircase_sum(((0, 1), (1, 0)), n, J).gens == brute.staircase_sum(((0, 1), (1, 0)), n, J)
    assert len(products) == 2 and "staircase" not in vars(J)


def test_staircase_sum_reads_a_cached_staircase_as_a_fresh_one(monkeypatch):
    # The slices and the window tables give the same bytes whether J builds
    # its staircase in the call or had it cached before.
    tables = counted_pair_levels(monkeypatch)
    chain = ((0, 9), (1, 6), (3, 2), (7, 0))
    given = [FIG3_J, FIG3_J.shift((2, 3)), SMALL] + [random_ideal(RandomIdealSpec(8, 20, seed=s)) for s in range(20)]
    for J in given:
        cached = MonomialIdeal(J.xy.copy())
        cached.staircase
        for gs in (chain[:2], chain, chain[::-1]):
            for n in (*range(13), 20, 40):
                fresh = MonomialIdeal(J.xy.copy())
                got, again = staircase_sum(gs, n, fresh).xy, staircase_sum(gs, n, cached).xy
                assert got.shape == again.shape and got.tobytes() == again.tobytes(), (J, gs, n)
                assert "staircase" in vars(fresh)
    assert tables  # both routes ran


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
    # first; a middle with no room for two copies is its own template.
    J = MonomialIdeal(tuple((t, d - t) for t in range(d + 1)))
    gl = glued_components(((0, d), (d, 0)), J, 1)
    templates = LinkTemplates(gl.components, gl.middles)
    assert gl.middles[0].mu == d + 1
    assert check_templates(templates) == [copies]
    for ell in (0, 1, 2, 3, 5):
        blocks = [(gl.components[0], 1), (gl.middles[0], ell), (gl.components[1], 1)]
        assert glued_power(gl, ell).gens == templates.link(ell)[0].gens == brute.link_blocks(blocks), ell


@st.composite
def _anchored(draw, least):
    """An anchored part of ``least`` to 6 generators with exponents up to 30."""
    mu = draw(st.integers(least, 6))
    coords = st.lists(st.integers(0, 30), min_size=mu, max_size=mu, unique=True)
    xs, ys = sorted(draw(coords)), sorted(draw(coords), reverse=True)
    return MonomialIdeal(tuple(zip(xs, ys))).anchor()[0]


@st.composite
def _template_chains(draw):
    """Components C_0..C_k and middles H_1..H_k, k from 1 to 3."""
    middles = draw(st.lists(_anchored(2), min_size=1, max_size=3))
    return draw(st.lists(_anchored(1), min_size=len(middles) + 1, max_size=len(middles) + 1)), middles


_LINE = MonomialIdeal(((0, 1), (1, 0)))  # h = 1: templates of up to 1024 copies


@settings(deadline=None)
@given(_template_chains(), st.tuples(st.integers(0, 50), st.integers(0, 50)), st.lists(st.integers(0, 1100), max_size=6))
# Templates of 2, 4, ..., 1024 copies, each met by ells with q = 0, r = 0 and r = c - 1.
@example(([UNIT, SMALL], [_LINE]), (3, 1), [1, 2, 3, 7, 64, 1023, 1024, 1025, 2047, 1100, 511, 0])
@example(([SMALL, UNIT, FIG3_J], [SMALL, _LINE]), (0, 7), [300, 2, 255, 256, 257, 1030, 513, 1])
def test_link_templates_match_plain_copies(chain, origin, ells):
    # Every template is the c-fold self-link of its middle, and every link,
    # in any order of ells, equals the per-generator link of ell plain
    # copies of each middle, and its writes fill each generator once.
    components, middles = chain
    templates = LinkTemplates(tuple(components), tuple(middles))
    check_templates(templates)
    for ell in ells:
        blocks = [(components[0], 1)]
        for middle, component in zip(middles, components[1:]):
            blocks += [(middle, ell), (component, 1)]
        ideal, written = templates.link(ell, origin)
        assert ideal.gens == brute.link_blocks(blocks, origin), ell
        assert written == ideal.mu, ell


def test_glued_power_with_a_middle_near_the_exponent_limit():
    # The middle spans 2**57, so a template of 1024 copies would span 2**67;
    # its template holds 32, which span 2**62, and ell = 1..5 are prefixes.
    gl = glued_components(((0, 1), (2**57, 0)), MonomialIdeal(((0, 1), (1, 0))), 1)
    assert [(h.mu, h.dist(Axis.X)) for h in gl.middles] == [(2, 2**57)]
    assert check_templates(LinkTemplates(gl.components, gl.middles)) == [32]
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


def test_glued_power_builds_no_template(monkeypatch):
    # glued_power links its parts as plain runs, one kernel call, so a call
    # at any ell builds no template; its output is the templates' link.
    I = random_ideal(RandomIdealSpec(6, 10, seed=4000)).anchor()[0]
    gs = persistence_profile(I).chosen
    J = naive_power(I, 2)
    gl = glued_components(gs, J, max(-(-J.dist(Axis.Y) // (g[1] - h[1])) for g, h in zip(gs, gs[1:])))
    templates = LinkTemplates(gl.components, gl.middles)
    assert max(check_templates(templates)) > 1
    expected = {ell: templates.link(ell)[0] for ell in (0, 1, 7, 1000, 5000)}
    monkeypatch.setattr(links, "_template", lambda *a: pytest.fail("template built"))
    for ell, ideal in expected.items():
        assert glued_power(gl, ell) == ideal, ell


def test_unanchored_parts_are_refused_where_they_enter(monkeypatch):
    # Once, before anything is allocated: by LinkTemplates when it is built,
    # and by glued_power on a hand-built GluedComponents, which checks its
    # parts as the templates do; the link kernel itself trusts its callers.
    gl = glued_components(((0, 2), (3, 0)), SMALL, 1)
    shifted = SMALL.shift((0, 1))
    monkeypatch.setattr(links.np, "empty", lambda *a, **k: pytest.fail("allocated before the check"))
    for components, middles in ((gl.components, (shifted,)), ((gl.components[0], shifted), gl.middles)):
        with pytest.raises(ValueError, match="anchored"):
            LinkTemplates(components, middles)
        with pytest.raises(ValueError, match="anchored"):
            glued_power(dataclasses.replace(gl, components=components, middles=middles), 3)


def test_a_one_generator_middle_is_refused_where_it_enters(monkeypatch):
    # A middle of one generator spans nothing, so no copy of it lengthens a
    # run: LinkTemplates refuses it when it is built, a ValueError and not a
    # division by its mu - 1 = 0 in a link, and so does glued_power on a
    # hand-built GluedComponents, at every ell.  glued_components never makes one.
    gl = glued_components(((0, 2), (3, 0)), SMALL, 1)
    monkeypatch.setattr(links.np, "empty", lambda *a, **k: pytest.fail("allocated before the check"))
    for components, middles in (((UNIT, UNIT), (UNIT,)), (gl.components, (UNIT,)), ((UNIT,) * 3, (SMALL, UNIT))):
        with pytest.raises(ValueError, match="two generators or more"):
            LinkTemplates(components, middles)
        for ell in (0, 3):
            with pytest.raises(ValueError, match="two generators or more"):
                glued_power(dataclasses.replace(gl, components=components, middles=middles), ell)


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


def test_glued_cut_clamps_a_middle_that_starts_left_of_its_step():
    # The middle block S : (3, 2) of this S starts at (1, 4), left of x = 3:
    # its first x clamps to 0, as the colon gives it.
    boundary, base = MonomialIdeal(((0, 2), (3, 0))), MonomialIdeal(((0, 6), (1, 4), (6, 2), (9, 0)))
    glued = segments.glued_cut(boundary.gens, base, 1)
    assert (glued.components, glued.middles, glued.link_points) == brute.glued_cut(boundary, base, 1)
    assert glued.middles[0].gens == ((0, 2), (3, 0))


def test_pairs_covered_matches_containment():
    # (E*) on level arrays against the divisibility check of every generator,
    # on the corpus seeds 0-199 with |P| >= 3 at I^1 .. I^6; shifting J
    # changes nothing.  Both verdicts occur.
    verdicts = Counter()
    for seed in range(200):
        I = random_ideal(RandomIdealSpec(8, 20, seed=seed))
        gs = persistence_profile(I).chosen
        if len(gs) < 3:
            continue
        covered, J = segments._pairs_covered(gs), I
        for m in range(1, 7):
            got = covered(brute.staircase(J))
            shifted = covered(brute.staircase(J.shift((3, 1))))
            assert got == brute.pairs_covered(gs, J) == shifted, (seed, m)
            verdicts[got] += 1
            J = J * I
    assert verdicts == {True: 543, False: 147}


@st.composite
def chain_and_staircase(draw):
    """Two to seven boundary generators descending in y, possibly with one
    step that brings ``g_last^2 J`` to within a few of int64 in x, on either
    side of it, and a possibly shifted J: a random ideal or, to reach both
    verdicts, a power of the chain's own ideal, its steps possibly sorted
    by falling slope."""
    k = draw(st.integers(1, 6))
    steps = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=k, max_size=k))
    near, power = draw(st.integers(0, 3)) == 0, draw(st.booleans())
    if near:
        i = draw(st.integers(0, k - 1))
        steps[i] = (steps[i][0] + 2**62 - 24, steps[i][1])  # 2 dx_last within 48 of 2^63
    elif power and draw(st.booleans()):
        steps.sort(key=lambda step: -step[1] / step[0])
    x, y = draw(st.integers(0, 5)), draw(st.integers(0, 5)) + sum(v for _, v in steps)
    gs = [(x, y)]
    for u, v in steps:
        x, y = x + u, y - v
        gs.append((x, y))
    if power and not near:
        J = level_power(MonomialIdeal(tuple(gs)), draw(st.integers(1, 8)))
    else:
        mu = draw(st.integers(1, 12))
        coords = st.lists(st.integers(0, 2 * mu), min_size=mu, max_size=mu, unique=True)
        xs, ys = sorted(draw(coords)), sorted(draw(coords), reverse=True)
        J = MonomialIdeal(tuple(zip(xs, ys)))
    return tuple(gs), J.shift((draw(st.integers(0, 30)), draw(st.integers(0, 5))))


@given(chain_and_staircase())
@example((((0, 4), (2, 2), (5, 0)), FIG3_J))
@example((((0, 9), (1, 5), (3, 3), (6, 2), (10, 1), (15, 0)), SMALL.shift((4, 2))))
@example((((0, 4), (1, 1), (2**62, 0)), SMALL))  # g_last^2 J at x = 2^63 + 3: no certificate
@example((((0, 4), (1, 1), (2**62 - 1, 0)), MonomialIdeal(((0, 1), (2, 0)))))  # at 2^63 exactly
# Certified only with the g_p g_b J and the g_a g_q J each in their own
# sum, with both halves in each U, and with F constant above its top.
@example((((0, 10), (6, 6), (9, 4), (15, 0)), MonomialIdeal(((0, 10), (6, 6), (9, 4), (15, 0)))))
@example(((FIVE := ((0, 11), (3, 7), (5, 5), (10, 1), (16, 0))), level_power(MonomialIdeal(FIVE), 2)))
@example(((SIX := ((0, 12), (1, 10), (2, 8), (7, 2), (12, 1), (18, 0))), MonomialIdeal(SIX)))
@example(((STEEP := ((0, 17), (1, 13), (4, 7), (8, 2), (12, 0))), MonomialIdeal(STEEP)))
def test_pairs_covered_matches_the_level_loop(case):
    # The planned predicate against the loop over every level of one padded
    # shift per pair, and, inside int64, against divisibility of every
    # generator; past int64 neither certifies.
    gs, J = case
    staircase = brute.staircase(J)
    got = segments._pairs_covered(gs)(staircase)
    assert got == brute.pairs_covered_on_levels(gs, staircase)
    dx = gs[-1][0] - gs[0][0]
    if 2 * dx + int(J.xy[0, -1]) >= 2**63:
        assert got == (len(gs) < 3)  # vacuous for one pair
        return
    if dx < 2**62 - 24:
        assert got == brute.pairs_covered(gs, J)


def test_pairs_covered_on_a_long_chain():
    # Thirty-one generators on a convex chain over their own ideal: 496
    # products, decided level by level.
    gs = tuple((i * (i + 1) // 2, (30 - i) * (31 - i) // 2) for i in range(31))
    staircase = brute.staircase(MonomialIdeal(gs))
    assert segments._pairs_covered(gs)(staircase) == brute.pairs_covered_on_levels(gs, staircase)


def test_pairs_covered_is_vacuous_for_one_pair():
    assert segments._pairs_covered(((0, 5), (7, 0)))(brute.staircase(FIG3_J))


def test_pairs_covered_certifies_nothing_beyond_int64():
    # g_2^2 J would reach x = 2^63: no certificate, rather than a wrapped add.
    assert not segments._pairs_covered(((0, 4), (1, 1), (2**62, 0)))(brute.staircase(SMALL))
    assert not segments._pairs_covered(((0, 4), (1, 1), (2**63 - 1, 0)))(brute.staircase(SMALL))
