"""Brute-force references for the dense kernels of ``stairpow.ideals`` and
``stairpow.segments``, and for the boundary generators of ``stairpow.geometry``.

They form every candidate product and sort it, emit one generator at a
time, or test every pair of generators, with no shortcut that the
library's kernels share, so the property tests compare against them.
:func:`mu_onset` alone walks the library's level kernel, below a level the
library proves its mu polynomial from; its test checks the walk's ends
against :func:`stairpow.ideals.level_power`.  :func:`form_onset` walks down
from the same level with ``level_power`` at every level, on step words in
Python ints; :func:`read_form` reads the block form off two such powers and
:func:`expand` concatenates its words, with no library link code.
"""

import numpy as np

from stairpow.engine import cached_plan
from stairpow.ideals import (
    _NO_POINT, EXP_LIMIT, Axis, Monomial, MonomialIdeal, _levels, level_power, mon_divides, pair_power,
)
from stairpow.links import unlink


def lexsort_minimal(points) -> tuple[Monomial, ...]:
    """Minimal generators by a (x, y) lexsort and a running-minimum sweep."""
    arr = np.asarray(list(points), dtype=np.int64)
    arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
    b = arr[:, 1]
    run_min = np.minimum.accumulate(b)
    mask = np.empty(len(arr), dtype=bool)
    mask[0] = True
    mask[1:] = b[1:] < run_min[:-1]
    return tuple(map(tuple, arr[mask].tolist()))


def antichain(points) -> tuple[Monomial, ...]:
    """Minimal generators straight from the definition: the points that no
    other point divides, one copy each, in canonical order."""
    pts = set(points)
    return tuple(
        sorted(p for p in pts if not any(q != p and mon_divides(q, p) for q in pts))
    )


def _candidates(a: MonomialIdeal, b: MonomialIdeal):
    return ((p + r, q + s) for p, q in a.gens for r, s in b.gens)


def product(a: MonomialIdeal, b: MonomialIdeal) -> tuple[Monomial, ...]:
    """G(a * b) from all mu(a) * mu(b) candidate products."""
    return lexsort_minimal(_candidates(a, b))


def staircase_times(g: Monomial, h: Monomial, n: int, j_ideal: MonomialIdeal) -> tuple[Monomial, ...]:
    """G((g, h)^n * J) from the ``(n + 1) * mu(J)`` candidate products."""
    return product(pair_power(g, h, n), j_ideal)


def staircase_sum(gs, n: int, j_ideal: MonomialIdeal) -> tuple[Monomial, ...]:
    """G(sum_i (g_i, g_(i+1))^n * J) from the candidate products of every pair."""
    return lexsort_minimal(
        c for g, h in zip(gs, gs[1:]) for c in _candidates(pair_power(g, h, n), j_ideal)
    )


def reduction_number(ideal: MonomialIdeal, chosen, last: int):
    """The least m with ``I^(m+1) = (P) I^m``, by repeated candidate
    products: 0 when P is all of G(I), else the least m in ``1..last``, or
    None."""
    if set(chosen) == set(ideal.gens):
        return 0
    reduction, power = MonomialIdeal(tuple(sorted(chosen))), ideal
    for m in range(1, last + 1):
        following = product(power, ideal)
        if product(reduction, power) == following:
            return m
        power = MonomialIdeal(following)
    return None


def colon(gens, m: Monomial) -> tuple[Monomial, ...]:
    """G(I : m) from the clamped quotient of every generator."""
    u, v = m
    return lexsort_minimal((max(a - u, 0), max(b - v, 0)) for a, b in gens)


def r_segments(u: int, v: int, j_ideal: MonomialIdeal, r: int):
    """``(alpha, beta, A, H, B)`` of ``(x^u, y^v)^(r+1) J`` read straight off
    the candidate product S: the pivot is the generator of least y-degree
    ``beta >= r*v``, and ``A = S:(0,beta)``, ``H = S:(alpha-u,beta)``,
    ``B = S:(alpha,0)``."""
    base = staircase_times((0, v), (u, 0), r + 1, j_ideal)
    beta = min(b for _, b in base if b >= r * v)
    (alpha,) = [a for a, b in base if b == beta]
    parts = (colon(base, m) for m in ((0, beta), (alpha - u, beta), (alpha, 0)))
    return (alpha, beta, *parts)


def link_blocks(blocks, origin: Monomial = (0, 0)) -> tuple[Monomial, ...]:
    """G of the y-link of anchored ``(part, reps)`` blocks times ``origin``,
    one copy and one generator at a time: every copy after the first drops
    its top generator, which is the previous copy's bottom one."""
    gens: list[Monomial] = []
    x = origin[0]
    y = origin[1] + sum(part.dist(Axis.Y) * reps for part, reps in blocks)
    for part, reps in blocks:
        dx, dy, part_gens = part.dist(Axis.X), part.dist(Axis.Y), part.gens
        for _ in range(reps):
            y -= dy
            gens.extend((a + x, b + y) for a, b in (part_gens[1:] if gens else part_gens))
            x += dx
    return tuple(gens)


def shift_generators(dec, gens_n: MonomialIdeal, n: int) -> tuple[Monomial, ...]:
    """G(I^(n+1)) from G(I^n) one generator at a time: inside the y-band of
    middle block i it takes g_i and g_(i+1), below every band g_k, and
    otherwise g_i of the first band below it."""
    ell = n - dec.s
    bands = [
        (dec.boundary_points[i + 1][1] + ell * dec.gs[i + 1][1], dec.middles[i].dist(Axis.Y))
        for i in range(dec.k)
    ]
    gs = dec.gs
    products = set()
    for f in dec.oriented(gens_n, n).gens:
        b = f[1]
        factors = []
        for i, (bottom, v) in enumerate(bands):
            if bottom <= b <= bottom + v:
                factors.extend((gs[i], gs[i + 1]))
        if not factors:
            if b < bands[-1][0]:
                factors = [gs[-1]]
            else:
                i = next(idx for idx, (bottom, v) in enumerate(bands) if b > bottom + v)
                factors = [gs[i]]
        products.update((f[0] + g[0], f[1] + g[1]) for g in factors)
    return dec.unoriented(MonomialIdeal(tuple(sorted(products))), n + 1).gens


def lies_between(f: Monomial, g: Monomial, h: Monomial) -> bool:
    """True iff f exceeds the smaller x-degree and smaller y-degree of {g, h}."""
    return min(g[0], h[0]) < f[0] and min(g[1], h[1]) < f[1]


def closure_side(f: Monomial, g: Monomial, h: Monomial) -> int:
    """Where f, between g and h, sits against the integral closure of the
    pair ideal (g, h): 1 strictly inside, 0 on the segment from g to h, -1
    outside.  It compares weighted degrees in the grading where x weighs
    dist_y{g, h} and y weighs dist_x{g, h}, which is constant on the segment."""
    side = (f[0] - g[0]) * abs(g[1] - h[1]) + (f[1] - g[1]) * abs(g[0] - h[0])
    return (side > 0) - (side < 0)


def _closure_sides(f: Monomial, gens) -> list[int]:
    return [closure_side(f, g, h) for g in gens for h in gens if g != h and lies_between(f, g, h)]


def persistent(gens) -> tuple[Monomial, ...]:
    """The generators outside the closure of every pair of generators."""
    return tuple(f for f in gens if all(side < 0 for side in _closure_sides(f, gens)))


def weakly_persistent(gens) -> tuple[Monomial, ...]:
    """The generators strictly inside the closure of no pair of generators."""
    return tuple(f for f in gens if all(side <= 0 for side in _closure_sides(f, gens)))


def staircase(j_ideal: MonomialIdeal) -> np.ndarray:
    """The least x of J at each level from its lowest generator up to its
    highest, one level at a time."""
    low = min(y for _, y in j_ideal.gens)
    top = max(y for _, y in j_ideal.gens)
    return np.array([min(x for x, y in j_ideal.gens if y <= t) for t in range(low, top + 1)], dtype=np.int64)


def pairs_covered(gs, j_ideal: MonomialIdeal) -> bool:
    """(E*) by containment: every generator of ``g_a g_b J`` (``b - a >= 2``)
    is divisible by a generator of one allowed ``g_p g_q J``, with one
    square left out per pair, tried both ways."""
    jxy = np.array(j_ideal.gens)
    shifted = lambda p, q: jxy + (gs[p][0] + gs[q][0], gs[p][1] + gs[q][1])
    for a in range(len(gs)):
        for b in range(a + 2, len(gs)):
            need = shifted(a, b)
            pairs = [(p, q) for p in range(a, b + 1) for q in range(p, b + 1) if (p, q) != (a, b)]
            for left_out in ((a, a), (b, b)):
                cover = np.concatenate([shifted(*pair) for pair in pairs if pair != left_out])
                divides = (cover[None, :, 0] <= need[:, None, 0]) & (cover[None, :, 1] <= need[:, None, 1])
                if divides.any(axis=1).all():
                    break
            else:
                return False
    return True


def pairs_covered_on_levels(gs, staircase: np.ndarray) -> bool:
    """(E*) on J's level array at every level: one padded shift of it per
    pair ``(p, q)``, and per pair ``(a, b)`` the minimum of every allowed
    shift, squares tried both ways; nothing certified past int64."""
    if len(gs) < 3:
        return True
    dx, dy = [g[0] - gs[0][0] for g in gs], [g[1] - gs[-1][1] for g in gs]
    top = 2 * dy[0] + len(staircase) - 1  # from here on every shift is at its top
    if 2 * dx[-1] + int(staircase[0]) >= EXP_LIMIT:
        return False
    padded = np.full(top + 1, staircase[-1], dtype=np.int64)
    padded[: len(staircase)] = staircase
    shifted = {}  # (p, q): the staircase of g_p g_q J
    for p in range(len(gs)):
        for q in range(p, len(gs)):
            shifted[p, q] = np.full(top + 1, _NO_POINT, dtype=np.int64)
            np.add(padded[: top + 1 - dy[p] - dy[q]], dx[p] + dx[q], out=shifted[p, q][dy[p] + dy[q] :])
    for a in range(len(gs) - 2):
        cover = np.full(top + 1, _NO_POINT, dtype=np.int64)  # the sum allowed for (a, b) but its squares
        for b in range(a + 2, len(gs)):
            for p, q in [(a, b - 1), (b - 1, b - 1)] + [(p, b) for p in range(a + 1, b)]:
                np.minimum(cover, shifted[p, q], out=cover)
            if not any((shifted[a, b] >= np.minimum(cover, shifted[e, e])).all() for e in (a, b)):
                return False
    return True


def glued_cut(boundary: MonomialIdeal, base: MonomialIdeal, r: int):
    """``(components, middles, link_points)`` of an anchored S: each link
    point found by a scan of every generator, :func:`stairpow.links.unlink`
    at the points and :meth:`MonomialIdeal.colon` per middle, whose spans
    must be the staircase steps."""
    gs, gens = boundary.gens, base.gens
    points = tuple(
        min((p for p in gens if p[1] >= r * (g[1] - h[1]) + (r + 1) * h[1]), key=lambda p: p[1])
        for g, h in zip(gs, gs[1:])
    )
    middles = tuple(base.colon((a - (h[0] - g[0]), b)) for (a, b), g, h in zip(points, gs, gs[1:]))
    for middle, g, h in zip(middles, gs, gs[1:]):
        if (middle.dist(Axis.X), middle.dist(Axis.Y)) != (h[0] - g[0], g[1] - h[1]):
            raise AssertionError("a middle block does not span its staircase step")
    return tuple(unlink(base, points)), middles, points


def reduction_times(gs, j: int, j_ideal: MonomialIdeal) -> tuple[Monomial, ...]:
    """G((P)^j J) for ``P = (gs)`` by j candidate products."""
    power = j_ideal
    for _ in range(j):
        power = MonomialIdeal(product(MonomialIdeal(tuple(sorted(gs))), power))
    return power.gens


def ord(ideal: MonomialIdeal) -> int:
    """The order of ``I′``, the ideal with its gcd divided out: the least
    ``a + b`` over the generators of ``I′``."""
    gx, gy = min(a for a, _ in ideal.gens), min(b for _, b in ideal.gens)
    return min(a - gx + b - gy for a, b in ideal.gens)


def mu_onset(ideal: MonomialIdeal) -> tuple[int, dict[int, int]]:
    """``(n1, mus)``: n1 is the least n from which ``mu(I^n)`` equals the mu
    polynomial of ``cached_plan(I)``, which is proven from its s = S on, and
    ``mus`` is ``mu(I^n)`` at each level ``n < S`` of one run of the level
    kernel to S - 1 with the plan's P: 1 plus the strict drops of its
    staircase.  The walk goes down from S - 1 and stops at the first miss."""
    plan = cached_plan(ideal)
    poly, gs = plan.polynomial, plan.profile.chosen
    mus = {j: 1 + int((levels[1:] < levels[:-1]).sum()) for j, levels, _ in _levels(ideal, poly.s - 1, gs)}
    if len(mus) != poly.s - 1:
        raise ValueError(f"the level kernel yields no level below S = {poly.s} for {ideal}")
    n1 = poly.s
    while n1 > 1 and mus[n1 - 1] == poly.intercept + (n1 - 1 - poly.s) * poly.slope:
        n1 -= 1
    return n1, mus


def _word(ideal: MonomialIdeal) -> list[tuple[int, int]]:
    """The step word of an ideal: ``(dx, dy)`` from each generator to the next."""
    gens = ideal.gens
    return [(c - a, b - d) for (a, b), (c, d) in zip(gens, gens[1:])]


def read_form(ideal: MonomialIdeal, t: int):
    """``(components, middles)`` of the block form read off ``G(I^t)`` and
    ``G(I^(t+1))``, each part as its anchored generators, or None.

    Both step words come from ``level_power(...).gens``, in the ideal's own
    orientation.  Past their common prefix, the word of ``G(I^(t+1))`` holds
    the next middle: its shortest factor there whose steps sum to the next pair
    step of the plan's P, and the words go on together after it.  The parts of
    ``G(I^t)`` between the middles are the components."""
    gs = cached_plan(ideal).profile.chosen
    low, high = _word(level_power(ideal, t)), _word(level_power(ideal, t + 1))
    components, middles, at, skip = [], [], 0, 0  # at: into low; skip: letters of high taken as middles
    for (a, b), (c, d) in zip(gs, gs[1:]):
        start = at
        while at < len(low) and at + skip < len(high) and low[at] == high[at + skip]:
            at += 1
        sums = [tuple(map(sum, zip(*high[at + skip : at + skip + n]))) for n in range(1, len(high) - at - skip + 1)]
        if (c - a, b - d) not in sums:
            return None
        n = sums.index((c - a, b - d)) + 1
        components.append(low[start:at])
        middles.append(high[at + skip : at + skip + n])
        skip += n
    components.append(low[at:])
    return tuple(map(_gens, components)), tuple(map(_gens, middles))


def _gens(word) -> tuple[Monomial, ...]:
    """The anchored generators whose step word is ``word``."""
    gens = [(0, sum(dy for _, dy in word))]
    for dx, dy in word:
        gens.append((gens[-1][0] + dx, gens[-1][1] - dy))
    return tuple(gens)


def expand(parts, ell: int, origin: Monomial = (0, 0)) -> np.ndarray:
    """The ``(2, N)`` columns of ``C_0 H_1^ell C_1 .. H_k^ell C_k`` times ``origin``, by
    concatenating the parts' step words, ``ell`` copies of each middle's, and
    summing the steps down from the top generator."""
    components, middles = ([np.array(_word(MonomialIdeal(p)), dtype=np.int64).reshape(-1, 2) for p in ps] for ps in parts)
    word = np.concatenate([components[0], *(w for h, c in zip(middles, components[1:]) for w in (np.tile(h, (ell, 1)), c))])
    top = np.array([[0, int(word[:, 1].sum())]], dtype=np.int64)
    return (np.concatenate([top, top + np.cumsum(word * (1, -1), axis=0)]) + origin).T


def form_onset(ideal: MonomialIdeal) -> int:
    """n0, the least n from which ``G(I^n)`` has the block form of the plan's
    decomposition, which is proven from its s = S on: ``G(I′^(S+l))`` reads
    ``X_0 w_1^l X_1 ... w_k^l X_k`` with X_i and w_i the step words of the parts
    C_i and the middles H_i.  Around each middle the letters that follow the
    period of w_i, back into X_(i-1) and on into X_i, form one run; taking d·|w_i|
    consecutive letters out of it anywhere takes d copies of a rotation of w_i
    and leaves one word.  So the form holds at S - d iff, with the letters taken
    from the left end of each run as far as the run and the letters the middle
    before took allow, every run has room for the rest and the words left make
    ``G(I′^(S-d))``, by ``level_power``.  The walk goes down from S - 1 and stops
    at the first miss."""
    dec = cached_plan(ideal).decomposition
    parts, words = [_word(c) for c in dec.components], [_word(h) for h in dec.middles]
    runs = []  # per middle: how far its run reaches back into X_(i-1), and on into X_i
    for left, right, word in zip(parts, parts[1:], words):
        h = len(word)
        back = next((t for t in range(len(left)) if left[-1 - t] != word[-1 - t % h]), len(left))
        on = next((t for t in range(len(right)) if right[t] != word[t % h]), len(right))
        runs.append((back, on))
    n = dec.s
    while n > 1:
        d, heads, tails = dec.s - n + 1, [0], []  # the letters each X_i gives from its start, and from its end
        for (back, on), word, left in zip(runs, words, parts):
            tails.append(min(back, d * len(word), len(left) - heads[-1]))
            heads.append(d * len(word) - tails[-1])
            if heads[-1] > on:
                return n
        tails.append(0)
        word = [step for part, head, tail in zip(parts, heads, tails) for step in part[head : len(part) - tail]]
        if word != _word(dec.oriented(level_power(ideal, n - 1), n - 1)):
            return n
        n -= 1
    return n
