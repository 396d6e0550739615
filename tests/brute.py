"""Brute-force references for the dense kernels of ``stairpow.ideals`` and
``stairpow.segments``, and for the boundary generators of ``stairpow.geometry``.

They form every candidate product and sort it, emit one generator at a
time, or test every pair of generators, with no shortcut that the
library's kernels share, so the property tests compare against them.
"""

import numpy as np

from stairpow.ideals import Axis, Monomial, MonomialIdeal, mon_divides, pair_power


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


def reduction_times(gs, j: int, j_ideal: MonomialIdeal) -> tuple[Monomial, ...]:
    """G((P)^j J) for ``P = (gs)`` by j candidate products."""
    power = j_ideal
    for _ in range(j):
        power = MonomialIdeal(product(MonomialIdeal(tuple(sorted(gs))), power))
    return power.gens
