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


def product(a: MonomialIdeal, b: MonomialIdeal) -> tuple[Monomial, ...]:
    """G(a * b) from all mu(a) * mu(b) candidate products."""
    return lexsort_minimal((p + r, q + s) for p, q in a.gens for r, s in b.gens)


def staircase_times(g: Monomial, h: Monomial, n: int, j_ideal: MonomialIdeal) -> tuple[Monomial, ...]:
    """G((g, h)^n * J) from the ``(n + 1) * mu(J)`` candidate products."""
    return product(pair_power(g, h, n), j_ideal)


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
        for _ in range(reps):
            y -= part.dist(Axis.Y)
            gens.extend((a + x, b + y) for a, b in (part.gens[1:] if gens else part.gens))
            x += part.dist(Axis.X)
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
