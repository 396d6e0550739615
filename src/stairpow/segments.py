"""Repeating staircase blocks of ideals ``(g, h)^n * J``.

For a fixed anchored ideal J and a staircase pair, the minimal generators
of ``(x^u, y^v)^(r+1+l) J`` repeat a fixed middle block l times between an
unchanging top and bottom block.  This module extracts the glued
components C_i / H_i of a sum of such powers over consecutive boundary
generators (the r-segments A, H, B are the one-pair case), and reassembles
arbitrary higher powers from them by linking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ideals import (
    _NO_POINT, EXP_LIMIT, Axis, Monomial, MonomialIdeal, _check_exponents, _level_staircase,
    ideal_sum, mon_divides, pair_power,
)
# ``link_many`` is unused here but stays importable as ``segments.link_many``:
# the benchmark's span tracer patches that name.
from .links import link_blocks, link_many, unlink


def staircase_times(pair_g: Monomial, pair_h: Monomial, n: int, j_ideal: MonomialIdeal) -> MonomialIdeal:
    """``(g, h)^n * J``, the one-pair case of :func:`staircase_sum`."""
    return staircase_sum((pair_g, pair_h), n, j_ideal)


def staircase_sum(gs: Sequence[Monomial], n: int, j_ideal: MonomialIdeal) -> MonomialIdeal:
    """``sum_i (g_i, g_(i+1))^n * J`` over consecutive pairs of ``gs``, each
    pair in either order, in work proportional to its y-span.

    Every pair's window table (see :func:`_pair_levels`) is min-ed into one
    level array spanning the union of their levels, which one sweep turns
    into the minimal generators.  A single pair needs no shared array.  If
    a pair's table would be larger than its ``(n+1) * mu(J)`` candidates,
    or beyond int64, that pair is the product of those candidates and the
    per-pair ideals are summed.
    """
    pairs = list(zip(gs, gs[1:]))
    tables = [_pair_levels(g, h, n, j_ideal) for g, h in pairs]
    if len(tables) == 1 or any(table is None for table in tables):
        return ideal_sum([
            pair_power(g, h, n) * j_ideal if table is None else MonomialIdeal(_level_staircase(*table))
            for (g, h), table in zip(pairs, tables)
        ])
    low = min(bottom for _, bottom in tables)
    levels = np.full(max(bottom + len(t) for t, bottom in tables) - low, _NO_POINT, dtype=np.int64)
    for table, bottom in tables:
        view = levels[bottom - low : bottom - low + len(table)]
        np.minimum(view, table, out=view)
    return MonomialIdeal(_level_staircase(levels, low))


def _pair_levels(
    pair_g: Monomial, pair_h: Monomial, n: int, j_ideal: MonomialIdeal
) -> tuple[np.ndarray, int] | None:
    """The least x per y level of ``(g, h)^n * J`` from its lowest level on,
    and that level; None where the candidate product is the cheaper route.

    With g the pair member of smaller x, ``u = h_x - g_x``, ``v = g_y - h_y``
    and ``F(t)`` the least x of G(J) at most t above its lowest generator,
    the staircase at height ``n*h_y + c + q*v`` (``0 <= c < v``) is
    ``n*h_x - q*u + min(F(c + t*v) + t*u for t in [q - n, q])``, a sliding
    window minimum (van Herk 1992; Gil and Werman 1993).  None when that
    table is larger than the ``(n+1) * mu(J)`` candidates or beyond int64.
    """
    if mon_divides(pair_g, pair_h) or mon_divides(pair_h, pair_g):
        raise ValueError(f"{pair_g} and {pair_h} are comparable; staircase power undefined")
    g, h = sorted((pair_g, pair_h))
    x, y = j_ideal.xy
    x0, x1, y0, y1 = int(x[0]), int(x[-1]), int(y[-1]), int(y[0])
    # The largest product exponents, checked in Python ints before any int64 add.
    _check_exponents(n * h[0] + x1, n * g[1] + y1)
    u, v = h[0] - g[0], g[1] - h[1]
    rows = n + 1 - (y0 - y1) // v  # F is constant from row ceil(dist_y / v) on
    # The window kernel sweeps about 2 * rows * v levels, the product the
    # (n+1) * mu(J) candidates: measured, they break even at about equal sizes.
    if rows * v > (n + 1) * j_ideal.mu or rows * u + x1 - x0 >= EXP_LIMIT:
        return None
    # Pad n rows in front and cut blocks of n + 1 rows: the window [q - n, q]
    # is a block suffix from row q plus a block prefix up to row q + n.
    blocks = -(-(n + rows) // (n + 1))
    padded = np.full((blocks * (n + 1), v), _NO_POINT, dtype=np.int64)
    table = padded[n : n + rows]  # row t, column c: F(c + t*v) - x0
    levels = table.reshape(-1)
    levels[y - y0] = x - x0
    np.minimum.accumulate(levels, out=levels)
    steps = (np.arange(rows, dtype=np.int64) * u)[:, None]
    table += steps
    padded = padded.reshape(blocks, n + 1, v)
    suffix = np.empty_like(padded)
    np.minimum.accumulate(padded[:, ::-1], axis=1, out=suffix[:, ::-1])
    np.minimum.accumulate(padded, axis=1, out=padded)
    window = np.minimum(suffix.reshape(-1, v)[:rows], padded.reshape(-1, v)[n : n + rows])
    window -= steps
    window += n * h[0] + x0
    return window.reshape(-1), n * h[1] + y0


@dataclass(frozen=True)
class SegmentTriple:
    """The r-segments of ``(x^u, y^v) J`` with respect to y.

    ``A``, ``H``, ``B`` are anchored; the pivot generator ``x^alpha y^beta``
    of ``(x^u, y^v)^(r+1) J`` is where A and B meet, and H is the block
    repeated once per extra power.
    """

    A: MonomialIdeal
    H: MonomialIdeal
    B: MonomialIdeal
    alpha: int
    beta: int


def r_segments(u: int, v: int, j_ideal: MonomialIdeal, r: int) -> SegmentTriple:
    """Extract the repeating blocks of ``(x^u, y^v)^(r+1) J``.

    They are the glued components of the single pair ``y^v, x^u``, with the
    link point as pivot.  ``r`` must be at least ``ceil(dist_y(J) / v)`` so
    that the middle block has settled.
    """
    if u < 1 or v < 1:
        raise ValueError("u and v must be positive")
    glued = glued_components(((0, v), (u, 0)), j_ideal, r)
    ((alpha, beta),) = glued.link_points
    if not (u <= alpha <= (r + 1) * u and beta < (r + 1) * v):
        raise AssertionError("pivot generator outside the (r+1)-th staircase step")
    (a, b), (h,) = glued.components, glued.middles
    return SegmentTriple(A=a, H=h, B=b, alpha=alpha, beta=beta)


def one_segment_power(triple: SegmentTriple, ell: int) -> MonomialIdeal:
    """``(x^u, y^v)^(r+1+ell) J`` assembled as A . H^ell . B."""
    if ell < 0:
        raise ValueError("ell must be non-negative")
    return link_blocks([(triple.A, 1), (triple.H, ell), (triple.B, 1)])


@dataclass(frozen=True)
class GluedComponents:
    """Components of ``S = sum_i (g_i, g_{i+1})^(r+1) J`` ready for gluing.

    ``components`` are C_0..C_k and ``middles`` H_1..H_k, all anchored;
    ``link_points`` are the interior points h_1..h_k of S itself.
    """

    gs: tuple[Monomial, ...]
    base: MonomialIdeal
    components: tuple[MonomialIdeal, ...]
    middles: tuple[MonomialIdeal, ...]
    link_points: tuple[Monomial, ...]


def glued_components(gs: Sequence[Monomial], j_ideal: MonomialIdeal, r: int) -> GluedComponents:
    """Split one explicitly computed base power into its repeating components.

    ``gs`` are boundary generators g_1..g_{k+1} of an anchored ideal in
    descending y-order.  :func:`staircase_sum` builds the summed power S,
    and the components are read off S directly; the per-summand r-segments
    are never formed.
    """
    boundary = MonomialIdeal(gs)  # raises unless they descend in y and ascend in x
    if boundary.mu < 2 or boundary.gcd() != (0, 0):
        raise ValueError("need at least two boundary generators spanning an anchored ideal")
    gs = boundary.gens
    if j_ideal.gcd() != (0, 0):
        raise ValueError("J must be anchored")
    us, vs = abs(boundary.xy[:, 1:] - boundary.xy[:, :-1]).tolist()
    needed = max(-(-j_ideal.dist(Axis.Y) // v) for v in vs)
    if r < needed:
        raise ValueError(f"r={r} below the stabilization bound {needed}")

    base = staircase_sum(gs, r + 1, j_ideal)
    # Link point i is the lowest generator at or above its threshold.  y
    # descends, so one search of the ascending reversed column counts them.
    x, y = base.xy
    thresholds = [r * v + (r + 1) * g[1] for v, g in zip(vs, gs[1:])]
    above = len(y) - y[::-1].searchsorted(thresholds)
    if not above.all():
        raise AssertionError("no generator above the link-point threshold")
    points = tuple(zip(x[above - 1].tolist(), y[above - 1].tolist()))

    components = tuple(unlink(base, points))
    middles = tuple(base.colon((a - u, b)) for (a, b), u in zip(points, us))
    for i, (middle, u, v) in enumerate(zip(middles, us, vs)):
        if not (middle.dist(Axis.X) == u and middle.dist(Axis.Y) == v):
            raise AssertionError(f"middle block {i + 1} does not span its staircase step")
    return GluedComponents(gs, base, components, middles, points)


def glued_blocks(
    components: Sequence[MonomialIdeal], middles: Sequence[MonomialIdeal], ell: int
) -> list[tuple[MonomialIdeal, int]]:
    """The link blocks ``C_0 . H_1^ell . C_1 ... H_k^ell . C_k``."""
    blocks = [(components[0], 1)]
    for middle, component in zip(middles, components[1:]):
        blocks += [(middle, ell), (component, 1)]
    return blocks


def glued_power(glued: GluedComponents, ell: int) -> MonomialIdeal:
    """``sum_i (g_i, g_{i+1})^(r+1+ell) J`` assembled by linking."""
    if ell < 0:
        raise ValueError("ell must be non-negative")
    return link_blocks(glued_blocks(glued.components, glued.middles, ell))
