"""Repeating staircase blocks of ideals ``(g, h)^n * J``.

For a fixed anchored ideal J and a staircase pair, the minimal generators
of ``(x^u, y^v)^(r+1+l) J`` repeat a fixed middle block l times between an
unchanging top and bottom block.  This module extracts the glued
components C_i / H_i of a sum of such powers over consecutive boundary
generators (the r-segments A, H, B of the paper are the one-pair case),
and reassembles arbitrary higher powers from them by linking.  It also
checks the pair condition (E*) under which such a sum over ``J = I^m`` is
``I^(m+j)`` itself (see :func:`_pairs_covered`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ideals import (
    _NO_POINT, EXP_LIMIT, Axis, Monomial, MonomialIdeal, _check_exponents, _level_staircase,
    ideal_sum, mon_divides, pair_power,
)
# ``link_many`` is unused here but stays importable as ``segments.link_many``:
# the benchmark's span tracer patches that name.
from .links import _link_counted, link_many, unlink


def staircase_times(pair_g: Monomial, pair_h: Monomial, n: int, j_ideal: MonomialIdeal) -> MonomialIdeal:
    """``(g, h)^n * J``, the one-pair case of :func:`staircase_sum`."""
    return staircase_sum((pair_g, pair_h), n, j_ideal)


def staircase_sum(gs: Sequence[Monomial], n: int, j_ideal: MonomialIdeal) -> MonomialIdeal:
    """``sum_i (g_i, g_(i+1))^n * J`` over consecutive pairs of ``gs``, each
    pair in either order, in work proportional to its y-span.

    Every pair's window table (see :func:`_pair_levels`), a lone pair's
    too, is min-ed into one level array spanning the union of their levels,
    which one sweep turns into the minimal generators.  A pair whose table
    would be larger than its ``(n+1) * mu(J)`` candidates, or beyond int64,
    is the product of those candidates instead, and one :func:`ideal_sum`
    joins those products to the swept array.
    """
    pairs = list(zip(gs, gs[1:]))
    tables = [_pair_levels(g, h, n, j_ideal) for g, h in pairs]
    ideals = [pair_power(g, h, n) * j_ideal for (g, h), table in zip(pairs, tables) if table is None]
    tables = [table for table in tables if table is not None]
    if tables:
        low = min(bottom for _, bottom in tables)
        levels = np.full(max(bottom + len(t) for t, bottom in tables) - low, _NO_POINT, dtype=np.int64)
        for table, bottom in tables:
            view = levels[bottom - low : bottom - low + len(table)]
            np.minimum(view, table, out=view)
        ideals.append(MonomialIdeal._canonical(_level_staircase(levels, low)))
    return ideal_sum(ideals)


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
    and :func:`glued_cut` reads the components off S directly; the
    per-summand r-segments are never formed.  For ``gs = ((0, v), (u, 0))`` the paper's
    A, H, B and pivot (alpha, beta) are components[0], middles[0], components[1], link_points[0].
    """
    boundary = MonomialIdeal(gs)  # raises unless they descend in y and ascend in x
    if boundary.mu < 2 or boundary.gcd() != (0, 0):
        raise ValueError("need at least two boundary generators spanning an anchored ideal")
    if j_ideal.gcd() != (0, 0):
        raise ValueError("J must be anchored")
    needed = max(-(-j_ideal.dist(Axis.Y) // v) for v in (boundary.xy[1, :-1] - boundary.xy[1, 1:]).tolist())
    if r < needed:
        raise ValueError(f"r={r} below the stabilization bound {needed}")
    return glued_cut(boundary, staircase_sum(boundary.gens, r + 1, j_ideal), r)


def glued_cut(boundary: MonomialIdeal, base: MonomialIdeal, r: int) -> GluedComponents:
    """The glued components of ``base``, the S of :func:`glued_components`
    for the ``gs`` that generate ``boundary``, however S was built."""
    gs = boundary.gens
    us, vs = abs(boundary.xy[:, 1:] - boundary.xy[:, :-1]).tolist()
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


def _pairs_covered(gs: Sequence[Monomial], staircase: np.ndarray) -> bool:
    """(E*) for the boundary generators ``gs`` (descending y) over the ideal
    J whose least x at each level from its lowest generator up is
    ``staircase`` (as :func:`ideals.level_power` steps it): each
    ``g_a g_b J`` with ``b - a >= 2`` lies in the sum of the ``g_p g_q J``,
    ``a <= p <= q <= b``, other than ``(a, b)`` and one of ``(a, a)``,
    ``(b, b)``, chosen per pair.  Vacuous for two generators.

    With (A), ``I^(m+1) = (P) I^m``, it gives ``I^(m+j) = Q_j J`` for ``J =
    I^m`` and every j, where ``Q_j = sum_l (g_l, g_(l+1))^j``.  By (A),
    ``I^(m+j)`` is the sum of the ``g_N J`` over the index multisets N of
    size j, and those of span ``max N - min N <= 1`` make up ``Q_j J``.  By
    (E*), any other ``g_N J``, with ``a = min N`` and ``b = max N``, lies in
    the sum of the ``g_N' J``, ``N' = N - {a, b} + {p, q}`` over the allowed
    (p, q).  N' keeps the span only if it keeps a and b; then it holds fewer
    of the extreme e whose square was left out, or as many and fewer of the
    other.  So (span, count of e, count of the other) falls in the
    lexicographic order, and the rewriting ends in ``Q_j J``.  With both
    squares allowed it could cycle: ``{a, b, b} -> {a, a, b} -> {a, b, b}``.

    The staircase of ``g_p g_q J`` is a slice of J's, padded with its top value, plus
    ``x(g_p g_q)``; containment is ``>=`` at each level.  Per a, ``cover`` grows with b.
    """
    if len(gs) < 3:
        return True
    dx, dy = [g[0] - gs[0][0] for g in gs], [g[1] - gs[-1][1] for g in gs]
    top = 2 * dy[0] + len(staircase) - 1  # from here on every shift is at its top
    if 2 * dx[-1] + int(staircase[0]) >= EXP_LIMIT:
        return False  # beyond int64: not certified
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


#: The most generators a link template adds to its middle's first one:
#: with that one, 1025 int64 pairs, about 16 KB per middle.
_TEMPLATE_GENS = 1024


@dataclass(frozen=True)
class LinkTemplates:
    """The link of ``C_0 . H_1^ell . C_1 ... H_k^ell . C_k`` for any ell.

    ``components`` and ``middles`` are the anchored parts in link order.  The
    template of a middle H is its c-fold self-link ``link_blocks([(H, c)])``
    for a power of two c with ``c (mu(H) - 1) <= 1024``, so at most 16 KB;
    before H has one, H itself serves with ``c = 1``.  A run ``H^ell`` is q
    copies of the template and, if r > 0, H's r-fold link (``ell = q c +
    r``), which is the template's first ``r (mu(H) - 1) + 1`` generators less
    ``(0, (c - r) dist_y(H))``.  After each link a run whose ell reaches a
    larger such power of two leaves that many of its first copies, less
    their gcd, as H's new template in ``built``: one subtraction, no link of
    its own, so a first emission pays only that.  Templates and prefixes
    are anchored and canonical by construction, and the link kernel spends
    ``ceil(log2 q) + 2`` adds or fewer on a run rather than ``ceil(log2 ell)
    + 1``.
    """

    components: tuple[MonomialIdeal, ...]
    middles: tuple[MonomialIdeal, ...]
    built: dict[int, tuple[MonomialIdeal, int]] = field(default_factory=dict, init=False, repr=False, compare=False)

    def link(self, ell: int, origin: Monomial = (0, 0)) -> tuple[MonomialIdeal, int]:
        """The link for this ``ell`` times ``origin``, and the number of generators
        its writes filled (see :func:`link_blocks`)."""
        blocks, due = [(self.components[0], 1)], {}
        for i, (middle, component) in enumerate(zip(self.middles, self.components[1:])):
            h, (template, c) = middle.mu - 1, self.built.get(i, (middle, 1))
            want = 1 << max(0, int(min(ell, _TEMPLATE_GENS // h)).bit_length() - 1)
            if want > c:  # the run's first generator and its first `want` copies
                start = sum(reps * (part.mu - 1) for part, reps in blocks)
                due[i] = (slice(start, start + want * h + 1), want)
            q, r = divmod(ell, c)
            blocks.append((template, q))
            if r:
                prefix = template.xy[:, : r * h + 1] - ((0,), ((c - r) * middle.dist(Axis.Y),))
                blocks.append((MonomialIdeal._canonical(prefix), 1))
            blocks.append((component, 1))
        ideal, written = _link_counted(blocks, origin)
        for i, (run, c) in due.items():
            copies = ideal.xy[:, run]
            self.built[i] = (MonomialIdeal._canonical(copies - ((copies[0, 0],), (copies[1, -1],))), c)
        return ideal, written


def glued_power(glued: GluedComponents, ell: int) -> MonomialIdeal:
    """``sum_i (g_i, g_{i+1})^(r+1+ell) J`` assembled by linking."""
    if ell < 0:
        raise ValueError("ell must be non-negative")
    return LinkTemplates(glued.components, glued.middles).link(ell)[0]
