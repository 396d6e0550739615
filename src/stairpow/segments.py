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

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ideals import (
    _BUCKET_SPAN_FACTOR, _NO_POINT, EXP_LIMIT, Axis, Monomial, MonomialIdeal, _check_exponents, _count,
    _MAX_COLUMNS, _level_staircase, ideal_sum, mon_divides, pair_power,
)
# ``link_many`` is unused here but stays importable as ``segments.link_many``:
# the benchmark's span tracer patches that name.
from .links import link_many, link_runs

#: The numpy calls that build and merge one pair's window table in
#: :func:`_pair_levels`, slicing aside: five allocations, eleven ufunc
#: calls, five reshapes and one write.  A slice of :func:`staircase_sum`
#: makes two.
_TABLE_CALLS = 22


def staircase_times(pair_g: Monomial, pair_h: Monomial, n: int, j_ideal: MonomialIdeal) -> MonomialIdeal:
    """``(g, h)^n * J``, the one-pair case of :func:`staircase_sum`."""
    return staircase_sum((pair_g, pair_h), n, j_ideal)


def staircase_sum(gs: Sequence[Monomial], n: int, j_ideal: MonomialIdeal) -> MonomialIdeal:
    """``sum_i (g_i, g_(i+1))^n * J`` over consecutive pairs of ``gs``, each
    pair in either order, as the minimum of pieces on one level array swept
    once.  A piece is the least x per level from its own bottom level on,
    exact at every generator's level and nowhere below the staircase.

    With F the cached staircase of J, its least x per level from its lowest
    generator up, each of the ``k n + 1`` generators q of ``Q_n`` (k pairs,
    each shared end power ``g_i^n`` once) is one slice ``F + q_x`` from level
    ``q_y`` on, made as it is min-ed in; slices are the pieces while they take
    fewer numpy calls than the tables (``_TABLE_CALLS``).  Each slice value is
    a point of ``q J``, and each minimal generator ``q j`` lies in its own q's
    slice at j's level.  Else the pieces are the pairs' window tables
    (:func:`_pair_levels`), a lone pair's table being the array; tables whose
    union spans more than ``_BUCKET_SPAN_FACTOR`` times their length are
    swept one by one.  Slices beyond that many levels per candidate fall back
    to the tables, and a pair beyond it, or beyond int64, is the product of
    its ``(n+1) * mu(J)`` candidates, which one :func:`ideal_sum` joins to the sweeps.
    """
    n = _count(n, 0, "power must be non-negative")
    pairs = list(zip(gs, gs[1:]))
    for g, h in pairs:
        if mon_divides(g, h) or mon_divides(h, g):
            raise ValueError(f"{g} and {h} are comparable; staircase power undefined")
    x1, y0, y1 = j_ideal.xy.item(0, -1), j_ideal.xy.item(1, -1), j_ideal.xy.item(1, 0)
    low, high = n * min(g[1] for g in gs) + y0, n * max(g[1] for g in gs) + y1  # the sum's lowest and highest levels
    # The largest product exponents, checked in Python ints before any int64 add.
    _check_exponents(n * max(g[0] for g in gs) + x1, high)
    slices, size = len(pairs) * n + 1, high - low + 1
    merged = 2 * slices < _TABLE_CALLS * len(pairs) and size <= _BUCKET_SPAN_FACTOR * slices * j_ideal.mu
    if merged:
        ideals, staircase = [], j_ideal.staircase
        pieces = (  # q = a^(n-t) b^t; a^n was the last pair's b^n
            (staircase + ((n - t) * a[0] + t * b[0]), (n - t) * a[1] + t * b[1] + y0)
            for i, (a, b) in enumerate(pairs) for t in range(i > 0, n + 1)
        )
    else:
        tables = [_pair_levels(g, h, n, j_ideal) for g, h in pairs]
        ideals = [pair_power(g, h, n) * j_ideal for (g, h), table in zip(pairs, tables) if table is None]
        pieces = [table for table in tables if table is not None]
        low = min((bottom for _, bottom in pieces), default=0)
        size = max((bottom + len(t) for t, bottom in pieces), default=0) - low
        merged = len(pieces) > 1 and size <= _BUCKET_SPAN_FACTOR * sum(len(t) for t, _ in pieces)
    if merged:
        levels = np.empty(size, dtype=np.int64)
        levels.fill(_NO_POINT)
        for piece, bottom in pieces:
            view = levels[bottom - low : bottom - low + len(piece)]
            np.minimum(view, piece, out=view)
        pieces = [(levels, low)]
    ideals += [MonomialIdeal._canonical(_level_staircase(levels, low)) for levels, low in pieces]
    return ideal_sum(ideals)


def _pair_levels(
    pair_g: Monomial, pair_h: Monomial, n: int, j_ideal: MonomialIdeal
) -> tuple[np.ndarray, int] | None:
    """The least x per y level of ``(g, h)^n * J`` from its lowest level on,
    exact at every generator's level and nowhere below the staircase, and
    that level; None where the candidate product is the cheaper route.  The
    caller has checked the pair and the largest exponents.

    With g the pair member of smaller x, ``u = h_x - g_x``, ``v = g_y - h_y``
    and ``F(t)`` the least x of G(J) at most t above its lowest generator
    (J's cached :attr:`~ideals.MonomialIdeal.staircase` up to J's top, x0 above),
    the entry at height ``n*h_y + c + q*v`` (``0 <= c < v``) is ``n*h_x -
    q*u`` plus the least row t of the table ``F(c + t*v) + t*u`` over the
    window ``[max(0, q - n), min(q, top)]``, ``top = floor(dist_y(J) / v)``:
    a sliding window minimum (van Herk 1992; Gil and Werman 1993) over the
    top + 1 head rows alone, at most ``min(n, top) + 1`` wide, and rows top
    to n all take the head's full minimum.  Row t of window q is a point of
    ``g^(q-t) h^(n-q+t) J``, and a generator ``g^a h^(n-a) j`` is row
    ``floor((j_y - y0) / v) <= top`` of its own level's window, so the entry
    at every generator's level is exact.  None past ``_BUCKET_SPAN_FACTOR``
    levels per candidate, up to which the candidate product sweeps them
    densely too, or beyond int64.
    """
    g, h = sorted((pair_g, pair_h))
    x0, x1, y0, y1 = j_ideal.xy.item(0, 0), j_ideal.xy.item(0, -1), j_ideal.xy.item(1, -1), j_ideal.xy.item(1, 0)
    u, v = h[0] - g[0], g[1] - h[1]
    top = (y1 - y0) // v
    rows = n + 1 + top
    if rows * v > _BUCKET_SPAN_FACTOR * (n + 1) * j_ideal.mu or rows * u + x1 - x0 >= EXP_LIMIT:
        return None
    if rows * v > _MAX_COLUMNS:  # before numpy's ValueError
        raise MemoryError(f"up to {rows * v} generators, over the {_MAX_COLUMNS} one array holds")
    # Pad w rows in front and cut blocks of w + 1 rows: the head window
    # [p - w, p] is a block suffix from row p plus a block prefix up to p + w.
    w = min(n, top)
    blocks = -(-(2 * w + top + 1) // (w + 1))
    padded = np.empty((blocks * (w + 1), v), dtype=np.int64)
    padded.fill(_NO_POINT)
    head = padded[w : w + top + 1]  # row t, column c: F(c + t*v) - x0
    levels = head.reshape(-1)
    np.subtract(j_ideal.staircase, x0, out=levels[: y1 - y0 + 1])
    levels[y1 - y0 + 1 :] = 0
    head += np.arange(0, (top + 1) * u, u, dtype=np.int64)[:, None]
    padded = padded.reshape(blocks, w + 1, v)
    suffix = np.empty(padded.shape, dtype=np.int64)
    np.minimum.accumulate(padded[:, ::-1], axis=1, out=suffix[:, ::-1])
    np.minimum.accumulate(padded, axis=1, out=padded)
    window = np.minimum(suffix.reshape(-1, v)[: w + top + 1], padded.reshape(-1, v)[w : 2 * w + top + 1])
    # Output row q is window row q below w, row w up to n and q - n + w past n.
    steps = np.arange(-n * h[0] - x0, rows * u - n * h[0] - x0, u, dtype=np.int64)[:, None]
    table = np.empty((rows, v), dtype=np.int64)
    np.subtract(window[:w], steps[:w], out=table[:w])
    np.subtract(window[w], steps[w : n + 1], out=table[w : n + 1])
    np.subtract(window[w + 1 :], steps[n + 1 :], out=table[n + 1 :])
    return table.reshape(-1), n * h[1] + y0


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
    r = _count(r, needed, f"r={r} below the stabilization bound {needed}")
    return glued_cut(boundary.gens, staircase_sum(boundary.gens, r + 1, j_ideal), r)


def glued_cut(gs: tuple[Monomial, ...], base: MonomialIdeal, r: int) -> GluedComponents:
    """The glued components of ``base``, the anchored S of
    :func:`glued_components` for the boundary generators ``gs``, however S was built.

    Link point i is the lowest generator at or above ``r v_i + (r + 1)
    y(g_(i+1))``, a threshold that falls with i.  Component i is the part
    :func:`unlink` gives from link point i to i + 1, and middle i is ``S :
    (a - u_i, b)`` at link point (a, b): the run from the last generator with
    ``x <= a - u_i`` to the point, less ``(a - u_i, b)``, its first x
    clamped to 0.  Each part is one subtraction of its corner; a middle spans
    u_i in x by construction, and must span v_i in y: its top and the points
    are read as Python ints, one scalar at a time, not gathered.
    """
    us, vs = [h[0] - g[0] for g, h in zip(gs, gs[1:])], [g[1] - h[1] for g, h in zip(gs, gs[1:])]
    # y descends, so one search of the ascending reversed column counts the
    # generators at or above each threshold; the first count is the least.
    x, y = base.xy[0], base.xy[1]
    above = len(y) - y[::-1].searchsorted([r * v + (r + 1) * g[1] for v, g in zip(vs, gs[1:])])
    if not above[0]:
        raise AssertionError("no generator above the link-point threshold")
    cuts = (above - 1).tolist()  # the link points' indices
    xs, ys = [x.item(c) for c in cuts], [y.item(c) for c in cuts]
    # One past each middle's first generator; a middle that would start
    # before the first generator reads the last one's y, 0, as its top.
    lows = x.searchsorted([a - u for a, u in zip(xs, us)], "right").tolist()
    for i, (low, b, v) in enumerate(zip(lows, ys, vs)):
        if y.item(low - 1) - b != v:
            raise AssertionError(f"middle block {i + 1} does not span its staircase step")
    ends = [0, *cuts, len(y) - 1]
    components = tuple(
        MonomialIdeal._canonical(base.xy[:, i : j + 1] - ((a,), (b,)))
        for i, j, a, b in zip(ends, ends[1:], [0, *xs], [*ys, 0])
    )
    middles = []
    for i, j, a, b, u in zip(lows, cuts, xs, ys, us):
        middle = base.xy[:, i - 1 : j + 1] - ((a - u,), (b,))
        middle[0, 0] = 0
        middles.append(MonomialIdeal._canonical(middle))
    return GluedComponents(gs, base, components, tuple(middles), tuple(zip(xs, ys)))


def _pairs_covered(gs: Sequence[Monomial]) -> Callable[[np.ndarray], bool]:
    """(E*) for the boundary generators ``gs`` (descending y), planned once
    for every J: the predicate that decides it over the ideal J whose least
    x at each level from its lowest generator up is the staircase F it is
    given (as :func:`ideals.level_power` steps it).  (E*): each ``g_a g_b J``
    with ``b - a >= 2`` lies in the sum of the ``g_p g_q J``, ``a <= p <= q
    <= b``, other than ``(a, b)`` and one of ``(a, a)``, ``(b, b)``, chosen
    per pair.  Vacuous for two generators.

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

    (E*) at ``I^j`` for ``j >= m`` implies it at ``I^(j+1)``, with the same
    e per pair: by (A), ``g_a g_b I^(j+1) = sum_l g_l g_a g_b I^j``, in
    ``sum_l g_l sum g_p g_q I^j = sum g_p g_q (P) I^j = sum g_p g_q
    I^(j+1)`` over the allowed (p, q).

    Each call decides (E*) at every level below ``top``, from the products
    ``g_p g_q`` planned here, which lie ``low`` above ``g_last^2`` and
    ``lift`` right of ``g_first^2``, width by width.  Write ``U(i, j)`` for
    the sum of the ``g_p g_q J``, ``i <= p <= q <= j``.  Keeping ``(a, a)``,
    the allowed sum is ``U(a, b - 1)`` plus the ``g_p g_b J``, ``a < p <
    b``; keeping ``(b, b)``, it is ``U(a + 1, b)`` plus the ``g_a g_q J``,
    ``a < q < b``.  One add writes each product's staircase; then, width by
    width, each partial sum is the last one plus one product, and
    containment is ``>=`` at each level.  A width that fails ends the call;
    one that holds puts each ``g_a g_b J`` in one of its allowed sums, both
    within ``U(a, b - 1) + U(a + 1, b)``, which is then ``U(a, b)``: one
    minimum per staircase.

    A call takes ``products * top`` int64 entries: ``top = (j + 2) dist_y(I)
    + 1`` for ``J = I^j``, as P holds I's extreme generators, and the level
    kernel asks only on spans within ``_BUCKET_SPAN_FACTOR * mu(I)``.
    Nothing is certified where ``g_last^2 J`` would leave int64 in x, or
    where twice the y-span of ``gs`` would.
    """
    k = len(gs)
    if k < 3:
        return lambda staircase: True
    dx, dy = [g[0] - gs[0][0] for g in gs], [g[1] - gs[-1][1] for g in gs]
    if 2 * max(dx[-1], dy[0]) >= EXP_LIMIT:
        return lambda staircase: False
    # The products g_p g_q, width q - p by width and each width by p, and each width's first.
    products = [(p, p + w) for w in range(k) for p in range(k - w)]
    widths = [w * k - w * (w - 1) // 2 for w in range(k + 1)]
    low, lift = [dy[p] + dy[q] for p, q in products], [dx[p] + dx[q] for p, q in products]

    def covered(staircase: np.ndarray) -> bool:
        if 2 * dx[-1] + staircase.item(0) >= EXP_LIMIT:
            return False  # beyond int64: not certified
        top = len(staircase) + 2 * dy[0]  # from here on, every g_p g_q J's staircase is constant
        extended = np.empty(top, dtype=np.int64)  # F, constant above its top
        extended[: len(staircase)], extended[len(staircase) :] = staircase, staircase[-1]
        shifted = np.empty((len(low), top), dtype=np.int64)
        shifted.fill(_NO_POINT)  # empty below its lowest level
        for row, y, x in zip(shifted, low, lift):
            np.add(extended[: top - y], x, out=row[y:])
        square, step, *wider = (shifted[widths[w] : widths[w + 1]] for w in range(len(widths) - 1))
        union = np.minimum(np.minimum(square[:-1], square[1:]), step)  # U(a, a + 1)
        with_b, with_a = step[1:], step[:-1]  # the g_p g_b J and the g_a g_q J of width 2
        for target in wider:
            kept = np.logical_and.reduce(target >= np.minimum(union[:-1], with_b), axis=1)
            kept |= np.logical_and.reduce(target >= np.minimum(union[1:], with_a), axis=1)
            if not np.logical_and.reduce(kept):
                return False
            if len(target) > 1:
                union = np.minimum(union[:-1], union[1:])
                with_b, with_a = np.minimum(with_b[1:], target[1:]), np.minimum(with_a[:-1], target[:-1])
        return True

    return covered


def glued_power(glued: GluedComponents, ell: int) -> MonomialIdeal:
    """``sum_i (g_i, g_{i+1})^(r+1+ell) J`` assembled by linking, as plain runs."""
    return link_runs(glued.components, glued.middles, ell)
