"""The link operation on bivariate monomial ideals.

Linking joins two anchored staircases so that they share exactly one
minimal generator, the link point: the left ideal is shifted up by the
y-span of the right one, the right ideal is shifted right by the x-span of
the left one.  Generator counts therefore add minus one, and a linked ideal
can be split back into its parts by colon ideals at the link points.  Links
are taken along y only; the x-link of a sequence is the y-link of the
reversed sequence.  Every linked staircase is emitted by :func:`link_blocks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .ideals import Axis, Monomial, MonomialIdeal, _check_exponents


def link_blocks(
    blocks: Sequence[tuple[MonomialIdeal, int]], origin: Monomial = (0, 0)
) -> MonomialIdeal:
    """The y-link of anchored parts, each linked ``reps`` times.

    ``blocks`` are ``(part, reps)`` pairs in link order; the result is
    multiplied by the monomial ``origin``.  The parts must be anchored and
    each ``reps`` a non-negative integer (else ValueError), and the origin
    and the full span are range-checked before anything is allocated, so
    the staircase is canonical by construction.  Copies ``[c, 2c)`` of a
    part are copies ``[0, c)`` shifted by ``(c*dx, -c*dy)``: ``ceil(log2
    reps) + 1`` numpy adds per block, and exactly one exponent-pair addition
    per emitted generator.  Emission passes many copies of a middle as fewer
    copies of a template (see ``segments.LinkTemplates``).
    """
    return _link_counted(blocks, origin)[0]


def _link_counted(blocks: Sequence[tuple[MonomialIdeal, int]], origin: Monomial) -> tuple[MonomialIdeal, int]:
    """:func:`link_blocks` and the number of generators its writes filled."""
    if any(not isinstance(reps, (int, np.integer)) or reps < 0 for _, reps in blocks):
        raise ValueError("link_blocks expects a non-negative integer number of copies per part")
    if any(part.gcd() != (0, 0) for part, _ in blocks):
        raise ValueError("link_blocks expects anchored parts")
    _check_exponents(*origin)
    spans = [(part.dist(Axis.X), part.dist(Axis.Y)) for part, _ in blocks]
    total_x = origin[0] + sum(dx * reps for (dx, _), (_, reps) in zip(spans, blocks))
    total_y = origin[1] + sum(dy * reps for (_, dy), (_, reps) in zip(spans, blocks))
    _check_exponents(total_x, total_y)

    # Each copy of a part drops its top generator, which coincides with the
    # previous copy's bottom one (the link point); the parts are anchored, so
    # the top generator of the very first copy is (origin_x, total_y).
    sizes = [reps * (part.mu - 1) for part, reps in blocks]
    xy = np.empty((2, 1 + sum(sizes)), dtype=np.int64)
    xy[:, 0] = origin[0], total_y
    x, y, start, written = origin[0], total_y, 1, 1
    for (part, reps), (dx, dy), size in zip(blocks, spans, sizes):
        if size:  # out[:, c*h + j] is generator j + 1 of copy c
            out, h, c = xy[:, start : start + size], part.mu - 1, 1
            np.add(part.xy[:, 1:], ((x,), (y - dy,)), out=out[:, :h])
            written += h
            while c < reps:
                n = min(c, reps - c) * h
                np.add(out[:, :n], ((c * dx,), (-c * dy,)), out=out[:, c * h : c * h + n])
                written += n
                c *= 2
        x, y, start = x + dx * reps, y - dy * reps, start + size
    return MonomialIdeal._canonical(xy), written


def link_point(left: MonomialIdeal, right: MonomialIdeal) -> Monomial:
    """The single generator shared by the two shifted staircases of a link."""
    return (left.dist(Axis.X), right.dist(Axis.Y))


def link(left: MonomialIdeal, right: MonomialIdeal) -> MonomialIdeal:
    """The link of two ideals; both are anchored first."""
    return link_many([left, right]).ideal


def boundary_points(ideal: MonomialIdeal, link_points: Sequence[Monomial]) -> tuple[Monomial, ...]:
    """The link points of an anchored ideal between the sentinels
    ``y^dist_y`` and ``x^dist_x``."""
    return ((0, ideal.dist(Axis.Y)), *link_points, (ideal.dist(Axis.X), 0))


@dataclass(frozen=True)
class LinkChain:
    """An ideal assembled as a chain of links, with its bookkeeping.

    ``parts`` are the anchored constituents, ``link_points`` the interior
    points h_1..h_k; ``boundary_points`` prepends the sentinel
    ``y^dist_y`` and appends ``x^dist_x`` of the assembled ideal.
    """

    parts: tuple[MonomialIdeal, ...]
    ideal: MonomialIdeal
    link_points: tuple[Monomial, ...]

    @property
    def boundary_points(self) -> tuple[Monomial, ...]:
        return boundary_points(self.ideal, self.link_points)


def link_many(parts: Sequence[MonomialIdeal]) -> LinkChain:
    """Left-fold link of a sequence of ideals, keeping all link points."""
    if not parts:
        raise ValueError("cannot link an empty sequence of ideals")
    anchored = tuple(p.anchor()[0] for p in parts)
    # Link point j sits at the x-span of parts 0..j and the y-span of the rest.
    xs = accumulate(p.dist(Axis.X) for p in anchored)
    ys = list(accumulate(p.dist(Axis.Y) for p in reversed(anchored)))[::-1]
    return LinkChain(
        parts=anchored,
        ideal=link_blocks([(p, 1) for p in anchored]),
        link_points=tuple(zip(xs, ys[1:])),
    )


def unlink(ideal: MonomialIdeal, link_points: Sequence[Monomial]) -> list[MonomialIdeal]:
    """Recover the anchored parts of a linked ideal from its link points.

    Inverse of :func:`link_many` for the points it records, in link order.
    Part i is the slice of generators a..b from link point i to link point
    i+1 (the first and the last generator at the ends) less its corner
    ``(x_a, y_b)``: exactly the colon of the ideal by the gcd of the two
    boundary points around it, and canonical by construction.
    """
    if ideal.gcd() != (0, 0):
        raise ValueError("unlink expects an anchored ideal")
    points = [tuple(p) for p in link_points]
    if any(p[0] > q[0] for p, q in zip(points, points[1:])):
        raise ValueError(f"link points {points} are not in link order")
    # x ascends strictly, so one search finds the only candidate of each point.
    x, y = ideal.xy
    cuts = x.searchsorted([p[0] for p in points]).tolist()
    for p, i in zip(points, cuts):
        if i == ideal.mu or (x[i], y[i]) != p:
            raise ValueError(f"link point {p} is not a generator of the ideal")
    ends = [0, *cuts, ideal.mu - 1]
    return [MonomialIdeal._canonical(ideal.xy[:, a : b + 1] - ((x[a],), (y[b],))) for a, b in zip(ends, ends[1:])]
