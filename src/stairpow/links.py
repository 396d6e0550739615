"""The link operation on bivariate monomial ideals.

Linking joins two anchored staircases so that they share exactly one
minimal generator, the link point: for the y-orientation the left ideal is
shifted up by the y-span of the right one, the right ideal is shifted right
by the x-span of the left one.  Generator counts therefore add minus one,
and a linked ideal can be split back into its parts by colon ideals at the
link points.  The x-link of a sequence is the y-link of the reversed
sequence, so every linked staircase is emitted by :func:`link_blocks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .ideals import (
    Axis,
    Monomial,
    MonomialIdeal,
    mon_gcd,
    _check_exponents,
)


def link_blocks(
    blocks: Sequence[tuple[MonomialIdeal, int]], origin: Monomial = (0, 0)
) -> list[Monomial]:
    """Generators of the y-link of anchored parts, each linked ``reps`` times.

    ``blocks`` are ``(part, reps)`` pairs in link order; the result is in
    canonical order and multiplied by the monomial ``origin``.  The full
    span is range-checked before anything is emitted, and each emitted
    generator costs exactly one exponent-pair addition.
    """
    spans = [(part.dist(Axis.X), part.dist(Axis.Y)) for part, _ in blocks]
    total_x = origin[0] + sum(dx * reps for (dx, _), (_, reps) in zip(spans, blocks))
    total_y = origin[1] + sum(dy * reps for (_, dy), (_, reps) in zip(spans, blocks))
    _check_exponents(total_x, total_y)

    gens: list[Monomial] = []
    x, y = origin[0], total_y
    for (part, reps), (dx, dy) in zip(blocks, spans):
        tail = part.gens[1:]
        for _ in range(reps):
            y -= dy
            # Every part after the first drops its top generator, which
            # coincides with the previous part's bottom one (the link point).
            gens.extend((a + x, b + y) for a, b in (tail if gens else part.gens))
            x += dx
    return gens


def link_point(left: MonomialIdeal, right: MonomialIdeal, axis: Axis = Axis.Y) -> Monomial:
    """The single generator shared by the two shifted staircases of a link."""
    if axis is Axis.X:
        left, right = right, left
    return (left.dist(Axis.X), right.dist(Axis.Y))


def link(left: MonomialIdeal, right: MonomialIdeal, axis: Axis = Axis.Y) -> MonomialIdeal:
    """The link of two ideals; both are anchored first."""
    return link_many([left, right], axis).ideal


@dataclass(frozen=True)
class LinkChain:
    """An ideal assembled as a chain of links, with its bookkeeping.

    ``parts`` are the anchored constituents, ``link_points`` the interior
    points h_1..h_k; ``boundary_points`` prepends the sentinel
    ``y^dist_y`` and appends ``x^dist_x`` of the assembled ideal.
    """

    parts: tuple[MonomialIdeal, ...]
    axis: Axis
    ideal: MonomialIdeal
    link_points: tuple[Monomial, ...]

    @property
    def boundary_points(self) -> tuple[Monomial, ...]:
        top = (0, self.ideal.dist(Axis.Y))
        bottom = (self.ideal.dist(Axis.X), 0)
        if self.axis is Axis.X:
            top, bottom = (self.ideal.dist(Axis.X), 0), (0, self.ideal.dist(Axis.Y))
        return (top,) + self.link_points + (bottom,)


def link_many(parts: Sequence[MonomialIdeal], axis: Axis = Axis.Y) -> LinkChain:
    """Left-fold link of a sequence of ideals, keeping all link points."""
    if not parts:
        raise ValueError("cannot link an empty sequence of ideals")
    anchored = tuple(p.anchor()[0] for p in parts)
    order = anchored if axis is Axis.Y else anchored[::-1]
    ideal = MonomialIdeal(tuple(link_blocks([(p, 1) for p in order])))
    # Link point j sits at the x-span of parts 0..j and the y-span of the rest.
    xs = accumulate(p.dist(Axis.X) for p in order)
    ys = list(accumulate(p.dist(Axis.Y) for p in reversed(order)))[::-1]
    points = tuple(zip(xs, ys[1:]))
    return LinkChain(
        parts=anchored,
        axis=axis,
        ideal=ideal,
        link_points=points if axis is Axis.Y else points[::-1],
    )


def unlink(
    ideal: MonomialIdeal, link_points: Sequence[Monomial], axis: Axis = Axis.Y
) -> list[MonomialIdeal]:
    """Recover the anchored parts of a linked ideal from its link points.

    Inverse of :func:`link_many` for the points it records: part i is the
    colon of the ideal by the gcd of the two surrounding link points (with
    axis-extreme sentinels at the ends).
    """
    if ideal.gcd() != (0, 0):
        raise ValueError("unlink expects an anchored ideal")
    points = [tuple(p) for p in link_points]
    gen_set = set(ideal.gens)
    for p in points:
        if p not in gen_set:
            raise ValueError(f"link point {p} is not a generator of the ideal")
    if axis is Axis.X:
        points.reverse()
    sentinels = [(0, ideal.dist(Axis.Y))] + points + [(ideal.dist(Axis.X), 0)]
    parts = [ideal.colon(mon_gcd(a, b)) for a, b in zip(sentinels, sentinels[1:])]
    return parts if axis is Axis.Y else parts[::-1]
