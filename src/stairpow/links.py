"""The link operation on bivariate monomial ideals.

Linking joins two anchored staircases so that they share exactly one
minimal generator, the link point: the left ideal is shifted up by the
y-span of the right one, the right ideal is shifted right by the x-span of
the left one.  Generator counts therefore add minus one, and a linked ideal
can be split back into its parts by colon ideals at the link points.  Links
are taken along y only; the x-link of a sequence is the y-link of the
reversed sequence.  :func:`_link_counted` writes every linked staircase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from .ideals import EXP_LIMIT, Axis, Monomial, MonomialIdeal, _check_exponents, _count, _MAX_COLUMNS, _monomial


def _run(part: MonomialIdeal, reps: int) -> tuple[np.ndarray, int, int, int, int, int]:
    """The record of ``reps`` linked copies of an anchored part for :func:`_link_counted`."""
    dy = part.dist(Axis.Y)
    return part.xy[:, 1:], part.mu - 1, dy, part.dist(Axis.X), dy, reps


def _link_counted(runs: Sequence[tuple], origin: Monomial) -> tuple[MonomialIdeal, int]:
    """The y-link of runs its callers checked, times ``origin``, and the number of generators its writes filled.

    A run ``(rest, h, top, dx, dy, reps)`` is ``reps`` linked copies of an
    anchored block spanning ``(dx, dy)`` whose generators after its first,
    ``(0, top)``, are the ``(2, h)`` array ``rest`` (``top`` is ``dy`` but
    for a template's prefix).  The origin, Python ints its caller read, the
    full span and the size are checked before any allocation; copies ``[c,
    2c)`` are copies ``[0, c)`` shifted by ``(c*dx, -c*dy)``.  A write is one
    1-D add to the x row and one to the y row, each with a Python-int offset.
    """
    x, y = origin
    _check_exponents(x, y)
    size, total_x, total_y = 1, x, y
    for _, h, _, dx, dy, reps in runs:
        size, total_x, total_y = size + h * reps, total_x + dx * reps, total_y + dy * reps
    _check_exponents(total_x, total_y)
    if size > _MAX_COLUMNS:  # before numpy's ValueError
        raise MemoryError(f"{size} generators, over the {_MAX_COLUMNS} one array holds")

    # Each copy of a block drops its top generator, which coincides with the
    # previous copy's bottom one (the link point); the blocks are anchored,
    # so the top generator of the very first copy is (origin_x, total_y).
    xy = np.empty((2, size), dtype=np.int64)
    xs, ys = xy[0], xy[1]  # by index: unpacking iterates the array, dearer on a cold cache
    xs[0], ys[0], y, start, written = x, total_y, total_y, 1, 1
    for rest, h, top, dx, dy, reps in runs:
        if reps and h:  # out[:, c*h + j] is column j of rest in copy c
            np.add(rest[0], x, out=xs[start : start + h])
            written += np.add(rest[1], y - top, out=ys[start : start + h]).shape[0]
            c = 1
            while c < reps:
                n, at = min(c, reps - c) * h, start + c * h
                np.add(xs[start : start + n], c * dx, out=xs[at : at + n])
                written += np.add(ys[start : start + n], -c * dy, out=ys[at : at + n]).shape[0]
                c *= 2
        x, y, start = x + dx * reps, y - dy * reps, start + h * reps
    return MonomialIdeal._canonical(xy), written


def _check_parts(components: Sequence[MonomialIdeal], middles: Sequence[MonomialIdeal]) -> None:
    """Refuse unanchored parts and one-generator middles, whose copies span nothing (a ValueError)."""
    if any(part.gcd() != (0, 0) for part in (*components, *middles)):
        raise ValueError("a link needs anchored parts")
    if any(middle.mu < 2 for middle in middles):
        raise ValueError("a linked middle needs two generators or more")


def link_runs(components: Sequence[MonomialIdeal], middles: Sequence[MonomialIdeal], ell: int) -> MonomialIdeal:
    """The link of ``C_0 . H_1^ell . C_1 ... H_k^ell . C_k`` as plain runs, with no
    templates: one kernel call, ``ceil(log2 ell) + 1`` writes per middle.  The parts
    are checked as :class:`LinkTemplates` checks them, and ell read, before anything is allocated."""
    ell = _count(ell, 0, "ell must be non-negative")
    _check_parts(components, middles)
    runs = [_run(components[0], 1)]
    for middle, end in zip(middles, components[1:]):
        runs += (_run(middle, ell), _run(end, 1))
    return _link_counted(runs, (0, 0))[0]


#: The most generators a link template adds to its middle's first one:
#: with that one, 1025 int64 pairs, about 16 KB per middle.
_TEMPLATE_GENS = 1024


def _template(middle: MonomialIdeal) -> tuple[np.ndarray, int, int, int, int]:
    """The record of a middle H's template (see :class:`LinkTemplates`): the
    c-fold self-link's generators after its first, c, and H's mu - 1 and spans."""
    h, dx, dy = middle.mu - 1, middle.dist(Axis.X), middle.dist(Axis.Y)
    c = 1 << (max(1, min(_TEMPLATE_GENS // h, (EXP_LIMIT - 1) // max(dx, dy))).bit_length() - 1)
    template = _link_counted([_run(middle, c)], (0, 0))[0] if c > 1 else middle
    return template.xy[:, 1:], c, h, dx, dy


@dataclass(frozen=True)
class LinkTemplates:
    """The link of ``C_0 . H_1^ell . C_1 ... H_k^ell . C_k`` for any ell.

    ``components`` and ``middles`` are the anchored parts in link order.  The
    template of a middle H is its c-fold self-link, built once, with the
    templates, for the largest power of two c with ``c (mu(H) - 1) <= 1024``
    and ``c max(dist_x H, dist_y H) < 2^63``, so at most 16 KB; where c = 1,
    H itself serves.  A run ``H^ell`` is q copies of the template and, if
    r > 0, H's r-fold link (``ell = q c + r``): a view of the template's
    first ``r (mu(H) - 1) + 1`` generators, written with the template's top,
    so lowered by ``(c - r) dist_y(H)``.  Nothing changes after that, so a
    link is a function of its arguments alone.  Unanchored parts and
    one-generator middles are refused once, when the templates are built
    (:func:`_check_parts`), and every part's spans are read there as Python ints; a
    link reads ell and the origin once, at its entry, and the kernel spends
    ``ceil(log2 q) + 2`` writes or fewer on a run, not ``ceil(log2 ell) + 1``.
    """

    components: tuple[MonomialIdeal, ...]
    middles: tuple[MonomialIdeal, ...]
    _ends: tuple[tuple, ...] = field(init=False, repr=False, compare=False)
    _templates: tuple[tuple, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_parts(self.components, self.middles)
        object.__setattr__(self, "_ends", tuple(_run(part, 1) for part in self.components))
        object.__setattr__(self, "_templates", tuple(map(_template, self.middles)))

    def link(self, ell: int, origin: Monomial = (0, 0)) -> tuple[MonomialIdeal, int]:
        """The link for this ``ell`` times ``origin``, and the number of generators its
        writes filled (see :func:`_link_counted`); both are read once, here, for the kernel."""
        ell, origin = _count(ell, 0, "ell must be non-negative"), _monomial(origin)
        runs = [self._ends[0]]
        for (rest, c, h, dx, dy), end in zip(self._templates, self._ends[1:]):
            q, r = divmod(ell, c)
            runs.append((rest, c * h, c * dy, c * dx, c * dy, q))
            if r:
                runs.append((rest[:, : r * h], r * h, c * dy, r * dx, r * dy, 1))
            runs.append(end)
        return _link_counted(runs, origin)


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
        ideal=_link_counted([_run(p, 1) for p in anchored], (0, 0))[0],
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
