"""Newton-polyhedron geometry of bivariate monomial ideals.

The lower-left boundary of the Newton polyhedron of an ideal drives
everything downstream: its corners are the persistent generators (powers of
which stay minimal forever), lattice generators on its edges are the weakly
persistent ones, and the derived constants ``delta_P``, ``d_P``, ``D_P``
bound the power from which the generator pattern of ``I^n`` stabilizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .ideals import Axis, Monomial, MonomialIdeal, PrincipalIdealError, _monomial


def _boundary(ideal: MonomialIdeal) -> tuple[tuple[Monomial, ...], tuple[Monomial, ...]]:
    """The generators on the compact boundary of the Newton polyhedron, in
    descending y-order, from one walk: its corners, and also those inside its edges."""
    if ideal.is_principal:
        raise PrincipalIdealError("persistent generators need a non-principal ideal")
    hull: list[Monomial] = []
    # The generators ascend in x, so this is Andrew's monotone chain: pop the
    # last point while it lies above the segment from its predecessor to p.
    for p in ideal.gens:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (p[1] - oy) >= (ay - oy) * (p[0] - ox):
                break
            hull.pop()
        hull.append(p)
    inner = zip(hull, hull[1:], hull[2:])  # a corner is on no segment between its neighbours
    corners = [b for a, b, c in inner if (b[0] - a[0]) * (c[1] - a[1]) != (b[1] - a[1]) * (c[0] - a[0])]
    return (hull[0], *corners, hull[-1]), tuple(hull)


def persistent_generators(ideal: MonomialIdeal) -> tuple[Monomial, ...]:
    """The corner generators of the Newton polyhedron, in descending y-order.

    Always contains the generators of maximal x- and maximal y-degree.
    Shift-invariant, so the ideal need not be anchored.
    """
    return _boundary(ideal)[0]


def weakly_persistent_generators(ideal: MonomialIdeal) -> tuple[Monomial, ...]:
    """Corners plus generators sitting exactly on a boundary edge."""
    return _boundary(ideal)[1]


@dataclass(frozen=True)
class PersistenceProfile:
    """The boundary generators of an ideal and its stabilization constants.

    ``chosen`` is a set P with ``persistent <= P <= weakly_persistent``
    (ordered in descending y-degree); all constants refer to it.
    ``r_x`` and ``r_y`` are the stabilization radii at ``D_P``, ``(r, axis)``
    is ``radius(D_P)`` and ``s = D_P + r + 1`` the stabilization exponent.
    """

    persistent: tuple[Monomial, ...]
    weakly_persistent: tuple[Monomial, ...]
    chosen: tuple[Monomial, ...]
    delta_P: int
    d_P: int
    D_P: int
    r_x: int
    r_y: int

    @property
    def axis(self) -> Axis:
        return _smaller(self.r_x, self.r_y)[1]

    @property
    def r(self) -> int:
        return _smaller(self.r_x, self.r_y)[0]

    @property
    def s(self) -> int:
        return self.D_P + self.r + 1

    def radius(self, level: int) -> tuple[int, Axis]:
        """``(r, axis)`` for cutting ``I^level``: the smaller of the two radii at ``level`` (at D_P the stored)."""
        if level == self.D_P:
            return _smaller(self.r_x, self.r_y)
        return _smaller(_radius(self.chosen, level, Axis.X), _radius(self.chosen, level, Axis.Y))


def _smaller(r_x: int, r_y: int) -> tuple[int, Axis]:
    """The smaller radius and its axis, y on a tie."""
    return (r_y, Axis.Y) if r_y <= r_x else (r_x, Axis.X)


def persistence_profile(
    ideal: MonomialIdeal, chosen: Sequence[Monomial] | None = None
) -> PersistenceProfile:
    """Compute the profile of ``ideal`` for the given (or default) choice of P.

    ``chosen`` may be any subsequence of the generators sandwiched between
    the persistent and the weakly persistent set, in descending y-order;
    the default is the persistent set itself.  Both sets come from one walk.
    Each entry is read as a monomial is; the profile keeps the ideal's own generators.
    """
    persistent, weakly = _boundary(ideal)
    if chosen is None:
        chosen = persistent
    else:
        given = tuple(map(_monomial, chosen))
        members = set(given)
        if len(members) != len(given):
            raise ValueError("chosen P must not repeat a generator")
        if not set(persistent) <= members <= set(weakly):
            raise ValueError("chosen P must satisfy P(I) <= P <= P*(I)")
        chosen = tuple(g for g in ideal.gens if g in members)
        if given != chosen:
            raise ValueError("chosen P must be ordered by descending y-degree")

    delta = max(min(h[0] - g[0], g[1] - h[1]) for g, h in zip(chosen, chosen[1:])) - 1
    if len(chosen) > 2:
        d_p = min(chosen[-1][0] - chosen[0][0], chosen[0][1] - chosen[-1][1]) - 2
    else:
        d_p = 0
    D = (ideal.mu - len(chosen)) * delta + len(chosen) * d_p
    return PersistenceProfile(
        persistent=persistent,
        weakly_persistent=weakly,
        chosen=chosen,
        delta_P=delta,
        d_P=d_p,
        D_P=D,
        r_x=_radius(chosen, D, Axis.X),
        r_y=_radius(chosen, D, Axis.Y),
    )


def _radius(chosen: tuple[Monomial, ...], D: int, axis: Axis) -> int:
    # P descends in y and holds both extreme generators, so its spans are those of I, as in d_P.
    i = 0 if axis is Axis.X else 1
    return -(-D * abs(chosen[-1][i] - chosen[0][i]) // min(abs(g[i] - h[i]) for g, h in zip(chosen, chosen[1:])))


def stabilization_radius(ideal: MonomialIdeal, profile: PersistenceProfile, D: int, axis: Axis) -> int:
    """The minimal repeat count r_axis(P, D) for the staircase blocks of I^D (P spans ``ideal``)."""
    return _radius(profile.chosen, D, axis)
