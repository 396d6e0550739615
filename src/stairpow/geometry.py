"""Newton-polyhedron geometry of bivariate monomial ideals.

The lower-left boundary of the Newton polyhedron of an ideal drives
everything downstream: its corners are the persistent generators (powers of
which stay minimal forever), lattice generators on its edges are the weakly
persistent ones, and the derived constants ``delta_P``, ``d_P``, ``D_P``
bound the power from which the generator pattern of ``I^n`` stabilizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideals import Axis, Monomial, MonomialIdeal, PrincipalIdealError


def pair_dist(g: Monomial, h: Monomial, axis: Axis) -> int:
    i = 0 if axis is Axis.X else 1
    return abs(g[i] - h[i])


def _lower_hull(ideal: MonomialIdeal, collinear: bool) -> tuple[Monomial, ...]:
    """The generators on the compact boundary of the Newton polyhedron, in
    descending y-order: its corners, and with ``collinear`` also the
    generators inside its edges."""
    if ideal.is_principal:
        raise PrincipalIdealError("persistent generators need a non-principal ideal")
    hull: list[Monomial] = []
    # The generators ascend in x, so this is Andrew's monotone chain: pop the
    # last point while it lies above the segment from its predecessor to p,
    # or on it unless ``collinear``.
    for p in ideal.gens:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            cross = (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox)
            if cross > 0 or (cross == 0 and collinear):
                break
            hull.pop()
        hull.append(p)
    return tuple(hull)


def persistent_generators(ideal: MonomialIdeal) -> tuple[Monomial, ...]:
    """The corner generators of the Newton polyhedron, in descending y-order.

    Always contains the generators of maximal x- and maximal y-degree.
    Shift-invariant, so the ideal need not be anchored.
    """
    return _lower_hull(ideal, collinear=False)


def weakly_persistent_generators(ideal: MonomialIdeal) -> tuple[Monomial, ...]:
    """Corners plus generators sitting exactly on a boundary edge."""
    return _lower_hull(ideal, collinear=True)


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
        """``(r, axis)`` for cutting ``I^level``: the smaller of the two radii at ``level``."""
        return _smaller(*(_radius(self.chosen, level, axis) for axis in (Axis.X, Axis.Y)))


def _smaller(r_x: int, r_y: int) -> tuple[int, Axis]:
    """The smaller radius and its axis, y on a tie."""
    return (r_y, Axis.Y) if r_y <= r_x else (r_x, Axis.X)


def persistence_profile(
    ideal: MonomialIdeal, chosen: tuple[Monomial, ...] | None = None
) -> PersistenceProfile:
    """Compute the profile of ``ideal`` for the given (or default) choice of P.

    ``chosen`` may be any subsequence of the generators sandwiched between
    the persistent and the weakly persistent set, in descending y-order;
    the default is the persistent set itself.
    """
    persistent = persistent_generators(ideal)
    weakly = weakly_persistent_generators(ideal)
    if chosen is None:
        chosen = persistent
    else:
        chosen = tuple(chosen)
        weakly_set = set(weakly)
        if not set(persistent) <= set(chosen) <= weakly_set:
            raise ValueError("chosen P must satisfy P(I) <= P <= P*(I)")
        if list(chosen) != [g for g in ideal.gens if g in set(chosen)]:
            raise ValueError("chosen P must be ordered by descending y-degree")

    delta = max(
        min(pair_dist(g, h, Axis.X), pair_dist(g, h, Axis.Y)) - 1
        for g, h in zip(chosen, chosen[1:])
    )
    if len(chosen) > 2:
        d_p = min(ideal.dist(Axis.X), ideal.dist(Axis.Y)) - 2
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
    # P holds both extreme generators, so its span on ``axis`` is dist(I).
    min_pair = min(pair_dist(g, h, axis) for g, h in zip(chosen, chosen[1:]))
    return -(-D * pair_dist(chosen[0], chosen[-1], axis) // min_pair)


def stabilization_radius(ideal: MonomialIdeal, profile: PersistenceProfile, D: int, axis: Axis) -> int:
    """The minimal repeat count r_axis(P, D) for the staircase blocks of I^D (P spans ``ideal``)."""
    return _radius(profile.chosen, D, axis)
