"""Repeating staircase blocks of ideals ``(g, h)^n * J``.

For a fixed anchored ideal J and a staircase pair, the minimal generators
of ``(x^u, y^v)^(r+1+l) J`` repeat a fixed middle block l times between an
unchanging top and bottom block.  This module extracts those blocks (the
r-segments A, H, B), the glued components C_i / H_i of a sum of such
powers over consecutive boundary generators, and reassembles arbitrary
higher powers from them by linking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ideals import (
    Axis,
    Monomial,
    MonomialIdeal,
    _check_exponents,
    _minimalize_array,
    mon_gcd,
    pair_power,
)
from .geometry import pair_dist
# ``link_many`` is unused here but stays importable as ``segments.link_many``:
# the benchmark's span tracer patches that name.
from .links import link_blocks, link_many


def staircase_times(pair_g: Monomial, pair_h: Monomial, n: int, j_ideal: MonomialIdeal) -> MonomialIdeal:
    """``(g, h)^n * J`` by explicit products of the staircase with G(J)."""
    stair = pair_power(pair_g, pair_h, n)
    # The largest product exponents, checked in Python ints before the int64 add.
    _check_exponents(
        stair.gens[-1][0] + j_ideal.gens[-1][0], stair.gens[0][1] + j_ideal.gens[0][1]
    )
    a = np.asarray(stair.gens, dtype=np.int64)
    b = np.asarray(j_ideal.gens, dtype=np.int64)
    sums = (a[:, None, :] + b[None, :, :]).reshape(-1, 2)
    return MonomialIdeal(_minimalize_array(sums))


def _require_anchored(j_ideal: MonomialIdeal) -> None:
    if j_ideal.gcd() != (0, 0):
        raise ValueError("J must be anchored")


def _min_r(v: int, j_ideal: MonomialIdeal) -> int:
    return -(-j_ideal.dist(Axis.Y) // v)


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
    u: int
    v: int
    r: int
    alpha: int
    beta: int


def r_segments(u: int, v: int, j_ideal: MonomialIdeal, r: int) -> SegmentTriple:
    """Extract the repeating blocks of ``(x^u, y^v)^(r+1) J``.

    ``r`` must be at least ``ceil(dist_y(J) / v)`` so that the middle block
    has settled.
    """
    if u < 1 or v < 1:
        raise ValueError("u and v must be positive")
    _require_anchored(j_ideal)
    if r < _min_r(v, j_ideal):
        raise ValueError(f"r={r} below the stabilization bound {_min_r(v, j_ideal)}")
    base = staircase_times((0, v), (u, 0), r + 1, j_ideal)
    beta = min(b for _, b in base.gens if b >= r * v)
    (alpha,) = [a for a, b in base.gens if b == beta]
    if alpha < u:
        raise AssertionError("pivot generator left of the first staircase step")
    triple = SegmentTriple(
        A=base.colon((0, beta)),
        H=base.colon((alpha - u, beta)),
        B=base.colon((alpha, 0)),
        u=u,
        v=v,
        r=r,
        alpha=alpha,
        beta=beta,
    )
    if not (triple.beta < (r + 1) * v and triple.alpha <= (r + 1) * u):
        raise AssertionError("pivot generator outside the (r+1)-th staircase step")
    if not (triple.H.dist(Axis.X) == u and triple.H.dist(Axis.Y) == v):
        raise AssertionError("middle block does not span one staircase step")
    return triple


def one_segment_power(triple: SegmentTriple, ell: int) -> MonomialIdeal:
    """``(x^u, y^v)^(r+1+ell) J`` assembled as A . H^ell . B."""
    if ell < 0:
        raise ValueError("ell must be non-negative")
    return MonomialIdeal(tuple(link_blocks([(triple.A, 1), (triple.H, ell), (triple.B, 1)])))


@dataclass(frozen=True)
class GluedComponents:
    """Components of ``S = sum_i (g_i, g_{i+1})^(r+1) J`` ready for gluing.

    ``components`` are C_0..C_k and ``middles`` H_1..H_k, all anchored;
    ``link_points`` are the interior points h_1..h_k of S itself.
    """

    gs: tuple[Monomial, ...]
    r: int
    base: MonomialIdeal
    components: tuple[MonomialIdeal, ...]
    middles: tuple[MonomialIdeal, ...]
    link_points: tuple[Monomial, ...]

    @property
    def k(self) -> int:
        return len(self.gs) - 1


def glued_components(
    gs: Sequence[Monomial], j_ideal: MonomialIdeal, r: int
) -> GluedComponents:
    """Split one explicitly computed base power into its repeating components.

    ``gs`` are boundary generators g_1..g_{k+1} of an anchored ideal in
    descending y-order.  The components are read off the summed power S
    directly; the per-summand r-segments are never formed.
    """
    gs = tuple(tuple(g) for g in gs)
    if len(gs) < 2:
        raise ValueError("need at least two boundary generators")
    for g, h in zip(gs, gs[1:]):
        if not (g[0] < h[0] and g[1] > h[1]):
            raise ValueError("boundary generators must descend in y and ascend in x")
    if gs[0][0] != 0 or gs[-1][1] != 0:
        raise ValueError("boundary generators must span an anchored ideal")
    _require_anchored(j_ideal)
    vs = [pair_dist(g, h, Axis.Y) for g, h in zip(gs, gs[1:])]
    us = [pair_dist(g, h, Axis.X) for g, h in zip(gs, gs[1:])]
    needed = max(_min_r(v, j_ideal) for v in vs)
    if r < needed:
        raise ValueError(f"r={r} below the stabilization bound {needed}")

    summands = [
        staircase_times(g, h, r + 1, j_ideal) for g, h in zip(gs, gs[1:])
    ]
    base = summands[0]
    for s in summands[1:]:
        base = base + s

    k = len(gs) - 1
    points: list[Monomial] = []
    for i in range(k):
        threshold = r * vs[i] + (r + 1) * gs[i + 1][1]
        candidates = [g for g in base.gens if g[1] >= threshold]
        if not candidates:
            raise AssertionError("no generator above the link-point threshold")
        points.append(min(candidates, key=lambda g: g[1]))

    cuts = [(0, base.dist(Axis.Y))] + points + [(base.dist(Axis.X), 0)]
    components = tuple(
        base.colon(mon_gcd(a, b)) for a, b in zip(cuts, cuts[1:])
    )
    middles = tuple(
        base.colon((points[i][0] - us[i], points[i][1])) for i in range(k)
    )
    glued = GluedComponents(
        gs=gs,
        r=r,
        base=base,
        components=components,
        middles=middles,
        link_points=tuple(points),
    )
    for i in range(k):
        if not (middles[i].dist(Axis.X) == us[i] and middles[i].dist(Axis.Y) == vs[i]):
            raise AssertionError(f"middle block {i + 1} does not span its staircase step")
    return glued


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
    return MonomialIdeal(tuple(link_blocks(glued_blocks(glued.components, glued.middles, ell))))
