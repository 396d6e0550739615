"""Fast computation of large powers of bivariate monomial ideals.

The pipeline: bound D from the persistence profile, compute I^D on one
level array, expand to I^s (s = D + r + 1) as a sum of staircase-pair
powers, split I^s into its stable components, and from then on assemble
any I^(s+l) by pure exponent shifting in time proportional to its own
generator count.  The generator count itself follows the exact linear
polynomial ``mu(I^s) + l * slope``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ideals import (
    Axis,
    Monomial,
    MonomialIdeal,
    PrincipalIdealError,
    _check_exponents,
    ideal_sum,
    level_power,
    mon_pow,
    # ``naive_power`` is unused here but stays importable as
    # ``engine.naive_power``: the benchmark's span tracer patches that name.
    naive_power,
)
from .geometry import (
    PersistenceProfile,
    persistence_profile,
    # Unused here too: the span tracer patches ``engine.stabilization_radius``.
    stabilization_radius,
)
from .links import link_blocks
from .segments import GluedComponents, glued_blocks, glued_components, staircase_times


def require_power(n: int, profile: PersistenceProfile, method: str) -> None:
    """Refuse ``n`` below ``D_P`` for ``"decomposed"``, below ``s`` for ``"assembled"``."""
    name, least = ("D_P", profile.D_P) if method == "decomposed" else ("s", profile.s)
    if n < least:
        raise ValueError(f"{method} power needs n >= {name} = {least}, got {n}")


def decomposed_power(
    ideal: MonomialIdeal, profile: PersistenceProfile, n: int, base: MonomialIdeal | None = None
) -> MonomialIdeal:
    """``I^n`` via one ``I^D`` and staircase-pair expansions.

    Valid for ``n >= D_P``, in the ideal's own coordinates; each summand
    ``(g_i, g_(i+1))^(n-D) I^D`` is a window-minimum staircase, in work
    linear in its y-span rather than in its candidate products.  ``base`` may supply a precomputed ``I^D``;
    by default :func:`level_power` builds it.
    """
    require_power(n, profile, "decomposed")
    d = profile.D_P
    if base is None:
        base = level_power(ideal, d)
    if n == d:
        return base
    gs = profile.chosen
    return ideal_sum(
        [staircase_times(g, h, n - d, base) for g, h in zip(gs, gs[1:])]
    )


@dataclass(frozen=True)
class StableDecomposition:
    """Everything needed to emit G(I^n) for any n >= s by shifting alone.

    The components live in the working orientation: the ideal is anchored
    and, when ``axis`` is X, transposed so that the y-oriented machinery
    applies.  ``boundary_points`` are h_0..h_{k+1} of the oriented I^s.
    ``profile`` is the persistence profile of the ideal as given; ``D``,
    ``r``, ``s`` and ``axis`` are its values.
    """

    gcd_shift: Monomial
    axis: Axis
    profile: PersistenceProfile
    D: int
    r: int
    s: int
    gs: tuple[Monomial, ...]
    components: tuple[MonomialIdeal, ...]
    middles: tuple[MonomialIdeal, ...]
    boundary_points: tuple[Monomial, ...]
    base_power: MonomialIdeal

    @property
    def k(self) -> int:
        return len(self.gs) - 1

    @property
    def slope(self) -> int:
        return sum(h.mu - 1 for h in self.middles)

    def oriented(self, ideal: MonomialIdeal, n: int) -> MonomialIdeal:
        """Map I^n from original coordinates into the working orientation."""
        shifted = ideal.colon(mon_pow(self.gcd_shift, n))
        return shifted.transpose() if self.axis is Axis.X else shifted

    def unoriented(self, ideal: MonomialIdeal, n: int) -> MonomialIdeal:
        if self.axis is Axis.X:
            ideal = ideal.transpose()
        return ideal.shift(mon_pow(self.gcd_shift, n))


def stable_decomposition(
    ideal: MonomialIdeal, chosen: Sequence[Monomial] | None = None
) -> StableDecomposition:
    """Compute the stable components of ``ideal``.

    ``chosen`` optionally picks the boundary generator set P (between the
    persistent and the weakly persistent generators); ``D``, ``r`` and ``s``
    follow from its persistence profile.
    """
    if ideal.is_principal:
        raise PrincipalIdealError("stable decomposition needs a non-principal ideal")
    return _decompose(ideal, persistence_profile(ideal, chosen))


def _decompose(ideal: MonomialIdeal, profile: PersistenceProfile) -> StableDecomposition:
    """The stable components of ``ideal`` for its persistence profile.

    The one place that anchors: P holds both extreme generators of the
    ideal, so the gcd of the ideal is also that of P.
    """
    oriented, shift = ideal.anchor()
    chosen = MonomialIdeal(profile.chosen).shift((-shift[0], -shift[1]))
    if profile.axis is Axis.X:
        oriented, chosen = oriented.transpose(), chosen.transpose()

    j_base = level_power(oriented, profile.D_P)
    glued: GluedComponents = glued_components(chosen.gens, j_base, profile.r)
    boundary = (
        ((0, glued.base.dist(Axis.Y)),)
        + glued.link_points
        + ((glued.base.dist(Axis.X), 0),)
    )
    return StableDecomposition(
        gcd_shift=shift,
        axis=profile.axis,
        profile=profile,
        D=profile.D_P,
        r=profile.r,
        s=profile.s,
        gs=glued.gs,
        components=glued.components,
        middles=glued.middles,
        boundary_points=boundary,
        base_power=glued.base,
    )


def _emit(dec: StableDecomposition, ell: int) -> tuple[MonomialIdeal, int]:
    """Emit G(I^(s+ell)) in original coordinates; returns (ideal, additions)."""
    blocks = glued_blocks(dec.components, dec.middles, ell)
    if dec.axis is Axis.X:
        # The transpose of a y-link is the y-link of the transposed parts in
        # reverse order, so only the 2k+1 small parts are re-oriented.
        blocks = [(part.transpose(), reps) for part, reps in reversed(blocks)]
    ideal = link_blocks(blocks, mon_pow(dec.gcd_shift, dec.s + ell))
    return ideal, ideal.mu


def assemble_power_counted(dec: StableDecomposition, n: int) -> tuple[MonomialIdeal, int]:
    """Like :func:`assemble_power` but also reports the number of exponent
    additions spent emitting generators."""
    require_power(n, dec.profile, "assembled")
    return _emit(dec, n - dec.s)


def assemble_power(dec: StableDecomposition, n: int) -> MonomialIdeal:
    """``I^n`` for ``n >= s``, emitted band by band from the components."""
    return assemble_power_counted(dec, n)[0]


def power(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """``I^n`` through the cheapest applicable route.

    Principal ideals short-circuit to the single-generator power.  Below
    D_P :func:`level_power` runs; between D_P and s the staircase expansion;
    from s on the stable-component assembly, the only route that builds a
    decomposition.
    """
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    if ideal.is_principal:
        return MonomialIdeal((mon_pow(ideal.gcd(), n),))
    profile = persistence_profile(ideal)
    if n < profile.D_P:
        return level_power(ideal, n)
    if n < profile.s:
        return decomposed_power(ideal, profile, n)
    return assemble_power(_decompose(ideal, profile), n)


@dataclass(frozen=True)
class MuPolynomial:
    """The exact generator count ``mu(I^n) = intercept + (n - s) * slope``
    valid for all n >= s."""

    s: int
    intercept: int
    slope: int

    def __call__(self, n: int) -> int:
        if n < self.s:
            raise ValueError(f"mu polynomial only valid for n >= {self.s}")
        return self.intercept + (n - self.s) * self.slope


def mu_polynomial(ideal: MonomialIdeal, chosen: Sequence[Monomial] | None = None) -> MuPolynomial:
    dec = stable_decomposition(ideal, chosen)
    return MuPolynomial(s=dec.s, intercept=dec.base_power.mu, slope=dec.slope)


def shift_generators(dec: StableDecomposition, gens_n: MonomialIdeal, n: int) -> MonomialIdeal:
    """``G(I^(n+1))`` from ``G(I^n)`` by multiplying each generator with one
    or two boundary generators selected by its y-degree band.

    ``n`` must be at least s and ``gens_n`` must equal G(I^n).
    """
    if n < dec.s:
        raise ValueError(f"generator shifting needs n >= s = {dec.s}")
    oriented = dec.oriented(gens_n, n)
    x, y = oriented.xy
    _check_exponents(int(x[-1]) + dec.gs[-1][0], int(y[0]) + dec.gs[0][1])
    # Middle block i spans y from its last copy's bottom to that plus its y-span.
    ell = n - dec.s
    bottom = np.array([h[1] + ell * g[1] for h, g in zip(dec.boundary_points[1:-1], dec.gs[1:])])
    top = bottom + [h.dist(Axis.Y) for h in dec.middles]
    # Inside band i a generator takes g_i and g_(i+1); outside every band it
    # takes g_i of the first band below it (the bands descend), else g_k.
    inside = (bottom <= y[:, None]) & (y[:, None] <= top)
    rows, band = np.nonzero(inside)
    alone = np.flatnonzero(~inside.any(axis=1))
    gen = np.concatenate((rows, rows, alone))
    factor = np.concatenate((band, band + 1, np.count_nonzero(y[alone, None] <= top, axis=1)))
    products = oriented.xy[:, gen] + np.array(dec.gs).T[:, factor]
    # Sorted by x, equal products are neighbours; the constructor rejects any
    # other pair that shares an x.
    products = products[:, products[0].argsort()]
    fresh = np.concatenate(([True], (products[:, 1:] != products[:, :-1]).any(axis=0)))
    result = MonomialIdeal(products[:, fresh])
    if result.mu != oriented.mu + dec.slope:
        raise AssertionError("band shift produced a wrong generator count")
    return dec.unoriented(result, n + 1)


def back_shift_factor(
    dec: StableDecomposition, gen: Monomial, n: int
) -> tuple[int, Monomial]:
    """For a generator of I^n with n in {s+1, s+2}: the boundary generator
    it can be divided by to land in G(I^(n-1)).

    Returns ``(i, factor)`` with i the 1-based index of the surrounding
    boundary pair and ``factor`` in original coordinates.
    """
    ell = n - dec.s
    if ell not in (1, 2):
        raise ValueError("back shifting is only available for n in {s+1, s+2}")
    power_n = assemble_power(dec, n)
    if tuple(gen) not in set(power_n.gens):
        raise ValueError(f"{gen} is not a minimal generator of I^{n}")
    prev_gens = set(dec.oriented(assemble_power(dec, n - 1), n - 1).gens)

    f = dec.oriented(MonomialIdeal((gen,)), n).gcd()
    gs = dec.gs
    for i in range(1, dec.k + 1):
        if not (n * gs[i][1] <= f[1] <= n * gs[i - 1][1]):
            continue
        h = dec.boundary_points[i]
        threshold = h[1] + gs[i - 1][1] + (gs[i][1] if ell == 2 else 0)
        factor = gs[i - 1] if f[1] >= threshold else gs[i]
        reduced = (f[0] - factor[0], f[1] - factor[1])
        if reduced[0] >= 0 and reduced[1] >= 0 and reduced in prev_gens:
            return i, dec.unoriented(MonomialIdeal((factor,)), 1).gcd()
    raise AssertionError(f"no boundary factor found for {gen} at n={n}")
