"""Fast computation of large powers of bivariate monomial ideals.

The pipeline: bound D from the persistence profile, compute I^D on one
level array (by the generators in P alone once ``I^(m+1) = (P) I^m`` is
certified), expand to I^s (s = D + r + 1) as a sum of staircase-pair
powers, split I^s into its stable components, and from then on assemble
any I^(s+l) by pure exponent shifting in time proportional to its own
generator count.  The generator count itself follows the exact linear
polynomial ``mu(I^s) + l * slope``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

from .ideals import (
    Axis,
    Monomial,
    MonomialIdeal,
    PrincipalIdealError,
    _certified_level_power,
    level_power,
    mon_pow,
    # ``ideal_sum`` and ``naive_power`` are unused here but stay importable
    # as ``engine.ideal_sum`` and ``engine.naive_power``: the benchmark's
    # span tracer patches those names.
    ideal_sum,
    naive_power,
)
from .geometry import (
    PersistenceProfile,
    persistence_profile,
    # Unused here too: the span tracer patches ``engine.stabilization_radius``.
    stabilization_radius,
)
from .links import boundary_points, link_blocks
# ``staircase_times`` is unused here too, patched by the span tracer.
from .segments import GluedComponents, glued_blocks, glued_components, staircase_sum, staircase_times

#: How many ideals' plans :func:`power` and :func:`mu_polynomial` keep.
_PLAN_CACHE_SIZE = 16


def require_power(n: int, profile: PersistenceProfile, method: str) -> None:
    """Refuse ``n < 1`` for every method, and ``n`` below ``D_P`` for
    ``"decomposed"`` or below ``s`` for ``"assembled"``."""
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    if method == "naive":
        return
    name, least = ("D_P", profile.D_P) if method == "decomposed" else ("s", profile.s)
    if n < least:
        raise ValueError(f"{method} power needs n >= {name} = {least}, got {n}")


def decomposed_power(
    ideal: MonomialIdeal, profile: PersistenceProfile, n: int, base: MonomialIdeal | None = None
) -> MonomialIdeal:
    """``I^n`` via one ``I^D`` and staircase-pair expansions.

    Valid for ``n >= D_P``, in the ideal's own coordinates: the sum of the
    ``(g_i, g_(i+1))^(n-D) I^D`` over P, which :func:`staircase_sum` builds
    on one level array, in work linear in its y-span rather than in its
    candidate products.  ``base`` may supply a precomputed ``I^D``; by
    default :func:`level_power` builds it with every generator of I.
    """
    require_power(n, profile, "decomposed")
    d = profile.D_P
    if base is None:
        base = level_power(ideal, d)
    if n == d:
        return base
    return staircase_sum(profile.chosen, n - d, base)


@dataclass(frozen=True)
class StableDecomposition:
    """Everything needed to emit G(I^n) for any n >= s by shifting alone.

    The components live in the working orientation: the ideal is anchored
    and, when ``axis`` is X, transposed so that the y-oriented machinery
    applies.  ``boundary_points`` are h_0..h_{k+1} of the oriented I^s.
    ``profile`` is the persistence profile of the ideal as given; ``D``,
    ``r``, ``s`` and ``axis`` read it.  ``reduction_number`` is the least
    ``m`` with ``I^(m+1) = (P) I^m`` that building ``I^D`` certified: 0 when
    P is all of G(I), None when it certified none below ``D``.
    """

    gcd_shift: Monomial
    profile: PersistenceProfile
    reduction_number: int | None
    gs: tuple[Monomial, ...]
    components: tuple[MonomialIdeal, ...]
    middles: tuple[MonomialIdeal, ...]
    boundary_points: tuple[Monomial, ...]
    base_power: MonomialIdeal

    @property
    def D(self) -> int:
        return self.profile.D_P

    @property
    def r(self) -> int:
        return self.profile.r

    @property
    def s(self) -> int:
        return self.profile.s

    @property
    def axis(self) -> Axis:
        return self.profile.axis

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
    """Compute the stable components of ``ideal``, afresh on every call.

    ``chosen`` optionally picks the boundary generator set P (between the
    persistent and the weakly persistent generators); ``D``, ``r`` and ``s``
    follow from its persistence profile.
    """
    return _Plan(ideal, chosen).decomposition


def _decompose(
    ideal: MonomialIdeal, profile: PersistenceProfile, base: MonomialIdeal, reduction_number: int | None
) -> StableDecomposition:
    """The stable components of ``ideal`` from ``base``, its ``I^D``.

    The one place that re-orients: P holds both extreme generators of the
    ideal, so the gcd of the ideal is also that of P, and ``gcd^D`` that of
    ``base``.
    """
    shift = ideal.gcd()
    chosen = MonomialIdeal(profile.chosen).shift((-shift[0], -shift[1]))
    g = mon_pow(shift, profile.D_P)
    j_base = base.shift((-g[0], -g[1]))
    if profile.axis is Axis.X:
        chosen, j_base = chosen.transpose(), j_base.transpose()

    glued: GluedComponents = glued_components(chosen.gens, j_base, profile.r)
    return StableDecomposition(
        gcd_shift=shift,
        profile=profile,
        reduction_number=reduction_number,
        gs=glued.gs,
        components=glued.components,
        middles=glued.middles,
        boundary_points=boundary_points(glued.base, glued.link_points),
        base_power=glued.base,
    )


class _Plan:
    """The profile of a non-principal ideal, with its ``I^D`` (in its own
    coordinates, with the reduction number certified while building it) and
    its decomposition built on first use."""

    def __init__(self, ideal: MonomialIdeal, chosen: Sequence[Monomial] | None = None) -> None:
        if ideal.is_principal:
            raise PrincipalIdealError("stable decomposition needs a non-principal ideal")
        self.ideal, self.profile = ideal, persistence_profile(ideal, chosen)

    @cached_property
    def certified_base(self) -> tuple[MonomialIdeal, int | None]:
        return _certified_level_power(self.ideal, self.profile.D_P, self.profile.chosen)

    @cached_property
    def decomposition(self) -> StableDecomposition:
        return _decompose(self.ideal, self.profile, *self.certified_base)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(ideal: MonomialIdeal) -> _Plan:
    """The plan :func:`power` and :func:`mu_polynomial` share for equal ideals."""
    return _Plan(ideal)


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
    decomposition.  The profile, ``I^D`` and the decomposition of the last
    16 ideals are kept for later calls, shared by equal ideals; ``G(I^n)``
    itself is emitted afresh by every call.
    """
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    if ideal.is_principal:
        return MonomialIdeal((mon_pow(ideal.gcd(), n),))
    plan = _plan(ideal)
    if n < plan.profile.D_P:
        return level_power(ideal, n)
    if n < plan.profile.s:
        return decomposed_power(ideal, plan.profile, n, base=plan.certified_base[0])
    return assemble_power(plan.decomposition, n)


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


def mu_polynomial(ideal: MonomialIdeal) -> MuPolynomial:
    """The generator-count polynomial of a non-principal ``ideal``, from the
    decomposition :func:`power` keeps for it."""
    dec = _plan(ideal).decomposition
    return MuPolynomial(s=dec.s, intercept=dec.base_power.mu, slope=dec.slope)

