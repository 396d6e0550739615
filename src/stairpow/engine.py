"""Fast computation of large powers of bivariate monomial ideals.

The pipeline: bound D from the persistence profile, run one level array up
to the onset m (by the generators in P alone once ``I^(m+1) = (P) I^m`` is
certified), where (E*) certifies ``I^(m+j)`` to be the sum of the
staircase-pair powers ``(g_i, g_(i+1))^j I^m`` (see
``segments._pairs_covered``), else up to D; expand to I^s as that sum, cut
I^s into its stable components, and from then on assemble any I^(s+l) by
pure exponent shifting in time proportional to its own generator count,
``mu(I^s) + l * slope``.  :func:`stable_decomposition` cuts at the paper's
``s = D + r + 1``; :func:`power` and :func:`mu_polynomial` at the onset's.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

# ``ideal_sum``, ``naive_power``, ``stabilization_radius``, ``glued_components``
# and ``staircase_times`` are unused here but stay importable from ``engine``:
# the benchmark's span tracer patches those names.
from .ideals import (
    Axis, ExponentOverflowError, Monomial, MonomialIdeal, _certified_level_power, ideal_sum,
    level_power, mon_pow, naive_power,
)
from .geometry import PersistenceProfile, persistence_profile, stabilization_radius
from .links import boundary_points
from .segments import (
    GluedComponents, LinkTemplates, _pairs_covered, glued_components, glued_cut, staircase_sum,
    staircase_times,
)

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
    base = level_power(ideal, d) if base is None else base
    return staircase_sum(profile.chosen, n - d, base) if n > d else base


@dataclass(frozen=True)
class StableDecomposition(GluedComponents):
    """Everything needed to emit G(I^n) for any n >= s by shifting alone:
    the glued components of I^s in the working orientation (the ideal
    anchored and, when ``axis`` is X, transposed), with what places them.

    ``base_power`` is that I^s and ``boundary_points`` its h_0..h_{k+1}.
    ``profile`` is the persistence profile of the ideal as given.  ``D`` is the level of
    the power cut, and ``r``, ``axis``, ``s = D + r + 1`` follow as the profile's at D_P.
    ``reduction_number`` is the least ``m`` with ``I^(m+1) = (P) I^m``: 0
    when P is all of G(I), None when there is none below ``D_P``.
    """

    gcd_shift: Monomial
    profile: PersistenceProfile
    reduction_number: int | None
    D: int
    r: int
    axis: Axis

    @property
    def base_power(self) -> MonomialIdeal:
        return self.base

    @property
    def boundary_points(self) -> tuple[Monomial, ...]:
        return boundary_points(self.base, self.link_points)

    @property
    def s(self) -> int:
        return self.D + self.r + 1

    @property
    def k(self) -> int:
        return len(self.gs) - 1

    @property
    def slope(self) -> int:
        return sum(h.mu - 1 for h in self.middles)

    @cached_property
    def emission_templates(self) -> LinkTemplates:
        """The link templates of :func:`_emit`, in the ideal's own orientation:
        on axis X those of the transposed parts in reverse order, since the
        transpose of a y-link is the y-link of the transposed parts reversed."""
        parts = (self.components, self.middles)
        if self.axis is Axis.X:
            parts = (tuple(p.transpose() for p in reversed(ps)) for ps in parts)
        return LinkTemplates(*parts)

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
    follow from its persistence profile.  I^s is built from the onset m.
    """
    plan = _Plan(ideal, chosen)
    return _decompose(plan, plan.profile.D_P, plan.profile.r, plan.profile.axis)


def _decompose(plan: _Plan, level: int, r: int, axis: Axis) -> StableDecomposition:
    """The stable components of the plan's ideal cut at ``level`` (D_P or the
    onset), whose ``(r, axis)`` is ``profile.radius(level)``, from its ``I^s``
    for ``s = level + r + 1``.

    The one place that re-orients, and only P and the plan's ``I^m``: P
    holds both extreme generators of the ideal, so the gcd of the ideal is
    also that of P, and ``gcd^m`` that of I^m.  I^s is then summed in the
    working orientation as ``staircase_sum(P', s - m, I^m')``; ``s > m``.
    """
    profile, shift, m = plan.profile, plan.ideal.gcd(), plan.m
    chosen = MonomialIdeal(profile.chosen).shift((-shift[0], -shift[1]))
    g = mon_pow(shift, m)
    base = plan.base.shift((-g[0], -g[1]))
    if axis is Axis.X:
        chosen, base = chosen.transpose(), base.transpose()
    glued = glued_cut(chosen, staircase_sum(chosen.gens, level + r + 1 - m, base), r)
    return StableDecomposition(
        **vars(glued), gcd_shift=shift, profile=profile, reduction_number=plan.reduction_number, D=level, r=r, axis=axis
    )


class _Plan:
    """The profile of a non-principal ideal, its onset m and what is built
    from there on first use.  m is the first level from the reduction number
    that (E*) certifies in the level kernel's run to D_P, else D_P; ``m +
    r(m)`` grows with m, so an onset's s comes first.  ``searched`` is that
    run's I^m, None after a give-up, on a sparse span or past int64."""

    def __init__(self, ideal: MonomialIdeal, chosen: Sequence[Monomial] | None = None) -> None:
        self.ideal, self.profile = ideal, persistence_profile(ideal, chosen)
        d, gs = self.profile.D_P, self.profile.chosen
        try:
            found = _certified_level_power(ideal, d, gs, lambda levels: _pairs_covered(gs, levels))
        except ExponentOverflowError:  # I^D_P leaves int64: the powers below D_P need no onset
            found = d, None, None
        self.m, self.searched, self.reduction_number = found

    @cached_property
    def base(self) -> MonomialIdeal:
        """I^m: the search's, or else I^D_P by the level kernel with P."""
        return self.searched or level_power(self.ideal, self.m, self.profile.chosen)

    @cached_property
    def radius(self) -> tuple[int, Axis]:
        """``(r, axis)`` at the onset level."""
        return self.profile.radius(self.m)

    @cached_property
    def s(self) -> int:
        return self.m + self.radius[0] + 1

    @cached_property
    def decomposition(self) -> StableDecomposition:
        return _decompose(self, self.m, *self.radius)

    @property
    def polynomial(self) -> MuPolynomial:
        """``mu(I^n)`` from the onset's s on, read off its decomposition."""
        dec = self.decomposition
        return MuPolynomial(s=dec.s, intercept=dec.base_power.mu, slope=dec.slope)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(ideal: MonomialIdeal) -> _Plan:
    """The plan :func:`power` and :func:`mu_polynomial` share for equal ideals."""
    return _Plan(ideal)


def _emit(dec: StableDecomposition, ell: int) -> tuple[MonomialIdeal, int]:
    """Emit G(I^(s+ell)) in original coordinates; returns (ideal, generators written).

    One link of the decomposition's :class:`LinkTemplates`, times ``gcd^(s+ell)``:
    about ``2k + 1 + sum_i (ceil(log2 q_i) + 1)`` numpy adds for ``q_i = ell // c_i``
    once the templates have grown.  The first emission links plain copies and
    leaves the templates behind, cut from its output.
    """
    return dec.emission_templates.link(ell, mon_pow(dec.gcd_shift, dec.s + ell))


def assemble_power_counted(dec: StableDecomposition, n: int) -> tuple[MonomialIdeal, int]:
    """Like :func:`assemble_power` but also reports the number of generators
    the link kernel wrote, which the mu polynomial predicts."""
    n = operator.index(n)
    if n < dec.s:  # s >= 1
        raise ValueError(f"assembled power needs n >= s = {dec.s}, got {n}")
    return _emit(dec, n - dec.s)


def assemble_power(dec: StableDecomposition, n: int) -> MonomialIdeal:
    """``I^n`` for ``n >= s``, emitted band by band from the components."""
    return assemble_power_counted(dec, n)[0]


def power(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """``I^n`` through the cheapest applicable route.

    Principal ideals short-circuit to the single-generator power.  Below
    the onset m (D_P unless certified earlier) :func:`level_power` runs;
    from m the staircase expansion of ``I^m``; from its ``s = m + r + 1``
    the stable-component assembly, the only route that builds a
    decomposition.  The profile, onset and decomposition of the last 16
    ideals are kept for later calls, shared by equal ideals; ``G(I^n)``
    itself is emitted afresh by every call.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    if ideal.is_principal:
        return MonomialIdeal((mon_pow(ideal.gcd(), n),))
    plan = _plan(ideal)
    if n < plan.m:
        return level_power(ideal, n)
    if n < plan.s:  # I^n = staircase_sum(P, n - m, I^m): by (A) and (E*), or the paper at D_P
        return staircase_sum(plan.profile.chosen, n - plan.m, plan.base) if n > plan.m else plan.base
    return assemble_power(plan.decomposition, n)


@dataclass(frozen=True)
class MuPolynomial:
    """The exact generator count ``mu(I^n) = intercept + (n - s) * slope``
    valid for all n >= s."""

    s: int
    intercept: int
    slope: int

    def __call__(self, n: int) -> int:
        n = operator.index(n)
        if n < self.s:
            raise ValueError(f"mu polynomial only valid for n >= {self.s}")
        return self.intercept + (n - self.s) * self.slope


def mu_polynomial(ideal: MonomialIdeal) -> MuPolynomial:
    """The generator-count polynomial of a non-principal ``ideal``, valid from
    the onset's s on: that of the decomposition :func:`power` keeps for it."""
    return _plan(ideal).polynomial

