"""Fast computation of large powers of bivariate monomial ideals.

The pipeline: bound D from the persistence profile, run one level array up
to the onset m (by the generators in P alone once ``I^(m+1) = (P) I^m`` is
certified), where (E*) certifies ``I^(m+j)`` to be the sum of the
staircase-pair powers ``(g_i, g_(i+1))^j I^m`` (see
``segments._pairs_covered``), else up to D; expand to I^s as that sum, cut
I^s into its stable components, and from then on assemble any I^(s+l) by
pure exponent shifting in time proportional to its own generator count,
``mu(I^s) + l * slope``.  A :class:`Plan` holds these constants:
:func:`stable_decomposition` is its cut at the paper's ``s = D + r + 1``;
:func:`power` and :func:`mu_polynomial` use its cut at the onset's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

# ``ideal_sum``, ``naive_power``, ``stabilization_radius``, ``glued_components``
# and ``staircase_times`` are unused here but stay importable from ``engine``:
# the benchmark's span tracer patches those names.
from .ideals import (
    UNIT, Axis, ExponentOverflowError, Monomial, MonomialIdeal, _count, _level_ideal, _levels, ideal_sum,
    level_power, mon_pow, naive_power,
)
from .geometry import PersistenceProfile, persistence_profile, stabilization_radius
from .links import LinkTemplates, boundary_points
from .segments import (
    GluedComponents, _pairs_covered, glued_components, glued_cut, staircase_sum,
    staircase_times,
)

#: How many ideals' plans :func:`power` and :func:`mu_polynomial` keep.
_PLAN_CACHE_SIZE = 16

#: How many levels above the reduction number the onset search tries (E*)
#: at: on the corpus seeds 0-199 every certificate is within 6, none in 7-40.
_ONSET_TRIES = 10


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
    d = profile.D_P
    n = _count(_count(n, 1, "power must be >= 1"), d, f"decomposed power needs n >= D_P = {d}")
    base = level_power(ideal, d) if base is None else base
    return staircase_sum(profile.chosen, n - d, base) if n > d else base


@dataclass(frozen=True)
class StableDecomposition(GluedComponents):
    """Everything needed to emit G(I^n) for any n >= s by shifting alone:
    the glued components of I^s in the working orientation (the ideal
    anchored and, when ``axis`` is X, transposed), with what places them.

    ``base_power`` is that I^s and ``boundary_points`` its h_0..h_{k+1}.
    ``profile`` is the persistence profile of the ideal as given.  ``D`` is the level of
    the power cut, ``(r, axis)`` is ``profile.radius(D)`` and ``s = D + r + 1``: the
    profile's own at ``D = D_P`` for :func:`stable_decomposition`, at ``D = m`` for the plan's onset.
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
        """The link templates of :func:`_emit`, built once, in the ideal's own
        orientation: on axis X those of the transposed parts in reverse order, since
        the transpose of a y-link is the y-link of the transposed parts reversed."""
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
    plan = Plan(ideal, chosen)
    return plan.cut(plan.profile.D_P)


class Plan:
    """The constants of a non-principal ideal, built once per plan.

    ``profile`` is the persistence profile for ``chosen`` P.  One level kernel
    run to D_P finds the ``reduction_number`` and the onset ``m``, the first
    level from it that (E*) certifies, else D_P; ``searched`` is I^m (with no
    run below 2), None after a give-up, on a sparse span or past int64.  Built
    on first use: ``base``, I^m; ``radius = profile.radius(m)``, read once for
    ``s = m + r(m) + 1`` (before the paper's, as ``m + r(m)`` grows with m)
    and the ``decomposition`` cut at m; and its mu ``polynomial``.
    """

    def __init__(self, ideal: MonomialIdeal, chosen: Sequence[Monomial] | None = None) -> None:
        self.ideal, self.profile = ideal, persistence_profile(ideal, chosen)
        d, gs = self.profile.D_P, self.profile.chosen
        m, searched, certified = d, {0: UNIT, 1: ideal}.get(d), 0 if len(gs) == ideal.mu else None
        covered = _pairs_covered(gs)
        try:  # (E*) at each level below D_P from the reduction number to _ONSET_TRIES above it
            for j, staircase, certified in _levels(ideal, d, gs):
                if j == d or certified is not None and covered(staircase):  # I^D_P, or the onset
                    m, searched = j, _level_ideal(staircase, j * gs[-1][1])
                    break
                if certified is not None and j == certified + _ONSET_TRIES < d - 1:  # give up before the next step
                    break
        except ExponentOverflowError:  # I^D_P leaves int64: the powers below D_P need no onset
            certified = None
        self.m, self.searched, self.reduction_number = m, searched, certified

    @cached_property
    def base(self) -> MonomialIdeal:
        """I^m: the search's, or else I^D_P by the level kernel with P."""
        return self.searched or level_power(self.ideal, self.m, self.profile.chosen)

    @cached_property
    def radius(self) -> tuple[int, Axis]:
        return self.profile.radius(self.m)

    @property
    def s(self) -> int:
        return self.m + self.radius[0] + 1

    @cached_property
    def decomposition(self) -> StableDecomposition:
        return self.cut(self.m)

    @cached_property
    def polynomial(self) -> MuPolynomial:
        """``mu(I^n)`` from the onset's s on, read off its decomposition."""
        dec = self.decomposition
        return MuPolynomial(s=dec.s, intercept=dec.base_power.mu, slope=dec.slope)

    def cut(self, level: int) -> StableDecomposition:
        """The stable components of the ideal cut at ``level``, whose ``(r,
        axis)`` is ``profile.radius(level)`` (at D_P the profile's own), from
        its ``I^s``, ``s = level + r + 1``: the onset's at m, the paper's at D_P.
        Any level from m on cuts exactly, since ``I^(L+j) = Q_j I^L`` for L >= m:
        ``I^(L+j) = Q_(L-m+j) I^m`` and ``Q_(L-m+j)`` lies in ``Q_j Q_(L-m)``.

        The one place that re-orients, and only P and the plan's ``I^m``: P
        holds both extreme generators of the ideal, so the gcd of the ideal is
        that of P, and ``gcd^m`` that of I^m.  P' is P less it in Python ints,
        reversed and swapped on axis X, and I^m' keeps I^m's staircase on axis
        Y; I^s is summed in that orientation as ``staircase_sum(P', s - m, I^m')``.
        """
        level = _count(level, self.m, f"a cut needs level >= m = {self.m}")
        profile, m = self.profile, self.m
        r, axis = self.radius if level == m else profile.radius(level)
        gx, gy = shift = profile.chosen[0][0], profile.chosen[-1][1]
        chosen = tuple((a - gx, b - gy) for a, b in profile.chosen)
        base = self.base.shift((-gx * m, -gy * m))
        if axis is Axis.X:
            chosen, base = tuple((b, a) for a, b in reversed(chosen)), base.transpose()
        glued = glued_cut(chosen, staircase_sum(chosen, level + r + 1 - m, base), r)
        return StableDecomposition(
            **vars(glued), gcd_shift=shift, profile=profile, reduction_number=self.reduction_number,
            D=level, r=r, axis=axis,
        )


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def cached_plan(ideal: MonomialIdeal) -> Plan:
    """The plan :func:`power`, :func:`mu_polynomial` and ``stairpow mu`` share for equal ideals."""
    return Plan(ideal)


def _emit(dec: StableDecomposition, ell: int) -> tuple[MonomialIdeal, int]:
    """Emit G(I^(s+ell)) in original coordinates; returns (ideal, generators written).

    One link of the decomposition's :class:`LinkTemplates`, times ``gcd^(s+ell)`` in
    Python ints (the kernel range-checks it): one ``np.empty``, then at most ``2k
    + 1 + sum_i (ceil(log2 q_i) + 1)`` writes of two 1-D adds for ``q_i = ell //
    c_i``, prefixes included.  The templates are built once, at the first
    emission, and no emission changes them.
    """
    (gx, gy), n = dec.gcd_shift, dec.s + ell
    return dec.emission_templates.link(ell, (gx * n, gy * n))


def assemble_power_counted(dec: StableDecomposition, n: int) -> tuple[MonomialIdeal, int]:
    """Like :func:`assemble_power` but also reports the number of generators
    the link kernel wrote, which the mu polynomial predicts."""
    return _emit(dec, _count(n, dec.s, f"assembled power needs n >= s = {dec.s}") - dec.s)


def assemble_power(dec: StableDecomposition, n: int) -> MonomialIdeal:
    """``I^n`` for ``n >= s``, emitted band by band from the components."""
    return assemble_power_counted(dec, n)[0]


def power(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """``I^n`` through the cheapest applicable route.

    Principal ideals short-circuit to the single-generator power.  Below
    the onset m (D_P unless certified earlier) :func:`level_power` runs;
    from m the staircase expansion ``Q_(n-m) I^m`` (see :func:`staircase_sum`),
    by slices of I^m's cached staircase for small ``n - m`` and by window
    tables taking their head rows from it above; from its ``s = m + r + 1``
    the stable-component assembly, the only route that builds a
    decomposition.  The profile, onset and decomposition of the last 16
    ideals are kept for later calls, shared by equal ideals; ``G(I^n)``
    itself is emitted afresh by every call.
    """
    n = _count(n, 1, "power must be >= 1")
    if ideal.is_principal:
        return MonomialIdeal((mon_pow(ideal.gcd(), n),))
    plan = cached_plan(ideal)
    if n < plan.m:
        return level_power(ideal, n)
    if n < plan.s:  # I^n = staircase_sum(P, n - m, I^m): by (A) and (E*), or the paper at D_P
        return staircase_sum(plan.profile.chosen, n - plan.m, plan.base) if n > plan.m else plan.base
    return _emit(plan.decomposition, n - plan.s)[0]


@dataclass(frozen=True)
class MuPolynomial:
    """The exact generator count ``mu(I^n) = intercept + (n - s) * slope``
    valid for all n >= s."""

    s: int
    intercept: int
    slope: int

    def __call__(self, n: int) -> int:
        n = _count(n, self.s, f"mu polynomial only valid for n >= {self.s}")
        return self.intercept + (n - self.s) * self.slope


def mu_polynomial(ideal: MonomialIdeal) -> MuPolynomial:
    """The generator-count polynomial of a non-principal ``ideal``, valid from
    the onset's s on: that of the decomposition :func:`power` keeps for it."""
    return cached_plan(ideal).polynomial

