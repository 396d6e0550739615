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
:func:`power` and :func:`mu_polynomial` use its cut at the onset's, and
:func:`power` below that s its parts peeled to the block form's onset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

# ``ideal_sum``, ``naive_power``, ``stabilization_radius``, ``glued_components``
# and ``staircase_times`` are unused here but stay importable from ``engine``:
# the benchmark's span tracer patches those names.
from .ideals import (
    UNIT, Axis, ExponentOverflowError, Monomial, MonomialIdeal, _count, _level_ideal, _level_staircase, _levels,
    ideal_sum, level_power, mon_pow, naive_power,
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
    and the ``decomposition`` cut at m; its mu ``polynomial``; and, for
    :func:`power` alone, the block ``form``: the decomposition's parts peeled
    as far as they go, and the least level n0 from which each power below s
    is their link, by one more kernel run to s - 1, where the plan holds its own I^m.
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
        except ExponentOverflowError:  # I^D_P leaves int64, refused before any level: no onset, and
            pass  # the reduction number stays unknown, but 0 where P is all of G(I)
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
    def form(self) -> tuple[int, int, LinkTemplates | None]:
        """``(n0, low, templates)``: from n0 to s - 1, G(I^n) is the link of ``templates``
        at ``n - low`` times ``gcd^n``; ``(s, s, None)`` where that is not shown.

        The parts are those of the decomposition's ``emission_templates`` (the ideal's
        own orientation), each middle H_i peeled by ``s - low`` copies, as many as all
        allow, off the ends of C_(i-1) and C_i (:func:`_peel`).  Read a part as its
        step word, the differences of its consecutive generators: a y-link concatenates
        step words, so G(I^(s+l)) reads ``w(C_0) w(H_1)^l w(C_1) ... w(H_k)^l w(C_k)``.
        Where C_(i-1) ends in a_i copies of w(H_i) and C_i begins with b_i, any d <=
        a_i + b_i of them come off either side as one word, and the peeled link at l
        reads as the form at ``l - d``: G(I^(s-d+l)) for every l >= d, with no new
        lemma.  Below s, n0 is the least level from which every level up to s - 1
        equals the peeled link, each compared once on one kernel run to s - 1.
        Rotations of a middle are not tried, so n0 bounds the block form's own onset
        from above; every emission is exact.  Built only where the plan holds its own
        I^m: after a give-up that run would take seconds to minutes (s near 10^4).
        """
        s = self.s
        if self.searched is None:
            return s, s, None
        try:
            dec = self.decomposition
            parts, (gx, gy) = dec.emission_templates, dec.gcd_shift
            copies = _copies(parts)
            low = s - min(s - 1, *(a + b for a, b in copies))  # the lowest level the peel reaches
            if low == s:
                return s, s, None
            form, onset = _peel(parts, copies, s - low), s
            for j, staircase, _ in _levels(self.ideal, s - 1, self.profile.chosen):
                if j >= low:  # both absolute; tobytes compares in C, without np.array_equal's Python frame
                    xy, linked = _level_staircase(staircase, j * gy), form.link(j - low, (gx * j, gy * j))[0].xy
                    onset = s if xy.shape != linked.shape or xy.tobytes() != linked.tobytes() else min(onset, j)
        except ExponentOverflowError:  # I^s leaves int64: the powers below it take the staircase sum
            return s, s, None
        return (s, s, None) if onset == s else (onset, low, form)

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


def _steps(part: MonomialIdeal) -> list[tuple[int, int]]:
    """The step word of a part, in Python ints: ``(dx, dy)`` from each generator to the next."""
    x, y = part.xy.tolist()
    return list(zip([b - a for a, b in zip(x, x[1:])], [a - b for a, b in zip(y, y[1:])]))


def _copies(parts: LinkTemplates) -> list[tuple[int, int]]:
    """``(a_i, b_i)`` per middle H_i: the copies of its step word that end C_(i-1),
    and that begin C_i.  Each C_i gives its copies of w(H_i) first and then, from
    what is left, those of w(H_(i+1)), so no step is given twice."""
    steps, copies, head = [_steps(part) for part in parts.components], [], 0
    for middle, left, right in zip(parts.middles, steps, steps[1:]):
        word, tail = _steps(middle), len(left)
        while tail - len(word) >= head and left[tail - len(word) : tail] == word:
            tail -= len(word)
        head = 0
        while right[head : head + len(word)] == word:
            head += len(word)
        copies.append(((len(left) - tail) // len(word), head // len(word)))
    return copies


def _peel(parts: LinkTemplates, copies: list[tuple[int, int]], d: int) -> LinkTemplates:
    """The templates of ``parts`` with d copies of each middle peeled off the
    components beside it (see :meth:`Plan.form`), those that end C_(i-1) first."""
    cuts = [0]  # the steps each component gives from its start, then from its end
    for (a, _), middle in zip(copies, parts.middles):
        cuts += (min(d, a) * (middle.mu - 1), (d - min(d, a)) * (middle.mu - 1))
    components = []
    for part, start, end in zip(parts.components, cuts[::2], [*cuts[1::2], 0]):
        xy = part.xy[:, start : part.mu - end]  # a run of a canonical part, anchored again: canonical
        components.append(MonomialIdeal._canonical(xy - ((xy.item(0, 0),), (xy.item(1, -1),))))
    return LinkTemplates(tuple(components), parts.middles)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def cached_plan(ideal: MonomialIdeal) -> Plan:
    """The plan :func:`power`, :func:`mu_polynomial` and ``stairpow mu`` share for equal ideals."""
    return Plan(ideal)


def _emit(templates: LinkTemplates, gcd: Monomial, n: int, ell: int) -> tuple[MonomialIdeal, int]:
    """Emit G(I^n) in original coordinates from ``templates`` in the ideal's own
    orientation, whose link at ell is the anchored G(I^n): a decomposition's or the
    plan's form; returns (ideal, generators written).

    One link of the :class:`LinkTemplates`, times ``gcd^n`` in Python ints (the
    kernel range-checks it): one ``np.empty``, then at most ``2k + 1 + sum_i
    (ceil(log2 q_i) + 1)`` writes of two 1-D adds for ``q_i = ell // c_i``, prefixes
    included.  The templates are built once, and no emission changes them.
    """
    return templates.link(ell, (gcd[0] * n, gcd[1] * n))


def assemble_power_counted(dec: StableDecomposition, n: int) -> tuple[MonomialIdeal, int]:
    """Like :func:`assemble_power` but also reports the number of generators
    the link kernel wrote, which the mu polynomial predicts."""
    n = _count(n, dec.s, f"assembled power needs n >= s = {dec.s}")
    return _emit(dec.emission_templates, dec.gcd_shift, n, n - dec.s)


def assemble_power(dec: StableDecomposition, n: int) -> MonomialIdeal:
    """``I^n`` for ``n >= s``, emitted band by band from the components."""
    return assemble_power_counted(dec, n)[0]


def power(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """``I^n`` through the cheapest applicable route.

    Principal ideals short-circuit to the single-generator power.  Below
    the onset m (D_P unless certified earlier) :func:`level_power` runs, and
    at m the plan's I^m is returned.  Above m and below ``s = m + r + 1``,
    from the plan's n0 on, the link of the block form (:meth:`Plan.form`,
    built at the first such call, with the decomposition it is peeled
    from), at ``n - low``; below n0, or where the plan gave up its onset
    search, the staircase expansion ``Q_(n-m) I^m`` on I^m's cached staircase
    (see :func:`staircase_sum`).  From s on, the stable-component assembly.
    Both links are exact: the form's by one comparison at every level below
    s, the assembly's by the paper.  The profile, onset, decomposition and
    form of the last 16 ideals are kept for later calls, shared by equal
    ideals; ``G(I^n)`` itself is emitted afresh by every call.
    """
    n = _count(n, 1, "power must be >= 1")
    if ideal.is_principal:
        return MonomialIdeal((mon_pow(ideal.gcd(), n),))
    plan = cached_plan(ideal)
    if n < plan.m:
        return level_power(ideal, n)
    if n == plan.m:
        return plan.base
    if n < plan.s:  # the form's link from n0, else staircase_sum(P, n - m, I^m): by (A) and (E*), or the paper at D_P
        onset, low, form = plan.form
        if n >= onset:
            return _emit(form, plan.decomposition.gcd_shift, n, n - low)[0]
        return staircase_sum(plan.profile.chosen, n - plan.m, plan.base)
    dec = plan.decomposition
    return _emit(dec.emission_templates, dec.gcd_shift, n, n - dec.s)[0]


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

