"""Fast computation of large powers of bivariate monomial ideals.

The pipeline: bound D from the persistence profile, run one level array up
to the onset m (by the generators in P alone once ``I^(m+1) = (P) I^m`` is
certified), where (E*) certifies ``I^(m+j)`` to be the sum of the
staircase-pair powers ``(g_i, g_(i+1))^j I^m`` (see
``segments._pairs_covered``), else up to D; expand to I^s as that sum, cut
I^s into its stable components, and from then on assemble any I^(s+l) by
pure exponent shifting in time proportional to its own generator count,
``mu(I^s) + l * slope``.  A :class:`Plan` holds these constants:
:func:`stable_decomposition` is its cut at the paper's ``s = D + r + 1``,
:func:`mu_polynomial` its cut at the onset's, and :func:`power` emits from
the level t where the block form reads off ``G(I^t)`` and ``G(I^(t+1))``.
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

#: How many levels from the reduction number on the onset search tries (E*) and the
#: read its form: on the corpus seeds 0-199 every certificate is within 6, every read 7.
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
    :func:`power` alone, the block form's ``read``, by one more kernel run.
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
    def read(self) -> tuple[int, LinkTemplates] | None:
        """``(t, templates)``: from t on, G(I^n) is the link of ``templates`` at ``n - t`` times ``gcd^n``,
        t the least level from ``max(certified, 1)``, the kernel's own, to ``last`` (``_ONSET_TRIES - 1``
        past the reduction number, else D_P, and below s) whose read (:func:`_split`) holds; else None.
        Built only by :func:`power`.  One kernel run with P to ``last + W + 1`` compares the link at l
        with level t + l by ``tobytes`` for l = 0..W+1, ``W = ceil(2Y / min_i dy_i) + 1``; then:

        Lemma.  If X(l) = G(I'^(t+l)) for l <= W + 1 and (A) ``I^(n+1) = (P) I^n`` from t
        on, then for every l.  Anchored, ``P' = (p_0, .., p_k)``, ``p_a = (x_a, y_a)``, ``Y =
        y_0``, X(l) is the link ``C_0 H_1^l C_1 .. H_k^l C_k``, H_i spans ``(dx_i, dy_i) =
        (x_i - x_(i-1), y_(i-1) - y_i)``, and f_l(y) is the least x of X(l) at level <= y
        (infinite below 0), as the kernel keeps it.  By (A) and induction it suffices that
        E(l), ``X(l+1) = G(P' X(l))``, for every l; the comparisons give it for l <= W.
          1. G(P' X(l)) has the level function ``y -> min_a x_a + f_l(y - y_a)``.
          2. C_a sits at ``l p_a`` plus a constant: for l >= 1, X(l+1) is X(l) with C_a
             moved by p_a, and its run of H_i is that of X(l) moved by p_(i-1) and by p_i.
             So each level z of X(l) has natives p_b (b = a on C_a, i - 1 and i on a run of
             H_i) with ``f_(l+1)(z + y_b) = x_b + f_l(z)``, and by 1 E(l) iff ``x_a - x_b +
             f_l(z + y_b - y_a) >= f_l(z)`` for all a and such (b, z): a test of b and of
             ``f_l - f_l(z)`` on [z - Y, z + Y].
          3. For l >= W, ``l dy_i >= 2Y + dy_i``.  On a run of H_i f_l is periodic with step
             dy_i, and its ``l dy_i - 2Y + 1`` windows take every phase, as in X(l+1).  A
             window meeting C_a meets no other, the runs being longer than 2Y, nor a far
             end of a run: it recurs in X(l+1) moved by p_a, and back; C_0 moves by (0, Y)
             and C_k by (x_k, 0), so f's top (0) and bottom (infinite) move with them.  So
             E(l) and E(l+1) make the same tests: E(l) iff E(l+1), and E(l) for every l.
        """
        rn, (gx, gy) = self.reduction_number, self.ideal.gcd()
        last = min(max(self.profile.D_P if rn is None else rn, 1) + _ONSET_TRIES - 1, self.s - 1)
        chosen = [(a - gx, b - gy) for a, b in self.profile.chosen]
        w = -(-2 * chosen[0][1] // min(b - d for (_, b), (_, d) in zip(chosen, chosen[1:]))) + 1
        def links(read: LinkTemplates, t: int, j: int, current: MonomialIdeal) -> bool:  # compared in C
            linked, xy = read.link(j - t, (gx * j, gy * j))[0].xy, current.xy
            return linked.shape == xy.shape and linked.tobytes() == xy.tobytes()
        reads, below = [], None  # the reads not yet refused, least t first; (t, G(I^t)) of the level below
        try:
            for j, staircase, certified in _levels(self.ideal, last + w + 1, self.profile.chosen):
                if certified is None or j < max(certified, 1):  # (A) holds from max(certified, 1) on
                    continue
                current = MonomialIdeal._canonical(_level_staircase(staircase, j * gy))
                if below is not None and below[0] <= last:
                    read = _split(below[1], current, chosen)
                    if read is not None and links(read, below[0], *below):
                        reads.append((below[0], read))
                reads = [(t, read) for t, read in reads if links(read, t, j, current)]
                if reads and j - reads[0][0] == w + 1:
                    return reads[0]
                if not reads and j > last:
                    return None
                below = (j, current)
        except ExponentOverflowError:  # a level the read needs leaves int64: no read
            pass
        return None

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


def _split(low: MonomialIdeal, high: MonomialIdeal, chosen: Sequence[Monomial]) -> LinkTemplates | None:
    """The block form read off G(I^t) and G(I^(t+1)), or None: walking both
    step words in Python ints, at each mismatch the factor of the longer word whose steps
    sum to the next pair step of P' ``chosen`` (unique, as each dx > 0) is the middle H_i,
    and the runs of G(I^t) between are the components, anchored again."""
    lo, hi = ([(c - a, b - d) for (a, b), (c, d) in zip(part.gens, part.gens[1:])] for part in (low, high))
    i = j = 0
    cuts, middles = [0], []
    for (a, b), (c, d) in zip(chosen, chosen[1:]):
        while i < len(lo) and j < len(hi) and lo[i] == hi[j]:
            i, j = i + 1, j + 1
        k, dx, dy = j, 0, 0
        while dx < c - a and k < len(hi):
            dx, dy, k = dx + hi[k][0], dy + hi[k][1], k + 1
        if (dx, dy) != (c - a, b - d):
            return None
        cuts.append(i)
        middles.append(high.xy[:, j : k + 1])
        j = k
    anchored = lambda xy: MonomialIdeal._canonical(xy - ((xy.item(0, 0),), (xy.item(1, -1),)))  # runs: canonical
    components = [low.xy[:, p : q + 1] for p, q in zip(cuts, [*cuts[1:], len(lo)])]
    return LinkTemplates(tuple(map(anchored, components)), tuple(map(anchored, middles)))


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def cached_plan(ideal: MonomialIdeal) -> Plan:
    """The plan :func:`power`, :func:`mu_polynomial` and ``stairpow mu`` share for equal ideals."""
    return Plan(ideal)


def _emit(templates: LinkTemplates, gcd: Monomial, n: int, ell: int) -> tuple[MonomialIdeal, int]:
    """Emit G(I^n) in original coordinates from ``templates`` in the ideal's own
    orientation, whose link at ell is the anchored G(I^n): a decomposition's or the
    plan's read; returns (ideal, generators written).

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
    """``I^n`` through the cheapest applicable route: I^1 is the ideal itself,
    with no plan, and a principal ideal's power one generator.  From the plan's
    read t on (:meth:`Plan.read`, built at the first call), the read's link at
    ``n - t``.  Below t, or with no read: :func:`level_power` below the onset m,
    the plan's I^m at m, ``staircase_sum(P, n - m, I^m)`` below ``s = m + r +
    1``, and from s on the stable-component assembly.  The plans of the last 16
    ideals are kept, shared by equal ideals.
    """
    n = _count(n, 1, "power must be >= 1")
    if n == 1:
        return ideal
    if ideal.is_principal:
        return MonomialIdeal((mon_pow(ideal.gcd(), n),))
    plan = cached_plan(ideal)
    read = plan.read
    if read is not None and n >= read[0]:
        return _emit(read[1], ideal.gcd(), n, n - read[0])[0]
    if n < plan.m:
        return level_power(ideal, n)
    if n == plan.m:
        return plan.base
    if n < plan.s:  # staircase_sum(P, n - m, I^m): by (A) and (E*), or the paper at D_P
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

