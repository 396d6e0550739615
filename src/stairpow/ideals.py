"""Exact arithmetic for bivariate monomial ideals.

A monomial ``x^a y^b`` is identified with the exponent pair ``(a, b)``.  A
monomial ideal is represented by its unique minimal generating set, kept in
canonical order: strictly increasing x-exponent, strictly decreasing
y-exponent.  In two variables the minimal generators always form such a
divisibility antichain, so the canonical order doubles as a validity check.
The generators are stored as one read-only ``(2, mu)`` int64 array of x and
y columns; the tuple of exponent pairs is a view derived on demand.

Exponents are restricted to the non-negative int64 range ``[0, 2**63)``.
Any operation that would leave it raises :class:`ExponentOverflowError`
instead of producing an out-of-range value.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

Monomial = tuple[int, int]

#: Exclusive upper bound for exponents (the non-negative int64 range).
EXP_LIMIT = 1 << 63

#: Minimalization buckets points by y while the y-span is at most this many
#: times the point count, and sorts the y values first beyond that (huge
#: sparse exponents).  Measured: bucketing wins up to a ratio of about 30.
_BUCKET_SPAN_FACTOR = 16

#: Marks an empty level in a dense array of the least x per y level.
_NO_POINT = np.iinfo(np.int64).max

#: How many levels above the reduction number the level kernel tries (E*)
#: at: on the corpus seeds 0-199 every certificate is within 6, none in 7-40.
_ONSET_TRIES = 10


class ExponentOverflowError(OverflowError):
    """An exponent left the permitted 64-bit range."""


class PrincipalIdealError(ValueError):
    """A non-principal ideal was required."""


class Axis(Enum):
    X = "x"
    Y = "y"


def _check_exponents(a: int, b: int) -> None:
    if a < 0 or b < 0 or a >= EXP_LIMIT or b >= EXP_LIMIT:
        raise ExponentOverflowError(f"exponent pair ({a}, {b}) out of range")


def mon_pow(m: Monomial, n: int) -> Monomial:
    a, b = m[0] * n, m[1] * n
    _check_exponents(a, b)
    return (a, b)


def mon_divides(m: Monomial, n: Monomial) -> bool:
    return m[0] <= n[0] and m[1] <= n[1]


def _columns(points: Iterable[Monomial]) -> np.ndarray:
    """The ``(2, N)`` int64 columns of exponent pairs of Python or numpy integers."""
    arr = np.array(list(points), dtype=object)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("monomials must be a non-empty sequence of exponent pairs")
    for kind in set(map(type, arr.flat)):
        if kind is bool or not issubclass(kind, (int, np.integer)):
            raise ValueError(f"an exponent of type {kind.__name__} is not an integer")
    try:
        return arr.astype(np.int64).T
    except OverflowError:
        raise ExponentOverflowError("exponent out of the int64 range") from None


def _minimalize_array(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The minimal generators of the int64 points ``(x[i], y[i])``, as columns.

    Buckets the least x per y level, in O(N + y-span), then sweeps the levels
    once with :func:`_level_staircase`.  A y-span beyond
    ``_BUCKET_SPAN_FACTOR * N`` is compressed to the occurring levels.
    """
    y0 = int(y.min())
    span = int(y.max()) - y0 + 1
    dense = span <= _BUCKET_SPAN_FACTOR * len(x)
    if dense:
        y = y - y0
    else:
        levels, y = np.unique(y, return_inverse=True)
        span = len(levels)
    x_by_y = np.full(span, _NO_POINT, dtype=np.int64)
    np.minimum.at(x_by_y, y, x)
    return _level_staircase(x_by_y, y0 if dense else levels)


def _level_staircase(x_by_y: np.ndarray, levels: int | np.ndarray) -> np.ndarray:
    """The minimal generators of the points ``(x_by_y[i], levels + i)``, or
    ``(x_by_y[i], levels[i])`` for an ascending array ``levels``, as columns:
    one sweep keeps each level whose x undercuts every level below it.  An
    empty level holds ``_NO_POINT``; the first is never empty."""
    below = np.minimum.accumulate(x_by_y)[:-1]
    keep = np.flatnonzero(np.concatenate(([True], x_by_y[1:] < below)))[::-1]
    ys = levels[keep] if isinstance(levels, np.ndarray) else keep + levels
    return np.stack((x_by_y[keep], ys))


def minimalize(candidates: Iterable[Monomial]) -> "MonomialIdeal":
    """Return the ideal generated by ``candidates`` in canonical form.

    Keeps exactly the divisibility antichain: a candidate survives iff no
    other candidate divides it.
    """
    return MonomialIdeal(_minimalize_array(*_columns(candidates)))


@dataclass(frozen=True, eq=False)
class MonomialIdeal:
    """A bivariate monomial ideal in canonical minimal-generator form.

    ``xy`` is the read-only ``(2, mu)`` int64 array of x (ascending) and y
    (descending) exponents.  It may be given as a sequence of exponent pairs
    in canonical order instead; an array is adopted as is and made
    read-only, so ideals may share it.  Do not construct directly from
    unsorted data; use :func:`minimalize` or :meth:`MonomialIdeal.of`.
    """

    xy: np.ndarray

    def __post_init__(self) -> None:
        xy = self.xy
        if not isinstance(xy, np.ndarray):
            xy = _columns(xy)
            object.__setattr__(self, "xy", xy)
        if xy.dtype != np.int64 or xy.ndim != 2 or len(xy) != 2 or not xy.shape[1]:
            raise ValueError("a monomial ideal needs a (2, mu) int64 array, mu >= 1")
        # count_nonzero: the Python-level wrapper of ndarray.all costs more here.
        steps = np.count_nonzero(xy[0, 1:] > xy[0, :-1]) + np.count_nonzero(xy[1, :-1] > xy[1, 1:])
        if steps != 2 * xy.shape[1] - 2:
            raise ValueError(f"generators not in canonical antichain order: {xy.T.tolist()}")
        if xy[0, 0] < 0 or xy[1, -1] < 0:
            raise ExponentOverflowError(f"negative exponent in {xy.T.tolist()}")
        xy.flags.writeable = False

    def __reduce__(self):
        # Through the constructor, so unpickled and copied ideals are read-only.
        return (MonomialIdeal, (self.xy,))

    @classmethod
    def of(cls, *gens: Monomial) -> "MonomialIdeal":
        return minimalize(gens)

    @cached_property
    def gens(self) -> tuple[Monomial, ...]:
        """The generators as a tuple of ``(a, b)`` pairs of Python ints."""
        return tuple(zip(*self.xy.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return np.array_equal(self.xy, other.xy)

    def __hash__(self) -> int:
        return hash(self.xy.tobytes())

    # -- basic queries ----------------------------------------------------

    @property
    def mu(self) -> int:
        return self.xy.shape[1]

    @property
    def is_principal(self) -> bool:
        return self.mu == 1

    @property
    def is_unit(self) -> bool:
        return self.mu == 1 and not self.xy.any()

    def contains(self, m: Monomial) -> bool:
        return bool(((self.xy[0] <= m[0]) & (self.xy[1] <= m[1])).any())

    def gcd(self) -> Monomial:
        return (int(self.xy[0, 0]), int(self.xy[1, -1]))

    def dist(self, axis: Axis) -> int:
        if axis is Axis.X:
            return int(self.xy[0, -1] - self.xy[0, 0])
        return int(self.xy[1, 0] - self.xy[1, -1])

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return ideal_sum((self, other))

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        # The largest product exponents, checked before the int64 add.
        _check_exponents(
            int(self.xy[0, -1]) + int(other.xy[0, -1]), int(self.xy[1, 0]) + int(other.xy[1, 0])
        )
        # The x and y columns of every candidate product in one buffer, the
        # longer factor innermost so that numpy's inner loop runs along it.
        a, b = sorted((self.xy, other.xy), key=lambda c: c.shape[1])
        xy = np.empty((2, a.shape[1], b.shape[1]), dtype=np.int64)
        for i in (0, 1):
            np.add.outer(a[i], b[i], out=xy[i])
        return MonomialIdeal(_minimalize_array(*xy.reshape(2, -1)))

    def shift(self, m: Monomial) -> "MonomialIdeal":
        """Multiply by the monomial ``m``."""
        if m[0] == 0 and m[1] == 0:
            return self
        _check_exponents(int(self.xy[0, -1]) + m[0], int(self.xy[1, 0]) + m[1])
        return MonomialIdeal(self.xy + ((m[0],), (m[1],)))

    def colon(self, m: Monomial) -> "MonomialIdeal":
        """The colon ideal ``I : m`` for a monomial ``m = (u, v)``.

        Generators with ``a <= u`` collapse onto the last of them, those with
        ``b <= v`` onto the first of them; two searches find both runs, and
        clamping the differences at zero maps the two ends.
        """
        x, y = self.xy
        # Past the largest exponent the quotient no longer depends on m.
        u, v = min(m[0], int(x[-1])), min(m[1], int(y[0]))
        _check_exponents(int(x[-1]) - u, int(y[0]) - v)
        i = int(x.searchsorted(u, "right"))  # x[:i] <= u
        j = len(x) - int(y[::-1].searchsorted(v, "right"))  # y[j:] <= v
        if i > j:
            return UNIT  # generators j .. i-1 divide m
        return MonomialIdeal(np.maximum(self.xy[:, max(i - 1, 0) : j + 1] - ((u,), (v,)), 0))

    def anchor(self) -> tuple["MonomialIdeal", Monomial]:
        """Split off the gcd: returns ``(I : gcd(I), gcd(I))``."""
        g = self.gcd()
        return self.shift((-g[0], -g[1])), g

    def transpose(self) -> "MonomialIdeal":
        """Swap the roles of x and y."""
        return MonomialIdeal(self.xy[::-1, ::-1])

    def __str__(self) -> str:
        return "[" + ", ".join(f"({a}, {b})" for a, b in self.gens) + "]"


UNIT = MonomialIdeal(((0, 0),))


def ideal_sum(ideals: Sequence[MonomialIdeal]) -> MonomialIdeal:
    if not ideals:
        raise ValueError("empty sum of ideals")
    if len(ideals) == 1:
        return ideals[0]
    return MonomialIdeal(_minimalize_array(*np.concatenate([ideal.xy for ideal in ideals], axis=1)))


def naive_power(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """``I^n`` by ``n - 1`` repeated multiplications.

    Deliberately shortcut-free; this is the reference oracle the fast paths
    are tested against.
    """
    if n < 0:
        raise ValueError(f"power must be non-negative, got {n}")
    if n == 0:
        return UNIT
    result = ideal
    for _ in range(n - 1):
        result = result * ideal
    return result


def level_power(ideal: MonomialIdeal, n: int, reduction: Sequence[Monomial] = ()) -> MonomialIdeal:
    """``I^n`` on one dense array of x values per y level.

    Entry t for ``I^j`` is the least x of ``I^j`` at most t above its lowest
    generator: the staircase of ``I^j``.  Entry t for ``I^(j+1)`` is the
    minimum over the generators g of entry ``t - g_y`` plus ``g_x``: one
    slice minimum per generator, no candidate products.  Slices end at the
    top of ``I^j``, where the slice of the highest generator has already
    come as far left, so the result is again the staircase, equal arrays
    are equal ideals, and one final sweep yields the minimal generators.

    ``reduction`` is a set P of generators of I holding both extreme ones
    (else ValueError), such as its corners, which generate a reduction of I
    (Northcott and Rees 1954).  Until a step certifies ``I^(j+1) =
    (P) I^j``, each step takes the slices of P, which give the staircase of
    ``(P) I^j``, and then those of the other generators: if none of them
    lowers that staircase, the step certifies.  By induction
    ``I^(i+1) = (P) I^i`` for every ``i >= j``, so every later step takes
    the slices of P alone.  With no ``reduction`` every step takes the
    slices of every generator.

    Below ``n = 2``, or for a y-span beyond ``_BUCKET_SPAN_FACTOR * mu(I)``,
    :func:`naive_power` runs instead.
    """
    return _certified_level_power(ideal, n, reduction)[1]


def _certified_level_power(
    ideal: MonomialIdeal, n: int, reduction: Sequence[Monomial], onset: Callable | None = None
) -> tuple[int, MonomialIdeal | None, int | None]:
    """``(n, I^n, m)``: :func:`level_power` and the least ``m`` with ``I^(m+1)
    = (P) I^m``, 0 when P is all of G(I), None when no step below n certifies.

    With ``onset`` the kernel asks ``onset(levels)`` with the staircase of
    ``I^j`` at each level ``j >= 1`` from m to ``m + _ONSET_TRIES``: at the
    first true answer it returns ``(j, I^j, m)``, past those levels ``(n,
    None, m)`` without sweeping ``I^j``.  I^n is also None on a sparse span,
    where the kernel does not run."""
    x, y = ideal.xy
    rise = y - y[-1]
    span = int(rise[0])
    # The lowest generator's slice starts at level 0; the others follow it.
    lowest, steps = int(x[-1]), list(zip(x[:-1].tolist(), rise[:-1].tolist()))
    chosen = dict(reduction)  # generators of I differ in x
    if chosen and (lowest not in chosen or int(x[0]) not in chosen):
        raise ValueError(f"the reduction {tuple(reduction)} misses an extreme generator of {ideal}")
    certified = 0 if len(chosen) in (0, ideal.mu) else None  # 0: P is G(I)
    if n < 2 or span > _BUCKET_SPAN_FACTOR * ideal.mu:
        return n, None if onset and n >= 2 else naive_power(ideal, n), certified
    # The largest exponents of I^n, checked before any int64 add.
    _check_exponents(n * lowest, n * int(y[0]))
    levels = np.full(span + 1, _NO_POINT, dtype=np.int64)
    levels[rise] = x
    # Level 0 holds a generator, so no _NO_POINT is left to add to.  From
    # then on the slices of the lowest and the highest generator, both in P,
    # cover every level, so none comes back.
    np.minimum.accumulate(levels, out=levels)
    # P's steps reduce every step, the others until a step certifies.
    reducing, others = [], []
    for step in steps:
        (reducing if certified is not None or step[0] in chosen else others).append(step)
    # Two level arrays of the final length take turns, and one buffer takes
    # the shifted copies: no allocation per step.
    size = n * span + 1
    buffers, lowered = np.empty((2, size), dtype=np.int64), np.empty(size, dtype=np.int64)
    for j in range(1, n):
        stepped = buffers[j % 2, : len(levels) + span]
        np.add(levels, lowest, out=stepped[: len(levels)])
        stepped[len(levels) :] = _NO_POINT
        shifted = lowered[: len(levels)]
        for a, b in reducing:
            window = stepped[b : b + len(levels)]
            np.minimum(window, np.add(levels, a, out=shifted), out=window)
        # stepped is now the staircase of (P) I^j; a generator lowering none of it adds nothing.
        certifies = True
        for a, b in others:
            window = stepped[b : b + len(levels)]
            np.add(levels, a, out=shifted)
            certifies = certifies and not (shifted < window).any()
            np.minimum(window, shifted, out=window)
        if certifies and others:
            certified, others = j, []
        if onset and certified is not None:
            if j > certified + _ONSET_TRIES:
                return n, None, certified
            if onset(levels):  # levels is still I^j
                return j, MonomialIdeal(_level_staircase(levels, j * int(y[-1]))), certified
        levels = stepped
    return n, MonomialIdeal(_level_staircase(levels, n * int(y[-1]))), certified


def pair_power(g: Monomial, h: Monomial, n: int) -> MonomialIdeal:
    """``(g, h)^n`` as the explicit staircase ``{g^j h^(n-j)}``.

    Requires ``g`` and ``h`` to be incomparable; the staircase is then
    already an antichain, so no minimalization is needed.
    """
    if mon_divides(g, h) or mon_divides(h, g):
        raise ValueError(f"{g} and {h} are comparable; staircase power undefined")
    if n < 0:
        raise ValueError(f"power must be non-negative, got {n}")
    if g[0] > h[0]:
        g, h = h, g
    # g now has the smaller x-exponent (larger y); walk from h^n up to g^n.
    _check_exponents(h[0] * n, g[1] * n)
    j = np.arange(n, -1, -1)
    return MonomialIdeal(np.outer(g, j) + np.outer(h, j[::-1]))
