"""Exact arithmetic for bivariate monomial ideals.

A monomial ``x^a y^b`` is identified with the exponent pair ``(a, b)``.  A
monomial ideal is represented by its unique minimal generating set, kept in
canonical order: strictly increasing x-exponent, strictly decreasing
y-exponent.  In two variables the minimal generators always form such a
divisibility antichain, so the canonical order doubles as a validity check.

Exponents are restricted to the unsigned 64-bit range.  Any operation that
would leave it raises :class:`ExponentOverflowError` instead of producing an
out-of-range value.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

Monomial = tuple[int, int]

#: Exclusive upper bound for exponents (unsigned 64-bit).
EXP_LIMIT = 1 << 63

#: Minimalization buckets points by y while the y-span is at most this many
#: times the point count, and sorts the y values first beyond that (huge
#: sparse exponents).  Measured: bucketing wins up to a ratio of about 30.
_BUCKET_SPAN_FACTOR = 16


class ExponentOverflowError(OverflowError):
    """An exponent left the permitted 64-bit range."""


class PrincipalIdealError(ValueError):
    """A non-principal ideal was required."""


class Axis(Enum):
    X = "x"
    Y = "y"

    def other(self) -> "Axis":
        return Axis.Y if self is Axis.X else Axis.X


def _check_exponents(a: int, b: int) -> None:
    if a < 0 or b < 0 or a >= EXP_LIMIT or b >= EXP_LIMIT:
        raise ExponentOverflowError(f"exponent pair ({a}, {b}) out of range")


def mon_pow(m: Monomial, n: int) -> Monomial:
    a, b = m[0] * n, m[1] * n
    _check_exponents(a, b)
    return (a, b)


def mon_gcd(m: Monomial, n: Monomial) -> Monomial:
    return (min(m[0], n[0]), min(m[1], n[1]))


def mon_divides(m: Monomial, n: Monomial) -> bool:
    return m[0] <= n[0] and m[1] <= n[1]


def _minimalize_array(x: np.ndarray, y: np.ndarray) -> tuple[Monomial, ...]:
    """The minimal generators of the in-range int64 points ``(x[i], y[i])``.

    Buckets the least x per y level, in O(N + y-span), then one ascending-y
    sweep keeps each level whose x undercuts every level below it.  A y-span
    beyond ``_BUCKET_SPAN_FACTOR * N`` is compressed to the occurring levels.
    """
    y0 = int(y.min())
    span = int(y.max()) - y0 + 1
    dense = span <= _BUCKET_SPAN_FACTOR * len(x)
    if dense:
        y = y - y0
    else:
        levels, y = np.unique(y, return_inverse=True)
        span = len(levels)
    x_by_y = np.full(span, np.iinfo(np.int64).max, dtype=np.int64)  # int64 max: no point
    np.minimum.at(x_by_y, y, x)
    below = np.minimum.accumulate(x_by_y)[:-1]
    keep = np.flatnonzero(np.concatenate(([True], x_by_y[1:] < below)))[::-1]
    ys = keep + y0 if dense else levels[keep]
    return tuple(zip(x_by_y[keep].tolist(), ys.tolist()))


def minimalize(candidates: Iterable[Monomial]) -> "MonomialIdeal":
    """Return the ideal generated by ``candidates`` in canonical form.

    Keeps exactly the divisibility antichain: a candidate survives iff no
    other candidate divides it.
    """
    points = list(candidates)
    if not points:
        raise ValueError("cannot minimalize an empty set of monomials")
    try:
        arr = np.array(points, dtype=np.int64)
    except OverflowError:
        raise ExponentOverflowError("exponent out of range in minimalize") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("monomials must be exponent pairs")
    if (arr < 0).any():
        raise ExponentOverflowError("negative exponent in minimalize")
    return MonomialIdeal(_minimalize_array(arr[:, 0], arr[:, 1]))


@dataclass(frozen=True)
class MonomialIdeal:
    """A bivariate monomial ideal in canonical minimal-generator form.

    Do not construct directly from unsorted data; use :func:`minimalize` or
    :meth:`MonomialIdeal.of`.
    """

    gens: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        if not self.gens:
            raise ValueError("a monomial ideal needs at least one generator")
        prev = None
        for g in self.gens:
            if prev is not None and not (g[0] > prev[0] and g[1] < prev[1]):
                raise ValueError(f"generators not in canonical antichain order: {self.gens}")
            prev = g

    @classmethod
    def of(cls, *gens: Monomial) -> "MonomialIdeal":
        return minimalize(gens)

    # -- basic queries ----------------------------------------------------

    @property
    def mu(self) -> int:
        return len(self.gens)

    @property
    def is_principal(self) -> bool:
        return len(self.gens) == 1

    @property
    def is_unit(self) -> bool:
        return self.gens == ((0, 0),)

    def contains(self, m: Monomial) -> bool:
        return any(mon_divides(g, m) for g in self.gens)

    def gcd(self) -> Monomial:
        return (self.gens[0][0], self.gens[-1][1])

    def dist(self, axis: Axis) -> int:
        if axis is Axis.X:
            return self.gens[-1][0] - self.gens[0][0]
        return self.gens[0][1] - self.gens[-1][1]

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return minimalize(self.gens + other.gens)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        # The largest product exponents, checked before the int64 add.
        _check_exponents(self.gens[-1][0] + other.gens[-1][0], self.gens[0][1] + other.gens[0][1])
        # The x and y columns of every candidate product in one buffer, the
        # longer factor innermost so that numpy's inner loop runs along it.
        a, b = sorted((np.asarray(g, dtype=np.int64) for g in (self.gens, other.gens)), key=len)
        xy = np.empty((2, len(a), len(b)), dtype=np.int64)
        for i in (0, 1):
            np.add.outer(a[:, i], b[:, i], out=xy[i])
        return MonomialIdeal(_minimalize_array(*xy.reshape(2, -1)))

    def shift(self, m: Monomial) -> "MonomialIdeal":
        """Multiply by the monomial ``m``."""
        last = self.gens[-1]
        first = self.gens[0]
        _check_exponents(last[0] + m[0], first[1] + m[1])
        return MonomialIdeal(tuple((a + m[0], b + m[1]) for a, b in self.gens))

    def colon(self, m: Monomial) -> "MonomialIdeal":
        """The colon ideal ``I : m`` for a monomial ``m = (u, v)``.

        Generators with ``a <= u`` collapse onto the last of them, those with
        ``b <= v`` onto the first of them; two bisects find both runs.
        """
        u, v = m
        gens = self.gens
        _check_exponents(max(gens[-1][0] - u, 0), max(gens[0][1] - v, 0))
        i = bisect_right(gens, u, key=itemgetter(0))  # gens[:i] have a <= u
        j = bisect_left(gens, -v, key=lambda g: -g[1])  # gens[j:] have b <= v
        if i > j:
            return UNIT  # gens[j:i] divide m
        left = [(0, gens[i - 1][1] - v)] if i else []
        right = [(gens[j][0] - u, 0)] if j < len(gens) else []
        return MonomialIdeal(tuple(left + [(a - u, b - v) for a, b in gens[i:j]] + right))

    def anchor(self) -> tuple["MonomialIdeal", Monomial]:
        """Split off the gcd: returns ``(I : gcd(I), gcd(I))``."""
        g = self.gcd()
        if g == (0, 0):
            return self, g
        return MonomialIdeal(tuple((a - g[0], b - g[1]) for a, b in self.gens)), g

    def transpose(self) -> "MonomialIdeal":
        """Swap the roles of x and y."""
        return MonomialIdeal(tuple((b, a) for a, b in reversed(self.gens)))

    def __str__(self) -> str:
        return "[" + ", ".join(f"({a}, {b})" for a, b in self.gens) + "]"


UNIT = MonomialIdeal(((0, 0),))


def ideal_sum(ideals: Sequence[MonomialIdeal]) -> MonomialIdeal:
    if not ideals:
        raise ValueError("empty sum of ideals")
    if len(ideals) == 1:
        return ideals[0]
    return minimalize(g for ideal in ideals for g in ideal.gens)


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


def pair_power(g: Monomial, h: Monomial, n: int) -> MonomialIdeal:
    """``(g, h)^n`` as the explicit staircase ``{g^j h^(n-j)}``.

    Requires ``g`` and ``h`` to be incomparable; the staircase is then
    already an antichain, so no minimalization is needed.
    """
    if mon_divides(g, h) or mon_divides(h, g):
        raise ValueError(f"{g} and {h} are comparable; staircase power undefined")
    if n == 0:
        return UNIT
    if g[0] > h[0]:
        g, h = h, g
    # g now has the smaller x-exponent (larger y); walk from h^n up to g^n.
    _check_exponents(h[0] * n, g[1] * n)
    gens = [(g[0] * j + h[0] * (n - j), g[1] * j + h[1] * (n - j)) for j in range(n, -1, -1)]
    return MonomialIdeal(tuple(gens))
