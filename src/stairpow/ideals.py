"""Exact arithmetic for bivariate monomial ideals.

A monomial ``x^a y^b`` is identified with the exponent pair ``(a, b)``.  A
monomial ideal is represented by its unique minimal generating set, kept in
canonical order: strictly increasing x-exponent, strictly decreasing
y-exponent.  In two variables the minimal generators always form such a
divisibility antichain, so the canonical order doubles as a validity check.
The generators are stored as one read-only ``(2, mu)`` int64 array of x and
y columns; the tuple of exponent pairs is a view derived on demand.

Ideals have two constructors.  ``MonomialIdeal(xy)`` checks shape, dtype,
order and signs, for all outside input and :func:`minimalize`.
``MonomialIdeal._canonical(xy)`` checks only the dtype: code whose output is
canonical by construction (from ideals, or inputs passing an O(1) range
check) may call it, saying why.  The tests fully check every array it gets.

Exponents are restricted to the non-negative int64 range ``[0, 2**63)``.
Any operation that would leave it raises :class:`ExponentOverflowError`
instead of producing an out-of-range value.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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

#: The most columns of a ``(2, size)`` int64 array; numpy refuses more.
_MAX_COLUMNS = np.iinfo(np.intp).max // 16


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


def _count(n: int, least: int, message: str) -> int:
    """The one reader of a public count, where it enters: ``n`` as an exact Python int, at least ``least``."""
    if isinstance(n, bool):  # operator.index reads it as 0 or 1; the constructor refuses it too
        raise TypeError("'bool' object cannot be interpreted as an integer")
    n = operator.index(n)
    if n < least:
        raise ValueError(f"{message}, got {n}")
    return n


def _monomial(m: Monomial) -> Monomial:
    """A monomial argument, exactly two exponents, each read by :func:`_count` down to ``anchor``'s shifts."""
    a, b = m
    return _count(a, 1 - EXP_LIMIT, "exponent out of range"), _count(b, 1 - EXP_LIMIT, "exponent out of range")


def mon_pow(m: Monomial, n: int) -> Monomial:
    a, b = _monomial(m)
    _check_exponents(a * n, b * n)
    return (a * n, b * n)


def mon_divides(m: Monomial, n: Monomial) -> bool:
    return m[0] <= n[0] and m[1] <= n[1]


def _columns(points: Iterable[Monomial]) -> np.ndarray:
    """The C-contiguous ``(2, N)`` int64 columns of exponent pairs of Python or numpy integers."""
    arr = np.array(list(points), dtype=object)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("monomials must be a non-empty sequence of exponent pairs")
    for kind in set(map(type, arr.flat)):
        if kind is bool or not issubclass(kind, (int, np.integer)):
            raise ValueError(f"an exponent of type {kind.__name__} is not an integer")
    try:
        return arr.T.astype(np.int64, order="C")
    except OverflowError:
        raise ExponentOverflowError("exponent out of the int64 range") from None


def _minimalize_array(xy: np.ndarray) -> np.ndarray:
    """The minimal generators of the int64 points in the columns ``xy``, as columns.

    Buckets the least x per y level, in O(N + y-span), then sweeps the levels
    once with :func:`_level_staircase`.  A y-span beyond
    ``_BUCKET_SPAN_FACTOR * N`` is compressed to the occurring levels.
    """
    y0 = int(np.minimum.reduce(xy[1]))
    span = int(np.maximum.reduce(xy[1])) - y0 + 1
    dense = span <= _BUCKET_SPAN_FACTOR * xy.shape[1]
    if dense:
        y = xy[1] - y0
    else:
        levels, y = np.unique(xy[1], return_inverse=True)
        span = len(levels)
    x_by_y = np.empty(span, dtype=np.int64)
    x_by_y.fill(_NO_POINT)
    np.minimum.at(x_by_y, y, xy[0])
    return _level_staircase(x_by_y, y0 if dense else levels)


def _level_staircase(x_by_y: np.ndarray, levels: int | np.ndarray) -> np.ndarray:
    """The minimal generators of the points ``(x_by_y[i], levels + i)``, or
    ``(x_by_y[i], levels[i])`` for an ascending array ``levels``, as columns:
    one sweep keeps each level whose x undercuts every level below it.  An
    empty level holds ``_NO_POINT``; the first is never empty.  Non-negative
    points give canonical columns, fit for :meth:`MonomialIdeal._canonical`.
    ``x_by_y`` may be an ideal's read-only :attr:`MonomialIdeal.staircase`.
    The kept columns are written straight into one ``(2, k)`` array; ``take``
    with ``mode="clip"`` writes its ``out`` in place, where ``"raise"`` buffers it."""
    keep = np.empty(len(x_by_y), dtype=bool)
    keep[0] = True
    np.less(x_by_y[1:], np.minimum.accumulate(x_by_y)[:-1], out=keep[1:])
    kept = keep.nonzero()[0][::-1]
    xy = np.empty((2, len(kept)), dtype=np.int64)
    x_by_y.take(kept, out=xy[0], mode="clip")
    if isinstance(levels, np.ndarray):
        levels.take(kept, out=xy[1], mode="clip")
    else:
        np.add(kept, levels, out=xy[1])
    return xy


def minimalize(candidates: Iterable[Monomial]) -> "MonomialIdeal":
    """Return the ideal generated by ``candidates`` in canonical form.

    Keeps exactly the divisibility antichain: a candidate survives iff no
    other candidate divides it.
    """
    return MonomialIdeal(_minimalize_array(_columns(candidates)))


@dataclass(frozen=True, eq=False)
class MonomialIdeal:
    """A bivariate monomial ideal in canonical minimal-generator form.

    ``xy`` is the read-only ``(2, mu)`` int64 array of x (ascending) and y
    (descending) exponents.  It may be given as a sequence of exponent pairs
    in canonical order instead; an array is adopted as is and made
    read-only, so ideals may share it.  Do not construct directly from
    unsorted data; use :func:`minimalize` or :meth:`MonomialIdeal.of`.
    The kernels build their results with :meth:`_canonical`, which skips
    the checks (see the module docstring for who may call it).
    """

    xy: np.ndarray

    def __post_init__(self) -> None:
        xy = self.xy
        if not isinstance(xy, np.ndarray):
            xy = _columns(xy)
            object.__setattr__(self, "xy", xy)
        if xy.dtype != np.int64 or xy.ndim != 2 or len(xy) != 2 or not xy.shape[1]:
            raise ValueError("a monomial ideal needs a (2, mu) int64 array, mu >= 1")
        # Ufunc reductions: ndarray.all and np.count_nonzero each run a Python-level wrapper.
        if not (np.logical_and.reduce(xy[0, 1:] > xy[0, :-1]) and np.logical_and.reduce(xy[1, :-1] > xy[1, 1:])):
            raise ValueError(f"generators not in canonical antichain order: {xy.T.tolist()}")
        if xy[0, 0] < 0 or xy[1, -1] < 0:
            raise ExponentOverflowError(f"negative exponent in {xy.T.tolist()}")
        xy.setflags(write=False)

    @classmethod
    def _canonical(cls, xy: np.ndarray, staircase: np.ndarray | None = None) -> "MonomialIdeal":
        """The ideal on ``xy``, a ``(2, mu)`` int64 array in canonical order
        with non-negative ends, made read-only without any O(mu) check, as is
        a ``staircase`` built for it alone, kept as its own.  Only the dtype
        is checked, so a non-integer exponent (a float shift) fails."""
        if xy.dtype != np.int64:
            raise ValueError(f"a monomial ideal needs an int64 array, not {xy.dtype}")
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "xy", xy)
        xy.setflags(write=False)
        if staircase is not None:
            staircase.setflags(write=False)
            vars(ideal)["staircase"] = staircase
        return ideal

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
        return self._hash

    @cached_property
    def _hash(self) -> int:  # taken once, as gens is: the array is read-only
        return hash(self.xy.tobytes())

    @cached_property
    def staircase(self) -> np.ndarray:
        """The least x at each of the ``dist_y + 1`` levels from the lowest generator up, read-only: kept from
        the level kernel or a shift, or else each x repeated up to the next y on first read, as ``gens`` is."""
        y = self.xy[1, ::-1]
        steps = np.empty(len(y), dtype=np.int64)
        np.subtract(y[1:], y[:-1], out=steps[:-1])
        steps[-1] = 1
        levels = self.xy[0, ::-1].repeat(steps)
        levels.setflags(write=False)
        return levels

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
        """Whether the monomial ``m``, read by :func:`_monomial`, lies in the ideal."""
        a, b = _monomial(m)
        return bool(((self.xy[0] <= a) & (self.xy[1] <= b)).any())

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
        return MonomialIdeal._canonical(_minimalize_array(xy.reshape(2, -1)))

    def shift(self, m: Monomial) -> "MonomialIdeal":
        """Multiply by the monomial ``m``: a constant shift keeps the order,
        and both ends are range-checked first."""
        m = _monomial(m)
        if m[0] == 0 and m[1] == 0:
            return self
        _check_exponents(self.xy.item(0, -1) + m[0], self.xy.item(1, 0) + m[1])
        _check_exponents(self.xy.item(0, 0) + m[0], self.xy.item(1, -1) + m[1])
        staircase = self.staircase + m[0] if "staircase" in vars(self) else None  # a cached one moves too
        return MonomialIdeal._canonical(self.xy + ((m[0],), (m[1],)), staircase)

    def colon(self, m: Monomial) -> "MonomialIdeal":
        """The colon ideal ``I : m`` for a monomial ``m = (u, v)``.

        Generators with ``a <= u`` collapse onto the last of them, those with
        ``b <= v`` onto the first of them; two searches find both runs, and
        clamping the differences at zero maps the two ends: a canonical result.
        Both exponents are read by :func:`_count` and must be non-negative.
        """
        x, y = self.xy[0], self.xy[1]
        # Past the largest exponent the quotient no longer depends on m.
        u = min(_count(m[0], 0, "colon exponent must be non-negative"), int(x[-1]))
        v = min(_count(m[1], 0, "colon exponent must be non-negative"), int(y[0]))
        i = int(x.searchsorted(u, "right"))  # x[:i] <= u
        j = len(x) - int(y[::-1].searchsorted(v, "right"))  # y[j:] <= v
        if i > j:
            return UNIT  # generators j .. i-1 divide m
        return MonomialIdeal._canonical(np.maximum(self.xy[:, max(i - 1, 0) : j + 1] - ((u,), (v,)), 0))

    def anchor(self) -> tuple["MonomialIdeal", Monomial]:
        """Split off the gcd: returns ``(I : gcd(I), gcd(I))``."""
        g = self.gcd()
        return self.shift((-g[0], -g[1])), g

    def transpose(self) -> "MonomialIdeal":
        """Swap the roles of x and y; the reversed columns, copied in C order, are canonical."""
        return MonomialIdeal._canonical(np.ascontiguousarray(self.xy[::-1, ::-1]))

    def __str__(self) -> str:
        return "[" + ", ".join(f"({a}, {b})" for a, b in self.gens) + "]"


UNIT = MonomialIdeal(((0, 0),))


def ideal_sum(ideals: Sequence[MonomialIdeal]) -> MonomialIdeal:
    if not ideals:
        raise ValueError("empty sum of ideals")
    if len(ideals) == 1:
        return ideals[0]
    return MonomialIdeal._canonical(_minimalize_array(np.concatenate([ideal.xy for ideal in ideals], axis=1)))


def naive_power(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """``I^n`` by ``n - 1`` repeated multiplications.

    Deliberately shortcut-free; this is the reference oracle the fast paths
    are tested against.
    """
    n = _count(n, 0, "power must be non-negative")
    if n == 0:
        return UNIT
    if ideal.is_principal:  # I^n is its generator's n-th power, at once
        return MonomialIdeal((mon_pow(ideal.gcd(), n),))
    _check_exponents(n * int(ideal.xy[0, -1]), n * int(ideal.xy[1, 0]))  # I^n's largest, before the loop
    result = ideal
    for _ in range(n - 1):
        result = result * ideal
    return result


def level_power(ideal: MonomialIdeal, n: int, reduction: Sequence[Monomial] = ()) -> MonomialIdeal:
    """``I^n``: the last level of :func:`_levels`, else :func:`naive_power`.
    ``reduction`` is a set P of generators of I, read by :func:`_monomial`, holding both
    extreme ones (else ValueError), such as its corners: a reduction of I (Northcott and Rees 1954)."""
    n = _count(n, 0, "power must be non-negative")
    chosen, gens = set(map(_monomial, reduction)), ideal.gens
    if chosen and not {gens[0], gens[-1]} <= chosen <= set(gens):
        raise ValueError(f"the reduction {tuple(reduction)} of {ideal} is not in G(I) or lacks an extreme generator")
    levels = None
    for _, levels, _ in _levels(ideal, n, reduction):
        pass
    return naive_power(ideal, n) if levels is None else _level_ideal(levels, n * gens[-1][1])


def _level_ideal(levels: np.ndarray, y0: int) -> MonomialIdeal:
    """The ideal of a level array of :func:`_levels` from level ``y0`` up, one sweep, keeping a copy as staircase."""
    return MonomialIdeal._canonical(_level_staircase(levels, y0), levels.copy())


def _levels(ideal: MonomialIdeal, n: int, reduction: Sequence[Monomial]) -> Iterator[tuple]:
    """The level kernel: ``(j, staircase of I^j, certified)`` for j = 1 to n,
    but none below 2, for a principal ideal or a y-span past ``_BUCKET_SPAN_FACTOR * mu(I)``.
    ``certified`` is the least step so far, for ``j < n`` the step to I^(j+1)
    included, with ``I^(i+1) = (P) I^i``: 0 when P is empty or all of G(I).
    A staircase is a view of the kernel's buffers, valid until the next step.

    Entry t for ``I^j`` is the least x of ``I^j`` at most t above its lowest
    generator: the staircase of ``I^j``, for ``j = 1`` the ideal's cached
    :attr:`MonomialIdeal.staircase`.  Entry t for ``I^(j+1)`` is the
    minimum over the generators g of entry ``t - g_y`` plus ``g_x``: one
    slice minimum per generator, no candidate products.  Slices end at the
    top of ``I^j``, where the slice of the highest generator has already
    come as far left, so the result is again the staircase, equal arrays
    are equal ideals, and one final sweep yields the minimal generators.

    Until a step certifies ``I^(j+1) = (P) I^j``, each step takes the slices
    of P, which give the staircase of ``(P) I^j``, and then those of the
    other generators: if none lowers that staircase, the step certifies, and
    by induction every later step takes the slices of P alone.
    """
    gens = ideal.gens  # Python ints, cached on the ideal once a profile has read them
    y0 = gens[-1][1]
    span = gens[0][1] - y0
    if n < 2 or not 0 < span <= _BUCKET_SPAN_FACTOR * ideal.mu:  # span 0: principal
        return
    # The lowest generator's slice starts at level 0; the others follow it.
    lowest, steps = gens[-1][0], [(a, b - y0) for a, b in gens[:-1]]
    chosen = {a for a, _ in reduction}  # generators of I differ in x
    certified = 0 if len(chosen) in (0, ideal.mu) else None  # 0: P is G(I)
    # The largest exponents of I^n, checked before any int64 add.
    _check_exponents(n * lowest, n * gens[0][1])
    # I's staircase, read only: level 0 holds a generator, so no _NO_POINT
    # is left to add to.  From then on the slices of the lowest and the
    # highest generator, both in P, cover every level, so none comes back.
    levels = ideal.staircase
    # P's steps reduce every step, the others until a step certifies.
    reducing = [step for step in steps if certified is not None or step[0] in chosen]
    others = [step for step in steps if certified is None and step[0] not in chosen]
    # Two level arrays of the final length take turns, and one buffer takes
    # the shifted copies: no allocation per step.
    size = n * span + 1
    if size > _MAX_COLUMNS:  # before numpy's ValueError
        raise MemoryError(f"up to {size} generators, over the {_MAX_COLUMNS} one array holds")
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
            certifies = certifies and not np.logical_or.reduce(shifted < window)
            np.minimum(window, shifted, out=window)
        if certifies and others:
            certified, others = j, []
        yield j, levels, certified  # levels is still I^j
        levels = stepped
    yield n, levels, certified


def pair_power(g: Monomial, h: Monomial, n: int) -> MonomialIdeal:
    """``(g, h)^n`` as the explicit staircase ``{g^j h^(n-j)}``.

    Requires ``g`` and ``h`` to be incomparable; the staircase is then
    already an antichain in canonical order, so no minimalization or
    check beyond the range of its four end exponents is needed.
    """
    g, h = _monomial(g), _monomial(h)
    if mon_divides(g, h) or mon_divides(h, g):
        raise ValueError(f"{g} and {h} are comparable; staircase power undefined")
    n = _count(n, 0, "power must be non-negative")
    if g[0] > h[0]:
        g, h = h, g
    # g now has the smaller x-exponent (larger y); walk from h^n up to g^n.
    _check_exponents(h[0] * n, g[1] * n)
    _check_exponents(g[0] * n, h[1] * n)
    if n + 1 > _MAX_COLUMNS:  # before numpy's ValueError
        raise MemoryError(f"{n + 1} generators, over the {_MAX_COLUMNS} one array holds")
    j = np.arange(n, -1, -1)
    return MonomialIdeal._canonical(np.multiply.outer(g, j) + np.multiply.outer(h, j[::-1]))
