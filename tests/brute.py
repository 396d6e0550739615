"""Brute-force references for the dense kernels of ``stairpow.ideals`` and
``stairpow.segments``.

They form every candidate product and sort it, with no shortcut that the
library's kernels share, so the property tests compare against them.
"""

import numpy as np

from stairpow.ideals import Monomial, MonomialIdeal, mon_divides, pair_power


def lexsort_minimal(points) -> tuple[Monomial, ...]:
    """Minimal generators by a (x, y) lexsort and a running-minimum sweep."""
    arr = np.asarray(list(points), dtype=np.int64)
    arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
    b = arr[:, 1]
    run_min = np.minimum.accumulate(b)
    mask = np.empty(len(arr), dtype=bool)
    mask[0] = True
    mask[1:] = b[1:] < run_min[:-1]
    return tuple(map(tuple, arr[mask].tolist()))


def antichain(points) -> tuple[Monomial, ...]:
    """Minimal generators straight from the definition: the points that no
    other point divides, one copy each, in canonical order."""
    pts = set(points)
    return tuple(
        sorted(p for p in pts if not any(q != p and mon_divides(q, p) for q in pts))
    )


def product(a: MonomialIdeal, b: MonomialIdeal) -> tuple[Monomial, ...]:
    """G(a * b) from all mu(a) * mu(b) candidate products."""
    return lexsort_minimal((p + r, q + s) for p, q in a.gens for r, s in b.gens)


def staircase_times(g: Monomial, h: Monomial, n: int, j_ideal: MonomialIdeal) -> tuple[Monomial, ...]:
    """G((g, h)^n * J) from the ``(n + 1) * mu(J)`` candidate products."""
    return product(pair_power(g, h, n), j_ideal)
