"""Ground-truth engines and randomized instances for differential testing.

The root oracle is plain repeated multiplication (:func:`naive_power`),
trusted by construction but infeasible beyond small powers.  The staircase
expansion (:func:`decomposed_power`), once validated against it, serves as
the scaled oracle for the large powers where the assembled fast path is
exercised.  From s on, the one-step band rule (:func:`shift_generators`)
is checked against the same references, with no assembly involved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable

import numpy as np

from .ideals import Axis, MonomialIdeal, PrincipalIdealError, _check_exponents, _count, naive_power
from .engine import StableDecomposition, assemble_power, decomposed_power, power, stable_decomposition

#: Largest power for which repeated multiplication is used as the reference.
NAIVE_LIMIT = 30


@dataclass(frozen=True)
class RandomIdealSpec:
    """Parameters for reproducible random ideal generation."""

    mu_max: int
    exp_max: int
    seed: int

    def __post_init__(self) -> None:
        if self.mu_max < 2:
            raise ValueError("mu_max must be at least 2")
        if self.mu_max > self.exp_max + 1:
            raise ValueError(
                f"infeasible spec: mu_max={self.mu_max} needs exp_max >= {self.mu_max - 1}"
            )


def random_ideal(spec: RandomIdealSpec) -> MonomialIdeal:
    """A random non-principal ideal, deterministic in ``spec.seed``.

    Samples a strictly x-increasing / y-decreasing generator chain, which
    is an antichain by construction; principal draws cannot occur since at
    least two generators are sampled.
    """
    rng = random.Random(spec.seed)
    mu = rng.randint(2, spec.mu_max)
    xs = sorted(rng.sample(range(spec.exp_max + 1), mu))
    ys = sorted(rng.sample(range(spec.exp_max + 1), mu), reverse=True)
    return MonomialIdeal(tuple(zip(xs, ys)))


@dataclass(frozen=True)
class CheckRecord:
    """One comparison: ``method`` vs ``reference`` at power ``n``."""

    label: str
    n: int
    method: str
    reference: str
    equal: bool

    @property
    def line(self) -> str:
        verdict = "ok  " if self.equal else "FAIL"
        return f"{verdict} {self.label} n={self.n} {self.method} vs {self.reference}"


@dataclass
class DifferentialReport:
    """Aggregated comparisons for one ideal over a range of powers."""

    label: str
    ideal: MonomialIdeal
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.equal for r in self.records)

    @property
    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.equal]

    def lines(self) -> list[str]:
        out = [r.line for r in self.records]
        verdict = "PASS" if self.passed else "FAIL"
        out.append(f"{verdict} {self.label}: {len(self.records)} comparisons, "
                   f"{len(self.failures)} mismatches")
        return out


def shift_generators(dec: StableDecomposition, gens_n: MonomialIdeal, n: int) -> MonomialIdeal:
    """``G(I^(n+1))`` from ``G(I^n)`` by multiplying each generator with one
    or two boundary generators selected by its y-degree band.

    ``n`` must be at least s and ``gens_n`` must equal G(I^n).
    """
    n = _count(n, dec.s, f"generator shifting needs n >= s = {dec.s}")
    oriented = dec.oriented(gens_n, n)
    x, y = oriented.xy
    _check_exponents(int(x[-1]) + dec.gs[-1][0], int(y[0]) + dec.gs[0][1])
    # Middle block i spans y from its last copy's bottom to that plus its y-span.
    ell = n - dec.s
    bottom = np.array([h[1] + ell * g[1] for h, g in zip(dec.link_points, dec.gs[1:])])
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


def differential_check(
    ideal: MonomialIdeal,
    n_range: Iterable[int],
    label: str = "I",
    dec: StableDecomposition | None = None,
) -> DifferentialReport:
    """Cross-check every applicable power routine over ``n_range``.

    Each n runs the routes that apply to it, in this order: repeated
    multiplication up to ``NAIVE_LIMIT``, the staircase expansion from D,
    assembly from s, the band shift of the reference at n - 1 when n - 1 >= s
    was checked just before, and :func:`power` where either of the first two
    applies.  The first is the reference; the others are compared with it by
    exact generator-list equality.  Mismatches are recorded, never raised.
    """
    if ideal.is_principal:
        raise PrincipalIdealError("differential check needs a non-principal ideal")
    if dec is None:
        dec = stable_decomposition(ideal)
    d_base = naive_power(ideal, dec.D)
    naive_at, naive_value = 1, ideal  # I^naive_at, stepped up one factor at a time
    prev: dict[int, MonomialIdeal] = {}  # the last reference, keyed by its n

    def naive(n: int) -> MonomialIdeal:
        nonlocal naive_at, naive_value
        for _ in range(naive_at, n):
            naive_value = naive_value * ideal
        naive_at = n
        return naive_value

    def shifted(n: int) -> MonomialIdeal | None:
        try:
            return shift_generators(dec, prev[n - 1], n - 1)
        except (AssertionError, ValueError):
            return None  # a shift that breaks its own invariants yields no G(I^n)

    routes = (  # (name, whether it applies to n, its G(I^n))
        ("naive", lambda n: n <= NAIVE_LIMIT, naive),
        ("decomposed", lambda n: n >= dec.D,
         partial(decomposed_power, ideal, dec.profile, base=d_base)),
        ("assembled", lambda n: n >= dec.s, partial(assemble_power, dec)),
        ("shifted", lambda n: n - 1 >= dec.s and n - 1 in prev, shifted),
        ("power", lambda n: n <= NAIVE_LIMIT or n >= dec.D, partial(power, ideal)),
    )
    report = DifferentialReport(label=label, ideal=ideal)
    for n in sorted({n for n in n_range if n >= 1}):
        results = [(name, compute(n)) for name, applies, compute in routes if applies(n)]
        if not results:
            continue
        (ref_name, ref), *others = results
        prev = {n: ref}
        report.records.extend(
            CheckRecord(label, n, name, ref_name, value == ref) for name, value in others
        )
    return report


def corpus_powers(dec: StableDecomposition) -> list[int]:
    """The standing power range for one corpus instance:
    1..min(s, NAIVE_LIMIT) plus the window s..s+15."""
    low = range(1, min(dec.s, NAIVE_LIMIT) + 1)
    high = range(dec.s, dec.s + 16)
    return sorted(set(low) | set(high))


def check_corpus(
    count: int,
    seed: int = 0,
) -> list[DifferentialReport]:
    """Run the standing randomized differential suite.

    Instance i is the ideal of ``RandomIdealSpec(8, 20, seed + i)``; each is
    checked over :func:`corpus_powers` of its own decomposition.
    """
    reports = []
    for i in range(count):
        spec = RandomIdealSpec(mu_max=8, exp_max=20, seed=seed + i)
        ideal = random_ideal(spec)
        dec = stable_decomposition(ideal)
        reports.append(
            differential_check(
                ideal,
                corpus_powers(dec),
                label=f"seed={spec.seed}",
                dec=dec,
            )
        )
    return reports
