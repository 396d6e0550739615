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
import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .ideals import Axis, MonomialIdeal, PrincipalIdealError, _check_exponents, naive_power
from .engine import (
    StableDecomposition,
    assemble_power,
    decomposed_power,
    stable_decomposition,
)

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
    method_ms: float
    reference_ms: float

    @property
    def line(self) -> str:
        verdict = "ok  " if self.equal else "FAIL"
        return (
            f"{verdict} {self.label} n={self.n} {self.method} vs {self.reference} "
            f"({self.method_ms:.1f} ms / {self.reference_ms:.1f} ms)"
        )


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
    if n < dec.s:
        raise ValueError(f"generator shifting needs n >= s = {dec.s}")
    oriented = dec.oriented(gens_n, n)
    x, y = oriented.xy
    _check_exponents(int(x[-1]) + dec.gs[-1][0], int(y[0]) + dec.gs[0][1])
    # Middle block i spans y from its last copy's bottom to that plus its y-span.
    ell = n - dec.s
    bottom = np.array([h[1] + ell * g[1] for h, g in zip(dec.boundary_points[1:-1], dec.gs[1:])])
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


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, (time.perf_counter() - start) * 1000.0


def differential_check(
    ideal: MonomialIdeal,
    n_range: Iterable[int],
    label: str = "I",
    naive_limit: int = NAIVE_LIMIT,
    dec: StableDecomposition | None = None,
) -> DifferentialReport:
    """Cross-check every applicable power routine over ``n_range``.

    For each n the reference is repeated multiplication when n is at most
    ``naive_limit``, otherwise the staircase expansion; every other
    applicable routine is compared against it by exact generator-list
    equality.  When ``n - 1 >= s`` is in the range too, the band shift of
    the reference at ``n - 1`` is one of them.  Mismatches are recorded,
    never raised.
    """
    if ideal.is_principal:
        raise PrincipalIdealError("differential check needs a non-principal ideal")
    if dec is None:
        dec = stable_decomposition(ideal)
    d_base = naive_power(ideal, dec.D)

    report = DifferentialReport(label=label, ideal=ideal)
    naive_cache: MonomialIdeal | None = None
    naive_at = 0
    prev: tuple[int, MonomialIdeal] | None = None
    for n in sorted(set(n_range)):
        if n < 1:
            continue
        candidates: dict[str, MonomialIdeal | None] = {}
        timings: dict[str, float] = {}

        if n <= naive_limit:
            # Incremental: reuse the previous naive power when consecutive.
            start = time.perf_counter()
            if naive_cache is not None and naive_at < n:
                value = naive_cache
                for _ in range(n - naive_at):
                    value = value * ideal
            else:
                value = naive_power(ideal, n)
            timings["naive"] = (time.perf_counter() - start) * 1000.0
            naive_cache, naive_at = value, n
            candidates["naive"] = value
        if n >= dec.D:
            value, ms = _timed(lambda: decomposed_power(ideal, dec.profile, n, base=d_base))
            candidates["decomposed"] = value
            timings["decomposed"] = ms
        if n >= dec.s:
            value, ms = _timed(lambda: assemble_power(dec, n))
            candidates["assembled"] = value
            timings["assembled"] = ms
        if prev is not None and prev[0] == n - 1 >= dec.s:
            start = time.perf_counter()
            try:
                candidates["shifted"] = shift_generators(dec, prev[1], n - 1)
            except (AssertionError, ValueError):
                # A shift that breaks its own invariants yields no G(I^n).
                candidates["shifted"] = None
            timings["shifted"] = (time.perf_counter() - start) * 1000.0

        if not candidates:
            continue
        ref_name = "naive" if "naive" in candidates else "decomposed"
        ref = candidates[ref_name]
        prev = (n, ref)
        for name, value in candidates.items():
            if name == ref_name:
                continue
            report.records.append(
                CheckRecord(
                    label=label,
                    n=n,
                    method=name,
                    reference=ref_name,
                    equal=value == ref,
                    method_ms=timings[name],
                    reference_ms=timings[ref_name],
                )
            )
    return report


def corpus_powers(dec: StableDecomposition, naive_limit: int = NAIVE_LIMIT, tail: int = 15) -> list[int]:
    """The standing power range for one corpus instance:
    1..min(s, naive_limit) plus the window s..s+tail."""
    low = range(1, min(dec.s, naive_limit) + 1)
    high = range(dec.s, dec.s + tail + 1)
    return sorted(set(low) | set(high))


def check_corpus(
    count: int,
    mu_max: int = 8,
    exp_max: int = 20,
    seed: int = 0,
    naive_limit: int = NAIVE_LIMIT,
    tail: int = 15,
) -> list[DifferentialReport]:
    """Run the standing randomized differential suite.

    Instance i uses seed ``seed + i``; each is checked over
    :func:`corpus_powers` of its own decomposition.
    """
    reports = []
    for i in range(count):
        spec = RandomIdealSpec(mu_max=mu_max, exp_max=exp_max, seed=seed + i)
        ideal = random_ideal(spec)
        dec = stable_decomposition(ideal)
        reports.append(
            differential_check(
                ideal,
                corpus_powers(dec, naive_limit, tail),
                label=f"seed={spec.seed}",
                naive_limit=naive_limit,
                dec=dec,
            )
        )
    return reports
