"""Inputs, operations and output checks of the three stairpow workloads.

Every workload is a closed loop with one caller: an :class:`Op` is one
library call, and the next op starts only after the previous one returned
and was checked.  A workload is a fixed list of distinct ops, measured in
passes; every pass runs each of them once, in a seeded order.  Inputs are
derived from the seed; fixed inputs come from ``benchmarks/ideals.txt``.
Outputs are compared with the Tier-1 reference routes (repeated
multiplication up to ``NAIVE_LIMIT``, the staircase expansion above it) by
digest, either recorded in ``references.json`` or computed in the run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from stairpow import engine
from stairpow.geometry import persistence_profile, stabilization_radius
from stairpow.ideals import Axis, MonomialIdeal, mon_pow, naive_power
from stairpow.oracle import NAIVE_LIMIT, RandomIdealSpec, random_ideal
from stairpow.textio import parse_ideal

#: The Tier-1 corpus distribution (tests/test_acceptance.py, criteria 3 and 6).
CORPUS_MU_MAX, CORPUS_EXP_MAX = 8, 20

#: Corpus ideals are the first 2**BLOCK_BITS oracle seeds; decompose takes
#: DECOMPOSE_ROUNDS even-stride samples of 2**ROUND_BITS of them.
BLOCK_BITS, ROUND_BITS, DECOMPOSE_ROUNDS = 8, 5, 4

#: Ideal used for warm-up ops; it is never measured.
WARMUP_IDEAL = MonomialIdeal(((0, 2), (2, 1), (3, 0)))

#: emit: the largest ell = n - s per ideal; each ideal gets EMIT_CELLS
#: values of ell spaced evenly in log scale from 10^3 to its cap.  Each cap
#: keeps the staircase reference that records the digests to about 10^7
#: candidates per pair.
EMIT_CAPS = {"I1": 100_000, "I1*x^3y^2": 100_000, "I2": 30_000, "I2^T": 30_000, "I3": 10_000}
EMIT_CELLS = 21

#: power-mix: corpus cost ranks (in tenths of the corpus block) in the
#: pool, powers per (ideal, route), and the largest ell = n - s of the
#: assembled and mu routes.
MIX_CORPUS_TENTHS, MIX_POWERS_PER_ROUTE, MIX_MAX_ELL = range(1, 9), 3, 100


class BenchmarkError(Exception):
    """The benchmark cannot run as defined (missing or inconsistent inputs)."""


@dataclass(frozen=True)
class Op:
    """One library call and how to read the value to check from its result.

    ``observe`` maps the result to ``(n, value)``: ``value`` is the generator
    tuple of ``I^n``, or ``mu(I^n)`` for a count query.
    """

    label: str
    ideal: MonomialIdeal
    call: Callable[[], object]
    observe: Callable[[object], tuple[int, tuple | int]]


def digest(gens: tuple, divisor: tuple[int, int] = (0, 0)) -> str:
    """SHA-256 of the generator list divided by the monomial ``divisor``."""
    flat = np.fromiter(itertools.chain.from_iterable(gens), dtype=np.int64, count=2 * len(gens))
    arr = flat.reshape(-1, 2) - np.asarray(divisor, dtype=np.int64)
    return hashlib.sha256(arr.tobytes()).hexdigest()


class References:
    """Expected ``(digest, mu)`` of ``J^n`` for anchored ideals ``J``.

    ``I^n = gcd(I)^n * J^n`` with ``J = I : gcd(I)``, so one reference serves
    every monomial multiple of ``J``.  A missing reference is computed once.
    """

    def __init__(self) -> None:
        self._known: dict[tuple, tuple[str, int]] = {}
        self.computed = 0

    def add(self, anchored: MonomialIdeal, n: int, dig: str, mu: int) -> None:
        self._known[(anchored.gens, n)] = (dig, mu)

    def load(self, path: Path) -> None:
        for row in json.loads(path.read_text(encoding="utf-8")):
            self.add(MonomialIdeal(tuple(map(tuple, row["ideal"]))), row["n"], row["digest"],
                     row["mu"])

    def known(self, anchored: MonomialIdeal, n: int) -> bool:
        return (anchored.gens, n) in self._known

    def expected(self, anchored: MonomialIdeal, n: int) -> tuple[str, int]:
        key = (anchored.gens, n)
        if key not in self._known:
            ref = reference_power(anchored, n)
            self._known[key] = (digest(ref.gens), ref.mu)
            self.computed += 1
        return self._known[key]

    def matches(self, ideal: MonomialIdeal, n: int, value: tuple | int) -> bool:
        anchored, gcd = ideal.anchor()
        dig, mu = self.expected(anchored, n)
        if isinstance(value, int):
            return value == mu
        return len(value) == mu and digest(value, mon_pow(gcd, n)) == dig


def reference_power(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """``I^n`` by the Tier-1 differential references."""
    if n <= NAIVE_LIMIT:
        return naive_power(ideal, n)
    anchored, shift = ideal.anchor()
    profile = persistence_profile(anchored)
    return engine.decomposed_power(anchored, profile, n).shift(mon_pow(shift, n))


def stabilization_bounds(ideal: MonomialIdeal) -> tuple[int, int]:
    """``(D_P, s)`` from the persistence profile, without a decomposition."""
    anchored, _ = ideal.anchor()
    profile = persistence_profile(anchored)
    d = profile.D_P
    r = min(stabilization_radius(anchored, profile, d, axis) for axis in Axis)
    return d, d + r + 1


def read_fixed_ideals(root: Path) -> dict[str, MonomialIdeal]:
    path = root / "benchmarks" / "ideals.txt"
    if not path.is_file():
        raise BenchmarkError(f"missing fixed inputs {path}")
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            label, text = line.split(":", 1)
            out[label.strip()] = parse_ideal(text)
    return out


def _stratified_order(n_bits: int) -> list[int]:
    # Bit-reversed counting: each aligned run of 2^j indices visits the block
    # at the fixed stride 2^(n_bits - j), so every round of the block samples
    # the whole cost range in the same way.
    return [int(f"{i:0{n_bits}b}"[::-1], 2) for i in range(1 << n_bits)]


def corpus_block() -> list[MonomialIdeal]:
    """Corpus ideals of oracle seeds ``0 .. 2**BLOCK_BITS - 1``, cheapest first.

    Decomposition cost is ranked by ``s * mu(I)``, whose rank correlation
    with the measured cost was 0.98 on 600 corpus ideals.
    """
    ideals = [
        random_ideal(RandomIdealSpec(CORPUS_MU_MAX, CORPUS_EXP_MAX, seed=seed))
        for seed in range(1 << BLOCK_BITS)
    ]
    return sorted(ideals, key=lambda I: (stabilization_bounds(I)[1] * I.mu, I.gens))


def _image(ideal: MonomialIdeal, rng: random.Random) -> MonomialIdeal:
    # The corpus distribution is symmetric under x <-> y, so the transposed
    # ideal is an equally likely draw with the same decomposition cost.
    return ideal.transpose() if rng.random() < 0.5 else ideal


def decompose_op(label: str, ideal: MonomialIdeal) -> Op:
    def observe(dec):
        return dec.s, engine.assemble_power(dec, dec.s).gens

    return Op(label, ideal, lambda: engine.stable_decomposition(ideal), observe)


def power_op(label: str, ideal: MonomialIdeal, n: int) -> Op:
    return Op(label, ideal, lambda: engine.power(ideal, n), lambda out: (n, out.gens))


def assemble_op(label: str, ideal: MonomialIdeal, dec, n: int) -> Op:
    return Op(label, ideal, lambda: engine.assemble_power(dec, n), lambda out: (n, out.gens))


def mu_op(label: str, ideal: MonomialIdeal, n: int) -> Op:
    return Op(label, ideal, lambda: engine.mu_polynomial(ideal)(n), lambda out: (n, out))


@dataclass
class Workload:
    """The built inputs of one run: a warm-up op, the distinct ops, and
    ``pass_s``, the time one pass over all of them took at the commit that
    defined this benchmark (2-vCPU VM, Python 3.11).  ``variant(op, j)`` is
    what pass ``j`` runs for ``op``."""

    warmup: Op
    ops: list[Op]
    references: References
    pass_s: float
    rng: random.Random
    variant: Callable[[Op, int], Op] = lambda op, j: op

    def passes(self, count: int, size: int) -> Iterator[list[tuple[int, Op]]]:
        """``count`` passes over the first ``size`` ops, each pass in a seeded
        order, as ``(index of the distinct op, op)`` pairs."""
        for j in range(count):
            order = list(range(size))
            self.rng.shuffle(order)
            yield [(k, self.variant(self.ops[k], j)) for k in order]


def references_path() -> Path:
    return Path(__file__).resolve().parent / "references.json"


def loaded_references() -> References:
    refs = References()
    refs.load(references_path())
    return refs


def decompose_ideals(root: Path) -> list[tuple[str, MonomialIdeal]]:
    """I1-I3, then DECOMPOSE_ROUNDS even-stride samples of the cost-sorted
    corpus block, each round sampling the whole cost range."""
    fixed = read_fixed_ideals(root)
    block = corpus_block()
    order = _stratified_order(BLOCK_BITS)[: DECOMPOSE_ROUNDS << ROUND_BITS]
    return [(label, fixed[label]) for label in ("I1", "I2", "I3")] + [
        (f"corpus rank {pos}", block[pos]) for pos in order
    ]


def _shifted(op: Op, j: int) -> Op:
    # I*(xy)^j is a new ideal whose decomposition does the work of I's: the
    # library anchors it first.  So pass j > 0 repeats the cost, not the input.
    return op if j == 0 else decompose_op(f"{op.label} * (xy)^{j}", op.ideal.shift((j, j)))


def build_decompose(seed: int, root: Path) -> Workload:
    """Distinct ideals, from :func:`decompose_ideals`.  The seed picks the
    orientation of every ideal (I or its transpose) and the order of every
    pass; the ideals are the same for every seed."""
    rng = random.Random(f"decompose:{seed}")
    ops = [decompose_op(label, _image(ideal, rng)) for label, ideal in decompose_ideals(root)]
    return Workload(decompose_op("warm-up", WARMUP_IDEAL), ops, loaded_references(), 11.0, rng,
                    _shifted)


def emit_ideals(root: Path) -> dict[str, MonomialIdeal]:
    fixed = read_fixed_ideals(root)
    return {
        "I1": fixed["I1"],
        "I1*x^3y^2": fixed["I1"].shift((3, 2)),  # nonzero gcd: shift on the way out
        "I2": fixed["I2"],
        "I2^T": fixed["I2"].transpose(),  # decomposition picks axis X
        "I3": fixed["I3"],
    }


def log_grid(lo: int, hi: int, count: int) -> list[int]:
    return sorted({round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)})


def emit_cells(root: Path) -> list[tuple[str, MonomialIdeal, int]]:
    """Every ``(label, ideal, n)`` of the emit grid, ``n = s + ell``."""
    cells = []
    for label, ideal in emit_ideals(root).items():
        s = stabilization_bounds(ideal)[1]
        cells += [(label, ideal, s + ell) for ell in log_grid(1_000, EMIT_CAPS[label], EMIT_CELLS)]
    return cells


def record_references(root: Path) -> list[dict]:
    """Digests of every decompose and emit output by the staircase reference.

    decompose needs both orientations of its ideals, because the seed picks
    one; emit cells are too large to compute their reference in a run.
    """
    wanted = {}
    for _, ideal in decompose_ideals(root):
        for image in (ideal, ideal.transpose()):
            wanted[(image.anchor()[0].gens, stabilization_bounds(image)[1])] = None
    for _, ideal, n in emit_cells(root):
        wanted[(ideal.anchor()[0].gens, n)] = None
    rows = []
    for gens, n in wanted:
        ref = reference_power(MonomialIdeal(gens), n)
        rows.append(dict(ideal=[list(g) for g in gens], n=n, digest=digest(ref.gens), mu=ref.mu))
    return rows


def build_emit(seed: int, root: Path) -> Workload:
    """``assemble_power`` on decompositions built here, over the fixed grid
    of :func:`emit_cells`; the seed orders every pass."""
    rng = random.Random(f"emit:{seed}")
    ideals = emit_ideals(root)
    decs = {label: engine.stable_decomposition(ideal) for label, ideal in ideals.items()}
    refs = loaded_references()
    ops = []
    for label, ideal, n in emit_cells(root):
        if not refs.known(ideal.anchor()[0], n) or n < decs[label].s:
            raise BenchmarkError(f"no emit reference for {label} n={n}; see --record-references")
        ops.append(assemble_op(f"emit {label} n={n}", ideal, decs[label], n))
    warm = decs["I1"]
    return Workload(assemble_op("warm-up", ideals["I1"], warm, warm.s), ops, refs, 6.0, rng)


def build_power_mix(seed: int, root: Path) -> Workload:
    """``power`` and ``mu_polynomial`` calls over a pool of repeated ideals.

    The pool is I1, I2 and the corpus ideals at the 10%, 20%, .., 80% cost
    ranks of the corpus block.  For each pool ideal there are ops on four
    routes -- naive (n < D_P, n <= 30), decomposed (D_P <= n < s), assembled
    (n >= s) and a mu query (n >= s) -- each at three powers, the middles
    of the thirds of the route's range.  The seed orders every pass.  It
    does not pick orientations: D_P, and so the naive powers, depends on
    the orientation, and with ten pool ideals that moved p50 by 11%.
    """
    rng = random.Random(f"power-mix:{seed}")
    fixed = read_fixed_ideals(root)
    block = corpus_block()
    size = len(block)
    pool = [("I1", fixed["I1"]), ("I2", fixed["I2"])] + [
        (f"corpus rank {size * t // 10}", block[size * t // 10]) for t in MIX_CORPUS_TENTHS
    ]
    ops = []
    for label, ideal in pool:
        d, s = stabilization_bounds(ideal)
        routes = {
            "naive": range(1, min(d, NAIVE_LIMIT + 1)),
            "decomposed": range(max(d, 1), s),
            "assembled": range(s, s + MIX_MAX_ELL + 1),
            "mu": range(s, s + MIX_MAX_ELL + 1),
        }
        for route, span in routes.items():
            for j in range(MIX_POWERS_PER_ROUTE if len(span) else 0):
                n = span[(2 * j + 1) * len(span) // (2 * MIX_POWERS_PER_ROUTE)]
                name = f"{route} {label} n={n}"
                ops.append(mu_op(name, ideal, n) if route == "mu" else power_op(name, ideal, n))
    return Workload(power_op("warm-up", WARMUP_IDEAL, 5), ops, References(), 4.0, rng)


BUILDERS = {"decompose": build_decompose, "emit": build_emit, "power-mix": build_power_mix}
