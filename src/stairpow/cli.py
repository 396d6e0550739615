"""Command-line front end.

Subcommands: analyze | power | mu | bench | plot | check.  Exit codes:
0 success, 1 usage or parse errors (and failed check suites), 2 violated
math preconditions (principal ideal, n < 1, infeasible method), 3 exponent
overflow.
"""

from __future__ import annotations

import argparse
import csv
import io
import multiprocessing
import os
import sys
import time

from .ideals import (
    Axis,
    ExponentOverflowError,
    MonomialIdeal,
    PrincipalIdealError,
    mon_pow,
    naive_power,
)
from .engine import (
    _axis_and_radius,
    assemble_power,
    decomposed_power,
    mu_polynomial,
    power,
    stable_decomposition,
)
from .geometry import persistence_profile, stabilization_radius, weakly_persistent_generators
from .oracle import check_corpus
from .svg import write_svg
from .textio import ParseError, format_term, parse_ideal, serialize

#: Environment variable overriding the seed of the check suite.
SEED_ENV = "STAIRPOW_SEED"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2
EXIT_OVERFLOW = 3


def _print_ideal(ideal: MonomialIdeal, fmt: str) -> None:
    if fmt == "terms":
        for g in ideal.gens:
            print(format_term(g))
    else:
        print(serialize(ideal))


def _chosen(ideal: MonomialIdeal, args):
    """P*(I) under ``--use-weakly-persistent``, else the default P(I)."""
    return weakly_persistent_generators(ideal) if args.weakly else None


def _decompose(ideal: MonomialIdeal, args):
    return stable_decomposition(ideal, chosen=_chosen(ideal, args), D=args.big_d)


def cmd_analyze(args) -> int:
    ideal = parse_ideal(args.ideal)
    dec = _decompose(ideal, args)
    profile = dec.profile
    anchored, shift = ideal.anchor()
    r_x = stabilization_radius(anchored, profile, dec.D, Axis.X)
    r_y = stabilization_radius(anchored, profile, dec.D, Axis.Y)
    print(f"ideal              {serialize(ideal)}")
    print(f"mu                 {ideal.mu}")
    print(f"gcd                {format_term(shift)}")
    print(f"persistent P(I)    {serialize(MonomialIdeal(profile.persistent))}")
    print(f"weakly persistent  {serialize(MonomialIdeal(profile.weakly_persistent))}")
    print(f"chosen P           {serialize(MonomialIdeal(profile.chosen))}")
    print(f"delta_P            {profile.delta_P}")
    print(f"d_P                {profile.d_P}")
    print(f"D                  {dec.D}")
    print(f"r_x                {r_x}")
    print(f"r_y                {r_y}")
    print(f"axis               {dec.axis.value}")
    print(f"r                  {dec.r}")
    print(f"s                  {dec.s}")
    print(f"mu(I^s)            {dec.base_power.mu}")
    print(f"slope              {dec.slope}")
    print(
        f"mu(I^n)            {dec.base_power.mu} + {dec.slope}*(n - {dec.s}) "
        f"for n >= {dec.s}"
    )
    return EXIT_OK


def cmd_power(args) -> int:
    ideal = parse_ideal(args.ideal)
    n = args.n
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    if args.method == "naive":
        result = naive_power(ideal, n)
    elif args.method == "decomposed":
        if ideal.is_principal:
            raise PrincipalIdealError("decomposed method needs a non-principal ideal")
        anchored, shift = ideal.anchor()
        profile = persistence_profile(anchored, _chosen(anchored, args))
        d = profile.D_P if args.big_d is None else args.big_d
        if d < profile.D_P:
            raise ValueError(f"D={d} below the guaranteed bound D_P={profile.D_P}")
        if n < d:
            raise ValueError(f"decomposed method needs n >= D = {d}")
        result = decomposed_power(anchored, profile, n).shift(mon_pow(shift, n))
    elif args.method == "fast":
        if ideal.is_principal:
            raise PrincipalIdealError("fast method needs a non-principal ideal")
        dec = _decompose(ideal, args)
        if n < dec.s:
            raise ValueError(f"fast method needs n >= s = {dec.s}")
        result = assemble_power(dec, n)
    else:
        result = power(ideal, n)
    _print_ideal(result, args.format)
    return EXIT_OK


def cmd_mu(args) -> int:
    ideal = parse_ideal(args.ideal)
    if ideal.is_principal:
        if args.n is not None:
            print(f"mu(I^{args.n}) = 1")
            return EXIT_OK
        print("mu(I^n) = 1 for all n >= 1 (principal ideal)")
        return EXIT_OK
    poly = mu_polynomial(ideal)
    if args.n is None:
        print(f"mu(I^n) = {poly.intercept} + {poly.slope}*(n - {poly.s}) for n >= {poly.s}")
        return EXIT_OK
    n = args.n
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    if n >= poly.s:
        print(f"mu(I^{n}) = {poly(n)}")
    else:
        print(f"mu(I^{n}) = {power(ideal, n).mu}  (pre-stable: n < s = {poly.s})")
    return EXIT_OK


# -- bench ----------------------------------------------------------------


def _bench_cell(gens: tuple, method: str, n: int) -> tuple[float, float, int]:
    """One benchmark measurement; runs in a worker process.

    Returns (preprocess_ms, compute_ms, mu).
    """
    ideal = MonomialIdeal(gens)
    if method == "naive":
        start = time.perf_counter()
        result = naive_power(ideal, n)
        return 0.0, (time.perf_counter() - start) * 1000.0, result.mu
    if method == "decomposed":
        start = time.perf_counter()
        anchored, _ = ideal.anchor()
        profile = persistence_profile(anchored)
        base = naive_power(anchored, profile.D_P)
        pre_ms = (time.perf_counter() - start) * 1000.0
        start = time.perf_counter()
        result = decomposed_power(anchored, profile, n, base=base)
        return pre_ms, (time.perf_counter() - start) * 1000.0, result.mu
    if method == "assembled":
        start = time.perf_counter()
        dec = stable_decomposition(ideal)
        pre_ms = (time.perf_counter() - start) * 1000.0
        start = time.perf_counter()
        result = assemble_power(dec, max(n, dec.s))
        return pre_ms, (time.perf_counter() - start) * 1000.0, result.mu
    raise ValueError(f"unknown method {method!r}")


def _parse_power_token(token: str, s: int) -> int:
    token = token.strip().lower()
    if token.startswith("s+"):
        return s + int(float(token[2:]))
    if token == "s":
        return s
    return int(float(token))


def _read_bench_ideals(path: str) -> list[tuple[str, MonomialIdeal]]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for idx, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            label = f"I_{len(out) + 1}"
            text = line
            colon = line.find(":")
            bracket = line.find("[")
            if colon != -1 and (bracket == -1 or colon < bracket):
                label, text = (p.strip() for p in line.split(":", 1))
            out.append((label, parse_ideal(text)))
    if not out:
        raise ParseError("no ideals found in benchmark file", 0)
    return out


def cmd_bench(args) -> int:
    ideals = _read_bench_ideals(args.ideal_file)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in ("naive", "decomposed", "assembled"):
            raise ParseError(f"unknown method {m!r}", 0)
    rows: list[dict] = []
    jobs = []
    for label, ideal in ideals:
        # s = D_P + r + 1 from the profile alone, as ``power`` finds it.
        anchored = ideal.anchor()[0]
        profile = persistence_profile(anchored)  # raises on a principal ideal
        s = profile.D_P + _axis_and_radius(anchored, profile, profile.D_P)[1] + 1
        powers = [_parse_power_token(tok, s) for tok in args.powers.split(",") if tok.strip()]
        for n in powers:
            for method in methods:
                jobs.append((label, ideal, n, method))

    def record(label, method, n, outcome):
        if outcome is None:
            rows.append(
                dict(ideal=label, method=method, n=n, preprocess_ms="—", compute_ms="—", mu="—")
            )
        else:
            pre, comp, mu = outcome
            rows.append(
                dict(
                    ideal=label,
                    method=method,
                    n=n,
                    preprocess_ms=f"{pre:.2f}",
                    compute_ms=f"{comp:.2f}",
                    mu=mu,
                )
            )

    ctx = multiprocessing.get_context("fork")
    for label, ideal, n, method in jobs:
        queue = ctx.SimpleQueue()

        def worker(q=queue, gens=ideal.gens, m=method, nn=n):
            q.put(_bench_cell(gens, m, nn))

        proc = ctx.Process(target=worker)
        proc.start()
        proc.join(args.timeout)
        if proc.is_alive():
            proc.terminate()
            proc.join()
            record(label, method, n, None)
        else:
            record(label, method, n, queue.get() if not queue.empty() else None)

    header = ["ideal", "method", "n", "preprocess_ms", "compute_ms", "mu"]
    widths = [
        max(len(h), max((len(str(r[h])) for r in rows), default=0)) for h in header
    ]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(str(r[h]).ljust(w) for h, w in zip(header, widths)))

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header)
    writer.writeheader()
    writer.writerows(rows)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        print()
        print(buf.getvalue(), end="")
    return EXIT_OK


def cmd_plot(args) -> int:
    ideal = parse_ideal(args.ideal)
    if args.power is not None:
        if args.power < 1:
            raise ValueError(f"power must be >= 1, got {args.power}")
        ideal = power(ideal, args.power)
    try:
        write_svg(ideal, args.out, hull=args.hull)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_check(args) -> int:
    seed = args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        seed = int(env)
    reports = check_corpus(
        count=args.count,
        mu_max=args.mu_max,
        exp_max=args.exp_max,
        seed=seed,
        tail=args.tail,
    )
    failures = 0
    for report in reports:
        for line in report.lines():
            if args.verbose or "FAIL" in line:
                print(line)
        failures += len(report.failures)
    total = sum(len(r.records) for r in reports)
    print(f"check suite: {len(reports)} ideals, {total} comparisons, {failures} mismatches (seed={seed})")
    return EXIT_OK if failures == 0 else EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stairpow",
        description="Minimal generating sets of powers of bivariate monomial ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_decomposition_flags(p):
        p.add_argument(
            "--use-weakly-persistent",
            dest="weakly",
            action="store_true",
            help="use all boundary generators (P = P*(I)) instead of the corners",
        )
        p.add_argument(
            "--big-d",
            type=int,
            default=None,
            metavar="D",
            help="override the expansion power D (must be >= D_P)",
        )

    p = sub.add_parser("analyze", help="persistence profile and stabilization bounds")
    p.add_argument("ideal", help="ideal text, e.g. 'y^2 + x^2*y + x^3' or '[(0,2),(2,1),(3,0)]'")
    add_decomposition_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("power", help="minimal generators of I^n")
    p.add_argument("ideal")
    p.add_argument("n", type=int)
    p.add_argument("--method", choices=["auto", "naive", "decomposed", "fast"], default="auto")
    p.add_argument("--format", choices=["pairs", "terms"], default="pairs")
    add_decomposition_flags(p)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("mu", help="the generator-count polynomial, or mu(I^n)")
    p.add_argument("ideal")
    p.add_argument("n", type=int, nargs="?", default=None)
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("bench", help="benchmark the power routines")
    p.add_argument("ideal_file", help="file with one ideal per line ('label: text' allowed)")
    p.add_argument("--powers", default="s+1e2,s+1e3,s+1e4", help="comma list; 's+1e3' means s+1000")
    p.add_argument("--methods", default="assembled", help="comma list of naive,decomposed,assembled")
    p.add_argument("--timeout", type=float, default=300.0, help="seconds per cell (default 300)")
    p.add_argument("--csv", default=None, help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("plot", help="SVG staircase diagram")
    p.add_argument("ideal")
    p.add_argument("--out", required=True, help="output .svg path")
    p.add_argument("--power", type=int, default=None, help="plot I^n instead of I")
    p.add_argument("--hull", action="store_true", help="draw the Newton-polyhedron boundary")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("check", help="run the randomized differential suite")
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--mu-max", type=int, default=8)
    p.add_argument("--exp-max", type=int, default=20)
    p.add_argument("--seed", type=int, default=0, help=f"overridden by ${SEED_ENV} if set")
    p.add_argument("--tail", type=int, default=15)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ExponentOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except (PrincipalIdealError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
