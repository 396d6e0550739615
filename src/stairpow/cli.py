"""Command-line front end.

Subcommands: analyze | power | mu | bench | check.  Exit codes: 0 success,
1 usage or parse errors (and failed check suites), 2 violated math
preconditions (principal ideal, n < 1, a bench cell below its method's
range or one whose worker raised) or an output too large to allocate,
3 exponent overflow, 141 stdout closed by its reader (a broken pipe).
"""

from __future__ import annotations

import argparse
import csv
import decimal
import multiprocessing
import os
import sys
import time

from .ideals import EXP_LIMIT, ExponentOverflowError, MonomialIdeal, PrincipalIdealError, level_power, naive_power
from .engine import (
    _Plan, _plan, assemble_power, decomposed_power, mu_polynomial, power, require_power, stable_decomposition,
)
from .geometry import persistence_profile, weakly_persistent_generators
from .oracle import check_corpus
from .textio import ParseError, format_term, parse_ideal, serialize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2
EXIT_OVERFLOW = 3
EXIT_BROKEN_PIPE = 141  # what a shell reports for a writer stopped by SIGPIPE

#: The longest ``bench --timeout`` in seconds: a worker is joined through
#: ``poll``, whose timeout is an int of milliseconds.
BENCH_TIMEOUT_MAX = (2**31 - 1) // 1000

#: The methods ``bench`` times, as ``_bench_cell`` names its stages.
BENCH_METHODS = ("naive", "decomposed", "assembled")


def _print_ideal(ideal: MonomialIdeal, fmt: str) -> None:
    if fmt == "terms":
        for g in ideal.gens:
            print(format_term(g))
    else:
        print(serialize(ideal))


def cmd_analyze(args) -> int:
    ideal = parse_ideal(args.ideal)
    # One plan and its one decomposition, at the onset power() serves from:
    # the paper's constants come from the profile, mu(I^s) from the polynomial.
    plan = _Plan(ideal, weakly_persistent_generators(ideal) if args.weakly else None)
    profile, (onset, _, reduction) = plan.profile, plan.onset
    poly, s = plan.polynomial, profile.s
    print(f"ideal              {serialize(ideal)}")
    print(f"mu                 {ideal.mu}")
    print(f"gcd                {format_term(ideal.gcd())}")
    print(f"persistent P(I)    {serialize(MonomialIdeal(profile.persistent))}")
    print(f"weakly persistent  {serialize(MonomialIdeal(profile.weakly_persistent))}")
    print(f"chosen P           {serialize(MonomialIdeal(profile.chosen))}")
    print(f"delta_P            {profile.delta_P}")
    print(f"d_P                {profile.d_P}")
    print(f"D                  {profile.D_P}")
    print(f"reduction m        {'none' if reduction is None else reduction}")
    print(f"r_x                {profile.r_x}")
    print(f"r_y                {profile.r_y}")
    print(f"axis               {profile.axis.value}")
    print(f"r                  {profile.r}")
    print(f"s                  {s}")
    onset_m, onset_s = (onset, plan.s) if onset < profile.D_P else ("none", "none")
    print(f"onset m            {onset_m}")
    print(f"onset s            {onset_s}")
    print(f"mu(I^s)            {poly(s)}")
    print(f"slope              {poly.slope}")
    print(f"mu(I^n)            {poly(s)} + {poly.slope}*(n - {s}) for n >= {s}")
    return EXIT_OK


def cmd_power(args) -> int:
    _print_ideal(power(parse_ideal(args.ideal), args.n), args.format)
    return EXIT_OK


def cmd_mu(args) -> int:
    ideal = parse_ideal(args.ideal)
    n = args.n
    if n is not None and n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    if ideal.is_principal:
        print("mu(I^n) = 1 for all n >= 1 (principal ideal)" if n is None else f"mu(I^{n}) = 1")
        return EXIT_OK
    # The plan's s needs no decomposition; power() and mu_polynomial() reuse the plan.
    s = _plan(ideal).s
    if n is not None and n < s:
        print(f"mu(I^{n}) = {power(ideal, n).mu}  (pre-stable: n < s = {s})")
        return EXIT_OK
    poly = mu_polynomial(ideal)
    if n is None:
        print(f"mu(I^n) = {poly.intercept} + {poly.slope}*(n - {poly.s}) for n >= {poly.s}")
    else:
        print(f"mu(I^{n}) = {poly(n)}")
    return EXIT_OK


# -- bench ----------------------------------------------------------------


def _bench_cell(ideal: MonomialIdeal, method: str, n: int) -> tuple[float, float, int]:
    """One benchmark measurement; runs in a forked worker process.

    A method is a preprocess stage and a compute stage, each fed what the
    one before it returned.  Returns (preprocess_ms, compute_ms, mu).
    """

    def profile_and_base(_):
        profile = persistence_profile(ideal)
        return profile, level_power(ideal, profile.D_P, profile.chosen)

    stages = {
        "naive": (lambda _: None, lambda _: naive_power(ideal, n)),
        "decomposed": (profile_and_base, lambda pb: decomposed_power(ideal, pb[0], n, base=pb[1])),
        "assembled": (lambda _: stable_decomposition(ideal), lambda dec: assemble_power(dec, n)),
    }
    value, ms = None, []
    for stage in stages[method]:
        start = time.perf_counter()
        value = stage(value)
        ms.append((time.perf_counter() - start) * 1000.0)
    return ms[0], ms[1], value.mu


def _run_cell(ideal: MonomialIdeal, method: str, n: int, timeout: float) -> list:
    """:func:`_bench_cell` in a forked worker, as its three formatted values:
    ``—`` each when it outlives ``timeout`` seconds, ``error`` each when it raises."""
    ctx = multiprocessing.get_context("fork")
    queue = ctx.SimpleQueue()
    proc = ctx.Process(target=lambda: queue.put(_bench_cell(ideal, method, n)))
    proc.start()
    proc.join(timeout)
    if proc.is_alive():
        proc.terminate()
        proc.join()
        return ["—"] * 3
    if proc.exitcode != 0:
        return ["error"] * 3
    pre_ms, compute_ms, mu = queue.get()
    return [f"{pre_ms:.2f}", f"{compute_ms:.2f}", mu]


def _parse_power_token(token: str, s: int) -> int:
    """``n``, ``s`` or ``s+n``, where ``n`` is an integer such as ``1e4``."""
    token = token.strip().lower()
    if token == "s":
        return s
    text, base = (token[2:], s) if token.startswith("s+") else (token, 0)
    try:
        value = decimal.Decimal(text)
    except decimal.InvalidOperation:
        raise ParseError(f"malformed power {token!r}", 0) from None
    if not value.is_finite() or value != value.to_integral_value():
        raise ParseError(f"power {token!r} is not an integer", 0)
    if not -EXP_LIMIT < value < EXP_LIMIT:  # before int() expands an exponent like 1e999999999
        raise ExponentOverflowError(f"power {token!r} is beyond the exponent limit 2^63")
    return base + int(value)


def _read_bench_ideals(path: str) -> list[tuple[str, MonomialIdeal]]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            # An optional "label:" prefix; ideal text never holds a colon.
            label, _, text = line.rpartition(":")
            out.append((label.strip() or f"I_{len(out) + 1}", parse_ideal(text)))
    if not out:
        raise ParseError("no ideals found in benchmark file", 0)
    return out


def cmd_bench(args) -> int:
    ideals = _read_bench_ideals(args.ideal_file)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    tokens = [tok for tok in args.powers.split(",") if tok.strip()]
    if not methods or not tokens:
        raise ParseError("bench needs at least one method and one power", 0)
    for m in methods:
        if m not in BENCH_METHODS:
            raise ParseError(f"unknown method {m!r}", 0)
    if not 0 < args.timeout <= BENCH_TIMEOUT_MAX:  # false for nan too
        raise ParseError(f"--timeout must be positive and at most {BENCH_TIMEOUT_MAX} s, got {args.timeout}", 0)
    jobs = []
    for label, ideal in ideals:
        # s from the profile alone, as ``power`` finds it; cells out of their
        # method's range are refused here, before any worker is forked.
        profile = persistence_profile(ideal)  # raises on a principal ideal
        powers = [_parse_power_token(tok, profile.s) for tok in tokens]
        for n in powers:
            for method in methods:
                require_power(n, profile, method)
                jobs.append((label, ideal, n, method))

    table = [["ideal", "method", "n", "preprocess_ms", "compute_ms", "mu"]]
    for label, ideal, n, method in jobs:
        table.append([label, method, n, *_run_cell(ideal, method, n, args.timeout)])
    widths = [max(len(str(cell)) for cell in column) for column in zip(*table)]
    for row in table:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(table)
    else:
        print()
        csv.writer(sys.stdout).writerows(table)
    errors = sum(row[-1] == "error" for row in table)
    if errors:
        print(f"error: {errors} bench cell(s) raised in their worker", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


def cmd_check(args) -> int:
    if args.count < 1:  # an empty suite would pass vacuously
        raise ParseError(f"--count must be at least 1, got {args.count}", 0)
    reports = check_corpus(count=args.count, seed=args.seed)
    for report in reports:
        for line in report.lines():
            if "FAIL" in line:
                print(line)
    failures = sum(len(r.failures) for r in reports)
    total = sum(len(r.records) for r in reports)
    print(f"check suite: {len(reports)} ideals, {total} comparisons, {failures} mismatches (seed={args.seed})")
    return EXIT_OK if failures == 0 else EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stairpow",
        description="Minimal generating sets of powers of bivariate monomial ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="persistence profile and stabilization bounds")
    p.add_argument("ideal", help="ideal text, e.g. 'y^2 + x^2*y + x^3' or '[(0,2),(2,1),(3,0)]'")
    p.add_argument(
        "--use-weakly-persistent",
        dest="weakly",
        action="store_true",
        help="use all boundary generators (P = P*(I)) instead of the corners",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("power", help="minimal generators of I^n")
    p.add_argument("ideal")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=["pairs", "terms"], default="pairs")
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("mu", help="the generator-count polynomial, or mu(I^n)")
    p.add_argument("ideal")
    p.add_argument("n", type=int, nargs="?", default=None)
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("bench", help="benchmark the power routines")
    p.add_argument("ideal_file", help="file with one ideal per line ('label: text' allowed)")
    p.add_argument("--powers", default="s+1e2,s+1e3,s+1e4", help="comma list; 's+1e3' means s+1000")
    p.add_argument("--methods", default="assembled", help=f"comma list of {','.join(BENCH_METHODS)}")
    p.add_argument("--timeout", type=float, default=300.0, help="seconds per cell (default 300)")
    p.add_argument("--csv", default=None, help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("check", help="run the randomized differential suite")
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
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
    except MemoryError as exc:  # numpy's message, when there is one, names the size
        print(f"error: output too large to allocate: {exc}".rstrip(": "), file=sys.stderr)
        return EXIT_MATH
    except BrokenPipeError:
        # The reader left; the interpreter's flush at exit must not fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
