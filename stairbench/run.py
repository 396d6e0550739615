"""Benchmark of the stairpow library: decompose, emit and power-mix workloads.

Run from the repository root::

    python3 stairbench/run.py --workload emit --seed 1 --seconds 20 --trace 0
    python3 stairbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 stairbench/run.py --self-test
    python3 stairbench/run.py --record-references

One process runs one workload as a closed loop with a single caller, in
process, without threads.  It measures a fixed set of distinct ops in a
fixed number of passes, sized so that they take about ``--seconds`` at the
commit that defined the benchmark.  Every op is timed alone, after
``gc.collect()`` and a host-speed probe; its output is checked outside the
timed region.  Times are stated at reference host speed, and an op's
latency is the best of its passes.  ``--trace 1`` runs one pass under span
tracing (see ``spans.py``) and reports per-layer metrics.
The last line of standard output is one JSON object with the result.
See README.md in this directory for the workloads and the predictions.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("decompose", "emit", "power-mix")

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
#: A child run of ``--workload all`` or ``--self-test`` is stopped after this.
CHILD_TIMEOUT_S = 170


def _load_library() -> None:
    """Import stairpow from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "stairpow" / "__init__.py").is_file():
        raise SystemExit(f"error: no stairpow sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import stairpow

    if Path(stairpow.__file__).resolve().parent != SRC / "stairpow":
        raise SystemExit(f"error: imported stairpow from {stairpow.__file__}")


def _moved(value):
    """The observed value with one generator moved (or the count off by one)."""
    if isinstance(value, int):
        return value + 1
    gens = list(value)
    a, b = gens[len(gens) // 2]
    gens[len(gens) // 2] = (a + 1, b)
    return tuple(gens)


@dataclass
class Phase:
    """What a measured phase did: the latencies of every attempt of each
    distinct op (a failed attempt counts with the time it took), the host's
    slowdown measured right before each attempt, the generators each
    distinct op returned, and the failures."""

    latencies: dict = field(default_factory=lambda: defaultdict(list))
    slowdowns: dict = field(default_factory=lambda: defaultdict(list))
    gens: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    ops: list = field(default_factory=list)


def _check(op, out, refs, perturb: bool):
    """``(None, generators returned)`` if ``out`` is right, else ``(reason, 0)``."""
    try:
        n, value = op.observe(out)
        if perturb:
            value = _moved(value)
        if not refs.matches(op.ideal, n, value):
            return "wrong output", 0
    except Exception as exc:  # a check that raises is a failed op
        return repr(exc), 0
    return None, 0 if isinstance(value, int) else len(value)


def measure(batches, refs, probe, tracer=None, perturb=False) -> Phase:
    """Run every op of every batch, each op timed alone and checked after."""
    run = tracer.run_op if tracer else (lambda call: call())
    phase = Phase()
    for key, op in (pair for batch in batches for pair in batch):
        gc.collect()
        phase.slowdowns[key].append(probe.slowdown())
        out, error = None, None
        start = time.perf_counter()
        try:
            out = run(op.call)
        except Exception as exc:  # a failing op is counted, the run goes on
            error = repr(exc)
        phase.latencies[key].append(time.perf_counter() - start)
        phase.ops.append(op)
        if error is None:
            error, returned = _check(op, out, refs, perturb and len(phase.ops) == 1)
        del out
        if error is None:
            phase.gens[key] = returned
        else:
            phase.failures.append(f"{op.label}: {error}")
    return phase


def replay(ops) -> float:
    """Summed untraced latency of the given ops (outputs are not checked)."""
    total = 0.0
    for op in ops:
        gc.collect()
        start = time.perf_counter()
        try:
            op.call()
        except Exception:  # already counted as failed in the traced phase
            pass
        total += time.perf_counter() - start
    return total


def end_to_end(phase: Phase, setup_s: float, passes: int):
    """The end-to-end metrics, at reference host speed.  An op's latency is
    its measured time divided by the host's slowdown just before it (see
    ``hostspeed.py``), and the best of its passes.  The measured set-up
    time ``setup_s`` is divided by the median slowdown of the run: a few
    probes around the short set-up read too noisily to correct it."""
    keys = list(phase.latencies)
    best = [min(t / h for t, h in zip(phase.latencies[k], phase.slowdowns[k])) for k in keys]
    measured = [min(phase.latencies[k]) for k in keys]
    slowdown = statistics.median(h for k in keys for h in phase.slowdowns[k])
    attempted, failed = len(phase.ops), len(phase.failures)
    busy = sum(best)
    p90 = statistics.quantiles(best, n=10)[-1] if len(best) > 1 else busy
    above = sum(1 for x in best if x > p90)
    print(f"  op_ms_p90 over {len(best)} distinct ops, best of {passes} passes each, "
          f"{above} above it; {busy:.3f} s per pass at best, "
          f"{sum(phase.gens.values())} generators per pass")
    print(f"  host slowdown median {slowdown:.3f}; as measured: op_ms_p50 "
          f"{statistics.median(measured) * 1e3:.3f} ms, "
          f"{sum(measured):.3f} s per pass at best")
    print(f"  fail_ratio {failed / attempted:.6f} ratio ({failed}/{attempted})")
    return {
        "setup_s": (setup_s / slowdown, "s"),
        "op_ms_p50": (statistics.median(best) * 1e3, "ms"),
        "op_ms_p90": (p90 * 1e3, "ms"),
        "ops_per_s": (len(best) * (attempted - failed) / attempted / busy, "1/s"),
        "ns_per_gen": (busy / max(sum(phase.gens.values()), 1) * 1e9, "ns"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_workload(args) -> int:
    _load_library()
    from hostspeed import HostProbe
    from workloads import BUILDERS, BenchmarkError

    import_s = time.perf_counter() - _START
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            work = BUILDERS[args.workload](args.seed, ROOT)
            work.warmup.call()
            setups.append(time.perf_counter() - start)
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"error: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    setup_s = import_s + statistics.median(setups)
    setup_note = (f"  set-up as measured: import {import_s:.4f} s, set-ups "
                  f"{' '.join(f'{x:.4f}' for x in setups)} s")

    # A fixed number of passes over a fixed set of ops, sized from --seconds
    # by the defining commit's pass time: a faster commit measures the same
    # ops in less time.  Below one pass, a prefix of the ops is measured.
    share = min(1.0, args.seconds / work.pass_s)
    size = max(1, math.ceil(len(work.ops) * share))
    passes = max(1, round(args.seconds / work.pass_s))
    probe = HostProbe()
    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        with tracer.installed():
            phase = measure(work.passes(1, size), work.references, probe, tracer, args.perturb)
        untraced_s = replay(phase.ops)
    else:
        phase = measure(work.passes(passes, size), work.references, probe, perturb=args.perturb)

    failures = phase.failures
    attempted, failed = len(phase.ops), len(failures)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {size} distinct ops, "
          f"{attempted} attempted, {failed} failed, {work.references.computed} references "
          f"computed in the run")
    print(setup_note)
    for line in failures[:10]:
        print(f"  FAILED {line}")

    if tracer is not None:
        metrics = layer_metrics(tracer, untraced_s)
        out_dir = ROOT / ".bench_out"
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
        layers = sum(v for k, (v, _) in metrics.items() if k.startswith("layer."))
        print(f"  traced {metrics['trace.traced_ms'][0]:.3f} ms/op, untraced "
              f"{metrics['trace.untraced_ms'][0]:.3f} ms/op, layer self times sum "
              f"to {layers:.3f} ms/op; spans in {out_dir.name}/")
    else:
        metrics = end_to_end(phase, setup_s, passes)

    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _child(workload, seed, seconds, trace, *extra) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for workload in WORKLOADS:
        proc = _child(workload, args.seed, args.seconds, args.trace)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        status = max(status, proc.returncode)
    return status


def self_test() -> int:
    """Every named metric is printed with its unit, layer self times add up
    to the traced time, and a moved generator makes the checker fail."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace, extra in ((0, ()), (1, ()), (0, ("--perturb",))):
            proc = _child(workload, 1, 1, trace, *extra)
            what = f"{workload} trace={trace} {' '.join(extra)}"
            if proc.returncode != 0:
                problems.append(f"{what}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != {m["name"]: m["unit"] for m in wanted[trace]}:
                problems.append(f"{what}: metrics {sorted(got)} differ from BENCHMARK.json")
            if trace:
                values = {k: v["value"] for k, v in result["metrics"].items()}
                layers = sum(v for k, v in values.items() if k.startswith("layer."))
                if abs(layers - values["trace.traced_ms"]) > 1e-6 * values["trace.traced_ms"]:
                    problems.append(f"{what}: layer self times do not add up to the traced time")
            if extra:
                if result["failed"] == 0 or result["correct"]:
                    problems.append(f"{what}: a moved generator was not detected")
            elif result["failed"] or not result["correct"]:
                problems.append(f"{what}: {result['failed']} failed ops")
            print(f"self-test {what}: {result['attempted']} ops, {result['failed']} failed")
    for line in problems:
        print(f"SELF-TEST FAIL {line}")
    print("SELF-TEST PASS" if not problems else "SELF-TEST FAIL")
    return 1 if problems else 0


def record_references() -> int:
    _load_library()
    from workloads import record_references as record, references_path

    rows = record(ROOT)
    lines = ",\n".join(json.dumps(row) for row in rows)
    references_path().write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(rows)} references")
    return 0


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=_positive, default=20.0,
                        help="intended length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", action="store_true",
                        help="move one generator of the first output (checker self-test)")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-references", action="store_true",
                        help="recompute references.json with the staircase reference")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.record_references:
        return record_references()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
