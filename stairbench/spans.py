"""Span tracing of the stairpow layers from outside the library.

:class:`Tracer` replaces public functions of ``geometry``, ``ideals``,
``segments``, ``engine`` and ``links`` with wrappers that record a span
``(name, start_ns, end_ns, parent, op)`` per call.  Each name is patched
where its caller looks it up (``engine`` imports most helpers by name), and
restored on exit.  Spans stay in memory and are written out at the end.
Self time of a span is its duration minus the durations of its children,
so the self times of all spans of one op add up to that op's duration.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from stairpow import engine, links, segments
from stairpow.engine import StableDecomposition
from stairpow.ideals import MonomialIdeal

#: Span name of the op itself; its self time is benchmark code.
ROOT = "bench.op"


def _staircase_counts(counts, args, result):
    n, j_ideal = args[2], args[3]
    counts["segments.staircase_candidates"] += (n + 1) * j_ideal.mu
    counts["segments.staircase_kept"] += result.mu


def _mul_counts(counts, args, result):
    counts["ideals.mul_candidates"] += args[0].mu * args[1].mu
    counts["ideals.mul_kept"] += result.mu


def _validate_counts(counts, args, result):
    counts["ideals.validate_gens"] += len(args[0].gens)


def _emit_counts(counts, args, result):
    counts["engine.additions"] += result[1]


#: (span name, owner, attribute, count function or None).
PATCHES = (
    ("geometry.profile", engine, "persistence_profile", None),
    ("geometry.radius", engine, "stabilization_radius", None),
    ("ideals.validate", MonomialIdeal, "__post_init__", _validate_counts),
    ("ideals.mul", MonomialIdeal, "__mul__", _mul_counts),
    ("ideals.sum", MonomialIdeal, "__add__", None),
    ("ideals.sum", engine, "ideal_sum", None),
    ("ideals.colon", MonomialIdeal, "colon", None),
    ("ideals.reorient", MonomialIdeal, "shift", None),
    ("ideals.reorient", MonomialIdeal, "transpose", None),
    ("ideals.reorient", MonomialIdeal, "anchor", None),
    ("ideals.naive_power", engine, "naive_power", None),
    ("segments.staircase", engine, "staircase_times", _staircase_counts),
    ("segments.staircase", segments, "staircase_times", _staircase_counts),
    ("segments.glued", engine, "glued_components", None),
    ("links.link", segments, "link_many", None),
    ("links.link", links, "link_many", None),
    ("engine.decompose", engine, "stable_decomposition", None),
    ("engine.decomposed_power", engine, "decomposed_power", None),
    ("engine.emit", engine, "_emit", _emit_counts),
    ("engine.unoriented", StableDecomposition, "unoriented", None),
    ("engine.assemble", engine, "assemble_power", None),
    ("engine.assemble", engine, "assemble_power_counted", None),
    ("engine.power", engine, "power", None),
    ("engine.mu_polynomial", engine, "mu_polynomial", None),
)

LAYERS = ("geometry", "ideals", "segments", "engine", "links", "bench")


class Tracer:
    """Records spans of library calls made inside :meth:`run_op`."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._op = -1
        self._active = False

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name, fn, count):
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[i] = (nid, start, end, parent, self._op)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced name; restore the originals on exit."""
        saved = []
        try:
            for name, owner, attr, count in PATCHES:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def run_op(self, call):
        """Call ``call()`` as one traced op under a root span."""
        self._op += 1
        i = len(self.spans)
        self.spans.append(None)
        self._stack.append(i)
        self._active = True
        start = time.perf_counter_ns()
        try:
            return call()
        finally:
            end = time.perf_counter_ns()
            self._active = False
            self._stack.pop()
            self.spans[i] = (0, start, end, -1, self._op)

    def arrays(self) -> dict[str, np.ndarray]:
        table = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        return dict(zip(("name", "start_ns", "end_ns", "parent", "op"), table.T))

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in ms."""
        cols = self.arrays()
        dur = (cols["end_ns"] - cols["start_ns"]).astype(np.float64)
        child = cols["parent"] >= 0
        covered = np.bincount(cols["parent"][child], weights=dur[child], minlength=len(dur))
        own = np.bincount(cols["name"], weights=dur - covered, minlength=len(self.names))
        return {name: own[i] / 1e6 for i, name in enumerate(self.names)}

    def calls(self) -> dict[str, int]:
        hist = np.bincount(self.arrays()["name"], minlength=len(self.names))
        return {name: int(hist[i]) for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics of a traced phase; ``untraced_s`` is the time the
    same ops took without tracing."""
    own = tracer.self_ms()
    calls = tracer.calls()
    c = tracer.counts
    ops = calls[ROOT]
    per_op = lambda v: _ratio(v, ops)  # noqa: E731
    ms = lambda name: (per_op(own.get(name, 0.0)), "ms/op")  # noqa: E731
    count = lambda v: (per_op(v), "count/op")  # noqa: E731
    out = {
        "segments.staircase_ms": ms("segments.staircase"),
        "segments.staircase_candidates": count(c["segments.staircase_candidates"]),
        "segments.staircase_yield": (
            _ratio(c["segments.staircase_kept"], c["segments.staircase_candidates"]), "ratio"),
        "segments.glued_ms": ms("segments.glued"),
        "ideals.colon_ms": ms("ideals.colon"),
        "ideals.colon_calls": count(calls.get("ideals.colon", 0)),
        "ideals.sum_ms": ms("ideals.sum"),
        "engine.emit_ms": ms("engine.emit"),
        "engine.additions": count(c["engine.additions"]),
        "engine.unoriented_ms": ms("engine.unoriented"),
        "engine.assemble_ms": ms("engine.assemble"),
        "ideals.validate_ms": ms("ideals.validate"),
        "ideals.validate_gens": count(c["ideals.validate_gens"]),
        "ideals.reorient_ms": ms("ideals.reorient"),
        "links.link_ms": ms("links.link"),
        "engine.decompose_calls": count(calls.get("engine.decompose", 0)),
        "engine.decompose_ms": ms("engine.decompose"),
        "geometry.profile_calls": count(calls.get("geometry.profile", 0)),
        "geometry.profile_ms": ms("geometry.profile"),
        "engine.decomposed_power_ms": ms("engine.decomposed_power"),
        "ideals.naive_power_ms": ms("ideals.naive_power"),
        "ideals.mul_ms": ms("ideals.mul"),
        "ideals.mul_candidates": count(c["ideals.mul_candidates"]),
        "ideals.mul_yield": (_ratio(c["ideals.mul_kept"], c["ideals.mul_candidates"]), "ratio"),
    }
    for layer in LAYERS:
        total = sum(v for name, v in own.items() if name.split(".")[0] == layer)
        out[f"layer.{layer}_ms"] = (per_op(total), "ms/op")
    cols = tracer.arrays()
    root = cols["name"] == 0
    traced_ns = (cols["end_ns"][root] - cols["start_ns"][root]).sum()
    out["trace.traced_ms"] = (per_op(traced_ns / 1e6), "ms/op")
    out["trace.untraced_ms"] = (per_op(untraced_s * 1e3), "ms/op")
    out["trace.ops"] = (ops, "count")
    return out
