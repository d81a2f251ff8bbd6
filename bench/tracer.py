"""Spans and counts recorded around calls into dombcheck's modules, from the
benchmark's side; no file of the program changes.

``Tracer.install()`` replaces functions and methods with wrappers and puts
the originals back on exit.  A function is replaced under every name a
dombcheck module binds it to, so calls through ``from .x import f`` are
seen as well.  Self time is a span's duration minus the part covered by its
child spans, so every second inside a ``verify_prime`` span is charged to
exactly one span, and shared tables are charged to the call that built them.

Each ``verify_prime`` call becomes one record.  In a pool worker (forked,
so the wrappers are inherited) the record is appended to
``<spool>/<pid>.jsonl``; the parent reads the spool after each pass.
``time.perf_counter`` is CLOCK_MONOTONIC on Linux, one clock for the parent
and its workers, so their span times can be compared.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter as clock

import dombcheck.cli as cli
import dombcheck.congruences as congruences
import dombcheck.domb as domb
import dombcheck.padic as padic
import dombcheck.quadform as quadform
import dombcheck.special as special

# The twelve target methods of PrimeVerifier, one span each.
TARGET_METHODS = (
    "thm11_4k",
    "thm11_16k",
    "thm12",
    "thm13_all",
    "conj1_dp1",
    "conj2_mod_p2",
    "musun",
    "lemma22_check",
    "lemma_mpt_check",
    "lemma_p2j_check",
    "lemma_sunh_check",
    "lemma_sh55_check",
)
VALUE_OPS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
    "__pow__",
)


class Tracer:
    """Self time per span name and event counts, per process.

    With ``layers=False`` only the ``verify_prime``, ``sweep`` and
    ``render_rows`` boundaries are wrapped: one span per prime, which the
    untraced run uses for per-prime latency.  With a host-speed sampler
    (``hostspeed.py``) each record also holds the prime's reference seconds.
    """

    def __init__(self, spool: Path, layers: bool, speed=None):
        self.spool = spool
        self.layers = layers
        self.speed = speed  # a hostspeed.Sampler: records get reference seconds
        self.pid = os.getpid()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.records: list[dict] = []  # verify_prime calls made in this process
        self.sweeps: list[tuple[float, float]] = []
        self._stack: list[list[float]] = []  # child time of each open span

    # ---- wrappers ----

    def span(self, name, fn, count=None, hit=None):
        """Wrap fn in a span.  ``hit(*args)``, asked before the call, marks
        a memo hit; ``count(result, *args)``, after it, may add counts."""
        self_s, counts, stack = self.self_s, self.counts, self._stack

        def wrapper(*args, **kwargs):
            if hit is not None and hit(*args, **kwargs):
                counts[name + ".hit"] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                self_s[name] += d - frame[0]
                counts[name] += 1
                if stack:
                    stack[-1][0] += d
            if count is not None:
                count(result, *args, **kwargs)
            return result

        return wrapper

    def counted(self, name, fn, hit=None):
        """Count calls to fn, and the calls that ``hit(*args)`` calls hits."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if hit is not None and hit(*args, **kwargs):
                counts[name + ".hit"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def prime(self, fn):
        """The per-prime span.  Its record holds the span's own interval, so
        the self times in the record add up to exactly t1 - t0."""
        name = "congruences.verify_prime"
        self_s, counts, stack = self.self_s, self.counts, self._stack

        def wrapper(p, *args, **kwargs):
            if self.speed is not None:
                self.speed.start()  # in a forked worker, its first prime
            before = (dict(self_s), dict(counts)) if self.layers else None
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                rows = fn(p, *args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self_s[name] += t1 - t0 - frame[0]
                counts[name] += 1
                if stack:
                    stack[-1][0] += t1 - t0
            rec = {"p": p, "pid": os.getpid(), "t0": t0, "t1": t1}
            if self.speed is not None:
                rec["ref"] = self.speed.ref_seconds(t0, t1)
            if before is not None:
                rec["self"] = _delta(self_s, before[0])
                rec["counts"] = _delta(counts, before[1])
            if rec["pid"] == self.pid:
                self.records.append(rec)
            else:
                with open(self.spool / f"{rec['pid']}.jsonl", "a") as fh:
                    fh.write(json.dumps(rec) + "\n")
            return rows

        return wrapper

    def sweep(self, fn):
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.sweeps.append((t0, clock()))

        return self.span("congruences.sweep", wrapper)

    def drain_workers(self) -> list[dict]:
        """Records written by pool workers since the last drain."""
        out = []
        for path in sorted(self.spool.glob("*.jsonl")):
            out.extend(json.loads(line) for line in path.read_text().splitlines())
            path.unlink()
        return out

    # ---- installation ----

    def _patches(self):
        """(owner, attribute, wrapper factory) for every boundary traced."""
        yield congruences, "verify_prime", self.prime
        yield congruences, "sweep", self.sweep
        yield cli, "render_rows", lambda f: self.span(
            "cli.render", f, count=lambda text, *a, **k: self._add("cli.report_bytes", len(text.encode()))
        )
        if not self.layers:
            return
        yield domb.DombTable, "__init__", lambda f: self.span(
            "domb.table", f, count=lambda _, table, *a, **k: self._add("domb.table_entries", table.size)
        )
        for name in ("bernoulli_table", "euler_table", "bernoulli_poly"):
            yield special, name, lambda f, name=name: self.span(f"special.{name}", f)
        yield special.HarmonicCache, "__init__", lambda f: self.span("special.harmonic_cache", f)
        yield special.HarmonicCache, "get", lambda f: self.span("special.harmonic_cache", f)
        yield special, "harmonic", lambda f: self.counted("special.harmonic", f)
        for name in ("binomial_int", "binomial_rational"):
            yield padic, name, lambda f, name=name: self.span(f"padic.{name}", f)
        yield padic.PrimeContext, "factorial_decomposed", lambda f: self.span("padic.factorial_decomposed", f)
        # The memo tables are private; a memo that is gone reads as no hits.
        yield padic.PrimeContext, "inverse_unit", lambda f: self.counted(
            "padic.inverse_unit", f, hit=lambda ctx, u: u % ctx.pk in getattr(ctx, "_inv", ())
        )
        for op in VALUE_OPS:
            yield padic.PAdicValue, op, lambda f: self.span("padic.value_ops", f)
        yield quadform, "decompose_x2_3y2", lambda f: self.span("quadform.decompose", f)
        yield congruences.PrimeVerifier, "weighted_sum", lambda f: self.span(
            "congruences.weighted_sum",
            f,
            hit=lambda pv, base, weight: f"{weight}/{base}" in getattr(pv, "_sums", ()),
        )
        for name in TARGET_METHODS:
            yield congruences.PrimeVerifier, name, lambda f, name=name: self.span(f"congruences.{name}", f)

    def _add(self, name: str, n: int) -> None:
        self.counts[name] += n

    @contextmanager
    def install(self):
        """Wrap every boundary; restore the originals on exit."""
        undo = []
        modules = [m for name, m in sys.modules.items() if name == "dombcheck" or name.startswith("dombcheck.")]
        try:
            for owner, attr, factory in self._patches():
                original = owner.__dict__[attr]
                wrapped = factory(original)
                if isinstance(owner, type):
                    places = [owner]
                else:
                    places = [m for m in modules if m.__dict__.get(attr) is original]
                for place in places:
                    undo.append((place, attr, original))
                    setattr(place, attr, wrapped)
            yield self
        finally:
            for place, attr, original in reversed(undo):
                setattr(place, attr, original)


def _delta(now: dict, before: dict) -> dict:
    out = {}
    for k, v in now.items():
        d = v - before.get(k, 0)
        if d:
            out[k] = d
    return out
