"""dombcheck benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs timed passes of the workload for S seconds (at least one pass), checks
every pass's csv report, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with only the per-prime span
installed; with ``--trace 1`` they are the per-layer ones from a traced run
(see ``tracer.py``).  ``NOTES.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

try:
    import hostspeed
    import workloads
    from tracer import TARGET_METHODS, Tracer
except ImportError as e:  # a checkout without the program's sources
    sys.exit(f"error: cannot import the program: {e}")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 11


def tail_percentile(n: int) -> int | None:
    """The highest percentile with at least 10 of n samples beyond it, or
    None (meaning the maximum) when n < 11."""
    return 100 * (n - 10) // n if n >= 11 else None


def tail(values: list[float]) -> float:
    q = tail_percentile(len(values))
    if q is None:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def more_passes(start: float, seconds: float, walls: list[float]) -> bool:
    """At least one pass; then another only if it should end in time."""
    if not walls:
        return True
    return perf_counter() - start + statistics.median(walls) <= seconds


def setup_times(workload: str, seed: int, n: int) -> list[float]:
    """Seconds a fresh interpreter takes to import dombcheck and build the
    inputs (see setup_probe.py), n times."""
    times = []
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        times.append(float(out.stdout.split()[-1]))
    return times


def prime_self_metrics(metrics: dict) -> list[str]:
    """The self-time metrics of the spans inside a verify_prime call; they
    partition congruences.verify_prime_s."""
    return [
        k for k in metrics
        if k.endswith("_s") and k.split(".")[0] in ("domb", "special", "padic", "quadform")
        or k.endswith(".self_s") or k == "congruences.weighted_sum_s"
    ]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_eff")):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(self_s, counts, records, sweep) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  ``self_s`` and ``counts`` hold
    every span of the pass, in the parent and in pool workers; ``records`` are
    its verify_prime calls and ``sweep`` the (start, end) of its sweep."""

    def ratio(a, b):
        return a / b if b else 0.0

    busy: dict[int, float] = {}
    last_end: dict[int, float] = {}
    for r in records:
        busy[r["pid"]] = busy.get(r["pid"], 0.0) + r["t1"] - r["t0"]
        last_end[r["pid"]] = max(last_end.get(r["pid"], r["t1"]), r["t1"])
    verify_s = sum(busy.values())
    sweep_s = sweep[1] - sweep[0]
    m = {
        "domb.table_s": self_s.get("domb.table", 0.0),
        "domb.table_entries": counts.get("domb.table_entries", 0),
        "special.bernoulli_table_s": self_s.get("special.bernoulli_table", 0.0),
        "special.euler_table_s": self_s.get("special.euler_table", 0.0),
        "special.bernoulli_poly_s": self_s.get("special.bernoulli_poly", 0.0),
        "special.harmonic_cache_s": self_s.get("special.harmonic_cache", 0.0),
        "special.harmonic_calls": counts.get("special.harmonic", 0),
        "padic.binomial_int_s": self_s.get("padic.binomial_int", 0.0),
        "padic.binomial_int_calls": counts.get("padic.binomial_int", 0),
        "padic.binomial_rational_s": self_s.get("padic.binomial_rational", 0.0),
        "padic.factorial_decomposed_s": self_s.get("padic.factorial_decomposed", 0.0),
        "padic.value_ops": counts.get("padic.value_ops", 0),
        "padic.value_ops_s": self_s.get("padic.value_ops", 0.0),
        "padic.inverse_unit_calls": counts.get("padic.inverse_unit", 0),
        "padic.inverse_unit_hit_ratio": ratio(
            counts.get("padic.inverse_unit.hit", 0), counts.get("padic.inverse_unit", 0)
        ),
        "quadform.decompose_s": self_s.get("quadform.decompose", 0.0),
    }
    for name in ("verify_prime",) + TARGET_METHODS:
        m[f"congruences.{name}.self_s"] = self_s.get(f"congruences.{name}", 0.0)
    m.update({
        "congruences.weighted_sum_s": self_s.get("congruences.weighted_sum", 0.0),
        "congruences.weighted_sum_hit_ratio": ratio(
            counts.get("congruences.weighted_sum.hit", 0), counts.get("congruences.weighted_sum", 0)
        ),
        "congruences.verify_prime_s": verify_s,
        "congruences.sweep_overhead_s": sweep_s - _union((r["t0"], r["t1"]) for r in records),
        "congruences.worker_busy_s": max(busy.values(), default=0.0),
        "congruences.parallel_eff": ratio(verify_s, len(busy) * sweep_s),
        "congruences.pool_tail_s": sweep[1] - min(last_end.values(), default=sweep[1]),
        "cli.render_s": self_s.get("cli.render", 0.0),
        "cli.report_bytes": counts.get("cli.report_bytes", 0),
    })
    return m


class Run:
    """Passes of one workload, with their checks."""

    def __init__(self, inputs, tmpdir: Path):
        self.inputs = inputs
        self.digests = workloads.load_digests()
        self.tmpdir = tmpdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.sha256 = ""

    def one_pass(self, loop=None) -> float | None:
        """Wall seconds of one checked pass, or None if the program raised."""
        expected = len(workloads.expected_pairs(self.inputs))
        self.attempted += expected
        t0 = perf_counter()
        try:
            text = workloads.run_pass(self.inputs, self.tmpdir, loop)
        except Exception:
            self.failed += expected
            self.problems.append(traceback.format_exc())
            return None
        wall = perf_counter() - t0
        failed, problems = workloads.check_report(text, self.inputs, self.digests)
        self.failed += failed
        self.problems += problems
        self.sha256 = hashlib.sha256(text.encode()).hexdigest()
        return wall

    def check_domb(self) -> None:
        self.attempted += len(self.inputs.domb_samples)
        misses = workloads.check_domb_samples(self.inputs)
        self.failed += misses
        if misses:
            self.problems.append(f"{misses} Domb residues differ from domb_exact")


def run_untraced(run: Run, seconds: float, spool: Path) -> dict:
    """End-to-end metrics in reference seconds (see hostspeed.py).  A pass's
    wall time is scaled by the ratio of reference to wall seconds over its
    primes, wherever they ran; a prime's latency is its reference seconds."""
    tracer = Tracer(spool, layers=False, speed=hostspeed.SAMPLER)
    walls, ref_walls = [], []
    latency: dict[int, list[float]] = {}
    rss_kb = 0
    start = perf_counter()
    hostspeed.SAMPLER.start()
    try:
        with tracer.install():
            while more_passes(start, seconds, walls):
                n = len(tracer.records)
                wall = run.one_pass(tracer.sweep(workloads.serial_loop))
                if wall is None:
                    break
                walls.append(wall)
                records = tracer.records[n:] + tracer.drain_workers()
                ref = sum(r["ref"] for r in records)
                ref_walls.append(wall * ref / sum(r["t1"] - r["t0"] for r in records))
                for r in records:
                    latency.setdefault(r["p"], []).append(1000.0 * r["ref"])
                if len(walls) == 1:
                    # The peak of one pass: later passes grow the heap a little,
                    # and their number depends on how fast the passes are.
                    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    if run.inputs.workload == "cli_parallel":
                        rss_kb += workloads.CLI_WORKERS * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    finally:
        hostspeed.SAMPLER.stop()
    per_prime = [statistics.median(v) for v in latency.values()] or [0.0]
    print(f"passes={len(walls)} primes={len(latency)} "
          f"tail_percentile={tail_percentile(len(latency)) or 'max'} "
          f"pass_walls={[round(x, 3) for x in walls]} "
          f"pass_ref_walls={[round(x, 3) for x in ref_walls]}")
    return {
        "wall_s": (statistics.median(ref_walls) if ref_walls else 0.0, "s"),
        "prime_ms_p50": (statistics.median(per_prime), "ms"),
        "prime_ms_tail": (tail(per_prime), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def traced_pass(run: Run, tracer) -> tuple[float | None, dict]:
    """Wall seconds and per-layer metrics of one traced pass."""
    n = len(tracer.records)
    self_before, counts_before = dict(tracer.self_s), dict(tracer.counts)
    wall = run.one_pass(tracer.sweep(workloads.serial_loop))
    if wall is None:
        return None, {}
    self_s = {k: v - self_before.get(k, 0.0) for k, v in tracer.self_s.items()}
    counts = {k: v - counts_before.get(k, 0) for k, v in tracer.counts.items()}
    records = tracer.records[n:] + tracer.drain_workers()
    for r in records:
        if r["pid"] != tracer.pid:
            for k, v in r["self"].items():
                self_s[k] = self_s.get(k, 0.0) + v
            for k, v in r["counts"].items():
                counts[k] = counts.get(k, 0) + v
    return wall, layer_metrics(self_s, counts, records, tracer.sweeps[-1])


def run_traced(run: Run, seconds: float, spool: Path) -> dict:
    """Untraced and traced passes alternate, so that trace_overhead_s
    compares passes from the same stretch of the run."""
    tracer = Tracer(spool, layers=True)
    untraced, traced, passes = [], [], []
    start = perf_counter()
    while not traced or more_passes(start, seconds, untraced + traced):
        if len(untraced) <= len(traced):
            wall = run.one_pass()
            walls = untraced
        else:
            with tracer.install():
                wall, metrics = traced_pass(run, tracer)
            walls = traced
            if wall is not None:
                passes.append(metrics)
        if wall is None:
            break
        walls.append(wall)
    print(f"passes={len(untraced)} untraced, {len(traced)} traced")
    out = {}
    for name in passes[0] if passes else ():
        out[name] = (statistics.median(p[name] for p in passes), unit_of(name))
    if traced:
        out["trace_overhead_s"] = (min(traced) - min(untraced), "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    metrics = {}
    # Set-up is sampled before and after the passes, so that one stretch of
    # a slow host does not decide it.
    setup = [] if args.trace else setup_times(args.workload, args.seed, SETUP_RUNS // 2 + 1)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        spool = Path(tmp) / "spool"
        spool.mkdir()
        run = Run(workloads.build_inputs(args.workload, args.seed), Path(tmp))
        measure = run_traced if args.trace else run_untraced
        metrics.update(measure(run, args.seconds, spool))
    if not args.trace:
        setup += setup_times(args.workload, args.seed, SETUP_RUNS // 2)
        metrics["setup_s"] = (statistics.median(setup), "s")
    run.check_domb()
    for line in run.problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(f"report_sha256={run.sha256}")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
