"""Self-tests of the benchmark: the output check has power, traced counts
repeat exactly, the traced self times partition each prime's time, and
reference seconds scale each stretch by the speed of the probe before it.

    python3 -m pytest bench/test_bench.py -q

They run small versions of the four workloads (a few primes under 200).
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

import hostspeed
import run
import workloads as w
from tracer import Tracer

SMALL = {
    "sweep_serial": (tuple(w.sieve(5, 98)), w.ALL, "all"),
    "cli_parallel": (tuple(w.sieve(5, 98)), w.ALL, "all"),
    "large_primes": ((151, 197), w.ALL, "all"),
    "lemma_kernel": ((1511, 1523, 1531, 1543), w.LEMMAS, "lemmas"),
}
DETERMINISTIC = (
    "padic.value_ops",
    "padic.binomial_int_calls",
    "domb.table_entries",
    "special.harmonic_calls",
    "cli.report_bytes",
)


def small_inputs(workload: str) -> w.Inputs:
    primes, targets, key = SMALL[workload]
    return w.Inputs(workload, primes, targets, key, ())


def report(inputs: w.Inputs) -> str:
    targets = [w.congruences.Target(t) for t in inputs.targets]
    return w.cli.render_rows(w.serial_loop(inputs.primes, targets), "csv", False)


@pytest.fixture(scope="module")
def good():
    inputs = small_inputs("large_primes")
    return inputs, report(inputs), w.load_digests()


def test_check_accepts_the_real_report(good):
    inputs, text, digests = good
    assert w.check_report(text, inputs, digests) == (0, [])


@pytest.mark.parametrize("row", [1, 7, 20])
def test_check_rejects_rhs_perturbed_at_top_digit(good, row):
    inputs, text, digests = good
    lines = text.split("\n")
    fields = lines[row].split(",")
    p, m, rhs = int(fields[0]), int(fields[2]), int(fields[4])
    fields[4] = str((rhs + p ** (m - 1)) % p**m)
    lines[row] = ",".join(fields)
    failed, problems = w.check_report("\n".join(lines), inputs, digests)
    assert failed >= 1
    assert any("row fails" in s for s in problems)
    # the row check alone has power, without the recorded digests
    no_digests = {"all": {str(p): None for p in inputs.primes}}
    assert any("row fails" in s for s in w.check_report("\n".join(lines), inputs, no_digests)[1])


def test_check_rejects_a_dropped_row(good):
    inputs, text, digests = good
    lines = text.split("\n")
    del lines[5]
    failed, problems = w.check_report("\n".join(lines), inputs, digests)
    assert failed >= 1
    assert any("1 missing" in s for s in problems)


def traced_metrics(workload: str, tmp_path: Path) -> dict:
    spool = tmp_path / "spool"
    spool.mkdir(exist_ok=True)
    r = run.Run(small_inputs(workload), tmp_path)
    with Tracer(spool, layers=True).install() as tracer:
        wall, metrics = run.traced_pass(r, tracer)
    assert wall is not None and r.failed == 0, r.problems
    return metrics


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_counts_repeat_and_self_times_partition_primes(workload, tmp_path):
    a = traced_metrics(workload, tmp_path)
    b = traced_metrics(workload, tmp_path)
    for name in DETERMINISTIC:
        assert a[name] == b[name], name
    assert a["padic.value_ops"] > 0 and a["cli.report_bytes"] > 0
    if workload == "lemma_kernel":
        assert a["domb.table_s"] == 0.0 and a["special.bernoulli_table_s"] == 0.0
    else:
        assert a["domb.table_entries"] == sum(SMALL[workload][0])
    for m in (a, b):
        parts = sum(m[k] for k in run.prime_self_metrics(m))
        assert math.isclose(parts, m["congruences.verify_prime_s"], rel_tol=1e-9)
    if workload == "cli_parallel":
        assert 0.0 < a["congruences.parallel_eff"] <= 1.0
        assert a["congruences.worker_busy_s"] < a["congruences.verify_prime_s"]


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(10) is None
    assert run.tail_percentile(11) == 9
    assert run.tail_percentile(30) == 66
    assert run.tail_percentile(93) == 89


def test_ref_seconds_scale_by_the_last_probe_and_drop_probes():
    ref = hostspeed.REF_PROBE_S
    sampler = hostspeed.Sampler()
    sampler.ends, sampler.secs = [1.0, 2.0], [ref, 2 * ref]
    # [1, 2 - 2 ref] at full speed, the probe left out, then [2, 3] at half
    assert math.isclose(sampler.ref_seconds(1.0, 3.0), 1.0 - 2 * ref + 0.5)
    assert math.isclose(sampler.ref_seconds(0.5, 0.9), 0.4)


@pytest.mark.parametrize("workload", ["sweep_serial", "cli_parallel"])
def test_untraced_pass_reports_reference_seconds(workload, tmp_path):
    """One untraced pass: every prime, in the parent or a pool worker, gets
    reference seconds, and the sampler is stopped afterwards."""
    spool = tmp_path / "spool"
    spool.mkdir()
    r = run.Run(small_inputs(workload), tmp_path)
    m = run.run_untraced(r, 0.0, spool)
    assert r.failed == 0, r.problems
    assert m["wall_s"][0] > 0 and 0 < m["prime_ms_p50"][0] <= m["prime_ms_tail"][0]
    assert hostspeed.SAMPLER.pid is None
