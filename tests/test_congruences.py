"""Congruence targets at small primes, frozen against an exact-rational oracle.

Every number in FROZEN_LHS was computed independently with stdlib-only
integer/Fraction arithmetic (binomial convolutions reduced by hand) before
being recorded here, and spot-checked against the closed forms.
"""

import contextlib
import dataclasses
import functools
import hashlib
import math
import multiprocessing
import os
import random
import signal
import sys
from fractions import Fraction

import pytest

from dombcheck import congruences, domb, padic, quadform, special
from dombcheck.congruences import (
    SPECS,
    SUM_ROWS,
    CongruenceReport,
    PrimeVerifier,
    Target,
    WrongPrimeClass,
    applicable,
    modulus_exponent,
    sieve_primes,
    sweep,
    verify_prime,
)
from dombcheck.domb import DombTable, horner_walk
from dombcheck.padic import PAdicValue, PrimeContext, binomial_int, binomial_rational, split_p
from dombcheck.special import (
    _harmonic_cache,
    bernoulli_poly,
    bernoulli_table,
    euler_table,
    harmonic,
)

T = Target

# lhs residues mod p^m, all independently recomputed
FROZEN_LHS = {
    (5, T.THM11_4K): 75,
    (5, T.THM11_16K): 25,
    (5, T.THM13_K2_4K): 20,
    (5, T.THM13_K2_16K): 16,
    (5, T.THM13_K_4K): 23,
    (5, T.THM13_K_16K): 2,
    (5, T.CONJ1_DP1): 216,
    (5, T.CONJ2_MODP2): 0,
    (5, T.MUSUN_P5): 1875,
    (5, T.LEMMA_P2J): 60,
    (5, T.LEMMA_SH55): 25,
    (7, T.THM11_4K): 149,
    (7, T.THM11_16K): 149,
    (7, T.THM12_4K): 49,
    (7, T.THM12_16K): 196,
    (7, T.THM13_K2_4K): 39,
    (7, T.THM13_K2_16K): 71,
    (7, T.CONJ1_DP1): 575,
    (7, T.CONJ2_MODP2): 2,
    (7, T.MUSUN_P5): 14406,
    (7, T.LEMMA22): 84,
    (7, T.LEMMA_SH55): 149,
    (11, T.THM13_K2_4K): 8,
    (11, T.THM13_K2_16K): 71,
    (11, T.THM13_K_4K): 92,
    (11, T.THM13_K_16K): 29,
    (13, T.THM11_4K): 485,
    (13, T.THM11_16K): 485,
    (13, T.THM12_4K): 1183,
    (13, T.THM12_16K): 1690,
    (13, T.THM13_K2_4K): 1023,
    (13, T.THM13_K2_16K): 1819,
    (13, T.CONJ1_DP1): 3446,
    (13, T.CONJ2_MODP2): 147,
    (13, T.MUSUN_P5): 28561,
}

_rows_cache: dict[int, dict[Target, CongruenceReport]] = {}


def rows_for(p):
    if p not in _rows_cache:
        _rows_cache[p] = {r.target: r for r in verify_prime(p)}
    return _rows_cache[p]


def test_applicable():
    assert applicable(T.THM12_4K, 7) and not applicable(T.THM12_4K, 5)
    assert applicable(T.THM13_K_4K, 5) and not applicable(T.THM13_K_4K, 7)
    assert applicable(T.LEMMA_SUNH, 7) and not applicable(T.LEMMA_SUNH, 5)
    assert applicable(T.THM11_4K, 5) and applicable(T.THM11_4K, 7)


def test_modulus_exponent():
    assert modulus_exponent(T.THM11_4K, 7) == 3
    assert modulus_exponent(T.THM13_K2_4K, 7) == 3
    assert modulus_exponent(T.THM13_K2_4K, 5) == 2
    assert modulus_exponent(T.CONJ1_DP1, 7) == 4
    assert modulus_exponent(T.MUSUN_P5, 7) == 5


def test_specs_cover_every_target_once():
    assert list(SPECS) == list(Target)


def test_spec_methods_exist():
    for target, spec in SPECS.items():
        assert callable(getattr(PrimeVerifier, spec.method, None)), target


def test_row_counts():
    assert len(rows_for(5)) == 11
    assert len(rows_for(7)) == 14
    assert len(rows_for(11)) == 12
    assert len(rows_for(13)) == 14


@pytest.mark.parametrize("p,target", sorted(FROZEN_LHS, key=lambda c: (c[0], c[1].value)))
def test_frozen_residues(p, target):
    row = rows_for(p)[target]
    want = FROZEN_LHS[(p, target)]
    assert row.lhs == want
    assert row.rhs == want
    assert row.passed
    assert row.modulus_exponent == modulus_exponent(target, p)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 19, 31])
def test_all_rows_pass(p):
    for target, row in rows_for(p).items():
        assert row.passed, (p, target)


def test_thm11_two_weights_relation():
    # on the p = 2 (mod 3) side the two closed forms differ by a factor -2
    for p in (5, 11, 17, 23):
        rows = rows_for(p)
        pm = p**3
        assert rows[T.THM11_4K].lhs == (-2 * rows[T.THM11_16K].lhs) % pm


def test_thm12_two_weights_relation():
    for p in (7, 13, 19, 31):
        rows = rows_for(p)
        pm = p**3
        assert rows[T.THM12_4K].lhs == 2 * rows[T.THM12_16K].lhs % pm


def test_conj2_is_weaker_thm11():
    for p in (5, 7, 13, 19):
        rows = rows_for(p)
        pm = p * p
        assert rows[T.CONJ2_MODP2].lhs == rows[T.THM11_4K].lhs % pm
        assert rows[T.CONJ2_MODP2].lhs == rows[T.THM11_16K].lhs % pm


def test_sh55_shares_sum_with_thm11():
    for p in (5, 7, 13):
        rows = rows_for(p)
        assert rows[T.LEMMA_SH55].lhs == rows[T.THM11_16K].lhs


def test_r3_spot_values():
    for p, want in ((5, 11), (11, 69)):
        pv = PrimeVerifier(p)
        assert pv.r3() % p**2 == want
        assert oracle_r3(pv).residue(2) == want


def test_lemma22_case_values():
    # p = 7 cases worked out by hand: 7, 210, 540 = 197 mod 343, 84
    v = PrimeVerifier(7, [T.LEMMA22])
    ctx = PrimeContext(7, 3)
    got = [
        (binomial_int(3 * j, j, ctx) * binomial_int(7 + j, 3 * j + 1, ctx)).residue(3)
        for j in range(4)
    ]
    assert got == [7, 210, 197, 84]
    assert v.lemma22_check().lhs == 84


def test_p2j_case_values():
    # p = 5 cases by hand: 5, 420, 3780, 9240, 6435 reduced mod 125
    v = PrimeVerifier(5, [T.LEMMA_P2J])
    ctx = PrimeContext(5, 3)
    got = [
        (
            (3 * j + 1)
            * binomial_int(3 * j, j, ctx)
            * binomial_int(5 + 2 * j, 3 * j + 1, ctx)
        ).residue(3)
        for j in range(5)
    ]
    assert got == [5, 45, 30, 115, 60]
    assert v.lemma_p2j_check().lhs == 60


def test_mpt_explicit_samples():
    v = PrimeVerifier(7, [T.LEMMA_MPT])
    frozen = {0: 4, 1: 18, -1: 39, 2: 32, -2: 25}
    for t, want in frozen.items():
        rep = v.lemma_mpt_check(t_samples=[t])
        assert rep.passed
        assert rep.lhs == want
    rep = v.lemma_mpt_check(t_samples=[0, 1, -1, 2, -2])
    assert rep.passed and rep.lhs == 25


def test_wrong_prime_class_raises():
    with pytest.raises(WrongPrimeClass):
        PrimeVerifier(5, [T.THM12_4K]).thm12()
    with pytest.raises(WrongPrimeClass):
        PrimeVerifier(11, [T.LEMMA22]).lemma22_check()
    with pytest.raises(WrongPrimeClass):
        PrimeVerifier(11, [T.LEMMA_MPT]).lemma_mpt_check()
    with pytest.raises(WrongPrimeClass):
        PrimeVerifier(5, [T.LEMMA_SUNH]).lemma_sunh_check()


def test_precision_below_target_raises():
    # a LEMMA_MPT verifier works to precision 2, which cannot carry
    # CONJ1_DP1's mod 7^4; read off anyway, its sides mod 7^4 are lhs=36,
    # rhs=1065 where the true residues are equal
    with pytest.raises(ValueError, match="CONJ1_DP1"):
        PrimeVerifier(7, [T.LEMMA_MPT]).conj1_dp1()
    assert PrimeVerifier(7, [T.CONJ1_DP1]).precision == 4
    assert PrimeVerifier(7, [T.CONJ1_DP1]).conj1_dp1().lhs == 575


@pytest.mark.parametrize(
    "built_for, target, p",
    [(T.CONJ1_DP1, T.THM13_K2_4K, 17), (T.MUSUN_P5, T.LEMMA22, 7)],
    ids=["CONJ1_DP1-THM13_K2_4K", "MUSUN_P5-LEMMA22"],
)
def test_cross_target_read_gives_the_targets_own_row(built_for, target, p):
    # a CONJ1_DP1 or MUSUN_P5 verifier keeps the Domb table mod p^4 or p^5
    # and, as every verifier does, its kernel tables mod p^2.  So
    # THM13_K2_4K's r3 and LEMMA22's units read off it, though neither
    # target was requested, are the ones a verifier of that target alone
    # reads: the row is that verifier's row, and it passes
    strip = lambda r: (r.target, r.modulus_exponent, r.lhs, r.rhs, r.passed)
    pv = PrimeVerifier(p, [built_for])
    assert target not in pv.want and pv.ctx.precision == 2
    out = getattr(pv, SPECS[target].method)()
    rows = [strip(r) for r in (out if isinstance(out, list) else [out]) if r.target is target]
    assert rows == [strip(r) for r in verify_prime(p, [target])] and rows[0][-1]


def test_kernel_tables_at_p3_give_the_one_precision_rows(monkeypatch):
    # the short tables against the ground truth they replace: with the
    # kernel context set to p^5, an all-targets verifier keeps its
    # factorial tables and harmonic cache to every digit of the Domb table
    # again, and every row must be the same as with the kernel at p^2
    primes = sieve_primes(5, 300) + [1009, 1013, 1999, 4001, 4003]
    strip = lambda r: (r.target, r.modulus_exponent, r.lhs, r.rhs, r.passed)
    fast = {}
    for p in primes:
        pv = PrimeVerifier(p)
        assert (pv.precision, pv.ctx.precision) == (5, 2), p
        fast[p] = [strip(r) for r in pv.run()]
    monkeypatch.setattr(congruences, "_KERNEL_EXP", 5)
    for p in primes:
        pv = PrimeVerifier(p)
        assert pv.ctx.precision == pv.domb_table.ctx.precision == 5, p
        assert [strip(r) for r in pv.run()] == fast[p], p
        assert pv.ctx._harmonic_cache is not None, p  # the harmonic reads went to p^5 too


def test_verify_prime_skips_inapplicable():
    rows = verify_prime(5, [T.THM12_4K, T.LEMMA_SUNH])
    assert rows == []
    rows = verify_prime(5, [T.THM12_4K, T.THM11_4K])
    assert [r.target for r in rows] == [T.THM11_4K]


def test_precision_is_the_largest_requested_exponent():
    assert PrimeVerifier(7).precision == 5
    assert PrimeVerifier(7, [T.LEMMA_MPT, T.LEMMA22]).precision == 3
    assert PrimeVerifier(5, [T.THM13_K_4K]).precision == 2
    assert PrimeVerifier(5, [T.THM12_4K, T.LEMMA_SUNH]).precision == 1  # neither is stated


def test_kernel_precision_is_p2_for_every_target_set():
    # the kernel tables work mod p^2 whatever is requested, and the Domb
    # table sits on a context of its own at K, never on the kernel's
    rng = random.Random(7)
    cases = [[t] for t in Target] + [[], list(Target), [T.CONJ1_DP1, T.LEMMA_SUNH], [T.MUSUN_P5, T.THM12_4K]]
    cases += [rng.sample(list(Target), rng.randrange(2, 16)) for _ in range(20)]
    for p in (7, 11):
        for targets in cases:
            pv = PrimeVerifier(p, targets)
            k = max((modulus_exponent(t, p) for t in pv.want), default=1)
            assert (pv.precision, pv.ctx.precision) == (k, 2), (p, targets)
            assert pv.domb_table.ctx.precision == k and pv.domb_table.ctx is not pv.ctx, (p, targets)
            assert pv.powers == tuple(p**i for i in range(k + 1)), (p, targets)


@pytest.mark.parametrize("p", [1009, 1013, 10007])
def test_factorial_tables_reach_only_what_the_targets_read(p):
    # units and inverses reach the highest index a requested target reads:
    # the theorems read factorials below p only, and a run of every target
    # leaves the units at (3p-2)! (LEMMA_P2J's (p+2j)!) and the inverses at
    # 1/(2p-2)! (its 1/(2j)!)
    theorems = [t for t in Target if SPECS[t].group in ("thm1.1", "thm1.2", "conj1")]
    pv = PrimeVerifier(p, theorems)
    rows = pv.run()
    assert rows and all(r.passed for r in rows)
    assert len(pv.ctx._fact_unit) < 2 * p
    pv = PrimeVerifier(p)
    assert all(r.passed for r in pv.run())
    assert (len(pv.ctx._fact_unit), len(pv.ctx._fact_inv)) == (3 * p - 1, 2 * p - 1)


def test_kernel_context_is_at_most_p2_with_one_harmonic_cache():
    # no target reads more than two digits off the kernel context, which is
    # at p^2 for each target alone and for all of them, and every row
    # passes there.  The harmonic cache lives on that one context, mod p^2,
    # and the Domb table's context holds none
    harmonic_readers = {T.LEMMA22, T.LEMMA_MPT, T.LEMMA_P2J, T.LEMMA_SUNH, T.LEMMA_SH55}
    assert not hasattr(PrimeVerifier, "harmonic_ctx")
    for p in (7, 11, 1009, 1013):
        cases = [[t] for t in Target if applicable(t, p)] + [list(Target)]
        for targets in cases:
            pv = PrimeVerifier(p, targets)
            assert pv.ctx.precision == 2, (p, targets)
            assert all(r.passed for r in pv.run()), (p, targets)
            cache = pv.ctx._harmonic_cache
            assert (cache is not None) == bool(harmonic_readers & pv.want), (p, targets)
            if cache is not None:
                assert max(cache._h) < p**2, (p, targets)
            if "domb_table" in vars(pv):
                assert pv.domb_table.ctx._harmonic_cache is None, (p, targets)


def test_rows_do_not_depend_on_other_targets():
    # each target alone, at precision its own m, gives the row it has among
    # all sixteen at precision 5; past 1024, where the stored ints of a
    # table kept mod p^2 or p^3 first differ in width, the same holds for
    # each harmonic reader alone and for the lemma trio
    strip = lambda r: (r.modulus_exponent, r.lhs, r.rhs, r.passed)
    for p in sieve_primes(5, 300):
        rows = {r.target: strip(r) for r in verify_prime(p)}
        assert set(rows) == {t for t in Target if applicable(t, p)}, p
        for t, row in rows.items():
            assert [strip(r) for r in verify_prime(p, [t])] == [row], (p, t)
    readers = [T.LEMMA22, T.LEMMA_MPT, T.LEMMA_P2J, T.LEMMA_SUNH, T.LEMMA_SH55]
    subsets = [[t] for t in readers] + [[T.LEMMA22, T.LEMMA_P2J, T.LEMMA_SH55]]
    for p in (1009, 1013, 4001, 4003):
        rows = {r.target: strip(r) for r in verify_prime(p)}
        for targets in subsets:
            want = [rows[t] for t in targets if t in rows]
            assert [strip(r) for r in verify_prime(p, targets)] == want, (p, targets)


def test_sieve_primes():
    assert sieve_primes(5, 30) == [5, 7, 11, 13, 17, 19, 23, 29]
    assert sieve_primes(4, 4) == []
    assert sieve_primes(2, 2) == [2]
    assert sieve_primes(10, 5) == []
    assert len(sieve_primes(5, 2000)) == 301


def test_sweep_small_range():
    rows = sweep(5, 40)
    primes = sorted({r.prime for r in rows})
    assert primes == [5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert all(r.passed for r in rows)
    # sorted by prime then catalog order
    keys = [(r.prime, list(Target).index(r.target)) for r in rows]
    assert keys == sorted(keys)


def test_sweep_ignores_tiny_primes():
    rows = sweep(2, 6)
    assert {r.prime for r in rows} == {5}


def _strip(rows):
    return [(r.prime, r.target, r.modulus_exponent, r.lhs, r.rhs, r.passed) for r in rows]


def test_sweep_workers_agree():
    assert _strip(sweep(5, 40, workers=1)) == _strip(sweep(5, 40, workers=2))


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this process if the block runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_sweep_starts_no_more_workers_than_primes(monkeypatch):
    # no more processes than primes, nor than CPUs, the calling process
    # counted; the child is a stand-in that runs its share in this process
    # when started, so no process starts, whatever the count asked for
    started = []

    class InlineProcess:
        def __init__(self, target, args, daemon):
            self.target, self.args = target, args
            self.pid, self.exitcode = os.getpid(), 0

        def start(self):
            started.append(self)
            self.target(*self.args)

        def join(self):
            pass

        terminate = join

    def processes(workers):
        started.clear()
        assert _strip(sweep(5, 12, workers=workers)) == seq  # 5, 7, 11
        return 1 + len(started)

    seq = _strip(sweep(5, 12))
    monkeypatch.setattr(multiprocessing, "Process", InlineProcess)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert [processes(6), processes(2)] == [3, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert processes(5000) == 2
    for cpus in (1, None):  # one CPU, or a count the system cannot tell
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert processes(5000) == 1 and started == []


def test_sweep_refuses_fewer_than_one_worker(monkeypatch):
    # a count below 1 is a misuse, as the CLI's --workers 0 is, and must not
    # fall through to the one-process path; nothing is walked or verified
    # first
    def refuse(*args, **kwargs):
        raise AssertionError("a prime was verified, or the Domb numbers walked")

    monkeypatch.setattr(congruences, "verify_prime", refuse)
    monkeypatch.setattr(congruences, "horner_walk", refuse)
    for workers in (0, -1):
        for lo, hi in [(5, 40), (8, 10)]:  # primes to verify, and none
            with pytest.raises(ValueError, match="workers"):
                sweep(lo, hi, workers=workers)


def test_sweep_schedule_every_process_verifies_largest_first(monkeypatch, tmp_path):
    # each process appends the primes it verifies to a file named by its pid
    real = congruences.verify_prime

    def recording(p, targets=None, **kwargs):
        with open(spool / str(os.getpid()), "a") as fh:
            fh.write(f"{p}\n")
        return real(p, targets, **kwargs)

    monkeypatch.setattr(congruences, "verify_prime", recording)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    primes = sieve_primes(5, 200)
    rows = {}
    for workers in (1, 2, 3):
        spool = tmp_path / str(workers)
        spool.mkdir()
        with _deadline(120):
            rows[workers] = _strip(sweep(5, 200, workers=workers))
        done = {path.name: [int(p) for p in path.read_text().split()] for path in spool.iterdir()}
        assert len(done) == workers  # every process started verified a prime
        assert sorted(p for ps in done.values() for p in ps) == primes  # each once
        if workers > 1:
            # process r starts with the r-th largest prime, the caller with the largest
            assert done[str(os.getpid())][0] == primes[-1]
            assert sorted(ps[0] for ps in done.values()) == primes[-workers:]
    assert rows[1] == rows[2] == rows[3]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("where", ["parent", "child", "child_exit"])
def test_sweep_failure_raises_in_the_parent(where, monkeypatch):
    # largest first: the calling process takes 97 and the one child 89
    bad = 97 if where == "parent" else 89
    real = congruences.verify_prime
    verified = []  # the primes this process verifies

    def failing(p, targets=None, **kwargs):
        if p == bad:
            if where == "child_exit":
                os._exit(3)
            raise ArithmeticError(f"injected failure at {p}")
        if p == 97:
            # the caller's first prime ends after the child has ended
            for child in multiprocessing.active_children():
                child.join(30)
        verified.append(p)
        return real(p, targets, **kwargs)

    monkeypatch.setattr(congruences, "verify_prime", failing)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with _deadline(60), pytest.raises((ArithmeticError, RuntimeError)) as info:
        sweep(5, 100, workers=2)
    if where == "parent":
        assert info.type is ArithmeticError
    elif where == "child":
        assert info.type is RuntimeError
        message = str(info.value)
        assert "Traceback (most recent call last)" in message
        assert "ArithmeticError: injected failure at 89" in message
        assert verified == [97]  # the failure stopped the caller after its current prime
    else:
        assert info.type is RuntimeError and "exited with code 3" in str(info.value)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("p", [7, 13, 1009, 1999, 4003])
def test_lemma_mpt_sees_the_inverse_factorial_of_half(p):
    # the left side divides by ((p-1)/2)! through the factorial tables; the
    # right side's C((2p-2)/3, (p-1)/2) must not read the same entry, or a
    # wrong entry would cancel out of the comparison
    assert verify_prime(p, [T.LEMMA_MPT])[0].passed
    pv = PrimeVerifier(p, [T.LEMMA_MPT])
    _, fi = pv.ctx.factorial_tables(3 * p)
    fi[(p - 1) // 2] = 2 * fi[(p - 1) // 2] % pv.ctx.pk
    assert not pv.lemma_mpt_check().passed


def test_lemma_mpt_three_samples_decide_like_nine():
    # mod p^2 both sides are affine in t, so t = 0 and t = 1 decide the
    # lemma; the default [0, 1, t_last] must give the verdict and the row of
    # the nine samples it replaced, and a right side whose slope is moved by
    # one must fail under both lists
    for p in [q for q in sieve_primes(5, 1300) if q % 3 == 1]:
        rng = random.Random(p)
        nine = [0, 1, -1, 2, -2] + [rng.randrange(-10000, 10001) for _ in range(4)]
        pv = PrimeVerifier(p, [T.LEMMA_MPT])
        row = pv.lemma_mpt_check()
        assert row.passed, p
        assert row == pv.lemma_mpt_check(nine), p
        base = (2 * p - 2) // 3
        special.harmonic_scaled(base, pv.ctx)
        _harmonic_cache(pv.ctx)._h[base] += 1  # the slope H_base - H_((p-1)/6)
        assert not pv.lemma_mpt_check().passed, p
        assert not pv.lemma_mpt_check(nine).passed, p


def test_empty_case_list_raises():
    # no case checked is not a pass
    with pytest.raises(ValueError, match="LEMMA_MPT"):
        PrimeVerifier(13, [T.LEMMA_MPT]).lemma_mpt_check(t_samples=[])


def test_lemma_loops_build_no_order_2_harmonics():
    # LEMMA_SUNH takes its order-2 sums as range sums of the squared
    # inverses, so no verifier, even one of every target, builds that list;
    # LEMMA_P2J and LEMMA_SH55 take p H_(p+r) mod p^2 from the sums below
    # p, so none builds the order-1 upper half either
    for p in (1009, 1013):
        for targets in ([T.LEMMA22, T.LEMMA_P2J, T.LEMMA_SH55], [T.LEMMA_SUNH], None):
            pv = PrimeVerifier(p, targets)
            assert all(r.passed for r in pv.run()), (p, targets)
            cache = _harmonic_cache(pv.ctx)
            assert len(cache._h) == p and len(cache._inv) == p, (p, targets)
            assert cache._h2 is None, (p, targets)


def test_sunh_order_2_sums_match_the_cache_list():
    # the five range sums of the squared inverses against the cache's
    # order-2 list, its sums built from the same inverses, at every prime
    # LEMMA_SUNH is stated at to 2000
    for p in sieve_primes(7, 2000):
        pv = PrimeVerifier(p, [T.LEMMA_SUNH])
        sums = pv._order2_sums()
        h2 = special.harmonic_scaled(p - 1, pv.ctx, order=2)
        assert sorted(sums) == sorted({p // 6, p // 4, p // 3, (p - 1) // 2, p - 1}), p
        assert sums == {n: h2[n] for n in sums}, p


def test_harmonic_units_match_their_definition():
    # u_j = 1 + p (H_2j - H_j) mod p^2 for j < (p+1)/2, from H itself, on
    # both sides of 3j+1 = p and in both classes mod 3
    for p in sieve_primes(5, 600) + [1009, 1013]:
        pv = PrimeVerifier(p, [T.LEMMA_P2J])
        h, pp = special.harmonic_scaled(p - 1, pv.ctx), p * p
        want = [(1 + p * (h[2 * j] - h[j])) % pp for j in range((p + 1) // 2)]
        assert pv._harmonic_units == want, p


@pytest.mark.parametrize("p", [1009, 1013])
def test_a_moved_harmonic_unit_fails_its_three_readers(p):
    # +1 on one u_j must fail LEMMA22, LEMMA_P2J and LEMMA_SH55 where they
    # are stated, and no other target: j = 0, a middle j, and the last
    # (j = (p-1)/3 excepted, where LEMMA22 and LEMMA_SH55 take the case whole)
    readers = {T.LEMMA22, T.LEMMA_P2J, T.LEMMA_SH55}
    for j in (0, (p - 1) // 4, (p - 1) // 2):
        pv = PrimeVerifier(p)
        pv._harmonic_units[j] += 1
        failed = {r.target for r in pv.run() if not r.passed}
        assert failed == {t for t in readers if applicable(t, p)}, (p, j)


@pytest.mark.parametrize("targets", [None, [T.LEMMA22, T.LEMMA_SUNH]])
@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_works_out_the_wanted_targets_once_per_prime(workers, targets, monkeypatch):
    # the walk and each verifier, in this process or a forked child, share
    # one _wanted per swept prime; the rows are verify_prime's own
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    primes = sieve_primes(5, 300)
    want = [r for p in primes for r in verify_prime(p, targets)]
    calls = multiprocessing.Value("q", 0)
    real = congruences._wanted

    def counting(p, targets):
        with calls.get_lock():
            calls.value += 1
        return real(p, targets)

    monkeypatch.setattr(congruences, "_wanted", counting)
    with _deadline(120):
        rows = sweep(5, 300, targets, workers=workers)
    assert _strip(rows) == _strip(want)
    assert calls.value == len(primes)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_rows_equal_verify_prime_rows(workers, monkeypatch):
    # the walk's triples leave every row as verify_prime alone gives it
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    want = [r for p in sieve_primes(5, 700) for r in verify_prime(p)]
    with _deadline(120):
        assert _strip(sweep(5, 700, workers=workers)) == _strip(want)
    assert multiprocessing.active_children() == []


def test_sweep_walks_only_where_it_pays(monkeypatch):
    walks = []
    real = congruences.horner_walk

    def spy(precisions):
        walks.append(dict(precisions))
        return real(precisions)

    monkeypatch.setattr(congruences, "horner_walk", spy)
    sweep(5, 500)
    assert walks == [{p: 5 for p in sieve_primes(5, 500)}]
    # a window far from 5, no prime at all, and no target that reads a sum
    sweep(995, 1010)
    sweep(8, 10)
    sweep(5, 500, [T.CONJ1_DP1, T.LEMMA22, T.LEMMA_MPT, T.LEMMA_P2J, T.LEMMA_SUNH])
    assert len(walks) == 1
    # only the primes whose wanted targets read a sum, each at its own K
    sweep(5, 100, [T.THM12_4K, T.LEMMA22, T.LEMMA_P2J])
    assert walks[1] == {p: 3 for p in sieve_primes(5, 100) if p % 3 == 1}
    sweep(5, 100, [T.THM13_K2_16K, T.CONJ2_MODP2])
    assert walks[2] == {p: 3 if p % 3 == 1 else 2 for p in sieve_primes(5, 100)}


def test_sweep_runs_every_target_past_1000():
    # past 1000, where acceptance criteria 5 and 7 stop reading rows
    rows = sweep(995, 1010, targets=[T.CONJ1_DP1, T.LEMMA_SUNH, T.MUSUN_P5])
    for t in (T.CONJ1_DP1, T.LEMMA_SUNH, T.MUSUN_P5):
        assert [r.prime for r in rows if r.target is t] == [997, 1009]
    assert all(r.passed for r in rows)


# one prime of each class mod 3, past the primes the acceptance criteria read
@pytest.mark.parametrize("p", [1009, 1013])
def test_bernoulli_and_euler_tables_carry_weight(p):
    # +1 on one of the verifier's memoized Bernoulli values: B_(p-3) moves
    # CONJ1_DP1 alone, and B_(p-2)(1/3) or B_(p-2)(1/4) (E_(p-3) times 8)
    # LEMMA_SUNH alone
    targets = [T.CONJ1_DP1, T.LEMMA_SUNH]
    run = lambda pv, t: getattr(pv, SPECS[t].method)()
    pv = PrimeVerifier(p, targets)
    assert all(run(pv, t).passed for t in targets)
    for i, moved in ((0, T.CONJ1_DP1), (1, T.LEMMA_SUNH), (2, T.LEMMA_SUNH)):
        pv = PrimeVerifier(p, targets)
        values = list(pv._bernoulli_values)
        values[i] = (values[i] + 1) % p
        pv.__dict__["_bernoulli_values"] = tuple(values)
        for t in targets:
            assert run(pv, t).passed == (t is not moved), (i, t)


@pytest.mark.parametrize("p", [1009, 1013])
def test_domb_recurrence_carries_weight(p, monkeypatch):
    # +1 on the recurrence's last value E_(p-1) = ((p-1)!)^3 D_(p-1) moves
    # CONJ1_DP1's lhs by ((p-1)!)^(-3) mod p^4 and fails the row: on the
    # walked path, which reads the table's top entry alone and leaves every
    # other row as it was, and on the single-prime path, which walks the
    # table back first
    walked = horner_walk({p: 5})[p]
    clean = {r.target: r for r in verify_prime(p)}
    real = domb._scaled_residues

    def moved(size, mod):
        vals = real(size, mod)
        vals[-1] += 1
        return vals

    monkeypatch.setattr(domb, "_scaled_residues", moved)
    step = pow(math.factorial(p - 1) ** 3, -1, p**4)
    for triples in (walked, None):
        pv = PrimeVerifier(p, triples=triples)
        rows = {r.target: r for r in pv.run()}
        row = rows.pop(T.CONJ1_DP1)
        assert not row.passed and row.rhs == clean[T.CONJ1_DP1].rhs, triples
        assert (row.lhs - clean[T.CONJ1_DP1].lhs) % p**4 == step, triples
        assert ("residues" in vars(pv.domb_table)) == (triples is None)
        if triples is not None:
            assert _strip(rows.values()) == _strip(r for t, r in clean.items() if t in rows)


# LEMMA22 applies at 1009 only; LEMMA_P2J and LEMMA_SH55 at both
@pytest.mark.parametrize("p", [1009, 1013])
def test_harmonic_and_factorial_tables_carry_weight(p):
    targets = [t for t in (T.LEMMA22, T.LEMMA_P2J, T.LEMMA_SH55) if applicable(t, p)]
    assert len(targets) == (3 if p == 1009 else 2)
    run = lambda pv, t: getattr(pv, SPECS[t].method)()
    pv = PrimeVerifier(p, targets)
    assert all(run(pv, t).passed for t in targets)
    # H_10 is read at j = 5 and j = 10; 1/10! at j = 3, 5 and 10 (LEMMA_SH55:
    # j = 5 and 10)
    j = 10
    for t in targets:
        pv = PrimeVerifier(p, targets)
        _harmonic_cache(pv.ctx)._h[j] += 1
        assert not run(pv, t).passed, ("H", t)
        pv = PrimeVerifier(p, targets)
        pv.ctx.factorial_tables(2 * p - 2)
        pv.ctx._fact_inv[j] += 1
        assert not run(pv, t).passed, ("1/j!", t)


def test_lemma_sides_read_separate_tables():
    # each side of every lemma case is blind to the other side's table:
    # perturbing every inverse factorial moves only the binomial sides,
    # perturbing every stored harmonic sum only the harmonic sides
    p = 1009
    samples = [0, 1, -1, 2, 37]
    # each helper gives the binomial side and the harmonic side, of every
    # case or term
    helpers = {
        "_lemma22_units": lambda pv: pv._lemma22_units(),
        "_lemma_p2j_units": lambda pv: pv._lemma_p2j_units(),
        # the regular terms' units, then the factors of the whole term
        "_lemma_sh55_terms": lambda pv: (lambda b, x, w: (b + [w[0]], x + [w[1]]))(*pv._lemma_sh55_terms()),
        # one case per sample t: the row of a one-sample check
        "lemma_mpt_check": lambda pv: list(
            zip(*[(r.lhs, r.rhs) for r in (pv.lemma_mpt_check([t]) for t in samples)])
        ),
    }

    def sides(perturb):
        pv = PrimeVerifier(p, [T.LEMMA22, T.LEMMA_MPT, T.LEMMA_P2J, T.LEMMA_SH55])
        perturb(pv)
        return {name: sides_of(pv) for name, sides_of in helpers.items()}

    def bump_inverse_factorials(pv):
        pv.ctx.factorial_tables(2 * p - 2)
        pv.ctx._fact_inv[:] = [x + 1 for x in pv.ctx._fact_inv]

    def bump_harmonic_sums(pv):
        # by the index, since the cases read differences H_2j - H_j
        h = _harmonic_cache(pv.ctx)._h
        h[:] = [x + n for n, x in enumerate(h)]

    def bump_harmonic_inverses(pv):
        # after the sums are built from them, so only readers of the
        # inverses themselves see it
        inv = special.harmonic_inverses(pv.ctx)
        inv[:] = [x + 1 for x in inv]

    clean = sides(lambda pv: None)
    moved_binomials = sides(bump_inverse_factorials)
    moved_harmonics = sides(bump_harmonic_sums)
    moved_inverses = sides(bump_harmonic_inverses)
    for name in helpers:
        binomial_side, harmonic_side = clean[name]
        assert moved_binomials[name][1] == harmonic_side, name
        assert moved_binomials[name][0] != binomial_side, name
        assert moved_harmonics[name][0] == binomial_side, name
        assert moved_harmonics[name][1] != harmonic_side, name
        assert moved_inverses[name][0] == binomial_side, name
    # LEMMA_MPT's c0 is a product of the inverses
    assert moved_inverses["lemma_mpt_check"][1] != clean["lemma_mpt_check"][1]


# The six weights of weighted_sum, each as a function of k.
WEIGHTS = {
    "1": lambda k: 1,
    "k": lambda k: k,
    "k2": lambda k: k * k,
    "3k+2": lambda k: 3 * k + 2,
    "3k+1": lambda k: 3 * k + 1,
    "3k2+k": lambda k: 3 * k * k + k,
}


def moment_sums_by_weights(residues, base, pk):
    """sum_k k^i D_k base^(-k) mod pk for i = 0, 1, 2 by the per-k loop that
    Horner in the base replaced: a weight base^(-k) kept mod pk, and every
    term reduced."""
    ib = pow(base, -1, pk)
    s0 = s1 = s2 = 0
    w = 1
    for k, d in enumerate(residues):
        t = d * w % pk
        s0 += t
        t *= k
        s1 += t
        s2 += k * t
        w = w * ib % pk
    return s0 % pk, s1 % pk, s2 % pk


def verifier_at(p, K):
    """A verifier of every target whose Domb table and weighted sums work
    mod p^K."""
    pv = PrimeVerifier(p)
    pv.precision, pv.powers = K, tuple(p**i for i in range(K + 1))
    return pv


@pytest.mark.parametrize("p", sieve_primes(5, 300) + [997, 1999, 4001, 4003])
def test_weighted_sums_match_direct_loops(p):
    # the moment sums against the per-k loop they replaced, and the six
    # weights, each summed on its own, against the moment sums, at every
    # precision up to 6 and at bases 4, 16, 3 and -8
    for K in range(1, 7):
        pv = verifier_at(p, K)
        pk = p**K
        residues = pv.domb_table.residues
        assert pv.domb_table.ctx.pk == pk
        for base in (4, 16, 3, -8):
            want = moment_sums_by_weights(residues, base, pk)
            assert pv._moment_sums(base, base) == (want, want), (K, base)
            ib = pow(base, -1, pk)
            direct = dict.fromkeys(WEIGHTS, 0)
            w = 1
            for k, d in enumerate(residues):
                t = d * w % pk
                for name, fn in WEIGHTS.items():
                    direct[name] += fn(k) * t
                w = w * ib % pk
            for name in WEIGHTS:
                assert pv.weighted_sum(base, name) == direct[name] % pk, (K, base, name)


@pytest.mark.parametrize("K", [3, 5])
def test_walk_matches_per_prime_horner(K):
    # one walk against the per-prime pass over each Domb table it replaces
    # in sweeps: both bases, all three values, at every prime to 2000 and at
    # 10007; and the moment sums finished from the walk's triples against
    # those of a verifier given none
    primes = sieve_primes(5, 2000) + [10007]
    walked = horner_walk(dict.fromkeys(primes, K))
    assert sorted(walked) == primes
    for p in primes:
        t = walked[p]
        assert (t.p, t.precision) == (p, K)
        pv = verifier_at(p, K)
        assert (t.at4, t.at16) == pv._horner(4, 16), p
        if K == 5:  # the precision of a verifier of every target
            assert PrimeVerifier(p, triples=t)._moment_sums(4, 16) == pv._moment_sums(4, 16), p


def test_verifier_refuses_triples_it_cannot_use():
    # triples of another prime, or below the verifier's K, raise; triples
    # above K serve it, reduced further
    walked = horner_walk({97: 5, 101: 5, 103: 4})
    with pytest.raises(ValueError, match="p = 97"):
        PrimeVerifier(101, triples=walked[97])
    with pytest.raises(ValueError, match="precision 5"):
        verify_prime(103, triples=walked[103])  # MUSUN_P5 wants p^5
    rows = verify_prime(103, [T.THM11_4K, T.THM11_16K], triples=walked[103])
    assert _strip(rows) == _strip(verify_prime(103, [T.THM11_4K, T.THM11_16K]))


def test_verifier_reads_its_triples_and_keeps_none(monkeypatch):
    # a verifier given triples makes no pass over its Domb table; moved
    # triples move its rows; a verifier given none afterwards is unaffected
    p = 997
    t = horner_walk({p: 5})[p]
    want = _strip(verify_prime(p))

    def refuse(self, a, b):
        raise AssertionError("a pass over the Domb table at (4, 16)")

    with monkeypatch.context() as m:
        m.setattr(PrimeVerifier, "_horner", refuse)
        assert _strip(verify_prime(p, triples=t)) == want
    moved = dataclasses.replace(t, at4=(t.at4[0] + 1, *t.at4[1:]))
    rows = {r.target: r.passed for r in verify_prime(p, triples=moved)}
    assert not rows[T.THM11_4K] and rows[T.THM11_16K]
    assert _strip(verify_prime(p)) == want


def _swap_back_walk(monkeypatch, walk) -> None:
    """Make walk(table) DombTable's walk back, the cached ``residues``."""
    prop = functools.cached_property(walk)
    prop.__set_name__(DombTable, "residues")
    monkeypatch.setattr(DombTable, "residues", prop)


@pytest.mark.parametrize("p", [5, 7, 1009, 1013])
def test_a_walked_prime_never_walks_its_table_back(p, monkeypatch):
    # a verifier of every target walks its table back exactly once, for its
    # Horner pass; one given the walk's triples reads D_(p-1) alone and
    # walks none, with the same rows
    walks = []
    walk = DombTable.residues.func
    _swap_back_walk(monkeypatch, lambda table: walks.append(table) or walk(table))
    pv = PrimeVerifier(p)
    want = _strip(pv.run())
    assert walks == [pv.domb_table]
    walked = PrimeVerifier(p, triples=horner_walk({p: pv.precision})[p])
    assert _strip(walked.run()) == want
    assert "residues" not in vars(walked.domb_table) and walks == [pv.domb_table]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_walks_no_table_back(workers, monkeypatch):
    # a sweep that walks the Domb numbers gives every prime its triples, so
    # no table, here or in a forked child, reads past its top entry
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    want = _strip(r for p in sieve_primes(5, 300) for r in verify_prime(p))

    def refuse(table):
        raise AssertionError(f"a swept table of size {table.size} walked back")

    _swap_back_walk(monkeypatch, refuse)
    with _deadline(120):
        assert _strip(sweep(5, 300, workers=workers)) == want
    assert multiprocessing.active_children() == []


def test_reads_sums_names_the_targets_that_read_a_weighted_sum():
    # the one fact the sweep's choice to walk reads, against what each
    # target's method does
    for t in Target:
        p = next(q for q in (13, 11, 7) if applicable(t, q))
        pv = PrimeVerifier(p, [t])
        pv.run()
        assert bool(pv._sums) == SPECS[t].reads_sums, t


@pytest.mark.parametrize("p", [1009, 1013])
def test_all_targets_run_one_moment_pass(p, monkeypatch):
    # every target of both bases reads its sums off the one pass that the
    # first weighted_sum call makes
    calls = []
    real = PrimeVerifier._moment_sums

    def counting(self, a, b):
        calls.append((a, b))
        return real(self, a, b)

    monkeypatch.setattr(PrimeVerifier, "_moment_sums", counting)
    pv = PrimeVerifier(p)
    assert all(r.passed for r in pv.run())
    assert calls == [(4, 16)]
    assert {k.split("/")[1] for k in pv._sums} == {"4", "16"} and len(pv._sums) == 12


@pytest.mark.parametrize("p", [101, 1009])
def test_weighted_sums_see_every_term_across_blocks(p):
    # the moment sums reduce once every 16 terms: one more at k, on either
    # side of a block boundary or at either end, moves each of the twelve
    # weighted sums by exactly w(k) base^(-k)
    before = PrimeVerifier(p)
    pk = before.powers[-1]
    sums = {(b, name): before.weighted_sum(b, name) for b in (4, 16) for name in WEIGHTS}
    for k in (0, 1, 15, 16, 17, 31, 32, p - 2, p - 1):
        pv = PrimeVerifier(p)
        pv.domb_table.residues[k] += 1
        for (b, name), s in sums.items():
            want = (s + WEIGHTS[name](k) * pow(b, -k, pk)) % pk
            assert pv.weighted_sum(b, name) == want, (k, b, name)


# ---- oracles: the PAdicValue loops that the plain-residue lemma cases replaced ----


def floor_valuations(p, n):
    """v_p(m!) for 0 <= m <= n by Legendre's sum of floor(m/p^i), apart
    from the kernel's digit-sum form."""
    v = [0] * (n + 1)
    q = p
    while q <= n:
        v = [a + m // q for m, a in enumerate(v)]
        q *= p
    return v


@functools.lru_cache(maxsize=4)
def truth_ctx(p):
    """A context of p's own at p^3, the largest m the oracles read, apart
    from every verifier's: the oracles' factorial tables and harmonic
    sums carry every digit the rows are stated to."""
    return PrimeContext(p, 3)


def oracle_lemma22_cases(pv, m):
    p, ctx = pv.p, truth_ctx(pv.p)
    cases = []
    for j in range((p - 1) // 2 + 1):
        lhs = (binomial_int(3 * j, j, ctx) * binomial_int(p + j, 3 * j + 1, ctx)).residue(m)
        hterm = 1 + p * (harmonic(j, 1, ctx) - harmonic(2 * j, 1, ctx))
        rhs = (PAdicValue.from_fraction(Fraction(p, 3 * j + 1), ctx) * hterm).residue(m)
        cases.append((lhs, rhs))
    return cases


def oracle_lemma_p2j_cases(pv, m):
    p, ctx = pv.p, truth_ctx(pv.p)
    half = (p - 1) // 2
    cases = []
    for j in range(p):
        sign = -1 if j % 2 else 1
        lhs = (
            (3 * j + 1)
            * binomial_int(3 * j, j, ctx)
            * binomial_int(p + 2 * j, 3 * j + 1, ctx)
        ).residue(m)
        hdiff = harmonic(2 * j, 1, ctx) - harmonic(j, 1, ctx)
        if j <= half:
            rv = sign * PAdicValue.from_int(p, ctx) * (1 + p * hdiff)
        else:
            rv = sign * PAdicValue.from_int(2 * p * p, ctx) * hdiff
        cases.append((lhs, rv.residue(m)))
    return cases


def oracle_lemma_sh55_terms(pv, m):
    """The factors of every term, and the PAdicValue sum of the terms."""
    p, ctx = pv.p, truth_ctx(pv.p)
    pk = ctx.pk
    i16 = pow(16, -1, pk)
    w = 1
    acc = PAdicValue.zero(ctx)
    terms = []
    for k in range(p):
        cb = binomial_int(2 * k, k, ctx)
        binomial_part = cb * cb * from_residue(w, ctx)
        hterm = 1 + p * (harmonic(2 * k, 1, ctx) - harmonic(k, 1, ctx))
        harmonic_part = PAdicValue.from_fraction(Fraction(p, 3 * k + 1), ctx) * hterm
        acc = acc + binomial_part * harmonic_part
        terms.append((binomial_part.residue(m), harmonic_part.residue(m)))
        w = w * i16 % pk
    return terms, acc.residue(m)


# The precision K of a lemma verifier is the lemmas' m = 3 unless a target
# with a larger m is requested with them; its kernel precision stays 2,
# since neither CONJ1_DP1 nor MUSUN_P5 reads a kernel table past p.
EXTRA_FOR_K = {3: [], 4: [T.CONJ1_DP1], 5: [T.MUSUN_P5]}
ORACLE_RUNS = [(p, k) for p in sieve_primes(5, 200) for k in EXTRA_FOR_K] + [(997, 3)]


def _assert_cases_equal(got, want, label):
    assert len(got) == len(want), label
    for j, (g, w) in enumerate(zip(got, want)):
        assert g == w, (label, j)


def _times_p(p, units, whole=None):
    """The cases of a range lemma from its two lists of units mod p^2: p
    times each entry, but at j = whole, where the entries are the case
    itself mod p^3."""
    lhs, rhs = units
    assert len(lhs) == len(rhs)
    return [(a, b) if j == whole else (p * a, p * b) for j, (a, b) in enumerate(zip(lhs, rhs))]


def _lemma22_cases(pv):
    return _times_p(pv.p, pv._lemma22_units(), (pv.p - 1) // 3)


def _lemma_p2j_cases(pv):
    return _times_p(pv.p, pv._lemma_p2j_units())


def _sh55_kept(p):
    """The k of the LEMMA_SH55 terms the verifier sums, in its order: every
    k < (p+1)/2, then k0 = (2p-1)/3 at p = 2 (mod 3)."""
    return list(range((p + 1) // 2)) + ([(2 * p - 1) // 3] if p % 3 == 2 else [])


def _assert_sh55_terms(pv, terms, label):
    # the verifier's terms against the kept ones of all p terms, case by
    # case, and the products mod p^3; every term it drops has a product 0
    # mod p^3.  Below (p+1)/2 the verifier holds a term as p 16^(-k) times
    # a binomial and a harmonic unit mod p^2: the binomial unit times
    # 16^(-k) agrees with the p^3 binomial factor mod p^2, p times the
    # harmonic unit is the p^3 harmonic factor, and the harmonic factor's p
    # makes the products agree mod p^3.  The one term of another valuation
    # is held as its two factors mod p^3.  At 3k+1 = p (p = 1 mod 3) its
    # harmonic unit is 0, the binomial factor is a unit and both factors
    # must agree mod p^3.  At k0 = (2p-1)/3 (p = 2 mod 3) the binomial
    # factor carries p^2, so only the harmonic factor mod p reaches the sum,
    # and the verifier's harmonic cache holds fewer digits than the p^3 one
    # these terms were built from: there the harmonic factors agree mod p.
    p = pv.p
    pp, mod = p**2, p**3
    binomials, harmonics, (wb, wh) = pv._lemma_sh55_terms()
    kept = _sh55_kept(p)
    assert len(binomials) == len(harmonics) == (p + 1) // 2, label
    assert len(terms) == p, label
    for k, (b, x) in enumerate(zip(binomials, harmonics)):
        tb, th = terms[k]
        assert 0 <= b < pp and 0 <= x < pp, (label, k)
        if 3 * k + 1 == p:
            assert x == 0 and wb == tb and wh == th, (label, k)
            assert wb * wh % mod == tb * th % mod, (label, k)
        else:
            assert p * x == th and b * pow(16, -k, pp) % pp == tb % pp, (label, k)
            assert p * b * x * pow(16, -k, mod) % mod == tb * th % mod, (label, k)
    if p % 3 == 2:
        tb, th = terms[kept[-1]]
        assert wb == tb and wh % p == th % p, (label, "k0")
        assert wb * wh % mod == tb * th % mod, (label, "k0")
    for k in sorted(set(range(p)) - set(kept)):
        b, h = terms[k]
        assert b * h % p**3 == 0, (label, k)


def _lemma_verifier(p, k):
    lemmas = [t for t in (T.LEMMA22, T.LEMMA_P2J, T.LEMMA_SH55) if applicable(t, p)]
    pv = PrimeVerifier(p, lemmas + EXTRA_FOR_K[k])
    assert pv.precision == k, (p, k)
    assert pv.ctx.precision == 2, (p, k)
    return pv


@pytest.mark.parametrize("k", list(EXTRA_FOR_K))
def test_lemma_cases_match_padic_oracles(k):
    for p in [q for q, g in ORACLE_RUNS if g == k]:
        pv = _lemma_verifier(p, k)
        m = modulus_exponent(T.LEMMA_P2J, p)
        if T.LEMMA22 in pv.want:
            _assert_cases_equal(_lemma22_cases(pv), oracle_lemma22_cases(pv, m), ("LEMMA22", p))
        _assert_cases_equal(_lemma_p2j_cases(pv), oracle_lemma_p2j_cases(pv, m), ("LEMMA_P2J", p))
        terms, rhs = oracle_lemma_sh55_terms(pv, m)
        _assert_sh55_terms(pv, terms, ("LEMMA_SH55", p))
        assert pv.lemma_sh55_check().rhs == rhs, p


def _valuation_shifts(p, n):
    """The cases among j < n where the plain-residue loops shift a
    valuation by hand: 3j+1 = p, 3j+1 = 2p, and 2j >= p."""
    out = set()
    for j in range(n):
        if (3 * j + 1) % p == 0:
            out.add(f"3j+1={(3 * j + 1) // p}p")
        if 2 * j >= p:
            out.add("2j>=p")
    return out


def _split_roles(p, n):
    """The roles of the j < n at which the slice forms end a range or
    change a valuation: 3j+1 = p or 2p, the last j with 2j < p, the first
    with 2j > p, and j = p-1.  A j with two roles (p = 5: 3j+1 = 2p at
    2j = p+1) counts as a role of its own."""
    out = set()
    for j in range(n):
        roles = [f"3j+1={(3 * j + 1) // p}p"] if (3 * j + 1) % p == 0 else []
        ends = (("2j=p-1", 2 * j == p - 1), ("2j=p+1", 2 * j == p + 1), ("j=p-1", j == p - 1))
        roles += [name for name, hit in ends if hit]
        if roles:
            out.add("&".join(roles))
    return out


def test_oracle_primes_cover_every_valuation_shift():
    for runs in (ORACLE_RUNS, SLICE_RUNS):
        primes = {p for p, _ in runs}
        lemma22 = set().union(*(_valuation_shifts(p, (p + 1) // 2) for p in primes if p % 3 == 1))
        full_range = set().union(*(_valuation_shifts(p, p) for p in primes))
        assert lemma22 == {"3j+1=1p"}
        assert full_range == {"3j+1=1p", "3j+1=2p", "2j>=p"}
        lemma22 = set().union(*(_split_roles(p, (p + 1) // 2) for p in primes if p % 3 == 1))
        full_range = set().union(*(_split_roles(p, p) for p in primes))
        assert lemma22 == {"3j+1=1p", "2j=p-1"}
        assert full_range == {
            "3j+1=1p", "3j+1=2p", "2j=p-1", "2j=p+1", "j=p-1", "3j+1=2p&2j=p+1",
        }


# ---- oracles: the per-case loops that the strided-slice lemma forms replaced ----
# They read the tables of truth_ctx, at p^3, not the verifier's.


def _p_over_3j1(p, mod):
    """p/(3j+1) mod `mod` for j < (p+1)/2, by pow: 1 at 3j+1 = p."""
    return [1 if 3 * j + 1 == p else p * pow(3 * j + 1, -1, mod) % mod for j in range((p + 1) // 2)]


def per_case_lemma22_cases(pv, m):
    p = pv.p
    ctx = truth_ctx(p)
    pw = ctx.powers
    mod = pw[m]
    fu, fi = ctx.factorial_tables(3 * p)
    fv = floor_valuations(p, 3 * p)
    h = special.harmonic_scaled(p - 1, ctx)
    f = _p_over_3j1(p, mod)
    cases = []
    for j in range((p + 1) // 2):
        a, b, c, d, e = p + j, 3 * j, 2 * j, 3 * j + 1, p - 2 * j - 1
        v = fv[a] + fv[b] - fv[j] - fv[c] - fv[d] - fv[e]
        lhs = fu[a] * fu[b] * fi[j] * fi[c] * fi[d] * fi[e] * pw[v] % mod if v < m else 0
        cases.append((lhs, f[j] * (1 + p * (h[j] - h[c])) % mod))
    return cases


def per_case_lemma_p2j_cases(pv, m):
    p = pv.p
    ctx = truth_ctx(p)
    pw = ctx.powers
    mod = pw[m]
    fu, fi = ctx.factorial_tables(3 * p)
    fv = floor_valuations(p, 3 * p)
    h = special.harmonic_scaled(2 * p - 2, ctx)
    half = (p - 1) // 2
    cases = []
    for j in range(p):
        a, c, d = p + 2 * j, 2 * j, p - j - 1
        v = fv[a] - fv[j] - fv[c] - fv[d]
        lhs = fu[a] * fi[j] * fi[c] * fi[d] * pw[v] % mod if v < m else 0
        if j <= half:
            rhs = p * (1 + p * (h[c] - h[j]))
        else:
            rhs = 2 * p * (h[c] - p * h[j])
        cases.append((lhs, (-rhs if j % 2 else rhs) % mod))
    return cases


def per_case_lemma_sh55_terms(pv, m):
    """All p terms; p/(3k+1) from pow below (p+1)/2, and from there with
    the one p/(3k+1) of valuation 0 at 3k+1 = 2p."""
    p = pv.p
    ctx = truth_ctx(p)
    pw = ctx.powers
    mod = pw[m]
    fu, fi = ctx.factorial_tables(3 * p)
    h = special.harmonic_scaled(2 * p - 2, ctx)
    f = _p_over_3j1(p, mod)
    i16 = pow(16, -1, mod)
    half = (p + 1) // 2
    w = 1
    terms = []
    for k in range(half):
        c = fu[2 * k] * fi[k] * fi[k] % mod
        terms.append((c * c * w % mod, f[k] * (1 + p * (h[2 * k] - h[k])) % mod))
        w = w * i16 % mod
    w = w * pw[2] % mod
    for k in range(half, p):
        c = fu[2 * k] * fi[k] * fi[k] % mod
        x = pow(2, -1, mod) if 3 * k + 1 == 2 * p else p * pow(3 * k + 1, -1, mod)
        terms.append((c * c * w % mod, x * (1 + h[2 * k] - p * h[k]) % mod))
        w = w * i16 % mod
    return terms


SLICE_RUNS = [(p, k) for p in sieve_primes(5, 1000) for k in EXTRA_FOR_K] + [
    (p, 3) for p in (1999, 4001, 4003, 10007)
]


@pytest.mark.parametrize("k", list(EXTRA_FOR_K))
def test_lemma_slices_match_per_case_loops(k):
    for p in [q for q, g in SLICE_RUNS if g == k]:
        pv = _lemma_verifier(p, k)
        if T.LEMMA22 in pv.want:
            _assert_cases_equal(_lemma22_cases(pv), per_case_lemma22_cases(pv, 3), ("LEMMA22", p))
        _assert_cases_equal(_lemma_p2j_cases(pv), per_case_lemma_p2j_cases(pv, 3), ("LEMMA_P2J", p))
        _assert_sh55_terms(pv, per_case_lemma_sh55_terms(pv, 3), ("LEMMA_SH55", p))


def test_each_quotient_has_its_per_range_valuation():
    # the slice forms write each valuation once per range; below 3p < p^2,
    # v_p(n!) = floor(n/p) makes it a constant there, read here off
    # Legendre's floor-division sum:
    # LEMMA_P2J 1; LEMMA22 1, but 0 at 3j+1 = p; C(2k,k) 0 below (p+1)/2
    # and 1 from there
    for p in sieve_primes(5, 3000):
        fv = floor_valuations(p, 3 * p)
        n = (p + 1) // 2
        p2j = [fv[p + 2 * j] - fv[j] - fv[2 * j] - fv[p - j - 1] for j in range(p)]
        assert p2j == [1] * p, p
        lemma22 = [
            fv[p + j] + fv[3 * j] - fv[j] - fv[2 * j] - fv[3 * j + 1] - fv[p - 2 * j - 1]
            for j in range(n)
        ]
        want = [1] * n
        if p % 3 == 1:
            want[(p - 1) // 3] = 0
        assert lemma22 == want, p
        assert [fv[2 * k] - 2 * fv[k] for k in range(p)] == [0] * n + [1] * (p - n), p


def _h2j_reads(p, j):
    """The harmonic entries behind H_2j: itself below p, and past p, where
    p H_2j = p H_p + p H_(2j-p) mod p^2, H_(2j-p) and H_(p-1)."""
    return [("h", 2 * j)] if 2 * j < p else [("h", 2 * j - p), ("h", p - 1)]


# the table entries each lemma reads at case j, by table; a LEMMA_SH55 term
# from k = (p+1)/2 on but at 3k+1 = 2p is dropped, and reads no harmonic
# entry of its own
LEMMA_READS = {
    T.LEMMA22: lambda p, j: [("fu", p + j), ("fi", 3 * j + 1), ("h", 2 * j)],
    T.LEMMA_P2J: lambda p, j: [("fu", p + 2 * j), ("fi", p - j - 1), *_h2j_reads(p, j)],
    T.LEMMA_SH55: lambda p, j: [("fu", 2 * j), ("fi", j)]
    + (_h2j_reads(p, j) if 2 * j < p or 3 * j + 1 == 2 * p else []),
}
LEMMA_RANGES = {T.LEMMA22: lambda p: (p + 1) // 2, T.LEMMA_P2J: lambda p: p, T.LEMMA_SH55: lambda p: p}


def _perturbed_run(p, target, table, i):
    # the reaches of a lemma run: units to (3p-2)!, inverses to 1/(2p-2)!
    pv = PrimeVerifier(p, [target])
    pv.ctx.factorial_decomposed(3 * p - 2)
    pv.ctx.factorial_tables(2 * p - 2)
    entries = {
        "fu": pv.ctx._fact_unit,
        "fi": pv.ctx._fact_inv,
        "h": special.harmonic_scaled(p - 1, pv.ctx),
    }[table]
    entries[i] += 1
    row = getattr(pv, SPECS[target].method)()
    assert len(special.harmonic_scaled(p - 1, pv.ctx)) == p  # no upper half
    return row


@pytest.mark.parametrize("p", [1009, 1013])
def test_split_cases_carry_weight(p):
    # an entry read at a range end or at the lone valuation-0 case, moved by
    # one, must fail each lemma that reads it there, so a slice bound off by
    # one cannot pass
    t = 1 if p % 3 == 1 else 2
    splits = {(p - 1) // 3, (t * p - 1) // 3, (p - 1) // 2, (p + 1) // 2, p - 1}
    checked = 0
    for target, reads in LEMMA_READS.items():
        if not applicable(target, p):
            continue
        assert getattr(PrimeVerifier(p, [target]), SPECS[target].method)().passed, target
        for j in sorted(j for j in splits if j < LEMMA_RANGES[target](p)):
            for table, i in reads(p, j):
                # from k = (p+1)/2 on, a LEMMA_SH55 term carries p^2 from
                # C(2k,k)^2 and p from p/(3k+1), so it is 0 mod p^3 and no
                # entry of it can show, except where 3k+1 = 2p.  At
                # 3j+1 = p, LEMMA_SH55 takes its binomial mod p^3 from a
                # helper of its own, and LEMMA22 reads only i! and 1/i!
                # with i <= j there, not the entries of the regular case
                silent = (target is T.LEMMA_SH55 and 2 * j > p and 3 * j + 1 != 2 * p) or (
                    target is not T.LEMMA_P2J and 3 * j + 1 == p and table != "h"
                )
                row = _perturbed_run(p, target, table, i)
                assert row.passed == silent, (target, j, table, i)
                checked += not silent
    # 1009: 4 + 14 + 4; 1013 (no LEMMA22, five splits): 18 + 10.  Past
    # p, each case reads H_(2j-p) and H_(p-1) where it read p H_2j: the
    # two upper splits of LEMMA_P2J at 1009, three at 1013 (there one is
    # 3j+1 = 2p, LEMMA_SH55's kept term too)
    assert checked == (22 if p % 3 == 1 else 28)
    if p % 3 == 1:
        # LEMMA_SH55's helper value, moved by one, fails it
        real = congruences._central_where_3j1_is_p
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(congruences, "_central_where_3j1_is_p", lambda q: real(q) + 1)
            assert not PrimeVerifier(p, [T.LEMMA_SH55]).lemma_sh55_check().passed
        # a unit i! with i < (p-1)/3 and 3 not dividing i is read by
        # LEMMA22's case of valuation 0 alone, as (i-1)!/i! and i!/(i+1)!:
        # moved by one at either end of that range, it fails LEMMA22
        j = (p - 1) // 3
        for i in (1, max(i for i in range(j) if i % 3)):
            assert not _perturbed_run(p, T.LEMMA22, "fu", i).passed, i
        # 1/((p-1)/2)!, which each of LEMMA_MPT's left sides reads
        assert not _perturbed_run(p, T.LEMMA_MPT, "fi", (p - 1) // 2).passed


def test_upper_half_right_sides_match_the_cached_upper_half():
    # LEMMA_P2J's upper half takes p H_(p+r) mod p^2 as p H_p + p H_r from
    # the sums below p, and LEMMA_SH55's term at 3k+1 = 2p takes its
    # harmonic factor as 1; against the forms they replace, which read the
    # stored p H_(p+r) off the cache's upper half, built here after the
    # verifier's reads, at every prime to 2000.  The SH55 factor's binomial
    # carries p^2, so the replaced form need only be 1 mod p
    for p in sieve_primes(5, 2000):
        pv = PrimeVerifier(p, [T.LEMMA_P2J, T.LEMMA_SH55])
        rhs = pv._lemma_p2j_units()[1]
        whole = pv._lemma_sh55_terms()[2]
        assert len(special.harmonic_scaled(p - 1, pv.ctx)) == p, p
        h = special.harmonic_scaled(2 * p - 1, pv.ctx)
        pp, mod, n = p**2, p**3, (p + 1) // 2
        sg = (1, -1) * n  # (-1)^j
        upper = [2 * s * (a - p * b) % pp for s, a, b in zip(sg[n:p], h[p + 1 : 2 * p - 1 : 2], h[n:p])]
        assert rhs[n:] == upper, p
        if p % 3 == 2:
            k = (2 * p - 1) // 3
            assert whole[1] == 1 == pow(2, -1, mod) * (1 + h[2 * k] - p * h[k]) % p, p


# ---- oracles: the mod p^3 slice forms that the lists of units replaced ----
# They read the verifier's own tables, as those forms did, so a moved entry
# moves them too; p/(3j+1) comes from pow, and the binomials of valuation 0
# at 3j+1 = p from math.comb.


def slice_lemma22_cases(pv):
    p = pv.p
    mod = p**3
    fu, fi = pv.ctx.factorial_tables(3 * p)
    h = special.harmonic_scaled(p - 1, pv.ctx)
    n = (p + 1) // 2
    lhs = [
        p * a * b * c * d * e * g % mod
        for a, b, c, d, e, g in zip(
            fu[p : p + n], fu[0 : 3 * n : 3], fi[:n], fi[0 : 2 * n : 2], fi[1 : 3 * n : 3], fi[p - 1 :: -2]
        )
    ]
    j = (p - 1) // 3
    lhs[j] = math.comb(p - 1, j) * math.comb(p + j, j) % mod
    rhs = [x * (1 + p * (a - b)) % mod for x, a, b in zip(_p_over_3j1(p, mod), h[:n], h[0:p:2])]
    return list(zip(lhs, rhs))


def slice_lemma_p2j_cases(pv):
    p = pv.p
    mod = p**3
    fu, fi = pv.ctx.factorial_tables(3 * p)
    h = special.harmonic_scaled(2 * p - 2, pv.ctx)
    n = (p + 1) // 2
    lhs = [
        p * a * b * c * d % mod
        for a, b, c, d in zip(fu[p : 3 * p : 2], fi[:p], fi[0 : 2 * p : 2], fi[p - 1 :: -1])
    ]
    sp = (p, -p) * n
    rhs = [s * (1 + p * (a - b)) % mod for s, a, b in zip(sp[:n], h[0:p:2], h[:n])]
    rhs += [2 * s * (a - p * b) % mod for s, a, b in zip(sp[n:p], h[p + 1 : 2 * p - 1 : 2], h[n:p])]
    return list(zip(lhs, rhs))


def slice_lemma_sh55_cases(pv):
    """The one case: the Domb sum against the sum of the kept terms, each
    term's weight 16^(-k) carried from term to term."""
    p = pv.p
    mod = p**3
    fu, fi = pv.ctx.factorial_tables(3 * p)
    h = special.harmonic_scaled(4 * p // 3, pv.ctx)
    i16 = pow(16, -1, mod)
    n = (p + 1) // 2
    w = 1
    terms = []
    for a, b, x, s, t in zip(fu[0:p:2], fi[:n], _p_over_3j1(p, mod), h[0:p:2], h[:n]):
        c = a * b * b % mod
        terms.append((c * c * w % mod, x * (1 + p * (s - t)) % mod))
        w = w * i16 % mod
    if p % 3 == 1:
        k = (p - 1) // 3
        c = math.comb(2 * k, k)
        terms[k] = (c * c * pow(i16, k, mod) % mod, terms[k][1])
    else:
        k = (2 * p - 1) // 3
        c = fu[2 * k] * fi[k] * fi[k] % mod
        w = p * p * pow(i16, k, mod)
        terms.append((c * c * w % mod, pow(2, -1, mod) * (1 + h[2 * k] - p * h[k]) % mod))
    return [(pv.weighted_sum(16, "1") % mod, sum(b * x for b, x in terms) % mod)]


SLICE_FORMS = {
    T.LEMMA22: slice_lemma22_cases,
    T.LEMMA_P2J: slice_lemma_p2j_cases,
    T.LEMMA_SH55: slice_lemma_sh55_cases,
}


SLICE_FAILURES = {
    (1009, T.LEMMA22): 16,
    (1009, T.LEMMA_P2J): 17,
    (1009, T.LEMMA_SH55): 11,
    (1013, T.LEMMA_P2J): 17,
    (1013, T.LEMMA_SH55): 14,
}


@pytest.mark.parametrize("p", [1009, 1013])
def test_failure_rows_match_the_p3_slice_forms(p):
    # with one inverse factorial or one harmonic sum moved by one at a split
    # j, or two entries at once, one of them at (p-1)/3, each lemma's row
    # must hold the first failing case of the mod p^3 slice forms (the last
    # case when all pass), and its verdict
    third = (p - 1) // 3
    splits = [0, third, (p - 1) // 2, (p + 1) // 2, p - 1]
    moves = [[(table, j)] for table in ("fi", "h") for j in splits]
    moves += [[("fi", third), ("h", j)] for j in splits if j != third]
    moves += [[("h", third), ("fi", j)] for j in splits if j != third]
    for target, cases_of in SLICE_FORMS.items():
        if not applicable(target, p):
            continue
        failed = 0
        for move in moves:
            pv = PrimeVerifier(p, [target])
            pv.ctx.factorial_tables(2 * p - 2)
            # the inverses of 3j+1 come off the cache's inverse list, not its
            # sums, so a moved sum moves no inverse.  Every move is below p,
            # and the slice forms build the upper half after it, from the
            # moved sums, as the verifier reads p H_(p+r) mod p^2
            tables = {"fi": pv.ctx._fact_inv, "h": special.harmonic_scaled(p - 1, pv.ctx)}
            for table, i in move:
                tables[table][i] += 1
            row = getattr(pv, SPECS[target].method)()
            cases = cases_of(pv)
            lhs, rhs = next((c for c in cases if c[0] != c[1]), cases[-1])
            assert (row.lhs, row.rhs, row.passed) == (lhs, rhs, lhs == rhs), (target, move)
            failed += not row.passed
        # the silent moves: H_0 alone, as every case reads H_2j - H_j;
        # H_((p+1)/2), odd, in LEMMA22 and LEMMA_SH55, which read H_j below
        # (p+1)/2 and H_2j at even 2j (and 2k0); and in LEMMA_SH55, 1/j!
        # from (p+1)/2 on, and at 3j+1 = p (1009), whose C(2j, j) mod p^3
        # comes from a helper of its own
        assert failed == SLICE_FAILURES[p, target], (target, failed)


@pytest.mark.parametrize("p", [1009, 1013])
def test_every_unit_entry_carries_weight(p, monkeypatch):
    # one entry of a range lemma's lists moved by one, on either side, at
    # either end, at a split or at the case taken whole, must fail the
    # lemma with that case in the row; so must a LEMMA_SH55 binomial or
    # harmonic unit moved by one, or either factor of its whole term
    third = (p - 1) // 3
    for target, name, whole in (
        (T.LEMMA22, "_lemma22_units", third),
        (T.LEMMA_P2J, "_lemma_p2j_units", None),
    ):
        if not applicable(target, p):
            continue
        real = getattr(PrimeVerifier, name)
        n = len(real(PrimeVerifier(p, [target]))[0])
        for side in (0, 1):
            for j in sorted({0, third, (p - 1) // 2, (p + 1) // 2, n - 1} - {n}):

                def moved(self, side=side, j=j):
                    units = [list(x) for x in real(self)]
                    units[side][j] += 1
                    return units

                monkeypatch.setattr(PrimeVerifier, name, moved)
                row = getattr(PrimeVerifier(p, [target]), SPECS[target].method)()
                case = _times_p(p, moved(PrimeVerifier(p, [target])), whole)[j]
                assert not row.passed, (target, side, j)
                assert (row.lhs, row.rhs) == tuple(x % p**3 for x in case), (target, side, j)
    # at 3k+1 = p the harmonic unit is 0 and the whole term stands in for
    # the binomial unit, which no sum reads
    real = PrimeVerifier._lemma_sh55_terms
    kb = [0, (p - 1) // 2] + ([third] if p % 3 == 2 else [])
    for part, k in [(0, k) for k in kb] + [(1, 0), (1, third), (1, (p - 1) // 2), (2, 0), (2, 1)]:

        def moved(self, part=part, k=k):
            parts = [list(x) for x in real(self)]
            parts[part][k] += 1
            return parts[0], parts[1], tuple(parts[2])

        monkeypatch.setattr(PrimeVerifier, "_lemma_sh55_terms", moved)
        assert not PrimeVerifier(p, [T.LEMMA_SH55]).lemma_sh55_check().passed, (part, k)


def _lemma22_where_3j1_is_p(p):
    # LEMMA22's case j = (p-1)/3 at p = 1 (mod 3), where 3j+1 = p and the
    # quotient has valuation 0: C(3j, j) C(p+j, 3j+1) = C(p-1, j) C(p+j, j),
    # the product of p-j .. p+j but p over (j!)^2, mod p^3 with one inverse;
    # the verifier's form before it read the inverses 1/i off its tables
    j = (p - 1) // 3
    mod = p**3
    f = congruences._product_mod(range(1, j + 1), mod)
    top = congruences._product_mod(range(p - j, p), mod) * congruences._product_mod(range(p + 1, p + j + 1), mod)
    return top * pow(f * f, -1, mod) % mod


def test_helpers_where_3j1_is_p_match_comb():
    # the two binomials taken mod p^3 at j = (p-1)/3 from chunked products,
    # LEMMA_SH55's helper and LEMMA22's former one, against math.comb
    for p in [q for q in sieve_primes(5, 2000) if q % 3 == 1] + [4003, 20011]:
        j, mod = (p - 1) // 3, p**3
        want = math.comb(p - 1, j) * math.comb(p + j, j) % mod
        assert _lemma22_where_3j1_is_p(p) == want, p
        assert congruences._central_where_3j1_is_p(p) == math.comb(2 * j, j) % mod, p


def test_one_mod_3_special_cases_off_the_tables_match_oracles():
    # the values that LEMMA22 and LEMMA_MPT read off the tables they already
    # build at p = 1 (mod 3), against exact binomials: LEMMA22's case of
    # valuation 0 (1/i off the factorial tables), LEMMA_MPT's samples
    # t = 0 and 1 (off the factorial tables, against the PAdicValue product
    # that the third sample still takes) and its c0 (off the harmonic
    # cache's inverses)
    for p in [q for q in sieve_primes(5, 2000) if q % 3 == 1] + [10009, 100003]:
        j, pp, mod = (p - 1) // 3, p**2, p**3
        a, m = (2 * p - 2) // 3, (p - 1) // 2
        pv = PrimeVerifier(p, [T.LEMMA22, T.LEMMA_MPT])
        want = math.comb(p - 1, j) * math.comb(p + j, j) % mod
        assert pv._lemma22_units()[0][j] == want == _lemma22_where_3j1_is_p(p), p
        assert pv._lemma_mpt_lhs([0, 1]) == [binomial_rational(a + p * t, m, pv.ctx).residue(2) for t in (0, 1)], p
        assert pv._lemma_mpt_rhs([0]) == [math.comb(a, m) % pp], p


@pytest.mark.parametrize("p", [1009, 1013, 4001, 4003])
def test_short_tables_match_the_p3_ground_truth(p):
    # past 1024 a residue mod p^2 fits one 30-bit int digit where one mod
    # p^3 needs two.  The harmonic lists built mod p and p^2 are the p^3
    # lists reduced, and the list behind p/(3j+1) holds the inverse of 3j+1
    # mod p^2, with 0 at 3j+1 = p
    full = PrimeContext(p, 3)
    for order, top in ((1, 2 * p - 1), (2, p - 1)):
        truth = special.harmonic_scaled(top, full, order)
        for k in (1, 2):
            short = special.harmonic_scaled(top, full.with_precision(k), order)
            assert short == [x % p**k for x in truth], (order, k)
    pv = PrimeVerifier(p, [T.LEMMA_SH55])
    assert pv.ctx.precision == 2
    want = [0 if 3 * j + 1 == p else pow(3 * j + 1, -1, p**2) for j in range((p + 1) // 2)]
    assert pv._inv_3j1 == want
    assert all((3 * j + 1) * x % p**2 == 1 for j, x in enumerate(want) if 3 * j + 1 != p)


def test_inverses_of_3j1_match_pow():
    # the differences of the harmonic cache, and 1/(p+r) from 1/r, against
    # one pow per entry, on both sides of 3j+1 = p and in both classes mod 3
    for p in sieve_primes(5, 400):
        pv = PrimeVerifier(p, [T.LEMMA_SH55])
        pp = p * p
        want = [0 if 3 * j + 1 == p else pow(3 * j + 1, -1, pp) for j in range((p + 1) // 2)]
        assert pv._inv_3j1 == want, p


def test_p_over_3j1_is_one_batch_per_verifier(monkeypatch):
    # LEMMA22 and LEMMA_SH55 read the same (p+1)/2 entries, and whichever of
    # them is requested, the list comes off the harmonic cache's one pass of
    # inverses: no module inverts in a batch, the verifier builds one cache,
    # and the entries below p are that cache's inverses
    for module in (congruences, padic, special):
        assert not hasattr(module, "batch_inverse"), module.__name__
    builds = []
    real = special.HarmonicCache.__init__

    def counting(self, ctx):
        builds.append(ctx.p)
        real(self, ctx)

    monkeypatch.setattr(special.HarmonicCache, "__init__", counting)
    for p in (1009, 1013):
        for targets in ([T.LEMMA22], [T.LEMMA_SH55], [T.LEMMA22, T.LEMMA_SH55], list(T)):
            if not all(applicable(t, p) for t in targets):
                continue
            builds.clear()
            pv = PrimeVerifier(p, targets)
            assert all(r.passed for r in pv.run()), (p, targets)
            assert builds == [p], (p, targets)
            f, pp = pv._inv_3j1, p**2
            assert len(f) == (p + 1) // 2, (p, targets)
            low = special.harmonic_inverses(pv.ctx)[1:p:3]  # 1/(3j+1) for 3j+1 < p
            assert f[: len(low)] == low, (p, targets)
            assert all((3 * j + 1) * x % pp == 1 for j, x in enumerate(f) if 3 * j + 1 != p), (p, targets)
            if p % 3 == 1:
                assert f[(p - 1) // 3] == 0
    for q in (7, 13, 31, 997):
        alone = PrimeVerifier(q, [T.LEMMA22])
        _assert_cases_equal(_lemma22_cases(alone), oracle_lemma22_cases(alone, 3), ("LEMMA22", q))


# ---- oracles: the PAdicValue closed forms that the plain right sides replaced ----


def from_residue(r, ctx, abs_prec=None):
    """The class of r mod p^abs_prec (default abs_prec = K) as a PAdicValue:
    what is known of a residue that plain modular arithmetic produced."""
    if abs_prec is None:
        abs_prec = ctx.precision
    r %= ctx.p**abs_prec
    if r == 0:
        return PAdicValue.zero(ctx, abs_prec)
    v, u = split_p(r, ctx.p)
    prec = abs_prec - v
    if prec > ctx.precision:
        prec = ctx.precision
        u %= ctx.pk
    return PAdicValue(ctx, v, u, prec)


def fermat_quotient(a, ctx):
    """q_p(a) = (a^(p-1) - 1)/p known to K digits, from the power mod
    p^(K+1); a quotient divisible by p keeps its positive valuation."""
    p = ctx.p
    assert a % p, (a, p)
    t = pow(a, p - 1, p ** (ctx.precision + 1))
    return from_residue((t - 1) // p, ctx, ctx.precision)


def test_from_residue_roundtrip():
    ctx = PrimeContext(5, 3)
    rng = random.Random(7)
    for _ in range(200):
        r = rng.randrange(125)
        x = from_residue(r, ctx)
        for m in (1, 2, 3):
            assert x.residue(m) == r % 5**m
    # fewer digits known than K, and more (capped at K)
    assert from_residue(6, ctx, 1) == PAdicValue(ctx, 0, 1, 1)
    assert from_residue(5 * 126, ctx, 5) == PAdicValue(ctx, 1, 1, 3)


def oracle_r3(pv):
    ctx, p = truth_ctx(pv.p), pv.p
    hi = p ** (ctx.precision + 1)
    t2 = from_residue(pow(2, p - 1, hi) - 1, ctx, ctx.precision + 1)
    t3 = from_residue(pow(3, p - 1, hi) - 1, ctx, ctx.precision + 1)
    core = PAdicValue.from_int(1 + 2 * p, ctx) + Fraction(4, 3) * t2 - Fraction(3, 2) * t3
    c = binomial_int((p - 1) // 2, p // 6, ctx)
    return core * c * c


def oracle_thm11_rhs(pv, sign_for_16k):
    ctx, p = truth_ctx(pv.p), pv.p
    if p % 3 == 1:
        x = pv.decomposition.x
        q = Fraction(4 * x * x) - 2 * p - Fraction(p * p, 4 * x * x)
        return PAdicValue.from_fraction(q, ctx)
    c = binomial_int((p - 1) // 2, (p - 5) // 6, ctx)
    scale = Fraction(-p * p, 4) if sign_for_16k else Fraction(p * p, 2)
    return PAdicValue.from_fraction(scale, ctx) / (c * c)


def oracle_rhs(pv):
    """The right side of every theorem-level row that the PAdicValue forms
    built, by target.  MUSUN_P5 reads no kernel table, so its oracle works
    at the verifier's precision K, not at p^3."""
    ctx, p = truth_ctx(pv.p), pv.p
    musun_ctx = PrimeContext(p, pv.precision)
    out = {
        T.THM11_4K: oracle_thm11_rhs(pv, False),
        T.THM11_16K: oracle_thm11_rhs(pv, True),
        T.MUSUN_P5: -4 * PAdicValue.from_int(p, musun_ctx) ** 4 * fermat_quotient(2, musun_ctx),
        T.CONJ2_MODP2: PAdicValue.from_int(0, ctx),
    }
    if p % 3 == 1:
        c = binomial_int((p - 1) // 2, (p - 1) // 6, ctx)
        base = PAdicValue.from_int(p * p, ctx) / (c * c)
        x = pv.decomposition.x
        out[T.CONJ2_MODP2] = PAdicValue.from_int(4 * x * x - 2 * p, ctx)
        qa = Fraction(16 * x * x, 9) - Fraction(8 * p, 9) - Fraction(7 * p * p, 18 * x * x)
        qb = Fraction(4 * x * x, 9) - Fraction(2 * p, 9) - Fraction(p * p, 18 * x * x)
        out.update({
            T.THM12_4K: 2 * base,
            T.THM12_16K: base,
            T.THM13_K2_4K: PAdicValue.from_fraction(qa, ctx),
            T.THM13_K2_16K: PAdicValue.from_fraction(qb, ctx),
        })
    else:
        r3 = oracle_r3(pv)
        out.update({
            T.THM13_K2_4K: Fraction(-20, 9) * r3,
            T.THM13_K2_16K: Fraction(4, 9) * r3,
            T.THM13_K_4K: Fraction(4, 3) * r3,
            T.THM13_K_16K: Fraction(-4, 3) * r3,
        })
    return out


def oracle_lemma_mpt_rhs(pv, m, t_samples):
    ctx, p = truth_ctx(pv.p), pv.p
    base = (2 * p - 2) // 3
    c0 = binomial_int(base, (p - 1) // 2, ctx)
    slope = harmonic(base, 1, ctx) - harmonic((p - 1) // 6, 1, ctx)
    return [(c0 * (1 + p * t * slope)).residue(m) for t in t_samples]


def oracle_lemma_sunh_cases(pv, m):
    ctx, p = truth_ctx(pv.p), pv.p
    q2 = fermat_quotient(2, ctx)
    q3 = fermat_quotient(3, ctx)
    chi = 1 if p % 3 == 1 else -1
    bval = chi * bernoulli_poly(p - 2, Fraction(1, 3), ctx) % p
    wv = from_residue(bval, ctx, 1)
    e = euler_table(ctx)[p - 3]
    sign = -1 if (p - 1) // 2 % 2 else 1
    f3 = -Fraction(3, 2) * q3 + Fraction(3 * p, 4) * q3 * q3
    return [
        (harmonic(p - 1, 2, ctx).residue(1), 0),
        (harmonic((p - 1) // 2, 2, ctx).residue(1), 0),
        (harmonic(p - 1, 1, ctx).residue(m), 0),
        ((Fraction(1, 5) * harmonic(p // 6, 2, ctx)).residue(1), harmonic(p // 3, 2, ctx).residue(1)),
        (harmonic(p // 3, 2, ctx).residue(1), (Fraction(1, 2) * wv).residue(1)),
        (
            harmonic(p // 6, 1, ctx).residue(m),
            (-2 * q2 + p * q2 * q2 + f3 - Fraction(5 * p, 12) * wv).residue(m),
        ),
        (harmonic(p // 3, 1, ctx).residue(m), (f3 - Fraction(p, 6) * wv).residue(m)),
        (harmonic((p - 1) // 2, 1, ctx).residue(m), (-2 * q2 + p * q2 * q2).residue(m)),
        (harmonic(p // 4, 2, ctx).residue(1), sign * 4 * e % p),
        (harmonic(2 * p // 3, 1, ctx).residue(m), (f3 + Fraction(p, 3) * wv).residue(m)),
    ]


CLOSED_FORMS = [
    T.THM11_4K, T.THM11_16K, T.THM12_4K, T.THM12_16K,
    T.THM13_K2_4K, T.THM13_K2_16K, T.THM13_K_4K, T.THM13_K_16K, T.MUSUN_P5, T.CONJ2_MODP2,
]
ORACLE_TARGETS = CLOSED_FORMS + [T.LEMMA_MPT, T.LEMMA_SUNH]
CLOSED_FORM_PRIMES = sieve_primes(5, 400) + [997, 1999, 4001, 4003]


def _check_closed_forms(p, targets):
    pv = PrimeVerifier(p, targets)
    label = (p, pv.precision)
    want = oracle_rhs(pv)
    rows = [r for r in pv.run() if r.target in CLOSED_FORMS]
    assert {r.target for r in rows} == set(want) & set(targets), label
    for row in rows:
        assert row.rhs == want[row.target].residue(row.modulus_exponent), (row.target, label)
    if T.LEMMA_MPT in pv.want:
        samples = list(range(-30, 31)) + [10**6 + 7, -(10**9)]
        m = modulus_exponent(T.LEMMA_MPT, p)
        got = pv._lemma_mpt_rhs(samples)
        _assert_cases_equal(got, oracle_lemma_mpt_rhs(pv, m, samples), ("LEMMA_MPT", label))
    if T.LEMMA_SUNH in pv.want:
        m = modulus_exponent(T.LEMMA_SUNH, p)
        got = pv._lemma_sunh_cases()
        _assert_cases_equal(got, oracle_lemma_sunh_cases(pv, m), ("LEMMA_SUNH", label))


@pytest.mark.parametrize("alone", [True, False], ids=["alone", "together"])
def test_closed_forms_match_padic_oracles(alone):
    # each THM row, each LEMMA_MPT case and each LEMMA_SUNH sub-congruence
    # (both sides) on its own, against the PAdicValue form it replaced, on
    # a context of its own at p^3: each target alone, at precision its own
    # m, and all of them together, at precision 5 (MUSUN_P5's m) with the
    # kernel tables at p^2
    for p in CLOSED_FORM_PRIMES:
        if alone:
            for t in ORACLE_TARGETS:
                if applicable(t, p):
                    _check_closed_forms(p, [t])
        else:
            _check_closed_forms(p, ORACLE_TARGETS)


@pytest.mark.parametrize("target", list(Target), ids=lambda t: t.value)
def test_right_side_off_by_top_digit_fails(target, monkeypatch):
    # a negative control: each row's right side moved by p^(m-1) must fail
    # at every prime the target is stated for
    real = PrimeVerifier._report

    def perturbed(self, t, lhs, rhs):
        return real(self, t, lhs, rhs + self.p ** (modulus_exponent(t, self.p) - 1))

    monkeypatch.setattr(PrimeVerifier, "_report", perturbed)
    primes = [p for p in sieve_primes(5, 200) if applicable(target, p)]
    assert len(primes) > 20
    for p in primes:
        [row] = verify_prime(p, [target])
        assert not row.passed, p


# sha256 of repr([(target, m, lhs, rhs, passed), ...]) of verify_prime(p)'s
# rows, recorded from the PAdicValue right sides
FROZEN_ROW_DIGESTS = {
    5: "45dad67b656af903",
    7: "e4df72a7eee5185d",
    11: "67e82682144ffb43",
    13: "4082e25be7a1d249",
    1009: "ab4cffb92239ca01",
    1013: "5900eda40541450d",
}


def _row_digest(rows):
    key = [(r.target.value, r.modulus_exponent, r.lhs, r.rhs, r.passed) for r in rows]
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def test_verifier_does_no_padic_value_arithmetic(monkeypatch):
    # every right side in plain residues: the PAdicValue operators and
    # constructors, and the kernel functions that return PAdicValues, all
    # refuse, except inside binomial_rational, which LEMMA_MPT's left side
    # keeps (it divides by m! as one PAdicValue product)
    inside = []

    def guarded(fn):
        def refuse_outside(*args, **kwargs):
            if not inside:
                raise AssertionError("PAdicValue arithmetic in the verifier")
            return fn(*args, **kwargs)

        return refuse_outside

    def refuse(*args, **kwargs):
        raise AssertionError("PAdicValue arithmetic in the verifier")

    def allowed(*args, **kwargs):
        inside.append(True)
        try:
            return binomial_rational(*args, **kwargs)
        finally:
            inside.pop()

    for op in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__", "__pow__",
    ):
        monkeypatch.setattr(PAdicValue, op, guarded(getattr(PAdicValue, op)))
    for name in ("from_fraction", "from_int"):
        monkeypatch.setattr(PAdicValue, name, refuse)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dombcheck"]
    for fn, stand_in in (
        (special.harmonic, refuse),
        (padic.binomial_int, refuse),
        (binomial_rational, allowed),
    ):
        for module in modules:
            if module.__dict__.get(fn.__name__) is fn:
                monkeypatch.setattr(module, fn.__name__, stand_in)
    for p, digest in FROZEN_ROW_DIGESTS.items():
        assert _row_digest(verify_prime(p)) == digest, p


def test_verifier_builds_no_euler_table(monkeypatch):
    # LEMMA_SUNH reads E_(p-3) off the Bernoulli table; the Euler series is
    # left to the tests as an oracle
    def refuse(*args):
        raise AssertionError("the verifier built the Euler table")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dombcheck" and module.__dict__.get("euler_table") is euler_table:
            monkeypatch.setattr(module, "euler_table", refuse)
    for p in (7, 13, 1009, 1013):
        assert _row_digest(verify_prime(p)) == FROZEN_ROW_DIGESTS[p], p


def test_verifier_builds_no_bernoulli_table(monkeypatch):
    # CONJ1_DP1 and LEMMA_SUNH read their three Bernoulli values from
    # bernoulli_values; the full table is left to the tests as an oracle
    def refuse(*args):
        raise AssertionError("the verifier built the Bernoulli table")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dombcheck" and module.__dict__.get("bernoulli_table") is bernoulli_table:
            monkeypatch.setattr(module, "bernoulli_table", refuse)
    for p in (7, 13, 1009, 1013):
        assert _row_digest(verify_prime(p)) == FROZEN_ROW_DIGESTS[p], p


def test_verifier_builds_no_sigma(monkeypatch):
    # the three Bernoulli values come from Voronoi's sums; sigma and
    # bernoulli_poly over it are left to the tests as oracles
    def refuse(*args):
        raise AssertionError("the verifier built sigma")

    for fn in (special._sinh_inverse, bernoulli_poly):
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "dombcheck" and module.__dict__.get(fn.__name__) is fn:
                monkeypatch.setattr(module, fn.__name__, refuse)
    for p in (7, 13, 1009, 1013):
        assert _row_digest(verify_prime(p)) == FROZEN_ROW_DIGESTS[p], p


def test_applicable_set_is_built_once_per_prime(monkeypatch):
    calls = []
    real = congruences.applicable

    def counting(target, p):
        calls.append(target)
        return real(target, p)

    monkeypatch.setattr(congruences, "applicable", counting)
    for p in (11, 13):
        calls.clear()
        assert verify_prime(p)
        assert len(calls) == len(Target), p


def test_prime_is_proved_prime_once_per_verifier(monkeypatch):
    # the kernel context at p^2 tests p; the Domb table's context at p^5 is
    # made from it and does not test p again, and nor does the x^2 + 3y^2
    # descent at p = 1 mod 3
    calls = []
    real = padic.is_prime

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(padic, "is_prime", counting)
    monkeypatch.setattr(quadform, "is_prime", counting)
    for p in (11, 13, 1009, 1013):
        calls.clear()
        pv = PrimeVerifier(p)
        assert pv.run()
        assert (pv.ctx.precision, pv.domb_table.ctx.precision) == (2, 5)
        assert calls == [p], p


@pytest.mark.parametrize("p", [1009, 1013, 4001, 4003])
def test_verifier_walks_inverse_factorials_to_2p_only(p):
    # no target reads 1/n! past n = 2p - 2 (LEMMA_P2J's 1/(2j)!), so a run
    # leaves the inverse walk there; a later read past it, up to 3p, walks
    # on and still gives math.comb
    rng = random.Random(p)
    for targets in (None, [T.LEMMA22, T.LEMMA_MPT, T.LEMMA_P2J]):
        pv = PrimeVerifier(p, targets)
        pv.run()
        ctx = pv.ctx
        fu, fi = ctx._fact_unit, ctx._fact_inv
        assert 2 * p - 1 <= len(fi) <= 2 * p + 1 and len(fu) >= 3 * p - 1, targets
        assert all(u * i % ctx.pk == 1 for u, i in zip(fu, fi)), targets
        for n in (2 * p - 1, 2 * p, 3 * p - 2, 3 * p, *rng.sample(range(2 * p, 3 * p + 1), 8)):
            k = rng.randrange(n + 1)
            want = math.comb(n, k) % ctx.pk
            assert binomial_int(n, k, ctx).residue(ctx.precision) == want, (targets, n, k)
        assert len(fi) == 3 * p + 1 and all(u * i % ctx.pk == 1 for u, i in zip(fu, fi)), targets


def test_one_binomial_serves_thm11_thm12_and_r3():
    # C((p-1)/2, floor(p/6)) mod p^2 is read once, and every right side
    # built on it reads it: one more on it fails THM12's two rows at 1009
    # (1 mod 3), THM11's two and THM13's four at 1013 (2 mod 3), and no other
    for p, moved in (
        (1009, {T.THM12_4K, T.THM12_16K}),
        (1013, {T.THM11_4K, T.THM11_16K, T.THM13_K2_4K, T.THM13_K2_16K, T.THM13_K_4K, T.THM13_K_16K}),
    ):
        pv = PrimeVerifier(p)
        c = pv._binom_half_sixth
        assert c == math.comb((p - 1) // 2, p // 6) % (p * p), p
        assert all(r.passed for r in pv.run()), p
        pv = PrimeVerifier(p)
        pv._binom_half_sixth = c + 1
        assert {r.target for r in pv.run() if not r.passed} == moved, p


def test_run_stamps_each_method_time_on_its_rows():
    # run() times each evaluating method once: every row carries a time, and
    # the rows of one method (thm12's two at 13, thm13_all's four at 11)
    # share it
    for p, method, n in ((13, "thm12", 2), (11, "thm13_all", 4)):
        rows = PrimeVerifier(p).run()
        assert all(r.millis > 0 for r in rows), p
        shared = [r.millis for r in rows if SPECS[r.target].method == method]
        assert len(shared) == n and len(set(shared)) == 1, (p, shared)


def test_conj2_requires_its_16k_sum_to_match():
    # CONJ2_MODP2 stores the 4^k sum as its lhs, and its 16^k sum must match
    # the same rhs: one more on the cached 16^k weight-1 sum alone fails it,
    # and the two other rows that read that sum, while its stored sides and
    # every other row, THM11_4K's among them, stay as they were
    strip = lambda r: (r.target, r.modulus_exponent, r.lhs, r.rhs, r.passed)
    for p in (1009, 1013):
        before = {r.target: strip(r) for r in verify_prime(p)}
        assert all(r[-1] for r in before.values()), p
        pv = PrimeVerifier(p)
        pv.weighted_sum(16, "1")
        pv._sums["1/16"] += 1
        after = {r.target: strip(r) for r in pv.run()}
        moved = {T.THM11_16K, T.CONJ2_MODP2, T.LEMMA_SH55}
        assert {t for t, r in after.items() if not r[-1]} == moved, p
        assert after[T.CONJ2_MODP2][:-1] == before[T.CONJ2_MODP2][:-1], p
        assert {t: r for t, r in after.items() if t not in moved} == {
            t: r for t, r in before.items() if t not in moved
        }, p


def test_sum_rows_state_what_specs_state():
    # SUM_ROWS and SPECS both say at which primes a sum target is stated:
    # the classes of p mod 3 that a row gives a right side for must be the
    # primes SPECS accepts.  Each row reads sums at base 4 or 16 with a
    # weight of _WEIGHTS, names only ingredients the verifier builds, and
    # divides by a d made of 2s and 3s, a unit at every p >= 5
    assert set(SUM_ROWS) == {t for t in Target if SPECS[t].reads_sums} - {T.LEMMA_SH55}
    primes = sieve_primes(5, 200)
    for t, row in SUM_ROWS.items():
        assert row.sums and all(b in (4, 16) and w in congruences._WEIGHTS for b, w in row.sums), t
        assert all(6**4 % d == 0 and set(c) <= set(congruences._INGREDIENTS) for d, c in row.rhs.values()), t
        assert [p % 3 in row.rhs for p in primes] == [applicable(t, p) for p in primes], t
