"""Acceptance suite: one test per criterion, each printing a verdict line.

The heavy shared work is a single full sweep of every congruence target
over all primes 5 <= p <= 2000, exactly as the CLI runs it; criteria 5 and
7 read its rows up to their stated bound of 1000.  Everything here is exact
residue arithmetic; a criterion passes only if every single case matches.
"""

import random
from fractions import Fraction
from math import comb
from time import perf_counter

import pytest

from dombcheck.cli import main
from dombcheck.congruences import Target, sieve_primes, sweep
from dombcheck.domb import liu_integrality_check, rogers_series_check
from dombcheck.identities import IDENTITY_IDS, check_all_identities
from dombcheck.padic import PAdicValue, PrimeContext, binomial_int, split_p
from dombcheck.special import padic_gamma_int, padic_gamma_rational

T = Target

SWEEP_LO, SWEEP_HI, STATED_BOUND = 5, 2000, 1000


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def full_sweep():
    t0 = perf_counter()
    rows = sweep(SWEEP_LO, SWEEP_HI)
    elapsed = perf_counter() - t0
    return {
        "rows": rows,
        "index": {(r.prime, r.target): r for r in rows},
        "elapsed": elapsed,
        "primes": sieve_primes(SWEEP_LO, SWEEP_HI),
    }


def test_criterion_01_thm11_both_weights(full_sweep):
    idx = full_sweep["index"]
    primes = full_sweep["primes"]
    bad = []
    for p in primes:
        for t in (T.THM11_4K, T.THM11_16K):
            row = idx.get((p, t))
            if row is None or not row.passed or row.modulus_exponent != 3:
                bad.append((p, t))
    spots = (
        idx[(5, T.THM11_4K)].lhs == 75
        and idx[(5, T.THM11_16K)].lhs == 25
        and idx[(7, T.THM11_4K)].lhs == 149
        and idx[(7, T.THM11_16K)].lhs == 149
    )
    ok = not bad and spots and len(primes) == 301
    _verdict(
        1,
        ok,
        f"weight-1 sums mod p^3, both weights, {len(primes)} primes, "
        f"{len(bad)} failures, spot residues {'ok' if spots else 'WRONG'}, "
        f"sweep took {full_sweep['elapsed']:.1f}s",
    )
    assert ok


def test_criterion_02_thm12_linear_weights(full_sweep):
    idx = full_sweep["index"]
    p1 = [p for p in full_sweep["primes"] if p % 3 == 1]
    bad = []
    for p in p1:
        r4 = idx.get((p, T.THM12_4K))
        r16 = idx.get((p, T.THM12_16K))
        if (
            r4 is None
            or r16 is None
            or not (r4.passed and r16.passed)
            or r4.lhs != 2 * r16.lhs % p**3
        ):
            bad.append(p)
    spots = idx[(7, T.THM12_4K)].lhs == 49 and idx[(7, T.THM12_16K)].lhs == 196
    # the wrong residue class must produce no row at all
    stray = [p for p in full_sweep["primes"] if p % 3 == 2 and (p, T.THM12_4K) in idx]
    ok = not bad and not stray and spots
    _verdict(
        2,
        ok,
        f"3k+2 and 3k+1 weighted sums mod p^3, {len(p1)} primes of the 1 mod 3 "
        f"class, doubling relation held, {len(bad)} failures",
    )
    assert ok


def test_criterion_03_thm13_weighted_sums(full_sweep):
    idx = full_sweep["index"]
    primes = full_sweep["primes"]
    bad = []
    rows_seen = 0
    for p in primes:
        expect_m = 3 if p % 3 == 1 else 2
        for t in (T.THM13_K2_4K, T.THM13_K2_16K):
            row = idx.get((p, t))
            if row is None or not row.passed or row.modulus_exponent != expect_m:
                bad.append((p, t))
            else:
                rows_seen += 1
        for t in (T.THM13_K_4K, T.THM13_K_16K):
            row = idx.get((p, t))
            if p % 3 == 2:
                if row is None or not row.passed or row.modulus_exponent != 2:
                    bad.append((p, t))
                else:
                    rows_seen += 1
            elif row is not None:
                bad.append((p, t))
    spots = idx[(5, T.THM13_K_4K)].lhs == 23 and idx[(5, T.THM13_K_16K)].lhs == 2
    ok = not bad and spots
    _verdict(
        3,
        ok,
        f"k^2 and k weighted sums at stated moduli, {rows_seen} rows over "
        f"{len(primes)} primes, {len(bad)} failures, spot residues "
        f"{'ok' if spots else 'WRONG'}",
    )
    assert ok


def test_criterion_04_mod_p2_form_and_ladder(full_sweep):
    idx = full_sweep["index"]
    primes = full_sweep["primes"]
    bad = []
    for p in primes:
        row = idx.get((p, T.CONJ2_MODP2))
        if row is None or not row.passed:
            bad.append(p)
            continue
        pm = p * p
        lad4 = idx[(p, T.THM11_4K)]
        lad16 = idx[(p, T.THM11_16K)]
        if not (
            row.lhs == lad4.lhs % pm == lad16.lhs % pm
            and row.rhs == lad4.rhs % pm == lad16.rhs % pm
        ):
            bad.append(p)
    ok = not bad
    _verdict(
        4,
        ok,
        f"mod p^2 closed form, {len(primes)} primes, consistency ladder to the "
        f"mod p^3 residues asserted, {len(bad)} failures",
    )
    assert ok


def test_criterion_05_prime_index_value_mod_p4(full_sweep):
    idx = full_sweep["index"]
    small = [p for p in full_sweep["primes"] if p <= STATED_BOUND]
    bad = [
        p
        for p in small
        if (p, T.CONJ1_DP1) not in idx
        or not idx[(p, T.CONJ1_DP1)].passed
        or idx[(p, T.CONJ1_DP1)].modulus_exponent != 4
    ]
    ok = not bad and len(small) == 166
    _verdict(
        5,
        ok,
        f"D_(p-1) against the fourth-power congruence, {len(small)} primes "
        f"up to {STATED_BOUND}, {len(bad)} failures",
    )
    assert ok


def test_criterion_06_quintic_weighted_sum(full_sweep):
    idx = full_sweep["index"]
    small = [p for p in full_sweep["primes"] if p <= STATED_BOUND]
    bad = [
        p
        for p in small
        if (p, T.MUSUN_P5) not in idx
        or not idx[(p, T.MUSUN_P5)].passed
        or idx[(p, T.MUSUN_P5)].modulus_exponent != 5
    ]
    ok = not bad
    _verdict(
        6,
        ok,
        f"3k^2+k weighted sum mod p^5, {len(small)} primes up to {STATED_BOUND}, "
        f"{len(bad)} failures",
    )
    assert ok


def test_criterion_07_lemma_suite(full_sweep):
    idx = full_sweep["index"]
    bad = []
    counted = 0
    for p in full_sweep["primes"]:
        if p > STATED_BOUND:
            continue
        expected = [T.LEMMA_P2J, T.LEMMA_SH55]
        if p % 3 == 1:
            expected += [T.LEMMA22, T.LEMMA_MPT]
        if p > 5:
            expected.append(T.LEMMA_SUNH)
        for t in expected:
            row = idx.get((p, t))
            if row is None or not row.passed:
                bad.append((p, t))
            else:
                counted += 1
    ok = not bad
    _verdict(
        7,
        ok,
        f"binomial, harmonic and quotient lemmas, {counted} prime/lemma pairs "
        f"up to {STATED_BOUND}, {len(bad)} failures",
    )
    assert ok


def test_criterion_08_identity_and_series_suite():
    t0 = perf_counter()
    reports = check_all_identities(40)
    failed = [r.identity for r in reports if not r.passed]
    rogers = rogers_series_check(24)
    liu = liu_integrality_check(200)
    elapsed = perf_counter() - t0
    cases = sum(r.cases for r in reports)
    ok = (
        not failed
        and len(reports) == len(IDENTITY_IDS) == 17
        and rogers.passed
        and liu.passed
        and elapsed < 60.0
    )
    _verdict(
        8,
        ok,
        f"17 exact identities ({cases} cases, n <= 40), series match to order "
        f"24, integrality to n = 200, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_09_kernel_property_loops():
    rng = random.Random(20260822)
    failures = []

    # gamma shift law, 1000 randomized cases
    shift_ctx = {p: PrimeContext(p, 3) for p in (5, 7, 13, 31)}
    for _ in range(1000):
        p = rng.choice(list(shift_ctx))
        ctx = shift_ctx[p]
        n = rng.randrange(1, 3000)
        ratio = padic_gamma_int(n + 1, ctx) / padic_gamma_int(n, ctx)
        want = -1 if n % p == 0 else -n
        if not (ratio - want).is_zero:
            failures.append(("shift", p, n))
    shift_cases = 1000

    # gamma continuity, 1000 randomized cases
    for _ in range(1000):
        p = rng.choice((5, 7, 13))
        ctx = shift_ctx.get(p) or PrimeContext(p, 3)
        m = rng.randrange(0, 600)
        n = rng.randrange(1, 4)
        t = rng.randrange(1, 30)
        if padic_gamma_int(m, ctx).residue(n) != padic_gamma_int(m + t * p**n, ctx).residue(n):
            failures.append(("continuity", p, m, n, t))
    cont_cases = 1000

    # gamma reflection, 1000 randomized cases
    refl_ctx = {p: PrimeContext(p, 2) for p in (5, 7, 13, 31, 61, 97)}
    refl_cases = 0
    while refl_cases < 1000:
        p = rng.choice(list(refl_ctx))
        den = rng.randrange(1, 30)
        if den % p == 0:
            continue
        x = Fraction(rng.randrange(-6 * p, 6 * p), den)
        if x.denominator % p == 0:
            continue
        ctx = refl_ctx[p]
        g = padic_gamma_rational(x, ctx) * padic_gamma_rational(1 - x, ctx)
        a0 = x.numerator * pow(x.denominator, -1, p) % p or p
        if g % p != (-1) ** a0 % p:
            failures.append(("reflection", p, x))
        refl_cases += 1

    # Wilson-style endpoint at every prime below 8200 (1005 cases)
    wilson_primes = sieve_primes(5, 8200)
    for p in wilson_primes:
        if padic_gamma_int(p, PrimeContext(p, 1)).residue(1) != 1:
            failures.append(("wilson", p))

    # embedding is a ring homomorphism, 1000 randomized pairs
    for _ in range(1000):
        p = rng.choice((5, 7, 13))
        ctx = shift_ctx.get(p) or PrimeContext(p, 3)
        a = Fraction(rng.randrange(-500, 501), rng.randrange(1, 60))
        b = Fraction(rng.randrange(-500, 501), rng.randrange(1, 60))
        ea = PAdicValue.from_fraction(a, ctx)
        eb = PAdicValue.from_fraction(b, ctx)
        checks = [
            ((ea + eb) - PAdicValue.from_fraction(a + b, ctx)).is_zero,
            ((ea * eb) - PAdicValue.from_fraction(a * b, ctx)).is_zero,
            ((ea - eb) - PAdicValue.from_fraction(a - b, ctx)).is_zero,
        ]
        if b != 0:
            checks.append(((ea / eb) - PAdicValue.from_fraction(a / b, ctx)).is_zero)
        if not all(checks):
            failures.append(("embed", p, a, b))
    embed_cases = 1000

    # factorial valuation against the digit-sum formula, 1000 randomized n
    fact_ctx = {p: PrimeContext(p, 2) for p in (5, 7, 13, 31)}
    for _ in range(1000):
        p = rng.choice(list(fact_ctx))
        n = rng.randrange(0, 20000)
        v = 0
        q = n
        while q:
            q //= p
            v += q
        if fact_ctx[p].factorial_decomposed(n)[0] != v:
            failures.append(("legendre", p, n))
    fact_cases = 1000

    # integer binomials against the big-integer oracle, 1000 randomized cases
    bin_ctx = {p: PrimeContext(p, 3) for p in (5, 7, 13)}
    for _ in range(1000):
        p = rng.choice(list(bin_ctx))
        ctx = bin_ctx[p]
        n = rng.randrange(0, 400)
        k = rng.randrange(0, n + 1) if n else 0
        c = comb(n, k)
        got = binomial_int(n, k, ctx)
        v, u = split_p(c, p)
        if got.valuation != v or got.unit != u % ctx.pk:
            failures.append(("binomial", p, n, k))
    bin_cases = 1000

    total = (
        shift_cases
        + cont_cases
        + refl_cases
        + len(wilson_primes)
        + embed_cases
        + fact_cases
        + bin_cases
    )
    ok = not failures and len(wilson_primes) >= 1000
    _verdict(
        9,
        ok,
        f"gamma shift/continuity/reflection, endpoint sign, embedding "
        f"homomorphism, factorial valuation, binomial oracle: {total} cases, "
        f"{len(failures)} failures",
    )
    assert ok, failures[:5]


def test_criterion_10_byte_identical_reports(tmp_path):
    args = [
        "verify",
        "--primes",
        "5:300",
        "--format",
        "csv",
        "--workers",
        "2",
    ]
    a = tmp_path / "run_a.csv"
    b = tmp_path / "run_b.csv"
    rc_a = main(args + ["--out", str(a)])
    rc_b = main(args + ["--out", str(b)])
    same = a.read_bytes() == b.read_bytes()
    rows = len(a.read_text().splitlines()) - 1
    ok = rc_a == 0 and rc_b == 0 and same
    _verdict(
        10,
        ok,
        f"two identical sweeps of all targets over 5..300 ({rows} rows) wrote "
        f"byte-identical csv reports",
    )
    assert ok
