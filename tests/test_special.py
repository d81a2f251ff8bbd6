"""Harmonic sums, Fermat quotients, Bernoulli/Euler tables, p-adic Gamma."""

import functools
import gc
import hashlib
import random
import weakref
from fractions import Fraction
from operator import mul

import pytest

from dombcheck import congruences, padic, special
from dombcheck.congruences import PrimeVerifier, _fermat_quotient
from dombcheck.padic import DenominatorDivisibleByP, PAdicValue, PrimeContext, is_prime
from dombcheck.special import (
    HarmonicCache,
    bernoulli_poly,
    bernoulli_table,
    euler_table,
    gamma_representative,
    harmonic,
    harmonic_inverses,
    harmonic_scaled,
    padic_gamma_int,
    padic_gamma_rational,
)

CTX5 = PrimeContext(5, 3)
CTX7 = PrimeContext(7, 3)


def test_harmonic_spots():
    assert harmonic(0, 1, CTX5).is_zero
    h2 = harmonic(2, 1, CTX5)
    assert (h2 - Fraction(3, 2)).is_zero
    # H_4 = 25/12 has valuation 2 at p = 5
    assert harmonic(4, 1, CTX5).valuation == 2
    # H_6 = 49/20 has valuation 2 at p = 7
    assert harmonic(6, 1, CTX7).valuation == 2
    # second order: 1 + 1/4 + 1/9 + 1/16 = 205/144, one factor of 5
    assert harmonic(4, 2, CTX5).valuation == 1


def test_harmonic_negative_valuation():
    # from p to 2p-1 the single term 1/p sets the valuation of H_n
    for ctx in (CTX5, CTX7):
        p = ctx.p
        for n in range(p, 2 * p):
            assert harmonic(n, 1, ctx).valuation == -1, (p, n)


def test_harmonic_against_fraction_oracle():
    for p in (5, 7):
        ctx = PrimeContext(p, 3)
        for order, top in ((1, 2 * p - 1), (2, p - 1)):
            acc = Fraction(0)
            for n in range(1, top + 1):
                acc += Fraction(1, n**order)
                diff = harmonic(n, order, ctx) - PAdicValue.from_fraction(acc, ctx)
                assert diff.is_zero


def _additive_harmonics(ctx, n):
    # the cache as first built: 1/k embedded one at a time and summed with
    # the valuation-aware addition, which clips the known digits itself
    h = [PAdicValue.zero(ctx)]
    h2 = [PAdicValue.zero(ctx)]
    for k in range(1, n + 1):
        t = PAdicValue.from_fraction(Fraction(1, k), ctx)
        h.append(h[-1] + t)
        h2.append(h2[-1] + t * t)
    return h, h2


# order 1 through 2p-1, so the 1/p term and the digit it costs are crossed
# (K = 1 has no digit left there), and order 2 through p-1; n, at or past
# 2p, lies outside both ranges and must be refused
@pytest.mark.parametrize(
    "p,k,n",
    [(p, k, 3 * p * p + 5) for p in (5, 7, 11) for k in (1, 2, 3, 6)] + [(997, 6, 2 * 997)],
)
def test_harmonic_cache_matches_additive_oracle(p, k, n):
    ctx = PrimeContext(p, k)
    h, h2 = _additive_harmonics(ctx, 2 * p - 1)
    as_tuple = lambda x: (x.v, x.unit, x.prec)
    for i in range(2 * p):
        assert as_tuple(harmonic(i, 1, ctx)) == as_tuple(h[i]), (i, 1)
    for i in range(p):
        assert as_tuple(harmonic(i, 2, ctx)) == as_tuple(h2[i]), (i, 2)
    for order in (1, 2):
        with pytest.raises(ValueError):
            harmonic(n, order, ctx)


def batch_inverse(units, mod):
    # the inverses mod `mod` of a sequence of units, from one pow: prefix
    # products, the inverse of their total, and a walk back that peels one
    # factor off per step (Montgomery's trick); the oracle for the harmonic
    # cache's inverses, which come from a recurrence instead
    prefix = []
    x = 1
    for u in units:
        prefix.append(x)  # the product of the units before this one
        x = x * u % mod
    x = pow(x, -1, mod)
    inv = []
    for before, u in zip(reversed(prefix), reversed(units)):
        inv.append(before * x % mod)
        x = x * u % mod
    inv.reverse()
    return inv


@pytest.mark.parametrize("p,k", [(5, 1), (7, 4), (101, 6)])
def test_batch_inverse(p, k):
    mod = p**k
    assert batch_inverse([], mod) == []
    rng = random.Random(p)
    units = [u for u in (rng.randrange(1, 3 * mod) for _ in range(60)) if u % p]
    assert batch_inverse(units, mod) == [pow(u, -1, mod) for u in units]


@pytest.mark.parametrize("k", range(1, 6))
def test_cache_inverses_match_pow(k):
    # the blocked pass, each even k halving 1/(k/2) and each odd k one step
    # of the recurrence 1/k = -floor(M/k) / (M mod k), against the inverse
    # itself, at every prime to 2000, at 2053 and 4099, just past 2048 and
    # 4096, where the last block is five or three entries long, and at
    # 10007: an entry x < p^K with i x = 1 mod p^K is pow(i, -1, p^K), as
    # the inverse is unique; at 10007 against pow and the batch oracle too
    for p in [*filter(is_prime, range(5, 2001)), 2053, 4099, 10007]:
        ctx = PrimeContext(p, k)
        inv, pk = harmonic_inverses(ctx), ctx.pk
        assert len(inv) == p and inv[0] == 0, p
        assert all(0 < x < pk and i * x % pk == 1 for i, x in enumerate(inv[1:], 1)), (p, k)
        assert inv is harmonic_inverses(ctx)  # the cache's own list
    assert inv == [0] + [pow(i, -1, pk) for i in range(1, p)] == [0] + batch_inverse(range(1, p), pk)


class _CountingModulus(int):
    """p^K that records each k it is floor-divided by: the recurrence's
    floor(M/k).  Nothing else in the inverse pass divides it."""

    def __floordiv__(self, k):
        self.divisors.append(k)
        return int(self) // k


@pytest.mark.parametrize("p", [5, 7, 1009, 2053])
def test_inverse_recurrence_runs_at_odd_k_only(p):
    # the even k come by halving, so the recurrence runs once at each odd
    # 1 < k < p and nowhere else, and the inverses are still right
    for k in (1, 2, 3):
        ctx = PrimeContext(p, k)
        ctx.pk = pk = _CountingModulus(ctx.pk)
        pk.divisors = []
        inv = HarmonicCache(ctx)._inv
        assert pk.divisors == list(range(3, p, 2)), (p, k)
        assert all(i * x % pk == 1 for i, x in enumerate(inv[1:], 1)), (p, k)


def _harmonics_by_full_inversion(ctx):
    # the cache's two lists from one batch inversion of 1..2p-1 (k = p
    # taken as its p-free part 1): each term past p is p times the inverse
    # of p+r itself
    p, pk = ctx.p, ctx.pk
    units = list(range(1, 2 * p))
    units[p - 1] = 1
    inv = batch_inverse(units, pk)
    h = [0]
    for k in range(1, p):
        h.append((h[-1] + inv[k - 1]) % pk)
    h.append((p * h[-1] + 1) % pk)
    for k in range(p + 1, 2 * p):
        h.append((h[-1] + p * inv[k - 1]) % pk)
    h2 = [0]
    for k in range(1, p):
        h2.append((h2[-1] + inv[k - 1] ** 2) % pk)
    return h, h2


@pytest.mark.parametrize("k", range(1, 6))
def test_harmonic_cache_matches_full_inversion(k):
    # p H_(p+r) from the sums H_r^(m) below p against the inverse of p+r
    # itself, at every precision 1..5 (K = 1 and 2 read no order above 1)
    for p in [*filter(is_prime, range(5, 301)), 1009, 4001, 4003]:
        ctx = PrimeContext(p, k)
        h, h2 = _harmonics_by_full_inversion(ctx)
        assert harmonic_scaled(2 * p - 1, ctx) == h, (p, k)
        assert harmonic_scaled(p - 1, ctx, order=2) == h2, (p, k)


@pytest.mark.parametrize("k", [2, 3])
def test_upper_half_after_a_verifier_matches_full_inversion(monkeypatch, k):
    # a verifier of every target, its kernel at p^k, reads no order-1 sum
    # past p-1; a read there afterwards builds the 2p list the constructor
    # once built whole, the list of the full inversion of 1..2p-1
    monkeypatch.setattr(congruences, "_KERNEL_EXP", k)
    for p in (1009, 1013):
        pv = PrimeVerifier(p)
        assert all(r.passed for r in pv.run()), (p, k)
        assert pv.ctx.precision == k and len(pv.ctx._harmonic_cache._h) == p, (p, k)
        h, _ = _harmonics_by_full_inversion(pv.ctx)
        assert harmonic_scaled(p, pv.ctx) == h, (p, k)


@pytest.mark.parametrize("first", [1, 2])
def test_harmonic_orders_grow_apart(first):
    # the order-1 list is built up front to p-1, and a read there builds
    # nothing more; the first read of order 1 past p-1 builds its upper half
    # and no order-2 entry, and the first read of order 2 builds the whole
    # order-2 list from the squared inverses and no order-1 upper half
    p, k = 5, 3
    oracle = dict(zip((1, 2), _additive_harmonics(PrimeContext(p, k), 2 * p - 1)))
    top = {1: 2 * p - 1, 2: p - 1}
    as_tuple = lambda x: (x.v, x.unit, x.prec)
    ctx = PrimeContext(p, k)
    cache = HarmonicCache(ctx)
    assert len(cache._h) == p and cache._h2 is None
    assert as_tuple(cache.get(p - 1)) == as_tuple(oracle[1][p - 1])
    assert len(cache._h) == p and cache._h2 is None
    assert as_tuple(cache.get(top[first], first)) == as_tuple(oracle[first][top[first]])
    assert len(cache._h) == (2 * p if first == 1 else p)
    assert cache._h2 is None if first == 1 else len(cache._h2) == p
    for order in (3 - first, first):
        for i in range(top[order] + 1):
            assert as_tuple(cache.get(i, order)) == as_tuple(oracle[order][i]), (i, order)


@pytest.mark.parametrize("p", [5, 101])
def test_harmonic_reads_outside_the_cached_ranges_raise(p):
    # order 1 stops at 2p-1 and order 2 at p-1; nothing wraps, and a
    # refused read builds neither the order-1 upper half nor order 2
    ctx = PrimeContext(p, 3)
    cache = HarmonicCache(ctx)
    for n, order in ((2 * p, 1), (p, 2), (-1, 1), (-1, 2)):
        with pytest.raises(ValueError):
            harmonic(n, order, ctx)
        with pytest.raises(ValueError):
            cache.get(n, order)
        with pytest.raises(ValueError):
            harmonic_scaled(n, ctx, order)
    assert len(cache._h) == p and cache._h2 is None
    assert len(harmonic_scaled(2 * p - 1, ctx)) == 2 * p
    assert len(harmonic_scaled(p - 1, ctx, order=2)) == p


def test_harmonic_cache_reads_no_factorials(monkeypatch):
    # LEMMA22 and LEMMA_P2J set binomials against harmonic sums; 1/k taken
    # as (k-1)!/k! from the factorial tables would make them partly vacuous
    def refuse(*args):
        raise AssertionError("the harmonic cache called factorial or binomial code")

    monkeypatch.setattr(PrimeContext, "factorial_decomposed", refuse)
    monkeypatch.setattr(padic, "binomial_int", refuse)
    monkeypatch.setattr(padic, "binomial_rational", refuse)
    ctx = PrimeContext(101, 4)
    cache = HarmonicCache(ctx)
    assert (cache.get(200, 1) - PAdicValue.from_fraction(sum(Fraction(1, i) for i in range(1, 201)), ctx)).is_zero
    cache.get(101 - 1, 2)  # builds the order-2 list
    assert ctx._fact_inv == [1] and ctx._fact_unit == [1]


def test_context_is_freed_without_the_cycle_collector():
    # the cache the context memoizes refers back to it weakly, so a prime's
    # tables go when its context does, not at the next collection
    gc.disable()
    try:
        ctx = PrimeContext(101, 4)
        cache = special._harmonic_cache(ctx)
        assert (harmonic(3, 1, ctx) - Fraction(11, 6)).is_zero
        gone = weakref.ref(ctx)
        del ctx
        assert gone() is None
    finally:
        gc.enable()
    with pytest.raises(ReferenceError):
        cache.get(3)


def test_harmonic_rejects_bad_order():
    with pytest.raises(ValueError):
        harmonic(3, 0, CTX5)


# the verifier's Fermat quotient q_p(a) mod p^n, a plain int
def test_fermat_quotient_spots():
    assert _fermat_quotient(2, 5, 3) == 3
    assert _fermat_quotient(3, 7, 3) == 104
    # q_11(3) = (3^10 - 1)/11 = 5368 = 11 * 488: a Wieferich-style prime
    # for base 3, so the quotient itself is divisible by p
    assert _fermat_quotient(3, 11, 3) == 5368 % 11**3 and 5368 % 11 == 0


@pytest.mark.parametrize("p", [5, 7, 13])
def test_fermat_quotient_reconstructs_power(p):
    for n in (1, 3, 5):
        for a in (2, 3, p - 1, p + 1, 2 * p + 3):
            q = _fermat_quotient(a, p, n)
            assert 0 <= q < p**n
            assert (1 + p * q) % p ** (n + 1) == pow(a, p - 1, p ** (n + 1)), (a, n)


def _bernoulli_exact(count):
    # defining recurrence sum_{j<n} C(n+1,j) B_j = 0, exact rationals
    from math import comb

    vals = [Fraction(1)]
    for n in range(1, count):
        s = sum(Fraction(comb(n + 1, j)) * vals[j] for j in range(n))
        vals.append(-s / (n + 1))
    return vals


@pytest.mark.parametrize("p", [7, 13, 31])
def test_bernoulli_table_against_oracle(p):
    ctx = PrimeContext(p, 2)
    table = bernoulli_table(ctx)
    exact = _bernoulli_exact(p - 2)
    assert len(table) == p - 2
    for n, b in enumerate(exact):
        assert b.denominator % p != 0
        assert table[n] == b.numerator * pow(b.denominator, -1, p) % p


# secant numbers E_0, E_2, E_4, ..., exact integer values
_EULER_EXACT = [1, -1, 5, -61, 1385, -50521, 2702765, -199360981]


@pytest.mark.parametrize("p", [13, 31])
def test_euler_table_against_oracle(p):
    from math import comb

    ctx = PrimeContext(p, 2)
    table = euler_table(ctx)  # indexed by raw subscript, odd entries zero
    assert len(table) == p - 2
    for j, e in enumerate(_EULER_EXACT):
        if 2 * j >= len(table):
            break
        assert table[2 * j] == e % p
    assert all(table[n] == 0 for n in range(1, len(table), 2))
    # recurrence closes mod p
    for n in range(2, len(table), 2):
        s = sum(comb(n, j) * table[j] for j in range(0, n + 1, 2)) % p
        assert s == 0


def _binomials_mod_p(p):
    f = [1] * p
    for i in range(1, p):
        f[i] = f[i - 1] * i % p
    return lambda n, k: f[n] * pow(f[k] * f[n - k], -1, p) % p


def _schoolbook_inverse(a, n, p):
    # b_k = -b_0 sum_{j=1..k} a_j b_(k-j), O(n^2)
    b0 = pow(a[0], -1, p)
    b = [b0]
    for k in range(1, n):
        b.append(-b0 * sum(a[j] * b[k - j] for j in range(1, k + 1)) % p)
    return b


def _shift_pack(c, w):
    # the packed value by arithmetic: sum c_i << 8wi
    return sum(c_i << 8 * w * i for i, c_i in enumerate(c))


def _shift_unpack(x, lo, hi, w, p):
    # slot i by arithmetic: (x >> 8wi) & (2^(8w) - 1), mod p
    mask = (1 << 8 * w) - 1
    return [((x >> 8 * w * i) & mask) % p for i in range(lo, hi)]


# over n <= 70 these give every slot width 1..9: 1-2 at 5 and 7, 2-3 at 101,
# then 4, 5, 6, 7, 8 and 9 bytes at 12, 16, 20, 24, 28 and 31 bits
SERIES_PRIMES = [5, 7, 101, 4093, 65521, 1048573, 16777213, 268435399, 2147483647]


def test_series_primes_cover_every_slot_width():
    widths = {special._slot_bytes(n, p) for p in SERIES_PRIMES for n in range(1, 71)}
    assert widths == set(range(1, 10))


# at each width, each of these primes whose residues fit in one slot
@pytest.mark.parametrize("w", range(1, 10))
def test_pack_and_unpack_match_byte_oracles(w):
    rng = random.Random(w)
    for p in [5, 251, 65521, 4294967291]:
        if p.bit_length() > 8 * w:
            continue
        for n in (1, 2, 7, 64):
            c = [rng.randrange(p) for _ in range(n)] + [0, p - 1]
            packed = special._pack(c, w)
            assert packed == _shift_pack(c, w), (p, n)
            assert special._unpack(packed, len(c), 0, len(c), w, p) == c, (p, n)
        # slots of a product fill all 8w bits; read every slice of a few
        slots = [rng.randrange(1 << 8 * w) for _ in range(9)] + [(1 << 8 * w) - 1]
        x = _shift_pack(slots, w)
        for lo in range(len(slots)):
            for hi in range(lo, len(slots) + 1):
                got = special._unpack(x, len(slots), lo, hi, w, p)
                assert got == _shift_unpack(x, lo, hi, w, p), (p, lo, hi)


def test_unpack_refuses_a_product_longer_than_claimed():
    x = _shift_pack([1, 2, 3], 5)
    assert special._unpack(x, 3, 0, 3, 5, 7) == [1, 2, 3]
    with pytest.raises(OverflowError):
        special._unpack(x, 2, 0, 2, 5, 7)


# every n in 1..70 crosses each split h -> m = min(2h, n) of Newton's
# doubling, n = 2^k and 2^k + 1 among them
@pytest.mark.parametrize("p", SERIES_PRIMES)
def test_series_inverse_matches_schoolbook(p):
    rng = random.Random(p)
    for n in range(1, 71):
        for a0 in (1, rng.randrange(2, p)):
            a = [a0] + [rng.randrange(p) for _ in range(n - 1 + rng.randrange(3))]
            assert special._series_inverse(a, n, p) == _schoolbook_inverse(a, n, p), (n, a0)


def _bernoulli_recurrence(p):
    # the defining recurrence sum_{k<n} C(n,k) B_k = 0 mod p, O(p^2)
    binom = _binomials_mod_p(p)
    b = [0] * (p - 2)
    b[0] = 1
    b[1] = p - (p + 1) // 2
    for m in range(2, p - 2, 2):
        s = (m + 1) * b[1] + sum(binom(m + 1, k) * b[k] for k in range(0, m, 2))
        b[m] = -s * pow(m + 1, -1, p) % p
    return b


def _bernoulli_poly_by_recurrence(n, x, p, b):
    # sum_k C(n,k) B_k x^(n-k) mod p over the recurrence's B_0 .. B_(p-3);
    # at n = p - 2 the one term past them has B_(p-2) = 0
    binom = _binomials_mod_p(p)
    xi = x.numerator * pow(x.denominator, -1, p) % p
    return sum(binom(n, k) * b[k] * pow(xi, n - k, p) for k in range(min(n, p - 3) + 1)) % p


# the points the verifier reads (0, 1/3, 1/4), their mirrors and 1/6
POLY_XS = [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(1, 6)]


def test_bernoulli_poly_matches_recurrence():
    # sigma's Horner sum against C(n,k) B_k at both parities, the middle
    # index and the top two (the verifier reads n = p - 3 and p - 2, where
    # the last sigma_j enters)
    for p in filter(is_prime, range(5, 401)):
        ctx = PrimeContext(p, 1)
        b = _bernoulli_recurrence(p)
        for n in sorted({0, 1, 2, 3, (p - 2) // 2, p - 3, p - 2}):
            for x in POLY_XS:
                assert bernoulli_poly(n, x, ctx) == _bernoulli_poly_by_recurrence(n, x, p, b), (p, n, x)


def _euler_recurrence(p):
    # sum_j C(n, 2j) E_2j = 0 mod p, O(p^2); divided by n!, each step is
    # E_n/n! = -sum_(2j<n) (E_2j/(2j)!) / (n-2j)!, one dot product
    f = [1] * p
    for i in range(1, p):
        f[i] = f[i - 1] * i % p
    fi = [pow(x, -1, p) for x in f]
    a = [1]  # E_2j/(2j)!
    for n in range(2, p - 2, 2):
        a.append(-sum(map(mul, a, fi[n:0:-2])) % p)
    e = [0] * (p - 2)
    e[::2] = [x * f[2 * k] % p for k, x in enumerate(a)]
    return e


# E_(p-3) = B_(p-2)(1/4)/8 mod p, from E_n = -4^(n+1) B_(n+1)(1/4)/(n+1) at
# even n: the form LEMMA_SUNH reads in place of the Euler table
def test_euler_from_bernoulli_poly():
    for p in [*filter(is_prime, range(7, 1301)), 1999, 4001, 4003, 10007]:
        ctx = PrimeContext(p, 1)
        e = bernoulli_poly(p - 2, Fraction(1, 4), ctx) * pow(8, -1, p) % p
        assert e == euler_table(ctx)[p - 3], p
        if p <= 1300:
            assert e == _euler_recurrence(p)[p - 3], p


# Both tables invert series of (p-1)/2 terms: 2 at p = 5; 3, 5, 6 and
# 33 = 2^5 + 1 at 7, 11, 13 and 67; a power of two at 17 and 257.  Both
# ends of Newton's last doubling, for the inverse and for the Bernoulli
# table's one product with cosh.
@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 67, 131, 257, 997])
def test_tables_match_recurrences(p):
    ctx = PrimeContext(p, 2)
    assert bernoulli_table(ctx) == _bernoulli_recurrence(p)
    assert euler_table(ctx) == _euler_recurrence(p)


def test_tables_use_no_harmonic_sums_or_padic_kernel(monkeypatch):
    # LEMMA_SUNH checks harmonic sums against these tables; sharing code
    # with them would make it vacuous.  The tables read the factorials off
    # the context's factorial table, which the harmonic cache never reads
    # (test_harmonic_cache_reads_no_factorials), and nothing else of the
    # kernel.
    def refuse(*args):
        raise AssertionError("a Bernoulli/Euler table called harmonic or kernel code")

    monkeypatch.setattr(special, "harmonic", refuse)
    monkeypatch.setattr(HarmonicCache, "__init__", refuse)
    monkeypatch.setattr(HarmonicCache, "get", refuse)
    monkeypatch.setattr(PrimeContext, "inverse_unit", refuse)
    ctx = PrimeContext(101, 4)
    b = _bernoulli_recurrence(101)
    assert bernoulli_table(ctx) == b
    assert euler_table(ctx) == _euler_recurrence(101)
    # bernoulli_poly on a context of its own builds sigma under the same
    # refusals
    ctx = PrimeContext(101, 4)
    for n in (98, 99):
        for x in POLY_XS:
            assert bernoulli_poly(n, x, ctx) == _bernoulli_poly_by_recurrence(n, x, 101, b), (n, x)
    # and so does bernoulli_values, which reads neither the harmonic cache
    # nor its inverses: the context holds no cache after it
    monkeypatch.setattr(special, "_harmonic_cache", refuse)
    monkeypatch.setattr(special, "harmonic_inverses", refuse)
    monkeypatch.setattr(special, "harmonic_scaled", refuse)
    want = tuple(_bernoulli_poly_by_recurrence(n, x, 101, b) for n, x in _verifier_points(101))
    ctx = PrimeContext(101, 4)
    assert special.bernoulli_values(ctx) == want
    assert ctx._harmonic_cache is None


def test_tables_read_the_context_factorial_table():
    # one factorial table per prime: +1 on 1/(2k)! for one k, made before
    # the Bernoulli table's first read, changes the table
    p = 1009
    assert bernoulli_table(PrimeContext(p, 3)) == bernoulli_table(PrimeContext(p, 1))
    ctx = PrimeContext(p, 3)
    _, fi = ctx.factorial_tables(3 * p)
    fi[2 * 100] += 1
    assert bernoulli_table(ctx) != bernoulli_table(PrimeContext(p, 3))


# sha256 of repr(table), from the tables built off their own factorials
# mod p, before they read the context's factorial table
FROZEN_TABLE_DIGESTS = {
    (10007, "bernoulli_table"): "e0c3761fe1b52793",
    (10007, "euler_table"): "c828b418b6c43b2b",
    (20011, "bernoulli_table"): "877d9e198745745e",
    (20011, "euler_table"): "f1b2ed1a49690214",
}


def test_tables_match_frozen_digests():
    tables = {"bernoulli_table": bernoulli_table, "euler_table": euler_table}
    for (p, name), digest in FROZEN_TABLE_DIGESTS.items():
        table = tables[name](PrimeContext(p, 2))
        assert hashlib.sha256(repr(table).encode()).hexdigest()[:16] == digest, (p, name)


def test_bernoulli_poly_spots():
    # B_5(1/3) = -5/243 and B_3(1/3) = 1/27, reduced mod p
    assert bernoulli_poly(5, Fraction(1, 3), CTX7) == 6
    assert bernoulli_poly(3, Fraction(1, 3), PrimeContext(5, 2)) == 3


def test_bernoulli_poly_rejects_floats():
    # the float 1/3 is 6004799503160661/2^54; read as that rational it gave
    # 38 at p = 101, where B_5(1/3) = -5/243 is 59
    ctx = PrimeContext(101, 2)
    assert bernoulli_poly(5, Fraction(1, 3), ctx) == 59 == -5 * pow(243, -1, 101) % 101
    assert bernoulli_poly(5, 2, ctx) == bernoulli_poly(5, Fraction(2), ctx)
    for bad in (1 / 3, 0.25, 2.0):
        with pytest.raises(TypeError):
            bernoulli_poly(5, bad, ctx)


def test_bernoulli_poly_difference_equation():
    # B_n(x+1) - B_n(x) = n x^(n-1)
    p = 13
    ctx = PrimeContext(p, 2)
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(2, 12)
        x = Fraction(rng.randrange(-30, 30), rng.choice([1, 2, 3, 4, 7, 9]))
        lhs = (bernoulli_poly(n, x + 1, ctx) - bernoulli_poly(n, x, ctx)) % p
        q = n * x ** (n - 1)
        rhs = q.numerator * pow(q.denominator, -1, p) % p
        assert lhs == rhs


@functools.lru_cache(maxsize=1)
def _factorials_mod_p(p):
    f = [1] * p
    for i in range(2, p):
        f[i] = f[i - 1] * i % p
    return f, [pow(v, -1, p) for v in f]


def _bernoulli_poly_by_powers(n, x, ctx):
    # sum_k C(n,k) B_k x^(n-k) over bernoulli_table: a list of the powers
    # of x, and one binomial mod p per even k
    p = ctx.p
    xi = x.numerator * pow(x.denominator, -1, p) % p
    b = bernoulli_table(ctx)
    f, fi = _factorials_mod_p(p)
    xpow = [1] * (n + 1)
    for i in range(1, n + 1):
        xpow[i] = xpow[i - 1] * xi % p
    total = xpow[n]
    if n >= 1:
        total = (total + n * b[1] % p * xpow[n - 1]) % p
    for k in range(2, min(n, len(b) - 1) + 1, 2):
        if b[k]:
            total = (total + f[n] * fi[k] % p * fi[n - k] % p * b[k] % p * xpow[n - k]) % p
    return total % p


def test_bernoulli_poly_matches_power_loop():
    # every n at the small primes; the two top indices, one of each parity,
    # at every prime to 1300 and past it (CONJ1_DP1 reads n = p - 3,
    # LEMMA_SUNH n = p - 2)
    xs = [Fraction(0), Fraction(1, 3), Fraction(1, 4)]
    for p in [*filter(is_prime, range(7, 1301)), 1999, 4001, 4003, 10007]:
        ctx = PrimeContext(p, 1)
        ns = range(p - 1) if p < 60 else (0, 1, 2, p - 3, p - 2)
        for n in ns:
            for x in xs:
                assert bernoulli_poly(n, x, ctx) == _bernoulli_poly_by_powers(n, x, ctx), (p, n, x)


def test_bernoulli_poly_at_zero_matches_table():
    ctx = PrimeContext(11, 2)
    table = bernoulli_table(ctx)  # B_0 .. B_(p-3)
    assert len(table) == 9
    for n in range(2, 9):
        assert bernoulli_poly(n, Fraction(0), ctx) == table[n]
        assert bernoulli_poly(n, Fraction(1), ctx) == table[n]


# (n, x) of B_n(x) for the three values the verifier reads, in the order
# bernoulli_values returns them
def _verifier_points(p):
    return [(p - 3, Fraction(0)), (p - 2, Fraction(1, 3)), (p - 2, Fraction(1, 4))]


def test_bernoulli_values_match_bernoulli_poly():
    # Voronoi's sums against sigma, at every prime the acceptance sweep reads
    # and two past it
    for p in [*filter(is_prime, range(5, 2001)), 10007, 20011]:
        ctx = PrimeContext(p, 1)
        want = tuple(bernoulli_poly(n, x, ctx) for n, x in _verifier_points(p))
        assert special.bernoulli_values(ctx) == want, p


def test_bernoulli_values_match_power_sums():
    # B_n(x) = p^(-1) sum_(k<p) (x+k)^n mod p for 1 <= n <= p - 2 and x
    # p-integral: the sum taken mod p^2, with no Bernoulli number in it
    for p in filter(is_prime, range(5, 601)):
        pp = p * p
        want = []
        for n, x in _verifier_points(p):
            xi = x.numerator * pow(x.denominator, -1, pp)
            s = sum(pow(xi + k, n, pp) for k in range(p)) % pp
            assert s % p == 0, (p, n, x)
            want.append(s // p)
        assert special.bernoulli_values(PrimeContext(p, 1)) == tuple(want), p


def test_voronoi_sums_agree_at_a_second_multiplier():
    # each B_(n,chi) at the verifier's c and at a second admissible one, so a
    # wrong floor range cannot hide behind one choice of c: the ranges of
    # floor(cj/(fp)) differ with c
    for p in filter(is_prime, range(7, 501)):
        t2, t3 = special._inverse_power_tables(p)
        for t, n, f, c, other in ((t3, p - 3, 1, 2, 3), (t2, p - 2, 3, 2, 5), (t2, p - 2, 4, 3, 5)):
            want = special._character_bernoulli(t, n, f, c)
            assert special._character_bernoulli(t, n, f, other) == want, (p, f, other)


def test_character_bernoulli_rejects_inadmissible_multipliers():
    # at p = 13, where the congruence says nothing of B_(n,chi): c not prime
    # to fp (13 at f = 1, and 26 at f = 3 and 2 at f = 4, where c^n - chi(c)
    # is still a unit), and c^n = chi(c) mod p.  c^(p-3) = 1/c^2 is 1 =
    # chi(c) at c = 1 and 12 = -1 for f = 1; c^(p-2) = 1/c is chi(c) at
    # c = 1 for f = 4, and at c = 38 (-1 mod 13, 2 mod 3, so chi(38) = -1)
    # for f = 3
    p = 13
    t2, t3 = special._inverse_power_tables(p)
    cases = [(t3, p - 3, 1, 13), (t2, p - 2, 3, 26), (t2, p - 2, 4, 2), (t3, p - 3, 1, 1), (t3, p - 3, 1, 12),
             (t2, p - 2, 4, 1), (t2, p - 2, 3, 38)]
    for t, n, f, c in cases:
        with pytest.raises(ValueError):
            special._character_bernoulli(t, n, f, c)


def _check_inverse_power_tables(p):
    t2, t3 = special._inverse_power_tables(p)
    assert len(t2) == len(t3) == p and t2[0] == t3[0] == 0, p
    for r in range(1, p):
        assert t2[r] * r * r % p == 1 and t3[r] * r * r * r % p == 1, (p, r)


def test_inverse_power_tables_hold_every_inverse(monkeypatch):
    for p in filter(is_prime, range(5, 2001)):
        _check_inverse_power_tables(p)
    # a g that is not a primitive root walks a subgroup only and leaves zeros
    # that the check finds: 4 = 2^2 is a square mod 13
    monkeypatch.setattr(special, "_primitive_root", lambda p: 4)
    with pytest.raises(AssertionError):
        _check_inverse_power_tables(13)


def test_gamma_int_spots():
    assert padic_gamma_int(0, CTX5).residue(3) == 1
    assert padic_gamma_int(1, CTX5).residue(3) == 124
    assert padic_gamma_int(5, PrimeContext(5, 2)).residue(2) == 1
    assert padic_gamma_int(6, CTX5).residue(1) == 4


@pytest.mark.parametrize("p", [5, 7, 11])
def test_gamma_wilson(p):
    # at n = p the value is +1 mod p (sign times (p-1)! unit)
    ctx = PrimeContext(p, 2)
    assert padic_gamma_int(p, ctx).residue(1) == 1


@pytest.mark.parametrize("p", [5, 7])
def test_gamma_shift_law(p):
    ctx = PrimeContext(p, 3)
    for n in range(1, 300):
        ratio = padic_gamma_int(n + 1, ctx) / padic_gamma_int(n, ctx)
        if n % p == 0:
            assert (ratio + 1).is_zero
        else:
            assert (ratio + n).is_zero


def test_gamma_continuity():
    # agreement mod p^n when arguments agree mod p^n
    rng = random.Random(9)
    for p in (5, 7):
        ctx = PrimeContext(p, 3)
        for _ in range(60):
            m = rng.randrange(0, 400)
            n = rng.randrange(1, 4)
            t = rng.randrange(1, 20)
            a = padic_gamma_int(m, ctx)
            b = padic_gamma_int(m + t * p**n, ctx)
            assert a.residue(n) == b.residue(n)


def test_gamma_representative():
    assert gamma_representative(Fraction(1, 2), CTX7) == 4
    assert gamma_representative(Fraction(0), CTX7) == 7
    assert gamma_representative(Fraction(-1, 3), CTX7) == 2
    with pytest.raises(DenominatorDivisibleByP):
        gamma_representative(Fraction(1, 7), CTX7)


def test_gamma_rejects_floats():
    assert gamma_representative(3, CTX7) == 3
    for bad in (1 / 3, 0.5, 3.0):
        with pytest.raises(TypeError):
            gamma_representative(bad, CTX7)
        with pytest.raises(TypeError):
            padic_gamma_rational(bad, CTX7)


def test_gamma_rational_spots():
    # Gamma_5 at the representative of 1/2, i.e. at 3: (-1)^3 * 1 * 2 = -2
    assert padic_gamma_rational(Fraction(1, 2), CTX5) == 3
    # rational evaluation is pinned to the integer evaluator mod p
    for n in range(1, 12):
        a = padic_gamma_rational(Fraction(n), CTX7)
        b = padic_gamma_int(n, CTX7).residue(1)
        assert a == b


@pytest.mark.parametrize("p", [5, 7, 13, 31])
def test_gamma_reflection(p):
    # product with reflected argument is a sign determined by the
    # representative of x in {1..p}
    ctx = PrimeContext(p, 2)
    rng = random.Random(p)
    for _ in range(60):
        den = rng.choice([1, 2, 3, 4, 6, 9, 11])
        num = rng.randrange(-4 * p, 4 * p)
        x = Fraction(num, den)
        if x.denominator % p == 0:
            continue
        g1 = padic_gamma_rational(x, ctx)
        g2 = padic_gamma_rational(1 - x, ctx)
        sign = (-1) ** gamma_representative(x, ctx)
        assert g1 * g2 % p == sign % p
