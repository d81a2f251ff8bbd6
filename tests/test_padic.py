"""Kernel behavior: embedding, precision bookkeeping, factorials, binomials."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dombcheck import padic
from dombcheck.padic import (
    EXACT_ZERO,
    DenominatorDivisibleByP,
    InsufficientPrecision,
    NegativeValuation,
    PAdicValue,
    PrimeContext,
    batch_inverse,
    binomial_int,
    binomial_rational,
    binomial_residues,
    is_prime,
    split_p,
)

CTX5 = PrimeContext(5, 3)
CTX7 = PrimeContext(7, 3)


def test_context_rejects_bad_input():
    with pytest.raises(ValueError):
        PrimeContext(4, 3)
    with pytest.raises(ValueError):
        PrimeContext(3, 3)
    with pytest.raises(ValueError):
        PrimeContext(7, 0)


def test_with_precision_keeps_the_prime_and_starts_empty():
    ctx = PrimeContext(7, 3)
    ctx.factorial_decomposed(30)
    other = ctx.with_precision(5)
    assert other == PrimeContext(7, 5) and other.pk == 7**5
    assert other.factorial_decomposed(30) == PrimeContext(7, 5).factorial_decomposed(30)
    assert ctx.with_precision(3) is not ctx and ctx.with_precision(3) == ctx
    with pytest.raises(ValueError, match="precision must be at least 1"):
        ctx.with_precision(0)


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == known
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 2)


def test_is_prime_rejects_strong_pseudoprimes_to_37():
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to every
    # prime base up to 37; base 41 exposes it
    psi12 = 318665857834031151167461
    assert 399165290221 * 798330580441 == psi12
    assert not is_prime(psi12)
    with pytest.raises(ValueError):
        PrimeContext(psi12, 1)


def test_embed_rational_spots():
    assert PAdicValue.from_fraction(Fraction(1, 2), CTX5).residue(3) == 63
    assert 2 * 63 % 125 == 1
    x = PAdicValue.from_fraction(Fraction(49, 16), CTX7)
    assert x.valuation == 2
    assert x.residue(3) == 196
    assert PAdicValue.from_fraction(Fraction(0), CTX5).is_zero


def test_embed_zero_residue():
    z = PAdicValue.from_int(0, CTX5)
    assert z.residue(3) == 0


def test_mul_adds_valuations():
    a = PAdicValue.from_int(5, CTX5)
    prod = a * a
    assert prod.valuation == 2
    assert prod.unit == 1


def test_add_cancellation_is_zero():
    x = PAdicValue.from_fraction(Fraction(7, 3), CTX5)
    assert (x + (-x)).is_zero
    assert (x - x).is_zero


def test_add_partial_cancellation_tracks_precision():
    # 1 - (1 + p^2) = -p^2 with only K - 2 digits of unit left
    a = PAdicValue.from_int(1, CTX5)
    b = PAdicValue.from_int(-(1 + 25), CTX5)
    s = a + b
    assert s.valuation == 2
    assert s.prec == 1


def test_half_plus_half():
    h = PAdicValue.from_fraction(Fraction(1, 2), CTX5)
    assert ((h + h) - 1).is_zero


def test_div_matches_embed():
    q = PAdicValue.from_int(49, CTX7) / PAdicValue.from_int(16, CTX7)
    assert q.residue(3) == PAdicValue.from_fraction(Fraction(49, 16), CTX7).residue(3)


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        PAdicValue.from_int(1, CTX5) / PAdicValue.from_int(0, CTX5)


def test_residue_negative_valuation():
    x = PAdicValue.from_fraction(Fraction(1, 5), CTX5)
    with pytest.raises(NegativeValuation):
        x.residue(1)


def test_residue_insufficient_precision():
    x = PAdicValue(CTX5, 0, 1, 1)  # 6 mod 5: only one digit known
    assert x.residue(1) == 1
    with pytest.raises(InsufficientPrecision):
        x.residue(2)
    z = PAdicValue.zero(CTX5, 2)  # 0 mod 25
    assert z.residue(2) == 0
    with pytest.raises(InsufficientPrecision):
        z.residue(3)


def test_residue_valuation_past_precision():
    # v > K: zero mod every p^m the context can read, not an index past
    # the table of powers
    x = PAdicValue.from_int(5**4, CTX5)
    assert [x.residue(m) for m in (1, 2, 3)] == [0, 0, 0]
    y = PAdicValue.from_int(2 * 5**3, CTX5)
    assert [y.residue(m) for m in (1, 2, 3)] == [0, 0, 0]
    assert (y * y).residue(3) == 0


def test_residue_range_validation():
    x = PAdicValue.from_int(1, CTX5)
    with pytest.raises(ValueError):
        x.residue(0)
    with pytest.raises(ValueError):
        x.residue(4)


def test_factorial_decomposed_spots():
    assert PrimeContext(5, 2).factorial_decomposed(6) == (1, 19)
    assert PrimeContext(5, 2).factorial_decomposed(4) == (0, 24)
    assert CTX7.factorial_decomposed(0) == (0, 1)


def test_factorial_valuation_matches_legendre():
    ctx = PrimeContext(7, 2)
    total = 0
    for n in range(1, 2001):
        m = n
        while m % 7 == 0:
            total += 1
            m //= 7
        assert ctx.factorial_decomposed(n)[0] == total


def test_factorial_unit_is_p_free_product():
    ctx = PrimeContext(5, 3)
    prod = 1
    for n in range(1, 200):
        prod *= split_p(n, 5)[1]
        assert ctx.factorial_decomposed(n)[1] == prod % 125


def test_factorial_blocks_start_anywhere():
    # blocks, and walks of the inverses, that start on p^2 (25), on another
    # multiple of p (55) and on a unit (111), against the running product
    # taken one factor at a time
    p = 5
    ctx = PrimeContext(p, 3)
    for n in (24, 54, 110, 400):
        ctx.factorial_tables(n)
        assert len(ctx._fact_val) == len(ctx._fact_inv) == n + 1
    val, unit = 0, 1
    for n in range(1, 401):
        w, u = split_p(n, p)
        val += w
        unit = unit * u % ctx.pk
        assert (ctx._fact_val[n], ctx._fact_unit[n]) == (val, unit), n
        assert ctx._fact_unit[n] * ctx._fact_inv[n] % ctx.pk == 1, n


@pytest.mark.parametrize("p,k", [(5, 3), (7, 6), (101, 4)])
def test_inverse_factorial_units(p, k):
    ctx = PrimeContext(p, k)
    ctx.factorial_decomposed(1)  # the first block reaches 3p, with no inverse
    assert len(ctx._fact_unit) >= 3 * p + 1 and ctx._fact_inv == [1]
    ctx.factorial_tables(2 * p - 2)  # inverses as far as asked
    assert len(ctx._fact_inv) == 2 * p - 1
    ctx.factorial_tables(10 * p)  # a second block, the inverses walked on to it
    assert len(ctx._fact_inv) == len(ctx._fact_unit) == 10 * p + 1
    fv, fu, fi = ctx.factorial_tables(10 * p)  # the caches, not copies
    assert fv is ctx._fact_val and fu is ctx._fact_unit and fi is ctx._fact_inv
    for n in range(10 * p + 1):
        assert fu[n] * fi[n] % ctx.pk == 1


@pytest.mark.parametrize("p,k", [(5, 1), (7, 4), (101, 6)])
def test_batch_inverse(p, k):
    mod = p**k
    assert batch_inverse([], mod) == []
    rng = random.Random(p)
    units = [u for u in (rng.randrange(1, 3 * mod) for _ in range(60)) if u % p]
    assert batch_inverse(units, mod) == [pow(u, -1, mod) for u in units]


@pytest.mark.parametrize("p,k", [(5, 3), (13, 4), (101, 6)])
def test_binomial_int_carries_against_comb(p, k):
    # n up to 3p^2, where adding k and n-k in base p carries up to three times
    ctx = PrimeContext(p, k)
    rng = random.Random(p)
    for _ in range(150):
        n = rng.randrange(3 * p * p)
        j = rng.randrange(n + 1)
        v, u = split_p(comb(n, j), p)
        got = binomial_int(n, j, ctx)
        assert (got.v, got.unit, got.prec) == (v, u % ctx.pk, k)


@pytest.mark.parametrize("p,k", [(5, 3), (13, 4), (101, 6)])
def test_binomial_residues_against_comb(p, k):
    # residues mod p^K at every K = m up to k, n up to 3p (where C(n, j)
    # carries up to twice)
    rng = random.Random(p)
    pairs = [(n, j) for n in range(3 * p + 1) for j in range(n + 1)]
    pairs = rng.sample(pairs, min(len(pairs), 400))
    for m in range(1, k + 1):
        binom = binomial_residues(PrimeContext(p, m))
        assert [binom(n, j) for n, j in pairs] == [comb(n, j) % p**m for n, j in pairs], m


def test_binomial_residues_out_of_range():
    # k < 0 and k > n are zero, as in binomial_int, not a read from the far
    # end of a factorial list
    binom = binomial_residues(PrimeContext(7, 3))
    assert binom(3, 5) == 0
    assert binom(2, -1) == 0
    for n in range(3 * 7 + 1):
        for k in range(-3, n + 4):
            assert binom(n, k) == (comb(n, k) % 7**3 if k >= 0 else 0), (n, k)


def test_binomial_residues_rejects_negative_top():
    # as binomial_int does; fv[-1] would read the far end of a factorial list
    binom = binomial_residues(PrimeContext(7, 3))
    for n, k in ((-1, 0), (-1, -1), (-2, 1), (-21, 3)):
        with pytest.raises(ValueError):
            binom(n, k)
        with pytest.raises(ValueError):
            binomial_int(n, k, CTX7)


def test_as_fraction_takes_rationals_only():
    assert padic.as_fraction(3) == 3 and type(padic.as_fraction(3)) is Fraction
    assert padic.as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    assert padic.as_fraction(True) == 1
    for bad in (1 / 3, 0.5, 2.0, "1/3", None):
        with pytest.raises(TypeError):
            padic.as_fraction(bad)


def test_binomial_rational_rejects_floats():
    # 1/3 as a float is 6004799503160661/2^54, a different rational
    ctx = PrimeContext(101, 3)
    want = binomial_rational(Fraction(1, 3), 4, ctx).residue(3)
    assert want == Fraction(-10, 243).numerator * pow(243, -1, 101**3) % 101**3
    for bad in (1 / 3, 4.0):
        with pytest.raises(TypeError):
            binomial_rational(bad, 4, ctx)


def test_from_fraction_rejects_floats():
    assert PAdicValue.from_fraction(Fraction(1, 3), CTX7).residue(3) == pow(3, -1, 7**3)
    assert PAdicValue.from_fraction(2, CTX7).residue(3) == 2
    for bad in (1 / 3, 0.5, 2.0):
        with pytest.raises(TypeError):
            PAdicValue.from_fraction(bad, CTX7)


@pytest.mark.parametrize("p", [5, 7])
def test_mul_by_int_matches_general_path(p):
    ctx = PrimeContext(p, 3)
    rng = random.Random(p)
    values = [
        PAdicValue.zero(ctx),
        PAdicValue.zero(ctx, -2),
        PAdicValue(ctx, 0, p + 1, 2),  # p + 1 mod p^2
        PAdicValue.from_fraction(Fraction(3, p * p), ctx),
    ] + [PAdicValue.from_fraction(Fraction(rng.randrange(-999, 999), rng.randrange(1, 99)), ctx) for _ in range(40)]
    for a in values:
        for n in (1, -1, 2, p - 1, -(p + 1), 10**9 + 7, p, 0):
            want = a * PAdicValue.from_int(n, ctx)  # the general path
            assert a * n == want
            assert n * a == want


def test_add_far_apart_valuations():
    # the summands' valuations differ by more than K, past the powers table
    k = CTX5.precision
    tiny = PAdicValue.from_fraction(Fraction(1, 5 ** (k + 2)), CTX5)
    s = tiny + 1
    assert (s.v, s.unit, s.prec) == (-(k + 2), 1, k)
    s = PAdicValue.from_int(5 ** (k + 2), CTX5) + 1
    assert (s.v, s.unit, s.prec) == (0, 1, k)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_binomial_int_against_comb(p):
    ctx = PrimeContext(p, 3)
    pk = ctx.pk
    for n in range(0, 120):
        for k in range(0, n + 1):
            c = comb(n, k)
            v, u = split_p(c, p) if c else (0, 0)
            got = binomial_int(n, k, ctx)
            assert got.valuation == v
            assert got.unit == u % pk


def test_binomial_int_out_of_range():
    assert binomial_int(5, -1, CTX5).is_zero
    assert binomial_int(5, 6, CTX5).is_zero
    with pytest.raises(ValueError):
        binomial_int(-1, 0, CTX5)


def test_binomial_rational_spot():
    got = binomial_rational(Fraction(-1, 2), 1, CTX7)
    assert got.residue(3) == 171
    assert binomial_rational(Fraction(-1, 2), 0, CTX7).residue(3) == 1


@pytest.mark.parametrize("p,m", [(7, 4), (13, 8)])
def test_binomial_rational_central_valuation(p, m):
    # C(-1/2, (2p-2)/3) picks up exactly one factor of p
    ctx = PrimeContext(p, 3)
    assert binomial_rational(Fraction(-1, 2), m, ctx).valuation == 1


@pytest.mark.parametrize("p", [7, 13])
def test_binomial_rational_against_fraction_oracle(p, monkeypatch):
    def refuse(*args):
        raise AssertionError("binomial_rational inverted a denominator of 1")

    ctx = PrimeContext(p, 4)
    tops = (
        Fraction(-1, 2),
        Fraction(-3),
        Fraction(500),
        # a zero factor (i = 37) past the first chunk of factors
        Fraction(37),
        # non-integer top indices of either sign
        Fraction(22, 3),
        Fraction(-7, 3),
        # p-divisible factors on chunk boundaries: 3p^2 first in the second
        # chunk, 5p last in the first, -p/2 first in the third
        Fraction(padic._CHUNK + 3 * p * p),
        Fraction(padic._CHUNK - 1 + 5 * p),
        Fraction(2 * padic._CHUNK) - Fraction(p, 2),
    )
    for a in tops:
        with monkeypatch.context() as mp:
            if a.denominator == 1:
                # an integer top index, as at every LEMMA_MPT call
                mp.setattr(PrimeContext, "inverse_unit", refuse)
            q = Fraction(1)
            for m in range(1, 80):
                q = q * (a - (m - 1)) / m
                got = binomial_rational(a, m, ctx)
                if q == 0:
                    assert got.is_zero and got.v == EXACT_ZERO, (a, m)
                    continue
                v = 0
                num, den = q.numerator, q.denominator
                while num % p == 0:
                    num //= p
                    v += 1
                while den % p == 0:
                    den //= p
                    v -= 1
                assert got.valuation == v, (a, m)
                assert got.unit == num * pow(den, -1, ctx.pk) % ctx.pk, (a, m)


def test_binomial_rational_denominator_check():
    with pytest.raises(DenominatorDivisibleByP):
        binomial_rational(Fraction(1, 5), 2, CTX5)


def test_mixed_contexts_raise():
    three5 = PAdicValue.from_int(3, CTX5)
    with pytest.raises(ValueError):
        three5 + PAdicValue.from_int(3, CTX7)
    with pytest.raises(ValueError):
        three5 * PAdicValue.from_int(3, PrimeContext(5, 4))
    # a separate context with the same p and precision is the same ring
    assert (three5 + PAdicValue.from_int(3, PrimeContext(5, 3))).residue(3) == 6


def test_equal_contexts_compare_equal():
    other = PrimeContext(5, 3)
    assert other == CTX5 and hash(other) == hash(CTX5)
    assert other != PrimeContext(5, 4) and other != CTX7
    assert PAdicValue.from_int(3, CTX5) == PAdicValue.from_int(3, other)
    assert PAdicValue.from_int(3, CTX5) != PAdicValue.from_int(3, PrimeContext(5, 4))


rationals = st.fractions(
    min_value=Fraction(-300), max_value=Fraction(300), max_denominator=60
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(rationals, rationals, rationals)
def test_ring_laws(a, b, c):
    ctx = CTX5
    ea = PAdicValue.from_fraction(a, ctx)
    eb = PAdicValue.from_fraction(b, ctx)
    ec = PAdicValue.from_fraction(c, ctx)
    assert ((ea + eb) - PAdicValue.from_fraction(a + b, ctx)).is_zero
    assert ((ea * eb) - PAdicValue.from_fraction(a * b, ctx)).is_zero
    assert (((ea + eb) + ec) - (ea + (eb + ec))).is_zero
    assert ((ea * (eb + ec)) - (ea * eb + ea * ec)).is_zero
    if b != 0:
        assert ((ea / eb) - PAdicValue.from_fraction(a / b, ctx)).is_zero


@settings(max_examples=150, derandomize=True, deadline=None)
@given(rationals)
def test_neg_involution(a):
    x = PAdicValue.from_fraction(a, CTX7)
    assert (-(-x) - x).is_zero
    assert (x + (-x)).is_zero
