"""Kernel behavior: embedding, precision bookkeeping, factorials, binomials."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dombcheck.padic import (
    DenominatorDivisibleByP,
    InsufficientPrecision,
    NegativeValuation,
    PAdicValue,
    PrimeContext,
    binomial_int,
    binomial_rational,
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


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == known
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 2)


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
    x = PAdicValue.from_residue(6, CTX5, 1)  # only one digit known
    assert x.residue(1) == 1
    with pytest.raises(InsufficientPrecision):
        x.residue(2)
    z = PAdicValue.from_residue(0, CTX5, 2)
    assert z.residue(2) == 0
    with pytest.raises(InsufficientPrecision):
        z.residue(3)


def test_residue_range_validation():
    x = PAdicValue.from_int(1, CTX5)
    with pytest.raises(ValueError):
        x.residue(0)
    with pytest.raises(ValueError):
        x.residue(4)


def test_from_residue_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        r = rng.randrange(125)
        x = PAdicValue.from_residue(r, CTX5)
        for m in (1, 2, 3):
            assert x.residue(m) == r % 5**m


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
def test_binomial_rational_against_fraction_oracle(p):
    ctx = PrimeContext(p, 4)
    a = Fraction(-1, 2)
    q = Fraction(1)
    for m in range(1, 80):
        q = q * (a - (m - 1)) / m
        v = 0
        num, den = q.numerator, q.denominator
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        got = binomial_rational(a, m, ctx)
        assert got.valuation == v
        assert got.unit == num * pow(den, -1, ctx.pk) % ctx.pk


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
