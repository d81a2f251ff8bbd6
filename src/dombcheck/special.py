"""Harmonic numbers, Fermat quotients, Bernoulli and Euler residue tables,
and Morita's p-adic gamma function.

Everything here is evaluated against a PrimeContext.  The per-prime tables
(harmonic caches, Bernoulli and Euler numbers) are memoized on the context
object so that the congruence drivers can share them.
"""

from __future__ import annotations

from fractions import Fraction

from .padic import (
    DenominatorDivisibleByP,
    PAdicError,
    PAdicValue,
    PrimeContext,
    split_p,
)

__all__ = [
    "ArgumentDivisibleByP",
    "HarmonicCache",
    "harmonic",
    "fermat_quotient",
    "bernoulli_table",
    "bernoulli_poly",
    "euler_table",
    "padic_gamma_int",
    "padic_gamma_rational",
    "gamma_representative",
]


class ArgumentDivisibleByP(PAdicError):
    """An argument required to be a p-adic unit is divisible by p."""


class HarmonicCache:
    """Prefix sums H_n = sum 1/k and H_n^(2) = sum 1/k^2 as p-adic values.

    Indices at and beyond p make the valuation go negative (the 1/p term),
    which the valuation-aware addition tracks; nothing is skipped.  The
    arrays are prefilled to index 4p/3 + 2 and grow on demand beyond it.
    """

    def __init__(self, ctx: PrimeContext):
        self.ctx = ctx
        zero = PAdicValue.zero(ctx)
        self._h = [zero]
        self._h2 = [zero]
        self._extend(4 * ctx.p // 3 + 2)

    def _extend(self, n: int) -> None:
        ctx = self.ctx
        h = self._h
        h2 = self._h2
        for k in range(len(h), n + 1):
            t = PAdicValue.from_fraction(Fraction(1, k), ctx)
            h.append(h[-1] + t)
            h2.append(h2[-1] + t * t)

    def get(self, n: int, order: int = 1) -> PAdicValue:
        if n < 0:
            raise ValueError("harmonic index must be nonnegative")
        if order not in (1, 2):
            raise ValueError("only orders 1 and 2 are cached")
        if n >= len(self._h):
            self._extend(n)
        return self._h[n] if order == 1 else self._h2[n]


def _harmonic_cache(ctx: PrimeContext) -> HarmonicCache:
    if ctx._harmonic_cache is None:
        ctx._harmonic_cache = HarmonicCache(ctx)
    return ctx._harmonic_cache


def harmonic(n: int, order: int, ctx: PrimeContext) -> PAdicValue:
    """H_n^(order) for order 1 or 2, with H_0 = 0."""
    return _harmonic_cache(ctx).get(n, order)


def fermat_quotient(a: int, ctx: PrimeContext) -> PAdicValue:
    """q_p(a) = (a^(p-1) - 1)/p, known to K digits.

    The power is taken mod p^(K+1) so the quotient keeps the full working
    precision.  A quotient divisible by p (Wieferich-style primes) comes out
    with positive valuation rather than being rejected.
    """
    p = ctx.p
    if a % p == 0:
        raise ArgumentDivisibleByP(f"{a} is divisible by {p}")
    t = pow(a, p - 1, p ** (ctx.precision + 1))
    return PAdicValue.from_residue((t - 1) // p, ctx, ctx.precision)


def _fact_tables_mod_p(ctx: PrimeContext) -> tuple[list[int], list[int]]:
    # factorials and inverse factorials of 0..p-1 modulo p, shared per prime
    if ctx._fact_mod_p is None:
        p = ctx.p
        f = [1] * p
        for i in range(2, p):
            f[i] = f[i - 1] * i % p
        fi = [1] * p
        fi[p - 1] = pow(f[p - 1], -1, p)
        for i in range(p - 1, 0, -1):
            fi[i - 1] = fi[i] * i % p
        ctx._fact_mod_p = (f, fi)
    return ctx._fact_mod_p


def _binom_mod_p(n: int, k: int, f: list[int], fi: list[int], p: int) -> int:
    # valid for 0 <= k <= n < p
    return f[n] * fi[k] % p * fi[n - k] % p


def bernoulli_table(ctx: PrimeContext) -> list[int]:
    """Residues of B_0 .. B_(p-3) modulo p, first-kind convention B_1 = -1/2.

    Built from the defining recurrence sum_{k<n} C(n,k) B_k = 0; odd indices
    beyond 1 stay zero, so only even rows cost anything.  O(p^2) overall.
    """
    if ctx._bernoulli_mod_p is not None:
        return ctx._bernoulli_mod_p
    p = ctx.p
    f, fi = _fact_tables_mod_p(ctx)
    size = p - 2  # indices 0..p-3
    b = [0] * size
    b[0] = 1
    if size > 1:
        b[1] = p - (p + 1) // 2
    for m in range(2, size, 2):
        n = m + 1
        s = n * b[1] % p
        for k in range(0, m, 2):
            if b[k]:
                s = (s + _binom_mod_p(n, k, f, fi, p) * b[k]) % p
        b[m] = -s * pow(n, -1, p) % p
    ctx._bernoulli_mod_p = b
    return b


def euler_table(ctx: PrimeContext) -> list[int]:
    """Residues of the secant-convention Euler numbers E_0 .. E_(p-3) mod p.

    E_0 = 1, E_2 = -1, E_4 = 5, odd indices zero, via the recurrence
    sum_j C(2n, 2j) E_2j = 0.
    """
    if ctx._euler_mod_p is not None:
        return ctx._euler_mod_p
    p = ctx.p
    f, fi = _fact_tables_mod_p(ctx)
    size = p - 2
    e = [0] * size
    e[0] = 1
    for n in range(2, size, 2):
        s = 0
        for j in range(0, n, 2):
            if e[j]:
                s = (s + _binom_mod_p(n, j, f, fi, p) * e[j]) % p
        e[n] = -s % p
    ctx._euler_mod_p = e
    return e


def bernoulli_poly(n: int, x, ctx: PrimeContext) -> int:
    """B_n(x) = sum_k C(n,k) B_k x^(n-k) reduced modulo p.

    Allowed for n <= p - 2: the only coefficient outside the stored table is
    B_(p-2), which vanishes because p - 2 is odd.
    """
    p = ctx.p
    if n < 0 or n > p - 2:
        raise ValueError("bernoulli_poly supports 0 <= n <= p - 2")
    x = Fraction(x)
    if x.denominator % p == 0:
        raise DenominatorDivisibleByP(f"denominator of {x} is divisible by {p}")
    xi = x.numerator * pow(x.denominator, -1, p) % p
    b = bernoulli_table(ctx)
    f, fi = _fact_tables_mod_p(ctx)
    xpow = [1] * (n + 1)
    for i in range(1, n + 1):
        xpow[i] = xpow[i - 1] * xi % p
    # k = 0 contributes x^n (B_0 = 1); k = 1 contributes -n/2 x^(n-1)
    total = xpow[n]
    if n >= 1:
        total = (total + n * b[1] % p * xpow[n - 1]) % p
    for k in range(2, min(n, len(b) - 1) + 1, 2):
        if b[k]:
            total = (total + _binom_mod_p(n, k, f, fi, p) * b[k] % p * xpow[n - k]) % p
    return total % p


def _first_level_unit(m: int, ctx: PrimeContext) -> int:
    # product of 1 <= k <= m with p not dividing k, mod p^K
    _, um = ctx.factorial_decomposed(m)
    _, uq = ctx.factorial_decomposed(m // ctx.p)
    return um * ctx.inverse_unit(uq) % ctx.pk


def padic_gamma_int(n: int, ctx: PrimeContext) -> PAdicValue:
    """Morita's gamma at a nonnegative integer, to the full K digits.

    Gamma_p(0) = 1 and Gamma_p(n) = (-1)^n * prod of k < n coprime to p.
    Always a unit.
    """
    if n < 0:
        raise ValueError("padic_gamma_int needs n >= 0")
    if n == 0:
        return PAdicValue.from_int(1, ctx)
    u = _first_level_unit(n - 1, ctx)
    if n % 2:
        u = (ctx.pk - u) % ctx.pk
    return PAdicValue(ctx, 0, u, ctx.precision)


def gamma_representative(x, ctx: PrimeContext) -> int:
    """The integer a0 in {1, ..., p} with x = a0 (mod p)."""
    x = Fraction(x)
    p = ctx.p
    if x.denominator % p == 0:
        raise DenominatorDivisibleByP(f"denominator of {x} is divisible by {p}")
    r = x.numerator * pow(x.denominator, -1, p) % p
    return p if r == 0 else r


def padic_gamma_rational(x, ctx: PrimeContext) -> int:
    """Gamma_p at a rational argument, reduced modulo p.

    Continuity pins Gamma_p(x) mod p down to Gamma_p(a0) for the
    representative a0 of x in {1, ..., p}; one digit is all that transfers.
    """
    a0 = gamma_representative(x, ctx)
    return padic_gamma_int(a0, ctx).residue(1)
