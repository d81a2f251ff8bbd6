"""Domb numbers: exact values, residue tables, and structural checks.

D_n counts returning walks of length 2n on the diamond lattice and equals
sum_k C(n,k)^2 C(2k,k) C(2n-2k,n-k).  The defining sum is the oracle: the
residue table (built from Domb's recurrence), the two rewritten forms (the
alternating 16^(n-k) sum and the 4^(n-2j) half-range sum) and the
generating-function product are tested against it, never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, prod

from .padic import PrimeContext

__all__ = [
    "domb_exact",
    "domb_via_cz",
    "domb_via_sun",
    "DombTable",
    "SeriesMatchReport",
    "rogers_series_check",
    "IntegralityReport",
    "liu_integrality_check",
]


def domb_exact(n: int) -> int:
    """The defining convolution of central binomial coefficients."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(
        comb(n, k) ** 2 * comb(2 * k, k) * comb(2 * (n - k), n - k)
        for k in range(n + 1)
    )


def domb_via_cz(n: int) -> int:
    """Alternating rewrite with weight 16^(n-k), full range 0..n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(
        (-1) ** k
        * comb(n + 2 * k, 3 * k)
        * comb(2 * k, k) ** 2
        * comb(3 * k, k)
        * 16 ** (n - k)
        for k in range(n + 1)
    )


def domb_via_sun(n: int) -> int:
    """Half-range rewrite with weight 4^(n-2j), j up to floor(n/2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(
        comb(n + j, 3 * j)
        * comb(2 * j, j) ** 2
        * comb(3 * j, j)
        * 4 ** (n - 2 * j)
        for j in range(n // 2 + 1)
    )


# Consecutive factors that _product_mod multiplies exactly before reducing.
_CHUNK = 32


def _product_mod(lo: int, hi: int, mod: int) -> int:
    """lo (lo+1) ... (hi-1) mod `mod`: exact products of _CHUNK
    consecutive integers, each reduced once.  Linear in hi - lo, where
    math.factorial's cost grows faster than its argument.  Written out here
    and not shared with the right sides' helpers, so that the left sides
    share no code with them."""
    x = 1
    for i in range(lo, hi, _CHUNK):
        x = x * prod(range(i, min(i + _CHUNK, hi))) % mod
    return x


# (A_n, 64 n^6, n^3) for n below the largest table size requested so far,
# A_n = 2(2n+1)(5n^2+5n+2): the integer coefficients of the recurrence,
# which do not depend on p, so every table in the process shares them.
# Grown only by rebinding this one tuple to a longer one built in full.
_coeffs: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] = ((), (), ())


def _coefficients(size: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The memo's (A_n, 64 n^6, n^3), each of length at least ``size``."""
    global _coeffs
    coeffs = _coeffs
    n0 = len(coeffs[0])
    if n0 < size:
        a, c, cubes = coeffs
        new_cubes = tuple(n**3 for n in range(n0, size))
        coeffs = (
            a + tuple(2 * (2 * n + 1) * (5 * n * n + 5 * n + 2) for n in range(n0, size)),
            c + tuple(64 * x * x for x in new_cubes),
            cubes + new_cubes,
        )
        _coeffs = coeffs
    return coeffs


class DombTable:
    """D_0 .. D_(size-1) mod p^K, size <= p, with no p-adic kernel (Chan,
    Chan and Liu, Adv. Math. 186, 2004).  Domb's recurrence (n+1)^3
    D_(n+1) = A_n D_n - 64 n^3 D_(n-1), A_n = 2(2n+1)(5n^2+5n+2), times
    (n!)^3 is division-free in E_n = (n!)^3 D_n: E_(n+1) = A_n E_n -
    64 n^6 E_(n-1).  One pass runs it mod p^K; a second walks back from the
    one inverse of ((size-1)!)^3, a unit below p, multiplying by n^3 at
    each step, and gives D_n = E_n (n!)^(-3).  The integers A_n, 64 n^6 and
    n^3 come from a memo shared by every table in the process.  The targets
    read D_k for k < p only; larger sizes are refused.
    """

    def __init__(self, ctx: PrimeContext, size: int | None = None):
        self.ctx = ctx
        p = ctx.p
        if size is None:
            size = p
        if not 1 <= size <= p:
            raise ValueError(f"table size must be in 1..{p}")
        self.size = size
        mod = ctx.pk
        a, c, cubes = _coefficients(size)
        e_prev, e = 0, 1
        vals = [1]
        for n in range(size - 1):
            e_prev, e = e, (a[n] * e - c[n] * e_prev) % mod
            vals.append(e)
        f = _product_mod(1, size, mod)
        inv = pow(f * f * f, -1, mod)  # ((n!)^3)^(-1) at n = size-1
        for n in range(size - 1, 0, -1):
            vals[n] = vals[n] * inv % mod
            inv = inv * cubes[n] % mod
        self.residues = vals

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, k: int) -> int:
        if not 0 <= k < self.size:
            raise IndexError(f"Domb index {k} is outside 0..{self.size - 1}")
        return self.residues[k]


@dataclass
class SeriesMatchReport:
    """Outcome of the generating-function comparison up to a given order."""

    order: int
    passed: bool
    mismatches: list[tuple[int, Fraction, int]] = field(default_factory=list)


def _mul_trunc(a: list[Fraction], b: list[Fraction], n: int) -> list[Fraction]:
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(0, n + 1 - i):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def rogers_series_check(order: int) -> SeriesMatchReport:
    """Compare sum D_n u^n with the closed product as formal power series.

    The right side is (1-4u)^(-1) * sum_k C(2k,k)^2 C(3k,k) z^k evaluated at
    z = u^2/(1-4u)^3, expanded exactly over the rationals to the given
    order and matched coefficient by coefficient against domb_exact.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    n = order
    geo = [Fraction(4**i) for i in range(n + 1)]  # 1/(1-4u)
    cube = _mul_trunc(_mul_trunc(geo, geo, n), geo, n)
    z = [Fraction(0)] * (n + 1)  # u^2/(1-4u)^3
    for i in range(2, n + 1):
        z[i] = cube[i - 2]
    acc = [Fraction(0)] * (n + 1)
    term = [Fraction(0)] * (n + 1)
    term[0] = Fraction(1)
    k = 0
    while 2 * k <= n:
        c = comb(2 * k, k) ** 2 * comb(3 * k, k)
        for i in range(2 * k, n + 1):
            acc[i] += c * term[i]
        term = _mul_trunc(term, z, n)
        k += 1
    rhs = _mul_trunc(geo, acc, n)
    mism = []
    for i in range(n + 1):
        expect = domb_exact(i)
        if rhs[i] != expect:
            mism.append((i, rhs[i], expect))
    return SeriesMatchReport(order=n, passed=not mism, mismatches=mism)


@dataclass
class IntegralityReport:
    """Outcome of the weighted partial-sum divisibility check."""

    max_n: int
    passed: bool
    failures: list[tuple[int, int]] = field(default_factory=list)


def liu_integrality_check(max_n: int) -> IntegralityReport:
    """Check that (1/n) sum_{k<n} (2k+1) D_k b^(n-1-k) is a positive integer
    for every 1 <= n <= max_n and both bases b = 8 and b = -8.

    Failures are recorded as (n, b) pairs.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    d = [domb_exact(k) for k in range(max_n)]
    failures = []
    for n in range(1, max_n + 1):
        for base in (8, -8):
            s = sum((2 * k + 1) * d[k] * base ** (n - 1 - k) for k in range(n))
            if s % n != 0 or s <= 0:
                failures.append((n, base))
    return IntegralityReport(max_n=max_n, passed=not failures, failures=failures)
