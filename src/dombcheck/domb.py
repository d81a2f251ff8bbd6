"""Domb numbers: exact values, residue tables, and structural checks.

D_n counts returning walks of length 2n on the diamond lattice and equals
sum_k C(n,k)^2 C(2k,k) C(2n-2k,n-k).  The defining sum is the oracle: the
exact values and the residue table (both from Domb's recurrence), the two
rewritten forms (the alternating 16^(n-k) sum and the 4^(n-2j) half-range
sum) and the generating-function product are tested against it, never the
reverse.  The exact values also feed one walk that gives a whole sweep's
primes the Horner triples their moment sums are finished from
(horner_walk); the per-prime pass over each residue table is its oracle.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from math import comb, prod

from .padic import PrimeContext

__all__ = [
    "domb_exact",
    "domb_via_cz",
    "domb_via_sun",
    "domb_numbers",
    "DombTable",
    "HornerTriples",
    "horner_walk",
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


def domb_numbers(size: int) -> Iterator[int]:
    """D_0 .. D_(size-1) exactly, by Domb's recurrence (n+1)^3 D_(n+1) =
    A_n D_n - 64 n^3 D_(n-1) on the coefficient memo.  Each division by
    (n+1)^3 is checked, and a remainder raises ValueError, so a wrong
    coefficient cannot pass silently.  Linear in size steps, each on
    integers of O(n) bits, where domb_exact(n) alone sums n + 1 products of
    binomials."""
    if size < 0:
        raise ValueError("size must be nonnegative")
    a, _, cubes = _coefficients(size)
    d_prev, d = 0, 1
    for n in range(size - 1):
        yield d
        x, r = divmod(a[n] * d - (cubes[n] << 6) * d_prev, cubes[n + 1])
        if r:
            raise ValueError(f"Domb's recurrence leaves a remainder at n = {n + 1}")
        d_prev, d = d, x
    if size:
        yield d


def _scaled_residues(size: int, mod: int) -> list[int]:
    """E_n = (n!)^3 D_n mod `mod` for n < size, by Domb's recurrence in its
    division-free form E_(n+1) = A_n E_n - 64 n^6 E_(n-1) on the
    coefficient memo: DombTable's recurrence pass."""
    a, c, _ = _coefficients(size)
    e_prev, e = 0, 1
    vals = [1]
    for n in range(size - 1):
        e_prev, e = e, (a[n] * e - c[n] * e_prev) % mod
        vals.append(e)
    return vals


# Held by DombTable.residues while it walks a table back in place.
_walk_lock = threading.Lock()


class DombTable:
    """D_0 .. D_(size-1) mod p^K, size <= p, with no p-adic kernel (Chan,
    Chan and Liu, Adv. Math. 186, 2004).  Domb's recurrence (n+1)^3
    D_(n+1) = A_n D_n - 64 n^3 D_(n-1), A_n = 2(2n+1)(5n^2+5n+2), times
    (n!)^3 is division-free in E_n = (n!)^3 D_n: E_(n+1) = A_n E_n -
    64 n^6 E_(n-1).  One pass runs it mod p^K; a walk back from the one
    inverse of ((size-1)!)^3, a unit below p, multiplying by n^3 at each
    step, gives D_n = E_n (n!)^(-3).  The walk's first step, D_(size-1),
    is taken on construction; the rest runs on the first read of
    ``residues`` or of an index below the top, once, and turns the E list
    into the D list in place, so a reader of D_(size-1) alone (a swept
    prime's CONJ1_DP1) never walks back.  The integers A_n, 64 n^6 and
    n^3 come from a memo shared by every table in the process.  The
    targets read D_k for k < p only; larger sizes are refused.
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
        vals = _scaled_residues(size, mod)
        f = _product_mod(1, size, mod)
        self._inv = pow(f * f * f, -1, mod)  # ((n!)^3)^(-1) at n = size-1
        vals[-1] = vals[-1] * self._inv % mod
        self._vals = vals  # D_(size-1) on top of E_0 .. E_(size-2)
        self._walked = False

    @cached_property
    def residues(self) -> list[int]:
        """D_0 .. D_(size-1): the rest of the walk back, from n = size-2
        down, on the E list in place.  A second walk would convert the
        list twice, so the walk runs under a lock and only once, whichever
        threads read the table first."""
        vals = self._vals
        with _walk_lock:
            if not self._walked:
                mod = self.ctx.pk
                cubes = _coefficients(self.size)[2]
                inv = self._inv * cubes[self.size - 1] % mod
                for n in range(self.size - 2, 0, -1):
                    vals[n] = vals[n] * inv % mod
                    inv = inv * cubes[n] % mod
                self._walked = True
        return vals

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, k: int) -> int:
        if not 0 <= k < self.size:
            raise IndexError(f"Domb index {k} is outside 0..{self.size - 1}")
        if k == self.size - 1:
            return self._vals[k]
        return self.residues[k]


@dataclass(frozen=True)
class HornerTriples:
    """(P(c), P'(c), P''(c)/2) mod p^K at c = 4 and at c = 16, for
    P(c) = sum_{k<p} D_k c^(p-1-k): what a prime's moment sums at both
    bases are finished from (PrimeVerifier._moment_sums), tagged with the p
    and K they belong to."""

    p: int
    precision: int
    at4: tuple[int, int, int]
    at16: tuple[int, int, int]


def horner_walk(precisions: dict[int, int]) -> dict[int, HornerTriples]:
    """The HornerTriples of every p in ``precisions``, mod
    p^precisions[p], from one walk over the exact D_0 .. D_(hi-1), hi the
    largest p.  Horner with derivatives in both bases runs in exact
    integers, t2 = c t2 + t1, t1 = c t1 + t0, t0 = c t0 + D_n, each a
    shift and an add since 4 and 16 are powers of 2; as n reaches p - 1
    the six accumulators are reduced mod p^K and only the residues are
    kept, so O(hi) bits stay live.  The walk is O(hi^2) bit operations,
    the per-prime passes it replaces O(sum p) residue operations."""
    out = {}
    a0 = a1 = a2 = b0 = b1 = b2 = 0
    ds = domb_numbers(max(precisions, default=0))
    n = 0
    for p in sorted(precisions):
        for d in islice(ds, p - n):
            a2 = (a2 << 2) + a1
            a1 = (a1 << 2) + a0
            a0 = (a0 << 2) + d
            b2 = (b2 << 4) + b1
            b1 = (b1 << 4) + b0
            b0 = (b0 << 4) + d
        n = p
        k = precisions[p]
        pk = p**k
        out[p] = HornerTriples(p, k, (a0 % pk, a1 % pk, a2 % pk), (b0 % pk, b1 % pk, b2 % pk))
    return out


@dataclass
class SeriesMatchReport:
    """Outcome of the generating-function comparison up to a given order:
    each mismatch is (n, the product's coefficient of u^n, D_n)."""

    order: int
    passed: bool
    mismatches: list[tuple[int, int, int]] = field(default_factory=list)


def _mul_trunc(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
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
    z = u^2/(1-4u)^3, expanded exactly to the given order and matched
    coefficient by coefficient against domb_exact.  Every coefficient of
    1/(1-4u), of z and of their products is an integer, so the expansion
    runs in plain ints.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    n = order
    geo = [4**i for i in range(n + 1)]  # 1/(1-4u)
    cube = _mul_trunc(_mul_trunc(geo, geo, n), geo, n)
    z = [0] * (n + 1)  # u^2/(1-4u)^3
    for i in range(2, n + 1):
        z[i] = cube[i - 2]
    acc = [0] * (n + 1)
    term = [0] * (n + 1)
    term[0] = 1
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
