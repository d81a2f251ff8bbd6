"""Harmonic numbers, Bernoulli and Euler residues, and Morita's p-adic
gamma function.

Everything here is evaluated against a PrimeContext.  The harmonic cache
and the series sigma behind every Bernoulli value are memoized on the
context object so that the congruence checks can share them.  The
factorials the series need, of 0..p-1 mod p, are the context's factorial
table reduced mod p; the binomials and the gamma function read the same
table.  Bernoulli and Euler residues come from generating series mod p in
O(M(p) log p), M(p) the cost of a degree-p polynomial product (Buhler,
Crandall, Ernvall and Metsankyla, Math. Comp. 61, 1993; Harvey, J. Symb.
Comp. 44, 2009), both series in x^2 of (p-1)/2 terms: the Euler numbers
invert cosh x, and sigma inverts sinh x / x, so u / sinh u = sum sigma_j
u^(2j).  Each inverse is Newton doubling whose steps read only the middle
of a product (Hanrot, Quercia and Zimmermann, AAECC 14, 2004).  Each
product is one big-integer multiply by Kronecker substitution, its
operands packed and its slots read by struct, in slots of at most 8 bytes
(p < 2^21 for sigma).  Never via harmonic sums (Lehmer, Ann. Math. 39,
1938): LEMMA_SUNH compares the two, and would then hold by construction.

The verifier reads three Bernoulli values, each one O(p) pass of
bernoulli_poly over sigma: B_(p-3) = B_(p-3)(0) for CONJ1_DP1, and
B_(p-2)(1/3) and E_(p-3) = B_(p-2)(1/4)/8 mod p for LEMMA_SUNH.  It builds
no full table and takes no product past the inverse.  bernoulli_table (the
quotient x coth x = cosh x / (sinh x / x), sigma times cosh) and
euler_table stay public, not memoized, and the tests use them as oracles.
"""

from __future__ import annotations

import struct
import weakref
from itertools import accumulate
from operator import mul, sub

from .padic import (
    DenominatorDivisibleByP,
    PAdicValue,
    PrimeContext,
    as_fraction,
    batch_inverse,
    split_p,
)

__all__ = [
    "HarmonicCache",
    "harmonic",
    "harmonic_scaled",
    "bernoulli_table",
    "bernoulli_poly",
    "euler_table",
    "padic_gamma_int",
    "padic_gamma_rational",
    "gamma_representative",
]


class HarmonicCache:
    """Prefix sums H_n = sum 1/k and H_n^(2) = sum 1/k^2 as p-adic values,
    over the ranges the targets read: order 1 for 0 <= n <= 2p-1 (LEMMA_P2J
    and LEMMA_SH55 read H_(2p-2)), order 2 for 0 <= n <= p-1.

    The cache stores plain ints mod p^K, one list per order: H_n below p,
    and the p-integral p H_n from p on, where 1/p enters the sum.  The
    verifier reads both lists through ``harmonic_scaled``, on its one
    kernel context, which is at precision 2 whenever a target reads a sum:
    each sum enters a right side mod p^3 times p, or one mod p^2.  The
    order-1 list is built here from
    one batch inversion of 1..p-1, and no read of the factorial tables:
    the lemma checks compare these sums with binomials, which the
    factorial tables build.  The upper half comes from the lower half:
    summing p/(p+k) = sum_m (-1)^(m-1) (p/k)^m over k <= r, and p/p = 1,
    p H_(p+r) = p H_(p-1) + 1 + sum_(m<K) (-1)^(m-1) p^m H_r^(m) mod p^K;
    at K <= 2 that is one pass over H_r.
    The order-2 list is built on its first read; its terms are the squares
    of the order-1 terms, read back as differences of the order-1 list.

    ``get`` builds the PAdicValue on read: p H_n / p for n >= p, known mod
    p^(K - 1), with the negative valuation and the bounded precision that
    summing the terms 1/k with valuation-aware addition would give.
    Indices outside the two ranges raise ValueError.
    """

    def __init__(self, ctx: PrimeContext):
        # The context memoizes this cache.  A strong reference back would be
        # a cycle that only the cyclic collector frees, so each prime's
        # tables would outlive the prime until the next collection.
        self._ctx = weakref.ref(ctx)
        p = ctx.p
        pk = ctx.pk
        inv = batch_inverse(range(1, p), pk)
        self._h = h = [s % pk for s in accumulate(inv, initial=0)]
        # p H_(p+r) from H_r, as in the class docstring; past K = 2 one more
        # pass per order m, on the powers 1/k^m
        c = p * h[-1] + 1
        high = [(c + p * x) % pk for x in h]
        power = inv
        for m in range(2, ctx.precision):
            power = [a * b % pk for a, b in zip(power, inv)]
            pm = (-p) ** m
            high = [(a - pm * s) % pk for a, s in zip(high, accumulate(power, initial=0))]
        h += high
        self._h2 = None

    @property
    def ctx(self) -> PrimeContext:
        ctx = self._ctx()
        if ctx is None:
            raise ReferenceError("the PrimeContext of this HarmonicCache is gone")
        return ctx

    def _sums(self, order: int, n: int) -> list[int]:
        """The stored list of the given order, after checking that it holds
        index n: 2p entries for order 1, p for order 2."""
        if order not in (1, 2):
            raise ValueError("only orders 1 and 2 are cached")
        top = len(self._h) // order - 1
        if not 0 <= n <= top:
            raise ValueError(f"H^({order})_{n} is outside the cached range 0..{top}")
        if order == 1:
            return self._h
        if self._h2 is None:
            # each term is the square of the order-1 term 1/k, read back as
            # a difference of the stored order-1 sums: no inversion here
            pk = self.ctx.pk
            h = self._h[: len(self._h) // 2]
            d = list(map(sub, h[1:], h))
            self._h2 = [s % pk for s in accumulate(map(mul, d, d), initial=0)]
        return self._h2

    def get(self, n: int, order: int = 1) -> PAdicValue:
        s = self._sums(order, n)[n]
        ctx = self.ctx
        if n == 0:
            return PAdicValue.zero(ctx)
        e = 1 if n >= ctx.p else 0
        if s == 0:
            return PAdicValue.zero(ctx, ctx.precision - e)
        w, u = split_p(s, ctx.p)
        return PAdicValue(ctx, w - e, u, ctx.precision - w)


def _harmonic_cache(ctx: PrimeContext) -> HarmonicCache:
    if ctx._harmonic_cache is None:
        ctx._harmonic_cache = HarmonicCache(ctx)
    return ctx._harmonic_cache


def harmonic(n: int, order: int, ctx: PrimeContext) -> PAdicValue:
    """H_n^(order) for order 1 (0 <= n <= 2p-1) or order 2 (0 <= n <= p-1),
    with H_0 = 0."""
    return _harmonic_cache(ctx).get(n, order)


def harmonic_scaled(n: int, ctx: PrimeContext, order: int = 1) -> list[int]:
    """The cache's stored ints mod p^K, after checking that they reach
    index n: H_k^(order) itself below p, and p H_k for p <= k <= 2p-1
    (order 1 only; order 2 stops at p-1).  This is the cache's own list,
    not a copy, for loops and closed forms that read many entries."""
    return _harmonic_cache(ctx)._sums(order, n)


# the standard little-endian struct field that reads a w-byte slot, and its
# width: the next standard width up from w
_SLOT_FIELDS = {1: ("B", 1), 2: ("H", 2), 3: ("I", 4), 4: ("I", 4)}
_SLOT_FIELDS.update(dict.fromkeys((5, 6, 7, 8), ("Q", 8)))


def _slot_fields(w: int) -> tuple[str, int]:
    try:
        return _SLOT_FIELDS[w]
    except KeyError:
        raise ValueError(
            f"Kronecker slots of {w} bytes: at most 8 are supported, "
            "enough for the Bernoulli series at p < 2^21"
        ) from None


def _pack(c: list[int], w: int, p: int) -> int:
    """Kronecker substitution: one w-byte slot per residue mod p, lowest
    first, as one struct.pack call.  Each residue fills the smallest
    standard field that holds p, followed by pad bytes up to w.  Widths
    above 8 bytes raise ValueError, as _unpack cannot read them."""
    _slot_fields(w)
    code, size = next(f for f in (("B", 1), ("H", 2), ("I", 4), ("Q", 8)) if p <= 1 << 8 * f[1])
    fmt = f"<{len(c)}{code}" if size == w else "<" + f"{code}{w - size}x" * len(c)
    return int.from_bytes(struct.pack(fmt, *c), "little")


def _unpack(x: int, size: int, lo: int, hi: int, w: int, p: int) -> list[int]:
    """Slots lo..hi-1 of x, mod p, as one struct.unpack call.  A slot of 3,
    5, 6 or 7 bytes is first copied into a zeroed one of the next standard
    width, one strided slice assignment per byte.  x must fit in `size`
    slots (to_bytes raises OverflowError otherwise, so an operand longer
    than its caller claims cannot pass unnoticed)."""
    code, f = _slot_fields(w)
    raw = x.to_bytes(size * w, "little")
    k = hi - lo
    if f == w:
        return [v % p for v in struct.unpack_from(f"<{k}{code}", raw, lo * w)]
    wide = bytearray(k * f)
    for i in range(w):
        wide[i::f] = raw[lo * w + i : hi * w : w]
    return [v % p for v in struct.unpack(f"<{k}{code}", wide)]


def _slot_bytes(n: int, p: int) -> int:
    # a slot holds any coefficient (below n p^2) of a product of two series
    # of at most n coefficients below p, so no slot carries into the next
    return (2 * p.bit_length() + n.bit_length() + 7) // 8


def _series_inverse(a: list[int], n: int, p: int) -> list[int]:
    """The first n coefficients of 1/a mod p, for a[0] a unit mod p.

    Newton doubling: with b = 1/a mod x^h known, a b = 1 + x^h t, and the
    next m = min(2h, n) coefficients are b - x^h (b t mod x^(m-h)).  Only
    t's m - h coefficients are read, the slots h..m-1 of the product
    (a mod x^m) b (a middle product: Hanrot, Quercia and Zimmermann, AAECC
    14, 2004); the new half is one (m-h) x (m-h) product.  Each product is
    one big-integer multiply by Kronecker substitution; -a is packed once
    and masked to m slots each round, so its middle slots are -t directly,
    and b stays packed with each new half OR-ed in above it.
    """
    w = _slot_bytes(n, p)
    bits = 8 * w
    neg_a = _pack([-c % p for c in a[:n]], w, p)
    b = [pow(a[0], -1, p)]
    packed_b = b[0]
    h = 1
    while h < n:
        m = min(2 * h, n)
        neg_t = _unpack((neg_a & ((1 << bits * m) - 1)) * packed_b, m + h, h, m, w, p)
        low_b = packed_b & ((1 << bits * (m - h)) - 1)
        c = _unpack(low_b * _pack(neg_t, w, p), 2 * (m - h), 0, m - h, w, p)
        packed_b |= _pack(c, w, p) << (bits * h)
        b += c
        h = m
    return b


def _sinh_inverse(ctx: PrimeContext) -> list[int]:
    """sigma_0 .. sigma_((p-3)/2) mod p, where u / sinh u = sum sigma_j
    u^(2j): one series inverse of sinh x / x = sum x^(2k)/(2k+1)!, the
    factorials read off the context's factorial table and reduced mod p.
    Every sigma_j here is p-integral, and nothing is divided by p.  The
    context memoizes it; bernoulli_poly and bernoulli_table both read it."""
    if ctx._sigma_mod_p is None:
        p = ctx.p
        _, _, fi = ctx.factorial_tables(p - 1)
        ctx._sigma_mod_p = _series_inverse(fi[1 : p - 1 : 2], (p - 1) // 2, p)
    return ctx._sigma_mod_p


def bernoulli_table(ctx: PrimeContext) -> list[int]:
    """Residues of B_0 .. B_(p-3) modulo p, first-kind convention B_1 = -1/2.

    Past B_1 only even indices are nonzero.  With y = x^2,
    x coth x = sum 4^k B_2k y^k/(2k)! = cosh x / (sinh x / x): the inverse
    of sinh x / x is the context's memoized sigma, one product with
    sum y^k/(2k)! follows, then B_2k = c_k (2k)! / 4^k; in all
    O(M(p) log p).  Never from harmonic sums, which LEMMA_SUNH checks
    against these values.  The verifier reads its three Bernoulli values
    through bernoulli_poly and never builds this table; it is kept, not
    memoized, as the tests' oracle.
    """
    p = ctx.p
    n = (p - 1) // 2
    _, f, fi = ctx.factorial_tables(p - 1)
    w = _slot_bytes(n, p)
    cosh = _pack([u % p for u in fi[0 : p - 2 : 2]], w, p)
    c = _unpack(_pack(_sinh_inverse(ctx), w, p) * cosh, 2 * n, 0, n, w, p)
    b = [0] * (p - 2)
    quarter = pow(4, -1, p)
    q = 1
    for k, ck in enumerate(c):
        b[2 * k] = ck * f[2 * k] % p * q % p
        q = q * quarter % p
    b[1] = (p - 1) // 2  # -1/2
    return b


def euler_table(ctx: PrimeContext) -> list[int]:
    """Residues of the secant-convention Euler numbers E_0 .. E_(p-3) mod p.

    E_0 = 1, E_2 = -1, E_4 = 5, odd indices zero.  With y = x^2, sech x =
    sum E_2k y^k/(2k)! is the inverse of cosh x = sum y^k/(2k)!, taken mod p
    in O(M(p) log p), the factorials read off the context's factorial table;
    never from harmonic sums, which LEMMA_SUNH checks against this table.
    """
    p = ctx.p
    _, f, fi = ctx.factorial_tables(p - 1)
    c = _series_inverse(fi[0 : p - 2 : 2], (p - 1) // 2, p)
    e = [0] * (p - 2)
    e[::2] = [ck * f[2 * k] % p for k, ck in enumerate(c)]
    return e


def bernoulli_poly(n: int, x, ctx: PrimeContext) -> int:
    """B_n(x) reduced modulo p, for 0 <= n <= p - 2.

    From t e^(xt)/(e^t - 1) = (t/2)/sinh(t/2) e^((x-1/2)t), with z = x - 1/2,
    B_n(x) = n! sum_j sigma_j 4^(-j) z^(n-2j)/(n-2j)! over j <= J = n//2,
    sigma the context's memoized inverse of sinh x / x.  Taken by Horner in
    Y = 4 z^2 over sigma_j / (n-2j)!, then B_n(x) = n! z^(n mod 2) 4^(-J)
    times that sum: one O(n) pass, no full Bernoulli table and no product.
    J is at most (p-3)/2, the last sigma_j kept, and n! is a unit.
    """
    p = ctx.p
    if n < 0 or n > p - 2:
        raise ValueError("bernoulli_poly supports 0 <= n <= p - 2")
    x = as_fraction(x)
    if x.denominator % p == 0:
        raise DenominatorDivisibleByP(f"denominator of {x} is divisible by {p}")
    z = (x.numerator * pow(x.denominator, -1, p) - (p + 1) // 2) % p
    sigma = _sinh_inverse(ctx)
    _, f, fi = ctx.factorial_tables(p - 1)
    y = 4 * z * z % p
    total = 0
    # fi[n::-2] holds the J + 1 factors 1/(n-2j)!, so zip stops at sigma_J
    for s, i in zip(sigma, fi[n::-2]):
        total = (total * y + s * i) % p
    return total * f[n] * pow(z, n % 2, p) * pow(4, -(n // 2), p) % p


def _first_level_unit(m: int, ctx: PrimeContext) -> int:
    # product of 1 <= k <= m with p not dividing k, mod p^K
    _, fu, fi = ctx.factorial_tables(m)
    return fu[m] * fi[m // ctx.p] % ctx.pk


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
    x = as_fraction(x)
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
