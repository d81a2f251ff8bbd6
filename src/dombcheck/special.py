"""Harmonic numbers, Bernoulli and Euler residues, and Morita's p-adic
gamma function.

Everything here is evaluated against a PrimeContext.  The harmonic cache
and the series sigma behind bernoulli_poly and bernoulli_table are
memoized on the context object.  The harmonic cache inverts 1..p-1 in one
pass, the odd k by a recurrence and the even k by halving, and keeps the
inverses beside its sums below p.  Its sums p H_n for p <= n < 2p are
built only on a read that reaches them, which the verifier never makes:
mod p^2 they are p H_p + p H_(n-p) (harmonic_scaled_at_p).  The
factorials the series need, of 0..p-1 mod p, are the context's factorial
table reduced mod p; the binomials and the gamma function read the same
table.

The verifier reads three Bernoulli values mod p, B_(p-3), B_(p-2)(1/3)
and E_(p-3) = B_(p-2)(1/4)/8, from bernoulli_values: O(p) sums by
Voronoi's congruence (Harvey, Math. Comp. 79, 2010), with no series.
The sums read j^(-2) and j^(-3) mod p at every j < p, from one list of
the powers g^i of a primitive root, one multiply-and-reduce a step: at
j = g^i they are g^(-2i) and g^(-3i), slices of that same list
(_inverse_power_tables), so nothing is inverted.

Full tables come from generating series mod p in O(M(p) log p), M(p) the
cost of a degree-p polynomial product (Buhler, Crandall, Ernvall and
Metsankyla, Math. Comp. 61, 1993; Harvey, J. Symb. Comp. 44, 2009), both
series in x^2 of (p-1)/2 terms: the Euler numbers invert cosh x, and sigma
inverts sinh x / x, so u / sinh u = sum sigma_j u^(2j).  Each inverse is
Newton doubling whose steps read only the middle of a product (Hanrot,
Quercia and Zimmermann, AAECC 14, 2004).  Each product is one big-integer
multiply by Kronecker substitution: each residue is one slot of whole
bytes, wide enough that no coefficient of a product carries into the next
(_slot_bytes), so the series work at any p.
bernoulli_poly (one O(p) pass over sigma), bernoulli_table (x coth x =
cosh x / (sinh x / x), sigma times cosh) and euler_table stay public as
library API, not memoized, and the tests' oracles for bernoulli_values.

No Bernoulli value comes via harmonic sums (Lehmer, Ann. Math. 39, 1938)
or shares code with the harmonic cache or its inverses: LEMMA_SUNH
compares the two, and would then hold by construction.
"""

from __future__ import annotations

import weakref
from itertools import accumulate
from math import gcd
from operator import mul

from .padic import (
    DenominatorDivisibleByP,
    PAdicValue,
    PrimeContext,
    as_fraction,
    split_p,
)

__all__ = [
    "HarmonicCache",
    "harmonic",
    "harmonic_scaled",
    "harmonic_scaled_at_p",
    "harmonic_inverses",
    "bernoulli_table",
    "bernoulli_poly",
    "bernoulli_values",
    "euler_table",
    "padic_gamma_int",
    "padic_gamma_rational",
    "gamma_representative",
]


class HarmonicCache:
    """Prefix sums H_n = sum 1/k and H_n^(2) = sum 1/k^2 as p-adic values:
    order 1 for 0 <= n <= 2p-1, order 2 for 0 <= n <= p-1.  The verifier
    reads order 1 below p only.

    The cache stores plain ints mod p^K: the inverses 1/k for 0 < k < p,
    and one list of sums per order, H_n below p and the p-integral p H_n
    from p on, where 1/p enters the sum.  The verifier reads the sums
    through ``harmonic_scaled`` and the inverses through
    ``harmonic_inverses``, on its one kernel context, which is at
    precision 2: each sum enters a right side mod p^3 times p, or one mod
    p^2.

    The inverses come from one pass in blocks [m, 2m).  An even k takes
    1/k = (1/2) (1/(k/2)) from the block below, one slice per block.  An
    odd k takes a linear recurrence: with M = p^K, M = floor(M/k) k +
    (M mod k), so dividing by k (M mod k), 1/k = -floor(M/k) / (M mod k)
    mod M.  Here 0 < M mod k < k < p: M mod k is a unit, and its inverse is
    already in the list.  So each entry is one multiplication, with no
    prefix products, no pow and no walk back.
    The pass reads no factorial table (the lemma checks compare these sums
    with binomials, which the factorial tables build), and it shares no
    code with the Bernoulli power tables, which walk a primitive root:
    LEMMA_SUNH compares these sums with those values.
    The order-1 list is the prefix sums of the inverses, p entries.  Its
    upper half, p H_(p+r) for r < p, comes from the lower half by the
    identity in ``scaled_at_p`` and is built on the first read past p-1.
    The verifier makes no such read: LEMMA_P2J reads p H_(p+r) mod p^2
    only, and takes it as p H_p + p H_r from ``harmonic_scaled_at_p`` and
    the sums below p, and LEMMA_SH55 reads no p H_(p+r).  So the upper half
    serves ``harmonic(n >= p)``, ``get`` and ``harmonic_scaled(n >= p)``.
    The order-2 list, the prefix sums of the squared inverses, is built on
    its first read; the verifier never reads it, and it serves
    ``harmonic(n, 2)``, ``get`` and the tests.

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
        # in blocks [m, 2m), as in the class docstring: the even k halve
        # 1/(k/2) from the block below, then the odd k, in order, take
        # -floor(pk/k) / (pk mod k), whose pk mod k < k is already filled
        self._inv = inv = [0] * p
        inv[1] = 1
        half = (pk + 1) // 2
        m = 2
        while m < p:
            top = min(2 * m, p)
            inv[m:top:2] = [half * x % pk for x in inv[m // 2 : (top + 1) // 2]]
            for k in range(m + 1, top, 2):
                inv[k] = -(pk // k) * inv[pk % k] % pk
            m *= 2
        self._h = [s % pk for s in accumulate(inv)]
        self._h2 = None

    @property
    def ctx(self) -> PrimeContext:
        ctx = self._ctx()
        if ctx is None:
            raise ReferenceError("the PrimeContext of this HarmonicCache is gone")
        return ctx

    def scaled_at_p(self) -> int:
        """p H_p = p H_(p-1) + 1 mod p^K, the constant of the upper half.
        Summing p/(p+k) = sum_m (-1)^(m-1) (p/k)^m over k <= r, and p/p = 1,
        p H_(p+r) = p H_p + sum_(m<K) (-1)^(m-1) p^m H_r^(m) mod p^K, so
        p H_(p+r) = p H_p + p H_r mod p^2: a reader of p H_(p+r) mod p^2
        needs only this and the sums below p."""
        ctx = self.ctx
        return (ctx.p * self._h[ctx.p - 1] + 1) % ctx.pk

    def _upper_half(self) -> list[int]:
        """p H_(p+r) for 0 <= r < p, from H_r by scaled_at_p's identity: one
        pass at K <= 2, and past K = 2 one more pass per order m, on the
        powers 1/k^m."""
        ctx = self.ctx
        p, pk = ctx.p, ctx.pk
        c = self.scaled_at_p()
        inv = self._inv
        high = [(c + p * x) % pk for x in self._h]
        power = inv
        for m in range(2, ctx.precision):
            power = [a * b % pk for a, b in zip(power, inv)]
            pm = (-p) ** m
            high = [(a - pm * s) % pk for a, s in zip(high, accumulate(power))]
        return high

    def _sums(self, order: int, n: int) -> list[int]:
        """The stored list of the given order, after checking that n is in
        its range: 0..2p-1 for order 1, 0..p-1 for order 2.  A list is
        built on the first read that needs it: the order-1 upper half on a
        read past p-1, the order-2 list on any read of order 2."""
        if order not in (1, 2):
            raise ValueError("only orders 1 and 2 are cached")
        p = len(self._inv)
        top = 2 * p - 1 if order == 1 else p - 1
        if not 0 <= n <= top:
            raise ValueError(f"H^({order})_{n} is outside the cached range 0..{top}")
        if order == 1:
            if n >= p and len(self._h) == p:
                self._h += self._upper_half()
            return self._h
        if self._h2 is None:
            pk = self.ctx.pk
            inv = self._inv
            self._h2 = [s % pk for s in accumulate(map(mul, inv, inv))]
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
    not a copy, for loops and closed forms that read many entries.  The
    list holds p entries until a read with n >= p builds the upper half;
    the verifier reads none, as it takes p H_(p+r) mod p^2 from
    harmonic_scaled_at_p and H_r."""
    return _harmonic_cache(ctx)._sums(order, n)


def harmonic_scaled_at_p(ctx: PrimeContext) -> int:
    """p H_p mod p^K off the context's harmonic cache, with which
    p H_(p+r) = p H_p + p H_r mod p^2 (HarmonicCache.scaled_at_p), so the
    order-1 list below p gives every p H_(p+r) mod p^2."""
    return _harmonic_cache(ctx).scaled_at_p()


def harmonic_inverses(ctx: PrimeContext) -> list[int]:
    """1/k mod p^K at index k for 0 < k < p, and 0 at k = 0: the terms of
    the harmonic cache's sums below p, from its one pass of inverses, the
    even k by halving.  This is the cache's own list, not a copy."""
    return _harmonic_cache(ctx)._inv


def _pack(c: list[int], w: int) -> int:
    """Kronecker substitution: one w-byte slot per residue, lowest first,
    the slots' little-endian bytes joined into one int.  A residue that
    does not fit in w bytes raises OverflowError."""
    return int.from_bytes(b"".join([x.to_bytes(w, "little") for x in c]), "little")


def _unpack(x: int, size: int, lo: int, hi: int, w: int, p: int) -> list[int]:
    """Slots lo..hi-1 of x, each w-byte slice read as an int, mod p.  x must
    fit in `size` slots (to_bytes raises OverflowError otherwise, so an
    operand longer than its caller claims cannot pass unnoticed)."""
    raw = x.to_bytes(size * w, "little")
    read = int.from_bytes
    return [read(raw[i : i + w], "little") % p for i in range(lo * w, hi * w, w)]


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
    one big-integer multiply by Kronecker substitution, in slots of
    _slot_bytes(n, p) bytes, as wide as p needs; -a is packed once
    and masked to m slots each round, so its middle slots are -t directly,
    and b stays packed with each new half OR-ed in above it.
    """
    w = _slot_bytes(n, p)
    bits = 8 * w
    neg_a = _pack([-c % p for c in a[:n]], w)
    b = [pow(a[0], -1, p)]
    packed_b = b[0]
    h = 1
    while h < n:
        m = min(2 * h, n)
        neg_t = _unpack((neg_a & ((1 << bits * m) - 1)) * packed_b, m + h, h, m, w, p)
        low_b = packed_b & ((1 << bits * (m - h)) - 1)
        c = _unpack(low_b * _pack(neg_t, w), 2 * (m - h), 0, m - h, w, p)
        packed_b |= _pack(c, w) << (bits * h)
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
        _, fi = ctx.factorial_tables(p - 1)
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
    from bernoulli_values and never builds this table; it is kept, not
    memoized, as the tests' oracle.
    """
    p = ctx.p
    n = (p - 1) // 2
    f, fi = ctx.factorial_tables(p - 1)
    w = _slot_bytes(n, p)
    cosh = _pack([u % p for u in fi[0 : p - 2 : 2]], w)
    c = _unpack(_pack(_sinh_inverse(ctx), w) * cosh, 2 * n, 0, n, w, p)
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
    f, fi = ctx.factorial_tables(p - 1)
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
    J is at most (p-3)/2, the last sigma_j kept, and n! is a unit.  The
    verifier reads bernoulli_values instead, and the tests check one
    against the other.
    """
    p = ctx.p
    if n < 0 or n > p - 2:
        raise ValueError("bernoulli_poly supports 0 <= n <= p - 2")
    x = as_fraction(x)
    if x.denominator % p == 0:
        raise DenominatorDivisibleByP(f"denominator of {x} is divisible by {p}")
    z = (x.numerator * pow(x.denominator, -1, p) - (p + 1) // 2) % p
    sigma = _sinh_inverse(ctx)
    f, fi = ctx.factorial_tables(p - 1)
    y = 4 * z * z % p
    total = 0
    # fi[n::-2] holds the J + 1 factors 1/(n-2j)!, so zip stops at sigma_J
    for s, i in zip(sigma, fi[n::-2]):
        total = (total * y + s * i) % p
    return total * f[n] * pow(z, n % 2, p) * pow(4, -(n // 2), p) % p


def _primitive_root(p: int) -> int:
    """The least primitive root mod p: the least g with g^((p-1)/q) != 1
    for each prime q dividing p - 1, its primes found by trial division."""
    m = n = p - 1
    primes = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.append(n)
    g = 2
    while any(pow(g, m // q, p) == 1 for q in primes):
        g += 1
    return g


def _inverse_power_tables(p: int) -> tuple[list[int], list[int]]:
    """r^(-2) and r^(-3) mod p at index r < p, 0 at r = 0: one running
    product g^i over the powers of a primitive root g, n = p - 1 of them,
    one multiply-and-reduce a step.  At r = g^i, r^(-2) = g^(-2i mod n)
    and r^(-3) = g^(-3i mod n) are read off that same list: along i they
    are its slices at step -2 and -3 from 2n and 3n in the list repeated,
    so nothing is inverted."""
    g = _primitive_root(p)
    n = p - 1
    powers = [1] * n
    x = 1
    for i in range(1, n):
        x = x * g % p
        powers[i] = x
    ext = powers * 3 + [1]  # g^j at every 0 <= j <= 3n
    t2, t3 = [0] * p, [0] * p
    for r, a, b in zip(powers, ext[2 * n : 0 : -2], ext[3 * n : 0 : -3]):
        t2[r] = a
        t3[r] = b
    return t2, t3


# chi(j) by j mod f: the trivial character at f = 1, and the odd characters
# mod 3 and mod 4
_CHARACTERS = {1: (1,), 3: (0, 1, -1), 4: (0, 1, 0, -1)}


def _character_bernoulli(t: list[int], n: int, f: int, c: int) -> int:
    """B_(n,chi) mod p by Voronoi's congruence at multiplier c, for chi in
    _CHARACTERS[f] and t[j] = j^(n-1) mod p (p = len(t), t[0] = 0); see
    bernoulli_values.  ValueError where c is not prime to fp, where the
    derivation fails, or c^n = chi(c) mod p, where the congruence cannot be
    solved for B_(n,chi)."""
    p = len(t)
    chi = _CHARACTERS[f]
    d = (pow(c, n, p) - chi[c % f]) % p
    if gcd(c, f * p) != 1 or d == 0:
        raise ValueError(f"c = {c} is not admissible at p = {p}, n = {n}, f = {f}")
    # floor(cj/(fp)) = #{q in 1..c-1 : j >= qfp/c}; t repeated f times holds
    # j^(n-1) at every 0 <= j < fp, so each q and class e mod f is one slice
    tf = t * f
    total = 0
    for q in range(1, c):
        a = -(-q * f * p // c)
        total += sum(x * sum(tf[a + (e - a) % f :: f]) for e, x in enumerate(chi) if x)
    return n * pow(c, n - 1, p) * total * pow(d, -1, p) % p


def bernoulli_values(ctx: PrimeContext) -> tuple[int, int, int]:
    """(B_(p-3), B_(p-2)(1/3), B_(p-2)(1/4)) mod p, the three Bernoulli
    values the verifier reads, in O(p) by Voronoi's congruence, as in
    Harvey's multimodular Bernoulli algorithm (Math. Comp. 79, 2010).

    Let chi be a real character mod f, S = sum chi(j) j^n over 0 < j < fp
    with p not dividing j, and c prime to fp.  For 2 <= n <= p - 2,
    S = fp B_(n,chi) mod p^2.  As j runs over those j, so does r = cj mod
    fp, with chi(r) = chi(c) chi(j) and cj = r + fp q, q = floor(cj/(fp)).
    So c^n S = sum chi(j) (r + fp q)^n = chi(c) S + n fp sum chi(j) q
    r^(n-1), and r = cj mod p; divided by fp,
    (c^n - chi(c)) B_(n,chi) = n c^(n-1) sum chi(j) floor(cj/(fp)) j^(n-1)
    mod p, which gives B_(n,chi) where c^n - chi(c) is a unit.
    - At f = 1 (chi = 1) and n = p - 3 that is B_(p-3), with j^(n-1) =
      j^(-3).
    - At f = 3 and 4, chi odd and n = p - 2 odd, B_(n,chi) = f^(n-1)
      sum_(a<f) chi(a) B_n(a/f) = 2 f^(n-1) B_n(1/f), as B_n(1 - x) =
      -B_n(x).  Here j^(n-1) = j^(-2) and f^(n-1) = f^(-2), so B_n(1/f) =
      f^2 B_(n,chi) / 2.
    Both power tables come from one list of the powers of a primitive
    root (_inverse_power_tables).

    c is the least multiplier prime to fp: 2 at f = 1 and f = 3, and 3 at
    f = 4.  The floor then takes c values, so each sum is at most 2(c-1)
    strided slice sums: one at f = 1, Z.-H. Sun's half-range sum of j^(-3)
    over p/2 < j < p.  Each c is admissible at every p > 3: c^n - chi(c)
    is 1/4 - 1, 1/2 + 1 and 1/3 + 1 mod p, a unit but at p = 2, 3.

    At these small c the sums are sums of inverse powers over ranges, and
    LEMMA_SUNH sets harmonic sums over ranges against them.  The power
    tables share no code with the harmonic cache or its inverses, so the
    lemma still compares two independent computations of related sums, as
    it did against sigma.  Only p is read off the context, and nothing is
    memoized: the verifier keeps the three ints.  bernoulli_poly over sigma
    stays public as library API and as the tests' oracle for these values.
    """
    p = ctx.p
    t2, t3 = _inverse_power_tables(p)
    half = (p + 1) // 2
    return (
        _character_bernoulli(t3, p - 3, 1, 2),
        _character_bernoulli(t2, p - 2, 3, 2) * 9 * half % p,
        _character_bernoulli(t2, p - 2, 4, 3) * 16 * half % p,
    )


def _first_level_unit(m: int, ctx: PrimeContext) -> int:
    # product of 1 <= k <= m with p not dividing k, mod p^K
    fu, fi = ctx.factorial_tables(m)
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
