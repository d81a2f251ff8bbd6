"""Valuation-aware p-adic arithmetic truncated at a fixed working precision.

Every quantity is carried as p^v * u with the unit u known modulo p^prec.
Keeping the valuation separate from the unit lets sums mix terms whose
valuations differ (harmonic tails, binomial coefficients with p in a
denominator) without silently losing digits: addition aligns valuations
and shrinks the known precision accordingly, interval style.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import prod
from numbers import Rational

__all__ = [
    "EXACT_ZERO",
    "PAdicError",
    "InsufficientPrecision",
    "NegativeValuation",
    "DenominatorDivisibleByP",
    "PrimeContext",
    "PAdicValue",
    "is_prime",
    "split_p",
    "as_fraction",
    "batch_inverse",
    "binomial_int",
    "binomial_rational",
    "binomial_residues",
]

# Valuation bound reported for an exact zero; far above any working precision.
EXACT_ZERO = 10**9

# Factors of binomial_rational multiplied exactly before one split and reduction.
_CHUNK = 32


class PAdicError(ArithmeticError):
    """Base class for precision and valuation failures."""


class InsufficientPrecision(PAdicError):
    """A residue was requested beyond the digits actually known."""


class NegativeValuation(PAdicError):
    """A residue was requested for a value outside the p-adic integers."""


class DenominatorDivisibleByP(PAdicError):
    """A rational argument has p in its denominator where it must not."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 prime bases.  Exact below
    psi_13 = 3317044064679887385961981, the least composite that passes
    them all (psi_12 = 318665857834031151167461 passes every base to 37);
    above psi_13 it is a strong probable-prime test."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def split_p(n: int, p: int) -> tuple[int, int]:
    """Write nonzero n as p^v * u with p not dividing u; returns (v, u)."""
    if n == 0:
        raise ValueError("cannot split zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def as_fraction(x) -> Fraction:
    """An int or a Fraction (any numbers.Rational) as an exact Fraction.
    Anything else raises TypeError: a float would enter at its binary
    value, so 1/3 would silently become a different rational."""
    if not isinstance(x, Rational):
        raise TypeError(f"expected an int or a Fraction, not {type(x).__name__} {x!r}")
    return Fraction(x)


def batch_inverse(units: Sequence[int], mod: int) -> list[int]:
    """The inverses mod `mod` of a sequence of units, from one pow: prefix
    products, the inverse of their total, and a walk back that peels one
    factor off per step (Montgomery's trick)."""
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


class PrimeContext:
    """A prime p > 3 together with the working modulus p^K and its caches.

    The factorial cache is the one factorial table of the prime: for each
    n, the valuation of n!, its p-free unit mod p^K and the inverse of that
    unit, so a binomial needs no modular inversion.  Valuations and units
    reach at least 3p from the first read; inverses reach only the highest
    index asked for, 2p - 2 in the verifier.  The binomials, the
    gamma function and the Bernoulli and Euler series (reduced mod p) all
    read it through factorial_tables.  The context is logically immutable;
    the factorial cache and the per-prime tables underneath are append-only
    memos, so sharing one context across helpers inside a single process
    is safe.
    """

    def __init__(self, p: int, precision: int):
        if p <= 3 or not is_prime(p):
            raise ValueError(f"{p} is not a prime greater than 3")
        self._start(p, precision)

    def with_precision(self, precision: int) -> PrimeContext:
        """A new context for this context's prime at another precision, with
        empty caches.  The prime was proved prime when this context was
        made, so it is not tested again."""
        ctx = object.__new__(PrimeContext)
        ctx._start(self.p, precision)
        return ctx

    def _start(self, p: int, precision: int) -> None:
        if precision < 1:
            raise ValueError("precision must be at least 1")
        self.p = p
        self.precision = precision
        self.pk = p**precision
        self.powers = tuple(p**i for i in range(precision + 1))
        # factorial caches: valuation of n!, the p-free part of n! mod p^K
        # and its inverse mod p^K
        self._fact_val = [0]
        self._fact_unit = [1]
        self._fact_inv = [1]
        # per-prime tables that special.py builds on first use
        self._harmonic_cache = None
        self._sigma_mod_p = None

    def __repr__(self) -> str:
        return f"PrimeContext(p={self.p}, precision={self.precision})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrimeContext):
            return NotImplemented
        return (self.p, self.precision) == (other.p, other.precision)

    def __hash__(self) -> int:
        return hash((self.p, self.precision))

    def inverse_unit(self, u: int) -> int:
        """Inverse of a p-free residue modulo p^K."""
        return pow(u, -1, self.pk)

    def _p_free_parts(self, lo: int, hi: int) -> tuple[list[int], list[int]]:
        """The p-free parts of lo..hi-1 and their valuations: the plain
        indices, with only the multiples of p split."""
        p = self.p
        parts = list(range(lo, hi))
        steps = [0] * len(parts)
        for m in range(lo + -lo % p, hi, p):
            steps[m - lo], parts[m - lo] = split_p(m, p)
        return parts, steps

    def factorial_decomposed(self, n: int) -> tuple[int, int]:
        """n! as (valuation, p-free unit mod p^K).

        The valuation grows by v_p(m) at each step m, matching Legendre's
        digit-sum formula; the unit is the running product of the p-free
        parts of 1..n reduced mod p^K.  The cache grows in blocks, at least
        to 3p (past 3p - 2, the largest n whose unit the lemma loops read)
        and at least doubling, and the valuations are the running sum of
        the steps' v_p.  The inverses are not walked here but by
        factorial_tables, only as far as a reader asks.
        """
        if n < 0:
            raise ValueError("factorial of a negative integer")
        fv = self._fact_val
        fu = self._fact_unit
        if n < len(fv):
            return fv[n], fu[n]
        pk = self.pk
        start = len(fv)
        parts, steps = self._p_free_parts(start, max(n, 2 * start, 3 * self.p) + 1)
        steps[0] += fv[-1]
        fv.extend(accumulate(steps))
        unit = fu[-1]
        for u in parts:
            unit = unit * u % pk
            fu.append(unit)
        return fv[n], fu[n]

    def factorial_tables(self, n: int) -> tuple[list[int], list[int], list[int]]:
        """The factorial caches grown to index n, for loops that read many
        entries: v_p(m!), the p-free unit of m! mod p^K, and its inverse.
        Units reach at least 3p from the first read (factorial_decomposed),
        inverses only n.  New inverses cost one inversion, at index n, and
        a backward walk inv[m-1] = inv[m] * (p-free part of m)."""
        fv, fu, fi = self._fact_val, self._fact_unit, self._fact_inv
        if n >= len(fv):
            self.factorial_decomposed(n)
        if n >= len(fi):
            pk = self.pk
            parts, _ = self._p_free_parts(len(fi) + 1, n + 1)
            x = pow(fu[n], -1, pk)
            inv = [x]
            for u in reversed(parts):
                x = x * u % pk
                inv.append(x)
            inv.reverse()
            fi.extend(inv)
        return fv, fu, fi


@dataclass(frozen=True, slots=True)
class PAdicValue:
    """A truncated p-adic number p^v * (unit + O(p^prec)).

    Nonzero: 1 <= unit < p^prec, p does not divide unit, and the value is
    pinned down modulo p^(v + prec).  Zero: unit == 0 and prec == 0, with v
    holding the absolute bound, i.e. the value is known to be O(p^v); an
    exact zero carries v = EXACT_ZERO.
    """

    ctx: PrimeContext
    v: int
    unit: int
    prec: int

    # ---- constructors ----

    @classmethod
    def zero(cls, ctx: PrimeContext, bound: int = EXACT_ZERO) -> "PAdicValue":
        return cls(ctx, min(bound, EXACT_ZERO), 0, 0)

    @classmethod
    def from_int(cls, n: int, ctx: PrimeContext) -> "PAdicValue":
        """Embed an integer exactly, with the full K digits of the unit."""
        if n == 0:
            return cls.zero(ctx)
        v, u = split_p(n, ctx.p)
        return cls(ctx, v, u % ctx.pk, ctx.precision)

    @classmethod
    def from_fraction(cls, q, ctx: PrimeContext) -> "PAdicValue":
        """Embed an exact rational; p may divide the denominator."""
        q = as_fraction(q)
        if q == 0:
            return cls.zero(ctx)
        vn, un = split_p(q.numerator, ctx.p)
        vd, ud = split_p(q.denominator, ctx.p)
        unit = un * ctx.inverse_unit(ud) % ctx.pk
        return cls(ctx, vn - vd, unit, ctx.precision)

    # ---- inspection ----

    @property
    def is_zero(self) -> bool:
        return self.unit == 0

    @property
    def valuation(self) -> int:
        if self.unit == 0:
            raise ValueError("zero has no finite valuation")
        return self.v

    def residue(self, m: int) -> int:
        """The canonical residue in [0, p^m), for 1 <= m <= K.

        Raises NegativeValuation if the value is not a p-adic integer and
        InsufficientPrecision if fewer than m digits are actually known.
        """
        if m < 1 or m > self.ctx.precision:
            raise ValueError(f"residue exponent {m} outside 1..{self.ctx.precision}")
        if self.unit == 0:
            if self.v >= m:
                return 0
            raise InsufficientPrecision(f"zero known only to O(p^{self.v})")
        if self.v < 0:
            raise NegativeValuation(f"valuation {self.v} < 0")
        if self.v >= m:
            return 0
        if self.v + self.prec < m:
            raise InsufficientPrecision(
                f"known to O(p^{self.v + self.prec}), residue mod p^{m} requested"
            )
        return self.unit * self.ctx.powers[self.v] % self.ctx.powers[m]

    # ---- arithmetic ----

    def _coerce(self, other):
        if isinstance(other, PAdicValue):
            a, b = self.ctx, other.ctx
            if b is not a and b != a:
                raise ValueError(f"cannot mix {a} and {b}")
            return other
        if isinstance(other, int):
            return PAdicValue.from_int(other, self.ctx)
        if isinstance(other, Fraction):
            return PAdicValue.from_fraction(other, self.ctx)
        return NotImplemented

    def __neg__(self) -> "PAdicValue":
        if self.unit == 0:
            return self
        p = self.ctx.p
        return PAdicValue(self.ctx, self.v, p**self.prec - self.unit, self.prec)

    def __add__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return b
        a = self
        ctx = a.ctx
        if a.unit == 0 and b.unit == 0:
            return PAdicValue.zero(ctx, min(a.v, b.v))
        if a.unit == 0:
            a, b = b, a
        if b.unit == 0:
            # a + O(p^bound): the tail clips a's known digits
            bound = b.v
            if bound >= a.v + a.prec:
                return a
            if bound <= a.v:
                return PAdicValue.zero(ctx, bound)
            prec = bound - a.v
            return PAdicValue(ctx, a.v, a.unit % ctx.p**prec, prec)
        vmin = min(a.v, b.v)
        known = min(a.v + a.prec, b.v + b.prec)
        rel = known - vmin
        p = ctx.p
        s = (a.unit * p ** (a.v - vmin) + b.unit * p ** (b.v - vmin)) % p**rel
        if s == 0:
            return PAdicValue.zero(ctx, known)
        w, u = split_p(s, p)
        return PAdicValue(ctx, vmin + w, u, rel - w)

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return b
        return self + (-b)

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return b
        return b + (-self)

    def __mul__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return b
        a = self
        ctx = a.ctx
        if a.unit == 0 or b.unit == 0:
            # O(p^x) * p^y(unit) = O(p^(x+y)); bounds add in every mix
            return PAdicValue.zero(ctx, min(a.v + b.v, EXACT_ZERO))
        prec = min(a.prec, b.prec)
        return PAdicValue(ctx, a.v + b.v, a.unit * b.unit % ctx.p**prec, prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return b
        a = self
        ctx = a.ctx
        if b.unit == 0:
            raise ZeroDivisionError("division by a p-adic zero")
        if a.unit == 0:
            return PAdicValue.zero(ctx, min(a.v - b.v, EXACT_ZERO))
        prec = min(a.prec, b.prec)
        mod = ctx.p**prec
        unit = a.unit * pow(b.unit, -1, mod) % mod
        return PAdicValue(ctx, a.v - b.v, unit, prec)

    def __rtruediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return b
        return b / self

    def __pow__(self, e: int) -> "PAdicValue":
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return PAdicValue.from_int(1, self.ctx) / self ** (-e)
        r = PAdicValue.from_int(1, self.ctx)
        base = self
        while e:
            if e & 1:
                r = r * base
            base = base * base
            e >>= 1
        return r


def binomial_int(n: int, k: int, ctx: PrimeContext) -> PAdicValue:
    """C(n, k) for integer n >= 0 as an exact p-adic value.

    Out-of-range k gives an exact zero.  The valuation equals the number of
    carries when adding k and n-k in base p, by way of the factorial cache;
    the unit is n!'s unit times the cached inverse units of k! and (n-k)!,
    with no modular inversion.
    """
    if n < 0:
        raise ValueError("binomial_int needs n >= 0; use binomial_rational otherwise")
    if k < 0 or k > n:
        return PAdicValue.zero(ctx)
    fv, fu, fi = ctx.factorial_tables(n)
    m = n - k
    unit = fu[n] * fi[k] * fi[m] % ctx.pk
    return PAdicValue(ctx, fv[n] - fv[k] - fv[m], unit, ctx.precision)


def binomial_residues(ctx: PrimeContext) -> Callable[[int, int], int]:
    """A function (n, k) -> C(n, k) mod ctx.pk = p^K, read off the
    factorial tables as unit * p^v (0 once v >= K): binomial_int's
    arithmetic in plain ints, for callers that need residues only.  A read
    grows the tables to n when they stop short of it.  The verifier passes
    its kernel context, so its binomials are residues mod the kernel
    modulus, p^2 in a sweep of every target.  As with binomial_int, k < 0
    or k > n gives 0 and n < 0 raises ValueError."""
    pw = ctx.powers
    pk = ctx.pk

    def binom(n: int, k: int) -> int:
        if n < 0:
            raise ValueError("binomial_residues needs n >= 0")
        if k < 0 or k > n:
            return 0
        fv, fu, fi = ctx.factorial_tables(n)
        v = fv[n] - fv[k] - fv[n - k]
        return fu[n] * fi[k] * fi[n - k] * pw[v] % pk if v < ctx.precision else 0

    return binom


def binomial_rational(a, m: int, ctx: PrimeContext) -> PAdicValue:
    """Generalized C(a, m) = a(a-1)...(a-m+1)/m! for rational a.

    The denominator of a must be coprime to p; the result may still have
    positive valuation (from p-divisible numerator factors) or negative
    valuation (from p-divisible m!).  With a = num/den, the factors
    num - i*den are multiplied exactly, _CHUNK at a time, and each chunk's
    product is split into p^v * unit and reduced mod p^K once; a zero
    factor makes its chunk's product, and so the result, exactly zero.
    The quotient by m! is one PAdicValue product with 1/m!, whose unit
    the factorial tables hold.
    """
    if m < 0:
        return PAdicValue.zero(ctx)
    a = as_fraction(a)
    if a.denominator % ctx.p == 0:
        raise DenominatorDivisibleByP(f"denominator of {a} is divisible by {ctx.p}")
    num = a.numerator
    den = a.denominator
    p = ctx.p
    pk = ctx.pk
    val = 0
    unit = 1
    for i in range(0, m, _CHUNK):
        f = prod(range(num - i * den, num - min(i + _CHUNK, m) * den, -den))
        if f == 0:
            return PAdicValue.zero(ctx)
        w, u = split_p(f, p)
        val += w
        unit = unit * u % pk
    if den != 1:
        unit = unit * ctx.inverse_unit(pow(den, m, pk)) % pk
    fv, _, fi = ctx.factorial_tables(m)
    inverse_factorial = PAdicValue(ctx, -fv[m], fi[m], ctx.precision)
    return PAdicValue(ctx, val, unit, ctx.precision) * inverse_factorial
