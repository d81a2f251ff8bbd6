"""Valuation-aware p-adic arithmetic truncated at a fixed working precision.

Every quantity is carried as p^v * u with the unit u known modulo p^prec.
Keeping the valuation separate from the unit lets sums mix terms whose
valuations differ (harmonic tails, binomial coefficients with p in a
denominator) without silently losing digits: addition aligns valuations
and shrinks the known precision accordingly, interval style.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

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
    "binomial_int",
    "binomial_rational",
]

# Valuation bound reported for an exact zero; far above any working precision.
EXACT_ZERO = 10**9

# Entries kept in each context's memo of unit inverses mod p^K.
INVERSE_CACHE_BOUND = 4096


class PAdicError(ArithmeticError):
    """Base class for precision and valuation failures."""


class InsufficientPrecision(PAdicError):
    """A residue was requested beyond the digits actually known."""


class NegativeValuation(PAdicError):
    """A residue was requested for a value outside the p-adic integers."""


class DenominatorDivisibleByP(PAdicError):
    """A rational argument has p in its denominator where it must not."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the fixed base set is exact past 3*10^24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


class PrimeContext:
    """A prime p > 3 together with the working modulus p^K and unit caches.

    The context is logically immutable; the factorial and inverse caches
    underneath are append-only memo tables, so sharing one context across
    helpers inside a single process is safe.
    """

    def __init__(self, p: int, precision: int):
        if precision < 1:
            raise ValueError("precision must be at least 1")
        if p <= 3 or not is_prime(p):
            raise ValueError(f"{p} is not a prime greater than 3")
        self.p = p
        self.precision = precision
        self.pk = p**precision
        self.powers = tuple(p**i for i in range(precision + 1))
        self._inv: dict[int, int] = {}
        # factorial caches: valuation of n! and the p-free part of n! mod p^K
        self._fact_val = [0]
        self._fact_unit = [1]

    def __repr__(self) -> str:
        return f"PrimeContext(p={self.p}, precision={self.precision})"

    def inverse_unit(self, u: int) -> int:
        """Inverse of a p-free residue modulo p^K, with a small memo table."""
        u %= self.pk
        hit = self._inv.get(u)
        if hit is not None:
            return hit
        r = pow(u, -1, self.pk)
        if len(self._inv) < INVERSE_CACHE_BOUND:
            self._inv[u] = r
        return r

    def factorial_decomposed(self, n: int) -> tuple[int, int]:
        """n! as (valuation, p-free unit mod p^K).

        The valuation grows by v_p(m) at each step m, matching Legendre's
        digit-sum formula; the unit is the running product of the p-free
        parts of 1..n reduced mod p^K.
        """
        if n < 0:
            raise ValueError("factorial of a negative integer")
        fv = self._fact_val
        fu = self._fact_unit
        if n < len(fv):
            return fv[n], fu[n]
        p = self.p
        pk = self.pk
        val = fv[-1]
        unit = fu[-1]
        for m in range(len(fv), n + 1):
            w = 0
            mm = m
            while mm % p == 0:
                mm //= p
                w += 1
            val += w
            unit = unit * mm % pk
            fv.append(val)
            fu.append(unit)
        return val, unit


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
        q = Fraction(q)
        if q == 0:
            return cls.zero(ctx)
        vn, un = split_p(q.numerator, ctx.p)
        vd, ud = split_p(q.denominator, ctx.p)
        unit = un * ctx.inverse_unit(ud) % ctx.pk
        return cls(ctx, vn - vd, unit, ctx.precision)

    @classmethod
    def from_residue(cls, r: int, ctx: PrimeContext, abs_prec: int | None = None) -> "PAdicValue":
        """The class of r mod p^abs_prec (default abs_prec = K).

        Use this when r was produced by plain modular arithmetic and nothing
        is known beyond p^abs_prec.
        """
        if abs_prec is None:
            abs_prec = ctx.precision
        if abs_prec < 1:
            raise ValueError("abs_prec must be at least 1")
        r %= ctx.p**abs_prec
        if r == 0:
            return cls.zero(ctx, abs_prec)
        v, u = split_p(r, ctx.p)
        prec = abs_prec - v
        if prec > ctx.precision:
            prec = ctx.precision
            u %= ctx.pk
        return cls(ctx, v, u, prec)

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
        if self.v + self.prec < m:
            raise InsufficientPrecision(
                f"known to O(p^{self.v + self.prec}), residue mod p^{m} requested"
            )
        return self.unit * self.ctx.powers[self.v] % self.ctx.powers[m]

    # ---- arithmetic ----

    def _coerce(self, other):
        if isinstance(other, PAdicValue):
            a, b = self.ctx, other.ctx
            if b is not a and (b.p, b.precision) != (a.p, a.precision):
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
        mod = p**rel
        s = (a.unit * p ** (a.v - vmin) + b.unit * p ** (b.v - vmin)) % mod
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
        unit = a.unit * b.unit % ctx.p**prec
        return PAdicValue(ctx, a.v + b.v, unit, prec)

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
    carries when adding k and n-k in base p, by way of the factorial cache.
    """
    if n < 0:
        raise ValueError("binomial_int needs n >= 0; use binomial_rational otherwise")
    if k < 0 or k > n:
        return PAdicValue.zero(ctx)
    vn, un = ctx.factorial_decomposed(n)
    vk, uk = ctx.factorial_decomposed(k)
    vm, um = ctx.factorial_decomposed(n - k)
    unit = un * ctx.inverse_unit(uk * um % ctx.pk) % ctx.pk
    return PAdicValue(ctx, vn - vk - vm, unit, ctx.precision)


def binomial_rational(a, m: int, ctx: PrimeContext) -> PAdicValue:
    """Generalized C(a, m) = a(a-1)...(a-m+1)/m! for rational a.

    The denominator of a must be coprime to p; the result may still have
    positive valuation (from p-divisible numerator factors) or negative
    valuation (from p-divisible m!).
    """
    if m < 0:
        return PAdicValue.zero(ctx)
    a = Fraction(a)
    if a.denominator % ctx.p == 0:
        raise DenominatorDivisibleByP(f"denominator of {a} is divisible by {ctx.p}")
    num = a.numerator
    den = a.denominator
    pk = ctx.pk
    val = 0
    unit = 1
    for i in range(m):
        f = num - i * den
        if f == 0:
            return PAdicValue.zero(ctx)
        w, u = split_p(f, ctx.p)
        val += w
        unit = unit * u % pk
    fv, fu = ctx.factorial_decomposed(m)
    unit = unit * ctx.inverse_unit(pow(den, m, pk) * fu % pk) % pk
    return PAdicValue(ctx, val - fv, unit, ctx.precision)
