"""Exact-rational checks of the finite binomial-sum identities that feed the
congruence machinery.

Each identity is evaluated over ints and Fraction, never floating point,
and both sides must agree exactly case by case.  Identifiers I1..I14
follow the internal catalog order.  Eleven of them fall in two families,
each checked by one evaluator; the catalog states each such identity as
its family's parameters only.

- Telescoping, _telescoping(a, w, c), at 1 <= n and 0 <= j <= a n/2:
  sum_{(3-a)j <= k < n} w(k) C(k+aj, 3j) = c(n, j) C(n+aj, 3j+1).
  I1, I6 and I11 are a = 1 with w = 1, 3k+2 and k^2; I13 is a = 1 and
  I14 a = 2 with w = k; I10 is a = 2 with w = 3k+1, I12 a = 2 with k^2.
  The coefficients c are rationals in n and j (1 for I1).
- Alternating, in r = 1 or 2, at n >= 1, with
  P_r(n) = prod_{1<=k<=n} (3k-r)/(3k-3+r):
  _alternating(r), sum_{k<=n} (-1)^k C(n,k) C(n+k,k)/(3k+r) = P_r(n)/(3n+r),
  is I5 (r = 1) and I7 (r = 2); _alternating_harmonic(r, sign) is sign
  times both sides of
  sum_{k<=n} (-1)^k C(n,k) C(n+k,k) (H_k - H_2k)/(3k+r)
  = P_r(n)/(3n+r) sum_{1<=k<=n} P_(3-r)(k)/k,
  I2 (r = 1, sign = 1) and I8 (r = 2, sign = -1).  Neither pins r (both
  also hold at r = 4, 5 and 7 to n = 8), and the sign scales both sides,
  so a moved r or sign checks another true identity, not a false one.

I3, I4 and I9 have evaluators of their own.  CYID is the partial-fraction
inverse-binomial expansion, and the two TRANSFORM entries compare the
rewritten Domb forms with the defining sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial
from operator import mul, truediv

from .domb import domb_exact, domb_via_cz, domb_via_sun
from .padic import as_fraction

__all__ = [
    "IDENTITY_IDS",
    "IdentityReport",
    "check_identity",
    "check_all_identities",
    "binom_frac",
    "harmonic_exact",
]

_harm: list[Fraction] = [Fraction(0)]
_harm2: list[Fraction] = [Fraction(0)]


def harmonic_exact(n: int, order: int = 1) -> Fraction:
    """H_n or H_n^(2) as an exact rational for n >= 0, memoized."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if n < 0:
        raise ValueError(f"H_{n} is not defined for n < 0")
    table = _harm if order == 1 else _harm2
    while len(table) <= n:
        k = len(table)
        table.append(table[-1] + Fraction(1, k**order))
    return table[n]


def binom_frac(a, m: int) -> Fraction:
    """Generalized binomial a(a-1)...(a-m+1)/m! over the rationals."""
    if m < 0:
        return Fraction(0)
    a = as_fraction(a)
    num = Fraction(1)
    for i in range(m):
        num *= a - i
    return num / factorial(m)


@dataclass
class IdentityReport:
    identity: str
    cases: int
    passed: bool
    first_failure: tuple | None = None  # (params, lhs, rhs)


# ---- the telescoping family ----


def _telescoping(a: int, weight, coefficient):
    """The evaluator and the cases of one telescoping identity, with
    weight(k) and coefficient(n, j) as w and c of the module docstring."""

    def pair(n, j):
        lhs = sum(weight(k) * comb(k + a * j, 3 * j) for k in range((3 - a) * j, n))
        return lhs, coefficient(n, j) * comb(n + a * j, 3 * j + 1)

    def cases(n_max):
        for n in range(1, n_max + 1):
            for j in range(a * n // 2 + 1):
                yield (n, j)

    return pair, cases


# ---- the alternating family ----


def _ratio_prods(r: int, n: int) -> list[Fraction]:
    # P_r(0), ..., P_r(n), P_r(n) = prod_{k<=n} (3k-r)/(3k-3+r)
    ratios = (Fraction(3 * k - r, 3 * k - 3 + r) for k in range(1, n + 1))
    return list(accumulate(ratios, mul, initial=Fraction(1)))


def _alternating(r: int):
    """The evaluator and the cases of I5 (r = 1) or I7 (r = 2)."""

    def pair(n, _):
        lhs = sum(Fraction((-1) ** k * comb(n, k) * comb(n + k, k), 3 * k + r) for k in range(n + 1))
        return lhs, _ratio_prods(r, n)[n] / (3 * n + r)

    return pair, _cases_n


def _alternating_harmonic(r: int, sign: int):
    """The evaluator and the cases of I2 (r = 1, sign = 1) or I8 (r = 2,
    sign = -1)."""

    def pair(n, _):
        lhs = sum(
            (-1) ** k * comb(n, k) * comb(n + k, k) * (harmonic_exact(k) - harmonic_exact(2 * k)) / (3 * k + r)
            for k in range(n + 1)
        )
        inner = sum(map(truediv, _ratio_prods(3 - r, n)[1:], range(1, n + 1)))
        return sign * lhs, sign * _ratio_prods(r, n)[n] / (3 * n + r) * inner

    return pair, _cases_n


# ---- the identities with evaluators of their own ----


def _i3(n, _):
    lhs = Fraction(0)
    for r in range(1, n + 1):
        inner = sum(Fraction(1, k * (3 * k - 1)) for k in range(1, r + 1))
        lhs += Fraction(comb(n, r) * (-1) ** r, r) * inner
    rhs = harmonic_exact(n, 2)
    for k in range(1, n + 1):
        rhs -= Fraction((-1) ** k) / (k * k * binom_frac(Fraction(-2, 3), k))
    return lhs, rhs


def _i4(n, _):
    a = Fraction(-1, 3)
    lhs = sum(binom_frac(a, 2 * n - k) * binom_frac(a, k - 1) for k in range(1, n + 1))
    prod = Fraction(1)
    for k in range(1, n + 1):
        prod *= Fraction((3 * k - 2) * (6 * k - 1), 9 * k * (2 * k - 1))
    rhs = -Fraction(3 * n, 6 * n - 1) * prod
    return lhs, rhs


def _i9(n, _):
    a = Fraction(-2, 3)
    lhs = sum(binom_frac(a, 2 * n - k) * binom_frac(a, k - 1) for k in range(1, n + 1))
    prod = Fraction(1)
    for k in range(1, n + 1):
        prod *= Fraction((3 * k - 1) * (6 * k - 5), 9 * k * (2 * k - 1))
    rhs = -3 * n * prod
    return lhs, rhs


def _cyid(n, k):
    lhs = Fraction(1, comb(n + 1 + k, k))
    rhs = (n + 1) * sum(
        Fraction(comb(n, r) * (-1) ** r, k + r + 1) for r in range(n + 1)
    )
    return lhs, rhs


# ---- the Domb transforms, against the defining sum ----


def _cz(n):
    return domb_via_cz(n), domb_exact(n)


def _sun(n):
    return domb_via_sun(n), domb_exact(n)


# ---- case generators ----


def _cases_n(n_max):
    for n in range(1, n_max + 1):
        yield (n, None)


def _cases_n0(n_max):
    for n in range(n_max + 1):
        yield (n,)


def _cases_nk(n_max):
    for n in range(n_max + 1):
        for k in range(n_max + 1):
            yield (n, k)


_CATALOG: dict[str, tuple] = {
    "I1": _telescoping(1, lambda k: 1, lambda n, j: 1),
    "I2": _alternating_harmonic(1, 1),
    "I3": (_i3, _cases_n),
    "I4": (_i4, _cases_n),
    "I5": _alternating(1),
    "I6": _telescoping(1, lambda k: 3 * k + 2, lambda n, j: Fraction((3 * n + 1) * (3 * j + 1), 3 * j + 2)),
    "I7": _alternating(2),
    "I8": _alternating_harmonic(2, -1),
    "I9": (_i9, _cases_n),
    "I10": _telescoping(2, lambda k: 3 * k + 1, lambda n, j: Fraction((3 * n - 1) * (3 * j + 1), 3 * j + 2)),
    "I11": _telescoping(
        1,
        lambda k: k * k,
        lambda n, j: Fraction(
            1 - j * j - n * (2 * j + 3) * (3 * j + 1) + n * n * (3 * j + 1) * (3 * j + 2), (3 * j + 2) * (3 * j + 3)
        ),
    ),
    "I12": _telescoping(
        2,
        lambda k: k * k,
        lambda n, j: Fraction(
            1 + 3 * j + 2 * j * j - n * (4 * j + 3) * (3 * j + 1) + n * n * (3 * j + 1) * (3 * j + 2),
            (3 * j + 2) * (3 * j + 3),
        ),
    ),
    "I13": _telescoping(1, lambda k: k, lambda n, j: Fraction(3 * n * j + n - j - 1, 3 * j + 2)),
    "I14": _telescoping(2, lambda k: k, lambda n, j: Fraction(3 * n * j + n - 2 * j - 1, 3 * j + 2)),
    "CYID": (_cyid, _cases_nk),
    "CZ_TRANSFORM": (_cz, _cases_n0),
    "SUN_TRANSFORM": (_sun, _cases_n0),
}

IDENTITY_IDS = tuple(_CATALOG)


def check_identity(identity: str, n_max: int = 40) -> IdentityReport:
    """Verify one catalog identity exactly for all cases up to n_max >= 1.
    A smaller n_max is an error: checking no case is not a pass."""
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, not {n_max}")
    if identity not in _CATALOG:
        raise KeyError(f"unknown identity {identity!r}")
    fn, gen = _CATALOG[identity]
    cases = 0
    for params in gen(n_max):
        cases += 1
        lhs, rhs = fn(*params)
        if lhs != rhs:
            return IdentityReport(identity, cases, False, (params, lhs, rhs))
    return IdentityReport(identity, cases, True)


def check_all_identities(n_max: int = 40) -> list[IdentityReport]:
    return [check_identity(name, n_max) for name in IDENTITY_IDS]
