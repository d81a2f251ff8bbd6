"""Exact-rational checks of the finite binomial-sum identities that feed the
congruence machinery.

Each identity is evaluated over Fraction, never floating point, and both
sides must agree exactly case by case.  Identifiers I1..I14 follow the
internal catalog order; CYID is the partial-fraction inverse-binomial
expansion, and the two TRANSFORM entries compare the rewritten Domb forms
with the defining sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

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


# ---- the j-indexed telescoping family ----


def _i1(n, j):
    lhs = sum(Fraction(comb(k + j, 3 * j)) for k in range(2 * j, n))
    rhs = Fraction(comb(n + j, 3 * j + 1))
    return lhs, rhs


def _i6(n, j):
    lhs = sum(Fraction((3 * k + 2) * comb(k + j, 3 * j)) for k in range(2 * j, n))
    rhs = Fraction((3 * n + 1) * (3 * j + 1), 3 * j + 2) * comb(n + j, 3 * j + 1)
    return lhs, rhs


def _i10(n, j):
    lhs = sum(Fraction((3 * k + 1) * comb(k + 2 * j, 3 * j)) for k in range(j, n))
    rhs = Fraction((3 * n - 1) * (3 * j + 1), 3 * j + 2) * comb(n + 2 * j, 3 * j + 1)
    return lhs, rhs


def _i11(n, j):
    lhs = sum(Fraction(k * k * comb(k + j, 3 * j)) for k in range(2 * j, n))
    num = 1 - j * j - n * (2 * j + 3) * (3 * j + 1) + n * n * (3 * j + 1) * (3 * j + 2)
    rhs = Fraction(num, (3 * j + 2) * (3 * j + 3)) * comb(n + j, 3 * j + 1)
    return lhs, rhs


def _i12(n, j):
    lhs = sum(Fraction(k * k * comb(k + 2 * j, 3 * j)) for k in range(j, n))
    num = (
        1
        + 3 * j
        + 2 * j * j
        - n * (4 * j + 3) * (3 * j + 1)
        + n * n * (3 * j + 1) * (3 * j + 2)
    )
    rhs = Fraction(num, (3 * j + 2) * (3 * j + 3)) * comb(n + 2 * j, 3 * j + 1)
    return lhs, rhs


def _i13(n, j):
    lhs = sum(Fraction(k * comb(k + j, 3 * j)) for k in range(2 * j, n))
    rhs = Fraction(3 * n * j + n - j - 1, 3 * j + 2) * comb(n + j, 3 * j + 1)
    return lhs, rhs


def _i14(n, j):
    lhs = sum(Fraction(k * comb(k + 2 * j, 3 * j)) for k in range(j, n))
    rhs = Fraction(3 * n * j + n - 2 * j - 1, 3 * j + 2) * comb(n + 2 * j, 3 * j + 1)
    return lhs, rhs


# ---- the alternating hypergeometric family ----


def _ratio_prod(n: int, flip: bool) -> Fraction:
    # prod_{k<=n} (3k-1)/(3k-2), inverted when flip is set
    out = Fraction(1)
    for k in range(1, n + 1):
        out *= Fraction(3 * k - 1, 3 * k - 2) if not flip else Fraction(3 * k - 2, 3 * k - 1)
    return out


def _i2(n, _):
    lhs = Fraction(0)
    for k in range(n + 1):
        lhs += (
            comb(n, k)
            * comb(n + k, k)
            * (-1) ** k
            * (harmonic_exact(k) - harmonic_exact(2 * k))
            / (3 * k + 1)
        )
    inner = Fraction(0)
    prod = Fraction(1)
    for k in range(1, n + 1):
        prod *= Fraction(3 * k - 2, 3 * k - 1)
        inner += prod / k
    rhs = Fraction(1, 3 * n + 1) * _ratio_prod(n, flip=False) * inner
    return lhs, rhs


def _i5(n, _):
    lhs = sum(
        Fraction(comb(n, k) * comb(n + k, k) * (-1) ** k, 3 * k + 1)
        for k in range(n + 1)
    )
    rhs = Fraction(1, 3 * n + 1) * _ratio_prod(n, flip=False)
    return lhs, rhs


def _i7(n, _):
    lhs = sum(
        Fraction(comb(n, k) * comb(n + k, k) * (-1) ** k, 3 * k + 2)
        for k in range(n + 1)
    )
    rhs = Fraction(1, 3 * n + 2) * _ratio_prod(n, flip=True)
    return lhs, rhs


def _i8(n, _):
    lhs = Fraction(0)
    for k in range(n + 1):
        lhs += (
            comb(n, k)
            * comb(n + k, k)
            * (-1) ** k
            * (harmonic_exact(2 * k) - harmonic_exact(k))
            / (3 * k + 2)
        )
    inner = Fraction(0)
    prod = Fraction(1)
    for k in range(1, n + 1):
        prod *= Fraction(3 * k - 1, 3 * k - 2)
        inner += prod / k
    rhs = -Fraction(1, 3 * n + 2) * _ratio_prod(n, flip=True) * inner
    return lhs, rhs


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


def _cases_j_half(n_max):
    for n in range(1, n_max + 1):
        for j in range(n // 2 + 1):
            yield (n, j)


def _cases_j_full(n_max):
    for n in range(1, n_max + 1):
        for j in range(n + 1):
            yield (n, j)


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
    "I1": (_i1, _cases_j_half),
    "I2": (_i2, _cases_n),
    "I3": (_i3, _cases_n),
    "I4": (_i4, _cases_n),
    "I5": (_i5, _cases_n),
    "I6": (_i6, _cases_j_half),
    "I7": (_i7, _cases_n),
    "I8": (_i8, _cases_n),
    "I9": (_i9, _cases_n),
    "I10": (_i10, _cases_j_full),
    "I11": (_i11, _cases_j_half),
    "I12": (_i12, _cases_j_full),
    "I13": (_i13, _cases_j_half),
    "I14": (_i14, _cases_j_full),
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
