"""Both sides of every supercongruence target, evaluated per prime.

Left-hand sides of the Domb targets are partial sums of the Domb residue
table against geometric weights, nothing else; their right-hand sides go
through the p-adic kernel's tables (binomials, harmonic numbers, Fermat
quotients, the Bernoulli table).  Every right side is a plain int mod p^m:
binomials are read off the factorial tables as unit * p^v (but for
LEMMA_MPT's, a unit by math.comb, since its left side reads those
tables), harmonic sums are the harmonic cache's stored ints, a Fermat quotient is
(a^(p-1) mod p^(n+1) - 1) / p, the Euler number E_(p-3) is B_(p-2)(1/4)/8
mod p, and each rational coefficient is an int times the inverse of its
denominator, which is prime to p.  The three range-quantified lemmas
(LEMMA22, LEMMA_P2J, LEMMA_SH55) zip strided slices of the factorial
tables, the harmonic cache and one p/(3j+1) list over j < (p+1)/2, from
one batch inversion of its own.  Every factorial they read is below
3p < p^2, where v_p(n!) = floor(n/p), so each quotient's valuation is a
constant over a range, written once: 1 at every case of LEMMA_P2J; 1 at
every case of LEMMA22 but 3j+1 = p, where it is 0; and for C(2k,k) in
LEMMA_SH55, 0 below k = (p+1)/2 and 1 from there.  LEMMA_SH55 sums only
the terms that can be nonzero mod p^3: from k = (p+1)/2 on, a term is
p^2 from C(2k,k)^2 times p from p/(3k+1), except the one with
3k+1 = 2p.  Only LEMMA_MPT's left side, a
binomial at a rational top index, is still a PAdicValue.  The PAdicValue
forms and the per-case loops these replaced are kept as oracles in the
tests.  The two sides meet only in the final residue comparison, so a bug
in the closed forms cannot silently cancel against one in the sums.

Each table is kept to the digits its readers need.  The Domb table and its
weighted sums work mod p^K, K the largest requested m.  The kernel tables
work mod the largest requested kernel exponent (TargetSpec.kernel_exp),
which is m for every target but two: CONJ1_DP1 (m = 4) reads only
B_(p-3) mod p, and MUSUN_P5 (m = 5) no kernel table.  Their digits above
p^3 come from the Domb table, a Fermat quotient and 64^(p-1) mod p^K, so a
sweep of every target keeps the kernel tables mod p^3 and the Domb table
mod p^5.
"""

from __future__ import annotations

import os
import random
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import comb
from time import perf_counter

from .domb import DombTable
from .padic import PrimeContext, batch_inverse, binomial_rational, binomial_residues
from .quadform import decompose_x2_3y2
from .special import bernoulli_poly, bernoulli_table, harmonic_scaled

__all__ = [
    "Target",
    "CongruenceReport",
    "WrongPrimeClass",
    "PrimeVerifier",
    "verify_prime",
    "sweep",
    "sieve_primes",
    "SPECS",
    "TargetSpec",
    "applicable",
    "modulus_exponent",
]


class WrongPrimeClass(ValueError):
    """The target's congruence is only stated for the other residue class."""


class Target(str, Enum):
    THM11_4K = "THM11_4K"
    THM11_16K = "THM11_16K"
    THM12_4K = "THM12_4K"
    THM12_16K = "THM12_16K"
    THM13_K2_4K = "THM13_K2_4K"
    THM13_K2_16K = "THM13_K2_16K"
    THM13_K_4K = "THM13_K_4K"
    THM13_K_16K = "THM13_K_16K"
    CONJ1_DP1 = "CONJ1_DP1"
    CONJ2_MODP2 = "CONJ2_MODP2"
    MUSUN_P5 = "MUSUN_P5"
    LEMMA22 = "LEMMA22"
    LEMMA_MPT = "LEMMA_MPT"
    LEMMA_P2J = "LEMMA_P2J"
    LEMMA_SUNH = "LEMMA_SUNH"
    LEMMA_SH55 = "LEMMA_SH55"


_TARGET_INDEX = {t: i for i, t in enumerate(Target)}


@dataclass(frozen=True)
class TargetSpec:
    """Every fact about a target except its closed form: the CLI group it
    belongs to, the primes it is stated for, the exponent m of its modulus
    p^m, the PrimeVerifier method that evaluates it (by name, so the
    method is looked up on the verifier at call time), and the digits its
    right side reads off the kernel tables (the factorial tables, the
    harmonic cache, p/(3j+1), the Bernoulli table), which default to m."""

    group: str
    applies: Callable[[int], bool]
    mod_exp: Callable[[int], int]
    method: str
    kernel_exp: Callable[[int], int] | None = None

    def __post_init__(self):
        if self.kernel_exp is None:
            object.__setattr__(self, "kernel_exp", self.mod_exp)


def _every(p: int) -> bool:
    return True


def _one_mod_3(p: int) -> bool:
    return p % 3 == 1


def _two_mod_3(p: int) -> bool:
    return p % 3 == 2


def _exp(m: int) -> Callable[[int], int]:
    return lambda p: m


def _k2_exp(p: int) -> int:
    return 3 if p % 3 == 1 else 2


# The catalog.  A new target is one entry here plus the method it names.
# CONJ1_DP1 reads B_(p-3) mod p and MUSUN_P5 no kernel table at all: the
# digits above p^3 come from the Domb table, a Fermat quotient or a power.
SPECS: dict[Target, TargetSpec] = {
    Target.THM11_4K: TargetSpec("thm1.1", _every, _exp(3), "thm11_4k"),
    Target.THM11_16K: TargetSpec("thm1.1", _every, _exp(3), "thm11_16k"),
    Target.THM12_4K: TargetSpec("thm1.2", _one_mod_3, _exp(3), "thm12"),
    Target.THM12_16K: TargetSpec("thm1.2", _one_mod_3, _exp(3), "thm12"),
    Target.THM13_K2_4K: TargetSpec("thm1.3", _every, _k2_exp, "thm13_all"),
    Target.THM13_K2_16K: TargetSpec("thm1.3", _every, _k2_exp, "thm13_all"),
    Target.THM13_K_4K: TargetSpec("thm1.3", _two_mod_3, _exp(2), "thm13_all"),
    Target.THM13_K_16K: TargetSpec("thm1.3", _two_mod_3, _exp(2), "thm13_all"),
    Target.CONJ1_DP1: TargetSpec("conj1", _every, _exp(4), "conj1_dp1", _exp(1)),
    Target.CONJ2_MODP2: TargetSpec("conj2", _every, _exp(2), "conj2_mod_p2"),
    Target.MUSUN_P5: TargetSpec("musun", _every, _exp(5), "musun", _exp(0)),
    Target.LEMMA22: TargetSpec("lemmas", _one_mod_3, _exp(3), "lemma22_check"),
    Target.LEMMA_MPT: TargetSpec("lemmas", _one_mod_3, _exp(2), "lemma_mpt_check"),
    Target.LEMMA_P2J: TargetSpec("lemmas", _every, _exp(3), "lemma_p2j_check"),
    Target.LEMMA_SUNH: TargetSpec("lemmas", lambda p: p > 5, _exp(2), "lemma_sunh_check"),
    Target.LEMMA_SH55: TargetSpec("lemmas", _every, _exp(3), "lemma_sh55_check"),
}


# Each weight of weighted_sum as its coefficients on the moment sums
# sum k^i D_k b^(-k), i = 0, 1, 2.
_WEIGHTS = {
    "1": (1, 0, 0),
    "k": (0, 1, 0),
    "k2": (0, 0, 1),
    "3k+2": (2, 3, 0),
    "3k+1": (1, 3, 0),
    "3k2+k": (0, 1, 3),
}


def applicable(target: Target, p: int) -> bool:
    """Whether the congruence is stated at all for this prime."""
    return SPECS[target].applies(p)


def modulus_exponent(target: Target, p: int) -> int:
    """The exponent m such that the target is a congruence mod p^m."""
    return SPECS[target].mod_exp(p)


def _fermat_quotient(a: int, p: int, n: int) -> int:
    """q_p(a) = (a^(p-1) - 1)/p mod p^n, from a^(p-1) mod p^(n+1)."""
    return (pow(a, p - 1, p ** (n + 1)) - 1) // p


@dataclass
class CongruenceReport:
    """One residue comparison.  For the range-quantified lemma targets the
    stored residues belong to the first failing case, or to the last case
    checked when everything passed."""

    prime: int
    target: Target
    modulus_exponent: int
    lhs: int
    rhs: int
    passed: bool
    millis: float = 0.0


class PrimeVerifier:
    """Shared per-prime state: the Domb table and its sums on one side, the
    kernel context with its tables on the other.

    ``want`` is the set of requested targets that are stated at p, worked
    out once here.  ``precision``, K, is the largest modulus exponent m in
    ``want`` (1 when it is empty); the Domb table and the weighted sums are
    kept mod p^K, and each row is reduced mod p^m from ``powers``.  ``ctx``
    is the kernel context: its precision is the largest kernel exponent
    (``TargetSpec.kernel_exp``) in ``want``, at least 1, and the factorial
    tables, the harmonic cache, p/(3j+1) and the Bernoulli table are kept
    to that many digits, p^3 for an all-targets sweep.  Every side is ring
    arithmetic with no division by p, so no digit above a target's m is
    needed, and a target's residues do not depend on which other targets
    are requested.  The shared tables are built on first read and kept.
    """

    def __init__(self, p: int, targets=None):
        if targets is None:
            targets = Target
        self.want = frozenset(t for t in targets if applicable(t, p))
        self.ctx = PrimeContext(p, max([1] + [SPECS[t].kernel_exp(p) for t in self.want]))
        self.precision = max((modulus_exponent(t, p) for t in self.want), default=1)
        self.powers = tuple(p**i for i in range(self.precision + 1))
        self.p = p
        self._sums: dict[str, int] = {}

    # ---- shared pieces ----

    @cached_property
    def domb_table(self) -> DombTable:
        """D_0 .. D_(p-1) mod p^K, on ``ctx`` when the kernel works to K
        digits too and on a context of its own at K otherwise."""
        ctx = self.ctx
        if ctx.precision != self.precision:
            ctx = ctx.with_precision(self.precision)
        return DombTable(ctx)

    def weighted_sum(self, base: int, weight: str) -> int:
        """sum_{k<p} w(k) D_k base^(-k) mod p^K for w in 1, k, k2, 3k+2,
        3k+1, 3k2+k.  Every k below p contributes; nothing is truncated.
        The first call at a base fills all six weights there from one pass
        of three moment sums."""
        key = f"{weight}/{base}"
        if key not in self._sums:
            pk = self.powers[-1]
            moments = self._moment_sums(base)
            for name, coeffs in _WEIGHTS.items():
                self._sums[f"{name}/{base}"] = sum(c * s for c, s in zip(coeffs, moments)) % pk
        return self._sums[key]

    def _moment_sums(self, base: int) -> tuple[int, int, int]:
        """sum_{k<p} k^i D_k base^(-k) mod p^K for i = 0, 1, 2."""
        pk = self.powers[-1]
        ib = pow(base, -1, pk)
        s0 = s1 = s2 = 0
        w = 1
        for k, d in enumerate(self.domb_table.residues):
            t = d * w % pk
            s0 += t
            t *= k
            s1 += t
            s2 += k * t
            w = w * ib % pk
        return s0 % pk, s1 % pk, s2 % pk

    @cached_property
    def decomposition(self):
        return decompose_x2_3y2(self.p)

    def r3(self) -> int:
        """The correction unit used on the p = 2 (mod 3) side, mod the
        kernel modulus ctx.pk: the Fermat quotient combination (1 + 2p +
        (4/3)(2^(p-1)-1) - (3/2)(3^(p-1)-1)) times the square of
        C((p-1)/2, floor(p/6))."""
        p = self.p
        pk = self.ctx.pk
        t2 = pow(2, p - 1, pk) - 1
        t3 = pow(3, p - 1, pk) - 1
        core = 1 + 2 * p + 4 * t2 * pow(3, -1, pk) - 3 * t3 * pow(2, -1, pk)
        c = binomial_residues(self.ctx)((p - 1) // 2, p // 6)
        return core * c * c % pk

    @cached_property
    def _p_over_3j1(self) -> list[int]:
        """p/(3j+1) mod ctx.pk for 0 <= j < (p+1)/2, the range both LEMMA22
        and LEMMA_SH55 read: p times the inverse of 3j+1, from one batch
        inversion with no read of the factorial tables or the harmonic
        cache.  Below (p+1)/2, 3j+1 < 2p, so p divides 3j+1 only at
        3j+1 = p (p = 1 mod 3), where p/(3j+1) = 1."""
        p = self.p
        pk = self.ctx.pk
        units = range(1, 3 * ((p + 1) // 2), 3)
        inv = batch_inverse([1 if u == p else u for u in units], pk)
        return [1 if u == p else p * x % pk for u, x in zip(units, inv)]

    def _exponent(self, target: Target) -> int:
        """The target's m at this prime; WrongPrimeClass where it is not stated,
        ValueError where the precision K is below m or the kernel precision
        below the target's kernel exponent (the target was not requested,
        and the verifier works to fewer digits)."""
        spec = SPECS[target]
        p = self.p
        if not spec.applies(p):
            raise WrongPrimeClass(f"{target.value} is not stated for p = {p}")
        m = spec.mod_exp(p)
        if self.precision < m:
            raise ValueError(f"{target.value} needs precision {m}, not {self.precision}")
        k = spec.kernel_exp(p)
        if self.ctx.precision < k:
            raise ValueError(f"{target.value} needs kernel precision {k}, not {self.ctx.precision}")
        return m

    def _report(self, target, lhs: int, rhs: int) -> CongruenceReport:
        """One row: both sides plain ints, each reduced mod p^m from the
        verifier's own powers, which reach p^K.  Its millis is set by
        run()."""
        m = self._exponent(target)
        mod = self.powers[m]
        lhs %= mod
        rhs %= mod
        return CongruenceReport(self.p, target, m, lhs, rhs, lhs == rhs)

    def _first_failure(self, target, cases) -> CongruenceReport:
        """One row for a target checked case by case: the (lhs, rhs) of the
        first failing case, or of the last case when every case passed.  No
        cases at all is an error, not a pass."""
        if not cases:
            raise ValueError(f"{target.value}: no cases to check")
        lhs, rhs = next((c for c in cases if c[0] != c[1]), cases[-1])
        return self._report(target, lhs, rhs)

    # ---- theorem-level targets ----

    def thm11_4k(self) -> CongruenceReport:
        lhs = self.weighted_sum(4, "1")
        return self._report(Target.THM11_4K, lhs, self._thm11_rhs(sign_for_16k=False))

    def thm11_16k(self) -> CongruenceReport:
        lhs = self.weighted_sum(16, "1")
        return self._report(Target.THM11_16K, lhs, self._thm11_rhs(sign_for_16k=True))

    def _thm11_rhs(self, sign_for_16k: bool) -> int:
        """4x^2 - 2p - p^2/(4x^2) at p = 1 (mod 3); otherwise p^2/2, or
        -p^2/4 for the 16^k sum, over C((p-1)/2, (p-5)/6)^2; mod ctx.pk."""
        pk = self.ctx.pk
        p = self.p
        if p % 3 == 1:
            four_xx = 4 * self.decomposition.x ** 2
            return (four_xx - 2 * p - p * p * pow(four_xx, -1, pk)) % pk
        c = binomial_residues(self.ctx)((p - 1) // 2, (p - 5) // 6)
        scale = -p * p * pow(4, -1, pk) if sign_for_16k else p * p * pow(2, -1, pk)
        return scale * pow(c * c, -1, pk) % pk

    def conj2_mod_p2(self) -> CongruenceReport:
        """Both weighted sums against the mod p^2 closed form; the stored
        lhs is the 4^k sum, and passing requires the 16^k sum to match too."""
        p = self.p
        if p % 3 == 1:
            x = self.decomposition.x
            rhs = 4 * x * x - 2 * p
        else:
            rhs = 0
        lhs4 = self.weighted_sum(4, "1")
        lhs16 = self.weighted_sum(16, "1")
        rep = self._report(Target.CONJ2_MODP2, lhs4, rhs)
        rep.passed = rep.passed and lhs16 % p**rep.modulus_exponent == rep.rhs
        return rep

    def thm12(self) -> list[CongruenceReport]:
        self._exponent(Target.THM12_4K)  # WrongPrimeClass before any table is built
        p = self.p
        pk = self.ctx.pk
        c = binomial_residues(self.ctx)((p - 1) // 2, (p - 1) // 6)
        base = p * p * pow(c * c, -1, pk)  # p^2 / C((p-1)/2, (p-1)/6)^2
        return [
            self._report(Target.THM12_4K, self.weighted_sum(4, "3k+2"), 2 * base),
            self._report(Target.THM12_16K, self.weighted_sum(16, "3k+1"), base),
        ]

    def thm13_all(self) -> list[CongruenceReport]:
        """At p = 1 (mod 3), 16x^2/9 - 8p/9 - 7p^2/(18x^2) and
        4x^2/9 - 2p/9 - p^2/(18x^2); otherwise -20/9, 4/9, 4/3 and -4/3
        times r3."""
        p = self.p
        pk = self.ctx.pk
        i9 = pow(9, -1, pk)
        if p % 3 == 1:
            xx = self.decomposition.x ** 2
            i18xx = pow(18 * xx, -1, pk)
            cases = [
                (Target.THM13_K2_4K, 4, "k2", (16 * xx - 8 * p) * i9 - 7 * p * p * i18xx),
                (Target.THM13_K2_16K, 16, "k2", (4 * xx - 2 * p) * i9 - p * p * i18xx),
            ]
        else:
            r3 = self.r3()
            i3 = pow(3, -1, pk)
            cases = [
                (Target.THM13_K2_4K, 4, "k2", -20 * i9 * r3),
                (Target.THM13_K2_16K, 16, "k2", 4 * i9 * r3),
                (Target.THM13_K_4K, 4, "k", 4 * i3 * r3),
                (Target.THM13_K_16K, 16, "k", -4 * i3 * r3),
            ]
        return [self._report(t, self.weighted_sum(b, w), rhs) for t, b, w, rhs in cases]

    def conj1_dp1(self) -> CongruenceReport:
        """D_(p-1) against 64^(p-1) - (p^3/6) B_(p-3) mod p^4: the power
        mod p^K, the Bernoulli number mod p."""
        p = self.p
        lhs = self.domb_table[p - 1]
        b = bernoulli_table(self.ctx)[p - 3]
        rhs = pow(64, p - 1, self.powers[-1]) - p**3 * (b * pow(6, -1, p) % p)
        return self._report(Target.CONJ1_DP1, lhs, rhs)

    def musun(self) -> CongruenceReport:
        """sum (3k^2+k) D_k / 16^k against -4 p^4 q_p(2) mod p^5."""
        m = self._exponent(Target.MUSUN_P5)
        lhs = self.weighted_sum(16, "3k2+k")
        rhs = -4 * self.p**4 * _fermat_quotient(2, self.p, m)
        return self._report(Target.MUSUN_P5, lhs, rhs)

    # ---- lemma-level targets ----

    def lemma22_check(self) -> CongruenceReport:
        """C(3j,j) C(p+j,3j+1) = (p/(3j+1))(1 - p H_2j + p H_j) mod p^3 for
        every 0 <= j <= (p-1)/2, case by case in plain residues, the left
        side of each case as one factorial quotient (see _lemma22_cases).
        The j with 3j+1 = p is included; there p/(3j+1) = 1."""
        return self._first_failure(Target.LEMMA22, self._lemma22_cases())

    def _lemma22_cases(self) -> list[tuple[int, int]]:
        """(lhs, rhs) mod p^m at each j <= (p-1)/2, each side one
        comprehension over strided slices.  The left side is the factorial
        quotient (p+j)! (3j)! / (j! (2j)! (3j+1)! (p-2j-1)!), p^v times six
        units off the factorial tables.  Every index is below 3p < p^2, so
        v_p(n!) = floor(n/p) and v = 1 at every j but the one with 3j+1 = p
        (p = 1 mod 3), where v = 0 and the case is taken on its own.  The
        right side reads H_j and H_2j (2j < p, both p-integral) from the
        harmonic cache and p/(3j+1) from _p_over_3j1."""
        p = self.p
        mod = self.ctx.powers[self._exponent(Target.LEMMA22)]
        _, fu, fi = self.ctx.factorial_tables(3 * p)
        h = harmonic_scaled(p - 1, self.ctx)
        n = (p + 1) // 2
        lhs = [
            p * a * b * c * d * e * g % mod
            for a, b, c, d, e, g in zip(
                fu[p : p + n],  # (p+j)!
                fu[0 : 3 * n : 3],  # (3j)!
                fi[:n],  # 1/j!
                fi[0 : 2 * n : 2],  # 1/(2j)!
                fi[1 : 3 * n : 3],  # 1/(3j+1)!
                fi[p - 1 :: -2],  # 1/(p-2j-1)!
            )
        ]
        if p % 3 == 1:
            j = (p - 1) // 3
            lhs[j] = fu[p + j] * fu[3 * j] * fi[j] * fi[2 * j] * fi[p] * fi[p - 2 * j - 1] % mod
        rhs = [x * (1 + p * (a - b)) % mod for x, a, b in zip(self._p_over_3j1, h[:n], h[0:p:2])]
        return list(zip(lhs, rhs))

    def lemma_mpt_check(self, t_samples=None) -> CongruenceReport:
        """C((2p-2)/3 + pt, (p-1)/2) against its first-order expansion in t
        mod p^2, at small fixed t plus deterministic pseudo-random t.  The
        top index (2p-2)/3 is integral only for p = 1 (mod 3)."""
        m = self._exponent(Target.LEMMA_MPT)
        p = self.p
        if t_samples is None:
            rng = random.Random(p)
            t_samples = [0, 1, -1, 2, -2] + [rng.randrange(-10000, 10001) for _ in range(4)]
        base = (2 * p - 2) // 3
        half = (p - 1) // 2
        cases = [
            (binomial_rational(base + p * t, half, self.ctx).residue(m), rhs)
            for t, rhs in zip(t_samples, self._lemma_mpt_rhs(t_samples))
        ]
        return self._first_failure(Target.LEMMA_MPT, cases)

    def _lemma_mpt_rhs(self, t_samples) -> list[int]:
        """c0 (1 + p t slope) mod p^m at each t, with c0 = C((2p-2)/3,
        (p-1)/2) and slope = H_((2p-2)/3) - H_((p-1)/6) from the harmonic
        cache; both indices are below p.  c0 is a unit, taken by math.comb
        and not off the factorial tables: the left side divides by
        ((p-1)/2)! from those tables, and a table entry read by both sides
        would cancel out of the comparison."""
        p = self.p
        m = self._exponent(Target.LEMMA_MPT)
        mod = self.ctx.powers[m]
        base = (2 * p - 2) // 3
        c0 = comb(base, (p - 1) // 2) % mod
        h = harmonic_scaled(base, self.ctx)
        slope = h[base] - h[(p - 1) // 6]
        return [c0 * (1 + p * t * slope) % mod for t in t_samples]

    def lemma_p2j_check(self) -> CongruenceReport:
        """(3j+1) C(3j,j) C(p+2j,3j+1) mod p^3 for all 0 <= j <= p-1:
        p(-1)^j (1 + p H_2j - p H_j) on the lower half, and
        2 p^2 (-1)^j (H_2j - H_j) on the upper half, where H_2j is no
        longer p-integral and the negative valuation must cancel the p^2.
        Case by case in plain residues, the left side of each case as one
        factorial quotient (see _lemma_p2j_cases)."""
        return self._first_failure(Target.LEMMA_P2J, self._lemma_p2j_cases())

    def _lemma_p2j_cases(self) -> list[tuple[int, int]]:
        """(lhs, rhs) mod p^m at each j < p, each side built from strided
        slices.  The left side is the factorial quotient (p+2j)! / (j! (2j)!
        (p-j-1)!), p^v times four units off the factorial tables; every
        index is below 3p < p^2, so v_p(n!) = floor(n/p) and v = 1 at every
        j.  The harmonic numbers come from the harmonic cache, which holds
        H_n below p and p H_n from p on.  On the upper half (2j >= p) the
        stored p H_2j carries H_2j's negative valuation, so the right side
        is 2p (p H_2j - p H_j), one comprehension per half."""
        p = self.p
        mod = self.ctx.powers[self._exponent(Target.LEMMA_P2J)]
        _, fu, fi = self.ctx.factorial_tables(3 * p)
        h = harmonic_scaled(2 * p - 2, self.ctx)
        n = (p + 1) // 2  # the lower half, 2j < p
        lhs = [
            p * a * b * c * d % mod
            for a, b, c, d in zip(
                fu[p : 3 * p : 2],  # (p+2j)!
                fi[:p],  # 1/j!
                fi[0 : 2 * p : 2],  # 1/(2j)!
                fi[p - 1 :: -1],  # 1/(p-j-1)!
            )
        ]
        sp = (p, -p) * n  # p (-1)^j
        rhs = [s * (1 + p * (a - b)) % mod for s, a, b in zip(sp[:n], h[0:p:2], h[:n])]
        rhs += [
            2 * s * (a - p * b) % mod
            for s, a, b in zip(sp[n:p], h[p + 1 : 2 * p - 1 : 2], h[n:p])
        ]
        return list(zip(lhs, rhs))

    def lemma_sh55_check(self) -> CongruenceReport:
        """The full Domb sum against the central-binomial expansion:
        sum D_k/16^k = sum C(2k,k)^2 16^(-k) (p/(3k+1))(1 + p H_2k - p H_k)
        mod p^3, both sums over 0 <= k <= p-1.  The right side is the sum of
        the products of _lemma_sh55_terms, the terms of the expansion that
        are not 0 mod p^3 by their valuation alone."""
        lhs = self.weighted_sum(16, "1")
        rhs = sum(b * h for b, h in self._lemma_sh55_terms())
        return self._report(Target.LEMMA_SH55, lhs, rhs)

    def _lemma_sh55_terms(self) -> list[tuple[int, int]]:
        """(C(2k,k)^2 16^(-k), (p/(3k+1))(1 + p H_2k - p H_k)) mod p^m = p^3
        at each k < (p+1)/2, then, at p = 2 (mod 3), at k0 = (2p-1)/3.  No
        other term can be nonzero mod p^3: from k = (p+1)/2 on, p < 2k < 2p,
        so C(2k,k) carries exactly one p and its square p^2, and
        3p/2 < 3k+1 < 3p, so p/(3k+1) carries one more p unless
        3k+1 = 2p, where it is 1/2.  Below (p+1)/2, 2k < p: C(2k,k) is a
        unit and H_2k is p-integral.  The binomial is read off the factorial
        tables and the harmonic factor from the harmonic cache and
        _p_over_3j1, in one zip loop over strided slices that carries the
        weight 16^(-k) from term to term.  At k0 the cache's stored p H_2k0
        absorbs H_2k0's negative valuation."""
        p = self.p
        mod = self.ctx.powers[self._exponent(Target.LEMMA_SH55)]
        _, fu, fi = self.ctx.factorial_tables(3 * p)
        h = harmonic_scaled(4 * p // 3, self.ctx)  # to 2k0 = (4p-2)/3
        i16 = pow(16, -1, mod)
        n = (p + 1) // 2
        w = 1
        terms = []
        for a, b, x, s, t in zip(fu[0:p:2], fi[:n], self._p_over_3j1, h[0:p:2], h[:n]):
            c = a * b * b % mod
            terms.append((c * c * w % mod, x * (1 + p * (s - t)) % mod))
            w = w * i16 % mod
        if p % 3 == 2:
            k = (2 * p - 1) // 3
            c = fu[2 * k] * fi[k] * fi[k] % mod
            w = p * p * pow(i16, k, mod)
            terms.append((c * c * w % mod, pow(2, -1, mod) * (1 + h[2 * k] - p * h[k]) % mod))
        return terms

    def lemma_sunh_check(self) -> CongruenceReport:
        """The harmonic-number evaluations at p/6, p/4, p/3, 2p/3 and the
        half/full range, against Fermat quotients, B_(p-2)(1/3) and
        E_(p-3), the last read as B_(p-2)(1/4)/8 mod p off the Bernoulli
        table.  All sub-congruences must hold; p = 5 is excluded."""
        return self._first_failure(Target.LEMMA_SUNH, self._lemma_sunh_cases())

    def _lemma_sunh_cases(self) -> list[tuple[int, int]]:
        """(lhs, rhs) of the ten sub-congruences, each reduced mod p or mod
        p^m as stated.  Every harmonic index is below p, so the cache's
        stored ints are the sums themselves.  w = chi B_(p-2)(1/3) is known
        mod p only, and enters only as p w, known mod p^2 = p^m.  E_(p-3) =
        B_(p-2)(1/4)/8 mod p, from E_n = -4^(n+1) B_(n+1)(1/4)/(n+1) at
        even n, so no Euler series is built."""
        p = self.p
        ctx = self.ctx
        m = self._exponent(Target.LEMMA_SUNH)
        mod = ctx.powers[m]
        h = harmonic_scaled(p - 1, ctx)
        h2 = harmonic_scaled(p - 1, ctx, order=2)
        q2 = _fermat_quotient(2, p, m)
        q3 = _fermat_quotient(3, p, m)
        chi = 1 if p % 3 == 1 else -1
        w = chi * bernoulli_poly(p - 2, Fraction(1, 3), ctx) % p
        e = bernoulli_poly(p - 2, Fraction(1, 4), ctx) * pow(8, -1, p) % p
        sign = -1 if (p - 1) // 2 % 2 else 1
        i2, i3, i4, i5, i6, i12 = (pow(d, -1, mod) for d in (2, 3, 4, 5, 6, 12))
        # the q2 and q3 parts of the right sides: -2 q2 + p q2^2 and
        # -(3/2) q3 + (3p/4) q3^2
        f2 = -2 * q2 + p * q2 * q2
        f3 = -3 * i2 * q3 + 3 * p * i4 * q3 * q3
        return [
            (h2[p - 1] % p, 0),
            (h2[(p - 1) // 2] % p, 0),
            (h[p - 1] % mod, 0),
            (i5 * h2[p // 6] % p, h2[p // 3] % p),
            (h2[p // 3] % p, i2 * w % p),
            (h[p // 6] % mod, (f2 + f3 - 5 * p * i12 * w) % mod),
            (h[p // 3] % mod, (f3 - p * i6 * w) % mod),
            (h[(p - 1) // 2] % mod, f2 % mod),
            (h2[p // 4] % p, sign * 4 * e % p),
            (h[2 * p // 3] % mod, (f3 + p * i3 * w) % mod),
        ]

    # ---- dispatch ----

    def run(self) -> list[CongruenceReport]:
        """Each evaluating method once, in catalog order, timed; each row
        carries its method's time.  A method that covers several targets
        keeps only the rows that were asked for."""
        rows: list[CongruenceReport] = []
        for method in dict.fromkeys(SPECS[t].method for t in Target if t in self.want):
            t0 = perf_counter()
            out = getattr(self, method)()
            ms = (perf_counter() - t0) * 1000.0
            for r in out if isinstance(out, list) else [out]:
                if r.target in self.want:
                    r.millis = ms
                    rows.append(r)
        rows.sort(key=lambda r: _TARGET_INDEX[r.target])
        return rows


def verify_prime(p: int, targets=None) -> list[CongruenceReport]:
    """All requested targets for one prime, in catalog order.

    Targets whose congruence is not stated for this prime's residue class
    are skipped, not failed.
    """
    return PrimeVerifier(p, targets).run()


def sieve_primes(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by Eratosthenes."""
    if hi < 2 or hi < lo:
        return []
    flags = bytearray([1]) * (hi + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(hi**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(max(lo, 2), hi + 1) if flags[i]]


def _verify_from(primes, targets, counter, i: int) -> list[CongruenceReport]:
    """Verify primes[i], then each prime whose index this process takes off
    the shared counter, until an index runs past the end of the list."""
    rows: list[CongruenceReport] = []
    while i < len(primes):
        rows.extend(verify_prime(primes[i], targets))
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
    return rows


def _sweep_child(primes, targets, counter, i: int, conn) -> None:
    """Send a child's share of the sweep to the parent in one message: its
    rows, or the traceback of its failure.  A failure also moves the
    counter past the end, so the other processes stop after their current
    prime."""
    try:
        out = _verify_from(primes, targets, counter, i)
    except Exception:
        import traceback

        with counter.get_lock():
            counter.value = len(primes)
        out = traceback.format_exc()
    conn.send(out)


def _sweep_parallel(primes, targets, workers: int) -> list[list[CongruenceReport]]:
    """The rows of ``primes`` from ``workers`` processes, the calling one
    included.  Process r first verifies primes[r]; after that every process
    takes the next index off one shared counter, so each process started
    verifies at least one prime.  Each prime goes through the module's
    ``verify_prime``; forked children see it as the parent does."""
    import multiprocessing

    counter = multiprocessing.Value("q", workers)
    children = []
    try:
        for i in range(1, workers):
            recv, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(
                target=_sweep_child, args=(primes, targets, counter, i, send), daemon=True
            )
            child.start()
            send.close()  # so that recv sees EOF if the child dies without sending
            children.append((child, recv))
        chunks = [_verify_from(primes, targets, counter, 0)]
        for child, recv in children:
            # received before the join: a large message blocks the child's
            # send until it is read
            try:
                out = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"sweep worker {child.pid} exited with code {child.exitcode} before sending its rows"
                ) from None
            child.join()
            if isinstance(out, str):
                raise RuntimeError(f"sweep worker {child.pid} failed:\n{out}")
            chunks.append(out)
    finally:
        for child, recv in children:
            child.terminate()  # a no-op once the child is joined
            child.join()
            recv.close()
    return chunks


def sweep(lo: int, hi: int, targets=None, workers: int = 1) -> list[CongruenceReport]:
    """Verify every prime in [lo, hi] (primes below 5 are never swept)
    against every given target that applies there.

    Rows come back sorted by (prime, catalog order) no matter how the work
    was scheduled, so output is reproducible.  ``workers`` counts the
    calling process, which verifies primes too; at most one process per
    prime and per CPU runs.  With more than one, the primes go out largest
    first off a shared counter, so the slowest primes do not come last.
    A failure in any process raises here, after every child has ended.
    """
    targets = list(Target) if targets is None else list(targets)
    primes = sieve_primes(max(lo, 5), hi)
    workers = min(workers, len(primes), os.cpu_count() or 1)
    if workers > 1:
        chunks = _sweep_parallel(primes[::-1], targets, workers)
    else:
        chunks = [verify_prime(p, targets) for p in primes]
    rows = [r for chunk in chunks for r in chunk]
    rows.sort(key=lambda r: (r.prime, _TARGET_INDEX[r.target]))
    return rows
