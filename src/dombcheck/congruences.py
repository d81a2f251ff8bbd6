"""Both sides of every supercongruence target, evaluated per prime.

Left-hand sides are partial sums of the Domb residue table against
geometric weights, nothing else; right-hand sides go through the p-adic
kernel (binomials, harmonic numbers, Fermat quotients, Bernoulli data).
The two sides meet only in the final residue comparison, so a bug in the
closed forms cannot silently cancel against one in the sums.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from time import perf_counter

from .domb import DombTable
from .padic import PAdicValue, PrimeContext, binomial_int, binomial_rational
from .quadform import decompose_x2_3y2
from .special import (
    bernoulli_poly,
    bernoulli_table,
    euler_table,
    fermat_quotient,
    harmonic,
)

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
    p^m, the PrimeVerifier method that evaluates it (by name, so the method
    is looked up on the verifier at call time), and the prime bound above
    which sweeps skip it by default (None: never skipped)."""

    group: str
    applies: Callable[[int], bool]
    mod_exp: Callable[[int], int]
    method: str
    cap: int | None = None


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
# The capped targets build O(p^2) Bernoulli/Euler tables.
SPECS: dict[Target, TargetSpec] = {
    Target.THM11_4K: TargetSpec("thm1.1", _every, _exp(3), "thm11_4k"),
    Target.THM11_16K: TargetSpec("thm1.1", _every, _exp(3), "thm11_16k"),
    Target.THM12_4K: TargetSpec("thm1.2", _one_mod_3, _exp(3), "thm12"),
    Target.THM12_16K: TargetSpec("thm1.2", _one_mod_3, _exp(3), "thm12"),
    Target.THM13_K2_4K: TargetSpec("thm1.3", _every, _k2_exp, "thm13_all"),
    Target.THM13_K2_16K: TargetSpec("thm1.3", _every, _k2_exp, "thm13_all"),
    Target.THM13_K_4K: TargetSpec("thm1.3", _two_mod_3, _exp(2), "thm13_all"),
    Target.THM13_K_16K: TargetSpec("thm1.3", _two_mod_3, _exp(2), "thm13_all"),
    Target.CONJ1_DP1: TargetSpec("conj1", _every, _exp(4), "conj1_dp1", cap=1000),
    Target.CONJ2_MODP2: TargetSpec("conj2", _every, _exp(2), "conj2_mod_p2"),
    Target.MUSUN_P5: TargetSpec("musun", _every, _exp(5), "musun", cap=1000),
    Target.LEMMA22: TargetSpec("lemmas", _one_mod_3, _exp(3), "lemma22_check"),
    Target.LEMMA_MPT: TargetSpec("lemmas", _one_mod_3, _exp(2), "lemma_mpt_check"),
    Target.LEMMA_P2J: TargetSpec("lemmas", _every, _exp(3), "lemma_p2j_check"),
    Target.LEMMA_SUNH: TargetSpec("lemmas", lambda p: p > 5, _exp(2), "lemma_sunh_check", cap=1000),
    Target.LEMMA_SH55: TargetSpec("lemmas", _every, _exp(3), "lemma_sh55_check"),
}


def applicable(target: Target, p: int) -> bool:
    """Whether the congruence is stated at all for this prime."""
    return SPECS[target].applies(p)


def modulus_exponent(target: Target, p: int) -> int:
    """The exponent m such that the target is a congruence mod p^m."""
    return SPECS[target].mod_exp(p)


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
    millis: float


class PrimeVerifier:
    """Shared per-prime state: one context, one Domb table, one set of sums.

    Working precision is the largest modulus exponent among the requested
    targets plus guard digits, so every residue extraction below stays
    inside the known digits.
    """

    def __init__(self, p: int, targets=None, guard: int = 1):
        if guard < 1:
            raise ValueError("guard must be at least 1")
        self.targets = list(Target) if targets is None else list(targets)
        want = [t for t in self.targets if applicable(t, p)]
        k = max((modulus_exponent(t, p) for t in want), default=2) + guard
        self.ctx = PrimeContext(p, k)
        self.p = p
        self._table: DombTable | None = None
        self._sums: dict[str, int] = {}
        self._decomp = None
        self._r3: PAdicValue | None = None

    # ---- shared pieces ----

    @property
    def domb_table(self) -> DombTable:
        if self._table is None:
            self._table = DombTable(self.ctx)
        return self._table

    def weighted_sum(self, base: int, weight: str) -> int:
        """sum_{k<p} w(k) D_k base^(-k) mod p^K for w in 1, k, k2, 3k+2,
        3k+1, 3k2+k.  Every k below p contributes; nothing is truncated."""
        key = f"{weight}/{base}"
        hit = self._sums.get(key)
        if hit is not None:
            return hit
        ctx = self.ctx
        pk = ctx.pk
        ib = pow(base, -1, pk)
        fns = {
            "1": lambda k: 1,
            "k": lambda k: k,
            "k2": lambda k: k * k,
            "3k+2": lambda k: 3 * k + 2,
            "3k+1": lambda k: 3 * k + 1,
            "3k2+k": lambda k: 3 * k * k + k,
        }
        fn = fns[weight]
        acc = 0
        w = 1
        for k, d in enumerate(self.domb_table.residues):
            c = fn(k)
            if c:
                acc += c * d * w
            w = w * ib % pk
        acc %= pk
        self._sums[key] = acc
        return acc

    @property
    def decomposition(self):
        if self._decomp is None:
            self._decomp = decompose_x2_3y2(self.p)
        return self._decomp

    def r3(self) -> PAdicValue:
        """The correction unit used on the p = 2 (mod 3) side: the Fermat
        quotient combination (1 + 2p + (4/3)(2^(p-1)-1) - (3/2)(3^(p-1)-1))
        times the square of C((p-1)/2, floor(p/6))."""
        if self._r3 is None:
            ctx = self.ctx
            p = self.p
            hi = p ** (ctx.precision + 1)
            t2 = PAdicValue.from_residue(pow(2, p - 1, hi) - 1, ctx, ctx.precision + 1)
            t3 = PAdicValue.from_residue(pow(3, p - 1, hi) - 1, ctx, ctx.precision + 1)
            core = (
                PAdicValue.from_int(1 + 2 * p, ctx)
                + Fraction(4, 3) * t2
                - Fraction(3, 2) * t3
            )
            c = binomial_int((p - 1) // 2, p // 6, ctx)
            self._r3 = core * c * c
        return self._r3

    def _exponent(self, target: Target) -> int:
        """The target's m at this prime; WrongPrimeClass where it is not stated."""
        spec = SPECS[target]
        if not spec.applies(self.p):
            raise WrongPrimeClass(f"{target.value} is not stated for p = {self.p}")
        return spec.mod_exp(self.p)

    def _report(self, target, lhs: int, rhs, t0) -> CongruenceReport:
        """One row: lhs reduced mod p^m, rhs an int reduced the same way or
        a PAdicValue read off to m digits."""
        m = self._exponent(target)
        lhs %= self.p**m
        rhs = rhs.residue(m) if isinstance(rhs, PAdicValue) else rhs % self.p**m
        ms = (perf_counter() - t0) * 1000.0
        return CongruenceReport(self.p, target, m, lhs, rhs, lhs == rhs, ms)

    def _first_failure(self, target, cases, t0) -> CongruenceReport:
        """One row for a target checked case by case: the (lhs, rhs) of the
        first failing case, or of the last case when every case passed."""
        lhs, rhs = next((c for c in cases if c[0] != c[1]), cases[-1] if cases else (0, 0))
        return self._report(target, lhs, rhs, t0)

    # ---- theorem-level targets ----

    def thm11_4k(self) -> CongruenceReport:
        t0 = perf_counter()
        lhs = self.weighted_sum(4, "1")
        return self._report(Target.THM11_4K, lhs, self._thm11_rhs(sign_for_16k=False), t0)

    def thm11_16k(self) -> CongruenceReport:
        t0 = perf_counter()
        lhs = self.weighted_sum(16, "1")
        return self._report(Target.THM11_16K, lhs, self._thm11_rhs(sign_for_16k=True), t0)

    def _thm11_rhs(self, sign_for_16k: bool) -> PAdicValue:
        ctx = self.ctx
        p = self.p
        if p % 3 == 1:
            x = self.decomposition.x
            q = Fraction(4 * x * x) - 2 * p - Fraction(p * p, 4 * x * x)
            return PAdicValue.from_fraction(q, ctx)
        c = binomial_int((p - 1) // 2, (p - 5) // 6, ctx)
        scale = Fraction(-p * p, 4) if sign_for_16k else Fraction(p * p, 2)
        return PAdicValue.from_fraction(scale, ctx) / (c * c)

    def conj2_mod_p2(self) -> CongruenceReport:
        """Both weighted sums against the mod p^2 closed form; the stored
        lhs is the 4^k sum, and passing requires the 16^k sum to match too."""
        t0 = perf_counter()
        p = self.p
        if p % 3 == 1:
            x = self.decomposition.x
            rhs = 4 * x * x - 2 * p
        else:
            rhs = 0
        lhs4 = self.weighted_sum(4, "1")
        lhs16 = self.weighted_sum(16, "1")
        rep = self._report(Target.CONJ2_MODP2, lhs4, rhs, t0)
        rep.passed = rep.passed and lhs16 % p**rep.modulus_exponent == rep.rhs
        return rep

    def thm12(self) -> list[CongruenceReport]:
        t0 = perf_counter()
        self._exponent(Target.THM12_4K)  # WrongPrimeClass before any table is built
        p = self.p
        c = binomial_int((p - 1) // 2, (p - 1) // 6, self.ctx)
        base = PAdicValue.from_int(p * p, self.ctx) / (c * c)
        return [
            self._report(Target.THM12_4K, self.weighted_sum(4, "3k+2"), 2 * base, t0),
            self._report(Target.THM12_16K, self.weighted_sum(16, "3k+1"), base, t0),
        ]

    def thm13_all(self) -> list[CongruenceReport]:
        t0 = perf_counter()
        p = self.p
        if p % 3 == 1:
            x = self.decomposition.x
            qa = Fraction(16 * x * x, 9) - Fraction(8 * p, 9) - Fraction(7 * p * p, 18 * x * x)
            qb = Fraction(4 * x * x, 9) - Fraction(2 * p, 9) - Fraction(p * p, 18 * x * x)
            cases = [
                (Target.THM13_K2_4K, 4, "k2", PAdicValue.from_fraction(qa, self.ctx)),
                (Target.THM13_K2_16K, 16, "k2", PAdicValue.from_fraction(qb, self.ctx)),
            ]
        else:
            r3 = self.r3()
            cases = [
                (Target.THM13_K2_4K, 4, "k2", Fraction(-20, 9) * r3),
                (Target.THM13_K2_16K, 16, "k2", Fraction(4, 9) * r3),
                (Target.THM13_K_4K, 4, "k", Fraction(4, 3) * r3),
                (Target.THM13_K_16K, 16, "k", Fraction(-4, 3) * r3),
            ]
        return [self._report(t, self.weighted_sum(b, w), rhs, t0) for t, b, w, rhs in cases]

    def conj1_dp1(self) -> CongruenceReport:
        """D_(p-1) against 64^(p-1) - (p^3/6) B_(p-3) mod p^4."""
        t0 = perf_counter()
        p = self.p
        lhs = self.domb_table[p - 1]
        b = bernoulli_table(self.ctx)[p - 3]
        rhs = pow(64, p - 1, self.ctx.pk) - p**3 * (b * pow(6, -1, p) % p)
        return self._report(Target.CONJ1_DP1, lhs, rhs, t0)

    def musun(self) -> CongruenceReport:
        """sum (3k^2+k) D_k / 16^k against -4 p^4 q_p(2) mod p^5."""
        t0 = perf_counter()
        lhs = self.weighted_sum(16, "3k2+k")
        q = fermat_quotient(2, self.ctx)
        rhs = -4 * PAdicValue.from_int(self.p, self.ctx) ** 4 * q
        return self._report(Target.MUSUN_P5, lhs, rhs, t0)

    # ---- lemma-level targets ----

    def lemma22_check(self) -> CongruenceReport:
        """C(3j,j) C(p+j,3j+1) = (p/(3j+1))(1 - p H_2j + p H_j) mod p^3 for
        every 0 <= j <= (p-1)/2.  The j with 3j+1 = p is included; the
        valuation bookkeeping makes that term regular."""
        t0 = perf_counter()
        m = self._exponent(Target.LEMMA22)
        p = self.p
        ctx = self.ctx
        cases = []
        for j in range((p - 1) // 2 + 1):
            lhs = (binomial_int(3 * j, j, ctx) * binomial_int(p + j, 3 * j + 1, ctx)).residue(m)
            hterm = 1 + p * (harmonic(j, 1, ctx) - harmonic(2 * j, 1, ctx))
            rhs = (PAdicValue.from_fraction(Fraction(p, 3 * j + 1), ctx) * hterm).residue(m)
            cases.append((lhs, rhs))
        return self._first_failure(Target.LEMMA22, cases, t0)

    def lemma_mpt_check(self, t_samples=None) -> CongruenceReport:
        """C((2p-2)/3 + pt, (p-1)/2) against its first-order expansion in t
        mod p^2, at small fixed t plus deterministic pseudo-random t.  The
        top index (2p-2)/3 is integral only for p = 1 (mod 3)."""
        t0 = perf_counter()
        m = self._exponent(Target.LEMMA_MPT)
        p = self.p
        ctx = self.ctx
        base = (2 * p - 2) // 3
        half = (p - 1) // 2
        if t_samples is None:
            rng = random.Random(p)
            t_samples = [0, 1, -1, 2, -2] + [rng.randrange(-10000, 10001) for _ in range(4)]
        c0 = binomial_int(base, half, ctx)
        slope = harmonic(base, 1, ctx) - harmonic((p - 1) // 6, 1, ctx)
        cases = [
            (
                binomial_rational(Fraction(base + p * t), half, ctx).residue(m),
                (c0 * (1 + p * t * slope)).residue(m),
            )
            for t in t_samples
        ]
        return self._first_failure(Target.LEMMA_MPT, cases, t0)

    def lemma_p2j_check(self) -> CongruenceReport:
        """(3j+1) C(3j,j) C(p+2j,3j+1) mod p^3 for all 0 <= j <= p-1:
        p(-1)^j (1 + p H_2j - p H_j) on the lower half, and
        2 p^2 (-1)^j (H_2j - H_j) on the upper half, where H_2j is no
        longer p-integral and the negative valuation must cancel the p^2."""
        t0 = perf_counter()
        m = self._exponent(Target.LEMMA_P2J)
        p = self.p
        ctx = self.ctx
        half = (p - 1) // 2
        cases = []
        for j in range(p):
            sign = -1 if j % 2 else 1
            lhs = (
                (3 * j + 1)
                * binomial_int(3 * j, j, ctx)
                * binomial_int(p + 2 * j, 3 * j + 1, ctx)
            ).residue(m)
            hdiff = harmonic(2 * j, 1, ctx) - harmonic(j, 1, ctx)
            if j <= half:
                rv = sign * PAdicValue.from_int(p, ctx) * (1 + p * hdiff)
            else:
                rv = sign * PAdicValue.from_int(2 * p * p, ctx) * hdiff
            cases.append((lhs, rv.residue(m)))
        return self._first_failure(Target.LEMMA_P2J, cases, t0)

    def lemma_sh55_check(self) -> CongruenceReport:
        """The full Domb sum against the central-binomial expansion:
        sum D_k/16^k = sum C(2k,k)^2 16^(-k) (p/(3k+1))(1 + p H_2k - p H_k)
        mod p^3, both sums over 0 <= k <= p-1."""
        t0 = perf_counter()
        p = self.p
        ctx = self.ctx
        pk = ctx.pk
        lhs = self.weighted_sum(16, "1")
        i16 = pow(16, -1, pk)
        w = 1
        acc = PAdicValue.zero(ctx)
        for k in range(p):
            cb = binomial_int(2 * k, k, ctx)
            hterm = 1 + p * (harmonic(2 * k, 1, ctx) - harmonic(k, 1, ctx))
            factor = PAdicValue.from_fraction(Fraction(p, 3 * k + 1), ctx)
            acc = acc + cb * cb * PAdicValue.from_residue(w, ctx) * factor * hterm
            w = w * i16 % pk
        return self._report(Target.LEMMA_SH55, lhs, acc, t0)

    def lemma_sunh_check(self) -> CongruenceReport:
        """The harmonic-number evaluations at p/6, p/4, p/3, 2p/3 and the
        half/full range, against Fermat quotients, B_(p-2)(1/3) and
        E_(p-3).  All sub-congruences must hold; p = 5 is excluded."""
        t0 = perf_counter()
        m = self._exponent(Target.LEMMA_SUNH)
        p = self.p
        ctx = self.ctx
        q2 = fermat_quotient(2, ctx)
        q3 = fermat_quotient(3, ctx)
        chi = 1 if p % 3 == 1 else -1
        bval = chi * bernoulli_poly(p - 2, Fraction(1, 3), ctx) % p
        wv = PAdicValue.from_residue(bval, ctx, 1)
        e = euler_table(ctx)[p - 3]
        sign = -1 if (p - 1) // 2 % 2 else 1
        checks = [
            (harmonic(p - 1, 2, ctx).residue(1), 0),
            (harmonic((p - 1) // 2, 2, ctx).residue(1), 0),
            (harmonic(p - 1, 1, ctx).residue(m), 0),
            (
                (Fraction(1, 5) * harmonic(p // 6, 2, ctx)).residue(1),
                harmonic(p // 3, 2, ctx).residue(1),
            ),
            (
                harmonic(p // 3, 2, ctx).residue(1),
                (Fraction(1, 2) * wv).residue(1),
            ),
            (
                harmonic(p // 6, 1, ctx).residue(m),
                (
                    -2 * q2
                    - Fraction(3, 2) * q3
                    + p * q2 * q2
                    + Fraction(3 * p, 4) * q3 * q3
                    - Fraction(5 * p, 12) * wv
                ).residue(m),
            ),
            (
                harmonic(p // 3, 1, ctx).residue(m),
                (
                    -Fraction(3, 2) * q3
                    + Fraction(3 * p, 4) * q3 * q3
                    - Fraction(p, 6) * wv
                ).residue(m),
            ),
            (
                harmonic((p - 1) // 2, 1, ctx).residue(m),
                (-2 * q2 + p * q2 * q2).residue(m),
            ),
            (
                harmonic(p // 4, 2, ctx).residue(1),
                sign * 4 * e % p,
            ),
            (
                harmonic(2 * p // 3, 1, ctx).residue(m),
                (
                    -Fraction(3, 2) * q3
                    + Fraction(3 * p, 4) * q3 * q3
                    + Fraction(p, 3) * wv
                ).residue(m),
            ),
        ]
        return self._first_failure(Target.LEMMA_SUNH, checks, t0)

    # ---- dispatch ----

    def run(self) -> list[CongruenceReport]:
        """Each evaluating method once, in catalog order; a method that
        covers several targets keeps only the rows that were asked for."""
        want = {t for t in self.targets if applicable(t, self.p)}
        rows: list[CongruenceReport] = []
        for method in dict.fromkeys(SPECS[t].method for t in Target if t in want):
            out = getattr(self, method)()
            rows.extend(r for r in (out if isinstance(out, list) else [out]) if r.target in want)
        rows.sort(key=lambda r: _TARGET_INDEX[r.target])
        return rows


def verify_prime(p: int, targets=None, guard: int = 1) -> list[CongruenceReport]:
    """All requested targets for one prime, in catalog order.

    Targets whose congruence is not stated for this prime's residue class
    are skipped, not failed.
    """
    targets = list(Target) if targets is None else list(targets)
    want = [t for t in targets if applicable(t, p)]
    if not want:
        return []
    return PrimeVerifier(p, want, guard=guard).run()


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


def _sweep_task(args):
    p, targets, guard = args
    return verify_prime(p, targets, guard=guard)


def sweep(
    lo: int,
    hi: int,
    targets=None,
    guard: int = 1,
    caps: dict | None = None,
    workers: int = 1,
) -> list[CongruenceReport]:
    """Verify every prime in [lo, hi] (primes below 5 are never swept).

    A target is skipped at primes above its cap: ``caps[target]`` if given,
    else ``SPECS[target].cap``; ``verify_prime`` itself never caps.  Rows
    come back sorted by (prime, catalog order) no matter how the work was
    scheduled, so output is reproducible.
    """
    caps = {t: s.cap for t, s in SPECS.items() if s.cap is not None} | (caps or {})
    targets = list(Target) if targets is None else list(targets)
    tasks = []
    for p in sieve_primes(max(lo, 5), hi):
        want = [t for t in targets if p <= caps.get(t, hi)]
        if want:
            tasks.append((p, want, guard))
    if workers > 1 and len(tasks) > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            chunks = pool.map(_sweep_task, tasks, chunksize=1)
    else:
        chunks = [_sweep_task(t) for t in tasks]
    rows = [r for chunk in chunks for r in chunk]
    rows.sort(key=lambda r: (r.prime, _TARGET_INDEX[r.target]))
    return rows
