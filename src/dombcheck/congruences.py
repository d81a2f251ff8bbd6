"""Both sides of every supercongruence target, evaluated per prime.

Left-hand sides of the Domb targets are partial sums of the Domb numbers
against geometric weights, nothing else: three moment sums
sum k^i D_k b^(-k) at b = 4 and at 16, finished by one product with
b^(-(p-1)) per base from P(b), P'(b) and P''(b)/2, P(b) = sum D_k
b^(p-1-k).  Those triples come by Horner with derivatives in both bases:
for one prime, from one pass over its Domb table, one reduction every 16
terms; for a sweep, from one walk over the exact Domb numbers up to its
largest prime, reduced at each prime (domb.horner_walk), when its primes
make the walk pay (_walk).  No weight is inverted or reduced per term.
CONJ1_DP1 reads D_(p-1) off the prime's Domb table in both cases: the
top entry, one product past the table's recurrence pass.  Only the
per-prime Horner pass reads the rest, so the table of a prime given the
walk's triples never walks back to D_0.  Their right-hand sides go
through the p-adic kernel's tables (binomials, harmonic numbers, Fermat
quotients, Bernoulli values).  The ten sum targets (all that read a
weighted sum but LEMMA_SH55) are rows of one table, SUM_ROWS: per class
of p mod 3, a denominator d and integer coefficients on six ingredients,
p, x^2, p^2/x^2, p^2/C^2 (C = C((p-1)/2, floor(p/6))), r3 and p^4 q_p(2),
each built once per verifier (_INGREDIENTS); one evaluator,
PrimeVerifier._sum_report, reads them all.  Every right side is a plain
int mod p^m:
binomials are read off the factorial tables as unit * p^v (but for
LEMMA_MPT's C((2p-2)/3, (p-1)/2), a product of the harmonic cache's
inverses, since its left side reads those tables), harmonic sums are the
harmonic cache's stored ints, a Fermat quotient is
(a^(p-1) mod p^(n+1) - 1) / p, the three Bernoulli values (B_(p-3),
B_(p-2)(1/3), and the Euler number E_(p-3) as B_(p-2)(1/4)/8) come mod p
from one O(p) special.bernoulli_values call by Voronoi's congruence,
memoized on the verifier, with no series and no Bernoulli table built, and
each rational coefficient is an int times the inverse of its denominator,
which is prime to p.  The three
range-quantified lemmas (LEMMA22, LEMMA_P2J, LEMMA_SH55) read strided
slices of the factorial tables and of two lists off the harmonic cache,
each built once per verifier: the inverses of 3j+1 mod p^2 over
j < (p+1)/2, a slice of the cache's inverses below p, and
u_j = 1 + p (H_2j - H_j) mod p^2 over the same j.  They read the cache's
sums below p only: where LEMMA_P2J needs p H_(p+r), it needs it mod
p^2, and takes it as p H_p + p H_r (special.harmonic_scaled_at_p); the
one LEMMA_SH55 term past p, at 3k+1 = 2p, needs its harmonic factor mod p
only, where it is 1.  So no verifier builds the cache's sums from p on.  They read inverse
factorials below 2p - 1 and units below 3p - 1 only, and each table stops
there.  LEMMA_SUNH takes its five order-2 harmonic sums as range sums of
the squared inverses, so no verifier builds an order-2 list.  Every
factorial they read is below 3p < p^2, where v_p(n!) = floor(n/p), so
each quotient's valuation is a constant
over a range: 1 at every case of LEMMA_P2J; 1 at every case of LEMMA22
but 3j+1 = p, where it is 0; and for C(2k,k) in LEMMA_SH55, 0 below
k = (p+1)/2 and 1 from there.
A case p X against p Y holds mod p^3 exactly when X = Y mod p^2, so each
side of LEMMA22 and LEMMA_P2J is one list of units mod p^2, the cases
divided by their common p, and one list comparison decides the lemma; only
on a mismatch is the first failing case looked for, and only the row's case
is multiplied back by p.  LEMMA_SH55 sums only the terms that can be
nonzero mod p^3 (see _lemma_sh55_terms), below k = (p+1)/2 as p times
units mod p^2.  The cases of another valuation, 3j+1 = p in LEMMA22 and in
LEMMA_SH55, and LEMMA_SH55's term at 3k+1 = 2p, are taken whole, mod p^3.
LEMMA_MPT's left side reads its samples t = 0 and 1 off the factorial
tables too; only its third sample, a binomial at a top index past 2p, is
still a PAdicValue.  The PAdicValue forms, the per-case loops and the mod
p^3 slice forms these replaced are kept as oracles in the tests.  The two
sides meet only in the final residue comparison, so a bug in the closed
forms cannot silently cancel against one in the sums.

Each table is kept to the digits its readers need.  The Domb table and its
weighted sums work mod p^K, K the largest requested m, on a context of
their own.  The kernel context holds the factorial tables and the
harmonic cache, and always works mod p^2 (_KERNEL_EXP), the most digits
any right side reads off it.  Closed forms and lemma cases reduce by the
verifier's own powers of p, which reach p^K.  Two reads need a third
digit of a unit binomial, both at j = (p-1)/3 (p = 1 mod 3), where 3j+1 = p
and p/(3j+1) = 1.  LEMMA22's case of valuation 0, C(p-1, j) C(p+j, j), is
(-1)^j (1 - p^2 sum_{i<=j} 1/i^2) mod p^3, which needs the inverses 1/i
mod p only, and takes them off the factorial tables as (i-1)!/i!.
LEMMA_SH55's C(2j, j) is taken mod p^3 by a helper of its own from exact
products of consecutive integers, with no table read.
"""

from __future__ import annotations

import os
import random
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import prod
from operator import mul
from time import perf_counter

from .domb import DombTable, HornerTriples, horner_walk
from .padic import PrimeContext, binomial_rational
from .quadform import decompose_known_prime
from .special import bernoulli_values, harmonic_inverses, harmonic_scaled, harmonic_scaled_at_p

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

# The precision of the kernel context: r3 mod p^2 (THM13) and the lemmas'
# units mod p^2 are the most digits any right side reads off its tables.
_KERNEL_EXP = 2


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
    method is looked up on the verifier at call time), and whether that
    method reads a weighted sum, which decides whether a sweep walks.  A
    sum target's closed form is its row of SUM_ROWS."""

    group: str
    applies: Callable[[int], bool]
    mod_exp: Callable[[int], int]
    method: str
    reads_sums: bool


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


# The catalog.  A new sum target is one entry here plus one row of
# SUM_ROWS; any other target is one entry here plus the method it names.
SPECS: dict[Target, TargetSpec] = {
    Target.THM11_4K: TargetSpec("thm1.1", _every, _exp(3), "thm11_4k", True),
    Target.THM11_16K: TargetSpec("thm1.1", _every, _exp(3), "thm11_16k", True),
    Target.THM12_4K: TargetSpec("thm1.2", _one_mod_3, _exp(3), "thm12", True),
    Target.THM12_16K: TargetSpec("thm1.2", _one_mod_3, _exp(3), "thm12", True),
    Target.THM13_K2_4K: TargetSpec("thm1.3", _every, _k2_exp, "thm13_all", True),
    Target.THM13_K2_16K: TargetSpec("thm1.3", _every, _k2_exp, "thm13_all", True),
    Target.THM13_K_4K: TargetSpec("thm1.3", _two_mod_3, _exp(2), "thm13_all", True),
    Target.THM13_K_16K: TargetSpec("thm1.3", _two_mod_3, _exp(2), "thm13_all", True),
    Target.CONJ1_DP1: TargetSpec("conj1", _every, _exp(4), "conj1_dp1", False),
    Target.CONJ2_MODP2: TargetSpec("conj2", _every, _exp(2), "conj2_mod_p2", True),
    Target.MUSUN_P5: TargetSpec("musun", _every, _exp(5), "musun", True),
    Target.LEMMA22: TargetSpec("lemmas", _one_mod_3, _exp(3), "lemma22_check", False),
    Target.LEMMA_MPT: TargetSpec("lemmas", _one_mod_3, _exp(2), "lemma_mpt_check", False),
    Target.LEMMA_P2J: TargetSpec("lemmas", _every, _exp(3), "lemma_p2j_check", False),
    Target.LEMMA_SUNH: TargetSpec("lemmas", lambda p: p > 5, _exp(2), "lemma_sunh_check", False),
    Target.LEMMA_SH55: TargetSpec("lemmas", _every, _exp(3), "lemma_sh55_check", True),
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


@dataclass(frozen=True)
class SumRow:
    """A sum target's two sides.  ``sums`` are its (base, weight) weighted
    sums: the first is its lhs, and each further one must match the same
    rhs.  ``rhs`` maps each class of p mod 3 that the target is stated for
    to (d, {ingredient: c}), the right side sum c I / d mod p^m over the
    ingredients I of _INGREDIENTS; an empty dict is 0."""

    sums: tuple[tuple[int, str], ...]
    rhs: dict[int, tuple[int, dict[str, int]]]


# The right side of every target that reads a weighted sum but LEMMA_SH55,
# on the ingredients p, x2 = x^2 for p = x^2 + 3y^2, p2/x2 = p^2/x^2,
# p2/C2 = p^2/C^2 for C = C((p-1)/2, floor(p/6)), r3 and p4q2 = p^4 q_p(2).
# So THM11's (4, {"x2": 16, "p": -8, "p2/x2": -1}) at p = 1 (mod 3) is
# 4x^2 - 2p - p^2/(4x^2).
SUM_ROWS: dict[Target, SumRow] = {
    Target.THM11_4K: SumRow(((4, "1"),), {1: (4, {"x2": 16, "p": -8, "p2/x2": -1}), 2: (2, {"p2/C2": 1})}),
    Target.THM11_16K: SumRow(((16, "1"),), {1: (4, {"x2": 16, "p": -8, "p2/x2": -1}), 2: (4, {"p2/C2": -1})}),
    Target.THM12_4K: SumRow(((4, "3k+2"),), {1: (1, {"p2/C2": 2})}),
    Target.THM12_16K: SumRow(((16, "3k+1"),), {1: (1, {"p2/C2": 1})}),
    Target.THM13_K2_4K: SumRow(((4, "k2"),), {1: (18, {"x2": 32, "p": -16, "p2/x2": -7}), 2: (9, {"r3": -20})}),
    Target.THM13_K2_16K: SumRow(((16, "k2"),), {1: (18, {"x2": 8, "p": -4, "p2/x2": -1}), 2: (9, {"r3": 4})}),
    Target.THM13_K_4K: SumRow(((4, "k"),), {2: (3, {"r3": 4})}),
    Target.THM13_K_16K: SumRow(((16, "k"),), {2: (3, {"r3": -4})}),
    Target.CONJ2_MODP2: SumRow(((4, "1"), (16, "1")), {1: (1, {"x2": 4, "p": -2}), 2: (1, {})}),
    Target.MUSUN_P5: SumRow(((16, "3k2+k"),), {1: (1, {"p4q2": -4}), 2: (1, {"p4q2": -4})}),
}

# The rows that thm13_all evaluates, each where it is stated.
_THM13 = [t for t in SUM_ROWS if SPECS[t].method == "thm13_all"]

# How a verifier v builds each ingredient, once, mod p^K (r3 mod p^2: only
# rows at m = 2 read it).  They read the decomposition and the kernel's
# tables, never the Domb table.  An inverse mod p^K reduces to the inverse
# mod p^m, so no row depends on which other targets were requested.
_INGREDIENTS: dict[str, Callable[[PrimeVerifier], int]] = {
    "p": lambda v: v.p,
    "x2": lambda v: v.decomposition.x ** 2,
    "p2/x2": lambda v: v.powers[2] * pow(v.decomposition.x ** 2, -1, v.powers[-1]),
    "p2/C2": lambda v: v.powers[2] * pow(v._binom_half_sixth ** 2, -1, v.powers[-1]),
    "r3": lambda v: v.r3(),
    "p4q2": lambda v: v.powers[4] * _fermat_quotient(2, v.p, v.precision),
}


def applicable(target: Target, p: int) -> bool:
    """Whether the congruence is stated at all for this prime."""
    return SPECS[target].applies(p)


def modulus_exponent(target: Target, p: int) -> int:
    """The exponent m such that the target is a congruence mod p^m."""
    return SPECS[target].mod_exp(p)


_Wanted = tuple[dict[Target, int], int]


def _wanted(p: int, targets) -> _Wanted:
    """The requested targets stated at p, each with its modulus exponent
    m, and K, the largest m among them (1 when there is none): the
    precision of the Domb table and the weighted sums, for the verifier
    and the walk alike.  A sweep works it out once per prime, for the
    walk, and hands it to the prime's verifier."""
    exps = {t: modulus_exponent(t, p) for t in targets if applicable(t, p)}
    return exps, max(exps.values(), default=1)


def _fermat_quotient(a: int, p: int, n: int) -> int:
    """q_p(a) = (a^(p-1) - 1)/p mod p^n, from a^(p-1) mod p^(n+1)."""
    return (pow(a, p - 1, p ** (n + 1)) - 1) // p


# Factors that _product_mod multiplies exactly before reducing.
_CHUNK = 32


def _product_mod(xs, mod: int) -> int:
    """The product of the sequence xs (a range or a list) mod `mod`: exact
    products of _CHUNK consecutive entries, each reduced once.  Linear in
    len(xs), where math.comb's cost grows faster than its arguments."""
    x = 1
    for i in range(0, len(xs), _CHUNK):
        x = x * prod(xs[i : i + _CHUNK]) % mod
    return x


# 16^15, ..., 16, 1: LEMMA_SH55's weights within one block of Horner in 16
_POW16 = [16**i for i in range(15, -1, -1)]


def _central_where_3j1_is_p(p: int) -> int:
    """C(2j, j) mod p^3 at j = (p-1)/3, p = 1 (mod 3): the unit binomial of
    the LEMMA_SH55 term whose p/(3j+1) is 1, the product of j+1 .. 2j over
    j!, with one inverse."""
    j = (p - 1) // 3
    mod = p**3
    return _product_mod(range(j + 1, 2 * j + 1), mod) * pow(_product_mod(range(1, j + 1), mod), -1, mod) % mod


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
    out once, here or by the sweep that passes it as ``wanted``, the
    _wanted(p, targets) it worked out for its walk (``targets`` is then not
    read).  ``precision``, K, is the largest modulus exponent m in
    ``want`` (1 when it is empty); the Domb table and the weighted sums are
    kept mod p^K, and each row is reduced mod p^m from ``powers``.
    ``triples``, the walk's HornerTriples for this p, replace the pass over
    the Domb table at bases 4 and 16; triples of another p, or below K,
    raise ValueError.  ``ctx`` is the kernel context, at precision
    _KERNEL_EXP = 2 whatever is requested, and its tables are kept mod p^2.
    Each right side is reduced by the verifier's own ``powers``, not the
    kernel's.  Every side is ring arithmetic with no division by p, so no
    digit above a target's m is needed, and a target's residues do not
    depend on which other targets are requested.  The shared tables are
    built on first read and kept.
    """

    def __init__(
        self, p: int, targets=None, *, triples: HornerTriples | None = None, wanted: _Wanted | None = None
    ):
        if wanted is None:
            wanted = _wanted(p, Target if targets is None else targets)
        self._exps, self.precision = wanted
        self.want = self._exps.keys()
        if triples is not None and (triples.p != p or triples.precision < self.precision):
            raise ValueError(
                f"triples for p = {triples.p} mod p^{triples.precision} "
                f"cannot serve p = {p} at precision {self.precision}"
            )
        self.ctx = PrimeContext(p, _KERNEL_EXP)
        self.powers = tuple(p**i for i in range(self.precision + 1))
        self.p = p
        self._triples = triples
        self._sums: dict[str, int] = {}
        self._ingredients: dict[str, int] = {}

    # ---- shared pieces ----

    @cached_property
    def domb_table(self) -> DombTable:
        """D_0 .. D_(p-1) mod p^K, on a context of its own at K, never on
        ``ctx``.  _horner reads its ``residues``, which walks the table
        back once; conj1_dp1 reads its top entry, which takes no walk."""
        return DombTable(self.ctx.with_precision(self.precision))

    def weighted_sum(self, base: int, weight: str) -> int:
        """sum_{k<p} w(k) D_k base^(-k) mod p^K for w in 1, k, k2, 3k+2,
        3k+1, 3k2+k, and any base prime to p; nothing is truncated.  The
        first call at 4 or 16 fills the twelve weights of both bases, and
        at another base its six, from one _moment_sums pass."""
        key = f"{weight}/{base}"
        if key not in self._sums:
            pk = self.powers[-1]
            bases = (4, 16) if base in (4, 16) else (base, base)
            for b, moments in zip(bases, self._moment_sums(*bases)):
                for name, coeffs in _WEIGHTS.items():
                    self._sums[f"{name}/{b}"] = sum(c * s for c, s in zip(coeffs, moments)) % pk
        return self._sums[key]

    def _moment_sums(self, a: int, b: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """sum_{k<p} k^i D_k c^(-k) mod p^K for i = 0, 1, 2 at c = a and b,
        each finished by _finish from c's Horner triple: the walk's, when
        the verifier was given them and (a, b) = (4, 16), else _horner's."""
        if self._triples is not None and (a, b) == (4, 16):
            ta, tb = self._triples.at4, self._triples.at16
        else:
            ta, tb = self._horner(a, b)
        return self._finish(a, ta), self._finish(b, tb)

    def _horner(self, a: int, b: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """(P(c), P'(c), P''(c)/2) mod p^K at c = a and b for P(c) =
        sum_{k<p} D_k c^(p-1-k), from one pass over the Domb table: Horner
        with derivatives in c, reduced once every 16 steps."""
        pk = self.powers[-1]
        r = self.domb_table.residues
        a0 = a1 = a2 = b0 = b1 = b2 = 0
        for i in range(0, len(r), 16):
            for d in r[i : i + 16]:
                a2 = a2 * a + a1
                a1 = a1 * a + a0
                a0 = a0 * a + d
                b2 = b2 * b + b1
                b1 = b1 * b + b0
                b0 = b0 * b + d
            a0, a1, a2, b0, b1, b2 = a0 % pk, a1 % pk, a2 % pk, b0 % pk, b1 % pk, b2 % pk
        return (a0, a1, a2), (b0, b1, b2)

    def _finish(self, c: int, triple: tuple[int, int, int]) -> tuple[int, int, int]:
        """The three moment sums at c from t0, t1, t2 = P(c), P'(c),
        P''(c)/2, n = p-1: sum k D_k c^(n-k) = n t0 - c t1 and
        sum k^2 D_k c^(n-k) = n^2 t0 - (2n-1) c t1 + 2 c^2 t2, and one
        product with c^(-n) ends each sum, mod p^K."""
        pk = self.powers[-1]
        n = self.p - 1
        t0, t1, t2 = triple
        w = pow(c, -n, pk)
        ct1 = c * t1
        s2 = n * n * t0 - (2 * n - 1) * ct1 + 2 * c * c * t2
        return t0 * w % pk, (n * t0 - ct1) * w % pk, s2 * w % pk

    @cached_property
    def decomposition(self):
        """p = x^2 + 3y^2, by the descent alone: ``ctx`` proved p prime."""
        return decompose_known_prime(self.p)

    def r3(self) -> int:
        """The correction unit used on the p = 2 (mod 3) side, mod p^2, the
        modulus of every THM13 target there: the Fermat quotient
        combination (1 + 2p + (4/3)(2^(p-1)-1) - (3/2)(3^(p-1)-1)) times
        the square of C((p-1)/2, floor(p/6)) mod p^2."""
        p = self.p
        pk = p * p
        t2 = pow(2, p - 1, pk) - 1
        t3 = pow(3, p - 1, pk) - 1
        c = self._binom_half_sixth
        return (6 + 12 * p + 8 * t2 - 9 * t3) * pow(6, -1, pk) * c * c % pk

    @cached_property
    def _binom_half_sixth(self) -> int:
        """C((p-1)/2, floor(p/6)) mod p^2 off the kernel's factorial tables:
        the binomial of THM12 at p = 1 (mod 3), where floor(p/6) = (p-1)/6,
        and of THM11 and r3 otherwise, where it is (p-5)/6.  (p-1)/2 < p,
        so it is a unit."""
        p = self.p
        h, k = (p - 1) // 2, p // 6
        fu, fi = self.ctx.factorial_tables(h)
        return fu[h] * fi[k] * fi[h - k] % (p * p)

    @cached_property
    def _inv_3j1(self) -> list[int]:
        """The inverse of 3j+1 mod p^2 for 0 <= j < (p+1)/2, which the right
        sides of LEMMA22 and LEMMA_SH55 read, off the harmonic cache's
        inverses below p: for 3j+1 < p a slice of them, reduced mod p^2
        whatever the kernel's precision, and 1/(p+r) = (1/r)(1 - p/r) above.
        3j+1 < 2p, so p divides it only at 3j+1 = p, where the entry is 0:
        both lemmas take that case whole, mod p^3."""
        p = self.p
        pp = p * p
        inv = harmonic_inverses(self.ctx)
        r = (1 - p) % 3 or 3  # the least r > 0 with p + r = 1 (mod 3)
        n = (p + 1) // 2
        low = inv[1:p:3]
        if self.ctx.pk != pp:
            low = [x % pp for x in low]
        high = [x * (1 - p * x) % pp for x in inv[r:n:3]]
        return low + [0] * (p % 3 == 1) + high

    @cached_property
    def _harmonic_units(self) -> list[int]:
        """u_j = 1 + p (H_2j - H_j) mod p^2 for 0 <= j < (p+1)/2, off the
        harmonic cache (2j < p, so both sums are p-integral): the factor
        that LEMMA22 reads as 2 - u_j, LEMMA_P2J's lower half as
        (-1)^j u_j, and LEMMA_SH55 as u_j.  Taken as 1 + p ((H_2j - H_j)
        mod p), already below p^2."""
        p = self.p
        h = harmonic_scaled(p - 1, self.ctx)
        return [1 + p * ((a - b) % p) for a, b in zip(h[0:p:2], h[: (p + 1) // 2])]

    @cached_property
    def _bernoulli_values(self) -> tuple[int, int, int]:
        """B_(p-3), B_(p-2)(1/3) and B_(p-2)(1/4) mod p, which CONJ1_DP1 and
        LEMMA_SUNH read: one special.bernoulli_values pass, whose power
        tables are dropped once the three ints are taken."""
        return bernoulli_values(self.ctx)

    def _exponent(self, target: Target) -> int:
        """The target's m at this prime; WrongPrimeClass where it is not stated,
        ValueError where the precision K is below m (the target was not
        requested, and the verifier works to fewer digits).  A wanted
        target's m is looked up."""
        m = self._exps.get(target)
        if m is not None:
            return m
        spec = SPECS[target]
        p = self.p
        if not spec.applies(p):
            raise WrongPrimeClass(f"{target.value} is not stated for p = {p}")
        m = spec.mod_exp(p)
        if self.precision < m:
            raise ValueError(f"{target.value} needs precision {m}, not {self.precision}")
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

    def _range_report(self, target, lhs: list[int], rhs: list[int], whole=None) -> CongruenceReport:
        """One row for a range lemma from its cases divided by their common
        p: case j is p lhs[j] against p rhs[j] mod p^3, each entry a unit
        mod p^2, since p X = p Y (mod p^3) exactly when X = Y (mod p^2); at
        j = ``whole``, a case of valuation 0, the entries are the case
        itself mod p^3.  One list comparison decides the lemma, and only on
        a mismatch is the first failing j looked for.  The row holds that
        case, or the last one when every case passed, multiplied back by p:
        the row _first_failure gives on the cases themselves.  No cases at
        all is an error, not a pass."""
        if not lhs or len(lhs) != len(rhs):
            raise ValueError(f"{target.value}: {len(lhs)} left and {len(rhs)} right cases")
        j = len(lhs) - 1
        if lhs != rhs:
            j = next(j for j, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
        s = 1 if j == whole else self.p
        return self._report(target, s * lhs[j], s * rhs[j])

    # ---- theorem-level targets ----

    def _sum_report(self, target: Target) -> CongruenceReport:
        """The row of a sum target off its SUM_ROWS entry: its first
        weighted sum against sum c I / d mod p^m, one inverse of d, and
        passing requires every further sum to match that rhs too.  m comes
        first, so WrongPrimeClass is raised before any table is built."""
        mod = self.powers[self._exponent(target)]
        row = SUM_ROWS[target]
        d, coeffs = row.rhs[self.p % 3]
        rhs = sum(c * self._ingredient(name) for name, c in coeffs.items()) * pow(d, -1, mod)
        (base, weight), *more = row.sums
        rep = self._report(target, self.weighted_sum(base, weight), rhs)
        rep.passed = rep.passed and all(self.weighted_sum(b, w) % mod == rep.rhs for b, w in more)
        return rep

    def _ingredient(self, name: str) -> int:
        """The right-side ingredient ``name`` of _INGREDIENTS mod p^K, built
        on its first read and kept."""
        x = self._ingredients.get(name)
        if x is None:
            x = self._ingredients[name] = _INGREDIENTS[name](self) % self.powers[-1]
        return x

    # The methods that SPECS names for the sum targets, one bench span each
    # (bench/tracer.py patches them by name).

    def thm11_4k(self) -> CongruenceReport:
        return self._sum_report(Target.THM11_4K)

    def thm11_16k(self) -> CongruenceReport:
        return self._sum_report(Target.THM11_16K)

    def conj2_mod_p2(self) -> CongruenceReport:
        return self._sum_report(Target.CONJ2_MODP2)

    def thm12(self) -> list[CongruenceReport]:
        return [self._sum_report(Target.THM12_4K), self._sum_report(Target.THM12_16K)]

    def thm13_all(self) -> list[CongruenceReport]:
        return [self._sum_report(t) for t in _THM13 if self.p % 3 in SUM_ROWS[t].rhs]

    def musun(self) -> CongruenceReport:
        return self._sum_report(Target.MUSUN_P5)

    def conj1_dp1(self) -> CongruenceReport:
        """D_(p-1) against 64^(p-1) - (p^3/6) B_(p-3) mod p^4: D_(p-1) the
        Domb table's top entry, read with no walk back over the table; the
        power mod p^K; the Bernoulli number mod p from the verifier's
        Bernoulli values, with no Bernoulli table built."""
        p = self.p
        lhs = self.domb_table[p - 1]
        b = self._bernoulli_values[0]
        rhs = pow(64, p - 1, self.powers[-1]) - p**3 * (b * pow(6, -1, p) % p)
        return self._report(Target.CONJ1_DP1, lhs, rhs)

    # ---- lemma-level targets ----

    def lemma22_check(self) -> CongruenceReport:
        """C(3j,j) C(p+j,3j+1) = (p/(3j+1))(1 - p H_2j + p H_j) mod p^3 for
        every 0 <= j <= (p-1)/2, as two lists of the cases divided by their
        common p (see _lemma22_units), compared whole.  The j with
        3j+1 = p is included; there p/(3j+1) = 1 and the case has valuation
        0, so it is compared mod p^3 in its place."""
        return self._range_report(Target.LEMMA22, *self._lemma22_units(), (self.p - 1) // 3)

    def _lemma22_units(self) -> tuple[list[int], list[int]]:
        """The two sides of every case j <= (p-1)/2 over p, as units mod
        p^2, one comprehension over strided slices each.  The left side is
        the factorial quotient (p+j)! (3j)! / (j! (2j)! (3j+1)! (p-2j-1)!),
        p^v times six units off the factorial tables.  Every index is below
        3p < p^2, so v_p(n!) = floor(n/p) and v = 1 at every j but the one
        with 3j+1 = p (p = 1 mod 3), where v = 0: elsewhere the entry is
        the product of the six units mod p^2.  The right side is
        inv(3j+1) (1 + p (H_j - H_2j)) = inv(3j+1) (2 - u_j) mod p^2, from
        _inv_3j1 and _harmonic_units.  At 3j+1 = p both entries are the
        case itself mod p^3.  The left is C(p-1, j) C(p+j, j) =
        (-1)^j prod_{i<=j} (1 - p/i)(1 + p/i) = (-1)^j (1 - p^2 sum 1/i^2)
        mod p^3, the sum mod p with 1/i = (i-1)!/i! off the factorial
        tables; the right is 1 + p (H_j - H_2j)."""
        p = self.p
        mod = self.powers[self._exponent(Target.LEMMA22)]
        pp = self.powers[2]
        fu, fi = self.ctx.factorial_tables(2 * p - 2)
        h = harmonic_scaled(p - 1, self.ctx)
        n = (p + 1) // 2
        lhs = [
            a * b * c * d * e * g % pp
            for a, b, c, d, e, g in zip(
                fu[p : p + n],  # (p+j)!
                fu[0 : 3 * n : 3],  # (3j)!
                fi[:n],  # 1/j!
                fi[0 : 2 * n : 2],  # 1/(2j)!
                fi[1 : 3 * n : 3],  # 1/(3j+1)!
                fi[p - 1 :: -2],  # 1/(p-2j-1)!
            )
        ]
        rhs = [x * (2 - u) % pp for x, u in zip(self._inv_3j1, self._harmonic_units)]
        j = (p - 1) // 3
        inv = list(map(mul, fu[:j], fi[1 : j + 1]))  # 1/i = (i-1)!/i!, i <= j
        lhs[j] = (-1) ** j * (1 - pp * (sum(map(mul, inv, inv)) % p)) % mod
        rhs[j] = (1 + p * (h[j] - h[2 * j])) % mod
        return lhs, rhs

    def lemma_mpt_check(self, t_samples=None) -> CongruenceReport:
        """C((2p-2)/3 + pt, (p-1)/2) against its first-order expansion in t
        mod p^2, by default at t = 0, 1 and one pseudo-random t.  The top
        index (2p-2)/3 is integral only for p = 1 (mod 3).

        Mod p^2 both sides are affine in t.  With u_i = (2p-2)/3 - i for
        i < (p-1)/2, all units, the left side is prod (u_i + pt) / ((p-1)/2)!
        = prod u_i (1 + pt sum 1/u_i) / ((p-1)/2)!, and the right side is
        c0 (1 + pt slope).  Two affine functions that agree at t = 0 and
        t = 1 agree at every integer t, so those two samples decide the
        lemma.  The third, the fourth draw of random.Random(p) in
        -10000..10000, is the case the row stores when every case passes,
        the one the recorded row digests hold.  The two sides read
        separate tables (see _lemma_mpt_lhs and _lemma_mpt_rhs)."""
        if t_samples is None:
            rng = random.Random(self.p)
            t_samples = [0, 1, [rng.randrange(-10000, 10001) for _ in range(4)][-1]]
        cases = list(zip(self._lemma_mpt_lhs(t_samples), self._lemma_mpt_rhs(t_samples)))
        return self._first_failure(Target.LEMMA_MPT, cases)

    def _lemma_mpt_lhs(self, t_samples) -> list[int]:
        """C(a + pt, h) mod p^2 at each t, a = (2p-2)/3 and h = (p-1)/2,
        a unit at every t (no a + pt - i with i < h is divisible by p).
        At t = 0 and 1 it is read off the factorial tables as
        fu[n] fi[h] fi[n-h], n = a + pt below 2p: n! and (n-h)! carry no p
        at t = 0 and one each at t = 1, where n - h = p + (p-1)/6.  At any
        other t it is binomial_rational's product of the a + pt - i over
        1/h!, a PAdicValue."""
        m = self._exponent(Target.LEMMA_MPT)
        p = self.p
        mod = self.powers[m]
        base = (2 * p - 2) // 3
        half = (p - 1) // 2
        fu, fi = self.ctx.factorial_tables(base + p)
        out = []
        for t in t_samples:
            n = base + p * t
            if t in (0, 1):
                out.append(fu[n] * fi[half] * fi[n - half] % mod)
            else:
                out.append(binomial_rational(n, half, self.ctx).residue(m))
        return out

    def _lemma_mpt_rhs(self, t_samples) -> list[int]:
        """c0 (1 + p t slope) mod p^m at each t, with c0 = C((2p-2)/3,
        (p-1)/2) and slope = H_((2p-2)/3) - H_((p-1)/6), both off the
        harmonic cache; both indices are below p.  c0 = C((2p-2)/3,
        (p-1)/6) is the product of ((p-1)/2 + i)/i over i <= (p-1)/6, with 1/i the
        cache's inverses, and not off the factorial tables, which the left
        side reads: a table entry read by both sides would cancel out of
        the comparison."""
        p = self.p
        mod = self.powers[self._exponent(Target.LEMMA_MPT)]
        base = (2 * p - 2) // 3
        k = (p - 1) // 6  # base - (p-1)/2
        inv = harmonic_inverses(self.ctx)
        c0 = _product_mod(list(map(mul, range(base - k + 1, base + 1), inv[1 : k + 1])), mod)
        h = harmonic_scaled(base, self.ctx)
        slope = h[base] - h[k]
        return [c0 * (1 + p * t * slope) % mod for t in t_samples]

    def lemma_p2j_check(self) -> CongruenceReport:
        """(3j+1) C(3j,j) C(p+2j,3j+1) mod p^3 for all 0 <= j <= p-1:
        p(-1)^j (1 + p H_2j - p H_j) on the lower half, and
        2 p^2 (-1)^j (H_2j - H_j) on the upper half, where H_2j is no
        longer p-integral and the negative valuation must cancel the p^2.
        Every case is p times a unit, so the two sides are compared as two
        lists of units mod p^2 (see _lemma_p2j_units)."""
        return self._range_report(Target.LEMMA_P2J, *self._lemma_p2j_units())

    def _lemma_p2j_units(self) -> tuple[list[int], list[int]]:
        """The two sides of every case j < p over p, as units mod p^2, each
        built from strided slices.  The left side is the factorial quotient
        (p+2j)! / (j! (2j)! (p-j-1)!), p^v times four units off the
        factorial tables; every index is below 3p < p^2, so v_p(n!) =
        floor(n/p) and v = 1 at every j, and the entry is the product of
        the four units mod p^2.  This is the one reader of units past its
        inverses: it grows the units to (3p-2)! and the inverses to
        1/(2p-2)!.  The harmonic numbers come from the harmonic
        cache's sums below p.  The right side is (-1)^j (1 + p (H_2j - H_j)),
        (-1)^j u_j from _harmonic_units, on the lower half (2j < p) and,
        where p H_2j absorbs H_2j's negative valuation,
        2 (-1)^j (p H_2j - p H_j) on the upper half, one comprehension
        each.  There p H_2j is needed mod p^2 only, and is
        p H_p + p H_(2j-p) (special.harmonic_scaled_at_p), so the upper
        half reads H_(2j-p) and H_j below p, and p H_p once."""
        p = self.p
        self._exponent(Target.LEMMA_P2J)  # raises before any table is built
        pp = self.powers[2]
        self.ctx.factorial_decomposed(3 * p - 2)
        fu, fi = self.ctx.factorial_tables(2 * p - 2)
        h = harmonic_scaled(p - 1, self.ctx)
        at_p = harmonic_scaled_at_p(self.ctx)
        n = (p + 1) // 2  # the lower half, 2j < p
        lhs = [
            a * b * c * d % pp
            for a, b, c, d in zip(
                fu[p : 3 * p : 2],  # (p+2j)!
                fi[:p],  # 1/j!
                fi[0 : 2 * p : 2],  # 1/(2j)!
                fi[p - 1 :: -1],  # 1/(p-j-1)!
            )
        ]
        u = self._harmonic_units
        rhs = u.copy()
        rhs[1::2] = [-x % pp for x in u[1::2]]
        sg = (1, -1) * n  # (-1)^j
        # p H_2j = p H_p + p H_(2j-p) mod p^2, 2j - p odd from 1 to p - 2
        rhs += [2 * s * (at_p + p * (a - b)) % pp for s, a, b in zip(sg[n:p], h[1 : p - 1 : 2], h[n:p])]
        return lhs, rhs

    def lemma_sh55_check(self) -> CongruenceReport:
        """The full Domb sum against the central-binomial expansion:
        sum D_k/16^k = sum C(2k,k)^2 16^(-k) (p/(3k+1))(1 + p H_2k - p H_k)
        mod p^3, both sums over 0 <= k <= p-1.  The right side sums only the
        terms of _lemma_sh55_terms, those that are not 0 mod p^3 by their
        valuation alone: p times the regular ones' units mod p^2, each
        weighted by 16^(-k), plus the one term of another valuation."""
        p = self.p
        lhs = self.weighted_sum(16, "1")
        mod = self.powers[self._exponent(Target.LEMMA_SH55)]
        pp = self.powers[2]
        binomials, harmonics, (b, x) = self._lemma_sh55_terms()
        # sum_k y_k 16^(-k) mod p^2 for y_k = b_k x_k, by Horner in 16,
        # sixteen terms a step: each block is one exact sum against
        # 16^15 .. 1, and a short last block reads as one padded with
        # zeros, so s ends as sum_k y_k 16^(16 blocks - 1 - k)
        y = [u * v for u, v in zip(binomials, harmonics)]
        s = 0
        for i in range(0, len(y), 16):
            s = ((s << 64) + sum(map(mul, y[i : i + 16], _POW16))) % pp
        s = s * pow(16, 1 - 16 * ((len(y) + 15) // 16), pp) % pp
        return self._report(Target.LEMMA_SH55, lhs, (p * s + b * x) % mod)

    def _lemma_sh55_terms(self) -> tuple[list[int], list[int], tuple[int, int]]:
        """The terms of the expansion that can be nonzero mod p^3.  From
        k = (p+1)/2 on, p < 2k < 2p, so C(2k,k) carries exactly one p and
        its square p^2, and 3p/2 < 3k+1 < 3p, so p/(3k+1) carries one more
        p unless 3k+1 = 2p, where it is 1/2.  Below (p+1)/2, 2k < p:
        C(2k,k) is a unit, H_2k is p-integral, and the term is p times a
        unit but at 3k+1 = p (p = 1 mod 3).  So the terms are:

        - for each k < (p+1)/2, the binomial unit C(2k,k)^2 mod p^2, off
          the factorial tables, and the harmonic unit
          inv(3k+1) (1 + p (H_2k - H_k)) = inv(3k+1) u_k mod p^2, off
          _inv_3j1 and _harmonic_units; the term is p 16^(-k) times their
          product.  At
          3k+1 = p the harmonic unit is 0, as _inv_3j1 holds 0 there;
        - the one term of another valuation, as its factors
          C(2k,k)^2 16^(-k) and (p/(3k+1))(1 + p H_2k - p H_k) mod p^3: at
          3k+1 = p, C(2k,k) from _central_where_3j1_is_p, the harmonic
          factor's p/(3k+1) being 1; at k0 = (2p-1)/3 (p = 2 mod 3), the
          binomial factor p^2 times a unit off the tables, and the
          harmonic factor as 1.  Under that p^2 the harmonic factor is
          needed mod p only, and there it is 1 at every such p, so this
          term reads no harmonic sum."""
        p = self.p
        mod = self.powers[self._exponent(Target.LEMMA_SH55)]
        pp = self.powers[2]
        fu, fi = self.ctx.factorial_tables(2 * p - 2)
        n = (p + 1) // 2
        binomials = [(a * b * b % pp) ** 2 % pp for a, b in zip(fu[0:p:2], fi[:n])]
        harmonics = [x * u % pp for x, u in zip(self._inv_3j1, self._harmonic_units)]
        if p % 3 == 1:
            k = (p - 1) // 3
            c = _central_where_3j1_is_p(p)
            h = harmonic_scaled(p - 1, self.ctx)
            whole = (c * c * pow(16, -k, mod) % mod, (1 + p * (h[2 * k] - h[k])) % mod)
        else:
            k = (2 * p - 1) // 3
            c = fu[2 * k] * fi[k] * fi[k] % mod
            b = p * p * c * c * pow(16, -k, mod) % mod
            # b carries p^2, so only the harmonic factor mod p reaches the
            # row: (1/2)(1 + p H_2k - p H_k) = (1/2)(1 + 1) = 1 mod p, as
            # p H_2k = p H_p + p H_(2k-p) = 1 and p H_k = 0 mod p (2k - p
            # and k are below p)
            whole = (b, 1)
        return binomials, harmonics, whole

    def lemma_sunh_check(self) -> CongruenceReport:
        """The harmonic-number evaluations at p/6, p/4, p/3, 2p/3 and the
        half/full range, against Fermat quotients, B_(p-2)(1/3) and
        E_(p-3), the last read as B_(p-2)(1/4)/8 mod p, both from the
        verifier's Bernoulli values.  All sub-congruences must hold; p = 5
        is excluded."""
        return self._first_failure(Target.LEMMA_SUNH, self._lemma_sunh_cases())

    def _lemma_sunh_cases(self) -> list[tuple[int, int]]:
        """(lhs, rhs) of the ten sub-congruences, each reduced mod p or mod
        p^m as stated.  Every harmonic index is below p, so the cache's
        stored ints are the sums themselves; the order-2 sums come from
        _order2_sums.  w = chi B_(p-2)(1/3) is known
        mod p only, and enters only as p w, known mod p^2 = p^m.  E_(p-3) =
        B_(p-2)(1/4)/8 mod p, from E_n = -4^(n+1) B_(n+1)(1/4)/(n+1) at
        even n, so no Euler series is built."""
        p = self.p
        ctx = self.ctx
        m = self._exponent(Target.LEMMA_SUNH)
        mod = self.powers[m]
        h = harmonic_scaled(p - 1, ctx)
        h2 = self._order2_sums()
        q2 = _fermat_quotient(2, p, m)
        q3 = _fermat_quotient(3, p, m)
        chi = 1 if p % 3 == 1 else -1
        _, b3, b4 = self._bernoulli_values
        w = chi * b3 % p
        e = b4 * pow(8, -1, p) % p
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

    def _order2_sums(self) -> dict[int, int]:
        """H^(2)_n mod p^K of the kernel at the five n that LEMMA_SUNH reads,
        p/6, p/4, p/3, (p-1)/2 and p-1 (floors), by n: running sums of the
        squared inverses off the harmonic cache, one range sum between
        consecutive n, so no order-2 list is built."""
        p = self.p
        pk = self.ctx.pk
        inv = harmonic_inverses(self.ctx)
        sums = {}
        total = 0
        lo = 1
        for n in (p // 6, p // 4, p // 3, (p - 1) // 2, p - 1):
            seg = inv[lo : n + 1]
            total += sum(map(mul, seg, seg))
            sums[n] = total % pk
            lo = n + 1
        return sums

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


def verify_prime(
    p: int, targets=None, *, triples: HornerTriples | None = None, wanted: _Wanted | None = None
) -> list[CongruenceReport]:
    """All requested targets for one prime, in catalog order.

    Targets whose congruence is not stated for this prime's residue class
    are skipped, not failed.  ``triples``, the walk's HornerTriples for p
    (see sweep), stand in for the per-prime pass over the Domb table, and
    ``wanted``, the sweep's _wanted(p, targets), for working out the
    targets stated at p once more.
    """
    return PrimeVerifier(p, targets, triples=triples, wanted=wanted).run()


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


# In CPython 3.11 the walk to hi costs about 2.8e-9 hi^2 s, and the
# per-prime Horner pass it replaces about 0.4 us per table entry, so the
# two break even near sum p = hi^2/140.  A sweep walks from sum p >=
# hi^2/_WALK_SHARE, with room for the error in both figures: every sweep
# from 5 walks, sum p being about hi^2/(2 ln hi) there, and a narrow window
# far above 5, such as 4000..4060 or 100003..100019, does not.
_WALK_SHARE = 64


def _walk(wanted: dict[int, _Wanted]) -> dict[int, HornerTriples]:
    """The walk's triples for each prime p of ``wanted`` (p -> _wanted(p,
    targets)) at which a wanted target reads a weighted sum, at the
    verifier's K there; none when there is no such prime, or when their
    sum is below hi^2/_WALK_SHARE, hi the largest of them."""
    need = {p: k for p, (exps, k) in wanted.items() if any(SPECS[t].reads_sums for t in exps)}
    if not need or _WALK_SHARE * sum(need) < max(need) ** 2:
        return {}
    return horner_walk(need)


def _verify_from(primes, wanted, walked, counter, i: int) -> list[CongruenceReport]:
    """Verify primes[i], then each prime whose index this process takes off
    the shared counter, until an index runs past the end of the list; each
    with its entry of ``wanted`` (p -> _wanted(p, targets)) and its triples
    from ``walked``, if it has any."""
    rows: list[CongruenceReport] = []
    while i < len(primes):
        p = primes[i]
        rows.extend(verify_prime(p, triples=walked.get(p), wanted=wanted[p]))
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
    return rows


def _sweep_child(primes, wanted, walked, counter, i: int, conn) -> None:
    """Send a child's share of the sweep to the parent in one message: its
    rows, or the traceback of its failure.  A failure also moves the
    counter past the end, so the other processes stop after their current
    prime."""
    try:
        out = _verify_from(primes, wanted, walked, counter, i)
    except Exception:
        import traceback

        with counter.get_lock():
            counter.value = len(primes)
        out = traceback.format_exc()
    conn.send(out)


def _sweep_parallel(primes, wanted, walked, workers: int) -> list[list[CongruenceReport]]:
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
                target=_sweep_child, args=(primes, wanted, walked, counter, i, send), daemon=True
            )
            child.start()
            send.close()  # so that recv sees EOF if the child dies without sending
            children.append((child, recv))
        chunks = [_verify_from(primes, wanted, walked, counter, 0)]
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
    ``workers`` below 1 raises ValueError.

    Before any prime is verified or any child starts, this process walks
    the exact Domb numbers once up to the largest prime whose targets read
    a weighted sum (domb.horner_walk), when the sweep's primes make the
    walk pay (_walk), and each such prime's verifier finishes its moment
    sums from the walk's triples, handed to it through verify_prime, in
    place of its own pass over the Domb table.  Every prime still builds
    its Domb table, for CONJ1_DP1's D_(p-1): the top entry, one product
    past the table's recurrence pass.  The table of a prime given the
    walk's triples never walks back to the lower entries.  The targets
    stated at each prime and its K are worked out once, before the walk,
    and handed to its verifier with the triples.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers}")
    targets = list(Target) if targets is None else list(targets)
    primes = sieve_primes(max(lo, 5), hi)
    workers = min(workers, len(primes), os.cpu_count() or 1)
    wanted = {p: _wanted(p, targets) for p in primes}
    walked = _walk(wanted)
    if workers > 1:
        chunks = _sweep_parallel(primes[::-1], wanted, walked, workers)
    else:
        # not _sweep_parallel at one worker: its counter would import
        # multiprocessing and ctypes into every serial sweep, which lifts
        # the peak RSS of sweep(5, 500) from 17.3 MB to about 19 MB
        chunks = [verify_prime(p, triples=walked.get(p), wanted=wanted[p]) for p in primes]
    rows = [r for chunk in chunks for r in chunk]
    rows.sort(key=lambda r: (r.prime, _TARGET_INDEX[r.target]))
    return rows
