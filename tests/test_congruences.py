"""Congruence targets at small primes, frozen against an exact-rational oracle.

Every number in FROZEN_LHS was computed independently with stdlib-only
integer/Fraction arithmetic (binomial convolutions reduced by hand) before
being recorded here, and spot-checked against the closed forms.
"""

from fractions import Fraction

import pytest

from dombcheck.congruences import (
    SPECS,
    CongruenceReport,
    PrimeVerifier,
    Target,
    WrongPrimeClass,
    applicable,
    modulus_exponent,
    sieve_primes,
    sweep,
    verify_prime,
)
from dombcheck.padic import binomial_int

T = Target

# lhs residues mod p^m, all independently recomputed
FROZEN_LHS = {
    (5, T.THM11_4K): 75,
    (5, T.THM11_16K): 25,
    (5, T.THM13_K2_4K): 20,
    (5, T.THM13_K2_16K): 16,
    (5, T.THM13_K_4K): 23,
    (5, T.THM13_K_16K): 2,
    (5, T.CONJ1_DP1): 216,
    (5, T.CONJ2_MODP2): 0,
    (5, T.MUSUN_P5): 1875,
    (5, T.LEMMA_P2J): 60,
    (5, T.LEMMA_SH55): 25,
    (7, T.THM11_4K): 149,
    (7, T.THM11_16K): 149,
    (7, T.THM12_4K): 49,
    (7, T.THM12_16K): 196,
    (7, T.THM13_K2_4K): 39,
    (7, T.THM13_K2_16K): 71,
    (7, T.CONJ1_DP1): 575,
    (7, T.CONJ2_MODP2): 2,
    (7, T.MUSUN_P5): 14406,
    (7, T.LEMMA22): 84,
    (7, T.LEMMA_SH55): 149,
    (11, T.THM13_K2_4K): 8,
    (11, T.THM13_K2_16K): 71,
    (11, T.THM13_K_4K): 92,
    (11, T.THM13_K_16K): 29,
    (13, T.THM11_4K): 485,
    (13, T.THM11_16K): 485,
    (13, T.THM12_4K): 1183,
    (13, T.THM12_16K): 1690,
    (13, T.THM13_K2_4K): 1023,
    (13, T.THM13_K2_16K): 1819,
    (13, T.CONJ1_DP1): 3446,
    (13, T.CONJ2_MODP2): 147,
    (13, T.MUSUN_P5): 28561,
}

_rows_cache: dict[int, dict[Target, CongruenceReport]] = {}


def rows_for(p):
    if p not in _rows_cache:
        _rows_cache[p] = {r.target: r for r in verify_prime(p)}
    return _rows_cache[p]


def test_applicable():
    assert applicable(T.THM12_4K, 7) and not applicable(T.THM12_4K, 5)
    assert applicable(T.THM13_K_4K, 5) and not applicable(T.THM13_K_4K, 7)
    assert applicable(T.LEMMA_SUNH, 7) and not applicable(T.LEMMA_SUNH, 5)
    assert applicable(T.THM11_4K, 5) and applicable(T.THM11_4K, 7)


def test_modulus_exponent():
    assert modulus_exponent(T.THM11_4K, 7) == 3
    assert modulus_exponent(T.THM13_K2_4K, 7) == 3
    assert modulus_exponent(T.THM13_K2_4K, 5) == 2
    assert modulus_exponent(T.CONJ1_DP1, 7) == 4
    assert modulus_exponent(T.MUSUN_P5, 7) == 5


def test_specs_cover_every_target_once():
    assert list(SPECS) == list(Target)


def test_spec_methods_exist():
    for target, spec in SPECS.items():
        assert callable(getattr(PrimeVerifier, spec.method, None)), target


def test_row_counts():
    assert len(rows_for(5)) == 11
    assert len(rows_for(7)) == 14
    assert len(rows_for(11)) == 12
    assert len(rows_for(13)) == 14


@pytest.mark.parametrize("p,target", sorted(FROZEN_LHS, key=lambda c: (c[0], c[1].value)))
def test_frozen_residues(p, target):
    row = rows_for(p)[target]
    want = FROZEN_LHS[(p, target)]
    assert row.lhs == want
    assert row.rhs == want
    assert row.passed
    assert row.modulus_exponent == modulus_exponent(target, p)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 19, 31])
def test_all_rows_pass(p):
    for target, row in rows_for(p).items():
        assert row.passed, (p, target)


def test_thm11_two_weights_relation():
    # on the p = 2 (mod 3) side the two closed forms differ by a factor -2
    for p in (5, 11, 17, 23):
        rows = rows_for(p)
        pm = p**3
        assert rows[T.THM11_4K].lhs == (-2 * rows[T.THM11_16K].lhs) % pm


def test_thm12_two_weights_relation():
    for p in (7, 13, 19, 31):
        rows = rows_for(p)
        pm = p**3
        assert rows[T.THM12_4K].lhs == 2 * rows[T.THM12_16K].lhs % pm


def test_conj2_is_weaker_thm11():
    for p in (5, 7, 13, 19):
        rows = rows_for(p)
        pm = p * p
        assert rows[T.CONJ2_MODP2].lhs == rows[T.THM11_4K].lhs % pm
        assert rows[T.CONJ2_MODP2].lhs == rows[T.THM11_16K].lhs % pm


def test_sh55_shares_sum_with_thm11():
    for p in (5, 7, 13):
        rows = rows_for(p)
        assert rows[T.LEMMA_SH55].lhs == rows[T.THM11_16K].lhs


def test_r3_spot_values():
    assert PrimeVerifier(5).r3().residue(2) == 11
    assert PrimeVerifier(11).r3().residue(2) == 69


def test_lemma22_case_values():
    # p = 7 cases worked out by hand: 7, 210, 540 = 197 mod 343, 84
    v = PrimeVerifier(7, [T.LEMMA22])
    ctx = v.ctx
    got = [
        (binomial_int(3 * j, j, ctx) * binomial_int(7 + j, 3 * j + 1, ctx)).residue(3)
        for j in range(4)
    ]
    assert got == [7, 210, 197, 84]
    assert v.lemma22_check().lhs == 84


def test_p2j_case_values():
    # p = 5 cases by hand: 5, 420, 3780, 9240, 6435 reduced mod 125
    v = PrimeVerifier(5, [T.LEMMA_P2J])
    ctx = v.ctx
    got = [
        (
            (3 * j + 1)
            * binomial_int(3 * j, j, ctx)
            * binomial_int(5 + 2 * j, 3 * j + 1, ctx)
        ).residue(3)
        for j in range(5)
    ]
    assert got == [5, 45, 30, 115, 60]
    assert v.lemma_p2j_check().lhs == 60


def test_mpt_explicit_samples():
    v = PrimeVerifier(7, [T.LEMMA_MPT])
    frozen = {0: 4, 1: 18, -1: 39, 2: 32, -2: 25}
    for t, want in frozen.items():
        rep = v.lemma_mpt_check(t_samples=[t])
        assert rep.passed
        assert rep.lhs == want
    rep = v.lemma_mpt_check(t_samples=[0, 1, -1, 2, -2])
    assert rep.passed and rep.lhs == 25


def test_wrong_prime_class_raises():
    with pytest.raises(WrongPrimeClass):
        PrimeVerifier(5, [T.THM12_4K], guard=1).thm12()
    with pytest.raises(WrongPrimeClass):
        PrimeVerifier(11, [T.LEMMA22]).lemma22_check()
    with pytest.raises(WrongPrimeClass):
        PrimeVerifier(11, [T.LEMMA_MPT]).lemma_mpt_check()
    with pytest.raises(WrongPrimeClass):
        PrimeVerifier(5, [T.LEMMA_SUNH]).lemma_sunh_check()


def test_verify_prime_skips_inapplicable():
    rows = verify_prime(5, [T.THM12_4K, T.LEMMA_SUNH])
    assert rows == []
    rows = verify_prime(5, [T.THM12_4K, T.THM11_4K])
    assert [r.target for r in rows] == [T.THM11_4K]


def test_verify_prime_rejects_bad_guard():
    with pytest.raises(ValueError):
        verify_prime(7, guard=0)


def test_guard_does_not_change_residues():
    a = verify_prime(7, guard=1)
    b = verify_prime(7, guard=2)
    assert [(r.target, r.lhs, r.rhs) for r in a] == [(r.target, r.lhs, r.rhs) for r in b]


def test_sieve_primes():
    assert sieve_primes(5, 30) == [5, 7, 11, 13, 17, 19, 23, 29]
    assert sieve_primes(4, 4) == []
    assert sieve_primes(2, 2) == [2]
    assert sieve_primes(10, 5) == []
    assert len(sieve_primes(5, 2000)) == 301


def test_sweep_small_range():
    rows = sweep(5, 40)
    primes = sorted({r.prime for r in rows})
    assert primes == [5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert all(r.passed for r in rows)
    # sorted by prime then catalog order
    keys = [(r.prime, list(Target).index(r.target)) for r in rows]
    assert keys == sorted(keys)


def test_sweep_ignores_tiny_primes():
    rows = sweep(2, 6)
    assert {r.prime for r in rows} == {5}


def test_sweep_workers_agree():
    seq = sweep(5, 40, workers=1)
    par = sweep(5, 40, workers=2)
    strip = lambda rows: [
        (r.prime, r.target, r.modulus_exponent, r.lhs, r.rhs, r.passed) for r in rows
    ]
    assert strip(seq) == strip(par)


def test_sweep_caps():
    assert SPECS[T.CONJ1_DP1].cap == 1000
    rows = sweep(995, 1010, targets=[T.CONJ1_DP1])
    assert [r.prime for r in rows] == [997]
    rows = sweep(995, 1010, targets=[T.CONJ1_DP1], caps={T.CONJ1_DP1: 1010})
    assert [r.prime for r in rows] == [997, 1009]
    assert all(r.passed for r in rows)
