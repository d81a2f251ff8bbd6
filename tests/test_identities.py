"""Exact rational identity catalog."""

from fractions import Fraction
from math import comb

import pytest

from dombcheck import identities
from dombcheck.domb import domb_exact
from dombcheck.identities import (
    IDENTITY_IDS,
    binom_frac,
    check_all_identities,
    check_identity,
    harmonic_exact,
)


def pair(name, *params):
    """One case's (lhs, rhs) of a catalog identity, by its evaluator."""
    return identities._CATALOG[name][0](*params)


def test_identity_ids_complete():
    assert len(IDENTITY_IDS) == 17
    assert "I1" in IDENTITY_IDS and "CYID" in IDENTITY_IDS
    assert "CZ_TRANSFORM" in IDENTITY_IDS and "SUN_TRANSFORM" in IDENTITY_IDS


def test_harmonic_exact():
    assert harmonic_exact(0) == 0
    assert harmonic_exact(4) == Fraction(25, 12)
    assert harmonic_exact(3, 2) == Fraction(49, 36)


def test_harmonic_exact_rejects_bad_arguments():
    harmonic_exact(5)  # a memo long enough to read negative indices from
    for n in (-1, -2):
        with pytest.raises(ValueError):
            harmonic_exact(n)
        with pytest.raises(ValueError):
            harmonic_exact(n, 2)
    with pytest.raises(ValueError):
        harmonic_exact(3, 3)
    assert harmonic_exact(5) == Fraction(137, 60)


def test_binom_frac():
    assert binom_frac(Fraction(-1, 2), 2) == Fraction(3, 8)
    assert binom_frac(Fraction(-1, 3), 1) == Fraction(-1, 3)
    assert binom_frac(5, 2) == comb(5, 2)
    assert binom_frac(Fraction(7), 0) == 1


def test_spot_values_by_hand():
    # each pair was worked out by hand
    lhs, rhs = pair("I5", 1, None)
    assert lhs == rhs == Fraction(1, 2)
    lhs, rhs = pair("I7", 1, None)
    assert lhs == rhs == Fraction(1, 10)
    lhs, rhs = pair("I1", 3, 1)
    assert lhs == rhs == 1
    lhs, rhs = pair("I11", 3, 0)
    assert lhs == rhs == 5
    lhs, rhs = pair("I3", 1, None)
    assert lhs == rhs == Fraction(-1, 2)
    lhs, rhs = pair("I4", 1, None)
    assert lhs == rhs == Fraction(-1, 3)
    lhs, rhs = pair("I9", 1, None)
    assert lhs == rhs == Fraction(-2, 3)
    lhs, rhs = pair("CYID", 2, 3)
    assert lhs == rhs == Fraction(1, 20)
    # I2: -2 (H_1 - H_2)/4 = 1/4 = (P_1(1)/4) P_2(1) = (2/4)(1/2)
    lhs, rhs = pair("I2", 1, None)
    assert lhs == rhs == Fraction(1, 4)
    # I8: -2 (H_2 - H_1)/5 = -1/5 = -(P_2(1)/5) P_1(1) = -(1/10) 2
    lhs, rhs = pair("I8", 1, None)
    assert lhs == rhs == Fraction(-1, 5)
    # I6: 8 C(3,3) + 11 C(4,3) = 52 = (13 4/5) C(5,4)
    lhs, rhs = pair("I6", 4, 1)
    assert lhs == rhs == 52
    # I10: 4 C(3,3) + 7 C(4,3) = 32 = (8 4/5) C(5,4)
    lhs, rhs = pair("I10", 3, 1)
    assert lhs == rhs == 32
    # I12: 1 C(3,3) + 4 C(4,3) = 17 = ((6 - 84 + 180)/30) C(5,4)
    lhs, rhs = pair("I12", 3, 1)
    assert lhs == rhs == 17
    # I13: 2 C(3,3) + 3 C(4,3) = 14 = (14/5) C(5,4)
    lhs, rhs = pair("I13", 4, 1)
    assert lhs == rhs == 14
    # I14: 1 C(3,3) + 2 C(4,3) = 9 = (9/5) C(5,4)
    lhs, rhs = pair("I14", 3, 1)
    assert lhs == rhs == 9


def test_check_identity_reports():
    rep = check_identity("I1", 10)
    assert rep.passed
    assert rep.identity == "I1"
    assert rep.cases == sum(n // 2 + 1 for n in range(1, 11))
    assert rep.first_failure is None


def test_check_identity_unknown():
    with pytest.raises(KeyError):
        check_identity("I99", 5)


def test_transforms():
    assert check_identity("CZ_TRANSFORM", 30).passed
    assert check_identity("SUN_TRANSFORM", 30).passed
    assert IDENTITY_IDS[-2:] == ("CZ_TRANSFORM", "SUN_TRANSFORM")
    assert check_identity("CZ_TRANSFORM", 12).cases == 13


def test_transform_failure_names_its_case(monkeypatch):
    # a Sun form that is off at n = 7 fails there, after 8 cases (n = 0..7)
    real = identities.domb_via_sun
    monkeypatch.setattr(identities, "domb_via_sun", lambda n: real(n) + (n == 7))
    rep = check_identity("SUN_TRANSFORM", 10)
    assert not rep.passed
    assert rep.cases == 8
    params, lhs, rhs = rep.first_failure
    assert params == (7,)
    assert (lhs, rhs) == (domb_exact(7) + 1, domb_exact(7))
    assert check_identity("CZ_TRANSFORM", 10).passed
    # a moved family parameter fails too.  I13 at a = 2 in place of 1: the
    # j = 0 cases and (1, 1) still hold, and (2, 1), the fourth case, reads
    # 1 C(3,3) against (6/5) C(4,4)
    weight, coefficient = (lambda k: k), (lambda n, j: Fraction(3 * n * j + n - j - 1, 3 * j + 2))
    monkeypatch.setitem(identities._CATALOG, "I13", identities._telescoping(2, weight, coefficient))
    rep = check_identity("I13", 10)
    assert not rep.passed and rep.cases == 4
    assert rep.first_failure == ((2, 1), 1, Fraction(6, 5))
    # in the alternating family r and the sign move both sides, and both
    # identities hold at r = 4 too, so a whole move checks a true identity;
    # I2's sign moved on its right side alone fails at n = 1
    for name, family in [("I5", identities._alternating(4)), ("I2", identities._alternating_harmonic(4, -1))]:
        monkeypatch.setitem(identities._CATALOG, name, family)
        assert check_identity(name, 8).passed, name
    real, cases = identities._alternating_harmonic(1, 1)
    monkeypatch.setitem(identities._CATALOG, "I2", (lambda n, j: (real(n, j)[0], -real(n, j)[1]), cases))
    rep = check_identity("I2", 10)
    assert not rep.passed and rep.cases == 1
    assert rep.first_failure == ((1, None), Fraction(1, 4), Fraction(-1, 4))


def test_binom_frac_rejects_floats():
    # 1/3 as a float is a different rational; int and Fraction tops only
    assert binom_frac(Fraction(1, 3), 2) == Fraction(-1, 9)
    for bad in (1 / 3, 0.5, 2.0):
        with pytest.raises(TypeError):
            binom_frac(bad, 2)


def test_all_identities_small():
    reports = check_all_identities(12)
    assert len(reports) == len(IDENTITY_IDS)
    for rep in reports:
        assert rep.passed, rep.identity
        assert rep.cases > 0


def test_no_cases_is_not_a_pass():
    for n_max in (0, -3):
        with pytest.raises(ValueError):
            check_all_identities(n_max)
        for name in IDENTITY_IDS:
            with pytest.raises(ValueError):
                check_identity(name, n_max)
