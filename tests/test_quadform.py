"""The x^2 + 3y^2 prime decomposition."""

from math import isqrt

import pytest

from dombcheck.quadform import NotRepresentable, decompose_x2_3y2
from dombcheck.padic import is_prime


def _brute_decompose(p):
    for x in range(1, isqrt(p) + 1):
        rest = p - x * x
        if rest <= 0:
            break
        y2, r = divmod(rest, 3)
        if r == 0:
            y = isqrt(y2)
            if y * y == y2:
                return x, y
    return None


def test_decompose_spots():
    d7 = decompose_x2_3y2(7)
    assert (d7.x, d7.y) == (2, 1)
    d13 = decompose_x2_3y2(13)
    assert (d13.x, d13.y) == (1, 2)
    d61 = decompose_x2_3y2(61)
    assert (d61.x, d61.y) == (7, 2)


def test_decompose_matches_brute_force():
    p = 5
    while p < 3000:
        if is_prime(p):
            if p % 3 == 1:
                d = decompose_x2_3y2(p)
                assert (d.x, d.y) == _brute_decompose(p)
                assert d.x ** 2 + 3 * d.y ** 2 == p
                assert d.x >= 1 and d.y >= 1
            else:
                with pytest.raises(NotRepresentable):
                    decompose_x2_3y2(p)
        p += 2


@pytest.mark.parametrize("p", [2**61 - 1, 10**30 + 57])
def test_decompose_large_primes(p):
    d = decompose_x2_3y2(p)
    assert d.x >= 1 and d.y >= 1
    assert d.x ** 2 + 3 * d.y ** 2 == p


def test_decompose_rejects_wrong_class():
    for p in (5, 11, 17, 23):
        with pytest.raises(NotRepresentable):
            decompose_x2_3y2(p)


def test_decompose_rejects_non_prime():
    with pytest.raises(ValueError):
        decompose_x2_3y2(49)
