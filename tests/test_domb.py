"""Domb sequence: exact values, modular tables, series and integrality checks."""

from math import comb

import pytest

from dombcheck.domb import (
    DombTable,
    domb_exact,
    domb_via_cz,
    domb_via_sun,
    liu_integrality_check,
    rogers_series_check,
)
from dombcheck.padic import PrimeContext

FIRST = [1, 4, 28, 256, 2716, 31504, 387136, 4951552, 65218204]


def test_first_values():
    for n, want in enumerate(FIRST):
        assert domb_exact(n) == want


def test_exact_oracle_definition():
    # independent re-evaluation straight from the defining sum
    for n in range(0, 40):
        s = sum(
            comb(n, k) ** 2 * comb(2 * k, k) * comb(2 * (n - k), n - k)
            for k in range(n + 1)
        )
        assert domb_exact(n) == s


def test_alternate_forms_agree():
    for n in range(0, 60):
        d = domb_exact(n)
        assert domb_via_cz(n) == d
        assert domb_via_sun(n) == d


def test_table_spot_values():
    table = DombTable(PrimeContext(5, 3))
    assert list(table.residues) == [1, 4, 28, 6, 91]


@pytest.mark.parametrize(
    "p,K,sample",
    [(7, 3, None), (13, 2, None), (31, 2, None), (997, 6, (2, 498, 995, 996))],
    ids=["7-3", "13-2", "31-2", "997-6"],
)
def test_table_matches_exact(p, K, sample):
    ctx = PrimeContext(p, K)
    table = DombTable(ctx)
    assert len(table) == p
    for n in range(p) if sample is None else sample:
        assert table[n] == domb_exact(n) % ctx.pk


def test_table_custom_size():
    # every size up to p, where the last (n+1)^3 inverted is (p-1)^3
    for p, K in [(5, 2), (5, 3), (7, 6)]:
        ctx = PrimeContext(p, K)
        for size in range(1, p + 1):
            table = DombTable(ctx, size=size)
            assert len(table) == size
            for n in range(size):
                assert table[n] == domb_exact(n) % ctx.pk


def test_table_refuses_sizes_past_p():
    # the targets read D_k for k < p only, where every (n+1)^3 is a unit
    ctx = PrimeContext(7, 3)
    for size in (0, 8, 50):
        with pytest.raises(ValueError, match="table size"):
            DombTable(ctx, size=size)


def test_table_index_out_of_range_raises():
    # a negative index must not wrap round to the end of the table
    table = DombTable(PrimeContext(7, 3), size=4)
    for k in (-1, -4, 4, 7):
        with pytest.raises(IndexError):
            table[k]
    assert [table[k] for k in range(4)] == [1, 4, 28, 256 % 7**3]


def test_table_uses_no_padic_kernel(monkeypatch):
    # the left sides must not share code with the right sides' kernel
    def refuse(*args):
        raise AssertionError("DombTable called the p-adic kernel")

    monkeypatch.setattr(PrimeContext, "factorial_decomposed", refuse)
    monkeypatch.setattr(PrimeContext, "inverse_unit", refuse)
    ctx = PrimeContext(101, 4)
    table = DombTable(ctx)
    assert table.residues == [domb_exact(n) % ctx.pk for n in range(101)]


def test_prime_index_reduction():
    # D_{p-1} is congruent to 64^{p-1} mod p^3, a byproduct of the
    # deeper congruence checked elsewhere; cheap sanity screen here
    for p in (5, 7, 11, 13, 17, 19):
        assert domb_exact(p - 1) % p**3 == pow(64, p - 1, p**3)


def test_rogers_series_check():
    report = rogers_series_check(12)
    assert report.passed
    assert report.order == 12
    assert report.mismatches == []


def test_rogers_series_small_orders():
    for order in (0, 1, 2, 3, 6):
        assert rogers_series_check(order).passed


def test_rogers_rejects_bad_order():
    with pytest.raises(ValueError):
        rogers_series_check(-1)


def test_liu_integrality():
    report = liu_integrality_check(60)
    assert report.passed
    assert report.max_n == 60
    assert report.failures == []


def test_liu_first_quotients_by_hand():
    # n = 2: (1*1*8 + 3*4)/2 = 10 and (1*1*(-8) + 3*4)/2 = 2
    d = [domb_exact(k) for k in range(3)]
    pos = sum((2 * k + 1) * d[k] * 8 ** (2 - 1 - k) for k in range(2))
    neg = sum((2 * k + 1) * d[k] * (-8) ** (2 - 1 - k) for k in range(2))
    assert pos == 20 and pos // 2 == 10
    assert neg == 4 and neg // 2 == 2


def test_liu_rejects_bad_bound():
    with pytest.raises(ValueError):
        liu_integrality_check(0)
