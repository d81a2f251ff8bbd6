"""Domb sequence: exact values, modular tables, series and integrality checks."""

import random
import sys
import threading
from math import comb

import pytest

from dombcheck import domb
from dombcheck.domb import (
    DombTable,
    domb_exact,
    domb_via_cz,
    domb_numbers,
    domb_via_sun,
    horner_walk,
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


def test_recurrence_numbers_match_exact():
    # the defining sum is the oracle of the exact recurrence
    assert list(domb_numbers(301)) == [domb_exact(n) for n in range(301)]
    assert list(domb_numbers(0)) == [] and list(domb_numbers(1)) == [1]
    with pytest.raises(ValueError):
        list(domb_numbers(-1))


@pytest.mark.parametrize("n", [1, 10, 40])
def test_perturbed_coefficient_makes_the_walk_raise(n, monkeypatch):
    # A_n one off leaves the remainder D_n mod (n+1)^3 at the next division,
    # nonzero at these n, so neither the numbers nor the walk go on past it
    a, c, cubes = domb._coefficients(60)
    a = a[:n] + (a[n] + 1,) + a[n + 1 :]
    monkeypatch.setattr(domb, "_coeffs", (a, c, cubes))
    with pytest.raises(ValueError, match=f"n = {n + 1}"):
        list(domb_numbers(60))
    with pytest.raises(ValueError, match=f"n = {n + 1}"):
        horner_walk({53: 3, 59: 5})


def test_walk_of_no_prime_is_empty():
    assert horner_walk({}) == {}


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
    # every size up to p, where the last factorial inverted is (p-1)!, at
    # every prime below 60 and every precision up to 6; on a fresh table
    # the top entry D_(size-1) is read first, with no walk back, and is the
    # walked list's top once the walk has run
    exact = [domb_exact(n) for n in range(60)]
    for p in [q for q in range(5, 60) if all(q % d for d in range(2, q))]:
        for K in range(1, 7):
            ctx = PrimeContext(p, K)
            for size in range(1, p + 1):
                table = DombTable(ctx, size=size)
                assert len(table) == size
                top = table[size - 1]
                assert "residues" not in vars(table), (p, K, size)
                assert top == exact[size - 1] % ctx.pk, (p, K, size)
                assert table.residues == [d % ctx.pk for d in exact[:size]], (p, K, size)


def test_table_refuses_sizes_past_p():
    # the targets read D_k for k < p only, where every n! is a unit
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


def cube_inversion_table(ctx, size):
    """D_0 .. D_(size-1) mod p^K by the loop that the division-free
    recurrence replaced: (n+1)^3 D_(n+1) = A_n D_n - 64 n^3 D_(n-1) with
    every (n+1)^3 inverted in one batch (prefix products, one pow, a walk
    back)."""
    mod = ctx.pk
    cubes = [k**3 for k in range(2, size)]
    inv = []
    x = 1
    for c in cubes:
        inv.append(x)
        x = x * c % mod
    x = pow(x, -1, mod)
    for i in range(len(cubes) - 1, -1, -1):
        inv[i] = inv[i] * x % mod
        x = x * cubes[i] % mod
    vals = [1, 4 % mod][:size]
    for n in range(1, size - 1):
        num = 2 * (2 * n + 1) * (5 * n * n + 5 * n + 2) * vals[n] - 64 * n**3 * vals[n - 1]
        vals.append(num * inv[n - 1] % mod)
    return vals


def test_tables_in_any_order_equal_fresh_ones(monkeypatch):
    # the coefficient memo grows to the largest size asked and is shared;
    # tables built after larger and smaller ones equal tables built on an
    # empty memo, and the replaced loop
    fresh = {}
    for p in (5, 499, 1999, 4003):
        monkeypatch.setattr(domb, "_coeffs", ((), (), ()))
        fresh[p] = DombTable(PrimeContext(p, 5)).residues
        assert len(domb._coeffs[0]) == p
        assert fresh[p] == cube_inversion_table(PrimeContext(p, 5), p), p
    monkeypatch.setattr(domb, "_coeffs", ((), (), ()))
    for p in (4003, 5, 499, 1999, 4003):
        assert DombTable(PrimeContext(p, 5)).residues == fresh[p], p
        assert len(domb._coeffs[0]) == 4003


def _check_coefficients(coeffs, size):
    a, c, cubes = coeffs
    assert len(a) == len(c) == len(cubes) >= size
    for n in {0, size // 2, size - 1, len(a) - 1}:
        assert a[n] == 2 * (2 * n + 1) * (5 * n * n + 5 * n + 2), n
        assert c[n] == 64 * n**6, n
        assert cubes[n] == n**3, n


def test_coefficient_memo_grows_by_rebinding(monkeypatch):
    # each growth binds a new tuple built in full; one handed out before
    # is never changed, and none is shorter than asked
    monkeypatch.setattr(domb, "_coeffs", ((), (), ()))
    held = []
    for size in (1, 2, 300, 5, 1000, 999, 1000, 1001):
        before = domb._coeffs
        coeffs = domb._coefficients(size)
        _check_coefficients(coeffs, size)
        assert coeffs is domb._coeffs
        assert (coeffs is before) == (len(before[0]) >= size)
        assert all(isinstance(x, tuple) for x in coeffs)
        held.append((coeffs, [len(x) for x in coeffs]))
    for coeffs, lengths in held:
        assert [len(x) for x in coeffs] == lengths


def test_coefficient_memo_under_threads(monkeypatch):
    # more threads than cores, switching as often as the interpreter lets
    # them, grow and read the one memo from empty, round after round; none
    # is ever handed a short or partly built one
    errors = []

    def work(seed):
        sizes = list(range(1, 3000, 37))
        random.Random(seed).shuffle(sizes)
        try:
            for size in sizes:
                _check_coefficients(domb._coefficients(size), size)
        except Exception as e:  # handed to the main thread's assert
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round in range(8):
            monkeypatch.setattr(domb, "_coeffs", ((), (), ()))
            threads = [threading.Thread(target=work, args=(6 * round + i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert errors == []


def test_back_walk_runs_once_under_threads():
    # more threads than cores, switching as often as the interpreter lets
    # them, make the first reads of one fresh table at once, round after
    # round: the walk back converts its list in place, so a second walk
    # would leave every entry below the top wrong
    p = 101
    ctx = PrimeContext(p, 5)
    want = [domb_exact(n) % ctx.pk for n in range(p)]
    errors = []

    def work(table, start, k):
        try:
            start.wait(timeout=60)
            assert table[k] == want[k]
            assert table.residues == want
        except Exception as e:  # handed to the main thread's assert
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round in range(8):
            table = DombTable(ctx)
            start = threading.Barrier(6)
            threads = [threading.Thread(target=work, args=(table, start, 11 * round + i)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert errors == []
