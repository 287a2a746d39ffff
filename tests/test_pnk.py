import random
from itertools import permutations
from math import comb, factorial

import sys
import time

import pytest

from qyt.partition import Partition, partitions
from qyt.pnk import (
    DEFAULT_SEED,
    EAST,
    NORTH,
    a_coeffs,
    a_table,
    elementary_values,
    path_weight,
    paths,
    pnk_eval_ebasis,
    pnk_eval_paths,
    qyt_counts_via_pnk,
)
from qyt.tableau import qyt_counts

import oracles


def seeded_points(
    n: int,
    count: int,
    lo: int = -5,
    hi: int = 5,
    seed: int = DEFAULT_SEED,
) -> list[tuple[int, ...]]:
    """Deterministic pseudo-random integer vectors for identity testing."""
    rng = random.Random(seed)
    return [tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(count)]


def test_path_count():
    for n in range(1, 7):
        for k in range(n + 1):
            assert sum(1 for _ in paths(n, k)) == comb(n, k)


def test_path_weight_figure_example():
    # E N N E E weighs (-x1)(x2+2)(x3+2)(2-x4)(2-x5)
    steps = (EAST, NORTH, NORTH, EAST, EAST)
    for xs in seeded_points(5, 20, seed=7):
        expected = (
            (-xs[0]) * (xs[1] + 2) * (xs[2] + 2) * (2 - xs[3]) * (2 - xs[4])
        )
        assert path_weight(steps, xs) == expected


def test_path_weight_degenerate_paths():
    for xs in seeded_points(4, 10, seed=11):
        all_north = (NORTH,) * 4
        expected = 1
        for x in xs:
            expected *= x + 1
        assert path_weight(all_north, xs) == expected
    assert path_weight((EAST,) * 4, (0, 0, 0, 0)) == 0


def test_pnk_small_closed_forms():
    # evaluations of the n <= 2 closed forms
    for (x1,) in seeded_points(1, 10, seed=3):
        assert pnk_eval_paths(1, 0, (x1,)) == x1 + 1
        assert pnk_eval_paths(1, 1, (x1,)) == -x1
    for x1, x2 in seeded_points(2, 10, seed=4):
        e1, e2 = x1 + x2, x1 * x2
        assert pnk_eval_paths(2, 0, (x1, x2)) == e2 + e1 + 1
        assert pnk_eval_paths(2, 1, (x1, x2)) == -2 * e2 - e1 + 1
        assert pnk_eval_paths(2, 2, (x1, x2)) == e2


def test_pnk_example_value():
    assert pnk_eval_paths(4, 1, (0, 1, -1, 0)) == 12
    assert pnk_eval_ebasis(4, 1, (0, 1, -1, 0)) == 12


def test_coefficient_closed_forms():
    # e-basis coefficient vectors of P_{n,k} for n <= 3.  The all-east
    # path weighs prod(-x_i), which pins a(n, n, n) = (-1)^n.
    assert a_coeffs(1, 0) == (1, 1)
    assert a_coeffs(1, 1) == (0, -1)
    assert a_coeffs(2, 0) == (1, 1, 1)
    assert a_coeffs(2, 1) == (1, -1, -2)
    assert a_coeffs(2, 2) == (0, 0, 1)
    assert a_coeffs(3, 0) == (1, 1, 1, 1)
    assert a_coeffs(3, 1) == (4, 0, -2, -3)
    assert a_coeffs(3, 2) == (1, -1, 1, 3)
    assert a_coeffs(3, 3) == (0, 0, 0, -1)


def test_tables_agree_in_any_order():
    # each table is the same whichever n were asked for before it
    ascending = {n: a_table(n) for n in range(1, 13)}
    for n in (12, 3, 11, 1, 7, 7, 2, 12):
        assert a_table(n) == ascending[n], n
        assert a_coeffs(n, n // 2) == tuple(ascending[n][n // 2])


def test_table_sweep_extends_one_level_at_a_time(monkeypatch):
    # a sweep from a process with no level built extends the largest
    # level by one per call, instead of starting each n from level 0
    import qyt.pnk

    monkeypatch.setattr(qyt.pnk, "_LARGEST", qyt.pnk._Levels())
    swept = {}
    started = time.perf_counter()
    for n in range(1, 121):
        swept[n] = a_table(n)
    elapsed = time.perf_counter() - started
    assert elapsed < 0.5, elapsed
    for n in (1, 7, 60, 120):
        fresh = [list(row) for row in qyt.pnk._Levels().advance(n)]
        assert swept[n] == fresh, n
        assert a_table(n) == fresh, n


def test_triangle_rows_for_fixed_difference():
    expected = {
        3: [1, 4, 1],
        4: [1, 3, -3, -1],
        5: [1, 2, -6, 2, 1],
        6: [1, 1, -8, 8, -1, -1],
    }
    for n, row in expected.items():
        table = a_table(n)
        assert [table[k][n - 3] for k in range(n)] == row


def _worpitzky(n, k):
    """A(n, k) by Worpitzky's closed form, not the recurrence a_table runs:
    sum_j (-1)^j C(n+1, j) (k+1-j)^n."""
    return sum((-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 2))


def test_constant_terms_are_eulerian():
    for n in range(1, 9):
        table = a_table(n)
        for k in range(n + 1):
            assert table[k][0] == _worpitzky(n, k)
    for n in range(1, 7):
        for k in range(n):
            assert a_table(n)[k][0] == oracles.eulerian_brute(n, k)


def test_large_tables_do_not_recurse():
    # a(n, k, m) is built level by level, so n is not bounded by the
    # interpreter's recursion limit
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        table = a_table(200)
    finally:
        sys.setrecursionlimit(old)
    assert [row[0] for row in table] == [_worpitzky(200, k) for k in range(201)]
    assert table[1][0] == 2**200 - 201
    assert sum(row[0] for row in table) == factorial(200)


def test_row_sums_vanish():
    for n in range(1, 10):
        table = a_table(n)
        for m in range(n + 1):
            total = sum(table[k][m] for k in range(n + 1))
            assert total == (factorial(n) if m == 0 else 0)


def test_ebasis_agrees_with_path_sum():
    pts = seeded_points(7, 200)
    for i, xs in enumerate(pts):
        n = (i % 7) + 1
        k = i % (n + 1)
        trimmed = xs[:n]
        assert pnk_eval_paths(n, k, trimmed) == pnk_eval_ebasis(n, k, trimmed)


def test_top_coefficient_sign():
    for n in range(1, 8):
        assert a_coeffs(n, n) == (0,) * n + ((-1) ** n,)


def test_symmetry_exhaustive_small():
    for n in range(1, 5):
        for xs in seeded_points(n, 5, seed=21):
            for k in range(n + 1):
                base = pnk_eval_paths(n, k, xs)
                for reordered in permutations(xs):
                    assert pnk_eval_paths(n, k, reordered) == base


def test_recursion_at_seeded_points():
    for i, xs in enumerate(seeded_points(6, 200, seed=22)):
        n = (i % 5) + 2
        k = i % (n + 1)
        trimmed = xs[:n]

        def sub(kk):
            if 0 <= kk <= n - 1:
                return pnk_eval_ebasis(n - 1, kk, trimmed[:-1])
            return 0

        expected = (trimmed[-1] + k + 1) * sub(k) + (n - k - trimmed[-1]) * sub(k - 1)
        assert pnk_eval_ebasis(n, k, trimmed) == expected


def test_elementary_values():
    assert elementary_values((1, 2, 3), 3) == [1, 6, 11, 6]
    assert elementary_values((), 2) == [1, 0, 0]


def test_qyt_count_examples():
    assert qyt_counts_via_pnk(Partition((2, 2, 1)))[2] == 3
    for n in range(1, 7):
        assert qyt_counts_via_pnk(Partition((n,)))[0] == 1
    assert qyt_counts_via_pnk(Partition((3, 2)))[1] == 2


def test_per_shape_counts_match_the_census():
    for size in range(1, 10):
        for lam in partitions(size):
            assert qyt_counts_via_pnk(lam) == qyt_counts(lam)[1:] + [0], lam


def test_per_shape_counts_match_the_oracle():
    for size in range(1, 7):
        for lam in partitions(size):
            want = [len(oracles.qyt_exact_brute(lam.parts, k + 1))
                    for k in range(size + 1)]
            assert qyt_counts_via_pnk(lam) == want, lam


def test_hook_length_recovery():
    for size in range(1, 8):
        for lam in partitions(size):
            assert sum(qyt_counts_via_pnk(lam)) == lam.hook_length_count()


def test_argument_validation():
    with pytest.raises(ValueError):
        a_coeffs(0, 0)
    with pytest.raises(ValueError):
        a_coeffs(3, 4)
    with pytest.raises(ValueError):
        pnk_eval_paths(3, 1, (1, 2))
    with pytest.raises(ValueError):
        qyt_counts_via_pnk(Partition(()))
