import random
from itertools import combinations_with_replacement, permutations

from qyt import _kernels
from qyt.board import FerrersBoard
from qyt.partition import partitions

import oracles


def test_active_backend_is_pure():
    assert _kernels.active_backend() == "pure"


def _tally(n, hits, weight):
    counts = [[0] * (n * (n - 1) // 2 + 1) for _ in range(n + 1)]
    for perm in permutations(range(1, n + 1)):
        counts[hits(perm)][weight(perm)] += 1
    return counts


def _brute_census(heights):
    n = len(heights)
    return _tally(
        n,
        lambda perm: sum(1 for p, h in zip(perm, heights) if p <= h),
        lambda perm: oracles.q_weight_brute(perm, heights),
    )


def test_census_matches_brute_oracle_on_every_small_board():
    # ground truth: the literal circle walk of the oracle and a direct
    # hit count, summed over all of S_n
    for n in range(6):
        for heights in combinations_with_replacement(range(n + 1), n):
            expected = _brute_census(heights)
            assert _kernels.q_hit_census(n, [heights]) == [expected], heights


def test_census_matches_per_permutation_walk():
    # cross-check the dynamic program against the board's
    # one-permutation statistics, swept over S_n
    for size in range(1, 7):
        for lam in partitions(size):
            base = FerrersBoard.from_partition(lam)
            for board in (base, base.plus_one()):
                [census] = _kernels.q_hit_census(board.n, [board.heights])
                assert census == _tally(board.n, board.hits, board.q_weight)
                assert [sum(row) for row in census] == oracles.hit_numbers_brute(
                    board.heights
                )


def test_degenerate_board():
    assert _kernels.q_hit_census(0, [()]) == [[[1]]]
    assert _kernels.q_hit_census(3, []) == []


def test_full_board_census_is_mahonian():
    # every permutation hits the full board n times, with circle weights
    # distributed as [n]!
    for n in range(1, 8):
        [census] = _kernels.q_hit_census(n, [(n,) * n])
        assert not any(map(any, census[:n]))
        assert census[n] == oracles.q_fact_brute(n)


def test_shared_census_matches_brute_oracle_in_the_callers_order():
    # every board of a size in one call, shuffled, some of them twice:
    # a layer kept for a column prefix that the next board does not
    # share, or a result in sorted order, would fail here
    rng = random.Random(5)
    for n in range(6):
        boards = list(combinations_with_replacement(range(n + 1), n))
        expected = {heights: _brute_census(heights) for heights in boards}
        boards += rng.choices(boards, k=len(boards) // 3 + 1)
        rng.shuffle(boards)
        assert _kernels.q_hit_census(n, boards) == [expected[b] for b in boards]


def test_shared_census_matches_the_census_of_each_gjw_board():
    # the boards the gjw suite passes in one call, base and raised
    for n in range(1, 10):
        boards = []
        for lam in partitions(n):
            base = FerrersBoard.from_partition(lam)
            boards += [base, base.plus_one()]
        shared = _kernels.q_hit_census(n, [board.heights for board in boards])
        assert shared == [_kernels.q_hit_census(n, [board.heights])[0] for board in boards]
