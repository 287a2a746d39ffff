from itertools import combinations_with_replacement, permutations
from math import factorial

import pytest

from qyt import _kernels
from qyt.board import FerrersBoard
from qyt.partition import Partition, partitions
from qyt.qpoly import pack, unpack

import oracles


def shapes_upto(n):
    for size in range(1, n + 1):
        yield from partitions(size)


def test_from_partition_examples():
    assert FerrersBoard.from_partition(Partition((3, 2))).heights == (2, 2, 2, 3, 3)
    assert FerrersBoard.from_partition(Partition((1, 1, 1, 1))).heights == (0, 0, 0, 0)
    assert FerrersBoard.from_partition(Partition((2, 2, 1))).heights == (1, 1, 2, 2, 2)


def test_from_partition_reads_text_as_a_shape():
    assert FerrersBoard.from_partition("3,2") == FerrersBoard.from_partition(Partition((3, 2)))
    # "32" is the one-part shape 32, contents 0..31, not the shape 3,2
    assert FerrersBoard.from_partition("32") == FerrersBoard(32, (31,) * 32)


def test_from_partition_height_increments():
    # contents of a shape cover a contiguous interval, so consecutive
    # column heights step by 0 or 1 and never reach n
    for lam in shapes_upto(10):
        b = FerrersBoard.from_partition(lam)
        assert all(h < b.n for h in b.heights)
        assert all(b2 - b1 in (0, 1) for b1, b2 in zip(b.heights, b.heights[1:]))


def test_plus_one_examples():
    b = FerrersBoard.from_partition(Partition((3, 2)))
    assert b.plus_one().heights == (3, 3, 3, 4, 4)
    assert FerrersBoard(3, (0, 0, 0)).plus_one().heights == (1, 1, 1)
    assert FerrersBoard.from_partition(Partition((2, 2, 1))).plus_one().heights == (2, 2, 3, 3, 3)


def test_complement_rotated_examples():
    b32 = FerrersBoard.from_partition(Partition((3, 2)))
    b221 = FerrersBoard.from_partition(Partition((2, 2, 1)))
    assert b32.plus_one().complement_rotated() == b221
    assert b221.plus_one().complement_rotated() == b32
    full = FerrersBoard(4, (4, 4, 4, 4))
    assert full.complement_rotated() == FerrersBoard(4, (0, 0, 0, 0))


def test_complement_round_trip():
    for lam in shapes_upto(8):
        got = FerrersBoard.from_partition(lam).plus_one().complement_rotated()
        assert got == FerrersBoard.from_partition(lam.conjugate())


def test_validation():
    with pytest.raises(ValueError):
        FerrersBoard(3, (2, 1, 1))  # not weakly increasing
    with pytest.raises(ValueError):
        FerrersBoard(3, (0, 1, 4))  # exceeds grid
    with pytest.raises(ValueError):
        FerrersBoard(3, (1, 2))  # wrong arity


def test_hits_examples():
    b = FerrersBoard.from_partition(Partition((3, 2)))
    assert b.hits((4, 5, 3, 1, 2)) == 2
    assert FerrersBoard(5, (0,) * 5).hits((1, 2, 3, 4, 5)) == 0
    # membership is perm[i] <= height[i]: only columns 1 and 2 qualify
    assert b.hits((1, 2, 3, 4, 5)) == 2
    with pytest.raises(ValueError):
        b.hits((1, 2, 3))


def test_q_weight_figure_example():
    b = FerrersBoard.from_partition(Partition((3, 2)))
    assert b.q_weight_columns((4, 5, 3, 1, 2)) == [3, 2, 2, 1, 0]
    assert b.q_weight((4, 5, 3, 1, 2)) == 8


def test_q_weight_empty_board():
    empty = FerrersBoard(5, (0,) * 5)
    assert empty.q_weight((5, 4, 3, 2, 1)) == 0
    # on the empty board the weight counts co-inversions
    for perm in permutations(range(1, 5 + 1)):
        coinv = sum(
            1
            for i in range(5)
            for j in range(i + 1, 5)
            if perm[j] > perm[i]
        )
        assert FerrersBoard(5, (0,) * 5).q_weight(perm) == coinv


def test_q_weight_matches_literal_walk():
    for lam in shapes_upto(5):
        for board in (FerrersBoard.from_partition(lam),
                      FerrersBoard.from_partition(lam).plus_one()):
            for perm in permutations(range(1, board.n + 1)):
                assert board.q_weight(perm) == oracles.q_weight_brute(perm, board.heights)


def test_hit_numbers_examples():
    n = 5
    empty = FerrersBoard(n, (0,) * n)
    assert empty.hit_numbers() == [factorial(n)] + [0] * n
    assert FerrersBoard.from_partition(Partition((2, 2, 1))).hit_numbers() == [0, 48, 72, 0, 0, 0]
    full = FerrersBoard(4, (4,) * 4)
    assert full.hit_numbers() == [0, 0, 0, 0, 24]


def test_hit_and_q_hit_numbers_read_one_table_at_two_widths(monkeypatch):
    import qyt.qpoly

    asked = []
    true = qyt.qpoly.q_table_at

    def recorded(n, width):
        asked.append((n, width))
        return true(n, width)

    monkeypatch.setattr(qyt.qpoly, "q_table_at", recorded)
    board = FerrersBoard.from_partition(Partition((2, 2, 1)))
    assert board.hit_numbers() == [0, 48, 72, 0, 0, 0]
    width, T = board.q_hit_numbers()
    assert [sum(unpack(t, width)) for t in T] == [0, 48, 72, 0, 0, 0]
    assert asked == [(5, 0), (5, factorial(5).bit_length() + 1)]


def test_hit_numbers_match_oracle():
    for lam in shapes_upto(5):
        b = FerrersBoard.from_partition(lam)
        assert b.hit_numbers() == oracles.hit_numbers_brute(b.heights)


def _q_hits(board):
    """The coefficient lists of T_0..T_n, read back from the values the
    rook route packs."""
    width, values = board.q_hit_numbers()
    return [unpack(v, width) for v in values]


def test_full_board_top_q_hit_number_is_mahonian():
    # every permutation hits the full board n times, and the circle
    # weights then distribute as [n]!
    full = FerrersBoard(5, (5,) * 5)
    width, T = full.q_hit_numbers()
    assert width == factorial(5).bit_length() + 1
    assert T[:5] == [0] * 5
    assert unpack(T[5], width) == oracles.q_fact_brute(5)


def test_q_hit_numbers_specialize_and_sum():
    for lam in shapes_upto(5):
        for b in (FerrersBoard.from_partition(lam),
                  FerrersBoard.from_partition(lam).plus_one()):
            width, T = b.q_hit_numbers()
            assert [sum(unpack(t, width)) for t in T] == b.hit_numbers()
            assert unpack(sum(T), width) == oracles.q_fact_brute(b.n)
    T = _q_hits(FerrersBoard.from_partition(Partition((2, 2, 1))))
    assert sum(T[2]) == 72


def _assert_rook_route_matches_census(board):
    # equal packed at the route's width, which holds every census count
    [census] = _kernels.q_hit_census(board.n, [board.heights])
    width, values = board.q_hit_numbers()
    assert values == [pack(row, width) for row in census]
    assert board.hit_numbers() == oracles.hit_numbers_brute(board.heights)


def test_rook_route_matches_census_on_every_small_board():
    for n in range(6):
        for heights in combinations_with_replacement(range(n + 1), n):
            _assert_rook_route_matches_census(FerrersBoard(n, heights))


def test_rook_route_matches_census_on_partition_boards():
    for lam in shapes_upto(7):
        base = FerrersBoard.from_partition(lam)
        _assert_rook_route_matches_census(base)
        _assert_rook_route_matches_census(base.plus_one())


def test_rook_route_matches_census_on_large_partition_boards():
    # sizes the census reaches only since it stopped sweeping S_n; no
    # route caps the board size
    for lam in [*partitions(8), *partitions(9), *partitions(10)]:
        base = FerrersBoard.from_partition(lam)
        for board in (base, base.plus_one()):
            [census] = _kernels.q_hit_census(board.n, [board.heights])
            width, values = board.q_hit_numbers()
            assert values == [pack(row, width) for row in census]
            assert board.hit_numbers() == [sum(unpack(v, width)) for v in values]


def test_text_and_json_forms():
    b = FerrersBoard.from_partition(Partition((3, 2)))
    assert str(b) == "n=5; heights=2,2,2,3,3"
    assert b.to_json() == {"n": 5, "heights": [2, 2, 2, 3, 3]}
