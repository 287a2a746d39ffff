from qyt import _kernels
from qyt.board import FerrersBoard
from qyt.partition import partitions


def test_active_backend_is_pure():
    assert _kernels.active_backend() == "pure"


def test_census_matches_per_permutation_walk():
    # the census kernels inline the walk; cross-check them against the
    # board's one-permutation implementation
    from itertools import permutations

    for size in range(1, 6):
        for lam in partitions(size):
            board = FerrersBoard.from_partition(lam)
            maxw = board.n * (board.n - 1) // 2
            counts = [[0] * (maxw + 1) for _ in range(board.n + 1)]
            for perm in permutations(range(1, board.n + 1)):
                counts[board.hits(perm)][board.q_weight(perm)] += 1
            assert counts == _kernels.q_hit_census(board.n, board.heights)
            assert [sum(row) for row in counts] == _kernels.hit_census(
                board.n, board.heights
            )


def test_degenerate_board():
    assert _kernels.hit_census(0, ()) == [1]
    assert _kernels.q_hit_census(0, ()) == [[1]]

