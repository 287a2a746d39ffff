"""Ferrers boards in an n x n grid: hit numbers and their q-refinement.

A board is a set of weakly increasing columns.  Square (i, r) of the
grid (column i, row r, both 1-based with row 1 at the bottom) belongs to
the board iff r <= heights[i-1].  A permutation pi hits the board at
column i when pi(i) <= heights[i-1], and its q-weight is the circle
count of the walk described at q_weight_columns below.

Hit and q-hit numbers come from the Goldman-Joichi-White product
identity (Garsia-Remmel's q-form)

    prod_i [x + h_i - i + 1]  ==  sum_k [x + k choose n] T_k,

solved for T_n, T_{n-1}, ..., T_0 at x = 0, 1, ..., n.  The route that
does not assume the identity is q_hit_census, a dynamic program over the
rows occupied column by column (no sweep over S_n); the gjw suite checks
the identity against it.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Sequence

from . import _kernels
from .partition import Partition
from .qpoly import QPoly, q_binom, q_int

#: Default cap on the board size n of every hit-number computation; pass
#: an explicit limit to go beyond it.  Neither route needs it any more (the
#: census visits 2^n row sets, not n! permutations), but it stays until a
#: benchmark change moves the `board --shape 4,3,2,1,1 --hits` operation,
#: which expects it to refuse n = 10.
BRUTE_FORCE_LIMIT = 9


def _solve_product_identity(heights, factor: Callable, binom: Callable) -> list:
    """T_0..T_n from prod_i factor(x + h_i - i + 1) == sum_k binom(x + k, n) T_k.

    At x the terms with x + k < n vanish, so the only new unknown is
    T_{n-x}, whose coefficient binom(n, n) is 1: each step needs only
    products and differences.  The factors start at x + h_1 >= 0 and drop
    by at most 1 per column, so the first factor that is not positive is
    0 and ends the product.
    """
    n = len(heights)
    one = factor(1)
    T = [one] * (n + 1)
    for x in range(n + 1):
        value = one
        for i, h in enumerate(heights, 1):
            f = x + h - i + 1
            value = value * factor(f)
            if f == 0:
                break
        for k in range(n - x + 1, n + 1):
            value = value - binom(x + k, n) * T[k]
        T[n - x] = value
    return T


class FerrersBoard:
    """Weakly increasing column heights inside an n x n grid."""

    __slots__ = ("n", "heights")

    def __init__(self, n: int, heights: Sequence[int]) -> None:
        hs = tuple(int(h) for h in heights)
        if len(hs) != n:
            raise ValueError(f"expected {n} column heights, got {len(hs)}")
        if any(h < 0 or h > n for h in hs):
            raise ValueError("column heights must lie in 0..n")
        if any(a > b for a, b in zip(hs, hs[1:])):
            raise ValueError("column heights must weakly increase")
        self.n = n
        self.heights = hs

    @classmethod
    def from_partition(cls, shape) -> "FerrersBoard":
        """Board with column heights c_i + i - 1, where c_1 >= c_2 >= ...
        are the cell contents of `shape` in weakly decreasing order.

        The construction never produces a column of full height n, so
        plus_one() is always legal on these boards.
        """
        shape = shape if isinstance(shape, Partition) else Partition(shape)
        cs = sorted(shape.contents(), reverse=True)
        return cls(shape.size, tuple(c + i for i, c in enumerate(cs)))

    def plus_one(self) -> "FerrersBoard":
        """Increment every column height by one."""
        return FerrersBoard(self.n, tuple(h + 1 for h in self.heights))

    def complement_rotated(self) -> "FerrersBoard":
        """Complement within the n x n grid, rotated a half turn."""
        return FerrersBoard(self.n, tuple(self.n - h for h in reversed(self.heights)))

    def contains(self, col: int, row: int) -> bool:
        return 1 <= col <= self.n and 1 <= row <= self.heights[col - 1]

    def hits(self, perm: Sequence[int]) -> int:
        """|graph(perm) ∩ board|: columns i with perm[i] <= heights[i]."""
        self._check_perm(perm)
        return sum(1 for p, h in zip(perm, self.heights) if p <= h)

    def q_weight_columns(self, perm: Sequence[int]) -> list[int]:
        """Per-column circle counts of the q-statistic.

        Cross column i at row perm[i]; every square strictly right of a
        cross in its row is a bullet.  From each cross, walk upward
        cyclically (row n wraps to row 1), circling each non-bullet
        square visited, and stop once the top square of the board's
        column has been visited; a height-0 column instead stops at the
        grid's top row, without wrapping.  Both rules collapse to: the
        walk in column i visits (heights[i] - perm[i]) mod n squares.
        """
        self._check_perm(perm)
        n = self.n
        pos = [0] * (n + 1)
        for j, v in enumerate(perm):
            pos[v] = j
        out = []
        for j, (p, h) in enumerate(zip(perm, self.heights)):
            circles = 0
            r = p
            for _ in range((h - p) % n):
                r = r + 1 if r < n else 1
                if pos[r] >= j:  # not shadowed by a cross further left
                    circles += 1
            out.append(circles)
        return out

    def q_weight(self, perm: Sequence[int]) -> int:
        return sum(self.q_weight_columns(perm))

    def hit_numbers(self, limit: int | None = None) -> list[int]:
        """h_0..h_n, where h_k counts the permutations with exactly k hits,
        by the product identity at q = 1."""
        self._check_limit(limit)
        return _solve_product_identity(self.heights, int, comb)

    def q_hit_numbers(self, limit: int | None = None) -> list[QPoly]:
        """T_0..T_n, where T_k collects q^(q-weight) over the permutations
        with exactly k hits, by the product identity."""
        self._check_limit(limit)
        return _solve_product_identity(self.heights, q_int, q_binom)

    def q_hit_census(self, limit: int | None = None) -> list[QPoly]:
        """T_0..T_n by the census of _kernels.q_hit_census, which counts
        the permutations of S_n column by column without assuming the
        product identity, so only the gjw suite, which tests that
        identity, should use it."""
        self._check_limit(limit)
        rows = _kernels.q_hit_census(self.n, self.heights)
        return [QPoly(row) for row in rows]

    def _check_perm(self, perm) -> None:
        if len(perm) != self.n or sorted(perm) != list(range(1, self.n + 1)):
            raise ValueError(f"expected a permutation of 1..{self.n}")

    def _check_limit(self, limit) -> None:
        cap = BRUTE_FORCE_LIMIT if limit is None else limit
        if self.n > cap:
            raise ValueError(
                f"board size {self.n} exceeds the cap {cap}; "
                "pass a larger limit explicitly to override"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FerrersBoard)
            and self.n == other.n
            and self.heights == other.heights
        )

    def __hash__(self) -> int:
        return hash((self.n, self.heights))

    def __repr__(self) -> str:
        return f"FerrersBoard({self.n}, {self.heights!r})"

    def __str__(self) -> str:
        return "n=%d; heights=%s" % (
            self.n,
            ",".join(str(h) for h in self.heights),
        )

    def to_json(self) -> dict:
        return {"n": self.n, "heights": list(self.heights)}
