"""Ferrers boards in an n x n grid: hit numbers and their q-refinement.

A board is a set of weakly increasing columns.  Square (i, r) of the
grid (column i, row r, both 1-based with row 1 at the bottom) belongs to
the board iff r <= heights[i-1].  A permutation pi hits the board at
column i when pi(i) <= heights[i-1], and its q-weight is the circle
count of the walk described at q_weight_columns below.

Hit and q-hit numbers come from the Goldman-Joichi-White product
identity (Garsia-Remmel's q-form)

    prod_i [x + h_i - i + 1]  ==  sum_k [x + k choose n] T_k,

solved for T_n, T_{n-1}, ..., T_0 at x = 0, 1, ..., n.  The same solve
gives h_k at q = 1 and T_k at q = 2^W, where every polynomial is one
packed integer (qpoly.pack), and returns T_0..T_n packed, to be read
back (qpoly.Packed) where they are shown.
The solve reads the q-integers and the Gaussian binomials [a choose n]
at q = 2^W from the kept table qpoly.q_table_at(n, W), built by shifts
and adds, so no step divides.  The route that does not assume the
identity is the census of _kernels.q_hit_census, a dynamic program over the rows
occupied column by column (no sweep over S_n); the gjw suite checks the
identity against it, taking the census of every board of a size in one
walk that shares the layers of common first columns.  Neither route
caps the board size: the solve takes polynomial time and the census
visits 2^n row sets per board.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Sequence

from .partition import Partition


def _solve_product_identity(heights, ints: Sequence, binoms: Sequence) -> list:
    """T_0..T_n from prod_i [x + h_i - i + 1] == sum_k [x + k choose n] T_k,
    given ints[f] = [f] for f = 0..2n and binoms[a] = [a choose n] for
    a = 0..2n, at q = 1 or at one q = 2^W.

    At x the terms with x + k < n vanish, so the only new unknown is
    T_{n-x}, whose coefficient [n choose n] is 1: each step needs only
    products and differences.  The factors start at x + h_1 >= 0 and drop
    by at most 1 per column, so the first factor that is not positive is
    [0] = 0 and ends the product.
    """
    n = len(heights)
    T = [1] * (n + 1)
    for x in range(n + 1):
        value = 1
        for i, h in enumerate(heights, 1):
            f = x + h - i + 1
            value *= ints[f]
            if f == 0:
                break
        for k in range(n - x + 1, n + 1):
            value -= binoms[x + k] * T[k]
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

    def hit_numbers(self) -> list[int]:
        """h_0..h_n, where h_k counts the permutations with exactly k hits,
        by the product identity at q = 1."""
        n = self.n
        return _solve_product_identity(
            self.heights, range(2 * n + 1), [comb(a, n) for a in range(2 * n + 1)])

    def q_hit_numbers(self) -> tuple[int, list[int]]:
        """(width, [T_0(2^width), ..., T_n(2^width)]), where T_k collects
        q^(q-weight) over the permutations with exactly k hits, by the
        product identity at q = 2^width.

        The solve is ring arithmetic, so it yields T_k(2^width) exactly.
        T_k has nonnegative coefficients summing to h_k <= n!, so at
        width = qpoly.slot_width(n!) unpack(T_k(2^width), width) reads T_k
        back.
        """
        from .qpoly import q_table_at, slot_width

        width = slot_width(factorial(self.n))
        ints, _, rows = q_table_at(self.n, width)
        return width, _solve_product_identity(self.heights, ints, [row[-1] for row in rows])

    def q_hit_census(self) -> list[list[int]]:
        """The coefficient lists of T_0..T_n, by the census of
        _kernels.q_hit_census on this board alone, a dynamic program over
        the sets of rows the first columns occupy: it visits 2^n row sets,
        not the n! permutations, and does not assume the product
        identity.  The gjw suite, which tests that identity, asks the
        kernel for every board of a size at once, so that boards with
        common first columns share their layers."""
        from . import _kernels

        return _kernels.q_hit_census(self.n, [self.heights])[0]

    def _check_perm(self, perm) -> None:
        if len(perm) != self.n or sorted(perm) != list(range(1, self.n + 1)):
            raise ValueError(f"expected a permutation of 1..{self.n}")

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
