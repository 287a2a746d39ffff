"""Ferrers boards in an n x n grid: hit numbers and their q-refinement.

A board is a set of weakly increasing columns.  Square (i, r) of the
grid (column i, row r, both 1-based with row 1 at the bottom) belongs to
the board iff r <= heights[i-1].  A permutation pi hits the board at
column i when pi(i) <= heights[i-1], and its q-weight is the circle
count of the walk described at q_weight_columns below.

Hit and q-hit numbers come from one route, _rook_route(heights, W),
at q = 2^W, where every polynomial is one packed integer (qpoly.pack):
the Garsia-Remmel q-rook numbers R_k (Garsia and Remmel, JCTA 41,
1986), built column by column, then read out as the T_k by

    sum_k T_k z^k  ==  sum_k R_k [n-k]! prod_{i=n-k+1..n} (z - q^i).

At W = 0 (q = 1) it gives the hit numbers h_k, and at
W = qpoly.slot_width(n!) the q-hit numbers T_k, packed, to be read back
(qpoly.Packed) where they are shown.  The q-integers and q-factorials
come from the kept table qpoly.q_table_at(n, W), built by shifts and
adds, so no step divides; at width 0 they are the integers and the
factorials.
The route that assumes neither the recursion nor any identity is the
census of _kernels.q_hit_census, a dynamic program over the rows
occupied column by column (no sweep over S_n).  The gjw suite checks the rook route
against it, and the census against the Goldman-Joichi-White product
identity, taking the census of every board of a size in one walk that
shares the layers of common first columns.  Neither route caps the
board size: the rook route takes O(n^2) shifts and adds per board and
the census visits 2^n row sets per board.
"""

from __future__ import annotations

from math import factorial
from typing import Sequence

from .partition import as_partition


def _rook_route(heights, width: int) -> list[int]:
    """T_0..T_n at q = 2^width by the q-rook numbers R_0..R_n, with [f]
    and [f]! read from qpoly.q_table_at(n, width); width 0 is q = 1.

    Each column of height h, in weakly increasing order, takes R_k to
    q^(h-k) R_k + [h-k+1] R_(k-1) for k = h down to 1, then R_0 to
    q^h R_0.  Horner's rule then reads the T_k out, innermost first:
    T = [R_n], and for k = n-1 down to 0, T times (z - q^(n-k)) plus
    R_k [n-k]! on its constant term.  Each step updates T in place by one
    shift and one subtraction per coefficient.
    """
    from .qpoly import q_table_at

    n = len(heights)
    ints, facts, _ = q_table_at(n, width)
    R = [1] + [0] * n
    for h in heights:
        for k in range(h, 0, -1):
            R[k] = (R[k] << width * (h - k)) + ints[h - k + 1] * R[k - 1]
        R[0] <<= width * h
    T = [R[n]]
    for k in range(n - 1, -1, -1):
        shift = width * (n - k)
        T.append(T[-1])
        for j in range(len(T) - 2, 0, -1):
            T[j] = T[j - 1] - (T[j] << shift)
        T[0] = R[k] * facts[n - k] - (T[0] << shift)
    return T


class FerrersBoard:
    """Weakly increasing column heights inside an n x n grid.

    The heights are a tuple built from a list, as Partition's tuples are
    and for the same reason."""

    __slots__ = ("n", "heights")

    def __init__(self, n: int, heights: Sequence[int]) -> None:
        hs = tuple([int(h) for h in heights])
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
        `shape` is read as partition.as_partition reads it: "3,2" is the
        shape 3,2 and "32" the one-part shape 32.

        The construction never produces a column of full height n, so
        plus_one() is always legal on these boards.
        """
        shape = as_partition(shape)
        cs = sorted(shape.contents(), reverse=True)
        return cls(shape.size, [c + i for i, c in enumerate(cs)])

    def plus_one(self) -> "FerrersBoard":
        """Increment every column height by one."""
        return FerrersBoard(self.n, [h + 1 for h in self.heights])

    def complement_rotated(self) -> "FerrersBoard":
        """Complement within the n x n grid, rotated a half turn."""
        return FerrersBoard(self.n, [self.n - h for h in reversed(self.heights)])

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
        """h_0..h_n, where h_k counts the permutations with exactly k hits:
        the rook route at width 0, q = 1."""
        return _rook_route(self.heights, 0)

    def q_hit_numbers(self) -> tuple[int, list[int]]:
        """(width, [T_0(2^width), ..., T_n(2^width)]), where T_k collects
        q^(q-weight) over the permutations with exactly k hits, by the
        rook route at q = 2^width.

        The route is ring arithmetic, so it yields T_k(2^width) exactly.
        T_k has nonnegative coefficients summing to h_k <= n!, so at
        width = qpoly.slot_width(n!) unpack(T_k(2^width), width) reads T_k
        back.
        """
        from .qpoly import slot_width

        width = slot_width(factorial(self.n))
        return width, _rook_route(self.heights, width)

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
