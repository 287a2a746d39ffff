"""The q-hit census of a Ferrers board, in pure Python.

This census is the route to q-hit numbers that does not assume the
product identity; the board module computes hit and q-hit numbers by
that identity and keeps the census only as the independent side of the
gjw suite.  It does not sweep S_n: a dynamic program over the rows
occupied by the crosses of earlier columns counts the same permutations
in O(2^n * n) transitions.  Each state's (hits, weight) tally is one
packed integer (qpoly.pack), so a transition is one shift and one add.
"""

from __future__ import annotations

from math import factorial

from .qpoly import unpack


def active_backend() -> str:
    """Name of the census implementation; there is only the pure one."""
    return "pure"


def q_hit_census(n: int, heights) -> list[list[int]]:
    """counts[k][w] = permutations with k hits and circle weight w.

    Columns are placed left to right.  The state is the bitmask of rows
    already holding a cross of an earlier column, and it carries a tally
    of the partial permutations that fill exactly those rows, by hits k
    and weight w.  A row r on the walk of column j is circled iff the
    cross in row r lies in column j or later, that is iff r is not in
    the mask, so a cross at row p adds a hit iff p <= h_j and
    popcount(walk[p] & ~mask) circles, where walk[p] is the bitmask of
    the (h_j - p) mod n rows the walk visits cyclically upward from p
    (see FerrersBoard.q_weight_columns).

    The tally is one int whose slot k * (maxw + 1) + w, of width
    bits(n!) + 1, holds the count for (k, w): adding dk hits and dw
    circles shifts it by (dk * (maxw + 1) + dw) slots.  No count exceeds
    n! < 2^(width - 1), so no slot carries into the next and the signed
    unpack reads every count back.
    """
    maxw = n * (n - 1) // 2
    width = factorial(n).bit_length() + 1
    hit = (maxw + 1) * width
    layer = {0: 1}
    for h in heights:
        walks = []
        for p in range(1, n + 1):
            bits = 0
            r = p
            for _ in range((h - p) % n):
                r = r + 1 if r < n else 1
                bits |= 1 << (r - 1)
            walks.append(bits)
        # (row bit, walk, shift of the hit) for a cross at row p
        cols = [
            (1 << (p - 1), walk, hit if p <= h else 0)
            for p, walk in enumerate(walks, 1)
        ]
        nxt = {}
        for mask, tally in layer.items():
            free = ~mask
            for bit, walk, shift in cols:
                if mask & bit:
                    continue
                key = mask | bit
                circles = (walk & free).bit_count()
                nxt[key] = nxt.get(key, 0) + (tally << (shift + circles * width))
        layer = nxt
    slots = unpack(layer[(1 << n) - 1], width)
    slots += [0] * ((n + 1) * (maxw + 1) - len(slots))
    return [slots[k * (maxw + 1):(k + 1) * (maxw + 1)] for k in range(n + 1)]
