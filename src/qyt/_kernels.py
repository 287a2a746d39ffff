"""The q-hit census of a Ferrers board, in pure Python.

This census is the route to q-hit numbers that does not assume the
product identity; the board module computes hit and q-hit numbers by
that identity and keeps the census only as the independent side of the
gjw suite.  It does not sweep S_n: a dynamic program over the rows
occupied by the crosses of earlier columns counts the same permutations
in O(2^n * n) transitions.
"""

from __future__ import annotations


def active_backend() -> str:
    """Name of the census implementation; there is only the pure one."""
    return "pure"


def q_hit_census(n: int, heights) -> list[list[int]]:
    """counts[k][w] = permutations with k hits and circle weight w.

    Columns are placed left to right.  The state is the bitmask of rows
    already holding a cross of an earlier column, and it carries a tally
    {(k, w): count} of the partial permutations that fill exactly those
    rows.  A row r on the walk of column j is circled iff the cross in
    row r lies in column j or later, that is iff r is not in the mask, so a cross at row p adds a hit iff
    p <= h_j and popcount(walk[p] & ~mask) circles, where walk[p] is the
    bitmask of the (h_j - p) mod n rows the walk visits cyclically upward
    from p (see FerrersBoard.q_weight_columns).
    """
    maxw = n * (n - 1) // 2
    layer = {0: {(0, 0): 1}}
    for h in heights:
        walks = []
        for p in range(1, n + 1):
            bits = 0
            r = p
            for _ in range((h - p) % n):
                r = r + 1 if r < n else 1
                bits |= 1 << (r - 1)
            walks.append(bits)
        nxt = {}
        for mask, tally in layer.items():
            for p in range(1, n + 1):
                bit = 1 << (p - 1)
                if mask & bit:
                    continue
                dk = 1 if p <= h else 0
                dw = (walks[p - 1] & ~mask).bit_count()
                out = nxt.setdefault(mask | bit, {})
                for (k, w), c in tally.items():
                    key = (k + dk, w + dw)
                    out[key] = out.get(key, 0) + c
        layer = nxt
    counts = [[0] * (maxw + 1) for _ in range(n + 1)]
    for (k, w), c in layer[(1 << n) - 1].items():
        counts[k][w] = c
    return counts
