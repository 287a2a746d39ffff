"""The q-hit census of Ferrers boards, in pure Python.

This census is the route to q-hit numbers that assumes neither the
product identity nor the rook recursion; the board module computes hit
and q-hit numbers by the rook route (board._rook_route) and keeps the
census only as the independent side of gjw.  It does not sweep S_n: a
dynamic program over the rows occupied by the crosses of earlier
columns counts the same permutations in O(2^n * n) transitions per
board.  Each state's (hits, weight) tally is one packed integer
(qpoly.pack), so a transition is one shift and one add.  The layer after
column j depends only on n and the first j heights, so one call takes
every board of a size and walks them depth first in sorted order:
boards with a common column prefix share its layers.
"""

from __future__ import annotations

from math import factorial

from .qpoly import slot_width, unpack


def active_backend() -> str:
    """Name of the census implementation; there is only the pure one."""
    return "pure"


def q_hit_census(n: int, boards) -> list[list[list[int]]]:
    """For each height vector in `boards` (each of length n), in the
    caller's order: counts[k][w] = permutations with k hits and circle
    weight w.

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
    qpoly.slot_width(n!), holds the count for (k, w): adding dk hits and
    dw circles shifts it by (dk * (maxw + 1) + dw) slots.  No count
    exceeds n! < 2^(width - 1), so no slot carries into the next and the
    signed unpack reads every count back.  A state keeps its tally as
    (low, value), standing for value << low, with low the shift of its
    lowest term: the counts are nonnegative, so no sum clears that slot.
    Every hit moves a tally up a block of maxw + 1 slots, so most slots
    below the lowest term are empty; left out, they cost no shift or add.

    The boards are walked in sorted order, keeping the layer after each
    column of the current board: the next board keeps the layers of the
    columns it shares with it from the left and places only the rest, so
    at most n + 1 layers are held at once.
    """
    maxw = n * (n - 1) // 2
    width = slot_width(factorial(n))
    hit = (maxw + 1) * width
    full = (1 << n) - 1
    boards = [tuple(heights) for heights in boards]
    columns: dict[int, list[tuple[int, int, int]]] = {}  # height -> crosses
    # the rows (0-based) that each mask leaves free
    free_rows = [tuple(p for p in range(n) if not mask >> p & 1) for mask in range(full + 1)]
    path = [{0: (0, 1)}]  # path[j]: the layer after the first j columns of `prefix`
    prefix: tuple[int, ...] = ()
    out: list = [None] * len(boards)
    for i in sorted(range(len(boards)), key=boards.__getitem__):
        heights = boards[i]
        j = 0
        for a, b in zip(prefix, heights):
            if a != b:
                break
            j += 1
        del path[j + 1:]
        for h in heights[j:]:
            if h not in columns:
                columns[h] = _crosses(n, h, hit)
            path.append(_place(path[-1], columns[h], free_rows, width))
        prefix = heights
        low, value = path[-1][full]
        slots = unpack(value << low, width)
        slots += [0] * ((n + 1) * (maxw + 1) - len(slots))
        out[i] = [slots[k * (maxw + 1):(k + 1) * (maxw + 1)] for k in range(n + 1)]
    return out


def _crosses(n: int, h: int, hit: int) -> list[tuple[int, int, int]]:
    """(row bit, walk, shift of the hit) for a cross at each row p of a
    column of height h."""
    out = []
    for p in range(1, n + 1):
        walk = 0
        r = p
        for _ in range((h - p) % n):
            r = r + 1 if r < n else 1
            walk |= 1 << (r - 1)
        out.append((1 << (p - 1), walk, hit if p <= h else 0))
    return out


def _place(layer: dict[int, tuple[int, int]], crosses, free_rows,
           width: int) -> dict[int, tuple[int, int]]:
    """The layer after one more column, whose crosses are `crosses`."""
    nxt: dict[int, tuple[int, int]] = {}
    for mask, (low, tally) in layer.items():
        free = ~mask
        for p in free_rows[mask]:
            bit, walk, shift = crosses[p]
            key = mask | bit
            at = low + shift + (walk & free).bit_count() * width
            old = nxt.get(key)
            if old is None:
                nxt[key] = (at, tally)
            elif at >= old[0]:
                nxt[key] = (old[0], old[1] + (tally << (at - old[0])))
            else:
                nxt[key] = (at, (old[1] << (old[0] - at)) + tally)
    return nxt
