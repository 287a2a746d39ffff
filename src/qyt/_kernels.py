"""Permutation censuses over S_n, in pure Python.

These sweeps are the brute-force route to hit and q-hit numbers; the
board module computes both by the product identity and keeps the q-hit
census only as the independent side of the gjw suite.
"""

from __future__ import annotations

from itertools import permutations


def active_backend() -> str:
    """Name of the census implementation; there is only the pure one."""
    return "pure"


def hit_census(n: int, heights) -> list[int]:
    """counts[k] = permutations of S_n with exactly k hits on the board."""
    counts = [0] * (n + 1)
    for perm in permutations(range(1, n + 1)):
        k = 0
        for p, h in zip(perm, heights):
            if p <= h:
                k += 1
        counts[k] += 1
    return counts


def q_hit_census(n: int, heights) -> list[list[int]]:
    """counts[k][w] = permutations with k hits and circle weight w."""
    heights = tuple(heights)
    maxw = n * (n - 1) // 2
    counts = [[0] * (maxw + 1) for _ in range(n + 1)]
    pos = [0] * (n + 1)
    for perm in permutations(range(1, n + 1)):
        for j, v in enumerate(perm):
            pos[v] = j
        k = w = 0
        for j in range(n):
            p = perm[j]
            h = heights[j]
            if p <= h:
                k += 1
            # Walk (h - p) mod n squares cyclically upward from the cross,
            # circling squares not shadowed by a cross further left.
            r = p
            for _ in range((h - p) % n):
                r = r + 1 if r < n else 1
                if pos[r] >= j:
                    w += 1
        counts[k][w] += 1
    return counts
