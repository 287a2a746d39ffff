"""Permutations and multiset words: descents, major index, inverses,
and streaming enumeration.

Words are tuples in one-line notation with 1-based values; descent
positions are 1-based as well.
"""

from __future__ import annotations

from itertools import permutations as _lex_permutations
from typing import Iterator, Sequence

Word = tuple[int, ...]


def descent_set(word: Sequence[int]) -> set[int]:
    """Positions i (1-based) with word[i] > word[i+1]."""
    return {i for i in range(1, len(word)) if word[i - 1] > word[i]}


def des(word: Sequence[int]) -> int:
    return len(descent_set(word))


def maj(word: Sequence[int]) -> int:
    return sum(descent_set(word))


def is_permutation(word: Sequence[int]) -> bool:
    return sorted(word) == list(range(1, len(word) + 1))


def inverse(perm: Sequence[int]) -> Word:
    if not is_permutation(perm):
        raise ValueError(f"not a permutation: {tuple(perm)}")
    inv = [0] * len(perm)
    for i, v in enumerate(perm, 1):
        inv[v - 1] = i
    return tuple(inv)


def perms(n: int) -> Iterator[Word]:
    """All of S_n in lexicographic order."""
    return _lex_permutations(range(1, n + 1))


def multiset_perms(content: Sequence[int]) -> Iterator[Word]:
    """Distinct words in which the value i appears content[i-1] times,
    in lexicographic order."""
    counts = [int(c) for c in content]
    if any(c < 0 for c in counts):
        raise ValueError("multiplicities must be nonnegative")
    n = sum(counts)
    word: list[int] = []

    def emit():
        if len(word) == n:
            yield tuple(word)
            return
        for v in range(len(counts)):
            if counts[v]:
                counts[v] -= 1
                word.append(v + 1)
                yield from emit()
                word.pop()
                counts[v] += 1

    return emit()


def parse_word(text: str) -> Word:
    """Parse "45312" (single digits) or "10,4,2,..." (comma-separated)."""
    text = text.strip()
    if not text:
        return ()
    pieces = text.split(",") if "," in text else text
    if not all(piece.isdecimal() for piece in pieces):
        raise ValueError(f"cannot parse word: {text!r}")
    return tuple(int(piece) for piece in pieces)


def format_word(word: Sequence[int]) -> str:
    if word and max(word) > 9:
        return ",".join(str(v) for v in word)
    return "".join(str(v) for v in word)
