"""Permutations and multiset words: streaming enumeration, and parsing
and formatting of words.

Words are tuples in one-line notation with 1-based values.
"""

from __future__ import annotations

from itertools import permutations as _lex_permutations
from typing import Iterator, Sequence

Word = tuple[int, ...]


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
