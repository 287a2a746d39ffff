"""Integer partitions and their diagram statistics.

Diagrams follow the French convention: rows are counted from the bottom,
row j holds ``parts[j-1]`` cells, and a cell u = (i, j) sits in column i
and row j (both 1-based).  The content of u is c(u) = i - j; the hook of
u counts u itself plus the cells strictly right of it in its row and
strictly above it in its column.
"""

from __future__ import annotations

from math import factorial, prod
from typing import Iterable, Iterator


class Partition:
    """A weakly decreasing sequence of positive integers.

    Values are canonical: zero parts are stripped, so ``Partition((3, 2, 0))``
    equals ``Partition((3, 2))``.  The text form is comma-separated parts,
    with the empty string denoting the empty partition.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()) -> None:
        raw = tuple(int(p) for p in parts)
        for p in raw:
            if p < 0:
                raise ValueError(f"parts must be nonnegative, got {p}")
        for a, b in zip(raw, raw[1:]):
            if a < b:
                raise ValueError(f"parts must weakly decrease, got {raw}")
        self.parts = tuple(p for p in raw if p > 0)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        text = text.strip()
        if not text:
            return cls()
        return cls(int(piece) for piece in text.split(","))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def cells(self) -> Iterator[tuple[int, int]]:
        """Yield cells (column, row), row-major from the bottom row up."""
        for j, row in enumerate(self.parts, 1):
            for i in range(1, row + 1):
                yield (i, j)

    def conjugate(self) -> "Partition":
        """Reflect the diagram across its main diagonal."""
        return Partition(self._column_lengths())

    def _column_lengths(self) -> list[int]:
        """Cells in each column, left to right: the conjugate's parts."""
        parts = self.parts
        return [sum(1 for p in parts if p > i) for i in range(parts[0] if parts else 0)]

    def contents(self) -> list[int]:
        """c(u) = i - j for every cell, in cells() order."""
        return [i - j for (i, j) in self.cells()]

    def hooks(self) -> list[int]:
        """h(u) for every cell, in cells() order."""
        return list(self._hook_lengths())

    def hook_product(self) -> int:
        return prod(self._hook_lengths())

    def _hook_lengths(self) -> Iterator[int]:
        cols = self._column_lengths()
        for j, row in enumerate(self.parts, 1):
            for i in range(1, row + 1):
                yield (row - i) + (cols[i - 1] - j) + 1

    def n_stat(self) -> int:
        """n(lambda) = sum_i (i - 1) * lambda_i."""
        return sum(i * p for i, p in enumerate(self.parts))

    def dominates(self, other: "Partition") -> bool:
        """Prefix-sum order; defined between partitions of equal size."""
        if self.size != other.size:
            raise ValueError("dominance compares partitions of equal size")
        a = b = 0
        for i in range(max(len(self.parts), len(other.parts))):
            a += self.parts[i] if i < len(self.parts) else 0
            b += other.parts[i] if i < len(other.parts) else 0
            if a < b:
                return False
        return True

    def hook_length_count(self) -> int:
        """Number of standard fillings: n! / prod h(u)."""
        count, rem = divmod(factorial(self.size), self.hook_product())
        if rem:
            # The hook product always divides n!; a remainder is a bug.
            raise ArithmeticError(f"hook product does not divide {self.size}!")
        return count

    def hook_content_count(self, m: int) -> int:
        """Number of semistandard fillings with entries at most m.

        Evaluated as prod (m + c(u)) divided once by prod h(u); a nonzero
        remainder signals an implementation bug and raises.
        """
        if m < 1:
            raise ValueError("m must be a positive integer")
        count, rem = divmod(prod(m + c for c in self.contents()), self.hook_product())
        if rem:
            raise ArithmeticError(
                f"non-integral hook-content product for {self!r}, m={m}"
            )
        return count


def as_partition(shape) -> Partition:
    """`shape` itself if it is a Partition, its text form parsed if it is a
    string, else Partition(shape)."""
    if isinstance(shape, str):
        return Partition.parse(shape)
    return shape if isinstance(shape, Partition) else Partition(shape)


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n, lexicographically decreasing."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    cap = n if max_part is None else min(max_part, n)
    return (Partition(t) for t in _part_tuples(n, cap))


def _part_tuples(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(cap, n), 0, -1):
        for rest in _part_tuples(n - first, first):
            yield (first,) + rest
