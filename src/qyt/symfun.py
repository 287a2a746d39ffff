"""Truncated symmetric and quasisymmetric expansions, RSK insertion, and
the Schur generating function of quasi-Yamanouchi fillings.

Everything lives over a bounded variable set x_1..x_N.  Truncating at
N = n is lossless for degree-n coefficientwise comparisons, since a
degree-n monomial touches at most n distinct variables.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import permutations as _itertools_permutations
from typing import Iterable, Sequence

from .partition import Partition, as_partition, partitions
from .perm import is_permutation
from .qpoly import QTPoly
from .tableau import Tableau, _ssyt_rows, des_maj_counts


def _as_qt(c):
    return c if isinstance(c, QTPoly) else QTPoly({(0, 0): c})


def _is_zero(c) -> bool:
    return (not c) if isinstance(c, QTPoly) else c == 0


class MonomialMap:
    """Finite map from exponent vectors of a fixed length to coefficients.

    Coefficients may be plain ints or QTPoly values; zero coefficients
    are never stored, and equality compares the two kinds interchangeably.
    """

    __slots__ = ("n_vars", "data")

    def __init__(self, n_vars: int, data=None) -> None:
        self.n_vars = n_vars
        self.data: dict[tuple[int, ...], object] = {}
        if data:
            items = data.items() if isinstance(data, dict) else data
            for exps, c in items:
                self.add_term(exps, c)

    def add_term(self, exps: Sequence[int], coeff) -> None:
        exps = tuple(exps)
        if len(exps) != self.n_vars:
            raise ValueError(
                f"expected {self.n_vars} exponents, got {len(exps)}"
            )
        cur = self.data.get(exps)
        new = coeff if cur is None else cur + coeff
        if _is_zero(new):
            self.data.pop(exps, None)
        else:
            self.data[exps] = new

    def coefficient(self, exps: Sequence[int]):
        return self.data.get(tuple(exps), 0)

    def __add__(self, other):
        if not isinstance(other, MonomialMap) or other.n_vars != self.n_vars:
            return NotImplemented
        out = MonomialMap(self.n_vars, self.data)
        for exps, c in other.data.items():
            out.add_term(exps, c)
        return out

    def scale(self, coeff) -> "MonomialMap":
        """Multiply every coefficient by `coeff` (int or QTPoly)."""
        out = MonomialMap(self.n_vars)
        for exps, c in self.data.items():
            out.add_term(exps, c * coeff)
        return out

    def terms(self) -> list[tuple[tuple[int, ...], object]]:
        """(exponents, coefficient) pairs in lexicographic exponent order."""
        return [(exps, self.data[exps]) for exps in sorted(self.data)]

    def __bool__(self) -> bool:
        return bool(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialMap):
            return NotImplemented
        if self.n_vars != other.n_vars:
            return False
        keys = set(self.data) | set(other.data)
        return all(
            _as_qt(self.data.get(key, 0)) == _as_qt(other.data.get(key, 0))
            for key in keys
        )

    def __repr__(self) -> str:
        return f"MonomialMap({self.n_vars}, {self.data!r})"

    def to_json(self) -> list[dict]:
        out = []
        for exps, c in self.terms():
            coeff = c.triples() if isinstance(c, QTPoly) else c
            out.append({"exponents": list(exps), "coeff": coeff})
        return out


def schur_truncated(shape, n_vars: int) -> MonomialMap:
    """Schur polynomial of `shape` in x_1..x_N: one monomial per
    semistandard filling, weighted by multiplicity."""
    out = MonomialMap(n_vars)
    for rows in _ssyt_rows(as_partition(shape).parts, n_vars):
        exps = [0] * n_vars
        for row in rows:
            for v in row:
                exps[v - 1] += 1
        out.add_term(exps, 1)
    return out


def monomial_truncated(shape, n_vars: int) -> MonomialMap:
    """Monomial symmetric polynomial: the orbit of the exponent vector."""
    shape = as_partition(shape)
    out = MonomialMap(n_vars)
    if len(shape) > n_vars:
        return out
    base = tuple(shape.parts) + (0,) * (n_vars - len(shape))
    for exps in set(_itertools_permutations(base)):
        out.add_term(exps, 1)
    return out


def fundamental_truncated(strict_at: Iterable[int], n: int, n_vars: int) -> MonomialMap:
    """Fundamental quasisymmetric polynomial F_sigma in x_1..x_N: weakly
    increasing words i_1 <= ... <= i_n with i_j < i_{j+1} forced exactly
    at the positions j in sigma."""
    sigma = set(strict_at)
    if any(j < 1 or j > n - 1 for j in sigma):
        raise ValueError("strict positions must lie in 1..n-1")
    out = MonomialMap(n_vars)
    if n == 0:
        out.add_term((0,) * n_vars, 1)
        return out
    word: list[int] = []

    def extend(pos: int, low: int) -> None:
        if pos > n:
            exps = [0] * n_vars
            for i in word:
                exps[i - 1] += 1
            out.add_term(tuple(exps), 1)
            return
        for i in range(low, n_vars + 1):
            word.append(i)
            extend(pos + 1, i + 1 if pos in sigma else i)
            word.pop()

    extend(1, 1)
    return out


def composition_descents(weight: Sequence[int]) -> set[int]:
    """Partial sums of a composition with positive parts, final sum
    excluded: the subset of [n-1] the composition corresponds to."""
    out: set[int] = set()
    total = 0
    for part in tuple(weight)[:-1]:
        if part <= 0:
            raise ValueError("composition parts must be positive")
        total += part
        out.add(total)
    return out


def rsk(perm: Sequence[int]) -> tuple[Tableau, Tableau]:
    """Row-insert a permutation.  Returns (P, Q) with P the insertion and
    Q the recording tableau; Des(Q) = Des(perm) and Des(P) = Des(perm^-1).
    """
    if not is_permutation(perm):
        raise ValueError(f"not a permutation: {tuple(perm)}")
    insertion, recording = _insert_word(perm)
    return insertion, recording


def rsk_multiset(word: Sequence[int]) -> tuple[Tableau, Tableau]:
    """Row-insert a multiset word.  Returns (P, Q) with P the standard
    recording tableau, whose descents sit exactly at the word's descents,
    and Q the semistandard insertion tableau, whose weight is the word's
    content."""
    if any(v < 1 for v in word):
        raise ValueError("word values must be positive")
    insertion, recording = _insert_word(word)
    return recording, insertion


def _insert_word(word: Sequence[int]) -> tuple[Tableau, Tableau]:
    rows: list[list[int]] = []
    rec: list[list[int]] = []
    for step, x in enumerate(word, 1):
        r = 0
        while True:
            if r == len(rows):
                rows.append([x])
                rec.append([step])
                break
            row = rows[r]
            i = bisect_right(row, x)  # leftmost entry strictly greater
            if i == len(row):
                row.append(x)
                rec[r].append(step)
                break
            row[i], x = x, row[i]
            r += 1
    return Tableau(rows), Tableau(rec)


class SchurExpansion:
    """Finite Schur expansion of a degree-n series: a map from partitions
    of n to QTPoly coefficients."""

    __slots__ = ("n", "data")

    def __init__(self, n: int, data=None) -> None:
        self.n = n
        self.data: dict[Partition, QTPoly] = {}
        if data:
            items = data.items() if isinstance(data, dict) else data
            for shape, coeff in items:
                self.add(shape, coeff)

    def add(self, shape, coeff) -> None:
        shape = as_partition(shape)
        if shape.size != self.n:
            raise ValueError(f"expected a partition of {self.n}, got {shape!r}")
        new = self.data.get(shape, QTPoly()) + _as_qt(coeff)
        if new:
            self.data[shape] = new
        else:
            self.data.pop(shape, None)

    def coefficient(self, shape) -> QTPoly:
        return self.data.get(as_partition(shape), QTPoly())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SchurExpansion):
            return NotImplemented
        return self.n == other.n and self.data == other.data

    def __repr__(self) -> str:
        return f"SchurExpansion({self.n}, {self.data!r})"

    def to_json(self) -> list[dict]:
        return [
            {"partition": str(shape), "coeff": self.data[shape].triples()}
            for shape in partitions(self.n)
            if shape in self.data
        ]


def gen_fn(n: int, with_q: bool = True) -> SchurExpansion:
    """Schur generating function of the quasi-Yamanouchi fillings of
    size n: the coefficient of s_shape collects q^maj t^des over the
    shape's fillings.  With with_q=False the q-grading is dropped, so a
    filling with largest entry k contributes t^(k-1)."""
    out = SchurExpansion(n)
    for shape in partitions(n):
        out.add(shape, QTPoly(
            ((mj if with_q else 0, d), c) for (d, mj), c in des_maj_counts(shape)
        ))
    return out
