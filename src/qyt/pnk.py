"""Weighted lattice paths and the symmetric polynomials they sum to.

A path takes n unit steps from (0, 0) to (k, n - k) over the alphabet
{N, E}.  Writing E_i for the number of east steps among the first i
(counting step i itself) and N_i = i - E_i, step i weighs x_i + E_i + 1
going north and N_i - x_i going east; a path weighs the product of its
step weights.  The path sums turn out to be symmetric in the x's, so
each one is stored as its coefficient vector against the elementary
symmetric basis, a plain tuple (`a_coeffs`), and evaluated as its dot
product with e_0..e_n of the point; the explicit path sum is kept only
as the reference evaluation route.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import mul, sub
from typing import Iterator, Sequence

from .partition import as_partition

#: Seed for the deterministic pseudo-random evaluation points of the
#: lattice suite, the one suite that samples; recorded in its report.
DEFAULT_SEED = 8675309

NORTH = "N"
EAST = "E"


def paths(n: int, k: int) -> Iterator[tuple[str, ...]]:
    """All step words with n steps, k of them east."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    for east_at in combinations(range(n), k):
        word = [NORTH] * n
        for i in east_at:
            word[i] = EAST
        yield tuple(word)


def path_weight(steps: Sequence[str], xs: Sequence[int]) -> int:
    """Product of the step weights of one path."""
    if len(steps) != len(xs):
        raise ValueError("need one x per step")
    east = 0
    w = 1
    for i, step in enumerate(steps, 1):
        if step == EAST:
            east += 1
            w *= (i - east) - xs[i - 1]
        elif step == NORTH:
            w *= xs[i - 1] + east + 1
        else:
            raise ValueError(f"steps must be 'N' or 'E', got {step!r}")
    return w


def pnk_eval_paths(n: int, k: int, xs: Sequence[int]) -> int:
    """Evaluate P_{n,k} as the explicit sum over all C(n, k) paths."""
    xs = tuple(xs)
    if len(xs) != n:
        raise ValueError(f"need {n} values, got {len(xs)}")
    return sum(path_weight(p, xs) for p in paths(n, k))


def elementary_values(xs: Sequence[int], upto: int) -> list[int]:
    """e_0(xs)..e_upto(xs), by expanding prod_i (1 + x_i y)."""
    es = [1] + [0] * upto
    for x in xs:
        for m in range(upto, 0, -1):
            es[m] += x * es[m - 1]
    return es


class _Levels:
    """One level of the table a(n, k, m), built forward from the empty
    path (P_{0,0} = 1) one level at a time.

    Row k of level n is the Eulerian number A(n, k) followed by
    a(n-1, k, m-1) - a(n-1, k-1, m-1) for m = 1..n, with a(n-1, ., .)
    read as 0 outside 0..n-1.  Column 0 advances from column 0 of the
    level below by A(n, k) = (k+1) A(n-1, k) + (n-k) A(n-1, k-1).
    """

    __slots__ = ("n", "rows")

    def __init__(self) -> None:
        self.n = 0
        self.rows: tuple[tuple[int, ...], ...] = ((1,),)  # A(0, 0)

    def advance(self, n: int) -> tuple[tuple[int, ...], ...]:
        """Build forward to level n >= self.n, keep it, and return its rows."""
        rows = self.rows
        for level in range(self.n + 1, n + 1):
            zero = (0,) * level
            padded = [zero, *rows, zero]
            rows = [((k + 1) * padded[k + 1][0] + (level - k) * padded[k][0],
                     *map(sub, padded[k + 1], padded[k])) for k in range(level + 1)]
        self.n, self.rows = n, tuple(rows)
        return self.rows


#: The largest level built in this process.  A sweep n = 1, 2, ... extends
#: it one level per call and holds one level, not every level below it.
_LARGEST = _Levels()


@lru_cache(maxsize=16)
def _rebuilt(n: int) -> tuple[tuple[int, ...], ...]:
    """A level below the largest one, built afresh; the last few are kept
    for suites that revisit small levels (lattice samples n <= 7)."""
    return _Levels().advance(n)


def _coeff_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """rows[k][m] = a(n, k, m) for k, m in 0..n."""
    if n < 1:
        raise ValueError("coefficients are defined for n >= 1")
    if n < _LARGEST.n:
        return _rebuilt(n)
    return _LARGEST.advance(n)


def a_coeffs(n: int, k: int) -> tuple[int, ...]:
    """Coefficient vector a(n, k, 0..n) of P_{n,k} against e_0..e_n.

    The constant term is the Eulerian number A(n, k); the higher terms
    follow a(n, k, m) = a(n-1, k, m-1) - a(n-1, k-1, m-1).
    """
    if n < 1:
        raise ValueError("defined for n >= 1")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return _coeff_rows(n)[k]


def a_table(n: int) -> list[list[int]]:
    """a(n, k, m) as a matrix: rows k = 0..n, columns m = 0..n."""
    return [list(row) for row in _coeff_rows(n)]


def pnk_eval_ebasis(n: int, k: int, xs: Sequence[int]) -> int:
    """Evaluate P_{n,k} through its elementary-basis coefficients."""
    row = a_coeffs(n, k)
    xs = tuple(xs)
    if len(xs) != n:
        raise ValueError(f"need {n} values, got {len(xs)}")
    return sum(map(mul, row, elementary_values(xs, n)))


def qyt_counts_via_pnk(shape) -> list[int]:
    """counts[k] = quasi-Yamanouchi fillings of `shape` with largest entry
    k + 1, for k = 0..n, each as P_{n,k}(contents) / hook product.

    The contents, their elementary values e_0..e_n and the hook product
    are computed once for all k; each P_{n,k} is then a dot product with
    its row of e-basis coefficients.  The divisions are exact, and a
    remainder raises.
    """
    shape = as_partition(shape)
    n = shape.size
    if n == 0:
        raise ValueError("defined for nonempty shapes")
    es = elementary_values(shape.contents(), n)
    hooks = shape.hook_product()
    counts = []
    for k, row in enumerate(_coeff_rows(n)):
        count, rem = divmod(sum(map(mul, row, es)), hooks)
        if rem:
            raise ArithmeticError(
                f"hook product does not divide the path sum for {shape!r}, k={k}"
            )
        counts.append(count)
    return counts
