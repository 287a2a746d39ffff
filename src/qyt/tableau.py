"""Fillings of partition diagrams and their statistics.

A filling lists its rows bottom to top (French convention).  The
semistandard condition: rows weakly increase rightward, columns strictly
increase upward.  A semistandard filling is quasi-Yamanouchi when, for
every value i >= 2 that appears, some instance of i sits in a strictly
higher row than some instance of i - 1.

Quasi-Yamanouchi fillings are counted through the standard fillings:
relabelling the i-th run of a standard filling to i (destandardization,
`Tableau.destandardize`) is a bijection onto the quasi-Yamanouchi
fillings of the same shape, and a filling with k runs lands on one with
largest entry k.  The fillings are counted (`qyt_counts`), not listed.

The descent statistics of the standard fillings are counted without
building any filling, by one level-by-level walk up Young's lattice
(`descent_levels`) that keeps only the level below.  For each shape it
holds a list by des of sum q^maj evaluated at q = 2^W, so a descent is
a shift.  W = 0 gives the counts by des that the counting suites read;
W = qpoly.slot_width(f), f the most standard fillings of a top, keeps
each maj in its own slot for `gen_fn` and the q-hit suites; the genfun
suite walks at the wider W of its comparisons.  A suite reads one walk
of the lattice, and a single shape walks its own order ideal.  The walk
keeps nothing between calls; the suites of one verify run share the
levels of one walk per width (verify.Run).
`enumerate_syt` serves only to list the fillings themselves.  The
descent set of one standard filling is read off its rows by
`descent_mask`, which `Tableau.descent_set` and the genfun suite's walk
of the fillings share.

Every filling comes from one cell walk, `_ssyt_rows`, which fills the
cells in reading order under a budget of uses per value:
`enumerate_ssyt(shape, m)` gives every value up to m the whole size as
its budget, `enumerate_syt(shape)` gives each of 1..n a budget of one,
and `kostka(shape, weight)` gives the weight and counts.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .partition import Partition, as_partition
from .qpoly import slot_width


class Tableau:
    """A filling of a partition diagram, rows stored bottom to top."""

    __slots__ = ("shape", "rows")

    def __init__(self, rows: Iterable[Iterable[int]] = ()) -> None:
        rws = [tuple(int(v) for v in row) for row in rows]
        while rws and not rws[-1]:
            rws.pop()
        self.shape = Partition(len(r) for r in rws)  # validates the profile
        for row in rws:
            for v in row:
                if v < 1:
                    raise ValueError("entries must be positive integers")
        self.rows = tuple(rws)

    @property
    def size(self) -> int:
        return self.shape.size

    def is_semistandard(self) -> bool:
        for row in self.rows:
            if any(a > b for a, b in zip(row, row[1:])):
                return False
        for lower, upper in zip(self.rows, self.rows[1:]):
            if any(a >= b for a, b in zip(lower, upper)):
                return False
        return True

    def is_standard(self) -> bool:
        if not self.is_semistandard():
            return False
        entries = sorted(v for row in self.rows for v in row)
        return entries == list(range(1, self.size + 1))

    def is_quasi_yamanouchi(self) -> bool:
        if not self.is_semistandard():
            return False
        lowest: dict[int, int] = {}
        highest: dict[int, int] = {}
        for j, row in enumerate(self.rows, 1):
            for v in row:
                lowest.setdefault(v, j)
                highest[v] = j
        for v in highest:
            if v > 1 and (v - 1 not in lowest or highest[v] <= lowest[v - 1]):
                return False
        return True

    def descent_set(self) -> set[int]:
        """Positions i with i + 1 strictly above i (descent_mask); a
        non-standard filling is measured through its standardization."""
        t = self if self.is_standard() else self.standardize()
        mask = descent_mask(t.rows, t.size)
        return {i for i in range(1, t.size) if mask >> (i - 1) & 1}

    def destandardize(self) -> "Tableau":
        """Send every entry of the i-th run to i.

        The result is quasi-Yamanouchi with largest entry equal to the
        number of runs, and standardize() inverts the map.
        """
        if not self.is_standard():
            raise ValueError("destandardization applies to standard fillings")
        dset = self.descent_set()
        run_of = [0] * (self.size + 1)
        run = 1
        for v in range(1, self.size + 1):
            run_of[v] = run
            if v in dset:
                run += 1
        return Tableau(tuple(run_of[v] for v in row) for row in self.rows)

    def standardize(self) -> "Tableau":
        """Relabel the entries 1..n, ordering equal values by column."""
        order = []
        for j, row in enumerate(self.rows):
            for i, v in enumerate(row):
                order.append((v, i, j))
        order.sort()
        label = {}
        for k, (_, i, j) in enumerate(order, 1):
            label[(i, j)] = k
        return Tableau(
            tuple(label[(i, j)] for i in range(len(row)))
            for j, row in enumerate(self.rows)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Tableau({list(self.rows)!r})"

    def __str__(self) -> str:
        return "/".join(",".join(str(v) for v in row) for row in self.rows)


def _ssyt_rows(parts: tuple[int, ...], budget: Iterable[int]) -> Iterator[list[list[int]]]:
    """Rows of every semistandard filling of `parts` that uses each value
    v at most budget[v - 1] times, in lexicographic order of the
    bottom-to-top reading word.

    The cells are walked in reading order.  Each steps through the
    values from its least admissible one up to the largest that leaves
    room for the strictly larger cells above it, at most len(budget),
    skipping the values whose budget is spent.  The same lists are
    yielded each time and refilled in place, so a caller copies what it
    keeps.
    """
    rows = [[0] * p for p in parts]
    left = [0, *budget]  # left[v]: uses of v still free; left[0] is a dummy
    m = len(left) - 1
    floor = [0] * (parts[0] if parts else 0)  # below the bottom row
    # (row, column, the row below, the largest value allowed), in reading order
    cells = [(row, i, rows[j - 1] if j else floor,
              m - sum(1 for p in parts[j + 1:] if p > i))
             for j, row in enumerate(rows) for i in range(len(row))]
    if not cells:
        yield rows
        return
    last = len(cells) - 1
    # A cell is started one below its least admissible value, taking that
    # value from the budget as if it held it, so stepping on releases it.
    left[0] -= 1
    k = 0
    while k >= 0:
        row, i, below, top = cells[k]
        v = row[i]
        left[v] += 1
        v += 1
        while v <= top and not left[v]:
            v += 1
        if v > top:
            k -= 1
            continue
        row[i] = v
        left[v] -= 1
        if k == last:
            yield rows
            continue
        k += 1
        row, i, below, top = cells[k]
        lo = v if i else 1  # cell k - 1 is the left neighbour when i > 0
        if below[i] >= lo:
            lo = below[i] + 1
        row[i] = lo - 1
        left[lo - 1] -= 1


def enumerate_ssyt(shape, m: int) -> list[Tableau]:
    """All semistandard fillings of `shape` with entries at most m,
    ordered lexicographically by bottom-to-top reading word."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    parts = as_partition(shape).parts
    return [Tableau(rows) for rows in _ssyt_rows(parts, (sum(parts),) * m)]


def enumerate_syt(shape) -> list[Tableau]:
    """All standard fillings of `shape`: the semistandard fillings that
    use each of 1..n at most once, ordered lexicographically by
    bottom-to-top reading word."""
    parts = as_partition(shape).parts
    return [Tableau(rows) for rows in _ssyt_rows(parts, (1,) * sum(parts))]


def descent_mask(rows: Iterable[Iterable[int]], n: int) -> int:
    """The descent set of the standard filling of size n with these rows,
    as a bitmask (bit i - 1 for i): i is a descent when i + 1 sits in a
    strictly higher row.  These are the partial sums of the weight of its
    destandardization.  The rows are read as they are, so the rows of the
    cell walk need no Tableau."""
    row_of = [0] * (n + 1)
    for j, row in enumerate(rows):
        for v in row:
            row_of[v] = j
    return sum(1 << (i - 1) for i in range(1, n) if row_of[i + 1] > row_of[i])


def _corners(parts: tuple[int, ...]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(r, parts with the last cell of row r removed) for each corner row r."""
    for r, p in enumerate(parts):
        if r + 1 == len(parts) or parts[r + 1] < p:
            yield r, parts[:r] + ((p - 1,) if p > 1 else ()) + parts[r + 1:]


def descent_levels(width: int, tops) -> Iterator[dict[tuple[int, ...], list[int]]]:
    """The walk of Young's lattice below `tops`, shapes of one size N:
    for n = 1..N, {parts: tally} over the sub-shapes of size n, where
    tally[d] = sum of q^maj over the standard fillings with d descents,
    at q = 2^width, for d = 0..n-1.  At width 0 these are counts.

    The state is a sub-shape together with the row r of its largest
    entry n, and each level is built from the one below, which is then
    dropped.  Removing n from row r leaves n - 1 at the end of some row
    r', and n - 1 is a descent exactly when r > r': the tally moves up
    one descent and its maj grows by n - 1, a shift by (n - 1) * width.
    """
    ideal = [{as_partition(shape).parts for shape in tops}]
    while any(ideal[-1]):
        ideal.append({rest for mu in ideal[-1] for _, rest in _corners(mu)})
    # the empty filling, as if its largest entry ended row 0
    below: dict[tuple[int, ...], list[tuple[int, list[int]]]] = {(): [(0, [1])]}
    for n, shapes in enumerate(reversed(ideal[:-1]), 1):
        shift = (n - 1) * width
        level = {}
        for mu in shapes:
            level[mu] = by_top = []
            for r, rest in _corners(mu):
                tally = [0] * n
                for row, sub in below[rest]:
                    up, s = (1, shift) if r > row else (0, 0)
                    for d, v in enumerate(sub, up):
                        tally[d] += v << s
                by_top.append((r, tally))
        below = level
        yield {mu: [sum(col) for col in zip(*(t for _, t in by_top))]
               for mu, by_top in level.items()}


def descent_tallies(width: int, tops) -> dict[tuple[int, ...], list[int]]:
    """The last level of descent_levels(width, tops), keeping no other."""
    level = {(): [1]}  # the empty shape's, which no level holds
    for level in descent_levels(width, tops):
        pass
    return level


def maj_width(shapes) -> int:
    """A width at which descent_levels keeps every maj apart: slot_width(f)
    for f the most standard fillings of any of `shapes`.  f only grows
    up Young's lattice, so it bounds every count below them too."""
    return slot_width(max(as_partition(shape).hook_length_count() for shape in shapes))


def qyt_counts(shape) -> list[int]:
    """counts[m] = |QYT with largest entry exactly m| for m = 0..n: a
    standard filling with d descents destandardizes to one with largest
    entry d + 1, and the walk at width 0 counts the fillings by d."""
    parts = as_partition(shape).parts
    return [0, *descent_tallies(0, [parts])[parts]] if parts else [1]


def qyt_count_exact(shape, m: int) -> int:
    """|QYT with largest entry exactly m| = |{standard fillings with m runs}|."""
    counts = qyt_counts(shape)
    return counts[m] if 0 <= m < len(counts) else 0


def kostka(shape, weight) -> int:
    """Number of semistandard fillings of `shape` with the given weight,
    zero parts allowed and a negative part rejected: the fillings the cell walk finds with the weight
    as its budget, each of which uses the whole weight when the sizes
    agree."""
    parts = as_partition(shape).parts
    target = tuple(weight.parts) if isinstance(weight, Partition) else tuple(weight)
    if any(w < 0 for w in target):
        raise ValueError("weight parts must be nonnegative")
    if sum(parts) != sum(target):
        return 0
    return sum(1 for _ in _ssyt_rows(parts, target))
