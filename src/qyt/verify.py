"""Exhaustive desk-scale verification suites.

Each suite sweeps one identity over every instance up to its bound and
reports either a pass or the first counterexample met in iteration
order (n ascending, shapes lexicographically decreasing), with both
sides fully evaluated.  Identities with q-integer denominators are
checked in cross-multiplied form, so only ring operations are needed:
every q-check compares two ring values packed at one width, its
suite's W for that instance, and nothing is divided.  W is
qpoly.slot_width of bounds read off the sides' inputs as they are, so
that a faulty input with negative or oversized counts widens the slots
instead of slipping through them; an input packed at another width is
unpacked once, for its bound, and packed again only if W differs.
t-strides are qpoly.t_stride of the rows as they are, and every q-value
at q = 2^W comes from qpoly.q_table_at(n, W).

A suite is written as a body, a generator that yields (check, fields,
lhs, rhs) for every instance, and `_suite` makes it into the suite.
Every suite that reads descent statistics reads the walk of Young's
lattice with no top (tableau.descent_levels).  genfun reads its level n
at the width of each n (tableau.descent_tallies); every other suite
reads its first max_n levels through _levels, and the suites of one run
share one such walk per width, hit numbers and path counts (see Run).
A tally by descents is paired with its other side over every row that
either side has, a row that one side lacks read as 0: no standard
filling of size n has n or more descents, so on honest input those rows
are 0 on both sides, and a faulty row there is read, not skipped.

q = 1 is width 0 of the packed layer: the walk at width 0 counts, and
q_table_at(n, 0) holds the integers and the binomial coefficients.  So
the one signed row prod_{i=0..n} (1 - t q^i) (_signed_row) serves
MacMahon's content tallies at q = 2^W, the alternating summation and
the Worpitzky form of the Eulerian numbers at q = 1, and the one rook
route (board._rook_route) serves hit numbers at q = 1 and q-hit numbers
at q = 2^W.

The counting-level applications live here too: the ribbon a sign word
traces and the labeled one-row Jack coefficients.  The foulkes and polya
suites check the Foulkes multiplicities and the Polya dimension identity.
"""

from __future__ import annotations

import functools
import random
import time
from itertools import islice, zip_longest
from math import comb, factorial, prod
from operator import mul
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from . import _kernels
from .board import FerrersBoard, _rook_route
from .partition import as_partition, partitions
from .perm import perms
from .pnk import (
    DEFAULT_SEED,
    a_table,
    pnk_eval_ebasis,
    pnk_eval_paths,
    qyt_counts_via_pnk,
)
from .qpoly import Packed, pack, q_table_at, slot_width, t_stride, unpack
from .symfun import (
    fundamental_sums,
    monomial_truncated,
    row_insert,
    row_uninsert,
    schur_truncated,
)
from .tableau import (
    _ssyt_rows,
    descent_levels,
    descent_mask,
    descent_tallies,
    kostka,
    maj_width,
    qyt_count_exact,
)


#: One instance of a check: (check name or None, fields, lhs, rhs).
_Instance = tuple[str | None, dict, object, object]


class SuiteReport(NamedTuple):
    """Outcome of one suite run."""

    suite: str
    bounds: dict
    status: str
    counterexample: dict | None
    ms: int

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return self._asdict()


def _shown(x):
    """A side or a field as a counterexample shows it: ints and None as
    they are, lists and tuples element by element, anything else as its
    str()."""
    if x is None or isinstance(x, int):
        return x
    if isinstance(x, (list, tuple)):
        return [_shown(v) for v in x]
    return str(x)


def _suite(name: str) -> Callable[[Callable[..., Iterator[_Instance]]], Callable[..., SuiteReport]]:
    """Make a check body into the suite `name`.

    The body takes the suite's bounds, each with a default, and yields
    (check, fields, lhs, rhs) for every instance.  The suite reports
    every bound in signature order, defaults included, rejects a max_*
    bound below 1, under which it would check nothing, and times the
    body, which gets the caller's arguments as they are.  It stops at
    the first instance whose sides differ, leaving the body suspended
    there, and reports it as the counterexample: the check (left out
    when None), the fields, then lhs and rhs, each value shown.
    """
    def decorate(body: Callable[..., Iterator[_Instance]]) -> Callable[..., SuiteReport]:
        params = body.__code__.co_varnames[:body.__code__.co_argcount]
        defaults = dict(zip(params, body.__defaults__))

        @functools.wraps(body)
        def suite(*args, **kwargs) -> SuiteReport:
            bounds = {**defaults, **dict(zip(params, args)), **kwargs}
            for key in params:
                if key.startswith("max_") and bounds[key] < 1:
                    raise ValueError(f"{key} must be at least 1, got {bounds[key]}")
            started = time.perf_counter()
            counterexample = None
            for check, fields, lhs, rhs in body(*args, **kwargs):
                if lhs != rhs:
                    counterexample = {} if check is None else {"check": check}
                    for key, value in (*fields.items(), ("lhs", lhs), ("rhs", rhs)):
                        counterexample[key] = _shown(value)
                    break
            return SuiteReport(
                suite=name,
                bounds=bounds,
                status="pass" if counterexample is None else "fail",
                counterexample=counterexample,
                ms=int((time.perf_counter() - started) * 1000),
            )

        return suite

    return decorate


# ---------------------------------------------------------------------------
# one run: the values its suites share


#: The run in progress, or None.
_RUN: Run | None = None


class Run:
    """One verify call whose suites share what they compute, such as
    `qyt verify all`: opened with `with`, at most one at a time.

    Within a run each of these is computed once: the partitions of each n,
    as one tuple, whose Partitions keep their hooks, contents and
    conjugates; the levels of the one walk of Young's lattice per width
    (_levels); the hit numbers of each board and the lattice-path counts
    of each shape (_shared).  A value is keyed by the function as verify,
    or its class, binds it when called, plus its arguments, so that a
    function patched before a run is a new key and its fault is seen.
    Values are kept as tuples, and walk levels as read-only mappings of
    tuples, so that no suite changes what a later one reads.  Everything
    is dropped when the run ends: a fault patched beneath a shared
    function, such as board._rook_route beneath FerrersBoard.hit_numbers,
    changes its values but not its key.

    A suite called alone runs outside any run, by the same code keeping
    nothing: a function is called each time it is asked, the partitions
    come one at a time, and the walk holds only the level below.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: dict = {}

    def __enter__(self) -> Run:
        global _RUN
        if _RUN is not None:
            raise RuntimeError("a verify run is open already")
        _RUN = self
        return self

    def __exit__(self, *exc) -> None:
        global _RUN
        _RUN = None
        self.values.clear()


def _shared(fn: Callable, *args) -> Sequence:
    """fn(*args): within a run, a tuple computed on the first call with
    this fn and these args; outside one, as fn returns it."""
    run = _RUN
    if run is None:
        return fn(*args)
    key = (fn, *args)
    value = run.values.get(key)
    if value is None:
        value = run.values[key] = tuple(fn(*args))
    return value


def _levels(width: int, max_n: int) -> Iterator[Mapping[tuple[int, ...], Sequence[int]]]:
    """Levels 1..max_n of the walk of Young's lattice at `width` with no
    top (descent_levels), each holding every partition of its size.
    Outside a run, the walk alone, keeping no level.  Within one, the
    run's one walk at this width, built only as deep as its deepest
    reader, each level kept for the suites after the first."""
    run = _RUN
    if run is None:
        yield from islice(descent_levels(width), max_n)
        return
    key = (descent_levels, width)
    if key not in run.values:
        run.values[key] = ([], descent_levels(width))
    kept, rest = run.values[key]
    for n in range(max_n):
        if n == len(kept):
            kept.append(MappingProxyType({mu: tuple(t) for mu, t in next(rest).items()}))
        yield kept[n]


# ---------------------------------------------------------------------------
# the signed row prod_{i=0..n} (1 - t q^i)


def _signed_row(n: int, width: int) -> list[int]:
    """E_0..E_n at q = 2^width, E_j = (-1)^j q^C(j,2) [n+1 choose j]: by
    the q-binomial theorem the coefficient of t^j in prod_{i=0..n}
    (1 - t q^i), read from the q-Pascal rows of qpoly.q_table_at(n,
    width), which hold [n+1 choose j] for j <= n (n >= 1).  The last
    coefficient, at t^(n+1), is left out, since no caller reads a power
    of t above n.  At width 0 it is the row (-1)^j C(n+1, j)."""
    pascal = q_table_at(n, width)[2][n + 1]
    return [(-1) ** j * (pascal[j] << width * comb(j, 2)) for j in range(n + 1)]


def _times_signed_row(signed: list[int], P: Sequence[int]) -> list[int]:
    """The coefficients of t^0..t^(len(P) - 1) in
    (sum_j signed[j] t^j) * (sum_k P[k] t^k), for `signed` the signed row
    of n and at most n + 1 terms P_k."""
    return [sum(map(mul, signed[d::-1], P)) for d in range(len(P))]


# ---------------------------------------------------------------------------
# hit numbers


@_suite("hit")
def verify_hit(max_n: int = 7) -> Iterator[_Instance]:
    """QYT_{=k+1}(shape) * hook product == h_k of the conjugate board,
    for k = 0..n and every further row of the walk's tally."""
    for n, tallies in enumerate(_levels(0, max_n), 1):
        for shape in _shared(partitions, n):
            hooks = shape.hook_product()
            counts = tallies[shape.parts]
            hit = _shared(FerrersBoard.hit_numbers,
                          FerrersBoard.from_partition(shape.conjugate()))
            for k, (count, h) in enumerate(zip_longest(counts, hit, fillvalue=0)):
                yield None, {"shape": shape, "k": k}, count * hooks, h


def _hit_sides(board: FerrersBoard, shape, tally: Sequence[int],
               tally_width: int) -> tuple[int, list[int], list[list[int]], int, int]:
    """(W, T_0..T_n of `board` packed at q = 2^W, the walk's `tally` of
    `shape` read back from tally_width as rows, prod [h(u)] and [n]! at
    q = 2^W): the set-up of maj-hit and charge-hit.  W bounds a row times
    the hook polynomial by |rows|_1 * prod(hooks), a sum or a shift of
    the T_k by sum_k |T_k|_1, and [n]! by n!.  On honest inputs W is the
    width of the board's rook route, so T is used as it comes and the
    table of n at W is the one the route read."""
    route_width, T = board.q_hit_numbers()
    T_rows = [unpack(t, route_width) for t in T]
    rows = [unpack(row, tally_width) for row in tally]
    hooks = shape.hooks()
    width = slot_width(factorial(shape.size), sum(abs(c) for row in T_rows for c in row),
                       sum(abs(c) for row in rows for c in row) * prod(hooks))
    if width != route_width:
        T = [pack(row, width) for row in T_rows]
    ints, facts, _ = q_table_at(shape.size, width)
    return width, T, rows, prod(ints[h] for h in hooks), facts[-1]


@_suite("maj-hit")
def verify_maj_hit(max_n: int = 6) -> Iterator[_Instance]:
    """Major-index refinement, cross-multiplied:

    (sum_{QYT_{=k+1}} q^maj) * prod [h(u)]  ==  q^n(shape) * T_{n-k}(B+1),

    where B+1 is the board of the shape with every column raised once,
    for k = 0..n (T_0(B+1) = 0) and every further row of the walk's
    tally.  Also checks that the T_k sum to [n]! (Mahonian).  Both sides
    are compared packed at q = 2^W, with W, T_k, the hook product and
    [n]! from _hit_sides.  The sums of q^maj come from one walk of Young's
    lattice at the maj width (tableau.maj_width) and the T_k from the
    board's rook route.
    """
    tally_width = maj_width(_shared(partitions, max_n))
    for n, tallies in enumerate(_levels(tally_width, max_n), 1):
        for shape in _shared(partitions, n):
            board = FerrersBoard.from_partition(shape).plus_one()
            width, T, gens, hooks_at, mahonian_at = _hit_sides(
                board, shape, tallies[shape.parts], tally_width)
            yield ("mahonian", {"board": board},
                   Packed(sum(T), width), Packed(mahonian_at, width))
            shift = shape.n_stat() * width
            lhs = [Packed(pack(g, width) * hooks_at, width) for g in gens]
            rhs = [Packed(t << shift, width) for t in reversed(T)]
            zero = Packed(0, width)
            for k, sides in enumerate(zip_longest(lhs, rhs, fillvalue=zero)):
                yield ("refinement", {"shape": shape, "k": k}, *sides)


@_suite("charge-hit")
def verify_charge_hit(max_n: int = 6) -> Iterator[_Instance]:
    """Charge refinement, cross-multiplied:

    (sum_{QYT_{=k+1}} q^ch) * prod [h(u)] * q^C(n,2)
        ==  q^(nk + n(conjugate)) * T_k(board of the conjugate),

    compared packed as in maj-hit (see _hit_sides).  Charge is n * k -
    maj, so the row of the fillings with k descents, read back with d its
    top maj (0 for a row the tally lacks) and reversed, is q^(d - nk)
    times the sum of q^charge.  So both sides are multiplied by
    q^(d - nk): the reversed row times prod [h(u)] * q^C(n,2) against
    q^(d + n(conjugate)) * T_k, and no exponent is negative.
    """
    tally_width = maj_width(_shared(partitions, max_n))
    for n, tallies in enumerate(_levels(tally_width, max_n), 1):
        half = comb(n, 2)
        for shape in _shared(partitions, n):
            conj = shape.conjugate()
            width, T, majs, hooks_at, _ = _hit_sides(
                FerrersBoard.from_partition(conj), shape, tallies[shape.parts], tally_width)
            for k in range(max(len(majs), n + 1)):
                c = majs[k] if k < len(majs) else [0]
                t = T[k] if k <= n else 0
                lhs = pack(c[::-1], width) * hooks_at << (half * width)
                rhs = t << ((len(c) - 1 + conj.n_stat()) * width)
                yield "refinement", {"shape": shape, "k": k}, Packed(lhs, width), Packed(rhs, width)


@_suite("summation")
def verify_summation(max_n: int = 8) -> Iterator[_Instance]:
    """Alternating summation:

    QYT_{=k+1}(shape) == sum_m C(n+1, k-m) (-1)^(k-m) SSYT_{m+1}(shape),

    the coefficient of t^k in (1 - t)^(n+1) sum_m SSYT_{m+1} t^m, for
    k = 0..n (at n the right side is 0) and every further row of the
    walk's tally.  The signed row of n at width 0 (_signed_row) is built
    once per n and multiplied with SSYT_1..SSYT_{n+1} of each shape.
    """
    for n, tallies in enumerate(_levels(0, max_n), 1):
        signed = _signed_row(n, 0)
        for shape in _shared(partitions, n):
            counts = tallies[shape.parts]
            sums = _times_signed_row(signed, shape.hook_content_counts(n + 1))
            for k, (count, rhs) in enumerate(zip_longest(counts, sums, fillvalue=0)):
                yield None, {"shape": shape, "k": k}, count, rhs


# ---------------------------------------------------------------------------
# Goldman-Joichi-White product identity and the board complement


@_suite("gjw")
def verify_gjw(max_n: int = 6) -> Iterator[_Instance]:
    """On every board built from a shape of size <= max_n (raised or not):
    the complement of the raised board is the conjugate's board up to
    rotation; the q-hit numbers of the census are Mahonian, equal the
    rook route's ("rook-route", board._rook_route) and satisfy the
    Goldman-Joichi-White identity

        prod_i [x + h_i - i + 1]  ==  sum_k [x+k choose n] T_k

    at every x in 0..n ("product-identity").  The census
    (_kernels.q_hit_census) counts the circle statistic and assumes
    neither of the other two.  The identity at x = 0..n is a triangular
    system in T_n, ..., T_0 with a unit diagonal, so it holds at every x
    exactly when the census is its solution.  The factors start at
    x + h_1 >= 0 and drop by at most 1 per column, so the product stops
    at its first factor [0] = 0, before any negative one.

    The census of every distinct board of size n, base or raised (the
    raised board of one shape can be the board of another), is taken in
    one walk, which shares the layers of common first columns, and each
    board is checked once.  Every check of a board compares both sides
    packed at q = 2^W, one W per n, and nothing is divided: each census
    row is packed once, at W, and [n]!, the q-integers and the Gaussian
    binomials come from one qpoly.q_table_at per n, which the rook route
    at W reads too.  The packed census rows hold the census as it reads
    back at W, since W is read off the census.
    W is read off the censuses of size n as they are, the widest bound
    of any board: a product that reaches no [0] has positive factors,
    each at most its value at x = n, so x = n bounds every x.  The
    product side sums to at most prod_i (n + h_i - i + 1), at least n!
    (the Mahonian side), and the binomial side to at most
    sum_k C(n + k, n) |T_k|_1, at least the census side of the Mahonian
    check and |T_k|_1 for each k.
    """
    for n in range(1, max_n + 1):
        bases = {shape: FerrersBoard.from_partition(shape) for shape in _shared(partitions, n)}
        pairs = [(base, base.plus_one()) for base in bases.values()]
        boards = list(dict.fromkeys(board.heights for pair in pairs for board in pair))
        censuses = dict(zip(boards, _kernels.q_hit_census(n, boards)))
        width = slot_width(*(
            max(prod(n + h - i + 1 for i, h in enumerate(heights, 1)),
                sum(comb(n + k, n) * sum(map(abs, row))
                    for k, row in enumerate(censuses[heights])))
            for heights in boards))
        ints, facts, rows = q_table_at(n, width)
        mahonian = Packed(facts[n], width)
        for shape, (base, raised) in zip(bases, pairs):
            yield ("complement", {"shape": shape}, raised.complement_rotated(),
                   bases[shape.conjugate()])
            for board in (base, raised):
                T = censuses.pop(board.heights, None)
                if T is None:  # checked already
                    continue
                packed = [pack(row, width) for row in T]
                yield ("mahonian", {"board": board}, Packed(sum(packed), width), mahonian)
                for x in range(n + 1):
                    lhs = 1
                    for i, h in enumerate(board.heights, 1):
                        lhs *= ints[x + h - i + 1]
                        if not lhs:
                            break
                    rhs = sum(rows[x + k][n] * packed[k] for k in range(n - x, n + 1))
                    yield ("product-identity", {"board": board, "x": x},
                           Packed(lhs, width), Packed(rhs, width))
                yield ("rook-route", {"board": board},
                       [Packed(v, width) for v in _rook_route(board.heights, width)],
                       [Packed(v, width) for v in packed])


# ---------------------------------------------------------------------------
# weighted lattice paths


def _grid_path_rows(top: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """(x, [P_{n,0}(x), ..., P_{n,n}(x)]) for n = 1..top and every x in
    {0,1}^n, n ascending and x lexicographic: the path sums by east
    count, one step at a time.  Step i takes the sums after i - 1 steps
    to new[e] = old[e] (x_i + e + 1) + old[e-1] (i - e - x_i), a north
    step at e east steps or an east step to e, with the step weights of
    pnk.path_weight; each level of points extends the one before it."""
    level = [((), [1])]
    for i in range(1, top + 1):
        level = [(x + (b,), [north * (b + e + 1) + east * (i - e - b)
                             for e, (north, east) in enumerate(zip([*old, 0], [0, *old]))])
                 for x, old in level for b in (0, 1)]
        yield from level


@_suite("lattice")
def verify_lattice(max_n: int = 7, points: int = 200,
                   seed: int = DEFAULT_SEED) -> Iterator[_Instance]:
    """The e-basis coefficients a(n, k, m) of the path sums P_{n,k}: the
    Eulerian constant terms, the vanishing row sums and the path sums
    against the e-basis on the whole grid {0,1}^n; and the hook count
    that the lattice-path route recovers, sum_k P_{n,k}(c(shape)) / H =
    f^shape ("hook-recovery").  That route against the walk's counts by
    descents is foulkes's check.

    The "path-grid" check proves P_{n,k} = sum_m a(n, k, m) e_m for every
    n <= min(max_n, 7) and every k.  Both sides are multilinear in x_1..x_n,
    since x_i enters only step i's weight, linearly, and a multilinear
    polynomial is fixed by its values on {0,1}^n.  So equal rows at the
    2^n points of the grid make the two sides the same polynomial: the
    path rows come from _grid_path_rows, and the e-basis side at a point
    with j ones is sum_m a(n, k, m) C(j, m), read from a_table(n).  The
    symmetry of P_{n,k} follows, since the e-basis side is symmetric, and
    so does its two-term recursion, which is the path sum split at its
    last step.  The C(j, m) are independent functions of j = 0..n, so
    the grid fixes every a(n, k, m), the closed forms of small n too.
    The grid stops at 7, where the sampling stopped: its points double
    with each n, 254 up to 7 and 2 046 up to 10, where it would take
    about as long as the rest of the suite.

    "path-vs-ebasis" evaluates both routes of pnk (the explicit path sum
    and the e-basis dot product) at `points` seeded integer points with
    n <= min(max_n, 7).  The grid implies it; it stays, with `points`
    and `seed`, because the benchmark (qytbench) reads both bounds from
    the suite's report."""
    rng = random.Random(seed)

    for n in range(1, max_n + 1):
        table = a_table(n)
        # the Eulerian numbers by Worpitzky's identity, not their
        # recurrence: (1 - t)^(n+1) sum_k (k+1)^n t^k
        want = _times_signed_row(_signed_row(n, 0), [(k + 1) ** n for k in range(n)])
        for k in range(n):
            yield "eulerian-base", {"n": n, "k": k}, table[k][0], want[k]

    for n in range(1, max_n + 1):
        table = a_table(n)
        for m in range(n + 1):
            total = sum(table[k][m] for k in range(n + 1))
            yield "row-sums", {"n": n, "m": m}, total, factorial(n) if m == 0 else 0

    for _ in range(points):
        n = rng.randint(1, min(max_n, 7))
        k = rng.randint(0, n)
        xs = tuple(rng.randint(-5, 5) for _ in range(n))
        yield ("path-vs-ebasis", {"n": n, "k": k, "x": xs},
               pnk_eval_paths(n, k, xs), pnk_eval_ebasis(n, k, xs))

    by_ones: list[list[int]] = []  # e-basis rows of the current n, by ones
    for x, row in _grid_path_rows(min(max_n, 7)):
        n = len(x)
        if len(by_ones) != n + 1:
            table = a_table(n)
            by_ones = [[sum(a * comb(j, m) for m, a in enumerate(coeffs)) for coeffs in table]
                       for j in range(n + 1)]
        yield "path-grid", {"n": n, "x": x}, row, by_ones[sum(x)]

    for n in range(1, max_n + 1):
        for shape in _shared(partitions, n):
            yield ("hook-recovery", {"shape": shape},
                   sum(_shared(qyt_counts_via_pnk, shape)), shape.hook_length_count())


# ---------------------------------------------------------------------------
# generating functions


def _inverse_descent_tally(n: int, width: int) -> dict[int, list[int]]:
    """Des(p^-1) as a bitmask (bit j-1 for j) -> tally[d] = sum of q^maj(p)
    at q = 2^width over the permutations p of S_n with that inverse
    descent set and d descents, for d = 0..n-1, at a width above
    bits(n!).

    The values are placed left to right, p(1) first.  The state is the
    set of values already placed and the last of them; it carries a
    tally of those partial permutations by the part of Des(p^-1) they
    fix.  j is in Des(p^-1) iff j + 1 comes before j in p, so placing y
    puts y - 1 in it exactly when y - 1 is still unplaced; and placing y
    after a larger value x at position i makes i a descent of p.

    As in the census (_kernels.q_hit_census), each tally is one int, the
    sum of q^maj t^des at q = 2^width and t = q^(maxmaj + 1), so a step
    is one shift and one add.  No count exceeds n! < 2^width and none is
    negative, so no slot carries into the next, and the rows by des are
    cut out of it at the end.
    """
    maxmaj = n * (n - 1) // 2
    descent = (maxmaj + 1) * width
    layer: dict[tuple[int, int], dict[int, int]] = {(0, 0): {0: 1}}
    for i in range(n):
        nxt: dict[tuple[int, int], dict[int, int]] = {}
        for (placed, last), tally in layer.items():
            for y in range(1, n + 1):
                bit = 1 << (y - 1)
                if placed & bit:
                    continue
                shift = descent + i * width if last > y else 0
                below = bit >> 1 if y > 1 and not placed & (bit >> 1) else 0
                out = nxt.setdefault((placed | bit, y), {})
                for mask, packed in tally.items():
                    key = mask | below
                    out[key] = out.get(key, 0) + (packed << shift)
        layer = nxt
    total: dict[int, int] = {}
    for tally in layer.values():
        for mask, packed in tally.items():
            total[mask] = total.get(mask, 0) + packed
    row = (1 << descent) - 1
    return {mask: [packed >> (d * descent) & row for d in range(n)]
            for mask, packed in total.items()}


def _content_tally(parts: tuple[int, ...], width: int, binoms) -> list[int]:
    """tally[d] = sum of q^maj at q = 2^width over the words with d
    descents in which the value i appears parts[i-1] times, for
    d = 0..n-1 with n = sum(parts), at a width above bits(n!).  By
    MacMahon's closed form (Combinatory Analysis, 1915),

        sum_w t^des q^maj  =  prod_{i=0..n} (1 - t q^i)
                              * sum_{k>=0} t^k prod_j [parts_j + k choose parts_j].

    The product is the signed row of n (_signed_row), so the tally is
    that row times the P_k = prod_j [parts_j + k choose parts_j]
    (_times_signed_row).  Evaluation at q = 2^W is a ring map, so only
    the result has to fit a slot, and each of its coefficients is at
    most the multinomial coefficient, at most n!.  The P_k read their
    binomials from `binoms`, the q-Pascal rows of qpoly.q_table_at(n,
    width): parts_j + k < 2n.
    """
    n = sum(parts)
    P = [prod(binoms[a + k][a] for a in parts) for k in range(n)]
    return _times_signed_row(_signed_row(n, width), P)


def _weighted(maps: dict, values: dict) -> dict[tuple[int, ...], int]:
    """sum_s maps[s] * values[s] by composition, each maps[s] a dict from
    compositions to int coefficients and each values[s] an int."""
    out: dict[tuple[int, ...], int] = {}
    for s, coeffs in maps.items():
        value = values[s]
        for alpha, c in coeffs.items():
            out[alpha] = out.get(alpha, 0) + c * value
    return out


def _weighted_bound(maps: dict, totals: dict) -> int:
    """A bound on the sum of the absolute values of the coefficients of
    any one composition's value in _weighted(maps, values), given that
    those of values[s] sum to at most totals[s]."""
    return max(_weighted({s: {a: abs(c) for a, c in coeffs.items()}
                          for s, coeffs in maps.items()}, totals).values(), default=0)


def _coefficient(value: int, width: int, stride: int):
    """The coefficient of M_alpha that an expansion holds as `value`,
    packed at (2^width, 2^(width*stride)): 0 when absent, as an
    expansion keeps no zero coefficient, else the packed side."""
    return Packed(value, width, stride) if value else 0


def _by_composition(lhs: dict, rhs: dict) -> Iterator[tuple]:
    """(alpha, coefficient of M_alpha in lhs, in rhs) for every
    composition alpha that either side holds, ordered by (length,
    alpha): the first that differs has the fewest parts."""
    for alpha in sorted(lhs.keys() | rhs.keys(), key=lambda a: (len(a), a)):
        yield alpha, lhs.get(alpha, 0), rhs.get(alpha, 0)


@_suite("genfun")
def verify_genfun(max_n: int = 5) -> Iterator[_Instance]:
    """Both expansions of the q,t Schur generating function, the Kostka
    lemma behind the monomial one, the RSK bijection, the fundamental
    expansion of each Schur function from its quasi-Yamanouchi fillings,
    monomial triangularity against Kostka numbers, and the t = 1
    specialization against the q-hook formula.  Expansions keep every
    composition of n, which is lossless in degree n; the fundamental,
    monomial and truncated-fundamental checks compare them one
    composition at a time, fewest parts first.

    Each side is built from a tally, not by listing words.  The
    fundamental side tallies S_n by (Des(p^-1), maj, des) with the
    placed-set program (_inverse_descent_tally), the monomial side each
    partition content by MacMahon's closed form (_content_tally), and
    the Schur side is level n of the walk of Young's lattice
    (descent_tallies); fundamental_sums turns a tally by descent set
    into the monomial basis by one subset-sum transform.  Each of these
    tallies is a list by des of rows at q = 2^W.  They are joined into
    one int at t = q^S and every (q, t) side is built from those ints by
    integer products and sums, compared as qpoly.Packed values and read
    back only when shown.  S is t_stride of every row, so that no row spills
    into the next power of t, and W is slot_width of bounds on the
    sides: the tallies count n! or fewer objects, weighted by the Kostka
    numbers and the Schur and monomial coefficients as they are, and
    [n]! sums to n!.  The t = 1 check is the q-hook formula
    cross-multiplied, nothing divided: the sum of a shape's rows times
    prod [h(u)] against q^n(shape) [n]!, both summing to n! when honest.
    prod [h(u)] at q = 2^W is a nonzero integer, so the check passes
    exactly when the sum of the rows is the q-hook quotient at q = 2^W.

    The Kostka numbers of the lemma and of triangularity come from one
    table per n, filled by the cell walk tableau.kostka.  Triangularity
    needs no separate check that the coefficient of M_nu in s_nu is 1:
    it requires that coefficient to equal K[nu, nu], and a K[nu, nu]
    other than 1 has already failed the Kostka lemma or the monomial
    check, since the walk's tally of nu is never zero.  The RSK check
    inserts every p of S_n and, when P and Q share a shape, gives it
    back by inverse insertion, keeping no pair.  The truncated-fundamental
    check walks the standard fillings, as the rows of the cell walk that
    enumerate_syt wraps (tableau._ssyt_rows) with no Tableau built, and
    tallies their descent sets, read off those rows by the rule that
    Tableau.descent_set reads too (tableau.descent_mask)."""
    for n in range(1, max_n + 1):
        shapes = tuple(_shared(partitions, n))
        # composition -> coefficient of M_composition
        schur = {shape: schur_truncated(shape, n) for shape in shapes}
        monomials = {shape: monomial_truncated(shape, n) for shape in shapes}
        K = {(nu, lam): kostka(nu, lam) for nu in shapes for lam in shapes}
        dominant = {(nu, lam) for nu, lam in K if nu.dominates(lam)}
        # the most objects each tally counts: fillings, words, S_n
        fillings = {shape: shape.hook_length_count() for shape in shapes}
        words = {shape: factorial(n) // prod(map(factorial, shape.parts)) for shape in shapes}
        width = slot_width(
            factorial(n),
            _weighted_bound(schur, fillings), _weighted_bound(monomials, words),
            max(sum(abs(K[nu, lam]) * fillings[nu] for nu in shapes) for lam in shapes))
        ints, facts, binoms = q_table_at(n, width)
        walk = descent_tallies(width, n)
        placed = _inverse_descent_tally(n, width)
        contents = {shape: _content_tally(shape.parts, width, binoms) for shape in shapes}
        stride = t_stride((row for tallies in (walk.values(), placed.values(), contents.values())
                           for rows in tallies for row in rows), width)
        step = width * stride  # t = 2^step
        schur_at = {shape: pack(walk[shape.parts], step) for shape in shapes}
        expansion = _weighted(schur, schur_at)

        fundamental = fundamental_sums(
            {mask: pack(rows, step) for mask, rows in placed.items()}, n)
        for alpha, lhs, rhs in _by_composition(fundamental, expansion):
            yield ("fundamental", {"n": n, "composition": alpha},
                   _coefficient(lhs, width, stride), _coefficient(rhs, width, stride))

        words_at = {shape: pack(rows, step) for shape, rows in contents.items()}
        monomial = _weighted(monomials, words_at)
        for alpha, lhs, rhs in _by_composition(monomial, expansion):
            yield ("monomial", {"n": n, "composition": alpha},
                   _coefficient(lhs, width, stride), _coefficient(rhs, width, stride))

        for shape in shapes:
            rhs = sum(K[nu, shape] * schur_at[nu] for nu in shapes if (nu, shape) in dominant)
            yield ("kostka-lemma", {"shape": shape},
                   Packed(words_at[shape], width, stride), Packed(rhs, width, stride))

        # Inverse insertion reads only the cells of P that Q labels, so P's
        # shape is compared with Q's first; then giving back every p shows
        # that p -> (P, Q) is injective; the pairs of standard fillings of
        # one shape number sum f_shape^2, so it is onto when that is n!.
        for p in perms(n):
            P, Q = row_insert(p)
            try:
                back = row_uninsert(P, Q) if list(map(len, P)) == list(map(len, Q)) else None
            except (KeyError, IndexError):  # Q is not a standard filling of P's shape
                back = None
            yield "rsk-bijection", {"perm": p}, back, p
        squares_sum = sum(f * f for f in fillings.values())
        yield "rsk-bijection", {"n": n}, squares_sum, factorial(n)

        for shape in shapes:
            tally: dict[int, int] = {}  # descent mask -> fillings
            # the walk refills its rows in place, each read before the next
            for rows in _ssyt_rows(shape.parts, (1,) * n):
                mask = descent_mask(rows, n)
                tally[mask] = tally.get(mask, 0) + 1
            # vars: the fewest variables in which the two sides differ there
            for alpha, lhs, rhs in _by_composition(fundamental_sums(tally, n), schur[shape]):
                yield ("truncated-fundamental",
                       {"shape": shape, "composition": alpha, "vars": len(alpha)}, lhs, rhs)

        for nu, sch in schur.items():
            for lam in shapes:
                fields = {"shape": nu, "weight": lam}
                got = sch.get(lam.parts, 0)
                yield "triangularity", fields, got, K[nu, lam]
                if (nu, lam) not in dominant:  # K vanishes off the dominance order
                    yield "triangularity", fields, got, 0

        for shape in shapes:
            rows = walk[shape.parts]
            # q-hook formula: sum of q^maj * prod [h(u)] = q^n(shape) [n]!
            hooks_at = prod(ints[h] for h in shape.hooks())
            yield ("t1-specialization", {"shape": shape},
                   Packed(sum(rows) * hooks_at, width),
                   Packed(facts[n] << (shape.n_stat() * width), width))


# ---------------------------------------------------------------------------
# applications: ribbons, Foulkes, Polya, Jack


def ribbon_rows(sigma: str) -> tuple[int, ...]:
    """Row lengths, top to bottom, of the ribbon a sign word traces: one
    starting cell, then a west step per '+' and a south step per '-'."""
    if any(ch not in "+-" for ch in sigma):
        raise ValueError("signature must be a word over '+' and '-'")
    return tuple(len(run) + 1 for run in sigma.split("-"))


def _polya_weights(n: int, tallies: Mapping[tuple[int, ...], Sequence[int]]) -> list[int]:
    """D_d = sum over the partitions of n of f^shape tally[d], from the
    tallies at width 0, for every row d that a tally has."""
    weights: list[int] = []
    for shape in _shared(partitions, n):
        f = shape.hook_length_count()
        counts = tallies[shape.parts]
        weights += [0] * (len(counts) - len(weights))
        for d, c in enumerate(counts):
            weights[d] += f * c
    return weights


def _polya_sum(n: int, m: int, weights: Sequence[int]) -> int:
    """The right-hand side of the polya identity, from the weights D_d of
    n (_polya_weights): sum_d C(m + n - 1 - d, n) D_d."""
    return sum(_binomial(m + n - 1 - d, n) * w for d, w in enumerate(weights))


def _binomial(top: int, n: int) -> int:
    """C(top, n) as the polynomial top (top - 1) ... (top - n + 1) / n!
    in top: math.comb(top, n) for top >= 0, and for a negative top, which
    only a tally row d >= m + n reaches, (-1)^n C(n - 1 - top, n), where
    math.comb would raise."""
    return comb(top, n) if top >= 0 else (-1) ** n * comb(n - 1 - top, n)


def jack_coefficient(shape, k: int) -> int:
    """n! times the number of quasi-Yamanouchi fillings of the conjugate
    shape with largest entry k + 1 (the labeled one-row Jack coefficient)."""
    shape = as_partition(shape)
    return factorial(shape.size) * qyt_count_exact(shape.conjugate(), k + 1)


@_suite("foulkes")
def verify_foulkes(max_n: int = 7) -> Iterator[_Instance]:
    """The Foulkes multiplicity of (n, k, shape), the standard fillings of
    the shape whose sign word carries exactly k plus signs, that is
    d = n - 1 - k descents, counted by the walk of Young's lattice, ==
    QYT_{=n-k}(shape) by the lattice-path route (qyt_counts_via_pnk), by
    ascending k.  Every row d either side has is read, so k = -1 at
    d = n, where the path count P_{n,n}/H is 0."""
    for n, tallies in enumerate(_levels(0, max_n), 1):
        for shape in _shared(partitions, n):
            by_des = tallies[shape.parts]
            by_paths = _shared(qyt_counts_via_pnk, shape)
            pairs = list(zip_longest(by_des, by_paths, fillvalue=0))
            for d in reversed(range(len(pairs))):
                yield (None, {"shape": shape, "k": n - 1 - d}, *pairs[d])


@_suite("polya")
def verify_polya(max_n: int = 6, max_m: int = 5) -> Iterator[_Instance]:
    """m**n == sum_k C(m + k, n) sum_shapes QYT_{=n-k}(shape) SYT(shape),
    the Polya dimension identity, for every n <= max_n and every m up to
    max(max_m, n + 1).  Both sides are polynomials of degree n in m (see
    _binomial), so n + 1 values of m make them equal for every m.  The
    tallies of each n are weighed once (_polya_weights), for every m."""
    for n, tallies in enumerate(_levels(0, max_n), 1):
        weights = _polya_weights(n, tallies)
        for m in range(1, max(max_m, n + 1) + 1):
            yield None, {"n": n, "m": m}, _polya_sum(n, m, weights), m**n


@_suite("jack")
def verify_jack(max_n: int = 6) -> Iterator[_Instance]:
    """The labeled coefficients jack_coefficient(shape, k), n! times the
    conjugate's lattice-path counts (qyt_counts_via_pnk), against n!
    times the hit numbers of the shape's board ("hit-route"), for
    k = 0..n, h_n against P_{n,n}/H: with the common factor n! dropped
    and the conjugate's hook product H multiplied back, count * H == h_k.
    hit and foulkes compare the walk with each route."""
    for n in range(1, max_n + 1):
        for shape in _shared(partitions, n):
            conj = shape.conjugate()
            counts = _shared(qyt_counts_via_pnk, conj)
            conj_hooks = conj.hook_product()
            hit = _shared(FerrersBoard.hit_numbers, FerrersBoard.from_partition(shape))
            for k, (count, h) in enumerate(zip_longest(counts, hit, fillvalue=0)):
                yield "hit-route", {"shape": shape, "k": k}, count * conj_hooks, h


#: CLI-facing registry of suites.
SUITES: dict[str, Callable[..., SuiteReport]] = {
    "hit": verify_hit,
    "maj-hit": verify_maj_hit,
    "charge-hit": verify_charge_hit,
    "summation": verify_summation,
    "lattice": verify_lattice,
    "genfun": verify_genfun,
    "gjw": verify_gjw,
    "foulkes": verify_foulkes,
    "polya": verify_polya,
    "jack": verify_jack,
}
