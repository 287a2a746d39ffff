"""Quasisymmetric expansions in the monomial basis, RSK insertion, and
the Schur generating function of quasi-Yamanouchi fillings.

A quasisymmetric function of degree n is fixed by its coefficients on
the monomial quasisymmetric functions M_alpha, alpha a composition of n
(Gessel 1984).  Every expansion here is a plain dict from alpha, a
tuple of positive parts, to the nonzero coefficient of M_alpha, so it
names no variable count and has at most 2^(n-1) keys.  Restricting to
x_1..x_N keeps the compositions with at most N parts;
`expand_monomials` yields the monomials in N variables themselves, in
lexicographic exponent order, from one walk of a trie of the
compositions that sorts nothing and holds no list of terms.

The coefficients of a Schur polynomial in that basis are Kostka numbers,
counted by a dynamic program over Young's lattice that adds one
horizontal strip per part (`schur_truncated`); no filling is built.

`gen_fn` returns the Schur generating function as a plain dict from
partitions to coefficients packed at q = 2^W and t = q^S
(`qpoly.Packed`).  `rsk` inserts any word of positive integers;
`row_insert` and its inverse `row_uninsert` work on plain row tuples.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import product
from typing import Iterator, Sequence

from .partition import Partition, as_partition, partitions
from .perm import multiset_perms
from .qpoly import Packed, pack, t_stride
from .tableau import Tableau, descent_tallies, maj_width


def expand_monomials(
    coeffs: dict[tuple[int, ...], int], n_vars: int, sep: str = ",",
) -> Iterator[tuple[str, int]]:
    """Yield (exponents, coefficient) for every monomial in x_1..x_N of
    the expansion `coeffs`, in lexicographic exponent order, with the N
    exponents written out as text joined by `sep`.  M_alpha puts the
    parts of alpha, in order, on each set of len(alpha) of the N
    variables.

    One walk of a trie of the compositions: at each position the
    exponent is 0 or the next part, and the walk tries 0 first and then
    the trie's children in increasing order, so the terms come out
    sorted with no sort.  A child is entered only if its shortest
    composition fits in the positions left.  The exponent prefix is
    carried as text, one concatenation per trie edge taken.  Besides
    the trie, the walk holds only the siblings still to visit on its
    current path, however many terms it yields."""
    # node: [coefficient or None, fewest parts below it, {part: node}],
    # and then its walk form
    root: list = [None, 0, {}]
    nodes = [root]
    for alpha, c in coeffs.items():
        if len(alpha) > n_vars:
            continue
        node = root
        for depth, a in enumerate(alpha, 1):
            kid = node[2].get(a)
            if kid is None:
                kid = node[2][a] = [None, len(alpha) - depth, {}]
                nodes.append(kid)
            kid[1] = min(kid[1], len(alpha) - depth)
            node = kid
        node[0] = c
    zero, parts = "0" + sep, {a for node in nodes for a in node[2]}
    # part a after k zeros, at the start or after an earlier exponent
    first = {a: [zero * k + str(a) for k in range(n_vars)] for a in parts}
    later = {a: [sep + zero * k + str(a) for k in range(n_vars)] for a in parts}
    tails = [(sep + "0") * r for r in range(n_vars + 1)]
    for node in reversed(nodes):  # children before their parents
        # (c, fewest parts below any child, children by decreasing part,
        # a childless one as None and its coefficient): pushing children
        # in that order pops them in increasing order
        c, _, kids = node
        node.append((c, min((kid[1] for kid in kids.values()), default=n_vars), [
            (kid[1], a, kid[3] if kid[2] else None, kid[0])
            for a, kid in sorted(kids.items(), reverse=True)
        ]))

    if root[0] is not None:
        yield sep.join(["0"] * n_vars), root[0]
    stack = [((None, *root[3][1:]), 0, "")]
    push = stack.append
    while stack:
        entry = stack.pop()
        if len(entry) == 2:  # a childless node's term, built when pushed
            yield entry
            continue
        (c, low, kids), i, prefix = entry
        if c is not None:
            yield prefix + tails[n_vars - i], c
        edges = later if i else first
        # the next part at j means 0 at i..j-1, so a later j is smaller
        # in lexicographic order: push j in increasing order
        for j in range(i, n_vars - low):
            for need, a, kid, kid_c in kids:
                if need < n_vars - j:
                    if kid is None:
                        push((f"{prefix}{edges[a][j - i]}{tails[n_vars - 1 - j]}", kid_c))
                    else:
                        push((kid, j + 1, prefix + edges[a][j - i]))


def schur_truncated(shape, n_vars: int) -> dict[tuple[int, ...], int]:
    """Schur polynomial of `shape` in x_1..x_N: the coefficient of M_alpha
    is the Kostka number K_{shape, alpha}, for every composition alpha of
    the size with at most N parts.

    K_{shape, alpha} counts the chains of sub-shapes from the empty one
    to `shape` whose j-th step adds a horizontal strip of alpha_j cells
    (Macdonald, Symmetric Functions and Hall Polynomials, I.5).  A
    dynamic program over composition prefixes keeps, for each prefix,
    the number of chains ending at each sub-shape; appending a part a
    grows each sub-shape nu by every strip of a cells inside `shape`,
    nu_i <= mu_i <= min(shape_i, nu_(i-1)).  Every composition is
    counted on its own; the symmetry of K in alpha is not assumed."""
    if n_vars < 0:
        raise ValueError(f"n_vars must be nonnegative, got {n_vars}")
    parts = as_partition(shape).parts
    n = sum(parts)
    m = min(n_vars, n)
    strips: dict[tuple[int, ...], dict[int, list[tuple[int, ...]]]] = {}

    def grown(nu: tuple[int, ...]) -> dict[int, list[tuple[int, ...]]]:
        """Strip size -> the sub-shapes mu that nu grows to by one strip."""
        got = strips.get(nu)
        if got is None:
            got = strips[nu] = {}
            size = sum(nu)
            for mu in product(*(
                range(v, min(p, cap) + 1)
                for v, p, cap in zip(nu, parts, (parts[0],) + nu)
            )):
                got.setdefault(sum(mu) - size, []).append(mu)
        return got

    counts: dict[tuple[int, ...], int] = {}
    # (prefix, {sub-shape padded to len(parts): chains}, size of the prefix)
    stack = [((), {(0,) * len(parts): 1}, 0)]
    while stack:
        alpha, chains, size = stack.pop()
        if size == n:
            counts[alpha] = chains[parts]  # the one sub-shape of size n
            continue
        if len(alpha) == m:
            continue
        for a in range(1, n - size + 1):
            nxt: dict[tuple[int, ...], int] = {}
            for nu, c in chains.items():
                for mu in grown(nu).get(a, ()):
                    nxt[mu] = nxt.get(mu, 0) + c
            if nxt:
                stack.append((alpha + (a,), nxt, size + a))
    return counts


def monomial_truncated(shape, n_vars: int) -> dict[tuple[int, ...], int]:
    """Monomial symmetric polynomial of `shape` in x_1..x_N: M_alpha for
    each distinct rearrangement alpha of the parts, if there are at most
    N of them."""
    parts = as_partition(shape).parts
    if len(parts) > n_vars:
        return {}
    values = sorted(set(parts))
    return {
        tuple(values[i - 1] for i in word): 1
        for word in multiset_perms([parts.count(v) for v in values])
    }


def fundamental_sums(coeffs: dict[int, int], n: int) -> dict[tuple[int, ...], int]:
    """sum_D coeffs[D] F_D in degree n, each D a subset of [n-1] given as
    a bitmask (bit j-1 for j), as a dict from compositions to nonzero
    coefficients.  F_D is the sum of M_T over the T containing D, so the
    coefficient of M_T is the sum of coeffs[D] over the D inside T: one
    subset-sum transform over the 2^(n-1) masks, adding each bit in
    turn.  The composition of T is that of T without its least element
    j, with the first part split into j and the rest."""
    size = 1 << max(n - 1, 0)
    sums = [0] * size
    for mask, c in coeffs.items():
        sums[mask] = c
    bit = 1
    while bit < size:
        for mask in range(size):
            if mask & bit:
                sums[mask] = sums[mask] + sums[mask ^ bit]
        bit <<= 1
    alphas = [(n,) if n else ()]
    for mask in range(1, size):
        low = mask & -mask
        j = low.bit_length()
        rest = alphas[mask ^ low]
        alphas.append((j, rest[0] - j, *rest[1:]))
    return {alpha: c for alpha, c in zip(alphas, sums) if c}


def rsk(word: Sequence[int]) -> tuple[Tableau, Tableau]:
    """Row-insert a word of positive integers.  Returns (P, Q) with P the
    insertion tableau, semistandard of weight the word's content, and Q
    the standard recording tableau, whose descents sit exactly at the
    word's descents.  For a permutation Des(P) = Des(perm^-1) as well."""
    if any(v < 1 for v in word):
        raise ValueError("word values must be positive")
    insertion, recording = row_insert(word)
    return Tableau(insertion), Tableau(recording)


def row_insert(
    word: Sequence[int],
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Row insertion of a word on plain rows, bottom to top: (insertion
    rows, recording rows), unvalidated and building no Tableau, for
    callers that only measure the pair or invert it."""
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
    return tuple(map(tuple, rows)), tuple(map(tuple, rec))


def row_uninsert(
    insertion: Sequence[Sequence[int]], recording: Sequence[Sequence[int]],
) -> tuple[int, ...]:
    """The word that row_insert sends to (insertion, recording), by
    reverse bumping: the largest recording label marks the cell the last
    letter's insertion added; its entry goes back down one row at a
    time, replacing the rightmost entry strictly smaller than itself,
    and the entry it pushes out of the bottom row is that letter.
    Unvalidated, like row_insert."""
    rows = [list(row) for row in insertion]
    row_of = {step: r for r, rec in enumerate(recording) for step in rec}
    word = []
    for step in range(len(row_of), 0, -1):
        r = row_of[step]
        x = rows[r].pop()
        while r:
            r -= 1
            row = rows[r]
            i = bisect_left(row, x) - 1  # rightmost entry strictly smaller
            row[i], x = x, row[i]
        word.append(x)
    return tuple(reversed(word))


def gen_fn(n: int, with_q: bool = True) -> dict[Partition, Packed]:
    """Schur generating function of the quasi-Yamanouchi fillings of
    size n, as {shape: coefficient of s_shape} over every partition of n
    in partitions(n) order: the coefficient collects q^maj t^des over the
    shape's fillings, read from level n of the walk of Young's lattice
    (tableau.descent_tallies) and packed at q = 2^W and t = q^S.
    W = tableau.maj_width holds every count, and S is one more than the
    shape's largest maj, read off its rows (qpoly.t_stride).  With
    with_q=False the q-grading is dropped, so a filling with largest
    entry k contributes t^(k-1): the walk counts at width 0, each count
    is below 2^(W-1), and S is 1."""
    shapes = list(partitions(n))
    width = maj_width(shapes)
    tallies = descent_tallies(width if with_q else 0, n)
    out = {}
    for shape in shapes:
        rows = tallies[shape.parts]
        stride = t_stride(rows, width)
        out[shape] = Packed(pack(rows, width * stride), width, stride)
    return out
