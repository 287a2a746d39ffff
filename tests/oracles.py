"""Independent brute-force oracles.

Everything here deliberately avoids the library's enumeration and
census code paths: row fillings come from itertools products, boards
are tested square by square, and statistics are recomputed from
definitions.  Expected values frozen into the tests were produced by
these oracles.
"""

from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations


def ssyt_brute(parts, m):
    """All semistandard fillings (tuples of rows, bottom to top) of the
    given shape with entries at most m, by filtering products of weakly
    increasing rows."""
    parts = tuple(parts)
    if not parts:
        return [()]
    row_choices = [
        list(combinations_with_replacement(range(1, m + 1), width))
        for width in parts
    ]
    out = []

    def build(j, acc):
        if j == len(parts):
            out.append(tuple(acc))
            return
        for row in row_choices[j]:
            if j > 0 and any(row[i] <= acc[-1][i] for i in range(len(row))):
                continue
            acc.append(row)
            build(j + 1, acc)
            acc.pop()

    build(0, [])
    return out


def syt_brute(parts):
    """All standard fillings, filtered from the semistandard oracle."""
    parts = tuple(parts)
    n = sum(parts)
    out = []
    for rows in ssyt_brute(parts, n):
        entries = sorted(v for row in rows for v in row)
        if entries == list(range(1, n + 1)):
            out.append(rows)
    return out


def is_qyt_rows(rows):
    """Quasi-Yamanouchi test on a semistandard filling."""
    lowest, highest = {}, {}
    for j, row in enumerate(rows, 1):
        for v in row:
            lowest.setdefault(v, j)
            highest[v] = j
    for v in highest:
        if v > 1 and (v - 1 not in lowest or highest[v] <= lowest[v - 1]):
            return False
    return True


def qyt_exact_brute(parts, m):
    """Quasi-Yamanouchi fillings with largest entry exactly m."""
    return [
        rows
        for rows in ssyt_brute(parts, m)
        if is_qyt_rows(rows) and any(m in row for row in rows)
    ]


def descents_of_standard(rows):
    row_of = {}
    for j, row in enumerate(rows):
        for v in row:
            row_of[v] = j
    n = len(row_of)
    return {i for i in range(1, n) if row_of[i + 1] > row_of[i]}


def charge_brute(rows):
    """Charge of a standard filling, level by level: 1 stands at level 0,
    and i + 1 one level above i when i is a descent, else at the level of
    i; the charge is the sum of the levels."""
    dset = descents_of_standard(rows)
    total = level = 0
    for i in range(1, sum(map(len, rows)) + 1):
        total += level
        if i in dset:
            level += 1
    return total


def descents_of_word(word):
    """Positions i (1-based) with word[i] > word[i+1]."""
    return {i for i in range(1, len(word)) if word[i - 1] > word[i]}


def inverse_brute(p):
    """The inverse of a permutation, by the positions map: p^-1(v) is the
    position (1-based) of v in p."""
    where = {v: i for i, v in enumerate(p, 1)}
    return tuple(where[v] for v in range(1, len(p) + 1))


def hit_numbers_brute(heights):
    """Hit census by direct membership tests, square by square."""
    n = len(heights)
    counts = [0] * (n + 1)
    for perm in permutations(range(1, n + 1)):
        hits = sum(1 for i in range(n) if perm[i] <= heights[i])
        counts[hits] += 1
    return counts


def q_weight_brute(perm, heights):
    """Circle statistic recomputed literally: explicit bullet set, an
    explicit cyclic walk per column with its own stopping test."""
    n = len(perm)
    bullets = set()
    for i in range(n):
        for i2 in range(i + 1, n):
            bullets.add((i2, perm[i]))  # right of the cross in its row
    total = 0
    for j in range(n):
        top = heights[j]
        p = perm[j]
        if top == 0:
            # no wrap: climb from the cross to the grid's top row
            for r in range(p + 1, n + 1):
                if (j, r) not in bullets:
                    total += 1
            continue
        if top == p:
            continue  # the cross sits on the stopping square
        r = p
        while True:
            r = r + 1 if r < n else 1
            if (j, r) not in bullets:
                total += 1
            if r == top:
                break
    return total


def poly_mul_brute(a, b):
    """Schoolbook product of two coefficient lists, lowest degree first."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def q_fact_brute(k):
    """Coefficients of [k]! = [1][2]...[k], lowest degree first, by the
    schoolbook product of the q-integers [i] = 1 + q + ... + q^(i-1)."""
    out = [1]
    for i in range(1, k + 1):
        out = poly_mul_brute(out, [1] * i)
    return out


def eulerian_brute(n, k):
    return sum(
        1
        for perm in permutations(range(1, n + 1))
        if sum(perm[i] > perm[i + 1] for i in range(n - 1)) == k
    )


def kostka_brute(parts, weight, m=None):
    """Kostka number by filtering the semistandard oracle on weight."""
    weight = tuple(weight)
    m = m if m is not None else len(weight)
    hit = 0
    for rows in ssyt_brute(parts, m):
        counts = [0] * m
        for row in rows:
            for v in row:
                counts[v - 1] += 1
        if tuple(counts) == weight + (0,) * (m - len(weight)):
            hit += 1
    return hit


def word_stats_brute(content):
    """Counter of (maj, des) over the distinct words in which the value i
    appears content[i-1] times, listed as the distinct rearrangements of
    one such word."""
    letters = [v for v, c in enumerate(content, 1) for _ in range(c)]
    out = Counter()
    for w in set(permutations(letters)):
        ds = [i for i in range(1, len(w)) if w[i - 1] > w[i]]
        out[(sum(ds), len(ds))] += 1
    return out


def inverse_descent_brute(n):
    """Des(p^-1) -> Counter of (maj(p), des(p)) over S_n, where j is an
    inverse descent of p when j + 1 stands left of j."""
    out = {}
    for p in permutations(range(1, n + 1)):
        where = {v: i for i, v in enumerate(p)}
        inv = frozenset(j for j in range(1, n) if where[j + 1] < where[j])
        ds = [i for i in range(1, n) if p[i - 1] > p[i]]
        out.setdefault(inv, Counter())[(sum(ds), len(ds))] += 1
    return out


def q_binom_brute(a, b):
    """Coefficients of the Gaussian binomial [a choose b], lowest degree
    first: the 0/1 words of length a with b ones, counted by inversions
    (a one before a zero).  The one at position p (0-based), the j-th of
    the ones, has a - 1 - p letters after it, b - 1 - j of them ones, so
    the word has sum_j (a - 1 - p_j - (b - 1 - j)) inversions, that is
    b(a - 1) - C(b, 2) - sum_j p_j."""
    out = [0] * (b * (a - b) + 1)
    top = b * (a - 1) - b * (b - 1) // 2
    for ones in combinations(range(a), b):
        out[top - sum(ones)] += 1
    return out


def monomials_brute(coeffs, n_vars):
    """(exponents, coefficient) of every monomial in x_1..x_N of a
    quasisymmetric expansion {composition: coefficient}, built one
    placement at a time and sorted: M_alpha puts the parts of alpha, in
    order, on each set of len(alpha) of the N variables."""
    out = []
    for alpha, c in coeffs.items():
        for places in combinations(range(n_vars), len(alpha)):
            exps = [0] * n_vars
            for i, a in zip(places, alpha):
                exps[i] = a
            out.append((tuple(exps), c))
    out.sort()  # exponent vectors are distinct, so ties never reach c
    return out
