"""Exhaustive desk-scale verification suites.

Each suite sweeps one identity over every instance up to its bound and
reports either a pass or the first counterexample met in iteration
order (n ascending, shapes lexicographically decreasing), with both
sides fully evaluated.  Identities with q-integer denominators are
checked in cross-multiplied form, so only ring operations are needed.

The counting-level application identities live here too: signatures and
ribbons, Foulkes multiplicities, the Polya dimension identity, and the
labeled one-row Jack coefficients.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from itertools import permutations as _all_perms
from math import comb, factorial, prod
from typing import Callable

from .board import FerrersBoard
from .partition import Partition, as_partition, partitions
from .perm import descent_set as word_descents
from .perm import inverse, multiset_perms, perms
from .pnk import (
    DEFAULT_SEED,
    a_coeffs,
    a_table,
    pnk_eval_ebasis,
    pnk_eval_paths,
    qyt_count_via_pnk,
)
from .qpoly import QPoly, QTPoly, q_binom, q_fact, q_int
from .symfun import (
    MonomialMap,
    composition_descents,
    fundamental_truncated,
    gen_fn,
    monomial_truncated,
    rsk,
    schur_truncated,
)
from .tableau import (
    Tableau,
    des_maj_counts,
    enumerate_syt,
    kostka,
    qyt_count_exact,
    qyt_counts,
)


@dataclass
class SuiteReport:
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
        return {
            "suite": self.suite,
            "bounds": self.bounds,
            "status": self.status,
            "counterexample": self.counterexample,
            "ms": self.ms,
        }


def _finish(name: str, bounds: dict, counterexample: dict | None, started: float) -> SuiteReport:
    return SuiteReport(
        suite=name,
        bounds=bounds,
        status="pass" if counterexample is None else "fail",
        counterexample=counterexample,
        ms=int((time.perf_counter() - started) * 1000),
    )


def _require_positive(**bounds: int) -> None:
    """Reject a bound below 1, under which a suite would check nothing."""
    for name, value in bounds.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


# ---------------------------------------------------------------------------
# hit numbers


def verify_hit(max_n: int = 7, limit: int | None = None) -> SuiteReport:
    """QYT_{=k+1}(shape) * hook product == h_k of the conjugate board."""
    _require_positive(max_n=max_n)
    started = time.perf_counter()
    bounds = {"max_n": max_n}
    for n in range(1, max_n + 1):
        for shape in partitions(n):
            hooks = shape.hook_product()
            counts = qyt_counts(shape)
            hit = FerrersBoard.from_partition(shape.conjugate()).hit_numbers(limit)
            for k in range(n):
                lhs = counts[k + 1] * hooks
                if lhs != hit[k]:
                    return _finish("hit", bounds, {
                        "shape": str(shape),
                        "k": k,
                        "lhs": lhs,
                        "rhs": hit[k],
                    }, started)
    return _finish("hit", bounds, None, started)


def _gen_by_runs(shape: Partition, stat: str) -> dict[int, QPoly]:
    """k -> sum of q^stat over fillings with k descents (k + 1 runs),
    where stat is "maj" or "charge" (charge = n * des - maj)."""
    n = shape.size
    out: dict[int, QPoly] = {}
    for (d, mj), c in des_maj_counts(shape):
        e = mj if stat == "maj" else n * d - mj
        out[d] = out.get(d, QPoly()) + QPoly.term(e, c)
    return out


def verify_maj_hit(max_n: int = 6, limit: int | None = None) -> SuiteReport:
    """Major-index refinement, cross-multiplied:

    (sum_{QYT_{=k+1}} q^maj) * prod [h(u)]  ==  q^n(shape) * T_{n-k}(B+1),

    where B+1 is the board of the shape with every column raised once.
    Also checks that the T_k sum to [n]! (Mahonian) and the summed
    corollary (sum over all standard fillings of q^maj) * prod [h] =
    q^n(shape) [n]!.
    """
    _require_positive(max_n=max_n)
    started = time.perf_counter()
    bounds = {"max_n": max_n}
    for n in range(1, max_n + 1):
        for shape in partitions(n):
            hooks_poly = prod((q_int(h) for h in shape.hooks()), start=QPoly((1,)))
            board = FerrersBoard.from_partition(shape).plus_one()
            T = board.q_hit_numbers(limit)
            if sum(T, QPoly()) != q_fact(n):
                return _finish("maj-hit", bounds, {
                    "check": "mahonian",
                    "board": str(board),
                    "lhs": str(sum(T, QPoly())),
                    "rhs": str(q_fact(n)),
                }, started)
            gens = _gen_by_runs(shape, "maj")
            for k in range(n):
                lhs = gens.get(k, QPoly()) * hooks_poly
                rhs = T[n - k].shift(shape.n_stat())
                if lhs != rhs:
                    return _finish("maj-hit", bounds, {
                        "check": "refinement",
                        "shape": str(shape),
                        "k": k,
                        "lhs": str(lhs),
                        "rhs": str(rhs),
                    }, started)
            total = sum(gens.values(), QPoly())
            if total * hooks_poly != q_fact(n).shift(shape.n_stat()):
                return _finish("maj-hit", bounds, {
                    "check": "hook-length-q-analogue",
                    "shape": str(shape),
                    "lhs": str(total * hooks_poly),
                    "rhs": str(q_fact(n).shift(shape.n_stat())),
                }, started)
    return _finish("maj-hit", bounds, None, started)


def verify_charge_hit(max_n: int = 6, limit: int | None = None) -> SuiteReport:
    """Charge refinement, cross-multiplied:

    (sum_{QYT_{=k+1}} q^ch) * prod [h(u)] * q^C(n,2)
        ==  q^(nk + n(conjugate)) * T_k(board of the conjugate).
    """
    _require_positive(max_n=max_n)
    started = time.perf_counter()
    bounds = {"max_n": max_n}
    for n in range(1, max_n + 1):
        half = comb(n, 2)
        for shape in partitions(n):
            hooks_poly = prod((q_int(h) for h in shape.hooks()), start=QPoly((1,)))
            conj = shape.conjugate()
            T = FerrersBoard.from_partition(conj).q_hit_numbers(limit)
            gens = _gen_by_runs(shape, "charge")
            for k in range(n):
                lhs = (gens.get(k, QPoly()) * hooks_poly).shift(half)
                rhs = T[k].shift(n * k + conj.n_stat())
                if lhs != rhs:
                    return _finish("charge-hit", bounds, {
                        "check": "refinement",
                        "shape": str(shape),
                        "k": k,
                        "lhs": str(lhs),
                        "rhs": str(rhs),
                    }, started)
    return _finish("charge-hit", bounds, None, started)


def verify_summation(max_n: int = 8) -> SuiteReport:
    """Alternating summation:

    QYT_{=k+1}(shape) == sum_m C(n+1, k-m) (-1)^(k-m) SSYT_{m+1}(shape).
    """
    _require_positive(max_n=max_n)
    started = time.perf_counter()
    bounds = {"max_n": max_n}
    for n in range(1, max_n + 1):
        for shape in partitions(n):
            counts = qyt_counts(shape)
            ssyt = [shape.hook_content_count(m + 1) for m in range(n)]
            for k in range(n):
                rhs = sum(
                    comb(n + 1, k - m) * (-1) ** (k - m) * ssyt[m]
                    for m in range(k + 1)
                )
                if counts[k + 1] != rhs:
                    return _finish("summation", bounds, {
                        "shape": str(shape),
                        "k": k,
                        "lhs": counts[k + 1],
                        "rhs": rhs,
                    }, started)
    return _finish("summation", bounds, None, started)


# ---------------------------------------------------------------------------
# Goldman-Joichi-White product identity and the board complement


def verify_gjw(max_n: int = 6, limit: int | None = None) -> SuiteReport:
    """On every board built from a shape of size <= max_n (raised or not):
    the complement of the raised board is the conjugate's board up to
    rotation; the q-hit numbers are Mahonian; and the Goldman-Joichi-White
    identity  prod_i [x + h_i - i + 1] == sum_k [x+k choose n] T_k  holds
    for every x in 0..n whose factors are all nonnegative.

    T_k comes from the census here (FerrersBoard.q_hit_census), since the
    board's own q-hit numbers are solved from this identity and would
    satisfy it by construction.  The "product-route" check compares the
    two.
    """
    _require_positive(max_n=max_n)
    started = time.perf_counter()
    bounds = {"max_n": max_n}
    for n in range(1, max_n + 1):
        mahonian = q_fact(n)
        for shape in partitions(n):
            base = FerrersBoard.from_partition(shape)
            expected = FerrersBoard.from_partition(shape.conjugate())
            if base.plus_one().complement_rotated() != expected:
                return _finish("gjw", bounds, {
                    "check": "complement",
                    "shape": str(shape),
                    "lhs": str(base.plus_one().complement_rotated()),
                    "rhs": str(expected),
                }, started)
            for board in (base, base.plus_one()):
                T = board.q_hit_census(limit)
                if sum(T, QPoly()) != mahonian:
                    return _finish("gjw", bounds, {
                        "check": "mahonian",
                        "board": str(board),
                        "lhs": str(sum(T, QPoly())),
                        "rhs": str(mahonian),
                    }, started)
                for x in range(n + 1):
                    factors = [x + h - i + 1 for i, h in enumerate(board.heights, 1)]
                    if any(f < 0 for f in factors):
                        continue
                    lhs = prod((q_int(f) for f in factors), start=QPoly((1,)))
                    rhs = QPoly()
                    for k in range(n + 1):
                        if x + k >= n:
                            rhs = rhs + q_binom(x + k, n) * T[k]
                    if lhs != rhs:
                        return _finish("gjw", bounds, {
                            "check": "product-identity",
                            "board": str(board),
                            "x": x,
                            "lhs": str(lhs),
                            "rhs": str(rhs),
                        }, started)
                solved = board.q_hit_numbers(limit)
                if solved != T:
                    return _finish("gjw", bounds, {
                        "check": "product-route",
                        "board": str(board),
                        "lhs": [str(p) for p in solved],
                        "rhs": [str(p) for p in T],
                    }, started)
    return _finish("gjw", bounds, None, started)


# ---------------------------------------------------------------------------
# weighted lattice paths


_SMALL_PNK_COEFFS = {
    # Closed forms of P_{n,k} for n <= 3 against the elementary basis
    # (coefficients of e_0..e_n).  P_{n,n} is the single all-east path,
    # whose weight prod_i (N_i - x_i) = prod_i (-x_i) fixes the sign
    # (-1)^n on e_n.
    (1, 0): (1, 1),
    (1, 1): (0, -1),
    (2, 0): (1, 1, 1),
    (2, 1): (1, -1, -2),
    (2, 2): (0, 0, 1),
    (3, 0): (1, 1, 1, 1),
    (3, 1): (4, 0, -2, -3),
    (3, 2): (1, -1, 1, 3),
    (3, 3): (0, 0, 0, -1),
}

_TRIANGLE_ROWS = {
    # a(n, k, n-3) for k = 0..n-1: each entry feeds its value and its
    # negation to the next row, so the rows sum to zero for m >= 1.
    3: (1, 4, 1),
    4: (1, 3, -3, -1),
    5: (1, 2, -6, 2, 1),
    6: (1, 1, -8, 8, -1, -1),
}


def verify_lattice(max_n: int = 7, points: int = 200, seed: int = DEFAULT_SEED) -> SuiteReport:
    """The lattice-path route to QYT counting, plus the supporting facts
    about the e-basis coefficients a(n, k, m): the n <= 3 closed forms,
    the fixed n-m = 3 triangle rows, the Eulerian constant terms, the
    vanishing row sums, agreement between the path sum and the e-basis
    evaluation, symmetry, and the two-term recursion."""
    _require_positive(max_n=max_n)
    started = time.perf_counter()
    bounds = {"max_n": max_n, "points": points, "seed": seed}
    rng = random.Random(seed)

    for (n, k), expected in sorted(_SMALL_PNK_COEFFS.items()):
        got = a_coeffs(n, k).coeffs
        if got != expected:
            return _finish("lattice", bounds, {
                "check": "closed-forms", "n": n, "k": k,
                "lhs": list(got), "rhs": list(expected),
            }, started)

    for n, expected in sorted(_TRIANGLE_ROWS.items()):
        table = a_table(n)
        got = tuple(table[k][n - 3] for k in range(n))
        if got != expected:
            return _finish("lattice", bounds, {
                "check": "triangle-rows", "n": n,
                "lhs": list(got), "rhs": list(expected),
            }, started)

    for n in range(1, max_n + 1):
        table = a_table(n)
        for k in range(n):
            # the Eulerian number by its closed form, not its recurrence
            want = sum((-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 2))
            if table[k][0] != want:
                return _finish("lattice", bounds, {
                    "check": "eulerian-base", "n": n, "k": k,
                    "lhs": table[k][0], "rhs": want,
                }, started)

    for n in range(1, max_n + 1):
        table = a_table(n)
        for m in range(n + 1):
            total = sum(table[k][m] for k in range(n + 1))
            want = factorial(n) if m == 0 else 0
            if total != want:
                return _finish("lattice", bounds, {
                    "check": "row-sums", "n": n, "m": m,
                    "lhs": total, "rhs": want,
                }, started)

    for _ in range(points):
        n = rng.randint(1, min(max_n, 7))
        k = rng.randint(0, n)
        xs = tuple(rng.randint(-5, 5) for _ in range(n))
        by_paths = pnk_eval_paths(n, k, xs)
        by_basis = pnk_eval_ebasis(n, k, xs)
        if by_paths != by_basis:
            return _finish("lattice", bounds, {
                "check": "path-vs-ebasis", "n": n, "k": k, "x": list(xs),
                "lhs": by_paths, "rhs": by_basis,
            }, started)

    for _ in range(points):
        n = rng.randint(2, 6)
        k = rng.randint(0, n)
        xs = [rng.randint(-5, 5) for _ in range(n)]
        shuffled = xs[:]
        rng.shuffle(shuffled)
        if pnk_eval_paths(n, k, xs) != pnk_eval_paths(n, k, shuffled):
            return _finish("lattice", bounds, {
                "check": "symmetry", "n": n, "k": k,
                "x": xs, "shuffled": shuffled,
            }, started)

    for n in range(1, 5):
        xs = tuple(rng.randint(-5, 5) for _ in range(n))
        for k in range(n + 1):
            base = pnk_eval_paths(n, k, xs)
            for reordered in _all_perms(xs):
                if pnk_eval_paths(n, k, reordered) != base:
                    return _finish("lattice", bounds, {
                        "check": "symmetry-exhaustive", "n": n, "k": k,
                        "x": list(xs), "reordered": list(reordered),
                    }, started)

    for _ in range(points):
        n = rng.randint(2, 6)
        k = rng.randint(0, n)
        xs = tuple(rng.randint(-5, 5) for _ in range(n))
        head = xs[:-1]

        def sub(kk: int) -> int:
            return pnk_eval_ebasis(n - 1, kk, head) if 0 <= kk <= n - 1 else 0

        rhs = (xs[-1] + k + 1) * sub(k) + (n - k - xs[-1]) * sub(k - 1)
        lhs = pnk_eval_ebasis(n, k, xs)
        if lhs != rhs:
            return _finish("lattice", bounds, {
                "check": "recursion", "n": n, "k": k, "x": list(xs),
                "lhs": lhs, "rhs": rhs,
            }, started)

    for n in range(1, max_n + 1):
        for shape in partitions(n):
            counts = qyt_counts(shape)
            for k in range(n + 1):
                got = qyt_count_via_pnk(shape, k)
                want = counts[k + 1] if k + 1 <= n else 0
                if got != want:
                    return _finish("lattice", bounds, {
                        "check": "theorem", "shape": str(shape), "k": k,
                        "lhs": got, "rhs": want,
                    }, started)
            total = sum(qyt_count_via_pnk(shape, k) for k in range(n + 1))
            if total != shape.hook_length_count():
                return _finish("lattice", bounds, {
                    "check": "hook-recovery", "shape": str(shape),
                    "lhs": total, "rhs": shape.hook_length_count(),
                }, started)

    return _finish("lattice", bounds, None, started)


# ---------------------------------------------------------------------------
# generating functions


def _word_stats(words) -> QTPoly:
    """sum of q^maj t^des over the words."""
    return QTPoly(Counter((sum(d), len(d)) for d in map(word_descents, words)))


def verify_genfun(max_n: int = 5) -> SuiteReport:
    """Both expansions of the q,t Schur generating function, the Kostka
    lemma behind the monomial one, RSK sanity, the nonzero-term
    property of the truncated fundamental expansion, monomial
    triangularity, and the t = 1 / q = 1 specializations.  Expansions
    keep every composition of n, which is lossless in degree n."""
    _require_positive(max_n=max_n)
    started = time.perf_counter()
    bounds = {"max_n": max_n}
    for n in range(1, max_n + 1):
        with_q = gen_fn(n, with_q=True)
        schur = {shape: schur_truncated(shape, n) for shape in partitions(n)}
        rhs = sum((sch.scale(with_q.coefficient(s)) for s, sch in schur.items()),
                  MonomialMap())

        # S_n side, grouped by Des(p^-1) before any F is expanded.
        groups: dict[tuple[int, ...], list] = {}
        for p in perms(n):
            groups.setdefault(tuple(sorted(word_descents(inverse(p)))), []).append(p)
        lhs = sum((fundamental_truncated(d, n, n).scale(_word_stats(g))
                   for d, g in groups.items()), MonomialMap())
        if lhs != rhs:
            return _finish("genfun", bounds, {
                "check": "fundamental", "n": n,
            }, started)

        words = {s: _word_stats(multiset_perms(s.parts)) for s in partitions(n)}
        lhs = sum((monomial_truncated(s, n).scale(c) for s, c in words.items()),
                  MonomialMap())
        if lhs != rhs:
            return _finish("genfun", bounds, {
                "check": "monomial", "n": n,
            }, started)

        for shape, lhs_poly in words.items():
            rhs_poly = QTPoly()
            for nu in partitions(n):
                if not nu.dominates(shape):
                    continue
                rhs_poly = rhs_poly + kostka(nu, shape) * with_q.coefficient(nu)
            if lhs_poly != rhs_poly:
                return _finish("genfun", bounds, {
                    "check": "kostka-lemma", "shape": str(shape),
                    "lhs": str(lhs_poly), "rhs": str(rhs_poly),
                }, started)

        pairs = set()
        for p in perms(n):
            P, Q = rsk(p)
            if P.shape != Q.shape:
                return _finish("genfun", bounds, {
                    "check": "rsk-shapes", "perm": list(p),
                }, started)
            pairs.add((P, Q))
        expected_pairs = sum(
            shape.hook_length_count() ** 2 for shape in partitions(n)
        )
        if len(pairs) != factorial(n) or expected_pairs != factorial(n):
            return _finish("genfun", bounds, {
                "check": "rsk-bijection", "n": n,
                "distinct_pairs": len(pairs), "squares_sum": expected_pairs,
            }, started)

        for shape in partitions(n):
            fillings = []
            for t in enumerate_syt(shape):
                qyt = t.destandardize()
                f = fundamental_truncated(composition_descents(qyt.weight()), n, n)
                fillings.append((qyt, f))
            for n_vars in range(1, n + 1):
                acc = MonomialMap()
                for qyt, f in fillings:
                    if qyt.max_entry > n_vars:
                        continue
                    f = f.truncate(n_vars)
                    if not f:
                        return _finish("genfun", bounds, {
                            "check": "nonzero-terms", "shape": str(shape),
                            "vars": n_vars, "filling": str(qyt),
                        }, started)
                    acc = acc + f
                if acc != schur[shape].truncate(n_vars):
                    return _finish("genfun", bounds, {
                        "check": "truncated-fundamental", "shape": str(shape),
                        "vars": n_vars,
                    }, started)

        for nu, sch in schur.items():
            for lam in partitions(n):
                got = sch.coefficient(lam.parts)
                want = kostka(nu, lam)
                if got != want or (want and not nu.dominates(lam)):
                    return _finish("genfun", bounds, {
                        "check": "triangularity",
                        "shape": str(nu), "weight": str(lam),
                        "lhs": got, "rhs": want,
                    }, started)
            if sch.coefficient(nu.parts) != 1:
                return _finish("genfun", bounds, {
                    "check": "triangularity-leading", "shape": str(nu),
                }, started)

        plain = gen_fn(n, with_q=False)
        for shape in partitions(n):
            # q-hook formula: sum of q^maj = q^n(shape) [n]! / prod [h(u)]
            hooks_poly = prod((q_int(h) for h in shape.hooks()), start=QPoly((1,)))
            q_hook = q_fact(n).shift(shape.n_stat()).exact_div(hooks_poly)
            if with_q.coefficient(shape).at_t1() != q_hook:
                return _finish("genfun", bounds, {
                    "check": "t1-specialization", "shape": str(shape),
                }, started)
            if with_q.coefficient(shape).at_q1() != plain.coefficient(shape).at_q1():
                return _finish("genfun", bounds, {
                    "check": "q1-specialization", "shape": str(shape),
                }, started)
    return _finish("genfun", bounds, None, started)


# ---------------------------------------------------------------------------
# applications: signatures, ribbons, Foulkes, Polya, Jack


def signature_of(x) -> str:
    """Sign word of length n - 1: '+' at non-descents, '-' at descents."""
    if isinstance(x, Tableau):
        dset, n = x.descent_set(), x.size
    else:
        dset, n = word_descents(x), len(x)
    return "".join("-" if i in dset else "+" for i in range(1, n))


def ribbon_rows(sigma: str) -> tuple[int, ...]:
    """Row lengths, top to bottom, of the ribbon a sign word traces: one
    starting cell, then a west step per '+' and a south step per '-'."""
    if any(ch not in "+-" for ch in sigma):
        raise ValueError("signature must be a word over '+' and '-'")
    return tuple(len(run) + 1 for run in sigma.split("-"))


def foulkes_multiplicity(n: int, k: int, shape) -> int:
    """Standard fillings of `shape` whose signature carries exactly k
    plus signs, i.e. exactly n - 1 - k descents."""
    shape = as_partition(shape)
    if shape.size != n:
        raise ValueError("shape size must equal n")
    if not 0 <= k <= n - 1:
        return 0
    return sum(c for (d, _), c in des_maj_counts(shape) if d == n - 1 - k)


def polya_dimension_check(n: int, m: int) -> bool:
    """m**n == sum_k C(m+k, n) sum_shapes QYT_{=n-k}(shape) SYT(shape)."""
    total = 0
    for shape in partitions(n):
        counts = qyt_counts(shape)
        total += shape.hook_length_count() * sum(
            comb(m + k, n) * counts[n - k] for k in range(n)
        )
    return total == m**n


def jack_coefficient(shape, k: int) -> int:
    """n! times the number of quasi-Yamanouchi fillings of the conjugate
    shape with largest entry k + 1 (the labeled one-row Jack coefficient)."""
    shape = as_partition(shape)
    return factorial(shape.size) * qyt_count_exact(shape.conjugate(), k + 1)


def verify_foulkes(max_n: int = 7) -> SuiteReport:
    """foulkes_multiplicity(n, k, shape) == QYT_{=n-k}(shape) everywhere."""
    _require_positive(max_n=max_n)
    started = time.perf_counter()
    bounds = {"max_n": max_n}
    for n in range(1, max_n + 1):
        for shape in partitions(n):
            census = qyt_counts(shape)
            for k in range(n):
                got = foulkes_multiplicity(n, k, shape)
                want = census[n - k] if 0 < n - k <= n else 0
                if got != want:
                    return _finish("foulkes", bounds, {
                        "shape": str(shape), "k": k,
                        "lhs": got, "rhs": want,
                    }, started)
    return _finish("foulkes", bounds, None, started)


def verify_polya(max_n: int = 6, max_m: int = 5) -> SuiteReport:
    _require_positive(max_n=max_n, max_m=max_m)
    started = time.perf_counter()
    bounds = {"max_n": max_n, "max_m": max_m}
    for n in range(1, max_n + 1):
        for m in range(1, max_m + 1):
            if not polya_dimension_check(n, m):
                return _finish("polya", bounds, {"n": n, "m": m}, started)
    return _finish("polya", bounds, None, started)


def verify_jack(max_n: int = 6, limit: int | None = None) -> SuiteReport:
    """The labeled coefficients against the two independent routes: the
    lattice-path count of the conjugate shape and the hit numbers."""
    _require_positive(max_n=max_n)
    started = time.perf_counter()
    bounds = {"max_n": max_n}
    for n in range(1, max_n + 1):
        for shape in partitions(n):
            conj = shape.conjugate()
            hit = FerrersBoard.from_partition(shape).hit_numbers(limit)
            for k in range(n):
                got = jack_coefficient(shape, k)
                by_paths = factorial(n) * qyt_count_via_pnk(conj, k)
                if got != by_paths:
                    return _finish("jack", bounds, {
                        "check": "path-route", "shape": str(shape), "k": k,
                        "lhs": got, "rhs": by_paths,
                    }, started)
                if got * conj.hook_product() != factorial(n) * hit[k]:
                    return _finish("jack", bounds, {
                        "check": "hit-route", "shape": str(shape), "k": k,
                        "lhs": got * conj.hook_product(),
                        "rhs": factorial(n) * hit[k],
                    }, started)
    return _finish("jack", bounds, None, started)


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
