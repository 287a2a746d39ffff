import json
from collections import Counter
from itertools import combinations, combinations_with_replacement, product
from math import factorial

import pytest

from qyt.cli import main
from qyt.partition import Partition, partitions
from qyt.perm import descent_set, inverse, multiset_perms, perms
from qyt.qpoly import QPoly, QTPoly
from qyt.symfun import (
    MonomialMap,
    composition_descents,
    fundamental_sums,
    fundamental_truncated,
    gen_fn,
    monomial_truncated,
    row_insert,
    row_uninsert,
    rsk,
    rsk_multiset,
    schur_truncated,
)
from qyt.tableau import Tableau, _ssyt_rows, enumerate_syt, kostka

import oracles


def test_schur_truncated_small_cases():
    s22 = schur_truncated(Partition((2, 2)), 3)
    assert dict(s22.terms()) == {(2, 2): 1, (2, 1, 1): 1, (1, 2, 1): 1, (1, 1, 2): 1}
    assert dict(s22.expand(3)) == {
        (2, 2, 0): 1,
        (2, 1, 1): 1,
        (1, 2, 1): 1,
        (2, 0, 2): 1,
        (1, 1, 2): 1,
        (0, 2, 2): 1,
    }
    s1 = schur_truncated(Partition((1,)), 4)
    assert dict(s1.terms()) == {(1,): 1}
    assert dict(s1.expand(4)) == {
        (1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1
    }
    s21 = schur_truncated(Partition((2, 1)), 2)
    assert dict(s21.terms()) == {(2, 1): 1, (1, 2): 1}
    assert schur_truncated(Partition((2, 1)), 3) == MonomialMap(
        {(2, 1): 1, (1, 2): 1, (1, 1, 1): 2}
    )
    assert schur_truncated("2,1", 3) == schur_truncated(Partition((2, 1)), 3)
    with pytest.raises(ValueError, match="n_vars must be nonnegative, got -1"):
        schur_truncated(Partition((2, 1)), -1)


def test_fundamental_sums_is_the_sum_of_fundamentals():
    for n in range(1, 7):
        for mask in range(1 << (n - 1)):
            strict = {j for j in range(1, n) if mask >> (j - 1) & 1}
            assert fundamental_sums({mask: 1}, n) == fundamental_truncated(strict, n, n)
    coeffs = {0b001: 2, 0b101: QTPoly.term(1, 2), 0b110: -3}
    want = (fundamental_truncated({1}, 4, 4).scale(2)
            + fundamental_truncated({1, 3}, 4, 4).scale(QTPoly.term(1, 2))
            + fundamental_truncated({2, 3}, 4, 4).scale(-3))
    assert fundamental_sums(coeffs, 4) == want


def test_fundamental_small_cases():
    f_empty = fundamental_truncated((), 2, 2)
    assert dict(f_empty.terms()) == {(2,): 1, (1, 1): 1}
    assert dict(f_empty.expand(2)) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    f_one = fundamental_truncated((1,), 2, 2)
    assert dict(f_one.terms()) == {(1, 1): 1}
    assert dict(fundamental_truncated((1,), 3, 9).terms()) == {(1, 2): 1, (1, 1, 1): 1}
    assert dict(fundamental_truncated((1,), 3, 2).terms()) == {(1, 2): 1}
    assert not fundamental_truncated((1, 2), 3, 2)
    assert dict(fundamental_truncated((), 0, 0).terms()) == {(): 1}
    with pytest.raises(ValueError):
        fundamental_truncated((2,), 2, 2)


def test_monomial_small_cases():
    m21 = monomial_truncated(Partition((2, 1)), 3)
    assert dict(m21.terms()) == {(2, 1): 1, (1, 2): 1}
    assert len(m21.expand(3)) == 6
    assert all(sorted(e, reverse=True) == [2, 1, 0] for e, _ in m21.expand(3))
    m211 = monomial_truncated(Partition((2, 1, 1)), 3)
    assert dict(m211.terms()) == {(2, 1, 1): 1, (1, 2, 1): 1, (1, 1, 2): 1}
    assert not monomial_truncated(Partition((1, 1, 1)), 2)
    assert dict(monomial_truncated(Partition(), 0).terms()) == {(): 1}


def test_monomial_map_arithmetic_and_equality():
    a = MonomialMap({(1,): 1})
    b = MonomialMap({(1,): QTPoly.term(0, 0)})
    assert a == b  # int and constant QTPoly coefficients compare equal
    c = a.scale(QTPoly.term(1, 1))
    assert c.coefficient((1,)) == QTPoly.term(1, 1)
    d = a + a.scale(-1)
    assert not d
    e = MonomialMap({(2,): 1, (1, 1): 3})
    assert e.truncate(1) == MonomialMap({(2,): 1})
    assert e.truncate(2) == e
    assert not e.truncate(0)
    assert e.expand(2) == [((0, 2), 1), ((1, 1), 3), ((2, 0), 1)]
    assert e.expand(0) == []


def _exponent_counts(fillings, n_vars):
    out = Counter()
    for rows in fillings:
        exps = [0] * n_vars
        for row in rows:
            for v in row:
                exps[v - 1] += 1
        out[tuple(exps)] += 1
    return dict(out)


def test_schur_expansion_matches_brute_force_fillings():
    # the full expansion `expand schur --vars N` prints, for every N
    for n in range(7):
        for lam in partitions(n):
            for n_vars in range(n + 2):
                got = dict(schur_truncated(lam, n_vars).expand(n_vars))
                assert got == _exponent_counts(oracles.ssyt_brute(lam.parts, n_vars), n_vars)


def test_schur_truncated_matches_ssyt_content_tally():
    # A filling with packed content alpha has largest entry len(alpha) <= n,
    # so the fillings with entries at most n hold every packed content, and
    # in N variables the ones with at most N parts count.
    # The fillings come straight from the walk enumerate_ssyt wraps, since
    # building and validating a Tableau per filling would cost most of
    # the test; they are tallied by their sorted entries, one key per
    # content.
    for n in range(9):
        for lam in partitions(n):
            by_entries = Counter(
                tuple(sorted([v for row in rows for v in row]))
                for rows in _ssyt_rows(lam.parts, (n,) * n)
            )
            tally = Counter()
            for entries, c in by_entries.items():
                alpha = tuple(entries.count(v) for v in range(1, max(entries, default=0) + 1))
                if 0 not in alpha:
                    tally[alpha] += c
            for n_vars in range(n + 2):
                want = {alpha: c for alpha, c in tally.items() if len(alpha) <= n_vars}
                assert dict(schur_truncated(lam, n_vars).terms()) == want, (lam, n_vars)


def _compositions(n):
    for size in range(n):
        for cuts in combinations(range(1, n), size):
            bounds = (0, *cuts, n)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def test_schur_coefficients_are_symmetric_in_the_composition():
    # K_{lam, alpha} = K_{lam, sort(alpha)}; schur_truncated counts every
    # composition on its own and does not assume the symmetry
    for n in range(1, 10):
        compositions = list(_compositions(n))
        for lam in partitions(n):
            sch = schur_truncated(lam, n)
            for alpha in compositions:
                want = sch.coefficient(sorted(alpha, reverse=True))
                assert sch.coefficient(alpha) == want, (lam, alpha)


def test_fundamental_truncation_matches_brute_force_words():
    # F_S in x_1..x_N: weakly increasing words over 1..N, strict exactly at S
    for n in range(6):
        for size in range(n):
            for sigma in combinations(range(1, n), size):
                full = fundamental_truncated(sigma, n, n)
                for n_vars in range(n + 2):
                    words = [
                        w for w in combinations_with_replacement(range(1, n_vars + 1), n)
                        if all(w[j - 1] < w[j] for j in sigma)
                    ]
                    want = _exponent_counts([(w,) for w in words], n_vars)
                    assert dict(full.truncate(n_vars).expand(n_vars)) == want
                    assert fundamental_truncated(sigma, n, n_vars) == full.truncate(n_vars)


def test_composition_descents():
    assert composition_descents((2, 2, 1)) == {2, 4}
    assert composition_descents((5,)) == set()
    with pytest.raises(ValueError):
        composition_descents((2, 0, 1))


def test_rsk_identity_and_example():
    n = 5
    ident = tuple(range(1, n + 1))
    P, Q = rsk(ident)
    assert P == Q == Tableau((ident,))
    P, Q = rsk((4, 5, 3, 1, 2))
    assert P.shape == Q.shape == Partition((2, 2, 1))
    assert Q.descent_set() == {2, 3}
    assert P.descent_set() == descent_set(inverse((4, 5, 3, 1, 2)))


def test_rsk_descent_postconditions():
    for n in range(1, 7):
        for p in perms(n):
            P, Q = rsk(p)
            assert P.shape == Q.shape
            assert Q.descent_set() == descent_set(p)
            assert P.descent_set() == descent_set(inverse(p))


def test_rsk_is_a_bijection():
    for n in range(1, 7):
        seen = set()
        for p in perms(n):
            seen.add(rsk(p))
        assert len(seen) == factorial(n)
        assert sum(
            lam.hook_length_count() ** 2 for lam in partitions(n)
        ) == factorial(n)


def test_row_uninsert_inverts_row_insert():
    for n in range(7):
        for p in perms(n):
            assert row_uninsert(*row_insert(p)) == p
    # repeated letters: the reverse bump takes the rightmost entry
    # strictly smaller, as the forward bump took the leftmost strictly larger
    for n in range(1, 6):
        for w in product(range(1, 4), repeat=n):
            assert row_uninsert(*row_insert(w)) == w


def test_rsk_rejects_non_permutations():
    with pytest.raises(ValueError):
        rsk((1, 1, 2))


def test_rsk_multiset_postconditions():
    for content in [(2, 1), (2, 2), (3, 1), (2, 1, 1), (2, 2, 1)]:
        lam = Partition(content)
        for w in multiset_perms(content):
            P, Q = rsk_multiset(w)
            assert P.shape == Q.shape
            assert P.is_standard()
            assert P.descent_set() == descent_set(w)
            assert Q.is_semistandard()
            assert Q.weight(len(content)) == tuple(content)
            assert Q.shape.dominates(lam)


def test_rsk_multiset_shape_counts_give_kostka():
    # over all words of a content, insertion shapes appear K_{nu,lam}
    # times per recording tableau
    for content in [(2, 1), (2, 2), (2, 1, 1), (3, 2)]:
        lam = Partition(content)
        n = lam.size
        by_shape: dict = {}
        for w in multiset_perms(content):
            _, Q = rsk_multiset(w)
            by_shape[Q.shape] = by_shape.get(Q.shape, 0) + 1
        for nu in partitions(n):
            expected = kostka(nu, lam) * nu.hook_length_count()
            assert by_shape.get(nu, 0) == expected


def test_gen_fn_small_cases():
    g1 = gen_fn(1)
    assert g1[Partition((1,))] == QTPoly.term(0, 0)
    g5 = gen_fn(5)
    coeff = g5[Partition((3, 2))]
    assert coeff.at_q1() == QPoly((0, 2, 3))  # 2t + 3t^2
    g3 = gen_fn(3)
    assert g3[Partition((1, 1, 1))] == QTPoly.term(3, 2)


def test_gen_fn_without_q_matches_specialization():
    for n in range(1, 6):
        plain = gen_fn(n, with_q=False)
        graded = gen_fn(n, with_q=True)
        for lam in partitions(n):
            assert plain[lam].at_q1() == graded[lam].at_q1()


def test_gen_fn_t1_matches_maj_generating_function():
    for n in range(1, 6):
        graded = gen_fn(n, with_q=True)
        for lam in partitions(n):
            maj_poly = QPoly()
            for t in enumerate_syt(lam):
                maj_poly = maj_poly + QPoly.term(t.maj())
            assert graded[lam].at_t1() == maj_poly


def test_schur_expansion_json(capsys):
    # `expand genfun --format json` lists every shape in partitions(n)
    # order, and its triples rebuild gen_fn's coefficients
    g = gen_fn(3)
    assert list(g) == list(partitions(3))
    assert main(["expand", "genfun", "--n", "3", "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert [entry["partition"] for entry in blob["schur"]] == ["3", "2,1", "1,1,1"]
    rebuilt = {
        Partition.parse(entry["partition"]):
            QTPoly({(qd, td): c for qd, td, c in entry["coeff"]})
        for entry in blob["schur"]
    }
    assert rebuilt == g


def test_schur_triangularity():
    for n in range(1, 6):
        for nu in partitions(n):
            sch = schur_truncated(nu, n)
            for lam in partitions(n):
                coeff = sch.coefficient(lam.parts)
                assert coeff == kostka(nu, lam)
                if coeff and nu != lam:
                    assert nu.dominates(lam)
            assert sch.coefficient(nu.parts) == 1
