import json
from collections import Counter
from itertools import combinations, combinations_with_replacement, product
from math import factorial

import pytest

from qyt.cli import main
from qyt.partition import Partition, partitions
from qyt.perm import multiset_perms, perms
from qyt.symfun import (
    expand_monomials,
    fundamental_sums,
    gen_fn,
    monomial_truncated,
    row_insert,
    row_uninsert,
    rsk,
    schur_truncated,
)
from qyt.tableau import Tableau, _ssyt_rows, enumerate_syt, kostka

import oracles


def _terms(coeffs, n_vars):
    """expand_monomials with each exponent text read back as a tuple."""
    return [(tuple(int(e) for e in exps.split(",")) if exps else (), c)
            for exps, c in expand_monomials(coeffs, n_vars)]


def test_schur_truncated_small_cases():
    s22 = schur_truncated(Partition((2, 2)), 3)
    assert s22 == {(2, 2): 1, (2, 1, 1): 1, (1, 2, 1): 1, (1, 1, 2): 1}
    assert dict(_terms(s22, 3)) == {
        (2, 2, 0): 1,
        (2, 1, 1): 1,
        (1, 2, 1): 1,
        (2, 0, 2): 1,
        (1, 1, 2): 1,
        (0, 2, 2): 1,
    }
    s1 = schur_truncated(Partition((1,)), 4)
    assert s1 == {(1,): 1}
    assert dict(_terms(s1, 4)) == {
        (1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1
    }
    s21 = schur_truncated(Partition((2, 1)), 2)
    assert s21 == {(2, 1): 1, (1, 2): 1}
    assert schur_truncated(Partition((2, 1)), 3) == {(2, 1): 1, (1, 2): 1, (1, 1, 1): 2}
    assert schur_truncated("2,1", 3) == schur_truncated(Partition((2, 1)), 3)
    with pytest.raises(ValueError, match="n_vars must be nonnegative, got -1"):
        schur_truncated(Partition((2, 1)), -1)


def test_fundamental_sums_is_the_sum_of_fundamentals():
    # F_S in n variables: the weakly increasing words over 1..n of length
    # n that are strict exactly at S
    for n in range(1, 7):
        for mask in range(1 << (n - 1)):
            strict = [j for j in range(1, n) if mask >> (j - 1) & 1]
            words = [w for w in combinations_with_replacement(range(1, n + 1), n)
                     if all(w[j - 1] < w[j] for j in strict)]
            got = fundamental_sums({mask: 1}, n)
            assert dict(_terms(got, n)) == _exponent_counts([(w,) for w in words], n)
    # int coefficients that cancel on some compositions: M_(1,1,1,1)
    # lies in all three fundamentals, and 2 + 1 - 3 = 0 drops it
    coeffs = {0b001: 2, 0b101: 1, 0b110: -3}
    want = Counter()
    for strict, c in [({1}, 2), ({1, 3}, 1), ({2, 3}, -3)]:
        words = [w for w in combinations_with_replacement(range(1, 5), 4)
                 if all(w[j - 1] < w[j] for j in strict)]
        for exps, one in _exponent_counts([(w,) for w in words], 4).items():
            want[exps] += c * one
    got = fundamental_sums(coeffs, 4)
    assert dict(_terms(got, 4)) == {exps: c for exps, c in want.items() if c}
    assert (1, 1, 1, 1) not in got


def test_fundamental_small_cases():
    # F_S for S = {}, {1}, {1, 2}, as bitmasks of S
    f_empty = fundamental_sums({0b0: 1}, 2)
    assert f_empty == {(2,): 1, (1, 1): 1}
    assert dict(_terms(f_empty, 2)) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert fundamental_sums({0b1: 1}, 2) == {(1, 1): 1}
    f_one = fundamental_sums({0b01: 1}, 3)
    assert f_one == {(1, 2): 1, (1, 1, 1): 1}
    # in x_1, x_2: the compositions of at most 2 parts
    assert dict(_terms(f_one, 2)) == {(1, 2): 1}
    assert dict(_terms(fundamental_sums({0b11: 1}, 3), 2)) == {}
    assert fundamental_sums({0b0: 1}, 0) == {(): 1}


def test_monomial_small_cases():
    m21 = monomial_truncated(Partition((2, 1)), 3)
    assert m21 == {(2, 1): 1, (1, 2): 1}
    assert len(_terms(m21, 3)) == 6
    assert all(sorted(e, reverse=True) == [2, 1, 0] for e, _ in _terms(m21, 3))
    m211 = monomial_truncated(Partition((2, 1, 1)), 3)
    assert m211 == {(2, 1, 1): 1, (1, 2, 1): 1, (1, 1, 2): 1}
    assert monomial_truncated(Partition((1, 1, 1)), 2) == {}
    assert monomial_truncated(Partition(), 0) == {(): 1}


def test_expand_monomials():
    e = {(2,): 1, (1, 1): 3}
    assert list(expand_monomials(e, 2)) == [("0,2", 1), ("1,1", 3), ("2,0", 1)]
    assert list(expand_monomials(e, 3, ", ")) == [
        ("0, 0, 2", 1), ("0, 1, 1", 3), ("0, 2, 0", 1), ("1, 0, 1", 3),
        ("1, 1, 0", 3), ("2, 0, 0", 1)]
    assert list(expand_monomials(e, 0)) == []
    assert list(expand_monomials({(): 4}, 0)) == [("", 4)]
    assert list(expand_monomials({(): 4}, 2, " ")) == [("0 0", 4)]


def test_expand_monomials_matches_the_sorted_listing():
    # the walk against building every monomial and sorting, as ordered lists
    for n in range(8):
        for lam in partitions(n):
            for n_vars in range(n + 2):
                coeffs = schur_truncated(lam, n_vars)
                assert _terms(coeffs, n_vars) == oracles.monomials_brute(coeffs, n_vars)
    # compositions of different sizes, one the prefix of another, and
    # zero and negative coefficients, which the walk lists like any other;
    # reversed, a longer composition reaches a trie node before a shorter one
    mixed = {(): 5, (1,): 0, (1, 1): 3, (2, 1): -4, (3,): 1, (1, 1, 1, 1): 2, (1, 3, 1): 6}
    for coeffs in (mixed, dict(reversed(mixed.items()))):
        for n_vars in range(7):
            assert _terms(coeffs, n_vars) == oracles.monomials_brute(coeffs, n_vars)


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
                got = dict(_terms(schur_truncated(lam, n_vars), n_vars))
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
                assert schur_truncated(lam, n_vars) == want, (lam, n_vars)


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
                want = sch.get(tuple(sorted(alpha, reverse=True)), 0)
                assert sch.get(alpha, 0) == want, (lam, alpha)


def test_fundamental_truncation_matches_brute_force_words():
    # F_S in x_1..x_N: weakly increasing words over 1..N, strict exactly at S
    for n in range(6):
        for size in range(n):
            for sigma in combinations(range(1, n), size):
                full = fundamental_sums({sum(1 << (j - 1) for j in sigma): 1}, n)
                for n_vars in range(n + 2):
                    words = [
                        w for w in combinations_with_replacement(range(1, n_vars + 1), n)
                        if all(w[j - 1] < w[j] for j in sigma)
                    ]
                    want = _exponent_counts([(w,) for w in words], n_vars)
                    truncated = {alpha: c for alpha, c in full.items() if len(alpha) <= n_vars}
                    assert dict(_terms(truncated, n_vars)) == want


def test_rsk_identity_and_example():
    n = 5
    ident = tuple(range(1, n + 1))
    P, Q = rsk(ident)
    assert P == Q == Tableau((ident,))
    P, Q = rsk((4, 5, 3, 1, 2))
    assert P.shape == Q.shape == Partition((2, 2, 1))
    assert Q.descent_set() == {2, 3}
    assert P.descent_set() == oracles.descents_of_word(oracles.inverse_brute((4, 5, 3, 1, 2)))


def test_rsk_descent_postconditions():
    for n in range(1, 7):
        for p in perms(n):
            P, Q = rsk(p)
            assert P.shape == Q.shape
            assert Q.descent_set() == oracles.descents_of_word(p)
            assert P.descent_set() == oracles.descents_of_word(oracles.inverse_brute(p))


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


def test_rsk_rejects_non_positive_words():
    for word in [(1, 0, 2), (-1,), (2, 1, -3)]:
        with pytest.raises(ValueError):
            rsk(word)


def test_rsk_postconditions_on_words_with_repeats():
    # P is the insertion tableau and Q the recording one, as for a
    # permutation
    for content in [(2, 1), (2, 2), (3, 1), (2, 1, 1), (2, 2, 1)]:
        lam = Partition(content)
        for w in multiset_perms(content):
            P, Q = rsk(w)
            assert P.shape == Q.shape
            assert Q.is_standard()
            assert Q.descent_set() == oracles.descents_of_word(w)
            assert P.is_semistandard()
            assert sorted(v for row in P.rows for v in row) == sorted(w)
            assert P.shape.dominates(lam)


def test_rsk_shape_counts_on_words_give_kostka():
    # over all words of a content, insertion shapes appear K_{nu,lam}
    # times per recording tableau
    for content in [(2, 1), (2, 2), (2, 1, 1), (3, 2)]:
        lam = Partition(content)
        n = lam.size
        by_shape: dict = {}
        for w in multiset_perms(content):
            P, _ = rsk(w)
            by_shape[P.shape] = by_shape.get(P.shape, 0) + 1
        for nu in partitions(n):
            expected = kostka(nu, lam) * nu.hook_length_count()
            assert by_shape.get(nu, 0) == expected


def _summed(p, axis: int) -> dict[int, int]:
    """{degree: coefficient} of the triples of the packed value p summed
    by their degree at `axis`, nonzero coefficients only."""
    coeffs = Counter()
    for tri in p.triples():
        coeffs[tri[axis]] += tri[2]
    return {d: c for d, c in coeffs.items() if c}


def _at_q1(p) -> dict[int, int]:
    """q = 1: the polynomial in t, summed from the triples."""
    return _summed(p, 1)


def _at_t1(p) -> dict[int, int]:
    """t = 1: the polynomial in q, summed from the triples."""
    return _summed(p, 0)


def test_gen_fn_small_cases():
    g1 = gen_fn(1)
    assert g1[Partition((1,))].triples() == [[0, 0, 1]]
    g5 = gen_fn(5)
    assert _at_q1(g5[Partition((3, 2))]) == {1: 2, 2: 3}  # 2t + 3t^2
    g3 = gen_fn(3)
    assert g3[Partition((1, 1, 1))].triples() == [[3, 2, 1]]


def test_gen_fn_without_q_matches_specialization():
    for n in range(1, 6):
        plain = gen_fn(n, with_q=False)
        graded = gen_fn(n, with_q=True)
        for lam in partitions(n):
            assert _at_q1(plain[lam]) == _at_q1(graded[lam])


def test_gen_fn_t1_matches_maj_generating_function():
    for n in range(1, 6):
        graded = gen_fn(n, with_q=True)
        for lam in partitions(n):
            majs = Counter(sum(t.descent_set()) for t in enumerate_syt(lam))
            assert _at_t1(graded[lam]) == dict(majs)


def test_schur_expansion_json(capsys):
    # `expand genfun --format json` lists every shape in partitions(n)
    # order, and its triples rebuild gen_fn's coefficients
    g = gen_fn(3)
    assert list(g) == list(partitions(3))
    assert main(["expand", "genfun", "--n", "3", "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert [entry["partition"] for entry in blob["schur"]] == ["3", "2,1", "1,1,1"]
    listed = {Partition.parse(entry["partition"]): entry["coeff"] for entry in blob["schur"]}
    assert listed == {shape: coeff.triples() for shape, coeff in g.items()}


def test_schur_triangularity():
    for n in range(1, 6):
        for nu in partitions(n):
            sch = schur_truncated(nu, n)
            for lam in partitions(n):
                coeff = sch.get(lam.parts, 0)
                assert coeff == kostka(nu, lam)
                if coeff and nu != lam:
                    assert nu.dominates(lam)
            assert sch[nu.parts] == 1
