from collections import Counter
from itertools import accumulate, combinations

import pytest

from qyt.partition import Partition, as_partition, partitions
from qyt.qpoly import unpack
from qyt.symfun import gen_fn
from qyt.tableau import (
    Tableau,
    descent_levels,
    descent_mask,
    descent_tallies,
    enumerate_ssyt,
    enumerate_syt,
    kostka,
    maj_width,
    qyt_count_exact,
    qyt_counts,
)

import oracles


def shapes_upto(n):
    for size in range(1, n + 1):
        yield from partitions(size)


def _des_maj_counts(shape):
    """((des, maj), count) over the standard fillings of `shape`, sorted,
    unpacked from the walk of its order ideal at the maj width."""
    width = maj_width([shape])
    tally = descent_tallies(width, [shape])[as_partition(shape).parts]
    return tuple(((d, mj), c) for d, row in enumerate(tally)
                 for mj, c in enumerate(unpack(row, width)) if c)


def test_parse_and_str_round_trip():
    t = Tableau(((1, 1), (2, 2), (3,)))
    assert t.rows == ((1, 1), (2, 2), (3,))
    assert str(t) == "1,1/2,2/3"
    assert t.shape == Partition((2, 2, 1))


def test_constructor_validates():
    with pytest.raises(ValueError):
        Tableau(((1,), (1, 2)))  # profile not a partition
    with pytest.raises(ValueError):
        Tableau(((0, 1),))


def test_ssyt_enumeration_small_cases():
    six = {str(t) for t in enumerate_ssyt(Partition((2, 2)), 3)}
    assert six == {"1,1/2,2", "1,1/2,3", "1,2/2,3", "1,1/3,3", "1,2/3,3", "2,2/3,3"}
    assert enumerate_ssyt(Partition((1, 1)), 1) == []
    two = {str(t) for t in enumerate_ssyt(Partition((3, 2)), 2)}
    assert two == {"1,1,1/2,2", "1,1,2/2,2"}


def test_ssyt_enumeration_matches_oracle():
    for lam in shapes_upto(5):
        for m in range(1, 6):
            got = {t.rows for t in enumerate_ssyt(lam, m)}
            want = set(oracles.ssyt_brute(lam.parts, m))
            assert got == want


def test_ssyt_enumeration_is_in_reading_word_order():
    # increasing bottom-to-top reading word, as enumerate_ssyt and
    # enumerate_syt promise
    def words(tableaux):
        return [tuple(v for row in t.rows for v in row) for t in tableaux]

    for lam in [Partition(()), *shapes_upto(5)]:
        for m in range(6):
            listed = words(enumerate_ssyt(lam, m))
            assert listed == sorted(set(listed)), (lam, m)
            assert len(listed) == len(oracles.ssyt_brute(lam.parts, m))
        listed = words(enumerate_syt(lam))
        assert listed == sorted(set(listed)), lam
    with pytest.raises(ValueError, match="m must be nonnegative"):
        enumerate_ssyt(Partition((2,)), -1)


def test_syt_enumeration_examples():
    five = {str(t) for t in enumerate_syt(Partition((3, 2)))}
    assert five == {
        "1,2,3/4,5",
        "1,2,4/3,5",
        "1,2,5/3,4",
        "1,3,4/2,5",
        "1,3,5/2,4",
    }
    assert len(enumerate_syt(Partition((6,)))) == 1
    assert len(enumerate_syt(Partition((2, 2, 1)))) == 5


def test_syt_enumeration_matches_the_oracle():
    for n in range(8):
        for lam in partitions(n):
            got = {t.rows for t in enumerate_syt(lam)}
            assert got == set(oracles.syt_brute(lam.parts)), lam


def test_syt_counts_match_hook_length_formula():
    for lam in shapes_upto(8):
        assert len(enumerate_syt(lam)) == lam.hook_length_count()


def test_qyt_enumeration_figure_counts():
    def listed(parts, m):
        return {str(Tableau(rows)) for rows in oracles.qyt_exact_brute(parts, m)}

    assert listed((2, 2, 1), 3) == {"1,1/2,2/3", "1,1/2,3/3", "1,2/2,3/3"}
    assert listed((2, 2, 1), 4) == {"1,2/2,3/4", "1,3/2,4/3"}
    assert listed((5,), 1) == {"1,1,1,1,1"}
    assert [qyt_count_exact((2, 2, 1), m) for m in (3, 4)] == [3, 2]
    assert qyt_count_exact((5,), 1) == 1


def test_qyt_predicate_on_example_fillings():
    good = Tableau(((1, 2, 2, 4), (2, 3), (4,)))
    bad = Tableau(((1, 2, 2, 5), (3, 3), (4,)))
    assert good.is_quasi_yamanouchi()
    assert not bad.is_quasi_yamanouchi()


def test_destandardization_bijection():
    for lam in shapes_upto(7):
        syt = enumerate_syt(lam)
        images = [t.destandardize() for t in syt]
        assert len(set(images)) == len(syt)  # injectivity
        for t, q in zip(syt, images):
            assert q.is_quasi_yamanouchi()
            assert max(map(max, q.rows)) == len(t.descent_set()) + 1  # one per run
            assert q.standardize() == t  # inverse
        # surjectivity onto quasi-Yamanouchi fillings of any max entry
        n = lam.size
        all_qyt = {
            rows for m in range(1, n + 1) for rows in oracles.qyt_exact_brute(lam.parts, m)
        }
        assert {q.rows for q in images} == all_qyt


def test_refinement_by_descents():
    for lam in shapes_upto(7):
        n = lam.size
        for k in range(1, n + 1):
            by_descents = sum(1 for t in enumerate_syt(lam) if len(t.descent_set()) == k - 1)
            assert qyt_count_exact(lam, k) == by_descents
        assert sum(qyt_count_exact(lam, k) for k in range(n + 1)) == lam.hook_length_count()


def test_des_maj_counts_match_enumeration():
    for n in range(10):
        for lam in partitions(n):
            tally = Counter((len(d), sum(d)) for d in map(Tableau.descent_set, enumerate_syt(lam)))
            assert _des_maj_counts(lam) == tuple(sorted(tally.items()))
    assert _des_maj_counts(Partition(())) == (((0, 0), 1),)
    assert _des_maj_counts((2, 1)) == (((1, 1), 1), ((1, 2), 1))
    # the lattice is walked level by level, so size is not bounded by
    # the interpreter's recursion limit
    assert _des_maj_counts((1500,)) == (((0, 0), 1),)
    assert _des_maj_counts((1,) * 1500) == (((1499, 1499 * 1500 // 2), 1),)


def test_des_maj_counts_match_oracle():
    for n in range(7):
        for lam in partitions(n):
            tally = Counter()
            for rows in oracles.syt_brute(lam.parts):
                dset = oracles.descents_of_standard(rows)
                tally[(len(dset), sum(dset))] += 1
            assert _des_maj_counts(lam) == tuple(sorted(tally.items()))


def test_descent_counts_are_the_des_marginal_of_the_maj_tallies():
    # the walk at width 0, once over every shape of size 1..12, against
    # each shape's own walk at its maj width
    for n, tallies in enumerate(descent_levels(0, partitions(12)), 1):
        assert tallies.keys() == {lam.parts for lam in partitions(n)}
        for lam in partitions(n):
            marginal = [0] * n
            for (d, _), c in _des_maj_counts(lam):
                marginal[d] += c
            assert tallies[lam.parts] == marginal, lam
    assert n == 12


@pytest.mark.parametrize("with_q", [True, False])
def test_gen_fn_matches_enumeration(with_q):
    for n in range(1, 8):
        expansion = gen_fn(n, with_q=with_q)
        for lam in partitions(n):
            tally = Counter((sum(d) if with_q else 0, len(d))
                            for d in map(Tableau.descent_set, enumerate_syt(lam)))
            assert expansion[lam].triples() == sorted(
                [qd, td, c] for (qd, td), c in tally.items()), lam


def test_qyt_counts_match_oracle():
    for lam in shapes_upto(5):
        n = lam.size
        assert qyt_counts(lam) == [len(oracles.qyt_exact_brute(lam.parts, m)) for m in range(n + 1)]
    # the empty filling is the one filling of the empty shape; its largest entry is 0
    assert qyt_counts(Partition(())) == [1]
    assert qyt_count_exact(Partition(()), 1) == 0


def test_destandardize_examples():
    row = enumerate_syt(Partition((4,)))[0]
    assert row.destandardize().rows == ((1, 1, 1, 1),)
    t = Tableau(((1, 2), (3, 4), (5,)))
    assert t.destandardize() == Tableau(((1, 1), (2, 2), (3,)))


def test_standardize_example():
    q = Tableau(((1, 2), (2, 3), (4,)))
    s = q.standardize()
    assert s == Tableau(((1, 3), (2, 4), (5,)))
    assert s.destandardize() == q


def test_descent_set_and_runs_example():
    t = Tableau(((1, 2, 3, 6, 8), (4, 5, 7, 11), (9, 10, 12)))
    assert t.descent_set() == {3, 6, 8, 11}
    assert oracles.charge_brute(t.rows) == 20
    # the runs 1-3, 4-6, 7-8, 9-11 and 12 are relabelled 1..5
    assert t.destandardize().rows == ((1, 1, 1, 2, 3), (2, 2, 3, 4), (4, 4, 5))
    row = Tableau(((1, 2, 3, 4),))
    assert row.descent_set() == set()
    assert oracles.charge_brute(row.rows) == 0
    col = Tableau(((1,), (2,), (3,)))
    assert col.descent_set() == {1, 2}


def test_stats_agree_through_standardization():
    # a quasi-Yamanouchi filling carries the statistics of its standardization
    for lam in shapes_upto(6):
        for t in enumerate_syt(lam):
            q = t.destandardize()
            assert q.descent_set() == t.descent_set()


def test_destandardized_weight_marks_the_descents():
    # the partial sums of the weight of the destandardized filling are the
    # descent set, so the genfun suite's truncated-fundamental check may
    # read that set off the standard filling's rows (tableau.descent_mask)
    for lam in shapes_upto(8):
        n = lam.size
        for t in enumerate_syt(lam):
            dset = oracles.descents_of_standard(t.rows)
            q = t.destandardize().rows
            weight = [sum(row.count(v) for row in q) for v in range(1, max(map(max, q)) + 1)]
            assert set(accumulate(weight[:-1])) == dset
            assert descent_mask(t.rows, n) == sum(1 << (i - 1) for i in dset)
            assert t.descent_set() == dset


def test_charge_is_comajor():
    for lam in shapes_upto(6):
        n = lam.size
        for t in enumerate_syt(lam):
            assert oracles.charge_brute(t.rows) == sum(n - i for i in t.descent_set())


def test_kostka_examples():
    for lam in shapes_upto(5):
        assert kostka(lam, lam) == 1
    assert kostka(Partition((2, 1)), (1, 1, 1)) == 2
    assert kostka(Partition((3, 2)), (2, 2, 1)) == 2
    assert kostka(Partition((2, 2)), (3, 1)) == 0


def _compositions(n):
    for size in range(n):
        for cuts in combinations(range(1, n), size):
            bounds = (0, *cuts, n)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("shape,weight", [((2,), (3, -1)), ((1, 1), (3, -1))])
def test_kostka_rejects_negative_weights(shape, weight):
    with pytest.raises(ValueError, match="nonnegative"):
        kostka(Partition(shape), weight)


def test_kostka_matches_oracle():
    # every composition of n <= 6 as weight, as it is and with one zero
    # part put in at each place; the oracle's fillings in len(weight)
    # values are tallied by weight once, which is kostka_brute for every
    # weight of that length at once
    for n in range(7):
        weights = [
            w
            for alpha in (_compositions(n) if n else [()])
            for w in [alpha, *(alpha[:i] + (0,) + alpha[i:] for i in range(len(alpha) + 1))]
        ]
        for nu in partitions(n):
            by_weight = {}
            for w in weights:
                m = len(w)
                if m not in by_weight:
                    by_weight[m] = Counter(
                        tuple(sum(row.count(v) for row in rows) for v in range(1, m + 1))
                        for rows in oracles.ssyt_brute(nu.parts, m)
                    )
                assert kostka(nu, w) == by_weight[m][w], (nu, w)
    assert kostka(Partition((3, 2)), (2, 0, 2, 1)) == oracles.kostka_brute((3, 2), (2, 0, 2, 1))
    assert kostka(Partition((2, 1)), (1, 1)) == 0  # sizes differ
