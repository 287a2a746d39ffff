import json
from math import factorial

import pytest

from qyt.partition import Partition, partitions
from qyt.tableau import Tableau, enumerate_syt, qyt_count_exact
from qyt.verify import (
    SUITES,
    SuiteReport,
    foulkes_multiplicity,
    jack_coefficient,
    polya_dimension_check,
    ribbon_rows,
    signature_of,
    verify_charge_hit,
    verify_foulkes,
    verify_genfun,
    verify_gjw,
    verify_hit,
    verify_jack,
    verify_lattice,
    verify_maj_hit,
    verify_polya,
    verify_summation,
)


# Suites at reduced bounds, to exercise the machinery quickly; the
# acceptance module runs them at their documented bounds.
@pytest.mark.parametrize(
    "suite,kwargs",
    [
        (verify_hit, {"max_n": 5}),
        (verify_maj_hit, {"max_n": 5}),
        (verify_charge_hit, {"max_n": 5}),
        (verify_summation, {"max_n": 6}),
        (verify_lattice, {"max_n": 5, "points": 50}),
        (verify_genfun, {"max_n": 4}),
        (verify_gjw, {"max_n": 5}),
        (verify_foulkes, {"max_n": 6}),
        (verify_polya, {"max_n": 5, "max_m": 4}),
        (verify_jack, {"max_n": 5}),
    ],
)
def test_suites_pass_at_reduced_bounds(suite, kwargs):
    report = suite(**kwargs)
    assert report.passed, report.counterexample
    assert report.counterexample is None
    assert report.ms >= 0
    for key, value in kwargs.items():
        assert report.bounds[key] == value
    json.dumps(report.to_json())  # serializable


def test_gjw_reports_product_route_disagreement(monkeypatch):
    from qyt.board import FerrersBoard
    from qyt.qpoly import QPoly

    solve = FerrersBoard.q_hit_numbers

    def off_by_q(self, limit=None):
        T = solve(self, limit)
        return T[:-1] + [T[-1] + QPoly((0, 1))]

    monkeypatch.setattr(FerrersBoard, "q_hit_numbers", off_by_q)
    report = verify_gjw(max_n=2)
    assert report.status == "fail"
    assert report.counterexample["check"] == "product-route"
    assert report.counterexample["board"] == "n=1; heights=0"
    assert report.counterexample["lhs"] == ["1", "q"]
    assert report.counterexample["rhs"] == ["1", "0"]


def test_gjw_catches_a_weight_moved_in_the_census(monkeypatch):
    from qyt import _kernels

    census = _kernels.q_hit_census

    def faulty(n, heights):
        counts = census(n, heights)
        if tuple(heights) == (2, 2, 2):  # the board of shape 3
            k = next(k for k, row in enumerate(counts) if any(row[:-1]))
            w = next(w for w, c in enumerate(counts[k][:-1]) if c)
            counts[k][w] -= 1
            counts[k][w + 1] += 1
        return counts

    monkeypatch.setattr(_kernels, "q_hit_census", faulty)
    report = verify_gjw(max_n=3)
    assert report.status == "fail"
    assert report.counterexample["board"] == "n=3; heights=2,2,2"


def _move_one_filling(monkeypatch, dd, dm):
    """Make the (des, maj) dynamic program report one standard filling of
    shape 2,1 at (des + dd, maj + dm), under every name verify reaches it
    by: its own binding, the tableau module's, which qyt_counts reads, and
    the symfun module's, which gen_fn reads."""
    from collections import Counter

    import qyt.symfun
    import qyt.tableau
    import qyt.verify

    true_counts = qyt.tableau.des_maj_counts

    def faulty(shape):
        tally = true_counts(shape)
        if Partition(shape) != Partition((2, 1)):
            return tally
        moved = Counter(dict(tally))
        (d, mj), _ = tally[0]
        moved[(d, mj)] -= 1
        moved[(d + dd, mj + dm)] += 1
        return tuple(sorted((k, c) for k, c in moved.items() if c))

    monkeypatch.setattr(qyt.tableau, "des_maj_counts", faulty)
    monkeypatch.setattr(qyt.verify, "des_maj_counts", faulty)
    monkeypatch.setattr(qyt.symfun, "des_maj_counts", faulty)


@pytest.mark.parametrize(
    "suite,kwargs",
    [
        (verify_summation, {"max_n": 3}),
        (verify_hit, {"max_n": 3}),
        (verify_lattice, {"max_n": 3, "points": 10}),
        (verify_jack, {"max_n": 3}),
    ],
)
def test_suites_catch_a_descent_moved_in_the_dp(monkeypatch, suite, kwargs):
    _move_one_filling(monkeypatch, dd=1, dm=0)
    report = suite(**kwargs)
    assert report.status == "fail"
    assert report.counterexample["shape"] == "2,1"


@pytest.mark.parametrize("suite", [verify_maj_hit, verify_charge_hit])
def test_suites_catch_a_maj_moved_in_the_dp(monkeypatch, suite):
    _move_one_filling(monkeypatch, dd=0, dm=1)
    report = suite(max_n=3)
    assert report.status == "fail"
    assert report.counterexample["check"] == "refinement"
    assert report.counterexample["shape"] == "2,1"


@pytest.mark.parametrize("dd,dm", [(1, 0), (0, 1)])
def test_genfun_checks_gen_fn_against_the_permutation_side(monkeypatch, dd, dm):
    _move_one_filling(monkeypatch, dd=dd, dm=dm)
    report = verify_genfun(max_n=3)
    assert report.status == "fail"
    assert report.counterexample == {"check": "fundamental", "n": 3}


def test_report_shape():
    report = SuiteReport("demo", {"max_n": 3}, "fail", {"shape": "2,1"}, 12)
    assert not report.passed
    blob = report.to_json()
    assert blob["status"] == "fail"
    assert blob["counterexample"] == {"shape": "2,1"}
    assert set(blob) == {"suite", "bounds", "status", "counterexample", "ms"}


def test_registry_is_complete():
    assert set(SUITES) == {
        "hit", "maj-hit", "charge-hit", "summation", "lattice",
        "genfun", "gjw", "foulkes", "polya", "jack",
    }


def test_maj_refinement_hand_computed_instance():
    # shape (2,1): both standard fillings have one descent, at 2 and at 1,
    # so the k=1 major-index sum is q + q^2 and the hook polynomial is
    # [3][1][1] = 1 + q + q^2.  The raised board of (2,1) has heights
    # (2,2,2), every permutation of S_3 hits it exactly twice, and the
    # circle weights distribute as [3]!.  With n(2,1) = 1 the identity
    # reads (q + q^2)(1 + q + q^2) == q * [3]!.
    from qyt.board import FerrersBoard
    from qyt.qpoly import QPoly, q_fact

    board = FerrersBoard.from_partition(Partition((2, 1))).plus_one()
    assert board.heights == (2, 2, 2)
    T = board.q_hit_numbers()
    assert T[2] == q_fact(3)
    lhs = QPoly((0, 1, 1)) * QPoly((1, 1, 1))
    assert lhs == T[2].shift(1)
    assert lhs == QPoly((0, 1, 2, 2, 1))


def test_charge_refinement_hand_computed_instance():
    # same shape: charge values are 1 and 2, the board of the conjugate
    # (2,1) has heights (1,1,1), every permutation hits it exactly once,
    # and with n(conjugate) = 1, C(3,2) = 3 the identity reads
    # (q + q^2)(1 + q + q^2) q^3 == q^(3+1) [3]!.
    from qyt.board import FerrersBoard
    from qyt.qpoly import QPoly, q_fact

    board = FerrersBoard.from_partition(Partition((2, 1)))
    assert board.heights == (1, 1, 1)
    T = board.q_hit_numbers()
    assert T[1] == q_fact(3)
    lhs = (QPoly((0, 1, 1)) * QPoly((1, 1, 1))).shift(3)
    assert lhs == T[1].shift(3 * 1 + 1)


def test_signature_of_words_and_tableaux():
    assert signature_of((4, 5, 3, 1, 2)) == "+--+"
    assert signature_of((1, 2, 3)) == "++"
    t = Tableau(((1, 2, 3, 6, 8), (4, 5, 7, 11), (9, 10, 12)))
    assert signature_of(t) == "++-++-+-++-"


def test_ribbon_rows_examples():
    assert ribbon_rows("++-++-+-++-") == (3, 3, 2, 3, 1)
    assert ribbon_rows("+" * 7) == (8,)
    assert ribbon_rows("-" * 4) == (1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        ribbon_rows("+x-")


def test_ribbon_total_size():
    # a length-(n-1) signature always traces a ribbon of n cells
    for sigma in ["++-++-+-++-", "+", "-", "+-+-", "---+++"]:
        assert sum(ribbon_rows(sigma)) == len(sigma) + 1


def test_foulkes_multiplicity_examples():
    assert foulkes_multiplicity(5, 3, Partition((3, 2))) == 2
    for n in range(2, 7):
        assert foulkes_multiplicity(n, n - 1, Partition((n,))) == 1
        for lam in partitions(n):
            if lam != Partition((n,)):
                assert foulkes_multiplicity(n, n - 1, lam) == 0
    with pytest.raises(ValueError):
        foulkes_multiplicity(4, 1, Partition((3, 2)))


def test_foulkes_multiplicity_counts_signatures():
    for n in range(1, 6):
        for lam in partitions(n):
            for k in range(n):
                direct = sum(
                    1
                    for t in enumerate_syt(lam)
                    if signature_of(t).count("+") == k
                )
                assert foulkes_multiplicity(n, k, lam) == direct
                assert direct == qyt_count_exact(lam, n - k)


def test_polya_examples():
    for m in range(1, 11):
        assert polya_dimension_check(1, m)
        assert polya_dimension_check(2, m)
    assert polya_dimension_check(5, 3)


def test_jack_coefficient_examples():
    for n in range(1, 7):
        column = Partition((1,) * n)
        assert jack_coefficient(column, 0) == factorial(n)
        row = Partition((n,))
        for k in range(n):
            expected = factorial(n) if k == n - 1 else 0
            assert jack_coefficient(row, k) == expected
    table = [jack_coefficient(Partition((2, 2, 1)), k) for k in range(5)]
    assert table == [0, 240, 360, 0, 0]
