import json
from math import factorial

import pytest

import qyt.verify
from qyt.board import FerrersBoard
from qyt.partition import Partition, partitions
from qyt.tableau import Tableau, enumerate_syt, qyt_count_exact
from qyt.qpoly import QTPoly
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

import oracles


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


def test_suites_bind_their_arguments_like_plain_functions():
    from qyt.pnk import DEFAULT_SEED

    with pytest.raises(TypeError):
        verify_hit(5, 6)
    with pytest.raises(TypeError):
        verify_hit(5, max_n=6)
    with pytest.raises(TypeError):
        verify_lattice(bogus=1)
    with pytest.raises(ValueError, match="^max_m must be at least 1, got 0$"):
        verify_polya(max_m=0)
    # only max_* bounds are guarded; every bound is reported, in order
    report = verify_lattice(max_n=3, points=0)
    assert report.passed, report.counterexample
    assert list(report.bounds.items()) == [
        ("max_n", 3), ("points", 0), ("seed", DEFAULT_SEED)]
    assert verify_polya(4).bounds == {"max_n": 4, "max_m": 5}


def test_gjw_reports_product_route_disagreement(monkeypatch):
    from qyt.board import FerrersBoard
    from qyt.qpoly import QPoly

    solve = FerrersBoard.q_hit_numbers

    def off_by_q(self):
        T = solve(self)
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


@pytest.mark.parametrize("sign", [-1, 1])
def test_gjw_catches_counts_that_cancel_at_the_honest_width(monkeypatch, sign):
    # An honest census of board 2,2,2 needs W = bits(5 * 4 * 3) + 1 = 7
    # bits per slot.  Moving 2^W out of (into) slot w = 0 and one unit
    # into (out of) w = 1 leaves every value at q = 2^W unchanged, so a
    # fixed width would miss both faults: a negative count (sign -1) and
    # a count of 2^W or more (sign +1).
    from math import prod

    from qyt import _kernels

    heights = (2, 2, 2)
    width = prod(3 + h - i + 1 for i, h in enumerate(heights, 1)).bit_length() + 1
    assert width == 7
    census = _kernels.q_hit_census

    def faulty(n, hs):
        counts = census(n, hs)
        if tuple(hs) == heights:
            counts[2][0] += sign * 2**width
            counts[2][1] -= sign
        return counts

    monkeypatch.setattr(_kernels, "q_hit_census", faulty)
    report = verify_gjw(max_n=3)
    assert report.status == "fail"
    assert report.counterexample["check"] in ("mahonian", "product-identity")
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


def test_genfun_catches_a_raised_schur_coefficient(monkeypatch):
    import qyt.verify

    true_schur = qyt.verify.schur_truncated

    def faulty(shape, n_vars):
        out = true_schur(shape, n_vars)
        if Partition(shape) == Partition((2, 1)):
            out.add_term((1, 1, 1), 1)
        return out

    monkeypatch.setattr(qyt.verify, "schur_truncated", faulty)
    report = verify_genfun(max_n=3)
    assert report.status == "fail"
    assert report.counterexample["n"] == 3


def test_genfun_checks_q1_against_the_path_counts(monkeypatch):
    import qyt.verify

    true_counts = qyt.verify.qyt_counts_via_pnk
    monkeypatch.setattr(qyt.verify, "qyt_counts_via_pnk",
                        lambda shape: true_counts(shape)[1:] + [0])
    report = verify_genfun(max_n=3)
    assert report.status == "fail"
    assert report.counterexample == {"check": "q1-specialization", "shape": "1"}


@pytest.mark.parametrize("suite,check", [
    (verify_lattice, "theorem"),
    (verify_jack, "path-route"),
])
def test_suites_catch_a_path_count_moved_up_one_k(monkeypatch, suite, check):
    import qyt.verify

    true_counts = qyt.verify.qyt_counts_via_pnk

    def faulty(shape):
        counts = true_counts(shape)
        if Partition(shape) == Partition((2, 1)):
            k = next(k for k, c in enumerate(counts) if c)
            counts[k] -= 1
            counts[k + 1] += 1
        return counts

    monkeypatch.setattr(qyt.verify, "qyt_counts_via_pnk", faulty)
    report = suite(max_n=3)
    assert report.status == "fail"
    assert report.counterexample["check"] == check
    assert report.counterexample["shape"] == "2,1"


def _count_calls(monkeypatch, module, name):
    calls = []
    true_fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return true_fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_lattice_builds_the_elementary_values_once_per_shape(monkeypatch):
    import qyt.pnk

    calls = _count_calls(monkeypatch, qyt.pnk, "elementary_values")
    report = verify_lattice(max_n=9, points=0)
    assert report.passed, report.counterexample
    shapes = sum(1 for n in range(1, 10) for _ in partitions(n))
    assert shapes == 96
    assert len(calls) == shapes


def test_foulkes_reads_the_des_maj_tally_at_most_once_per_shape(monkeypatch):
    import qyt.verify

    calls = _count_calls(monkeypatch, qyt.verify, "des_maj_counts")
    report = verify_foulkes(max_n=9)
    assert report.passed, report.counterexample
    assert len(calls) <= sum(1 for n in range(1, 10) for _ in partitions(n))


def test_jack_reads_the_des_maj_tally_at_most_once_per_shape(monkeypatch):
    import qyt.tableau

    calls = _count_calls(monkeypatch, qyt.tableau, "des_maj_counts")
    report = verify_jack(max_n=9)
    assert report.passed, report.counterexample
    assert len(calls) <= sum(1 for n in range(1, 10) for _ in partitions(n))


def test_content_tally_matches_the_word_listing():
    from qyt.verify import _content_tally

    for n in range(1, 8):
        for shape in partitions(n):
            want = QTPoly(oracles.word_stats_brute(shape.parts))
            assert _content_tally(shape.parts) == want, shape


def test_inverse_descent_tally_matches_an_s_n_sweep():
    from qyt.verify import _inverse_descent_tally

    for n in range(1, 8):
        want = {
            sum(1 << (j - 1) for j in inv): QTPoly(c)
            for inv, c in oracles.inverse_descent_brute(n).items()
        }
        assert _inverse_descent_tally(n) == want, n


def test_genfun_catches_a_maj_moved_in_one_content(monkeypatch):
    import qyt.verify

    true_tally = qyt.verify._content_tally

    def faulty(parts):
        tally = true_tally(parts)
        if parts == (2, 1):
            (mj, d), _ = sorted(tally.coeffs.items())[0]
            tally = tally - QTPoly.term(mj, d) + QTPoly.term(mj + 1, d)
        return tally

    monkeypatch.setattr(qyt.verify, "_content_tally", faulty)
    report = verify_genfun(max_n=4)
    assert report.status == "fail"
    assert report.counterexample == {"check": "monomial", "n": 3}


@pytest.mark.parametrize("dd,dm", [(1, 0), (0, 1)])
def test_genfun_catches_an_entry_moved_in_the_placed_set_tally(monkeypatch, dd, dm):
    import qyt.verify

    true_tally = qyt.verify._inverse_descent_tally

    def faulty(n):
        tally = true_tally(n)
        if n == 4:
            mask = max(tally)
            (mj, d), _ = sorted(tally[mask].coeffs.items())[0]
            tally[mask] = (tally[mask] - QTPoly.term(mj, d)
                           + QTPoly.term(mj + dm, d + dd))
        return tally

    monkeypatch.setattr(qyt.verify, "_inverse_descent_tally", faulty)
    report = verify_genfun(max_n=5)
    assert report.status == "fail"
    assert report.counterexample == {"check": "fundamental", "n": 4}


@pytest.mark.parametrize("nu,lam,check,shape", [
    ((2, 1), (1, 1, 1), "kostka-lemma", "1,1,1"),   # read by the lemma
    ((1, 1, 1), (2, 1), "triangularity", "1,1,1"),  # nu does not dominate lam
])
def test_genfun_catches_a_raised_kostka_number(monkeypatch, nu, lam, check, shape):
    import qyt.verify

    true_kostka = qyt.verify.kostka

    def faulty(shape, weight):
        k = true_kostka(shape, weight)
        return k + 1 if (shape.parts, weight.parts) == (nu, lam) else k

    monkeypatch.setattr(qyt.verify, "kostka", faulty)
    report = verify_genfun(max_n=4)
    assert report.status == "fail"
    assert report.counterexample["check"] == check
    assert report.counterexample["shape"] == shape


def test_genfun_catches_an_insertion_with_mismatched_shapes(monkeypatch):
    import qyt.verify

    true_insert = qyt.verify.row_insert

    def faulty(word):
        P, Q = true_insert(word)
        if tuple(word) == (2, 1, 3):
            Q = ((1, 2, 3),)
        return P, Q

    monkeypatch.setattr(qyt.verify, "row_insert", faulty)
    report = verify_genfun(max_n=4)
    assert report.status == "fail"
    assert report.counterexample == {"check": "rsk-shapes", "perm": [2, 1, 3]}


def test_genfun_catches_an_insertion_that_merges_two_permutations(monkeypatch):
    import qyt.verify

    true_insert = qyt.verify.row_insert

    def faulty(word):
        # 132 and 312 share P = 12/3 but not Q; send 312 to 132's pair
        return true_insert((1, 3, 2) if tuple(word) == (3, 1, 2) else word)

    monkeypatch.setattr(qyt.verify, "row_insert", faulty)
    report = verify_genfun(max_n=4)
    assert report.status == "fail"
    assert report.counterexample == {"check": "rsk-bijection", "perm": [3, 1, 2]}


@pytest.mark.parametrize("word, recording", [
    ((2, 1, 3), ((1, 1), (3,))),  # a label repeated, one missing
    ((2, 1), ((2,), (1,))),  # labels 1..n, but not a standard filling
])
def test_genfun_reports_a_recording_that_cannot_be_inverted(monkeypatch, word, recording):
    import qyt.verify

    true_insert = qyt.verify.row_insert

    def faulty(w):
        P, Q = true_insert(w)
        return P, (recording if tuple(w) == word else Q)

    monkeypatch.setattr(qyt.verify, "row_insert", faulty)
    report = verify_genfun(max_n=4)
    assert report.status == "fail"
    assert report.counterexample == {"check": "rsk-bijection", "perm": list(word)}


def _when(match, change):
    """A fault for a function or method: `change(result, *args)` in place
    of the true result on the calls whose arguments satisfy `match`."""
    def make(true):
        def faulty(*args):
            out = true(*args)
            return change(out, *args) if match(*args) else out
        return faulty
    return make


def _bumped(table, k, m):
    out = [row[:] for row in table]
    out[k][m] += 1
    return out


def _always(*args):
    return True


_P21 = Partition((2, 1))


# One row per named check that no other test here makes fail.  Each row
# injects one fault through one module seam and names the check that
# must report it, with the shape, board or instance when the
# counterexample names one.  A row's bounds keep every check that runs
# before its target from meeting the fault: the lattice rows at
# max_n = 1 sample only n = 1 in path-vs-ebasis, and points = 0 skips
# the sampled checks altogether.
MUTATIONS = [
    pytest.param(
        verify_genfun, {"max_n": 3}, qyt.verify, "enumerate_syt",
        _when(lambda shape: shape == _P21, lambda out, shape: out[:-1]),
        {"check": "truncated-fundamental", "shape": "2,1", "vars": 2},
        id="truncated-fundamental"),
    pytest.param(
        verify_genfun, {"max_n": 3}, qyt.verify, "q_fact",
        _when(lambda n: n == 3, lambda out, n: out.shift(1)),
        {"check": "t1-specialization", "shape": "3"},
        id="t1-specialization"),
    pytest.param(
        verify_lattice, {"max_n": 3}, qyt.verify, "a_coeffs",
        _when(lambda n, k: (n, k) == (2, 1), lambda out, n, k: (*out[:-1], out[-1] + 1)),
        {"check": "closed-forms", "n": 2, "k": 1},
        id="closed-forms"),
    pytest.param(
        verify_lattice, {"max_n": 3}, qyt.verify, "a_table",
        _when(lambda n: n == 4, lambda out, n: _bumped(out, 1, 1)),
        {"check": "triangle-rows", "n": 4},
        id="triangle-rows"),
    pytest.param(
        verify_lattice, {"max_n": 3}, qyt.verify, "a_table",
        _when(lambda n: n == 2, lambda out, n: _bumped(out, 0, 0)),
        {"check": "eulerian-base", "n": 2, "k": 0},
        id="eulerian-base"),
    pytest.param(
        verify_lattice, {"max_n": 3}, qyt.verify, "a_table",
        _when(lambda n: n == 2, lambda out, n: _bumped(out, 2, 1)),
        {"check": "row-sums", "n": 2, "m": 1},
        id="row-sums"),
    pytest.param(
        verify_lattice, {"max_n": 3, "points": 10}, qyt.verify, "pnk_eval_ebasis",
        _when(_always, lambda out, *args: out + 1),
        {"check": "path-vs-ebasis"},
        id="path-vs-ebasis"),
    pytest.param(
        verify_lattice, {"max_n": 1, "points": 50}, qyt.verify, "pnk_eval_paths",
        _when(lambda n, k, xs: n >= 2, lambda out, n, k, xs: out + xs[0]),
        {"check": "symmetry"},
        id="symmetry"),
    pytest.param(
        verify_lattice, {"max_n": 1, "points": 0}, qyt.verify, "pnk_eval_paths",
        _when(lambda n, k, xs: n >= 2, lambda out, n, k, xs: out + xs[0]),
        {"check": "symmetry-exhaustive"},
        id="symmetry-exhaustive"),
    pytest.param(
        verify_lattice, {"max_n": 1, "points": 50}, qyt.verify, "pnk_eval_ebasis",
        _when(lambda n, k, xs: n == 3, lambda out, *args: out + 1),
        {"check": "recursion"},
        id="recursion"),
    pytest.param(
        verify_lattice, {"max_n": 3, "points": 0}, Partition, "hook_length_count",
        _when(lambda shape: shape == _P21, lambda out, shape: out + 1),
        {"check": "hook-recovery", "shape": "2,1"},
        id="hook-recovery"),
    pytest.param(
        verify_gjw, {"max_n": 3}, FerrersBoard, "complement_rotated",
        _when(_always, lambda out, board: board),
        {"check": "complement", "shape": "1"},
        id="complement"),
    pytest.param(
        # a filling with n descents, which no k < n of the refinement reads
        verify_maj_hit, {"max_n": 3}, qyt.verify, "des_maj_counts",
        _when(lambda shape: shape == _P21, lambda out, shape: (*out, ((3, 0), 1))),
        {"check": "hook-length-q-analogue", "shape": "2,1"},
        id="hook-length-q-analogue"),
    pytest.param(
        verify_jack, {"max_n": 3}, FerrersBoard, "hit_numbers",
        _when(lambda board: board == FerrersBoard.from_partition(_P21),
              lambda out, board: [h + 1 for h in out]),
        {"check": "hit-route", "shape": "2,1", "k": 0},
        id="hit-route"),
    pytest.param(
        verify_foulkes, {"max_n": 3}, qyt.verify, "_descent_tally",
        _when(lambda shape: shape == _P21,
              lambda out, shape: {d + 1: c for d, c in out.items()}),
        {"shape": "2,1"},
        id="foulkes"),
    pytest.param(
        verify_polya, {"max_n": 3, "max_m": 3}, qyt.verify, "qyt_counts",
        _when(lambda shape: shape == _P21, lambda out, shape: [0, *out[:-1]]),
        {"n": 3, "m": 2},
        id="polya"),
]


@pytest.mark.parametrize("suite,kwargs,owner,name,fault,expected", MUTATIONS)
def test_each_check_fails_under_a_fault(monkeypatch, suite, kwargs, owner, name,
                                        fault, expected):
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    report = suite(**kwargs)
    assert report.status == "fail"
    assert {key: report.counterexample.get(key) for key in expected} == expected


def test_genfun_lists_no_words_and_builds_each_kostka_number_once(monkeypatch):
    import qyt.perm
    import qyt.symfun
    import qyt.verify

    listed = []
    true_multiset_perms = qyt.perm.multiset_perms

    def counted(content):
        for word in true_multiset_perms(content):
            listed.append(word)
            yield word

    for module in (qyt.perm, qyt.symfun, qyt.verify):
        monkeypatch.setattr(module, "multiset_perms", counted, raising=False)
    perm_calls = _count_calls(monkeypatch, qyt.verify, "perms")
    kostka_calls = _count_calls(monkeypatch, qyt.verify, "kostka")
    report = verify_genfun(max_n=6)
    assert report.passed, report.counterexample
    # only monomial_truncated lists words: the distinct rearrangements of
    # each partition's parts, that is every composition of n once
    assert len(listed) == sum(2 ** (n - 1) for n in range(1, 7))
    assert perm_calls == [(n,) for n in range(1, 7)]
    assert len(kostka_calls) == len(set(kostka_calls))


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
