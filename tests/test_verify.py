import json
from math import factorial

import pytest

import qyt.board
import qyt.cli
import qyt.qpoly
import qyt.symfun
import qyt.tableau
import qyt.verify
from qyt import _kernels
from qyt.board import FerrersBoard
from qyt.partition import Partition, partitions
from qyt.qpoly import Packed, pack, q_table_at, slot_width, unpack
from qyt.tableau import Tableau, enumerate_syt, qyt_count_exact
from qyt.verify import (
    SUITES,
    SuiteReport,
    jack_coefficient,
    ribbon_rows,
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


def _count_calls(monkeypatch, module, name):
    calls = []
    true_fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return true_fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_grid_path_rows_are_the_explicit_path_sums():
    from itertools import product

    from qyt.pnk import pnk_eval_paths
    from qyt.verify import _grid_path_rows

    # every 0/1 point of every n <= 7, in order, against the sum over
    # every path
    rows = list(_grid_path_rows(7))
    assert [x for x, _ in rows] == [x for n in range(1, 8) for x in product((0, 1), repeat=n)]
    for x, row in rows:
        assert row == [pnk_eval_paths(len(x), k, x) for k in range(len(x) + 1)], x


def test_lattice_builds_the_elementary_values_once_per_shape(monkeypatch):
    import qyt.pnk

    calls = _count_calls(monkeypatch, qyt.pnk, "elementary_values")
    report = verify_lattice(max_n=9, points=0)
    assert report.passed, report.counterexample
    shapes = sum(1 for n in range(1, 10) for _ in partitions(n))
    assert shapes == 96
    assert len(calls) == shapes


@pytest.mark.parametrize("suite,kwargs,walks", [
    pytest.param(verify_hit, {}, 1, id="hit"),
    pytest.param(verify_maj_hit, {}, 1, id="maj-hit"),
    pytest.param(verify_charge_hit, {}, 1, id="charge-hit"),
    pytest.param(verify_summation, {}, 1, id="summation"),
    # the path route against the walk is foulkes's check alone, and
    # the hit numbers against the walk hit's
    pytest.param(verify_lattice, {"points": 0}, 0, id="lattice"),
    pytest.param(verify_foulkes, {}, 1, id="foulkes"),
    pytest.param(verify_polya, {}, 1, id="polya"),
    pytest.param(verify_jack, {}, 0, id="jack"),
])
def test_each_counting_suite_walks_the_lattice_once(monkeypatch, suite, kwargs, walks):
    # the walk is counted wherever a module binds it: a call through
    # tableau (qyt_counts, descent_tallies) passes its module global, a
    # call from the suite body verify's
    through_tableau = _count_calls(monkeypatch, qyt.tableau, "descent_levels")
    through_verify = _count_calls(monkeypatch, qyt.verify, "descent_levels")
    report = suite(max_n=8, **kwargs)
    assert report.passed, report.counterexample
    assert len(through_tableau) + len(through_verify) == walks


def _read_rows(rows, width):
    """{(maj, des): count} of a tally by des whose rows are packed at
    q = 2^width, the counts read back slot by slot."""
    return {(e, d): c for d, row in enumerate(rows)
            for e, c in enumerate(unpack(row, width)) if c}


def _compositions(n):
    for mask in range(1 << (n - 1)):
        cuts = [0, *(j for j in range(1, n) if mask >> (j - 1) & 1), n]
        yield tuple(b - a for a, b in zip(cuts, cuts[1:]))


def test_content_tally_matches_the_word_listing():
    from qyt.verify import _content_tally

    # every content, not only the partitions the suite reads, at the
    # least width the tally allows and at a wider one, with the
    # binomials of the table of n at that width
    for n in range(1, 8):
        least = factorial(n).bit_length() + 1
        for content in _compositions(n):
            want = dict(oracles.word_stats_brute(content))
            for width in (least, least + 7):
                rows = _content_tally(content, width, q_table_at(n, width)[2])
                assert len(rows) == n
                assert _read_rows(rows, width) == want, (content, width)


def test_signed_row_is_the_product_of_one_minus_t_q_to_the_i():
    from math import comb

    from qyt.verify import _signed_row, _times_signed_row

    for n in range(1, 8):
        # prod_{i=0..n} (1 - t q^i) as {(t-degree, q-degree): coefficient}
        product = {(0, 0): 1}
        for i in range(n + 1):
            step = dict(product)
            for (d, e), c in product.items():
                step[d + 1, e + i] = step.get((d + 1, e + i), 0) - c
            product = step
        width = slot_width(2 ** (n + 1))
        got = _signed_row(n, width)
        assert len(got) == n + 1
        for d, value in enumerate(got):
            # the top q-degree at t^d is the sum of the d largest i
            top = comb(d, 2) + d * (n + 1 - d)
            want = [product.get((d, e), 0) for e in range(top + 1)]
            assert unpack(value, width) == want, (n, d)
        assert _signed_row(n, 0) == [(-1) ** j * comb(n + 1, j) for j in range(n + 1)]
        # (1 - t)^(n+1) times sum_k t^k is (1 - t)^n
        assert _times_signed_row(_signed_row(n, 0), [1] * (n + 1)) == [
            (-1) ** j * comb(n, j) for j in range(n + 1)]


def test_inverse_descent_tally_matches_an_s_n_sweep():
    from qyt.verify import _inverse_descent_tally

    for n in range(1, 8):
        want = {
            sum(1 << (j - 1) for j in inv): dict(c)
            for inv, c in oracles.inverse_descent_brute(n).items()
        }
        least = factorial(n).bit_length() + 1
        for width in (least, least + 7):
            tally = _inverse_descent_tally(n, width)
            assert all(len(rows) == n for rows in tally.values())
            got = {mask: _read_rows(rows, width) for mask, rows in tally.items()}
            assert got == want, (n, width)


def test_gen_fn_is_the_read_back_of_the_suites_packed_walk():
    from math import comb

    from qyt.symfun import gen_fn
    from qyt.tableau import descent_tallies

    # the suite's width and stride on honest inputs: W = bits(n!) + 1,
    # and the stride read off the rows is one more than C(n, 2)
    for n in range(1, 9):
        shapes = list(partitions(n))
        width = factorial(n).bit_length() + 1
        walk = descent_tallies(width, n)
        stride = 1 + max(abs(row).bit_length() // width
                         for rows in walk.values() for row in rows)
        assert stride == comb(n, 2) + 1
        want = gen_fn(n)
        for shape in shapes:
            packed = Packed(pack(walk[shape.parts], width * stride), width, stride)
            assert packed.triples() == want[shape].triples(), shape
            assert str(packed) == str(want[shape]), shape


def _when(match, change):
    """A fault for a function or method: `change(result, *args)` in place
    of the true result on the calls whose arguments satisfy `match`."""
    def make(true):
        def faulty(*args):
            out = true(*args)
            return change(out, *args) if match(*args) else out
        return faulty
    return make


def _added(table, changes):
    """A copy of the table of rows `table` with changes[k, m] added to
    entry (k, m)."""
    out = [row[:] for row in table]
    for (k, m), d in changes.items():
        out[k][m] += d
    return out


def _always(*args):
    return True


_P21 = Partition((2, 1))


def _p21(shape, *args):
    return Partition(shape) == _P21


def _on_board(target, change):
    """A fault for the census of a list of boards (_kernels.q_hit_census):
    change(rows) in place of the true rows of the board with heights
    `target`, and every other board's rows as they are."""
    def make(true):
        def faulty(n, boards):
            boards = [tuple(heights) for heights in boards]
            return [change(rows) if heights == target else rows
                    for heights, rows in zip(boards, true(n, boards))]
        return faulty
    return make


def _on_board_222(change):
    """_on_board of board 2,2,2, the raised board of shape 2,1."""
    return _on_board((2, 2, 2), change)


def _rook_variant(step=1, power=0):
    """board._rook_route written out again, with [h-k+step] in its
    recursion and q^(n-k+power) in its transform: step 1 and power 0
    are the route (test_rook_variants_are_the_route_but_one_factor)."""
    def route(heights, width):
        n = len(heights)
        ints, facts, _ = q_table_at(n, width)
        R = [1] + [0] * n
        for h in heights:
            for k in range(h, 0, -1):
                R[k] = (R[k] << width * (h - k)) + ints[h - k + step] * R[k - 1]
            R[0] <<= width * h
        T = [R[n]]
        for k in range(n - 1, -1, -1):
            shift = width * (n - k + power)
            T = [low - (high << shift) for low, high in zip([0, *T], [*T, 0])]
            T[0] += R[k] * facts[n - k]
        return T
    return lambda true: route


def _recording(word, Q):
    """row_insert gives `word` the recording Q."""
    return _when(lambda w: tuple(w) == word, lambda out, w: (out[0], Q))


def _fact_3(change):
    """A fault for the tables that verify reads (qpoly.q_table_at): the
    entry [3]! replaced by change([3]!, q) at the table's q, and every
    other entry as it is."""
    def make(true):
        def faulty(n, width):
            ints, facts, rows = true(n, width)
            if n >= 3:
                facts = (*facts[:3], change(facts[3], 1 << width), *facts[4:])
            return ints, facts, rows
        return faulty
    return make


# T_n + q on every board, at the width the rook route packs T at
_T_N_OFF_BY_Q = _when(_always, lambda out, board: (
    out[0], [*out[1][:-1], out[1][-1] + (1 << out[0])]))


def _walked(pairs):
    """A fault for the walk of Young's lattice (tableau.descent_levels):
    the tally of shape 2,1 in the level it is yielded in replaced by
    these ((des, maj), count) pairs, packed at the walk's width (at
    width 0 the maj drops out)."""
    def make(true):
        def faulty(width, top=None):
            for level in true(width, top):
                if _P21.parts in level:
                    tally = [0] * max(3, 1 + max(d for (d, _), _ in pairs))
                    for (d, mj), c in pairs:
                        tally[d] += c << (mj * width)
                    level = {**level, _P21.parts: tally}
                yield level
        return faulty
    return make


# The (des, maj) tally of shape 2,1 is ((1, 1), 1), ((1, 2), 1); these
# move the filling at (1, 1) up one descent or one maj, or both
# fillings up one descent.
_DES_MOVED = _walked((((1, 2), 1), ((2, 1), 1)))
_MAJ_MOVED = _walked((((1, 2), 2),))
_BOTH_DES_RAISED = _walked((((2, 1), 1), ((2, 2), 1)))
# The path counts of shape 2,1 are [0, 2, 0, 0]; move one up one k.
_PATH_MOVED = _when(_p21, lambda out, shape: [0, 1, 1, 0])
# The hit numbers of the board of shape 2,1, each raised by one.
_HITS_RAISED = _when(lambda board: board == FerrersBoard.from_partition(_P21),
                     lambda out, board: [h + 1 for h in out])
_HOOK_COUNT_RAISED = _when(_p21, lambda out, shape: out + 1)


def _grid_moved(x, k):
    """A fault for the path rows of lattice's grid
    (verify._grid_path_rows): at the point x, one unit of P_{n,k} moved
    to P_{n,k+1}, so that the row keeps its sum."""
    def make(true):
        def faulty(top):
            for point, row in true(top):
                if point == x:
                    row = [*row[:k], row[k] - 1, row[k + 1] + 1, *row[k + 2:]]
                yield point, row
        return faulty
    return make


# Every fault that a test injects into a suite is a row here: one fault
# through one module seam, and the fields of the counterexample it must
# give, the check's name among them when the suite names its checks.
# Every counterexample carries both sides, and a check name exactly
# when its suite names its checks.
# Every named check of every suite has a row
# (test_every_named_check_has_a_row).  A row's bounds keep every check
# that runs before its target from meeting the fault: points = 0 skips
# lattice's sampled path-vs-ebasis, whose random points would otherwise
# meet a fault in the path sums or the e-basis rows first.
MUTATIONS = [
    pytest.param(
        verify_hit, {"max_n": 3}, qyt.verify, "descent_levels", _DES_MOVED,
        {"shape": "2,1"},
        id="hit-descent-moved"),
    pytest.param(
        verify_maj_hit, {"max_n": 2}, FerrersBoard, "q_hit_numbers", _T_N_OFF_BY_Q,
        {"check": "mahonian", "board": "n=1; heights=1", "lhs": "1 + q", "rhs": "1"},
        id="maj-hit-mahonian"),
    pytest.param(
        verify_maj_hit, {"max_n": 3}, qyt.verify, "descent_levels", _MAJ_MOVED,
        {"check": "refinement", "shape": "2,1"},
        id="maj-hit-maj-moved"),
    pytest.param(
        # a filling with n descents, which the refinement reads at k = n
        verify_maj_hit, {"max_n": 3}, qyt.verify, "descent_levels",
        _walked((((1, 1), 1), ((1, 2), 1), ((3, 0), 1))),
        {"check": "refinement", "shape": "2,1", "k": 3},
        id="hook-length-q-analogue"),
    pytest.param(
        verify_charge_hit, {"max_n": 3}, qyt.verify, "descent_levels", _MAJ_MOVED,
        {"check": "refinement", "shape": "2,1"},
        id="charge-hit-maj-moved"),
    pytest.param(
        # a filling with no descent at maj 1: its charge n * 0 - 1 is
        # negative, which the suite reports instead of raising
        verify_charge_hit, {"max_n": 3}, qyt.verify, "descent_levels",
        _walked((((0, 1), 1), ((1, 1), 1), ((1, 2), 1))),
        {"check": "refinement", "shape": "2,1", "k": 0},
        id="charge-hit-maj-above-nk"),
    pytest.param(
        verify_summation, {"max_n": 3}, qyt.verify, "descent_levels", _DES_MOVED,
        {"shape": "2,1"},
        id="summation-descent-moved"),
    pytest.param(
        # a(2, 1, 2) of the closed form P_{2,1} = e_0 - e_1 - 2 e_2
        verify_lattice, {"max_n": 3}, qyt.verify, "a_table",
        _when(lambda n: n == 2, lambda out, n: _added(out, {(1, 2): 1})),
        {"check": "row-sums", "n": 2, "m": 2},
        id="closed-forms"),
    pytest.param(
        # a(4, 1, 1), an entry of the triangle row a(4, k, 4 - 3)
        verify_lattice, {"max_n": 4}, qyt.verify, "a_table",
        _when(lambda n: n == 4, lambda out, n: _added(out, {(1, 1): 1})),
        {"check": "row-sums", "n": 4, "m": 1},
        id="triangle-rows"),
    pytest.param(
        verify_lattice, {"max_n": 3}, qyt.verify, "a_table",
        _when(lambda n: n == 2, lambda out, n: _added(out, {(0, 0): 1})),
        {"check": "eulerian-base", "n": 2, "k": 0},
        id="eulerian-base"),
    pytest.param(
        verify_lattice, {"max_n": 3}, qyt.verify, "a_table",
        _when(lambda n: n == 2, lambda out, n: _added(out, {(2, 1): 1})),
        {"check": "row-sums", "n": 2, "m": 1},
        id="row-sums"),
    pytest.param(
        verify_lattice, {"max_n": 3, "points": 10}, qyt.verify, "pnk_eval_ebasis",
        _when(_always, lambda out, *args: out + 1),
        {"check": "path-vs-ebasis"},
        id="path-vs-ebasis"),
    pytest.param(
        # a(2, 0, 1) and a(2, 1, 1) moved by one unit each way: every row
        # sum, every Eulerian constant and every triangle row holds, and
        # e_1 is 0 at the origin, so the grid sees it first at x = (0, 1)
        verify_lattice, {"max_n": 3, "points": 0}, qyt.verify, "a_table",
        _when(lambda n: n == 2, lambda out, n: _added(out, {(0, 1): 1, (1, 1): -1})),
        {"check": "path-grid", "n": 2, "x": [0, 1], "lhs": [2, 0, 0], "rhs": [3, -1, 0]},
        id="path-grid-ebasis"),
    pytest.param(
        verify_lattice, {"max_n": 3, "points": 0}, qyt.verify, "_grid_path_rows",
        _grid_moved((1, 0, 1), 1),
        {"check": "path-grid", "n": 3, "x": [1, 0, 1]},
        id="path-grid-paths"),
    pytest.param(
        verify_lattice, {"max_n": 3, "points": 0}, Partition, "hook_length_count",
        _HOOK_COUNT_RAISED,
        {"check": "hook-recovery", "shape": "2,1"},
        id="hook-recovery"),
    pytest.param(
        verify_genfun, {"max_n": 3}, qyt.tableau, "descent_levels", _DES_MOVED,
        {"check": "fundamental", "n": 3},
        id="fundamental-descent-moved"),
    pytest.param(
        verify_genfun, {"max_n": 3}, qyt.tableau, "descent_levels", _MAJ_MOVED,
        {"check": "fundamental", "n": 3},
        id="fundamental-maj-moved"),
    pytest.param(
        # mask 7 holds 4321 alone, at q^6 t^3; the tally's rows are by des
        # at the suite's width (test_placed_faults_keep_their_slots)
        verify_genfun, {"max_n": 5}, qyt.verify, "_inverse_descent_tally",
        _when(lambda n, width: n == 4,
              lambda out, n, width: {**out, 7: [0, 0, 0, 0, 1 << 6 * width]}),
        {"check": "fundamental", "n": 4},
        id="fundamental-placed-descent-moved"),
    pytest.param(
        verify_genfun, {"max_n": 5}, qyt.verify, "_inverse_descent_tally",
        _when(lambda n, width: n == 4,
              lambda out, n, width: {**out, 7: [0, 0, 0, 1 << 7 * width]}),
        {"check": "fundamental", "n": 4},
        id="fundamental-placed-maj-moved"),
    pytest.param(
        verify_genfun, {"max_n": 3}, qyt.verify, "schur_truncated",
        _when(_p21, lambda out, shape, n_vars: {**out, (1, 1, 1): out.get((1, 1, 1), 0) + 1}),
        {"n": 3},
        id="schur-coefficient-raised"),
    pytest.param(
        # the word of content 2,1 at q^0 t^0 moved to q^1 t^0
        verify_genfun, {"max_n": 4}, qyt.verify, "_content_tally",
        _when(lambda parts, width, binoms: parts == (2, 1),
              lambda out, parts, width, binoms: [out[0] - 1 + (1 << width), *out[1:]]),
        {"check": "monomial", "n": 3},
        id="monomial"),
    pytest.param(
        # K[2,1; 1,1,1], which the lemma reads
        verify_genfun, {"max_n": 4}, qyt.verify, "kostka",
        _when(lambda nu, lam: (nu.parts, lam.parts) == ((2, 1), (1, 1, 1)),
              lambda out, nu, lam: out + 1),
        {"check": "kostka-lemma", "shape": "1,1,1"},
        id="kostka-lemma"),
    pytest.param(
        # K[1,1,1; 2,1], where 1,1,1 does not dominate 2,1
        verify_genfun, {"max_n": 4}, qyt.verify, "kostka",
        _when(lambda nu, lam: (nu.parts, lam.parts) == ((1, 1, 1), (2, 1)),
              lambda out, nu, lam: out + 1),
        {"check": "triangularity", "shape": "1,1,1"},
        id="triangularity"),
    pytest.param(
        # Q of another shape than P, with a row longer than P's
        verify_genfun, {"max_n": 4}, qyt.verify, "row_insert",
        _recording((2, 1, 3), ((1, 2, 3),)),
        {"check": "rsk-bijection", "perm": [2, 1, 3]},
        id="rsk-shapes"),
    pytest.param(
        # P given an extra row that Q does not label: inverse insertion
        # alone never reads it, and still gives back 2,1,3
        verify_genfun, {"max_n": 4}, qyt.verify, "row_insert",
        _when(lambda w: tuple(w) == (2, 1, 3), lambda out, w: ((*out[0], (9,)), out[1])),
        {"check": "rsk-bijection", "perm": [2, 1, 3]},
        id="rsk-shapes-extra-row"),
    pytest.param(
        # 132 and 312 share P = 12/3 but not Q; give 312 the Q of 132
        verify_genfun, {"max_n": 4}, qyt.verify, "row_insert",
        _recording((3, 1, 2), ((1, 2), (3,))),
        {"check": "rsk-bijection", "perm": [3, 1, 2]},
        id="rsk-bijection-merge"),
    pytest.param(
        # a label repeated, one missing
        verify_genfun, {"max_n": 4}, qyt.verify, "row_insert",
        _recording((2, 1, 3), ((1, 1), (3,))),
        {"check": "rsk-bijection", "perm": [2, 1, 3]},
        id="rsk-bijection-repeated-label"),
    pytest.param(
        # labels 1..n, but not a standard filling
        verify_genfun, {"max_n": 4}, qyt.verify, "row_insert",
        _recording((2, 1), ((2,), (1,))),
        {"check": "rsk-bijection", "perm": [2, 1]},
        id="rsk-bijection-not-standard"),
    pytest.param(
        verify_genfun, {"max_n": 3}, Partition, "hook_length_count", _HOOK_COUNT_RAISED,
        {"check": "rsk-bijection", "n": 3, "lhs": 11, "rhs": 6},
        id="rsk-bijection-count"),
    pytest.param(
        # the walk of the standard fillings of 2,1 without its last; the
        # walk refills its rows in place, so each is copied as it comes
        verify_genfun, {"max_n": 3}, qyt.verify, "_ssyt_rows",
        _when(lambda parts, budget: parts == _P21.parts,
              lambda out, parts, budget: [tuple(map(tuple, rows)) for rows in out][:-1]),
        {"check": "truncated-fundamental", "shape": "2,1", "vars": 2},
        id="truncated-fundamental"),
    pytest.param(
        # q [3]! at q = 2^W
        verify_genfun, {"max_n": 3}, qyt.verify, "q_table_at",
        _fact_3(lambda fact, q: fact * q),
        {"check": "t1-specialization", "shape": "3"},
        id="t1-specialization"),
    pytest.param(
        verify_gjw, {"max_n": 3}, FerrersBoard, "complement_rotated",
        _when(_always, lambda out, board: board),
        {"check": "complement", "shape": "1"},
        id="complement"),
    pytest.param(
        verify_gjw, {"max_n": 3}, _kernels, "q_hit_census",
        _on_board_222(lambda out: _added(out, {(2, 0): -1, (2, 1): 1})),
        {"board": "n=3; heights=2,2,2"},
        id="gjw-weight-moved"),
    # An honest census of board 2,2,2 alone needs W = bits(5 * 4 * 3) + 1
    # = 7 bits per slot, and the boards of size 3 together W = 8, for
    # board 3,3,3 (6 * 5 * 4).  Moving 2^7 or 2^8 out of (into) slot
    # w = 0 and one unit into (out of) w = 1 leaves every value at q = 2^7
    # or 2^8 unchanged, so a fixed width would miss these faults: a
    # negative count (sign -1) and a count of 2^W or more (sign +1).
    pytest.param(
        verify_gjw, {"max_n": 3}, _kernels, "q_hit_census",
        _on_board_222(lambda out: _added(out, {(2, 0): -2**7, (2, 1): 1})),
        {"check": "mahonian", "board": "n=3; heights=2,2,2", "lhs": "-127 + 3q + 2q^2 + q^3"},
        id="mahonian-negative-count"),
    pytest.param(
        verify_gjw, {"max_n": 3}, _kernels, "q_hit_census",
        _on_board_222(lambda out: _added(out, {(2, 0): 2**7, (2, 1): -1})),
        {"check": "mahonian", "board": "n=3; heights=2,2,2", "lhs": "129 + q + 2q^2 + q^3"},
        id="mahonian-oversized-count"),
    pytest.param(
        verify_gjw, {"max_n": 3}, _kernels, "q_hit_census",
        _on_board_222(lambda out: _added(out, {(2, 0): -2**8, (2, 1): 1})),
        {"check": "mahonian", "board": "n=3; heights=2,2,2", "lhs": "-255 + 3q + 2q^2 + q^3"},
        id="mahonian-negative-count-at-the-size-width"),
    pytest.param(
        verify_gjw, {"max_n": 3}, _kernels, "q_hit_census",
        _on_board_222(lambda out: _added(out, {(2, 0): 2**8, (2, 1): -1})),
        {"check": "mahonian", "board": "n=3; heights=2,2,2", "lhs": "257 + q + 2q^2 + q^3"},
        id="mahonian-oversized-count-at-the-size-width"),
    pytest.param(
        verify_gjw, {"max_n": 3}, _kernels, "q_hit_census",
        _on_board_222(lambda out: [out[0], out[2], out[1], *out[3:]]),
        {"check": "product-identity", "board": "n=3; heights=2,2,2", "x": 1,
         "lhs": "1 + 2q + 2q^2 + q^3", "rhs": "0"},
        id="product-identity"),
    pytest.param(
        # one q^0 count of the zero board of shape 1,1,1 moved from T_0
        # to T_3, which keeps the sum Mahonian; only x = 0 and 1, whose
        # products reach a factor [0], see it
        verify_gjw, {"max_n": 3}, _kernels, "q_hit_census",
        _on_board((0, 0, 0), lambda out: _added(out, {(0, 0): -1, (3, 0): 1})),
        {"check": "product-identity", "board": "n=3; heights=0,0,0", "x": 0,
         "lhs": "0", "rhs": "1"},
        id="product-identity-zero-board"),
    pytest.param(
        # T_n + q on every board, at the width the suite runs the route at
        verify_gjw, {"max_n": 2}, qyt.verify, "_rook_route",
        _when(_always, lambda out, heights, width: [*out[:-1], out[-1] + (1 << width)]),
        {"check": "rook-route", "board": "n=1; heights=0",
         "lhs": ["1", "q"], "rhs": ["1", "0"]},
        id="rook-route"),
    pytest.param(
        verify_gjw, {"max_n": 3}, qyt.verify, "_rook_route", _rook_variant(power=1),
        {"check": "rook-route", "board": "n=1; heights=1", "lhs": ["q - q^2", "1"]},
        id="rook-route-transform"),
    pytest.param(
        verify_hit, {"max_n": 3}, qyt.board, "_rook_route", _rook_variant(step=2),
        {"shape": "1,1", "k": 0, "rhs": -2},
        id="hit-rook-recursion"),
    pytest.param(
        # invisible at q = 1, where hit reads the route
        verify_maj_hit, {"max_n": 3}, qyt.board, "_rook_route", _rook_variant(power=1),
        {"check": "mahonian", "board": "n=1; heights=1", "lhs": "1 + q - q^2"},
        id="maj-hit-rook-transform"),
    pytest.param(
        verify_foulkes, {"max_n": 3}, qyt.verify, "descent_levels", _BOTH_DES_RAISED,
        {"shape": "2,1"},
        id="foulkes"),
    pytest.param(
        verify_foulkes, {"max_n": 3}, qyt.verify, "qyt_counts_via_pnk", _PATH_MOVED,
        {"shape": "2,1"},
        id="foulkes-path-moved"),
    pytest.param(
        verify_foulkes, {"max_n": 3}, qyt.verify, "descent_levels", _DES_MOVED,
        {"shape": "2,1"},
        id="lattice-descent-moved"),
    pytest.param(
        # every shape's path counts moved down one k
        verify_foulkes, {"max_n": 3}, qyt.verify, "qyt_counts_via_pnk",
        _when(_always, lambda out, shape: out[1:] + [0]),
        {"shape": "1"},
        id="q1-specialization"),
    pytest.param(
        verify_polya, {"max_n": 3, "max_m": 3}, qyt.verify, "descent_levels",
        _BOTH_DES_RAISED,
        {"n": 3, "m": 2},
        id="polya"),
    pytest.param(
        verify_jack, {"max_n": 3}, qyt.verify, "qyt_counts_via_pnk", _PATH_MOVED,
        {"check": "hit-route", "shape": "2,1", "k": 1},
        id="jack-path-moved"),
    pytest.param(
        verify_jack, {"max_n": 3}, FerrersBoard, "hit_numbers", _HITS_RAISED,
        {"check": "hit-route", "shape": "2,1", "k": 0},
        id="hit-route"),
]


@pytest.mark.parametrize("suite,kwargs,owner,name,fault,expected", MUTATIONS)
def test_each_check_fails_under_a_fault(monkeypatch, suite, kwargs, owner, name,
                                        fault, expected):
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    report = suite(**kwargs)
    assert report.status == "fail"
    assert {key: report.counterexample.get(key) for key in expected} == expected
    assert {"lhs", "rhs"} <= report.counterexample.keys()
    assert ("check" in report.counterexample) == (suite not in _UNNAMED)


_UNNAMED = {verify_hit, verify_summation, verify_foulkes, verify_polya}


def test_every_named_check_has_a_row():
    rows: dict = {}  # suite -> the checks its rows name (None for no name)
    for row in MUTATIONS:
        suite, *_, expected = row.values
        rows.setdefault(suite, set()).add(expected.get("check"))
    # the checks each body yields at its default bounds, None for no name
    yielded = {suite: {check for check, *_ in suite.__wrapped__()}
               for suite in SUITES.values()}
    assert set().union(*yielded.values()) - {None} == {
        "complement", "eulerian-base", "fundamental", "hit-route", "hook-recovery",
        "kostka-lemma", "mahonian", "monomial", "path-grid",
        "path-vs-ebasis", "product-identity", "refinement", "rook-route", "row-sums",
        "rsk-bijection", "t1-specialization", "triangularity",
        "truncated-fundamental",
    }
    assert {suite for suite, checks in yielded.items() if checks == {None}} == _UNNAMED
    missing = [(name, check) for name, suite in SUITES.items()
               for check in sorted(yielded[suite] - rows.get(suite, set()), key=str)]
    assert missing == []


def _failing_checks(monkeypatch, name, fault, *owners):
    """{(suite, check)} of every suite that fails at max_n = 3 with
    `fault` in owner.name for each of `owners`, the check None where the
    suite names none."""
    with monkeypatch.context() as patch:
        for owner in owners:
            patch.setattr(owner, name, fault(getattr(owner, name)))
        reports = [suite(max_n=3) for suite in SUITES.values()]
    return {(report.suite, report.counterexample.get("check"))
            for report in reports if not report.passed}


def test_each_route_fault_fails_only_the_checks_that_read_that_route(monkeypatch):
    # a filling of 2,1 moved up one descent, in the walk that the suites
    # call through verify and through tableau: every check that reads
    # the walk, and not jack, which reads the path route in its place
    assert _failing_checks(monkeypatch, "descent_levels", _DES_MOVED,
                           qyt.verify, qyt.tableau) == {
        ("hit", None), ("summation", None), ("foulkes", None), ("polya", None),
        ("maj-hit", "refinement"), ("charge-hit", "refinement"),
        ("genfun", "fundamental")}
    # one unit of the path counts of 2,1 moved up one k, which keeps
    # their sum: foulkes compares the path route with the walk, and
    # jack's hit-route with the hit numbers
    assert _failing_checks(monkeypatch, "qyt_counts_via_pnk", _PATH_MOVED, qyt.verify) == {
        ("foulkes", None), ("jack", "hit-route")}
    # hit compares the hit numbers with the walk, and jack's hit-route
    # with the path route
    assert _failing_checks(monkeypatch, "hit_numbers", _HITS_RAISED, FerrersBoard) == {
        ("hit", None), ("jack", "hit-route")}
    # SSYT_2 of 2,1 raised by one: summation alone reads the
    # hook-content counts
    ssyt_raised = _when(_p21, lambda out, shape, upto: [out[0], out[1] + 1, *out[2:]])
    assert _failing_checks(monkeypatch, "hook_content_counts", ssyt_raised, Partition) == {
        ("summation", None)}


def _width_0(fault):
    """A fault for the walk (descent_levels) that faults only the walk at
    width 0, which hit, summation, foulkes and polya read."""
    def make(true):
        faulty = fault(true)
        return lambda width, top=None: (faulty if width == 0 else true)(width, top)
    return make


def _verify_all(capsys, *argv):
    """(exit code, the reports of `qyt verify all argv --format json`
    without their ms)."""
    code = qyt.cli.main(["verify", "all", *argv, "--format", "json"])
    blobs = json.loads(capsys.readouterr().out)
    return code, [{key: value for key, value in blob.items() if key != "ms"} for blob in blobs]


@pytest.mark.parametrize("owner,name,fault,failing", [
    pytest.param(None, None, None, set(), id="honest"),
    pytest.param(qyt.verify, "descent_levels", _width_0(_DES_MOVED),
                 {"hit", "summation", "foulkes", "polya"}, id="walk-at-width-0"),
    pytest.param(FerrersBoard, "hit_numbers", _HITS_RAISED, {"hit", "jack"},
                 id="hit-numbers-raised"),
    pytest.param(qyt.verify, "qyt_counts_via_pnk", _PATH_MOVED, {"foulkes", "jack"},
                 id="path-count-moved"),
])
def test_verify_all_reports_each_suite_as_it_reports_alone(capsys, monkeypatch, owner, name,
                                                           fault, failing):
    # one run shares the walk, the hit numbers and the path counts among
    # its suites; each suite still reads what it reads alone, faults
    # patched before the run included
    if fault is not None:
        monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    code, together = _verify_all(capsys)
    alone = [{key: value for key, value in suite().to_json().items() if key != "ms"}
             for suite in SUITES.values()]
    assert together == alone
    assert {blob["suite"] for blob in alone if blob["status"] == "fail"} == failing
    assert code == (1 if failing else 0)


def test_a_patch_made_after_a_run_is_seen_by_the_next(capsys, monkeypatch):
    # the rook route sits beneath FerrersBoard.hit_numbers, whose key a
    # patch of the route leaves as it is: only a run that ends with
    # everything it kept serves the next run the faulty values
    assert _verify_all(capsys, "--max-n", "3")[0] == 0
    assert qyt.verify._RUN is None
    monkeypatch.setattr(qyt.board, "_rook_route", _rook_variant(step=2)(qyt.board._rook_route))
    code, reports = _verify_all(capsys, "--max-n", "3")
    assert code == 1
    hit = next(blob for blob in reports if blob["suite"] == "hit")
    assert hit["counterexample"] == verify_hit(max_n=3).counterexample
    assert {"shape": "1,1", "k": 0, "rhs": -2}.items() <= hit["counterexample"].items()
    # a run that raises ends too, and runs do not nest
    def raising(shape):
        raise ValueError("no path counts")

    monkeypatch.setattr(qyt.verify, "qyt_counts_via_pnk", raising)
    assert qyt.cli.main(["verify", "all", "--max-n", "3"]) == 2
    assert capsys.readouterr().err == "error: no path counts\n"
    assert qyt.verify._RUN is None
    with qyt.verify.Run():
        with pytest.raises(RuntimeError, match="^a verify run is open already$"):
            with qyt.verify.Run():
                pass
    assert qyt.verify._RUN is None


def test_one_verify_all_computes_each_shared_value_once(capsys, monkeypatch):
    through_verify = _count_calls(monkeypatch, qyt.verify, "descent_levels")
    through_tableau = _count_calls(monkeypatch, qyt.tableau, "descent_levels")
    hits = _count_calls(monkeypatch, FerrersBoard, "hit_numbers")
    paths = _count_calls(monkeypatch, qyt.verify, "qyt_counts_via_pnk")
    assert _verify_all(capsys)[0] == 0
    # hit, summation, foulkes and polya read the walk at width 0, up to
    # 7, 8, 7 and 6
    walks = through_verify + through_tableau
    assert [args[0] for args in walks].count(0) == 1
    # hit reads the boards of every shape up to 7, jack up to 6
    boards = {FerrersBoard.from_partition(shape) for n in range(1, 8) for shape in partitions(n)}
    assert len(hits) == len(boards) == 44
    assert {board for board, in hits} == boards
    # foulkes and lattice read every shape up to 7, jack the conjugates up to 6
    assert len(paths) == len({shape for shape, in paths}) == 44


def _levels_built(monkeypatch):
    """The widths of the levels that the walk, called through verify,
    yields from now on, one entry per level."""
    true = qyt.verify.descent_levels
    built = []

    def walk(width, top=None):
        for level in true(width, top):
            built.append(width)
            yield level

    monkeypatch.setattr(qyt.verify, "descent_levels", walk)
    return built


def test_a_later_suite_reads_the_runs_walk_deeper(monkeypatch):
    # a count appended to the tally of shape 8, which polya, reading the
    # run's walk at width 0 up to 6, never reaches; summation then reads
    # the same walk on to 8 and meets it
    true = qyt.verify.descent_levels

    def faulty(width, top=None):
        for level in true(width, top):
            if (8,) in level:
                level = {**level, (8,): [*level[8,], 1]}
            yield level

    monkeypatch.setattr(qyt.verify, "descent_levels", faulty)
    built = _levels_built(monkeypatch)
    with qyt.verify.Run():
        assert verify_polya().passed
        assert built == [0] * 6
        assert verify_summation().counterexample == {"shape": "8", "k": 8, "lhs": 1, "rhs": 0}
        assert built == [0] * 8


def test_a_run_builds_its_walk_only_as_deep_as_its_deepest_reader(monkeypatch):
    built = _levels_built(monkeypatch)
    with qyt.verify.Run():
        for suite, max_n in ((verify_hit, 5), (verify_foulkes, 3), (verify_summation, 7),
                             (verify_polya, 2), (verify_maj_hit, 4)):
            assert suite(max_n=max_n).passed
    # one walk at width 0, to 7, and one at the maj width, to 4
    assert built.count(0) == 7
    assert len(built) == 11


def test_a_suite_alone_builds_exactly_max_n_levels(monkeypatch):
    built = _levels_built(monkeypatch)
    assert verify_hit(max_n=3).passed
    assert built == [0] * 3


def test_a_suite_called_alone_keeps_no_walk_level(monkeypatch):
    import weakref

    class Level(dict):  # a dict that a weak reference can name
        pass

    true = qyt.verify.descent_levels
    alive = []  # how many earlier levels are still held, as each is built

    def walk(width, top=None):
        refs = []
        for level in true(width, top):
            alive.append(sum(ref() is not None for ref in refs))
            level = Level(level)
            refs.append(weakref.ref(level))
            yield level

    monkeypatch.setattr(qyt.verify, "descent_levels", walk)
    for suite in (verify_hit, verify_maj_hit, verify_charge_hit, verify_summation,
                  verify_foulkes, verify_polya):
        alive.clear()
        assert suite(max_n=8).passed
        # the suite holds the level below the one being built, and no other
        assert alive == [0] + [1] * 7, suite


def test_rook_variants_are_the_route_but_one_factor():
    from itertools import combinations_with_replacement

    from qyt.board import _rook_route

    for n in range(6):
        for heights in combinations_with_replacement(range(n + 1), n):
            for width in (0, slot_width(factorial(n))):
                route = _rook_route(heights, width)
                assert _rook_variant()(None)(heights, width) == route
                if width == 0:  # q^(n-k+1) is q^(n-k) at q = 1
                    assert _rook_variant(power=1)(None)(heights, width) == route


def _fault_both_walks(monkeypatch, pairs):
    """Shape 2,1's tally replaced by `pairs` (see _walked) in the walk
    that the suites call through verify and through tableau."""
    for module in (qyt.verify, qyt.tableau):
        monkeypatch.setattr(module, "descent_levels",
                            _walked(pairs)(module.descent_levels))


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("suite,expected", [
    pytest.param(verify_hit, lambda d: {"k": d, "lhs": 3, "rhs": 0}, id="hit"),
    pytest.param(verify_maj_hit, lambda d: {"check": "refinement", "k": d}, id="maj-hit"),
    pytest.param(verify_charge_hit, lambda d: {"check": "refinement", "k": d}, id="charge-hit"),
    pytest.param(verify_summation, lambda d: {"k": d, "lhs": 1, "rhs": 0}, id="summation"),
    pytest.param(verify_genfun, lambda d: {"check": "fundamental", "n": 3}, id="genfun"),
    pytest.param(verify_foulkes, lambda d: {"k": 2 - d, "lhs": 1, "rhs": 0}, id="foulkes"),
    pytest.param(verify_polya, lambda d: {"n": 3, "m": 4 if d == 3 else 1}, id="polya"),
])
def test_a_filling_with_n_or_more_descents_fails_every_walk_reading_suite(
        monkeypatch, suite, expected, d):
    # no standard filling of size n has n descents, so the honest rows
    # at des >= n are 0, and each suite must read them all the same,
    # also past the rows its other side has
    _fault_both_walks(monkeypatch, (((1, 1), 1), ((1, 2), 1), ((d, 5), 1)))
    report = suite(max_n=3)
    assert report.status == "fail"
    assert {key: report.counterexample.get(key) for key in expected(d)} == expected(d)


_LAST_RAISED = _when(_always, lambda out, *args: [*out[:-1], out[-1] + 1])


@pytest.mark.parametrize("suite,owner,name,expected", [
    pytest.param(verify_hit, FerrersBoard, "hit_numbers", {"k": 1}, id="hit-h_n"),
    pytest.param(verify_jack, FerrersBoard, "hit_numbers", {"check": "hit-route", "k": 1},
                 id="jack-h_n"),
    pytest.param(verify_lattice, qyt.verify, "qyt_counts_via_pnk",
                 {"check": "hook-recovery"}, id="lattice-paths"),
    pytest.param(verify_foulkes, qyt.verify, "qyt_counts_via_pnk", {"k": -1},
                 id="foulkes-paths"),
    pytest.param(verify_jack, qyt.verify, "qyt_counts_via_pnk",
                 {"check": "hit-route", "k": 1}, id="jack-paths"),
    pytest.param(verify_summation, Partition, "hook_content_counts", {"k": 1},
                 id="summation-ssyt"),
])
def test_the_other_side_is_read_at_n_descents(monkeypatch, suite, owner, name, expected):
    # the last entry of the other side, at n descents, where an honest
    # tally of n rows has none: h_n, P_{n,n}/H (in lattice, a term of
    # the sum that recovers the hook count, and in jack, read against
    # h_n), or SSYT_{n+1} in the alternating sum at k = n
    monkeypatch.setattr(owner, name, _LAST_RAISED(getattr(owner, name)))
    report = suite(max_n=1)
    assert report.status == "fail"
    want = {**expected, "shape": "1"}
    assert {key: report.counterexample.get(key) for key in want} == want


@pytest.mark.parametrize("d", range(3, 12))
def test_polya_reads_a_tally_row_of_any_degree(monkeypatch, d):
    # C(m + n - 1 - d, n) is the polynomial in m, so a row d >= m + n,
    # where math.comb would raise, weighs its count too
    _fault_both_walks(monkeypatch, (((1, 1), 1), ((1, 2), 1), ((d, 0), 1)))
    report = verify_polya(max_n=3)
    assert report.status == "fail"
    assert report.counterexample["n"] == 3


def test_polya_reads_a_count_that_every_m_up_to_max_m_weighs_0(monkeypatch):
    # a count appended to the rows d = 0..4 of shape 5 weighs C(m - 1, 5),
    # 0 for every m <= 5: the polynomials of degree 5 in m need m = 6
    true = qyt.verify.descent_levels

    def faulty(width, top=None):
        for level in true(width, top):
            if (5,) in level:
                assert len(level[5,]) == 5
                level = {**level, (5,): [*level[5,], 1]}
            yield level

    monkeypatch.setattr(qyt.verify, "descent_levels", faulty)
    assert verify_polya(max_n=5).counterexample == {"n": 5, "m": 6, "lhs": 7777, "rhs": 7776}


@pytest.mark.parametrize("rows,term", [
    pytest.param(lambda w: [0, 0, 0, 0, 1 << 6 * w], "q^6 t^4", id="des-above-n-1"),
    pytest.param(lambda w: [0, 0, 0, 1 << 7 * w], "q^7 t^3", id="maj-above-C(n,2)"),
])
def test_placed_faults_keep_their_slots(monkeypatch, rows, term):
    # a des or a maj above any honest one is read back where it was put,
    # not in the slot of another power of t: the stride is read off the
    # rows as they are
    true = qyt.verify._inverse_descent_tally
    monkeypatch.setattr(qyt.verify, "_inverse_descent_tally",
                        lambda n, width: {**true(n, width), 7: rows(width)}
                        if n == 4 else true(n, width))
    shared = "1 + 3 q t + 5 q^2 t + 3 q^3 t + 3 q^3 t^2 + 5 q^4 t^2 + 3 q^5 t^2"
    assert verify_genfun(5).counterexample == {
        "check": "fundamental", "n": 4, "composition": [1, 1, 1, 1],
        "lhs": f"{shared} + {term}", "rhs": f"{shared} + q^6 t^3"}


def test_an_inexact_hook_quotient_is_a_counterexample(monkeypatch):
    # [3]! + 1 is not divisible by the hook product of any shape of 3;
    # the t = 1 check compares cross-multiplied, so nothing is divided
    # and the shape is reported with both sides read back
    monkeypatch.setattr(qyt.verify, "q_table_at",
                        _fact_3(lambda fact, q: fact + 1)(qyt.verify.q_table_at))
    assert verify_genfun(3).counterexample == {
        "check": "t1-specialization", "shape": "3",
        "lhs": "1 + 2q + 2q^2 + q^3", "rhs": "2 + 2q + 2q^2 + q^3"}


def test_the_runner_stops_at_the_first_differing_sides():
    from qyt.verify import _suite

    packed = Packed(pack((-127, 3, 2, 1), 8), 8)
    assert packed == Packed(packed.value, 8)
    assert packed != Packed(packed.value, 9)
    one_plus_q = Packed(pack((1, 1), 8), 8)

    @_suite("toy")
    def toy(max_n: int = 3, check: str | None = "toy-check"):
        yield check, {"n": 1}, one_plus_q, Packed(one_plus_q.value, 8)
        yield check, {"shape": _P21, "x": (1, -2), "k": 0}, one_plus_q, packed
        raise AssertionError("the body was resumed after differing sides")

    report = toy(2)
    assert report.status == "fail"
    assert report.counterexample == {
        "check": "toy-check", "shape": "2,1", "x": [1, -2], "k": 0,
        "lhs": "1 + q", "rhs": "-127 + 3q + 2q^2 + q^3"}
    assert list(report.bounds.items()) == [("max_n", 2), ("check", "toy-check")]
    report = toy(check=None)
    assert list(report.counterexample) == ["shape", "x", "k", "lhs", "rhs"]
    assert report.bounds == {"max_n": 3, "check": None}
    with pytest.raises(ValueError, match="^max_n must be at least 1, got 0$"):
        toy(0)

    @_suite("toy")
    def passing(max_n: int = 3):
        yield None, {"n": max_n}, None, None
        yield "sides", {}, [1, (2, 3)], [1, (2, 3)]

    assert passing(1)[:4] == ("toy", {"max_n": 1}, "pass", None)


def test_genfun_lists_no_words_and_builds_each_kostka_number_once(monkeypatch):
    import qyt.perm

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


def _counted(monkeypatch, pairs):
    """The list each call of owner.name, for the (owner, names) pairs,
    appends its "Owner.name" to."""
    calls = []
    for owner, names in pairs:
        for name in names:
            def counted(*args, _name=f"{owner.__name__}.{name}", _true=getattr(owner, name)):
                calls.append(_name)
                return _true(*args)
            monkeypatch.setattr(owner, name, counted)
    return calls


#: What a Packed value is read back by: it is listed or printed.
_PACKED_READS = [(Packed, ("__str__", "pairs", "triples"))]


def test_genfun_compares_packed_ints(monkeypatch):
    # every (q, t) side is built and compared as an int: no side is read
    # back, none is divided, and no Tableau is built, so none is
    # destandardized
    calls = _counted(monkeypatch, [*_PACKED_READS,
                                   (Tableau, ("__init__", "destandardize"))])
    report = verify_genfun(max_n=6)
    assert report.passed, report.counterexample
    assert calls == []
    str(Packed(1, 4))  # a read is counted
    assert calls == ["Packed.__str__", "Packed.pairs"]


def test_qpoly_is_a_read_back_value():
    # Packed has no arithmetic: it is built, compared with another
    # Packed, listed and printed
    assert not [name for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                                  "__rsub__", "__neg__", "__pow__", "__truediv__",
                                  "__floordiv__", "__mod__", "__lshift__", "__call__",
                                  "term", "degree", "shift", "at_one", "exact_div", "read")
                if hasattr(Packed(3, 4), name)]
    assert not hasattr(qyt.qpoly, "_coerce") and not hasattr(qyt.verify, "_l1")
    assert Packed(3, 4) != 3 and Packed(3, 4) == Packed(3, 4)
    # the one value the suites compare and show
    assert qyt.verify.Packed is Packed


@pytest.mark.parametrize("suite", [verify_maj_hit, verify_charge_hit, verify_gjw],
                         ids=["maj-hit", "charge-hit", "gjw"])
def test_q_hit_suites_build_no_qpoly(monkeypatch, suite):
    # a passing run compares packed ints end to end and reads no side
    # back as a polynomial: that is done only to show a counterexample
    calls = _counted(monkeypatch, _PACKED_READS)
    report = suite(max_n=6)
    assert report.passed, report.counterexample
    assert calls == []


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

    board = FerrersBoard.from_partition(Partition((2, 1))).plus_one()
    assert board.heights == (2, 2, 2)
    width, T = board.q_hit_numbers()
    T2 = unpack(T[2], width)
    assert T2 == oracles.q_fact_brute(3)
    lhs = oracles.poly_mul_brute((0, 1, 1), (1, 1, 1))
    assert lhs == [0, *T2]
    assert lhs == [0, 1, 2, 2, 1]


def test_charge_refinement_hand_computed_instance():
    # same shape: charge values are 1 and 2, the board of the conjugate
    # (2,1) has heights (1,1,1), every permutation hits it exactly once,
    # and with n(conjugate) = 1, C(3,2) = 3 the identity reads
    # (q + q^2)(1 + q + q^2) q^3 == q^(3+1) [3]!.
    from qyt.board import FerrersBoard

    board = FerrersBoard.from_partition(Partition((2, 1)))
    assert board.heights == (1, 1, 1)
    width, T = board.q_hit_numbers()
    T1 = unpack(T[1], width)
    assert T1 == oracles.q_fact_brute(3)
    lhs = [0] * 3 + oracles.poly_mul_brute((0, 1, 1), (1, 1, 1))
    assert lhs == [0] * (3 * 1 + 1) + T1


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
    # the standard fillings whose sign word has k plus signs: QYT_{=n-k}
    assert qyt_count_exact(Partition((3, 2)), 5 - 3) == 2
    for n in range(2, 7):
        assert qyt_count_exact(Partition((n,)), 1) == 1
        for lam in partitions(n):
            if lam != Partition((n,)):
                assert qyt_count_exact(lam, 1) == 0


def test_foulkes_multiplicity_counts_signatures():
    # a sign word has '+' at each of the n - 1 non-descents
    for n in range(1, 6):
        for lam in partitions(n):
            for k in range(n):
                direct = sum(
                    1
                    for t in enumerate_syt(lam)
                    if n - 1 - len(t.descent_set()) == k
                )
                assert direct == qyt_count_exact(lam, n - k)


def test_polya_examples():
    assert verify_polya(max_n=2, max_m=10).status == "pass"
    assert verify_polya(max_n=5, max_m=3).status == "pass"


@pytest.mark.parametrize("n,m,name", [(-1, 3, "n"), (2, -1, "m"), (-2, -2, "n")])
def test_polya_rejects_a_negative_argument_by_name(n, m, name):
    # the bounds are checked in signature order, so max_n is named first
    with pytest.raises(ValueError, match=f"^max_{name} must be at least 1, got -"):
        verify_polya(max_n=n, max_m=m)


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
