"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its wall-clock time and asserting the time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import contextlib
import hashlib
import time
import tracemalloc

from qyt.board import FerrersBoard
from qyt.cli import main
from qyt.partition import Partition, partitions
from qyt.pnk import a_coeffs
from qyt.qpoly import q_table_at, unpack
from qyt.symfun import schur_truncated
from qyt.tableau import enumerate_ssyt, enumerate_syt, kostka, qyt_count_exact
from qyt.verify import (
    jack_coefficient,
    ribbon_rows,
    verify_charge_hit,
    verify_foulkes,
    verify_genfun,
    verify_gjw,
    verify_hit,
    verify_lattice,
    verify_maj_hit,
    verify_polya,
    verify_summation,
)


def _criterion(num, name, budget_s, body):
    started = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    line = f"criterion {num} ({name}): PASS in {elapsed:.2f}s (budget {budget_s}s)"
    print(line)
    assert elapsed < budget_s, line


def test_criterion_1_counting_ground_truth():
    def body():
        assert qyt_count_exact(Partition((2, 2, 1)), 3) == 3
        assert qyt_count_exact(Partition((2, 2, 1)), 4) == 2
        assert len(enumerate_syt(Partition((3, 2)))) == 5
        fillings = {str(t) for t in enumerate_ssyt(Partition((2, 2)), 3)}
        assert fillings == {
            "1,1/2,2", "1,1/2,3", "1,2/2,3", "1,1/3,3", "1,2/3,3", "2,2/3,3",
        }

    _criterion(1, "counting ground truth", 1, body)


def test_criterion_2_circle_statistic():
    def body():
        board = FerrersBoard.from_partition(Partition((3, 2)))
        perm = (4, 5, 3, 1, 2)
        assert board.q_weight_columns(perm) == [3, 2, 2, 1, 0]
        assert board.q_weight(perm) == 8
        assert board.hits(perm) == 2

    _criterion(2, "circle statistic of 45312", 1, body)


def test_criterion_3_hit_number_suite():
    def body():
        report = verify_hit(max_n=7)
        assert report.passed, report.counterexample

    _criterion(3, "hit-number suite, shapes up to 7", 60, body)


def test_criterion_4_q_analogue_suites():
    def body():
        maj = verify_maj_hit(max_n=6)  # includes Mahonian + hook corollary
        assert maj.passed, maj.counterexample
        charge = verify_charge_hit(max_n=6)
        assert charge.passed, charge.counterexample

    _criterion(4, "major-index and charge suites, shapes up to 6", 120, body)


def test_criterion_5_summation_suite():
    def body():
        report = verify_summation(max_n=8)
        assert report.passed, report.counterexample

    _criterion(5, "alternating summation, shapes up to 8", 10, body)


def test_criterion_6_lattice_path_polynomials():
    def body():
        # the closed forms P_{1,0}..P_{3,3} against the e-basis; the
        # single-path cases P_{1,1} and P_{3,3} carry the sign (-1)^n
        # forced by the east-step weight N_i - x_i
        expected = {
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
        for (n, k), coeffs in expected.items():
            assert a_coeffs(n, k) == coeffs, (n, k)
        # triangle rows, Eulerian constants, row sums, the path sums
        # against the e-basis on every point of {0,1}^n for n <= 7 (which
        # proves their symmetry and recursion), the sampled points, and
        # the lattice theorem itself
        report = verify_lattice(max_n=7, points=200)
        assert report.passed, report.counterexample

    _criterion(6, "lattice-path polynomial checks", 60, body)


def test_criterion_7_generating_functions():
    def body():
        report = verify_genfun(max_n=5)
        assert report.passed, report.counterexample

    _criterion(7, "generating-function expansions, degree up to 5", 60, body)


def test_criterion_8_gjw_and_complement():
    def body():
        report = verify_gjw(max_n=6)
        assert report.passed, report.counterexample

    _criterion(8, "product identity and board complement, shapes up to 6", 60, body)


def test_criterion_9_applications():
    def body():
        foulkes = verify_foulkes(max_n=7)
        assert foulkes.passed, foulkes.counterexample
        assert ribbon_rows("++-++-+-++-") == (3, 3, 2, 3, 1)
        polya = verify_polya(max_n=6, max_m=5)
        assert polya.passed, polya.counterexample
        table = [jack_coefficient(Partition((2, 2, 1)), k) for k in range(5)]
        assert table == [120 * c for c in (0, 2, 3, 0, 0)]

    _criterion(9, "application identities", 30, body)


def test_criterion_10_gjw_at_ten():
    def body():
        report = verify_gjw(max_n=10)
        assert report.passed, report.counterexample

    _criterion(10, "product identity on the packed census, shapes up to 10", 3, body)


def test_criterion_11_schur_coefficients_at_nine():
    def body():
        for lam in partitions(9):
            assert schur_truncated(lam, 9)[lam.parts] == 1

    _criterion(11, "Schur coefficients of every shape of 9 in 9 variables", 1, body)


def test_criterion_12_per_shape_suites_at_twelve():
    def body():
        lattice = verify_lattice(max_n=12)
        assert lattice.passed, lattice.counterexample
        foulkes = verify_foulkes(max_n=12)
        assert foulkes.passed, foulkes.counterexample

    _criterion(12, "lattice and Foulkes suites, shapes up to 12", 1.5, body)


def test_criterion_13_generating_functions_at_eight():
    def body():
        report = verify_genfun(max_n=8)
        assert report.passed, report.counterexample

    _criterion(13, "generating-function expansions, degree up to 8", 2, body)


def test_criterion_14_kostka_table_at_ten():
    def body():
        shapes = list(partitions(10))
        table = {(nu, lam): kostka(nu, lam) for nu in shapes for lam in shapes}
        # K_{nu,lam} is 1 on the diagonal and 0 unless nu dominates lam;
        # its column at 1^10 is the standard-filling count of nu
        for (nu, lam), k in table.items():
            assert (k > 0) == nu.dominates(lam) and (k == 1 or nu != lam)
        column = Partition((1,) * 10)
        assert all(table[nu, column] == nu.hook_length_count() for nu in shapes)

    _criterion(14, "Kostka table over the partitions of 10", 1.0, body)


def test_criterion_15_q_hit_numbers_at_twenty_one():
    def body():
        board = FerrersBoard.from_partition(Partition((6, 5, 4, 3, 2, 1))).plus_one()
        assert board.n == 21
        width, T = board.q_hit_numbers()
        assert sum(T) == q_table_at(21, width)[1][21]  # [21]!, packed at one width
        assert [sum(unpack(t, width)) for t in T] == board.hit_numbers()

    _criterion(15, "q-hit numbers of the raised board of 6,5,4,3,2,1", 0.1, body)


def test_criterion_16_counting_suites_at_twenty():
    def body():
        for report in (verify_hit(max_n=20), verify_summation(max_n=20),
                       verify_foulkes(max_n=18)):
            assert report.passed, report.counterexample

    _criterion(16, "hit and summation up to 20, Foulkes up to 18", 2.5, body)


def test_criterion_17_gjw_at_eleven():
    def body():
        report = verify_gjw(max_n=11)
        assert report.passed, report.counterexample

    _criterion(17, "product identity on the shared census, shapes up to 11", 1.0, body)


class _HashSink:
    """A stdout that hashes what it is sent and keeps none of it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


def _expand_schur_twelve():
    sink = _HashSink()
    with contextlib.redirect_stdout(sink):
        assert main(["expand", "schur", "--shape", "3,3,3,1", "--vars", "12",
                     "--format", "json"]) == 0
    # 13.7 MB of JSON, 209352 terms
    assert sink.digest.hexdigest() == (
        "0e149d07f01f2b2033898c577703d28d98b370c8cdb42b6372ac76566b7bfcf0")


def test_criterion_18_schur_expansion_in_twelve_variables():
    _criterion(18, "expand schur 3,3,3,1 in 12 variables as JSON", 1.0, _expand_schur_twelve)
    # tracemalloc, not RSS: the test process's RSS keeps the high-water
    # mark of everything that ran in it before
    tracemalloc.start()
    try:
        _expand_schur_twelve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"criterion 18: traced peak {peak / 2**20:.2f} MiB (budget 4 MiB)")
    assert peak <= 4 * 2**20
