"""A seeded sweep of single-slot faults over the seams where the q-suites
read packed values: the walk rows of maj-hit and charge-hit, the T_k of
FerrersBoard.q_hit_numbers, the census cells and the rook route
(board._rook_route) that gjw reads, and the three tallies of genfun;
over the seams that hold plain ints: the walk at width 0, q = 1, whose
counts the hit, summation, foulkes and polya suites read, the hit
numbers that hit and jack read (FerrersBoard.hit_numbers), the
lattice-path counts that foulkes and jack read
(verify.qyt_counts_via_pnk) and the hook-content counts that summation
reads (Partition.hook_content_counts); and over the e-basis
coefficients a(n, k, m) that lattice reads (verify.a_table).  lattice's
path counts are left out: a count moved by one k keeps the sum that
hook-recovery reads, and that is all lattice reads of them.

Each fault changes one slot of one value that one call of the seam
returns: by +-1 or +-2^e for e = 1..80, by flipping its sign, or by
moving its term to the next slot.  A slot is a coefficient of a value
packed at the seam's width, one census cell, or one count of a tally at
width 0; moving the last count of a tally appends a row at n descents,
which no standard filling has.  The suite must report
a failure for every fault: a pass means that the fault slipped between
the slots or that no check reads the value, and an exception that the
suite does not report its counterexample.
"""

import random
from typing import Callable, NamedTuple

import pytest

import qyt.verify
from qyt import _kernels
from qyt.board import FerrersBoard
from qyt.partition import Partition
from qyt.qpoly import pack, unpack
from qyt.verify import (
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

SEED = 27
BOUND = 5

#: The faults of one sweep: added amounts, then the sign flip and the move.
FAULTS = [("add", d) for d in (1, -1)] + [
    ("add", sign << e) for e in range(1, 81) for sign in (1, -1)] + [("flip",), ("move",)]


def _rows_of(level):
    """(container, key) for every packed row of a {key: rows} output."""
    return [(rows, k) for rows in level.values() for k in range(len(rows))]


def _entries(out):
    """(container, key) for every entry of a list."""
    return [(out, k) for k in range(len(out))]


def _level_copy(level):
    return {key: list(rows) for key, rows in level.items()}


class Seam(NamedTuple):
    """One place a suite reads packed values: `owner.name`, whose output
    `copy` makes mutable and `handles` lists as (container, key) pairs,
    each item packed at width(args, output), or a plain coefficient list
    where that is None.  A generator seam yields one output per level."""

    suite: Callable
    owner: object
    name: str
    copy: Callable
    handles: Callable
    width: Callable
    generator: bool = False


def _walk(suite):
    return Seam(suite, qyt.verify, "descent_levels", _level_copy, _rows_of,
                lambda args, out: args[0], generator=True)


def _walk_counts(suite):
    """The walk at width 0: each tally is a list of counts by des."""
    return Seam(suite, qyt.verify, "descent_levels", _level_copy,
                lambda level: [(level, key) for key in level],
                lambda args, out: None, generator=True)


def _q_hits(suite):
    return Seam(suite, FerrersBoard, "q_hit_numbers",
                lambda out: (out[0], list(out[1])),
                lambda out: _entries(out[1]),
                lambda args, out: out[0])


def _counts(suite, owner, name):
    """A seam that returns one list of counts at width 0, such as the hit
    numbers h_0..h_n, handled whole (by the full slice), so that its
    counts are the slots."""
    return Seam(suite, owner, name, list,
                lambda out: [(out, slice(None))], lambda args, out: None)


SEAMS = {
    "maj-hit walk rows": _walk(verify_maj_hit),
    "charge-hit walk rows": _walk(verify_charge_hit),
    "maj-hit T_k": _q_hits(verify_maj_hit),
    "charge-hit T_k": _q_hits(verify_charge_hit),
    "gjw rook route": Seam(verify_gjw, qyt.verify, "_rook_route", list, _entries,
                           lambda args, out: args[1]),
    "gjw census cells": Seam(
        verify_gjw, _kernels, "q_hit_census",
        lambda out: [[list(row) for row in rows] for rows in out],
        lambda out: [(rows, k) for rows in out for k in range(len(rows))],
        lambda args, out: None),
    "genfun walk": Seam(verify_genfun, qyt.verify, "descent_tallies", _level_copy,
                        _rows_of, lambda args, out: args[0]),
    "genfun placed-set tally": Seam(verify_genfun, qyt.verify, "_inverse_descent_tally",
                                    _level_copy, _rows_of, lambda args, out: args[1]),
    "genfun content tally": Seam(verify_genfun, qyt.verify, "_content_tally", list,
                                 _entries, lambda args, out: args[1]),
    "hit walk counts": _walk_counts(verify_hit),
    "summation walk counts": _walk_counts(verify_summation),
    "foulkes walk counts": _walk_counts(verify_foulkes),
    "polya walk counts": _walk_counts(verify_polya),
    "hit hit numbers": _counts(verify_hit, FerrersBoard, "hit_numbers"),
    "jack hit numbers": _counts(verify_jack, FerrersBoard, "hit_numbers"),
    "foulkes path counts": _counts(verify_foulkes, qyt.verify, "qyt_counts_via_pnk"),
    "jack path counts": _counts(verify_jack, qyt.verify, "qyt_counts_via_pnk"),
    "summation hook-content counts": _counts(verify_summation, Partition,
                                             "hook_content_counts"),
}


def _faulted(coeffs, fault, slot):
    """coeffs with `fault` applied at `slot`."""
    out = list(coeffs)
    if fault[0] == "add":
        out[slot] += fault[1]
    elif fault[0] == "flip":
        out[slot] = -out[slot]
    else:  # the term moves up one slot
        if slot + 1 == len(out):
            out.append(0)
        out[slot + 1] += out[slot]
        out[slot] = 0
    return out


def _inject(seam, fault, target, rng):
    """A fault for seam.owner.name: the output of call number `target`
    (a level, for a generator) copied with `fault` at one slot that rng
    picks, a nonzero one for a flip or a move."""
    calls = [0]

    def change(out, args):
        calls[0] += 1
        if calls[0] != target + 1:
            return out
        out = seam.copy(out)
        width = seam.width(args, out)
        spots = []
        for container, key in seam.handles(out):
            value = container[key]
            coeffs = value if width is None else unpack(value, width)
            spots += [(container, key, s) for s, c in enumerate(coeffs)
                      if c or fault[0] == "add"]
        container, key, slot = rng.choice(spots)
        value = container[key]
        if width is None:
            container[key] = _faulted(value, fault, slot)
        else:
            container[key] = pack(_faulted(unpack(value, width), fault, slot), width)
        return out

    def make(true):
        if seam.generator:
            def faulty(*args):
                for out in true(*args):
                    yield change(out, args)
        else:
            def faulty(*args):
                return change(true(*args), args)
        return faulty

    return make


def _count_calls(seam, monkeypatch) -> int:
    """The outputs the seam gives one honest run of its suite."""
    calls = [0]
    true = getattr(seam.owner, seam.name)

    if seam.generator:
        def counted(*args):
            for out in true(*args):
                calls[0] += 1
                yield out
    else:
        def counted(*args):
            calls[0] += 1
            return true(*args)

    with monkeypatch.context() as patch:
        patch.setattr(seam.owner, seam.name, counted)
        assert seam.suite(BOUND).passed
    return calls[0]


@pytest.mark.parametrize("label", SEAMS)
def test_every_single_slot_fault_fails_its_suite(monkeypatch, label):
    seam = SEAMS[label]
    rng = random.Random(f"{SEED} {label}")
    calls = _count_calls(seam, monkeypatch)
    true = getattr(seam.owner, seam.name)
    survived, raised = [], []
    for fault in FAULTS:
        target = rng.randrange(calls)
        monkeypatch.setattr(seam.owner, seam.name, _inject(seam, fault, target, rng)(true))
        try:
            report = seam.suite(BOUND)
        except Exception as exc:  # every raise is a finding
            raised.append((fault, target, repr(exc)))
            continue
        if report.passed:
            survived.append((fault, target))
    assert (survived, raised) == ([], [])


def _table_faulted(true, n, fault, k, m):
    """A fault for verify.a_table: the table of n with `fault` at entry
    (k, m) on every call, as a faulty table would read, and every other
    table as it is."""
    def faulty(size):
        table = true(size)
        if size == n:
            table[k][m] = table[k][m] + fault[1] if fault[0] == "add" else -table[k][m]
        return table
    return faulty


def test_every_single_entry_fault_of_the_e_basis_table_fails_lattice(monkeypatch):
    # the adds at a seeded entry of a seeded table, and a sign flip of a
    # seeded nonzero entry at m = 0 and at m >= 1 of every table, n <= 5;
    # with no sampled points only the exhaustive checks can see them
    rng = random.Random(f"{SEED} a_table")
    true = qyt.verify.a_table
    cases = []
    for fault in FAULTS:
        if fault[0] == "add":
            n = rng.randint(1, BOUND)
            cases.append((n, fault, rng.randrange(n + 1), rng.randrange(n + 1)))
    for n in range(1, BOUND + 1):
        table = true(n)
        for columns in ([0], range(1, n + 1)):
            k, m = rng.choice([(k, m) for k in range(n + 1) for m in columns if table[k][m]])
            cases.append((n, ("flip",), k, m))
    survived, raised = [], []
    for n, fault, k, m in cases:
        monkeypatch.setattr(qyt.verify, "a_table", _table_faulted(true, n, fault, k, m))
        try:
            report = verify_lattice(BOUND, points=0)
        except Exception as exc:  # every raise is a finding
            raised.append((n, fault, k, m, repr(exc)))
            continue
        if report.passed:
            survived.append((n, fault, k, m))
    assert len(cases) == len(FAULTS) - 2 + 2 * BOUND
    assert (survived, raised) == ([], [])
