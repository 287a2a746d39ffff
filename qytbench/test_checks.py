"""Tests for the benchmark's checkers and tracer.

Each checker must accept a real qyt output and reject it once any single
number in it is changed.  Run from the repository root with

    python3 -m pytest -q qytbench
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
NUMBER = re.compile(r"\d+")
REJECTED = (checks.CheckFailed, ValueError, KeyError, IndexError, TypeError)


def qyt(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "qyt.cli", *args], capture_output=True,
                          text=True, cwd=ROOT, env=env)


def one_number_changed(text: str, skip=lambda text, match: False):
    """Every copy of `text` with one of its numbers increased by one."""
    for match in NUMBER.finditer(text):
        if not skip(text, match):
            yield text[:match.start()] + str(int(match.group()) + 1) + text[match.end():]


def _elapsed_ms(text: str, match) -> bool:
    return text[match.end():].startswith(" ms)")


CASES = {
    "board": (("board", "--shape", "3,2", "--plus-one"),
              partial(checks.board_text, shape="3,2", plus_one=True)),
    "board-hits": (("board", "--shape", "2,2,1", "--hits"),
                   partial(checks.board_hits_text, shape="2,2,1")),
    "board-q-hits-json": (("board", "--shape", "2,2,1", "--plus-one", "--q-hits", "--format", "json"),
                          partial(checks.board_q_hits_json, shape="2,2,1", plus_one=True)),
    "board-q-hits-text": (("board", "--shape", "3,2", "--q-hits"),
                          partial(checks.board_q_hits_text, shape="3,2")),
    "count-max-entry": (("count", "--shape", "3,2,1", "--max-entry", "3"),
                        partial(checks.count_text, shape="3,2,1", mode="max-entry", arg=3)),
    "count-exact-entry": (("count", "--shape", "2,2,1", "--exact-entry", "3"),
                          partial(checks.count_text, shape="2,2,1", mode="exact-entry", arg=3)),
    "count-syt": (("count", "--shape", "3,2", "--syt"),
                  partial(checks.count_text, shape="3,2", mode="syt")),
    "count-ssyt": (("count", "--shape", "2,2", "--ssyt", "3"),
                   partial(checks.count_text, shape="2,2", mode="ssyt", arg=3)),
    "a-coeffs": (("table", "a-coeffs", "--n", "4"), partial(checks.a_table_text, n=4)),
    "genfun-json": (("expand", "genfun", "--n", "4", "--format", "json"),
                    partial(checks.genfun_json, n=4)),
    "genfun-text": (("expand", "genfun", "--n", "4"), partial(checks.genfun_text, n=4)),
    "schur-json": (("expand", "schur", "--shape", "2,1", "--vars", "3", "--format", "json"),
                   partial(checks.schur_json, shape="2,1", n_vars=3)),
    "schur-text": (("expand", "schur", "--shape", "2,2", "--vars", "3"),
                   partial(checks.schur_text, shape="2,2", n_vars=3)),
    "rsk": (("rsk", "45312"), partial(checks.rsk_text, word="45312")),
    "rsk-long": (("rsk", "3,10,1,2,9,8,7,4,6,5,11"),
                 partial(checks.rsk_text, word="3,10,1,2,9,8,7,4,6,5,11")),
    "verify": (("verify", "hit", "--max-n", "4"),
               partial(checks.verify_text, suites={"hit": {"max_n": 4}})),
    "verify-lattice": (("verify", "lattice", "--max-n", "3", "--seed", "7"),
                       partial(checks.verify_text,
                               suites={"lattice": {"max_n": 3, "points": 200, "seed": 7}})),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_checker_accepts_real_output_and_rejects_each_changed_number(case):
    args, check = CASES[case]
    proc = qyt(*args)
    assert proc.returncode == 0, proc.stderr
    check(proc.stdout)
    corrupted = list(one_number_changed(proc.stdout, _elapsed_ms))
    assert corrupted
    for text in corrupted:
        with pytest.raises(REJECTED):
            check(text)


def test_verify_checker_rejects_a_failing_or_missing_suite():
    out = qyt("verify", "hit", "--max-n", "4").stdout
    with pytest.raises(checks.CheckFailed):
        checks.verify_text(out.replace("pass", "fail"), {"hit": {"max_n": 4}})
    with pytest.raises(checks.CheckFailed):
        checks.verify_text(out, {"hit": {"max_n": 4}, "jack": {}})


def test_bad_input_checker():
    proc = qyt("rsk", "2,2,0")
    assert proc.returncode == 2
    checks.bad_input(proc.stdout, proc.stderr)
    with pytest.raises(checks.CheckFailed):
        checks.bad_input("", "Traceback (most recent call last):\n" + proc.stderr)
    with pytest.raises(checks.CheckFailed):
        checks.bad_input("1\n", proc.stderr)
    with pytest.raises(checks.CheckFailed):
        checks.bad_input("", "")


def test_independent_formulas_on_known_values():
    assert checks.hit_numbers(checks.board_heights((2, 2, 1))) == [0, 48, 72, 0, 0, 0]
    assert checks.eulerian_row(4) == [1, 11, 11, 1, 0]
    assert checks.hook_length_count((3, 2)) == 5
    assert checks.hook_content_count((2, 2), 3) == 6
    assert checks.qyt_exact((2, 2, 1), 3) == 3
    assert len(checks.partitions(9)) == 30
    assert checks.longest_increasing([4, 5, 3, 1, 2]) == 2


def test_workloads_are_fixed_by_the_seed():
    for name in workloads.WORKLOADS:
        ops = workloads.make(name, 11)
        assert [op.args for op in ops] == [op.args for op in workloads.make(name, 11)]
        assert {op.kind for op in ops} == {"verify", "command"}
        assert all((op.check is None) == (op.expect == 2) for op in ops)


def test_benchmark_json_lists_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_pass_spans_every_layer_it_calls():
    ops = [workloads.Op(("verify", "hit", "--max-n", "4"),
                        partial(checks.verify_text, suites={"hit": {"max_n": 4}}))]
    problems: list[str] = []
    traced = run.run_pass(ops, run.child_env(), True, problems, set())
    assert not problems and traced.failed == 0
    metrics = run.layer_metrics(traced)
    # Sum over n <= 4 of (partitions of n) * n!, one census per shape.
    assert metrics["kernels.perms_swept"] == sum(
        len(checks.partitions(n)) * math.factorial(n) for n in range(1, 5))
    assert metrics["board.census_calls"] == sum(len(checks.partitions(n)) for n in range(1, 5))
    assert metrics["verify.hit_s"] > 0 and metrics["kernels.self_s"] > 0
    assert all(metrics[f"{layer}.self_s"] >= 0 for layer in run.LAYERS)
    # Every per-layer metric but the overhead comes from the spans.
    listed = {m["name"] for m in run.SPEC["per_layer"]}
    assert listed - set(metrics) == {"trace.overhead_s"}
    # One root span (cli.main); every other span lies inside its parent
    # and belongs to another layer than the parent.
    _, header, body = traced.spans[0]
    names, parents, starts, ends = run._span_columns(header, body)
    layer = [header["names"][names[i]].split(".", 1)[0] for i in range(header["spans"])]
    root = [i for i in range(header["spans"]) if parents[i] == -1]
    assert len(root) == 1 and header["names"][names[root[0]]] == "cli.main"
    for i in range(header["spans"]):
        parent = parents[i]
        assert starts[i] <= ends[i]
        if parent >= 0:
            assert starts[parent] <= starts[i] and ends[i] <= ends[parent]
            assert layer[i] != layer[parent]


def test_pass_times_are_scaled_to_the_reference_host():
    ops = [workloads.Op(("verify", "hit")), workloads.Op(("rsk", "21"))]
    fast = run.Pass(times=[1.0, 3.0], setup=[0.2], loops=[run.REF_LOOP_S] * 3)
    slow = run.Pass(times=[2.0, 6.0], setup=[0.4], loops=[2 * run.REF_LOOP_S] * 3)
    for passes in ([fast], [slow], [fast, slow]):
        values = run.end_to_end(ops, passes)
        assert values["setup_s"] == pytest.approx(0.2)
        assert values["verify_s"] == pytest.approx(1.0)
        assert values["command_s"] == pytest.approx(3.0)
