import csv
import functools
import gc
import io
import json
import os
import subprocess
import sys

import pytest

import qyt
from qyt import cli, verify
from qyt.cli import main
from qyt.symfun import schur_truncated
from qyt.verify import SuiteReport

import oracles

FORMATS = ("text", "json", "csv")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_count_examples(capsys):
    code, out = run(capsys, "count", "--shape", "2,2,1", "--exact-entry", "3")
    assert code == 0 and out.strip() == "3"
    code, out = run(capsys, "count", "--shape", "3,2", "--syt")
    assert code == 0 and out.strip() == "5"
    code, out = run(capsys, "count", "--shape", "2,2", "--ssyt", "3")
    assert code == 0 and out.strip() == "6"
    code, out = run(capsys, "count", "--shape", "2,2,1", "--max-entry", "4")
    assert code == 0 and out.strip() == "5"


def test_count_ssyt_zero_has_no_fillings(capsys):
    # no entry at most 0 can fill a cell, so SSYT_0 of a nonempty shape
    # is empty, as enumeration has it
    code, out = run(capsys, "count", "--shape", "3,2", "--ssyt", "0")
    assert code == 0 and out.strip() == "0"


@pytest.mark.parametrize("option,bound", [("--exact-entry", "-1"), ("--max-entry", "-5"),
                                          ("--ssyt", "-1")])
def test_count_rejects_a_negative_bound_by_name(capsys, option, bound):
    code = main(["count", "--shape", "3,2", option, bound])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {option} must be nonnegative, got {bound}\n"
    assert "Traceback" not in captured.err
    # K = 0 stays a bound, which no filling of a nonempty shape meets
    code, out = run(capsys, "count", "--shape", "3,2", option, "0")
    assert code == 0 and out.strip() == "0"


def test_count_json(capsys):
    code, out = run(capsys, "count", "--shape", "2,2,1", "--exact-entry", "3",
                    "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob == {"shape": "2,2,1", "mode": "exact-entry", "arg": 3, "count": 3}


def test_board_examples(capsys):
    code, out = run(capsys, "board", "--shape", "3,2")
    assert code == 0 and out.strip() == "2,2,2,3,3"
    code, out = run(capsys, "board", "--shape", "3,2", "--plus-one")
    assert code == 0 and out.strip() == "3,3,3,4,4"
    code, out = run(capsys, "board", "--shape", "2,2,1", "--hits")
    assert code == 0 and out.strip() == "0,48,72,0,0,0"
    code, out = run(capsys, "board", "--shape", "10")  # the cap is for statistics only
    assert code == 0 and out.strip() == ",".join(["9"] * 10)


def test_board_csv_and_json_agree(capsys):
    code, json_out = run(capsys, "board", "--shape", "2,2,1", "--hits",
                         "--format", "json")
    assert code == 0
    code, csv_out = run(capsys, "board", "--shape", "2,2,1", "--hits",
                        "--format", "csv")
    assert code == 0
    blob = json.loads(json_out)
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert [int(r["count"]) for r in rows] == blob["hit_numbers"]
    assert [int(r["k"]) for r in rows] == list(range(len(blob["hit_numbers"])))


def test_board_q_hits(capsys):
    code, out = run(capsys, "board", "--shape", "2,1", "--q-hits", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    # entries are [degree, coeff] pairs per k; q=1 totals give hit numbers
    totals = [sum(c for _, c in pairs) for pairs in blob["q_hit_numbers"]]
    code, out = run(capsys, "board", "--shape", "2,1", "--hits")
    assert totals == [int(v) for v in out.strip().split(",")]


def test_verify_pass_and_exit_codes(capsys):
    code, out = run(capsys, "verify", "hit", "--max-n", "4")
    assert code == 0
    assert "hit: pass" in out
    code, out = run(capsys, "verify", "hit", "--max-n", "4", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["status"] == "pass" and blob["bounds"] == {"max_n": 4}


def test_verify_failure_exit_code(capsys, monkeypatch):
    def broken(max_n=2):
        return SuiteReport("broken", {"max_n": max_n}, "fail",
                           {"shape": "2,1", "lhs": 1, "rhs": 2}, 0)

    monkeypatch.setitem(verify.SUITES, "broken", broken)
    code, out = run(capsys, "verify", "broken")
    assert code == 1
    assert "broken: fail" in out
    assert '"shape": "2,1"' in out


def test_wrapped_suite_gets_its_bounds(capsys, monkeypatch):
    @functools.wraps(verify.verify_lattice)
    def wrapped(*args, **kwargs):
        return verify.verify_lattice(*args, **kwargs)

    monkeypatch.setitem(verify.SUITES, "lattice", wrapped)
    code, out = run(capsys, "verify", "lattice", "--max-n", "3", "--seed", "5",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["bounds"] == {"max_n": 3, "points": 200, "seed": 5}


def test_verify_all_passes_the_seed_to_lattice_only(capsys):
    code, out = run(capsys, "verify", "all", "--seed", "5", "--format", "json")
    assert code == 0
    bounds = {blob["suite"]: blob["bounds"] for blob in json.loads(out)}
    assert bounds["lattice"]["seed"] == 5
    assert [name for name, b in bounds.items() if "seed" in b] == ["lattice"]


@pytest.mark.parametrize("suite", ["hit", "genfun"])
def test_verify_rejects_a_seed_the_suite_does_not_take(capsys, suite):
    code = main(["verify", suite, "--seed", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --seed applies only to the lattice suite\n"


@pytest.mark.parametrize("argv,option", [
    pytest.param(("expand", "schur", "--shape", "2,1", "--n", "4"), "--n", id="schur-n"),
    pytest.param(("expand", "schur", "--shape", "2,1", "--no-q"), "--no-q", id="schur-no-q"),
    pytest.param(("expand", "genfun", "--n", "3", "--shape", "2,1"), "--shape",
                 id="genfun-shape"),
    pytest.param(("expand", "genfun", "--n", "3", "--vars", "2"), "--vars", id="genfun-vars"),
    pytest.param(("board", "--shape", "3,2", "--limit", "2"), "--limit", id="board-limit"),
    pytest.param(("board", "--shape", "3,2", "--plus-one", "--limit", "9", "--format", "json"),
                 "--limit", id="board-plus-one-limit-json"),
])
def test_an_option_the_command_would_ignore_is_rejected(capsys, argv, option):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option} applies only ")
    assert "Traceback" not in captured.err


def _closed_after(lines: int, *argv: str, **env: str) -> tuple[int, str]:
    """(exit code, stderr) of `qyt argv` in a fresh interpreter on the qyt
    under test, with `env` added to its environment, whose stdout pipe
    the reader closes after `lines` lines."""
    src = os.path.dirname(os.path.dirname(qyt.__file__))
    env = {**os.environ, "PYTHONPATH": src, **env}
    proc = subprocess.Popen([sys.executable, "-m", "qyt.cli", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    for _ in range(lines):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return proc.wait(timeout=60), err


def test_a_reader_that_stops_early_ends_the_output_quietly():
    # `qyt expand schur ... | head -1`: 209 352 lines, written in chunks,
    # so the pipe closes while the command still writes
    assert _closed_after(1, "expand", "schur", "--shape", "3,3,3,1", "--vars", "12") == (141, "")
    # verify writes its report in one go at the end, which a reader can
    # take whole before it closes the pipe; closed first, the pipe is
    # certain to be closed when verify writes
    assert _closed_after(0, "verify", "all") == (141, "")
    # --help too, which argparse writes and whose failed write it would
    # swallow: unbuffered, the write itself fails; buffered, the flush
    for unbuffered in ("1", ""):
        assert _closed_after(0, "--help", PYTHONUNBUFFERED=unbuffered) == (141, ""), unbuffered
    for name, *_ in cli._COMMANDS:
        assert _closed_after(0, name, "--help") == (141, ""), name


def _freeze_count_at_exit(tmp_path, *argv: str) -> tuple[int, int]:
    """(exit code, gc.get_freeze_count() as an atexit hook reads it) of
    `python -m qyt.cli argv` on the qyt under test; the hook is
    registered by a sitecustomize module, before qyt runs."""
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n")
    src = os.path.dirname(os.path.dirname(qyt.__file__))
    proc = subprocess.run([sys.executable, "-m", "qyt.cli", *argv], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), src])})
    word, count = proc.stderr.splitlines()[-1].split()
    assert word == "frozen"
    return proc.returncode, int(count)


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["count", "--shape", "3,x", "--syt"], 2),
    (["verify", "hit", "--max-n", "3"], 0),
])
def test_a_process_freezes_its_heap_on_every_way_out(tmp_path, argv, code):
    # --help and a usage error leave main as argparse's SystemExit
    exit_code, frozen = _freeze_count_at_exit(tmp_path, *argv)
    assert exit_code == code and frozen > 0


def test_main_in_process_leaves_the_heap_unfrozen(capsys):
    assert run(capsys, "board", "--shape", "3,2") == (0, "2,2,2,3,3\n")
    assert gc.get_freeze_count() == 0


def test_the_installed_script_takes_the_same_exit_path():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as f:
        assert tomllib.load(f)["project"]["scripts"] == {"qyt": "qyt.cli:run"}


def test_verify_all_reports_every_suite_when_one_identity_fails(capsys, monkeypatch):
    # [3]! + 1 in the tables that verify reads breaks the Mahonian checks
    # of maj-hit and gjw and the q-hook formula of genfun; each is a
    # counterexample, and the other suites still run and pass
    true = verify.q_table_at

    def faulty(n, width):
        ints, facts, rows = true(n, width)
        return ints, (*facts[:3], facts[3] + 1, *facts[4:]) if n >= 3 else facts, rows

    monkeypatch.setattr(verify, "q_table_at", faulty)
    code, out = run(capsys, "verify", "all", "--max-n", "3")
    assert code == 1
    reports = [line for line in out.splitlines() if not line.startswith("{")]
    assert [line.split(" (")[0] for line in reports] == [
        f"{name}: {'fail' if name in ('maj-hit', 'genfun', 'gjw') else 'pass'}"
        for name in verify.SUITES]
    failures = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    assert [blob["check"] for blob in failures] == ["mahonian", "t1-specialization", "mahonian"]


def test_suites_run_past_the_board_cap(capsys):
    code, out = run(capsys, "verify", "hit", "--max-n", "10")
    assert code == 0 and out.startswith("hit: pass (max_n=10; ")


def test_verify_takes_no_limit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "hit", "--limit", "10"])
    assert exc.value.code == 2


@pytest.mark.parametrize("stat", ["--hits", "--q-hits"])
def test_board_caps_the_size_of_its_statistics(capsys, stat):
    code = main(["board", "--shape", "10", stat])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: board size 10 exceeds the cap 9; "
                            "pass a larger limit explicitly to override\n")
    code, out = run(capsys, "board", "--shape", "10", stat, "--limit", "10")
    assert code == 0
    if stat == "--hits":
        assert sum(int(v) for v in out.strip().split(",")) == 3628800
    else:
        assert [line.split(" = ")[0] for line in out.splitlines()] == [
            f"T_{k}" for k in range(11)]


def test_import_leaves_out_unused_stdlib_modules():
    # expand schur writes its json and csv as text straight from the walk
    script = ("import sys; before = set(sys.modules); import qyt.cli; "
              "print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr); "
              "[qyt.cli.main(['expand', 'schur', '--shape', '2,2', '--vars', '3', "
              "'--format', fmt]) for fmt in ('json', 'csv')]; "
              "print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr)")
    src = os.path.dirname(os.path.dirname(qyt.__file__))  # the qyt under test
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    on_import, after_expand = (set(line.split()) for line in proc.stderr.splitlines())
    assert "qyt.cli" in on_import
    assert on_import.isdisjoint({"dataclasses", "inspect", "json", "csv", "ast", "dis", "tokenize"})
    assert after_expand.isdisjoint({"json", "csv"})


def _modules_loaded(script: str, prefix: str = "qyt") -> set[str]:
    """The modules named prefix... in sys.modules after running script in
    a fresh interpreter on the qyt under test."""
    script += ("\nimport sys\n"
               f"print(' '.join(m for m in sys.modules if m.startswith({prefix!r})), "
               "file=sys.stderr)")
    src = os.path.dirname(os.path.dirname(qyt.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    return set(proc.stderr.split())


def test_import_qyt_loads_no_submodule():
    assert _modules_loaded("import qyt") == {"qyt"}
    # a name loads its own module and what that module imports
    assert _modules_loaded("import qyt; qyt.Partition") == {"qyt", "qyt.partition"}


def test_help_and_board_leave_out_the_unused_layers():
    loaded = _modules_loaded(
        "from qyt.cli import main\n"
        "try:\n    main(['--help'])\nexcept SystemExit:\n    pass\n"
        "main(['board', '--shape', '3,2'])")
    assert "qyt.board" in loaded
    assert loaded.isdisjoint({"qyt.verify", "qyt.symfun", "qyt.pnk", "qyt.tableau",
                              "qyt._kernels", "qyt.qpoly"})


def test_expand_json_loads_no_json_module():
    # both expansions write their JSON as text
    loaded = _modules_loaded(
        "from qyt.cli import main\n"
        "main(['expand', 'genfun', '--n', '4', '--format', 'json'])\n"
        "main(['expand', 'schur', '--shape', '3,1', '--vars', '3', '--format', 'json'])",
        prefix="json")
    assert loaded == set()


def test_table_a_coeffs(capsys):
    code, out = run(capsys, "table", "a-coeffs", "--n", "6", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["n"] == 6
    assert [blob["a"][k][3] for k in range(6)] == [1, 1, -8, 8, -1, -1]
    code, csv_out = run(capsys, "table", "a-coeffs", "--n", "6", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert [int(r["m3"]) for r in rows[:6]] == [1, 1, -8, 8, -1, -1]


def test_rsk_example(capsys):
    code, out = run(capsys, "rsk", "45312", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["shape"] == "2,2,1"
    assert blob["des_Q"] == [2, 3]
    code, out = run(capsys, "rsk", "45312")
    assert "shape: 2,2,1" in out


def test_rsk_word_with_repeated_letters(capsys):
    # P is the insertion tableau and Q the recording one, as for a permutation
    code, out = run(capsys, "rsk", "1,3,1", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert (blob["shape"], blob["P"], blob["Q"]) == ("2,1", "1,1/3", "1,2/3")


def test_expand_schur(capsys):
    code, out = run(capsys, "expand", "schur", "--shape", "2,2", "--vars", "3",
                    "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert len(blob["terms"]) == 6
    assert all(entry["coeff"] == 1 for entry in blob["terms"])


def _schur_outputs(shape, n_vars):
    """What `expand schur` prints in text, json and csv, built from the
    sorted listing with the json and csv modules."""
    terms = oracles.monomials_brute(schur_truncated(shape, n_vars), n_vars)
    blob = {"shape": shape, "vars": n_vars,
            "terms": [{"exponents": list(exps), "coeff": c} for exps, c in terms]}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["exponents", "coeff"])
    writer.writerows([" ".join(map(str, exps)), c] for exps, c in terms)
    return {
        "text": "\n".join(f"{','.join(map(str, exps))}: {c}" for exps, c in terms) + "\n",
        "json": json.dumps(blob, sort_keys=True) + "\n",
        "csv": buf.getvalue(),
    }


@pytest.mark.parametrize("chunk", [1, 2, 5, 4096])
@pytest.mark.parametrize("shape, n_vars", [
    ("2,2", 3), ("3,2,1", 5), ("3,3,3,1", 2), ("3,3,3,1", 0), ("1", 1), ("", 0), ("", 2),
])
def test_expand_schur_matches_the_sorted_listing(capsys, monkeypatch, chunk, shape, n_vars):
    # small chunks put chunk boundaries inside these short outputs
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    want = _schur_outputs(shape, n_vars)
    for fmt in FORMATS:
        code, out = run(capsys, "expand", "schur", "--shape", shape, "--vars", str(n_vars),
                        "--format", fmt)
        assert code == 0
        assert out == want[fmt], (fmt, out)


def test_expand_genfun(capsys):
    code, out = run(capsys, "expand", "genfun", "--n", "3", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    entries = {e["partition"]: e["coeff"] for e in blob["schur"]}
    assert entries["1,1,1"] == [[3, 2, 1]]  # q^3 t^2


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--shape", "2,2", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count", "--shape", "2,2"])  # missing mode
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2


def test_domain_errors_exit_2(capsys):
    code = main(["board", "--shape", "10", "--hits"])  # over the cap
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("word", ["1,,2", "1,2,", ",1", "1,a", "4a1"])
def test_rsk_rejects_unparseable_words(capsys, word):
    code = main(["rsk", word])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot parse word: {word!r}\n"


@pytest.mark.parametrize("shape", ["3,,2", ",", "3,x", "3,2,"])
def test_count_rejects_unparseable_shapes(capsys, shape):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--shape", shape, "--syt"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument --shape: cannot parse shape: {shape!r}\n")
    assert "Traceback" not in captured.err


def test_expand_schur_names_vars_in_its_error(capsys):
    code = main(["expand", "schur", "--shape", "2,1", "--vars", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --vars must be nonnegative, got -1\n"


@pytest.mark.parametrize("suite,bound", [("hit", "0"), ("polya", "-3"), ("lattice", "0")])
def test_verify_rejects_bounds_below_one(capsys, suite, bound):
    code = main(["verify", suite, "--max-n", bound])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --max-n must be at least 1, got {bound}\n"


@pytest.mark.parametrize("command,option,bound,least", [
    pytest.param(("expand", "schur", "--shape", "2,1"), "--vars", "-1", "0", id="schur-vars"),
    pytest.param(("expand", "genfun"), "--n", "-1", "0", id="genfun-n"),
    pytest.param(("table", "a-coeffs"), "--n", "0", "1", id="table-n"),
    pytest.param(("verify", "hit"), "--max-n", "0", "1", id="verify-max-n"),
    pytest.param(("board", "--shape=", "--hits"), "--limit", "-5", "0", id="board-limit"),
])
def test_a_numeric_option_out_of_range_is_named(capsys, command, option, bound, least):
    # the option's name, not the library argument it feeds
    code = main([*command, option, bound])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert option in captured.err
    assert "Traceback" not in captured.err
    # the smallest legal value still runs
    assert main([*command, option, least]) == 0


def test_output_is_deterministic(capsys):
    first = run(capsys, "expand", "genfun", "--n", "4", "--format", "json")
    second = run(capsys, "expand", "genfun", "--n", "4", "--format", "json")
    assert first == second
