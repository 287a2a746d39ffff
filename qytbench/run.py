"""Benchmark of the qyt command line.

Usage:
    python3 qytbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Runs one workload (census, tableaux, expansions or defaults; see
workloads.py and README.md) from the root of a checkout.  Every operation
is a fresh `python -m qyt.cli ...` process on the checkout's `src/`, and
operations run one at a time.  A pass runs every operation of the
workload once and checks each output with checks.py; passes repeat while
the next one fits in --seconds (at least one runs).

--trace 0 reports the end-to-end metrics.  Each operation's time is its
median over the passes; wall_s is the sum of those medians over the
workload, verify_s and command_s split that sum between `verify` and the
other commands, and slowest_op_s is the largest of them.  peak_rss_mb is
the median over passes of the largest resident set of any operation.
setup_s is the median time of fresh `qyt --help` processes, a few of
them launched after every pass so that they sample the whole run.

Every time of a pass is scaled to the host speed of a reference host:
a fixed pure-Python loop is timed before each process of the pass, and
the pass's times are multiplied by REF_LOOP_S over the loop's median
time in that pass.  On a shared host the speed of the CPU drifts by up
to 40 % over minutes; the loop slows with it, and the scaling takes that
drift out of the comparison between runs (see README.md).
--trace 1 alternates untraced passes with passes in which each operation
runs under traced.py, and reports the per-layer metrics; the spans are
kept in memory and written to .bench_out/ when the run ends.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The run exits 2 without that line when
qyt cannot be imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from checks import SUITES, bad_input
from traced import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh `qyt --help` processes timed for setup_s after each pass.
SETUP_LAUNCHES = 3
#: Iterations of the reference loop, and its median time on the reference
#: host (2 vCPUs, Python 3.11.7).
REF_LOOP_ITERATIONS = 200_000
REF_LOOP_S = 0.0225
#: An operation still running after this long is killed and counted failed.
OP_TIMEOUT_S = 60

#: Metric names and units, as BENCHMARK.json lists them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

PROVENANCE = (
    "import json, platform, qyt, qyt._kernels; print(json.dumps({"
    "'python': platform.python_version(), 'qyt_file': qyt.__file__, "
    "'backend': qyt._kernels.active_backend()}))"
)


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


@dataclass
class Outcome:
    code: int
    out: str
    err: str
    seconds: float
    rss_mb: float
    spans: bytes | None


def child_env() -> dict[str, str]:
    """The caller's environment without qyt's own settings, with qyt taken
    from src/ and its bytecode cached there, as an installed package has."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("QYT") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], env: dict[str, str], traced: bool = False) -> Outcome:
    """Run one process to its end; its wall time covers process start, and
    its peak resident set is its own ru_maxrss from wait4."""
    span_r = span_w = None
    if traced:
        span_r, span_w = os.pipe()
        env = dict(env, QYTBENCH_SPAN_FD=str(span_w))
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            cwd=ROOT, pass_fds=(span_w,) if traced else ())
    if span_w is not None:
        os.close(span_w)
    streams = [proc.stdout, proc.stderr]
    if span_r is not None:
        streams.append(os.fdopen(span_r, "rb"))
    data = [b""] * len(streams)

    def drain(i: int) -> None:
        data[i] = streams[i].read()

    readers = [threading.Thread(target=drain, args=(i,)) for i in range(1, len(streams))]
    watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
    watchdog.start()
    for t in readers:
        t.start()
    drain(0)
    for t in readers:
        t.join()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - started
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for s in streams:
        s.close()
    return Outcome(proc.returncode, data[0].decode(), data[1].decode(), seconds,
                   usage.ru_maxrss / 1024, data[2] if traced else None)


def provenance(env: dict[str, str], args) -> dict:
    res = spawn([sys.executable, "-c", PROVENANCE], env)
    if res.code != 0:
        raise SetupError(f"cannot import qyt from {SRC}: {res.err.strip().splitlines()[-1:]}")
    info = json.loads(res.out)
    if not Path(info["qyt_file"]).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"qyt resolves to {info['qyt_file']}, outside {SRC}")
    info.update(
        nproc=len(os.sched_getaffinity(0)),
        bench_python=platform.python_version(),
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
    )
    return info


def reference_loop() -> float:
    """Time a fixed pure-Python loop, which slows as the host does."""
    started = time.perf_counter()
    total = 0
    for i in range(REF_LOOP_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - started


def measure_setup(env: dict[str, str], result: "Pass") -> None:
    for _ in range(SETUP_LAUNCHES):
        result.loops.append(reference_loop())
        res = spawn([sys.executable, "-m", "qyt.cli", "--help"], env)
        if res.code != 0 or not res.out.startswith("usage: qyt"):
            raise SetupError(f"qyt --help failed: {res.err.strip()}")
        result.setup.append(res.seconds)


@dataclass
class Pass:
    """One run of every operation of a workload: each operation's time,
    the largest resident set, the operations that failed, the spans of a
    traced pass as (operation id, header, span arrays), the times of
    `qyt --help` launched after the pass, and the reference loop's time
    before each process."""

    times: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    failed: int = 0
    spans: list[tuple[int, dict, bytes]] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    loops: list[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """The factor that takes this pass's times to the reference host."""
        return REF_LOOP_S / statistics.median(self.loops)


def run_pass(ops, env, traced: bool, problems: list[str], failures: set[str]) -> Pass:
    """Run and check every operation once; wrong outputs go to `problems`,
    unexpected exit codes to `failures`."""
    result = Pass()
    for op_id, op in enumerate(ops):
        if traced:
            argv = [sys.executable, str(BENCH / "traced.py"), *op.args]
        else:
            argv = [sys.executable, "-m", "qyt.cli", *op.args]
        result.loops.append(reference_loop())
        res = spawn(argv, env, traced)
        result.times.append(res.seconds)
        result.peak_rss_mb = max(result.peak_rss_mb, res.rss_mb)
        if traced:
            result.spans.append((op_id, *_split_spans(res.spans)))
        label = "qyt " + " ".join(op.args)
        if res.code != op.expect:
            result.failed += 1
            failures.add(f"{label}: exit {res.code}, expected {op.expect}")
            continue
        try:
            if op.expect == 2:
                bad_input(res.out, res.err)
            else:
                if res.err:
                    problems.append(f"{label}: wrote to stderr: {res.err[-300:]!r}")
                op.check(res.out)
        except Exception as exc:  # any checker error marks the output wrong
            problems.append(f"{label}: {type(exc).__name__}: {exc}")
    return result


def _split_spans(blob: bytes | None) -> tuple[dict, bytes]:
    if not blob:
        return {"names": [], "calls": [], "counters": {}, "spans": 0}, b""
    head, _, body = blob.partition(b"\n")
    return json.loads(head), body


def _span_columns(header: dict, body: bytes):
    n = header["spans"]
    cols = [array("i"), array("i"), array("q"), array("q")]
    offset = 0
    for col in cols:
        width = col.itemsize * n
        col.frombytes(body[offset:offset + width])
        offset += width
    return cols


def layer_metrics(traced: Pass) -> dict[str, float]:
    """Per-layer self times, counts and ratios of one traced pass."""
    self_ns: Counter = Counter()
    span_ns: Counter = Counter()
    calls: Counter = Counter()
    counters: Counter = Counter()
    for _, header, body in traced.spans:
        names = header["names"]
        layer_of = [name.split(".", 1)[0] for name in names]
        name_ids, parents, starts, ends = _span_columns(header, body)
        for i in range(header["spans"]):
            dur = ends[i] - starts[i]
            self_ns[layer_of[name_ids[i]]] += dur
            span_ns[names[name_ids[i]]] += dur
            if parents[i] >= 0:
                self_ns[layer_of[name_ids[parents[i]]]] -= dur
        calls.update(dict(zip(names, header["calls"])))
        counters.update(header["counters"])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS}
    census_calls = calls["board.FerrersBoard.hit_numbers"] + calls["board.FerrersBoard.q_hit_numbers"]
    built = counters["tableau.syt_built"] + counters["tableau.ssyt_built"]
    m.update({
        "kernels.perms_swept": counters["kernels.perms_swept"],
        "kernels.perms_per_s": ratio(counters["kernels.perms_swept"], m["kernels.self_s"]),
        "board.census_calls": census_calls,
        "board.census_repeat_ratio": ratio(counters["board.census_distinct"], census_calls),
        "qpoly.mul_calls": calls["qpoly.QPoly.__mul__"],
        "qpoly.mul_coeff_products": counters["qpoly.mul_coeff_products"],
        "qpoly.q_binom_calls": calls["qpoly.q_binom"],
        "qpoly.q_binom_distinct_ratio": ratio(counters["qpoly.q_binom_distinct"], calls["qpoly.q_binom"]),
        "qpoly.qt_ops": calls["qpoly.QTPoly.__add__"] + calls["qpoly.QTPoly.__mul__"],
        "tableau.syt_built": counters["tableau.syt_built"],
        "tableau.ssyt_built": counters["tableau.ssyt_built"],
        "tableau.kostka_calls": calls["tableau.kostka"],
        "tableau.fillings_per_s": ratio(built, m["tableau.self_s"]),
        "tableau.count_useful_ratio": ratio(counters["tableau.count_counted"],
                                            counters["tableau.count_built"]),
        "partition.hook_content_calls": calls["partition.Partition.hook_content_count"],
        "pnk.paths_summed": counters["pnk.paths_summed"],
        "symfun.add_term_calls": calls["symfun.MonomialMap.add_term"],
        "symfun.monomials_out": counters["symfun.monomials_out"],
        "perm.words_generated": counters["perm.words_generated"],
    })
    for suite in SUITES:
        key = suite.replace("-", "_")
        m[f"verify.{key}_s"] = span_ns[f"verify.verify_{key}"] / 1e9
    return m


def write_spans(path: Path, info: dict, ops, traced_passes: list[Pass]) -> None:
    """One tab-separated line per span: pass, operation id, span index,
    parent index (-1 for the root), name, start and end in nanoseconds."""
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt") as out:
        out.write("# " + json.dumps(info) + "\n")
        for op_id, op in enumerate(ops):
            out.write(f"# op {op_id}: qyt {' '.join(op.args)}\n")
        out.write("pass\top\tspan\tparent\tname\tstart_ns\tend_ns\n")
        for pass_id, traced in enumerate(traced_passes):
            for op_id, header, body in traced.spans:
                names = header["names"]
                name_ids, parents, starts, ends = _span_columns(header, body)
                for i in range(header["spans"]):
                    out.write(f"{pass_id}\t{op_id}\t{i}\t{parents[i]}\t{names[name_ids[i]]}"
                              f"\t{starts[i]}\t{ends[i]}\n")


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def op_medians(passes: list[Pass]) -> list[float]:
    """Each operation's median scaled time over the passes."""
    return [statistics.median(t * p.scale for t, p in zip(times, passes))
            for times in zip(*(p.times for p in passes))]


def end_to_end(ops, passes: list[Pass]) -> dict[str, float]:
    per_op = op_medians(passes)
    verify_s = sum(t for t, op in zip(per_op, ops) if op.kind == "verify")
    return {
        "setup_s": statistics.median(t * p.scale for p in passes for t in p.setup),
        "wall_s": sum(per_op),
        "verify_s": verify_s,
        "command_s": sum(per_op) - verify_s,
        "slowest_op_s": max(per_op),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark the qyt command line.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = child_env()
    ops = workloads.make(args.workload, args.seed)
    problems: list[str] = []
    failures: set[str] = set()
    plain: list[Pass] = []
    traced: list[Pass] = []
    try:
        info = provenance(env, args)
        print("provenance " + json.dumps(info, sort_keys=True), flush=True)
        started = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            plain.append(run_pass(ops, env, False, problems, failures))
            if args.trace:
                traced.append(run_pass(ops, env, True, problems, failures))
            else:
                measure_setup(env, plain[-1])
            now = time.perf_counter()
            if now - started + (now - round_start) > args.seconds:
                break
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runs = plain + traced
    attempted = len(ops) * len(runs)
    failed = sum(p.failed for p in runs)
    if args.trace:
        values = median_of([layer_metrics(p) for p in traced])
        values["trace.overhead_s"] = sum(op_medians(traced)) - sum(op_medians(plain))
        listed = SPEC["per_layer"]
        trace_file = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        write_spans(trace_file, info, ops, traced)
        print(f"spans written to {trace_file.relative_to(ROOT)}", flush=True)
    else:
        values = end_to_end(ops, plain)
        listed = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"{args.workload}: {len(runs)} passes of {len(ops)} operations, "
          f"{attempted} attempted, {failed} failed", flush=True)
    loop_s = statistics.median(t for p in runs for t in p.loops)
    print(f"reference loop: median {loop_s:.4f} s against {REF_LOOP_S} s on the reference host; "
          f"pass times scaled by {min(p.scale for p in runs):.3f}-{max(p.scale for p in runs):.3f}",
          flush=True)
    for line in sorted(failures):
        print(f"failed: {line}", file=sys.stderr)
    for line in problems[:20]:
        print(f"wrong output: {line}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:32} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
