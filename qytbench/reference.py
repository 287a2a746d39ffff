"""Regenerate the reference figures of qytbench/README.md.

Usage:  python3 qytbench/reference.py [--runs 10]

Runs run.py --trace 0 once per seed 1..runs on each workload of
BENCHMARK.json, for its run_seconds, then one --trace 1 run per workload
with seed 1, and prints Markdown tables: for
each end-to-end metric its median, quartiles and quartile spread as a
share of the median (statistics.quantiles(values, n=4)), and the traced
per-layer figures.  Runs are made one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    print(f"Untraced: {args.runs} runs of {seconds} s per workload, seeds 1..{args.runs}.\n")
    print("| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median | bound |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for name in names:
        results = [bench(name, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            unit = results[0]["metrics"][metric]["unit"]
            print(f"| {name} | {metric} ({unit}) | {med:.4f} | {q1:.4f} | {q3:.4f} "
                  f"| {(q3 - q1) / med:.3f} | {bounds[metric]} |", flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"| {name} | attempted / failed / correct | {attempted} / {failed} / {correct} "
              "| | | | |", flush=True)

    traced = {name: bench(name, 1, seconds, 1) for name in names}
    print(f"\nTraced: one run of {seconds} s per workload, seed 1.\n")
    print("| metric | " + " | ".join(names) + " |")
    print("| --- |" + " --- |" * len(names))
    for m in spec["per_layer"]:
        unit = m["unit"]
        cells = []
        for name in names:
            value = traced[name]["metrics"][m["name"]]["value"]
            cells.append(f"{value:.4g}" if unit in ("s", "ratio", "1/s") else f"{value:.0f}")
        print(f"| {m['name']} ({unit}) | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
