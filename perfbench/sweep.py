"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py [--workloads A B ...] [--seeds 1 2 ...] [--trace 0|1]

Runs perfbench/run.py once per (workload, seed), one run at a time, from the
root of a checkout, each run as long as `run_seconds` in BENCHMARK.json.
Prints per workload and metric the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread, (Q3 - Q1) / median,
plus the failed/attempted totals.  This is how the
reference figures in README.md were made.  Raw run outputs go to
perfbench/out/sweep-*.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    status = 0
    for workload in args.workloads:
        log = os.path.join(HERE, "out", f"sweep-{workload}-trace{args.trace}.jsonl")
        runs = []
        with open(log, "w", encoding="utf-8") as fh:
            for seed in args.seeds:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                    stdout=subprocess.PIPE, text=True,
                )
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                    status = 1
                    continue
                runs.append(json.loads(lines[-1]))
                fh.write(lines[-1] + "\n")
        if not runs:
            continue
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, failed {failed}/{attempted}, correct {correct}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / abs(median) if median else 0.0
            print(f"  {name:36s} {median:14.6g} {first['unit']:6s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%}")
    return status


if __name__ == "__main__":
    sys.exit(main())
