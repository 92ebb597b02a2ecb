"""Benchmark for wegner2p: one workload per invocation, from a checkout's root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole iterations of the workload, each in a fresh process
(perfbench/worker.py), until S seconds have passed, checks every output, and
prints as its last stdout line one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 untraced and traced iterations alternate and the metrics are
the per-layer ones plus the tracing overhead.  The line before it records
the environment (nproc, numpy, OpenBLAS, BLAS threads).  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from workloads import (  # noqa: E402
    TRACED_COUNTS,
    VERIFICATION,
    WORKLOADS,
    experiment_config,
    operations_per_iteration,
    trials_per_iteration,
    verifies,
)

WORKER_TIMEOUT_S = 120


def environment() -> dict:
    """Versions and thread settings the timings depend on, as the user has them."""
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "openblas": None,
        "blas_threads": None,
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                env["openblas"] = config().decode()
                env["blas_threads"] = threads()
                return env
    return env


def run_iteration(args, rundir: str, child_env: dict, traced: bool) -> dict | None:
    """Run one iteration in a fresh worker process and return its result."""
    result_path = os.path.join(rundir, "result.json")
    for stale in (result_path, os.path.join(rundir, "report.json")):
        if os.path.exists(stale):
            os.remove(stale)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--trace", str(int(traced)), "--dir", rundir, "--t0", repr(t0)],
            env=child_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"worker killed after {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not os.path.exists(result_path):
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return None
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def check_iteration(name: str, result: dict, rundir: str, config: dict, ref: dict,
                    line_counts: dict) -> list[list[str]]:
    """Failure messages for each operation of one iteration."""
    try:
        with open(os.path.join(rundir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as err:
        ops = [[f"no readable report (CLI exit {result['exit_code']}): {err}"]]
    else:
        ops = [oracle.check_single_volume(report, result["exit_code"], config, ref)]
    if verifies(name):
        V = VERIFICATION
        ops += [oracle.check_survey(s, line_counts) for s in result["surveys"]]
        ops.append(oracle.check_stollmann(result["stollmann"], V["stollmann_interval"],
                                          V["stollmann_arity"], V["stollmann_trials"]))
        ops.append(oracle.check_dm(result["dm"], V["dm_trials"]))
    return ops


def end_to_end(name: str, results: list[dict]) -> dict[str, float]:
    trials = trials_per_iteration(name)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "trials_per_s": statistics.median(trials / r["call_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def per_layer(name: str, untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    # The lower median is one of the measured values, so counts stay whole.
    metrics = {key: statistics.median_low(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
    V = VERIFICATION
    rates = {"geometries_per_s": 0.0, "stollmann_samples_per_s": 0.0, "dm_trials_per_s": 0.0}
    if verifies(name):
        geometries = sum(s["geometries"] for s in untraced[0]["surveys"])
        rates = {
            "geometries_per_s": statistics.median(geometries / r["survey_s"] for r in untraced),
            "stollmann_samples_per_s": statistics.median(V["stollmann_trials"] / r["stollmann_s"] for r in untraced),
            "dm_trials_per_s": statistics.median(V["dm_trials"] / r["dm_s"] for r in untraced),
        }
    metrics.update(rates)
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in untraced))
    return metrics


def declared_units(trace: int) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them for this mode."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a nonnegative 63-bit integer")

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "wegner2p", "cli.py")):
        print("error: run from the root of a wegner2p checkout (no src/wegner2p here)", file=sys.stderr)
        return 2
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)

    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=outdir)
    try:
        config = experiment_config(args.workload, args.seed)
        with open(os.path.join(rundir, "config.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        # As many independent samples as the program draws.
        ref = oracle.single_volume_reference(config, config["trials"], args.seed)
        line_counts = {L: oracle.line_survey_counts(L) for L in VERIFICATION["line_radii"]}

        iterations = []
        per_iteration = operations_per_iteration(args.workload)
        deadline = time.monotonic() + args.seconds
        while True:
            traced = bool(args.trace) and len(iterations) % 2 == 1
            started = time.monotonic()
            result = run_iteration(args, rundir, child_env, traced)
            took = time.monotonic() - started
            if result is None:
                ops = [["worker failed"]] * per_iteration
            elif not result["wegner2p_file"].startswith(src + os.sep):
                print(f"error: worker imported {result['wegner2p_file']}, not {src}", file=sys.stderr)
                return 2
            else:
                try:
                    ops = check_iteration(args.workload, result, rundir, config, ref, line_counts)
                except (KeyError, TypeError) as err:
                    ops = [[f"output lacks a field the method defines: {err!r}"]] * per_iteration
                if traced:
                    lost = [k for k in TRACED_COUNTS[args.workload] if not result["layers"][k]]
                    if lost:
                        ops = [messages + [f"traced iteration counted no {', '.join(lost)}"] for messages in ops]
            for messages in ops:
                for message in messages:
                    print(f"check failed: {message}", file=sys.stderr)
            iterations.append({"traced": traced, "result": result, "failures": ops})
            # Start another iteration only if it should end less than half an
            # iteration past the deadline, so runs last about --seconds.
            if time.monotonic() + took / 2 >= deadline and (not args.trace or len(iterations) >= 2):
                break
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = sum(len(it["failures"]) for it in iterations)
    failed = sum(1 for it in iterations for messages in it["failures"] if messages)
    wrong = any(messages and it["result"] is not None for it in iterations for messages in it["failures"])
    good = [it for it in iterations if it["result"] is not None and not any(it["failures"])]
    untraced = [it["result"] for it in good if not it["traced"]]
    traced = [it["result"] for it in good if it["traced"]]
    if not untraced or (args.trace and not traced):
        print("error: no iteration completed with correct output", file=sys.stderr)
        return 1
    metrics = per_layer(args.workload, untraced, traced) if args.trace else end_to_end(args.workload, untraced)
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json", file=sys.stderr)
        return 1

    env = environment()
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "env": env, "iterations": iterations,
               "metrics": metrics}
    summary_path = os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
