"""One iteration of one workload, in a fresh process started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --dir RUNDIR --t0 T

`--t0` is the parent's `time.monotonic()` just before it started this
process, so set-up time counts interpreter start and imports.  The worker
writes its timings, peak RSS, library results and (with --trace 1) per-layer
metrics to RUNDIR/result.json; run.py checks them.  Each iteration runs
`wegner2p.cli.main`, which writes its report to RUNDIR/report.json, and then,
for a workload that verifies, the library calls of VERIFICATION.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _first_call_stamp(owner, attr: str, stamps: list[float]) -> None:
    """Record when `owner.attr` is first called, then put the original back."""
    original = owner.__dict__[attr]

    def stamp(*args, **kwargs):
        stamps.append(time.monotonic())
        setattr(owner, attr, original)
        return original(*args, **kwargs)

    setattr(owner, attr, stamp)


def _timed_calls(module, names, durations: list[float]) -> None:
    """Time every call of `module.name` for the given names."""
    for name in names:
        original = getattr(module, name)

        def timed(*args, _f=original, **kwargs):
            start = time.perf_counter()
            try:
                return _f(*args, **kwargs)
            finally:
                durations.append(time.perf_counter() - start)

        setattr(module, name, timed)


def run_experiment(name: str, rundir: str) -> dict:
    from wegner2p import cli, potential
    from workloads import EXPERIMENTS

    spec = EXPERIMENTS[name]
    first_trial: list[float] = []
    call_s: list[float] = []
    # The first substream a run derives belongs to its first trial, so
    # everything before it is set-up.
    _first_call_stamp(potential.RngStream, "generator", first_trial)
    _timed_calls(cli, ("run_single_volume",), call_s)
    report = os.path.join(rundir, "report.json")
    code = cli.main([
        "wegner-single",
        "--config", os.path.join(rundir, "config.json"),
        "--out", report,
        "--threads", str(spec["threads"]),
    ])
    return {"exit_code": code, "t_first": min(first_trial), "call_s": sum(call_s)}


def run_verification(seed: int) -> dict:
    from wegner2p import hamiltonian, lattice, potential, spectral, stollmann
    from workloads import VERIFICATION as V

    uniform = potential.DistributionSpec.uniform(0.0, 1.0)
    f = stollmann.coordinate_max(V["stollmann_arity"])
    interval = stollmann.IntervalSpec(*V["stollmann_interval"])
    dm_spec = hamiltonian.HamiltonianSpec(
        box=lattice.make_box(lattice.PairPoint.of(*V["dm_center"]), V["dm_radius"]),
        interaction=hamiltonian.InteractionSpec.zero(1),
        coupling=1.0,
    )
    sites = hamiltonian.HamiltonianTemplate(dm_spec).sites
    field = potential.sample_field(sites, uniform, potential.RngStream(seed, 0))
    clock = time.perf_counter

    surveys = []
    survey_s = 0.0
    for kind, fn in (("line", lattice.survey_separation_line), ("plane", lattice.survey_separation_plane)):
        for L in V[f"{kind}_radii"]:
            start = clock()
            s = fn(L)
            survey_s += clock() - start
            surveys.append({
                "kind": kind,
                "radius": L,
                "geometries": s.geometries,
                "empty": s.empty,
                "class_counts": {c.value: n for c, n in s.class_counts.items()},
            })
    start = clock()
    mc = stollmann.stollmann_mc(f, uniform, interval, V["stollmann_trials"], potential.RngStream(seed, 0))
    stollmann_s = clock() - start
    start = clock()
    dm = spectral.verify_dm_eigenvalues(dm_spec, field, V["dm_trials"], potential.RngStream(seed, 1))
    dm_s = clock() - start
    return {
        "survey_s": survey_s,
        "stollmann_s": stollmann_s,
        "dm_s": dm_s,
        "surveys": surveys,
        "stollmann": {"estimate": mc.estimate, "std_error": mc.std_error, "bound": mc.bound},
        "dm": {"passed": dm.passed, "checks": dm.checks, "tolerance": dm.tolerance},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    import wegner2p.cli  # noqa: F401  (imports are part of set-up)
    from tracer import Tracer
    from workloads import verifies

    tracer = Tracer().install() if args.trace else None
    result = run_experiment(args.workload, args.dir)
    if verifies(args.workload):
        result.update(run_verification(args.seed))
    result["wall_s"] = time.monotonic() - args.t0
    result["setup_s"] = result.pop("t_first") - args.t0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["wegner2p_file"] = sys.modules["wegner2p"].__file__
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    with open(os.path.join(args.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
