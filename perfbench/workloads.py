"""The benchmark's two workloads: their inputs, sizes and operation counts.

Every input is a pure function of the workload name and the `--seed` the
benchmark is given; the seed becomes the program's master seed.  Each
workload is sized so that one iteration takes two to four seconds on two
cores, so a run (`run_seconds` in BENCHMARK.json) repeats it a dozen times
or more and its medians hold still while the machine drifts in speed.
README.md gives the figures.
"""

from __future__ import annotations

UNIFORM01 = {"kind": "uniform", "lo": 0.0, "hi": 1.0}

# Single-volume workloads run `wegner-single` through `wegner2p.cli.main`.
EXPERIMENTS = {
    # criterion-1 cell, m = 25: per-trial RNG and the Python trial loop are
    # about half the time, and per_trial_dist makes the report 25 bytes a trial.
    # 50k trials rather than fewer: a longer iteration averages out how the
    # two worker threads happen to be scheduled.
    "sv_small": {
        "threads": 2,
        "config": {
            "dimension": 1,
            "radius": 2,
            "center": [[0], [0]],
            "dist": UNIFORM01,
            "energy": 0.0,
            "epsilon": 1e-3,
            "trials": 50_000,
        },
    },
    # m = 121: batched eigvalsh dominates and each of the two worker threads
    # builds a 1024 x 121 x 121 float64 batch (120 MB): two batches, one per
    # thread.  eps = 1e-4 keeps the ceiling below 1.  After the CLI call the
    # iteration makes the VERIFICATION calls, the only ones into the lattice
    # classifier, Stollmann's lemma and the DM check.
    "sv_large_verify": {
        "threads": 2,
        "verify": True,
        "config": {
            "dimension": 1,
            "radius": 5,
            "center": [[0], [0]],
            "dist": UNIFORM01,
            "energy": 0.0,
            "epsilon": 1e-4,
            "trials": 2048,
        },
    },
}

# Library calls made after the CLI call by a workload with "verify".  They
# are pure Python, whose speed swings most on a contended machine, so they
# are kept to about a sixth of the iteration:
# the surveys stop at L = 0 (8,179 geometries through the same per-geometry
# classifier as any larger L).
VERIFICATION = {
    "line_radii": (0,),
    "plane_radii": (0,),
    "stollmann_arity": 3,
    "stollmann_interval": (0.5, 0.6),
    "stollmann_trials": 50_000,
    "dm_center": [[0], [0]],
    "dm_radius": 2,
    "dm_trials": 1000,
}

WORKLOADS = tuple(EXPERIMENTS)

# Per-layer counts that a traced iteration of each workload must find above
# zero.  A zero means the tracer lost sight of a layer, and fails the iteration.
_EXPERIMENT_COUNTS = ("potential.rng_derive_calls", "experiments.eigvalsh_matrices")
_VERIFICATION_COUNTS = ("lattice.classify_calls", "stollmann.evaluator_calls",
                        "spectral.verify_dm_eigvalsh_calls")
TRACED_COUNTS = {
    name: _EXPERIMENT_COUNTS + (_VERIFICATION_COUNTS if spec.get("verify") else ())
    for name, spec in EXPERIMENTS.items()
}


def verifies(name: str) -> bool:
    """Whether the workload's iterations make the VERIFICATION calls."""
    return EXPERIMENTS[name].get("verify", False)


def experiment_config(name: str, seed: int) -> dict:
    """The JSON config handed to the CLI for one experiment workload."""
    return {**EXPERIMENTS[name]["config"], "master_seed": seed}


def operations_per_iteration(name: str) -> int:
    """Checked operations in one iteration: the CLI call and each library call."""
    if not verifies(name):
        return 1
    return 1 + len(VERIFICATION["line_radii"]) + len(VERIFICATION["plane_radii"]) + 2


def trials_per_iteration(name: str) -> int:
    """Monte Carlo trials the CLI call draws in one iteration."""
    return EXPERIMENTS[name]["config"]["trials"]
