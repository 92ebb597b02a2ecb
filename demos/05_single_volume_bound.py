"""Single-volume concentration experiment at desk scale.

Estimate the probability that the spectrum of a disordered pair box comes
within eps of a fixed energy, and compare against the analytic ceiling
|box| * |projection union| * s(2 eps).  The verdict requires the estimate
minus three standard errors to stay below the ceiling.
"""

from wegner2p import ExperimentConfig, analytic_bound, run_single_volume

config = ExperimentConfig.from_dict(
    {
        "dimension": 1,
        "radius": 2,
        "center": [[0], [0]],
        "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "energy": 0.0,
        "epsilon": 0.01,
        "trials": 20_000,
        "master_seed": 424242,
        "coupling": 1.0,
        "bound_mode": "two_eps",
    },
    threads=2,
)
report = run_single_volume(config)

print("box dimension", 5 * 5, "| energy 0.0 | eps", config.epsilon)
print(f"hits {report.hits} / {report.trials}")
print(f"empirical probability {report.empirical_probability:.5f} (+- {report.std_error:.5f})")
print(f"analytic ceiling      {report.analytic_bound:.5f}")
print("verdict:", report.verdict)
print()

# The ceiling scales linearly in eps while the empirical rate tracks it
# from below.
for eps in (0.05, 0.02, 0.01, 0.005):
    cfg = ExperimentConfig.from_dict(
        {
            "dimension": 1,
            "radius": 2,
            "center": [[0], [0]],
            "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            "energy": 0.0,
            "epsilon": eps,
            "trials": 5_000,
            "master_seed": 424242,
            "coupling": 1.0,
        },
        threads=2,
    )
    rep = run_single_volume(cfg)
    box = cfg.hamiltonian.box
    bound = analytic_bound([box], box, cfg.dist, eps)  # one box, left wholly random
    print(f"eps={eps:<6g} p_hat={rep.empirical_probability:.4f}  ceiling={bound:.4f}")
