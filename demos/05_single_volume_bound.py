"""Single-volume concentration experiment at desk scale.

Estimate the probability that the spectrum of a disordered pair box comes
closer than eps to a fixed energy, and compare against the analytic ceiling
|box| * |projection union| * s(window).  The verdict requires the estimate
minus three standard errors to stay below the ceiling.  Every ceiling below
is under 1: a ceiling of 1 or more holds for any law and tests nothing.
"""

from wegner2p import ExperimentConfig, analytic_bound, run_single_volume


def experiment(radius, eps, energy, trials, coupling=1.0, bound_mode="two_eps"):
    return ExperimentConfig.from_dict(
        {
            "dimension": 1,
            "radius": radius,
            "center": [[0], [0]],
            "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            "energy": energy,
            "epsilon": eps,
            "trials": trials,
            "master_seed": 424242,
            "coupling": coupling,
            "bound_mode": bound_mode,
        },
        threads=2,
    )


config = experiment(radius=2, eps=1e-3, energy=0.0, trials=20_000)
report = run_single_volume(config)

print("box dimension", 5 * 5, "| energy 0.0 | eps", config.epsilon)
print(f"hits {report.hits} / {report.trials}")
print(f"empirical probability {report.empirical_probability:.5f} (+- {report.std_error:.5f})")
print(f"analytic ceiling      {report.analytic_bound:.5f}")
print("verdict:", report.verdict)
print()

# The ceiling (250 eps here) scales linearly in eps while the empirical
# rate tracks it from below.
for eps in (3e-3, 2e-3, 1e-3, 5e-4):
    cfg = experiment(radius=2, eps=eps, energy=0.0, trials=5_000)
    rep = run_single_volume(cfg)
    box = cfg.hamiltonian.box
    bound = analytic_bound([box], box, cfg.dist, eps)  # one box, left wholly random
    print(f"eps={eps:<6g} p_hat={rep.empirical_probability:.4f}  ceiling={bound:.4f}")
print()

# Slack against the coupling: L=1, eps = 1e-3 g and E = g, the peak of
# V(x1) + V(x2), under eps_over_g, so the ceiling is 9 * 3 * 1e-3 = 0.027
# for every g.  Weak disorder leaves the ceiling loose; strong disorder
# brings the estimate to within about twice it, near the g -> infinity
# limit m |Pi| / (2m - |Pi|) = 1.8.
print(f"{'g':>5}  {'p_hat':>7}  {'ceiling':>7}  ceiling/p_hat")
for g in (0.5, 1.0, 4.0, 20.0):
    cfg = experiment(1, 1e-3 * g, energy=g, trials=50_000, coupling=g, bound_mode="eps_over_g")
    rep = run_single_volume(cfg)
    p_hat = rep.empirical_probability
    print(f"{g:>5g}  {p_hat:7.5f}  {rep.analytic_bound:7.4f}  {rep.analytic_bound / p_hat:6.1f}x")
