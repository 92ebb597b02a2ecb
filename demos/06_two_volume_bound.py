"""Two-volume conditional concentration experiment at desk scale.

Take two distant pair boxes.  Freeze the disorder on one of them (several
independent rounds), then Monte Carlo the free box and ask how often its
spectrum comes closer than eps to the frozen spectrum.  The geometry decides
which box gets frozen; the conditional ceiling is
|box| * |box'| * |free projection union| * s(2 eps).  Both ceilings below
are under 1: a ceiling of 1 or more holds for any law and tests nothing.
"""

from wegner2p import ExperimentConfig, run_two_volume


def show(report):
    print("geometry classes:", report.separation_classes)
    print("conditioning on:", report.bound_choice)
    ceiling = report.analytic_bound
    print(f"conditional ceiling {ceiling:.5f}")
    for r in report.rounds:
        p_hat = r.empirical_probability
        slack = f"{ceiling / p_hat:.1f}x" if p_hat else "no hits"
        print(
            f"  round {r.round_index}: frozen field {r.frozen_digest[:12]}..., "
            f"p_hat={p_hat:.5f} (+-{r.std_error:.5f}), ceiling/p_hat {slack}, {r.verdict}"
        )
    print("overall verdict:", report.verdict)


# Completely separated boxes: all four projection cubes pairwise disjoint.
config = ExperimentConfig.from_dict(
    {
        "dimension": 1,
        "radius": 1,
        "center": [[0], [0]],
        "center_prime": [[100], [100]],
        "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "epsilon": 1e-3,
        "trials": 4_000,
        "conditioning_rounds": 4,
        "master_seed": 31337,
        "coupling": 1.0,
        "bound_mode": "two_eps",
    },
    threads=2,
)
show(run_two_volume(config))
print()

# A tangled geometry: the second cube of one box coincides with the first
# cube of the other, so only some isolation classes survive and the runner
# conditions accordingly.  Its boxes hold 25 points each, so a ceiling
# below 1 needs a far smaller eps.
tangled = ExperimentConfig.from_dict(
    {
        "dimension": 1,
        "radius": 2,
        "center": [[0], [100]],
        "center_prime": [[100], [200]],
        "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "epsilon": 5e-5,
        "trials": 4_000,
        "conditioning_rounds": 2,
        "master_seed": 31338,
        "coupling": 1.0,
    },
    threads=2,
)
show(run_two_volume(tangled))
