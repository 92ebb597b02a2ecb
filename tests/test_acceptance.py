"""End-to-end acceptance suite: one test and one printed verdict per criterion.

Each test exercises a numbered claim about the package at full stated scale
and prints a single [PASS]/[FAIL] line (visible with pytest -s, or in the
captured output on failure).  Seeds are fixed so every run is reproducible.
"""

import itertools
import json
import time

import numpy as np

from wegner2p import (
    DistributionSpec,
    ExperimentConfig,
    HamiltonianSpec,
    HamiltonianTemplate,
    InteractionSpec,
    IntervalSpec,
    PairPoint,
    RngStream,
    make_box,
    run_single_volume,
    run_two_volume,
    sample_field,
    spectra,
    stollmann_exact,
    survey_separation_line,
    survey_separation_plane,
    verify_dm_eigenvalues,
)
from wegner2p.cli import main as cli_main
from wegner2p.stollmann import coordinate_max, coordinate_sum, single_coordinate

UNIFORM01 = {"kind": "uniform", "lo": 0.0, "hi": 1.0}


def outcome(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_single_volume_bound_grid():
    """Single-volume bound verdict holds over the full parameter grid."""
    interactions = (None, {"entries": [[0, 1.0], [1, 0.5]]})
    grid = list(
        itertools.product((2, 3), interactions, (0.0, 1.0), (1e-3, 1e-4))
    )
    failures = []
    for i, (radius, inter, energy, eps) in enumerate(grid):
        data = {
            "dimension": 1,
            "radius": radius,
            "center": [[0], [0]],
            "dist": UNIFORM01,
            "energy": energy,
            "epsilon": eps,
            "trials": 100_000,
            "master_seed": 1000 + i,
            "coupling": 1.0,
            "bound_mode": "two_eps",
        }
        if inter is not None:
            data["interaction"] = inter
        report = run_single_volume(ExperimentConfig.from_dict(data, threads=4))
        if report.verdict != "holds":
            failures.append((radius, inter, energy, eps, report.empirical_probability))
    outcome(
        1,
        not failures,
        f"{len(grid)} cells x 100000 trials each, every verdict holds"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_2_two_volume_conditional_grid():
    """Conditional two-volume bound holds in every conditioning round."""
    geometries = (
        (1, ((0,), (0,)), ((100,), (100,))),
        (2, ((0,), (0,)), ((100,), (100,))),
        (2, ((0,), (100,)), ((100,), (200,))),
    )
    rounds_seen = 0
    failures = []
    for i, (radius, c, cp) in enumerate(geometries):
        data = {
            "dimension": 1,
            "radius": radius,
            "center": [list(x) for x in c],
            "center_prime": [list(x) for x in cp],
            "dist": UNIFORM01,
            "epsilon": 1e-4,
            "trials": 10_000,
            "conditioning_rounds": 10,
            "master_seed": 2000 + i,
            "coupling": 1.0,
            "bound_mode": "two_eps",
        }
        report = run_two_volume(ExperimentConfig.from_dict(data, threads=4))
        rounds_seen += len(report.rounds)
        for r in report.rounds:
            if r.verdict != "holds":
                failures.append((radius, c, cp, r.round_index, r.empirical_probability))
    outcome(
        2,
        rounds_seen == 30 and not failures,
        f"3 geometries x 10 rounds x 10000 trials, every round holds"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_3_separation_survey_exhaustive():
    """Exhaustive geometry scans classify every admissible centre pair."""
    start = time.perf_counter()
    surveys = [survey_separation_line(L) for L in (0, 1, 2)]
    surveys += [survey_separation_plane(L) for L in (0, 1, 2)]
    elapsed = time.perf_counter() - start
    unclassified = sum(s.empty for s in surveys)
    total = sum(s.geometries for s in surveys)
    ok = unclassified == 0 and elapsed < 60.0
    outcome(
        3,
        ok,
        f"{total} admissible geometries over d in (1, 2), L in (0, 1, 2); "
        f"{unclassified} unclassified; {elapsed:.1f}s",
    )


def test_criterion_4_stollmann_exact_grid():
    """Exact interval probabilities never exceed the concentration ceiling."""
    laws = (
        DistributionSpec.discrete(((0.0, 0.5), (1.0, 0.5))),
        DistributionSpec.discrete(((0.0, 0.3), (0.7, 0.45), (2.0, 0.25))),
        DistributionSpec.discrete(((0.0, 0.25), (1.0, 0.25), (2.0, 0.25), (3.0, 0.25))),
    )
    rng = np.random.default_rng(41)
    cases = 0
    violations = []
    for p in (1, 2, 3):
        for law in laws:
            for f in (coordinate_sum(p), coordinate_max(p), single_coordinate(p)):
                for _ in range(20):
                    lower = float(rng.uniform(-1.0, 3.5))
                    length = float(rng.uniform(1e-6, 4.0))
                    res = stollmann_exact(f, law, IntervalSpec(lower, lower + length))
                    cases += 1
                    if not res.holds:
                        violations.append((f.name, lower, length, res.probability, res.bound))
    identity = stollmann_exact(
        coordinate_sum(1), laws[2], IntervalSpec(0.5, 1.5)
    )
    identity_exact = identity.probability == 0.25 and identity.bound == 0.25
    outcome(
        4,
        not violations and identity_exact,
        f"{cases} exact cases with zero violations; "
        f"4-atom identity case gives probability = bound = 0.25 exactly"
        + (f"; violations: {violations[:3]}" if violations else ""),
    )


def test_criterion_5_eigenvalue_dm_properties():
    """Spectra respond to the field like diagonally monotone functions."""
    interactions = (InteractionSpec.zero(), InteractionSpec({0: 1.0, 1: 0.5}, r_max=1))
    total_checks = 0
    worst_shift = 0.0
    worst_mono = 0.0
    all_passed = True
    case = 0
    for g in (0.5, 1.0, 2.0):
        for inter in interactions:
            spec = HamiltonianSpec(
                box=make_box(PairPoint.of((0,), (0,)), 2),
                interaction=inter,
                coupling=g,
            )
            template = HamiltonianTemplate(spec)
            field = sample_field(
                template.sites,
                DistributionSpec.uniform(0.0, 1.0),
                RngStream(900 + case, 0),
            )
            report = verify_dm_eigenvalues(spec, field, 1000, RngStream(900 + case, 1))
            total_checks += report.checks
            worst_shift = max(worst_shift, report.worst_diagonal_defect)
            worst_mono = max(worst_mono, report.worst_monotonicity_violation)
            all_passed = all_passed and report.passed
            case += 1
    outcome(
        5,
        all_passed and total_checks == 6000,
        f"{total_checks} randomized trials (d=1, L=2, g in (0.5, 1, 2)); "
        f"worst diagonal defect {worst_shift:.2e}, "
        f"worst monotonicity violation {worst_mono:.2e}, tolerance 1e-09",
    )


def test_criterion_6_swap_symmetry_spectra():
    """Exchanging the two particles never moves the spectrum."""
    rng = np.random.default_rng(2718)
    worst = 0.0
    for i in range(100):
        d = int(rng.integers(1, 3))
        radius = int(rng.integers(0, 4 if d == 1 else 3))
        first = tuple(int(v) for v in rng.integers(-8, 9, size=d))
        second = tuple(int(v) for v in rng.integers(-8, 9, size=d))
        coupling = float(rng.uniform(0.2, 2.5))
        if rng.random() < 0.5:
            inter = InteractionSpec(
                {0: float(rng.uniform(-1, 1)), 1: float(rng.uniform(-1, 1))}, r_max=1
            )
        else:
            inter = InteractionSpec.zero()
        u = PairPoint.of(first, second)
        spec_a = HamiltonianSpec(box=make_box(u, radius), interaction=inter, coupling=coupling)
        spec_b = HamiltonianSpec(
            box=make_box(PairPoint(u.second, u.first), radius), interaction=inter, coupling=coupling
        )
        ta, tb = HamiltonianTemplate(spec_a), HamiltonianTemplate(spec_b)
        field = sample_field(
            ta.sites, DistributionSpec.uniform(0.0, 1.0), RngStream(3000 + i, 0)
        )
        assert ta.sites == tb.sites  # one value array fits both boxes
        ea = spectra(ta, field)
        eb = spectra(tb, field)
        worst = max(worst, float(np.max(np.abs(ea - eb))))
    outcome(6, worst <= 1e-10, f"100 random cases, largest spectral discrepancy {worst:.2e}")


def test_criterion_7_thread_count_determinism(tmp_path):
    """Reports are byte-identical no matter how many worker processes run."""
    single_cell = {
        "dimension": 1,
        "radius": 2,
        "center": [[0], [0]],
        "dist": UNIFORM01,
        "energy": 0.0,
        "epsilon": 1e-3,
        "trials": 100_000,
        "master_seed": 1000,
        "coupling": 1.0,
        "bound_mode": "two_eps",
    }
    two_volume = {
        "dimension": 1,
        "radius": 1,
        "center": [[0], [0]],
        "center_prime": [[100], [100]],
        "dist": UNIFORM01,
        "epsilon": 1e-4,
        "trials": 5_000,
        "conditioning_rounds": 4,
        "master_seed": 2000,
        "coupling": 1.0,
        "bound_mode": "two_eps",
    }
    blobs = {}
    for name, cfg, thread_grid in (
        ("single", single_cell, (1, 4)),
        ("two", two_volume, (1, 3)),
    ):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for threads in thread_grid:
            out_path = tmp_path / f"{name}_t{threads}.json"
            code = cli_main(
                [
                    "wegner-single" if name == "single" else "wegner-two",
                    "--config",
                    str(cfg_path),
                    "--out",
                    str(out_path),
                    "--threads",
                    str(threads),
                ]
            )
            assert code == 0
            outs.append(out_path.read_bytes())
        blobs[name] = outs
    ok = blobs["single"][0] == blobs["single"][1] and blobs["two"][0] == blobs["two"][1]
    outcome(
        7,
        ok,
        "single-volume (100000 trials, threads 1 vs 4) and two-volume "
        "(4 rounds x 5000 trials, threads 1 vs 3) reports byte-identical",
    )


def test_criterion_8_known_free_spectrum():
    """The free pair's spectrum is the closed form of the sup-norm hopping.

    The hopping is the Kronecker product over the 2d axes of 1 + P, P the
    path on 2L+1 points, less the identity.  P's eigenvalues are
    2 cos(pi k / (2L+2)), k = 1..2L+1, so the free spectrum is every
    product over the axes of 1 + 2 cos(pi k_j / (2L+2)), less 1.
    """
    worst, count = 0.0, 0
    for d, L in ((1, 1), (1, 2), (2, 1)):
        spec = HamiltonianSpec(
            box=make_box(PairPoint.of((0,) * d, (0,) * d), L),
            interaction=InteractionSpec.zero(),
            coupling=1.0,
        )
        template = HamiltonianTemplate(spec)
        got = spectra(template, np.zeros(template.n_sites))
        factor = 1.0 + 2.0 * np.cos(np.pi * np.arange(1, 2 * L + 2) / (2 * L + 2))
        products = [np.prod(ks) for ks in itertools.product(factor, repeat=2 * d)]
        want = np.sort(np.array(products) - 1.0)
        worst = max(worst, float(np.max(np.abs(got - want))))
        count += want.size
    outcome(
        8,
        worst <= 1e-10,
        f"{count} free eigenvalues at d=1 (L=1, 2) and d=2 (L=1) match the closed form "
        f"within {worst:.2e}",
    )


def test_criterion_9_ceiling_nearly_binds():
    """Verdicts hold where the eps/g ceiling is attained or nearly so.

    d=1, U(0,1), eps = 1e-3 g, E = g.  At L=0 the box is one point and the
    exact hit probability is known: eps/g at centre (0,0), equal to the
    ceiling, and 2eps/g - (eps/g)^2 at centre (0,1), against 2eps/g.  At
    g=20 and L=1, 2 the slack of the ceiling is about 2x and 3x.
    """
    cells = (  # radius, centre, coupling, exact probability or None
        (0, [[0], [0]], 1.0, 1e-3),
        (0, [[0], [1]], 1.0, 2e-3 - 1e-6),
        (1, [[0], [0]], 20.0, None),
        (2, [[0], [0]], 20.0, None),
    )
    trials = 100_000
    failures = []
    for i, (radius, center, coupling, exact) in enumerate(cells):
        data = {
            "dimension": 1,
            "radius": radius,
            "center": center,
            "dist": UNIFORM01,
            "energy": coupling,
            "epsilon": 1e-3 * coupling,
            "trials": trials,
            "master_seed": 9000 + i,
            "coupling": coupling,
            "bound_mode": "eps_over_g",
        }
        report = run_single_volume(ExperimentConfig.from_dict(data, threads=4))
        p_hat = report.empirical_probability
        off = exact is not None and abs(p_hat - exact) > 4 * np.sqrt(exact * (1 - exact) / trials)
        if report.verdict != "holds" or off:
            failures.append((radius, center, coupling, p_hat, report.analytic_bound, report.verdict))
    outcome(
        9,
        not failures,
        "4 cells x 100000 trials under eps_over_g, L=0 estimates match the exact "
        "probability and every verdict holds" + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_10_d2_single_volume_cell():
    """Three d=2 cells hold their ceilings, and a ceiling that drops d would not.

    d=2, L=1 (m=81), U(0,1), g=20, E=19, eps=0.02 under eps_over_g.  At the
    diagonal centre (0,0),(0,0) the 9 projection sites give the ceiling
    81 * 9 * 1e-3 = 0.729, about 5.7 times the hit rate; the off-diagonal
    centre (0,0),(0,1) has 12 sites and one sector, the ceiling 0.972.  The
    third cell is the diagonal one with the interaction U(0), U(1), U(2) =
    1, 0.5, 0.25, which leaves the ceiling at 0.729.  A ceiling with |box| =
    (2L+1)^2 in place of (2L+1)^(2d), 1/9 of it here (0.081, 0.108 and
    0.081), lies below the z=3 Wald lower bound of these trials and reads
    "violated".
    """
    details, ok = [], True
    diagonal = [[0, 0], [0, 0]]
    interaction = {"entries": [[0, 1.0], [1, 0.5], [2, 0.25]]}
    for center, extra in (
        (diagonal, {}),
        ([[0, 0], [0, 1]], {}),
        (diagonal, {"interaction": interaction}),
    ):
        data = extra | {
            "dimension": 2,
            "radius": 1,
            "center": center,
            "dist": UNIFORM01,
            "energy": 19.0,
            "epsilon": 0.02,
            "trials": 20_000,
            "master_seed": 77,
            "coupling": 20.0,
            "bound_mode": "eps_over_g",
        }
        report = run_single_volume(ExperimentConfig.from_dict(data, threads=2))
        p_hat, ceiling = report.empirical_probability, report.analytic_bound
        # each cell keeps its power: its Wald lower bound is above the d-dropping ceiling
        wald_low = p_hat - 3.0 * report.std_error
        ok = ok and report.verdict == "holds" and wald_low > ceiling / 9
        details.append(
            f"centre {center}{' with U' if extra else ''}: {report.hits} hits in 20000 "
            f"trials, p = {p_hat:.4f} (Wald lower bound {wald_low:.4f}) against the "
            f"ceiling {ceiling:.3f}, verdict {report.verdict}"
        )
    outcome(10, ok, "d=2, L=1, g=20; " + "; ".join(details))
