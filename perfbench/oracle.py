"""Output checks, against computations made here apart from wegner2p.

Nothing in this module imports wegner2p.  The checks read only the report
fields the method defines (trials, hits, empirical probability, analytic
bound, verdict, dist_mean and friends, survey class counts), never
`per_trial_dist`.  Every check function returns a list of failure
messages, empty when the output is correct.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Two estimates of one quantity may differ by at most this many combined
# standard errors.  At 5 the chance that a correct program fails a check
# is below 1e-6 per comparison.
Z_MAX = 5.0
REL_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def _window_mass(dist: dict, width: float) -> float:
    """Largest mass a window of the given width captures under a uniform law."""
    if dist["kind"] != "uniform":
        raise ValueError("the benchmark's workloads use uniform laws only")
    return min(width / (dist["hi"] - dist["lo"]), 1.0)


def _cube(centre, L: int) -> set[tuple[int, ...]]:
    return set(itertools.product(*[range(c - L, c + L + 1) for c in centre]))


def single_volume_ceiling(config: dict) -> float:
    """|box| * |projection union| * s(2 eps), the stated single-volume bound."""
    L, (c1, c2) = config["radius"], config["center"]
    box = (2 * L + 1) ** (2 * config["dimension"])
    union = len(_cube(c1, L) | _cube(c2, L))
    return box * union * _window_mass(config["dist"], 2 * config["epsilon"])


def _box_operator(config: dict):
    """Field-free part and site index maps of the operator on one box.

    From the paper's definition: hopping between pair points at sup-distance
    one, plus U(|x1 - x2|) on the diagonal (no interaction entries are set in
    these workloads, so U = 0), plus g (V(x1) + V(x2)) added per sample.
    """
    if config.get("interaction", {"entries": []}).get("entries"):
        raise ValueError("the reference operator takes no interaction entries")
    if config.get("hopping_norm", "sup") != "sup":
        raise ValueError("the reference operator uses sup-norm hopping")
    d, L = config["dimension"], config["radius"]
    centre = list(config["center"][0]) + list(config["center"][1])
    points = np.array(list(itertools.product(*[range(c - L, c + L + 1) for c in centre])))
    sep = np.abs(points[:, None, :] - points[None, :, :]).max(axis=-1)
    hopping = (sep == 1).astype(float)
    sites = sorted({tuple(p[:d]) for p in points} | {tuple(p[d:]) for p in points})
    index = {s: k for k, s in enumerate(sites)}
    first = np.array([index[tuple(p[:d])] for p in points])
    second = np.array([index[tuple(p[d:])] for p in points])
    return hopping, len(sites), first, second


def single_volume_reference(config: dict, samples: int, seed: int, chunk: int = 512) -> dict:
    """Independent Monte Carlo estimate of the hit rate and mean distance."""
    hopping, n_sites, first, second = _box_operator(config)
    m = hopping.shape[0]
    g = config.get("coupling", 1.0)
    dist = config["dist"]
    rng = np.random.default_rng([seed, 0x5EED])
    diag = np.arange(m)
    dists = []
    for lo in range(0, samples, chunk):
        k = min(chunk, samples - lo)
        V = rng.uniform(dist["lo"], dist["hi"], size=(k, n_sites))
        H = np.repeat(hopping[None], k, axis=0)
        H[:, diag, diag] += g * (V[:, first] + V[:, second])
        eigs = np.linalg.eigvalsh(H)
        dists.append(np.abs(eigs - config["energy"]).min(axis=1))
    d = np.concatenate(dists)
    return {
        "samples": samples,
        "hits": int(np.count_nonzero(d <= config["epsilon"])),
        "dist_mean": float(d.mean()),
        "dist_sd": float(d.std(ddof=1)),
    }


def _verdict(hits: int, trials: int, bound: float) -> str:
    p = hits / trials
    return "holds" if p - 3.0 * math.sqrt(p * (1.0 - p) / trials) <= bound else "violated"


def _rate_failures(what: str, hits: int, n: int, ref_hits: int, ref_n: int) -> list[str]:
    pooled = (hits + ref_hits) / (n + ref_n)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n + 1.0 / ref_n))
    diff = abs(hits / n - ref_hits / ref_n)
    if diff > Z_MAX * se:
        return [f"{what}: {hits}/{n} against reference {ref_hits}/{ref_n} ({diff / se:.1f} SE)"]
    return []


def check_single_volume(report: dict, exit_code: int, config: dict, ref: dict) -> list[str]:
    fails = []
    closed = single_volume_ceiling(config)
    if not _close(report["analytic_bound"], closed):
        fails.append(f"ceiling {report['analytic_bound']!r}, closed form {closed!r}")
    n, hits = report["trials"], report["hits"]
    if n != config["trials"] or not 0 <= hits <= n:
        fails.append(f"trials/hits {n}/{hits} for {config['trials']} configured trials")
        return fails
    if not _close(report["empirical_probability"], hits / n):
        fails.append("empirical probability is not hits / trials")
    expected = _verdict(hits, n, report["analytic_bound"])
    if report["verdict"] != expected or exit_code != (0 if expected == "holds" else 2):
        fails.append(f"verdict {report['verdict']} (exit {exit_code}), expected {expected}")
    if not 0.0 <= report["dist_min"] <= report["dist_mean"] <= report["dist_max"]:
        fails.append("distance summary out of order")
    fails += _rate_failures("hit rate", hits, n, ref["hits"], ref["samples"])
    se = ref["dist_sd"] * math.sqrt(1.0 / n + 1.0 / ref["samples"])
    if abs(report["dist_mean"] - ref["dist_mean"]) > Z_MAX * se:
        fails.append(f"dist_mean {report['dist_mean']!r} against reference {ref['dist_mean']!r}")
    return fails


def line_survey_counts(L: int) -> tuple[int, dict[str, int]]:
    """Admissible geometries and per-class counts of the d=1 survey grid.

    Same grid as the survey: first centre (0, w), second centre (a, b), with
    w, a, b over a centred range of side 40L + 20; admissible when the
    swap-symmetrised sup-distance between the centres reaches max(8L, 1).
    """
    side = 40 * L + 20
    lo = -(side // 2)
    v = np.arange(lo, lo + side)
    w, a, b = v[:, None, None], v[None, :, None], v[None, None, :]
    direct = np.maximum(np.abs(a), np.abs(b - w))
    swapped = np.maximum(np.abs(a - w), np.abs(b))
    ok = np.minimum(direct, swapped) >= max(8 * L, 1)
    apart = lambda x: np.abs(x) > 2 * L  # noqa: E731
    u12, u1q1, u1q2, u2q1, u2q2, q12 = apart(w), apart(a), apart(b), apart(a - w), apart(b - w), apart(a - b)
    classes = {
        "completely_separated": u1q1 & u1q2 & u2q1 & u2q2,
        "first_particle1_isolated": u12 & u1q1 & u1q2,
        "first_particle2_isolated": u12 & u2q1 & u2q2,
        "second_particle1_isolated": q12 & u1q1 & u2q1,
        "second_particle2_isolated": q12 & u1q2 & u2q2,
    }
    return int(ok.sum()), {k: int((m & ok).sum()) for k, m in classes.items()}


def check_survey(survey: dict, line_counts: dict) -> list[str]:
    fails = []
    where = f"{survey['kind']} survey L={survey['radius']}"
    if survey["empty"] != 0:
        fails.append(f"{where}: {survey['empty']} unclassified geometries")
    if survey["geometries"] < 1 or any(n > survey["geometries"] for n in survey["class_counts"].values()):
        fails.append(f"{where}: class counts exceed {survey['geometries']} geometries")
    if survey["kind"] == "line":
        geometries, counts = line_counts[survey["radius"]]
        if survey["geometries"] != geometries or survey["class_counts"] != counts:
            fails.append(f"{where}: counts differ from the interval computation")
    return fails


def check_stollmann(result: dict, interval: tuple[float, float], arity: int, trials: int) -> list[str]:
    """max of `arity` uniforms lies in (a, b) with probability b^p - a^p."""
    a, b = interval
    exact = b**arity - a**arity
    fails = []
    if not _close(result["bound"], arity * (b - a)):
        fails.append(f"Stollmann bound {result['bound']!r}, expected {arity * (b - a)!r}")
    se = math.sqrt(exact * (1.0 - exact) / trials)
    if abs(result["estimate"] - exact) > Z_MAX * se:
        fails.append(f"Stollmann estimate {result['estimate']!r}, exact {exact!r}")
    return fails


def check_dm(result: dict, trials: int) -> list[str]:
    if result["passed"] and result["checks"] == trials:
        return []
    return [f"DM eigenvalue check: passed={result['passed']}, {result['checks']} checks"]
