"""Gaps between spectra, and the eigenvalue monotonicity verifier.

Sorted eigenvalues of the assembled operator, viewed as functions of the
site potential values, must be nondecreasing under single-site increases and
must shift by exactly 2*g*t when every site moves up by t (both particles feel
the common field, so the diagonal gains 2*g*t uniformly and the whole
spectrum translates).
"""

from __future__ import annotations

import math

import numpy as np

from .hamiltonian import HamiltonianSpec, HamiltonianTemplate
from .potential import RngStream
from .stollmann import DMReport


def min_gaps_to_sorted(rows: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-row minimum |row entry - reference entry| against a sorted reference.

    Vectorised over a batch: rows has shape (..., m), reference is sorted 1-d.
    Both experiment runners use it to measure, without a Python loop, the
    distance from each sampled spectrum to a fixed energy (single volume) or
    to one frozen spectrum (two volumes).
    """
    ref = np.asarray(reference, dtype=float)
    pos = np.searchsorted(ref, rows)
    left = ref[np.clip(pos - 1, 0, ref.size - 1)]
    right = ref[np.clip(pos, 0, ref.size - 1)]
    gaps = np.minimum(np.abs(rows - left), np.abs(rows - right))
    return gaps.min(axis=-1)


def verify_dm_eigenvalues(
    spec: HamiltonianSpec,
    values: np.ndarray,
    trials: int,
    rng: RngStream,
    tolerance: float = 1e-9,
) -> DMReport:
    """Check the eigenvalue monotonicity and diagonal-shift laws empirically.

    Starting from `values`, aligned with the template's `sites`, each trial
    draws a diagonal shift t in (0, 10] and checks that every sorted
    eigenvalue of the operator with all site values raised by t equals the
    original eigenvalue plus 2*g*t, up to `tolerance` relative error.  It also
    raises one random site by a random amount and checks no sorted eigenvalue
    decreases by more than `tolerance`.  Requires a nonnegative coupling
    (raising the field must not lower the diagonal).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if spec.coupling < 0:
        raise ValueError("monotonicity holds for nonnegative coupling only")
    template = HamiltonianTemplate(spec)
    base_vals = np.asarray(values, dtype=float)
    base_eigs = np.linalg.eigvalsh(template.assemble_values(base_vals))
    scale = 1.0 + np.abs(base_eigs)
    gen = rng.generator()
    g = spec.coupling
    worst_shift = -math.inf
    worst_mono = -math.inf
    witnesses: list[dict] = []
    for k in range(trials):
        t = 10.0 * (1.0 - gen.random())  # in (0, 10]
        shifted_eigs = np.linalg.eigvalsh(template.assemble_values(base_vals + t))
        shift_err = float(np.max(np.abs(shifted_eigs - base_eigs - 2.0 * g * t) / scale))
        site = int(gen.integers(template.n_sites))
        bump = 10.0 * (1.0 - gen.random())
        bumped_vals = base_vals.copy()
        bumped_vals[site] += bump
        bumped_eigs = np.linalg.eigvalsh(template.assemble_values(bumped_vals))
        mono_gap = float(np.max(base_eigs - bumped_eigs))
        worst_shift = max(worst_shift, shift_err)
        worst_mono = max(worst_mono, mono_gap)
        if (shift_err > tolerance or mono_gap > tolerance) and len(witnesses) < 5:
            witnesses.append(
                {
                    "trial": k,
                    "t": t,
                    "site": template.sites[site],
                    "bump": bump,
                    "shift_error": shift_err,
                    "monotonicity_gap": mono_gap,
                }
            )
    passed = worst_shift <= tolerance and worst_mono <= tolerance
    return DMReport(
        name=f"eigenvalues_dim{template.dim}_g{g}",
        passed=passed,
        checks=trials,
        worst_monotonicity_violation=worst_mono,
        worst_diagonal_defect=worst_shift,
        tolerance=tolerance,
        witnesses=witnesses,
    )
