"""Sorted spectra from sector blocks, their gaps, and the monotonicity verifier.

Sorted eigenvalues of the assembled operator, viewed as functions of the
site potential values, must be nondecreasing under single-site increases and
must shift by exactly 2*g*t when every site moves up by t (both particles feel
the common field, so the diagonal gains 2*g*t uniformly and the whole
spectrum translates).
"""

from __future__ import annotations

import numpy as np

from .hamiltonian import HamiltonianSpec, HamiltonianTemplate, _stack_rows, one_blas_thread
from .potential import RngStream, _integer, _real
from .stollmann import DMReport, dm_report


@one_blas_thread()
def spectra(
    template: HamiltonianTemplate, site_values: np.ndarray, name: str = "field", first_trial: int = 1
) -> np.ndarray:
    """Sorted eigenvalues, shape (..., m), of each (..., n_sites) field's operator,
    from `template.assemble_sectors` stacks with OpenBLAS on one thread; an
    overflowing field raises ValueError labelled as `assemble_sectors` labels it."""
    eigs = np.empty(np.shape(site_values)[:-1] + (template.dim,))
    for rows, cols, blocks in template.assemble_sectors(site_values, name, first_trial):
        eigs.reshape(-1, template.dim)[rows, cols] = np.linalg.eigvalsh(blocks)
    return np.sort(eigs, axis=-1)


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


@one_blas_thread()
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
    decreases by more than `tolerance`.  `stollmann.dm_report` reduces the
    trials, which run in chunks of `_stack_rows` full matrices, each solved
    by `spectra` and reduced before the next is drawn, so the report does
    not depend on the host's BLAS thread count.  Requires a nonnegative
    coupling (raising the field must not lower the diagonal).  A field whose
    operator diagonal overflows, the base one or a trial's, raises
    ValueError naming that field (trials count from 0, as the witnesses do).
    """
    trials, tolerance = _integer(trials, "trials"), _real(tolerance, "tolerance")
    if trials < 1:
        raise ValueError("need at least one trial")
    if spec.coupling < 0:
        raise ValueError("monotonicity holds for nonnegative coupling only")
    template = HamiltonianTemplate(spec)
    base_vals = np.asarray(values, dtype=float)
    if base_vals.shape != (template.n_sites,):
        raise ValueError(f"expected {template.n_sites} site values, got shape {base_vals.shape}")
    base_eigs = spectra(template, base_vals, "base field")
    scale = 1.0 + np.abs(base_eigs)
    gen = rng.generator()
    g = spec.coupling
    rows = _stack_rows(template.hopping.nbytes)

    def chunks():
        for start in range(0, trials, rows):
            n = min(rows, trials - start)
            t, site, bump = np.empty(n), np.empty(n, dtype=int), np.empty(n)
            # t, site, bump trial by trial: integers() buffers a half-word, so no block draw
            for i in range(n):
                t[i] = 10.0 * (1.0 - gen.random())  # in (0, 10]
                site[i] = gen.integers(template.n_sites)
                bump[i] = 10.0 * (1.0 - gen.random())
            shifted_vals = base_vals + t[:, None]
            shifted = spectra(template, shifted_vals, first_trial=start)
            shift_err = np.max(np.abs(shifted - base_eigs - 2.0 * g * t[:, None]) / scale, axis=1)
            bumped_vals = np.tile(base_vals, (n, 1))
            bumped_vals[np.arange(n), site] += bump
            bumped = spectra(template, bumped_vals, first_trial=start)
            mono_gap = np.max(base_eigs - bumped, axis=1)
            yield mono_gap, shift_err, lambda i: {
                "trial": start + int(i),
                "t": float(t[i]),
                "site": template.sites[site[i]],
                "bump": float(bump[i]),
                "shift_error": float(shift_err[i]),
                "monotonicity_gap": float(mono_gap[i]),
            }

    return dm_report(f"eigenvalues_dim{template.dim}_g{g}", tolerance, chunks())
