"""The dense operator of a field, built from a template's parts.

The package never forms it: `spectra` diagonalises the exchange-sector
blocks.  The tests compare those against this matrix.
"""

import numpy as np


def dense_operator(template, site_values):
    """(..., m, m) matrices `template.hopping` + diag(U + g (V(x1) + V(x2)))
    for (..., n_sites) values aligned with `template.sites`."""
    diagonal = template.interaction + template.diagonal_shift(np.asarray(site_values, float))
    H = np.broadcast_to(template.hopping, diagonal.shape[:-1] + template.hopping.shape).copy()
    idx = np.arange(template.dim)
    H[..., idx, idx] += diagonal
    return H
