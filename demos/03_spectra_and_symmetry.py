"""Spectra of pair Hamiltonians and two exact spectral facts.

`spectra` returns each field's sorted eigenvalues.  It never forms the
m x m operator: on a box centred at u1 = u2 the particle swap commutes with
it, and the symmetric and antisymmetric blocks together carry the spectrum.
First the free pair on a 3-site segment: the hopping joins box points at
sup distance 1, so with no interaction the operator is (1 + P) x (1 + P) - 1,
P the 3-site path, and its spectrum is every product of two of the
numbers 1 + 2cos(pi k / 4), k = 1, 2, 3, less 1.  Second, exchanging the
roles of the two particles relabels the basis without moving a single
eigenvalue, interaction or not.
"""

import numpy as np

from wegner2p import (
    DistributionSpec,
    HamiltonianSpec,
    HamiltonianTemplate,
    InteractionSpec,
    PairPoint,
    RngStream,
    make_box,
    sample_field,
    spectra,
)

free = HamiltonianSpec(
    box=make_box(PairPoint.of((0,), (0,)), 1),
    interaction=InteractionSpec.zero(),
    coupling=1.0,
)
template = HamiltonianTemplate(free)
print("box points:", template.dim, "in sector blocks of", [rep.size for _, rep in template.sectors])
spectrum = spectra(template, np.zeros(template.n_sites))

factor = 1.0 + 2.0 * np.cos(np.pi * np.arange(1, 4) / 4)  # 1 + sqrt(2), 1, 1 - sqrt(2)
expected = np.sort((factor[:, None] * factor[None, :]).ravel() - 1.0)
print("free 3-site pair spectrum:", np.round(spectrum, 6))
print("largest deviation from the closed form:", float(np.max(np.abs(spectrum - expected))))
print()

# Now a disordered, interacting pair and its swap partner.
u = PairPoint.of((0,), (4,))
swapped = PairPoint(u.second, u.first)
inter = InteractionSpec({0: 2.0, 1: -0.5}, r_max=1)
spec_a = HamiltonianSpec(box=make_box(u, 1), interaction=inter, coupling=0.8)
spec_b = HamiltonianSpec(box=make_box(swapped, 1), interaction=inter, coupling=0.8)
ta, tb = HamiltonianTemplate(spec_a), HamiltonianTemplate(spec_b)

field = sample_field(ta.sites, DistributionSpec.uniform(0.0, 1.0), RngStream(11, 0))
ea = spectra(ta, field)
eb = spectra(tb, field)
print("disordered pair at", u, "vs swapped", swapped)
print("spectra agree to", float(np.max(np.abs(ea - eb))))
print()

# Shifting the whole field by t moves every eigenvalue by exactly 2gt.
shifted = spectra(ta, field + 0.75)
print(
    "uniform field shift by 0.75 moves eigenvalues by",
    np.round(np.unique(np.round(shifted - ea, 10)), 10),
    "(2g t = 1.2)",
)
