"""Spectra of pair Hamiltonians and two exact spectral facts.

`spectra` returns each field's sorted eigenvalues.  It never forms the
m x m operator: on a box centred at u1 = u2 the particle swap commutes with
it, and the symmetric and antisymmetric blocks together carry the spectrum.
First the free pair on a 3-site segment: with l1 hopping and no interaction
the operator is a Kronecker sum, so its spectrum is every pairwise sum of
the single-particle eigenvalues -sqrt(2), 0, sqrt(2).  Second, exchanging
the roles of the two particles relabels the basis without moving a single
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
    hopping_norm="l1",
)
template = HamiltonianTemplate(free)
print("box points:", template.dim, "in sector blocks of", [rep.size for _, rep in template.sectors])
spectrum = spectra(template, np.zeros(template.n_sites))

lam = np.array([-np.sqrt(2.0), 0.0, np.sqrt(2.0)])
expected = np.sort((lam[:, None] + lam[None, :]).ravel())
print("free 3-site pair spectrum:", np.round(spectrum, 6))
print("largest deviation from pairwise sums:", float(np.max(np.abs(spectrum - expected))))
print()

# Now a disordered, interacting pair and its swap partner.
u = PairPoint.of((0,), (4,))
swapped = PairPoint(u.second, u.first)
inter = InteractionSpec({0: 2.0, 1: -0.5}, r_max=1)
spec_a = HamiltonianSpec(box=make_box(u, 1), interaction=inter, coupling=0.8, hopping_norm="sup")
spec_b = HamiltonianSpec(
    box=make_box(swapped, 1), interaction=inter, coupling=0.8, hopping_norm="sup"
)
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
