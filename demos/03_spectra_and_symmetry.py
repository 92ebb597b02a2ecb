"""Assembling pair Hamiltonians and two exact spectral facts.

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
    apply_symmetry,
    make_box,
    sample_field,
)

free = HamiltonianSpec(
    box=make_box(PairPoint.of((0,), (0,)), 1),
    interaction=InteractionSpec.zero(),
    coupling=1.0,
    hopping_norm="l1",
)
template = HamiltonianTemplate(free)
H = template.assemble_values(np.zeros(template.n_sites))
spectrum = np.linalg.eigvalsh(H)

lam = np.array([-np.sqrt(2.0), 0.0, np.sqrt(2.0)])
expected = np.sort((lam[:, None] + lam[None, :]).ravel())
print("free 3-site pair spectrum:", np.round(spectrum, 6))
print("largest deviation from pairwise sums:", float(np.max(np.abs(spectrum - expected))))
print()

# Now a disordered, interacting pair and its swap partner.
u = PairPoint.of((0,), (4,))
inter = InteractionSpec({0: 2.0, 1: -0.5}, r_max=1)
spec_a = HamiltonianSpec(box=make_box(u, 1), interaction=inter, coupling=0.8, hopping_norm="sup")
spec_b = HamiltonianSpec(
    box=make_box(apply_symmetry(u), 1), interaction=inter, coupling=0.8, hopping_norm="sup"
)
ta, tb = HamiltonianTemplate(spec_a), HamiltonianTemplate(spec_b)

field = sample_field(ta.sites, DistributionSpec.uniform(0.0, 1.0), RngStream(11, 0))
ea = np.linalg.eigvalsh(ta.assemble_values(field))
eb = np.linalg.eigvalsh(tb.assemble_values(field))
print("disordered pair at", u, "vs swapped", apply_symmetry(u))
print("spectra agree to", float(np.max(np.abs(ea - eb))))
print()

# Shifting the whole field by t moves every eigenvalue by exactly 2gt.
shifted = ta.assemble_values(field + 0.75)
print(
    "uniform field shift by 0.75 moves eigenvalues by",
    np.round(np.unique(np.round(np.linalg.eigvalsh(shifted) - ea, 10)), 10),
    "(2g t = 1.2)",
)
