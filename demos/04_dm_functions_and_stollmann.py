"""Diagonally monotone functions and the interval concentration bound.

A function of p real coordinates is diagonally monotone when raising any
single coordinate never lowers it and raising all coordinates by t raises
it by at least t.  For such functions the probability that the value lands
in an interval of length eps is at most p * s(eps).  The paper applies this
to the sorted eigenvalues of a box, as functions of the field: raising one
site never lowers one, and raising every site by t shifts each by exactly
2*g*t, so each eigenvalue divided by 2g is diagonally monotone.  For purely
atomic laws both sides are exactly computable, and one 4-atom case meets the
bound with equality.
"""

from wegner2p import (
    DistributionSpec,
    HamiltonianSpec,
    InteractionSpec,
    IntervalSpec,
    PairPoint,
    RngStream,
    make_box,
    projection_sites,
    sample_field,
    stollmann_exact,
    stollmann_mc,
    verify_dm_eigenvalues,
)
from wegner2p.stollmann import coordinate_max, coordinate_sum

# Sample-based check of both eigenvalue laws on a 9-point box, from one field.
box = make_box(PairPoint.of((0,), (0,)), 1)
spec = HamiltonianSpec(box, InteractionSpec({0: 1.0}, r_max=1), coupling=0.5)
field = sample_field(projection_sites(box), DistributionSpec.uniform(0.0, 1.0), RngStream(5, 0))
rep = verify_dm_eigenvalues(spec, field, 200, RngStream(5, 1))
print(f"{rep.name}: passed={rep.passed}, checks={rep.checks}")
print(f"  worst relative shift error {rep.worst_diagonal_defect:.1e}, tolerance {rep.tolerance}")
print()

# Exact tightness: four equally likely atoms 0..3, window (0.5, 1.5).
four = DistributionSpec.discrete(((0.0, 0.25), (1.0, 0.25), (2.0, 0.25), (3.0, 0.25)))
res = stollmann_exact(coordinate_sum(1), four, IntervalSpec(0.5, 1.5))
print(f"4-atom identity case: probability={res.probability}, bound={res.bound}, holds={res.holds}")

# A strict case: max of three fair coins landing in a short window.
coins = DistributionSpec.discrete(((0.0, 0.5), (1.0, 0.5)))
res = stollmann_exact(coordinate_max(3), coins, IntervalSpec(0.5, 1.25))
print(f"max of 3 coins in (0.5, 1.25): probability={res.probability}, bound={res.bound}")
print()

# Continuous laws fall back to Monte Carlo with a 3 sigma allowance.
mc = stollmann_mc(
    coordinate_max(3),
    DistributionSpec.uniform(0.0, 1.0),
    IntervalSpec(0.5, 0.6),
    20_000,
    RngStream(5, 1),
)
print(
    f"mc max of 3 uniforms in (0.5, 0.6): estimate={mc.estimate:.4f} "
    f"(+-{mc.std_error:.4f}), bound={mc.bound:.2f}, ok={mc.holds_within_3sigma}"
)
