"""Disorder laws and their concentration function s(eps).

s(eps) is the largest probability any half-open window (v, v + eps] can
capture.  Every spectral bound in this package scales linearly in it, so a
flat law buys small probabilities while atoms put a floor under them.  The
Monte Carlo check below compares the analytic values against a million
draws.
"""

import numpy as np

from wegner2p import DistributionSpec, RngStream, concentration
from wegner2p.potential import draw_values

laws = [
    ("uniform(0,1)", DistributionSpec.uniform(0.0, 1.0)),
    ("2 atoms 0.7/0.3", DistributionSpec.discrete(((0.0, 0.7), (1.0, 0.3)))),
    ("4 atoms 1/4", DistributionSpec.discrete(((0.0, 0.25), (1.0, 0.25), (2.0, 0.25), (3.0, 0.25)))),
]

print(f"{'law':16s}" + "".join(f"  s({e:g})" for e in (0.01, 0.1, 0.5, 1.0)))
for name, law in laws:
    row = "".join(f"  {concentration(law, e):7.4f}" for e in (0.01, 0.1, 0.5, 1.0))
    print(f"{name:16s}{row}")
print()

# Empirical check: slide a window of width eps over many offsets and compare
# the best capture rate against s(eps).  Taking the max over windows biases
# the estimate up by a little sampling noise, so expect agreement to about
# three decimal places, not an exact inequality.
eps = 0.1
draws = draw_values(laws[0][1], RngStream(7, 0).generator(), 1_000_000)
best = 0.0
for lo in np.linspace(-0.05, 1.0, 22):
    hit = float(np.mean((draws > lo) & (draws <= lo + eps)))
    best = max(best, hit)
print(f"uniform(0,1), eps={eps}: best window capture {best:.4f}, s(eps) = {concentration(laws[0][1], eps):.4f}")

# The same master seed always reproduces the same draws, and distinct
# stream indices are independent.
u01 = DistributionSpec.uniform(0.0, 1.0)
a = draw_values(u01, RngStream(7, 0).generator(), 5)
b = draw_values(u01, RngStream(7, 0).generator(), 5)
c = draw_values(u01, RngStream(7, 1).generator(), 5)
print("replayed stream matches:", bool(np.all(a == b)))
print("sibling stream differs: ", bool(np.any(a != c)))
