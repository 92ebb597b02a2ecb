"""A randomised diagonal-monotonicity check of a `DMFunctionSpec` on a box.

The package checks one DM family, the sorted eigenvalues of a box as
functions of the field (`spectral.verify_dm_eigenvalues`).  The tests check
the library's three toy DM forms (`coordinate_sum`, `coordinate_max` and
`single_coordinate`) with this sampler, which reports through the same
reduction, `stollmann.dm_report`.
"""

import math

from wegner2p.potential import RngStream, _integer, _real
from wegner2p.stollmann import DMFunctionSpec, DMReport, dm_report

# Samples per evaluator call; fixed, however many samples there are.
_CHUNK = 1 << 16


def check_dm_function(
    f: DMFunctionSpec,
    domain: tuple[float, float],
    samples: int,
    rng: RngStream,
    tolerance: float = 1e-12,
) -> DMReport:
    """Randomised DM check on a box domain, reduced by `dm_report`.

    Draws base points v uniformly from [lo, hi]^p, nonnegative perturbation
    vectors r with entries up to the domain span, and diagonal steps t in
    (0, span].  The gaps are Phi(v) - Phi(v + r) and t - (Phi(v + t*1) -
    Phi(v)).  `tolerance` must be nonnegative.
    """
    lo, hi = _real(domain[0], "domain"), _real(domain[1], "domain")
    samples, tolerance = _integer(samples, "samples"), _real(tolerance, "tolerance")
    if not lo < hi:
        raise ValueError("domain needs lo < hi")
    if not math.isfinite(hi - lo):
        raise ValueError("domain span hi - lo overflows a float")
    if samples < 1:
        raise ValueError("need at least one sample")
    if tolerance < 0:
        raise ValueError("tolerance must be nonnegative")
    span, p = hi - lo, f.arity
    gen = rng.generator()

    def chunks():
        for start in range(0, samples, _CHUNK):
            # one row per sample, drawn in the order v, r, t; numpy's uniform is
            # low + (high - low) * next_double, so these are its values bit for bit
            u = gen.random((min(_CHUNK, samples - start), 2 * p + 1))
            v = lo + span * u[:, :p]
            r = span * u[:, p : 2 * p]
            t = span * (1.0 - u[:, 2 * p])  # lands in (0, span]
            base = f(v)
            mono_gap = base - f(v + r)
            diag_gap = t - (f(v + t[:, None]) - base)
            yield mono_gap, diag_gap, lambda i: {
                "v": v[i].tolist(),
                "r": r[i].tolist(),
                "t": float(t[i]),
                "monotonicity_gap": float(mono_gap[i]),
                "diagonal_gap": float(diag_gap[i]),
            }

    return dm_report(f.name, tolerance, chunks())
