"""Diagonally monotone functions and concentration bounds for them.

A function Phi of p real coordinates is diagonally monotone (DM) when it is
nondecreasing in every coordinate and grows at least linearly along the
diagonal: Phi(v + t*1) - Phi(v) >= t for t > 0.  For such Phi and IID
coordinates, the probability that Phi lands in an interval of length eps is
at most p times the concentration function of the single-coordinate law at
eps.  This module provides common DM families, a randomized DM checker, the
bound evaluated exactly (atomic laws) or by Monte Carlo, and a direct check
of the layer-set construction that drives the bound's proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .potential import DistributionSpec, RngStream, _atoms, concentration, draw_values


@dataclass(frozen=True)
class DMFunctionSpec:
    """A candidate DM function: arity plus a batch evaluator.

    The evaluator maps an (N, p) array, one point per row, to the N values.
    A point's value must not depend on the batch it arrives in: f(V)[i]
    equals f(V[i]) bit for bit, so reductions run along each row
    (np.sum(V * w, axis=-1), never V @ w).  `name` labels reports.
    """

    arity: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    name: str = "dm_function"

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("arity must be at least 1")

    def __call__(self, v: np.ndarray) -> float | np.ndarray:
        """Phi at one point of shape (p,) as a float, or at each row of an (N, p) array."""
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] != self.arity:
            raise ValueError(f"expected {self.arity} coordinates per point, got shape {v.shape}")
        rows = v.reshape(-1, self.arity)
        out = np.asarray(self.evaluator(rows), dtype=float)
        if out.shape != (len(rows),):
            raise ValueError(f"evaluator gave shape {out.shape} for {len(rows)} points")
        return float(out[0]) if v.ndim == 1 else out


def coordinate_sum(p: int) -> DMFunctionSpec:
    """Phi(v) = v_1 + ... + v_p.  DM: each unit diagonal step adds p >= 1."""
    return DMFunctionSpec(arity=p, evaluator=lambda V: np.sum(V, axis=-1), name=f"sum_p{p}")


def coordinate_max(p: int) -> DMFunctionSpec:
    """Phi(v) = max_j v_j.  DM: the max moves by exactly t along the diagonal."""
    return DMFunctionSpec(arity=p, evaluator=lambda V: np.max(V, axis=-1), name=f"max_p{p}")


def single_coordinate(p: int, index: int = 0) -> DMFunctionSpec:
    """Phi(v) = v_index.  The degenerate DM function that ignores the rest."""
    if not 0 <= index < p:
        raise ValueError("coordinate index out of range")
    return DMFunctionSpec(arity=p, evaluator=lambda V: V[:, index], name=f"coordinate{index}_p{p}")


def positive_linear(coeffs: Sequence[float]) -> DMFunctionSpec:
    """Phi(v) = sum_j c_j v_j with c_j >= 0 and sum c_j >= 1.

    Nonnegative coefficients give coordinatewise monotonicity; the diagonal
    increment is t * sum c_j, so the coefficient sum must reach 1.
    """
    w = np.array([float(c) for c in coeffs])
    if w.size < 1:
        raise ValueError("need at least one coefficient")
    if np.any(w < 0):
        raise ValueError("coefficients must be nonnegative")
    if w.sum() < 1.0:
        raise ValueError("coefficient sum below 1 breaks the diagonal growth bound")
    return DMFunctionSpec(
        arity=int(w.size),
        evaluator=lambda V: np.sum(V * w, axis=-1),
        name=f"linear_p{w.size}",
    )


def order_statistic(p: int, k: int, shifts: Sequence[float] | None = None) -> DMFunctionSpec:
    """Phi(v) = k-th smallest of (v_j + shift_j), k in 1..p.

    Order statistics of coordinatewise-shifted values are the DM functions
    behind eigenvalue applications: sorting commutes with adding t to every
    coordinate, so the diagonal increment is exactly t.
    """
    if not 1 <= k <= p:
        raise ValueError("order index must lie in 1..p")
    off = np.zeros(p) if shifts is None else np.array([float(s) for s in shifts])
    if off.shape != (p,):
        raise ValueError("need one shift per coordinate")
    return DMFunctionSpec(
        arity=p, evaluator=lambda V: np.sort(V + off, axis=-1)[:, k - 1], name=f"order{k}_p{p}"
    )


# Points per evaluator call in the checks that enumerate or sample in
# chunks; fixed, however many points there are.
_CHUNK = 1 << 16


def _lex_indices(n: int, p: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the lexicographic enumeration of {0, ..., n-1}^p."""
    return np.stack(np.unravel_index(np.arange(start, stop), (n,) * p), axis=1)


@dataclass
class DMReport:
    """Outcome of a diagonal-monotonicity check.

    `worst_monotonicity_violation` is the largest observed decrease under a
    coordinatewise increase (positive = violation).  `worst_diagonal_defect`
    is the largest observed shortfall of the diagonal increment against its
    required value (positive = violation); for exact-identity checks it is
    the largest relative identity error.  `passed` means neither exceeded
    `tolerance`.  Up to five witnesses are kept for diagnosis.
    """

    name: str
    passed: bool
    checks: int
    worst_monotonicity_violation: float
    worst_diagonal_defect: float
    tolerance: float
    witnesses: list[dict] = field(default_factory=list)


def check_dm_function(
    f: DMFunctionSpec,
    domain: tuple[float, float],
    samples: int,
    rng: RngStream,
    tolerance: float = 1e-12,
) -> DMReport:
    """Randomised DM check on a box domain.

    Draws base points v uniformly from [lo, hi]^p, nonnegative perturbation
    vectors r with entries up to the domain span, and diagonal steps t in
    (0, span].  Flags Phi(v + r) < Phi(v) - tolerance and diagonal increments
    Phi(v + t*1) - Phi(v) < t - tolerance; a NaN gap is flagged too.  The
    first five flagged samples are the witnesses, and the check passes when
    there are none.  The worst gaps are taken over the gaps that are not NaN.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise ValueError("domain needs lo < hi")
    if samples < 1:
        raise ValueError("need at least one sample")
    span, p = hi - lo, f.arity
    gen = rng.generator()
    worst_mono = -math.inf
    worst_diag = -math.inf
    witnesses: list[dict] = []
    for start in range(0, samples, _CHUNK):
        n = min(_CHUNK, samples - start)
        # one row per sample, drawn in the order v, r, t; numpy's uniform is
        # low + (high - low) * next_double, so these are its values bit for bit
        u = gen.random((n, 2 * p + 1))
        v = lo + span * u[:, :p]
        r = span * u[:, p : 2 * p]
        t = span * (1.0 - u[:, 2 * p])  # lands in (0, span]
        base = f(v)
        mono_gap = base - f(v + r)
        diag_gap = t - (f(v + t[:, None]) - base)
        # fmax skips NaN gaps; the flag test below counts them as violations
        worst_mono = float(np.fmax.reduce(mono_gap, initial=worst_mono))
        worst_diag = float(np.fmax.reduce(diag_gap, initial=worst_diag))
        flagged = np.flatnonzero(~((mono_gap <= tolerance) & (diag_gap <= tolerance)))
        witnesses += [
            {
                "v": v[i].tolist(),
                "r": r[i].tolist(),
                "t": float(t[i]),
                "monotonicity_gap": float(mono_gap[i]),
                "diagonal_gap": float(diag_gap[i]),
            }
            for i in flagged[: 5 - len(witnesses)]
        ]
    return DMReport(
        name=f.name,
        passed=not witnesses,
        checks=samples,
        worst_monotonicity_violation=worst_mono,
        worst_diagonal_defect=worst_diag,
        tolerance=tolerance,
        witnesses=witnesses,
    )


@dataclass(frozen=True)
class IntervalSpec:
    """Open interval (lower, upper) used as the target window."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("interval endpoints must be finite")
        if not self.lower < self.upper:
            raise ValueError("interval needs lower < upper")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def contains(self, x):
        """Whether x lies strictly inside; elementwise for an array."""
        return (self.lower < x) & (x < self.upper)


@dataclass(frozen=True)
class StollmannExactResult:
    probability: float
    bound: float
    holds: bool


@dataclass(frozen=True)
class StollmannMCResult:
    estimate: float
    std_error: float
    bound: float
    holds_within_3sigma: bool


def stollmann_exact(
    f: DMFunctionSpec, dist: DistributionSpec, interval: IntervalSpec
) -> StollmannExactResult:
    """Exact interval probability versus the DM concentration bound.

    Enumerates all atom combinations of a purely atomic law (product measure
    over the p coordinates), sums the weights with Phi strictly inside the
    interval, and compares against arity * concentration(dist, |interval|).
    Continuous laws and enumerations beyond 10^7 combinations are rejected.
    """
    atoms = _atoms(dist)  # raises for continuous laws
    n, p = len(atoms), f.arity
    if n**p > 10**7:
        raise ValueError(f"{n}^{p} atom combinations exceed the enumeration limit")
    values = np.array([v for v, _ in atoms])
    weights = np.array([w for _, w in atoms])
    prob = 0.0
    # Lexicographic chunks of atom indices.  Weights multiply coordinate by
    # coordinate and the in-interval weights add one at a time (cumsum) onto
    # the running total, so the sum is bit for bit the odometer's.
    for start in range(0, n**p, _CHUNK):
        idx = _lex_indices(n, p, start, min(start + _CHUNK, n**p))
        hits = idx[interval.contains(f(values[idx]))]
        w = np.ones(len(hits))
        for j in range(p):
            w *= weights[hits[:, j]]
        prob = float(np.cumsum(np.concatenate(([prob], w)))[-1])
    bound = f.arity * concentration(dist, interval.length)
    return StollmannExactResult(probability=prob, bound=bound, holds=prob <= bound + 1e-12)


def binomial_verdict(hits: int, trials: int, bound: float) -> tuple[float, float, bool]:
    """Hit frequency, its binomial standard error, and whether it respects `bound`.

    The bound counts as respected unless the frequency exceeds it by more
    than three standard errors, so only statistically solid violations fail.
    """
    estimate = hits / trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, std_error, estimate - 3.0 * std_error <= bound


def stollmann_mc(
    f: DMFunctionSpec,
    dist: DistributionSpec,
    interval: IntervalSpec,
    trials: int,
    rng: RngStream,
) -> StollmannMCResult:
    """Monte Carlo interval probability versus the DM concentration bound.

    Works for any supported law; the verdict is `binomial_verdict`'s.
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a meaningful estimate")
    gen = rng.generator()
    draws = draw_values(dist, gen, trials * f.arity).reshape(trials, f.arity)
    hits = int(np.count_nonzero(interval.contains(f(draws))))
    bound = f.arity * concentration(dist, interval.length)
    estimate, std_error, holds = binomial_verdict(hits, trials, bound)
    return StollmannMCResult(
        estimate=estimate, std_error=std_error, bound=bound, holds_within_3sigma=holds
    )


@dataclass(frozen=True)
class LayerSetsResult:
    passed: bool
    chain_ok: bool
    inclusion_ok: bool
    inclusion_failures: int
    grid_points: int


def _shift_up(mask: np.ndarray, axis: int, steps: int) -> np.ndarray:
    """Translate a boolean grid set upward along one axis, dropping overflow."""
    out = np.zeros_like(mask)
    src = [slice(None)] * mask.ndim
    dst = [slice(None)] * mask.ndim
    src[axis] = slice(0, mask.shape[axis] - steps)
    dst[axis] = slice(steps, None)
    out[tuple(dst)] = mask[tuple(src)]
    return out


def layer_sets_check(
    f: DMFunctionSpec, grid: Sequence[float], interval: IntervalSpec
) -> LayerSetsResult:
    """Check the layer-set mechanism behind the DM concentration bound.

    On a uniform grid G^p, build A = {Phi <= a} and enlarge it one coordinate
    at a time, letting coordinate j move up by at most eps (the interval
    length) at stage j.  The probability cost of each stage is controlled by
    the single-coordinate concentration function only when every section of A
    along the active coordinate is a downward-closed ray; `chain_ok` verifies
    that ray structure on all axes.  `inclusion_ok` then checks that the last
    layer swallows {Phi < b}, which is where the diagonal growth of Phi
    enters: a diagonal slope below 1, or a decreasing coordinate, leaves
    target points uncovered and they are counted as failures.  Requires eps
    to be a whole number of grid steps and at most 10^6 grid combinations.
    """
    pts = np.array([float(x) for x in grid])
    if pts.size < 2:
        raise ValueError("grid needs at least two points")
    if np.any(np.diff(pts) <= 0):
        raise ValueError("grid must be strictly increasing")
    steps = np.diff(pts)
    step = steps[0]
    if not np.allclose(steps, step, rtol=0.0, atol=1e-9 * max(step, 1.0)):
        raise ValueError("grid must be uniform")
    n = pts.size
    if n**f.arity > 10**6:
        raise ValueError(f"{n}^{f.arity} grid combinations exceed the enumeration limit")
    eps = interval.length
    q = eps / step
    q_int = round(q)
    if abs(q - q_int) > 1e-9 or q_int < 1:
        raise ValueError("interval length must be a positive whole number of grid steps")
    q_int = int(q_int)

    p = f.arity
    shape = (n,) * p
    values = f(pts[_lex_indices(n, p, 0, n**p)]).reshape(shape)

    base = values <= interval.lower
    # ray structure: membership may only be lost when a coordinate grows
    chain_ok = True
    for axis in range(p):
        upper = np.take(base, range(1, n), axis=axis)
        lower = np.take(base, range(0, n - 1), axis=axis)
        if np.any(upper & ~lower):
            chain_ok = False
            break
    current = base
    for axis in range(p):
        relaxed = current.copy()
        for k in range(1, q_int + 1):
            relaxed |= _shift_up(current, axis, k)
        current = relaxed
    target = values < interval.upper
    misses = int(np.count_nonzero(target & ~current))
    inclusion_ok = misses == 0
    return LayerSetsResult(
        passed=chain_ok and inclusion_ok,
        chain_ok=chain_ok,
        inclusion_ok=inclusion_ok,
        inclusion_failures=misses,
        grid_points=n,
    )
