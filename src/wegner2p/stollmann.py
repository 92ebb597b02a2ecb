"""Diagonally monotone functions and concentration bounds for them.

A function Phi of p real coordinates is diagonally monotone (DM) when it is
nondecreasing in every coordinate and grows at least linearly along the
diagonal: Phi(v + t*1) - Phi(v) >= t for t > 0.  For such Phi and IID
coordinates, the probability that Phi lands in an interval of length eps is
at most p times the concentration function of the single-coordinate law at
eps.  This module provides common DM families, the one reduction the DM
check of eigenvalues (`spectral.verify_dm_eigenvalues`) reports through, and
the bound evaluated exactly (atomic laws) or by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .potential import DistributionSpec, RngStream, _integer, _real, concentration, draw_values


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
        object.__setattr__(self, "arity", _integer(self.arity, "arity"))
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
    p = _integer(p, "arity")
    return DMFunctionSpec(arity=p, evaluator=lambda V: np.sum(V, axis=-1), name=f"sum_p{p}")


def coordinate_max(p: int) -> DMFunctionSpec:
    """Phi(v) = max_j v_j.  DM: the max moves by exactly t along the diagonal."""
    p = _integer(p, "arity")
    return DMFunctionSpec(arity=p, evaluator=lambda V: np.max(V, axis=-1), name=f"max_p{p}")


def single_coordinate(p: int) -> DMFunctionSpec:
    """Phi(v) = v_1 (named `coordinate0_p{p}`), the degenerate DM function that
    ignores the rest.  The coordinates are IID, so any one of them has the
    same interval probability and the same ceiling p * s(|I|)."""
    p = _integer(p, "arity")
    return DMFunctionSpec(arity=p, evaluator=lambda V: V[:, 0], name=f"coordinate0_p{p}")


# Points per evaluator call: atom combinations in `stollmann_exact`'s
# enumeration, sampled rows in `stollmann_mc`; fixed, however many there are.
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
    the largest relative identity error.  The eigenvalue check divides both
    by 1 + |lambda|, lambda the base eigenvalue.  `passed` means neither
    exceeded `tolerance`.  Up to five witnesses are kept for diagnosis.
    """

    name: str
    passed: bool
    checks: int
    worst_monotonicity_violation: float
    worst_diagonal_defect: float
    tolerance: float
    witnesses: list[dict] = field(default_factory=list)


def dm_report(
    name: str,
    tolerance: float,
    chunks: Iterable[tuple[np.ndarray, np.ndarray, Callable[[int], dict]]],
) -> DMReport:
    """Reduce a DM check, chunk by chunk, to its report.

    Each chunk gives its rows' monotonicity gaps and diagonal gaps (positive
    = violation) and `witness(i)`, the dict that describes row i.  A row is
    flagged when either gap exceeds `tolerance` or is NaN; the first five
    flagged rows are the witnesses, and the check passes when there are
    none.  The worst gaps are taken over the gaps that are not NaN.  A
    chunk's witnesses are built before the next chunk is drawn, so `witness`
    may read arrays that the next chunk replaces.
    """
    checks, worst_mono, worst_diag = 0, -math.inf, -math.inf
    witnesses: list[dict] = []
    for mono_gap, diag_gap, witness in chunks:
        checks += len(mono_gap)
        # fmax skips NaN gaps; the flag test below counts them as violations
        worst_mono = float(np.fmax.reduce(mono_gap, initial=worst_mono))
        worst_diag = float(np.fmax.reduce(diag_gap, initial=worst_diag))
        flagged = np.flatnonzero(~((mono_gap <= tolerance) & (diag_gap <= tolerance)))
        witnesses += [witness(i) for i in flagged[: 5 - len(witnesses)]]
    return DMReport(name, not witnesses, checks, worst_mono, worst_diag, tolerance, witnesses)


@dataclass(frozen=True)
class IntervalSpec:
    """Open interval (lower, upper): the window of an interval probability."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", _real(self.lower, "interval"))
        object.__setattr__(self, "upper", _real(self.upper, "interval"))
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
    if dist.kind != "discrete":
        raise ValueError(f"{dist.kind} law has no atoms")
    atoms = dist.atoms
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
    Rows are drawn and evaluated `_CHUNK` at a time from one generator, so
    memory stays bounded and the values are those of a single draw.
    """
    trials = _integer(trials, "trials")
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a meaningful estimate")
    gen = rng.generator()
    hits = 0
    for start in range(0, trials, _CHUNK):
        rows = min(_CHUNK, trials - start)
        draws = draw_values(dist, gen, rows * f.arity).reshape(rows, f.arity)
        hits += int(np.count_nonzero(interval.contains(f(draws))))
    bound = f.arity * concentration(dist, interval.length)
    estimate, std_error, holds = binomial_verdict(hits, trials, bound)
    return StollmannMCResult(
        estimate=estimate, std_error=std_error, bound=bound, holds_within_3sigma=holds
    )
