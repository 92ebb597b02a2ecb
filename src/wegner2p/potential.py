"""Single-site disorder: distribution specs, concentration function, field sampling.

The random potential assigns one IID value per lattice site.  Everything
downstream needs exactly two things from the law: a way to draw samples and
its concentration function, the largest probability any half-open window
(a, a + eps] can capture.  Sampling is organised around reproducible
substreams so that a trial is a pure function of (master seed, stream index).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .lattice import Site

_KINDS = ("uniform", "gaussian", "bernoulli", "discrete")


@contextmanager
def _malformed(what: str):
    """Turn a wrongly typed config value into a ValueError naming `what`.

    Config parsers convert with int() and float() and test keys with `in`;
    a null or a list in the wrong place makes those raise TypeError, which
    this reports like any other bad value.  Usable as a decorator too.
    """
    try:
        yield
    except TypeError as err:
        raise ValueError(f"malformed {what} config: {err}") from None


@dataclass(frozen=True)
class DistributionSpec:
    """A single-site law.  Only the fields for the given kind are meaningful.

    uniform    lo, hi              flat on [lo, hi), lo < hi
    gaussian   mean, sigma         normal, sigma > 0
    bernoulli  p, values           values[1] with probability p, else values[0]
    discrete   atoms               ((value, prob), ...), probs summing to 1

    Parameters are checked once, at construction, and discrete atoms are
    sorted by value with duplicates merged; nonsense raises ValueError.
    """

    kind: str
    lo: float = 0.0
    hi: float = 1.0
    mean: float = 0.0
    sigma: float = 1.0
    p: float = 0.5
    values: tuple[float, float] = (0.0, 1.0)
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "uniform":
            if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
                raise ValueError("uniform bounds must be finite")
            if not self.lo < self.hi:
                raise ValueError("uniform law needs lo < hi")
        elif self.kind == "gaussian":
            if not (math.isfinite(self.mean) and math.isfinite(self.sigma)):
                raise ValueError("gaussian parameters must be finite")
            if self.sigma <= 0:
                raise ValueError("gaussian law needs sigma > 0")
        elif self.kind == "bernoulli":
            if not 0.0 <= self.p <= 1.0:
                raise ValueError("bernoulli weight must lie in [0, 1]")
            if len(self.values) != 2 or not all(math.isfinite(v) for v in self.values):
                raise ValueError("bernoulli needs two finite outcome values")
        else:
            if not self.atoms:
                raise ValueError("discrete law needs at least one atom")
            merged: dict[float, float] = {}
            for value, weight in self.atoms:
                if not (math.isfinite(value) and math.isfinite(weight)):
                    raise ValueError("discrete atoms must be finite")
                if weight < 0:
                    raise ValueError("atom weights must be nonnegative")
                merged[value] = merged.get(value, 0.0) + weight
            total = math.fsum(merged.values())
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"atom weights must sum to 1, got {total!r}")
            object.__setattr__(self, "atoms", tuple(sorted(merged.items())))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "DistributionSpec":
        return cls(kind="uniform", lo=float(lo), hi=float(hi))

    @classmethod
    def gaussian(cls, mean: float, sigma: float) -> "DistributionSpec":
        return cls(kind="gaussian", mean=float(mean), sigma=float(sigma))

    @classmethod
    def bernoulli(
        cls, p: float, values: tuple[float, float] = (0.0, 1.0)
    ) -> "DistributionSpec":
        return cls(kind="bernoulli", p=float(p), values=(float(values[0]), float(values[1])))

    @classmethod
    def discrete(
        cls, atoms: Iterable[tuple[float, float]]
    ) -> "DistributionSpec":
        return cls(kind="discrete", atoms=tuple((float(v), float(w)) for v, w in atoms))

    def to_dict(self) -> dict:
        if self.kind == "uniform":
            return {"kind": "uniform", "lo": self.lo, "hi": self.hi}
        if self.kind == "gaussian":
            return {"kind": "gaussian", "mean": self.mean, "sigma": self.sigma}
        if self.kind == "bernoulli":
            return {"kind": "bernoulli", "p": self.p, "values": list(self.values)}
        return {"kind": "discrete", "atoms": [list(a) for a in self.atoms]}

    @classmethod
    @_malformed("distribution")
    def from_dict(cls, data: Mapping) -> "DistributionSpec":
        if "kind" not in data:
            raise ValueError("distribution config needs a 'kind'")
        kind = data["kind"]
        allowed = {
            "uniform": {"kind", "lo", "hi"},
            "gaussian": {"kind", "mean", "sigma"},
            "bernoulli": {"kind", "p", "values"},
            "discrete": {"kind", "atoms"},
        }
        if kind not in allowed:
            raise ValueError(f"unknown distribution kind {kind!r}")
        extra = set(data) - allowed[kind]
        if extra:
            raise ValueError(f"unknown keys in {kind} distribution config: {sorted(extra)}")
        if kind == "uniform":
            return cls.uniform(data["lo"], data["hi"])
        if kind == "gaussian":
            return cls.gaussian(data["mean"], data["sigma"])
        if kind == "bernoulli":
            values = tuple(data.get("values", (0.0, 1.0)))
            if len(values) != 2:
                raise ValueError("bernoulli 'values' must hold exactly two numbers")
            return cls.bernoulli(data["p"], values)  # type: ignore[arg-type]
        return cls.discrete(tuple((v, w) for v, w in data["atoms"]))


def _atoms(spec: DistributionSpec) -> tuple[tuple[float, float], ...]:
    """Sorted (value, weight) atoms of a purely atomic law."""
    if spec.kind == "discrete":
        return spec.atoms
    if spec.kind == "bernoulli":
        a, b = spec.values
        return DistributionSpec(kind="discrete", atoms=((a, 1.0 - spec.p), (b, spec.p))).atoms
    raise ValueError(f"{spec.kind} law has no atoms")


def concentration(dist: DistributionSpec, eps: float) -> float:
    """Largest probability mass any half-open window (a, a + eps] can capture.

    Uniform laws give eps over the support length, capped at 1.  For the
    gaussian the best window is centred at the mean.  For atomic laws the
    supremum is attained by a window whose atoms span strictly less than eps
    (the left endpoint is excluded, so a window of width eps can only grab
    atom runs of span < eps); the span is compared with eps exactly, never
    rounded up to it.  Width zero always gives zero.
    """
    if not math.isfinite(eps) or eps < 0:
        raise ValueError("window width must be finite and nonnegative")
    if eps == 0.0:
        return 0.0
    if dist.kind == "uniform":
        return min(eps / (dist.hi - dist.lo), 1.0)
    if dist.kind == "gaussian":
        return math.erf(eps / (2.0 * dist.sigma * math.sqrt(2.0)))
    atoms = _atoms(dist)
    values = [v for v, _ in atoms]
    weights = [w for _, w in atoms]
    best = 0.0
    for i in range(len(atoms)):
        acc = 0.0
        for j in range(i, len(atoms)):
            if math.fsum((values[j], -values[i], -eps)) >= 0:  # exact sign
                break
            acc += weights[j]
        best = max(best, acc)
    return min(best, 1.0)


@dataclass(frozen=True)
class RngStream:
    """Addressable randomness: one generator per (master seed, stream index).

    Distinct stream indices under the same master seed yield statistically
    independent generators, and the mapping is stable across platforms and
    processes, which is what makes experiment trials replayable one by one.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= int(self.master_seed) < 2**64:
            raise ValueError("master seed must fit in an unsigned 64-bit integer")
        if self.stream_index < 0:
            raise ValueError("stream index must be nonnegative")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=(self.master_seed, self.stream_index))
        return np.random.default_rng(seq)


def draw_values(dist: DistributionSpec, gen: np.random.Generator, n: int) -> np.ndarray:
    """Draw n IID values from the law using the given generator.

    This is the one sampling primitive in the package; everything that
    consumes randomness (field sampling, Monte Carlo trials) goes through it,
    so a stream index plus a draw count pins down the exact bytes drawn.
    """
    if n < 0:
        raise ValueError("draw count must be nonnegative")
    if dist.kind == "uniform":
        return gen.uniform(dist.lo, dist.hi, size=n)
    if dist.kind == "gaussian":
        return gen.normal(dist.mean, dist.sigma, size=n)
    if dist.kind == "bernoulli":
        lo_val, hi_val = dist.values
        return np.where(gen.random(n) < dist.p, hi_val, lo_val)
    values, weights = np.array(dist.atoms).T
    # Generator.choice(len(values), n, p=...)'s CDF and uniforms, bit for bit
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return values[cdf.searchsorted(gen.random(n), side="right")]


def sample_field(sites: Sequence[Site], dist: DistributionSpec, rng: RngStream) -> np.ndarray:
    """Realise the potential on `sites`: IID draws aligned with the site order.

    The result is a pure function of the site order, the law and the stream,
    so re-running with the same arguments reproduces the values bit for bit.
    """
    site_list = [tuple(int(c) for c in s) for s in sites]
    if len(set(site_list)) != len(site_list):
        raise ValueError("duplicate sites in field domain")
    draws = draw_values(dist, rng.generator(), len(site_list))
    return draws.astype(float, copy=False)
