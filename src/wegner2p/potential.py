"""Single-site disorder: distribution specs, concentration function, field sampling.

The random potential assigns one IID value per lattice site.  Everything
downstream needs exactly two things from the law: a way to draw samples and
its concentration function, the largest probability any half-open window
(a, a + eps] can capture.  Sampling is organised around reproducible
substreams so that a trial is a pure function of (master seed, stream index).
"""

from __future__ import annotations

import math
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping, Sequence

import numpy as np

# The config keys of each law, `kind` included.
_KIND_KEYS = {"uniform": {"kind", "lo", "hi"}, "discrete": {"kind", "atoms"}}


@contextmanager
def _malformed(what: str):
    """Turn a wrongly typed config value into a ValueError naming `what`.

    Config parsers index, unpack and iterate config values and test keys
    with `in`; a null or a number in the wrong place makes those raise
    TypeError, which this reports like any other bad value.  Usable as a
    decorator too.
    """
    try:
        yield
    except TypeError as err:
        raise ValueError(f"malformed {what} config: {err}") from None


def _check_keys(data: Mapping, allowed: AbstractSet[str], what: str, required=frozenset()) -> None:
    extra = set(data) - allowed
    if extra:
        raise ValueError(f"unknown keys in {what} config: {sorted(extra)}")
    missing = required - set(data)
    if missing:
        raise ValueError(f"{what} config lacks required keys: {sorted(missing)}")


def _integer(value, what: str) -> int:
    """`value` as an int: an int, numpy's included, or a float with an
    integral value, as JSON may write 100000 as 1e5.  A fraction, a boolean,
    a string or anything else raises ValueError naming `what`."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _real(value, what: str) -> float:
    """`value` as a finite float: an int, a float or a numpy integer or
    float.  A boolean, a string, NaN, an infinity, an int too large for a
    float or anything else raises ValueError naming `what`."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        with suppress(OverflowError):
            if math.isfinite(real := float(value)):
                return real
    raise ValueError(f"{what} must be a real number, got {value!r}")


@dataclass(frozen=True)
class DistributionSpec:
    """A single-site law.  Each kind sets its own fields and only those:

    uniform    lo, hi              flat on [lo, hi), lo < hi
    discrete   atoms               ((value, prob), ...), probs summing to 1

    `discrete` is the one atomic law: a two-valued law that takes b with
    probability p and a otherwise is discrete(((a, 1 - p), (b, p))).
    Parameters are checked once, at construction, and discrete atoms are
    sorted by value with duplicates merged; nonsense raises ValueError, and
    so does a field of the other kind (a discrete law's lo or hi, a uniform
    law's atoms), so equal laws are equal specs.
    """

    kind: str
    lo: float | None = None
    hi: float | None = None
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not (isinstance(self.kind, str) and self.kind in _KIND_KEYS):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "uniform":
            if self.atoms:
                raise ValueError("a uniform law takes no atoms")
            for key in ("lo", "hi"):
                object.__setattr__(self, key, _real(getattr(self, key), key))
            if not self.lo < self.hi:
                raise ValueError("uniform law needs lo < hi")
            if not math.isfinite(self.hi - self.lo):
                raise ValueError("uniform width hi - lo overflows a float")
        else:
            if self.lo is not None or self.hi is not None:
                raise ValueError("a discrete law takes no lo or hi")
            if not self.atoms:
                raise ValueError("discrete law needs at least one atom")
            merged: dict[float, float] = {}
            for value, weight in self.atoms:
                value, weight = _real(value, "atom value"), _real(weight, "atom weight")
                if weight < 0:
                    raise ValueError("atom weights must be nonnegative")
                merged[value] = merged.get(value, 0.0) + weight
            total = math.fsum(merged.values())
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"atom weights must sum to 1, got {total!r}")
            object.__setattr__(self, "atoms", tuple(sorted(merged.items())))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "DistributionSpec":
        return cls(kind="uniform", lo=lo, hi=hi)

    @classmethod
    def discrete(cls, atoms: Iterable[tuple[float, float]]) -> "DistributionSpec":
        return cls(kind="discrete", atoms=tuple(atoms))

    def to_dict(self) -> dict:
        if self.kind == "uniform":
            return {"kind": "uniform", "lo": self.lo, "hi": self.hi}
        return {"kind": "discrete", "atoms": [list(a) for a in self.atoms]}

    @classmethod
    @_malformed("distribution")
    def from_dict(cls, data: Mapping) -> "DistributionSpec":
        if "kind" not in data:
            raise ValueError("distribution config needs a 'kind'")
        kind = data["kind"]
        if kind not in _KIND_KEYS:
            raise ValueError(f"unknown distribution kind {kind!r}")
        _check_keys(data, _KIND_KEYS[kind], f"{kind} distribution", required=_KIND_KEYS[kind])
        if kind == "uniform":
            return cls.uniform(data["lo"], data["hi"])
        return cls.discrete(tuple((v, w) for v, w in data["atoms"]))


def concentration(dist: DistributionSpec, eps: float) -> float:
    """Largest probability mass any half-open window (a, a + eps] can capture.

    Uniform laws give eps over the support length, capped at 1.  For atomic
    laws the supremum is attained by a window whose atoms span strictly less
    than eps (the left endpoint is excluded, so a window of width eps can only
    grab atom runs of span < eps); the span is compared with eps exactly,
    never rounded up to it.  Width zero always gives zero.
    """
    eps = _real(eps, "eps")
    if eps < 0:
        raise ValueError("window width must be nonnegative")
    if eps == 0.0:
        return 0.0
    if dist.kind == "uniform":
        return min(eps / (dist.hi - dist.lo), 1.0)
    values = [v for v, _ in dist.atoms]
    weights = [w for _, w in dist.atoms]
    best = 0.0
    for i in range(len(values)):
        acc = 0.0
        for j in range(i, len(values)):
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
        object.__setattr__(self, "master_seed", _integer(self.master_seed, "master_seed"))
        object.__setattr__(self, "stream_index", _integer(self.stream_index, "stream_index"))
        if not 0 <= self.master_seed < 2**64:
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
    values, weights = np.array(dist.atoms).T
    # Generator.choice(len(values), n, p=...)'s CDF and uniforms, bit for bit
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return values[cdf.searchsorted(gen.random(n), side="right")]


def sample_field(
    sites: Sequence[tuple[int, ...]], dist: DistributionSpec, rng: RngStream
) -> np.ndarray:
    """Realise the potential on `sites`: IID draws aligned with the site order.

    The result is a pure function of the site order, the law and the stream,
    so re-running with the same arguments reproduces the values bit for bit.
    """
    site_list = [tuple(int(c) for c in s) for s in sites]
    if len(set(site_list)) != len(site_list):
        raise ValueError("duplicate sites in field domain")
    return draw_values(dist, rng.generator(), len(site_list))
