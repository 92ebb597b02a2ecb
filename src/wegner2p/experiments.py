"""Seeded Monte Carlo verification of concentration-of-spectra bounds.

Single-volume experiment: draw the field on the projection union of one box,
assemble the operator, and measure how often its spectrum comes within eps of
a fixed energy.  The analytic ceiling is

    |box| * |projection union| * s(width)

with s the single-site concentration function.  `width` is 2*eps for the
stated bound ("two_eps") or eps/g for the tighter version ("eps_over_g")
that follows from the exact 2*g*t spectral shift; the two coincide at
g = 1/2 and the stated one is the weaker ceiling whenever g >= 1/2.

Two-volume experiment: for two boxes whose centres satisfy the 8L distance
condition, freeze the field on the conditioned box's projection union,
compute its now-deterministic spectrum, then repeatedly resample the
remaining free sites and measure how often the other box's spectrum comes
within eps of the frozen one.  Ceiling:

    |box| * |box'| * |projection union of the free box| * s(width).

The conditioned side is chosen from the separation classes: when the first
box owns an isolated cube (complete separation included) the second box is
conditioned, otherwise the first.  Either way the free box keeps an entire
projection cube untouched by the conditioning, which is what makes its
spectrum genuinely random given the frozen data.

Determinism: trial k of round r draws from the substream with index
r * 2**32 + k under the configured master seed, so any trial can be replayed
in isolation and reports are byte-identical regardless of thread count or
batch schedule.  Round r freezes its conditioning field from substream
(r, 0); single-volume trials use round 0 and trial indices starting at 1.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from ._version import __version__ as TOOL_VERSION
from .hamiltonian import HamiltonianSpec, HamiltonianTemplate, InteractionSpec, _pair
from .lattice import (
    BoxSpec,
    PairPoint,
    SeparationClass,
    classify_separation,
    make_box,
    projections,
)
from .potential import DistributionSpec, RngStream, _malformed, concentration, draw_values
from .spectral import min_gaps_to_sorted

SCHEMA_VERSION = 1

_BATCH = 1024

_BOUND_MODES = ("two_eps", "eps_over_g")

_LOW_POWER_TRIALS = 100


class TwoVolumeBound(Enum):
    """Which box's field is frozen in the two-volume experiment.

    CONDITION_ON_SECOND freezes the second box's projection union and leaves
    the first box's spectrum random; the bound then carries the first box's
    projection-union size.  CONDITION_ON_FIRST is the mirror image.
    """

    CONDITION_ON_SECOND = "condition_on_second"
    CONDITION_ON_FIRST = "condition_on_first"


def derive_trial_rng(master_seed: int, round_index: int, trial_index: int) -> RngStream:
    """Substream for one Monte Carlo trial.

    Streams are addressed as round * 2**32 + trial, so rounds own disjoint
    blocks of 2**32 trial slots and no two (round, trial) pairs collide.
    """
    if round_index < 0:
        raise ValueError("round index must be nonnegative")
    if not 0 <= trial_index < 2**32:
        raise ValueError("trial index must fit in 32 bits")
    return RngStream(master_seed=master_seed, stream_index=(round_index << 32) + trial_index)


def _window(epsilon: float, coupling: float, bound_mode: str) -> float:
    if bound_mode not in _BOUND_MODES:
        raise ValueError(f"bound_mode must be one of {_BOUND_MODES}, got {bound_mode!r}")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be positive and finite")
    if bound_mode == "two_eps":
        return 2.0 * epsilon
    if coupling <= 0:
        raise ValueError("eps_over_g mode needs a positive coupling")
    return epsilon / coupling


def single_volume_bound(
    box: BoxSpec,
    dist: DistributionSpec,
    epsilon: float,
    coupling: float = 1.0,
    bound_mode: str = "two_eps",
) -> float:
    """Analytic ceiling for P(spectrum comes within eps of a fixed energy)."""
    _, _, union = projections(box)
    return box.size * union * concentration(dist, _window(epsilon, coupling, bound_mode))


def two_volume_bound(
    box: BoxSpec,
    box_prime: BoxSpec,
    dist: DistributionSpec,
    epsilon: float,
    coupling: float = 1.0,
    which: TwoVolumeBound = TwoVolumeBound.CONDITION_ON_SECOND,
    bound_mode: str = "two_eps",
) -> float:
    """Analytic ceiling for the conditional two-spectra proximity probability.

    The projection-union factor always belongs to the box left random: the
    first box under CONDITION_ON_SECOND, the second under CONDITION_ON_FIRST.
    """
    free_box = box if which is TwoVolumeBound.CONDITION_ON_SECOND else box_prime
    _, _, union = projections(free_box)
    return (
        box.size
        * box_prime.size
        * union
        * concentration(dist, _window(epsilon, coupling, bound_mode))
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one bound-verification run.

    `center_prime` and `conditioning_rounds` belong to the two-volume
    experiment, `energy` to the single-volume one; the runners enforce the
    split.  `threads` only parallelises the work and never changes results,
    so it is left out of the serialised echo.
    """

    dimension: int
    radius: int
    center: PairPoint
    dist: DistributionSpec
    epsilon: float
    trials: int
    master_seed: int
    center_prime: PairPoint | None = None
    interaction: InteractionSpec = InteractionSpec.zero()
    coupling: float = 1.0
    energy: float | None = None
    conditioning_rounds: int | None = None
    bound_mode: str = "two_eps"
    hopping_norm: str = "sup"
    threads: int = 1

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        for centre in (self.center, self.center_prime):
            if centre is not None and (
                centre.dimension != self.dimension or len(centre.second) != self.dimension
            ):
                raise ValueError("box centres must match the configured dimension")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be positive and finite")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not 0 <= int(self.master_seed) < 2**64:
            raise ValueError("master seed must fit in an unsigned 64-bit integer")
        if self.bound_mode not in _BOUND_MODES:
            raise ValueError(f"bound_mode must be one of {_BOUND_MODES}")
        if self.hopping_norm not in ("sup", "l1"):
            raise ValueError("hopping_norm must be 'sup' or 'l1'")
        if self.conditioning_rounds is not None and self.conditioning_rounds < 1:
            raise ValueError("need at least one conditioning round")
        if self.energy is not None and not math.isfinite(self.energy):
            raise ValueError("energy must be finite")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")

    def to_dict(self) -> dict:
        out: dict = {
            "dimension": self.dimension,
            "radius": self.radius,
            "center": [list(self.center.first), list(self.center.second)],
            "interaction": self.interaction.to_dict(),
            "coupling": self.coupling,
            "dist": self.dist.to_dict(),
            "epsilon": self.epsilon,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "bound_mode": self.bound_mode,
            "hopping_norm": self.hopping_norm,
        }
        if self.center_prime is not None:
            out["center_prime"] = [
                list(self.center_prime.first),
                list(self.center_prime.second),
            ]
        if self.energy is not None:
            out["energy"] = self.energy
        if self.conditioning_rounds is not None:
            out["conditioning_rounds"] = self.conditioning_rounds
        return out

    @classmethod
    def from_dict(cls, data: Mapping, threads: int = 1) -> "ExperimentConfig":
        spec = HamiltonianSpec.from_dict(
            data,
            "experiment",
            extra={
                "center_prime",
                "dist",
                "energy",
                "epsilon",
                "trials",
                "conditioning_rounds",
                "master_seed",
                "bound_mode",
            },
            required={"dist", "epsilon", "trials", "master_seed"},
        )
        with _malformed("experiment"):
            return cls(
                dimension=spec.box.dimension,
                radius=spec.box.radius,
                center=spec.box.center,
                center_prime=(
                    _pair(data["center_prime"], "center_prime") if "center_prime" in data else None
                ),
                interaction=spec.interaction,
                coupling=spec.coupling,
                hopping_norm=spec.hopping_norm,
                dist=DistributionSpec.from_dict(data["dist"]),
                energy=float(data["energy"]) if "energy" in data else None,
                epsilon=float(data["epsilon"]),
                trials=int(data["trials"]),
                conditioning_rounds=(
                    int(data["conditioning_rounds"]) if "conditioning_rounds" in data else None
                ),
                master_seed=int(data["master_seed"]),
                bound_mode=data.get("bound_mode", "two_eps"),
                threads=threads,
            )


@dataclass(eq=False)
class WegnerReport:
    """Outcome of a single-volume run, with per-trial distances retained."""

    config: dict
    analytic_bound: float
    trials: int
    hits: int
    empirical_probability: float
    std_error: float
    verdict: str
    low_power: bool
    dist_min: float
    dist_mean: float
    dist_max: float
    per_trial_dist: np.ndarray
    schema_version: int = SCHEMA_VERSION
    tool_version: str = TOOL_VERSION

    def to_dict(self) -> dict:
        return {
            "kind": "single_volume",
            "schema_version": self.schema_version,
            "tool_version": self.tool_version,
            "config": self.config,
            "analytic_bound": self.analytic_bound,
            "trials": self.trials,
            "hits": self.hits,
            "empirical_probability": self.empirical_probability,
            "std_error": self.std_error,
            "verdict": self.verdict,
            "low_power": self.low_power,
            "dist_min": self.dist_min,
            "dist_mean": self.dist_mean,
            "dist_max": self.dist_max,
            "per_trial_dist": [float(x) for x in self.per_trial_dist],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "WegnerReport":
        if data.get("kind") != "single_volume":
            raise ValueError("not a single-volume report")
        return cls(
            config=dict(data["config"]),
            analytic_bound=data["analytic_bound"],
            trials=data["trials"],
            hits=data["hits"],
            empirical_probability=data["empirical_probability"],
            std_error=data["std_error"],
            verdict=data["verdict"],
            low_power=data["low_power"],
            dist_min=data["dist_min"],
            dist_mean=data["dist_mean"],
            dist_max=data["dist_max"],
            per_trial_dist=np.array(data["per_trial_dist"], dtype=float),
            schema_version=data["schema_version"],
            tool_version=data["tool_version"],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WegnerReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()


@dataclass(frozen=True)
class RoundRecord:
    """Per-round summary of the two-volume experiment."""

    round_index: int
    frozen_digest: str
    trials: int
    hits: int
    empirical_probability: float
    std_error: float
    verdict: str
    dist_min: float
    dist_mean: float

    def to_dict(self) -> dict:
        return {
            "round_index": self.round_index,
            "frozen_digest": self.frozen_digest,
            "trials": self.trials,
            "hits": self.hits,
            "empirical_probability": self.empirical_probability,
            "std_error": self.std_error,
            "verdict": self.verdict,
            "dist_min": self.dist_min,
            "dist_mean": self.dist_mean,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RoundRecord":
        return cls(**{k: data[k] for k in (
            "round_index",
            "frozen_digest",
            "trials",
            "hits",
            "empirical_probability",
            "std_error",
            "verdict",
            "dist_min",
            "dist_mean",
        )})


@dataclass(eq=False)
class TwoVolumeReport:
    """Outcome of a two-volume run: one record per conditioning round."""

    config: dict
    separation_classes: list[str]
    bound_choice: str
    analytic_bound: float
    rounds: list[RoundRecord]
    verdict: str
    low_power: bool
    schema_version: int = SCHEMA_VERSION
    tool_version: str = TOOL_VERSION

    def to_dict(self) -> dict:
        return {
            "kind": "two_volume",
            "schema_version": self.schema_version,
            "tool_version": self.tool_version,
            "config": self.config,
            "separation_classes": list(self.separation_classes),
            "bound_choice": self.bound_choice,
            "analytic_bound": self.analytic_bound,
            "rounds": [r.to_dict() for r in self.rounds],
            "verdict": self.verdict,
            "low_power": self.low_power,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TwoVolumeReport":
        if data.get("kind") != "two_volume":
            raise ValueError("not a two-volume report")
        return cls(
            config=dict(data["config"]),
            separation_classes=list(data["separation_classes"]),
            bound_choice=data["bound_choice"],
            analytic_bound=data["analytic_bound"],
            rounds=[RoundRecord.from_dict(r) for r in data["rounds"]],
            verdict=data["verdict"],
            low_power=data["low_power"],
            schema_version=data["schema_version"],
            tool_version=data["tool_version"],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwoVolumeReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()


def _batch_distances(
    template: HamiltonianTemplate,
    dist: DistributionSpec,
    master_seed: int,
    round_index: int,
    trial_lo: int,
    trial_hi: int,
    reference: np.ndarray,
    base_values: np.ndarray,
    free_positions: np.ndarray,
) -> np.ndarray:
    """Distances for trials trial_lo..trial_hi (inclusive), one batch.

    Each trial draws fresh values for `free_positions` on top of
    `base_values` (the frozen part), assembles the operator, and records the
    minimum gap between its spectrum and the sorted `reference` values.
    """
    count = trial_hi - trial_lo + 1
    values = np.tile(base_values, (count, 1))
    n_free = free_positions.size
    for i in range(count):
        gen = derive_trial_rng(master_seed, round_index, trial_lo + i).generator()
        values[i, free_positions] = draw_values(dist, gen, n_free)
    diag = template.diagonal_shift(values)
    bad = ~np.isfinite(diag).all(axis=1)
    if bad.any():
        raise RuntimeError(f"trial {trial_lo + int(np.argmax(bad))}: non-finite field values")
    m = template.dim
    H = np.broadcast_to(template.fixed, (count, m, m)).copy()
    idx = np.arange(m)
    H[:, idx, idx] += diag
    try:
        eigs = np.linalg.eigvalsh(H)
    except np.linalg.LinAlgError as err:
        raise RuntimeError(f"trials {trial_lo}..{trial_hi}: eigensolver failed: {err}") from err
    return min_gaps_to_sorted(eigs, reference)


def _collect_distances(
    template: HamiltonianTemplate,
    dist: DistributionSpec,
    master_seed: int,
    round_index: int,
    n_trials: int,
    threads: int,
    reference: np.ndarray,
    base_values: np.ndarray,
    free_positions: np.ndarray,
) -> np.ndarray:
    """Per-trial distances for trials 1..n_trials of one round.

    Work is cut into fixed-size batches and reassembled in batch order, so
    the output array is identical for every thread count.
    """
    bounds = [
        (lo, min(lo + _BATCH - 1, n_trials)) for lo in range(1, n_trials + 1, _BATCH)
    ]

    def job(span: tuple[int, int]) -> np.ndarray:
        return _batch_distances(
            template,
            dist,
            master_seed,
            round_index,
            span[0],
            span[1],
            reference,
            base_values,
            free_positions,
        )

    if threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(job, bounds))
    else:
        parts = [job(span) for span in bounds]
    return np.concatenate(parts)


def _template(config: ExperimentConfig, box: BoxSpec) -> HamiltonianTemplate:
    """Operator template of one box under the config's interaction and coupling."""
    return HamiltonianTemplate(
        HamiltonianSpec(
            box=box,
            interaction=config.interaction,
            coupling=config.coupling,
            hopping_norm=config.hopping_norm,
        )
    )


def run_single_volume(config: ExperimentConfig) -> WegnerReport:
    """Monte Carlo check of the single-volume concentration bound.

    Draws `trials` independent fields on the box's projection union, records
    the distance from the configured energy to each spectrum, and compares
    the hit frequency of {distance <= epsilon} against the analytic ceiling.
    The verdict is "holds" unless the empirical probability exceeds the
    ceiling by more than three binomial standard errors.
    """
    if config.energy is None:
        raise ValueError("single-volume experiment needs an energy")
    if config.center_prime is not None or config.conditioning_rounds is not None:
        raise ValueError(
            "single-volume experiment takes no second centre and no conditioning rounds"
        )
    box = make_box(config.center, config.radius)
    template = _template(config, box)
    bound = single_volume_bound(
        box, config.dist, config.epsilon, config.coupling, config.bound_mode
    )
    dists = _collect_distances(
        template,
        config.dist,
        config.master_seed,
        round_index=0,
        n_trials=config.trials,
        threads=config.threads,
        reference=np.array([float(config.energy)]),
        base_values=np.zeros(template.n_sites),
        free_positions=np.arange(template.n_sites),
    )
    hits = int(np.count_nonzero(dists <= config.epsilon))
    estimate = hits / config.trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / config.trials)
    verdict = "holds" if estimate - 3.0 * std_error <= bound else "violated"
    return WegnerReport(
        config=config.to_dict(),
        analytic_bound=bound,
        trials=config.trials,
        hits=hits,
        empirical_probability=estimate,
        std_error=std_error,
        verdict=verdict,
        low_power=config.trials < _LOW_POWER_TRIALS,
        dist_min=float(dists.min()),
        dist_mean=float(dists.mean()),
        dist_max=float(dists.max()),
        per_trial_dist=dists,
    )


_FIRST_BOX_FREE = frozenset(
    {
        SeparationClass.COMPLETELY_SEPARATED,
        SeparationClass.FIRST_PARTICLE1_ISOLATED,
        SeparationClass.FIRST_PARTICLE2_ISOLATED,
    }
)


def choose_bound(classes: frozenset[SeparationClass]) -> TwoVolumeBound:
    """Pick the bound variant a geometry supports.

    An isolated cube on the first box (complete separation included) lets the
    first box stay random while the second is conditioned; otherwise the
    isolation lives on the second box and the roles flip.
    """
    if not classes:
        raise ValueError("no separation class applies")
    if classes & _FIRST_BOX_FREE:
        return TwoVolumeBound.CONDITION_ON_SECOND
    return TwoVolumeBound.CONDITION_ON_FIRST


def run_two_volume(config: ExperimentConfig) -> TwoVolumeReport:
    """Monte Carlo check of the conditional two-volume concentration bound.

    Classifies the separation geometry, picks the bound variant, and runs
    `conditioning_rounds` rounds.  Each round freezes the conditioned box's
    sites from substream (round, 0), computes that box's now-deterministic
    spectrum, then draws `trials` resamplings of the free sites and counts
    how often the free box's spectrum comes within epsilon of the frozen one.
    Every round must respect the ceiling (within three standard errors) for
    the overall verdict to be "holds".
    """
    if config.center_prime is None:
        raise ValueError("two-volume experiment needs a second box centre")
    if config.conditioning_rounds is None:
        raise ValueError("two-volume experiment needs conditioning_rounds")
    if config.energy is not None:
        raise ValueError("two-volume experiment measures spectra against each other, not an energy")
    classes = classify_separation(config.center, config.center_prime, config.radius)
    if not classes:
        raise RuntimeError(
            "separation dichotomy failed: no class applies to an admissible geometry"
        )
    which = choose_bound(classes)
    box = make_box(config.center, config.radius)
    box_prime = make_box(config.center_prime, config.radius)
    if which is TwoVolumeBound.CONDITION_ON_SECOND:
        free_box, cond_box = box, box_prime
    else:
        free_box, cond_box = box_prime, box
    bound = two_volume_bound(
        box,
        box_prime,
        config.dist,
        config.epsilon,
        config.coupling,
        which,
        config.bound_mode,
    )
    free_template = _template(config, free_box)
    cond_template = _template(config, cond_box)
    frozen_sites = cond_template.sites
    frozen_lookup = {s: k for k, s in enumerate(frozen_sites)}
    shared_dst = [i for i, s in enumerate(free_template.sites) if s in frozen_lookup]
    shared_src = [frozen_lookup[free_template.sites[i]] for i in shared_dst]
    free_positions = np.array(
        [i for i, s in enumerate(free_template.sites) if s not in frozen_lookup],
        dtype=int,
    )
    if free_positions.size == 0:
        raise RuntimeError("conditioning froze the whole free box; geometry cannot be admissible")

    rounds: list[RoundRecord] = []
    all_hold = True
    for r in range(1, config.conditioning_rounds + 1):
        gen = derive_trial_rng(config.master_seed, r, 0).generator()
        frozen_vals = draw_values(config.dist, gen, len(frozen_sites))
        digest = hashlib.sha256(frozen_vals.tobytes()).hexdigest()
        cond_eigs = np.linalg.eigvalsh(cond_template.assemble_values(frozen_vals))
        base_values = np.zeros(free_template.n_sites)
        base_values[shared_dst] = frozen_vals[shared_src]
        dists = _collect_distances(
            free_template,
            config.dist,
            config.master_seed,
            round_index=r,
            n_trials=config.trials,
            threads=config.threads,
            reference=cond_eigs,
            base_values=base_values,
            free_positions=free_positions,
        )
        hits = int(np.count_nonzero(dists <= config.epsilon))
        estimate = hits / config.trials
        std_error = math.sqrt(estimate * (1.0 - estimate) / config.trials)
        verdict = "holds" if estimate - 3.0 * std_error <= bound else "violated"
        all_hold = all_hold and verdict == "holds"
        rounds.append(
            RoundRecord(
                round_index=r,
                frozen_digest=digest,
                trials=config.trials,
                hits=hits,
                empirical_probability=estimate,
                std_error=std_error,
                verdict=verdict,
                dist_min=float(dists.min()),
                dist_mean=float(dists.mean()),
            )
        )
    return TwoVolumeReport(
        config=config.to_dict(),
        separation_classes=sorted(c.value for c in classes),
        bound_choice=which.value,
        analytic_bound=bound,
        rounds=rounds,
        verdict="holds" if all_hold else "violated",
        low_power=config.trials < _LOW_POWER_TRIALS,
    )
