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

    |box| * |box'| * |projection union of the free box| * s(width),

where under "eps_over_g" the width is 2*eps/(g*k), k being 2 under
complete separation and 1 otherwise (see `analytic_bound`).

The conditioned side is chosen from the separation classes: when the first
box owns an isolated cube (complete separation included) the second box is
conditioned, otherwise the first.  Either way the free box keeps an entire
projection cube untouched by the conditioning, which is what makes its
spectrum genuinely random given the frozen data.

Determinism: trials are addressed as (round, block, offset).  Trial k >= 1
of round r is row (k - 1) mod B of block b = (k - 1) // B, with B =
_RNG_BLOCK, and block b is one row-major B x n_free draw from the substream
with index r * 2**32 + 1 + b under the configured master seed.  A trial's
values therefore depend on the seed, its round and index, the law and n_free
only, never on the trial count, the thread count or the batch schedule, and
`trial_values` replays any trial on its own.  Round r freezes its
conditioning field from substream r * 2**32; single-volume trials use
round 0.

Workers: a round's trials are cut into spans, and `threads` worker
processes compute them, the calling process and helpers forked from it
(fork, so that they inherit the loaded modules, the operator template and
the one-thread OpenBLAS pin).  They write their distances into one shared
array, each at its trial's index, so a report is the same for every
`threads`.
"""

from __future__ import annotations

import hashlib
import math
import mmap
import os
import signal
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import ClassVar, Mapping, Sequence

import numpy as np

from ._version import __version__ as TOOL_VERSION
from . import hamiltonian
from .hamiltonian import HamiltonianSpec, HamiltonianTemplate, _pair, one_blas_thread
from .lattice import (
    BoxSpec,
    PairPoint,
    SeparationClass,
    _site_positions,
    classify_separation,
    make_box,
    projection_sites,
)
from .potential import DistributionSpec, RngStream, _integer, _malformed, _real, concentration
from .potential import draw_values, sample_field
from .spectral import min_gaps_to_sorted, spectra
from .stollmann import binomial_verdict

SCHEMA_VERSION = 6

_BOUND_MODES = ("two_eps", "eps_over_g")

_LOW_POWER_TRIALS = 100

# Trials per RNG substream; fixed apart from the span size, so a trial's
# values never depend on the size limit.
_RNG_BLOCK = 1024


def _span_rows(m: int) -> int:
    """Trials per span: an RNG block, or as many m x m matrices as fit in
    _MATRIX_BYTES, so that a big box still gives every thread work."""
    return min(_RNG_BLOCK, hamiltonian._MATRIX_BYTES // (8 * m * m))


class TwoVolumeBound(Enum):
    """Which box's field is frozen in the two-volume experiment.

    CONDITION_ON_SECOND freezes the second box's projection union and leaves
    the first box's spectrum random; the bound then carries the first box's
    projection-union size.  CONDITION_ON_FIRST is the mirror image.
    """

    CONDITION_ON_SECOND = "condition_on_second"
    CONDITION_ON_FIRST = "condition_on_first"


def trial_values(
    dist: DistributionSpec, master_seed: int, round_index: int, first: int, last: int, n_free: int
) -> np.ndarray:
    """Free-site values of trials first..last of one round, shape (count, n_free).

    Trial k >= 1 is row (k - 1) % _RNG_BLOCK of block (k - 1) // _RNG_BLOCK,
    and each block is drawn whole, in one row-major call, from substream
    (round_index << 32) + 1 + block; substream (round_index << 32) is the
    round's frozen field.  The experiments draw every batch through here, so
    `trial_values(dist, seed, r, k, k, n_free)[0]` replays trial k exactly.
    """
    names = ("round_index", "first", "last", "n_free")
    round_index, first, last, n_free = map(_integer, (round_index, first, last, n_free), names)
    if round_index < 0:
        raise ValueError("round index must be nonnegative")
    if not 1 <= first <= last < 2**32:
        raise ValueError("trial indices must satisfy 1 <= first <= last < 2**32")
    lo, hi = (first - 1) // _RNG_BLOCK, (last - 1) // _RNG_BLOCK
    streams = [RngStream(master_seed, (round_index << 32) + 1 + b) for b in range(lo, hi + 1)]
    blocks = [draw_values(dist, s.generator(), _RNG_BLOCK * n_free) for s in streams]
    start = first - 1 - lo * _RNG_BLOCK
    return np.concatenate(blocks).reshape(-1, n_free)[start : start + last - first + 1]


def analytic_bound(
    boxes: Sequence[BoxSpec],
    free_box: BoxSpec,
    dist: DistributionSpec,
    epsilon: float,
    coupling: float = 1.0,
    bound_mode: str = "two_eps",
) -> float:
    """Analytic ceiling |boxes| * |projection union of free_box| * s(window).

    The first factor is the product of the box sizes, one box for the
    single-volume bound and two for the two-volume one; `free_box` is the
    box whose field stays random (the one box, or the unconditioned one),
    and the other boxes' projection sites are frozen.  The window is 2*eps
    under "two_eps" and 2*eps/(g*k) under "eps_over_g", where k is the
    least number of a free-box point's coordinates on free sites: raising
    every free site by t raises each diagonal entry by at least g*k*t.
    k is 2 for one box and under complete separation, else 1; a box point
    with no free coordinate (k = 0) raises RuntimeError.
    """
    if bound_mode not in _BOUND_MODES:
        raise ValueError(f"bound_mode must be one of {_BOUND_MODES}, got {bound_mode!r}")
    epsilon, coupling = _real(epsilon, "epsilon"), _real(coupling, "coupling")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive and finite")
    if bound_mode == "eps_over_g" and coupling <= 0:
        raise ValueError("eps_over_g mode needs a positive coupling")
    if free_box not in boxes:
        raise ValueError("free_box must be one of boxes")
    frozen = list(boxes)
    frozen.remove(free_box)
    d, points = free_box.dimension, free_box.coordinates()
    sites = np.array([s for box in frozen for s in projection_sites(box)]).reshape(-1, d)
    free = [~(points[:, None, i : i + d] == sites).all(axis=2).any(axis=1) for i in (0, d)]
    k = int(np.sum(free, axis=0).min())
    if k == 0:
        raise RuntimeError("a free-box point has no coordinate on a free site")
    window = 2.0 * epsilon if bound_mode == "two_eps" else 2.0 * epsilon / (coupling * k)
    if not math.isfinite(window):
        raise ValueError("window width must be finite and nonnegative")
    union = len(projection_sites(free_box))
    return math.prod(box.size for box in boxes) * union * concentration(dist, window)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one bound-verification run.

    `hamiltonian` holds the (first) box and the operator on it.
    `center_prime` and `conditioning_rounds` belong to the two-volume
    experiment, `energy` to the single-volume one; the runners enforce the
    split.  `threads` is the run's whole budget of worker processes: the
    calling one and up to threads - 1 forked helpers, each with OpenBLAS on
    one thread.  It never changes results, so it is left out of the
    serialised echo.  `trials`, `conditioning_rounds`, `master_seed` and
    `threads` take an integer or an integral float, stored as an int;
    `epsilon` and `energy` take a finite real, stored as a float.  Anything
    else raises ValueError naming the field, as a config with it does.
    """

    hamiltonian: HamiltonianSpec
    dist: DistributionSpec
    epsilon: float
    trials: int
    master_seed: int
    center_prime: PairPoint | None = None
    energy: float | None = None
    conditioning_rounds: int | None = None
    bound_mode: str = "two_eps"
    threads: int = 1

    def __post_init__(self) -> None:
        numbers = {"trials": _integer, "master_seed": _integer, "threads": _integer, "epsilon": _real}
        optional = {"conditioning_rounds": _integer, "energy": _real}
        numbers |= {key: to for key, to in optional.items() if getattr(self, key) is not None}
        for key, to in numbers.items():
            object.__setattr__(self, key, to(getattr(self, key), key))
        box = self.hamiltonian.box
        if self.center_prime is not None and (
            self.center_prime.dimension != box.dimension
            or len(self.center_prime.second) != box.dimension
        ):
            raise ValueError("box centres must match the configured dimension")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive and finite")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.trials >= 2**32:
            raise ValueError("trials must be below 2**32, the per-round trial index range")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master seed must fit in an unsigned 64-bit integer")
        if self.bound_mode not in _BOUND_MODES:
            raise ValueError(f"bound_mode must be one of {_BOUND_MODES}")
        if self.conditioning_rounds is not None and self.conditioning_rounds < 1:
            raise ValueError("need at least one conditioning round")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")

    def to_dict(self) -> dict:
        spec = self.hamiltonian
        out: dict = {
            "dimension": spec.box.dimension,
            "radius": spec.box.radius,
            "center": [list(spec.box.center.first), list(spec.box.center.second)],
            "interaction": spec.interaction.to_dict(),
            "coupling": spec.coupling,
            "dist": self.dist.to_dict(),
            "epsilon": self.epsilon,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "bound_mode": self.bound_mode,
            "hopping_norm": spec.hopping_norm,
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

        def given(key, check):  # None means "not given", so a given null is refused here
            return check(data[key], key) if key in data else None

        with _malformed("experiment"):
            return cls(
                hamiltonian=spec,
                center_prime=(
                    _pair(data["center_prime"], "center_prime") if "center_prime" in data else None
                ),
                dist=DistributionSpec.from_dict(data["dist"]),
                energy=given("energy", _real),
                epsilon=data["epsilon"],
                trials=data["trials"],
                conditioning_rounds=given("conditioning_rounds", _integer),
                master_seed=data["master_seed"],
                bound_mode=data.get("bound_mode", "two_eps"),
                threads=threads,
            )


class _Report:
    """Report dataclass serialised from its fields, in declaration order.

    The JSON object starts with `kind`, `schema_version` and `tool_version`;
    nested dataclasses become objects.
    """

    KIND: ClassVar[str]

    def to_dict(self) -> dict:
        body = asdict(self)
        return {
            "kind": self.KIND,
            "schema_version": body.pop("schema_version"),
            "tool_version": body.pop("tool_version"),
            **body,
        }


@dataclass
class WegnerReport(_Report):
    """Outcome of a single-volume run.

    `dist_digest` is the sha256 hex of the per-trial distances as float64 in
    trial order; any trial can be replayed from `trial_values` and the
    whole run checked against it.
    """

    KIND = "single_volume"

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
    dist_digest: str
    schema_version: int = SCHEMA_VERSION
    tool_version: str = TOOL_VERSION


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
    dist_max: float
    dist_digest: str


@dataclass
class TwoVolumeReport(_Report):
    """Outcome of a two-volume run: one record per conditioning round."""

    KIND = "two_volume"

    config: dict
    separation_classes: list[str]
    bound_choice: str
    analytic_bound: float
    rounds: list[RoundRecord]
    verdict: str
    low_power: bool
    schema_version: int = SCHEMA_VERSION
    tool_version: str = TOOL_VERSION


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
    """Per-trial distances (float64) for trials 1..n_trials of one round.

    Each trial takes its `trial_values` for `free_positions` on top of
    `base_values` (the frozen part), and records the least gap between any
    of its sector blocks' spectra and the sorted `reference` values.
    Work is cut into spans of `_span_rows` trials and dealt to
    T = min(threads, spans) workers, span i to worker i mod T.  Worker 0 is
    the calling process; the other T - 1 are helper processes forked from it
    (a one-span run forks nothing).  Every worker writes its spans' gaps
    into one shared anonymous mapping and marks each span it finishes in a
    second.  Processes rather than threads, because threads calling
    `eigvalsh` on small blocks get in each other's way inside OpenBLAS.  A
    worker stops at its first failing span, and the first unfinished span
    in trial order names the error, the same for every thread count: the
    caller's own if the span is the caller's, else the one the caller meets
    computing the span again (a span is a pure function of its trial
    indices), or a RuntimeError if it meets none, since the helper died of
    something else.  No helper outlives the call.  A span's blocks are
    diagonalised in the budgeted chunks `template.assemble_sectors` yields,
    each folded into the span's running minimum.  A trial's values depend
    on its own index only, so the output array is identical for every
    thread count, span size and chunk size.
    """
    rows = _span_rows(template.dim)
    bounds = [(lo, min(lo + rows - 1, n_trials)) for lo in range(1, n_trials + 1, rows)]
    workers = min(threads, len(bounds))
    if workers > 1 and not hasattr(os, "fork"):
        raise ValueError("threads above 1 need os.fork, which this platform does not have")
    gaps = np.frombuffer(mmap.mmap(-1, 8 * n_trials), dtype=np.float64)
    done = np.frombuffer(mmap.mmap(-1, len(bounds)), dtype=bool)

    def batch(i: int) -> None:
        trial_lo, trial_hi = bounds[i]
        values = np.tile(base_values, (trial_hi - trial_lo + 1, 1))
        values[:, free_positions] = trial_values(
            dist, master_seed, round_index, trial_lo, trial_hi, free_positions.size
        )
        span = gaps[trial_lo - 1 : trial_hi]
        span.fill(np.inf)
        try:
            for rows, _, H in template.assemble_sectors(values, first_trial=trial_lo):
                chunk = span[rows]
                np.minimum(chunk, min_gaps_to_sorted(np.linalg.eigvalsh(H), reference), out=chunk)
        except np.linalg.LinAlgError as err:
            raise RuntimeError(f"trials {trial_lo}..{trial_hi}: eigensolver failed: {err}") from err
        done[i] = True

    def share(worker: int) -> None:
        for i in range(worker, len(bounds), workers):
            batch(i)

    pids, codes, failure = [], [], None  # helper w is pids[w - 1]; codes of those reaped
    try:
        for worker in range(1, workers):
            pid = os.fork()
            if pid == 0:  # a helper never returns into the caller's code
                code = 1
                try:
                    # Ctrl-C reaches the whole process group; the caller stops the helpers.
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    share(worker)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        try:
            share(0)
        except Exception as err:  # raised below if no earlier span failed
            failure = err
        for pid in pids:
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    finally:
        for pid in pids[len(codes) :]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if not done.all():
        first = int(np.argmin(done))
        worker = first % workers
        if worker == 0:
            raise failure
        batch(first)
        raise RuntimeError(
            f"helper process {worker} exited with code {codes[worker - 1]} before sending its spans"
        )
    return gaps


def _round(
    config: ExperimentConfig,
    template: HamiltonianTemplate,
    bound: float,
    round_index: int,
    reference: np.ndarray,
    base_values: np.ndarray,
    free_positions: np.ndarray,
) -> dict:
    """The statistics a report carries for one round's `config.trials` trials.

    The distances come from `_collect_distances`; a single-volume run is
    round 0 with every site free.  A trial hits when its distance is at most
    epsilon; the verdict is `binomial_verdict`'s.  `dist_digest` fingerprints
    every distance bit for bit, in trial order, the way `frozen_digest`
    fingerprints a frozen field.
    """
    dists = _collect_distances(
        template,
        config.dist,
        config.master_seed,
        round_index,
        config.trials,
        config.threads,
        reference,
        base_values,
        free_positions,
    )
    hits = int(np.count_nonzero(dists <= config.epsilon))
    estimate, std_error, holds = binomial_verdict(hits, dists.size, bound)
    return {
        "hits": hits,
        "empirical_probability": estimate,
        "std_error": std_error,
        "verdict": "holds" if holds else "violated",
        "dist_min": float(dists.min()),
        "dist_mean": float(dists.mean()),
        "dist_max": float(dists.max()),
        "dist_digest": hashlib.sha256(dists.tobytes()).hexdigest(),
    }


@one_blas_thread()
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
    spec = config.hamiltonian
    template = HamiltonianTemplate(spec)
    bound = analytic_bound(
        [spec.box], spec.box, config.dist, config.epsilon, spec.coupling, config.bound_mode
    )
    energy, n = np.array([float(config.energy)]), template.n_sites
    return WegnerReport(
        config=config.to_dict(),
        analytic_bound=bound,
        trials=config.trials,
        low_power=config.trials < _LOW_POWER_TRIALS,
        **_round(config, template, bound, 0, energy, np.zeros(n), np.arange(n)),
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


@one_blas_thread()
def run_two_volume(config: ExperimentConfig) -> TwoVolumeReport:
    """Monte Carlo check of the conditional two-volume concentration bound.

    Classifies the separation geometry, picks the bound variant, and runs
    `conditioning_rounds` rounds.  Each round freezes the conditioned box's
    sites from substream round << 32, computes that box's now-deterministic
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
    spec = config.hamiltonian
    classes = classify_separation(spec.box.center, config.center_prime, spec.box.radius)
    if not classes:
        raise RuntimeError(
            "separation dichotomy failed: no class applies to an admissible geometry"
        )
    which = choose_bound(classes)
    box = spec.box
    box_prime = make_box(config.center_prime, box.radius)
    if which is TwoVolumeBound.CONDITION_ON_SECOND:
        free_box, cond_box = box, box_prime
    else:
        free_box, cond_box = box_prime, box
    bound = analytic_bound(
        [box, box_prime], free_box, config.dist, config.epsilon, spec.coupling, config.bound_mode
    )
    free_template = HamiltonianTemplate(replace(spec, box=free_box))
    cond_template = HamiltonianTemplate(replace(spec, box=cond_box))
    frozen_at = _site_positions(np.array(free_template.sites), np.array(cond_template.sites))
    shared_dst = np.flatnonzero(frozen_at >= 0)
    shared_src = frozen_at[shared_dst]
    free_positions = np.flatnonzero(frozen_at < 0)

    rounds: list[RoundRecord] = []
    for r in range(1, config.conditioning_rounds + 1):
        frozen_vals = sample_field(
            cond_template.sites, config.dist, RngStream(config.master_seed, r << 32)
        )
        digest = hashlib.sha256(frozen_vals.tobytes()).hexdigest()
        cond_eigs = spectra(cond_template, frozen_vals, f"round {r} frozen field")
        base_values = np.zeros(free_template.n_sites)
        base_values[shared_dst] = frozen_vals[shared_src]
        rounds.append(
            RoundRecord(
                round_index=r,
                frozen_digest=digest,
                trials=config.trials,
                **_round(config, free_template, bound, r, cond_eigs, base_values, free_positions),
            )
        )
    return TwoVolumeReport(
        config=config.to_dict(),
        separation_classes=sorted(c.value for c in classes),
        bound_choice=which.value,
        analytic_bound=bound,
        rounds=rounds,
        verdict="holds" if all(rec.verdict == "holds" for rec in rounds) else "violated",
        low_power=config.trials < _LOW_POWER_TRIALS,
    )
