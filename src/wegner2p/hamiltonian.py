"""Finite-volume two-particle Hamiltonians.

On a box the operator acts as hopping plus a distance-dependent
inter-particle interaction plus the coupled random potential:

    (H psi)(x) = sum over box points y with ||x - y||_inf = 1 of psi(y)
               + [U(||x1 - x2||) + g (V(x1) + V(x2))] psi(x)

with x = (x1, x2) a pair point, ||x - y||_inf the sup norm over all 2d
coordinates and V the single-site field.  Both particles feel one and the
same field, which is what ties the diagonal entries of distinct box points
together.  This is the one hopping the package builds.  The Wegner ceiling
needs only that the hopping does not depend on the field, so it is the same
for any other, the nearest-neighbour Kronecker sum included.  Matrices are
dense symmetric ndarrays indexed by the canonical (lexicographic)
enumeration of box points, and a sector's blocks by its representative
points in that order.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, reduce
from typing import AbstractSet, Iterator, Mapping

import numpy as np

from .lattice import BoxSpec, PairPoint, Site, _site_positions, make_box, projection_sites
from .potential import _check_keys, _integer, _malformed, _real

# Bytes one m x m matrix may take; HamiltonianSpec refuses a larger box.
_MATRIX_BYTES = 128 * 2**20

# Bytes of matrices one stack handed to eigvalsh may hold.
_CHUNK_BYTES = 512 * 2**10


def _stack_rows(nbytes: int) -> int:
    """Matrices of `nbytes` bytes each that fit in _CHUNK_BYTES, at least one."""
    return max(1, _CHUNK_BYTES // nbytes)


@cache
def _openblas_threads():
    """(get, set) for the thread count of the OpenBLAS numpy loaded, or None.

    Looks in numpy.libs, where a numpy wheel keeps its OpenBLAS, under each
    symbol spelling OpenBLAS builds use: the scipy_openblas prefix of
    numpy 2 wheels, the ILP64 suffix 64_ of the libopenblas64_ in numpy
    1.22-1.26 wheels, and both names without a suffix.  Any other BLAS
    gives None.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    spellings = (
        ("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")
    )
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in spellings:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


# OpenBLAS's thread count is process-wide, so the pin that holds it is too.
_pin_lock = threading.Lock()
_pin_depth = 0  # bodies inside one_blas_thread
_pin_saved = 1  # the caller's OpenBLAS thread count, restored by the last to leave


@contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore the count.

    The caller's worker processes then own the cores (a helper forked inside
    the body inherits the pin), and every eigenvalue is rounded as
    one-thread OpenBLAS rounds it, whatever the host's core count.
    Nested and concurrent bodies share one pin: the last to leave restores
    the caller's count, also when its body raises.  On any other BLAS this
    does nothing.
    """
    global _pin_depth, _pin_saved
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            put(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                put(_pin_saved)


@dataclass(frozen=True)
class InteractionSpec:
    """Inter-particle interaction by sup-distance, zero beyond the cutoff.

    `table` maps a distance r to the interaction energy; missing entries are
    zero.  Entries beyond `r_max` are rejected so the cutoff is honest.
    """

    table: Mapping[int, float]
    r_max: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "r_max", _integer(self.r_max, "r_max"))
        if self.r_max < 0:
            raise ValueError("interaction cutoff must be nonnegative")
        clean: dict[int, float] = {}
        for r, v in self.table.items():
            r = _integer(r, "interaction distance")
            v = _real(v, "interaction energy")
            if r < 0:
                raise ValueError("interaction distances must be nonnegative")
            if r > self.r_max and v != 0.0:
                raise ValueError(
                    f"interaction entry at distance {r} exceeds the cutoff {self.r_max}"
                )
            clean[r] = v
        object.__setattr__(self, "table", clean)

    @classmethod
    def zero(cls, r_max: int = 0) -> "InteractionSpec":
        return cls(table={}, r_max=r_max)

    def to_dict(self) -> dict:
        return {
            "entries": [[r, v] for r, v in sorted(self.table.items())],
            "r_max": self.r_max,
        }

    @classmethod
    def from_dict(cls, data: Mapping, default_r_max: int = 0) -> "InteractionSpec":
        """Parse from config.  An omitted r_max defaults to `default_r_max`
        (callers pass the lattice dimension), stretched to cover the largest
        tabulated distance with a nonzero energy."""
        _check_keys(data, {"entries", "r_max"}, "interaction")
        table: dict[int, float] = {}
        for r, v in data.get("entries", []):
            r = _integer(r, "interaction distance")
            if r in table:
                raise ValueError(f"interaction lists distance {r} twice")
            table[r] = v
        stretched = max([default_r_max] + [r for r, v in table.items() if v != 0.0])
        return cls(table=table, r_max=data.get("r_max", stretched))


def _pair(raw, what: str) -> PairPoint:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ValueError(f"{what} must be a pair of coordinate lists")
    try:
        return PairPoint.of(raw[0], raw[1])
    except TypeError:
        raise ValueError(f"{what} must be a pair of coordinate lists") from None


@dataclass(frozen=True)
class HamiltonianSpec:
    """Everything needed to assemble the operator except the field; refuses an oversized box."""

    box: BoxSpec
    interaction: InteractionSpec
    coupling: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "coupling", _real(self.coupling, "coupling"))
        m = self.box.size
        if 8 * m * m > _MATRIX_BYTES:
            raise ValueError(
                f"one {m}x{m} matrix takes {8 * m * m / 2**20:.0f} MiB, "
                f"over the {_MATRIX_BYTES >> 20} MiB limit on one matrix"
            )

    @classmethod
    def from_dict(
        cls,
        data: Mapping,
        what: str = "hamiltonian",
        extra: AbstractSet[str] = frozenset(),
        required: AbstractSet[str] = frozenset(),
    ) -> "HamiltonianSpec":
        """Parse the Hamiltonian keys of a config.

        `extra` and `required` name the caller's own keys, which this parser
        admits but leaves to the caller; any other key is an error reported
        against `what`.  An omitted interaction is zero with cutoff r_max equal
        to the dimension and coupling defaults to 1.  There is one hopping,
        so no key chooses it.  Wrongly typed values raise ValueError like any
        other bad value.
        """
        _check_keys(
            data,
            allowed={"dimension", "radius", "center", "interaction", "coupling"} | extra,
            required={"dimension", "radius", "center"} | required,
            what=what,
        )
        with _malformed(what):
            dimension = _integer(data["dimension"], "dimension")
            center = _pair(data["center"], "center")
            if center.dimension != dimension:
                raise ValueError("box centre must match the configured dimension")
            return cls(
                box=make_box(center, data["radius"]),
                interaction=InteractionSpec.from_dict(
                    data.get("interaction", {"entries": []}), default_r_max=dimension
                ),
                coupling=data.get("coupling", 1.0),
            )


class HamiltonianTemplate:
    """Precomputed assembly data for one spec.

    The hopping and interaction parts do not depend on the field, so they are
    built once: `hopping` is the off-diagonal hopping matrix and `interaction`
    the diagonal U(||x1 - x2||) per box point.  Realising the operator for a
    sample only writes the diagonal.  `sites` is the canonical (sorted)
    enumeration of the union of the two projection cubes, and `first_index` /
    `second_index` give, for each box point, the positions of its particle
    coordinates in that enumeration.  The Monte Carlo drivers feed raw value
    arrays straight in; the spec has already refused a box whose single
    matrix exceeds _MATRIX_BYTES.

    `sectors` lists (field-free block, representative box points) pairs whose
    blocks' spectra together are the operator's.  On a box centred at u1 = u2
    the particle swap S commutes with the operator: orbits {p, Sp} span a
    symmetric block (representatives p <= Sp) and an antisymmetric one
    (p < Sp).  Any other box is one sector, the whole matrix.
    """

    def __init__(self, spec: HamiltonianSpec):
        self.spec = spec
        box = spec.box
        self.dim = box.size
        coords = box.coordinates()
        d, n = box.dimension, 2 * box.radius + 1
        # Box points run over the product of 2d coordinate ranges in
        # lexicographic order, which is np.kron's index order, so the hopping
        # graph, every two points at sup distance 1, is the Kronecker product
        # over the 2d axes of 1 + (path on 2L+1 points), less the identity.
        eye, path = np.eye(n), np.eye(n, k=1) + np.eye(n, k=-1)
        hop = reduce(np.kron, [eye + path] * (2 * d)) - np.eye(self.dim)
        first, second = coords[:, :d], coords[:, d:]
        r = np.abs(first - second).max(axis=1)
        self.interaction = np.zeros(self.dim)
        for dist, energy in spec.interaction.table.items():
            self.interaction[r == dist] = energy
        self.hopping = hop
        points = np.arange(self.dim)
        if box.center.first == box.center.second:
            # the swapped point's index: exchange the two particles' axes
            swap = points.reshape((n,) * (2 * d)).transpose([*range(d, 2 * d), *range(d)]).ravel()
            sym, low = points[points <= swap], points[points < swap]
            norm = np.where(swap[sym] == sym, math.sqrt(0.5), 1.0)
            sectors = [
                ((hop[np.ix_(sym, sym)] + hop[np.ix_(sym, swap[sym])]) * norm[:, None] * norm, sym),
                (hop[np.ix_(low, low)] - hop[np.ix_(low, swap[low])], low),
            ]
            self.sectors = [(block, rep) for block, rep in sectors if rep.size]  # L=0: no `low`
        else:
            self.sectors = [(hop, points)]
        self.sites: list[Site] = projection_sites(box)
        site_array = np.array(self.sites)
        self.first_index = _site_positions(first, site_array)
        self.second_index = _site_positions(second, site_array)

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def diagonal_shift(self, site_values: np.ndarray) -> np.ndarray:
        """g (V(x1) + V(x2)) per box point, from values aligned with `sites`;
        `assemble_sectors` refuses a shift that overflows."""
        return self.spec.coupling * (
            site_values[..., self.first_index] + site_values[..., self.second_index]
        )

    def _diagonal(self, site_values: np.ndarray, name: str, first_trial: int) -> np.ndarray:
        """U + g (V(x1) + V(x2)) per box point, refused when it overflows."""
        site_values = np.asarray(site_values, dtype=float)
        if site_values.shape[-1:] != (self.n_sites,):
            raise ValueError(f"expected {self.n_sites} site values, got shape {site_values.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            diagonal = self.interaction + self.diagonal_shift(site_values)
        bad = ~np.isfinite(diagonal).all(axis=-1)
        if bad.any():
            label = name if site_values.ndim == 1 else f"trial {first_trial + np.argmax(bad)}"
            raise ValueError(f"{label}: a field value overflows the operator diagonal")
        return diagonal

    def assemble_sectors(
        self, site_values: np.ndarray, name: str = "field", first_trial: int = 1
    ) -> Iterator[tuple[slice, slice, np.ndarray]]:
        """(rows, columns, blocks) chunks for (..., n_sites) values, sector by
        sector, each within _CHUNK_BYTES or a single block: block i has the
        `columns` share of the m eigenvalues of field `rows`[i], in C order.
        Refuses overflow before the first chunk, naming `name` for one field or
        `trial k` for a batch, whose first row is trial `first_trial`."""
        diagonal = self._diagonal(site_values, name, first_trial).reshape(-1, self.dim)
        col = 0
        for block, rep in self.sectors:
            rows, idx = _stack_rows(block.nbytes), np.arange(rep.size)
            for lo in range(0, len(diagonal), rows):
                part = diagonal[lo : lo + rows, rep]
                blocks = np.broadcast_to(block, part.shape[:1] + block.shape).copy()
                blocks[:, idx, idx] += part
                yield slice(lo, lo + len(part)), slice(col, col + rep.size), blocks
            col += rep.size
