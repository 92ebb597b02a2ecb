"""Pair-lattice geometry: boxes on Z^d x Z^d, projection sites, separation classes.

A configuration of the two-particle system is a point of Z^d x Z^d.  Finite
volumes are boxes, products of two lattice cubes of common radius L centred at
the components of a pair point.  The classifier below decides, for two boxes
whose centres are far apart (at least max(8L, 1) in the symmetrized
sup-distance), which of the four projection cubes is disjoint from all the
others.  Two radius-L cubes are disjoint exactly when the sup-norm gap between
their centres exceeds 2L, so the classifier works from centre coordinates
alone and never lists a cube's points.  At least one of the five separation
classes always applies; the survey functions scan relative geometries
exhaustively to confirm that.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple

import numpy as np

from .potential import _integer

Site = tuple[int, ...]


def as_site(coords: Iterable[int]) -> Site:
    """Coerce a coordinate sequence to a lattice site (tuple of ints)."""
    site = tuple(_integer(c, "site coordinate") for c in coords)
    if not site:
        raise ValueError("a lattice site needs at least one coordinate")
    return site


class PairPoint(NamedTuple):
    """Positions of the two particles, each a point of Z^d."""

    first: Site
    second: Site

    @property
    def dimension(self) -> int:
        return len(self.first)

    @staticmethod
    def of(first: Iterable[int], second: Iterable[int]) -> "PairPoint":
        a, b = as_site(first), as_site(second)
        if len(a) != len(b):
            raise ValueError(
                f"particle coordinates disagree in dimension: {len(a)} vs {len(b)}"
            )
        return PairPoint(a, b)


def _radius(value) -> int:
    """`value` as a nonnegative int (see potential._integer)."""
    radius = _integer(value, "radius")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return radius


def _check_same_dimension(a: PairPoint, b: PairPoint) -> None:
    dims = {len(a.first), len(a.second), len(b.first), len(b.second)}
    if len(dims) != 1:
        raise ValueError(f"pair points must share one dimension, got lengths {sorted(dims)}")


@dataclass(frozen=True)
class BoxSpec:
    """Box on the pair lattice: the product of two radius-L cubes.

    The box centred at u = (u1, u2) contains every pair point x = (x1, x2)
    with ||x1 - u1|| <= L and ||x2 - u2|| <= L in the sup norm: the pair
    point lies within sup-distance L of u on Z^d x Z^d.
    """

    center: PairPoint
    radius: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "radius", _radius(self.radius))
        if len(self.center.first) != len(self.center.second):
            raise ValueError("box centre components disagree in dimension")
        if max(abs(c) for c in self.center.first + self.center.second) + self.radius >= 2**62:
            # box coordinates and their differences must fit in int64 arrays
            raise ValueError("box coordinates must lie within +-2**62")

    @property
    def dimension(self) -> int:
        return self.center.dimension

    @property
    def size(self) -> int:
        return (2 * self.radius + 1) ** (2 * self.dimension)

    def coordinates(self) -> np.ndarray:
        """All box points as rows of concatenated coordinates, in lexicographic order."""
        n, k = 2 * self.radius + 1, 2 * self.dimension
        corner = np.array(self.center.first + self.center.second) - self.radius
        return np.indices((n,) * k).reshape(k, -1).T + corner


def make_box(center: PairPoint, radius: int) -> BoxSpec:
    """Validated constructor for a pair box."""
    if not isinstance(center, PairPoint):
        center = PairPoint.of(*center)
    return BoxSpec(center=center, radius=radius)


def projection_sites(box: BoxSpec) -> list[Site]:
    """The union of the box's two projection cubes, sorted.

    These are the sites whose potential values enter the box operator, in
    the order every field array aligned with a box follows.
    """
    n, d = 2 * box.radius + 1, box.dimension
    offsets = np.indices((n,) * d).reshape(d, -1).T - box.radius
    cubes = np.concatenate([offsets + box.center.first, offsets + box.center.second])
    cubes = cubes[np.lexsort(cubes.T[::-1])]  # rows in lexicographic order
    fresh = np.concatenate([[True], (cubes[1:] != cubes[:-1]).any(axis=1)])
    return list(map(tuple, cubes[fresh].tolist()))


def _site_positions(queries: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Position in `sites` of each row of `queries`, or -1 where it is absent.

    Both are integer arrays of shape (n, d), one site per row, and the rows of
    `sites` are distinct; one broadcast comparison matches every pair.
    """
    match = (queries[:, None, :] == sites[None, :, :]).all(axis=2)
    return np.where(match.any(axis=1), match.argmax(axis=1), -1)


class SeparationClass(Enum):
    """Which projection cube stands apart from all others.

    For boxes at centres u and u' (radius L), the four projection cubes are
    the particle-1 and particle-2 cubes of each box.  COMPLETELY_SEPARATED
    means the first box's cubes are jointly disjoint from the second box's.
    The remaining classes each name a single cube disjoint from the union of
    the other three.
    """

    COMPLETELY_SEPARATED = "completely_separated"
    FIRST_PARTICLE1_ISOLATED = "first_particle1_isolated"
    FIRST_PARTICLE2_ISOLATED = "first_particle2_isolated"
    SECOND_PARTICLE1_ISOLATED = "second_particle1_isolated"
    SECOND_PARTICLE2_ISOLATED = "second_particle2_isolated"


# Index order of the six centre pairs, that of itertools.combinations(u + u', 2):
# (u1,u2), (u1,q1), (u1,q2), (u2,q1), (u2,q2), (q1,q2)
_PAIR_U1U2, _PAIR_U1Q1, _PAIR_U1Q2, _PAIR_U2Q1, _PAIR_U2Q2, _PAIR_Q1Q2 = range(6)

# Centre pairs whose cubes must be disjoint, per separation class.
_CLASS_PAIRS = {
    SeparationClass.COMPLETELY_SEPARATED: (_PAIR_U1Q1, _PAIR_U1Q2, _PAIR_U2Q1, _PAIR_U2Q2),
    SeparationClass.FIRST_PARTICLE1_ISOLATED: (_PAIR_U1U2, _PAIR_U1Q1, _PAIR_U1Q2),
    SeparationClass.FIRST_PARTICLE2_ISOLATED: (_PAIR_U1U2, _PAIR_U2Q1, _PAIR_U2Q2),
    SeparationClass.SECOND_PARTICLE1_ISOLATED: (_PAIR_Q1Q2, _PAIR_U1Q1, _PAIR_U2Q1),
    SeparationClass.SECOND_PARTICLE2_ISOLATED: (_PAIR_Q1Q2, _PAIR_U1Q2, _PAIR_U2Q2),
}

# The classes that hold, by the mask whose bit k is set when pair k's cubes are disjoint.
_CLASSES_BY_MASK = [
    frozenset(c for c, pairs in _CLASS_PAIRS.items() if all(mask >> k & 1 for k in pairs))
    for mask in range(64)
]


def classify_separation(
    u: PairPoint, u_prime: PairPoint, radius: int
) -> frozenset[SeparationClass]:
    """All separation classes that hold for boxes at u and u' of given radius.

    Requires the 8L centre-distance condition, the package's one
    admissibility test: min(||u - u'||, ||S(u) - u'||) >= max(8L, 1) in the
    sup norm on Z^d x Z^d, with S the particle swap.  Radius zero only
    demands that the centres differ as swap orbits, without which
    single-point boxes can coincide and no separation class can hold.
    Geometries violating it are rejected with ValueError.  Membership
    follows from the sup-norm gaps between the four cube centres: two
    radius-L cubes are disjoint exactly when their centres' gap exceeds 2L.
    An empty answer would contradict the separation dichotomy, and
    downstream code treats it as a hard failure.
    """
    radius = _radius(radius)
    _check_same_dimension(u, u_prime)
    centre_pairs = itertools.combinations(u + u_prime, 2)
    gaps = [max(map(abs, map(operator.sub, a, b))) for a, b in centre_pairs]
    direct = max(gaps[_PAIR_U1Q1], gaps[_PAIR_U2Q2])
    swapped = max(gaps[_PAIR_U1Q2], gaps[_PAIR_U2Q1])
    if min(direct, swapped) < max(8 * radius, 1):
        raise ValueError("box centres violate the 8L separation condition")
    mask = 0
    for k, gap in enumerate(gaps):
        if gap > 2 * radius:
            mask |= 1 << k
    return _CLASSES_BY_MASK[mask]


# ---------------------------------------------------------------------------
# Exhaustive surveys of relative geometries.
#
# Every predicate above compares coordinate gaps against 2L (cube overlap) and
# 8L (centre distance) only.  If two points on an axis are separated by more
# than 8L+1, shrinking that gap to exactly 8L+1 changes no comparison: gaps
# spanning it stay at least 8L+1 and all others are untouched.  So every
# relative geometry over Z is reproduced, threshold-for-threshold, by one with
# all four axis coordinates within a window of width 3*(8L+1) + 1, and a scan
# over a grid of side 40L+20 sees every geometry class that exists at all.
#
# Per axis, a geometry enters the classifier only through its threshold
# profile: two bits for each of the six centre pairs (gap above 2L, gap at
# least max(8L, 1)), and axes combine by OR-ing profiles, so geometries with
# one profile share their classes.  Both surveys walk the realisable profiles
# of the d=1 grid (one axis for the line, ordered pairs for the plane),
# classify one witness per combination with classify_separation, skip the
# combinations it refuses as inadmissible, and add the weight of the rest:
# the profile's grid count on the line, one per profile pair on the plane.
# ---------------------------------------------------------------------------


@dataclass
class SeparationSurvey:
    """Outcome of an exhaustive scan over admissible box-centre geometries."""

    dimension: int
    radius: int
    geometries: int
    empty: int
    class_counts: dict[SeparationClass, int] = field(default_factory=dict)
    empty_examples: list[tuple[PairPoint, PairPoint]] = field(default_factory=list)


# A per-axis profile: its witness (w, a, b) and weight.
_Profile = tuple[tuple[int, int, int], int]


def _profile_codes(w, a, b, L: int):
    """Packed per-axis profiles of the geometries u = (0, w), u' = (a, b).

    Bit 2k of the code is set when the coordinate gap of centre pair k
    exceeds 2L (the cubes of the pair do not overlap on that axis), and bit
    2k+1 when it reaches the admissibility threshold max(8L, 1).  Works
    elementwise on broadcastable integer arrays.
    """
    gaps = (np.abs(w), np.abs(a), np.abs(b), np.abs(a - w), np.abs(b - w), np.abs(a - b))
    threshold = max(8 * L, 1)
    codes = 0
    for k, g in enumerate(gaps):
        codes = codes | (((g > 2 * L) | (g >= threshold) << 1).astype(np.int64) << (2 * k))
    return codes


def _axis_profiles(L: int, side: int) -> list[_Profile]:
    """Realisable per-axis profiles, each with a witness (w, a, b) and its grid count.

    Realisability is read off a full scan of (w, a, b) over the grid with the
    first coordinate fixed at 0; the count is the number of grid geometries
    with that profile, and the witness is the first of them.
    """
    vals = np.arange(side) - side // 2
    codes = _profile_codes(vals[:, None, None], vals[None, :, None], vals[None, None, :], L)
    _, first, counts = np.unique(codes.ravel(), return_index=True, return_counts=True)
    iw, ia, ib = np.unravel_index(first, codes.shape)
    return [
        ((int(vals[i]), int(vals[j]), int(vals[k])), count)
        for i, j, k, count in zip(iw, ia, ib, counts.tolist())
    ]


def _survey(L: int, axes: list[list[_Profile]]) -> SeparationSurvey:
    """Weighted classification of every admissible combination of axis profiles.

    `axes` holds one list of (witness, weight) per lattice axis.  A
    combination's witness puts each axis's witness on that axis, and its
    weight is the product.  Combinations whose witness `classify_separation`
    refuses fail the 8L condition and are left out.
    """
    d = len(axes)
    weights_by_classes: Counter[frozenset[SeparationClass]] = Counter()
    empty_examples: list[tuple[PairPoint, PairPoint]] = []
    for combo in itertools.product(*axes):
        witnesses, weights = zip(*combo)
        w, a, b = zip(*witnesses)
        u, u_prime = PairPoint((0,) * d, w), PairPoint(a, b)
        try:
            found = classify_separation(u, u_prime, L)
        except ValueError:
            continue
        weights_by_classes[found] += math.prod(weights)
        if not found and len(empty_examples) < 5:
            empty_examples.append((u, u_prime))
    return SeparationSurvey(
        dimension=d,
        radius=L,
        geometries=sum(weights_by_classes.values()),
        empty=weights_by_classes[frozenset()],
        class_counts={
            c: sum(n for found, n in weights_by_classes.items() if c in found)
            for c in SeparationClass
        },
        empty_examples=empty_examples,
    )


def survey_separation_line(L: int) -> SeparationSurvey:
    """Classify every admissible centre geometry on a d=1 grid.

    Fixes the first particle of the first centre at the origin (classification
    is translation invariant) and covers the remaining three coordinates over
    a centred grid of side 40L+20, wide enough to realise every geometry
    class (see the gap-compression note above).  Counts are per grid
    geometry: each profile's witness is classified with classify_separation
    and stands for every grid geometry with that profile.
    """
    L = _radius(L)
    return _survey(L, [_axis_profiles(L, 40 * L + 20)])


def survey_separation_plane(L: int) -> SeparationSurvey:
    """Classify every admissible centre geometry over Z^2.

    The two axes are independent, so the survey walks every ordered pair of
    realisable per-axis profiles (from the d=1 grid scan) and classifies a
    witness geometry with those profiles as its x and y axes with
    classify_separation.  Each profile pair counts once.  Coverage is exact
    for all of Z^2, not just a finite grid, by the gap-compression argument
    above.
    """
    L = _radius(L)
    axis = [(witness, 1) for witness, _ in _axis_profiles(L, 40 * L + 20)]
    return _survey(L, [axis, axis])
