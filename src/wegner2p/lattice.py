"""Pair-lattice geometry: boxes on Z^d x Z^d, projection cubes, separation classes.

A configuration of the two-particle system is a point of Z^d x Z^d.  Finite
volumes are boxes, products of two lattice cubes of common radius L centred at
the components of a pair point.  The classifier below decides, for two boxes
whose centres are far apart (at least max(8L, 1) in the symmetrized
sup-distance), which of the four projection cubes is disjoint from all the
others.  At least
one of the five separation classes always applies; the survey functions scan
relative geometries exhaustively to confirm that.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, reduce
from typing import Iterable, Iterator, NamedTuple

import numpy as np

Site = tuple[int, ...]


def as_site(coords: Iterable[int]) -> Site:
    """Coerce a coordinate sequence to a lattice site (tuple of ints)."""
    site = tuple(int(c) for c in coords)
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


def _check_same_dimension(a: PairPoint, b: PairPoint) -> None:
    dims = {len(a.first), len(a.second), len(b.first), len(b.second)}
    if len(dims) != 1:
        raise ValueError(f"pair points must share one dimension, got lengths {sorted(dims)}")


def sup_norm_pair(a: PairPoint, b: PairPoint) -> int:
    """Sup-norm distance on Z^d x Z^d: largest coordinate gap over both particles."""
    _check_same_dimension(a, b)
    return max(
        max(abs(p - q) for p, q in zip(a.first, b.first)),
        max(abs(p - q) for p, q in zip(a.second, b.second)),
    )


def apply_symmetry(a: PairPoint) -> PairPoint:
    """Swap the two particles."""
    return PairPoint(a.second, a.first)


def distance_condition(u: PairPoint, u_prime: PairPoint, radius: int) -> bool:
    """Whether two box centres are far apart modulo the particle swap.

    True when min(||u - u'||, ||S(u) - u'||) >= max(8 * radius, 1) in the sup
    norm, with S the swap.  This is the admissibility condition for the
    separation classifier.  For radius >= 1 the threshold is just 8L; radius
    zero only demands that the centres differ as swap orbits, without which
    single-point boxes can coincide and no separation class can hold.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    _check_same_dimension(u, u_prime)
    direct = sup_norm_pair(u, u_prime)
    swapped = sup_norm_pair(apply_symmetry(u), u_prime)
    return min(direct, swapped) >= max(8 * radius, 1)


@dataclass(frozen=True)
class Cube:
    """Lattice cube: all sites within sup-distance `radius` of `center`."""

    center: Site
    radius: int

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("cube radius must be nonnegative")
        if not self.center:
            raise ValueError("cube centre needs at least one coordinate")

    @property
    def dimension(self) -> int:
        return len(self.center)

    @property
    def size(self) -> int:
        return (2 * self.radius + 1) ** self.dimension

    def points(self) -> list[Site]:
        """All cube sites in lexicographic order."""
        ranges = [range(c - self.radius, c + self.radius + 1) for c in self.center]
        return [tuple(p) for p in itertools.product(*ranges)]

    def point_set(self) -> frozenset[Site]:
        return _cube_point_set(self.center, self.radius)

    def __contains__(self, site: Site) -> bool:
        return len(site) == self.dimension and all(
            abs(s - c) <= self.radius for s, c in zip(site, self.center)
        )


@lru_cache(maxsize=65536)
def _cube_point_set(center: Site, radius: int) -> frozenset[Site]:
    ranges = [range(c - radius, c + radius + 1) for c in center]
    return frozenset(itertools.product(*ranges))


@dataclass(frozen=True)
class BoxSpec:
    """Box on the pair lattice: the product of two radius-L cubes.

    The box centred at u = (u1, u2) contains every pair point x = (x1, x2)
    with ||x1 - u1|| <= L and ||x2 - u2|| <= L in the sup norm, which is the
    same as sup_norm_pair(x, u) <= L.
    """

    center: PairPoint
    radius: int

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("box radius must be nonnegative")
        if len(self.center.first) != len(self.center.second):
            raise ValueError("box centre components disagree in dimension")

    @property
    def dimension(self) -> int:
        return self.center.dimension

    @property
    def size(self) -> int:
        return (2 * self.radius + 1) ** (2 * self.dimension)

    def projections(self) -> tuple[Cube, Cube]:
        """The two single-particle cubes whose product is the box."""
        return (
            Cube(self.center.first, self.radius),
            Cube(self.center.second, self.radius),
        )

    def points(self) -> list[PairPoint]:
        """All box points, lexicographic in the concatenated coordinates."""
        d = self.dimension
        cat = self.center.first + self.center.second
        ranges = [range(c - self.radius, c + self.radius + 1) for c in cat]
        return [
            PairPoint(tuple(p[:d]), tuple(p[d:])) for p in itertools.product(*ranges)
        ]

    def __contains__(self, x: PairPoint) -> bool:
        if x.dimension != self.dimension or len(x.second) != self.dimension:
            return False
        return sup_norm_pair(x, self.center) <= self.radius

    def __iter__(self) -> Iterator[PairPoint]:
        return iter(self.points())


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
    c1, c2 = box.projections()
    return sorted(c1.point_set() | c2.point_set())


def projections(box: BoxSpec) -> tuple[Cube, Cube, int]:
    """Both projection cubes of a box and the exact size of their union.

    The union size is |P1 u P2| computed set-wise; it is 2*(2L+1)^d when the
    cubes are disjoint and shrinks when they overlap, down to (2L+1)^d for
    coincident centres.
    """
    c1, c2 = box.projections()
    return c1, c2, len(projection_sites(box))


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


def classify_separation(
    u: PairPoint, u_prime: PairPoint, radius: int
) -> frozenset[SeparationClass]:
    """All separation classes that hold for boxes at u and u' of given radius.

    Requires the 8L centre-distance condition; geometries violating it are
    rejected with ValueError.  Membership is decided by exact set operations
    on the four projection cubes.  An empty answer would contradict the
    separation dichotomy, and downstream code treats it as a hard failure.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if not distance_condition(u, u_prime, radius):
        raise ValueError("box centres violate the 8L separation condition")
    p1 = _cube_point_set(u.first, radius)
    p2 = _cube_point_set(u.second, radius)
    q1 = _cube_point_set(u_prime.first, radius)
    q2 = _cube_point_set(u_prime.second, radius)
    q_union = q1 | q2
    p_union = p1 | p2

    classes: set[SeparationClass] = set()
    if p_union.isdisjoint(q_union):
        classes.add(SeparationClass.COMPLETELY_SEPARATED)
    if p1.isdisjoint(p2) and p1.isdisjoint(q_union):
        classes.add(SeparationClass.FIRST_PARTICLE1_ISOLATED)
    if p2.isdisjoint(p1) and p2.isdisjoint(q_union):
        classes.add(SeparationClass.FIRST_PARTICLE2_ISOLATED)
    if q1.isdisjoint(q2) and q1.isdisjoint(p_union):
        classes.add(SeparationClass.SECOND_PARTICLE1_ISOLATED)
    if q2.isdisjoint(q1) and q2.isdisjoint(p_union):
        classes.add(SeparationClass.SECOND_PARTICLE2_ISOLATED)
    return frozenset(classes)


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
# least max(8L, 1)), and axes combine by OR-ing profiles.  Both surveys walk
# the realisable profiles of the d=1 grid (one axis for the line, ordered
# pairs for the plane), classify one witness per admissible combination
# set-wise against the profile's predicted classes, and add its weight: the
# profile's grid count on the line, one per profile pair on the plane.
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

    @property
    def all_classified(self) -> bool:
        return self.empty == 0


# Index order of the six centre pairs in a profile, two bits each:
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

# Grid geometries the line survey classifies set-wise besides the witnesses.
_SPOT_CHECKS = 1000

# A per-axis profile: packed code, witness (w, a, b) and weight.
_Profile = tuple[int, tuple[int, int, int], int]


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
    uniq, first, counts = np.unique(codes.ravel(), return_index=True, return_counts=True)
    iw, ia, ib = np.unravel_index(first, codes.shape)
    return [
        (code, (int(vals[i]), int(vals[j]), int(vals[k])), count)
        for code, i, j, k, count in zip(uniq.tolist(), iw, ia, ib, counts.tolist())
    ]


@lru_cache(maxsize=4**6)  # every packed six-pair profile
def _predict_classes(profile: int) -> frozenset[SeparationClass] | None:
    """Separation classes implied by a packed threshold profile, None if inadmissible.

    Cubes of a pair are disjoint when the pair's gap exceeds 2L on some axis
    (bit 0); centres are far when it reaches the admissibility threshold on
    some axis (bit 1).  This route never touches point sets, so it
    cross-checks the set-based classifier.
    """
    disjoint = [bool(profile >> (2 * k) & 1) for k in range(6)]
    far = [bool(profile >> (2 * k) & 2) for k in range(6)]
    if not ((far[_PAIR_U1Q1] or far[_PAIR_U2Q2]) and (far[_PAIR_U1Q2] or far[_PAIR_U2Q1])):
        return None
    return frozenset(c for c, pairs in _CLASS_PAIRS.items() if all(disjoint[k] for k in pairs))


def _checked_classes(u: PairPoint, u_prime: PairPoint, L: int, predicted) -> frozenset:
    """Set-based classes of one geometry; raises if they differ from `predicted`."""
    found = classify_separation(u, u_prime, L)
    if found != predicted:
        raise RuntimeError(
            f"axis-profile prediction {predicted} disagrees with "
            f"set-based classification {found} at u={u}, u'={u_prime}, L={L}"
        )
    return found


def _survey(L: int, axes: list[list[_Profile]]) -> SeparationSurvey:
    """Weighted classification of every admissible combination of axis profiles.

    `axes` holds one list of (profile, witness, weight) per lattice axis.  A
    combination's profile is the OR of its axes' profiles, its witness puts
    each axis's witness on that axis, and its weight is the product.
    """
    d = len(axes)
    counts: dict[SeparationClass, int] = {c: 0 for c in SeparationClass}
    geometries = 0
    empty = 0
    empty_examples: list[tuple[PairPoint, PairPoint]] = []
    for combo in itertools.product(*axes):
        predicted = _predict_classes(reduce(operator.or_, (c[0] for c in combo)))
        if predicted is None:
            continue
        w, a, b = zip(*(c[1] for c in combo))
        u, u_prime = PairPoint((0,) * d, w), PairPoint(a, b)
        found = _checked_classes(u, u_prime, L, predicted)
        weight = math.prod(c[2] for c in combo)
        geometries += weight
        for c in found:
            counts[c] += weight
        if not found:
            empty += weight
            if len(empty_examples) < 5:
                empty_examples.append((u, u_prime))
    return SeparationSurvey(
        dimension=d,
        radius=L,
        geometries=geometries,
        empty=empty,
        class_counts=counts,
        empty_examples=empty_examples,
    )


def survey_separation_line(L: int, side: int | None = None) -> SeparationSurvey:
    """Classify every admissible centre geometry on a d=1 grid.

    Fixes the first particle of the first centre at the origin (classification
    is translation invariant) and covers the remaining three coordinates over
    a centred grid of the given side (default 40L+20, wide enough to realise
    every geometry class, see the gap-compression note above).  Counts are
    per grid geometry, gathered profile by profile; a strided sample of grid
    geometries is also classified set-wise, and any disagreement with the
    profile prediction raises.
    """
    if L < 0:
        raise ValueError("radius must be nonnegative")
    side = 40 * L + 20 if side is None else side
    survey = _survey(L, [_axis_profiles(L, side)])
    stride = max(1, side**3 // _SPOT_CHECKS)
    while math.gcd(stride, side) > 1:  # so the sample reaches every b column
        stride += 1
    sample = np.unravel_index(np.arange(0, side**3, stride), (side,) * 3)
    w, a, b = (i - side // 2 for i in sample)
    codes = _profile_codes(w, a, b, L).tolist()
    for code, wi, ai, bi in zip(codes, w.tolist(), a.tolist(), b.tolist()):
        predicted = _predict_classes(code)
        if predicted is not None:
            _checked_classes(PairPoint((0,), (wi,)), PairPoint((ai,), (bi,)), L, predicted)
    return survey


def survey_separation_plane(L: int, side: int | None = None) -> SeparationSurvey:
    """Classify every admissible centre geometry over Z^2.

    The two axes are independent, so the survey walks every ordered pair of
    realisable per-axis profiles (from the d=1 grid scan) and classifies a
    witness geometry with those profiles as its x and y axes set-wise,
    raising if the profile prediction disagrees.  Each profile pair counts
    once.  Coverage is exact for all of Z^2, not just a finite grid, by the
    gap-compression argument above.
    """
    if L < 0:
        raise ValueError("radius must be nonnegative")
    side = 40 * L + 20 if side is None else side
    axis = [(code, witness, 1) for code, witness, _ in _axis_profiles(L, side)]
    return _survey(L, [axis, axis])
