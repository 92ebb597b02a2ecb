"""Geometry layer: pair points, boxes, projections, separation classes."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wegner2p import (
    BoxSpec,
    Cube,
    PairPoint,
    SeparationClass,
    apply_symmetry,
    classify_separation,
    distance_condition,
    make_box,
    projections,
    sup_norm_pair,
    survey_separation_line,
    survey_separation_plane,
)
from wegner2p import lattice

CS = SeparationClass.COMPLETELY_SEPARATED
A = SeparationClass.FIRST_PARTICLE1_ISOLATED
B = SeparationClass.FIRST_PARTICLE2_ISOLATED
C = SeparationClass.SECOND_PARTICLE1_ISOLATED
D = SeparationClass.SECOND_PARTICLE2_ISOLATED


def brute_classify(u, u_prime, L):
    """Reference classifier built from raw site enumeration only."""

    def cube(center):
        ranges = [range(c - L, c + L + 1) for c in center]
        return set(itertools.product(*ranges))

    p1, p2 = cube(u.first), cube(u.second)
    q1, q2 = cube(u_prime.first), cube(u_prime.second)
    out = set()
    if not (p1 | p2) & (q1 | q2):
        out.add(CS)
    if not p1 & p2 and not p1 & (q1 | q2):
        out.add(A)
    if not p1 & p2 and not p2 & (q1 | q2):
        out.add(B)
    if not q1 & q2 and not q1 & (p1 | p2):
        out.add(C)
    if not q1 & q2 and not q2 & (p1 | p2):
        out.add(D)
    return frozenset(out)


# ---------------------------------------------------------------------------
# pair points and the sup norm
# ---------------------------------------------------------------------------


def test_sup_norm_planar_pair():
    a = PairPoint.of((0, 0), (1, 2))
    b = PairPoint.of((3, 1), (-1, 0))
    assert sup_norm_pair(a, b) == 3


def test_sup_norm_line_pair():
    a = PairPoint.of((0,), (0,))
    b = PairPoint.of((5,), (-7,))
    assert sup_norm_pair(a, b) == 7


def test_sup_norm_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        sup_norm_pair(PairPoint.of((0,), (0,)), PairPoint.of((0, 0), (0, 0)))


def test_pair_point_dimension_mismatch():
    with pytest.raises(ValueError):
        PairPoint.of((0, 1), (2,))


def test_symmetry_swaps_components():
    x = PairPoint.of((1, 2), (3, 4))
    assert apply_symmetry(x) == PairPoint.of((3, 4), (1, 2))


# ---------------------------------------------------------------------------
# boxes and projections
# ---------------------------------------------------------------------------


def test_box_sizes():
    assert make_box(PairPoint.of((0,), (0,)), 1).size == 9
    assert make_box(PairPoint.of((0,), (5,)), 0).size == 1
    assert make_box(PairPoint.of((0, 0), (3, -1)), 2).size == 625


def test_box_points_match_membership():
    box = make_box(PairPoint.of((0,), (2,)), 1)
    pts = box.points()
    assert len(pts) == box.size
    assert len(set(pts)) == len(pts)
    for x in pts:
        assert x in box
        assert sup_norm_pair(x, box.center) <= box.radius
    assert PairPoint.of((2,), (2,)) not in box
    assert pts == sorted(pts, key=lambda p: p.first + p.second)


def test_projection_union_sizes():
    # coincident, overlapping, and disjoint projection cubes in d=1, L=1
    for centers, expected in [
        (((0,), (0,)), 3),
        (((0,), (1,)), 4),
        (((0,), (100,)), 6),
    ]:
        box = make_box(PairPoint.of(*centers), 1)
        c1, c2, union = projections(box)
        assert union == expected
        assert union == len(c1.point_set() | c2.point_set())


def test_cube_points_and_membership():
    cube = Cube((1, -1), 1)
    assert cube.size == 9
    pts = cube.points()
    assert len(pts) == 9 and pts == sorted(pts)
    assert (2, 0) in cube and (3, 0) not in cube
    assert cube.point_set() == set(pts)


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        Cube((0,), -1)
    with pytest.raises(ValueError):
        BoxSpec(center=PairPoint.of((0,), (0,)), radius=-2)


# ---------------------------------------------------------------------------
# distance condition and classification
# ---------------------------------------------------------------------------


def test_distance_condition_examples():
    u = PairPoint.of((0,), (0,))
    assert distance_condition(u, PairPoint.of((100,), (100,)), 1)
    assert distance_condition(u, PairPoint.of((8,), (0,)), 1)
    assert not distance_condition(u, PairPoint.of((7,), (0,)), 1)
    # swapped coincidence kills the symmetrized distance
    v = PairPoint.of((0,), (100,))
    assert not distance_condition(v, PairPoint.of((100,), (0,)), 1)
    # radius zero still rejects coincident swap orbits
    assert not distance_condition(u, u, 0)
    assert not distance_condition(v, PairPoint.of((100,), (0,)), 0)
    assert distance_condition(u, PairPoint.of((1,), (0,)), 0)


def test_classify_rejects_close_centres():
    with pytest.raises(ValueError):
        classify_separation(PairPoint.of((0,), (0,)), PairPoint.of((7,), (0,)), 1)


def test_classify_completely_separated():
    got = classify_separation(
        PairPoint.of((0,), (0,)), PairPoint.of((100,), (100,)), 1
    )
    assert got == frozenset({CS})


def test_classify_mixed_example():
    got = classify_separation(PairPoint.of((0,), (0,)), PairPoint.of((9,), (20,)), 1)
    assert got == frozenset({CS, C, D})


def test_classify_isolated_pair_case():
    # first box's particle-1 cube and second box's particle-2 cube stand free;
    # the middle cubes coincide at 100 and block the other classes
    got = classify_separation(
        PairPoint.of((0,), (100,)), PairPoint.of((100,), (200,)), 2
    )
    assert got == frozenset({A, D})


def test_classify_single_class_case():
    got = classify_separation(PairPoint.of((0,), (0,)), PairPoint.of((2,), (50,)), 1)
    assert got == frozenset({D})


def test_classify_matches_brute_force_sample():
    cases = [
        ((0, 0), (0, 0), (9, 9), (20, 20), 1),
        ((0, 0), (5, 5), (40, 0), (0, 40), 2),
        ((0,), (16,), (32,), (48,), 2),
        ((0,), (0,), (17,), (40,), 2),
    ]
    for f1, s1, f2, s2, L in cases:
        u, up = PairPoint.of(f1, s1), PairPoint.of(f2, s2)
        assert classify_separation(u, up, L) == brute_classify(u, up, L)


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------

coord = st.integers(min_value=-50, max_value=50)


def pair_points(dim):
    site = st.tuples(*([coord] * dim))
    return st.builds(PairPoint, site, site)


@given(pair_points(2), pair_points(2))
def test_symmetry_is_isometric_involution(a, b):
    assert apply_symmetry(apply_symmetry(a)) == a
    assert sup_norm_pair(apply_symmetry(a), apply_symmetry(b)) == sup_norm_pair(a, b)


@st.composite
def admissible_geometry(draw, max_dim=3, max_radius=4):
    """Random (u, u', L) satisfying the 8L distance condition."""
    dim = draw(st.integers(1, max_dim))
    L = draw(st.integers(0, max_radius))
    site = st.tuples(*([st.integers(-40, 40)] * dim))
    u = PairPoint(draw(site), draw(site))
    # push the second centre far out along the first axis so both the direct
    # and the swapped distance clear 8L
    shift = 8 * L + draw(st.integers(0, 20))
    base1, base2 = draw(site), draw(site)
    up = PairPoint(
        (base1[0] + shift,) + base1[1:],
        (base2[0] + shift + draw(st.integers(0, 20)),) + base2[1:],
    )
    shifted = tuple(c + shift for c in up.first)
    if not distance_condition(u, up, L):
        up = PairPoint(shifted, tuple(c + 2 * shift for c in up.second))
    return u, up, L


@given(admissible_geometry())
@settings(max_examples=60)
def test_classification_never_empty(geom):
    u, up, L = geom
    if not distance_condition(u, up, L):
        return
    assert classify_separation(u, up, L)


@given(admissible_geometry(max_dim=2, max_radius=3))
@settings(max_examples=60)
def test_classification_matches_brute_force(geom):
    u, up, L = geom
    if not distance_condition(u, up, L):
        return
    assert classify_separation(u, up, L) == brute_classify(u, up, L)


@given(admissible_geometry(max_dim=2, max_radius=3), st.tuples(coord, coord))
@settings(max_examples=60)
def test_classification_translation_invariant(geom, t):
    u, up, L = geom
    if not distance_condition(u, up, L):
        return
    shift = t[: u.dimension]

    def move(p):
        return PairPoint(
            tuple(c + s for c, s in zip(p.first, shift * u.dimension)),
            tuple(c + s for c, s in zip(p.second, shift * u.dimension)),
        )

    tr = tuple(t[0] for _ in range(u.dimension))
    moved_u = PairPoint(
        tuple(c + x for c, x in zip(u.first, tr)),
        tuple(c + x for c, x in zip(u.second, tr)),
    )
    moved_up = PairPoint(
        tuple(c + x for c, x in zip(up.first, tr)),
        tuple(c + x for c, x in zip(up.second, tr)),
    )
    assert classify_separation(moved_u, moved_up, L) == classify_separation(u, up, L)


SWAP_FIRST = {CS: CS, A: B, B: A, C: C, D: D}
EXCHANGE_BOXES = {CS: CS, A: C, C: A, B: D, D: B}


@given(admissible_geometry(max_dim=2, max_radius=3))
@settings(max_examples=60)
def test_classification_covariances(geom):
    u, up, L = geom
    if not distance_condition(u, up, L):
        return
    base = classify_separation(u, up, L)
    swapped = classify_separation(apply_symmetry(u), up, L)
    assert swapped == frozenset(SWAP_FIRST[c] for c in base)
    exchanged = classify_separation(up, u, L)
    assert exchanged == frozenset(EXCHANGE_BOXES[c] for c in base)


@given(admissible_geometry(max_dim=2, max_radius=2))
@settings(max_examples=40)
def test_complete_separation_means_disjoint_unions(geom):
    u, up, L = geom
    if not distance_condition(u, up, L):
        return
    found = classify_separation(u, up, L)
    _, _, union_u = projections(make_box(u, L))
    _, _, union_up = projections(make_box(up, L))
    all_four = (
        Cube(u.first, L).point_set()
        | Cube(u.second, L).point_set()
        | Cube(up.first, L).point_set()
        | Cube(up.second, L).point_set()
    )
    if CS in found:
        assert len(all_four) == union_u + union_up
    else:
        assert len(all_four) < union_u + union_up


# ---------------------------------------------------------------------------
# exhaustive surveys
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("L", [0, 1])
def test_line_survey_small(L):
    res = survey_separation_line(L)
    assert res.all_classified
    assert res.empty_examples == []
    assert res.geometries > 0
    assert all(res.class_counts[c] > 0 for c in SeparationClass)


@pytest.mark.parametrize("L", [0, 1])
def test_plane_survey_small(L):
    res = survey_separation_plane(L)
    assert res.all_classified
    assert res.geometries > 0
    assert all(res.class_counts[c] > 0 for c in SeparationClass)


def test_line_survey_matches_direct_recount():
    # independent recount of the L=0 survey on a small explicit grid
    res = survey_separation_line(0, side=6)
    geoms = 0
    for w in range(-3, 3):
        for a in range(-3, 3):
            for b in range(-3, 3):
                u = PairPoint.of((0,), (w,))
                up = PairPoint.of((a,), (b,))
                if distance_condition(u, up, 0):
                    geoms += 1
    assert res.geometries == geoms == 6**3 - 11
    assert res.empty == 0


# Geometry and per-class counts (CS, A, B, C, D) of the line survey as the
# geometry-by-geometry scan of the whole grid gives them.
LINE_SURVEY_COUNTS = {
    0: (7961, (6517, 6859, 6859, 6859, 6859)),
    1: (192935, (144365, 152525, 153575, 153385, 153385)),
    2: (842551, (622567, 654467, 661247, 659707, 659707)),
}


@pytest.mark.parametrize("L", [0, 1, 2])
def test_line_survey_counts_are_pinned(L):
    res = survey_separation_line(L)
    geometries, per_class = LINE_SURVEY_COUNTS[L]
    assert res.geometries == geometries
    assert [res.class_counts[c] for c in (CS, A, B, C, D)] == list(per_class)
    assert res.empty == 0 and res.dimension == 1 and res.radius == L


def test_plane_survey_counts_are_pinned():
    res = survey_separation_plane(0)
    assert res.geometries == 218
    assert [res.class_counts[c] for c in (CS, A, B, C, D)] == [146, 161, 161, 161, 161]


def test_line_survey_counts_match_direct_scan_on_small_grid():
    # every geometry of a side-9 grid, classified one at a time
    counts = dict.fromkeys(SeparationClass, 0)
    geometries = 0
    for w, a, b in itertools.product(range(-4, 5), repeat=3):
        u, up = PairPoint.of((0,), (w,)), PairPoint.of((a,), (b,))
        if distance_condition(u, up, 0):
            geometries += 1
            for c in classify_separation(u, up, 0):
                counts[c] += 1
    res = survey_separation_line(0, side=9)
    assert res.geometries == geometries
    assert res.class_counts == counts


def test_line_survey_spot_check_catches_a_non_witness_disagreement(monkeypatch):
    # A classifier that is wrong only away from the profile witnesses passes
    # the witness checks; the strided set-based sample must still catch it.
    witnesses = {(0, w, a, b) for _, (w, a, b), _ in lattice._axis_profiles(1, 60)}
    honest = lattice.classify_separation

    def wrong_off_witness(u, u_prime, L):
        found = honest(u, u_prime, L)
        if u.first + u.second + u_prime.first + u_prime.second in witnesses:
            return found
        return found - {CS}

    monkeypatch.setattr(lattice, "classify_separation", wrong_off_witness)
    with pytest.raises(RuntimeError, match="disagrees"):
        survey_separation_line(1)


def test_surveys_raise_when_classifier_and_profiles_disagree(monkeypatch):
    honest = lattice.classify_separation
    monkeypatch.setattr(
        lattice, "classify_separation", lambda u, up, L: honest(u, up, L) | {CS}
    )
    with pytest.raises(RuntimeError, match="disagrees"):
        survey_separation_plane(0)
