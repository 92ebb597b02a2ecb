"""Geometry layer: pair points, boxes, projection sites, separation classes."""

import functools
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wegner2p import (
    BoxSpec,
    PairPoint,
    SeparationClass,
    classify_separation,
    make_box,
    projection_sites,
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


def sup_distance(x, y):
    """Sup-norm distance of two pair points on Z^d x Z^d."""
    return max(abs(p - q) for p, q in zip(x.first + x.second, y.first + y.second))


def admissible(u, u_prime, L):
    """The 8L rule coded apart from the classifier: the centres' sup distance,
    minimised over the particle swap, is at least max(8L, 1)."""
    swapped = PairPoint(u.second, u.first)
    return min(sup_distance(u, u_prime), sup_distance(swapped, u_prime)) >= max(8 * L, 1)


# ---------------------------------------------------------------------------
# pair points
# ---------------------------------------------------------------------------


def test_pair_point_dimension_mismatch():
    with pytest.raises(ValueError):
        PairPoint.of((0, 1), (2,))
    # built without PairPoint.of, the box checks the dimensions itself
    with pytest.raises(ValueError, match="^box centre components disagree in dimension$"):
        BoxSpec(PairPoint((0,), (0, 1)), 1)


def test_a_site_needs_a_coordinate():
    with pytest.raises(ValueError, match="^a lattice site needs at least one coordinate$"):
        lattice.as_site(())


def test_make_box_takes_a_plain_pair_of_sites():
    box = make_box(((0, 1), (2, 3)), 1)
    assert box == make_box(PairPoint.of((0, 1), (2, 3)), 1)
    assert isinstance(box.center, PairPoint)


# ---------------------------------------------------------------------------
# boxes and projection sites
# ---------------------------------------------------------------------------


def test_box_sizes():
    assert make_box(PairPoint.of((0,), (0,)), 1).size == 9
    assert make_box(PairPoint.of((0,), (5,)), 0).size == 1
    assert make_box(PairPoint.of((0, 0), (3, -1)), 2).size == 625


def test_box_points_match_membership():
    box = make_box(PairPoint.of((0,), (2,)), 1)
    coords = box.coordinates().tolist()
    assert len(coords) == box.size
    assert len(set(map(tuple, coords))) == len(coords)
    for x1, x2 in coords:
        assert sup_distance(PairPoint((x1,), (x2,)), box.center) <= box.radius
    assert [2, 2] not in coords
    assert coords == sorted(coords)


def test_projection_union_sizes():
    # coincident, overlapping, and disjoint projection cubes in d=1, L=1
    for centers, expected in [
        (((0,), (0,)), 3),
        (((0,), (1,)), 4),
        (((0,), (100,)), 6),
    ]:
        assert len(projection_sites(make_box(PairPoint.of(*centers), 1))) == expected


def test_projection_sites_are_the_sorted_cube_union():
    # d=2, L=1: the cubes at (1, -1) and (2, 0) share four sites
    sites = projection_sites(make_box(PairPoint.of((1, -1), (2, 0)), 1))
    assert sites == sorted(set(sites)) and len(sites) == 9 + 9 - 4
    assert sites[0] == (0, -2) and sites[-1] == (3, 1)
    assert (2, 0) in sites and (0, 1) not in sites and (3, -2) not in sites
    assert projection_sites(make_box(PairPoint.of((2,), (5,)), 0)) == [(2,), (5,)]


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        BoxSpec(center=PairPoint.of((0,), (0,)), radius=-2)


def test_box_coordinates_beyond_int64_range_rejected():
    # box coordinates and their differences are computed in int64 arrays
    with pytest.raises(ValueError):
        make_box(PairPoint.of((2**62,), (0,)), 0)
    with pytest.raises(ValueError):
        make_box(PairPoint.of((0,), (-(2**62) + 1,)), 1)
    assert make_box(PairPoint.of((2**62 - 2,), (0,)), 1).size == 9


# ---------------------------------------------------------------------------
# distance condition and classification
# ---------------------------------------------------------------------------


def refused(u, u_prime, L):
    """Whether classify_separation refuses the geometry as inadmissible."""
    try:
        classify_separation(u, u_prime, L)
    except ValueError as error:
        assert str(error) == "box centres violate the 8L separation condition"
        return True
    return False


def test_distance_condition_examples():
    u = PairPoint.of((0,), (0,))
    assert not refused(u, PairPoint.of((100,), (100,)), 1)
    assert not refused(u, PairPoint.of((8,), (0,)), 1)
    assert refused(u, PairPoint.of((7,), (0,)), 1)
    # swapped coincidence kills the symmetrized distance
    v = PairPoint.of((0,), (100,))
    assert refused(v, PairPoint.of((100,), (0,)), 1)
    # radius zero still rejects coincident swap orbits
    assert refused(u, u, 0)
    assert refused(v, PairPoint.of((100,), (0,)), 0)
    assert not refused(u, PairPoint.of((1,), (0,)), 0)


def test_classify_measures_centre_distance_in_the_sup_norm():
    # d=2, L=1: the largest coordinate gap decides, however large the others' sum
    u = PairPoint.of((0, 0), (40, 40))
    assert not refused(u, PairPoint.of((8, 7), (47, 47)), 1)
    assert refused(u, PairPoint.of((7, 7), (47, 47)), 1)


def test_classify_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="share one dimension"):
        classify_separation(PairPoint.of((0,), (0,)), PairPoint.of((0, 0), (0, 0)), 0)


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


@st.composite
def separation_geometry(draw, max_dim=3, max_radius=4):
    """Random (u, u', L) on both sides of the 8L distance condition.

    Half the draws put u' at sup distance max(8L, 1) + delta, |delta| <= 3,
    from u or from its swap (u2, u1), so the distance the condition
    minimises lies within a few sites of the threshold, on either side.
    The other half push u' out until both distances clear it.
    """
    dim = draw(st.integers(1, max_dim))
    L = draw(st.integers(0, max_radius))
    site = st.tuples(*([st.integers(-40, 40)] * dim))
    u = PairPoint(draw(site), draw(site))
    if draw(st.booleans()):
        near = draw(st.sampled_from([u, PairPoint(u.second, u.first)]))
        gap = max(max(8 * L, 1) + draw(st.integers(-3, 3)), 0)
        offset = [draw(st.integers(-gap, gap)) for _ in range(2 * dim)]
        offset[draw(st.integers(0, 2 * dim - 1))] = draw(st.sampled_from([-gap, gap]))
        coords = [c + o for c, o in zip(near.first + near.second, offset)]
        return u, PairPoint(tuple(coords[:dim]), tuple(coords[dim:])), L
    # push the second centre far out along the first axis so both the direct
    # and the swapped distance clear 8L
    shift = 8 * L + draw(st.integers(0, 20))
    base1, base2 = draw(site), draw(site)
    up = PairPoint(
        (base1[0] + shift,) + base1[1:],
        (base2[0] + shift + draw(st.integers(0, 20)),) + base2[1:],
    )
    shifted = tuple(c + shift for c in up.first)
    if not admissible(u, up, L):
        up = PairPoint(shifted, tuple(c + 2 * shift for c in up.second))
    return u, up, L


@given(separation_geometry())
@settings(max_examples=60)
def test_classification_never_empty(geom):
    u, up, L = geom
    if not admissible(u, up, L):
        assert refused(u, up, L)
        return
    assert classify_separation(u, up, L)


@given(separation_geometry(max_dim=3, max_radius=3))
@settings(max_examples=60)
def test_classification_matches_brute_force(geom):
    u, up, L = geom
    if not admissible(u, up, L):
        assert refused(u, up, L)
        return
    assert classify_separation(u, up, L) == brute_classify(u, up, L)


@given(separation_geometry(max_dim=2, max_radius=3), st.tuples(coord, coord))
@settings(max_examples=60)
def test_classification_translation_invariant(geom, t):
    u, up, L = geom
    if not admissible(u, up, L):
        assert refused(u, up, L)
        return
    shift = t[: u.dimension]

    def move(p):
        return PairPoint(
            tuple(c + s for c, s in zip(p.first, shift)),
            tuple(c + s for c, s in zip(p.second, shift)),
        )

    assert classify_separation(move(u), move(up), L) == classify_separation(u, up, L)


SWAP_FIRST = {CS: CS, A: B, B: A, C: C, D: D}
EXCHANGE_BOXES = {CS: CS, A: C, C: A, B: D, D: B}


@given(separation_geometry(max_dim=2, max_radius=3))
@settings(max_examples=60)
def test_classification_covariances(geom):
    u, up, L = geom
    if not admissible(u, up, L):
        assert refused(u, up, L)
        return
    base = classify_separation(u, up, L)
    swapped = classify_separation(PairPoint(u.second, u.first), up, L)
    assert swapped == frozenset(SWAP_FIRST[c] for c in base)
    exchanged = classify_separation(up, u, L)
    assert exchanged == frozenset(EXCHANGE_BOXES[c] for c in base)


@given(separation_geometry(max_dim=2, max_radius=2))
@settings(max_examples=40)
def test_complete_separation_means_disjoint_unions(geom):
    u, up, L = geom
    if not admissible(u, up, L):
        assert refused(u, up, L)
        return
    found = classify_separation(u, up, L)
    union_u = len(projection_sites(make_box(u, L)))
    union_up = len(projection_sites(make_box(up, L)))
    all_four = set(projection_sites(make_box(u, L))) | set(projection_sites(make_box(up, L)))
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
    assert res.empty == 0
    assert res.empty_examples == []
    assert res.geometries > 0
    assert all(res.class_counts[c] > 0 for c in SeparationClass)


@pytest.mark.parametrize("L", [0, 1])
def test_plane_survey_small(L):
    res = survey_separation_plane(L)
    assert res.empty == 0
    assert res.geometries > 0
    assert all(res.class_counts[c] > 0 for c in SeparationClass)


def test_line_survey_matches_direct_recount():
    # independent recount of the L=0 survey over its whole side-20 grid
    res = survey_separation_line(0)
    geoms = 0
    for w in range(-10, 10):
        for a in range(-10, 10):
            for b in range(-10, 10):
                u = PairPoint.of((0,), (w,))
                up = PairPoint.of((a,), (b,))
                if admissible(u, up, 0):
                    geoms += 1
    assert res.geometries == geoms == 20**3 - 39 == LINE_SURVEY_COUNTS[0][0]
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


# Profile-pair and per-class counts (CS, A, B, C, D) of the plane survey.
PLANE_SURVEY_COUNTS = {
    0: (218, (146, 161, 161, 161, 161)),
    1: (101929, (84885, 87423, 87423, 87423, 87423)),
    2: (102203, (85159, 87697, 87697, 87697, 87697)),
}


@pytest.mark.parametrize("L", [0, 1, 2])
def test_plane_survey_counts_are_pinned(L):
    res = survey_separation_plane(L)
    geometries, per_class = PLANE_SURVEY_COUNTS[L]
    assert res.geometries == geometries
    assert [res.class_counts[c] for c in (CS, A, B, C, D)] == list(per_class)
    assert res.empty == 0 and res.dimension == 2 and res.radius == L


def test_line_survey_counts_match_direct_scan_on_small_grid():
    # every geometry of the L=0 survey's side-20 grid, classified one at a
    # time; the classifier refuses exactly the inadmissible ones
    counts = dict.fromkeys(SeparationClass, 0)
    geometries = 0
    for w, a, b in itertools.product(range(-10, 10), repeat=3):
        u, up = PairPoint.of((0,), (w,)), PairPoint.of((a,), (b,))
        if admissible(u, up, 0):
            geometries += 1
            for c in classify_separation(u, up, 0):
                counts[c] += 1
        else:
            with pytest.raises(ValueError, match="8L separation condition"):
                classify_separation(u, up, 0)
    res = survey_separation_line(0)
    assert res.geometries == geometries
    assert res.class_counts == counts


def _classes_or_refusal(u, u_prime, L):
    try:
        return classify_separation(u, u_prime, L)
    except ValueError:
        return "refused"


def _geometry(axes):
    """u = (0, w), u' = (a, b) with one (w, a, b) per axis."""
    w, a, b = zip(*axes)
    return PairPoint((0,) * len(axes), w), PairPoint(a, b)


@functools.lru_cache
def _witness_by_profile(L):
    return {
        int(lattice._profile_codes(*witness, L)): witness
        for witness, _ in lattice._axis_profiles(L, 40 * L + 20)
    }


@pytest.mark.parametrize("dim, L", [(1, 1), (2, 0), (2, 1)])
@given(data=st.data())
@settings(max_examples=150)
def test_geometry_classifies_as_its_profile_witness(dim, L, data):
    # The surveys' premise: a geometry's classes, or its refusal, depend only
    # on its per-axis threshold profiles, so one witness stands for them all.
    side = 40 * L + 20
    axis = st.tuples(*[st.integers(-(side // 2), side - side // 2 - 1)] * 3)
    axes = data.draw(st.lists(axis, min_size=dim, max_size=dim))
    witnesses = [_witness_by_profile(L)[int(lattice._profile_codes(*g, L))] for g in axes]
    assert _classes_or_refusal(*_geometry(axes), L) == _classes_or_refusal(
        *_geometry(witnesses), L
    )


@pytest.mark.parametrize("emptied", ["first three", "completely separated"])
def test_line_survey_reports_witnesses_without_classes(monkeypatch, emptied):
    honest = lattice.classify_separation
    kept = []
    for witness, weight in lattice._axis_profiles(1, 60):
        u, up = _geometry([witness])
        if admissible(u, up, 1):
            kept.append((u, up, weight))
    if emptied == "first three":
        chosen = kept[:3]
    else:
        chosen = [g for g in kept if CS in honest(g[0], g[1], 1)]
    keys = {(u, up) for u, up, _ in chosen}
    monkeypatch.setattr(
        lattice,
        "classify_separation",
        lambda u, up, L: frozenset() if (u, up) in keys else honest(u, up, L),
    )
    res = survey_separation_line(1)
    assert res.empty == sum(weight for _, _, weight in chosen) > 0
    assert res.empty_examples == [(u, up) for u, up, _ in chosen[:5]]
    assert res.geometries == LINE_SURVEY_COUNTS[1][0]
    if emptied == "completely separated":
        assert res.empty == LINE_SURVEY_COUNTS[1][1][0] and res.class_counts[CS] == 0


@pytest.mark.parametrize("survey", [survey_separation_line, survey_separation_plane])
def test_surveys_refuse_a_negative_radius(survey):
    with pytest.raises(ValueError, match="nonnegative"):
        survey(-1)


U0, U_FAR = PairPoint.of((0,), (0,)), PairPoint.of((100,), (100,))
RADIUS_ENTRY_POINTS = {
    "make_box": lambda L: make_box(U0, L),
    "classify_separation": lambda L: classify_separation(U0, U_FAR, L),
    "survey_separation_line": survey_separation_line,
    "survey_separation_plane": survey_separation_plane,
}


@pytest.mark.parametrize("bad", [1.5, True, "2"], ids=repr)
@pytest.mark.parametrize("entry", RADIUS_ENTRY_POINTS.values(), ids=RADIUS_ENTRY_POINTS)
def test_radius_must_be_an_integer(entry, bad):
    with pytest.raises(ValueError, match=f"^radius must be an integer, got {re.escape(repr(bad))}$"):
        entry(bad)


@pytest.mark.parametrize("entry", RADIUS_ENTRY_POINTS.values(), ids=RADIUS_ENTRY_POINTS)
def test_radius_takes_numpy_integers(entry):
    assert entry(np.int64(0)) == entry(0)


def test_box_stores_its_radius_as_an_int():
    box = make_box(U0, np.uint8(1))
    assert type(box.radius) is int and box.size == 9
