"""Operator assembly: hopping graph, interaction diagonal, field coupling."""

import ctypes
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wegner2p.hamiltonian as hamiltonian
from wegner2p import (
    DistributionSpec,
    HamiltonianSpec,
    HamiltonianTemplate,
    InteractionSpec,
    PairPoint,
    RngStream,
    make_box,
    sample_field,
    trial_values,
)
from wegner2p.experiments import _collect_distances, _span_rows
from wegner2p.spectral import min_gaps_to_sorted, spectra

from dense_reference import dense_operator


def box1d(c1, c2, L):
    return make_box(PairPoint.of((c1,), (c2,)), L)


def random_field(template, seed):
    law = DistributionSpec.uniform(-1.0, 1.0)
    return sample_field(template.sites, law, RngStream(seed, 0))


# ---------------------------------------------------------------------------
# neighbour structure
# ---------------------------------------------------------------------------


def hopping_template(box, interaction=None):
    spec = HamiltonianSpec(box, interaction or InteractionSpec.zero(), 1.0)
    return HamiltonianTemplate(spec)


def box_points(template):
    """The template's box points in matrix index order: the rows of
    `box.coordinates()`, split into the two particles' coordinates."""
    box = template.spec.box
    d = box.dimension
    return [PairPoint(tuple(p[:d]), tuple(p[d:])) for p in box.coordinates().tolist()]


def neighbors_of(template, x):
    pts = box_points(template)
    row = template.hopping[pts.index(x)]
    return [pts[j] for j in np.flatnonzero(row)]


def test_neighbor_counts_interior():
    box = box1d(0, 0, 2)
    x = PairPoint.of((0,), (0,))
    assert len(neighbors_of(hopping_template(box), x)) == 8


def test_neighbors_match_distance_oracle():
    # brute force over all point pairs of the template's field-free part,
    # d=1 and d=2 and a radius-2 box: hopping between points at pair sup
    # distance 1 off the diagonal, the interaction at the particles' sup
    # distance on it
    inter = InteractionSpec({0: 1.5, 1: -0.25, 3: 2.0}, r_max=3)
    boxes = [box1d(0, 1, 1), make_box(PairPoint.of((0, 0), (1, -1)), 1), box1d(0, 3, 2)]
    for box in boxes:
        template = hopping_template(box, inter)
        pts = box_points(template)
        assert len(set(pts)) == box.size
        assert pts == sorted(pts, key=lambda p: p.first + p.second)
        centre = box.center.first + box.center.second
        assert all(
            max(abs(p - q) for p, q in zip(x.first + x.second, centre)) <= box.radius
            for x in pts
        )
        want = np.zeros((len(pts), len(pts)))
        for i, x in enumerate(pts):
            cat_x = x.first + x.second
            for j, y in enumerate(pts):
                cat_y = y.first + y.second
                if max(abs(a - b) for a, b in zip(cat_x, cat_y)) == 1:
                    want[i, j] = 1.0
            r = max(abs(a - b) for a, b in zip(x.first, x.second))
            want[i, i] = inter.value(r)
        assert np.array_equal(template.hopping + np.diag(template.interaction), want)


# ---------------------------------------------------------------------------
# interaction spec
# ---------------------------------------------------------------------------


def test_interaction_cutoff_enforced():
    with pytest.raises(ValueError):
        InteractionSpec(table={2: 1.0}, r_max=1)
    with pytest.raises(ValueError):
        InteractionSpec(table={-1: 1.0}, r_max=1)
    with pytest.raises(ValueError):
        InteractionSpec(table={0: float("inf")}, r_max=1)
    spec = InteractionSpec(table={0: 1.0, 1: 0.5, 2: 0.0}, r_max=1)
    assert spec.value(0) == 1.0
    assert spec.value(1) == 0.5
    assert spec.value(2) == 0.0
    assert spec.value(100) == 0.0


def test_interaction_refuses_negative_cutoffs_and_distances():
    with pytest.raises(ValueError, match="^interaction cutoff must be nonnegative$"):
        InteractionSpec({}, r_max=-1)
    with pytest.raises(ValueError, match="^distance must be nonnegative$"):
        InteractionSpec({}).value(-1)


def test_interaction_dict_round_trip():
    spec = InteractionSpec(table={0: 1.0, 1: 0.5}, r_max=3)
    again = InteractionSpec.from_dict(spec.to_dict())
    assert again.table == spec.table and again.r_max == spec.r_max
    # omitted cutoff falls back to the dimension, stretched over the table
    assert InteractionSpec.from_dict({"entries": []}, default_r_max=2).r_max == 2
    assert (
        InteractionSpec.from_dict({"entries": [[3, 0.5]]}, default_r_max=1).r_max == 3
    )
    with pytest.raises(ValueError):
        InteractionSpec.from_dict({"entries": [], "cutoff": 3})


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_radius_zero_box_is_one_by_one():
    box = box1d(2, 5, 0)
    spec = HamiltonianSpec(box, InteractionSpec.zero(), coupling=2.0)
    template = HamiltonianTemplate(spec)
    assert template.sites == [(2,), (5,)]
    H = dense_operator(template, np.array([0.25, -1.0]))
    assert H.shape == (1, 1)
    assert H[0, 0] == pytest.approx(2.0 * (0.25 - 1.0))
    assert spectra(template, np.array([0.25, -1.0])) == pytest.approx([2.0 * (0.25 - 1.0)])


def test_matrix_is_exactly_symmetric():
    box = make_box(PairPoint.of((0, 0), (1, 1)), 1)
    spec = HamiltonianSpec(box, InteractionSpec({0: 1.0, 1: 0.5}, r_max=2), 1.5)
    template = HamiltonianTemplate(spec)
    H = dense_operator(template, random_field(template, 3))
    assert np.array_equal(H, H.T)
    for _, _, blocks in template.assemble_sectors(random_field(template, 3)):
        assert np.array_equal(blocks, blocks.swapaxes(-1, -2))


def test_entries_against_direct_rules():
    # every entry recomputed from the definition, off-diagonal and diagonal
    box = box1d(0, 1, 1)
    inter = InteractionSpec(table={0: 2.0, 1: -0.5}, r_max=1)
    spec = HamiltonianSpec(box, inter, coupling=0.7)
    template = HamiltonianTemplate(spec)
    values = random_field(template, 9)
    field = dict(zip(template.sites, values))  # site -> value, for the direct rule
    H = dense_operator(template, values)
    pts = box_points(template)
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            if i == j:
                r = abs(x.first[0] - x.second[0])
                want = inter.value(r) + 0.7 * (field[x.first] + field[x.second])
            else:
                dist = max(abs(x.first[0] - y.first[0]), abs(x.second[0] - y.second[0]))
                want = 1.0 if dist == 1 else 0.0
            assert H[i, j] == pytest.approx(want, abs=1e-14)


def test_global_field_shift_moves_diagonal():
    box = box1d(0, 0, 1)
    g = 1.3
    spec = HamiltonianSpec(box, InteractionSpec({0: 1.0}, r_max=1), g)
    template = HamiltonianTemplate(spec)
    field = random_field(template, 21)
    t = 0.37
    H0 = dense_operator(template, field)
    H1 = dense_operator(template, field + t)
    assert np.allclose(H1, H0 + 2.0 * g * t * np.eye(template.dim), atol=1e-12)
    shift = spectra(template, field + t) - spectra(template, field)
    assert np.allclose(shift, 2.0 * g * t, atol=1e-12)


def test_single_site_bump_is_psd_with_known_entries():
    # raising one site by t > 0 adds a diagonal matrix with entries g*t times
    # the number of particles sitting on that site (0, 1 or 2)
    box = box1d(0, 0, 1)
    g, t = 0.9, 0.61
    spec = HamiltonianSpec(box, InteractionSpec.zero(), g)
    template = HamiltonianTemplate(spec)
    field = random_field(template, 4)
    site = template.sites[1]
    bumped = field.copy()
    bumped[1] += t
    delta = dense_operator(template, bumped) - dense_operator(template, field)
    assert np.array_equal(delta, np.diag(np.diag(delta)))
    counts = {0.0: 0, 1.0: 0, 2.0: 0}
    for k, pt in enumerate(box_points(template)):
        n_here = (pt.first == site) + (pt.second == site)
        assert delta[k, k] == pytest.approx(g * t * n_here, abs=1e-14)
        counts[float(n_here)] += 1
    assert counts[2.0] == 1  # exactly one box point puts both particles there
    assert np.all(np.diag(delta) >= 0.0)


def test_assemble_requires_full_field():
    box = box1d(0, 0, 1)
    spec = HamiltonianSpec(box, InteractionSpec.zero(), 1.0)
    template = HamiltonianTemplate(spec)
    with pytest.raises(ValueError):
        spectra(template, np.ones(1))
    with pytest.raises(ValueError):
        spectra(template, np.zeros(template.n_sites + 1))
    with pytest.raises(ValueError):
        next(template.assemble_sectors(np.zeros((2, template.n_sites - 1))))
    # a leading axis is a batch: one field in it gives a stack of one spectrum
    field = random_field(template, 2)
    single = spectra(template, field)
    assert single.shape == (template.dim,)
    assert spectra(template, field[None]).tobytes() == single[None].tobytes()


def test_assemble_batch_equals_stacked_singles():
    box = make_box(PairPoint.of((0, 1), (2, 0)), 1)
    spec = HamiltonianSpec(box, InteractionSpec({0: 1.0, 1: -0.5}, r_max=1), 0.7)
    template = HamiltonianTemplate(spec)
    gen = np.random.default_rng(5)
    fields = gen.uniform(-1.0, 1.0, size=(2, 3, template.n_sites))
    batch = spectra(template, fields)
    assert batch.shape == (2, 3, template.dim)
    singles = np.array([[spectra(template, f) for f in row] for row in fields])
    assert batch.tobytes() == singles.tobytes()
    dense = dense_operator(template, fields)
    assert dense.shape == (2, 3, template.dim, template.dim)
    assert np.max(np.abs(batch - np.linalg.eigvalsh(dense))) <= 1e-12


def test_template_refuses_a_box_over_the_batch_budget(monkeypatch):
    box = box1d(0, 0, 2)  # m=25
    assert _span_rows(25) == 1024
    monkeypatch.setattr(hamiltonian, "_MATRIX_BYTES", 8 * 25**2 - 1)
    with pytest.raises(ValueError, match="^one 25x25 matrix takes .* limit on one matrix$"):
        HamiltonianSpec(box, InteractionSpec.zero(), 1.0)
    monkeypatch.setattr(hamiltonian, "_MATRIX_BYTES", 3 * 8 * 25**2)
    HamiltonianTemplate(HamiltonianSpec(box, InteractionSpec.zero(), 1.0))
    assert _span_rows(25) == 3


@pytest.mark.filterwarnings("error")
def test_assemble_names_the_field_whose_diagonal_overflows():
    spec = HamiltonianSpec(box1d(0, 0, 1), InteractionSpec({0: 1e308}), 1.0)
    template = HamiltonianTemplate(spec)
    fields = np.zeros((4, template.n_sites))
    fields[2, 1] = 1e308  # overflows g (V(x1) + V(x2)) at the box point (0, 0)
    fields[3, 0] = 6e307  # a finite shift that overflows when added to U(0)
    with pytest.raises(ValueError, match="^trial 12: a field value overflows"):
        spectra(template, fields, first_trial=10)
    with pytest.raises(ValueError, match="^trial 12: a field value overflows"):
        next(template.assemble_sectors(fields, first_trial=10))
    with pytest.raises(ValueError, match="^trial 1: a field value overflows"):
        spectra(template, fields[3:])
    with pytest.raises(ValueError, match="^frozen: a field value overflows"):
        spectra(template, fields[2], "frozen")
    with pytest.raises(ValueError, match="^field: a field value overflows"):
        spectra(template, fields[2])
    assert np.isfinite(spectra(template, fields[:2])).all()


def test_batched_diagonal_matches_looped():
    box = box1d(0, 3, 1)
    spec = HamiltonianSpec(box, InteractionSpec.zero(), 0.8)
    template = HamiltonianTemplate(spec)
    batch = np.random.default_rng(0).normal(size=(5, template.n_sites))
    stacked = template.diagonal_shift(batch)
    for k in range(5):
        assert np.array_equal(stacked[k], template.diagonal_shift(batch[k]))


# ---------------------------------------------------------------------------
# exchange-symmetry sectors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "centre, L",
    [((0,), 1), ((3,), 2), ((-1,), 5), ((0, 0), 1), ((2, -1), 2)],
    ids=["sup-d1-L1", "sup-d1-L2", "sup-d1-L5", "sup-d2-L1", "sup-d2-L2"],
)
@pytest.mark.parametrize("g", [-0.8, 1.3])
def test_swap_sectors_carry_the_whole_spectrum(centre, L, g):
    # a box centred at u1 = u2: symmetric block of (m + (2L+1)^d) / 2 rows,
    # antisymmetric of (m - (2L+1)^d) / 2, together the full spectrum
    inter = InteractionSpec({0: 1.5, 1: -0.4, 2: 0.3}, r_max=2)
    template = HamiltonianTemplate(
        HamiltonianSpec(make_box(PairPoint.of(centre, centre), L), inter, g)
    )
    m, fixed_points = template.dim, (2 * L + 1) ** len(centre)
    sizes = ((m + fixed_points) // 2, (m - fixed_points) // 2)
    fields = np.random.default_rng(L).uniform(-1.0, 1.0, size=(3, template.n_sites))
    chunks = list(template.assemble_sectors(fields))
    # sector by sector, each sector's chunks at the rows of trials 0..2 in
    # order and at the sector's columns; d2-L2's blocks exceed the chunk
    # budget and come one at a time
    assert all(H.nbytes <= hamiltonian._CHUNK_BYTES or len(H) == 1 for _, _, H in chunks)
    rows = [(H.shape[-1], row) for r, _, H in chunks for row in range(r.start, r.stop)]
    assert rows == [(k, row) for k in sizes for row in range(3)]
    assert all(len(H) == r.stop - r.start for r, _, H in chunks)
    columns = {(c.start, c.stop) for _, c, H in chunks}
    assert columns == {(0, sizes[0]), (sizes[0], m)}
    blocks = [np.concatenate([H for _, _, H in chunks if H.shape[-1] == k]) for k in sizes]
    assert [b.shape for b in blocks] == [(3, k, k) for k in sizes]
    assert all(np.array_equal(b, b.swapaxes(-1, -2)) for b in blocks)
    with hamiltonian.one_blas_thread():  # one OpenBLAS thread, as `spectra` solves them
        eigs = [np.linalg.eigvalsh(b) for b in blocks]
    merged = np.sort(np.concatenate(eigs, axis=-1), axis=-1)
    full = np.linalg.eigvalsh(dense_operator(template, fields))
    assert np.max(np.abs(merged - full)) <= 1e-12
    assert np.array_equal(spectra(template, fields), merged)


def test_radius_zero_swap_box_is_one_symmetric_sector():
    # the one box point is its own swap, so no antisymmetric block remains
    template = HamiltonianTemplate(HamiltonianSpec(box1d(4, 4, 0), InteractionSpec({0: 2.0}), 0.5))
    [(rows, cols, block)] = template.assemble_sectors(np.array([[0.25]]))
    assert (rows, cols) == (slice(0, 1), slice(0, 1))
    assert block.tobytes() == dense_operator(template, np.array([[0.25]])).tobytes()


@pytest.mark.parametrize("centre", [((0,), (3,)), ((0, 1), (1, 0))], ids=["d1", "d2"])
def test_box_without_swap_is_one_sector_bit_for_bit(centre):
    law = DistributionSpec.uniform(0.0, 1.0)
    spec = HamiltonianSpec(make_box(PairPoint.of(*centre), 1), InteractionSpec({0: 1.0}), 0.9)
    template = HamiltonianTemplate(spec)
    assert len(template.sectors) == 1
    reference = np.sort(np.random.default_rng(3).normal(size=7))
    got = _collect_distances(
        template, law, 99, round_index=2, n_trials=40, threads=2, reference=reference,
        base_values=np.zeros(template.n_sites), free_positions=np.arange(template.n_sites),
    )
    values = trial_values(law, 99, 2, 1, 40, template.n_sites)
    dense = np.linalg.eigvalsh(dense_operator(template, values))
    assert np.array_equal(got, min_gaps_to_sorted(dense, reference))
    assert np.array_equal(spectra(template, values), dense)


def test_spec_validation():
    box = box1d(0, 0, 1)
    with pytest.raises(ValueError):
        HamiltonianSpec(box, InteractionSpec.zero(), float("nan"))
    # one hopping: a config that still picks one names the unknown key
    data = {"dimension": 1, "radius": 1, "center": [[0], [0]], "hopping_norm": "sup"}
    with pytest.raises(ValueError, match=r"^unknown keys in hamiltonian config: \['hopping_norm'"):
        HamiltonianSpec.from_dict(data)


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------


@given(
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(0, 2),
)
@settings(max_examples=40)
def test_hopping_graph_is_symmetric_and_simple(c1, c2, L):
    box = box1d(c1, c2, L)
    spec = HamiltonianSpec(box, InteractionSpec.zero(), 0.0)
    template = HamiltonianTemplate(spec)
    H = template.hopping
    assert np.array_equal(H, H.T)
    assert not np.diag(H).any()
    assert set(np.unique(H)) <= {0.0, 1.0}


@given(
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(0, 1),
    st.integers(0, 10**6),
)
@settings(max_examples=25)
def test_swap_conjugation_preserves_matrix(c1, c2, L, seed):
    # exchanging the particles maps the box at (c1, c2) onto the box at
    # (c2, c1) and conjugates the matrix by the induced index permutation
    inter = InteractionSpec({0: 1.0, 1: 0.5}, r_max=2)
    box_a = box1d(c1, c2, L)
    box_b = box1d(c2, c1, L)
    spec_a = HamiltonianSpec(box_a, inter, 1.1)
    spec_b = HamiltonianSpec(box_b, inter, 1.1)
    ta, tb = HamiltonianTemplate(spec_a), HamiltonianTemplate(spec_b)
    assert ta.sites == tb.sites
    field = random_field(ta, seed)
    Ha, Hb = dense_operator(ta, field), dense_operator(tb, field)
    pos_b = {pt: k for k, pt in enumerate(box_points(tb))}
    perm = np.array([pos_b[PairPoint(pt.second, pt.first)] for pt in box_points(ta)])
    assert np.array_equal(Ha, Hb[np.ix_(perm, perm)])


@pytest.mark.parametrize(
    "prefix, suffix",
    [("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")],
)
def test_openblas_pin_finds_every_symbol_spelling(monkeypatch, prefix, suffix):
    # numpy 1.22-1.26 wheels ship an ILP64 libopenblas64_ whose symbols end in
    # 64_; half of the first spelling, a getter alone, is passed over
    lib = SimpleNamespace(scipy_openblas_get_num_threads64_=SimpleNamespace())
    for op in ("get", "set"):
        setattr(lib, f"{prefix}_{op}_num_threads{suffix}", SimpleNamespace())
    monkeypatch.setattr(hamiltonian.glob, "glob", lambda pattern: ["libopenblas-stub.so"])
    monkeypatch.setattr(hamiltonian.ctypes, "CDLL", lambda path: lib)
    get, put = hamiltonian._openblas_threads.__wrapped__()
    assert get is getattr(lib, f"{prefix}_get_num_threads{suffix}")
    assert put is getattr(lib, f"{prefix}_set_num_threads{suffix}")
    assert put.argtypes == [ctypes.c_int] and get.restype is ctypes.c_int


def test_openblas_pin_ignores_a_library_without_the_symbols(monkeypatch):
    monkeypatch.setattr(hamiltonian.glob, "glob", lambda pattern: ["libopenblas-stub.so"])
    monkeypatch.setattr(hamiltonian.ctypes, "CDLL", lambda path: SimpleNamespace())
    assert hamiltonian._openblas_threads.__wrapped__() is None
