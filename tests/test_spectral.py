"""Spectra, spectral gaps, and the eigenvalue monotonicity verifier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wegner2p import (
    DistributionSpec,
    HamiltonianSpec,
    HamiltonianTemplate,
    InteractionSpec,
    PairPoint,
    RngStream,
    make_box,
    sample_field,
    verify_dm_eigenvalues,
)
from wegner2p import hamiltonian
from wegner2p.spectral import min_gaps_to_sorted, spectra

from dense_reference import dense_operator


# ---------------------------------------------------------------------------
# spectra of explicit matrices
# ---------------------------------------------------------------------------


def test_diagonal_matrix_spectrum():
    s = np.linalg.eigvalsh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(s, [1.0, 2.0, 3.0])


def test_two_state_hopping_spectrum():
    s = np.linalg.eigvalsh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(s, [-1.0, 1.0], atol=1e-12)


def test_path_graph_spectrum():
    # 3-site path: eigenvalues -sqrt(2), 0, sqrt(2)
    H = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    s = np.linalg.eigvalsh(H)
    assert np.allclose(s, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)


def test_residual_backward_error():
    # eigenpairs of an assembled operator reproduce M v = lambda v tightly
    box = make_box(PairPoint.of((0,), (1,)), 2)
    spec = HamiltonianSpec(box, InteractionSpec({0: 1.0, 1: 0.5}, r_max=1), 1.0)
    template = HamiltonianTemplate(spec)
    field = sample_field(
        template.sites, DistributionSpec.uniform(0.0, 1.0), RngStream(5, 0)
    )
    H = dense_operator(template, field)
    vals, vecs = np.linalg.eigh(H)
    norm = np.linalg.norm(H, 2)
    resid = np.linalg.norm(H @ vecs - vecs * vals, axis=0)
    assert np.all(resid <= 1e-12 * (1.0 + norm))
    assert np.allclose(vals, np.linalg.eigvalsh(H))
    assert np.allclose(vals, spectra(template, field), rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# spectra from the sector blocks against the dense operator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "centre, L",
    [(((0,), (0,)), 2), (((1,), (-3,)), 2), (((0, 0), (0, 0)), 1), (((1, 0), (0, 2)), 1)],
    ids=["d1-diagonal", "d1-off", "d2-diagonal", "d2-off"],
)
@pytest.mark.parametrize("norm", ["sup", "l1"])
def test_spectra_match_the_dense_reference(centre, L, norm):
    # enough fields that every sector's stack crosses the 512 KiB budget
    inter = InteractionSpec({0: 1.5, 1: -0.4}, r_max=1)
    spec = HamiltonianSpec(make_box(PairPoint.of(*centre), L), inter, 0.7, norm)
    template = HamiltonianTemplate(spec)
    n = 2 * max(hamiltonian._stack_rows(block.nbytes) for block, _ in template.sectors) + 1
    fields = np.random.default_rng(L).uniform(-1.0, 1.0, size=(n, template.n_sites))
    stacks = list(template.assemble_sectors(fields))
    assert len(stacks) >= 3 * len(template.sectors)
    got = spectra(template, fields)
    want = np.linalg.eigvalsh(dense_operator(template, fields))
    assert got.shape == (n, template.dim)
    assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))
    assert np.all(np.diff(got, axis=-1) >= 0)
    # one field is the batch's row, bit for bit
    assert np.array_equal(spectra(template, fields[n - 1]), got[n - 1])


@pytest.mark.filterwarnings("error")
def test_spectra_name_the_field_whose_diagonal_overflows():
    # one field carries its name, a batch row its trial number counted from
    # first_trial, also past the first stack of a batch larger than the budget
    spec = HamiltonianSpec(make_box(PairPoint.of((0,), (0,)), 2), InteractionSpec.zero(), 1.0)
    template = HamiltonianTemplate(spec)
    fields = np.zeros((700, template.n_sites))
    fields[650, 3] = 1e308
    with pytest.raises(ValueError, match="^trial 650: a field value overflows the operator"):
        spectra(template, fields, first_trial=0)
    with pytest.raises(ValueError, match="^trial 651: a field value overflows"):
        spectra(template, fields, "ignored for a batch")
    with pytest.raises(ValueError, match="^field: a field value overflows"):
        spectra(template, fields[650])
    for name in ("base field", "round 3 frozen field"):
        with pytest.raises(ValueError, match=f"^{name}: a field value overflows"):
            spectra(template, fields[650], name)
    assert np.isfinite(spectra(template, fields[:650])).all()


# ---------------------------------------------------------------------------
# distances, as min_gaps_to_sorted measures them for the two experiments
# ---------------------------------------------------------------------------


def dist(a, b):
    """Smallest |lambda - mu| over eigenvalue pairs of one spectrum and a sorted one."""
    return float(min_gaps_to_sorted(np.array([a], dtype=float), np.array(b, dtype=float))[0])


def test_dist_to_energy_examples():
    # the single-volume distance: a spectrum against the one-point reference [E]
    s = [-1.0, 0.0, 2.0]
    assert dist(s, [3.0]) == 1.0
    assert dist(s, [0.0]) == 0.0
    assert dist(s, [0.9]) == pytest.approx(0.9)
    assert dist(s, [-5.0]) == 4.0


def test_dist_between_spectra_examples():
    assert dist([0.0, 4.0], [-4.0, 1.0]) == 1.0
    assert dist([0.0, 4.0], [0.0, 4.0]) == 0.0
    assert dist([math.sqrt(2.0)], [1.0]) == pytest.approx(math.sqrt(2.0) - 1.0)


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=8),
    st.lists(st.floats(-100, 100), min_size=1, max_size=8),
)
@settings(max_examples=80)
def test_dist_between_spectra_matches_all_pairs(xs, ys):
    a, b = sorted(xs), sorted(ys)
    brute = min(abs(x - y) for x in a for y in b)
    assert dist(a, b) == pytest.approx(brute, abs=1e-12)
    assert dist(b, a) == pytest.approx(brute, abs=1e-12)


@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=6),
    st.lists(st.floats(-50, 50), min_size=1, max_size=5),
    st.integers(2, 4),
)
@settings(max_examples=40)
def test_min_gaps_batched_matches_rowwise(row, ref, copies):
    reference = np.sort(np.array(ref))
    rows = np.tile(np.array(row), (copies, 1))
    got = min_gaps_to_sorted(rows, reference)
    brute = min(abs(x - y) for x in row for y in reference)
    assert np.allclose(got, brute)


# ---------------------------------------------------------------------------
# eigenvalue monotonicity verifier
# ---------------------------------------------------------------------------


def small_setup(g, L=1, seed=13):
    box = make_box(PairPoint.of((0,), (0,)), L)
    spec = HamiltonianSpec(box, InteractionSpec({0: 1.0}, r_max=1), g)
    template = HamiltonianTemplate(spec)
    field = sample_field(
        template.sites, DistributionSpec.uniform(0.0, 1.0), RngStream(seed, 0)
    )
    return spec, field


def test_verifier_passes_on_true_model():
    spec, field = small_setup(1.0)
    report = verify_dm_eigenvalues(spec, field, 50, RngStream(13, 1))
    assert report.passed
    assert report.checks == 50
    assert report.worst_diagonal_defect <= 1e-9
    assert report.worst_monotonicity_violation <= 1e-9
    assert report.witnesses == []


def test_verifier_zero_coupling_exact():
    # with g = 0 the spectrum ignores the field entirely
    spec, field = small_setup(0.0)
    report = verify_dm_eigenvalues(spec, field, 20, RngStream(1, 1))
    assert report.passed
    assert report.worst_diagonal_defect == 0.0


def test_verifier_radius_zero_box():
    spec, field = small_setup(2.0, L=0)
    report = verify_dm_eigenvalues(spec, field, 20, RngStream(2, 1))
    assert report.passed


def test_verifier_rejects_bad_arguments():
    spec, field = small_setup(1.0)
    with pytest.raises(ValueError):
        verify_dm_eigenvalues(spec, field, 0, RngStream(0, 0))
    neg = HamiltonianSpec(spec.box, spec.interaction, -1.0)
    with pytest.raises(ValueError):
        verify_dm_eigenvalues(neg, field, 5, RngStream(0, 0))
    with pytest.raises(ValueError):
        verify_dm_eigenvalues(spec, field[:-1], 5, RngStream(0, 0))


def test_weyl_continuity_under_bounded_perturbation():
    # |lambda_k(H + D) - lambda_k(H)| <= ||D||; push every site by delta
    spec, vals = small_setup(1.5)
    template = HamiltonianTemplate(spec)
    base = spectra(template, vals)
    gen = RngStream(77, 0).generator()
    for _ in range(25):
        delta = gen.uniform(-0.5, 0.5, size=vals.shape)
        pert = spectra(template, vals + delta)
        bound = 2.0 * spec.coupling * np.max(np.abs(delta))
        assert np.max(np.abs(pert - base)) <= bound + 1e-12


def test_spectrum_invariant_under_particle_swap():
    # the operator on the swapped box is a conjugation, so spectra agree
    law = DistributionSpec.uniform(-1.0, 1.0)
    inter = InteractionSpec({0: 1.0, 1: 0.5}, r_max=2)
    for seed in range(5):
        u = PairPoint.of((seed - 2,), (2 * seed,))
        spec_a = HamiltonianSpec(make_box(u, 1), inter, 1.0)
        spec_b = HamiltonianSpec(make_box(PairPoint(u.second, u.first), 1), inter, 1.0)
        ta, tb = HamiltonianTemplate(spec_a), HamiltonianTemplate(spec_b)
        field = sample_field(ta.sites, law, RngStream(seed, 0))
        assert ta.sites == tb.sites
        ea = spectra(ta, field)
        eb = spectra(tb, field)
        assert np.allclose(ea, eb, atol=1e-10)


def per_trial_dm_report(spec, values, trials, rng, tolerance):
    """The eigenvalue DM check one trial at a time, two `spectra` calls each."""
    template = HamiltonianTemplate(spec)
    base_eigs = spectra(template, values)
    scale = 1.0 + np.abs(base_eigs)
    gen = rng.generator()
    g = spec.coupling
    worst_shift = worst_mono = -math.inf
    witnesses = []
    for k in range(trials):
        t = 10.0 * (1.0 - gen.random())
        shifted = spectra(template, values + t)
        shift_err = float(np.max(np.abs(shifted - base_eigs - 2.0 * g * t) / scale))
        site = int(gen.integers(template.n_sites))
        bump = 10.0 * (1.0 - gen.random())
        bumped_vals = values.copy()
        bumped_vals[site] += bump
        mono_gap = float(np.max(base_eigs - spectra(template, bumped_vals)))
        worst_shift = max(worst_shift, shift_err)
        worst_mono = max(worst_mono, mono_gap)
        if (shift_err > tolerance or mono_gap > tolerance) and len(witnesses) < 5:
            witnesses.append(
                {"trial": k, "t": t, "site": template.sites[site], "bump": bump,
                 "shift_error": shift_err, "monotonicity_gap": mono_gap}
            )
    return worst_shift, worst_mono, witnesses


@pytest.mark.parametrize("tolerance", [1e-9, 1e-15, -1.0])
def test_verifier_chunks_match_per_trial_reference(monkeypatch, tolerance):
    # a budget of three 9x9 matrices cuts 20 trials into 7 chunks, each
    # solved as a 6x6 and a 3x3 sector stack; the report equals the
    # default-budget one and the per-trial loop's
    spec, field = small_setup(1.0)
    wide = verify_dm_eigenvalues(spec, field, 20, RngStream(4, 1), tolerance)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(np.shape(a)[:-2])
        return eigvalsh(a)

    monkeypatch.setattr(hamiltonian, "_CHUNK_BYTES", 3 * 8 * 9**2)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    narrow = verify_dm_eigenvalues(spec, field, 20, RngStream(4, 1), tolerance)
    monkeypatch.undo()
    assert calls[:2] == [(1,), (1,)] and len(calls) == 2 + 2 * 2 * 7
    assert max(np.prod(shape) for shape in calls[2:]) == 3
    assert narrow == wide
    want = per_trial_dm_report(spec, field, 20, RngStream(4, 1), tolerance)
    assert (narrow.worst_diagonal_defect, narrow.worst_monotonicity_violation) == want[:2]
    assert narrow.witnesses == want[2]
    assert narrow.passed is (want[2] == [])
    assert len(narrow.witnesses) == (5 if tolerance < 0 else len(want[2]))


@pytest.mark.filterwarnings("error")
def test_verifier_fails_on_overflowing_field():
    # a finite value of 1e308 overflows the base operator's diagonal; a huge
    # coupling lets the base field pass and overflows a shifted trial's.
    # Either is refused with the field named, before any eigvalsh call and
    # without a numpy warning.
    spec, field = small_setup(1.0)
    field[0] = 1e308
    with pytest.raises(ValueError, match="^base field: a field value overflows"):
        verify_dm_eigenvalues(spec, field, 10, RngStream(3, 1))
    spec, field = small_setup(1e307)
    with pytest.raises(ValueError, match=r"^trial \d+: a field value overflows"):
        verify_dm_eigenvalues(spec, field, 10, RngStream(3, 1))
