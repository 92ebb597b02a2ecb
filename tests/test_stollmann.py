"""DM functions and interval probability bounds, exact and Monte Carlo."""

import math

import numpy as np
import pytest

from wegner2p import (
    DistributionSpec,
    DMFunctionSpec,
    IntervalSpec,
    RngStream,
    stollmann_exact,
    stollmann_mc,
)
from wegner2p import stollmann
from wegner2p.potential import draw_values
from wegner2p.stollmann import coordinate_max, coordinate_sum, single_coordinate

import dm_reference
from dm_reference import check_dm_function

FOUR_ATOMS = DistributionSpec.discrete(
    [(0.0, 0.25), (1.0, 0.25), (2.0, 0.25), (3.0, 0.25)]
)


# Two DM functions that the checker and enumerator tests run besides the
# library's forms: rounding moves their diagonal steps off t in the last bits.


def shifted_order(k, shifts):
    """The k-th smallest of v_j + shift_j."""
    off = np.array(shifts)
    return DMFunctionSpec(len(off), lambda V: np.sort(V + off, axis=-1)[:, k - 1])


def weighted_sum(coeffs):
    """sum_j c_j v_j, with c_j >= 0 summing to 1 or more."""
    w = np.array(coeffs)
    return DMFunctionSpec(len(w), lambda V: np.sum(V * w, axis=-1))


# ---------------------------------------------------------------------------
# DM function constructors, checked by the randomised sampler of dm_reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "f",
    [
        coordinate_sum(1),
        coordinate_sum(3),
        coordinate_max(2),
        single_coordinate(3),
    ],
)
def test_true_dm_functions_pass(f):
    report = check_dm_function(f, (-2.0, 2.0), 400, RngStream(42, 0))
    assert report.passed
    assert report.checks == 400
    assert report.worst_monotonicity_violation <= report.tolerance
    assert report.worst_diagonal_defect <= report.tolerance
    assert report.witnesses == []


def test_decreasing_function_fails_monotonicity():
    bad = DMFunctionSpec(arity=1, evaluator=lambda V: -V[:, 0], name="negated")
    report = check_dm_function(bad, (0.0, 1.0), 200, RngStream(0, 0))
    assert not report.passed
    assert report.worst_monotonicity_violation > report.tolerance
    assert 1 <= len(report.witnesses) <= 5
    assert {"v", "r", "t", "monotonicity_gap", "diagonal_gap"} <= set(
        report.witnesses[0]
    )


def test_slope_deficient_function_fails_diagonal():
    flat = DMFunctionSpec(arity=1, evaluator=lambda V: 0.5 * V[:, 0], name="half")
    report = check_dm_function(flat, (0.0, 1.0), 200, RngStream(0, 0))
    assert not report.passed
    assert report.worst_monotonicity_violation <= report.tolerance
    assert report.worst_diagonal_defect > report.tolerance
    assert report.witnesses


def test_nan_values_fail_the_dm_check():
    nan = DMFunctionSpec(arity=1, evaluator=lambda V: np.full(len(V), np.nan), name="nan")
    report = check_dm_function(nan, (0.0, 1.0), 100, RngStream(0, 0))
    assert not report.passed
    assert len(report.witnesses) == 5
    assert all(math.isnan(w["monotonicity_gap"]) for w in report.witnesses)
    # a function that is NaN at one corner of the domain only
    holey = DMFunctionSpec(
        arity=1, evaluator=lambda V: np.where(V[:, 0] > 0.9, np.nan, V[:, 0]), name="holey"
    )
    report = check_dm_function(holey, (0.0, 1.0), 200, RngStream(0, 0))
    assert not report.passed
    assert report.witnesses
    assert report.worst_monotonicity_violation <= report.tolerance


def test_constructor_validation():
    with pytest.raises(ValueError):
        single_coordinate(0)
    with pytest.raises(ValueError):
        DMFunctionSpec(arity=0, evaluator=lambda V: np.zeros(len(V)))


def test_function_call_checks_shape():
    f = coordinate_sum(2)
    assert f(np.array([1.0, 2.0])) == 3.0
    with pytest.raises(ValueError):
        f(np.array([1.0, 2.0, 3.0]))


def test_function_call_takes_one_point_or_a_batch():
    f = coordinate_max(2)
    assert isinstance(f([1.0, 4.0]), float)
    out = f(np.array([[1.0, 4.0], [3.0, 2.0], [0.0, 0.0]]))
    assert isinstance(out, np.ndarray) and out.tolist() == [4.0, 3.0, 0.0]
    assert f(np.empty((0, 2))).shape == (0,)
    for bad in (np.ones((3, 3)), np.ones((2, 2, 2)), np.float64(1.0)):
        with pytest.raises(ValueError):
            f(bad)
    # an evaluator must give one value per row
    with pytest.raises(ValueError):
        DMFunctionSpec(arity=2, evaluator=lambda V: V)(np.ones((3, 2)))
    with pytest.raises(ValueError):
        DMFunctionSpec(arity=2, evaluator=lambda V: V.sum())(np.ones((3, 2)))


LIBRARY_FAMILIES = [
    coordinate_sum(1),
    coordinate_sum(3),
    coordinate_sum(12),
    coordinate_max(5),
    single_coordinate(4),
]


@pytest.mark.parametrize("f", LIBRARY_FAMILIES, ids=lambda f: f.name)
def test_batch_values_equal_pointwise_values_bitwise(f):
    # A point's value must not depend on its batch: rounding-sensitive inputs
    # spanning many magnitudes, compared as raw bits.
    gen = np.random.default_rng(2024)
    V = gen.standard_normal((300, f.arity)) * 10.0 ** gen.integers(-8, 9, (300, f.arity))
    batch = f(V)
    pointwise = np.array([f(v) for v in V])
    assert batch.view(np.int64).tolist() == pointwise.view(np.int64).tolist()
    for lo, hi in ((0, 1), (17, 64), (5, 300)):
        assert f(V[lo:hi]).view(np.int64).tolist() == batch[lo:hi].view(np.int64).tolist()


def pointwise_dm_report(f, domain, samples, rng, tolerance):
    """The DM check one sample at a time, each point evaluated on its own."""
    lo, hi = domain
    span = hi - lo
    gen = rng.generator()
    worst_mono = worst_diag = -math.inf
    witnesses = []
    for _ in range(samples):
        v = gen.uniform(lo, hi, size=f.arity)
        r = gen.uniform(0.0, span, size=f.arity)
        t = span * (1.0 - gen.random())
        base = f(v)
        mono_gap = base - f(v + r)
        diag_gap = t - (f(v + t) - base)
        worst_mono = max(worst_mono, mono_gap)
        worst_diag = max(worst_diag, diag_gap)
        if (mono_gap > tolerance or diag_gap > tolerance) and len(witnesses) < 5:
            witnesses.append(
                {"v": v.tolist(), "r": r.tolist(), "t": t,
                 "monotonicity_gap": mono_gap, "diagonal_gap": diag_gap}
            )
    return worst_mono, worst_diag, witnesses


@pytest.mark.parametrize("chunk", [3, 1 << 16])
@pytest.mark.parametrize("tolerance", [1e-12, 0.0])
def test_checker_matches_pointwise_loop(monkeypatch, chunk, tolerance):
    # a decreasing function flags every sample, so five witnesses are kept
    # from across the chunks; at tolerance 0 the order statistic's diagonal
    # step is flagged where it rounds above t
    monkeypatch.setattr(dm_reference, "_CHUNK", chunk)
    decreasing = DMFunctionSpec(3, lambda V: -V.sum(axis=1))
    functions = (coordinate_sum(3), shifted_order(2, [0.0, -1.5, 2.0]), decreasing)
    for f, flagged in zip(functions, (0, 0 if tolerance else 2, 5)):
        report = check_dm_function(f, (-2.0, 2.0), 50, RngStream(8, 0), tolerance=tolerance)
        want = pointwise_dm_report(f, (-2.0, 2.0), 50, RngStream(8, 0), tolerance)
        assert (report.worst_monotonicity_violation, report.worst_diagonal_defect) == want[:2]
        assert report.witnesses == want[2]
        assert len(report.witnesses) == flagged


@pytest.mark.parametrize(
    "f, tolerance, passes",
    [
        (shifted_order(1, [0.0, -1.5, 2.0]), 1e-12, True),
        (weighted_sum([0.25, 0.75]), 0.0, False),  # fails on rounding alone
    ],
)
def test_checker_block_draw_matches_per_sample_draws(f, tolerance, passes):
    # 70,000 samples span two chunks; the reference draws each sample's v, r
    # and t with gen.uniform and gen.random, as the checker once did, and
    # evaluates the whole set in one call
    samples, domain = 70_000, (-1.0, 3.0)
    gen = RngStream(4, 0).generator()
    v, r, t = np.empty((samples, f.arity)), np.empty((samples, f.arity)), np.empty(samples)
    for i in range(samples):
        v[i] = gen.uniform(-1.0, 3.0, size=f.arity)
        r[i] = gen.uniform(0.0, 4.0, size=f.arity)
        t[i] = 4.0 * (1.0 - gen.random())
    base = f(v)
    mono_gap = base - f(v + r)
    diag_gap = t - (f(v + t[:, None]) - base)
    flagged = np.flatnonzero((mono_gap > tolerance) | (diag_gap > tolerance))[:5]
    want = [
        {"v": v[i].tolist(), "r": r[i].tolist(), "t": float(t[i]),
         "monotonicity_gap": float(mono_gap[i]), "diagonal_gap": float(diag_gap[i])}
        for i in flagged
    ]
    report = check_dm_function(f, domain, samples, RngStream(4, 0), tolerance=tolerance)
    assert samples > dm_reference._CHUNK
    assert report.passed is passes is (want == [])
    assert report.witnesses == want
    assert report.worst_monotonicity_violation == float(mono_gap.max())
    assert report.worst_diagonal_defect == float(diag_gap.max())


def test_checker_argument_validation():
    f = coordinate_sum(1)
    with pytest.raises(ValueError):
        check_dm_function(f, (1.0, 1.0), 10, RngStream(0, 0))
    with pytest.raises(ValueError):
        check_dm_function(f, (0.0, 1.0), 0, RngStream(0, 0))


@pytest.mark.filterwarnings("error")
def test_checker_refuses_a_domain_whose_span_overflows(monkeypatch):
    # hi - lo = 2e308 is no float: refused before the generator is derived,
    # where the check once ran and numpy warned of invalid subtractions
    def must_not_draw(self):
        raise AssertionError("drew from the stream")

    monkeypatch.setattr(RngStream, "generator", must_not_draw)
    with pytest.raises(ValueError, match="^domain span hi - lo overflows a float$"):
        check_dm_function(coordinate_sum(2), (-1e308, 1e308), 10, RngStream(1, 0))


def test_dm_closed_under_constant_shift():
    base = coordinate_max(2)
    shifted = DMFunctionSpec(
        arity=2, evaluator=lambda V: base(V) + 7.25, name="max_plus_const"
    )
    assert check_dm_function(shifted, (-1.0, 1.0), 200, RngStream(9, 0)).passed


# ---------------------------------------------------------------------------
# interval spec
# ---------------------------------------------------------------------------


def test_interval_validation_and_membership():
    with pytest.raises(ValueError):
        IntervalSpec(1.0, 1.0)
    with pytest.raises(ValueError):
        IntervalSpec(2.0, 1.0)
    with pytest.raises(ValueError):
        IntervalSpec(0.0, float("inf"))
    iv = IntervalSpec(0.5, 1.5)
    assert iv.length == 1.0
    assert iv.contains(1.0)
    assert not iv.contains(0.5) and not iv.contains(1.5)  # open ends


# ---------------------------------------------------------------------------
# exact bound
# ---------------------------------------------------------------------------


def test_exact_identity_saturates_bound():
    # four equally weighted atoms, identity map, unit window around one atom:
    # probability and bound are both exactly one quarter
    res = stollmann_exact(coordinate_sum(1), FOUR_ATOMS, IntervalSpec(0.5, 1.5))
    assert res.probability == 0.25
    assert res.bound == 0.25
    assert res.holds


def test_exact_two_coordinate_sum():
    fair = DistributionSpec.discrete([(0.0, 0.5), (1.0, 0.5)])
    res = stollmann_exact(coordinate_sum(2), fair, IntervalSpec(0.5, 1.5))
    assert res.probability == pytest.approx(0.5)  # P(sum = 1)
    assert res.bound == pytest.approx(2 * 0.5)
    assert res.holds
    low = stollmann_exact(coordinate_sum(2), fair, IntervalSpec(-0.5, 0.5))
    assert low.probability == pytest.approx(0.25)  # P(sum = 0)


def test_exact_max_of_three():
    fair = DistributionSpec.discrete([(0.0, 0.5), (1.0, 0.5)])
    res = stollmann_exact(coordinate_max(3), fair, IntervalSpec(0.5, 1.5))
    assert res.probability == pytest.approx(1.0 - 0.125)  # P(max = 1)
    assert res.bound == pytest.approx(3 * 0.5)
    assert res.holds


def test_exact_rejects_continuous_laws_and_blowups():
    with pytest.raises(ValueError):
        stollmann_exact(
            coordinate_sum(1), DistributionSpec.uniform(0.0, 1.0), IntervalSpec(0, 1)
        )
    ten = DistributionSpec.discrete([(float(k), 0.1) for k in range(10)])
    with pytest.raises(ValueError):
        stollmann_exact(coordinate_sum(8), ten, IntervalSpec(0, 1))


def test_exact_probability_against_direct_enumeration():
    # independent recount with itertools-free nested loops
    law = DistributionSpec.discrete([(0.0, 0.2), (0.5, 0.3), (2.0, 0.5)])
    f = coordinate_max(2)
    iv = IntervalSpec(0.25, 1.0)
    atoms = law.atoms
    want = 0.0
    for v1, w1 in atoms:
        for v2, w2 in atoms:
            if iv.contains(max(v1, v2)):
                want += w1 * w2
    res = stollmann_exact(f, law, iv)
    assert res.probability == pytest.approx(want, abs=1e-15)


def odometer_probability(f, law, interval):
    """Interval probability by a point-by-point odometer over the atom indices."""
    atoms = law.atoms
    values = [v for v, _ in atoms]
    weights = [w for _, w in atoms]
    prob = 0.0
    idx = [0] * f.arity
    coords = np.empty(f.arity)
    while True:
        w = 1.0
        for j, i in enumerate(idx):
            coords[j] = values[i]
            w *= weights[i]
        if interval.contains(f(coords)):
            prob += w
        j = f.arity - 1
        while j >= 0 and idx[j] == len(atoms) - 1:
            idx[j] = 0
            j -= 1
        if j < 0:
            return prob
        idx[j] += 1


CRITERION_4_LAWS = (
    DistributionSpec.discrete(((0.0, 0.5), (1.0, 0.5))),
    DistributionSpec.discrete(((0.0, 0.3), (0.7, 0.45), (2.0, 0.25))),
    FOUR_ATOMS,
)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_exact_probability_matches_odometer_bitwise(p):
    rng = np.random.default_rng(400 + p)
    for law in CRITERION_4_LAWS:
        for f in (coordinate_sum(p), coordinate_max(p), single_coordinate(p)):
            for _ in range(4):
                lower = float(rng.uniform(-1.0, 3.5))
                iv = IntervalSpec(lower, lower + float(rng.uniform(1e-6, 4.0)))
                assert stollmann_exact(f, law, iv).probability == odometer_probability(f, law, iv)


def test_exact_probability_across_chunks_matches_odometer_bitwise():
    law = DistributionSpec.discrete([(0.1 * k, 0.1) for k in range(10)])
    f = weighted_sum([0.3, 0.45, 0.55, 0.2, 0.1])
    assert 10**f.arity > stollmann._CHUNK  # the enumeration spans two chunks
    iv = IntervalSpec(1.0, 2.5)
    res = stollmann_exact(f, law, iv)
    assert res.probability == odometer_probability(f, law, iv)
    assert 0.0 < res.probability < 1.0


def test_exact_probability_at_the_enumeration_limit():
    ten = DistributionSpec.discrete([(float(k), 0.1) for k in range(10)])
    res = stollmann_exact(coordinate_sum(7), ten, IntervalSpec(10, 20))
    assert res.probability == 0.05582790000057543


# ---------------------------------------------------------------------------
# Monte Carlo bound
# ---------------------------------------------------------------------------


def test_binomial_verdict_three_sigma_rule():
    assert stollmann.binomial_verdict(0, 10, 0.0) == (0.0, 0.0, True)
    estimate, std_error, holds = stollmann.binomial_verdict(5, 10, 0.0)
    assert (estimate, std_error) == (0.5, math.sqrt(0.5 * 0.5 / 10))
    assert not holds
    # inside three standard errors of the bound still holds
    assert stollmann.binomial_verdict(5, 10, 0.5 - 3.0 * std_error)[2]
    assert not stollmann.binomial_verdict(5, 10, 0.49 - 3.0 * std_error)[2]


def test_mc_max_of_three_uniform():
    # P(max of three uniforms in (0.5, 0.6)) = 0.6^3 - 0.5^3 = 0.091
    res = stollmann_mc(
        coordinate_max(3),
        DistributionSpec.uniform(0.0, 1.0),
        IntervalSpec(0.5, 0.6),
        20000,
        RngStream(31, 0),
    )
    exact = 0.6**3 - 0.5**3
    sd = math.sqrt(exact * (1 - exact) / 20000)
    assert abs(res.estimate - exact) <= 4 * sd
    assert res.bound == pytest.approx(3 * 0.1)
    assert res.holds_within_3sigma


def test_mc_single_coordinate_marginal():
    # the degenerate case rides right on the bound: P = s(eps) exactly
    res = stollmann_mc(
        coordinate_sum(1),
        DistributionSpec.uniform(0.0, 1.0),
        IntervalSpec(0.4, 0.5),
        20000,
        RngStream(32, 0),
    )
    assert res.bound == pytest.approx(0.1)
    assert res.holds_within_3sigma


def test_mc_deterministic_and_guarded():
    law = DistributionSpec.uniform(0.0, 1.0)
    a = stollmann_mc(coordinate_sum(2), law, IntervalSpec(0.5, 1.0), 2000, RngStream(7, 0))
    b = stollmann_mc(coordinate_sum(2), law, IntervalSpec(0.5, 1.0), 2000, RngStream(7, 0))
    assert a.estimate == b.estimate and a.std_error == b.std_error
    with pytest.raises(ValueError):
        stollmann_mc(coordinate_sum(2), law, IntervalSpec(0.5, 1.0), 999, RngStream(7, 0))


def test_mc_evaluates_all_draws_in_one_call():
    seen = []
    base = coordinate_max(3)

    def evaluator(V):
        seen.append(V.shape)
        return base.evaluator(V)

    f = DMFunctionSpec(arity=3, evaluator=evaluator)
    law = DistributionSpec.uniform(0.0, 1.0)
    iv = IntervalSpec(0.5, 0.6)
    res = stollmann_mc(f, law, iv, 5000, RngStream(3, 0))
    assert seen == [(5000, 3)]
    assert res.estimate == stollmann_mc(base, law, iv, 5000, RngStream(3, 0)).estimate


@pytest.mark.parametrize(
    "law",
    [DistributionSpec.uniform(0.0, 1.0), FOUR_ATOMS],
    ids=lambda law: law.kind,
)
def test_mc_draws_in_chunks_of_rows(monkeypatch, law):
    # bounded chunks see the rows of one draw, in order, and give the same result
    base = coordinate_max(3)
    iv = IntervalSpec(0.5, 1.6)
    whole = stollmann_mc(base, law, iv, 2500, RngStream(9, 0))
    seen = []

    def evaluator(V):
        seen.append(V.copy())
        return base.evaluator(V)

    monkeypatch.setattr(stollmann, "_CHUNK", 1000)
    f = DMFunctionSpec(arity=3, evaluator=evaluator)
    chunked = stollmann_mc(f, law, iv, 2500, RngStream(9, 0))
    assert [len(V) for V in seen] == [1000, 1000, 500]
    one_draw = draw_values(law, RngStream(9, 0).generator(), 2500 * 3).reshape(2500, 3)
    assert np.concatenate(seen).tobytes() == one_draw.tobytes()
    assert chunked == whole


def test_mc_agrees_with_exact_on_atomic_law():
    law = DistributionSpec.discrete([(0.0, 0.5), (1.0, 0.5)])
    f = coordinate_sum(2)
    iv = IntervalSpec(0.5, 1.5)
    exact = stollmann_exact(f, law, iv)
    mc = stollmann_mc(f, law, iv, 100000, RngStream(100, 0))
    slack = 4 * max(mc.std_error, 1e-4)
    assert abs(mc.estimate - exact.probability) <= slack
    assert mc.bound == exact.bound
