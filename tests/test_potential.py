"""Disorder laws: concentration function, sampling streams, field realisation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wegner2p import (
    DistributionSpec,
    RngStream,
    concentration,
    sample_field,
)
from wegner2p.potential import draw_values


# ---------------------------------------------------------------------------
# concentration function
# ---------------------------------------------------------------------------


def test_uniform_concentration_values():
    u01 = DistributionSpec.uniform(0.0, 1.0)
    assert concentration(u01, 0.5) == 0.5
    assert concentration(u01, 2.0) == 1.0
    assert concentration(u01, 0.0) == 0.0
    assert concentration(DistributionSpec.uniform(0.0, 2.0), 1e-3) == pytest.approx(5e-4)


def test_discrete_concentration_values():
    law = DistributionSpec.discrete([(0.0, 0.3), (1.0, 0.7)])
    # a width-0.5 window holds at most one atom, the heavier one
    assert concentration(law, 0.5) == 0.7
    # width 1.0 still cannot hold both: the left endpoint is excluded
    assert concentration(law, 1.0) == 0.7
    assert concentration(law, 1.0 + 1e-9) == pytest.approx(1.0)
    assert concentration(law, 0.0) == 0.0


def test_bernoulli_concentration_values():
    law = DistributionSpec.bernoulli(0.3)
    assert concentration(law, 0.5) == 0.7
    assert concentration(law, 1.0) == 0.7
    assert concentration(law, 1.5) == 1.0


def test_gaussian_concentration_formula():
    law = DistributionSpec.gaussian(2.0, 0.7)
    for eps in (1e-3, 0.1, 1.0, 5.0):
        assert concentration(law, eps) == pytest.approx(
            math.erf(eps / (2.0 * 0.7 * math.sqrt(2.0))), abs=1e-15
        )


def test_gaussian_concentration_is_the_numeric_sup():
    # grid search over window anchors against the closed form
    mean, sigma, eps = 0.5, 1.3, 0.4

    def cdf(x):
        return 0.5 * (1.0 + math.erf((x - mean) / (sigma * math.sqrt(2.0))))

    anchors = np.linspace(mean - 6 * sigma, mean + 6 * sigma, 200001)
    masses = [cdf(a + eps) - cdf(a) for a in anchors]
    law = DistributionSpec.gaussian(mean, sigma)
    assert concentration(law, eps) == pytest.approx(max(masses), abs=1e-6)
    assert concentration(law, eps) >= max(masses) - 1e-12


def test_concentration_rejects_bad_width():
    law = DistributionSpec.uniform(0.0, 1.0)
    with pytest.raises(ValueError):
        concentration(law, -0.1)
    with pytest.raises(ValueError):
        concentration(law, float("nan"))


def test_empirical_window_mass_uniform():
    # 1e6 draws; the window (0.45, 0.55] should catch close to s(0.1) = 0.1
    law = DistributionSpec.uniform(0.0, 1.0)
    draws = draw_values(law, RngStream(2024, 0).generator(), 1_000_000)
    hit = np.mean((draws > 0.45) & (draws <= 0.55))
    tol = 3.0 * math.sqrt(0.1 * 0.9 / 1_000_000)
    assert abs(hit - concentration(law, 0.1)) <= tol


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_rejects_nonsense():
    with pytest.raises(ValueError):
        DistributionSpec.uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        DistributionSpec.uniform(2.0, -1.0)
    with pytest.raises(ValueError):
        DistributionSpec.gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        DistributionSpec.bernoulli(1.5)
    with pytest.raises(ValueError):
        DistributionSpec.discrete([(0.0, 0.4), (1.0, 0.4)])
    with pytest.raises(ValueError):
        DistributionSpec.discrete([(0.0, -0.2), (1.0, 1.2)])
    with pytest.raises(ValueError):
        DistributionSpec.discrete([])
    with pytest.raises(ValueError):
        DistributionSpec(kind="triangular")


def test_validate_merges_duplicate_atoms():
    law = DistributionSpec.discrete([(1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
    assert law.atoms == ((0.0, 0.5), (1.0, 0.5))


def test_dict_round_trip():
    laws = [
        DistributionSpec.uniform(-1.0, 3.0),
        DistributionSpec.gaussian(0.5, 2.0),
        DistributionSpec.bernoulli(0.25, (-1.0, 4.0)),
        DistributionSpec.discrete([(0.0, 0.5), (2.0, 0.5)]),
    ]
    for law in laws:
        assert DistributionSpec.from_dict(law.to_dict()) == law


def test_from_dict_rejects_stray_keys():
    with pytest.raises(ValueError):
        DistributionSpec.from_dict({"kind": "uniform", "lo": 0.0, "hi": 1.0, "mean": 0.0})
    with pytest.raises(ValueError):
        DistributionSpec.from_dict({"lo": 0.0, "hi": 1.0})


# ---------------------------------------------------------------------------
# streams and sampling
# ---------------------------------------------------------------------------


def test_stream_reproducible_and_distinct():
    law = DistributionSpec.uniform(0.0, 1.0)
    a = draw_values(law, RngStream(7, 3).generator(), 16)
    b = draw_values(law, RngStream(7, 3).generator(), 16)
    c = draw_values(law, RngStream(7, 4).generator(), 16)
    d = draw_values(law, RngStream(8, 3).generator(), 16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(2**64, 0)
    with pytest.raises(ValueError):
        RngStream(0, -1)


def test_draw_values_ranges():
    gen = RngStream(5, 0).generator()
    u = draw_values(DistributionSpec.uniform(2.0, 3.0), gen, 1000)
    assert np.all((u >= 2.0) & (u < 3.0))
    b = draw_values(DistributionSpec.bernoulli(0.5, (-1.0, 3.0)), gen, 1000)
    assert set(np.unique(b)) <= {-1.0, 3.0}
    d = draw_values(DistributionSpec.discrete([(0.5, 0.5), (1.5, 0.5)]), gen, 1000)
    assert set(np.unique(d)) <= {0.5, 1.5}
    with pytest.raises(ValueError):
        draw_values(DistributionSpec.uniform(0.0, 1.0), gen, -1)


def test_sample_field_deterministic_in_site_order():
    sites = [(0,), (1,), (2,)]
    law = DistributionSpec.uniform(0.0, 1.0)
    f1 = sample_field(sites, law, RngStream(11, 0))
    f2 = sample_field(sites, law, RngStream(11, 0))
    assert f1.shape == (3,) and f1.dtype == float
    assert np.array_equal(f1, f2)
    raw = draw_values(law, RngStream(11, 0).generator(), 3)
    assert list(f1) == list(raw)
    # integer outcomes still give float site values
    coin = DistributionSpec(kind="bernoulli", values=(0, 1))
    assert sample_field(sites, coin, RngStream(11, 0)).dtype == float


def test_sample_field_rejects_bad_domains():
    law = DistributionSpec.uniform(0.0, 1.0)
    with pytest.raises(ValueError):
        sample_field([(0,), (0,)], law, RngStream(1, 0))


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def atomic_laws(draw):
    n = draw(st.integers(1, 6))
    values = sorted(
        draw(
            st.lists(
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    raw = draw(st.lists(st.integers(1, 10), min_size=n, max_size=n))
    total = sum(raw)
    weights = [r / total for r in raw]
    # repair float drift so the weights pass validation exactly
    weights[-1] = 1.0 - math.fsum(weights[:-1])
    return DistributionSpec.discrete(list(zip(values, weights)))


@given(atomic_laws(), st.floats(min_value=1e-6, max_value=500.0, allow_nan=False))
@example(  # the two lowest atoms span 0.5 - 5.7e-123, which rounds up to 0.5
    DistributionSpec.discrete(
        [(-0.5, 2 / 7), (-5.673513317596802e-123, 1 / 7)]
        + [(v, 1 / 7) for v in (0.0, 1.0, 1.5, 2.0)]
    ),
    0.5,
)
@example(  # 1.6e-31 + 1 rounds to 1, yet the atom at 1 lies inside the window
    DistributionSpec.discrete([(v, 0.25) for v in (1.6e-31, 0.5, 1.0, 2.0)]), 1.0
)
@settings(max_examples=80)
def test_atomic_concentration_matches_window_oracle(law, eps):
    # direct sup over windows anchored at each atom, in exact arithmetic
    atoms = [(Fraction(v), w) for v, w in law.atoms]
    best = 0.0
    for v, _ in atoms:
        acc = sum(w for x, w in atoms if v <= x < v + Fraction(eps))
        best = max(best, acc)
    assert concentration(law, eps) == pytest.approx(best, abs=1e-12)


@given(
    atomic_laws(),
    st.floats(min_value=0, max_value=50, allow_nan=False),
    st.floats(min_value=0, max_value=50, allow_nan=False),
)
@settings(max_examples=60)
def test_concentration_monotone_and_doubling(law, e1, e2):
    lo, hi = sorted((e1, e2))
    assert concentration(law, lo) <= concentration(law, hi) + 1e-15
    s1 = concentration(law, lo)
    s2 = concentration(law, 2 * lo)
    assert s2 <= 2 * s1 + 1e-12
    assert 0.0 <= s1 <= 1.0


@given(st.floats(min_value=1e-3, max_value=10.0), st.floats(min_value=0, max_value=20))
@settings(max_examples=60)
def test_uniform_concentration_scales(width, eps):
    law = DistributionSpec.uniform(0.0, width)
    assert concentration(law, eps) == pytest.approx(min(eps / width, 1.0))


@pytest.mark.parametrize(
    "atoms",
    [
        [(0.0, 1.0)],
        [(0.5, 0.5), (1.5, 0.5)],
        [(0.0, 0.2), (1.0, 0.5), (2.0, 0.3)],
        [(-3.0, 0.25), (0.0, 0.0), (0.5, 0.5), (9.0, 0.0), (10.0, 0.25)],  # zero-weight atoms
        [(float(k), w) for k, w in enumerate([0.1] * 7 + [0.05, 0.25])],
    ],
)
def test_discrete_draws_equal_generator_choice(atoms):
    # the draw maps uniforms through the CDF the way Generator.choice does, so
    # values and the stream position after them match choice bit for bit
    law = DistributionSpec.discrete(atoms)
    values, weights = np.array(law.atoms).T
    for seed in range(100):
        for n in (0, 1, 7, 300):
            gen, ref = RngStream(seed, n).generator(), RngStream(seed, n).generator()
            got = draw_values(law, gen, n)
            want = values[ref.choice(len(values), size=n, p=weights / weights.sum())]
            assert got.tobytes() == want.tobytes()
            assert gen.random() == ref.random()
