"""One input rule: every spec and library call checks its own numbers.

A real-valued input takes an int, a float or a numpy number and stores a
finite float; an integer input takes an int, a numpy integer or an integral
float and stores an int.  Anything else raises ValueError naming the field,
with the message a config holding the same value makes the CLI print.  The
tests' DM sampler (`dm_reference.check_dm_function`) keeps the same rule.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import wegner2p.cli as cli
from wegner2p import (
    DMFunctionSpec,
    DistributionSpec,
    ExperimentConfig,
    HamiltonianSpec,
    InteractionSpec,
    IntervalSpec,
    PairPoint,
    RngStream,
    analytic_bound,
    concentration,
    make_box,
    run_single_volume,
    stollmann_mc,
    trial_values,
    verify_dm_eigenvalues,
)
from wegner2p.stollmann import (
    coordinate_max,
    coordinate_sum,
    single_coordinate,
)

from dm_reference import check_dm_function

U = DistributionSpec.uniform(0.0, 1.0)
BOX = make_box(PairPoint.of((0,), (0,)), 1)
SPEC = HamiltonianSpec(BOX, InteractionSpec.zero(1), 1.0)
SUM2 = coordinate_sum(2)
FIELD = np.full(3, 0.5)


def rng():
    return RngStream(1, 0)


def spectrum(**changes):
    base = {
        "dimension": 1,
        "radius": 1,
        "center": [[0], [2]],
        "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "master_seed": 7,
    }
    return "spectrum", {**base, **changes}


def single(**changes):
    base = {
        "dimension": 1,
        "radius": 1,
        "center": [[0], [0]],
        "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "energy": 0.0,
        "epsilon": 0.01,
        "trials": 10,
        "master_seed": 1,
    }
    return "wegner-single", {**base, **changes}


def stollmann(function=None, **changes):
    base = {
        "function": function or {"form": "sum", "arity": 1},
        "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "interval": [0.25, 0.5],
        "trials": 2000,
        "master_seed": 1,
    }
    return "stollmann-check", {**base, **changes}


def dm_eigenvalues(**changes):
    base = {
        "dimension": 1,
        "radius": 1,
        "center": [[0], [0]],
        "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "trials": 5,
        "master_seed": 1,
    }
    return "dm-check", {**base, **changes}


# (case, field, kind, library call of the value, config holding it or None)
CASES = [
    ("uniform-lo", "lo", "real",
     lambda v: DistributionSpec(kind="uniform", lo=v, hi=1.0),
     lambda v: spectrum(dist={"kind": "uniform", "lo": v, "hi": 1.0})),
    ("uniform-hi", "hi", "real",
     lambda v: DistributionSpec(kind="uniform", lo=0.0, hi=v),
     lambda v: spectrum(dist={"kind": "uniform", "lo": 0.0, "hi": v})),
    ("atom-value", "atom value", "real",
     lambda v: DistributionSpec(kind="discrete", atoms=((v, 1.0),)),
     lambda v: spectrum(dist={"kind": "discrete", "atoms": [[v, 1.0]]})),
    ("atom-weight", "atom weight", "real",
     lambda v: DistributionSpec(kind="discrete", atoms=((0.0, v),)),
     lambda v: spectrum(dist={"kind": "discrete", "atoms": [[0.0, v]]})),
    ("interaction-energy", "interaction energy", "real",
     lambda v: InteractionSpec({0: v}, r_max=1),
     lambda v: spectrum(interaction={"entries": [[0, v]], "r_max": 1})),
    ("interaction-r_max", "r_max", "integer",
     lambda v: InteractionSpec({}, r_max=v),
     lambda v: spectrum(interaction={"entries": [], "r_max": v})),
    ("coupling", "coupling", "real",
     lambda v: HamiltonianSpec(BOX, InteractionSpec.zero(1), v),
     lambda v: spectrum(coupling=v)),
    ("experiment-epsilon", "epsilon", "real",
     lambda v: ExperimentConfig(SPEC, U, v, 10, 1, energy=0.0),
     lambda v: single(epsilon=v)),
    ("experiment-energy", "energy", "real",
     lambda v: ExperimentConfig(SPEC, U, 0.01, 10, 1, energy=v),
     lambda v: single(energy=v)),
    ("interval-lower", "interval", "real",
     lambda v: IntervalSpec(v, 1.0),
     lambda v: stollmann(interval=[v, 1.0])),
    ("interval-upper", "interval", "real",
     lambda v: IntervalSpec(0.0, v),
     lambda v: stollmann(interval=[0.0, v])),
    ("stollmann_mc-trials", "trials", "integer",
     lambda v: stollmann_mc(SUM2, U, IntervalSpec(0.0, 1.0), v, rng()),
     lambda v: stollmann(trials=v)),
    ("check_dm_function-samples", "samples", "integer",
     lambda v: check_dm_function(SUM2, (0.0, 1.0), v, rng()),
     None),
    ("check_dm_function-tolerance", "tolerance", "real",
     lambda v: check_dm_function(SUM2, (0.0, 1.0), 10, rng(), tolerance=v),
     None),
    ("check_dm_function-domain", "domain", "real",
     lambda v: check_dm_function(SUM2, (0.0, v), 10, rng()),
     None),
    ("verify_dm_eigenvalues-trials", "trials", "integer",
     lambda v: verify_dm_eigenvalues(SPEC, FIELD, v, rng()),
     lambda v: dm_eigenvalues(trials=v)),
    ("DMFunctionSpec-arity", "arity", "integer",
     lambda v: DMFunctionSpec(v, lambda V: V[:, 0]),
     None),
    ("coordinate_sum-p", "arity", "integer",
     coordinate_sum,
     lambda v: stollmann({"form": "sum", "arity": v})),
    ("coordinate_max-p", "arity", "integer",
     coordinate_max,
     lambda v: stollmann({"form": "max", "arity": v})),
    ("single_coordinate-p", "arity", "integer",
     single_coordinate,
     lambda v: stollmann({"form": "coordinate", "arity": v})),
    ("trial_values-round_index", "round_index", "integer",
     lambda v: trial_values(U, 1, v, 1, 1, 3),
     None),
    ("trial_values-first", "first", "integer",
     lambda v: trial_values(U, 1, 0, v, 2, 3),
     None),
    ("trial_values-last", "last", "integer",
     lambda v: trial_values(U, 1, 0, 1, v, 3),
     None),
    ("trial_values-n_free", "n_free", "integer",
     lambda v: trial_values(U, 1, 0, 1, 1, v),
     None),
    ("concentration-eps", "eps", "real",
     lambda v: concentration(U, v),
     None),
    ("analytic_bound-epsilon", "epsilon", "real",
     lambda v: analytic_bound([BOX], BOX, U, v),
     lambda v: single(epsilon=v)),
    ("analytic_bound-coupling", "coupling", "real",
     lambda v: analytic_bound([BOX], BOX, U, 1e-3, coupling=v, bound_mode="eps_over_g"),
     lambda v: single(coupling=v, bound_mode="eps_over_g")),
]

BAD = {"real": ["0.5", True, math.nan, math.inf], "integer": [1.5, True, "1"]}
MESSAGE = {
    "real": "{} must be a real number, got {!r}",
    "integer": "{} must be an integer, got {!r}",
}


def _cases(with_config: bool):
    """(field, kind, call or config, value) for each case and bad value; a
    config cannot hold NaN or an infinity, the config reader refuses them."""
    for case, field, kind, call, config in CASES:
        target = config if with_config else call
        for value in BAD[kind] if target is not None else []:
            if not (with_config and isinstance(value, float) and not math.isfinite(value)):
                yield pytest.param(field, kind, target, value, id=f"{case}-{value!r}")


@pytest.mark.parametrize("field, kind, call, value", _cases(with_config=False))
def test_library_call_refuses_the_value_naming_the_field(field, kind, call, value):
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == MESSAGE[kind].format(field, value)


@pytest.mark.parametrize("field, kind, config, value", _cases(with_config=True))
def test_config_with_the_value_prints_the_library_message(
    field, kind, config, value, tmp_path, capsys
):
    command, data = config(value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert cli.main([command, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {MESSAGE[kind].format(field, value)}\n")


class _NoDraws:
    def generator(self):
        raise AssertionError("drew before checking the tolerance")


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda v, r: check_dm_function(SUM2, (0.0, 1.0), 10, r, tolerance=v),
            id="check_dm_function",
        ),
    ],
)
def test_negative_tolerance_is_refused_before_any_draw(call):
    # the tests' DM sampler takes a tolerance; the eigenvalue check has a fixed one
    with pytest.raises(ValueError) as err:
        call(-1, _NoDraws())
    assert str(err.value) == "tolerance must be nonnegative"
    assert call(0, rng()).tolerance == 0.0


@pytest.mark.parametrize(
    "call, changes",
    [
        pytest.param(
            lambda: analytic_bound([BOX], BOX, U, 1e308),
            {"epsilon": 1e308},
            id="two_eps-epsilon-1e308",
        ),
        pytest.param(
            lambda: analytic_bound([BOX], BOX, U, 0.01, coupling=1e-320, bound_mode="eps_over_g"),
            {"coupling": 1e-320, "bound_mode": "eps_over_g"},
            id="eps_over_g-coupling-1e-320",
        ),
    ],
)
def test_a_window_that_overflows_is_refused_naming_the_overflow(call, changes, tmp_path, capsys):
    # epsilon and coupling are finite, but 2*eps or 2*eps/(g*k) is not
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == "window width overflows a float"
    command, data = single(**changes)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert cli.main([command, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: window width overflows a float\n")


def test_numpy_and_integral_values_are_stored_as_python_numbers():
    law = DistributionSpec(kind="uniform", lo=np.float32(0.5), hi=np.int64(2))
    assert (law.lo, law.hi) == (0.5, 2.0) and type(law.lo) is type(law.hi) is float
    assert IntervalSpec(np.int64(0), 1).lower == 0.0
    assert DMFunctionSpec(np.int64(2), lambda V: V[:, 0]).arity == 2
    assert coordinate_max(np.int64(3)).name == "max_p3"
    assert single_coordinate(2.0)(np.array([0.25, 0.75])) == 0.25
    assert single_coordinate(np.int8(3)).name == "coordinate0_p3"
    assert stollmann_mc(SUM2, U, IntervalSpec(0.5, 1.0), 2000.0, rng()).bound == 1.0
    np.testing.assert_array_equal(
        trial_values(U, np.uint8(1), 0.0, 1.0, np.int64(2), 3.0), trial_values(U, 1, 0, 1, 2, 3)
    )


def test_numpy_r_max_echoes_an_int_and_its_report_is_written(tmp_path):
    interaction = InteractionSpec({1: 0.5}, r_max=np.int64(2))
    assert interaction.to_dict() == {"entries": [[1, 0.5]], "r_max": 2}
    assert type(interaction.r_max) is int
    spec = HamiltonianSpec(BOX, interaction, np.float64(1.0))
    config = ExperimentConfig(spec, U, np.float64(0.01), np.int64(50), 3, energy=np.int64(0))
    out = tmp_path / "report.json"
    cli.write_report(dataclasses.asdict(run_single_volume(config)), out=str(out))
    echo = json.loads(out.read_text())["config"]
    assert echo["interaction"] == {"entries": [[1, 0.5]], "r_max": 2}
    assert (echo["coupling"], echo["epsilon"], echo["energy"]) == (1.0, 0.01, 0.0)
