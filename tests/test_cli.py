"""Command line behaviour: configs in, reports out, exit codes."""

import argparse
import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import asdict
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path

import numpy as np
import pytest

import wegner2p.cli as cli
import wegner2p.experiments as experiments
import wegner2p.hamiltonian as hamiltonian
import wegner2p.lattice as lattice
from wegner2p import (
    DMFunctionSpec,
    DistributionSpec,
    ExperimentConfig,
    HamiltonianSpec,
    HamiltonianTemplate,
    InteractionSpec,
    PairPoint,
    RngStream,
    __version__,
    _version,
    check_dm_function,
    make_box,
    run_single_volume,
    sample_field,
)


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_loads(text):
    """Parse a report as strict JSON: NaN and the infinities are refused."""
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SINGLE_CFG = {
    "dimension": 1,
    "radius": 1,
    "center": [[0], [0]],
    "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
    "energy": 0.0,
    "epsilon": 0.05,
    "trials": 60,
    "master_seed": 4001,
}

TWO_CFG = {
    "dimension": 1,
    "radius": 1,
    "center": [[0], [0]],
    "center_prime": [[100], [100]],
    "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
    "epsilon": 0.05,
    "trials": 40,
    "conditioning_rounds": 2,
    "master_seed": 4002,
}

HAM_CFG = {
    "dimension": 1,
    "radius": 1,
    "center": [[0], [2]],
    "interaction": {"entries": [[0, 1.0], [1, 0.5]]},
    "coupling": 1.0,
    "hopping_norm": "sup",
    "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
    "master_seed": 4003,
}


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "subcommand" in err


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1


def test_missing_config_flag(capsys):
    code, _, err = run_cli(capsys, "wegner-single")
    assert code == 1


def test_build_hamiltonian_is_an_unknown_subcommand(tmp_path, capsys):
    # the full-matrix dump is gone; spectrum and the library cover inspection
    cfg = write_config(tmp_path, "h.json", HAM_CFG)
    code, out, err = run_cli(capsys, "build-hamiltonian", "--config", cfg)
    assert (code, out) == (1, "")
    assert "error: argument command: invalid choice: 'build-hamiltonian'" in err


def test_bad_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "wegner-single", "--config", str(path))
    assert code == 1
    assert "JSON" in err


def test_non_object_config(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, _, err = run_cli(capsys, "wegner-single", "--config", str(path))
    assert code == 1


def test_nonexistent_config(capsys):
    code, _, err = run_cli(capsys, "wegner-single", "--config", "/no/such/file.json")
    assert code == 1


def test_unknown_config_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {**SINGLE_CFG, "misterious": 1})
    code, _, err = run_cli(capsys, "wegner-single", "--config", cfg)
    assert code == 1
    assert "unknown keys" in err


@pytest.mark.parametrize(
    "command, flag, value", [("geometry-classify", "--seed", "5"), ("spectrum", "--threads", "2")]
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(tmp_path, capsys, command, flag, value):
    # only the handlers that read --seed or --threads register them
    cfg = write_config(tmp_path, "c.json", HAM_CFG)
    code, out, err = run_cli(capsys, command, "--config", cfg, flag, value)
    assert code == 1
    assert out == ""
    assert f"error: unrecognized arguments: {flag} {value}" in err


def test_version_and_help(capsys):
    assert run_cli(capsys, "--version")[0] == 0
    assert run_cli(capsys, "--help")[0] == 0


# ---------------------------------------------------------------------------
# geometry-classify
# ---------------------------------------------------------------------------


def test_geometry_classify_json(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "g.json",
        {"dimension": 1, "radius": 1, "center": [[0], [0]], "center_prime": [[9], [20]]},
    )
    code, out, _ = run_cli(capsys, "geometry-classify", "--config", cfg)
    assert code == 0
    payload = strict_loads(out)
    assert payload["kind"] == "geometry"
    assert payload["separation_classes"] == [
        "completely_separated",
        "second_particle1_isolated",
        "second_particle2_isolated",
    ]
    assert payload["bound_choice"] == "condition_on_second"


def test_geometry_classify_csv(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "g.json",
        {"dimension": 1, "radius": 1, "center": [[0], [0]], "center_prime": [[100], [100]]},
    )
    code, out, _ = run_cli(capsys, "geometry-classify", "--config", cfg, "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["separation_class", "completely_separated"]


def test_geometry_classify_rejects_close_centres(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "g.json",
        {"dimension": 1, "radius": 1, "center": [[0], [0]], "center_prime": [[7], [0]]},
    )
    code, _, err = run_cli(capsys, "geometry-classify", "--config", cfg)
    assert code == 1


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def expected_matrix():
    spec = HamiltonianSpec(
        box=make_box(PairPoint.of((0,), (2,)), 1),
        interaction=InteractionSpec({0: 1.0, 1: 0.5}, r_max=1),
        coupling=1.0,
        hopping_norm="sup",
    )
    template = HamiltonianTemplate(spec)
    values = sample_field(
        template.sites, DistributionSpec.uniform(0.0, 1.0), RngStream(4003, 0)
    )
    return template, template.assemble_values(values)


def test_spectrum_matches_matrix(tmp_path, capsys):
    cfg = write_config(tmp_path, "h.json", HAM_CFG)
    code, out, _ = run_cli(capsys, "spectrum", "--config", cfg)
    assert code == 0
    payload = strict_loads(out)
    _, matrix = expected_matrix()
    want = np.linalg.eigvalsh(matrix)
    assert np.allclose(payload["eigenvalues"], want, atol=1e-14)
    assert payload["source_dim"] == 9
    diffs = np.diff(payload["eigenvalues"])
    assert np.all(diffs >= 0)


def test_spectrum_csv_rows(tmp_path, capsys):
    # one index,eigenvalue row per eigenvalue, each the JSON report's value
    cfg = write_config(tmp_path, "h.json", HAM_CFG)
    code, out, _ = run_cli(capsys, "spectrum", "--config", cfg)
    assert code == 0
    eigenvalues = strict_loads(out)["eigenvalues"]
    code, out, _ = run_cli(capsys, "spectrum", "--config", cfg, "--format", "csv")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "index,eigenvalue"
    assert rows[1:] == [f"{i},{v!r}" for i, v in enumerate(eigenvalues)]
    assert len(rows) == 1 + 9


def test_interaction_cutoff_beyond_dimension_needs_r_max(tmp_path, capsys):
    # an entry at distance 2 exceeds the d=1 default cutoff unless r_max says so
    bad = {**HAM_CFG, "interaction": {"entries": [[2, 0.5]]}}
    cfg = write_config(tmp_path, "h.json", bad)
    code, out, _ = run_cli(capsys, "spectrum", "--config", cfg)
    assert code == 0  # cutoff stretches to cover the table
    explicit = {**HAM_CFG, "interaction": {"entries": [[2, 0.5]], "r_max": 1}}
    cfg = write_config(tmp_path, "h2.json", explicit)
    code, _, err = run_cli(capsys, "spectrum", "--config", cfg)
    assert code == 1
    assert "cutoff" in err


# ---------------------------------------------------------------------------
# wegner-single
# ---------------------------------------------------------------------------


DIST_KEYS = ("hits", "dist_min", "dist_mean", "dist_max", "dist_digest")


def test_wegner_single_json_report(tmp_path, capsys):
    cfg = write_config(tmp_path, "w.json", SINGLE_CFG)
    code, out, _ = run_cli(capsys, "wegner-single", "--config", cfg)
    assert code == 0
    payload = strict_loads(out)
    assert payload["kind"] == "single_volume"
    assert payload["verdict"] == "holds"
    assert payload["trials"] == 60
    assert not any(isinstance(v, list) for v in payload.values())  # no per-trial array
    assert payload["config"]["master_seed"] == 4001
    # parsed floats and the digest of every trial match the in-memory run
    report = run_single_volume(ExperimentConfig.from_dict(SINGLE_CFG))
    assert {k: payload[k] for k in DIST_KEYS} == {k: getattr(report, k) for k in DIST_KEYS}
    assert payload["analytic_bound"] == report.analytic_bound


def test_wegner_single_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path, "w.json", SINGLE_CFG)
    code, out, _ = run_cli(capsys, "wegner-single", "--config", cfg, "--seed", "99")
    assert code == 0
    payload = strict_loads(out)
    assert payload["config"]["master_seed"] == 99
    assert not any(isinstance(v, list) for v in payload.values())  # no per-trial array
    report = run_single_volume(
        ExperimentConfig.from_dict({**SINGLE_CFG, "master_seed": 99})
    )
    assert {k: payload[k] for k in DIST_KEYS} == {k: getattr(report, k) for k in DIST_KEYS}


def test_wegner_single_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, "w.json", SINGLE_CFG)
    code, out, _ = run_cli(capsys, "wegner-single", "--config", cfg, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "field,value"
    rows = dict(line.split(",", 1) for line in lines[1:])
    report = run_single_volume(ExperimentConfig.from_dict(SINGLE_CFG))
    assert rows["hits"] == str(report.hits)
    assert rows["dist_digest"] == report.dist_digest


def test_wegner_single_out_file_and_threads_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, "w.json", {**SINGLE_CFG, "trials": 2100})
    out1 = tmp_path / "t1.json"
    out4 = tmp_path / "t4.json"
    code1, _, _ = run_cli(
        capsys, "wegner-single", "--config", cfg, "--out", str(out1), "--threads", "1"
    )
    code4, _, _ = run_cli(
        capsys, "wegner-single", "--config", cfg, "--out", str(out4), "--threads", "4"
    )
    assert code1 == code4 == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_wegner_single_violation_exits_2(tmp_path, capsys):
    # no disorder, window around a real eigenvalue: hit every time while the
    # stated ceiling stays small, so the report must say violated
    violated = {
        **SINGLE_CFG,
        "coupling": 0.0,
        "hopping_norm": "l1",
        "epsilon": 1e-3,
        "trials": 120,
    }
    cfg = write_config(tmp_path, "v.json", violated)
    code, out, _ = run_cli(capsys, "wegner-single", "--config", cfg)
    assert code == 2
    payload = strict_loads(out)
    assert payload["verdict"] == "violated"
    assert payload["empirical_probability"] == 1.0


def test_wegner_single_rejects_trials_beyond_index_range(tmp_path, capsys, monkeypatch):
    # trial indices are 32-bit; the config is refused before any trial runs
    def must_not_run(config):
        raise AssertionError("the experiment started")

    monkeypatch.setattr(cli, "run_single_volume", must_not_run)
    cfg = write_config(tmp_path, "big.json", {**SINGLE_CFG, "trials": 2**32})
    code, out, err = run_cli(capsys, "wegner-single", "--config", cfg)
    assert code == 1
    assert out == ""
    assert err.startswith("error: trials must be below 2**32")


def test_wegner_single_rejects_two_volume_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "w.json", TWO_CFG)
    code, _, err = run_cli(capsys, "wegner-single", "--config", cfg)
    assert code == 1


# ---------------------------------------------------------------------------
# wegner-two
# ---------------------------------------------------------------------------


def test_wegner_two_json_report(tmp_path, capsys):
    cfg = write_config(tmp_path, "w2.json", TWO_CFG)
    code, out, _ = run_cli(capsys, "wegner-two", "--config", cfg)
    assert code == 0
    payload = strict_loads(out)
    assert payload["kind"] == "two_volume"
    assert payload["separation_classes"] == ["completely_separated"]
    assert payload["bound_choice"] == "condition_on_second"
    assert len(payload["rounds"]) == 2
    assert payload["verdict"] == "holds"


def test_wegner_two_csv_rows(tmp_path, capsys):
    cfg = write_config(tmp_path, "w2.json", TWO_CFG)
    code, out, _ = run_cli(capsys, "wegner-two", "--config", cfg, "--format", "csv")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 3  # header plus one row per round
    assert rows[0] == (
        "round_index,frozen_digest,trials,hits,empirical_probability,"
        "std_error,verdict,dist_min,dist_mean,dist_max,dist_digest"
    )
    assert all(len(row.split(",")) == 11 for row in rows)


def test_wegner_two_rejects_single_volume_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "w2.json", SINGLE_CFG)
    code, _, err = run_cli(capsys, "wegner-two", "--config", cfg)
    assert code == 1


def test_runtime_invariant_failure_exits_2(tmp_path, capsys, monkeypatch):
    # a dichotomy failure inside the runner must surface as exit 2
    def boom(config):
        raise RuntimeError("separation dichotomy failed")

    monkeypatch.setattr(cli, "run_two_volume", boom)
    cfg = write_config(tmp_path, "w2.json", TWO_CFG)
    code, _, err = run_cli(capsys, "wegner-two", "--config", cfg)
    assert code == 2
    assert "invariant violated" in err


# ---------------------------------------------------------------------------
# stollmann-check and dm-check
# ---------------------------------------------------------------------------


STOLLMANN_EXACT_CFG = {
    "function": {"form": "sum", "arity": 1},
    "dist": {
        "kind": "discrete",
        "atoms": [[0.0, 0.25], [1.0, 0.25], [2.0, 0.25], [3.0, 0.25]],
    },
    "interval": [0.5, 1.5],
}


def test_stollmann_exact_identity(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", STOLLMANN_EXACT_CFG)
    code, out, _ = run_cli(capsys, "stollmann-check", "--config", cfg)
    assert code == 0
    payload = strict_loads(out)
    assert payload["probability"] == 0.25
    assert payload["bound"] == 0.25
    assert payload["holds"] is True


@pytest.mark.parametrize(
    "extra, argv",
    [({"trials": 5}, []), ({"master_seed": 3}, []), ({}, ["--seed", "3"])],
    ids=["trials", "master_seed", "seed-flag"],
)
def test_stollmann_exact_refuses_what_only_sampling_reads(tmp_path, capsys, extra, argv):
    # exact mode enumerates the law's atoms and draws nothing, so a trial
    # count or a seed would be read by no one: each is a config error
    cfg = write_config(tmp_path, "s.json", {**STOLLMANN_EXACT_CFG, **extra})
    code, out, err = run_cli(capsys, "stollmann-check", "--config", cfg, *argv)
    assert (code, out) == (1, "")
    assert err == "error: exact mode draws nothing: it takes no trials, master_seed or --seed\n"


def test_stollmann_mc_mode(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "s.json",
        {
            "function": {"form": "max", "arity": 3},
            "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            "interval": [0.5, 0.6],
            "mode": "mc",
            "trials": 5000,
            "master_seed": 11,
        },
    )
    code, out, _ = run_cli(capsys, "stollmann-check", "--config", cfg)
    assert code == 0
    payload = strict_loads(out)
    assert payload["kind"] == "stollmann_mc"
    assert payload["holds_within_3sigma"] is True
    assert 0.0 <= payload["estimate"] <= 1.0


def test_stollmann_mc_requires_trials(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "s.json",
        {
            "function": {"form": "max", "arity": 3},
            "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            "interval": [0.5, 0.6],
            "mode": "mc",
        },
    )
    code, _, err = run_cli(capsys, "stollmann-check", "--config", cfg)
    assert code == 1


@pytest.mark.parametrize(
    "extra, error",
    [
        ({"mode": "layers"}, "unknown mode 'layers'; pick exact or mc"),
        ({"grid": [k / 10 for k in range(11)]}, "unknown keys in stollmann config: ['grid']"),
    ],
    ids=["layers-mode", "grid-key"],
)
def test_stollmann_layer_set_config_exits_1(tmp_path, capsys, extra, error):
    # the grid check of the proof's layer sets is gone: its mode and its grid
    # key are config errors, and the error names the modes that remain
    cfg = write_config(tmp_path, "s.json", {**STOLLMANN_MC_CFG, **extra})
    code, out, err = run_cli(capsys, "stollmann-check", "--config", cfg)
    assert (code, out) == (1, "")
    assert err == f"error: {error}\n"


def test_dm_check_function_target(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "d.json",
        {
            "function": {"form": "linear", "coeffs": [0.5, 0.75]},
            "domain": [-1.0, 1.0],
            "samples": 300,
            "master_seed": 3,
        },
    )
    code, out, _ = run_cli(capsys, "dm-check", "--config", cfg)
    assert code == 0
    payload = strict_loads(out)
    assert payload["kind"] == "dm_check"
    assert payload["passed"] is True
    assert payload["checks"] == 300


def test_dm_check_eigenvalue_target(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "d.json",
        {
            "target": "eigenvalues",
            "dimension": 1,
            "radius": 1,
            "center": [[0], [0]],
            "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            "trials": 40,
            "master_seed": 5,
            "coupling": 2.0,
        },
    )
    code, out, _ = run_cli(capsys, "dm-check", "--config", cfg)
    assert code == 0
    payload = strict_loads(out)
    assert payload["passed"] is True
    assert payload["worst_diagonal_defect"] <= payload["tolerance"]


def test_dm_check_eigenvalue_target_builds_one_template(tmp_path, capsys, monkeypatch):
    built = []
    init = HamiltonianTemplate.__init__

    def counting_init(self, spec):
        built.append(spec)
        init(self, spec)

    monkeypatch.setattr(HamiltonianTemplate, "__init__", counting_init)
    cfg = write_config(tmp_path, "d.json", {**DM_EIG_CFG, "center": [[0], [3]]})
    code, out, _ = run_cli(capsys, "dm-check", "--config", cfg)
    assert code == 0 and strict_loads(out)["passed"] is True
    assert len(built) == 1


def test_cli_field_draws_are_pinned(tmp_path, capsys):
    # The CLI's field is substream (seed, 0) drawn over the sorted sites; the
    # expected values are derived here with numpy alone, not with the library.
    def draws(seed, stream, n):
        return np.random.default_rng(np.random.SeedSequence((seed, stream))).uniform(0.0, 1.0, n)

    # On a one-point box the particles sit at 3 and 0, so the operator is the
    # 1x1 matrix U(3) + g (V(3) + V(0)), with the field drawn over the sites
    # (0,) and (3,) in that order.
    g, u3, seed = 1.5, 0.25, 21
    point = {
        "dimension": 1,
        "radius": 0,
        "center": [[3], [0]],
        "interaction": {"entries": [[3, u3]]},
        "coupling": g,
        "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "master_seed": seed,
    }
    box = make_box(PairPoint.of((3,), (0,)), 0)
    template = HamiltonianTemplate(HamiltonianSpec(box, InteractionSpec({3: u3}, r_max=3), g))
    assert template.sites == [(0,), (3,)]
    values = draws(seed, 0, 2)
    base = u3 + g * (values[1] + values[0])
    code, out, _ = run_cli(capsys, "spectrum", "--config", write_config(tmp_path, "h.json", point))
    assert code == 0
    assert strict_loads(out)["eigenvalues"] == [base]

    # dm-check on the same box replays by hand; tolerance -1 makes every
    # trial a witness.
    dm = {**point, "target": "eigenvalues", "trials": 4, "tolerance": -1.0}
    code, out, _ = run_cli(capsys, "dm-check", "--config", write_config(tmp_path, "d.json", dm))
    assert code == 2
    payload = strict_loads(out)
    gen = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    witnesses = []
    for k in range(4):
        t = 10.0 * (1.0 - gen.random())
        shift_err = abs(u3 + g * ((values[1] + t) + (values[0] + t)) - base - 2.0 * g * t)
        shift_err /= 1.0 + abs(base)
        site = int(gen.integers(2))
        bump = 10.0 * (1.0 - gen.random())
        bumped = values.copy()
        bumped[site] += bump
        mono = base - (u3 + g * (bumped[1] + bumped[0]))
        witnesses.append(
            {
                "trial": k,
                "t": t,
                "site": [[0], [3]][site],
                "bump": bump,
                "shift_error": shift_err,
                "monotonicity_gap": mono,
            }
        )
    assert payload["witnesses"] == witnesses
    assert payload["worst_diagonal_defect"] == max(w["shift_error"] for w in witnesses)
    assert payload["worst_monotonicity_violation"] == max(
        w["monotonicity_gap"] for w in witnesses
    )


def test_non_finite_report_is_refused_and_writes_nothing(tmp_path):
    # a function that is NaN everywhere fails the check with NaN and -inf in
    # its report, which strict JSON cannot carry
    nan_everywhere = DMFunctionSpec(1, lambda V: np.full(len(V), np.nan))
    report = check_dm_function(nan_everywhere, (0.0, 1.0), 100, RngStream(0, 0))
    out = tmp_path / "dm.json"
    with pytest.raises(ValueError):
        cli.write_report({"kind": "dm_check", **asdict(report)}, "json", str(out))
    assert not out.exists()


DM_EIG_CFG = {
    "target": "eigenvalues",
    "dimension": 1,
    "radius": 1,
    "center": [[0], [0]],
    "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
    "trials": 5,
    "master_seed": 5,
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "dist",
    [
        {"kind": "discrete", "atoms": [[0.5, 0.25], [1e308, 0.75]]},
        {"kind": "uniform", "lo": 1.5e308, "hi": 1.7e308},
    ],
    ids=["atom-1e308", "uniform-1.5e308"],
)
def test_dm_check_on_an_overflowing_field_names_the_cause(tmp_path, capsys, dist):
    # g (V(x1) + V(x2)) overflows on the sampled field: the command exits 1
    # with one error line naming the cause, and numpy warns of nothing (any
    # warning fails this test)
    cfg = write_config(tmp_path, "d.json", {**DM_EIG_CFG, "dist": dist})
    code, out, err = run_cli(capsys, "dm-check", "--config", cfg)
    assert (code, out) == (1, "")
    assert err == "error: base field: a field value overflows the operator diagonal\n"


def test_uniform_law_whose_width_overflows_exits_1(tmp_path, capsys):
    # lo and hi are finite but hi - lo is not: the law is refused when the
    # config is parsed, before any draw
    dist = {"kind": "uniform", "lo": -1.7e308, "hi": 1.7e308}
    cfg = write_config(tmp_path, "wide.json", {**HAM_CFG, "dist": dist})
    code, out, err = run_cli(capsys, "spectrum", "--config", cfg)
    assert (code, out) == (1, "")
    assert err == "error: uniform width hi - lo overflows a float\n"


# every subcommand that builds an operator, its config, and the name the
# overflow error gives the first field it assembles
OPERATOR_COMMANDS = {
    "wegner-single": (SINGLE_CFG, "trial 1"),
    "wegner-two": (TWO_CFG, "round 1 frozen field"),
    "spectrum": (HAM_CFG, "field"),
    "dm-check": (DM_EIG_CFG, "base field"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", list(OPERATOR_COMMANDS))
def test_overflowing_field_exits_1_naming_the_field(tmp_path, capsys, command):
    # HamiltonianTemplate.assemble_values refuses the field, so every
    # subcommand gives the same config error, and numpy warns of nothing
    base, label = OPERATOR_COMMANDS[command]
    dist = {"kind": "uniform", "lo": 1.5e308, "hi": 1.7e308}
    cfg = write_config(tmp_path, "over.json", {**base, "dist": dist})
    code, out, err = run_cli(capsys, command, "--config", cfg)
    assert (code, out) == (1, "")
    assert err == f"error: {label}: a field value overflows the operator diagonal\n"


@pytest.mark.parametrize("command", list(OPERATOR_COMMANDS))
def test_box_over_the_batch_budget_exits_1_before_any_matrix(
    tmp_path, capsys, monkeypatch, command
):
    # one 25x25 matrix is over the limit: HamiltonianSpec refuses the box
    # when the config is parsed, so no Kronecker product is formed and
    # wegner-two builds no cube's point set
    def must_not_build(*args):
        raise AssertionError("a Kronecker product was formed")

    def must_not_enumerate(*args):
        raise AssertionError("a cube's point set was built")

    monkeypatch.setattr(hamiltonian, "_MATRIX_BYTES", 8 * 25**2 - 1)
    monkeypatch.setattr(hamiltonian, "reduce", must_not_build)
    if command == "wegner-two":
        monkeypatch.setattr(lattice, "_cube_point_set", must_not_enumerate)
    base, _ = OPERATOR_COMMANDS[command]
    cfg = write_config(tmp_path, "big.json", {**base, "radius": 2})  # m=25
    code, out, err = run_cli(capsys, command, "--config", cfg)
    assert (code, out) == (1, "")
    assert err.startswith("error: one 25x25 matrix takes") and err.count("\n") == 1


GEO_CFG = {"dimension": 1, "radius": 1, "center": [[0], [0]], "center_prime": [[100], [100]]}

STOLLMANN_MC_CFG = {
    "function": {"form": "max", "arity": 3},
    "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
    "interval": [0.5, 0.6],
    "mode": "mc",
    "trials": 5000,
    "master_seed": 11,
}

DM_FN_CFG = {
    "function": {"form": "sum", "arity": 2},
    "domain": [0.0, 1.0],
    "samples": 10,
    "master_seed": 3,
}


@pytest.mark.parametrize(
    "command, base, bad",
    [
        ("wegner-single", SINGLE_CFG, {"center": 5}),
        ("wegner-single", SINGLE_CFG, {"interaction": 5}),
        ("wegner-two", TWO_CFG, {"center_prime": 7}),
        ("spectrum", HAM_CFG, {"radius": None}),
        ("spectrum", HAM_CFG, {"coupling": [1.0]}),
        ("dm-check", DM_EIG_CFG, {"radius": None}),
        ("dm-check", DM_EIG_CFG, {"center": [5, 6]}),
        ("geometry-classify", GEO_CFG, {"radius": None}),
        ("spectrum", HAM_CFG, {"dist": None}),
        ("spectrum", HAM_CFG, {"dist": {"kind": "uniform", "lo": None, "hi": 1.0}}),
        ("stollmann-check", STOLLMANN_MC_CFG, {"trials": None}),
        ("stollmann-check", STOLLMANN_MC_CFG, {"master_seed": None}),
        ("stollmann-check", STOLLMANN_MC_CFG, {"function": {"form": "sum", "arity": None}}),
        ("stollmann-check", STOLLMANN_MC_CFG, {"interval": [0.5, None]}),
        ("dm-check", DM_FN_CFG, {"samples": None}),
    ],
    ids=[
        "single-center",
        "single-interaction",
        "two-center_prime",
        "hamiltonian-radius",
        "spectrum-coupling",
        "dm-radius",
        "dm-center",
        "geometry-radius",
        "hamiltonian-dist",
        "spectrum-uniform-lo",
        "stollmann-trials",
        "stollmann-master_seed",
        "stollmann-arity",
        "stollmann-interval",
        "dm-samples",
    ],
)
def test_wrongly_typed_hamiltonian_values_exit_1(tmp_path, capsys, command, base, bad):
    cfg = write_config(tmp_path, "bad.json", {**base, **bad})
    code, out, err = run_cli(capsys, command, "--config", cfg)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "command, base, bad, error",
    [
        ("wegner-single", SINGLE_CFG, {"radius": 2.7}, "radius must be an integer, got 2.7"),
        ("wegner-single", SINGLE_CFG, {"trials": True}, "trials must be an integer, got True"),
        ("wegner-single", SINGLE_CFG, {"master_seed": 7.9}, "master_seed must be an integer"),
        ("wegner-single", SINGLE_CFG, {"trials": "200"}, "trials must be an integer, got '200'"),
        ("wegner-single", SINGLE_CFG, {"center": [[0.5], [0]]}, "site coordinate must be an"),
        ("wegner-two", TWO_CFG, {"conditioning_rounds": 1.5}, "conditioning_rounds must be"),
        ("spectrum", HAM_CFG, {"master_seed": 3.5}, "master_seed must be an integer"),
        ("spectrum", HAM_CFG, {"interaction": {"entries": [[0, 1.0]], "r_max": 1.5}}, "r_max must"),
        (
            "spectrum",
            HAM_CFG,
            {"interaction": {"entries": [[0, 1.0], [0, 2.0]]}},
            "interaction lists distance 0 twice",
        ),
        ("geometry-classify", GEO_CFG, {"radius": 1.5}, "radius must be an integer, got 1.5"),
        ("stollmann-check", STOLLMANN_MC_CFG, {"trials": 5000.5}, "trials must be an integer"),
        (
            "stollmann-check",
            STOLLMANN_MC_CFG,
            {"function": {"form": "max", "arity": 3.5}},
            "arity must be an integer, got 3.5",
        ),
        ("dm-check", DM_FN_CFG, {"samples": 10.5}, "samples must be an integer, got 10.5"),
        ("dm-check", DM_EIG_CFG, {"trials": 2.5}, "trials must be an integer, got 2.5"),
    ],
    ids=[
        "fractional-radius",
        "boolean-trials",
        "fractional-seed",
        "string-trials",
        "fractional-center",
        "fractional-rounds",
        "sampled-seed",
        "fractional-r_max",
        "repeated-distance",
        "geometry-radius",
        "stollmann-trials",
        "function-arity",
        "dm-samples",
        "dm-trials",
    ],
)
def test_integer_config_values_must_be_integers(tmp_path, capsys, command, base, bad, error):
    # each config once ran, truncating or casting the value; now it is refused
    cfg = write_config(tmp_path, "bad.json", {**base, **bad})
    code, out, err = run_cli(capsys, command, "--config", cfg)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert error in err


@pytest.mark.parametrize(
    "command, base, key, literal",
    [
        ("wegner-single", SINGLE_CFG, "trials", "Infinity"),
        ("wegner-single", SINGLE_CFG, "trials", "1e400"),
        ("wegner-single", SINGLE_CFG, "epsilon", "-Infinity"),
        ("spectrum", HAM_CFG, "radius", "1e400"),
        ("dm-check", DM_FN_CFG, "tolerance", "NaN"),
    ],
    ids=["single-inf", "single-1e400", "single-minus-inf", "spectrum-1e400", "dm-nan"],
)
def test_non_finite_config_numbers_exit_1(
    tmp_path, capsys, monkeypatch, command, base, key, literal
):
    # NaN, the infinities and literals overflowing a float are not strict
    # JSON; such a config is refused before any work starts
    def must_not_run(*args, **kwargs):
        raise AssertionError("the command started its work")

    for name in ("run_single_volume", "HamiltonianTemplate", "check_dm_function"):
        monkeypatch.setattr(cli, name, must_not_run)
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps({**base, key: "@"}).replace('"@"', literal))
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_dm_check_unknown_target(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {"target": "matrices"})
    code, _, err = run_cli(capsys, "dm-check", "--config", cfg)
    assert code == 1


def test_unknown_function_form(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "s.json",
        {
            "function": {"form": "median", "arity": 3},
            "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            "interval": [0.0, 1.0],
        },
    )
    code, _, err = run_cli(capsys, "stollmann-check", "--config", cfg)
    assert code == 1


# ---------------------------------------------------------------------------
# module and script entry points
# ---------------------------------------------------------------------------


def test_module_entry_point_runs(tmp_path):
    cfg = write_config(
        tmp_path,
        "g.json",
        {"dimension": 1, "radius": 1, "center": [[0], [0]], "center_prime": [[100], [100]]},
    )
    proc = subprocess.run(
        [sys.executable, "-m", "wegner2p.cli", "geometry-classify", "--config", cfg],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    assert strict_loads(proc.stdout)["separation_classes"] == ["completely_separated"]


@pytest.mark.parametrize(
    "command, extra",
    [
        ("wegner-single", {"energy": 0.5, "epsilon": 1e-3, "trials": 256}),
        (
            "wegner-two",
            {
                "center_prime": [[100], [100]],
                "epsilon": 1e-3,
                "trials": 64,
                "conditioning_rounds": 1,
            },
        ),
        ("spectrum", {"center": [[0], [1]]}),
        ("dm-check", {"target": "eigenvalues", "trials": 20}),
    ],
    ids=["wegner-single", "wegner-two", "spectrum", "dm-check"],
)
def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path, command, extra):
    # d=1, L=8: blocks of 153 and 136 rows, or one of 289 (the spectrum's
    # off-centre box, the two-volume run's frozen box and dm-check's
    # operator), where OpenBLAS rounds eigenvalues differently on one thread
    # and on two
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "dimension": 1,
            "radius": 8,
            "center": [[0], [0]],
            "dist": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            "master_seed": 7,
            **extra,
        },
    )
    reports = [
        subprocess.run(
            [sys.executable, "-m", "wegner2p.cli", command, "--config", cfg],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": n},
        )
        for n in ("1", "2")
    ]
    assert [r.returncode for r in reports] == [0, 0], [r.stderr for r in reports]
    assert reports[0].stdout == reports[1].stdout


def test_helper_that_dies_mid_run_exits_2_and_leaves_no_process(tmp_path, capsys, monkeypatch):
    # Every process but the caller dies at its first gap reduction: the run
    # fails as an invariant violation with one line, and the dead helper
    # has been reaped (a zombie would still answer signal 0).
    caller = os.getpid()
    died = tmp_path / "died"
    gaps = experiments.min_gaps_to_sorted

    def dying(*args):
        if os.getpid() != caller:
            died.write_text(str(os.getpid()))
            os._exit(3)
        return gaps(*args)

    monkeypatch.setattr(experiments, "min_gaps_to_sorted", dying)
    cfg = write_config(tmp_path, "c.json", {**SINGLE_CFG, "trials": 2100})  # three spans
    code, out, err = run_cli(capsys, "wegner-single", "--config", cfg, "--threads", "2")
    assert (code, out) == (2, "")
    assert err == "invariant violated: helper process 1 exited with code 3 before sending its spans\n"
    with pytest.raises(ProcessLookupError):
        os.kill(int(died.read_text()), 0)
    assert multiprocessing.active_children() == []


def test_console_script_version():
    """The declared ``wegner2p`` script starts the CLI; no install needed.

    The subprocess runs the same launcher that setuptools writes for a
    console script, with this interpreter and this ``sys.path``, so it tests
    the code under test rather than whatever is on ``PATH``.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no tomllib
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    declared = project["scripts"]["wegner2p"]
    ep = EntryPoint(name="wegner2p", value=declared, group="console_scripts")
    launcher = (
        "import sys\n"
        f"sys.path[:] = {sys.path!r}\n"
        f"from {ep.module} import {ep.attr.split('.')[0]}\n"
        "sys.argv[0] = 'wegner2p'\n"
        f"sys.exit({ep.attr}())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"wegner2p {__version__}\n"

    # The version string comes from _version.py; pyproject.toml must agree.
    assert project["version"] == _version.__version__

    # An installed copy, if any, must match the source tree.
    for installed in entry_points(group="console_scripts", name="wegner2p"):
        assert installed.value == declared
        assert installed.dist.version == __version__


def test_readme_command_block_lists_every_subcommand():
    # the README's command block shows one line per subcommand; adding or
    # removing a subcommand without updating it fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = [line.split()[1] for line in block.splitlines() if line.startswith("wegner2p ")]
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(documented) == sorted(subparsers.choices)
    assert len(documented) == len(set(documented))
