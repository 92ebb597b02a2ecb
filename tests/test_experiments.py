"""Single-volume and two-volume bound experiments: formulas, runners, replay."""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import re
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import wegner2p
import wegner2p.cli as cli
from wegner2p import (
    DistributionSpec,
    ExperimentConfig,
    HamiltonianSpec,
    HamiltonianTemplate,
    InteractionSpec,
    PairPoint,
    RngStream,
    SeparationClass,
    TwoVolumeBound,
    analytic_bound,
    make_box,
    run_single_volume,
    run_two_volume,
    spectra,
    trial_values,
)
from wegner2p import experiments, hamiltonian, lattice
from wegner2p.experiments import _RNG_BLOCK, _collect_distances, _span_rows, choose_bound
from wegner2p.potential import draw_values

UNIFORM01 = DistributionSpec.uniform(0.0, 1.0)


def _config(base: dict, overrides: dict) -> ExperimentConfig:
    """Config parsed from `base` updated with `overrides`; a None drops a key."""
    threads = overrides.pop("threads", 1)
    data = {k: v for k, v in {**base, **overrides}.items() if v is not None}
    return ExperimentConfig.from_dict(data, threads=threads)


def config_1v(**overrides):
    base = dict(
        dimension=1,
        radius=1,
        center=[[0], [0]],
        dist=UNIFORM01.to_dict(),
        epsilon=0.05,
        trials=200,
        master_seed=12345,
        energy=0.0,
    )
    return _config(base, overrides)


def config_2v(**overrides):
    base = dict(
        dimension=1,
        radius=1,
        center=[[0], [0]],
        center_prime=[[100], [100]],
        dist=UNIFORM01.to_dict(),
        epsilon=0.05,
        trials=150,
        conditioning_rounds=3,
        master_seed=777,
    )
    return _config(base, overrides)


# ---------------------------------------------------------------------------
# analytic bound values
# ---------------------------------------------------------------------------


def test_single_volume_bound_values():
    box = make_box(PairPoint.of((0,), (0,)), 2)  # size 25, union 5
    got = analytic_bound([box], box, UNIFORM01, 1e-3, coupling=1.0, bound_mode="two_eps")
    assert got == pytest.approx(25 * 5 * 0.002)
    tight = analytic_bound([box], box, UNIFORM01, 1e-3, coupling=1.0, bound_mode="eps_over_g")
    assert tight == pytest.approx(25 * 5 * 0.001)
    # saturation: a huge window pins the concentration factor at one
    assert analytic_bound([box], box, UNIFORM01, 10.0) == pytest.approx(125.0)


def test_bound_modes_coincide_at_half_coupling():
    box = make_box(PairPoint.of((0,), (3,)), 1)
    a = analytic_bound([box], box, UNIFORM01, 1e-3, coupling=0.5, bound_mode="two_eps")
    b = analytic_bound([box], box, UNIFORM01, 1e-3, coupling=0.5, bound_mode="eps_over_g")
    assert a == b


def test_bound_mode_validation():
    box = make_box(PairPoint.of((0,), (0,)), 1)
    with pytest.raises(ValueError):
        analytic_bound([box], box, UNIFORM01, 1e-3, bound_mode="loose")
    with pytest.raises(ValueError):
        analytic_bound([box], box, UNIFORM01, -1e-3)
    with pytest.raises(ValueError):
        analytic_bound([box], box, UNIFORM01, 1e-3, coupling=0.0, bound_mode="eps_over_g")
    with pytest.raises(ValueError, match="^free_box must be one of boxes$"):
        analytic_bound([box], make_box(PairPoint.of((0,), (9,)), 1), UNIFORM01, 1e-3)


def test_two_volume_bound_values():
    # disjoint projections on the free box: union factor 6
    box = make_box(PairPoint.of((0,), (100,)), 1)
    box_prime = make_box(PairPoint.of((200,), (300,)), 1)
    got = analytic_bound([box, box_prime], box, UNIFORM01, 1e-4)
    assert got == pytest.approx(9 * 9 * 6 * 0.0002)
    # coincident projections on the free box: union factor 3
    small = make_box(PairPoint.of((0,), (0,)), 1)
    got = analytic_bound([small, box_prime], small, UNIFORM01, 1e-4)
    assert got == pytest.approx(9 * 9 * 3 * 0.0002)
    # the union factor follows the box left random
    got = analytic_bound([small, box_prime], box_prime, UNIFORM01, 1e-4)
    assert got == pytest.approx(9 * 9 * 6 * 0.0002)
    # saturation at eps >= 1/2 under uniform(0,1)
    sat = analytic_bound([box, box_prime], box, UNIFORM01, 0.5)
    assert sat == pytest.approx(9 * 9 * 6) and sat >= 1.0


# one d=1 geometry per separation class: centres and the shift rate k
GEOMETRY_PER_CLASS = {
    SeparationClass.COMPLETELY_SEPARATED: ([[0], [100]], [[200], [300]], 2),
    SeparationClass.FIRST_PARTICLE1_ISOLATED: ([[0], [100]], [[100], [300]], 1),
    SeparationClass.FIRST_PARTICLE2_ISOLATED: ([[100], [0]], [[100], [300]], 1),
    SeparationClass.SECOND_PARTICLE1_ISOLATED: ([[0], [0]], [[100], [0]], 1),
    SeparationClass.SECOND_PARTICLE2_ISOLATED: ([[0], [0]], [[0], [100]], 1),
}


@pytest.mark.parametrize("cls", list(GEOMETRY_PER_CLASS), ids=lambda c: c.value)
def test_eps_over_g_window_follows_the_shift_rate(cls):
    # raising every free site by t raises each diagonal entry of the free box
    # by at least g*k*t, with k the least number of a point's coordinates on
    # free sites, so the window is 2*eps/(g*k): k = 2 under complete
    # separation, 1 when only one of the free box's cubes is isolated
    center, center_prime, k = GEOMETRY_PER_CLASS[cls]
    g, eps = 0.8, 1e-4
    cfg = config_2v(
        center=center, center_prime=center_prime, coupling=g, epsilon=eps,
        bound_mode="eps_over_g", trials=20, conditioning_rounds=1,
    )
    u, u_prime = cfg.hamiltonian.box.center, cfg.center_prime
    classes = lattice.classify_separation(u, u_prime, 1)
    assert cls in classes
    assert (SeparationClass.COMPLETELY_SEPARATED in classes) is (k == 2)
    boxes = [make_box(u, 1), make_box(u_prime, 1)]
    free_box = boxes[choose_bound(classes) is TwoVolumeBound.CONDITION_ON_FIRST]
    ceiling = 9 * 9 * len(lattice.projection_sites(free_box))
    got = analytic_bound(boxes, free_box, UNIFORM01, eps, g, "eps_over_g")
    assert got == pytest.approx(ceiling * 2 * eps / (g * k), rel=1e-12)
    assert run_two_volume(cfg).analytic_bound == got
    # two_eps does not depend on k
    assert analytic_bound(boxes, free_box, UNIFORM01, eps, g) == pytest.approx(ceiling * 2 * eps)


def test_a_box_point_with_no_free_coordinate_has_no_ceiling():
    # conditioning on the free box itself freezes every coordinate: k = 0
    box = make_box(PairPoint.of((0,), (100,)), 1)
    for mode in ("two_eps", "eps_over_g"):
        with pytest.raises(RuntimeError, match="no coordinate on a free site"):
            analytic_bound([box, box], box, UNIFORM01, 1e-4, bound_mode=mode)


# ---------------------------------------------------------------------------
# stream addressing
# ---------------------------------------------------------------------------


def block_draw(seed, stream_index, n_free):
    """One whole RNG block, drawn here from its substream by hand."""
    gen = RngStream(seed, stream_index).generator()
    return draw_values(UNIFORM01, gen, _RNG_BLOCK * n_free).reshape(_RNG_BLOCK, n_free)


def test_trial_stream_addressing():
    # trial k of round r is row (k - 1) % B of block (k - 1) // B, and block
    # b is one row-major draw from substream (r << 32) + 1 + b
    B = _RNG_BLOCK
    block0 = block_draw(99, (3 << 32) + 1, 5)
    block1 = block_draw(99, (3 << 32) + 2, 5)
    assert np.array_equal(trial_values(UNIFORM01, 99, 3, 1, B, 5), block0)
    assert np.array_equal(trial_values(UNIFORM01, 99, 3, B + 1, 2 * B, 5), block1)
    assert np.array_equal(trial_values(UNIFORM01, 99, 3, B + 17, B + 17, 5), block1[16:17])
    # a span across two blocks is the end of one and the start of the next
    span = trial_values(UNIFORM01, 99, 3, B - 1, B + 2, 5)
    assert span.shape == (4, 5)
    assert np.array_equal(span, np.concatenate([block0[-2:], block1[:2]]))
    for round_index, first, last in [(-1, 1, 1), (0, 0, 1), (0, 2, 1), (0, 1, 2**32)]:
        with pytest.raises(ValueError):
            trial_values(UNIFORM01, 99, round_index, first, last, 5)


def test_trial_streams_are_disjoint_across_rounds():
    # a round's frozen field and its trial blocks fit in its 2**32 substreams
    assert 1 + (2**32 - 2) // _RNG_BLOCK < 2**32
    B = _RNG_BLOCK
    rows = [
        trial_values(UNIFORM01, 5, r, k, k, 5)[0]
        for r in range(3)
        for k in (1, 2, B + 1, 2 * B + 1, 3 * B)
    ]
    rows += [draw_values(UNIFORM01, RngStream(5, r << 32).generator(), 5) for r in range(3)]
    assert len({row.tobytes() for row in rows}) == 18


def test_trial_values_are_pinned():
    # trial values are pure RNG output, so this digest is the same on every
    # BLAS build; it changes only with the addressing or the law's draw
    values = trial_values(UNIFORM01, 12345, 0, 1, 2048, 5)
    assert values.shape == (2048, 5)
    assert hashlib.sha256(values.tobytes()).hexdigest() == (
        "febf40ed887055c307dc44ca1ebc06c8e759caa58aa270d1e9939fa51cf9e673"
    )


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        config_1v(epsilon=0.0)
    with pytest.raises(ValueError):
        config_1v(trials=0)
    with pytest.raises(ValueError):
        config_1v(dimension=2)  # centre no longer matches
    with pytest.raises(ValueError):
        config_1v(bound_mode="loose")
    with pytest.raises(ValueError):
        config_1v(master_seed=-3)
    with pytest.raises(ValueError):
        config_2v(conditioning_rounds=0)
    with pytest.raises(ValueError):
        config_1v(threads=0)


def test_config_holds_one_hamiltonian_spec():
    spec = HamiltonianSpec(make_box(PairPoint.of((0,), (0,)), 1), InteractionSpec.zero(1), 1.0)
    direct = ExperimentConfig(
        hamiltonian=spec, dist=UNIFORM01, epsilon=0.05, trials=200, master_seed=12345, energy=0.0
    )
    assert direct == config_1v()
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert not names & {"dimension", "radius", "center", "interaction", "coupling"}


def test_config_counts_must_be_integers():
    # the dataclass itself refuses a fraction or a boolean, as the config
    # parsers do, and stores an integral float as an int
    spec = HamiltonianSpec(make_box(PairPoint.of((0,), (0,)), 1), InteractionSpec.zero(1), 1.0)
    good = dict(hamiltonian=spec, dist=UNIFORM01, epsilon=0.05, trials=200, master_seed=7, energy=0.0)
    for key, value in [
        ("trials", 10.5),
        ("master_seed", 7.9),
        ("threads", 2.5),
        ("threads", True),
        ("conditioning_rounds", 1.5),
        ("trials", "200"),
    ]:
        with pytest.raises(ValueError, match=f"^{key} must be an integer, got {value!r}$"):
            ExperimentConfig(**{**good, key: value})
    whole = ExperimentConfig(**{**good, "trials": 2e2, "master_seed": 7.0, "threads": 2.0})
    assert (whole.trials, whole.master_seed, whole.threads) == (200, 7, 2)
    assert all(type(v) is int for v in (whole.trials, whole.master_seed, whole.threads))
    assert whole == ExperimentConfig(**{**good, "threads": 2})


def test_config_rejects_trials_beyond_trial_index_range():
    # trial indices are 32-bit, so a round holds at most 2**32 - 1 trials
    assert config_1v(trials=2**32 - 1).trials == 2**32 - 1
    with pytest.raises(ValueError, match="2\\*\\*32"):
        config_1v(trials=2**32)


def test_config_dict_round_trip_excludes_threads():
    cfg = config_1v(threads=4, coupling=2.0, bound_mode="eps_over_g")
    echo = cfg.to_dict()
    assert "threads" not in echo
    assert echo["master_seed"] == 12345
    assert echo["bound_mode"] == "eps_over_g"
    assert "hopping_norm" not in echo
    again = ExperimentConfig.from_dict(echo, threads=2)
    assert again.to_dict() == echo
    assert again.threads == 2


def test_config_from_dict_validation():
    good = config_2v().to_dict()
    bad = dict(good)
    bad["flavour"] = "extra"
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(bad)
    missing = dict(good)
    del missing["epsilon"]
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(missing)
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({**good, "center": [[0]]})


def test_config_interaction_defaults_to_dimension_cutoff():
    data = config_1v().to_dict()
    del data["interaction"]
    cfg = ExperimentConfig.from_dict(data)
    assert cfg.hamiltonian.interaction.r_max == 1
    assert cfg.hamiltonian.interaction.table == {}


# Key order is part of the report schema (cli.SCHEMA_VERSION 9); the JSON
# bytes depend on it.
CONFIG_KEYS = [
    "dimension",
    "radius",
    "center",
    "interaction",
    "coupling",
    "dist",
    "epsilon",
    "trials",
    "master_seed",
    "bound_mode",
]
ROUND_KEYS = [
    "round_index",
    "frozen_digest",
    "trials",
    "hits",
    "empirical_probability",
    "std_error",
    "verdict",
    "dist_min",
    "dist_mean",
    "dist_max",
    "dist_digest",
]


def _cli_report(tmp_path, command: str, cfg: ExperimentConfig) -> dict:
    """The report `cli.main` writes for the config echo of `cfg`."""
    path, out = tmp_path / "config.json", tmp_path / "report.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_report_key_order_is_pinned(tmp_path):
    single = _cli_report(tmp_path, "wegner-single", config_1v(trials=10))
    assert list(single) == [
        "kind",
        "schema_version",
        "tool_version",
        "config",
        "analytic_bound",
        "trials",
        "hits",
        "empirical_probability",
        "std_error",
        "verdict",
        "low_power",
        "dist_min",
        "dist_mean",
        "dist_max",
        "dist_digest",
    ]
    header = (single["kind"], single["schema_version"], single["tool_version"])
    assert header == ("single_volume", 9, wegner2p.__version__)
    assert list(single["config"]) == CONFIG_KEYS + ["energy"]
    two = _cli_report(tmp_path, "wegner-two", config_2v(trials=10, conditioning_rounds=1))
    assert list(two) == [
        "kind",
        "schema_version",
        "tool_version",
        "config",
        "separation_classes",
        "bound_choice",
        "analytic_bound",
        "rounds",
        "verdict",
        "low_power",
    ]
    header = (two["kind"], two["schema_version"], two["tool_version"])
    assert header == ("two_volume", 9, wegner2p.__version__)
    assert list(two["config"]) == CONFIG_KEYS + ["center_prime", "conditioning_rounds"]
    assert list(two["rounds"][0]) == ROUND_KEYS


def test_frozen_digest_is_pinned():
    # the frozen field is pure RNG output, so its digest is the same on
    # every BLAS build
    report = run_two_volume(config_2v(trials=10, conditioning_rounds=2))
    assert [r.frozen_digest for r in report.rounds] == [
        "5b07de460ff15716090466e8a61238016f9e60ca7ab668b3238530c699c4f2af",
        "21ac05f1a829bed7c3303562b7aa4ee9a8ca90c21210127ce7e57611dd0e7073",
    ]


# ---------------------------------------------------------------------------
# single-volume runner
# ---------------------------------------------------------------------------


def single_volume_distances(cfg):
    """The runner's per-trial distances, from the runner's own arguments."""
    template = HamiltonianTemplate(cfg.hamiltonian)
    return _collect_distances(
        template,
        cfg.dist,
        cfg.master_seed,
        round_index=0,
        n_trials=cfg.trials,
        threads=cfg.threads,
        reference=np.array([float(cfg.energy)]),
        base_values=np.zeros(template.n_sites),
        free_positions=np.arange(template.n_sites),
    )


def test_single_volume_runs_and_reports():
    cfg = config_1v()
    report = run_single_volume(cfg)
    dists = single_volume_distances(cfg)
    assert report.trials == dists.size == 200
    assert report.hits == int(np.count_nonzero(dists < cfg.epsilon))
    assert report.empirical_probability == report.hits / 200
    assert report.verdict == "holds"
    assert not report.low_power
    assert report.dist_min == dists.min()
    assert report.dist_max == dists.max()
    assert report.dist_mean == dists.mean()
    assert report.dist_digest == hashlib.sha256(dists.tobytes()).hexdigest()
    assert report.config == cfg.to_dict()
    assert report.analytic_bound == pytest.approx(
        analytic_bound([cfg.hamiltonian.box], cfg.hamiltonian.box, UNIFORM01, cfg.epsilon)
    )


def test_single_volume_trial_replay_by_hand():
    # trial k is a pure function of (master_seed, round 0, trial k): reproduce
    # trial 3's distance from its own values and compare with the digested run
    cfg = config_1v(trials=5)
    report = run_single_volume(cfg)
    dists = single_volume_distances(cfg)
    assert report.dist_digest == hashlib.sha256(dists.tobytes()).hexdigest()
    template = HamiltonianTemplate(cfg.hamiltonian)
    vals = trial_values(cfg.dist, cfg.master_seed, 0, 3, 3, template.n_sites)[0]
    eigs = spectra(template, vals)
    want = np.min(np.abs(eigs - cfg.energy))
    assert dists[2] == pytest.approx(want, abs=1e-14)


def _readme_python_block(marker: str) -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = [b for b in re.findall(r"```python\n(.*?)```", readme, re.S) if marker in b]
    return block


def test_readme_replay_recipe_matches_dist_digest(capsys):
    # the README's quick start, then its replay recipe, which prints trial
    # 17's distance and whether the replayed distances hash to dist_digest
    namespace: dict = {}
    exec(_readme_python_block("report = run_single_volume(config)"), namespace)
    exec(_readme_python_block("trial_values("), namespace)
    assert capsys.readouterr().out.splitlines()[-1] == "True"


def test_single_volume_deterministic_and_thread_invariant():
    cfg1 = config_1v(trials=2100)  # spans three batches
    r1 = run_single_volume(cfg1)
    r2 = run_single_volume(cfg1)
    r3 = run_single_volume(config_1v(trials=2100, threads=3))
    assert r1 == r2 == r3
    assert r1.dist_digest == r3.dist_digest
    assert json.dumps(dataclasses.asdict(r1)) == json.dumps(dataclasses.asdict(r3))


def _recorder(path: Path):
    """A function that appends its arguments, after this process's pid, as
    one line to `path`: forked helper processes record there too."""

    def record(*fields) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(" ".join(map(str, (os.getpid(), *fields))) + "\n")

    return record


def _assert_reaped(pids) -> None:
    """No process has any of these pids any more, not even as a zombie."""
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid), 0)


def _records(path: Path) -> list[list[str]]:
    """The lines `_recorder(path)` wrote, split into fields; empties the file."""
    lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    path.write_text("", encoding="utf-8")
    return [line.split() for line in lines]


@pytest.fixture
def blas():
    """The getter of numpy's OpenBLAS thread count and the count a pinned body
    sees; on any other BLAS there is no getter and both read None.  The
    caller's count is 2 during the test and restored after it."""
    found = hamiltonian._openblas_threads()
    get, put = found if found else (lambda: None, lambda n: None)
    original = get()
    put(2)  # a caller's count the pin must not keep
    yield get, (1 if found else None)
    put(original)


def test_one_blas_thread_restores_the_callers_count(blas, monkeypatch, tmp_path):
    # Each run's eigensolves see one thread, in the calling process and in
    # its forked helper alike, and the caller gets its count back after a
    # normal run, a run that raises inside a batch, and a nested pin.  On
    # any other BLAS only the runs' results are checked.
    get, pinned = blas
    caller = get()
    seen = tmp_path / "seen"
    record = _recorder(seen)
    gaps = experiments.min_gaps_to_sorted
    monkeypatch.setattr(
        experiments, "min_gaps_to_sorted", lambda *a: record(get()) or gaps(*a)
    )
    report = run_single_volume(config_1v(trials=2100, threads=2))
    first = _records(seen)
    pids = {pid for pid, _ in first}
    assert str(os.getpid()) in pids and len(pids) == 2
    _assert_reaped(pids - {str(os.getpid())})
    assert get() == caller
    overflowing = config_1v(dist=DistributionSpec.uniform(1.5e308, 1.7e308).to_dict(), threads=2)
    with pytest.raises(ValueError, match="a field value overflows the operator diagonal"):
        run_single_volume(overflowing)
    assert get() == caller
    with hamiltonian.one_blas_thread():
        with hamiltonian.one_blas_thread():
            nested = run_single_volume(config_1v(trials=2100, threads=2))
        assert get() == pinned
    assert get() == caller
    assert nested == report
    assert {count for _, count in first + _records(seen)} == {str(pinned)}


def test_one_blas_thread_holds_under_concurrent_bodies(blas):
    # Eight threads enter and leave the pin at once, switching every
    # microsecond: a lost update to its depth would restore the caller's
    # count while a body still runs, or leave the pin held.
    get, pinned = blas
    caller = get()
    inside = []

    def enter_and_leave():
        for _ in range(1000):
            with hamiltonian.one_blas_thread():
                inside.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=enter_and_leave) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert get() == caller and hamiltonian._pin_depth == 0
    assert len(inside) == 8000 and set(inside) == {pinned}


def test_single_volume_epsilon_monotone_under_shared_seed():
    tight = run_single_volume(config_1v(epsilon=0.01))
    loose = run_single_volume(config_1v(epsilon=0.1))
    # identical trials, so widening the window can only add hits
    assert tight.dist_digest == loose.dist_digest
    assert tight.hits <= loose.hits


def test_single_volume_far_energy_never_hits():
    # the free spectrum lies inside (-4, 8) in d=1 (each eigenvalue is a
    # product of two numbers in (-1, 3), less 1); with g = 0 and no
    # interaction an energy beyond that is never approached
    cfg = config_1v(energy=9.0, coupling=0.0, trials=64)
    report = run_single_volume(cfg)
    assert report.hits == 0
    assert report.empirical_probability == 0.0
    assert report.verdict == "holds"
    assert report.low_power


def test_single_volume_low_power_flag():
    report = run_single_volume(config_1v(trials=1))
    assert report.low_power
    assert report.trials == 1
    assert report.verdict in ("holds", "violated")


def test_single_volume_zero_coupling_small_eps_violates():
    # with the field switched off the spectrum is deterministic, so a window
    # around an actual eigenvalue is hit every time while the stated ceiling
    # stays small: the bound's coupling assumptions matter and the runner
    # must say so rather than paper over it
    # (E = 0 is the free eigenvalue (1 + 2cos(pi/2))^2 - 1 of the L=1 box)
    cfg = config_1v(coupling=0.0, energy=0.0, epsilon=1e-3, trials=120)
    report = run_single_volume(cfg)
    assert report.empirical_probability == 1.0
    assert report.analytic_bound < 1.0
    assert report.verdict == "violated"


def test_single_volume_rejects_two_volume_fields():
    with pytest.raises(ValueError):
        run_single_volume(config_1v(energy=None))
    with pytest.raises(ValueError):
        run_single_volume(
            config_1v(center_prime=[[50], [50]])
        )


def test_report_json_round_trip():
    report = dataclasses.asdict(run_single_volume(config_1v(trials=32)))
    blob = json.dumps(report)
    assert json.loads(blob) == report


# ---------------------------------------------------------------------------
# two-volume runner
# ---------------------------------------------------------------------------


def test_choose_bound_rules():
    CS = SeparationClass.COMPLETELY_SEPARATED
    A = SeparationClass.FIRST_PARTICLE1_ISOLATED
    B = SeparationClass.FIRST_PARTICLE2_ISOLATED
    C = SeparationClass.SECOND_PARTICLE1_ISOLATED
    D = SeparationClass.SECOND_PARTICLE2_ISOLATED
    second = TwoVolumeBound.CONDITION_ON_SECOND
    first = TwoVolumeBound.CONDITION_ON_FIRST
    assert choose_bound(frozenset({CS})) is second
    assert choose_bound(frozenset({A})) is second
    assert choose_bound(frozenset({B, D})) is second
    assert choose_bound(frozenset({C})) is first
    assert choose_bound(frozenset({D})) is first
    assert choose_bound(frozenset({C, D})) is first
    with pytest.raises(RuntimeError, match="separation dichotomy failed"):
        choose_bound(frozenset())


def test_two_volume_completely_separated_run():
    cfg = config_2v()
    report = run_two_volume(cfg)
    assert report.separation_classes == ["completely_separated"]
    assert report.bound_choice == "condition_on_second"
    assert len(report.rounds) == 3
    assert [r.round_index for r in report.rounds] == [1, 2, 3]
    assert report.verdict == "holds"
    assert all(r.trials == 150 for r in report.rounds)
    digests = {r.frozen_digest for r in report.rounds}
    assert len(digests) == 3  # each round freezes a fresh field
    assert report.config == cfg.to_dict()


def test_two_volume_single_class_geometry_conditions_on_first():
    cfg = config_2v(center_prime=[[2], [50]], trials=120)
    report = run_two_volume(cfg)
    assert report.separation_classes == ["second_particle2_isolated"]
    assert report.bound_choice == "condition_on_first"
    assert report.verdict == "holds"


def test_free_sites_shift_every_eigenvalue_at_the_rate_of_the_separation_class():
    # One d=1 geometry per class combination at L=2: the first survey witness
    # of each.  In the free box choose_bound picks, with the sites
    # run_two_volume leaves free, rate is the least number of a box point's
    # coordinates on free sites: 2 under complete separation, else 1.
    # Raising the free sites by t adds g t times that number to each
    # diagonal entry, so by Weyl every sorted eigenvalue moves by between
    # rate g t and 2 g t.
    L, g, t = 2, 0.5, 1.0
    witnesses = {}
    for (w, a, b), _ in lattice._axis_profiles(L, 40 * L + 20):
        u, u_prime = PairPoint.of((0,), (w,)), PairPoint.of((a,), (b,))
        try:
            witnesses.setdefault(lattice.classify_separation(u, u_prime, L), (u, u_prime))
        except ValueError:  # not admissible
            continue
    assert len(witnesses) == 12
    gen = RngStream(31, 0).generator()
    choices = set()
    for classes, (u, u_prime) in witnesses.items():
        which = choose_bound(classes)
        choices.add(which)
        boxes = make_box(u, L), make_box(u_prime, L)
        free_box, cond_box = boxes if which is TwoVolumeBound.CONDITION_ON_SECOND else boxes[::-1]
        spec = HamiltonianSpec(free_box, InteractionSpec({0: 1.0, 1: 0.5}, r_max=1), g)
        template = HamiltonianTemplate(spec)
        cond_sites = np.array(lattice.projection_sites(cond_box))
        free = (lattice._site_positions(np.array(template.sites), cond_sites) < 0).astype(float)
        rate = (free[template.first_index] + free[template.second_index]).min()
        assert rate == (2 if SeparationClass.COMPLETELY_SEPARATED in classes else 1), classes
        values = gen.uniform(0.0, 1.0, template.n_sites)
        before, after = spectra(template, np.array([values, values + t * free]))
        shift = after - before
        assert shift.min() >= rate * g * t * (1 - 1e-9), classes
        assert shift.max() <= 2 * g * t * (1 + 1e-9), classes
    assert choices == set(TwoVolumeBound)


def test_two_volume_deterministic_and_thread_invariant():
    cfg_a = config_2v(trials=1100, conditioning_rounds=2)
    cfg_b = config_2v(trials=1100, conditioning_rounds=2, threads=3)
    ra, rb = run_two_volume(cfg_a), run_two_volume(cfg_b)
    assert ra == rb
    assert json.dumps(dataclasses.asdict(ra)) == json.dumps(dataclasses.asdict(rb))


def test_two_volume_round_digest_replay():
    # round r's frozen field comes from substream r << 32 verbatim
    cfg = config_2v(conditioning_rounds=1, trials=50)
    report = run_two_volume(cfg)
    # complete separation conditions the second box
    cond_box = make_box(cfg.center_prime, cfg.hamiltonian.box.radius)
    template = HamiltonianTemplate(dataclasses.replace(cfg.hamiltonian, box=cond_box))
    gen = RngStream(cfg.master_seed, 1 << 32).generator()
    frozen = draw_values(cfg.dist, gen, len(template.sites))
    assert report.rounds[0].frozen_digest == hashlib.sha256(frozen.tobytes()).hexdigest()


def test_two_volume_round_dist_digest_is_that_rounds_distances():
    cases = [
        # complete separation: the second box is frozen and shares no site
        # with the first, so every site of the first box is redrawn
        ([[100], [100]], 1100, True),
        # the first box is frozen and shares site 1 with the second, whose
        # trials redraw every other site on top of that frozen value
        ([[2], [50]], 300, False),
    ]
    for center_prime, trials, free_is_first in cases:
        cfg = config_2v(center_prime=center_prime, conditioning_rounds=2, trials=trials)
        report = run_two_volume(cfg)
        assert (report.bound_choice == "condition_on_second") is free_is_first
        box_prime = make_box(cfg.center_prime, cfg.hamiltonian.box.radius)
        first = HamiltonianTemplate(cfg.hamiltonian)
        second = HamiltonianTemplate(dataclasses.replace(cfg.hamiltonian, box=box_prime))
        free, cond = (first, second) if free_is_first else (second, first)
        shared = sorted(set(free.sites) & set(cond.sites))
        assert shared == ([] if free_is_first else [(1,)])
        free_positions = np.array(
            [i for i, s in enumerate(free.sites) if s not in shared], dtype=int
        )
        for rec in report.rounds:
            gen = RngStream(cfg.master_seed, rec.round_index << 32).generator()
            frozen = draw_values(cfg.dist, gen, cond.n_sites)
            base_values = np.zeros(free.n_sites)
            for site in shared:
                base_values[free.sites.index(site)] = frozen[cond.sites.index(site)]
            dists = _collect_distances(
                free,
                cfg.dist,
                cfg.master_seed,
                round_index=rec.round_index,
                n_trials=cfg.trials,
                threads=cfg.threads,
                reference=spectra(cond, frozen),
                base_values=base_values,
                free_positions=free_positions,
            )
            assert rec.dist_digest == hashlib.sha256(dists.tobytes()).hexdigest()
            assert rec.hits == int(np.count_nonzero(dists < cfg.epsilon))
            assert (rec.dist_min, rec.dist_mean, rec.dist_max) == (
                dists.min(),
                dists.mean(),
                dists.max(),
            )
        assert report.rounds[0].dist_digest != report.rounds[1].dist_digest


def test_span_rows_fit_the_matrix_limit():
    # pure arithmetic: a span holds its trials' field values and one chunk of
    # matrices at a time, so the limit only keeps a big box in many spans
    assert _span_rows(25) == _span_rows(121) == 1024  # one span per RNG block
    assert _span_rows(625) == 42  # d=2, L=2: 1024 trials make 25 spans, work for every worker
    assert _span_rows(4096) == 1  # one matrix is the whole limit
    box = make_box(PairPoint.of((0, 0), (0, 0)), 4)
    with pytest.raises(ValueError, match="^one 6561x6561 matrix takes 328 MiB"):
        HamiltonianSpec(box, InteractionSpec.zero(), 1.0)  # d=2, L=4


def test_small_batch_budget_keeps_every_distance(monkeypatch, tmp_path):
    # spans of three trials give the distances of 1024-trial spans, and the
    # span of trials 1024..1026 straddles two RNG blocks; chunks of one
    # 6x6 block (the m=9 swap box's symmetric sector) give them too, and no
    # eigvalsh call, in the calling process or a helper, holds more than a
    # chunk's bytes unless it is one matrix
    log = tmp_path / "eigvalsh"
    record = _recorder(log)
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        record(int(np.prod(np.shape(a)[:-2])), a.nbytes)
        return eigvalsh(a)

    def assert_chunked() -> list[tuple[str, int, int]]:
        calls = [(pid, int(n), int(nbytes)) for pid, n, nbytes in _records(log)]
        assert calls and all(nbytes <= hamiltonian._CHUNK_BYTES or n == 1 for _, n, nbytes in calls)
        return calls

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    runs = [
        (run_single_volume, config_1v(trials=1100, threads=2)),
        (
            run_two_volume,
            config_2v(center_prime=[[2], [50]], trials=1100, conditioning_rounds=2, threads=2),
        ),
    ]
    wide = [run(cfg) for run, cfg in runs]
    # two spans per call: the caller and one helper for the single-volume
    # run and for each round, all of them diagonalising in chunks
    pids = {pid for pid, _, _ in assert_chunked()}
    assert str(os.getpid()) in pids and len(pids) == 4
    for threads in (1, 3):
        assert [run(dataclasses.replace(cfg, threads=threads)) for run, cfg in runs] == wide
    assert_chunked()
    monkeypatch.setattr(hamiltonian, "_CHUNK_BYTES", 8 * 6**2)
    assert [run(cfg) for run, cfg in runs] == wide
    # 6x6 blocks one at a time, 3x3 blocks four at a time, 9x9 matrices alone
    assert {n for _, n, _ in assert_chunked()} == {1, 4}
    # a trial's values do not depend on how many trials the run draws
    short = single_volume_distances(config_1v(trials=1500))
    assert np.array_equal(single_volume_distances(config_1v(trials=2100))[:1500], short)
    monkeypatch.setattr(hamiltonian, "_MATRIX_BYTES", 3 * 8 * 9**2)
    assert _span_rows(9) == 3
    narrow = [run(cfg) for run, cfg in runs]
    assert narrow[0].dist_digest == wide[0].dist_digest
    assert [r.dist_digest for r in narrow[1].rounds] == [r.dist_digest for r in wide[1].rounds]
    assert narrow == wide
    assert_chunked()


def test_first_failing_trial_in_a_helpers_span_is_named_for_every_thread_count(
    monkeypatch, tmp_path
):
    # Three-trial spans, span i dealt to worker i mod threads, worker 0 the
    # caller; a trial that draws 1.6e308 overflows its doubled diagonal.  The
    # seed is the first one whose first overflowing trial falls in a helper's
    # span at --threads 2 and 3 while a later one falls in the caller's own
    # span at 2: seed 17, trials 22 and 26.  The first failure in trial order
    # is the one raised.  Every worker records its pid as it starts a span.
    seen = tmp_path / "seen"
    record = _recorder(seen)
    values_of = experiments.trial_values
    monkeypatch.setattr(experiments, "trial_values", lambda *a: record() or values_of(*a))
    monkeypatch.setattr(hamiltonian, "_MATRIX_BYTES", 3 * 8 * 9**2)
    law = DistributionSpec.discrete([(0.0, 0.99), (1.6e308, 0.01)])

    def overflowing(seed):
        return list(np.flatnonzero(trial_values(law, seed, 0, 1, 30, 3).any(axis=1)) + 1)

    def fits(trials):
        spans = [(t - 1) // 3 for t in trials]
        return (
            bool(spans)
            and spans[0] % 2 == 1  # the first is a helper's at 2 threads
            and spans[0] % 3 != 0  # and at 3
            and any(s % 2 == 0 for s in spans[1:])  # a later one is the caller's at 2
        )

    seed = next(s for s in range(1000) if fits(overflowing(s)))
    assert (seed, overflowing(seed)) == (17, [22, 26])
    for threads in (1, 2, 3):
        with pytest.raises(ValueError, match="^trial 22: a field value overflows"):
            run_single_volume(
                config_1v(dist=law.to_dict(), trials=30, master_seed=seed, threads=threads)
            )
    pids = {pid for pid, in _records(seen)}
    assert str(os.getpid()) in pids and len(pids) == 4  # the caller, one helper, two helpers
    _assert_reaped(pids - {str(os.getpid())})


def test_helper_count_is_threads_or_spans_less_one(monkeypatch, tmp_path):
    # Every worker records its pid at each gap reduction: min(threads, spans)
    # processes take part, the caller alone in a one-span run, and every
    # helper has been reaped when the run returns.
    seen = tmp_path / "seen"
    record = _recorder(seen)
    gaps = experiments.min_gaps_to_sorted
    monkeypatch.setattr(experiments, "min_gaps_to_sorted", lambda *a: record() or gaps(*a))
    monkeypatch.setattr(hamiltonian, "_MATRIX_BYTES", 3 * 8 * 9**2)  # 3-trial spans
    reference = run_single_volume(config_1v(trials=300))
    for threads, trials, workers in [(1, 300, 1), (2, 3, 1), (3, 6, 2), (8, 9, 3), (50, 300, 50)]:
        _records(seen)
        report = run_single_volume(config_1v(trials=trials, threads=threads))
        pids = {pid for pid, in _records(seen)}
        assert str(os.getpid()) in pids and len(pids) == workers
        _assert_reaped(pids - {str(os.getpid())})
        if trials == 300:
            assert report == reference


def test_a_failure_in_one_worker_alone_is_raised_only_if_the_caller_meets_it(
    monkeypatch, tmp_path
):
    # Three spans: the caller's, the helper's, the caller's.  A MemoryError
    # met only in the helper leaves its span unfinished, and the caller
    # computes that span cleanly, so the report is the one-worker report.
    # Met only in the caller, the caller's own error is raised.
    caller = str(os.getpid())
    seen = tmp_path / "seen"
    record = _recorder(seen)
    gaps = experiments.min_gaps_to_sorted

    def failing_in(side: str):
        def reduce(*args):
            record()
            if (str(os.getpid()) == caller) == (side == "caller"):
                raise MemoryError(f"in the {side}")
            return gaps(*args)

        return reduce

    cfg = config_1v(trials=2100, threads=2)
    monkeypatch.setattr(experiments, "min_gaps_to_sorted", failing_in("helper"))
    assert run_single_volume(cfg) == run_single_volume(dataclasses.replace(cfg, threads=1))
    monkeypatch.setattr(experiments, "min_gaps_to_sorted", failing_in("caller"))
    with pytest.raises(MemoryError, match="^in the caller$"):
        run_single_volume(cfg)
    pids = {pid for pid, in _records(seen)}
    assert caller in pids and len(pids) == 3
    _assert_reaped(pids - {caller})


def test_ctrl_c_stops_and_reaps_the_helpers(monkeypatch, tmp_path):
    # Ctrl-C signals the whole process group.  The helper ignores its
    # SIGINT and goes on; the caller's KeyboardInterrupt ends the run at
    # once, and the helper, still busy, is killed and reaped.
    caller = os.getpid()
    seen = tmp_path / "seen"
    record = _recorder(seen)

    def interrupted(*args):
        if os.getpid() != caller:
            record("signalled")
            os.kill(os.getpid(), signal.SIGINT)
            record("continued")
            time.sleep(60)
        deadline = time.monotonic() + 30
        while len(seen.read_text().splitlines() if seen.exists() else []) < 2:
            assert time.monotonic() < deadline, "the helper did not go on after SIGINT"
            time.sleep(0.01)
        raise KeyboardInterrupt

    monkeypatch.setattr(experiments, "min_gaps_to_sorted", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_single_volume(config_1v(trials=2100, threads=2))
    assert time.monotonic() - start < 30
    records = _records(seen)
    assert [event for _, event in records] == ["signalled", "continued"]
    _assert_reaped({pid for pid, _ in records})


def test_a_pool_worker_runs_with_helpers_of_its_own():
    # A daemonic process may not start multiprocessing children, but it may
    # fork: a run with two workers inside a Pool worker matches one worker's.
    cfg = config_1v(trials=2100)  # three spans
    with multiprocessing.get_context("fork").Pool(1) as pool:
        reports = pool.map(run_single_volume, [cfg, dataclasses.replace(cfg, threads=2)])
    assert reports == [run_single_volume(cfg)] * 2


@pytest.mark.filterwarnings("error")
def test_sector_assembly_names_the_trial_whose_diagonal_overflows():
    # the sectors' field-free blocks hold hopping only, so U(0) = 1e308 builds
    # without overflow; U(0) plus a shift of about 1e308 does overflow, and
    # the batch is refused with the trial named
    spec = HamiltonianSpec(
        make_box(PairPoint.of((0,), (0,)), 2), InteractionSpec({0: 1e308}), 1.0
    )
    template = HamiltonianTemplate(spec)
    assert len(template.sectors) == 2
    with pytest.raises(ValueError, match="^trial 1: a field value overflows the operator"):
        _collect_distances(
            template,
            DistributionSpec.uniform(4e307, 5e307),
            5,
            round_index=0,
            n_trials=10,
            threads=1,
            reference=np.array([0.0]),
            base_values=np.zeros(template.n_sites),
            free_positions=np.arange(template.n_sites),
        )


def test_two_volume_rejects_misconfigured_runs():
    with pytest.raises(ValueError):
        run_two_volume(config_2v(center_prime=None))
    with pytest.raises(ValueError):
        run_two_volume(config_2v(conditioning_rounds=None))
    with pytest.raises(ValueError):
        run_two_volume(config_2v(energy=1.0))
    with pytest.raises(ValueError):
        # violates the distance condition
        run_two_volume(config_2v(center_prime=[[3], [0]]))


def test_two_volume_report_round_trip():
    report = dataclasses.asdict(run_two_volume(config_2v(trials=40, conditioning_rounds=2)))
    blob = json.dumps(report)
    assert json.loads(blob) == report


def test_two_volume_tracks_unconditional_frequency():
    # with complete separation the free box's field is independent of the
    # frozen one, so conditional hit rates across rounds should hover near an
    # inline unconditional estimate computed over fresh pairs
    cfg = config_2v(epsilon=0.25, trials=4000, conditioning_rounds=2, master_seed=5150)
    report = run_two_volume(cfg)
    box = cfg.hamiltonian.box
    box_p = make_box(cfg.center_prime, box.radius)
    t_free = HamiltonianTemplate(HamiltonianSpec(box, cfg.hamiltonian.interaction, 1.0))
    t_cond = HamiltonianTemplate(HamiltonianSpec(box_p, cfg.hamiltonian.interaction, 1.0))
    n = 4000
    # one row-major draw: row i holds the values pair i took one call each for
    pairs = np.random.default_rng(4242).uniform(size=(n, t_free.n_sites + t_cond.n_sites))
    ea = spectra(t_free, pairs[:, : t_free.n_sites])
    eb = spectra(t_cond, pairs[:, t_free.n_sites :])
    gaps = np.abs(ea[:, :, None] - eb[:, None, :]).min(axis=(1, 2))
    hits = int(np.count_nonzero(gaps < cfg.epsilon))
    uncond = hits / n
    sd = math.sqrt(max(uncond * (1 - uncond), 1e-9) / n)
    for rec in report.rounds:
        assert abs(rec.empirical_probability - uncond) <= 6 * (sd + rec.std_error)
