"""Pinned report bytes for the parts of each report that no BLAS build can round.

Each case runs one subcommand through `cli.main`, checks that the report
starts with the common header (`kind`, `schema_version`, `tool_version`),
and hashes the canonical JSON (sorted keys, no spaces) of the report.
Experiment reports drop `dist_min`, `dist_mean`, `dist_max` and
`dist_digest`, at top level and in every round, spectrum reports drop
`eigenvalues`, and DM check reports drop `worst_monotonicity_violation` and
`worst_diagonal_defect`, because they hold eigenvalues or their distances to
the last bit; hits, frequencies, ceilings, verdicts, check counts and sizes
stay in.  A passing DM check has no witnesses, which would hold eigenvalue
errors too, and the test asserts that it has none.  A change that
moves any pinned byte must say why and bump `cli.SCHEMA_VERSION` (or
`tool_version`).
"""

import hashlib
import json

import pytest

import wegner2p
import wegner2p.cli as cli

UNIFORM = {"kind": "uniform", "lo": 0.0, "hi": 1.0}
BLAS_ROUNDED_KEYS = (
    "dist_min",
    "dist_mean",
    "dist_max",
    "dist_digest",
    "eigenvalues",
    "worst_monotonicity_violation",
    "worst_diagonal_defect",
)

CASES = {
    "geometry-classify": (
        "geometry-classify",
        {"dimension": 1, "radius": 1, "center": [[0], [0]], "center_prime": [[9], [20]]},
        "28f6813a39bebb3de5fa865dfaf3f8d3764aeb34da2c3d89d67c4eb936da3b85",
    ),
    "spectrum": (
        "spectrum",
        {"dimension": 1, "radius": 1, "center": [[0], [2]], "dist": UNIFORM, "master_seed": 5},
        "1a8f39fbc17dd55a29e0f479df0936298fda189abe379dcb4425fd2077bbb716",
    ),
    "stollmann-exact": (
        "stollmann-check",
        {
            "function": {"form": "sum", "arity": 2},
            "dist": {"kind": "discrete", "atoms": [[0.0, 0.25], [1.0, 0.5], [2.5, 0.25]]},
            "interval": [0.5, 2.0],
        },
        "a39ea5df970bb8df3c864e3bce2c3ab57a3db798d0275556906392b4881eca3a",
    ),
    "stollmann-mc": (
        "stollmann-check",
        {
            "function": {"form": "max", "arity": 3},
            "dist": UNIFORM,
            "interval": [0.5, 0.6],
            "trials": 2000,
            "master_seed": 3,
        },
        "a56c2b377ab98a73e1c3de35b6f0b5a51f76f3e32c2ed8e7d9ff2665a7b06818",
    ),
    "dm-check": (
        "dm-check",
        {
            "dimension": 1,
            "radius": 2,
            "center": [[0], [0]],
            "dist": UNIFORM,
            "trials": 200,
            "master_seed": 5,
            "coupling": 1.0,
        },
        "41d3b9a19f899c5e73c37f83546aa42a0770344eb7a255f4ccc230c8b5309356",
    ),
    "wegner-single": (
        "wegner-single",
        {
            "dimension": 1,
            "radius": 1,
            "center": [[0], [0]],
            "dist": UNIFORM,
            "energy": 0.5,
            "epsilon": 0.01,
            "trials": 1500,
            "master_seed": 11,
        },
        "beb00d49b786bc46a978a348b97bf7b08ee26b1abc1eb9f785ec717148fb6ae6",
    ),
    "wegner-two": (
        "wegner-two",
        {
            "dimension": 1,
            "radius": 1,
            "center": [[0], [0]],
            "center_prime": [[100], [100]],
            "dist": UNIFORM,
            "epsilon": 0.001,
            "trials": 400,
            "conditioning_rounds": 2,
            "master_seed": 12,
        },
        "d66e22e890b774f62085cfcb37dd9b2ea07113543f00fd25f5e00298b98abc39",
    ),
}


def _pinned_part(report: dict) -> dict:
    for record in [report, *report.get("rounds", [])]:
        for key in BLAS_ROUNDED_KEYS:
            record.pop(key, None)
    return report


@pytest.mark.parametrize("case", list(CASES))
def test_report_bytes_are_pinned(case, tmp_path):
    command, config, digest = CASES[case]
    path, out = tmp_path / "config.json", tmp_path / "report.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert list(report)[:3] == ["kind", "schema_version", "tool_version"]
    assert (report["schema_version"], report["tool_version"]) == (
        cli.SCHEMA_VERSION,
        wegner2p.__version__,
    )
    if report["kind"] == "dm_check":
        assert report["witnesses"] == []
    report = _pinned_part(report)
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == digest
