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
        "9dc335ea0b0de555453136fc3059aa142ecfe673c8795cbdc00a3a2495fe67c0",
    ),
    "spectrum": (
        "spectrum",
        {"dimension": 1, "radius": 1, "center": [[0], [2]], "dist": UNIFORM, "master_seed": 5},
        "9f26bce7225d638229e0bfa291ddd5110e07f6236763187fbc78d1cb8914f3fd",
    ),
    "stollmann-exact": (
        "stollmann-check",
        {
            "function": {"form": "sum", "arity": 2},
            "dist": {"kind": "discrete", "atoms": [[0.0, 0.25], [1.0, 0.5], [2.5, 0.25]]},
            "interval": [0.5, 2.0],
        },
        "190559c9a7fe8b0cc853437d670c227797a463020582ca81e5d94fec24368ca3",
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
        "cbdd4b2dcf9cb143177064670b1d5fde7e91e20d652664c882096fcb6f45d3b9",
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
        "b6cb45184609f84bb21f05d41630f1e79a8afe1091d1372a4f03089bb099f045",
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
        "fba6dea23bb64cbec2fd9c328dd7a50b79bb32a025458572c4822d81c7aca61d",
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
        "ddf0eac00fea5da5910b4c9524fae2f9fc18f60fa8f70e18066e182bb4d23893",
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
