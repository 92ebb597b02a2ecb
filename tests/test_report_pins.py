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
        "2d9e03eefe03e2ce813a9a284f35b72f1c9879fbe9cdcee60ce8350d12bd5843",
    ),
    "spectrum": (
        "spectrum",
        {"dimension": 1, "radius": 1, "center": [[0], [2]], "dist": UNIFORM, "master_seed": 5},
        "35a82349cfd9f003eba6432fb3879ad9c843702e132ff10a8f5463065fc789eb",
    ),
    "stollmann-exact": (
        "stollmann-check",
        {
            "function": {"form": "sum", "arity": 2},
            "dist": {"kind": "discrete", "atoms": [[0.0, 0.25], [1.0, 0.5], [2.5, 0.25]]},
            "interval": [0.5, 2.0],
        },
        "ac12bd576d0d8344a98c65b2c03585d1486a86a361e0beafc918ed844ec1475f",
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
        "144d93b7751c4f3a18e55f4baf6bd3b29f62d9ac1cffc5cf1296f16658b4ac35",
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
        "d82b250dc64480013a7ee2d724a747e4f178338a70d22d4c77e53719d2c8c662",
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
        "4157963b965f50a44054dc74355ef2dbcbb0d9d59f2f6768703e2e805511321a",
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
        "dd141eaba9c5fff83c73a8063386a23b363f19e36683b37d73d46bf8cbc33e6e",
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
