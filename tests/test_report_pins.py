"""Pinned report bytes for the parts of each report that no BLAS build can round.

Each case runs one subcommand through `cli.main` and hashes the canonical
JSON (sorted keys, no spaces) of its report.  Experiment reports drop
`dist_min`, `dist_mean`, `dist_max` and `dist_digest`, at top level and in
every round, because they hold eigenvalue distances to the last bit; their
hits, frequencies, ceilings and verdicts stay in.  A change that moves any
pinned byte must say why and bump `SCHEMA_VERSION` (or `tool_version`).
"""

import hashlib
import json

import pytest

import wegner2p.cli as cli

UNIFORM = {"kind": "uniform", "lo": 0.0, "hi": 1.0}
DIST_KEYS = ("dist_min", "dist_mean", "dist_max", "dist_digest")

CASES = {
    "geometry-classify": (
        "geometry-classify",
        {"dimension": 1, "radius": 1, "center": [[0], [0]], "center_prime": [[9], [20]]},
        "fc619976162588a52c3425693f4a810354148e1d9ecd9d2fd03d58b1c74ba25b",
    ),
    "stollmann-exact": (
        "stollmann-check",
        {
            "function": {"form": "sum", "arity": 2},
            "dist": {"kind": "discrete", "atoms": [[0.0, 0.25], [1.0, 0.5], [2.5, 0.25]]},
            "interval": [0.5, 2.0],
        },
        "70dd5e6bc04ddff34379ddc380c6821ca933106d40136d30c6d22238cbda679d",
    ),
    "stollmann-mc": (
        "stollmann-check",
        {
            "function": {"form": "max", "arity": 3},
            "dist": UNIFORM,
            "interval": [0.5, 0.6],
            "mode": "mc",
            "trials": 2000,
            "master_seed": 3,
        },
        "acfa9ec5353ea109bbf38ed9c577c861e76295b7f15e6a6733ebb66b83bd7ade",
    ),
    "dm-check-function": (
        "dm-check",
        {
            "target": "function",
            "function": {"form": "order", "arity": 3, "k": 2, "shifts": [0.0, 0.5, -0.25]},
            "domain": [-1.0, 2.0],
            "samples": 300,
            "master_seed": 4,
        },
        "5f1774850f7f526d8d9a7efada92d74c1edbb74b70fcb2af6d6fb33403ee42f2",
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
        "a5d0e4cb6713f38fa2bb26a74b9d0c990eb86d341253ba2fc5b90f2f18fcfe16",
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
        "f3e330771875a012de4a6fcfb8d1cc2a25669191fedb1b4195d4e02df801a38e",
    ),
}


def _pinned_part(report: dict) -> dict:
    for record in [report, *report.get("rounds", [])]:
        for key in DIST_KEYS:
            record.pop(key, None)
    return report


@pytest.mark.parametrize("case", list(CASES))
def test_report_bytes_are_pinned(case, tmp_path):
    command, config, digest = CASES[case]
    path, out = tmp_path / "config.json", tmp_path / "report.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    report = _pinned_part(json.loads(out.read_text()))
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == digest
