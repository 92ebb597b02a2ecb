"""Command line front end.

Subcommands read a JSON config file (a seed is set there, as `master_seed`),
run one library operation, and write a report to stdout or --out as JSON
(byte-stable and strict: a non-finite number is an error).  Each handler
takes the loaded config and the parsed arguments and returns `(kind, body,
ok)`: the report's kind, its body as a dict, and whether its check or bound
held.  `main` loads the config, writes every report as `kind`,
`schema_version` and `tool_version` followed by the body, and picks the exit
code.  A change that moves any report byte bumps SCHEMA_VERSION.
Exit codes: 0 when the requested check or bound holds (or the command is
purely informational), 2 when a bound or check is violated beyond statistical
slack, 1 for usage, config, or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from typing import AbstractSet, Mapping, Sequence

import numpy as np

from ._version import __version__
from .experiments import ExperimentConfig, choose_bound, run_single_volume, run_two_volume
from .hamiltonian import HamiltonianSpec, HamiltonianTemplate, _pair
from .lattice import classify_separation, projection_sites
from .potential import DistributionSpec, RngStream, _check_keys, _integer, _malformed, sample_field
from .spectral import spectra, verify_dm_eigenvalues
from .stollmann import (
    DMFunctionSpec,
    IntervalSpec,
    coordinate_max,
    coordinate_sum,
    single_coordinate,
    stollmann_exact,
    stollmann_mc,
)

SCHEMA_VERSION = 9


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems via exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _finite(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"config holds the non-finite number {literal}")
    return value


def _unique_keys(pairs: list) -> dict:
    data: dict = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"config repeats the key {key!r}")
        data[key] = value
    return data


def _load_config(path: str) -> dict:
    """The JSON object at `path`.

    Strict JSON only: NaN, Infinity and literals that overflow a float, such
    as 1e400, are refused before any work starts, and so is an object that
    repeats a key, at any depth.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(
                fh, parse_constant=_finite, parse_float=_finite, object_pairs_hook=_unique_keys
            )
        except json.JSONDecodeError as err:
            raise ValueError(f"config is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    return data


def write_report(report: dict, out: str | None) -> None:
    """Write a report as JSON with a trailing newline to `out` or stdout.

    Identical reports serialise to identical bytes.  A NaN or infinity has no
    JSON form, so it raises ValueError before anything is written.
    """
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_experiment(data: dict, args):
    if args.command == "wegner-two":
        kind, run = "two_volume", run_two_volume
    else:
        kind, run = "single_volume", run_single_volume
    report = run(ExperimentConfig.from_dict(data, args.threads))
    return kind, asdict(report), report.verdict == "holds"


def _cmd_geometry_classify(data: dict, args):
    _check_keys(
        data,
        allowed={"dimension", "radius", "center", "center_prime"},
        required={"dimension", "radius", "center", "center_prime"},
        what="geometry",
    )
    u = _pair(data["center"], "center")
    u_prime = _pair(data["center_prime"], "center_prime")
    with _malformed("geometry"):
        radius = _integer(data["radius"], "radius")
        dimension = _integer(data["dimension"], "dimension")
    if {u.dimension, u_prime.dimension} != {dimension}:
        raise ValueError("box centres must match the configured dimension")
    classes = classify_separation(u, u_prime, radius)
    payload = {
        "dimension": dimension,
        "radius": radius,
        "center": [list(u.first), list(u.second)],
        "center_prime": [list(u_prime.first), list(u_prime.second)],
        "separation_classes": sorted(c.value for c in classes),
        "bound_choice": choose_bound(classes).value,
    }
    return "geometry", payload, True


def _sampled(
    data: Mapping,
    what: str,
    extra: AbstractSet[str] = frozenset(),
    required: AbstractSet[str] = frozenset(),
) -> tuple[HamiltonianSpec, np.ndarray]:
    """Spec of the configured box and field values on its projection sites.

    The values come from substream 0 of `master_seed`.  `extra` and
    `required` name the caller's own config keys besides dist and master_seed.
    """
    seeded = {"dist", "master_seed"}
    spec = HamiltonianSpec.from_dict(data, what, extra | seeded, required | seeded)
    dist = DistributionSpec.from_dict(data["dist"])
    with _malformed(what):
        rng = RngStream(data["master_seed"], 0)
    return spec, sample_field(projection_sites(spec.box), dist, rng)


def _cmd_spectrum(data: dict, args):
    spec, site_values = _sampled(data, "hamiltonian")
    template = HamiltonianTemplate(spec)
    eigs = spectra(template, site_values)
    payload = {"source_dim": template.dim, "eigenvalues": [float(v) for v in eigs]}
    return "spectrum", payload, True


# Each `stollmann-check` function form and its factory, and the keys every
# form takes, `form` included.
_FUNCTION_FORMS = {"sum": coordinate_sum, "max": coordinate_max, "coordinate": single_coordinate}
_FUNCTION_KEYS = frozenset({"form", "arity"})


@_malformed("function")
def _function_from_config(data: Mapping) -> DMFunctionSpec:
    if "form" not in data:
        raise ValueError("function config needs a 'form'")
    form = data["form"]
    if form not in _FUNCTION_FORMS:
        raise ValueError(f"unknown function form {form!r}")
    _check_keys(data, _FUNCTION_KEYS, f"{form} function", required=_FUNCTION_KEYS)
    return _FUNCTION_FORMS[form](data["arity"])


def _cmd_stollmann_check(data: dict, args):
    _check_keys(
        data,
        allowed={"function", "dist", "interval", "trials", "master_seed"},
        required={"function", "dist", "interval"},
        what="stollmann",
    )
    f = _function_from_config(data["function"])
    dist = DistributionSpec.from_dict(data["dist"])
    raw_interval = data["interval"]
    if not isinstance(raw_interval, (list, tuple)) or len(raw_interval) != 2:
        raise ValueError("interval must be [lower, upper]")
    with _malformed("stollmann"):
        interval = IntervalSpec(*raw_interval)
    payload = {"function": f.name, "interval": [interval.lower, interval.upper]}
    # The law picks the path: a discrete law is enumerated, any other sampled.
    sampling = {"trials", "master_seed"}
    if dist.kind == "discrete" and sampling & data.keys():
        raise ValueError("a discrete law is enumerated exactly: it takes no trials or master_seed")
    if dist.kind == "discrete":
        res = stollmann_exact(f, dist, interval)
        return "stollmann_exact", payload | asdict(res), res.holds
    if missing := sorted(sampling - data.keys()):
        raise ValueError(f"a {dist.kind} law is sampled: stollmann config lacks {missing}")
    with _malformed("stollmann"):
        rng = RngStream(data["master_seed"], 0)
    res = stollmann_mc(f, dist, interval, data["trials"], rng)
    return "stollmann_mc", payload | asdict(res), res.holds_within_3sigma


def _cmd_dm_check(data: dict, args):
    spec, site_values = _sampled(data, "dm eigenvalue", {"trials"}, {"trials"})
    rng = RngStream(data["master_seed"], 1)
    report = verify_dm_eigenvalues(spec, site_values, data["trials"], rng)
    return "dm_check", asdict(report), report.passed


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="wegner2p",
        description="Two-particle disorder models: spectra and concentration bounds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    # Each subcommand takes only the flags its handler reads.
    def add(name: str, handler, help_text: str) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.set_defaults(handler=handler)
        return p

    add("geometry-classify", _cmd_geometry_classify, "separation classes of two box centres")
    add("spectrum", _cmd_spectrum, "eigenvalues of one sampled operator")
    for name, help_text in (
        ("wegner-single", "single-volume concentration bound experiment"),
        ("wegner-two", "two-volume conditional bound experiment"),
    ):
        add(name, _cmd_experiment, help_text).add_argument(
            "--threads",
            type=int,
            default=1,
            metavar="N",
            help="worker processes: this one and up to N-1 forked helpers, "
            "each with OpenBLAS on one thread",
        )
    add("stollmann-check", _cmd_stollmann_check, "interval probability vs DM bound")
    add("dm-check", _cmd_dm_check, "diagonal monotonicity of the sorted eigenvalues")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code.  A usage error, a
    ValueError (a refused config or input) or an OSError prints an `error:`
    line and returns 1, a RuntimeError (a broken invariant) returns 2; any
    other exception, a KeyError included, is a bug and propagates."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        parser.print_usage(sys.stderr)
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit as err:  # --help and --version land here
        return int(err.code or 0)
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        kind, body, ok = args.handler(_load_config(args.config), args)
        header = {"kind": kind, "schema_version": SCHEMA_VERSION, "tool_version": __version__}
        write_report(header | body, out=args.out)
        return 0 if ok else 2
    except (_UsageError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RuntimeError as err:
        print(f"invariant violated: {err}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
