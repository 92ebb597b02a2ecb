"""Command line front end.

Subcommands read a JSON config file, run one library operation, and write a
report to stdout or --out as JSON (the whole report, byte-stable, strict: a
non-finite number is an error) or CSV (the tabular core of the same report).
Each subcommand's handler takes the loaded config and the parsed arguments
and returns its report and whether its check or bound held; `main` loads the
config, writes the report and picks the exit code.
Exit codes: 0 when the requested check or bound holds (or the command is
purely informational), 2 when a bound or check is violated beyond statistical
slack, 1 for usage, config, or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields
from typing import AbstractSet, Mapping, Sequence

import numpy as np

from ._version import __version__
from .experiments import (
    ExperimentConfig,
    RoundRecord,
    choose_bound,
    run_single_volume,
    run_two_volume,
)
from .hamiltonian import HamiltonianSpec, HamiltonianTemplate, _check_keys, _pair, one_blas_thread
from .lattice import classify_separation, projection_sites
from .potential import DistributionSpec, RngStream, _integer, _malformed, sample_field
from .spectral import verify_dm_eigenvalues
from .stollmann import (
    DMFunctionSpec,
    IntervalSpec,
    check_dm_function,
    coordinate_max,
    coordinate_sum,
    order_statistic,
    positive_linear,
    single_coordinate,
    stollmann_exact,
    stollmann_mc,
)


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


def _load_config(path: str, seed: int | None = None) -> dict:
    """The JSON object at `path`, with `master_seed` overridden by `seed`.

    Strict JSON only: NaN, Infinity and literals that overflow a float, such
    as 1e400, are refused before any work starts.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_constant=_finite, parse_float=_finite)
        except json.JSONDecodeError as err:
            raise ValueError(f"config is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    if seed is not None:
        data["master_seed"] = seed
    return data


def _csv_lines(payload: dict) -> list[str]:
    kind = payload.get("kind")
    if kind == "two_volume":
        cols = [f.name for f in fields(RoundRecord)]
        lines = [",".join(cols)]
        for r in payload["rounds"]:
            lines.append(",".join(str(r[c]) for c in cols))
        return lines
    if kind == "spectrum":
        lines = ["index,eigenvalue"]
        for i, v in enumerate(payload["eigenvalues"]):
            lines.append(f"{i},{v!r}")
        return lines
    if kind == "geometry":
        return ["separation_class"] + list(payload["separation_classes"])
    # flat field,value table for the remaining report kinds
    lines = ["field,value"]
    for k, v in payload.items():
        if isinstance(v, (dict, list)):
            continue
        lines.append(f"{k},{v}")
    return lines


def write_report(report, fmt: str, out: str | None) -> None:
    """Serialise a report (object with to_dict, or a plain dict) and write it.

    JSON output is the full report with a trailing newline; identical reports
    serialise to identical bytes.  A NaN or infinity has no JSON form, so it
    raises ValueError before anything is written.  CSV output carries the
    tabular core only.
    """
    payload = report.to_dict() if hasattr(report, "to_dict") else report
    if fmt == "json":
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    elif fmt == "csv":
        text = "\n".join(_csv_lines(payload)) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_experiment(data: dict, args):
    run = run_two_volume if args.command == "wegner-two" else run_single_volume
    report = run(ExperimentConfig.from_dict(data, args.threads))
    return report, report.verdict == "holds"


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
    if u.dimension != dimension:
        raise ValueError("box centres must match the configured dimension")
    classes = classify_separation(u, u_prime, radius)
    payload = {
        "kind": "geometry",
        "dimension": dimension,
        "radius": radius,
        "center": [list(u.first), list(u.second)],
        "center_prime": [list(u_prime.first), list(u_prime.second)],
        "separation_classes": sorted(c.value for c in classes),
        "bound_choice": choose_bound(classes).value,
    }
    return payload, True


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
        rng = RngStream(_integer(data["master_seed"], "master_seed"), 0)
    return spec, sample_field(projection_sites(spec.box), dist, rng)


@one_blas_thread()
def _cmd_spectrum(data: dict, args):
    spec, site_values = _sampled(data, "hamiltonian")
    template = HamiltonianTemplate(spec)
    eigs = np.linalg.eigvalsh(template.assemble_values(site_values))
    payload = {
        "kind": "spectrum",
        "source_dim": template.dim,
        "eigenvalues": [float(v) for v in eigs],
    }
    return payload, True


@_malformed("function")
def _function_from_config(data: Mapping) -> DMFunctionSpec:
    if "form" not in data:
        raise ValueError("function config needs a 'form'")
    form = data["form"]
    allowed_by_form = {
        "sum": {"form", "arity"},
        "max": {"form", "arity"},
        "coordinate": {"form", "arity", "index"},
        "linear": {"form", "coeffs"},
        "order": {"form", "arity", "k", "shifts"},
    }
    if form not in allowed_by_form:
        raise ValueError(f"unknown function form {form!r}")
    _check_keys(data, allowed=allowed_by_form[form], required={"form"}, what=f"{form} function")
    if form == "linear":
        return positive_linear([float(c) for c in data["coeffs"]])
    arity = _integer(data["arity"], "arity")
    if form == "sum":
        return coordinate_sum(arity)
    if form == "max":
        return coordinate_max(arity)
    if form == "coordinate":
        return single_coordinate(arity, _integer(data.get("index", 0), "index"))
    shifts = data.get("shifts")
    return order_statistic(
        arity,
        _integer(data["k"], "k"),
        None if shifts is None else [float(s) for s in shifts],
    )


def _cmd_stollmann_check(data: dict, args):
    _check_keys(
        data,
        allowed={"function", "dist", "interval", "mode", "trials", "master_seed"},
        required={"function", "dist", "interval"},
        what="stollmann",
    )
    f = _function_from_config(data["function"])
    dist = DistributionSpec.from_dict(data["dist"])
    raw_interval = data["interval"]
    if not isinstance(raw_interval, (list, tuple)) or len(raw_interval) != 2:
        raise ValueError("interval must be [lower, upper]")
    mode = data.get("mode", "exact")
    with _malformed("stollmann"):
        interval = IntervalSpec(lower=float(raw_interval[0]), upper=float(raw_interval[1]))
        if mode == "mc":
            if "trials" not in data or "master_seed" not in data:
                raise ValueError("mc mode needs trials and master_seed")
            trials = _integer(data["trials"], "trials")
            rng = RngStream(_integer(data["master_seed"], "master_seed"), 0)
        elif mode != "exact":
            raise ValueError(f"unknown mode {mode!r}; pick exact or mc")
        elif "trials" in data or "master_seed" in data:
            raise ValueError("exact mode draws nothing: it takes no trials, master_seed or --seed")
    if mode == "exact":
        res = stollmann_exact(f, dist, interval)
        holds = res.holds
    else:
        res = stollmann_mc(f, dist, interval, trials, rng)
        holds = res.holds_within_3sigma
    payload = {
        "kind": f"stollmann_{mode}",
        "function": f.name,
        "interval": [interval.lower, interval.upper],
        **asdict(res),
    }
    return payload, holds


def _cmd_dm_check(data: dict, args):
    target = data.get("target", "function")
    if target == "function":
        _check_keys(
            data,
            allowed={"target", "function", "domain", "samples", "master_seed", "tolerance"},
            required={"function", "domain", "samples", "master_seed"},
            what="dm function",
        )
        f = _function_from_config(data["function"])
        domain = data["domain"]
        if not isinstance(domain, (list, tuple)) or len(domain) != 2:
            raise ValueError("domain must be [lo, hi]")
        with _malformed("dm function"):
            domain = (float(domain[0]), float(domain[1]))
            samples = _integer(data["samples"], "samples")
            rng = RngStream(_integer(data["master_seed"], "master_seed"), 0)
            tolerance = float(data.get("tolerance", 1e-12))
        report = check_dm_function(f, domain, samples, rng, tolerance=tolerance)
    elif target == "eigenvalues":
        spec, site_values = _sampled(
            data, "dm eigenvalue", extra={"target", "trials", "tolerance"}, required={"trials"}
        )
        with _malformed("dm eigenvalue"):
            trials = _integer(data["trials"], "trials")
            rng = RngStream(_integer(data["master_seed"], "master_seed"), 1)
            tolerance = float(data.get("tolerance", 1e-9))
        report = verify_dm_eigenvalues(spec, site_values, trials, rng, tolerance=tolerance)
    else:
        raise ValueError(f"unknown dm-check target {target!r}")
    return {"kind": "dm_check", **asdict(report)}, report.passed


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="wegner2p",
        description="Two-particle disorder models: spectra and concentration bounds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    # Each subcommand takes only the flags its handler reads.
    seed = ("--seed", {"type": int, "default": None, "help": "override master_seed"})
    threads = (
        "--threads",
        {
            "type": int,
            "default": 1,
            "metavar": "N",
            "help": "worker processes: this one and up to N-1 forked helpers, "
            "each with OpenBLAS on one thread",
        },
    )

    def add(name: str, handler, help_text: str, *options) -> None:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)

    add("geometry-classify", _cmd_geometry_classify, "separation classes of two box centres")
    add("spectrum", _cmd_spectrum, "eigenvalues of one sampled operator", seed)
    for name, help_text in (
        ("wegner-single", "single-volume concentration bound experiment"),
        ("wegner-two", "two-volume conditional bound experiment"),
    ):
        add(name, _cmd_experiment, help_text, seed, threads)
    add("stollmann-check", _cmd_stollmann_check, "interval probability vs DM bound", seed)
    add("dm-check", _cmd_dm_check, "diagonal monotonicity checks", seed)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser = _build_parser()
    args_list = list(sys.argv[1:] if argv is None else argv)
    if not args_list:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        args = parser.parse_args(args_list)
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
        report, ok = args.handler(_load_config(args.config, getattr(args, "seed", None)), args)
        write_report(report, args.format, args.out)
        return 0 if ok else 2
    except (_UsageError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except KeyError as err:
        print(f"error: missing config key {err}", file=sys.stderr)
        return 1
    except RuntimeError as err:
        print(f"invariant violated: {err}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
