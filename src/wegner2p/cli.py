"""Command line front end.

Subcommands read a JSON config file, run one library operation, and write a
report to stdout or --out as JSON (byte-stable and strict: a non-finite
number is an error).  Each subcommand's handler takes the loaded config and
the parsed arguments and returns its report as a dict and whether its check
or bound held; `main` loads the config, writes the report and picks the exit
code.
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
from .hamiltonian import HamiltonianSpec, HamiltonianTemplate, _check_keys, _pair
from .lattice import classify_separation, projection_sites
from .potential import DistributionSpec, RngStream, _integer, _malformed, sample_field
from .spectral import spectra, verify_dm_eigenvalues
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


def _unique_keys(pairs: list) -> dict:
    data: dict = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"config repeats the key {key!r}")
        data[key] = value
    return data


def _load_config(path: str, seed: int | None = None) -> dict:
    """The JSON object at `path`, with `master_seed` overridden by `seed`.

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
    if seed is not None:
        data["master_seed"] = seed
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
    run = run_two_volume if args.command == "wegner-two" else run_single_volume
    report = run(ExperimentConfig.from_dict(data, args.threads))
    return report.to_dict(), report.verdict == "holds"


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
        rng = RngStream(data["master_seed"], 0)
    return spec, sample_field(projection_sites(spec.box), dist, rng)


def _cmd_spectrum(data: dict, args):
    spec, site_values = _sampled(data, "hamiltonian")
    template = HamiltonianTemplate(spec)
    eigs = spectra(template, site_values)
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
        return positive_linear(data["coeffs"])
    arity = data["arity"]
    if form == "sum":
        return coordinate_sum(arity)
    if form == "max":
        return coordinate_max(arity)
    if form == "coordinate":
        return single_coordinate(arity, data.get("index", 0))
    return order_statistic(arity, data["k"], data.get("shifts"))


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
        interval = IntervalSpec(*raw_interval)
        if mode == "mc":
            if "trials" not in data or "master_seed" not in data:
                raise ValueError("mc mode needs trials and master_seed")
            trials = data["trials"]
            rng = RngStream(data["master_seed"], 0)
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
        rng = RngStream(data["master_seed"], 0)
        report = check_dm_function(f, domain, data["samples"], rng, data.get("tolerance", 1e-12))
    elif target == "eigenvalues":
        spec, site_values = _sampled(
            data, "dm eigenvalue", extra={"target", "trials", "tolerance"}, required={"trials"}
        )
        rng = RngStream(data["master_seed"], 1)
        report = verify_dm_eigenvalues(
            spec, site_values, data["trials"], rng, data.get("tolerance", 1e-9)
        )
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
        report, ok = args.handler(_load_config(args.config, getattr(args, "seed", None)), args)
        write_report(report, out=args.out)
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
