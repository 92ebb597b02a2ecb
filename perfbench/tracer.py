"""Per-layer tracing of wegner2p from outside the package.

`Tracer.install` replaces the public functions of each layer, in every module
that calls them by name, with wrappers that record a span (name, start, end,
extra) in memory or just count calls.  Nothing inside `src/` changes.  The
process that installed a tracer is the one it measures, and the benchmark
uses a fresh process for every traced iteration, so patches are never undone.
"""

from __future__ import annotations

import functools
import os
import threading
import time
import types
from array import array

import numpy as np

# Span names whose self time is reported: duration minus the part of the
# span's interval that other spans (from any thread) cover.
SELF_TIMED = {"experiments.run": "experiments.self_s", "lattice.survey": "lattice.survey_self_s"}


def _eigvalsh_shape(args, kwargs, result):
    a = np.asarray(args[0])
    m = a.shape[-1]
    matrices = int(np.prod(a.shape[:-2], dtype=np.int64)) if a.ndim > 2 else 1
    return {"matrices": matrices, "bytes": matrices * m * m * 8, "batch_bytes": int(a.nbytes)}


def _report_size(args, kwargs, result):
    out = kwargs.get("out", args[2] if len(args) > 2 else None)
    return {"bytes": os.path.getsize(out) if out else 0}


def _numpy_with_eigvalsh(eigvalsh) -> types.ModuleType:
    """A stand-in for the numpy module whose linalg.eigvalsh is `eigvalsh`."""
    linalg = types.ModuleType("numpy.linalg")
    linalg.__getattr__ = lambda name: getattr(np.linalg, name)
    linalg.eigvalsh = eigvalsh
    proxy = types.ModuleType("numpy")
    proxy.__getattr__ = lambda name: getattr(np, name)
    proxy.linalg = linalg
    return proxy


def _covered(start: float, end: float, starts: np.ndarray, ends: np.ndarray) -> float:
    """Length of [start, end] covered by the union of intervals sorted by start."""
    keep = (ends > start) & (starts < end)
    lo = np.maximum(starts[keep], start)
    hi = np.minimum(ends[keep], end)
    if lo.size == 0:
        return 0.0
    reach = np.maximum.accumulate(hi)
    first = np.flatnonzero(np.concatenate(([True], lo[1:] > reach[:-1])))
    return float(np.sum(np.maximum.reduceat(hi, first) - lo[first]))


class Tracer:
    """Spans and call counts for one process, kept in memory.

    Each thread appends to its own store, so spans from the experiment's
    worker threads never interleave.  A span is kept as a (start, end) pair
    in a flat float array, plus an optional dict of sizes for the layers
    whose work is counted from array shapes.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._stores: list[dict[str, tuple[array, list]]] = []
        self.missing: list[str] = []

    def _entry(self, name: str) -> tuple[array, list]:
        """This thread's (times, extras) store for one span name."""
        store = getattr(self._local, "store", None)
        if store is None:
            store = self._local.store = {}
            self._stores.append(store)
        return store.setdefault(name, (array("d"), []))

    def _span(self, name: str, fn, extra=None):
        clock = time.perf_counter
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            end = clock()
            try:
                times, extras = local.store[name]
            except (AttributeError, KeyError):
                times, extras = self._entry(name)
            times.append(start)
            times.append(end)
            if extra is not None:
                extras.append(extra(args, kwargs, result))
            return result

        return wrapper

    def _count(self, name: str, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                local.store[name][1].append(None)
            except (AttributeError, KeyError):
                self._entry(name)[1].append(None)
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owners, attr: str, make) -> None:
        for owner in owners:
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            setattr(owner, attr, make(original))

    def install(self) -> "Tracer":
        from wegner2p import cli, experiments, hamiltonian, lattice, potential, spectral, stollmann

        span, count = self._span, self._count
        self._patch([hamiltonian.HamiltonianTemplate], "__init__",
                    lambda f: span("hamiltonian.template", f))
        self._patch([hamiltonian.HamiltonianTemplate], "diagonal_shift",
                    lambda f: span("hamiltonian.diag", f))
        self._patch([potential.RngStream], "generator", lambda f: span("potential.rng_derive", f))
        self._patch([potential, experiments, stollmann], "draw_values",
                    lambda f: span("potential.draw", f))
        self._patch([experiments, spectral], "min_gaps_to_sorted",
                    lambda f: span("spectral.min_gaps", f))
        self._patch([lattice, experiments, cli], "classify_separation",
                    lambda f: span("lattice.classify", f))
        for name in ("survey_separation_line", "survey_separation_plane"):
            self._patch([lattice], name, lambda f: span("lattice.survey", f))
        for name in ("run_single_volume", "run_two_volume"):
            self._patch([experiments, cli], name, lambda f: span("experiments.run", f))
        self._patch([stollmann, cli], "stollmann_mc", lambda f: span("stollmann.mc", f))
        self._patch([stollmann.DMFunctionSpec], "__call__",
                    lambda f: count("stollmann.evaluator", f))
        self._patch([spectral, cli], "verify_dm_eigenvalues",
                    lambda f: span("spectral.verify_dm", f))
        self._patch([cli], "write_report", lambda f: span("cli.write_report", f, _report_size))
        experiments.np = _numpy_with_eigvalsh(
            span("experiments.eigvalsh", np.linalg.eigvalsh, _eigvalsh_shape)
        )
        spectral.np = _numpy_with_eigvalsh(count("spectral.eigvalsh", np.linalg.eigvalsh))
        if self.missing:
            raise RuntimeError(f"tracer: patch targets not found: {', '.join(self.missing)}")
        return self

    def _merged(self) -> dict[str, tuple[np.ndarray, list]]:
        merged: dict[str, tuple[list, list]] = {}
        for store in self._stores:
            for name, (times, extras) in store.items():
                acc = merged.setdefault(name, ([], []))
                acc[0].append(np.frombuffer(times, dtype=float).reshape(-1, 2))
                acc[1].extend(extras)
        return {name: (np.concatenate(t), e) for name, (t, e) in merged.items()}

    def layer_metrics(self) -> dict[str, float]:
        """Summed busy seconds, call counts and computed sizes per layer."""
        spans = self._merged()
        busy = {name: float(np.sum(t[:, 1] - t[:, 0])) for name, (t, _) in spans.items()}
        calls = {name: len(t) for name, (t, _) in spans.items()}
        counted = {name: len(e) for name, (_, e) in spans.items()}
        eig = spans.get("experiments.eigvalsh", (None, []))[1]
        eig_matrices = sum(x["matrices"] for x in eig)
        reports = spans.get("cli.write_report", (None, []))[1]

        children = [t for name, (t, _) in spans.items() if name not in SELF_TIMED and len(t)]
        child = np.concatenate(children) if children else np.zeros((0, 2))
        child = child[np.argsort(child[:, 0], kind="stable")]
        self_s = {metric: 0.0 for metric in SELF_TIMED.values()}
        for name, metric in SELF_TIMED.items():
            for start, end in spans.get(name, (np.zeros((0, 2)), []))[0]:
                self_s[metric] += (end - start) - _covered(start, end, child[:, 0], child[:, 1])

        eig_s = busy.get("experiments.eigvalsh", 0.0)
        return {
            "hamiltonian.template_s": busy.get("hamiltonian.template", 0.0),
            "hamiltonian.template_calls": calls.get("hamiltonian.template", 0),
            "potential.rng_derive_s": busy.get("potential.rng_derive", 0.0),
            "potential.rng_derive_calls": calls.get("potential.rng_derive", 0),
            "potential.draw_s": busy.get("potential.draw", 0.0),
            "potential.draw_calls": calls.get("potential.draw", 0),
            "hamiltonian.diag_s": busy.get("hamiltonian.diag", 0.0),
            "experiments.eigvalsh_s": eig_s,
            "experiments.eigvalsh_matrices": eig_matrices,
            "experiments.eigvalsh_us_per_matrix": 1e6 * eig_s / eig_matrices if eig_matrices else 0.0,
            "experiments.eigvalsh_bytes": sum(x["bytes"] for x in eig),
            "experiments.batch_bytes_max": max((x["batch_bytes"] for x in eig), default=0),
            "experiments.self_s": float(self_s["experiments.self_s"]),
            "spectral.min_gaps_s": busy.get("spectral.min_gaps", 0.0),
            "cli.write_report_s": busy.get("cli.write_report", 0.0),
            "cli.report_bytes": sum(x["bytes"] for x in reports),
            "lattice.classify_s": busy.get("lattice.classify", 0.0),
            "lattice.classify_calls": calls.get("lattice.classify", 0),
            "lattice.survey_self_s": float(self_s["lattice.survey_self_s"]),
            "stollmann.mc_s": busy.get("stollmann.mc", 0.0),
            "stollmann.evaluator_calls": counted.get("stollmann.evaluator", 0),
            "spectral.verify_dm_s": busy.get("spectral.verify_dm", 0.0),
            "spectral.verify_dm_eigvalsh_calls": counted.get("spectral.eigvalsh", 0),
        }
