"""Spans around fracgl's public functions, patched in from outside the package.

A layer is a fracgl module; `cli` counts as part of `experiments`.  Every
function a layer lists in `__all__` is wrapped once, and every name in the
package bound to it is pointed at the wrapper, so calls between modules
(which use names imported with `from .kernel import ...`) are seen too.
Spans (function, parent span, start, end) are kept in flat arrays in memory
and written out when the round ends.

The generators that `make_rng` hands to `simulate` and `ness` are replaced
by a proxy that times and counts the normal draws.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYER_MODULES = ("kernel", "ness", "operators", "simulate", "hydro", "ldp",
                 "experiments", "cli")
NOISE_MODULES = ("simulate", "ness")

# (span name, "s" for its total seconds or "calls" for its count)
FUNCTION_METRICS = [
    ("kernel.build_drift_system", "s"), ("kernel.build_drift_system", "calls"),
    ("kernel.discrete_inner_seminorm", "s"), ("kernel.discrete_inner_seminorm", "calls"),
    ("kernel.discrete_fractional_laplacian", "s"),
    ("ness.solve_stationary_profile", "s"), ("ness.solve_stationary_profile", "calls"),
    ("ness.sample_ness", "s"),
    ("operators.dirichlet_spectrum", "s"), ("operators.dirichlet_spectrum", "calls"),
    ("operators.regional_laplacian_pointwise", "s"),
    ("operators.regional_laplacian_pointwise", "calls"),
    ("operators.continuum_seminorm", "s"),
    ("simulate.euler_ensemble", "s"),
    ("hydro.solve_hydrodynamic", "s"), ("hydro.solve_hydrodynamic", "calls"),
    ("ldp.rate_from_field", "s"), ("ldp.j_functional", "s"), ("ldp.j_functional", "calls"),
    ("ldp.clever_path", "s"), ("ldp.quasipotential", "s"),
]
SELF_LAYERS = ("kernel", "ness", "operators", "simulate", "hydro", "ldp", "experiments")


def layer_of(module_name: str) -> str:
    short = module_name.rsplit(".", 1)[-1]
    return "experiments" if short == "cli" else short


def rebind(package, old, new) -> None:
    """Point every name in the package's modules that is bound to `old` at `new`."""
    prefix = package.__name__ + "."
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package.__name__ or name.startswith(prefix))]
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is old:
                setattr(module, name, new)


class _TimedGenerator:
    """Forwards to a numpy Generator, timing and counting `standard_normal`."""

    def __init__(self, generator, tracer: "Tracer", layer: str):
        self._generator = generator
        self._tracer = tracer
        self._layer = layer

    def standard_normal(self, size=None, *args, **kwargs):
        t0 = time.perf_counter()
        out = self._generator.standard_normal(size, *args, **kwargs)
        self._tracer.noise_s += time.perf_counter() - t0
        self._tracer.normals[self._layer] += getattr(out, "size", 1)
        return out

    def __getattr__(self, name):
        return getattr(self._generator, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.noise_s = 0.0
        self.normals = {layer: 0 for layer in NOISE_MODULES}

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_end.append(0.0)
            stack.append(idx)
            self.span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                stack.pop()

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of `package`."""
        for short in LAYER_MODULES:
            module = importlib.import_module(f"{package.__name__}.{short}")
            public = getattr(module, "__all__", None) or ["main"]
            for attr in public:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    rebind(package, fn, self._wrap(f"{layer_of(short)}.{attr}", fn))
        for short in NOISE_MODULES:
            module = importlib.import_module(f"{package.__name__}.{short}")
            make_rng = module.make_rng

            def timed_make_rng(*args, _make=make_rng, _layer=short, **kwargs):
                return _TimedGenerator(_make(*args, **kwargs), self, _layer)

            module.make_rng = timed_make_rng

    def _columns(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        return name, parent, start, end

    def table(self) -> dict:
        """Per span name: calls, total seconds, and self seconds (total minus
        the time covered by its direct children)."""
        name, parent, start, end = self._columns()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {label: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
                for i, label in enumerate(self.names)}

    def metrics(self, replica_site_steps: int, replica_steps: int,
                integrand_calls: int, artifact_bytes: int) -> dict:
        table = self.table()
        out = {f"{name}.{kind}": table[name][kind] for name, kind in FUNCTION_METRICS}
        for layer in SELF_LAYERS:
            out[f"{layer}.self_s"] = sum(row["self_s"] for name, row in table.items()
                                        if name.startswith(layer + "."))
        ensemble_s = table["simulate.euler_ensemble"]["s"]
        out["simulate.ns_per_replica_site_step"] = (
            1e9 * ensemble_s / replica_site_steps if replica_site_steps else 0.0)
        out["simulate.noise_draw_s"] = self.noise_s
        out["simulate.normals_per_replica_step"] = (
            self.normals["simulate"] / replica_steps if replica_steps else 0.0)
        out["operators.integrand_calls"] = integrand_calls
        out["experiments.artifact_bytes"] = artifact_bytes
        out["functions"] = table
        return out

    def save_spans(self, path: str) -> None:
        name, parent, start, end = self._columns()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)
