"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py ROUND_DIR [--trace]

ROUND_DIR holds `plan.json`, the list of operations written by run.py.  The
worker imports numpy, scipy and fracgl, prepares one output directory per
operation, stamps `time.monotonic()` (the parent stamped the same clock
before starting this process, so the difference is the set-up time), then
runs the operations one after another, timing each call into fracgl.  It
writes `result.json` into ROUND_DIR and exits 0; a failed operation is
recorded there, not raised.

Outputs that the checks need but fracgl does not write (the ensembles
returned by `simulate.euler_ensemble`) are kept by a thin wrapper and saved
under ROUND_DIR/capture after the operation's clock has stopped.
"""

from __future__ import annotations

import functools
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402
import fracgl  # noqa: E402
from fracgl import cli, kernel, operators, simulate  # noqa: E402


class EnsembleRecorder:
    """Wraps `simulate.euler_ensemble` to keep its outputs and its work count
    (replicas x sites x steps) for the checks and the per-layer metrics."""

    def __init__(self, inner):
        self.outputs = []
        self.site_steps = 0
        self.replica_steps = 0

        @functools.wraps(inner)
        def euler_ensemble(sys_, phi0, T, dt, *args, **kwargs):
            out = inner(sys_, phi0, T, dt, *args, **kwargs)
            steps = max(1, int(math.ceil(T / dt - 1e-12)))
            self.replica_steps += phi0.shape[0] * steps
            self.site_steps += phi0.shape[0] * phi0.shape[1] * steps
            self.outputs.append(out)
            return out

        self.wrapper = euler_ensemble

    def save(self, path: str) -> None:
        """Write the kept outputs as arrays `<key>_<call>` and forget them."""
        if self.outputs:
            arrays = {f"{key}_{i}": val for i, out in enumerate(self.outputs)
                      for key, val in out.items()}
            np.savez(path, **arrays)
        self.outputs = []


class CountingBump:
    """fracgl SmoothBump whose f, f' and f'' count the calls made on them."""

    def __init__(self, a: float, b: float, amp: float, counted: bool):
        bump = operators.SmoothBump(a, b, amp)
        self.calls = 0
        if not counted:
            self.function = bump
            return

        def counting(fn):
            def call(u):
                self.calls += 1
                return fn(u)
            return call

        self.function = operators.TestFunction(
            f=counting(bump.f), df=counting(bump.df), d2f=counting(bump.d2f),
            support=bump.support)


def _regional_grid(op: dict, out_dir: str, bump: CountingBump) -> int:
    params = fracgl.ModelParams(op["n"], op["gamma"])
    u = params.grid()
    regional = [operators.regional_laplacian_pointwise(op["gamma"], bump.function, float(x))
                for x in u]
    g = operators.SmoothBump(*op["support"], op["amp"]).f(u)
    lap = kernel.discrete_fractional_laplacian(params, g)
    semi = kernel.discrete_inner_seminorm(params, g, g)
    with open(os.path.join(out_dir, "values.json"), "w") as fh:
        json.dump({"regional": [float(v) for v in regional],
                   "discrete_laplacian": lap.tolist(),
                   "discrete_seminorm": float(semi)}, fh)
    return 0


def _continuum_seminorm(op: dict, out_dir: str, bump: CountingBump) -> int:
    value = operators.continuum_seminorm(op["gamma"], bump.function, bump.function,
                                         n_outer=op["n_outer"])
    with open(os.path.join(out_dir, "values.json"), "w") as fh:
        json.dump({"seminorm": value}, fh)
    return 0


def run_op(op: dict, out_dir: str, counted: bool):
    """Run one operation; return (status, integrand calls)."""
    if op["kind"] == "cli":
        return cli.main(op["argv"] + ["--out", out_dir]), 0
    bump = CountingBump(*op["support"], op["amp"], counted)
    if op["kind"] == "regional_grid":
        return _regional_grid(op, out_dir, bump), bump.calls
    if op["kind"] == "continuum_seminorm":
        return _continuum_seminorm(op, out_dir, bump), bump.calls
    raise ValueError(f"unknown operation kind {op['kind']!r}")


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def main(argv) -> int:
    round_dir = argv[0]
    traced = "--trace" in argv[1:]
    with open(os.path.join(round_dir, "plan.json")) as fh:
        plan = json.load(fh)
    out_dirs = []
    for op in plan:
        path = os.path.join(round_dir, "out", op["name"])
        os.makedirs(path)
        out_dirs.append(path)
    capture_dir = os.path.join(round_dir, "capture")
    os.makedirs(capture_dir)
    t_ready = time.monotonic()

    # imported after the stamp: the benchmark's own code is no user's set-up
    from perfbench.tracer import Tracer, rebind
    recorder = EnsembleRecorder(simulate.euler_ensemble)
    rebind(fracgl, simulate.euler_ensemble, recorder.wrapper)
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(fracgl)

    ops = []
    integrand_calls = 0
    for op, out_dir in zip(plan, out_dirs):
        error = None
        t0 = time.perf_counter()
        try:
            status, calls = run_op(op, out_dir, counted=traced)
        except Exception as exc:  # recorded as a failed operation
            status, calls, error = None, 0, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        integrand_calls += calls
        recorder.save(os.path.join(capture_dir, op["name"] + ".npz"))
        ops.append({"name": op["name"], "status": status, "error": error,
                    "seconds": seconds, "artifact_bytes": _dir_bytes(out_dir)})

    result = {"t_ready": t_ready, "ops": ops,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["layers"] = tracer.metrics(
            replica_site_steps=recorder.site_steps,
            replica_steps=recorder.replica_steps,
            integrand_calls=integrand_calls,
            artifact_bytes=sum(op["artifact_bytes"] for op in ops))
        tracer.save_spans(os.path.join(round_dir, "spans.npz"))
    with open(os.path.join(round_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
