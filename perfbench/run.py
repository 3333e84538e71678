"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a fracgl source tree.  Rounds of the workload's
operations run one after another, each in a fresh interpreter
(perfbench/worker.py), for about S seconds; every round's outputs
are checked against perfbench/oracles.py.  The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`.  With
--trace 0 the metrics are the end-to-end ones in BENCHMARK.json: `run_s` sums
each operation's fastest time over the rounds, `setup_s` is the median over
the rounds and memory the highest round; with --trace 1 rounds alternate
between untraced and traced, and the metrics are the per-layer ones, medians
over the traced rounds.  A record of every round goes to .perfbench/results/
and the spans of traced rounds to .perfbench/traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
OUT = os.path.join(ROOT, ".perfbench")
# Set for run.py and inherited by its workers.  One BLAS thread: the two
# cores of the reference machine are shared, and a descheduled BLAS thread
# stalls a whole matmul.  No huge-page advice from numpy: with it, whether an
# array of 4 MB or more is backed by 2 MB pages depends on where it lands,
# which varies from run to run, and so does its share of the peak RSS.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMPY_MADVISE_HUGEPAGE": "0"}
RUN_LIMIT_S = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_round(workload, round_dir: str, traced: bool, time_left: float) -> dict:
    """Run one round in a fresh worker and check its outputs."""
    plan = workload.plan
    os.makedirs(round_dir)
    with open(os.path.join(round_dir, "plan.json"), "w") as fh:
        json.dump(plan, fh)
    cmd = [sys.executable, WORKER, round_dir] + (["--trace"] if traced else [])
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        proc.wait(timeout=max(time_left, 1.0))
    except subprocess.TimeoutExpired:
        pass
    finally:  # also on SIGTERM or Ctrl-C: no worker outlives the run
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    result_path = os.path.join(round_dir, "result.json")
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"traced": traced, "worker_exit": proc.returncode,
                "ops": [{"name": op["name"], "status": None, "failed": True,
                         "checks": {}, "seconds": float("nan")} for op in plan]}
    with open(result_path) as fh:
        result = json.load(fh)
    result["traced"] = traced
    result["setup_s"] = result["t_ready"] - t_spawn
    outputs = {}
    for op, rec in zip(plan, result["ops"]):
        checks = {}
        if rec["status"] == 0:
            capture = os.path.join(round_dir, "capture", op["name"] + ".npz")
            try:
                checks = workload.check(op, os.path.join(round_dir, "out", op["name"]),
                                        capture, outputs)
            except Exception as exc:  # a missing or malformed output fails the check
                checks = {"outputs_readable": (False, f"{type(exc).__name__}: {exc}", None)}
        rec["checks"] = {name: {"pass": bool(ok), "value": val, "bound": bound}
                         for name, (ok, val, bound) in checks.items()}
        rec["wrong"] = rec["status"] == 0 and not all(c["pass"] for c in rec["checks"].values())
        rec["failed"] = rec["status"] != 0 or rec["wrong"]
    return result


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "pinned_env": PINNED_ENV, "cpu_count": os.cpu_count(),
            "machine": platform.machine()}


def medians(rows: list) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def fastest_round_s(rounds: list) -> float:
    """Sum over the operations of each one's fastest time over `rounds`.

    The reference host runs fixed work at two speeds, 1.4 to 1.85x apart,
    and the share of slow time over a few seconds ranges from 5 % to 100 %.
    A round's median follows the share of slow time in the whole run; an
    operation's fastest time comes from its round with the least, and moves
    about half as much (perfbench/README.md, "Noise")."""
    return sum(min(r["ops"][i]["seconds"] for r in rounds)
               for i in range(len(rounds[0]["ops"])))


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the `finally` clauses stop the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "fracgl", "__init__.py")):
        print(f"perfbench: no fracgl source tree under {ROOT}", file=sys.stderr)
        return 2
    t_start = time.monotonic()
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in WORKLOADS or args.seconds <= 0:
        print(f"perfbench: unknown workload {args.workload!r} or bad --seconds",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    workload.prepare()  # oracles before the rounds, outside every clock
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = os.path.join(OUT, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    deadline = time.monotonic() + args.seconds
    rounds, round_walls = [], []
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            round_dir = os.path.join(work, f"round{len(rounds)}")
            t_round = time.monotonic()
            rounds.append(run_round(workload, round_dir, traced,
                                    RUN_LIMIT_S - (time.monotonic() - t_start)))
            round_walls.append(time.monotonic() - t_round)
            if traced:
                traces = os.path.join(OUT, "traces", tag)
                os.makedirs(traces, exist_ok=True)
                spans = os.path.join(round_dir, "spans.npz")
                if os.path.exists(spans):
                    shutil.move(spans, os.path.join(traces, f"round{len(rounds) - 1}-spans.npz"))
            shutil.rmtree(round_dir, ignore_errors=True)
            # stop when the next round would end more than half a round past
            # the deadline, so that a run lasts --seconds give or take half a round
            both = not args.trace or len(rounds) >= 2
            if both and time.monotonic() + statistics.median(round_walls) / 2 >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for r in rounds for op in r["ops"]]
    plain = [r for r in rounds if not r["traced"] and "t_ready" in r]
    traced_rounds = [r for r in rounds if r["traced"] and "t_ready" in r]
    if not plain or (args.trace and not traced_rounds):
        print("perfbench: no round completed", file=sys.stderr)
        return 1
    if args.trace:
        values = medians([{k: v for k, v in r["layers"].items() if k != "functions"}
                          for r in traced_rounds])
        values["trace.overhead_s"] = fastest_round_s(traced_rounds) - fastest_round_s(plain)
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(r["setup_s"] for r in plain),
                  "run_s": fastest_round_s(plain),
                  "peak_rss_mb": max(r["peak_rss_mb"] for r in plain)}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    summary = {"correct": not any(op.get("wrong") for op in ops),
               "attempted": len(ops), "failed": sum(bool(op["failed"]) for op in ops),
               "metrics": metrics}

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", tag + ".json"), "w") as fh:
        json.dump({"summary": summary, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "environment": environment(),
                   "plan": workload.plan, "rounds": rounds},
                  fh, indent=1, default=str)
    for r in rounds:
        for op in r["ops"]:
            bad = [name for name, c in op["checks"].items() if not c["pass"]]
            if op["failed"]:
                print(f"perfbench: {op['name']} failed: status={op['status']} "
                      f"error={op.get('error')} checks={bad}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
