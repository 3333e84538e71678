"""Make the stored reference figures, perfbench/reference.json, anew.

    python3 perfbench/reference.py

Runs run.py on every workload once per seed 101..110 with --trace 0, then
once per workload with --trace 1 on seed 101, and writes each end-to-end
metric's values, median, quartiles and spread (quartile distance over the
median), the traced run's per-layer metrics, and the environment, all taken
from the runs' records in .perfbench/results/.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(101, 111))


def newest_record(workload: str, seed: int, trace: int) -> dict:
    pattern = os.path.join(ROOT, ".perfbench", "results",
                           f"{workload}-seed{seed}-trace{trace}-*.json")
    paths = sorted(glob.glob(pattern), key=os.path.getmtime)
    if not paths:
        raise SystemExit(f"no record for {workload} seed {seed} trace {trace}")
    with open(paths[-1]) as fh:
        return json.load(fh)


def describe(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    runs = [(w, s, 0) for w in names for s in SEEDS] + [(w, SEEDS[0], 1) for w in names]
    for workload, seed, trace in runs:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(trace)]
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    write_reference(spec)
    return 0


def write_reference(spec: dict) -> None:
    reference = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        plain = [newest_record(workload, s, 0) for s in SEEDS]
        traced = newest_record(workload, SEEDS[0], 1)
        reference["environment"] = plain[0]["environment"]
        reference["workloads"][workload] = {
            "attempted": sum(r["summary"]["attempted"] for r in plain),
            "failed": sum(r["summary"]["failed"] for r in plain),
            "correct": all(r["summary"]["correct"] for r in plain),
            "end_to_end": {m["name"]: describe([r["summary"]["metrics"][m["name"]]["value"]
                                                for r in plain])
                           for m in spec["end_to_end"]},
            "per_layer": {name: m["value"]
                          for name, m in traced["summary"]["metrics"].items()},
        }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
