import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    """perfbench's tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_function_metrics_are_public_functions():
    # the benchmark's tracer wraps the functions each fracgl module lists in
    # __all__ and reads every FUNCTION_METRICS span by name, so a name that is
    # renamed or dropped there fails only a traced benchmark round
    names = {name for name, _ in _tracer().FUNCTION_METRICS}
    assert names
    for name in sorted(names):
        layer, attr = name.split(".")
        module = importlib.import_module(f"fracgl.{layer}")
        assert attr in module.__all__, name
        assert inspect.isfunction(getattr(module, attr)), name


def test_worker_runs_a_traced_round(tmp_path):
    # one small round of each kind of operation the benchmark runs, through its
    # own worker: a fracgl change that breaks one of the benchmark's calls, or a
    # span the tracer reads, fails here
    bump = {"gamma": 1.5, "support": [0.25, 0.75], "amp": 1.2}
    plan = [
        {"name": "rate-check", "kind": "cli",
         "argv": ["rate-check", "--n", "16", "--t", "0.005", "--dt", "5e-05", "--seed", "1"]},
        {"name": "girsanov", "kind": "cli",
         "argv": ["girsanov", "--n", "16", "--t", "0.02", "--dt", "0.001",
                  "--replicas", "50", "--seed", "1"]},
        {"name": "grid16", "kind": "regional_grid", "n": 16, **bump},
        {"name": "seminorm", "kind": "continuum_seminorm", "n_outer": 2, **bump},
    ]
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    worker = TRACER.parent / "worker.py"
    done = subprocess.run([sys.executable, str(worker), str(tmp_path), "--trace"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert [op["name"] for op in result["ops"]] == [op["name"] for op in plan]
    for op in result["ops"]:
        assert op["status"] == 0 and op["error"] is None, op
    tracer = _tracer()
    for name, kind in tracer.FUNCTION_METRICS:
        assert f"{name}.{kind}" in result["layers"], name
