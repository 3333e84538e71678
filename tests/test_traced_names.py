import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_function_metrics_are_public_functions():
    # the benchmark's tracer wraps the functions each fracgl module lists in
    # __all__ and reads every FUNCTION_METRICS span by name, so a name that is
    # renamed or dropped there fails only a traced benchmark round
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = {name for name, _ in tracer.FUNCTION_METRICS}
    assert names
    for name in sorted(names):
        layer, attr = name.split(".")
        module = importlib.import_module(f"fracgl.{layer}")
        assert attr in module.__all__, name
        assert inspect.isfunction(getattr(module, attr)), name
