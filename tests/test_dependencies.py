"""fracgl imports numpy and the standard library, nothing else."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_PROBE = """
import json, os, sys
import fracgl
random_on_import = "numpy.random" in sys.modules
from fracgl import cli, continuum_seminorm, regional_laplacian_pointwise, SmoothBump
from fracgl.experiments import EXPERIMENTS
codes = {}
for name in EXPERIMENTS:
    out = os.path.join(sys.argv[1], name)
    os.mkdir(out)
    codes[name] = cli.main([name, "--n", "16", "--out", out])
bump = SmoothBump(0.2, 0.7)
regional_laplacian_pointwise(1.5, bump, 0.4)
continuum_seminorm(1.5, bump, bump, n_outer=2)
print(json.dumps({"random_on_import": random_on_import, "codes": codes,
                  "scipy": "scipy" in sys.modules, "numpy.ma": "numpy.ma" in sys.modules}))
"""


def test_fresh_interpreter_loads_neither_scipy_nor_numpy_ma(tmp_path):
    # numpy.random is loaded with fracgl, so its import is not paid inside a
    # first draw; numpy.ma would be paid inside a first np.unique
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["random_on_import"]
    assert all(code in (0, 2) for code in seen["codes"].values()), seen["codes"]
    assert not seen["scipy"]
    assert not seen["numpy.ma"]


def _third_party_imports() -> set:
    names = set()
    for path in (SRC / "fracgl").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"fracgl"}


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.\-]+", spec).group(0).lower() for spec in declared}
    assert _third_party_imports() == names


def _file_access(path: Path) -> set:
    """The csv and json imports and the `open` calls of one module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names if alias.name in ("csv", "json"))
        elif isinstance(node, ast.ImportFrom) and node.module in ("csv", "json"):
            found.add(node.module)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            found.add("open")
    return found


def test_only_experiments_svg_and_cli_touch_files():
    # the numerical modules hand back arrays and reports: experiments writes
    # them, svg draws the figures and cli reads a config file
    touched = {path.stem: _file_access(path) for path in (SRC / "fracgl").glob("*.py")
               if path.stem not in ("experiments", "svg", "cli")}
    assert {stem: names for stem, names in touched.items() if names} == {}
