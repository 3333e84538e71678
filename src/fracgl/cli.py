"""Command line runner: fracgl <experiment> [flags].

Configuration is resolved in three layers: per-experiment defaults, then an
optional flat key=value config file (--config), then command-line flags,
the latter winning.  Exit codes: 0 all checks passed, 2 a check failed,
1 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .experiments import DEFAULTS, EXPERIMENTS, ExperimentConfig

_FLOAT_KEYS = {"gamma", "phi_l", "phi_r", "T", "dt"}
_INT_KEYS = {"n", "replicas", "seed"}


def _parse_config_file(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key == "t":
                key = "T"
            if key in _FLOAT_KEYS:
                values[key] = float(val)
            elif key in _INT_KEYS:
                values[key] = int(val)
            elif key in {"experiment", "out_dir", "out"}:
                values["out_dir" if key == "out" else key] = val
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line, like every other exit 1, without the wrapped usage block
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fracgl",
        description="Boundary-driven long-range Ginzburg-Landau experiments",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--n", type=int)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--phi-l", dest="phi_l", type=float)
    parser.add_argument("--phi-r", dest="phi_r", type=float)
    parser.add_argument("--t", dest="T", type=float)
    parser.add_argument("--dt", type=float)
    parser.add_argument("--replicas", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", dest="out_dir", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    cfg = ExperimentConfig(experiment=args.experiment)
    cfg = replace(cfg, **DEFAULTS.get(args.experiment, {}))
    if args.config:
        try:
            file_values = _parse_config_file(args.config)
        except (OSError, ValueError) as exc:
            print(f"fracgl: config error: {exc}", file=sys.stderr)
            return 1
        file_values.pop("experiment", None)
        cfg = replace(cfg, **file_values)
    flag_names = [f.name for f in fields(ExperimentConfig) if f.name != "experiment"]
    overrides = {name: getattr(args, name) for name in flag_names
                 if getattr(args, name, None) is not None}
    cfg = replace(cfg, **overrides)

    from .experiments import run
    status = run(cfg)
    if status == 2:
        print("fracgl: one or more checks failed (see summary.json)",
              file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
