"""Command line runner: fracgl <experiment> [flags].

Configuration is resolved in three layers: per-experiment defaults, then an
optional flat key=value config file (--config), then command-line flags,
the latter winning.  Exit codes: 0 all checks passed, 2 a check failed,
1 usage or configuration error.
"""

from __future__ import annotations

import argparse
import locale  # noqa: F401  (argparse's gettext imports it on a first parse; load it now)
import sys
from dataclasses import replace
from typing import get_type_hints

from .experiments import DEFAULTS, EXPERIMENTS, ExperimentConfig

_TYPES = get_type_hints(ExperimentConfig)  # config key -> type, in field order
_ALIASES = {"t": "T", "out": "out_dir"}  # flag or file key -> config key
_FLAGS = {key: alias for alias, key in _ALIASES.items()}


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
            key = _ALIASES.get(key, key)
            if key not in _TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _TYPES[key](val)
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
    for key, kind in _TYPES.items():
        if key != "experiment":
            flag = "--" + _FLAGS.get(key, key).replace("_", "-")
            parser.add_argument(flag, dest=key, type=kind)
    return parser


def _join_numbers(argv: list) -> list:
    """Join a token that parses as a float to the value flag before it, so
    that argparse reads `--phi-l -1e-05` (or `-inf`, `-1E3`) as a value."""
    out = []
    for token in argv:
        try:
            float(token)
            if out[-1].startswith("--") and "=" not in out[-1] and out[-1] != "--help":
                out[-1] += "=" + token
                continue
        except (ValueError, IndexError):
            pass
        out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_numbers(sys.argv[1:] if argv is None else argv))
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
    overrides = {key: getattr(args, key) for key in _TYPES
                 if key != "experiment" and getattr(args, key) is not None}
    cfg = replace(cfg, **overrides)

    from .experiments import run
    status = run(cfg)
    if status == 2:
        print("fracgl: one or more checks failed (see summary.json)",
              file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
