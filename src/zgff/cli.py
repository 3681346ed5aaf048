"""zgff command line: simulate | levellines | scales | fs | rw-oracle |
tension | endtoend, each driven by a config file with optional overrides.

Each override flag sets one config key. A run exits 0, or with the exit code
of the package error that stopped it (the map is in zgff.errors).
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import ExperimentConfig
from .errors import ZgffError

_PIPELINE_OF = {
    "simulate": "surface",
    "levellines": "levellines",
    "scales": "scales",
    "fs": "fs",
    "rw-oracle": "rw",
    "tension": "tension",
    "endtoend": "endtoend",
}

# override flag -> the config key it sets, and a usage hint; each value is
# parsed as that key's type by ExperimentConfig.set
_FLAGS = {
    "seed": ("run", "seed", ""),
    "out": ("out", "dir", ""),
    "L": ("lattice", "L", ""),
    "beta": ("model", "beta", ""),
    "p": ("model", "p", ""),
    "sweeps": ("run", "sweeps", ""),
    "burnin": ("run", "burnin", ""),
    "thin": ("run", "thinning", ""),
    "boundary": ("model", "boundary", ", e.g. all:0"),
    "floor": ("model", "floor", ", an integer or 'none'"),
}


def build_parser():
    ap = argparse.ArgumentParser(prog="zgff", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd in _PIPELINE_OF:
        sp = sub.add_parser(cmd)
        sp.add_argument("--config", default=None, help="key = value config file")
        for flag, (section, key, hint) in _FLAGS.items():
            sp.add_argument(f"--{flag}", help=f"sets [{section}] {key}{hint}")
    return ap


def _load_config(args):
    cfg = (ExperimentConfig.load(args.config) if args.config
           else ExperimentConfig.default())
    cfg.set("pipeline", "name", _PIPELINE_OF[args.command])
    for flag, (section, key, _) in _FLAGS.items():
        value = getattr(args, flag)
        if value is not None:
            cfg.set(section, key, value)
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        from .experiments import run_pipeline
        manifest = run_pipeline(cfg)
    except ZgffError as e:
        print(f"{e.prefix}: {e}", file=sys.stderr)
        return e.exit_code
    print(json.dumps({"config_hash": manifest.config_hash,
                      "pipeline": manifest.pipeline,
                      "out": cfg.get("out", "dir"),
                      "summary": manifest.summary}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
