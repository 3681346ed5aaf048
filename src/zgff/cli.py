"""zgff command line: simulate | levellines | scales | fs | rw-oracle |
tension | endtoend, each driven by a config file with optional overrides.

Exit codes: 0 ok, 2 config error, 3 infeasible/degenerate input,
4 resource limit, 5 the compiled sweep routine could not be built.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import ExperimentConfig
from .errors import (BuildError, ConfigError, CoverageError, DegenerateInputError,
                     InfeasibleError, InvalidConstraintError, ResourceLimitError,
                     StructureError)

_PIPELINE_OF = {
    "simulate": "surface",
    "levellines": "levellines",
    "scales": "scales",
    "fs": "fs",
    "rw-oracle": "rw",
    "tension": "tension",
    "endtoend": "endtoend",
}


def build_parser():
    ap = argparse.ArgumentParser(prog="zgff", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd in _PIPELINE_OF:
        sp = sub.add_parser(cmd)
        sp.add_argument("--config", default=None, help="key = value config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--L", type=int, default=None)
        sp.add_argument("--beta", type=float, default=None)
        sp.add_argument("--p", type=float, default=None)
        sp.add_argument("--sweeps", type=int, default=None)
        sp.add_argument("--burnin", type=int, default=None)
        sp.add_argument("--thin", type=int, default=None)
        sp.add_argument("--boundary", default=None, help="e.g. all:0")
        sp.add_argument("--floor", default=None, help="integer or 'none'")
    return ap


def _load_config(args):
    if args.config:
        cfg = ExperimentConfig.load(args.config)
    else:
        cfg = ExperimentConfig.default()
    cfg.set("pipeline", "name", _PIPELINE_OF[args.command])
    overrides = {
        ("run", "seed"): args.seed, ("out", "dir"): args.out,
        ("lattice", "L"): args.L, ("model", "beta"): args.beta,
        ("model", "p"): args.p, ("run", "sweeps"): args.sweeps,
        ("run", "burnin"): args.burnin, ("run", "thinning"): args.thin,
        ("model", "boundary"): args.boundary, ("model", "floor"): args.floor,
    }
    for (section, key), val in overrides.items():
        if val is not None:
            cfg.set(section, key, val)
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        cfg.validate()
        from .experiments import run_pipeline
        manifest = run_pipeline(cfg)
    except (ConfigError, StructureError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (InfeasibleError, InvalidConstraintError, DegenerateInputError,
            CoverageError) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 3
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 4
    except BuildError as e:
        print(f"build error: {e}", file=sys.stderr)
        return 5
    print(json.dumps({"config_hash": manifest.config_hash,
                      "pipeline": manifest.pipeline,
                      "out": cfg.get("out", "dir"),
                      "summary": manifest.summary}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
