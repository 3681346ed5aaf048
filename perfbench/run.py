"""Benchmark of the zgff lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a zgff source tree (it needs src/zgff and
BENCHMARK.json there). Workloads, each run in a process of its own:

  plateau_L1024  p=2, beta=0.8, L=1024 checkerboard sampling warm-started at
                 H=1, then the endtoend pipeline on its snapshots
  scales_readme  the scales stage of the README endtoend config (README seed
                 first, then seeds drawn from --seed)
  oracle_small   the exact-oracle instances: 2x2 heat bath (raster and
                 checkerboard), coupled batch, CFTP, sandwich, transfer oracle
                 and bridge Metropolis, fs pipeline

--workload all runs the three in turn.

With --trace 0 the result line carries the end-to-end metrics:
  wall_s              median over rounds of one round's time in the package
  site_updates_per_s  heat-bath site updates of the workload definition,
                      summed over rounds, divided by the summed round time
  peak_rss_mb         peak resident memory of the workload process
  setup_s             median of 10 set-ups, each from process spawn to inputs
                      ready (interpreter start, import zgff, configs,
                      boundaries, initial surfaces)
With --trace 1 the layer entry points are wrapped (see tracing.py) and the
result line carries the per-layer metrics of BENCHMARK.json.

Every operation's output is checked (checks.py). An operation fails when it
raises a ZgffError or fails its check; `attempted` and `failed` count
operations, and failed_share = failed / attempted is printed in the report.
`correct` is false when any returned output failed its check.

The last stdout line is the JSON result; the lines before it are a report
with units, sample counts and the machine. The full record (every operation
and, traced, the spans) is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("plateau_L1024", "scales_readme", "oracle_small")
END_TO_END_UNITS = {"wall_s": "s", "site_updates_per_s": "1/s",
                    "peak_rss_mb": "MiB", "setup_s": "s"}
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 170
OUT_DIR = ".perfbench_out"
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}


class BenchError(Exception):
    pass


def spawn_worker(args, scratch, setup_only=False):
    """Run worker.py once; returns (spawn time, its JSON record)."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src"), HERE] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch] + (["--setup-only"] if setup_only else [])
    t0 = perf_counter()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker for {args.workload} exited {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(record, setups):
    walls = [sum(op["wall_s"] for op in rnd["ops"]) for rnd in record["rounds"]]
    updates = sum(op["site_updates"] for rnd in record["rounds"] for op in rnd["ops"])
    return {
        "wall_s": statistics.median(walls),
        "site_updates_per_s": updates / sum(walls),
        "peak_rss_mb": record["peak_rss_kib"] / 1024.0,
        "setup_s": statistics.median(setups),
    }, walls


def declared_metrics(trace):
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run_workload(args):
    declared = declared_metrics(args.trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                t0, probe = spawn_worker(args, scratch, setup_only=True)
                setups.append(probe["ready"] - t0)
        t0, record = spawn_worker(args, scratch)
        setups.append(record["ready"] - t0)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops = [op for rnd in record["rounds"] for op in rnd["ops"]]
    attempted = len(ops)
    failed = sum(1 for op in ops if op["failed"])
    if args.trace:
        import tracing
        values, units = record["per_layer"], tracing.PER_LAYER_UNITS
        walls = [sum(op["wall_s"] for op in rnd["ops"]) for rnd in record["rounds"]]
    else:
        values, walls = end_to_end(record, setups)
        units = END_TO_END_UNITS
    if set(values) != set(declared) or any(units[k] != declared[k] for k in values):
        raise BenchError("metric names or units differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(declared))}")

    record.update(seed=args.seed, trace=args.trace, setup_s=setups,
                  metrics=values)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(walls)} operations={attempted} record={path}")
    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    print(f"# round times in the package (s): {[round(w, 4) for w in walls]}")
    if not args.trace:
        print(f"# setup samples (s): {[round(s, 4) for s in setups]}")
    for name in declared:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    if "failed_share" not in declared:
        print(f"failed_share = {failed}/{attempted} = {failed / attempted:.4g} ratio")
    for rnd in record["rounds"]:
        for op in rnd["ops"]:
            state = "FAILED" if op["failed"] else "ok"
            print(f"#   round {rnd['round']} {op['name']}: {op['wall_s']:.4f} s "
                  f"{state} ({op['detail']})")
    result = {"correct": all(op["correct"] for op in ops), "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in declared}}
    print(json.dumps(result), flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description="zgff benchmark; see the module doc.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "zgff", "__init__.py")):
        print("run.py: no src/zgff here; run from the root of a zgff source tree",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            run_workload(argparse.Namespace(**dict(vars(args), workload=name)))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
