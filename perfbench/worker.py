"""One workload in one process: set-up, timed rounds, output checks and, with
--trace 1, the per-layer trace. run.py starts it with BLAS/OpenMP threads
pinned to 1 and src/ on PYTHONPATH; it prints one JSON record on stdout.

Rounds run until the next one would end after --seconds (measured from the
end of set-up), with at least the workload's minimum number of rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from time import perf_counter


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "workload_seed": seed,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the benchmark runs outside a git working tree."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install(tracing.Tracer())
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, args.scratch)
    ready = perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    if tracer is not None:
        tracer.reset()
    rounds = []
    start = perf_counter()
    while True:
        r = len(rounds)
        if tracer is not None:
            tracer.run_id = r
        t0 = perf_counter()
        ops = workload.run_round(r, tracer)
        rounds.append({"round": r, "elapsed_s": perf_counter() - t0,
                       "ops": [op.record() for op in ops]})
        elapsed = perf_counter() - start
        if (len(rounds) >= workload.min_rounds
                and elapsed + elapsed / len(rounds) > args.seconds):
            break

    record = {
        "workload": args.workload,
        "ready": ready,
        "rounds": rounds,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(args.seed),
    }
    if tracer is not None:
        tracer.unwrap()
        ops = [op for rnd in rounds for op in rnd["ops"]]
        record["per_layer"] = tracing.per_layer_metrics(
            tracer, len(rounds), len(ops), sum(op["failed"] for op in ops))
        record["totals"] = tracer.totals      # name: [calls, inclusive s, self s]
        record["spans"] = tracer.spans
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
