"""Self-test of the benchmark.

    python3 perfbench/selftest.py          (from the root of the source tree)

1. Metric names: every metric a run prints, untraced and traced, is declared
   in BENCHMARK.json with the same unit, and every declared metric is
   printed (one short oracle_small run of each kind).
2. Corrupted outputs: each output check passes on a good output and, run
   through the same operation runner the workloads use, counts a corrupted
   one (perturbed exact law, nonzero violation count, ...) as failed.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.abspath("src"), HERE]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from workloads import run_op  # noqa: E402
from zgff.errors import InfeasibleError  # noqa: E402
from zgff.scales import HeightHistogram, compute_scales  # noqa: E402
from zgff.surface import SurfaceConfig, build_boundary  # noqa: E402

FAILURES = []


def expect(label, ok):
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        FAILURES.append(label)


def metric_names():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "oracle_small", "--seed", "0", "--seconds", "1", "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=170)
        expect(f"run.py --trace {trace} exits 0", proc.returncode == 0)
        if proc.returncode != 0:
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(f"--trace {trace}: result keys",
               set(result) == {"correct", "attempted", "failed", "metrics"})
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(f"--trace {trace}: every printed metric is declared",
               set(printed) <= set(declared))
        expect(f"--trace {trace}: every declared metric is printed",
               set(declared) <= set(printed))
        expect(f"--trace {trace}: units match",
               all(declared.get(k) == u for k, u in printed.items()))


def counted(label, output, check, good):
    """Run a fake operation returning output through run_op."""
    op = run_op(label, lambda: output, check, 0, None)
    expect(f"{label}: {'passes' if good else 'counted as failed'} ({op.detail})",
           op.failed != good)


def gibbs_cases():
    law = checks.gibbs_box_law(2, 1.0, 2, 0, 2)
    counts = {k: int(round(p * 1e6)) for k, p in law.items()}
    counted("2x2 heat bath, exact counts", counts,
            lambda c: checks.check_gibbs(c, law), True)
    top = max(law, key=law.get)
    perturbed = dict(law)
    perturbed[top] -= 0.05
    perturbed[min(law, key=law.get)] += 0.05
    counted("2x2 heat bath against a perturbed exact law", counts,
            lambda c: checks.check_gibbs(c, perturbed), False)
    flat, view = checks.StateCounter(2), checks.StateCounter(2)
    grid = [0] * 16
    interior = [(x + 1) * 4 + (y + 1) for y in range(2) for x in range(2)]
    grid[interior[1]] = 1               # site (1, 0) in the y-major interior
    flat(1, grid, interior)
    cfg = SurfaceConfig.flat(2)
    cfg.heights[1, 0] = 1
    view(1, cfg, None)
    expect("StateCounter reads both callback shapes alike",
           flat.counts() == view.counts() == {(0, 0, 1, 0): 1})


def coupling_cases():
    counted("coupled batch, 0 violations", 0, checks.check_violations, True)
    counted("coupled batch, nonzero violations", 3, checks.check_violations, False)
    ring = build_boundary(("all", 0), 4)
    good = SurfaceConfig.flat(4, value=1, boundary=dict(ring), floor=0, ceiling=3)
    counted("CFTP state", good, lambda c: checks.check_config(c, 4, ring, 0, 3), True)
    high = good.copy()
    high.heights[2, 2] = 4
    counted("CFTP state above the ceiling", high,
            lambda c: checks.check_config(c, 4, ring, 0, 3), False)
    moved = good.copy()
    moved.boundary[(-1, 0)] = 1
    counted("CFTP state with a changed ring", moved,
            lambda c: checks.check_config(c, 4, ring, 0, 3), False)
    diag = {"gap_trace": np.array([2.0, 1.0, 0.0, 0.0]), "coalesced_at": 3}
    counted("sandwich", diag, lambda d: checks.check_sandwich(d, 4), True)
    crossed = {"gap_trace": np.array([2.0, -0.1, 0.0, 0.0]), "coalesced_at": 3}
    counted("sandwich with crossed chains", crossed,
            lambda d: checks.check_sandwich(d, 4), False)


def bridge_cases():
    heights, exact = checks.bridge_marginals(2, 2, 12, 0, 20, 6.0, 0.25)
    counted("transfer oracle", (heights, exact),
            lambda o: checks.check_transfer(o[0], o[1], heights, exact), True)
    shifted = np.roll(exact, 1, axis=1)
    counted("transfer oracle, shifted marginals", (heights, shifted),
            lambda o: checks.check_transfer(o[0], o[1], heights, exact), False)
    # independent exact draws column by column: right marginals, tau ~ 0.5
    rng = np.random.default_rng(0)
    samples = np.stack([rng.choice(heights, size=5000, p=exact[c])
                        for c in range(exact.shape[0])], axis=1)
    counted("bridge samples", samples,
            lambda s: checks.check_bridge_samples(s, heights, exact), True)
    counted("bridge samples one unit too high", samples + 1,
            lambda s: checks.check_bridge_samples(s, heights, exact), False)


def fs_cases():
    x = np.linspace(0.0, 10.0, 2001)
    pdf = x * np.exp(-x)                 # Gamma(2) density, mass 1 - 11 e^-10
    pdf /= np.trapezoid(pdf, x)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(x))])
    counted("fs table", (x, pdf, cdf), lambda t: checks.check_fs_table(*t), True)
    counted("fs table with a mis-normalised density", (x, 1.01 * pdf, cdf),
            lambda t: checks.check_fs_table(*t), False)


def scales_cases():
    def hist(p1):
        probs = {-2: 0.002, -1: p1, 0: 1.0 - 2 * p1 - 0.004, 1: p1, 2: 0.002}
        return HeightHistogram(p=2.0, beta=0.8, box_size=48, probs=probs,
                               n_samples=2000)
    good = hist(0.115)
    counted("scales stage", (good, compute_scales(good, 128)),
            lambda o: checks.check_scales(o[0], o[1], 128), True)
    bad = hist(0.2)
    counted("scales stage with P(1) off the reference", (bad, compute_scales(bad, 128)),
            lambda o: checks.check_scales(o[0], o[1], 128), False)

    def starved():
        raise InfeasibleError("height 2 missing")
    op = run_op("starved scales stage", starved, None, 0, None)
    expect("a ZgffError is counted as failed, not as wrong output",
           op.failed and op.correct)


def plateau_cases(tmp):
    L = 8
    ring = build_boundary(("all", 0), L)
    table = compute_scales({1: 0.125, 2: 2.4e-3, 3: 2e-6}, 1024, m=1, beta=0.8)

    def snaps():
        return [SurfaceConfig.flat(L, value=1, boundary=dict(ring), floor=0)
                for _ in range(2)]

    def outputs(missing, centre):
        d = tempfile.mkdtemp(dir=tmp)
        with open(os.path.join(d, "endtoend.json"), "w") as fh:
            json.dump({"H": table.H, "N": table.N,
                       "snapshots_missing_level": {"0": missing}}, fh)
        with open(os.path.join(d, "profiles.csv"), "w") as fh:
            fh.write("# config_hash=0\nsnapshot_index,seed,level_n,t,rho,rhoBar,Y\n")
            for i in range(2):
                fh.write(f"{i},1,0,0.0,{centre},{centre},0.0\n")
        return d

    def check(d):
        return lambda s: checks.check_plateau(s, 2, L, ring, 0, d, table)

    good = outputs([], "0.0")
    counted("plateau snapshots", snaps(), check(good), True)
    below = snaps()
    below[1].heights[3, 3] = -1
    counted("plateau snapshot below the floor", below, check(good), False)
    counted("plateau snapshot without a top loop", snaps(), check(outputs([1], "0.0")), False)
    counted("plateau centre column not covered", snaps(), check(outputs([], "")), False)


def main():
    if not os.path.isfile(os.path.join("src", "zgff", "__init__.py")):
        print("selftest.py: run from the root of a zgff source tree", file=sys.stderr)
        return 2
    gibbs_cases()
    coupling_cases()
    bridge_cases()
    fs_cases()
    scales_cases()
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        plateau_cases(tmp)
    metric_names()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
