"""The benchmark workloads.

A workload is built once from the workload seed (its set-up) and then runs
rounds. A round is one instance of the workload, made of operations; each
operation is one or a few calls into the package's public functions, timed
on its own and followed by an untimed output check. Round r draws its inputs
from seed_for(seed, r), so the same workload seed gives the same inputs.

Calls go through module attributes (mcmc.run_chain, not a bound name) so the
traced run sees them through its wrappers.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import tempfile
from time import perf_counter

import numpy as np

from zgff import experiments, mcmc, rw, scales
from zgff.config import ExperimentConfig, model_params_from
from zgff.errors import ZgffError
from zgff.surface import ModelParams, SurfaceConfig, build_boundary

import checks


def seed_for(seed, r):
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


class Op:
    """Outcome of one operation."""

    def __init__(self, name, wall_s, site_updates, failed, correct, detail):
        self.name = name
        self.wall_s = wall_s
        self.site_updates = site_updates
        self.failed = failed
        self.correct = correct
        self.detail = detail

    def record(self):
        return dict(self.__dict__)


def run_op(name, call, check, site_updates, tracer):
    """Time call(); a ZgffError fails the operation, and so does a failed
    check of its output (which also makes the output incorrect)."""
    span = tracer.op(name) if tracer is not None else contextlib.nullcontext()
    t0 = perf_counter()
    try:
        with span:
            out = call()
    except ZgffError as exc:
        return Op(name, perf_counter() - t0, site_updates, True, True,
                  f"{type(exc).__name__}: {exc}")
    wall = perf_counter() - t0
    ok, detail = check(out)
    ok = bool(ok)
    return Op(name, wall, site_updates, not ok, ok, detail)


class Workload:
    min_rounds = 1

    def __init__(self, seed, scratch):
        self.seed = seed
        self.scratch = scratch

    def out_dir(self):
        return tempfile.mkdtemp(dir=self.scratch)


class PlateauL1024(Workload):
    """p=2, beta=0.8, floor 0, zero ring, L=1024, warm-started flat at H=1.
    Checkerboard sample_equilibrium, then run_end_to_end on its snapshots
    with a fixed scale table (H=1, N_0=8)."""

    name = "plateau_L1024"
    L = 1024
    SWEEPS, BURN_IN, THINNING = 3, 1, 1          # two snapshots per round
    PROBS = {1: 0.125, 2: 2.4e-3, 3: 2e-6}       # bulk P(h) at beta = 0.8

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        L = self.L
        self.params = ModelParams(p=2.0, beta=0.8, boundary_spec=("all", 0),
                                  floor_spec=0)
        self.boundary = build_boundary(("all", 0), L)
        self.initial = SurfaceConfig.flat(L, value=1, boundary=self.boundary,
                                          floor=0)
        self.table = scales.compute_scales(self.PROBS, L, m=1, beta=0.8)
        self.cfg = ExperimentConfig.default(**{
            "pipeline.name": "endtoend", "model.p": 2.0, "model.beta": 0.8,
            "model.floor": "0", "lattice.L": L, "run.levels": 1,
            "run.sweeps": self.SWEEPS, "run.burnin": self.BURN_IN,
            "run.thinning": self.THINNING})
        self.n_snapshots = (self.SWEEPS - self.BURN_IN) // self.THINNING

    def run_round(self, r, tracer):
        seed = seed_for(self.seed, r)
        self.cfg.set("run", "seed", seed)
        out = self.out_dir()

        def call():
            snaps, _ = mcmc.sample_equilibrium(
                self.params, self.L, self.SWEEPS, self.BURN_IN, self.THINNING,
                seed, initial=self.initial, scan_order="checkerboard")
            experiments.run_end_to_end(self.cfg, out, snapshots=snaps,
                                       scale_table=self.table)
            return snaps

        def check(snaps):
            return checks.check_plateau(snaps, self.n_snapshots, self.L,
                                        self.boundary, 0, out, self.table)

        op = run_op("endtoend", call, check, self.SWEEPS * self.L ** 2, tracer)
        shutil.rmtree(out)
        return [op]


README_CONFIG = """\
[pipeline]
name = endtoend
[model]
p = 2.0
beta = 0.8
boundary = all:0
floor = 0
ceiling = none
[lattice]
L = 128
[run]
sweeps = 2000
burnin = 400
thinning = 10
seed = 7
levels = 1
[out]
dir = out/e2e
"""


class ScalesReadme(Workload):
    """The scales stage of the README endtoend config, as run_end_to_end runs
    it: estimate_height_prob on the proxy box with seed + 101, compute_scales
    at L, then ld_diagnostics. Round 0 is the README seed itself; later
    rounds use seeds drawn from the workload seed."""

    name = "scales_readme"
    min_rounds = 2
    # estimate_height_prob defaults: burn-in max(50, box), thinning 2
    THINNING = 2

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.cfg = ExperimentConfig.parse(README_CONFIG)
        self.params = model_params_from(self.cfg)
        self.L = self.cfg.get("lattice", "L")
        self.box = min(max(24, int(4 * math.log(self.L) ** 2)), 48)
        self.samples = max(2000, self.cfg.get("run", "sweeps"))
        self.m = self.cfg.get("run", "levels")
        sweeps = max(50, self.box) + self.THINNING * self.samples
        self.site_updates = sweeps * self.box ** 2

    def config_seed(self, r):
        return self.cfg.get("run", "seed") if r == 0 else seed_for(self.seed, r) % 100_000

    def run_round(self, r, tracer):
        seed = self.config_seed(r) + 101

        def call():
            hist = scales.estimate_height_prob(self.params, self.box,
                                               self.samples, seed)
            table = scales.compute_scales(hist, self.L, m=self.m)
            scales.ld_diagnostics(hist)
            return hist, table

        def check(out):
            return checks.check_scales(out[0], out[1], self.L)

        return [run_op("scales_stage", call, check, self.site_updates, tracer)]


class OracleSmall(Workload):
    """The exact-oracle instances: 2x2 heat bath (raster and checkerboard)
    against the 81-state law, a coupled replica batch, CFTP, the monotone
    sandwich, the transfer oracle and bridge Metropolis, and the fs
    pipeline."""

    name = "oracle_small"
    GIBBS = ModelParams(p=2.0, beta=1.0, floor_spec=0, ceiling_spec=2)
    RASTER_SWEEPS, CHECKER_SWEEPS = 50_000, 5_000
    BATCH, BATCH_L, BATCH_SWEEPS = 1_000, 3, 20
    COUPLED = ModelParams(p=2.0, beta=1.5)
    CFTP = ModelParams(p=2.0, beta=1.0, floor_spec=0, ceiling_spec=3)
    CFTP_L, SANDWICH_SWEEPS = 4, 40
    BRIDGE_Q, BRIDGE_SAMPLES, BRIDGE_SWEEPS_PER_SAMPLE = 0.25, 5_000, 6

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.gibbs_law = None
        self.cftp_boundary = build_boundary(("all", 0), self.CFTP_L)
        self.bridge = rw.TiltedBridgeSpec(
            u=(0, 2), v=(12, 2), floor=0, tilt_N=6.0,
            law=rw.basic_increment_law(self.BRIDGE_Q), ceiling=20)
        self.fs_cfg = ExperimentConfig.default(**{"pipeline.name": "fs"})

    def references(self):
        """Exact laws for the checks (benchmark-side, untimed)."""
        self.gibbs_law = checks.gibbs_box_law(2, 1.0, 2, 0, 2)
        b = self.bridge
        self.bridge_exact = checks.bridge_marginals(
            b.u[1], b.v[1], b.width, b.floor, b.ceiling, b.tilt_N, self.BRIDGE_Q)

    def run_round(self, r, tracer):
        if self.gibbs_law is None:
            self.references()
        seed = seed_for(self.seed, r)
        ops = []
        for scan, sweeps in (("raster", self.RASTER_SWEEPS),
                             ("checkerboard", self.CHECKER_SWEEPS)):
            state = mcmc.ChainState(config=SurfaceConfig.flat(2, floor=0, ceiling=2),
                                    seed=seed, scan_order=scan)
            counter = checks.StateCounter(2)
            ops.append(run_op(
                f"gibbs_{scan}",
                lambda: mcmc.run_chain(state, self.GIBBS, sweeps, on_sweep=counter),
                lambda _: checks.check_gibbs(counter.counts(), self.gibbs_law),
                sweeps * 4, tracer))

        lo, up, floors, ceilings = self._ordered_batch(seed)
        ops.append(run_op(
            "coupled_batch",
            lambda: mcmc.coupled_batch_run(
                lo, up, self.COUPLED, seed, self.BATCH_SWEEPS,
                floors_lo=floors[0], floors_up=floors[1],
                ceilings_lo=ceilings[0], ceilings_up=ceilings[1]),
            checks.check_violations,
            2 * self.BATCH * self.BATCH_SWEEPS * self.BATCH_L ** 2, tracer))

        L = self.CFTP_L
        ops.append(run_op(
            "cftp",
            lambda: mcmc.cftp_sample(self.CFTP, L, seed, self.cftp_boundary),
            lambda cfg: checks.check_config(cfg, L, self.cftp_boundary, 0, 3),
            0, tracer))
        ops.append(run_op(
            "sandwich",
            lambda: mcmc.sandwich_diagnostic(self.CFTP, L, self.SANDWICH_SWEEPS,
                                             seed, self.cftp_boundary, 3),
            lambda diag: checks.check_sandwich(diag, self.SANDWICH_SWEEPS),
            2 * self.SANDWICH_SWEEPS * L * L, tracer))

        heights, exact = self.bridge_exact
        ops.append(run_op(
            "transfer",
            lambda: rw.transfer_matrix_exact(self.bridge),
            lambda out: checks.check_transfer(out[0], out[1], heights, exact),
            0, tracer))
        ops.append(run_op(
            "bridge_mcmc",
            lambda: rw.sample_tilted_bridge(
                self.bridge, self.BRIDGE_SAMPLES, seed, method="mcmc",
                mcmc_sweeps_per_sample=self.BRIDGE_SWEEPS_PER_SAMPLE),
            lambda out: checks.check_bridge_samples(out[0], heights, exact),
            0, tracer))

        self.fs_cfg.set("run", "seed", seed % 100_000)
        out = self.out_dir()
        ops.append(run_op(
            "fs_pipeline",
            lambda: experiments.run_fs(self.fs_cfg, out),
            lambda _: checks.check_fs_table(
                *checks.read_fs_table(os.path.join(out, "fs_table.csv"))),
            0, tracer))
        shutil.rmtree(out)
        return ops

    def _ordered_batch(self, seed):
        """Random ordered pairs with ordered rings, floors and ceilings (the
        construction of acceptance criterion 2)."""
        rng = np.random.default_rng(seed)
        B, L = self.BATCH, self.BATCH_L
        lo_h = rng.integers(-2, 3, size=(B, L, L))
        up_h = lo_h + rng.integers(0, 3, size=(B, L, L))
        pad_lo = np.zeros((B, L + 2, L + 2), dtype=np.int64)
        pad_up = np.zeros((B, L + 2, L + 2), dtype=np.int64)
        pad_lo[:, 1:L + 1, 1:L + 1] = lo_h
        pad_up[:, 1:L + 1, 1:L + 1] = up_h
        ring = rng.integers(-2, 2, size=(B, L + 2, L + 2))
        lift = rng.integers(0, 3, size=(B, L + 2, L + 2))
        for pad, b in ((pad_lo, ring), (pad_up, ring + lift)):
            for edge in (np.s_[:, 0, :], np.s_[:, -1, :], np.s_[:, :, 0], np.s_[:, :, -1]):
                pad[edge] = b[edge]
        f_lo = lo_h - rng.integers(0, 3, size=(B, L, L))
        f_up = np.minimum(f_lo + rng.integers(0, 3, size=(B, L, L)), up_h)
        c_up = up_h + rng.integers(1, 4, size=(B, L, L))
        c_lo = np.maximum(c_up - rng.integers(0, 3, size=(B, L, L)), lo_h)
        return pad_lo, pad_up, (f_lo, f_up), (c_lo, c_up)


WORKLOADS = {w.name: w for w in (PlateauL1024, ScalesReadme, OracleSmall)}
