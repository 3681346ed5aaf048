"""Experiment pipelines behind the CLI: simulation, level-line extraction,
scale tables, FS tables, the rw oracle, tension tables, and the end-to-end
comparison harness.

Outputs are deterministic given the config (replays are byte-identical);
every CSV row carries the snapshot index and seed it came from, and every
file is stamped with the config hash.
"""

from __future__ import annotations

import math
import os
import shutil
import time

import numpy as np

from . import __version__
from .config import ExperimentConfig, RunManifest, model_params_from, write_json
from .errors import ConfigError, DegenerateInputError, InfeasibleError
from .fs import FSModel, fs_cdf, fs_density, ks_distance, sample_paths
from .levellines import (extract_level_lines, loops_to_records, profile,
                         top_level_loop)
from .mcmc import sample_equilibrium
from .rw import (basic_increment_law, fs_bridge_spec, fs_comparison,
                 laplace_increment_law, sample_tilted_bridge,
                 transfer_matrix_exact)
from .scales import (compute_scales, estimate_height_prob, ld_diagnostics,
                     proxy_box_side)
from .stats import correlation
from .surface import ModelParams, SurfaceConfig, write_snapshot
from .tension import tension_closed_form, tension_table


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path, cfg, header, rows):
    """A CSV artifact: the config-hash stamp, the header, one line per row.
    Floats (numpy's too) are written as repr(float(v)), None as a blank cell,
    anything else by str."""
    with open(path, "w") as fh:
        fh.write(f"# config_hash={cfg.hash()}\n{header}\n")
        fh.writelines(",".join(map(_cell, r)) + "\n" for r in rows)


def _sample(cfg, params, on_snapshot):
    """sample_equilibrium over the config's checkerboard run."""
    return sample_equilibrium(
        params, cfg.get("lattice", "L"), cfg.get("run", "sweeps"),
        cfg.get("run", "burnin"), cfg.get("run", "thinning"),
        cfg.get("run", "seed"), on_snapshot=on_snapshot)


def _increment_law(cfg):
    """The config's increment law: basic(q), or the Laplace walk at the
    model's beta (the truncated polymer ensemble's walk, whose sigma depends
    on neither the level nor p)."""
    if cfg.get("rw", "law") == "basic":
        return basic_increment_law(cfg.get("rw", "q"))
    return laplace_increment_law(cfg.get("model", "beta"))


def run_pipeline(cfg: ExperimentConfig):
    """Validate the config, then run its pipeline into its [out] dir. This is
    the one place a run's config is validated, so callers set every key
    first. An out dir that cannot be made is a ConfigError; a failed run
    removes every directory it made."""
    cfg.validate()
    name = cfg.get("pipeline", "name")
    out_dir = cfg.get("out", "dir")
    runner = {"surface": run_surface, "scales": run_scales, "fs": run_fs,
              "rw": run_rw_oracle, "tension": run_tension,
              "levellines": run_levellines, "endtoend": run_end_to_end}[name]
    made, path = None, os.path.abspath(out_dir)   # the outermost dir to make
    while not os.path.lexists(path):
        made, path = path, os.path.dirname(path)
    t0 = time.time()
    try:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot make the out dir {out_dir!r}: "
                              f"{e.strerror or e}") from None
        artifacts, summary = runner(cfg, out_dir)
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise
    manifest = RunManifest(config_hash=cfg.hash(), pipeline=name,
                           module_version=__version__,
                           wall_clock_s=time.time() - t0,
                           artifacts=artifacts, summary=summary)
    manifest.save(os.path.join(out_dir, "manifest.json"))
    manifest.check_artifacts(out_dir)
    return manifest


def run_surface(cfg, out_dir):
    params = model_params_from(cfg)
    seed = cfg.get("run", "seed")

    def write(i, snap):
        name = f"snapshot_{i:05d}.snap"
        write_snapshot(os.path.join(out_dir, name), snap, params)
        return name, snap.heights.mean()

    written, diag = _sample(cfg, params, write)
    _write_csv(os.path.join(out_dir, "snapshots.csv"), cfg,
               "snapshot_index,seed,mean_height",
               ((i, seed, mean) for i, (_, mean) in enumerate(written)))
    artifacts = [name for name, _ in written] + ["snapshots.csv"]
    summary = {"n_snapshots": len(written), "autocorr_time_sweeps":
               None if math.isnan(diag["autocorr_time_sweeps"])
               else round(diag["autocorr_time_sweeps"], 3)}
    return artifacts, summary


def _scale_table(cfg, params):
    """The config's height histogram and scale table: max(2000, sweeps)
    samples of the proxy box at seed + 101, as every pipeline reads them."""
    L = cfg.get("lattice", "L")
    hist = estimate_height_prob(params, proxy_box_side(L),
                                max(2000, cfg.get("run", "sweeps")),
                                cfg.get("run", "seed") + 101)
    return hist, compute_scales(hist, L, m=cfg.get("run", "levels"))


def run_scales(cfg, out_dir):
    L = cfg.get("lattice", "L")
    seed = cfg.get("run", "seed")
    hist, table = _scale_table(cfg, model_params_from(cfg))
    _write_csv(os.path.join(out_dir, "scale_table.csv"), cfg, "h,prob,ci_half,L_h",
               ((h, hist.probs[h], hist.ci_half.get(h, 0.0), table.L_h.get(h))
                for h in sorted(hist.probs)))
    record = {"config_hash": cfg.hash(), "L": L, "H": table.H, "N": table.N,
              "bad_intervals": table.bad_intervals,
              "L_in_bad_set": table.L_in_bad_set,
              "threshold": table.threshold, "unseen_bound": table.unseen_bound,
              "ld_diagnostics": _jsonable(ld_diagnostics(hist)),
              "warnings": hist.warnings, "seed": seed,
              "sample_seed": hist.seed, "box_size": hist.box_size,
              "bulk_margin": hist.margin, "n_samples": hist.n_samples,
              "hits": {str(h): n for h, n in sorted(hist.hits.items())}}
    write_json(os.path.join(out_dir, "scales.json"), record)
    summary = {"H": table.H, "L_in_bad_set": table.L_in_bad_set}
    return ["scale_table.csv", "scales.json"], summary


def run_fs(cfg, out_dir):
    sigma = cfg.get("fs", "sigma")
    seed = cfg.get("run", "seed")
    model = FSModel(sigma=sigma)
    xs = np.linspace(0.0, model.x_max, 2001)
    _write_csv(os.path.join(out_dir, "fs_table.csv"), cfg, "x,pdf,cdf",
               zip(xs, fs_density(xs, model), fs_cdf(xs, model)))
    paths = sample_paths(model, cfg.get("fs", "paths"),
                         cfg.get("fs", "steps") // cfg.get("fs", "paths"),
                         cfg.get("fs", "dt"), cfg.get("fs", "x0"), seed)
    marg = paths[:, paths.shape[1] // 5:].ravel()[::7]
    ks = ks_distance(marg, model)
    sub = paths[:8, :: max(1, paths.shape[1] // 200)]
    _write_csv(os.path.join(out_dir, "fs_paths.csv"), cfg, "path,step,x",
               ((i, j, x) for i, row in enumerate(sub) for j, x in enumerate(row)))
    summary = {"sigma": sigma, "ks_path_marginals": round(float(ks), 5),
               "seed": seed}
    return ["fs_table.csv", "fs_paths.csv"], summary


def run_rw_oracle(cfg, out_dir):
    seed = cfg.get("run", "seed")
    N = cfg.get("rw", "tilt_n")
    law = _increment_law(cfg)
    spec = fs_bridge_spec(N, law)
    W = spec.width
    win = W // 6
    heights, marg = transfer_matrix_exact(spec)
    _write_csv(os.path.join(out_dir, "rw_marginals.csv"), cfg,
               "t,height,probability",
               (((col - W // 2) / N ** (2.0 / 3.0), int(h), p)
                for col in (W // 2 - win, W // 2, W // 2 + win)
                for h, p in zip(heights, marg[col]) if p > 1e-15))
    paths, diag = sample_tilted_bridge(spec, cfg.get("rw", "samples"), seed,
                                       method="transfer")
    rep = fs_comparison(paths, N, math.sqrt(law.y_variance))
    record = {"config_hash": cfg.hash(), "seed": seed, "law": law.source,
              "sigma2": law.y_variance, "tilt_N": N,
              "ks": {repr(t): round(v, 6) for t, v in rep["ks"].items()},
              "n_paths": rep["n"], "sampler": diag["method"]}
    write_json(os.path.join(out_dir, "rw_ks.json"), record)
    summary = {"ks_mid": record["ks"][repr(0.0)], "law": law.source}
    return ["rw_marginals.csv", "rw_ks.json"], summary


def run_tension(cfg, out_dir):
    """The transfer tension table at [model] beta, each row next to the
    closed form, and the Laplace walk's sigma^2 (1 / the stiffness at 0)."""
    beta = cfg.get("model", "beta")
    if tension_closed_form(beta, 0.0) <= 0:
        raise InfeasibleError(
            f"beta={beta} <= ln(1 + sqrt 2) = 0.8814: the truncated ensemble's "
            "axis tension beta - log coth(beta/2) is not positive")
    table = tension_table(beta)
    _write_csv(os.path.join(out_dir, "tension.csv"), cfg,
               "theta,tau,tau_exact,ci,N_used",
               ((e.theta, e.tau, tension_closed_form(beta, e.theta), e.ci,
                 max(e.sizes) * e.direction[0]) for e in table.entries))
    return ["tension.csv"], {"tau0_over_beta": round(table.entries[0].tau / beta, 6),
                             "sigma2": laplace_increment_law(beta).y_variance}


def run_levellines(cfg, out_dir):
    """Extract the loops at levels 1 through the top height + 1 of each
    snapshot and export them."""
    seed = cfg.get("run", "seed")

    def extract(idx, snap):
        records = []
        hmax = int(snap.heights.max())
        for h in range(1, hmax + 2):
            for rec in loops_to_records(extract_level_lines(snap, h)):
                rec["snapshot_index"] = idx
                rec["seed"] = seed
                records.append(rec)
        return records

    by_snapshot, _ = _sample(cfg, model_params_from(cfg), extract)
    records = [rec for recs in by_snapshot for rec in recs]
    write_json(os.path.join(out_dir, "loops.json"),
               {"config_hash": cfg.hash(), "loops": records})
    n_macro = sum(1 for r in records if r["macroscopic"])
    return ["loops.json"], {"n_loops": len(records), "n_macroscopic": n_macro,
                            "n_snapshots": len(by_snapshot)}


def run_end_to_end(cfg, out_dir, snapshots=None, scale_table=None):
    """simulate -> top-m level lines -> rescaled profiles -> KS vs FS ->
    cross-level dependence -> manifest.

    snapshots (any iterable of SurfaceConfig, read in place of the sampler's)
    and scale_table may be injected (tests mock the sampler with fixed
    loops); refuses side lengths in the exceptional set, naming the interval.
    """
    params = model_params_from(cfg)
    L = cfg.get("lattice", "L")
    seed = cfg.get("run", "seed")
    m = cfg.get("run", "levels")
    sigma = math.sqrt(_increment_law(cfg).y_variance)
    sample_seed = None
    if scale_table is None:
        hist, scale_table = _scale_table(cfg, params)
        sample_seed = hist.seed
    if scale_table.L_in_bad_set:
        iv = next(i for i in scale_table.bad_intervals if i[0] <= L <= i[1])
        raise InfeasibleError(
            f"L={L} lies in the exceptional interval [{iv[0]}, {iv[1]}] "
            "(plateau transition); pick a side length outside it")
    H = scale_table.H

    def read(idx, snap):
        """(profile rows, {level: Y(0)}, sup gaps) of one snapshot."""
        rows, y0, gaps = [], {}, []
        for n in range(m):
            top = top_level_loop(snap, H - n) if H > n else None
            if top is None:
                continue
            # top crosses the centre column, so Y(0) is always read
            N_n = scale_table.N[n]
            t, rho, rho_bar, Y = profile(top, N_n, L)
            gap = rho_bar - rho
            if not np.isnan(gap).all():
                gaps.append(float(np.nanmax(gap) / N_n ** (1.0 / 3.0)))
            y0[n] = float(Y[len(t) // 2])
            for j, x in enumerate(t):
                cells = ((None,) * 3 if np.isnan(rho[j])
                         else (rho[j], rho_bar[j], Y[j]))
                rows.append((idx, seed, n, x, *cells))
        return rows, y0, gaps

    if snapshots is None:
        reads, _ = _sample(cfg, params, read)
    else:
        reads = [read(idx, snap) for idx, snap in enumerate(snapshots)]
    _write_csv(os.path.join(out_dir, "profiles.csv"), cfg,
               "snapshot_index,seed,level_n,t,rho,rhoBar,Y",
               (row for rows, _, _ in reads for row in rows))
    y0s = [np.asarray([y0[n] for _, y0, _ in reads if n in y0]) for n in range(m)]
    missing = {n: [idx for idx, (_, y0, _) in enumerate(reads) if n not in y0]
               for n in range(m)}
    sup_gaps = [g for _, _, gaps in reads for g in gaps]
    model = FSModel(sigma=sigma) if any(len(ys) >= 10 for ys in y0s) else None
    ks_by_level = {n: float(ks_distance(ys, model)) if len(ys) >= 10 else None
                   for n, ys in enumerate(y0s)}
    cross = None
    pairs = [(y0[0], y0[1]) for _, y0, _ in reads if 0 in y0 and 1 in y0]
    if len(pairs) >= 10:
        try:
            cross = float(correlation(*zip(*pairs)))
        except DegenerateInputError:
            cross = None
    record = {
        "config_hash": cfg.hash(), "seed": seed, "L": L, "H": H,
        "N": scale_table.N, "sample_seed": sample_seed,
        "sigma_by_level": {str(n): sigma for n in range(m)},
        "sigma_source": cfg.get("rw", "law"),
        "ks_by_level": {str(n): ks_by_level[n] for n in ks_by_level},
        "snapshots_missing_level": {str(n): missing[n] for n in missing},
        "sup_gap_median": (float(np.median(sup_gaps)) if sup_gaps else None),
        "regime": "observational: desk-scale L does not reach the asymptotic "
                  "regime; acceptance rests on the exact oracles",
    }
    write_json(os.path.join(out_dir, "endtoend.json"), record)
    summary = {"H": H, "ks_by_level": record["ks_by_level"],
               "cross_level_corr_Y0": cross,
               "n_snapshots": len(reads)}
    return ["profiles.csv", "endtoend.json"], summary


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def height_fluctuation_exponent(levels_by_L):
    """Fit log(scale) against log(L): the observational trend statistic for
    the extended run. levels_by_L: {L: fluctuation scale}."""
    Ls = sorted(levels_by_L)
    if len(Ls) < 2:
        raise InfeasibleError("need at least two side lengths to fit a slope")
    x = np.log(np.asarray(Ls, dtype=float))
    y = np.log(np.asarray([levels_by_L[L] for L in Ls], dtype=float))
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0])


def fluctuation_scale(L, beta, p, n_snapshots, seed, warm_height=1):
    """Spread of the top level-1 line's lowest centre-column hit over
    n_snapshots checkerboard snapshots at side L, one every 4 sweeps after
    80 burn-in sweeps, started flat at warm_height (0 is
    sample_equilibrium's default start)."""
    params = ModelParams(p=p, beta=beta, floor_spec=0)
    init = SurfaceConfig.flat(L, value=warm_height, floor=0)

    def lowest_hit(idx, snap):
        top = top_level_loop(snap, 1)
        return top.column_hits(L // 2)[:1] if top is not None else []

    hits, diag = sample_equilibrium(params, L, n_snapshots * 4 + 80, 80, 4,
                                    seed=seed, initial=init,
                                    on_snapshot=lowest_hit)
    rho0 = [r for hit in hits for r in hit]
    return {"L": L, "n_used": len(rho0), "n_missing": len(hits) - len(rho0),
            "mean": float(np.mean(rho0)) if rho0 else None,
            "scale": float(np.std(rho0)) if rho0 else None,
            "autocorr_sweeps": diag["autocorr_time_sweeps"]}
