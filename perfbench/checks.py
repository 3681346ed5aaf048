"""Output checks of the benchmark operations, and the exact laws they use.

Every check returns (ok, detail). The exact laws are computed here from
their definitions, without the package's code paths: the |grad phi|^p Gibbs
law of a small box by enumeration, and the area-tilted bridge marginals by a
dense forward-backward recursion.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os

import numpy as np

# 2x2 heat bath: TV to the exact law (acceptance criterion 1 uses the same).
TV_LIMIT = 0.02
# transfer oracle against the recursion below
TRANSFER_TOL = 1e-9
# bridge Metropolis: largest cell z-score against the exact marginals
BRIDGE_Z_LIMIT = 5.0
# fs_table.csv: integral of the density and of cdf against the density
FS_NORM_TOL = 1e-4
# scales_readme centre-site histogram. Reference: pooled mean of the README
# estimator (48^2 box, 2000 draws) over 11 seeds at v0.1.0; per-seed spread
# (sd) is 0.013 for P(0) and 0.018 for P(1). The bulk-window figure
# P(1) = 0.125 of the plateau-regime probe lies inside the tolerance.
SCALES_REFERENCE = {0: 0.770, 1: 0.114}
SCALES_TOL = 0.08


def gibbs_box_law(L, beta, p, floor, ceiling):
    """Exact law of an L x L box with zero boundary ring and heights in
    [floor, ceiling]: {heights tuple in [x, y] C order: probability}."""
    vals = np.arange(floor, ceiling + 1)
    states = np.array(list(itertools.product(vals, repeat=L * L)))
    h = states.reshape(-1, L, L)
    g = np.zeros((len(states), L + 2, L + 2))
    g[:, 1:L + 1, 1:L + 1] = h
    # every nearest-neighbour pair with at least one interior site
    dx = np.abs(np.diff(g[:, :, 1:L + 1], axis=1)) ** p
    dy = np.abs(np.diff(g[:, 1:L + 1, :], axis=2)) ** p
    energy = dx.sum(axis=(1, 2)) + dy.sum(axis=(1, 2))
    w = np.exp(-beta * (energy - energy.min()))
    w /= w.sum()
    return {tuple(int(v) for v in s): float(pr) for s, pr in zip(states, w)}


class StateCounter:
    """on_sweep callback that histograms the whole configuration.

    Accepts the v0.1.0 shapes on_sweep(k, flat_padded_grid, interior) and
    on_sweep(k, config, None), and a single heights view on_sweep(k, heights).
    """

    def __init__(self, L):
        self.L = L
        self.raw = {}
        self.y_major = False

    def __call__(self, *args):
        view = args[1]
        interior = args[2] if len(args) > 2 else None
        if interior is not None:
            key = tuple([view[i] for i in interior])
            self.y_major = True
        else:
            key = tuple(np.asarray(getattr(view, "heights", view)).ravel().tolist())
        self.raw[key] = self.raw.get(key, 0) + 1

    def counts(self):
        """{heights tuple in [x, y] C order: count}."""
        if not self.y_major:
            return dict(self.raw)
        L = self.L
        out = {}
        for key, c in self.raw.items():
            xy = tuple(np.asarray(key).reshape(L, L).T.ravel().tolist())
            out[xy] = out.get(xy, 0) + c
        return out


def total_variation(counts, law):
    n = sum(counts.values())
    if n == 0:
        return 1.0
    keys = set(counts) | set(law)
    return 0.5 * sum(abs(counts.get(k, 0) / n - law.get(k, 0.0)) for k in keys)


def check_gibbs(counts, law):
    tv = total_variation(counts, law)
    return tv < TV_LIMIT, f"TV {tv:.4f} (limit {TV_LIMIT})"


def check_violations(violations):
    return violations == 0, f"{violations} order violations"


def check_config(cfg, L, boundary, floor, ceiling):
    """A valid state of the constrained box: shape, bounds, ring intact."""
    h = np.asarray(cfg.heights)
    if h.shape != (L, L):
        return False, f"shape {h.shape}"
    if h.min() < floor or h.max() > ceiling:
        return False, f"heights in [{h.min()}, {h.max()}], allowed [{floor}, {ceiling}]"
    if dict(cfg.boundary) != boundary:
        return False, "boundary ring changed"
    return True, f"heights in [{h.min()}, {h.max()}]"


def check_sandwich(diag, sweeps):
    gaps = np.asarray(diag["gap_trace"], dtype=float)
    if len(gaps) != sweeps:
        return False, f"{len(gaps)} gaps for {sweeps} sweeps"
    if np.any(gaps < 0):
        return False, "upper chain fell below the lower one"
    at = diag["coalesced_at"]
    if at is None:
        return False, f"no coalescence within {sweeps} sweeps"
    if np.any(gaps[at - 1:] != 0):
        return False, f"chains separated after coalescing at sweep {at}"
    return True, f"coalesced at sweep {at}"


def bridge_marginals(y0, y1, width, floor, ceiling, tilt_n, q):
    """Column marginals of the area-tilted bridge with steps 0, +1, -1 of
    probability 1-2q, q, q: path weight prod p(step) * prod_i
    exp(-(y_i - floor) / tilt_n) over columns 0..width, heights in
    [floor, ceiling]. Returns (heights, marginals[width+1, n_heights])."""
    heights = np.arange(floor, ceiling + 1)
    n = len(heights)
    T = np.zeros((n, n))
    for dy, pr in ((0, 1 - 2 * q), (1, q), (-1, q)):
        T += pr * np.eye(n, k=dy)
    site = np.exp(-(heights - floor) / tilt_n)
    fwd = np.zeros((width + 1, n))
    bwd = np.zeros((width + 1, n))
    fwd[0, y0 - floor] = site[y0 - floor]
    for i in range(1, width + 1):
        f = (fwd[i - 1] @ T) * site
        fwd[i] = f / f.max()
    bwd[width, y1 - floor] = 1.0
    for i in range(width - 1, -1, -1):
        b = T @ (site * bwd[i + 1])
        bwd[i] = b / b.max()
    marg = fwd * bwd
    return heights, marg / marg.sum(axis=1, keepdims=True)


def check_transfer(heights, marg, exact_heights, exact):
    if not np.array_equal(np.asarray(heights), exact_heights):
        return False, "height window differs"
    gap = float(np.abs(np.asarray(marg) - exact).max())
    return gap < TRANSFER_TOL, f"max gap {gap:.1e}"


def _autocorr_time(x):
    """Integrated autocorrelation time, initial-positive-sequence rule."""
    x = np.asarray(x, dtype=float) - np.mean(x)
    var = float(np.dot(x, x)) / len(x)
    if var == 0:
        return 0.5
    tau = 0.5
    for k in range(1, len(x) // 2):
        rho = float(np.dot(x[:-k], x[k:])) / ((len(x) - k) * var)
        if rho <= 0:
            break
        tau += rho
    return tau


def check_bridge_samples(samples, exact_heights, exact):
    """Every column's height frequencies within BRIDGE_Z_LIMIT standard
    errors of the exact marginal; cells with expected count < 5 pooled per
    column; standard errors use the largest column autocorrelation time."""
    samples = np.asarray(samples)
    n, cols = samples.shape
    if cols != exact.shape[0] or n < 100:
        return False, f"sample shape {samples.shape}"
    tau = max(max(_autocorr_time(samples[:, c]) for c in range(1, cols - 1)), 0.5)
    n_eff = n / (2 * tau)
    lo, hi = exact_heights[0], exact_heights[-1]
    if samples.min() < lo or samples.max() > hi:
        return False, "samples leave the height window"
    worst = 0.0
    for c in range(cols):
        emp = np.bincount(samples[:, c] - lo, minlength=len(exact_heights)) / n
        p = exact[c]
        big = p * n >= 5
        se = np.sqrt(np.maximum(p * (1 - p), 1e-300) / n_eff)
        if big.any():
            worst = max(worst, float((np.abs(emp - p)[big] / se[big]).max()))
        pt, et = p[~big].sum(), emp[~big].sum()
        if pt * n >= 1:
            worst = max(worst, abs(et - pt) / math.sqrt(pt * (1 - pt) / n_eff))
        elif et * n > 5:
            worst = max(worst, math.inf)
    return worst <= BRIDGE_Z_LIMIT, f"worst cell z {worst:.2f} (tau {tau:.2f})"


def read_fs_table(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    return data[:, 0], data[:, 1], data[:, 2]


def check_fs_table(x, pdf, cdf):
    """The tabulated FS density integrates to 1 and its cdf is the running
    integral of the density, from 0 to 1."""
    if np.any(pdf < 0) or np.any(np.diff(cdf) < -1e-15):
        return False, "negative density or decreasing cdf"
    steps = 0.5 * (pdf[1:] + pdf[:-1]) * np.diff(x)
    running = np.concatenate([[0.0], np.cumsum(steps)])
    mass = running[-1]
    drift = float(np.abs(running - cdf).max())
    ok = abs(mass - 1.0) < FS_NORM_TOL and drift < FS_NORM_TOL and abs(cdf[-1] - 1.0) < 1e-9
    return ok, f"mass {mass:.8f}, max |cdf - int pdf| {drift:.1e}"


def check_plateau(snaps, expected, L, boundary, floor, out_dir, table):
    """Heights on or above the floor, ring unchanged, and each snapshot has
    a macroscopic level-H top loop whose profile covers the centre column."""
    if len(snaps) != expected:
        return False, f"{len(snaps)} snapshots, expected {expected}"
    for i, s in enumerate(snaps):
        if s.heights.shape != (L, L) or int(s.heights.min()) < floor:
            return False, f"snapshot {i} below the floor or misshapen"
        if dict(s.boundary) != boundary:
            return False, f"snapshot {i}: boundary ring changed"
    with open(os.path.join(out_dir, "endtoend.json")) as fh:
        record = json.load(fh)
    if record["H"] != table.H or record["N"] != list(table.N):
        return False, f"H {record['H']} N {record['N']}, expected {table.H} {table.N}"
    missing = record["snapshots_missing_level"]["0"]
    if missing:
        return False, f"snapshots without a top loop: {missing}"
    centre = {}
    with open(os.path.join(out_dir, "profiles.csv")) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    for r in rows[1:]:
        if r[2] == "0" and float(r[3]) == 0.0:
            centre[int(r[0])] = r[4]
    uncovered = [i for i in range(expected) if not centre.get(i)]
    if uncovered:
        return False, f"centre column not covered in snapshots {uncovered}"
    rho = [float(centre[i]) for i in range(expected)]
    return True, f"centre rho {rho}"


def check_scales(hist, table, L):
    """compute_scales succeeded; P(0) and P(1) near SCALES_REFERENCE."""
    if table.H < 1 or table.L != L:
        return False, f"H {table.H}"
    bad = {h: hist.prob(h) for h, ref in SCALES_REFERENCE.items()
           if abs(hist.prob(h) - ref) > SCALES_TOL}
    if bad:
        return False, f"P out of tolerance: {bad}"
    return True, f"H {table.H}, P(0) {hist.prob(0):.4f}, P(1) {hist.prob(1):.4f}"
