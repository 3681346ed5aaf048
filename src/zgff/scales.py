"""Plateau-height scales: single-site height statistics of the no-floor
measure, H(L), the N_n sequence, the exceptional side-length set, and
large-deviation diagnostics.

H(L) is the largest h whose single-site probability still beats 5*beta/L;
N_n = 1/P(H-n) sets the (N^(2/3), N^(1/3)) fluctuation scales of the n-th
level line from the top. Side lengths in any interval [ceil(3/4 L_h), L_h],
L_h = ceil(5*beta/P(h)), sit at a plateau transition and are excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, StructureError
from .stats import batch_means_ci
from .surface import ModelParams, SurfaceConfig
from .mcmc import ChainState, run_chain


@dataclass
class HeightHistogram:
    p: float
    beta: float
    box_size: int
    probs: dict                  # h -> estimated probability
    n_samples: int
    ci_half: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    margin: int = 0              # bulk window is [margin, box_size-1-margin]^2
    hits: dict = field(default_factory=dict)   # h -> window-site hit count
    seed: int = None             # seed of the chain the histogram was drawn from

    def prob(self, h):
        return self.probs.get(int(h), 0.0)


def proxy_box_side(L):
    """Zero-boundary box side used as the infinite-volume proxy for side
    length L: 4 log^2 L clamped to [24, 48]. Decorrelation of the centre from
    the boundary is exponential in the distance."""
    return min(max(24, int(4 * math.log(L) ** 2)), 48)


def estimate_height_prob(params: ModelParams, box_size, samples,
                         seed) -> HeightHistogram:
    """Height histogram of the no-floor measure with zero boundary on a
    box_size^2 box, pooled over every site of the bulk window
    [d, box_size-1-d]^2, d = max(1, box_size // 6): the proxy measure is
    close to translation invariant away from the ring. The chain burns in
    max(50, box_size) sweeps, then samples every 2nd sweep; n_samples counts
    the sampled sweeps, and zero of them is refused. CIs are batch means of
    the per-sweep window fractions.
    """
    if box_size < 2 * math.log(max(box_size, 2)) ** 2:
        raise StructureError(f"box size {box_size} too small for the center "
                             "site to decorrelate from the boundary")
    if samples < 1:
        raise StructureError("need samples >= 1")
    burn_in, thinning = max(50, box_size), 2
    state = ChainState(config=SurfaceConfig.flat(box_size), seed=seed,
                       scan_order="checkerboard")
    d = max(1, box_size // 6)
    per_sweep = []

    def on_sweep(t, heights):
        if t > burn_in and (t - burn_in) % thinning == 0:
            per_sweep.append(np.unique(heights[d:box_size - d, d:box_size - d],
                                       return_counts=True))

    run_chain(state, params, burn_in + samples * thinning, on_sweep=on_sweep)
    values = sorted({int(v) for vals, _ in per_sweep for v in vals.tolist()})
    column = {v: j for j, v in enumerate(values)}
    counts = np.zeros((samples, len(values)))
    for i, (vals, cnt) in enumerate(per_sweep):
        counts[i, [column[v] for v in vals.tolist()]] = cnt
    n_window = (box_size - 2 * d) ** 2
    probs, ci, hits, warnings = {}, {}, {}, []
    for v, j in column.items():
        hits[v] = int(counts[:, j].sum())
        probs[v] = hits[v] / (samples * n_window)
        ci[v] = batch_means_ci(counts[:, j] / n_window)[1]
        if hits[v] < 25:
            warnings.append(f"height {v}: only {hits[v]} hits, CI unreliable")
    return HeightHistogram(p=params.p, beta=params.beta, box_size=box_size,
                           probs=probs, n_samples=samples, ci_half=ci,
                           warnings=warnings, margin=d, hits=hits, seed=seed)


@dataclass
class ScaleTable:
    L: int
    H: int
    N: list                      # N_n for n = 0..m-1
    L_h: dict                    # h -> L_h for every recorded h >= 1
    bad_intervals: list          # merged [(lo, hi)] integer intervals
    L_in_bad_set: bool
    threshold: float
    unseen_bound: float = None   # 3/n_samples, when it certified height H + 1


def compute_scales(hist, L, m=1, beta=None) -> ScaleTable:
    """H = max{h : P(h) >= 5 beta/L}, N_n = 1/P(H-n), L_h = ceil(5 beta/P(h)),
    and the exceptional set union of [ceil(3 L_h / 4), L_h].

    hist may be a HeightHistogram (beta read from it) or a plain {h: prob}
    dict with beta passed explicitly. If the top recorded height is still
    above the threshold, a histogram of n sampled sweeps bounds the next,
    unseen height's probability by 3/n (zero window hits in n independent
    sweeps). That only gives L_{H+1} >= 5 beta n / 3, so the height is
    certified when 3/n < 0.75 threshold, which keeps L out of its
    exceptional interval [ceil(3 L_{H+1} / 4), L_{H+1}]; else, and always
    for a dict, InfeasibleError.
    """
    unseen_bound = None
    if isinstance(hist, HeightHistogram):
        probs = hist.probs
        beta = hist.beta if beta is None else beta
        unseen_bound = 3.0 / hist.n_samples
    else:
        probs = {int(h): float(p) for h, p in hist.items()}
        if beta is None:
            raise StructureError("beta required with a plain probability dict")
    thr = 5.0 * beta / L
    eligible = [h for h, p in probs.items() if p >= thr]
    if not eligible:
        raise InfeasibleError(f"no height reaches the threshold {thr:.3g}")
    H = max(eligible)
    hmax = max(probs)
    certify = 0.75 * thr
    if probs[hmax] < thr:
        unseen_bound = None
    elif unseen_bound is None or unseen_bound >= certify:
        raise InfeasibleError(
            f"histogram truncated too aggressively: height {hmax + 1} missing "
            f"but P({hmax}) is still above the threshold {thr:.3g}; a histogram "
            f"needs {math.floor(3 / certify) + 1} sampled sweeps to bound it "
            f"below 0.75 times that")
    N = []
    for n in range(m):
        ph = probs.get(H - n, 0.0)
        if ph <= 0:
            raise InfeasibleError(f"no estimate for height {H - n} (needed for N_{n})")
        N.append(1.0 / ph)
    L_h = {h: int(math.ceil(5.0 * beta / probs[h]))
           for h in sorted(probs) if h >= 1 and probs[h] > 0}
    raw = [(int(math.ceil(0.75 * Lh)), Lh) for Lh in sorted(L_h.values())]
    bad = _merge_intervals(raw)
    in_bad = any(lo <= L <= hi for lo, hi in bad)
    return ScaleTable(L=L, H=H, N=N, L_h=L_h, bad_intervals=bad,
                      L_in_bad_set=in_bad, threshold=thr,
                      unseen_bound=unseen_bound)


def _merge_intervals(intervals):
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def bad_set_log_density(bad_intervals):
    """(sum_{k in B, k <= n} 1/k) / log n at each interval's right endpoint n.

    The zero logarithmic density of the exceptional set shows up as this
    ratio trending down when P(h) decays super-exponentially.
    """
    if not bad_intervals:
        return [], []
    n_grid = sorted(hi for _, hi in bad_intervals)
    ratios = []
    for n in n_grid:
        s = 0.0
        for lo, hi in bad_intervals:
            if lo > n:
                break
            top = min(hi, n)
            # sum_{k=lo}^{top} 1/k via digamma-free partial harmonic sums
            s += _harmonic(top) - _harmonic(lo - 1)
        ratios.append(s / math.log(n))
    return n_grid, ratios


def _harmonic(n):
    if n <= 0:
        return 0.0
    if n < 100:
        return sum(1.0 / k for k in range(1, n + 1))
    # Euler-Maclaurin, plenty for diagnostics
    return math.log(n) + 0.5772156649015329 + 1.0 / (2 * n) - 1.0 / (12 * n * n)


def ld_diagnostics(hist: HeightHistogram):
    """Ratios P(h)/P(h-1), monotone-decay check, and a rate fit, at the
    histogram's p.

    For p = 2 the fit is log P(h) ~ -c * h^2/log h (h >= 2); otherwise
    log P(h) ~ -c * h^(min(p, 2)). Reports fit quality, asserts nothing.
    """
    probs = {h: v for h, v in hist.probs.items() if h >= 0 and v > 0}
    p = hist.p
    hs = sorted(probs)
    if len(hs) < 3:
        return {"status": "insufficient", "n_heights": len(hs)}
    ratios = {}
    for h in hs:
        if h - 1 in probs and h >= 1:
            ratios[h] = probs[h] / probs[h - 1]
    rvals = [ratios[h] for h in sorted(ratios)]
    monotone = all(a > b for a, b in zip(rvals, rvals[1:])) if len(rvals) >= 2 else None

    if p == 2:
        pts = [(h * h / math.log(h), math.log(probs[h])) for h in hs if h >= 2]
    else:
        pts = [(h ** min(p, 2.0), math.log(probs[h])) for h in hs if h >= 1]
    fit = None
    if len(pts) >= 2:
        x = np.array([a for a, _ in pts])
        y = np.array([b for _, b in pts])
        A = np.vstack([x, np.ones_like(x)]).T
        coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
        yhat = A @ coef
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 - float(np.sum((y - yhat) ** 2)) / ss_tot if ss_tot > 0 else 1.0
        fit = {"rate": -float(coef[0]), "intercept": float(coef[1]), "r_squared": r2,
               "x_form": "h^2/log h" if p == 2 else f"h^{min(p, 2.0):g}"}
    return {"status": "ok", "ratios": ratios, "ratios_strictly_decreasing": monotone,
            "fit": fit, "n_heights": len(hs)}

