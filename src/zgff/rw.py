"""Area-tilted effective random walk bridges above a floor.

A bridge of width W is a height path (y_0, ..., y_W) with fixed endpoints,
increments drawn from an IncrementLaw with unit horizontal steps, weighted
by exp(-A/N) 1{y >= floor}, where the area functional A is the column sum
of (height - floor) (endpoint columns contribute a constant and are
included). The transfer recursion gives exact column marginals and exact
conditional sampling; a local-move MCMC sampler is kept alongside and
validated against the oracle rather than trusted.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateInputError, InfeasibleError, ResourceLimitError,
                     StructureError, check_cells)
from .fs import FSModel, ks_distance
from .mcmc import _library
from .surface import TRUNCATION_EPS


@dataclass
class IncrementLaw:
    dys: np.ndarray               # y-steps; every step advances x by one
    probs: np.ndarray
    source: str = "basic"

    def __post_init__(self):
        self.dys = np.asarray(self.dys)
        self.probs = np.asarray(self.probs, dtype=float)
        if (self.dys.ndim != 1 or self.dys.dtype.kind != "i"
                or len(self.dys) != len(self.probs)):
            raise StructureError("dys must be a 1-D integer array as long as probs")
        if abs(self.probs.sum() - 1.0) > 1e-12:
            raise StructureError("probabilities must sum to 1 within 1e-12")

    @property
    def y_variance(self):
        my = sum(self.probs * self.dys)
        return float(sum(self.probs * (self.dys - my) ** 2))


def basic_increment_law(q):
    """Three-step caricature of the low-temperature increments:
    y-step 0 with 1-2q, +-1 with q each; y-variance 2q."""
    if not 0 < q < 0.5:
        raise StructureError("need 0 < q < 1/2 (q = 0 degenerates to a "
                             "deterministic horizontal walk)")
    return IncrementLaw(dys=[0, 1, -1], probs=[1 - 2 * q, q, q],
                        source=f"basic(q={q})")


def laplace_increment_law(beta):
    """The effective walk of the truncated polymer ensemble of tension.py:
    y-steps r with weight e^(-beta |r|), one free vertical run per column,
    so that exp(beta M) Z(M, Y) is coth(beta/2)^(M+1) times the probability
    that M + 1 steps of the walk sum to Y.

    |r| <= R for the smallest R whose omitted weight
    sum_{|r| > R} e^(-beta |r|) = 2 t^(R+1) / (1 - t), t = e^-beta, is below
    TRUNCATION_EPS (the omitted probability is smaller still). The
    y-variance is 2t / (1-t)^2 up to that truncation."""
    if not beta > 0:
        raise StructureError("need beta > 0")
    t = math.exp(-beta)
    R = int(math.log(2.0 / ((1.0 - t) * TRUNCATION_EPS)) // beta)
    dys = np.arange(-R, R + 1)
    w = np.exp(-beta * np.abs(dys))
    return IncrementLaw(dys=dys, probs=w / w.sum(), source=f"laplace(beta={beta})")


@dataclass
class TiltedBridgeSpec:
    u: tuple                      # (x, y) left endpoint
    v: tuple                      # (x, y) right endpoint
    floor: int
    tilt_N: float                 # area divisor; math.inf switches the tilt off
    law: IncrementLaw
    ceiling: int = None

    def __post_init__(self):
        if self.v[0] <= self.u[0]:
            raise StructureError("right endpoint must be strictly to the right")
        if self.u[1] < self.floor or self.v[1] < self.floor:
            raise InfeasibleError("floor above an endpoint")
        if self.ceiling is not None and (self.u[1] > self.ceiling
                                         or self.v[1] > self.ceiling):
            raise InfeasibleError("ceiling below an endpoint")

    @property
    def width(self):
        return self.v[0] - self.u[0]


def fs_bridge_spec(N, law):
    """The bridge on which the walk of `law` at tilt N is compared with
    FS(sigma), sigma^2 = law.y_variance: every step advances x by one, so
    that is the variance per unit length.

    Width 6 ceil(N^(2/3)); both endpoints at the FS mean height N^(1/3) E[X]
    (the proxy for an infinitely long bridge); floor 1, strictly above the
    wall row 0 (see fs_comparison); heights capped at max(y0 + 4, 12 N^(1/3)).
    N must be finite and > 0 (StructureError otherwise).
    """
    if not 0 < N < math.inf:
        raise StructureError(f"tilt N must be finite and > 0, got {N}")
    W = 6 * int(math.ceil(N ** (2.0 / 3.0)))
    scale = N ** (1.0 / 3.0)
    model = FSModel(sigma=math.sqrt(law.y_variance))
    y0 = max(1, int(round(model.mean() * scale)))
    cap = max(y0 + 4, int(12 * scale))
    return TiltedBridgeSpec(u=(0, y0), v=(W, y0), floor=1, tilt_N=float(N),
                            law=law, ceiling=cap)


def _step_terms(v, dys, probs):
    """The (len(v), len(dys)) terms probs[j] * v[y + dys[j]] of one column
    step, zero where y + dys[j] leaves the window. Held step-major, so a row
    sum adds the steps in law order."""
    r = int(np.abs(dys).max())
    padded = np.zeros(len(v) + 2 * r)
    padded[r:len(v) + r] = v
    return (probs[:, None] * padded[(dys + r)[:, None] + np.arange(len(v))]).T


def _forward_backward(spec):
    """Forward/backward vectors of the tilted bridge over its height window.
    Returns (fwd, bwd, heights, site_factor) with fwd[i] * bwd[i]
    proportional to the column-i marginal."""
    dys, probs = spec.law.dys, spec.law.probs
    W = spec.width
    lo = spec.floor
    if spec.ceiling is not None:
        hi = spec.ceiling
    else:
        hi = max(spec.u[1], spec.v[1]) + int(np.abs(dys).max()) * W
    n_h = hi - lo + 1
    check_cells((W + 1, n_h), "the transfer window")
    site = np.exp(-(np.arange(n_h)) / spec.tilt_N)
    fwd = np.zeros((W + 1, n_h))
    iu = spec.u[1] - lo
    iv = spec.v[1] - lo
    if not (0 <= iu < n_h and 0 <= iv < n_h):
        raise InfeasibleError("endpoint outside the height window")
    fwd[0, iu] = site[iu]
    for i in range(1, W + 1):
        acc = _step_terms(fwd[i - 1], -dys, probs).sum(axis=1) * site
        m = acc.max()
        if m <= 0.0:
            raise InfeasibleError("endpoints infeasible under the step support")
        fwd[i] = acc / m
    bwd = np.zeros((W + 1, n_h))
    bwd[W, iv] = 1.0
    for i in range(W - 1, -1, -1):
        acc = _step_terms(bwd[i + 1] * site, dys, probs).sum(axis=1)
        m = acc.max()
        if m <= 0.0:
            raise InfeasibleError("endpoints infeasible under the step support")
        bwd[i] = acc / m
    if fwd[W, iv] <= 0.0:
        raise InfeasibleError("endpoints infeasible under the step support")
    heights = np.arange(lo, hi + 1)
    return fwd, bwd, heights, site


def transfer_matrix_exact(spec: TiltedBridgeSpec):
    """Exact column marginals of the tilted bridge by forward-backward
    accumulation over its whole height window; each column normalized to 1
    within 1e-12."""
    fwd, bwd, heights, _ = _forward_backward(spec)
    marg = fwd * bwd
    sums = marg.sum(axis=1, keepdims=True)
    if np.any(sums <= 0):
        raise InfeasibleError("zero-mass column; infeasible bridge")
    marg /= sums
    return heights, marg


def sample_tilted_bridge(spec: TiltedBridgeSpec, count, seed, method="transfer",
                         mcmc_sweeps_per_sample=4):
    """Paths from the tilted bridge measure, shape (count, width+1).

    method 'transfer' samples exactly through the conditional chain of the
    forward-backward recursion (any width); 'mcmc' runs single-column
    Metropolis moves (validated against the oracle in the tests). Both draw
    from np.random.default_rng(seed) and run their loops in the compiled
    library of zgff.mcmc (a missing C compiler raises BuildError). A count
    that is not an integer >= 0, or for 'mcmc' a mcmc_sweeps_per_sample that
    is not an integer >= 1, raises StructureError before any draw.
    """
    if not isinstance(count, numbers.Integral) or count < 0:
        raise StructureError(f"count must be an integer >= 0, got {count!r}")
    check_cells((count, spec.width + 1), "the bridge paths")
    if method == "transfer":
        return _sample_transfer(spec, count, seed), {"method": "transfer"}
    if method == "mcmc":
        if (not isinstance(mcmc_sweeps_per_sample, numbers.Integral)
                or mcmc_sweeps_per_sample < 1):
            raise StructureError("mcmc_sweeps_per_sample must be an integer "
                                 f">= 1, got {mcmc_sweeps_per_sample!r}")
        return _sample_mcmc(spec, count, seed, mcmc_sweeps_per_sample)
    raise StructureError(f"unknown sampling method {method!r}")


def enumerate_bridge(spec: TiltedBridgeSpec):
    """All feasible paths with their (unnormalized) weights; the brute-force
    oracle behind the oracle."""
    dys, probs = spec.law.dys.tolist(), spec.law.probs
    W = spec.width
    if len(dys) ** W > 2_000_000:
        raise ResourceLimitError("path space too large to enumerate")
    paths = []
    weights = []
    y0 = spec.u[1]

    def rec(i, y, prob, area, path):
        if y < spec.floor or (spec.ceiling is not None and y > spec.ceiling):
            return
        path.append(y)
        if i == W:
            if y == spec.v[1]:
                paths.append(list(path))
                a = area + (y - spec.floor)
                weights.append(prob * math.exp(-a / spec.tilt_N))
            path.pop()
            return
        for dy, p in zip(dys, probs):
            rec(i + 1, y + dy, prob * p, area + (y - spec.floor), path)
        path.pop()

    rec(0, y0, 1.0, 0.0, [])
    if not paths:
        raise InfeasibleError("no feasible path between the endpoints")
    return np.asarray(paths), np.asarray(weights)


def _sample_transfer(spec, count, seed):
    dys, probs = spec.law.dys, spec.law.probs
    fwd, bwd, heights, site = _forward_backward(spec)
    W = spec.width
    rng = np.random.default_rng(seed)
    draw = _library().zgff_bridge_draw
    steps = np.ascontiguousarray(dys, dtype=np.int64)
    # height indices until the return; column i + 1 is drawn from column i
    out = np.empty((count, W + 1), dtype=np.int64)
    out[:, 0] = spec.u[1] - heights[0]
    for i in range(W):
        # conditional cdf per height: cdf[y, j] ~ P(step j | y at column i)
        cdf = np.ascontiguousarray(
            np.cumsum(_step_terms(bwd[i + 1] * site, dys, probs), axis=1))
        tot = cdf[:, -1].copy()
        tot[tot == 0] = 1.0
        cdf /= tot[:, None]
        u = rng.random(count)
        if draw(cdf.ctypes.data, len(steps), steps.ctypes.data, u.ctypes.data,
                out.ctypes.data + out.itemsize * i, count, W + 1) >= 0:
            raise InfeasibleError("a path reached a zero-mass height")
    out += heights[0]
    return out


def _sample_mcmc(spec, count, seed, sweeps_per_sample):
    """Single-column +-1 Metropolis on the height path (for unit-step laws a
    corner flip is such a move). Irreducible: any path can reach the minimal
    one by monotone moves.

    Each sweep proposes W - 1 moves, at columns rng.integers(1, W), signs
    (-1, 1)[rng.integers(0, 2)] and uniforms rng.random(), each drawn as one
    array per sweep from np.random.default_rng(seed). The chain runs in the
    compiled library (zgff_bridge_mcmc) on that generator, called through
    its ctypes interface, and makes the bounded draws as numpy does, so the
    samples are those of the numpy loop bit for bit; Python builds the start
    path and the Metropolis ratios and reads the midpoint autocorrelation
    off the samples."""
    dys = spec.law.dys.tolist()
    pstep = dict(zip(dys, spec.law.probs.tolist()))
    W = spec.width
    if W < 2:
        raise StructureError("bridge too narrow for MCMC moves")
    y = _initial_path(spec, dys)
    tilt = 1.0 / spec.tilt_N
    # Metropolis ratio of moving a column by e between steps dl (left) and dr
    # (right), at [dl - dmin, dr - dmin, e > 0]; -1 marks a move whose new
    # steps leave the law's support
    dmin = min(dys)
    span = max(dys) - dmin + 1
    ratios = np.full((span, span, 2), -1.0)
    for dl in dys:
        for dr in dys:
            for up, e in enumerate((-1, 1)):
                if dl + e in pstep and dr - e in pstep:
                    ratios[dl - dmin, dr - dmin, up] = (
                        (pstep[dl + e] * pstep[dr - e]) / (pstep[dl] * pstep[dr])
                        * math.exp(-tilt * e))
    samples = np.empty((count, W + 1), dtype=np.int64)
    cols = np.empty(W - 1, dtype=np.int64)
    signs = np.empty(W - 1, dtype=np.int64)
    uniforms = np.empty(W - 1)
    tally = np.zeros(2, dtype=np.int64)          # accepts, proposals
    ceiling = np.iinfo(np.int64).max if spec.ceiling is None else spec.ceiling
    desc = np.array([y.ctypes.data, W, spec.floor, ceiling, ratios.ctypes.data,
                     dmin, span, samples.ctypes.data, count, 10 * W,
                     sweeps_per_sample, cols.ctypes.data, signs.ctypes.data,
                     uniforms.ctypes.data, tally.ctypes.data], dtype=np.int64)
    # the ctypes interface holds raw addresses only: the local keeps the
    # generator alive until the C call returns
    bit_generator = np.random.default_rng(seed).bit_generator
    stream = bit_generator.ctypes
    _library().zgff_bridge_mcmc(desc.ctypes.data, stream.state_address,
                                stream.next_uint32, stream.next_double)
    from .stats import integrated_autocorr_time
    accepts, proposals = tally.tolist()
    diag = {"method": "mcmc",
            "acceptance_rate": accepts / max(proposals, 1),
            "midpoint_autocorr_samples": (
                integrated_autocorr_time(samples[:, W // 2].astype(float))
                if count >= 8 else float("nan"))}
    return samples, diag


def _initial_path(spec, dys):
    """A feasible path: greedy walk toward the right endpoint."""
    W = spec.width
    y = np.empty(W + 1, dtype=np.int64)
    y[0] = spec.u[1]
    target = spec.v[1]
    up = max(dys)
    dn = min(dys)
    for i in range(1, W + 1):
        remaining = W - i
        cur = y[i - 1]
        best = None
        for dy in sorted(dys, key=lambda d: abs(target - (cur + d))):
            ny = cur + dy
            if ny < spec.floor or (spec.ceiling is not None and ny > spec.ceiling):
                continue
            if ny + dn * remaining <= target <= ny + up * remaining:
                best = ny
                break
        if best is None:
            raise InfeasibleError("no feasible path between the endpoints")
        y[i] = best
    if y[-1] != target:
        raise InfeasibleError("no feasible path between the endpoints")
    return y


def fs_comparison(paths, N, sigma):
    """KS of rescaled bridge marginals against the Ferrari-Spohn density at
    t = 0, -0.5, 0.5 and 0.75, from at least 200 paths.

    paths: (n, W+1) heights of bridges of width W >= 6 N^(2/3) above a wall
    at 0; heights rescale by N^(-1/3) and positions by N^(2/3) around the
    center. Returns {'ks': {t: value}, 'n': n, 'sigma': sigma, ...}.

    Convention note: the continuum law has a Dirichlet (killed) boundary at
    0, whose discrete analogue is a strictly positive walk. Feeding bridges
    with floor = 1 (heights in {1, 2, ...} above the wall row 0) removes the
    one-lattice-unit boundary layer that a floor-0 bridge carries; at desk
    scales that layer dominates the KS.
    """
    paths = np.asarray(paths)
    n, Wp1 = paths.shape
    if n < 200:
        raise DegenerateInputError("need at least 200 paths")
    W = Wp1 - 1
    win = N ** (2.0 / 3.0)
    if W < 6 * win - 2:
        raise StructureError("bridge too narrow: need width >= 6 N^(2/3)")
    center = W // 2
    model = FSModel(sigma=sigma)
    scale = N ** (1.0 / 3.0)
    ks = {}
    for t in (0.0, -0.5, 0.5, 0.75):
        col = center + int(round(t * win))
        if not 0 <= col <= W:
            raise StructureError(f"t={t} outside the bridge")
        ks[t] = ks_distance(paths[:, col] / scale, model)
    return {"ks": ks, "n": int(n), "sigma": sigma,
            "window_columns": int(round(2 * win)), "center": center}
