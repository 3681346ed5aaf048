"""Heat-bath Glauber dynamics for the |grad phi|^p surface measure.

Randomness is counter-based: the uniform that updates site (x, y) in sweep t
of a chain is a pure function of (seed, chain, sweep, site). Concretely,
sweeps are grouped in blocks of B = max(1, 65536 // L^2) sweeps; block g is
the output of Philox keyed by (seed, chain) at counter (0, 0, 0, g), and
sweep t reads its L^2 uniforms (indexed y*L + x) from slice t mod B of block
t // B. Replaying from (seed, sweep 0) reproduces a chain bit-exactly
regardless of scheduling, and two chains with the same (seed, chain, sweep)
read the same uniforms: the monotone coupling is run_chain on each state of
an ordered pair over the same sweeps.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConstraintError, OrderingError, StructureError
from .surface import (ModelParams, SurfaceConfig, conditional_tables,
                      write_snapshot, read_snapshot)

SCAN_ORDERS = ("raster", "checkerboard")

_BLOCK_TARGET = 1 << 16

# below this many sites per block the kernel's fixed cost per numpy call
# outweighs its per-site saving, and run_chain takes the scalar sweep
_SCALAR_SITES = 12


class UniformStream:
    """Serves the per-sweep uniform vectors of one chain (see module doc)."""

    def __init__(self, seed, n_per_sweep, chain=0):
        self.key = np.array([seed % (1 << 64), chain % (1 << 64)], dtype=np.uint64)
        self.n = n_per_sweep
        self.block_sweeps = max(1, _BLOCK_TARGET // max(1, n_per_sweep))
        self._block_id = -1
        self._block = None

    def _load(self, g):
        counter = np.array([0, 0, 0, g % (1 << 64)], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=self.key, counter=counter))
        self._block = gen.random(self.block_sweeps * self.n)
        self._block_id = g

    def sweep(self, t):
        g, r = divmod(t, self.block_sweeps)
        if g != self._block_id:
            self._load(g)
        return self._block[r * self.n:(r + 1) * self.n]


@dataclass
class ChainState:
    config: SurfaceConfig
    seed: int
    sweep_count: int = 0
    scan_order: str = "raster"
    chain_id: int = 0

    def __post_init__(self):
        if self.scan_order not in SCAN_ORDERS:
            raise StructureError(f"unknown scan order {self.scan_order!r}")


def _sweep_grid(grid, table, params, u):
    """One sweep on a flat python grid, site by site, each table entry (index,
    neighbour indices, uniform index, floor, ceiling) drawn by inverse CDF."""
    for i, a, b, c, d, k, lo, hi in table:
        support0, _, cdf, shift = conditional_tables(
            (grid[a], grid[b], grid[c], grid[d]), lo, hi, params)
        grid[i] = support0[bisect_right(cdf, u[k])] + shift


def _site_table(phases):
    """The scalar sweep's per-site entries, read from _phases in order."""
    table = []
    for sites, neighbours, uidx, lo, hi in phases:
        bounds = [[b] * len(sites) if b is None or isinstance(b, int)
                  else b.tolist() for b in (lo, hi)]
        table += zip(sites.tolist(), *(a.tolist() for a in neighbours),
                     uidx.tolist(), *bounds)
    return table


def heat_bath_sweep(state: ChainState, params: ModelParams) -> ChainState:
    """Resample every interior site once from its exact conditional.

    Each site update is a draw from local_conditional given the current
    neighbors, so detailed balance holds update by update. The state is
    modified in place (configs are single-writer) and returned.
    """
    run_chain(state, params, 1)
    return state


def run_chain(state: ChainState, params: ModelParams, n_sweeps, on_sweep=None):
    """Advance a chain by n_sweeps systematic sweeps, raster or checkerboard.

    A sweep updates the blocks of _blocks(L, scan_order) in turn. Boxes with
    fewer than _SCALAR_SITES sites per block take the scalar sweep, site by
    site; larger ones take _Kernel, block by block. Both draw the same
    heights, so the choice only sets speed.

    The chain runs on one padded grid built by config.padded(). on_sweep, if
    given, is called after each sweep as on_sweep(sweep_count, heights), where
    heights is the (L, L) int64 [x, y] interior view of that grid; it stays
    valid until the next sweep. config.heights is written back once, at the
    end. n_sweeps < 0 raises StructureError. This is the engine behind
    heat_bath_sweep, sample_equilibrium and the monotone coupling.
    """
    if n_sweeps < 0:
        raise StructureError(f"n_sweeps must be >= 0, got {n_sweeps}")
    cfg = state.config
    L = cfg.L
    us = UniformStream(state.seed, L * L, chain=state.chain_id)
    padded = cfg.padded()
    flat = padded.reshape(-1)
    heights = padded[1:L + 1, 1:L + 1]
    phases = _phases(L, _blocks(L, state.scan_order), cfg.floor, cfg.ceiling)
    scalar = L * L < _SCALAR_SITES * len(phases)
    if scalar:
        grid = flat.tolist()
        table = _site_table(phases)

        def sweep(u):
            _sweep_grid(grid, table, params, u.tolist())
            if on_sweep is not None:
                flat[:] = grid
    else:
        kernel = _Kernel(params)

        def sweep(u):
            _sweep_phases(kernel, flat, phases, u)
    for _ in range(n_sweeps):
        sweep(us.sweep(state.sweep_count))
        state.sweep_count += 1
        if on_sweep is not None:
            on_sweep(state.sweep_count, heights)
    if scalar:
        flat[:] = grid
    cfg.heights[:, :] = heights
    return state


_FILL = 2.0  # pads CDF rows past their support; above every uniform


class _Kernel:
    """Table-lookup heat bath for one (p, beta).

    Every site's conditional law is a CDF row of conditional_tables, found by
    a small integer key and built the first time the key occurs. Rows are
    padded with _FILL to one power-of-two width. A site with row base + row
    draws base + start + #{i : cdf[i] <= u}, the first support point whose
    CDF entry exceeds u, as the scalar quantile (bisect_right) does. The
    count is found by a binary search: conditional_tables builds cdf as
    running sums of non-negative terms and sets cdf[-1] = 1.0, so for u in
    [0, 1) the predicate cdf[i] <= u holds on a prefix of the row and fails
    on the rest, padding included (even where rounding left cdf[-2] above
    1.0), and halving steps over that prefix count it exactly.

    For p = 2, sum_i (k - n_i)^2 = 4 (k - S/4)^2 + const with S the neighbour
    sum, so k - S//4 has the law of a site with neighbours (0, 0, 0, S % 4)
    and bounds moved by -S//4. Bound offsets are clipped to [-R, R]: a floor
    below -R (a ceiling above R) lies outside every row's support, and one
    above R (below -R) pins the draw to itself, which the final clamp to
    [floor, ceiling] restores. Other p key on the sorted neighbour gaps and
    the bound offsets from the lowest neighbour, as conditional_tables does.
    """

    def __init__(self, params):
        self.params = params
        self.start = np.zeros(64, dtype=np.int64)
        self.cdf = np.full((64, 1), _FILL)
        self.n_rows = 0
        self.rows = {}
        if params.p == 2:
            self.R = self._p2_radius()
            w = 2 * self.R + 1
            self.index = np.full(4 * w * w, -1, dtype=np.int64)

    def _p2_radius(self):
        """Smallest R >= 4 with every unconstrained p = 2 row inside
        [-R + 1, R - 1] and a floor at R (ceiling at -R) pinning the draw."""
        rows = [conditional_tables((0, 0, 0, r), None, None, self.params)[0]
                for r in range(4)]
        R = max(4, 1 - min(s[0] for s in rows), 1 + max(s[-1] for s in rows))
        while not all(
                len(conditional_tables((0, 0, 0, r), R, None, self.params)[0]) == 1
                and len(conditional_tables((0, 0, 0, r), None, -R, self.params)[0]) == 1
                for r in range(4)):
            R += 1
        return R

    def _row(self, key, neighbors, lo, hi):
        row = self.rows.get(key)
        if row is None:
            support0, _, cdf, shift = conditional_tables(neighbors, lo, hi,
                                                         self.params)
            row = self.rows[key] = self.n_rows
            if row == len(self.start):
                self.start = np.resize(self.start, 2 * row)
                self.cdf = np.vstack([self.cdf, np.full_like(self.cdf, _FILL)])
            if len(cdf) > self.cdf.shape[1]:
                width = 1 << (len(cdf) - 1).bit_length()
                pad = np.full((len(self.cdf), width - self.cdf.shape[1]), _FILL)
                self.cdf = np.hstack([self.cdf, pad])
            self.start[row] = support0[0] + shift
            self.cdf[row, :len(cdf)] = cdf
            self.n_rows += 1
        return row

    def _p2_rows(self, nsum, lo, hi):
        R = self.R
        w = 2 * R + 1
        base = nsum >> 2
        # key = (S % 4) w^2 + (floor offset + R) w + (ceiling offset + R);
        # no floor is offset -R, no ceiling offset R
        key = (nsum & 3) * (w * w) + (0 if lo is None else R * w) + (2 * R if hi is None else R)
        if lo is not None:
            key += np.minimum(np.maximum(lo - base, -R), R) * w
        if hi is not None:
            key += np.minimum(np.maximum(hi - base, -R), R)
        rows = self.index[key]
        if rows.min() < 0:
            for k in np.unique(key[rows < 0]).tolist():
                r, rest = divmod(k, w * w)
                fo, co = divmod(rest, w)
                self.index[k] = self._row(k, (0, 0, 0, r),
                                          None if fo == 0 else fo - R,
                                          None if co == 2 * R else co - R)
            rows = self.index[key]
        return base, rows

    def _general_rows(self, nb, lo, hi):
        nb = np.sort(nb, axis=0)
        base = nb[0]
        cols = [nb[1] - base, nb[2] - base, nb[3] - base]
        cols += [np.broadcast_to(b - base, base.shape) for b in (lo, hi) if b is not None]
        uniq, inv = np.unique(np.stack(cols), axis=1, return_inverse=True)
        keys = uniq.T.tolist()
        rows = np.empty(len(keys), dtype=np.int64)
        for j, key in enumerate(keys):
            fo = None if lo is None else key[3]
            co = None if hi is None else key[-1]
            rows[j] = self._row((*key[:3], fo, co), (0, *key[:3]), fo, co)
        return base, rows[inv.ravel()]

    def update(self, flat, sites, neighbours, u, lo=None, hi=None):
        """Resample flat[sites] in place, each site from its exact
        conditional given flat at its four neighbour indices.

        sites must be pairwise non-adjacent; u is an array aligned with
        them, lo (floors) and hi (ceilings) scalars or such arrays, None
        meaning unbounded. lo <= hi is the caller's to check (_phases does).
        """
        a, b, c, d = (flat[n] for n in neighbours)
        if self.params.p == 2:
            base, rows = self._p2_rows(a + b + c + d, lo, hi)
        else:
            base, rows = self._general_rows(np.stack([a, b, c, d]), lo, hi)
        width = self.cdf.shape[1]
        flat_cdf = self.cdf.reshape(-1)
        pos = rows * width
        new = base + self.start[rows] - pos
        step = width >> 1
        while step:
            pos += step * (flat_cdf[pos + (step - 1)] <= u)
            step >>= 1
        new += pos
        if lo is not None:
            np.maximum(new, lo, out=new)
        if hi is not None:
            np.minimum(new, hi, out=new)
        flat[sites] = new


def _block(sites, W):
    """Sites and their four neighbour indices in padded grids of row stride W."""
    return sites, (sites - W, sites + W, sites - 1, sites + 1)


def _blocks(L, scan_order):
    """The blocks of one sweep in update order, each a pair (xs, ys) of
    pairwise non-adjacent sites. Checkerboard: the two colours, even x + y
    first. Raster: the anti-diagonals x + y = d in increasing d; a site's west
    and south neighbours lie on diagonal d - 1 and its east and north ones on
    d + 1, so updating the diagonals in turn reads what row-major order reads.
    """
    if scan_order == "raster":
        diagonals = [np.arange(max(0, d - L + 1), min(d, L - 1) + 1)
                     for d in range(2 * L - 1)]
        return [(xs, d - xs) for d, xs in enumerate(diagonals)]
    # colour c holds y = (x + c) % 2, + 2, ... of each row x, in (x, y) order
    blocks = []
    for c in range(min(2, L * L)):
        rows = [np.arange((x + c) % 2, L, 2) for x in range(L)]
        blocks.append((np.repeat(np.arange(L), [len(r) for r in rows]),
                       np.concatenate(rows)))
    return blocks


def _phases(L, blocks, floors, ceilings, B=1):
    """Per block: its sites and their four neighbour indices in each of B
    padded (L+2)^2 grids laid back to back, the sites' uniform indices
    y*L + x, and their floors and ceilings (None, an int, or taken from an
    (L, L) or (B, L, L) array)."""
    if (floors is not None and ceilings is not None
            and np.any(np.asarray(floors) > np.asarray(ceilings))):
        raise InvalidConstraintError("floor above ceiling")
    W = L + 2
    offsets = np.arange(B)[:, None] * (W * W)
    phases = []
    for xs, ys in blocks:
        sites = (offsets + (xs + 1) * W + (ys + 1)).ravel()
        lo, hi = [b if b is None else int(b) if np.ndim(b) == 0
                  else b[..., xs, ys].ravel() for b in (floors, ceilings)]
        phases.append((*_block(sites, W), np.tile(ys * L + xs, B), lo, hi))
    return phases


def _sweep_phases(kernel, flat, phases, u):
    """One sweep: the kernel on each phase in turn, with its uniforms."""
    for sites, neighbours, uidx, lo, hi in phases:
        kernel.update(flat, sites, neighbours, u[uidx], lo, hi)


def _leq_bound(a, b):
    """a <= b pointwise, with None meaning -inf for floors / +inf for ceilings
    handled by the caller passing sentinels."""
    return bool(np.all(a <= b))


def check_ordered(lower: SurfaceConfig, upper: SurfaceConfig):
    if lower.L != upper.L:
        raise OrderingError("coupled chains must share the lattice size")
    if np.any(lower.heights > upper.heights):
        raise OrderingError("lower heights exceed upper heights")
    for s, v in lower.boundary.items():
        if v > upper.boundary[s]:
            raise OrderingError(f"boundary ordering violated at {s}")
    L = lower.L
    lo_f = _as_grid(lower.floor, L, -np.inf)
    up_f = _as_grid(upper.floor, L, -np.inf)
    lo_c = _as_grid(lower.ceiling, L, np.inf)
    up_c = _as_grid(upper.ceiling, L, np.inf)
    if not (_leq_bound(lo_f, up_f) and _leq_bound(lo_c, up_c)):
        raise OrderingError("floor/ceiling ordering violated")


def _as_grid(b, L, sentinel):
    if b is None:
        return np.full((L, L), sentinel)
    if isinstance(b, np.ndarray):
        return b.astype(float)
    return np.full((L, L), float(b))


def _check_coupling(lower: ChainState, upper: ChainState):
    """The coupling's preconditions: ordered states (check_ordered), and the
    same seed, sweep count, chain id and scan order, so that both chains read
    the same uniform at each site in the same order."""
    check_ordered(lower.config, upper.config)
    if ((lower.seed, lower.sweep_count, lower.chain_id, lower.scan_order)
            != (upper.seed, upper.sweep_count, upper.chain_id, upper.scan_order)):
        raise OrderingError("coupled chains must share seed, sweep count, "
                            "chain id and scan order")


def monotone_coupled_sweep(lower: ChainState, upper: ChainState,
                           params: ModelParams, n_sweeps=1) -> tuple:
    """n_sweeps coupled sweeps: run_chain on each chain over the same sweep
    range. Both chains consume the same uniform per site and sample by
    inverse CDF, so pointwise ordering is preserved.

    Preconditions (checked, OrderingError): lower.config <= upper.config
    pointwise, and the same for boundaries, floors and ceilings; equal seed,
    sweep count, chain id and scan order.
    """
    _check_coupling(lower, upper)
    run_chain(lower, params, n_sweeps)
    run_chain(upper, params, n_sweeps)
    return lower, upper


def coupled_batch_run(pad_lo, pad_up, params, seed, n_sweeps,
                      floors_lo=None, floors_up=None,
                      ceilings_lo=None, ceilings_up=None):
    """Run n_sweeps of the shared-uniform coupling on a batch of ordered pairs:
    raster sweeps, each raster block updated across all replicas at once.

    pad_lo/pad_up: (B, L+2, L+2) int64 padded grids (ring included).
    Returns the number of (pair, site) order violations seen after any sweep
    (0 is the contract).
    """
    B, W, _ = pad_lo.shape
    L = W - 2
    kernel = _Kernel(params)
    flat_lo, flat_up = pad_lo.reshape(-1), pad_up.reshape(-1)
    blocks = _blocks(L, "raster")
    phases_lo = _phases(L, blocks, floors_lo, ceilings_lo, B)
    phases_up = _phases(L, blocks, floors_up, ceilings_up, B)
    us = UniformStream(seed, L * L)
    violations = 0
    for t in range(n_sweeps):
        u = us.sweep(t)
        _sweep_phases(kernel, flat_lo, phases_lo, u)
        _sweep_phases(kernel, flat_up, phases_up, u)
        inner = np.s_[:, 1:L + 1, 1:L + 1]
        violations += int((flat_lo.reshape(B, W, W)[inner]
                           > flat_up.reshape(B, W, W)[inner]).sum())
    pad_lo[...] = flat_lo.reshape(B, W, W)   # a no-op unless reshape copied
    pad_up[...] = flat_up.reshape(B, W, W)
    return violations


def sample_equilibrium(params: ModelParams, L, sweeps, burn_in, thinning, seed,
                       initial=None, boundary=None, scan_order="raster",
                       chain_id=0):
    """Run a chain and emit (sweeps - burn_in) // thinning snapshots.

    Snapshots are taken at sweep counts burn_in + k*thinning, k = 1, 2, ...
    Returns (snapshots, diagnostics) where diagnostics carries the mean-height
    trace and an autocorrelation estimate of it.
    """
    if not (sweeps > burn_in >= 0 and thinning >= 1):
        raise StructureError("need sweeps > burn_in >= 0 and thinning >= 1")
    if boundary is None:
        from .surface import build_boundary
        boundary = build_boundary(params.boundary_spec, L)
    if initial is None:
        base = 0
        if params.floor_spec is not None and not isinstance(params.floor_spec, np.ndarray):
            base = int(params.floor_spec)
        initial = SurfaceConfig.flat(L, value=base, boundary=boundary,
                                     floor=params.floor_spec,
                                     ceiling=params.ceiling_spec)
    state = ChainState(config=initial.copy(), seed=seed, scan_order=scan_order,
                       chain_id=chain_id)
    snaps = []
    mean_trace = np.empty(sweeps)
    template = state.config

    def on_sweep(k, heights):
        mean_trace[k - 1] = heights.mean()
        if k > burn_in and (k - burn_in) % thinning == 0:
            snaps.append(SurfaceConfig(L, heights.astype(np.int32),
                                       dict(template.boundary),
                                       template.floor, template.ceiling))

    run_chain(state, params, sweeps, on_sweep=on_sweep)
    from .stats import integrated_autocorr_time
    tau = integrated_autocorr_time(mean_trace[burn_in:]) if sweeps - burn_in >= 8 else float("nan")
    diagnostics = {
        "mean_height_trace": mean_trace,
        "autocorr_time_sweeps": tau,
        "n_snapshots": len(snaps),
        "seed": seed,
    }
    return snaps, diagnostics


def sandwich_diagnostic(params: ModelParams, L, sweeps, seed, boundary,
                        high_value):
    """Burn-in validation by a monotone sandwich.

    Couples a chain started flat at the floor when the floor is an integer
    (at 0 otherwise) with one started flat at high_value, capped at the
    lowest ceiling; reports the per-sweep mean gap. Agreement of the
    two ends bounds the distance to equilibrium for monotone observables.
    """
    floor = params.floor_spec
    base = int(floor) if isinstance(floor, (int, np.integer)) else 0
    lo = SurfaceConfig.flat(L, value=base, boundary=boundary, floor=floor,
                            ceiling=params.ceiling_spec)
    hi_ceiling = params.ceiling_spec
    hi_start = high_value if hi_ceiling is None else min(high_value, int(np.min(_as_grid(hi_ceiling, L, np.inf))))
    hi = SurfaceConfig.flat(L, value=hi_start, boundary=boundary, floor=floor,
                            ceiling=params.ceiling_spec)
    slo = ChainState(config=lo, seed=seed)
    shi = ChainState(config=hi, seed=seed)
    _check_coupling(slo, shi)
    sums = []
    for state in (slo, shi):
        trace = []
        run_chain(state, params, sweeps,
                  on_sweep=lambda k, heights: trace.append(int(heights.sum())))
        sums.append(trace)
    gaps = [(up - low) / (L * L) for low, up in zip(*sums)]
    return {"gap_trace": np.asarray(gaps), "coalesced_at": _first_zero(gaps)}


def _first_zero(gaps):
    for i, g in enumerate(gaps):
        if g == 0.0:
            return i + 1
    return None


def cftp_sample(params: ModelParams, L, seed, boundary, max_doublings=20):
    """Coupling-from-the-past; only offered when a finite ceiling bounds the
    state space above (the floor bounds it below)."""
    if params.ceiling_spec is None:
        raise InvalidConstraintError("CFTP requires a finite ceiling")
    if params.floor_spec is None:
        raise InvalidConstraintError("CFTP requires a floor")
    T = 1
    for _ in range(max_doublings):
        lo_cfg = SurfaceConfig.flat(L, value=0, boundary=boundary,
                                    floor=params.floor_spec, ceiling=params.ceiling_spec)
        lo_cfg.heights[:, :] = _as_grid(params.floor_spec, L, 0).astype(np.int32)
        hi_cfg = SurfaceConfig.flat(L, value=0, boundary=boundary,
                                    floor=params.floor_spec, ceiling=params.ceiling_spec)
        hi_cfg.heights[:, :] = _as_grid(params.ceiling_spec, L, 0).astype(np.int32)
        slo = ChainState(config=lo_cfg, seed=seed)
        shi = ChainState(config=hi_cfg, seed=seed)
        # Sweep s in 0..T-1 of this attempt reuses the fixed randomness of
        # absolute time -T + s, implemented as sweep index (max_T - T + s).
        offset = (1 << max_doublings) - T
        slo.sweep_count = shi.sweep_count = offset
        monotone_coupled_sweep(slo, shi, params, n_sweeps=T)
        if np.array_equal(slo.config.heights, shi.config.heights):
            return slo.config
        T *= 2
    raise InvalidConstraintError(f"CFTP did not coalesce within 2^{max_doublings} sweeps")


def save_checkpoint(path_prefix, state: ChainState, params: ModelParams,
                    params_hash=""):
    """Snapshot file plus a sidecar text record (seed, sweep count, scan
    order, params hash, boundary)."""
    write_snapshot(str(path_prefix) + ".snap", state.config, params)
    lines = [
        f"seed = {state.seed}",
        f"sweep_count = {state.sweep_count}",
        f"scan_order = {state.scan_order}",
        f"chain_id = {state.chain_id}",
        f"params_hash = {params_hash}",
        "boundary = " + ";".join(f"{x},{y}:{v}" for (x, y), v in
                                 sorted(state.config.boundary.items())),
    ]
    with open(str(path_prefix) + ".sidecar", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path_prefix):
    with open(str(path_prefix) + ".sidecar") as fh:
        kv = {}
        for line in fh:
            if not line.strip():
                continue
            k, _, v = line.partition(" = ")
            kv[k.strip()] = v.strip()
    boundary = {}
    for item in kv["boundary"].split(";"):
        xy, _, v = item.partition(":")
        x, _, y = xy.partition(",")
        boundary[(int(x), int(y))] = int(v)
    cfg, params = read_snapshot(str(path_prefix) + ".snap", boundary=boundary)
    state = ChainState(config=cfg, seed=int(kv["seed"]),
                       sweep_count=int(kv["sweep_count"]),
                       scan_order=kv["scan_order"], chain_id=int(kv["chain_id"]))
    return state, params, kv["params_hash"]
