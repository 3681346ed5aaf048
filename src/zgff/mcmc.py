"""Heat-bath Glauber dynamics for the |grad phi|^p surface measure.

Randomness is counter-based: the uniform that updates site (x, y) in sweep t
of a chain is a pure function of (seed, sweep, site). Concretely, sweeps are
grouped in blocks of B = max(1, 65536 // L^2) sweeps; block g is the output
of Philox keyed by (seed, 0) at counter (0, 0, 0, g), and sweep t reads its
L^2 uniforms (indexed y*L + x) from slice t mod B of block t // B. Replaying
from (seed, sweep 0) reproduces a chain bit-exactly regardless of
scheduling, and two chains with the same (seed, sweep) read the same
uniforms: the monotone coupling runs an ordered pair as the two replicas of
one batch, which read each sweep's uniforms once.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import (BuildError, InvalidConstraintError, StructureError,
                     check_cells)
from .surface import (ModelParams, SurfaceConfig, build_boundary,
                      conditional_tables)

# colour passes per sweep of each scan order (the C_COLOURS slot of _sweep.c)
_COLOURS = {"raster": 1, "checkerboard": 2}

_BLOCK_TARGET = 1 << 16


class UniformStream:
    """Serves the per-sweep uniform vectors of one chain (see module doc).

    The stream owns one block buffer, refilled in place by each load, so the
    vector of an earlier sweep is overwritten once a sweep of another block
    is read. The buffer's address is taken once, for the compiled sweep.
    """

    def __init__(self, seed, n_per_sweep):
        self.key = np.array([seed % (1 << 64), 0], dtype=np.uint64)
        self.n = n_per_sweep
        self.block_sweeps = max(1, _BLOCK_TARGET // max(1, n_per_sweep))
        self._block = np.empty(self.block_sweeps * n_per_sweep)
        self._block_id = -1
        self._address = self._block.ctypes.data

    def _load(self, g):
        counter = np.array([0, 0, 0, g % (1 << 64)], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=self.key, counter=counter))
        gen.random(out=self._block)
        self._block_id = g

    def _offset(self, t):
        """Loads the block of sweep t; returns t's index in it."""
        g, r = divmod(t, self.block_sweeps)
        if g != self._block_id:
            self._load(g)
        return r * self.n

    def sweep(self, t):
        r = self._offset(t)
        return self._block[r:r + self.n]

    def address(self, t):
        """Memory address of sweep t's uniforms, for the compiled sweep."""
        return self._address + 8 * self._offset(t)


@dataclass
class ChainState:
    config: SurfaceConfig
    seed: int
    sweep_count: int = 0
    scan_order: str = "checkerboard"

    def __post_init__(self):
        if self.scan_order not in _COLOURS:
            raise StructureError(f"unknown scan order {self.scan_order!r}")


def _sweeps(grid, params, seed, start, n_sweeps, scan_order, lo, hi):
    """The one sweep loop of every chain: sweeps start, ..., start +
    n_sweeps - 1 of seed's stream, run in place on grid, a C-contiguous
    (B, L+2, L+2) int64 batch, by a _Sweep with bounds lo and hi. Yields the
    sweep count after each. n_sweeps < 0 raises StructureError."""
    if n_sweeps < 0:
        raise StructureError(f"n_sweeps must be >= 0, got {n_sweeps}")
    B, W, _ = grid.shape
    L = W - 2
    sweep = _Sweep(_kernel(params), grid.reshape(-1), L, B, scan_order, lo, hi)
    address = UniformStream(seed, L * L).address
    for t in range(start, start + n_sweeps):
        sweep(address(t))
        yield t + 1


def run_chain(state: ChainState, params: ModelParams, n_sweeps, on_sweep=None):
    """Advance a chain by n_sweeps systematic sweeps of state.scan_order.

    The sweeps are those of _sweeps on a batch of one: each is one call of
    the compiled routine, which walks the scan: checkerboard colour by colour
    (even x + y first), raster row by row (row-major), each site drawn from
    its exact conditional by the kernel of (p, beta).

    The chain runs on one padded grid built by config.padded(). on_sweep, if
    given, is called after each sweep as on_sweep(sweep_count, heights), where
    heights is the (L, L) int64 [x, y] interior view of that grid; it stays
    valid until the next sweep. config.heights is written back once, at the
    end. n_sweeps < 0 raises StructureError, a floor above the ceiling
    InvalidConstraintError, and a C compiler that is missing or fails on
    first use BuildError (see _build).
    """
    cfg = state.config
    L = cfg.L
    padded = cfg.padded()
    heights = padded[1:L + 1, 1:L + 1]
    for t in _sweeps(padded[None], params, state.seed, state.sweep_count,
                     n_sweeps, state.scan_order, cfg.floor, cfg.ceiling):
        state.sweep_count = t
        if on_sweep is not None:
            on_sweep(t, heights)
    cfg.heights[:, :] = heights
    return state


_CFLAGS = ("-O2", "-shared", "-fPIC")
_LIB = None


def _library():
    """The compiled library (_sweep.c): the heat-bath sweep and the bridge
    samplers of zgff.rw, loaded on first use."""
    global _LIB
    if _LIB is None:
        import ctypes
        path, scratch = _build()
        try:
            lib = ctypes.CDLL(path)
        finally:
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)
        ptr, i64 = ctypes.c_void_p, ctypes.c_int64
        lib.zgff_sweep.argtypes = (ptr, ptr, i64)
        lib.zgff_sweep.restype = i64
        lib.zgff_probe.argtypes = (ptr, i64, ptr)
        lib.zgff_probe.restype = i64
        lib.zgff_bridge_draw.argtypes = (ptr, i64, ptr, ptr, ptr, i64, i64)
        lib.zgff_bridge_draw.restype = i64
        lib.zgff_bridge_mcmc.argtypes = (ptr, ptr, ptr, ptr)
        lib.zgff_bridge_mcmc.restype = None
        _LIB = lib
    return _LIB


def _build():
    """(path, scratch) of the shared library built from _sweep.c with
    _CFLAGS, compiled by cc into $XDG_CACHE_HOME/zgff (default ~/.cache/zgff)
    unless already there under the sha256 of the source and flags. The file
    is written under a temporary name and renamed into place, so concurrent
    builds are safe. scratch is None, or, when the cache is unwritable, the
    temporary directory the library was built in instead, for the caller to
    remove once the library is loaded. A missing or failing compiler raises
    BuildError and leaves no file behind."""
    import subprocess
    source = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_sweep.c")
    with open(source, "rb") as fh:
        digest = hashlib.sha256(fh.read() + " ".join(_CFLAGS).encode()).hexdigest()
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME")
                         or os.path.join(os.path.expanduser("~"), ".cache"), "zgff")
    path = os.path.join(cache, f"_sweep-{digest[:32]}.so")
    if os.path.exists(path):
        return path, None
    scratch = None
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    except OSError:
        scratch = tempfile.mkdtemp(prefix="zgff-")
        path = os.path.join(scratch, os.path.basename(path))
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=scratch)
    os.close(fd)
    try:
        subprocess.run(["cc", *_CFLAGS, "-o", tmp, source], check=True,
                       capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError) as exc:
        os.unlink(tmp)
        if scratch is not None:
            os.rmdir(scratch)
        raise BuildError(f"cc could not build {source}: "
                         f"{getattr(exc, 'stderr', None) or exc}") from exc
    os.replace(tmp, path)
    return path, scratch


_FILL = 2.0  # pads CDF rows past their support; above every uniform
_ABSENT = np.iinfo(np.int64).min  # a p != 2 key's missing floor or ceiling
_KERNELS = {}


def _kernel(params):
    """The kernel of (p, beta), shared by every chain of that (p, beta)."""
    key = (params.p, params.beta)
    if key not in _KERNELS:
        _KERNELS[key] = _Kernel(params)
    return _KERNELS[key]


class _Kernel:
    """Table-lookup heat bath for one (p, beta): the CDF rows the compiled
    sweep draws from, and their key lookup.

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
    [floor, ceiling] restores. The key (S % 4) w^2 + (floor offset + R) w +
    (ceiling offset + R), w = 2R + 1 (no floor is offset -R, no ceiling R),
    indexes a dense array. Other p key on the sorted neighbour gaps and the
    bound offsets from the lowest neighbour (_ABSENT if unbounded), as
    conditional_tables does, in an open-addressing table at most half full.
    desc, the descriptor the compiled sweep reads (slots K_* of _sweep.c),
    is rewritten whenever a table moves.
    """

    def __init__(self, params):
        self.params = params
        self.start = np.zeros(64, dtype=np.int64)
        self.cdf = np.full((64, 1), _FILL)
        self.n_rows = 0
        self.miss = np.zeros(5, dtype=np.int64)
        self.R = 0
        if params.p == 2:
            self.R = self._p2_radius()
            w = 2 * self.R + 1
            check_cells((4 * w, w), "the p = 2 key table")
            self.lookup = np.full(4 * w * w, -1, dtype=np.int64)
        else:
            self.lookup = np.full((64, 6), -1, dtype=np.int64)
        self.desc = np.zeros(8, dtype=np.int64)
        self._publish()

    def _publish(self):
        self.desc[:] = (self.params.p == 2, self.R, self.lookup.ctypes.data,
                        len(self.lookup) - 1, self.start.ctypes.data,
                        self.cdf.ctypes.data, self.cdf.shape[1],
                        self.miss.ctypes.data)

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

    def _row(self, neighbors, lo, hi):
        support0, _, cdf, shift = conditional_tables(neighbors, lo, hi,
                                                     self.params)
        row = self.n_rows
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

    def add_missing(self):
        """Build and file the row of the key the compiled sweep stopped at
        (in miss), then republish the tables."""
        if self.params.p == 2:
            R, key = self.R, int(self.miss[0])
            r, rest = divmod(key, (2 * R + 1) ** 2)
            fo, co = divmod(rest, 2 * R + 1)
            self.lookup[key] = self._row((0, 0, 0, r),
                                         None if fo == 0 else fo - R,
                                         None if co == 2 * R else co - R)
        else:
            g1, g2, g3, fo, co = self.miss.tolist()
            row = self._row((0, g1, g2, g3), None if fo == _ABSENT else fo,
                            None if co == _ABSENT else co)
            if 2 * self.n_rows > len(self.lookup):
                old = self.lookup[self.lookup[:, 5] >= 0]
                self.lookup = np.full((2 * len(self.lookup), 6), -1, dtype=np.int64)
                for entry in old:
                    self._file(entry)
            self._file(np.array([g1, g2, g3, fo, co, row], dtype=np.int64))
        self._publish()

    def _file(self, entry):
        """Put entry (a key and its row) in its lookup slot."""
        slot = _library().zgff_probe(self.lookup.ctypes.data,
                                     len(self.lookup) - 1, entry.ctypes.data)
        self.lookup[slot] = entry


_NO_BOUND, _SCALAR_BOUND, _ARRAY_BOUND = range(3)


class _Sweep:
    """One sweep of B padded (L+2)^2 grids laid back to back (flat) by the
    compiled routine, in scan order, every grid's site (x, y) drawing with
    the sweep's uniform y*L + x between bounds lo and hi (None, an int, or
    an array that broadcasts to (B, L, L), indexed [replica, x, y]). A floor
    above its ceiling raises InvalidConstraintError. The context array
    (slots C_* of _sweep.c) holds the grid's and the bounds' addresses, so
    this object keeps them alive; a call passes it and the address of u."""

    def __init__(self, kernel, flat, L, B, scan_order, lo, hi):
        if (L < 1 or flat.dtype != np.int64 or not flat.flags.c_contiguous
                or flat.size != B * (L + 2) ** 2):
            raise StructureError("the sweep grid must be B contiguous int64 "
                                 "(L+2)^2 grids with L >= 1")
        if lo is not None and hi is not None and np.any(np.asarray(lo) > np.asarray(hi)):
            raise InvalidConstraintError("floor above ceiling")
        bounds = [b if b is None or np.ndim(b) == 0 else
                  np.ascontiguousarray(np.broadcast_to(b, (B, L, L)), dtype=np.int64)
                  for b in (lo, hi)]
        self.kernel = kernel
        self._arrays = (flat, *bounds)
        kinds = [(_NO_BOUND, 0) if b is None
                 else (_ARRAY_BOUND, b.ctypes.data) if isinstance(b, np.ndarray)
                 else (_SCALAR_BOUND, int(b)) for b in bounds]
        self.ctx = np.array([kernel.desc.ctypes.data, flat.ctypes.data, L, B,
                             _COLOURS[scan_order],
                             *kinds[0], *kinds[1]], dtype=np.int64)
        self._ctx = self.ctx.ctypes.data
        self._call = _library().zgff_sweep

    def __call__(self, u_address):
        pos = self._call(self._ctx, u_address, 0)
        while pos >= 0:
            self.kernel.add_missing()
            pos = self._call(self._ctx, u_address, pos)


def coupled_batch_run(pad_lo, pad_up, params, seed, n_sweeps,
                      floors_lo=None, floors_up=None,
                      ceilings_lo=None, ceilings_up=None):
    """Run n_sweeps of the shared-uniform coupling on a batch of ordered pairs:
    checkerboard sweeps of every replica, each replica's site (x, y) reading
    the sweep's uniform y*L + x.

    pad_lo/pad_up: (B, L+2, L+2) int64 padded grids (ring included) of one
    shape, swept as one batch of 2B replicas, lo first. A bound (an int or
    an array broadcasting to (B, L, L)) is given on both sides or neither.
    Returns the number of (pair, site) order violations seen after any sweep
    (0 is the contract). Pads of two shapes, a one-sided bound and
    n_sweeps < 0 raise StructureError.
    """
    if pad_lo.shape != pad_up.shape:
        raise StructureError(f"pads of two shapes, {pad_lo.shape} and {pad_up.shape}")
    B, W, _ = pad_lo.shape
    L = W - 2
    bounds = []
    for name, sides in (("floors", (floors_lo, floors_up)),
                        ("ceilings", (ceilings_lo, ceilings_up))):
        if (sides[0] is None) != (sides[1] is None):
            raise StructureError(f"{name}_lo/{name}_up: give both sides or neither")
        bounds.append(None if sides[0] is None else
                      np.concatenate([np.broadcast_to(b, (B, L, L)) for b in sides]))
    grid = np.concatenate([pad_lo, pad_up]).astype(np.int64, copy=False)
    heights = grid[:, 1:L + 1, 1:L + 1]
    violations = 0
    for _ in _sweeps(grid, params, seed, 0, n_sweeps, "checkerboard", *bounds):
        violations += int((heights[:B] > heights[B:]).sum())
    pad_lo[...] = grid[:B]
    pad_up[...] = grid[B:]
    return violations


def sample_equilibrium(params: ModelParams, L, sweeps, burn_in, thinning, seed,
                       initial=None, scan_order=ChainState.scan_order, on_snapshot=None):
    """Run a chain and emit (sweeps - burn_in) // thinning snapshots.

    The chain sweeps by scan_order, checkerboard unless raster is named.
    Snapshots are taken at sweep counts burn_in + k*thinning, k = 1, 2, ...
    Without an initial configuration the chain starts flat at the integer
    floor (at 0 otherwise) inside the params' boundary ring. Snapshot k
    (from 0) is handed to on_snapshot(k, config), config a SurfaceConfig over
    the chain's live int64 heights that is valid only during the call; by
    default it is kept as an int32 copy with its own boundary dict. Returns
    (on_snapshot's results in order, diagnostics) where diagnostics carries
    the mean-height trace and an autocorrelation estimate of it. An initial
    configuration whose side is not L raises StructureError, and a surface
    or trace over the cell budget ResourceLimitError, before either is built.
    """
    if not (sweeps > burn_in >= 0 and thinning >= 1):
        raise StructureError("need sweeps > burn_in >= 0 and thinning >= 1")
    check_cells((L, L), "the L x L surface")
    check_cells((sweeps, 1), "the mean-height trace")
    if initial is not None and initial.L != L:
        raise StructureError(f"initial configuration of side {initial.L}, not L = {L}")
    if initial is None:
        initial = SurfaceConfig.flat(L, value=_flat_start(params),
                                     boundary=build_boundary(params.boundary_spec, L),
                                     floor=params.floor_spec,
                                     ceiling=params.ceiling_spec)
    if on_snapshot is None:
        def on_snapshot(k, config):
            return SurfaceConfig(L, config.heights.astype(np.int32),
                                 dict(config.boundary), config.floor, config.ceiling)
    state = ChainState(config=initial.copy(), seed=seed, scan_order=scan_order)
    results = []
    mean_trace = np.empty(sweeps)

    def on_sweep(k, heights):
        mean_trace[k - 1] = heights.mean()
        if k > burn_in and (k - burn_in) % thinning == 0:
            live = SurfaceConfig(L, heights, initial.boundary, initial.floor,
                                 initial.ceiling)
            results.append(on_snapshot(len(results), live))

    run_chain(state, params, sweeps, on_sweep=on_sweep)
    from .stats import integrated_autocorr_time
    tau = integrated_autocorr_time(mean_trace[burn_in:]) if sweeps - burn_in >= 8 else float("nan")
    diagnostics = {
        "mean_height_trace": mean_trace,
        "autocorr_time_sweeps": tau,
    }
    return results, diagnostics


def _flat_start(params):
    """Height of a flat start: the floor when it is an integer, 0 otherwise."""
    floor = params.floor_spec
    return int(floor) if isinstance(floor, (int, np.integer)) else 0


def _pair(params, L, boundary, low, top, seed, start, n_sweeps, on_sweep=None):
    """The monotone coupling of two chains, run as the two replicas of one
    checkerboard batch: flat starts low and top (ints or (L, L) grids) inside
    boundary, sweeps start, ..., start + n_sweeps - 1 of seed's stream under
    the params' floor and ceiling. on_sweep, if given, is called after each
    sweep as on_sweep(sweep_count, heights), heights the (2, L, L) interior
    view, [0] the low chain. Returns the (2, L+2, L+2) grid; n_sweeps < 0
    raises StructureError."""
    grid = np.stack([SurfaceConfig.flat(L, v, boundary).padded() for v in (low, top)])
    heights = grid[:, 1:L + 1, 1:L + 1]
    for t in _sweeps(grid, params, seed, start, n_sweeps, "checkerboard",
                     params.floor_spec, params.ceiling_spec):
        if on_sweep is not None:
            on_sweep(t, heights)
    return grid


def sandwich_diagnostic(params: ModelParams, L, sweeps, seed, boundary,
                        high_value):
    """Burn-in validation by a monotone sandwich.

    Couples a chain started flat as sample_equilibrium's (_flat_start) with
    one started flat at high_value, capped at the lowest ceiling; reports
    the per-sweep mean gap and the first sweep at which it is 0 (None if it
    never is). Agreement of the two ends bounds the distance to equilibrium
    for monotone observables. A top start below the bottom one raises
    InvalidConstraintError, and sweeps < 0 StructureError.
    """
    low, top = _flat_start(params), high_value
    if params.ceiling_spec is not None:
        top = min(top, int(np.min(params.ceiling_spec)))
    if top < low:
        raise InvalidConstraintError(f"sandwich top {top} below its bottom {low}")
    gaps = []
    _pair(params, L, boundary, low, top, seed, 0, sweeps,
          lambda t, h: gaps.append((int(h[1].sum()) - int(h[0].sum())) / (L * L)))
    return {"gap_trace": np.asarray(gaps),
            "coalesced_at": next((t + 1 for t, g in enumerate(gaps) if g == 0.0), None)}


_CFTP_DOUBLINGS = 20


def cftp_sample(params: ModelParams, L, seed, boundary):
    """Coupling-from-the-past (Propp & Wilson), only offered when a floor and
    a finite ceiling bound the state space. Attempt T = 1, 2, 4, ... runs
    the pair from the floor and the ceiling through the fixed randomness of
    times -T, ..., -1, stored as sweeps 2^20 - T, ..., 2^20 - 1, and returns
    their common state once they coalesce."""
    if params.floor_spec is None or params.ceiling_spec is None:
        raise InvalidConstraintError("CFTP requires a floor and a finite ceiling")
    for k in range(_CFTP_DOUBLINGS):
        T = 1 << k
        lo, hi = _pair(params, L, boundary, params.floor_spec, params.ceiling_spec,
                       seed, (1 << _CFTP_DOUBLINGS) - T, T)[:, 1:L + 1, 1:L + 1]
        if np.array_equal(lo, hi):
            return SurfaceConfig(L, lo.astype(np.int32), boundary,
                                 params.floor_spec, params.ceiling_spec)
    raise InvalidConstraintError(f"CFTP did not coalesce within 2^{_CFTP_DOUBLINGS} sweeps")
