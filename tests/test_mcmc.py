import math
import tempfile

import numpy as np
import pytest

from oracles import box_center_marginal_exact, gibbs_2x2_exact
from zgff import mcmc
from zgff.errors import InvalidConstraintError, StructureError
from zgff.mcmc import (ChainState, UniformStream, cftp_sample, coupled_batch_run,
                       run_chain, sample_equilibrium, sandwich_diagnostic)
from zgff.surface import (ModelParams, SurfaceConfig, build_boundary,
                          local_conditional)


def test_uniform_stream_deterministic_and_chain_keyed():
    u1 = UniformStream(9, 8).sweep(17)
    u2 = UniformStream(9, 8).sweep(17)
    assert np.array_equal(u1, u2)
    assert not np.array_equal(u1, UniformStream(9, 8).sweep(18))


def test_detailed_balance_of_conditional():
    # heat bath proposes from the conditional independently of the current
    # value, so detailed balance reduces to prob ratios matching the Gibbs
    # weights at fixed neighbors
    params = ModelParams(p=2, beta=0.9)
    nb = (1, 0, 2, 0)
    d = local_conditional(nb, None, None, params)

    def e(k):
        return sum(abs(k - v) ** 2 for v in nb)

    for a, b in [(0, 1), (1, 2), (-1, 3), (0, 2)]:
        assert d.prob(a) * d.prob(b) / (d.prob(b) * d.prob(a)) == 1.0
        assert d.prob(b) / d.prob(a) == pytest.approx(
            math.exp(-params.beta * (e(b) - e(a))), rel=1e-10)


def test_singleton_support_sweep_is_identity():
    params = ModelParams(p=2, beta=1, floor_spec=0, ceiling_spec=0)
    cfg = SurfaceConfig.flat(3, floor=0, ceiling=0)
    st = ChainState(config=cfg, seed=1)
    run_chain(st, params, 1)
    assert np.array_equal(st.config.heights, np.zeros((3, 3), dtype=np.int32))


def test_replay_bit_exact():
    params = ModelParams(p=2, beta=1.2, floor_spec=0)
    a = ChainState(config=SurfaceConfig.flat(4, floor=0), seed=42)
    b = ChainState(config=SurfaceConfig.flat(4, floor=0), seed=42)
    run_chain(a, params, 137)
    run_chain(b, params, 137)
    assert np.array_equal(a.config.heights, b.config.heights)
    # one-sweep-at-a-time replay crosses uniform-block boundaries identically
    c = ChainState(config=SurfaceConfig.flat(4, floor=0), seed=42)
    for _ in range(137):
        run_chain(c, params, 1)
    assert np.array_equal(a.config.heights, c.config.heights)


def test_gibbs_exactness_2x2_short():
    # short version of the acceptance criterion (full 1e6 sweeps there)
    params = ModelParams(p=2, beta=1, floor_spec=0, ceiling_spec=2)
    exact = gibbs_2x2_exact(1.0, 2, 0, 2)
    counts = {}

    def on_sweep(k, heights):
        key = (int(heights[0, 0]), int(heights[1, 0]), int(heights[0, 1]),
               int(heights[1, 1]))
        counts[key] = counts.get(key, 0) + 1

    st = ChainState(config=SurfaceConfig.flat(2, floor=0, ceiling=2), seed=7)
    run_chain(st, params, 200_000, on_sweep=on_sweep)
    n = sum(counts.values())
    tv = 0.5 * sum(abs(counts.get((s[0], s[2], s[1], s[3]), 0) / n - pr)
                   for s, pr in exact.items())
    assert tv < 0.03


def test_conditional_cdf_dominance():
    # stochastic dominance of conditionals under raised neighbors/bounds: the
    # oracle behind order preservation
    rng = np.random.default_rng(3)
    params = ModelParams(p=2, beta=0.8)
    for _ in range(200):
        nb_lo = rng.integers(-2, 3, size=4)
        lift = rng.integers(0, 3, size=4)
        d_lo = local_conditional(tuple(nb_lo), None, None, params)
        d_up = local_conditional(tuple(nb_lo + lift), None, None, params)
        lo_k = min(d_lo.support[0], d_up.support[0])
        hi_k = max(d_lo.support[-1], d_up.support[-1])
        c_lo = c_up = 0.0
        for k in range(lo_k, hi_k + 1):
            c_lo += d_lo.prob(k)
            c_up += d_up.prob(k)
            assert c_up <= c_lo + 1e-12


def test_ceiling_raised_dominance():
    params = ModelParams(p=2, beta=0.8)
    d_lo = local_conditional((0, 0, 1, 1), 0, 2, params)
    d_up = local_conditional((0, 0, 1, 1), 0, 3, params)
    c_lo = c_up = 0.0
    for k in range(0, 4):
        c_lo += d_lo.prob(k)
        c_up += d_up.prob(k)
        assert c_up <= c_lo + 1e-12


def test_coupled_batch_matches_scalar_contract():
    rng = np.random.default_rng(23)
    params = ModelParams(p=2, beta=1.5)
    B, L = 64, 3
    pad_lo = np.zeros((B, L + 2, L + 2), dtype=np.int64)
    pad_up = np.zeros((B, L + 2, L + 2), dtype=np.int64)
    pad_lo[:, 1:L + 1, 1:L + 1] = rng.integers(-2, 2, size=(B, L, L))
    pad_up[:, 1:L + 1, 1:L + 1] = pad_lo[:, 1:L + 1, 1:L + 1] + rng.integers(0, 3, size=(B, L, L))
    violations = coupled_batch_run(pad_lo, pad_up, params, seed=9, n_sweeps=30)
    assert violations == 0
    # a grid of ring only (L = 0) is refused before the compiled sweep
    ring_only = np.zeros((B, 2, 2), dtype=np.int64)
    with pytest.raises(StructureError):
        coupled_batch_run(ring_only, ring_only.copy(), params, seed=9, n_sweeps=1)


def test_raising_floor_raises_field():
    params_lo = ModelParams(p=2, beta=1.0, floor_spec=0)
    params_up = ModelParams(p=2, beta=1.0, floor_spec=1)
    lo = ChainState(config=SurfaceConfig.flat(3, value=0, floor=0), seed=77)
    up = ChainState(config=SurfaceConfig.flat(3, value=1, floor=1), seed=77)
    # shared randomness, per-chain conditionals honoring each floor
    us = UniformStream(77, 9)
    for sweep in range(30):
        ulist = us.sweep(sweep).tolist()
        for (x, y) in [(x, y) for y in range(3) for x in range(3)]:
            for st_, prm in ((lo, params_lo), (up, params_up)):
                nb = st_.config.neighbor_heights(x, y)
                d = local_conditional(nb, st_.config.floor_at(x, y), None, prm)
                st_.config.heights[x, y] = d.quantile(ulist[y * 3 + x])
        assert np.all(lo.config.heights <= up.config.heights)


def test_sample_equilibrium_schedule():
    params = ModelParams(p=2, beta=1.5)
    snaps, diag = sample_equilibrium(params, 8, 10_000, 100, 100, seed=3)
    assert len(snaps) == 99
    assert diag["autocorr_time_sweeps"] > 0


def test_two_seeds_consistent_means():
    params = ModelParams(p=2, beta=1.0, floor_spec=0)
    means = []
    ses = []
    for seed in (1, 2):
        snaps, _ = sample_equilibrium(params, 8, 3000, 500, 5, seed=seed)
        vals = np.array([s.heights.mean() for s in snaps])
        from zgff.stats import batch_means_ci
        m, half = batch_means_ci(vals)
        means.append(m)
        ses.append(half / 1.96)
    z = abs(means[0] - means[1]) / math.hypot(*ses)
    assert z < 2.58  # two-sample test not rejecting at 1%


def test_large_beta_rigidity():
    # beta = 10, zero boundary, no floor: the surface is rigid
    params = ModelParams(p=2, beta=10.0)
    snaps, _ = sample_equilibrium(params, 8, 400, 100, 10, seed=4)
    frac = np.mean([np.mean(s.heights != 0) for s in snaps])
    assert frac < 0.01


def test_checkerboard_scan_consistent_with_raster():
    params = ModelParams(p=2, beta=1.0, floor_spec=0)
    snaps_r, _ = sample_equilibrium(params, 8, 2500, 500, 5, seed=5,
                                    scan_order="raster")
    snaps_c, _ = sample_equilibrium(params, 8, 2500, 500, 5, seed=6,
                                    scan_order="checkerboard")
    from zgff.stats import batch_means_ci
    mr, hr = batch_means_ci(np.array([s.heights.mean() for s in snaps_r]))
    mc, hc = batch_means_ci(np.array([s.heights.mean() for s in snaps_c]))
    z = abs(mr - mc) / math.hypot(hr / 1.96, hc / 1.96)
    assert z < 3.3


def test_sandwich_diagnostic_contracts():
    params = ModelParams(p=2, beta=1.5, floor_spec=0)
    rep = sandwich_diagnostic(params, 4, 300, seed=12,
                              boundary=build_boundary(("all", 0), 4),
                              high_value=4)
    gaps = rep["gap_trace"]
    assert gaps[0] > 0
    assert gaps[-50:].mean() < 0.05 * gaps[0]


def test_sandwich_top_below_the_floor_is_refused():
    # the top start (high_value, capped at the ceiling) below the bottom one
    # (the floor) could not bound the pair from above
    boundary = build_boundary(("all", 0), 3)
    for floor, ceiling, high in ((2, None, 1), (0, 3, -1), (1, 5, 0)):
        params = ModelParams(p=2, beta=1.0, floor_spec=floor, ceiling_spec=ceiling)
        with pytest.raises(InvalidConstraintError):
            sandwich_diagnostic(params, 3, 10, seed=1, boundary=boundary,
                                high_value=high)


def test_cftp_requires_ceiling_and_matches_gibbs():
    params = ModelParams(p=2, beta=1.0, floor_spec=0)
    with pytest.raises(InvalidConstraintError):
        cftp_sample(params, 2, seed=1, boundary=build_boundary(("all", 0), 2))
    params = ModelParams(p=2, beta=1.0, floor_spec=0, ceiling_spec=2)
    exact = gibbs_2x2_exact(1.0, 2, 0, 2)
    boundary = build_boundary(("all", 0), 2)
    counts = {}
    n = 400
    for seed in range(n):
        cfg = cftp_sample(params, 2, seed=seed, boundary=boundary)
        key = (int(cfg.heights[0, 0]), int(cfg.heights[1, 0]),
               int(cfg.heights[0, 1]), int(cfg.heights[1, 1]))
        counts[key] = counts.get(key, 0) + 1
    tv = 0.5 * sum(abs(counts.get(s, 0) / n - pr) for s, pr in exact.items())
    assert tv < 0.12  # perfect samples, TV ~ sqrt(81/n) noise


def test_checkpoint_roundtrip():
    # a ChainState is its own checkpoint: it carries everything a chain needs
    # to resume, so 10 + 10 sweeps on one state equal 20 sweeps on a fresh one
    params = ModelParams(p=2, beta=1.1, floor_spec=0)
    a = ChainState(config=SurfaceConfig.flat(4, floor=0), seed=21)
    run_chain(a, params, 10)
    run_chain(a, params, 10)
    b = ChainState(config=SurfaceConfig.flat(4, floor=0), seed=21)
    run_chain(b, params, 20)
    assert a.sweep_count == b.sweep_count == 20
    assert np.array_equal(a.config.heights, b.config.heights)


def test_sweeps_burnin_validation():
    with pytest.raises(StructureError):
        sample_equilibrium(ModelParams(), 4, 10, 10, 1, seed=0)
    with pytest.raises(StructureError):
        sample_equilibrium(ModelParams(), 4, 20, 10, 1, seed=0,
                           scan_order="random-permutation")
    for thinning in (0, -1):
        with pytest.raises(StructureError):
            sample_equilibrium(ModelParams(), 4, 5, 1, thinning, seed=0)
    state = ChainState(config=SurfaceConfig.flat(4), seed=0)
    with pytest.raises(StructureError):
        run_chain(state, ModelParams(), -3)
    run_chain(state, ModelParams(), 0)  # zero sweeps stay legal
    assert state.sweep_count == 0
    # the same rule on the coupled batch and the sandwich
    params = ModelParams(p=2, beta=1.0, floor_spec=0)
    pad = np.zeros((1, 4, 4), dtype=np.int64)
    with pytest.raises(StructureError):
        coupled_batch_run(pad, pad.copy(), params, 1, -1)
    with pytest.raises(StructureError):
        sandwich_diagnostic(params, 3, -2, seed=1,
                            boundary=build_boundary(("all", 0), 3), high_value=2)
    assert coupled_batch_run(pad, pad.copy(), params, 1, 0) == 0


def test_sample_equilibrium_refuses_an_initial_of_another_side():
    # an initial of side 4 under L = 8 would label (4, 4) heights as L = 8
    params = ModelParams(p=2, beta=1, floor_spec=0)
    with pytest.raises(StructureError, match="side 4"):
        sample_equilibrium(params, 8, 6, 2, 2, 1,
                           initial=SurfaceConfig.flat(4, floor=0))


def test_coupled_batch_refuses_pads_of_two_shapes_and_one_sided_bounds():
    # the two sides run as one 2B batch under one bound kind, so pads of two
    # shapes and a bound given on one side only are refused before sweeping
    params = ModelParams(p=2, beta=1.0)
    pad_lo = np.zeros((2, 5, 5), dtype=np.int64)
    with pytest.raises(StructureError):
        coupled_batch_run(pad_lo, np.ones((3, 5, 5), dtype=np.int64), params, 1, 1)
    for side, pair in (({"floors_lo": 0}, "floors"),
                       ({"floors_up": np.zeros((3, 3))}, "floors"),
                       ({"ceilings_lo": 2}, "ceilings"),
                       ({"floors_lo": 0, "floors_up": 0, "ceilings_up": 2}, "ceilings")):
        pad_up = pad_lo + 1
        with pytest.raises(StructureError, match=f"{pair}_lo/{pair}_up"):
            coupled_batch_run(pad_lo, pad_up, params, 1, 1, **side)
        assert not pad_lo.any() and (pad_up == 1).all()


def _reference_sweep(cfg, params, u, scan):
    """Scalar sweep drawn by local_conditional(...).quantile(u): row-major for
    raster; for checkerboard, every site of the even colour, then every site
    of the odd one."""
    L = cfg.L
    order = [(x, y) for y in range(L) for x in range(L)]
    if scan == "checkerboard":
        order.sort(key=lambda s: (s[0] + s[1]) % 2)
    for x, y in order:
        d = local_conditional(cfg.neighbor_heights(x, y), cfg.floor_at(x, y),
                              cfg.ceiling_at(x, y), params)
        cfg.heights[x, y] = d.quantile(u[y * L + x])


def _kernel_cases(rng, L):
    """12x12 states for the draw-for-draw checks: scalar and per-site bounds,
    rings far below the floor, no bounds, and neighbour gaps of order 10^6
    under tight per-site bounds."""
    ring0 = build_boundary(("all", 0), L)
    ring = {s: int(rng.integers(-3, 4)) for s in ring0}
    f = rng.integers(-3, 2, size=(L, L)).astype(np.int32)
    c = (f + rng.integers(0, 4, size=(L, L))).astype(np.int32)
    between = (f + rng.random((L, L)) * (c - f + 1)).astype(np.int32)
    big = rng.integers(-10 ** 6, 10 ** 6, size=(L, L)).astype(np.int32)
    return {
        "scalar floor": SurfaceConfig(
            L, rng.integers(0, 5, size=(L, L)).astype(np.int32), ring0, floor=0),
        "array floor and ceiling": SurfaceConfig(L, between, ring, floor=f, ceiling=c),
        "ring far below scalar bounds": SurfaceConfig(
            L, rng.integers(0, 4, size=(L, L)).astype(np.int32),
            {s: -60 for s in ring0}, floor=0, ceiling=3),
        "ring far below array floor": SurfaceConfig(
            L, (f + 2).astype(np.int32),
            {s: int(rng.integers(-90, -40)) for s in ring0}, floor=f + 2),
        "unbounded": SurfaceConfig(
            L, rng.integers(-4, 5, size=(L, L)).astype(np.int32), ring),
        "huge gaps, tight bounds": SurfaceConfig(L, big, ring0, floor=big - 1,
                                                 ceiling=big + 1),
    }


@pytest.mark.parametrize("beta", [0.8, 2.5])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_checkerboard_kernel_matches_scalar_draws(p, beta):
    # both scans through run_chain's compiled sweep, every box of the cases,
    # on odd sides and the one-site box as well as on an even side
    params = ModelParams(p=p, beta=beta)
    seed = 31
    for L in (1, 2, 3, 12):
        for scan in ("raster", "checkerboard"):
            cases = _kernel_cases(np.random.default_rng(int(10 * p + beta)), L)
            for name, cfg in cases.items():
                ref = cfg.copy()
                state = ChainState(config=cfg, seed=seed, scan_order=scan)
                us = UniformStream(seed, L * L)
                for t in range(3):
                    run_chain(state, params, 1)
                    _reference_sweep(ref, params, us.sweep(t), scan)
                    assert np.array_equal(cfg.heights, ref.heights), (L, name, scan, t)


def _scan(L, colours):
    """The (colour, x, y) of one grid's sites in the order a sweep of the
    given colour count (2 checkerboard, 1 raster) visits them."""
    return [(c, x, y) for c in range(colours) for x in range(L)
            for y in range((x + c) % colours, L, colours)]


@pytest.mark.parametrize("L", range(1, 10))
def test_sweep_visits_every_site_once_in_scan_order(L):
    # every site of two grids pinned (floor = ceiling) at its own height, so
    # a fresh p = 1.5 kernel meets a new key at each site and the routine
    # stops there once: the stops are its visiting order, grid by grid, and
    # within a grid the even colour row by row, then the odd one (raster:
    # row-major), each stop encoded ((grid * colours + c) * L + x) * L + y
    B = 2
    pads = np.random.default_rng(L).choice(10 ** 6, size=(B, L + 2, L + 2),
                                           replace=False).astype(np.int64)
    pinned = pads[:, 1:L + 1, 1:L + 1]
    call = mcmc._library().zgff_sweep
    u = np.full(L * L, 0.5)
    for scan, colours in (("raster", 1), ("checkerboard", 2)):
        flat = pads.reshape(-1).copy()
        kernel = mcmc._Kernel(ModelParams(p=1.5, beta=1.0))
        sweep = mcmc._Sweep(kernel, flat, L, B, scan, pinned, pinned)
        pos, stops = 0, []
        while (pos := call(sweep.ctx.ctypes.data, u.ctypes.data, pos)) >= 0:
            stops.append(pos)
            kernel.add_missing()
        order = _scan(L, colours)
        assert stops == [((b * colours + c) * L + x) * L + y for b in range(B)
                         for c, x, y in order], scan
        assert np.array_equal(flat, pads.reshape(-1))
        # that order covers the box once; a checkerboard colour is x + y mod 2
        assert sorted((x, y) for _, x, y in order) == [(x, y) for x in range(L)
                                                       for y in range(L)]
        assert all((x + y) % colours == c for c, x, y in order)


def _batch_reference(pad, floors, ceilings, params, seed, n_sweeps, start=0):
    """_reference_sweep's checkerboard sweeps start, ..., start + n_sweeps - 1
    of every replica of pad, in place, with the shared uniforms; a replica's
    floors or ceilings may be None."""
    L = pad.shape[1] - 2
    ring = build_boundary(("all", 0), L)
    cfgs = [SurfaceConfig(L, g[1:L + 1, 1:L + 1],
                          {(x, y): int(g[x + 1, y + 1]) for x, y in ring}, f, c)
            for g, f, c in zip(pad, floors, ceilings)]
    us = UniformStream(seed, L * L)
    for t in range(start, start + n_sweeps):
        for cfg in cfgs:
            _reference_sweep(cfg, params, us.sweep(t), "checkerboard")


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_coupled_batch_matches_scalar_checkerboard_draws(p):
    rng = np.random.default_rng(41)
    params = ModelParams(p=p, beta=1.5)
    B, L, seed, sweeps = 40, 3, 17, 4
    pad_lo = rng.integers(-3, 2, size=(B, L + 2, L + 2))
    pad_up = pad_lo + rng.integers(0, 3, size=(B, L + 2, L + 2))
    inner = np.s_[:, 1:L + 1, 1:L + 1]
    f_lo = pad_lo[inner] - rng.integers(0, 3, size=(B, L, L))
    f_up = np.minimum(f_lo + rng.integers(0, 3, size=(B, L, L)), pad_up[inner])
    c_up = pad_up[inner] + rng.integers(1, 4, size=(B, L, L))
    c_lo = np.maximum(c_up - rng.integers(0, 3, size=(B, L, L)), pad_lo[inner])
    ref_lo, ref_up = pad_lo.copy(), pad_up.copy()
    violations = coupled_batch_run(pad_lo, pad_up, params, seed, sweeps,
                                   floors_lo=f_lo, floors_up=f_up,
                                   ceilings_lo=c_lo, ceilings_up=c_up)
    _batch_reference(ref_lo, f_lo, c_lo, params, seed, sweeps)
    _batch_reference(ref_up, f_up, c_up, params, seed, sweeps)
    assert violations == 0
    assert np.array_equal(pad_lo, ref_lo)
    assert np.array_equal(pad_up, ref_up)


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_sandwich_and_cftp_match_batch_reference(p):
    # the coupled pair stacked as a 2-replica batch through the scalar
    # reference: the same gap trace, coalescence sweep and CFTP state
    L, seed, sweeps = 3, 8, 25
    boundary = build_boundary(("all", 0), L)
    inner = np.s_[1:L + 1, 1:L + 1]

    def pair(low, top):
        return np.stack([SurfaceConfig.flat(L, value=v, boundary=boundary).padded()
                         for v in (low, top)])

    for floor, ceiling, high in ((0, None, 4), (0, 3, 5), (-1, 2, 2)):
        params = ModelParams(p=p, beta=1.0, floor_spec=floor, ceiling_spec=ceiling)
        floors = [np.full((L, L), floor)] * 2
        ceilings = [None if ceiling is None else np.full((L, L), ceiling)] * 2
        rep = sandwich_diagnostic(params, L, sweeps, seed, boundary, high)
        pad = pair(floor, high if ceiling is None else min(high, ceiling))
        gaps = []
        for t in range(sweeps):
            _batch_reference(pad, floors, ceilings, params, seed, 1, start=t)
            gaps.append(float((pad[1][inner] - pad[0][inner]).mean()))
        assert rep["gap_trace"].tolist() == gaps, (floor, ceiling)
        assert rep["coalesced_at"] == next(
            (t + 1 for t, g in enumerate(gaps) if g == 0.0), None)
        if ceiling is None:
            continue
        T = 1
        while True:
            pad = pair(floor, ceiling)
            _batch_reference(pad, floors, ceilings, params, seed, T, start=(1 << 20) - T)
            if np.array_equal(pad[0], pad[1]):
                break
            T *= 2
        got = cftp_sample(params, L, seed, boundary)
        assert np.array_equal(got.heights, pad[0][inner]), (floor, ceiling, T)


@pytest.mark.parametrize("scan", ["raster", "checkerboard"])
def test_on_sweep_heights_equal_config_after_that_many_sweeps(scan):
    params = ModelParams(p=2, beta=1.0, floor_spec=0)
    seen = []

    def on_sweep(k, heights):
        assert heights.shape == (5, 5) and heights.dtype == np.int64
        seen.append((k, heights.copy()))

    run_chain(ChainState(config=SurfaceConfig.flat(5, value=2, floor=0), seed=3,
                         scan_order=scan), params, 6, on_sweep=on_sweep)
    step = ChainState(config=SurfaceConfig.flat(5, value=2, floor=0), seed=3,
                      scan_order=scan)
    assert [k for k, _ in seen] == list(range(1, 7))
    for k, heights in seen:
        run_chain(step, params, 1)
        assert np.array_equal(step.config.heights, heights), k


def test_kernel_rejects_floor_above_ceiling():
    params = ModelParams(p=2, beta=1.0)
    floor = np.zeros((4, 4), dtype=np.int32)
    floor[1, 2] = 3
    cfg = SurfaceConfig.flat(4, floor=floor, ceiling=2)
    with pytest.raises(InvalidConstraintError):
        run_chain(ChainState(config=cfg, seed=1, scan_order="checkerboard"),
                  params, 1)


def test_checkerboard_centre_marginal_matches_exact_3x3():
    # the 3x3 centre-marginal oracle on the checkerboard path, the scan of
    # every chain the package starts
    params = ModelParams(p=2, beta=1.0)
    exact = box_center_marginal_exact(3, 1.0, 2.0, M=2)
    state = ChainState(config=SurfaceConfig.flat(3), seed=4,
                       scan_order="checkerboard")
    run_chain(state, params, 50)
    counts = {}

    def on_sweep(k, heights):
        h = int(heights[1, 1])
        counts[h] = counts.get(h, 0) + 1

    n = 30_000
    run_chain(state, params, n, on_sweep=on_sweep)
    tv = 0.5 * sum(abs(counts.get(h, 0) / n - pr) for h, pr in exact.items())
    tv += 0.5 * sum(c / n for h, c in counts.items() if h not in exact)
    assert tv < 0.02


def _one_site_draws(kernel, nb, u, lo, hi):
    """The compiled sweep of one L = 1 grid with neighbours nb, called once
    with each uniform of u; returns the draws."""
    flat = np.zeros(9, dtype=np.int64)
    flat[[1, 7, 3, 5]] = nb   # the centre's -W, +W, -1 and +1 neighbours
    sweep = mcmc._Sweep(kernel, flat, 1, 1, "raster", lo, hi)
    draws = []
    for j in range(len(u)):
        sweep(u.ctypes.data + 8 * j)
        draws.append(int(flat[4]))
    return draws


@pytest.mark.parametrize("beta", [0.8, 2.5])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_kernel_quantiles_match_scalar_on_a_uniform_grid(p, beta):
    # one site across a batch of identical replicas, each with its own
    # uniform: the kernel's inverse CDF against local_conditional's at 1000
    # evenly spread uniforms, so any law difference above 1e-3 shows. The
    # grid is offset by an irrational so no uniform sits on a CDF value
    # (0.5 is one for symmetric laws), where last-bit rounding differences
    # of the two tables would decide the draw
    params = ModelParams(p=p, beta=beta)
    kernel = mcmc._Kernel(params)
    rng = np.random.default_rng(int(100 * p + 10 * beta))
    B = 1000
    u = (np.arange(B) + 2 ** -0.5) / B
    for _ in range(60):
        nb = [int(v) for v in rng.integers(-6, 7, size=4)]
        lo = None if rng.random() < 0.3 else int(rng.integers(-12, 6))
        hi = None if rng.random() < 0.3 else int(rng.integers(-6 if lo is None else lo, 12))
        d = local_conditional(nb, lo, hi, params)
        assert _one_site_draws(kernel, nb, u, lo, hi) == [d.quantile(x) for x in u], (
            nb, lo, hi)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_uniform_on_a_cdf_value_draws_the_next_support_point(p):
    # neighbours already in the kernel's normal form (lowest 0; for p = 2
    # (0, 0, 0, r) with r < 4) share their conditional_tables row with the
    # kernel, so u equal to a CDF entry must draw as bisect_right does: past it
    params = ModelParams(p=p, beta=0.7)
    kernel = mcmc._Kernel(params)
    for nb, lo, hi in [((0, 0, 0, 1), None, None), ((0, 0, 1, 2), -1, None),
                       ((0, 0, 0, 3), None, 2), ((0, 0, 0, 0), -2, 3)]:
        if p != 2 or nb[:3] == (0, 0, 0):
            d = local_conditional(nb, lo, hi, params)
            u = np.array(d.cdf[:-1])
            assert _one_site_draws(kernel, nb, u, lo, hi) == d.support[1:], (nb, lo, hi)


def test_uniform_streams_share_blocks_without_mixing_them():
    # each sweep reads the Philox block of its own (seed, block id), whatever
    # the stream read before it
    def reference(seed, n, t):
        block_sweeps = max(1, (1 << 16) // n)
        g, r = divmod(t, block_sweeps)
        gen = np.random.Generator(np.random.Philox(
            key=np.array([seed, 0], dtype=np.uint64),
            counter=np.array([0, 0, 0, g], dtype=np.uint64)))
        return gen.random(block_sweeps * n)[r * n:(r + 1) * n]

    reads = [(5, 16, 0), (5, 16, 4096), (5, 16, 1), (5, 16, 2), (5, 16, 4097),
             (5, 9, 3), (6, 16, 4098), (6, 16, 4099)]
    us = UniformStream(5, 16)
    for seed, n, t in reads:
        u = UniformStream(seed, n).sweep(t)
        assert np.array_equal(u, reference(seed, n, t)), (seed, n, t)
        if (seed, n) == (5, 16):
            assert np.array_equal(us.sweep(t), u), t


def test_uniform_stream_refills_one_buffer_past_the_block_target():
    # a stream generates every block into the buffer it was made with: one
    # sweep per block past _BLOCK_TARGET, 4096 sweeps of 16 below it
    for n, sweeps in ((mcmc._BLOCK_TARGET + 7, (0, 1, 2, 5, 3)),
                      (16, (0, 4096, 1, 8192, 4097, 3))):
        us = UniformStream(8, n)
        assert us.block_sweeps == max(1, mcmc._BLOCK_TARGET // n)
        address = us.address(0)
        for t in sweeps:
            u = us.sweep(t)
            assert us.address(t) == address + 8 * n * (t % us.block_sweeps)
            assert np.array_equal(u, UniformStream(8, n).sweep(t)), (n, t)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_kernel_table_widens_mid_run(p):
    # rows wider than the whole table arrive after narrow ones, so the table
    # grows to the next power of two between updates; the first key, drawn
    # again last, reads its row from the widened table
    params = ModelParams(p=p, beta=0.3)
    kernel = mcmc._Kernel(params)
    B = 1000
    u = (np.arange(B) + 2 ** -0.5) / B
    cases = [((0, 0, 0, 0), 0, 1), ((0, 0, 0, 1), None, None),
             ((0, 0, 40, 40), None, None), ((0, 0, 0, 0), 0, 1)]
    widths = []
    for nb, lo, hi in cases:
        d = local_conditional(nb, lo, hi, params)
        widths.append((kernel.cdf.shape[1], len(d.probs)))
        assert _one_site_draws(kernel, nb, u, lo, hi) == [d.quantile(x) for x in u], (
            nb, lo, hi)
        width = kernel.cdf.shape[1]
        assert width & (width - 1) == 0
    # the second row is wider than the table before it, and so for p != 2 is
    # the third (p = 2 keys that one as the unbounded row of (0, 0, 0, 0))
    assert widths[1][1] > widths[1][0] > 1
    assert p == 2 or widths[2][1] > widths[2][0]


def _site_by_site(flat, L, floor, u, params, sites):
    """Draw the given (x, y) sites of a padded grid (flat) in turn, each from
    local_conditional under its floor (an (L, L) array) with the uniform
    y*L + x (the reference for the compiled sweep)."""
    W = L + 2
    for x, y in sites:
        i = (x + 1) * W + y + 1
        nb = [int(flat[i + o]) for o in (-W, W, -1, 1)]
        flat[i] = local_conditional(nb, int(floor[x, y]), None,
                                    params).quantile(u[y * L + x])


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_sweep_resumes_at_the_site_of_a_missing_row(p):
    # a fresh kernel stops the checkerboard sweep at every new key: the
    # sites before the stop are drawn, the rest untouched, and the call
    # after add_missing resumes at that site, mid-row and in the odd colour
    # as well as at the start
    params = ModelParams(p=p, beta=1.0)
    L, seed = 8, 5
    rng = np.random.default_rng(3)
    floor = rng.integers(-2, 1, size=(L, L))
    cfg = SurfaceConfig(L, (floor + rng.integers(0, 4, size=(L, L))).astype(np.int32),
                        {s: int(rng.integers(-3, 4)) for s in build_boundary(("all", 0), L)},
                        floor=floor)
    flat = cfg.padded().reshape(-1)
    kernel = mcmc._Kernel(params)
    sweep = mcmc._Sweep(kernel, flat, L, 1, "checkerboard", cfg.floor, None)
    order = _scan(L, 2)
    index = {(c * L + x) * L + y: j for j, (c, x, y) in enumerate(order)}
    u = UniformStream(seed, L * L).sweep(0)
    ref = flat.copy()
    call = mcmc._library().zgff_sweep
    pos, stops = 0, []
    while True:
        stop = call(sweep.ctx.ctypes.data, u.ctypes.data, pos)
        end = len(order) if stop < 0 else index[stop]
        _site_by_site(ref, L, floor, u, params,
                      [(x, y) for _, x, y in order[index[pos]:end]])
        assert np.array_equal(flat, ref), (pos, stop)
        if stop < 0:
            break
        assert index[stop] > index[pos] or stop == pos == 0
        stops.append(order[index[stop]])
        kernel.add_missing()
        pos = stop
    assert stops[0] == (0, 0, 0)
    assert any(y > (x + c) % 2 for c, x, y in stops)
    assert any(c == 1 for c, _, _ in stops)


def test_general_key_table_grows_past_half_load_mid_sweep():
    # p = 1.5 keys on neighbour gaps and bound offsets: a rough surface
    # brings far more keys than half of the 64-slot table, which doubles
    # while the sweep runs; every filed key is still found afterwards
    params = ModelParams(p=1.5, beta=0.6)
    L, seed = 12, 2
    rng = np.random.default_rng(8)
    cfg = SurfaceConfig(L, rng.integers(-15, 16, size=(L, L)).astype(np.int32),
                        {s: int(rng.integers(-15, 16)) for s in build_boundary(("all", 0), L)})
    kernel = mcmc._Kernel(params)
    assert len(kernel.lookup) == 64
    ref = cfg.copy()
    flat = cfg.padded().reshape(-1)
    start = flat.copy()
    u = UniformStream(seed, L * L).sweep(0)
    mcmc._Sweep(kernel, flat, L, 1, "raster", None, None)(u.ctypes.data)
    _reference_sweep(ref, params, u, "raster")
    assert np.array_equal(flat.reshape(L + 2, L + 2)[1:L + 1, 1:L + 1], ref.heights)
    assert kernel.n_rows > 32 and len(kernel.lookup) >= 2 * kernel.n_rows
    filed = kernel.n_rows
    mcmc._Sweep(kernel, start, L, 1, "raster", None, None)(u.ctypes.data)
    assert kernel.n_rows == filed
    assert np.array_equal(start, flat)


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_coupled_batch_replicas_match_single_chains(p):
    # B > 1 replicas with bounds shared by every replica (an (L, L) floor, a
    # scalar ceiling): each replica's grid is the chain run_chain
    # draws on it alone with the same seed
    params = ModelParams(p=p, beta=1.2)
    B, L, seed, sweeps = 3, 5, 13, 6
    rng = np.random.default_rng(21)
    floor = rng.integers(-2, 1, size=(L, L))
    pad_lo = np.zeros((B, L + 2, L + 2), dtype=np.int64)
    pad_lo[:, 1:L + 1, 1:L + 1] = floor + rng.integers(0, 2, size=(B, L, L))
    pad_up = pad_lo + 1
    ring = list(build_boundary(("all", 0), L))
    out_lo, out_up = pad_lo.copy(), pad_up.copy()
    violations = coupled_batch_run(out_lo, out_up, params, seed, sweeps,
                                   floors_lo=floor, floors_up=floor,
                                   ceilings_lo=3, ceilings_up=4)
    assert violations == 0
    for pads, outs, ceiling in ((pad_lo, out_lo, 3), (pad_up, out_up, 4)):
        for b in range(B):
            boundary = {(x, y): int(pads[b, x + 1, y + 1]) for x, y in ring}
            cfg = SurfaceConfig(L, pads[b, 1:L + 1, 1:L + 1].astype(np.int32),
                                boundary, floor=floor, ceiling=ceiling)
            run_chain(ChainState(config=cfg, seed=seed), params, sweeps)
            assert np.array_equal(outs[b, 1:L + 1, 1:L + 1], cfg.heights), (b, ceiling)


def _fresh_library(monkeypatch, cache):
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.setattr(mcmc, "_LIB", None)


def test_second_chain_reuses_the_built_library(tmp_path, monkeypatch):
    _fresh_library(monkeypatch, tmp_path)
    params = ModelParams(p=2, beta=1.0)
    state = ChainState(config=SurfaceConfig.flat(4), seed=1)
    run_chain(state, params, 2)
    built = {f: f.stat().st_mtime_ns for f in tmp_path.rglob("*") if f.is_file()}
    assert [f.parent.name for f in built] == ["zgff"]
    assert next(iter(built)).suffix == ".so"
    run_chain(state, params, 2)
    # a new process finds the library in the cache instead of building it
    monkeypatch.setattr(mcmc, "_LIB", None)
    run_chain(state, params, 2)
    assert {f: f.stat().st_mtime_ns for f in tmp_path.rglob("*") if f.is_file()} == built


def test_unwritable_cache_builds_into_a_temporary_directory(tmp_path, monkeypatch):
    # a regular file where the cache directory should be: the library is
    # built into a zgff-* temporary directory, loaded from there, and the
    # directory removed, also when the build fails
    from zgff.errors import BuildError
    (tmp_path / "cache").write_text("")
    _fresh_library(monkeypatch, tmp_path / "cache")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    state = ChainState(config=SurfaceConfig.flat(3), seed=2)
    run_chain(state, ModelParams(p=2, beta=1.0), 2)
    assert state.sweep_count == 2
    loaded = mcmc._LIB._name
    assert loaded.startswith(str(tmp_path / "zgff-")) and loaded.endswith(".so")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cache"]
    monkeypatch.setattr(mcmc, "_LIB", None)
    monkeypatch.setenv("PATH", "")
    with pytest.raises(BuildError):
        run_chain(state, ModelParams(p=2, beta=1.0), 1)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cache"]


def test_missing_compiler_raises_build_error(tmp_path, monkeypatch):
    from zgff.cli import main
    from zgff.errors import BuildError
    _fresh_library(monkeypatch, tmp_path / "cache")
    monkeypatch.setenv("PATH", "")
    state = ChainState(config=SurfaceConfig.flat(4), seed=1)
    with pytest.raises(BuildError):
        run_chain(state, ModelParams(p=2, beta=1.0), 1)
    assert state.sweep_count == 0
    assert not any(f.is_file() for f in (tmp_path / "cache").rglob("*"))
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out), "--sweeps", "5", "--burnin", "1"]) == 5
    assert not list(out.glob("*.snap")) and not (out / "snapshots.csv").exists()
