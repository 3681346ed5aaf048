import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zgff.errors import ConfigError, InvalidConstraintError, StructureError
from zgff.surface import (ModelParams, SurfaceConfig, build_boundary,
                          conditional_tables, local_conditional,
                          read_snapshot, ring_sites, write_snapshot)


def test_conditional_p0_series_oracle():
    dist = local_conditional((0, 0, 0, 0), None, None, ModelParams(p=2, beta=1))
    Z = sum(math.exp(-4.0 * k * k) for k in range(-30, 31))
    assert dist.prob(0) == pytest.approx(1.0 / Z, abs=1e-13)
    assert sum(dist.probs) == pytest.approx(1.0, abs=1e-12)


def test_conditional_symmetry_equal_neighbors():
    dist = local_conditional((3, 3, 3, 3), None, None, ModelParams(p=2, beta=0.8))
    for k in range(0, 4):
        assert dist.prob(3 + k) == pytest.approx(dist.prob(3 - k), rel=1e-12)
    assert dist.support[int(np.argmax(dist.probs))] == 3


def test_conditional_mode_three_against_one():
    # neighbors (h,h,h,h-1): weight e^{-beta} at h vs e^{-3 beta} at h-1
    for beta in (0.5, 1.0, 2.0):
        dist = local_conditional((5, 5, 5, 4), None, None,
                                 ModelParams(p=2, beta=beta))
        assert dist.support[int(np.argmax(dist.probs))] == 5
        assert dist.prob(5) / dist.prob(4) == pytest.approx(
            math.exp(2 * beta), rel=1e-10)


@given(st.integers(0, 10**6), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
@settings(max_examples=40, deadline=None)
def test_conditional_log_concavity(seed, p):
    rng = np.random.default_rng(seed)
    nb = tuple(int(v) for v in rng.integers(-3, 4, size=4))
    dist = local_conditional(nb, None, None, ModelParams(p=p, beta=0.9))
    w = dist.probs
    for i in range(1, len(w) - 1):
        assert w[i] * w[i] >= w[i - 1] * w[i + 1] - 1e-15


@given(st.integers(0, 10**6), st.integers(-50, 50))
@settings(max_examples=30, deadline=None)
def test_conditional_translation_covariance(seed, c):
    rng = np.random.default_rng(seed)
    nb = tuple(int(v) for v in rng.integers(-3, 4, size=4))
    lo, hi = -4, 5
    params = ModelParams(p=2, beta=1.1)
    d0 = local_conditional(nb, lo, hi, params)
    d1 = local_conditional(tuple(v + c for v in nb), lo + c, hi + c, params)
    assert [s + c for s in d0.support] == d1.support
    assert np.allclose(d0.probs, d1.probs, atol=1e-14)


@given(st.sampled_from([1.0, 1.5, 2.0]), st.floats(0.3, 2.5),
       st.lists(st.integers(0, 1000), min_size=3, max_size=3),
       st.none() | st.integers(-1000, 2000), st.none() | st.integers(0, 2000))
@settings(max_examples=150, deadline=None)
def test_conditional_cdf_rises_to_one(p, beta, gaps, floor, width):
    # the table kernel's binary search needs cdf[:-1] non-decreasing and
    # cdf[-1] == 1.0: then cdf[i] <= u holds on a prefix of the row for
    # every u in [0, 1)
    ceiling = None if width is None else (floor or 0) + width
    neighbours = (0, *gaps)
    _, _, cdf, _ = conditional_tables(neighbours, floor, ceiling,
                                      ModelParams(p=p, beta=beta))
    assert cdf[-1] == 1.0
    assert all(x <= y for x, y in zip(cdf[:-2], cdf[1:-1]))


def test_conditional_bounds_and_errors():
    params = ModelParams(p=2, beta=1)
    with pytest.raises(InvalidConstraintError):
        local_conditional((0, 0, 0, 0), 2, 1, params)
    d = local_conditional((0, 0, 0, 0), 0, 2, params)
    assert d.support[0] == 0 and d.support[-1] == 2
    d = local_conditional((5, 5, 5, 5), 5, 5, params)
    assert d.support == [5] and d.probs == [1.0]


def test_conditional_far_from_bound_or_spread_neighbours():
    # energies beyond exp's range at the neighbours' median (a floor far
    # above a neighbour, or neighbours far apart) still give the exact law
    params = ModelParams(p=2, beta=0.8)
    d = local_conditional((-40, 0, 0, 0), 0, None, params)
    assert d.support[0] == 0 and d.probs[0] > 1 - 1e-15

    def e(k):
        return (k + 100) ** 2 + 3 * k * k

    d = local_conditional((-100, 0, 0, 0), None, None, params)
    mode = max(d.support, key=d.prob)
    assert mode == -25
    for k in (-27, -26, -24, -23):
        assert d.prob(k) / d.prob(mode) == pytest.approx(
            math.exp(-0.8 * (e(k) - e(mode))), rel=1e-10)
    # weights at the median are subnormal and TRUNCATION_EPS times them is 0
    d = local_conditional((0, 0, 30, 30), None, None, params)
    assert max(d.support, key=d.prob) == 15
    assert d.prob(16) / d.prob(15) == pytest.approx(math.exp(-0.8 * 4), rel=1e-10)
    d = local_conditional((-60, 5, 5, 5), 0, 3, ModelParams(p=1.5, beta=2.5))
    assert d.support == [0, 1, 2, 3]
    for k in (1, 2, 3):
        de = (k + 60) ** 1.5 - 60 ** 1.5 + 3 * ((5 - k) ** 1.5 - 5 ** 1.5)
        assert d.prob(k) / d.prob(0) == pytest.approx(math.exp(-2.5 * de), rel=1e-9)


def test_conditional_rows_are_pinned():
    # every row of a fixed grid, bit for bit (a float's repr is exact): both
    # sides bounded and unbounded, integer and float p, and bounds far
    # enough from the neighbours that the weights underflow at their median
    # (half of the 420 rows take the least-energy fallback)
    digest = hashlib.sha256()
    for p in (1, 1.5, 2, 3.0):
        for beta in (0.3, 1.3, 6.0):
            params = ModelParams(p=p, beta=beta)
            for nb in ((0, 0, 0, 0), (0, 1, 1, 2), (-3, 0, 2, 5),
                       (0, 0, 30, 30), (-60, 5, 5, 5)):
                for floor, ceiling in ((None, None), (0, None), (None, 1), (-2, 3),
                                       (40, None), (None, -300), (200, 260)):
                    row = conditional_tables(nb, floor, ceiling, params)
                    digest.update(repr(row).encode())
    assert digest.hexdigest() == (
        "ec680f003e375f107b79cb859c94a79c1570f3bb11ee3bed8dbfaa17d438eb0b")


def test_conditional_quantile_monotone():
    d = local_conditional((1, 0, 0, 0), None, None, ModelParams(p=2, beta=0.7))
    qs = [d.quantile(u) for u in np.linspace(0.001, 0.999, 200)]
    assert all(a <= b for a, b in zip(qs, qs[1:]))


def test_build_boundary_all():
    bnd = build_boundary(("all", 0), 4)
    assert set(bnd) == set(ring_sites(4))
    assert all(v == 0 for v in bnd.values())


def test_padded_corners_come_from_the_ring():
    cfg = SurfaceConfig.flat(3, value=1, boundary=build_boundary(("all", 5), 3))
    g = cfg.padded()
    assert g.dtype == np.int64 and g.shape == (5, 5)
    assert (g[1:4, 1:4] == 1).all()
    ring = np.ones((5, 5), dtype=bool)
    ring[1:4, 1:4] = False
    assert (g[ring] == 5).all()  # corners included


def test_model_params_refuse_p_and_beta_out_of_range():
    for kw in ({"p": 0.5}, {"beta": 0.0}, {"beta": math.nan}, {"beta": math.inf},
               {"p": math.nan}, {"p": math.inf}):
        with pytest.raises(ConfigError):
            ModelParams(**kw)


def test_build_boundary_errors():
    with pytest.raises(ConfigError):
        build_boundary(("no-such-pattern",), 4)
    partial = {s: 0 for s in ring_sites(4)[:-1]}
    with pytest.raises(ConfigError):
        build_boundary(("custom", partial), 4)


def test_missing_boundary_is_structural_error():
    cfg = SurfaceConfig.flat(3)
    del cfg.boundary[(-1, 0)]
    with pytest.raises(StructureError):
        cfg.height_at(-1, 0)


def test_snapshot_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    cfg = SurfaceConfig.flat(5, floor=0, ceiling=7)
    cfg.heights[:, :] = rng.integers(0, 5, size=(5, 5))
    params = ModelParams(p=2.0, beta=1.75)
    path = tmp_path / "cfg.snap"
    write_snapshot(path, cfg, params)
    raw = path.read_bytes()
    assert raw[:8] == b"ZGFFSNAP"
    back, params2 = read_snapshot(path)
    assert np.array_equal(back.heights, cfg.heights)
    assert (params2.p, params2.beta) == (2.0, 1.75)
    assert back.floor == 0 and back.ceiling == 7
    # heights are row-major little-endian int32 after the header
    body = np.frombuffer(raw[8 + 24 + 8:], dtype="<i4").reshape(5, 5)
    assert np.array_equal(body.T, cfg.heights)


def test_snapshot_per_site_floor(tmp_path):
    cfg = SurfaceConfig.flat(3, floor=np.zeros((3, 3), dtype=np.int32))
    params = ModelParams()
    write_snapshot(tmp_path / "s.snap", cfg, params)
    back, _ = read_snapshot(tmp_path / "s.snap")
    assert isinstance(back.floor, np.ndarray)
    assert np.array_equal(back.floor, cfg.floor)


@given(st.integers(0, 10**6), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
@settings(max_examples=50, deadline=None)
def test_fkg_lattice_condition(seed, p):
    # log-supermodularity of the Gibbs weights for two configs differing at
    # two neighboring sites: e(a1 v a2, b1 v b2) + e(a1 ^ a2, b1 ^ b2)
    # <= e(a1, b1) + e(a2, b2) for the pair-interaction |a - b|^p
    rng = np.random.default_rng(seed)
    a1, a2, b1, b2 = (int(v) for v in rng.integers(-5, 6, size=4))
    hi_pair = abs(max(a1, a2) - max(b1, b2)) ** p
    lo_pair = abs(min(a1, a2) - min(b1, b2)) ** p
    assert hi_pair + lo_pair <= abs(a1 - b1) ** p + abs(a2 - b2) ** p + 1e-12
