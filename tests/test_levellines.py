import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import disagreement_duals_reference
from zgff.errors import CoverageError, StructureError
from zgff.levellines import (LevelLoop, enclosed_region, extract_level_lines,
                             loops_to_records, macroscopic_threshold,
                             nesting_report, profile, top_level_loop)
from zgff.surface import SurfaceConfig, build_boundary, ring_sites


def test_all_below_level_empty():
    cfg = SurfaceConfig.flat(5, value=0)
    assert extract_level_lines(cfg, 1) == []
    assert extract_level_lines(cfg, 3) == []


def test_single_site_gives_unit_loop():
    cfg = SurfaceConfig.flat(5)
    cfg.heights[2, 3] = 4
    for h in (1, 4):
        loops = extract_level_lines(cfg, h)
        assert len(loops) == 1
        assert loops[0].length == 4
        assert loops[0].interior_area == 1
        assert loops[0].interior_cells() == {(2, 3)}


def test_northeast_rule_checkerboard():
    # high cells on the NW-SE diagonal: the NE split shields each, giving two
    # unit loops
    cfg = SurfaceConfig.flat(4)
    cfg.heights[1, 2] = 1
    cfg.heights[2, 1] = 1
    loops = extract_level_lines(cfg, 1)
    assert sorted(lp.length for lp in loops) == [4, 4]
    # high cells on the NE-SW diagonal stay *-connected: one loop of length 8
    cfg = SurfaceConfig.flat(4)
    cfg.heights[1, 1] = 1
    cfg.heights[2, 2] = 1
    loops = extract_level_lines(cfg, 1)
    assert [lp.length for lp in loops] == [8]
    assert loops[0].interior_area == 2
    assert loops[0].interior_cells() == {(1, 1), (2, 2)}


def _pyramid(L, k):
    cfg = SurfaceConfig.flat(L)
    c = L // 2
    for x in range(L):
        for y in range(L):
            cfg.heights[x, y] = max(0, k - max(abs(x - c), abs(y - c)))
    return cfg


def test_pyramid_nested_loops():
    cfg = _pyramid(9, 3)
    rep = nesting_report(cfg)
    by_level = {e["level"]: e for e in rep["levels"]}
    for h in (1, 2, 3):
        assert by_level[h]["n_loops"] == 1
    assert by_level[4]["n_loops"] == 0
    assert rep["nested"]


def test_flat_config_no_macroscopic_loops():
    rep = nesting_report(SurfaceConfig.flat(8))
    assert all(e["n_macroscopic"] == 0 for e in rep["levels"] if e["level"] >= 1)


def test_two_pyramids_non_unique():
    cfg = SurfaceConfig.flat(12)
    cfg.heights[2, 2] = 1
    cfg.heights[9, 9] = 1
    # a macroscopic loop off the centre column, which the old largest-loop
    # rule took as the top loop
    offside = SurfaceConfig.flat(32)
    offside.heights[2:12, 4:28] = 1
    for c, counts in ((cfg, (2, 0)), (offside, (1, 1))):
        lvl1 = nesting_report(c)["levels"][1]
        assert (lvl1["n_loops"], lvl1["n_macroscopic"]) == counts
        # no loop crosses the centre column, so the level has no top loop
        assert "top_area" not in lvl1


def test_macroscopic_threshold_natural_log():
    assert macroscopic_threshold(8) == pytest.approx(math.log(8) ** 2)
    cfg = SurfaceConfig.flat(7)
    cfg.heights[3, 3] = 1
    # (log 7)^2 = 3.79 < 4: a unit loop is macroscopic at L = 7
    assert extract_level_lines(cfg, 1)[0].macroscopic
    cfg8 = SurfaceConfig.flat(8)
    cfg8.heights[3, 3] = 1
    # (log 8)^2 = 4.32 > 4
    assert not extract_level_lines(cfg8, 1)[0].macroscopic


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_extraction_invariants_random(seed):
    rng = np.random.default_rng(seed)
    cfg = SurfaceConfig.flat(8)
    cfg.heights[:, :] = rng.integers(0, 4, size=(8, 8))
    padded = cfg.padded()
    for h in range(1, 5):
        loops = extract_level_lines(cfg, h)
        got = [b for lp in loops for b in lp.bonds]
        # edge-disjoint cover of the reference dual set
        assert len(got) == len(set(got))
        assert set(got) == disagreement_duals_reference(padded, h)
        for lp in loops:
            assert lp.length % 2 == 0
            assert lp.length == len(lp.bonds)
            assert lp.interior_area >= 1
    for h in range(1, 4):
        assert enclosed_region(cfg, h + 1) <= enclosed_region(cfg, h)


def test_enclosed_region_equals_superlevel_set():
    rng = np.random.default_rng(1)
    cfg = SurfaceConfig.flat(6)
    cfg.heights[:, :] = rng.integers(0, 3, size=(6, 6))
    for h in (1, 2):
        region = enclosed_region(cfg, h)
        expected = {(x, y) for x in range(6) for y in range(6)
                    if cfg.heights[x, y] >= h}
        assert region == expected


def _rect_loop(x0, x1, y0, y1):
    bonds = [(a, y0, "h") for a in range(x0, x1)]
    bonds += [(a, y1, "h") for a in range(x0, x1)]
    bonds += [(x0, b, "v") for b in range(y0, y1)]
    bonds += [(x1, b, "v") for b in range(y0, y1)]
    return LevelLoop(level=0, bonds=bonds, length=len(bonds),
                     interior_area=(x1 - x0) * (y1 - y0), macroscopic=True)


def test_profile_rectangle_at_height_three():
    # rectangle spanning the interval, bottom edge at 3, top above L/2
    L = 16
    loop = _rect_loop(2, 14, 3, 13)
    t, rho, rho_bar, _ = profile(loop, 8.0, L)     # window +-4 around column 8
    assert np.allclose(t, np.arange(-4, 5) / 4.0)
    assert np.all(rho == 3.0)
    assert np.all(rho_bar == 3.0)  # no loop point in (3, L/2] on middle columns


def test_profile_notch():
    L = 16
    loop = _rect_loop(2, 14, 3, 13)
    # carve a unit notch above column 8: replace bond (8,3,h) by a detour up
    bonds = [b for b in loop.bonds if b != (8, 3, "h")]
    bonds += [(8, 3, "v"), (8, 4, "h"), (9, 3, "v")]
    notched = LevelLoop(level=0, bonds=bonds, length=len(bonds),
                        interior_area=loop.interior_area - 1, macroscopic=True)
    t, rho, _, _ = profile(notched, 8.0, L)
    mid = list(t).index(0.0)
    # the notch spans columns 8 and 9: x offsets 0 and +1
    assert rho[mid] == 3.0          # corner (8,3) still on the loop
    assert rho[mid + 1] == 3.0
    hit9 = notched.column_hits(9)
    assert 4 in hit9                     # raised lip visible at the notch


def test_profile_flags_and_coverage_error():
    L = 16
    small = _rect_loop(2, 6, 3, 5)       # misses the right half of the window
    t, rho, rho_bar, Y = profile(small, 8.0, L)
    assert np.isnan(rho[-1]) and np.isnan(rho_bar[-1]) and np.isnan(Y[-1])
    assert not np.isnan(rho[0])
    far = _rect_loop(0, 2, 3, 5)         # entirely outside the window
    with pytest.raises(CoverageError):
        profile(far, 8.0, L)


def test_profile_rescales_constant_levels():
    L = 64
    N = 8.0                              # N^{1/3} = 2, N^{2/3} = 4
    for bottom, level in ((2, 1.0), (0, 0.0)):
        t, rho, rho_bar, Y = profile(_rect_loop(8, 56, bottom, 40), N, L)
        assert np.allclose(t, np.arange(-4, 5) / 4.0)
        assert np.allclose(Y, level)
        assert np.all(rho_bar - rho == 0.0)


def test_profile_rescales_linear_spot_check():
    # a staircase plateau whose lower edge gives rho(x) = x + 8 on columns
    # x in [-4, 4]: Y(t) = (t N^{2/3} + 8)/N^{1/3}
    L, N = 32, 8.0
    cfg = SurfaceConfig.flat(L)
    for x in range(2, 30):
        cfg.heights[x, max(2, x - 7):28] = 1
    t, rho, rho_bar, Y = profile(top_level_loop(cfg, 1), N, L)
    for j in range(9):
        x = j - 4
        assert rho[j] == x + 8.0 and rho_bar[j] == x + 9.0
        assert t[j] == pytest.approx(x / N ** (2.0 / 3.0))
        assert Y[j] == pytest.approx((x + 8.0) / N ** (1.0 / 3.0))


def test_loops_to_records_shape():
    cfg = SurfaceConfig.flat(5)
    cfg.heights[2, 2] = 2
    recs = loops_to_records(extract_level_lines(cfg, 1))
    assert recs[0]["level"] == 1 and recs[0]["length"] == 4
    assert recs[0]["area"] == 1
    assert all(len(b) == 3 for b in recs[0]["bonds"])


def _largest_macroscopic(config, h):
    """The largest macroscopic level-h loop of the full extraction with a bond
    (L // 2, b, 'h'), ties going to the lowest such bond, or None."""
    lowest = {}
    for lp in extract_level_lines(config, h):
        bs = [b for a, b, d in lp.bonds if d == "h" and a == config.L // 2]
        if lp.macroscopic and bs:
            lowest[min(bs)] = lp
    return max(lowest.items(), key=lambda e: (e[1].interior_area, -e[0]),
               default=(None, None))[1]


def _count_extractions(monkeypatch):
    # levels at which every loop is extracted
    import zgff.levellines as ll
    calls, real = [], ll.extract_level_lines
    monkeypatch.setattr(ll, "extract_level_lines",
                        lambda config, h: calls.append(h) or real(config, h))
    return calls


def _sampled_plateau(L, seed):
    from zgff.mcmc import sample_equilibrium
    from zgff.surface import ModelParams, build_boundary
    params = ModelParams(p=2.0, beta=0.8, floor_spec=0)
    init = SurfaceConfig.flat(L, value=1, boundary=build_boundary(("all", 0), L),
                              floor=0)
    snaps, _ = sample_equilibrium(params, L, 30, 10, 10, seed, initial=init,
                                  scan_order="checkerboard")
    return snaps


def test_top_level_loop_matches_largest_loop_on_sampled_plateaus(monkeypatch):
    snaps = _sampled_plateau(64, 5) + _sampled_plateau(96, 6)
    refs = [_largest_macroscopic(s, 1) for s in snaps]
    calls = _count_extractions(monkeypatch)
    for snap, ref in zip(snaps, refs):
        top = top_level_loop(snap, 1)
        assert set(top.bonds) == set(ref.bonds)
        assert top.interior_area == ref.interior_area > snap.L ** 2 / 2
        assert top.length == ref.length and top.macroscopic
    assert calls == []          # every snapshot took the traced path


def _fallback_configs():
    """Level-1 configs off top_level_loop's half-box path: (small, raised,
    offside)."""
    # small plateau: the loop encloses less than half the box
    small = SurfaceConfig.flat(32)
    small.heights[12:20, 10:18] = 1
    small.heights[2, 2] = 1
    # ring at the level: loops wind around the low regions, and the column
    # meets both
    raised = SurfaceConfig.flat(32, value=1, boundary=build_boundary(("all", 1), 32))
    raised.heights[3:29, 2:20] = 0
    raised.heights[14:18, 24:28] = 0
    # centre column entirely below the level, a macroscopic loop elsewhere,
    # which cannot give Y(0)
    offside = SurfaceConfig.flat(32)
    offside.heights[2:12, 4:28] = 1
    return small, raised, offside


def test_top_level_loop_fallbacks(monkeypatch):
    small, raised, offside = _fallback_configs()
    refs = [_largest_macroscopic(c, 1) for c in (small, raised)]
    assert any(lp.macroscopic for lp in extract_level_lines(offside, 1))
    calls = _count_extractions(monkeypatch)
    for cfg, ref in zip((small, raised), refs):
        top = top_level_loop(cfg, 1)
        assert set(top.bonds) == set(ref.bonds)
        assert top.interior_area == ref.interior_area
    assert top_level_loop(offside, 1) is None
    assert calls == []          # no level was extracted whole


def _first_odd_corner(cfg, h):
    """The raster-first odd-degree corner of the brute-force dual set, with
    its degree, or None."""
    degree = Counter()
    for a, b, d in disagreement_duals_reference(cfg.padded(), h):
        degree.update([(a, b), (a + 1, b) if d == "h" else (a, b + 1)])
    odd = sorted(c for c, k in degree.items() if k % 2)
    return (odd[0], degree[odd[0]]) if odd else None


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_top_level_loop_matches_column_reference(seed):
    # rings wholly below the level, at it, above it, and split across it; a
    # split ring raises at the raster-first odd corner of the whole grid
    rng = np.random.default_rng(seed)
    L = int(rng.integers(2, 11))
    cfg = SurfaceConfig.flat(L)
    cfg.heights[:, :] = rng.integers(0, 4, size=(L, L))
    ring = list(build_boundary(("all", 0), L))
    for h in range(1, 4):
        lo, hi = [(h - 2, h), (h, h + 1), (h, h + 3), (h - 2, h + 2)][rng.integers(4)]
        cfg.boundary = dict(zip(ring, rng.integers(lo, hi, size=len(ring)).tolist()))
        odd = _first_odd_corner(cfg, h)
        if odd is not None:
            for fn in (top_level_loop, extract_level_lines, enclosed_region):
                with pytest.raises(StructureError, match=re.escape(
                        "corner {} has degree {}".format(*odd))):
                    fn(cfg, h)
            continue
        ref, top = _largest_macroscopic(cfg, h), top_level_loop(cfg, h)
        assert (top and set(top.bonds)) == (ref and set(ref.bonds))


def _profile_reference(loop, N_n, L):
    """profile's rho and rho_bar, read column by column through column_hits
    over the window of N_n^(2/3) columns each side, cut to L/2 - 1."""
    W = int(math.ceil(min(N_n ** (2.0 / 3.0), L / 2 - 1)))
    rho, rho_bar = [], []
    for x in range(-W, W + 1):
        ys = loop.column_hits(L // 2 + x)
        below = [y for y in ys if y <= L / 2.0]
        rho.append(ys[0] if ys else np.nan)
        rho_bar.append(below[-1] if below else np.nan)
    return np.array(rho), np.array(rho_bar)


def test_profile_matches_per_column_hits():
    # sampled plateau loops at every level, and the notched rectangle; the
    # larger N_n would reach past the box, so the box cuts their window
    loops = [(lp, 64) for snap in _sampled_plateau(64, 7)
             for h in (1, 2) for lp in extract_level_lines(snap, h)]
    notched = _rect_loop(2, 14, 3, 13)
    notched.bonds = [b for b in notched.bonds if b != (8, 3, "h")]
    notched.bonds += [(8, 3, "v"), (8, 4, "h"), (9, 3, "v")]
    loops.append((notched, 16))
    checked = 0
    for loop, L in loops:
        for N_n in (1.0, 8.0, 50.0, 600.0):
            rho, rho_bar = _profile_reference(loop, N_n, L)
            if np.isnan(rho).all():
                with pytest.raises(CoverageError):
                    profile(loop, N_n, L)
                continue
            got = profile(loop, N_n, L)
            W = len(rho) // 2
            assert np.array_equal(got[0], np.arange(-W, W + 1) / N_n ** (2.0 / 3.0))
            assert np.array_equal(got[1], rho, equal_nan=True)
            assert np.array_equal(got[2], rho_bar, equal_nan=True)
            assert np.array_equal(got[3], rho / N_n ** (1.0 / 3.0), equal_nan=True)
            checked += 1
    assert checked > 20


def test_top_level_loop_covers_the_profile_centre():
    # every returned loop crosses the centre column, so Y(0) is always read
    small, raised, _ = _fallback_configs()
    configs = _sampled_plateau(64, 5) + _sampled_plateau(96, 6) + [small, raised]
    for cfg in configs:
        top = top_level_loop(cfg, 1)
        for N_n in (1.0, 8.0, 133.0, 1e5):
            t, rho, _, _ = profile(top, N_n, cfg.L)
            mid = len(t) // 2
            assert t[mid] == 0.0 and not np.isnan(rho[mid])


def test_top_level_loop_none_without_macroscopic_loop():
    assert top_level_loop(SurfaceConfig.flat(16), 1) is None
    cfg = SurfaceConfig.flat(16)
    cfg.heights[8, 8] = 1        # a unit loop, below the log^2 L threshold
    assert top_level_loop(cfg, 1) is None


def test_level_crossing_a_split_ring_is_a_structure_error():
    # the level separates two ring arcs, so its lines end on the ring: 1 on
    # the bottom side and its east corner, 0 elsewhere
    cfg = SurfaceConfig.flat(16, boundary=build_boundary(("custom", {
        (x, y): int(y == -1 and x >= 0) for x, y in ring_sites(16)}), 16))
    cfg.heights[4:12, 4:12] = 1
    with pytest.raises(StructureError, match="degree 1"):
        extract_level_lines(cfg, 1)
    with pytest.raises(StructureError):
        top_level_loop(cfg, 1)
    with pytest.raises(StructureError, match="degree 1"):
        enclosed_region(cfg, 1)
    with pytest.raises(StructureError):
        # 2 on the left side and its south corner, 1 elsewhere
        enclosed_region(SurfaceConfig.flat(4, value=1, boundary=build_boundary(("custom", {
            (x, y): 2 if x == -1 and y < 4 else 1 for x, y in ring_sites(4)}), 4)), 2)


def test_enclosed_region_is_vertical_bond_parity():
    # random fields and rings wholly below or wholly at/above each level:
    # a cell is enclosed iff an odd number of the brute-force vertical bonds
    # of its row lie at or left of it
    rng = np.random.default_rng(17)
    ring0 = build_boundary(("all", 0), 8)
    for _ in range(200):
        cfg = SurfaceConfig.flat(8)
        cfg.heights[:, :] = rng.integers(0, 5, size=(8, 8))
        for h in range(1, 5):
            cfg.boundary = {s: int(v) for s, v in zip(
                ring0, rng.integers(h, h + 3, size=len(ring0)) if rng.random() < 0.5
                else rng.integers(h - 3, h, size=len(ring0)))}
            verticals = [(a, b) for a, b, d in
                         disagreement_duals_reference(cfg.padded(), h) if d == "v"]
            expected = {(x, b) for x in range(8) for b in range(8)
                        if sum(1 for a, bb in verticals if bb == b and a <= x) % 2}
            assert enclosed_region(cfg, h) == expected
