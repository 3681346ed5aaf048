import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import box_center_marginal_exact
from zgff.errors import InfeasibleError, StructureError
from zgff.scales import (HeightHistogram, bad_set_log_density, compute_scales,
                         estimate_height_prob, ld_diagnostics, proxy_box_side)
from zgff.surface import ModelParams

WORKED = {1: 0.1, 2: 0.01, 3: 0.0005}


def test_compute_scales_worked_table():
    tab = compute_scales(WORKED, L=1000, m=2, beta=1.0)
    assert tab.threshold == pytest.approx(0.005)
    assert tab.H == 2
    assert tab.N == [100.0, 10.0]
    assert tab.L_h == {1: 50, 2: 500, 3: 10000}
    assert tab.bad_intervals == [(38, 50), (375, 500), (7500, 10000)]
    assert not tab.L_in_bad_set


def test_compute_scales_outside_bad_set():
    # ceil(3*500/4) = 375 <= 400 <= 500 = L_2 puts 400 inside the
    # exceptional set, and P(2) = 0.01 < 5/400 makes H = 1 there; L = 600 is
    # the nearby side length that sits outside every interval with H = 2.
    tab400 = compute_scales(WORKED, L=400, beta=1.0)
    assert tab400.L_in_bad_set and tab400.H == 1
    tab600 = compute_scales(WORKED, L=600, beta=1.0)
    assert not tab600.L_in_bad_set and tab600.H == 2


def test_compute_scales_truncation_error_names_height():
    with pytest.raises(InfeasibleError, match="height 4"):
        compute_scales({1: 0.2, 2: 0.1, 3: 0.05}, L=1000, beta=1.0)


def _histogram(probs, n_samples, beta=1.0):
    return HeightHistogram(p=2.0, beta=beta, box_size=48, probs=probs,
                           n_samples=n_samples)


def test_unseen_height_certified_by_its_zero_hit_bound():
    # P(3) = 0.05 is above 5 beta / L = 0.005 and height 4 was never seen: a
    # histogram of 2000 sampled sweeps bounds P(4) by 3/2000 = 0.0015 and
    # takes H = 3; the same probabilities as a dict stay refused
    probs = {1: 0.2, 2: 0.1, 3: 0.05}
    tab = compute_scales(_histogram(probs, 2000), L=1000)
    assert (tab.H, tab.unseen_bound, tab.N) == (3, 0.0015, [20.0])
    with pytest.raises(InfeasibleError, match="height 4 missing"):
        compute_scales(probs, L=1000, beta=1.0)
    # with height 4 seen, or the top height below the threshold, no bound
    assert compute_scales(_histogram({**probs, 4: 0.001}, 2000), L=1000).unseen_bound is None
    assert compute_scales(_histogram(WORKED, 10), L=1000).unseen_bound is None


def test_unseen_height_bound_that_misses_the_threshold_names_the_sweeps():
    # the bound must clear 0.75 times the threshold 0.005 = 0.00375, which
    # keeps L = 1000 out of height 4's exceptional interval: 3/601 clears
    # the threshold but not that, 3/800 ties it, 801 sampled sweeps would
    probs = {1: 0.2, 2: 0.1, 3: 0.05}
    for n in (500, 601, 800):
        with pytest.raises(InfeasibleError, match="height 4 missing.* 801 sampled sweeps"):
            compute_scales(_histogram(probs, n), L=1000)
    assert compute_scales(_histogram(probs, 801), L=1000).unseen_bound == 3 / 801


def test_compute_scales_needs_probability_for_every_level():
    with pytest.raises(InfeasibleError, match="N_2"):
        compute_scales(WORKED, L=1000, m=3, beta=1.0)
    tab = compute_scales({0: 0.88, 1: 0.1, 2: 0.01, 3: 0.0005}, L=1000, m=3,
                         beta=1.0)
    assert tab.N[2] == pytest.approx(1.0 / 0.88)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_scale_consistency_invariance(seed):
    rng = np.random.default_rng(seed)
    base = {h: float(10.0 ** -(h + rng.random())) for h in range(1, 5)}
    base[6] = 1e-12   # keeps the truncation check off for every sampled L
    # L >= 1200 keeps the threshold 5 beta / L below P(1) >= 0.01 at both
    # betas; doubling beta doubles it as doubling every P(h) does
    L = int(rng.integers(1200, 5000))
    t1 = compute_scales(base, L=L, beta=1.0)
    doubled = {h: 2 * p for h, p in base.items()}
    t2 = compute_scales(doubled, L=L, beta=2.0)
    assert t1.H == t2.H


def test_n_sequence_decreasing_under_strict_ratio_decay():
    tab = compute_scales({0: 0.8, 1: 0.1, 2: 0.01, 3: 0.0005}, L=1000, m=3,
                         beta=1.0)
    assert all(a > b for a, b in zip(tab.N, tab.N[1:]))


def test_bad_set_log_density_quadratic_rate():
    probs = {h: math.exp(-8.0 * h * h) for h in range(1, 6)}
    tab = compute_scales(probs, L=10 ** 7, beta=2.0)
    grid, ratios = bad_set_log_density(tab.bad_intervals)
    assert len(ratios) == 5
    assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_bad_set_log_density_toy_table_not_monotone():
    # documents why the acceptance gate uses a super-exponentially decaying
    # table: the worked toy table genuinely fails monotonicity
    tab = compute_scales(WORKED, L=1000, beta=1.0)
    _, ratios = bad_set_log_density(tab.bad_intervals)
    assert ratios[1] > ratios[0]


def test_estimate_matches_exact_3x3_enumeration():
    params = ModelParams(p=2, beta=1.0)
    hist = estimate_height_prob(params, 3, 6000, seed=2)
    exact = box_center_marginal_exact(3, 1.0, 2.0, M=2)
    tv = 0.5 * sum(abs(hist.probs.get(h, 0.0) - p) for h, p in exact.items())
    assert tv < 0.02
    assert abs(sum(hist.probs.values()) - 1.0) < 1e-12


def test_estimate_symmetry_within_ci():
    params = ModelParams(p=2, beta=0.9)
    hist = estimate_height_prob(params, 3, 9000, seed=7)
    for h in (1, 2):
        if h in hist.probs and -h in hist.probs:
            tol = 3 * (hist.ci_half.get(h, 0) + hist.ci_half.get(-h, 0)) + 1e-9
            assert abs(hist.probs[h] - hist.probs[-h]) <= tol


def test_low_temperature_center_concentrates():
    # beta = 10: exact enumeration gives P(|phi| >= 1) < 1e-3, and the
    # estimator agrees
    exact = box_center_marginal_exact(3, 10.0, 2.0, M=3)
    assert 1.0 - exact[0] < 1e-3
    params = ModelParams(p=2, beta=10.0)
    hist = estimate_height_prob(params, 3, 500, seed=1)
    assert hist.probs.get(0, 0.0) > 0.99


def test_estimate_box_too_small_raises():
    # boxSize >= 2 (log boxSize)^2 fails exactly for sides 4..15
    with pytest.raises(StructureError):
        estimate_height_prob(ModelParams(), 8, 100, seed=0)


def test_estimate_rejects_starved_runs():
    # no sampled sweep is an error, not an empty histogram
    with pytest.raises(StructureError):
        estimate_height_prob(ModelParams(p=2.0, beta=0.8), 24, 0, 1)


def test_proxy_box_side_formula():
    # 4 log^2 L clamped to [24, 48]
    assert proxy_box_side(10) == 24
    assert proxy_box_side(20) == 35 == int(4 * math.log(20) ** 2)
    assert proxy_box_side(128) == 48


def test_estimate_warnings_on_sparse_heights():
    params = ModelParams(p=2, beta=1.8)
    hist = estimate_height_prob(params, 3, 300, seed=3)
    # rare heights flagged rather than silently trusted
    assert isinstance(hist.warnings, list)


def test_ld_diagnostics_ratios_and_fit():
    exact = box_center_marginal_exact(3, 1.0, 2.0, M=3)
    rep = ld_diagnostics(HeightHistogram(p=2, beta=1.0, box_size=3, probs=exact,
                                         n_samples=1))
    assert rep["status"] == "ok"
    rvals = [rep["ratios"][h] for h in sorted(rep["ratios"])]
    assert all(a > b for a, b in zip(rvals, rvals[1:]))
    assert rep["fit"]["rate"] > 0
    assert rep["fit"]["x_form"] == "h^2/log h"


def test_ld_diagnostics_sos_slope():
    # p = 1 at beta = 2: log P(h) ~ -4 beta h; exact histogram, slope within
    # 15 percent
    beta = 2.0
    exact = box_center_marginal_exact(3, beta, 1.0, M=4)
    hs = [1, 2, 3]
    ys = [math.log(exact[h]) for h in hs]
    slope = np.polyfit(hs, ys, 1)[0]
    assert abs(slope - (-4 * beta)) / (4 * beta) < 0.15
    rep = ld_diagnostics(HeightHistogram(p=1, beta=1.0, box_size=3, probs=exact,
                                         n_samples=1))
    assert rep["fit"]["x_form"] == "h^1"
    assert abs(rep["fit"]["rate"] - 4 * beta) / (4 * beta) < 0.15


def test_ld_diagnostics_insufficient():
    for probs in ({0: 1.0}, {0: 0.9, 1: 0.1}):
        hist = HeightHistogram(p=2, beta=1.0, box_size=3, probs=probs,
                               n_samples=1)
        assert ld_diagnostics(hist)["status"] == "insufficient"

