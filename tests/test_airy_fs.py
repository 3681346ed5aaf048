import math

import numpy as np
import pytest
from scipy import integrate, special

from zgff.airy import (AI0, AIP_FIRST_ZERO, BLOCK, OMEGA1,
                       _airy_asymptotic_pos, airy, airy_series)
from zgff.errors import DegenerateInputError, StructureError
from zgff.fs import (FSModel, fs_cdf, fs_density, fs_drift, fs_quantile,
                     ks_distance, sample_paths, zero_flux_residual)


def test_ai_at_zero_closed_form():
    assert AI0 == pytest.approx(3 ** (-2 / 3) / math.gamma(2 / 3), abs=1e-15)
    assert airy(0.0)[0] == pytest.approx(0.3550280538878172, abs=1e-10)


def _branch_edges(edges):
    """Each edge and the floats one ulp either side of it."""
    return np.concatenate([[np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf)]
                           for e in edges])


def test_airy_against_scipy_abs_inside():
    # series and positive asymptotics, the edges 0 and 6, and the domain's
    # first point -6
    xs = np.concatenate([np.linspace(-6, 10, 641), _branch_edges([0.0, 6.0]),
                         [-6.0, np.nextafter(-6.0, np.inf)]])
    ai, aip = airy(xs)
    Ai, Aip, _, _ = special.airy(xs)
    assert np.all(np.abs(ai - Ai) <= 1e-10)
    assert np.all(np.abs(aip - Aip) <= 1e-10)


def test_airy_against_scipy_rel_outside():
    # positive asymptotics
    xs = np.linspace(10.01, 25, 120)
    ai, aip = airy(xs)
    Ai, Aip, _, _ = special.airy(xs)
    assert np.all(np.abs(ai - Ai) <= 1e-8 * np.abs(Ai))
    assert np.all(np.abs(aip - Aip) <= 1e-8 * np.abs(Aip))


def test_airy_keeps_the_shape_of_its_input():
    pts = np.array([[-6.0, -4.0, -2.0], [0.0, 5.5, 9.0]])
    for x in (1.5, np.float64(-5.0), np.asarray(3.0), pts[0], pts):
        ai, aip = airy(x)
        assert np.shape(ai) == np.shape(aip) == np.shape(x)
    ai, aip = airy(pts)
    for idx in np.ndindex(pts.shape):
        assert (ai[idx], aip[idx]) == airy(float(pts[idx]))
    # airy works through blocks of BLOCK points; the reversed view
    # puts every point in a different block at a different offset
    big = np.linspace(-6.0, 20.0, 2 * BLOCK + 3)
    ai, aip = airy(big)
    ai_r, aip_r = airy(big[::-1])
    assert np.array_equal(ai, ai_r[::-1]) and np.array_equal(aip, aip_r[::-1])


def test_airy_monotone_decay_positive_axis():
    vals = [airy(x)[0] for x in np.linspace(0, 12, 200)]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))


def test_omega1_and_aiprime_zero():
    # independent oracle: scipy's tabulated zeros
    assert OMEGA1 == pytest.approx(float(special.ai_zeros(1)[0][0]) * -1.0,
                                   abs=1e-8)
    assert airy(-OMEGA1)[0] == pytest.approx(0.0, abs=1e-10)
    assert AIP_FIRST_ZERO == pytest.approx(
        float(special.ai_zeros(1)[1][0]) * -1.0, abs=1e-8)


def test_zero_constants_sit_at_the_series_sign_changes():
    # each constant is within 2e-14 of where the series itself changes sign
    for zero, part in ((OMEGA1, 0), (AIP_FIRST_ZERO, 1)):
        inner = airy_series(-(zero - 2e-14))[part]
        outer = airy_series(-(zero + 2e-14))[part]
        assert inner * outer < 0, (zero, inner, outer)


def test_airy_domain_starts_at_minus_six():
    ai, aip = airy(-6.0)
    assert (ai, aip) == airy_series(-6.0)
    for bad in (np.nextafter(-6.0, -np.inf), -12.0, np.array([0.0, -7.0]),
                np.nan):
        with pytest.raises(DegenerateInputError):
            airy(bad)


def test_series_asymptotic_cross_check_band():
    # the series and the positive-axis asymptotics agree across their overlap
    for x in np.linspace(5.0, 7.0, 41):
        a1, ap1 = airy_series(float(x))
        a2, ap2 = _airy_asymptotic_pos(float(x))
        assert max(abs(a1 - a2), abs(ap1 - ap2)) <= 1e-8, x


def test_density_zero_at_and_below_origin():
    m = FSModel(sigma=1.0)
    assert fs_density(0.0, m) == 0.0
    assert fs_density(-2.0, m) == 0.0
    assert fs_density(1e-9, m) > 0.0


def test_density_normalization_and_prefactor():
    for sigma in (0.5, 1.0, math.sqrt(0.5)):
        m = FSModel(sigma=sigma)
        integral, err = integrate.quad(lambda x: fs_density(x, m), 0, m.x_max,
                                       limit=200)
        assert abs(integral - 1.0) < 1e-8
        # quadrature normalization agrees with scale/Ai'(-omega1)^2, i.e. the
        # prefactor exponent is +1/3, not -1/3
        assert m.normalization == pytest.approx(m.closed_form_normalization(),
                                                rel=1e-10)


def test_fs_model_takes_only_sigma():
    # every other field is computed from sigma, so none can be passed in
    with pytest.raises(TypeError):
        FSModel(sigma=1.0, x_max=5.0)
    for sigma in (0.0, -1.0, math.nan):
        with pytest.raises(StructureError):
            FSModel(sigma=sigma)


def test_density_argmax_formula():
    m = FSModel(sigma=1.3)
    xs = np.linspace(1e-4, m.x_max, 40000)
    dens = fs_density(xs, m)
    x_star = xs[np.argmax(dens)]
    assert m.argmax() == pytest.approx(
        (2.0 / 1.3 ** 2) ** (-1.0 / 3.0) * (OMEGA1 - AIP_FIRST_ZERO),
        rel=1e-12)
    assert x_star == pytest.approx(m.argmax(), abs=2 * (xs[1] - xs[0]))


def test_drift_sign_structure():
    m = FSModel(sigma=1.0)
    assert abs(fs_drift(m.argmax(), m)) < 1e-10
    for x in np.linspace(m.argmax() * 1.05, m.argmax() * 4, 50):
        assert fs_drift(float(x), m) < 0
    for x in np.linspace(m.argmax() * 0.1, m.argmax() * 0.95, 50):
        assert fs_drift(float(x), m) > 0
    with pytest.raises(DegenerateInputError):
        fs_drift(0.0, m)
    with pytest.raises(DegenerateInputError):
        fs_drift(-1.0, m)


def test_density_and_drift_on_a_grid_match_pointwise_calls():
    m = FSModel(sigma=1.0)
    xs = np.linspace(-1.0, 1.5 * m.x_max, 301)
    dens = fs_density(xs, m)
    assert dens.shape == xs.shape
    assert np.all(dens[xs <= 0] == 0.0)
    assert [float(d) for d in dens] == [fs_density(float(x), m) for x in xs]
    pos = xs[xs > 0]
    drift = fs_drift(pos, m)
    assert [float(d) for d in drift] == [fs_drift(float(x), m) for x in pos]
    with pytest.raises(DegenerateInputError):
        fs_drift(xs, m)


def test_drift_matches_fd_log_derivative():
    m = FSModel(sigma=1.0)
    h = 1e-5   # roundoff beats truncation below this step
    for x in np.linspace(0.1, 5.0, 60):
        phi = lambda z: airy(m.scale * z - m.omega1)[0]
        fd = (math.log(phi(x + h)) - math.log(phi(x - h))) / (2 * h)
        assert fs_drift(float(x), m) == pytest.approx(m.sigma ** 2 * fd,
                                                      abs=1e-6, rel=1e-6)


def test_zero_flux_stationarity():
    for sigma in (0.8, 1.0):
        assert zero_flux_residual(FSModel(sigma=sigma)) < 1e-6


def test_scaling_covariance():
    m1 = FSModel(sigma=1.0)
    m2 = FSModel(sigma=0.6)
    s = (1.0 / 0.6 ** 2) ** (1.0 / 3.0)
    for x in np.linspace(0.05, 3.0, 50):
        assert fs_density(float(x), m1) == pytest.approx(
            fs_density(float(x) / s, m2) / s, abs=1e-12)


def test_eigenfunction_relation():
    # (sigma^2/2) phi'' = (x - E) phi with E = (sigma^2/2)^{1/3} omega1,
    # inherited from Ai'' = u Ai
    m = FSModel(sigma=1.4)
    E = (m.sigma ** 2 / 2.0) ** (1.0 / 3.0) * m.omega1
    h = 1e-4
    for x in np.linspace(0.3, 3.0, 30):
        phi = lambda z: airy(m.scale * z - m.omega1)[0]
        d2 = (phi(x + h) - 2 * phi(x) + phi(x - h)) / (h * h)
        assert 0.5 * m.sigma ** 2 * d2 == pytest.approx((x - E) * phi(x),
                                                        rel=5e-6, abs=5e-8)


def test_cdf_quantile_inverse():
    m = FSModel(sigma=1.0)
    us = np.linspace(0.01, 0.99, 99)
    xs = fs_quantile(us, m)
    assert np.all(np.diff(xs) > 0)
    back = fs_cdf(xs, m)
    assert np.max(np.abs(back - us)) < 1e-6


def test_sample_path_replay_and_positivity():
    m = FSModel(sigma=1.0)
    p1 = sample_paths(m, 2, 5000, 1e-3, x0=1.0, seed=9)
    p2 = sample_paths(m, 2, 5000, 1e-3, x0=1.0, seed=9)
    assert p1.shape == (2, 5001)
    assert np.array_equal(p1, p2)
    assert np.all(p1 > 0)
    # each range check fails on NaN too, so no NaN path is ever drawn
    for n_steps, dt, x0 in ((1000, 1e-3, -1.0), (1000, 1e-3, math.nan),
                            (1000, math.nan, 1.0), (0, 1e-3, 1.0), (-1, 1e-3, 1.0)):
        with pytest.raises(StructureError):
            sample_paths(m, 1, n_steps, dt, x0=x0, seed=0)


def test_path_marginals_match_density():
    m = FSModel(sigma=1.0)
    paths = sample_paths(m, 100, 20000, 1e-3, x0=1.0, seed=3)
    marg = paths[:, 4000::40].ravel()
    assert ks_distance(marg, m) < 0.03


def test_dt_bias_first_order():
    m = FSModel(sigma=1.0)
    ks = {}
    for dt in (0.08, 0.04):
        paths = sample_paths(m, 400, int(960 / dt), dt, x0=1.0, seed=1)
        burn = paths.shape[1] // 4
        ks[dt] = ks_distance(paths[:, burn::25].ravel(), m)
    ratio = ks[0.08] / ks[0.04]
    assert 1.4 < ratio < 2.9


def test_ks_distance_calibration():
    m = FSModel(sigma=1.0)
    rng = np.random.default_rng(4)
    n = 20000
    samples = fs_quantile(rng.random(n), m)
    assert ks_distance(samples, m) < 1.36 / math.sqrt(n)
    med = fs_quantile(0.5, m)
    assert ks_distance(np.full(50, med), m) == pytest.approx(0.5, abs=0.01)
    assert ks_distance(np.full(50, m.x_max + 5.0), m) == pytest.approx(1.0)
    with pytest.raises(DegenerateInputError):
        ks_distance([], m)
