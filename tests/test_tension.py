import itertools
import math

import numpy as np
import pytest

from oracles import enumerate_directed_paths_weight
from zgff.errors import InfeasibleError, StructureError
from zgff.tension import (estimate_tension, finite_size_drift,
                          log_partition_directed, polygon_area,
                          tension_l1_axis, tension_table, unit_wulff,
                          wulff_shape)


def test_log_partition_matches_enumeration():
    # run_cap ~ 18/beta keeps the oracle's truncated tail below ~1e-8 rel
    cases = {1.0: ([(2, 0), (3, 1), (2, 2)], 18),
             2.0: ([(2, 0), (3, 1), (4, -2), (2, 2)], 9)}
    for beta, (points, cap) in cases.items():
        for M, Y in points:
            z = math.exp(log_partition_directed(M, Y, beta))
            ref = enumerate_directed_paths_weight(M, Y, beta, run_cap=cap)
            assert z == pytest.approx(ref, rel=1e-6)


def test_tension_axis_matches_closed_form():
    for beta in (1.5, 2.0, 3.0):
        e = estimate_tension(beta, (1, 0))
        assert abs(e.tau_l1 - tension_l1_axis(beta)) <= max(e.ci, 5e-4)


def test_tension_positive_and_euclidean_normalization():
    e = estimate_tension(2.0, (1, 1))
    assert e.tau > 0
    assert e.tau == pytest.approx(e.tau_l1 * 2.0 / math.sqrt(2.0), rel=1e-12)


def test_tau_over_beta_approaches_one():
    e6 = estimate_tension(6.0, (1, 0))
    e8 = estimate_tension(8.0, (1, 0))
    assert abs(e6.tau / 6.0 - 1.0) < 0.05
    assert abs(e8.tau / 8.0 - 1.0) < 0.05
    assert abs(e6.tau / 6.0 - e8.tau / 8.0) < 0.05 * (e8.tau / 8.0)


def test_dihedral_symmetry_of_table():
    table = tension_table(2.5)
    for e in table.entries:
        th = e.theta
        assert table.tau_of_theta(-th) == pytest.approx(e.tau, rel=1e-12)
        assert table.tau_of_theta(th + math.pi / 2) == pytest.approx(e.tau, rel=1e-12)
        assert table.tau_of_theta(math.pi / 2 - th) == pytest.approx(e.tau, rel=1e-12)


def test_finite_size_drift_bounded():
    seq = finite_size_drift(3.0, sizes=range(4, 65, 4))
    assert seq.max() - seq.min() < 2.0
    head = seq[: len(seq) // 2]
    tail = seq[len(seq) // 2:]
    assert tail.max() - tail.min() <= head.max() - head.min() + 1e-9


def test_tension_strict_convexity_surrogate():
    table = tension_table(2.5)

    def tau_vec(v):
        return table.tau_of_theta(math.atan2(v[1], v[0])) * math.hypot(*v)

    vecs = [(2, 0), (2, 1), (1, 1), (1, 2), (0, 2), (3, 1), (3, 2)]
    for u, v in itertools.combinations(vecs, 2):
        if u[0] * v[1] == u[1] * v[0]:
            continue
        s = (u[0] + v[0], u[1] + v[1])
        assert tau_vec(u) + tau_vec(v) > tau_vec(s) + 1e-9


def test_estimate_tension_input_validation():
    with pytest.raises(StructureError):
        estimate_tension(2.0, (1, 2))
    with pytest.raises(StructureError):
        estimate_tension(2.0, (1, 0), sizes=(4, 8))


def _circle_table(c, n=64):
    angles = np.linspace(0, 2 * math.pi, n, endpoint=False)
    return angles, np.full(n, c)


def test_wulff_isotropic_disk():
    c = 1.7
    angles, taus = _circle_table(c, 128)
    poly = wulff_shape(angles, taus)
    assert polygon_area(poly) == pytest.approx(math.pi * c * c, rel=5e-4)
    u = unit_wulff(poly)
    assert polygon_area(u) == pytest.approx(1.0, rel=1e-12)


def test_wulff_square_from_l1_support():
    angles = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    taus = np.abs(np.cos(angles)) + np.abs(np.sin(angles))
    poly = wulff_shape(angles, taus)
    xs = [v[0] for v in poly]
    ys = [v[1] for v in poly]
    assert max(xs) == pytest.approx(1.0, abs=1e-9)
    assert min(xs) == pytest.approx(-1.0, abs=1e-9)
    assert polygon_area(poly) == pytest.approx(4.0, rel=1e-9)
    # pi/2-rotation symmetry
    vset = {(round(x, 8), round(y, 8)) for x, y in poly}
    assert {(round(-y, 8), round(x, 8)) for x, y in poly} == vset


def test_wulff_dilation_homogeneity():
    angles, taus = _circle_table(0.9, 64)
    a1 = polygon_area(wulff_shape(angles, taus))
    a2 = polygon_area(wulff_shape(angles, 2 * taus))
    assert a2 == pytest.approx(4 * a1, rel=1e-12)


def test_wulff_rejects_nonconvex_table():
    angles, taus = _circle_table(1.0, 64)
    taus = taus.copy()
    taus[10] = 1.6          # a bump no convex body can support
    with pytest.raises(InfeasibleError):
        wulff_shape(angles, taus)
    with pytest.raises(StructureError):
        wulff_shape(angles[:8], taus[:8])
    with pytest.raises(InfeasibleError):
        wulff_shape(angles, 0 * taus)


def test_wulff_from_estimated_tension_is_convex():
    from zgff.tension import wulff_from_table
    poly = wulff_from_table(tension_table(2.0))
    assert polygon_area(poly) > 0
    # pi/2-rotation symmetry of the body built from the folded table
    vset = {(round(x, 9), round(y, 9)) for x, y in poly}
    assert {(round(-y, 9), round(x, 9)) for x, y in poly} == vset
