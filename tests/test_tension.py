import itertools
import math

import pytest

from oracles import enumerate_directed_paths_weight
from zgff.errors import StructureError
from zgff.rw import laplace_increment_law
from zgff.tension import (DEFAULT_DIRECTIONS, estimate_tension,
                          finite_size_drift, log_partition_directed,
                          tension_closed_form, tension_table)


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
        assert abs(e.tau_l1 - tension_closed_form(beta, 0.0)) <= max(e.ci, 5e-4)


def test_tension_estimate_matches_closed_form_in_every_direction():
    # the transfer's 70/beta kernel keeps the tilted tails that off-axis
    # directions weight up; a kernel cut on the untilted walk fails here
    for beta in (1.3, 2.0, 3.0, 6.0):
        for d in DEFAULT_DIRECTIONS:
            e = estimate_tension(beta, d)
            assert abs(e.tau - tension_closed_form(beta, e.theta)) <= e.ci, (beta, d)


def test_tension_stiffness_is_the_walk_inverse_variance():
    # tau + tau'' at theta = 0 is 1 / sigma^2 of the Laplace walk: tension
    # and walk carry one sigma
    h = 1e-3
    for beta in (1.3, 2.0):
        tau = [tension_closed_form(beta, th) for th in (-h, 0.0, h)]
        stiffness = tau[1] + (tau[0] - 2 * tau[1] + tau[2]) / h ** 2
        assert stiffness == pytest.approx(
            1 / laplace_increment_law(beta).y_variance, abs=1e-5)


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
    seq = finite_size_drift(3.0)
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
