"""Surface tension of the directed polymer ensemble.

The tension is minus the per-unit-L1-length exponential rate of the polymer
partition function between two points. The estimator here evaluates that
partition function by a transfer recursion over column states for the
truncated ensemble: simple x-monotone paths with unit gradients and all
cluster decorations zero (higher gradients and backtracking blobs cost at
least e^(-2 beta) each and sit below the resolution of every consumer).
Under this truncation the estimate does not depend on the level index n or
the gradient exponent p, so neither is an input.

A path from (0,0) to (M, Y) is M horizontal bonds plus one free vertical run
per column 0..M, so exp(beta M) Z(M, Y) is the (M+1)-fold convolution of the
discrete Laplace kernel exp(-beta |r|) evaluated at Y, and the tension is a
Legendre transform in closed form. The finite-size form
log Z = -tau * l1 - (1/2) log M + O(1) (the local-CLT prefactor) is used for
extrapolation and checked as an invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, StructureError


def log_partition_directed(M, Y, beta):
    """log Z(M, Y) for the truncated ensemble: M + 1 convolutions of the run
    kernel, cut at |r| <= 70/beta (tail weight e^-70), on a window of
    |Y| + 70/beta + 2 sites either side of the origin. Both cuts only drop
    paths, so the value is a lower bound, not exact."""
    if M < 1:
        raise StructureError("need at least one column step")
    # Not rw.laplace_increment_law's kernel, cut at 1e-15 of the untilted
    # walk: off-axis endpoints tilt every run by z up to 1/t and lift that
    # tail. With it, estimate_tension at beta = 6 missed the closed form by
    # 1.3e-2 in direction (1, 1) against a CI of 1.1e-4, and log Z(96, 84)
    # at beta = 8 was off by 2.5.
    w = int(math.ceil(70.0 / beta)) + 1
    R = abs(Y) + w + 2
    kernel = np.exp(-beta * np.abs(np.arange(-w, w + 1, dtype=float)))
    v = np.zeros(2 * R + 1)
    v[R] = 1.0
    log_scale = 0.0
    for _ in range(M + 1):
        v = np.convolve(v, kernel, mode="same")
        m = v.max()
        v /= m
        log_scale += math.log(m)
    val = v[R + Y]
    if val <= 0:
        raise InfeasibleError("partition value underflow; increase kernel width")
    return -beta * M + log_scale + math.log(val)


def tension_closed_form(beta, theta):
    """Exact tau(theta) of the truncated ensemble, per unit Euclidean length:
    cos theta times beta - log coth(beta/2) plus the Legendre transform, at
    slope s = tan theta, of the run law's log-mgf
    log((1-t)^2 / ((1 - t z)(1 - t/z))), t = e^-beta, z = e^l. The optimal z
    is the positive root of t(1+s) z^2 - s(1+t^2) z - t(1-s) = 0."""
    th = _fold_angle(theta)
    t = math.exp(-beta)
    s = math.tan(th)
    a, b = t * (1.0 + s), s * (1.0 + t * t)
    z = (b + math.sqrt(b * b + 4.0 * a * t * (1.0 - s))) / (2.0 * a)
    mgf = (1.0 - t) ** 2 / ((1.0 - t * z) * (1.0 - t / z))
    return math.cos(th) * (beta - math.log((1.0 + t) / (1.0 - t))
                           + s * math.log(z) - math.log(mgf))


@dataclass
class TensionEntry:
    theta: float
    tau: float          # per unit Euclidean length
    tau_l1: float       # per unit L1 length
    ci: float
    sizes: tuple
    direction: tuple    # primitive (q, r) with the transfer applied natively


@dataclass
class TensionTable:
    beta: float
    entries: list = field(default_factory=list)

    def tau_of_theta(self, theta):
        """Periodic interpolation of tau (Euclidean normalization) using the
        dihedral symmetry of the lattice."""
        th = _fold_angle(theta)
        grid = [(e.theta, e.tau) for e in self.entries]
        grid.sort()
        ts = [g[0] for g in grid]
        vs = [g[1] for g in grid]
        if th <= ts[0]:
            return vs[0]
        if th >= ts[-1]:
            return vs[-1]
        j = np.searchsorted(ts, th)
        t0, t1 = ts[j - 1], ts[j]
        lam = (th - t0) / (t1 - t0)
        return (1 - lam) * vs[j - 1] + lam * vs[j]


def _fold_angle(theta):
    """Fold an angle into [0, pi/4] by the dihedral symmetries."""
    th = math.fmod(theta, math.pi / 2.0)
    if th < 0:
        th += math.pi / 2.0
    if th > math.pi / 4.0:
        th = math.pi / 2.0 - th
    return th


def estimate_tension(beta, direction):
    """Tension in one direction from the exact transfer, with a finite-size
    fit z_k = tau * l1_k + C + D / k (z_k = -log Z - 0.5 log M).

    direction: primitive integer (q, r) with 0 <= r <= q (fold first for
    other angles). The transfer runs k multiples of it, k from hi // 4
    (at least 2) to hi = max(4, round(96 / q)) in steps of max(1, hi // 6):
    3 to 10 sizes for every q, at least the three the fit needs.
    """
    q, r = direction
    if not (0 <= r <= q and q >= 1):
        raise StructureError("direction must satisfy 0 <= r <= q, q >= 1")
    hi = max(4, int(round(96 / q)))
    sizes = range(max(2, hi // 4), hi + 1, max(1, hi // 6))
    zs = []
    l1s = []
    for k in sizes:
        M, Y = q * k, r * k
        z = -log_partition_directed(M, Y, beta) - 0.5 * math.log(M)
        zs.append(z)
        l1s.append(M + abs(Y))
    zs = np.asarray(zs)
    l1s = np.asarray(l1s, dtype=float)
    # last step slope, with a Richardson pair (slope ~ tau + c/M) giving the
    # uncertainty bracket
    s_last = (zs[-1] - zs[-2]) / (l1s[-1] - l1s[-2])
    s_prev = (zs[-2] - zs[-3]) / (l1s[-2] - l1s[-3])
    m_last = 0.5 * (l1s[-1] + l1s[-2])
    m_prev = 0.5 * (l1s[-2] + l1s[-3])
    rich = (m_last * s_last - m_prev * s_prev) / (m_last - m_prev)
    tau_l1 = float(s_last)
    ci = float(abs(rich - s_last) + abs(s_last - s_prev))
    theta = math.atan2(r, q)
    scale = (abs(math.cos(theta)) + abs(math.sin(theta)))
    return TensionEntry(theta=theta, tau=tau_l1 * scale, tau_l1=tau_l1,
                        ci=ci, sizes=tuple(sizes), direction=(q, r))


DEFAULT_DIRECTIONS = ((1, 0), (8, 1), (6, 1), (4, 1), (3, 1), (8, 3),
                      (2, 1), (5, 3), (4, 3), (8, 7), (1, 1))


def tension_table(beta):
    """estimate_tension at beta in each of DEFAULT_DIRECTIONS."""
    return TensionTable(beta=beta, entries=[estimate_tension(beta, d)
                                            for d in DEFAULT_DIRECTIONS])


def finite_size_drift(beta):
    """The sequence log Z + tau M + 0.5 log M along the axis, M = 4, 8, ...,
    64, with tau from the closed form; its spread being O(1)-bounded is the
    finite-size invariant."""
    tau = tension_closed_form(beta, 0.0)
    return np.asarray([log_partition_directed(M, 0, beta) + tau * M
                       + 0.5 * math.log(M) for M in range(4, 65, 4)])
