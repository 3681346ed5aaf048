"""Airy function numerics: Ai and Ai' on x >= -6, the domain of the
Ferrari-Spohn model.

The FS density is Ai(c x - omega1)^2 on x > 0, so its arguments start at
-omega1 ~ -2.34; the drift table runs to about 22. Two branches cover the
domain: the Maclaurin series on [-6, 6] (catastrophic cancellation sets in
near |x| ~ 7.5 in doubles) and the Poincare asymptotics above 6. The test
suite cross-checks the two on a band rather than at call time. An argument
below -6 raises DegenerateInputError.

Every routine takes a scalar or an array and returns values of its shape;
each element follows its own stopping rule (the series stops at its own
term, the asymptotics at their own smallest term), so an array call gives
what the same routine gives one point at a time. All routines are
deterministic. OMEGA1 and AIP_FIRST_ZERO are the first zeros of Ai and Ai'
on the negative axis, reported positive: the floats at which airy_series
changes sign.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError

_SQRT_PI = math.sqrt(math.pi)

AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)    # Ai(0)
AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)  # Ai'(0)
OMEGA1 = 2.3381074104597666          # Ai(-OMEGA1) = 0
AIP_FIRST_ZERO = 1.0187929716474706  # Ai'(-AIP_FIRST_ZERO) = 0, the peak of Ai

SERIES_CUT = 6.0
BLOCK = 4096   # points per pass of airy(): bounds the branch temporaries


def airy_series(x):
    """Maclaurin evaluation of (Ai(x), Ai'(x)); the independent oracle for
    small arguments and the primary method on [-6, 6]."""
    # y'' = x y gives a_{n+3} = a_n / ((n+3)(n+2)); f has a_0 = 1 and g has
    # a_1 = 1. Both run in one pass, f on the first n slots and g on the last
    # n: term t_k = t_{k-1} x^3 / (m (m-1)) with m = 3k + a (a = 0 for f, 1
    # for g) adds m t_k / x to the derivative. An element stops once its term
    # is below 1e-18 (|sum| + 1) past k = 3.
    x = np.asarray(x, dtype=float)
    n = x.size
    xs = np.concatenate([x.ravel(), x.ravel()])
    a = np.repeat([0, 1], n)
    t = np.where(a == 0, 1.0, xs)
    s = t.copy()
    sp = a.astype(float)
    x3 = xs * xs * xs
    xd = np.where(xs != 0.0, xs, 1.0)    # at x = 0 every term past the first is 0
    idx = np.arange(2 * n)
    s_out = np.empty(2 * n)
    sp_out = np.empty(2 * n)
    k = 0
    while idx.size:
        k += 1
        m = 3 * k + a
        t *= x3 / (m * (m - 1))
        s += t
        sp += m * t / xd
        if k <= 3:
            continue
        done = np.abs(t) < 1e-18 * (np.abs(s) + 1.0)
        if k > 200:
            done[:] = True
        if np.count_nonzero(done):
            s_out[idx[done]] = s[done]
            sp_out[idx[done]] = sp[done]
            go = ~done
            idx, a, t, s, sp, x3, xd = (v[go] for v in (idx, a, t, s, sp, x3, xd))
    ai = AI0 * s_out[:n] + AIP0 * s_out[n:]
    aip = AI0 * sp_out[:n] + AIP0 * sp_out[n:]
    return ai.reshape(x.shape)[()], aip.reshape(x.shape)[()]


def _asymptotic_coefficients():
    """The u_k / v_k coefficients of the Poincare series, k < 24."""
    us, vs = [1.0], [1.0]
    u = 1.0
    for k in range(1, 24):
        u *= (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
        us.append(u)
        vs.append(u * (6 * k + 1) / (1 - 6 * k))
    return us, vs


_U, _V = _asymptotic_coefficients()


def _airy_asymptotic_pos(x):
    """Poincare asymptotics of (Ai(x), Ai'(x)) for large positive x: the
    sums of (-1)^k u_k / zeta^k and (-1)^k v_k / zeta^k, zeta = (2/3) x^1.5,
    each element stopping before its first term larger than the one before
    (truncation at the smallest term)."""
    x = np.asarray(x, dtype=float)
    zeta = (2.0 / 3.0) * x ** 1.5
    s = np.ones_like(zeta)
    sp = np.ones_like(zeta)
    live = np.ones(zeta.shape, dtype=bool)
    prev = np.ones_like(zeta)
    for k in range(1, len(_U)):
        zk = zeta ** k
        tu = _U[k] / zk
        size = np.abs(tu)
        live &= size <= prev
        if not np.count_nonzero(live):
            break
        add = np.subtract if k % 2 else np.add
        add(s, tu, out=s, where=live)
        add(sp, _V[k] / zk, out=sp, where=live)
        prev = size
    q = x ** 0.25
    e = np.exp(-zeta)
    ai = e / (2.0 * _SQRT_PI * q) * s
    aip = -q * e / (2.0 * _SQRT_PI) * sp
    return ai[()], aip[()]


def airy(x):
    """(Ai(x), Ai'(x)) with the shape of x (a scalar gives 0-d values).
    Absolute error <= 1e-10 on [-6, 10], relative error <= 1e-8 above 10.
    Raises DegenerateInputError unless every x >= -6."""
    x = np.asarray(x, dtype=float)
    if not np.all(x >= -SERIES_CUT):
        raise DegenerateInputError("airy is evaluated on x >= -6 only")
    ai = np.empty(x.shape)
    aip = np.empty(x.shape)
    x_flat, ai_flat, aip_flat = x.reshape(-1), ai.reshape(-1), aip.reshape(-1)
    for lo in range(0, x.size, BLOCK):
        xb = x_flat[lo:lo + BLOCK]
        ai_b, aip_b = ai_flat[lo:lo + BLOCK], aip_flat[lo:lo + BLOCK]
        series = xb <= SERIES_CUT
        for mask, branch in ((series, airy_series), (~series, _airy_asymptotic_pos)):
            if mask.any():
                ai_b[mask], aip_b[mask] = branch(xb[mask])
    return ai[()], aip[()]
