"""Airy function numerics: Ai and Ai' on the real line.

Method selection: Maclaurin series on |x| <= 6 (catastrophic cancellation
sets in near |x| ~ 7.5 in doubles); Poincare asymptotics for x >= 6 and
x <= -12; high-order Taylor stepping of y'' = x y from -6 on (-12, -6),
where the oscillatory asymptotics are not yet at full precision. On the
positive side the two methods are cross-checked on a band by the test suite
rather than at call time.

Every routine takes a scalar or an array and returns values of its shape;
each element follows its own stopping rule (the series stops at its own
term, the asymptotics at their own smallest term), so an array call gives
what the same routine gives one point at a time. All routines are
deterministic; omega1 (the first zero of Ai on the negative axis, reported
positive) is found by bisection on the series.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT_PI = math.sqrt(math.pi)

AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)    # Ai(0)
AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)  # Ai'(0)

SERIES_CUT = 6.0
NEG_ASYMPTOTIC_CUT = -12.0
BLOCK = 4096   # points per pass of airy(): bounds the branch temporaries


def airy_series(x):
    """Maclaurin evaluation of (Ai(x), Ai'(x)); the independent oracle for
    small arguments and the primary method on |x| <= 6."""
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


def _asymptotic_coefficients(n_max=24):
    """The u_k / v_k coefficients of the Poincare series, k < n_max."""
    us, vs = [1.0], [1.0]
    u = 1.0
    for k in range(1, n_max):
        u *= (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
        us.append(u)
        vs.append(u * (6 * k + 1) / (1 - 6 * k))
    return us, vs


_U, _V = _asymptotic_coefficients()


def _asymptotic_sums(zeta, n_sums):
    """Partial sums of sum_k (-1)^(k // n_sums) u_k / zeta^k, split by
    k mod n_sums, and the same for v_k. Each element stops before its first
    term larger than the one before (truncation at the smallest term)."""
    su = [np.zeros_like(zeta) for _ in range(n_sums)]
    sv = [np.zeros_like(zeta) for _ in range(n_sums)]
    su[0] += 1.0
    sv[0] += 1.0
    live = np.ones(zeta.shape, dtype=bool)
    prev = np.ones_like(zeta)
    for k in range(1, len(_U)):
        zk = zeta ** k
        tu = _U[k] / zk
        size = np.abs(tu)
        live &= size <= prev
        if not np.count_nonzero(live):
            break
        add = np.add if (k // n_sums) % 2 == 0 else np.subtract
        j = k % n_sums
        add(su[j], tu, out=su[j], where=live)
        add(sv[j], _V[k] / zk, out=sv[j], where=live)
        prev = size
    return su, sv


def _airy_asymptotic_pos(x):
    x = np.asarray(x, dtype=float)
    zeta = (2.0 / 3.0) * x ** 1.5
    (s,), (sp,) = _asymptotic_sums(zeta, 1)
    q = x ** 0.25
    e = np.exp(-zeta)
    ai = e / (2.0 * _SQRT_PI * q) * s
    aip = -q * e / (2.0 * _SQRT_PI) * sp
    return ai[()], aip[()]


def _airy_asymptotic_neg(x):
    x = np.asarray(x, dtype=float)
    z = -x
    zeta = (2.0 / 3.0) * z ** 1.5
    (ceven, codd), (veven, vodd) = _asymptotic_sums(zeta, 2)
    phase = zeta - math.pi / 4.0
    c, s = np.cos(phase), np.sin(phase)
    q = z ** 0.25
    ai = (c * ceven + s * codd) / (_SQRT_PI * q)
    aip = q / _SQRT_PI * (s * veven - c * vodd)
    return ai[()], aip[()]


def _taylor_step(x0, y, yp, h, n_terms=28):
    """Advance y'' = x y from x0 to x0 + h by a local Taylor series; h may be
    an array of steps from the same (x0, y, yp)."""
    c = [y, yp, x0 * y / 2.0]
    for n in range(1, n_terms - 2):
        c.append((x0 * c[n] + c[n - 1]) / ((n + 2) * (n + 1)))
    acc = 0.0
    accp = 0.0
    for n in range(len(c) - 1, -1, -1):
        acc = acc * h + c[n]
    for n in range(len(c) - 1, 0, -1):
        accp = accp * h + n * c[n]
    return acc, accp


def _airy_taylor(x, step=0.5):
    """(Ai, Ai') on (-12, -6): step y'' = x y from the series at -6 in steps
    of -step. All points share the nodes -6, -6 - step, ...; each point leaves
    the walk at the last node more than step away and takes one partial step
    (none when it is within 1e-12 of that node)."""
    x = np.asarray(x, dtype=float)
    ai = np.empty_like(x)
    aip = np.empty_like(x)
    todo = np.ones(x.shape, dtype=bool)
    x0 = -SERIES_CUT
    y, yp = (float(v) for v in airy_series(x0))
    while np.count_nonzero(todo):
        r = x - x0
        stop = todo & ~(np.abs(r) > step)
        if np.count_nonzero(stop):
            h = np.where(np.abs(r[stop]) > 1e-12, r[stop], 0.0)
            ai[stop], aip[stop] = _taylor_step(x0, y, yp, h)
            todo &= ~stop
        y, yp = _taylor_step(x0, y, yp, -step)
        x0 -= step
    return ai[()], aip[()]


def airy(x):
    """(Ai(x), Ai'(x)) with the shape of x (a scalar gives 0-d values).
    Absolute error <= 1e-10 on [-10, 10], relative error <= 1e-8 outside."""
    x = np.asarray(x, dtype=float)
    ai = np.empty(x.shape)
    aip = np.empty(x.shape)
    x_flat, ai_flat, aip_flat = x.reshape(-1), ai.reshape(-1), aip.reshape(-1)
    for lo in range(0, x.size, BLOCK):
        xb = x_flat[lo:lo + BLOCK]
        ai_b, aip_b = ai_flat[lo:lo + BLOCK], aip_flat[lo:lo + BLOCK]
        series = np.abs(xb) <= SERIES_CUT
        pos = xb > SERIES_CUT
        neg = xb <= NEG_ASYMPTOTIC_CUT
        for mask, branch in ((series, airy_series), (pos, _airy_asymptotic_pos),
                             (neg, _airy_asymptotic_neg),
                             (~(series | pos | neg), _airy_taylor)):
            if mask.any():
                ai_b[mask], aip_b[mask] = branch(xb[mask])
    return ai[()], aip[()]


def _bisect(fn, lo, hi, tol=1e-14, max_iter=200):
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("bisection bracket does not straddle a root")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0 or hi - lo < tol:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


_OMEGA1 = None
_AIP_FIRST_ZERO = None


def omega1():
    """First zero of Ai on the negative axis, as a positive number
    (bisection on the series; ~2.33810741)."""
    global _OMEGA1
    if _OMEGA1 is None:
        _OMEGA1 = _bisect(lambda t: airy_series(-t)[0], 2.0, 2.5)
    return _OMEGA1


def airy_prime_first_zero():
    """First zero of Ai' on the negative axis, positive (~1.01879297); the
    maximum of Ai sits at minus this value."""
    global _AIP_FIRST_ZERO
    if _AIP_FIRST_ZERO is None:
        _AIP_FIRST_ZERO = _bisect(lambda t: airy_series(-t)[1], 0.8, 1.2)
    return _AIP_FIRST_ZERO
