"""Airy function numerics: Ai and Ai' on the real line.

Method selection: Maclaurin series on |x| <= 6 (catastrophic cancellation
sets in near |x| ~ 7.5 in doubles); Poincare asymptotics for x >= 6 and
x <= -12; high-order Taylor stepping of y'' = x y from -6 on (-12, -6),
where the oscillatory asymptotics are not yet at full precision. On the
positive side the two methods are cross-checked on a band at import of the
test suite rather than at call time.

All routines are scalar and deterministic; omega1 (the first zero of Ai on
the negative axis, reported positive) is found by bisection on the series.
"""

from __future__ import annotations

import math

_SQRT_PI = math.sqrt(math.pi)

AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)    # Ai(0)
AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)  # Ai'(0)

SERIES_CUT = 6.0
NEG_ASYMPTOTIC_CUT = -12.0


def airy_series(x):
    """Maclaurin evaluation of (Ai(x), Ai'(x)); the independent oracle for
    small arguments and the primary method on |x| <= 6."""
    # y'' = x y gives a_{n+3} = a_n / ((n+3)(n+2)); f has a_0 = 1, g has a_1 = 1.
    f = fp = None
    x3 = x * x * x
    # f(x) = sum t_k, t_k ~ x^{3k}; f'(x) = sum 3k t_k / x
    t = 1.0
    f = t
    fp = 0.0
    k = 0
    while True:
        k += 1
        t *= x3 / ((3 * k) * (3 * k - 1))
        f += t
        fp += 3 * k * t / x if x != 0.0 else 0.0
        if abs(t) < 1e-18 * (abs(f) + 1.0) and k > 3:
            break
        if k > 200:
            break
    s = x
    g = s
    gp = 1.0
    k = 0
    while True:
        k += 1
        s *= x3 / ((3 * k + 1) * (3 * k))
        g += s
        gp += (3 * k + 1) * s / x if x != 0.0 else 0.0
        if abs(s) < 1e-18 * (abs(g) + 1.0) and k > 3:
            break
        if k > 200:
            break
    ai = AI0 * f + AIP0 * g
    aip = AI0 * fp + AIP0 * gp
    return ai, aip


def _asymptotic_u_terms(zeta, n_max=24):
    """Partial sums of the u_k / v_k asymptotic series at argument zeta,
    truncated at the smallest term (alternating signs applied by caller)."""
    u = 1.0
    terms_u = [1.0]
    terms_v = [1.0]
    for k in range(1, n_max):
        u *= (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
        v = u * (6 * k + 1) / (1 - 6 * k)
        tu = u / zeta ** k
        if abs(tu) > abs(terms_u[-1]):
            break
        terms_u.append(tu)
        terms_v.append(v / zeta ** k)
    return terms_u, terms_v


def _airy_asymptotic_pos(x):
    zeta = (2.0 / 3.0) * x ** 1.5
    tu, tv = _asymptotic_u_terms(zeta)
    s = sum((-1) ** k * t for k, t in enumerate(tu))
    sp = sum((-1) ** k * t for k, t in enumerate(tv))
    pref = math.exp(-zeta) / (2.0 * _SQRT_PI * x ** 0.25)
    ai = pref * s
    aip = -(x ** 0.25) * math.exp(-zeta) / (2.0 * _SQRT_PI) * sp
    return ai, aip


def _airy_asymptotic_neg(x):
    z = -x
    zeta = (2.0 / 3.0) * z ** 1.5
    tu, tv = _asymptotic_u_terms(zeta)
    ceven = sum((-1) ** k * t for k, t in zip(range(len(tu[::2])), tu[::2]))
    codd = sum((-1) ** k * t for k, t in zip(range(len(tu[1::2])), tu[1::2]))
    veven = sum((-1) ** k * t for k, t in zip(range(len(tv[::2])), tv[::2]))
    vodd = sum((-1) ** k * t for k, t in zip(range(len(tv[1::2])), tv[1::2]))
    phase = zeta - math.pi / 4.0
    c, s = math.cos(phase), math.sin(phase)
    ai = (c * ceven + s * codd) / (_SQRT_PI * z ** 0.25)
    aip = (z ** 0.25) / _SQRT_PI * (s * veven - c * vodd)
    return ai, aip


def _taylor_step(x0, y, yp, h, n_terms=28):
    """Advance y'' = x y from x0 to x0 + h by a local Taylor series."""
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


def _airy_taylor_from(x_start, x_target, step=0.5):
    y, yp = airy_series(x_start)
    x = x_start
    h = -step if x_target < x_start else step
    while abs(x_target - x) > 1e-12:
        hh = h if abs(x_target - x) > abs(h) else (x_target - x)
        y, yp = _taylor_step(x, y, yp, hh)
        x += hh
    return y, yp


def airy(x):
    """(Ai(x), Ai'(x)). Absolute error <= 1e-10 on [-10, 10], relative error
    <= 1e-8 outside."""
    x = float(x)
    if abs(x) <= SERIES_CUT:
        return airy_series(x)
    if x > SERIES_CUT:
        return _airy_asymptotic_pos(x)
    if x <= NEG_ASYMPTOTIC_CUT:
        return _airy_asymptotic_neg(x)
    return _airy_taylor_from(-SERIES_CUT, x)


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
