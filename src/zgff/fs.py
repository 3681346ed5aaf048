"""The stationary Ferrari-Spohn diffusion on (0, infinity).

For scale sigma > 0 put c = (2/sigma^2)^(1/3) and phi(x) = Ai(c x - omega1).
The diffusion has generator (sigma^2/2) d^2/dx^2 + sigma^2 (phi'/phi) d/dx
with Dirichlet boundary at 0; it is ergodic and reversible with respect to
the density proportional to phi(x)^2 on x > 0. The normalization is the
total of the composite Simpson sum that also gives the cached cdf (the
closed form c / Ai'(-omega1)^2 is kept as a consistency check rather than
trusted). Density, drift and cdf take a scalar or an array of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .airy import AIP_FIRST_ZERO, OMEGA1, airy
from .errors import DegenerateInputError, StructureError, check_cells

CDF_GRID_POINTS = 10_000


@dataclass
class FSModel:
    sigma: float
    omega1: float = field(init=False)
    ai_prime_at_minus_omega1: float = field(init=False)
    normalization: float = field(init=False)   # density = normalization * phi^2
    x_max: float = field(init=False)
    x_grid: np.ndarray = field(init=False, repr=False)
    pdf_grid: np.ndarray = field(init=False, repr=False)
    cdf_grid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.sigma > 0:
            raise StructureError(f"sigma must be positive, got {self.sigma}")
        try:
            c = self.scale
        except ArithmeticError:   # sigma^2 underflows to 0 or overflows
            c = math.inf
        if not 0 < c < math.inf:
            raise StructureError(f"sigma = {self.sigma} puts the scale "
                                 "(2/sigma^2)^(1/3) out of the float range")
        self.omega1 = w1 = OMEGA1
        self.ai_prime_at_minus_omega1 = airy(-w1)[1]
        # Ai(u)^2 ~ exp(-(4/3) u^(3/2)): u = 14 leaves ~1e-31 of mass outside
        self.x_max = (w1 + 14.0) / c
        self.x_grid = np.linspace(0.0, self.x_max, CDF_GRID_POINTS)
        # composite Simpson on the cached grid: its total is the normalization
        # integral, its partial sums the cdf
        h = self.x_grid[1] - self.x_grid[0]
        mids = 0.5 * (self.x_grid[:-1] + self.x_grid[1:])
        raw = airy(c * self.x_grid - w1)[0] ** 2
        raw_mid = airy(c * mids - w1)[0] ** 2
        panel = h / 6.0 * (raw[:-1] + 4.0 * raw_mid + raw[1:])
        cdf = np.concatenate([[0.0], np.cumsum(panel)])
        self.normalization = 1.0 / cdf[-1]
        self.pdf_grid = self.normalization * raw
        self.cdf_grid = np.minimum(cdf / cdf[-1], 1.0)

    @property
    def scale(self):
        return (2.0 / self.sigma ** 2) ** (1.0 / 3.0)

    def closed_form_normalization(self):
        """c / Ai'(-omega1)^2; compared against the Simpson normalization in
        tests."""
        return self.scale / self.ai_prime_at_minus_omega1 ** 2

    def mean(self):
        """Stationary mean, by the trapezoid rule on the cached grid."""
        return float(np.trapezoid(self.pdf_grid * self.x_grid, self.x_grid))

    def argmax(self):
        """Density peak: (sigma^2/2)^(1/3) (omega1 - a*), a* the first zero
        of Ai' on the negative axis."""
        return (self.omega1 - AIP_FIRST_ZERO) / self.scale


def fs_density(x, model: FSModel):
    """Stationary density, with the shape of x; zero on x <= 0 (Dirichlet
    at 0)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    ai = airy(model.scale * x[pos] - model.omega1)[0]
    out[pos] = model.normalization * ai * ai
    return out[()]


def fs_drift(x, model: FSModel):
    """sigma^2 phi'(x)/phi(x); diverges to +infinity as x -> 0+ and is
    strictly negative beyond the density argmax. Domain x > 0; takes a
    scalar or an array."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DegenerateInputError("drift is defined on x > 0 only")
    u = model.scale * x - model.omega1
    ai, aip = airy(u)
    return model.sigma ** 2 * model.scale * aip / ai


def fs_cdf(x, model: FSModel):
    x = np.asarray(x, dtype=float)
    return np.interp(x, model.x_grid, model.cdf_grid, left=0.0, right=1.0)


def fs_quantile(u, model: FSModel):
    """Monotone interpolation of the cached cdf."""
    u = np.asarray(u, dtype=float)
    return np.interp(u, model.cdf_grid, model.x_grid)


def sample_paths(model: FSModel, n_paths, n_steps, dt, x0, seed):
    """Vectorized ensemble of Euler-Maruyama paths, shape (n_paths, n_steps+1).

    The drift is evaluated through a dense table of x*drift(x) (smooth at 0,
    value sigma^2), which keeps the sampler exact to interpolation error
    while allowing ensemble steps. Needs 0 < x0 < x_max, n_steps >= 1 and
    0 < dt <= 1 / (sigma c)^2, the diffusion's own time scale (StructureError
    otherwise).
    """
    if not (x0 > 0 and dt > 0):
        raise StructureError(f"need x0 > 0 and dt > 0, got x0={x0}, dt={dt}")
    if x0 >= model.x_max:
        raise StructureError(f"x0 = {x0} is not below x_max = {model.x_max:.3g} "
                             f"of sigma = {model.sigma}")
    rate = (model.sigma * model.scale) ** 2   # 1 / the diffusion's time scale
    if dt * rate > 1:
        raise StructureError(f"dt = {dt} is longer than the time scale "
                             f"1/(sigma c)^2 = {1 / rate:.3g} of sigma = {model.sigma}")
    if n_steps < 1:
        raise StructureError(f"need n_steps >= 1, got {n_steps}")
    check_cells((n_paths, n_steps + 1), "the FS paths")
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, model.x_max * 1.5, 60_000)
    g_tab = np.empty_like(grid)
    g_tab[0] = model.sigma ** 2
    g_tab[1:] = grid[1:] * fs_drift(grid[1:], model)

    x = np.full(n_paths, float(x0))
    out = np.empty((n_paths, n_steps + 1))
    out[:, 0] = x
    sig_sqdt = model.sigma * math.sqrt(dt)
    for t in range(1, n_steps + 1):
        drift = np.interp(x, grid, g_tab) / x
        base = x + drift * dt
        xi = rng.standard_normal(n_paths)
        prop = base + sig_sqdt * xi
        bad = prop <= 0.0
        tries = 0
        while bad.any():
            xi = rng.standard_normal(int(bad.sum()))
            prop[bad] = base[bad] + sig_sqdt * xi
            bad = prop <= 0.0
            tries += 1
            if tries > 1000:
                prop[bad] = x[bad]  # freeze pathological walkers
                break
        x = prop
        out[:, t] = x
    return out


def ks_distance(samples, model: FSModel):
    """sup |empirical cdf - model cdf| in [0, 1]."""
    s = np.sort(np.asarray(samples, dtype=float).ravel())
    if s.size == 0:
        raise DegenerateInputError("empty sample")
    F = fs_cdf(s, model)
    n = s.size
    up = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(F - up), np.abs(F - lo))))


def zero_flux_residual(model: FSModel):
    """Stationarity in reversible form: (sigma^2/2) rho'(x) = drift(x) rho(x).

    Returns the max absolute residual over 200 points of [0.2, 3 argmax],
    with rho' by central differences; small residual certifies
    reversibility of the pair (drift, density).
    """
    xs = np.linspace(0.2, model.argmax() * 3.0, 200)
    h = 1e-5
    rp = (fs_density(xs + h, model) - fs_density(xs - h, model)) / (2 * h)
    resid = np.abs(0.5 * model.sigma ** 2 * rp - fs_drift(xs, model) * fs_density(xs, model))
    return float(resid.max())
