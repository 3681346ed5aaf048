"""Integer |grad phi|^p surface configurations on an L x L box.

Sites are indexed (x, y) with x the column and y the row, both in 0..L-1,
y = 0 at the bottom. The boundary ring is the width-1 layer at x or y in
{-1, L} (corners included) and is stored explicitly as a map from ring
site to height.

Geometric convention used throughout the package: site (x, y) occupies the
unit cell [x, x+1] x [y, y+1], so dual (contour) vertices live at integer
points of [0, L]^2.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from math import exp, inf

import numpy as np

from .errors import ConfigError, InvalidConstraintError, StructureError

SNAPSHOT_MAGIC = b"ZGFFSNAP"
SNAPSHOT_VERSION = 1

# The one truncation rule of conditional_tables, applied upward then downward:
# past the extreme neighbour, a side stops at the first weight below
# TRUNCATION_EPS times the running total. The |grad phi|^p tails are
# super-exponential for p > 1 and exponential for p = 1, so this guarantees
# total-variation error < 1e-12 per site update.
TRUNCATION_EPS = 1e-15


@dataclass
class ModelParams:
    """Gradient exponent, inverse temperature and constraint specs.

    p = 2 is the Discrete Gaussian, p = 1 the SOS model.
    """

    p: float = 2.0
    beta: float = 2.0
    boundary_spec: tuple = ("all", 0)
    floor_spec: object = None      # None | int | (L, L) array
    ceiling_spec: object = None

    def __post_init__(self):
        # NaN fails both range tests
        if not 1 <= self.p < inf:
            raise ConfigError(f"gradient exponent p must be finite and >= 1, got {self.p}")
        if not 0 < self.beta < inf:
            raise ConfigError(f"inverse temperature beta must be finite and > 0, "
                              f"got {self.beta}")


def ring_sites(L):
    """All boundary-ring sites of an L x L box, corners included."""
    out = []
    for x in range(-1, L + 1):
        out.append((x, -1))
        out.append((x, L))
    for y in range(0, L):
        out.append((-1, y))
        out.append((L, y))
    return out


def build_boundary(spec, L):
    """Realize a named boundary pattern as a total mapping on the ring.

    Supported specs:
      ("all", k)             -- constant height k
      ("custom", mapping)    -- explicit {site: height}, must be total
    """
    if not isinstance(spec, tuple) or not spec:
        raise ConfigError(f"boundary spec must be a nonempty tuple, got {spec!r}")
    kind = spec[0]
    if kind == "all":
        k = int(spec[1])
        return {s: k for s in ring_sites(L)}
    if kind == "custom":
        mapping = dict(spec[1])
        missing = [s for s in ring_sites(L) if s not in mapping]
        if missing:
            raise ConfigError(f"custom boundary missing {len(missing)} sites, e.g. {missing[0]}")
        return {s: int(mapping[s]) for s in ring_sites(L)}
    raise ConfigError(f"unknown boundary pattern {kind!r}")


@dataclass
class SurfaceConfig:
    """Height field on the interior plus an explicit boundary ring.

    heights[x, y] is the height of site (x, y). floor/ceiling are either
    None, an int (uniform), or an (L, L) int array of per-site bounds.
    """

    L: int
    heights: np.ndarray
    boundary: dict
    floor: object = None
    ceiling: object = None

    @classmethod
    def flat(cls, L, value=0, boundary=None, floor=None, ceiling=None):
        if boundary is None:
            boundary = build_boundary(("all", 0), L)
        h = np.full((L, L), value, dtype=np.int32)
        return cls(L=L, heights=h, boundary=boundary, floor=floor, ceiling=ceiling)

    def copy(self):
        return SurfaceConfig(self.L, self.heights.copy(), dict(self.boundary),
                             _copy_bound(self.floor), _copy_bound(self.ceiling))

    def floor_at(self, x, y):
        return _bound_at(self.floor, x, y)

    def ceiling_at(self, x, y):
        return _bound_at(self.ceiling, x, y)

    def height_at(self, x, y):
        """Height of an interior or ring site."""
        if 0 <= x < self.L and 0 <= y < self.L:
            return int(self.heights[x, y])
        try:
            return self.boundary[(x, y)]
        except KeyError:
            raise StructureError(f"missing boundary value at {(x, y)}") from None

    def neighbor_heights(self, x, y):
        return (self.height_at(x - 1, y), self.height_at(x + 1, y),
                self.height_at(x, y - 1), self.height_at(x, y + 1))

    def padded(self):
        """(L+2)^2 int64 array: the heights inside, the ring's values in the
        border, corners included (0 where the ring map has no corner)."""
        L = self.L
        g = np.zeros((L + 2, L + 2), dtype=np.int64)
        g[1:L + 1, 1:L + 1] = self.heights
        for (x, y), v in self.boundary.items():
            g[x + 1, y + 1] = v
        return g


def _copy_bound(b):
    return b.copy() if isinstance(b, np.ndarray) else b


def _bound_at(b, x, y):
    if b is None:
        return None
    if isinstance(b, np.ndarray):
        return int(b[x, y])
    return int(b)


class DiscreteDist:
    """Finite distribution on consecutive integers with cached cdf."""

    __slots__ = ("support", "probs", "cdf")

    def __init__(self, support, probs, cdf):
        self.support = support
        self.probs = probs
        self.cdf = cdf

    def prob(self, k):
        if self.support[0] <= k <= self.support[-1]:
            return self.probs[k - self.support[0]]
        return 0.0

    def quantile(self, u):
        """Right-continuous inverse cdf; monotone in u and in the law."""
        return self.support[bisect_right(self.cdf, u)]


def conditional_tables(neighbors, floor, ceiling, params: ModelParams):
    """Core of local_conditional, uncached: (support0, probs, cdf, shift),
    the law of k - shift, so a draw is support0[bisect_right(cdf, u)] + shift.
    shift is the smallest neighbour, and the row depends only on the offsets
    from it (the conditional is covariant under common shifts), so a caller
    that keeps rows keys them by those offsets."""
    if floor is not None and ceiling is not None and floor > ceiling:
        raise InvalidConstraintError(f"floor {floor} > ceiling {ceiling}")
    n = sorted(int(v) for v in neighbors)
    if len(n) != 4:
        raise StructureError("exactly four neighbor heights required")
    shift = n[0]
    n0 = [v - shift for v in n]
    lo = None if floor is None else floor - shift
    hi = None if ceiling is None else ceiling - shift
    p, beta = params.p, params.beta

    def energy(k):
        return sum(abs(k - v) ** p for v in n0)

    def clamp(k):
        if lo is not None and k < lo:
            k = lo
        if hi is not None and k > hi:
            k = hi
        return k

    def grow(m, e0):
        """Support, weights and total of the row grown from m, up then down,
        energies measured from e0; None where the weights underflow: every
        one is 0, or the rule can never stop because, past an unbounded
        extreme neighbour, the weight and TRUNCATION_EPS times the total are
        both 0."""
        def w(k):
            return exp(-beta * (energy(k) - e0))

        total = wm = w(m)
        sides = []
        for step, bound, extreme in ((1, hi, n0[3]), (-1, lo, n0[0])):
            ks, ws = [], []
            k = m + step
            while bound is None or step * (bound - k) >= 0:
                wk = w(k)
                if step * (k - extreme) > 0:
                    if wk < TRUNCATION_EPS * total:
                        break
                    if bound is None and wk == TRUNCATION_EPS * total == 0.0:
                        return None
                ks.append(k)
                ws.append(wk)
                total += wk
                k += step
            sides.append((ks, ws))
        if total == 0.0:
            return None
        (up_ks, up_ws), (down_ks, down_ws) = sides
        return down_ks[::-1] + [m] + up_ks, down_ws[::-1] + [wm] + up_ws, total

    row = grow(clamp((n0[1] + n0[2]) // 2), 0)
    if row is None:
        # the weights underflow around the neighbours' median (a bound far
        # from the neighbours): grow from the least-energy point instead,
        # which lies between the clamped extreme neighbours since the energy
        # is convex, and measure energies from it
        m = min(range(clamp(n0[0]), clamp(n0[3]) + 1), key=energy)
        row = grow(m, energy(m))
    support, weights, total = row

    probs = [x / total for x in weights]
    cdf = []
    acc = 0.0
    for x in probs:
        acc += x
        cdf.append(acc)
    cdf[-1] = 1.0
    return support, probs, cdf, shift


def local_conditional(neighbors, floor, ceiling, params: ModelParams) -> DiscreteDist:
    """Exact single-site conditional law given the four neighbor heights.

    Proportional to exp(-beta * sum_i |k - n_i|^p) restricted to
    [floor, ceiling]. The support is enumerated outward from the integer
    median of the neighbors until the per-direction added weight drops below
    TRUNCATION_EPS of the running total.
    """
    support0, probs, cdf, shift = conditional_tables(neighbors, floor, ceiling, params)
    return DiscreteDist([s + shift for s in support0], probs, cdf)


def write_snapshot(path, config: SurfaceConfig, params: ModelParams):
    """Binary snapshot: fixed header then row-major little-endian int32 heights.

    Layout (all little-endian):
      bytes 0-7   magic "ZGFFSNAP"
      uint16      format version (1)
      uint32      L
      float64     p
      float64     beta
      uint8       floor flag   (0 none, 1 uniform, 2 per-site grid appended)
      uint8       ceiling flag (same encoding)
      int32       uniform floor value    (present iff floor flag == 1)
      int32       uniform ceiling value  (present iff ceiling flag == 1)
      int32 x L^2 heights, bottom row first, each row left to right
      int32 x L^2 per-site floor grid    (present iff floor flag == 2)
      int32 x L^2 per-site ceiling grid  (present iff ceiling flag == 2)

    The boundary ring is not part of the snapshot; read_snapshot takes it
    as an argument.
    """
    def flag_of(b):
        if b is None:
            return 0
        return 2 if isinstance(b, np.ndarray) else 1

    ffl, cfl = flag_of(config.floor), flag_of(config.ceiling)
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<HIddBB", SNAPSHOT_VERSION, config.L,
                             params.p, params.beta, ffl, cfl))
        if ffl == 1:
            fh.write(struct.pack("<i", int(config.floor)))
        if cfl == 1:
            fh.write(struct.pack("<i", int(config.ceiling)))
        fh.write(np.ascontiguousarray(config.heights.T, dtype="<i4").tobytes())
        if ffl == 2:
            fh.write(np.ascontiguousarray(config.floor.T, dtype="<i4").tobytes())
        if cfl == 2:
            fh.write(np.ascontiguousarray(config.ceiling.T, dtype="<i4").tobytes())


def read_snapshot(path, boundary=None):
    """Inverse of write_snapshot. Returns (SurfaceConfig, ModelParams).

    The returned config carries an all-zero boundary unless one is supplied.
    """
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != SNAPSHOT_MAGIC:
            raise StructureError(f"bad snapshot magic {magic!r}")
        ver, L, p, beta, ffl, cfl = struct.unpack("<HIddBB", fh.read(24))
        if ver != SNAPSHOT_VERSION:
            raise StructureError(f"unsupported snapshot version {ver}")
        floor = ceiling = None
        if ffl == 1:
            floor = struct.unpack("<i", fh.read(4))[0]
        if cfl == 1:
            ceiling = struct.unpack("<i", fh.read(4))[0]
        n = L * L * 4
        heights = np.frombuffer(fh.read(n), dtype="<i4").reshape(L, L).T.astype(np.int32)
        if ffl == 2:
            floor = np.frombuffer(fh.read(n), dtype="<i4").reshape(L, L).T.astype(np.int32)
        if cfl == 2:
            ceiling = np.frombuffer(fh.read(n), dtype="<i4").reshape(L, L).T.astype(np.int32)
    if boundary is None:
        boundary = build_boundary(("all", 0), L)
    cfg = SurfaceConfig(L=L, heights=heights.copy(), boundary=boundary,
                        floor=floor, ceiling=ceiling)
    return cfg, ModelParams(p=p, beta=beta)
