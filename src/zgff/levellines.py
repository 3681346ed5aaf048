"""Level-line extraction on the dual lattice.

The h level-line set of a configuration is the set of bonds dual to
nearest-neighbor edges (u, v) with phi_u < h <= phi_v, including edges into
the boundary ring. With sites as unit cells, dual vertices (corners) are the
integer points of [0, L]^2. A bond is encoded (a, b, 'h') for the segment
(a, b)-(a+1, b) or (a, b, 'v') for (a, b)-(a, b+1).

Corners of degree 4 (the four cells around them alternate high/low) are
resolved by the northeast rule: the two strands are split apart along the
northeast diagonal, i.e. the bond arriving from the west joins the one
leaving north, and the east bond joins the south one. Equivalently, cells
at or above h stay *-connected across a northeast-diagonal contact and the
low cells on the other diagonal are shielded. Only degrees 0, 2, 4 occur
for a fixed level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, StructureError
from .surface import SurfaceConfig


@dataclass
class LevelLoop:
    """A closed non-self-crossing circuit of dual bonds at one level."""

    level: int
    bonds: list                 # [(a, b, 'h'|'v'), ...] in traversal order
    length: int
    interior_area: int
    macroscopic: bool
    _row_intervals: dict = field(default=None, repr=False)

    def interior_cells(self):
        """Set of cells (sites) enclosed, by even-odd ray casting per row."""
        cells = set()
        for b, intervals in self.row_intervals().items():
            for a0, a1 in intervals:
                for x in range(a0, a1):
                    cells.add((x, b))
        return cells

    def row_intervals(self):
        """Per cell-row b, the [a0, a1) column intervals of interior cells.

        A cell (x, b) is interior iff an odd number of the loop's vertical
        bonds (a, b, 'v') lie at a <= x, so the sorted a's pair up into
        half-open intervals. Integer exact.
        """
        if self._row_intervals is None:
            rows = {}
            for (a, b, d) in self.bonds:
                if d == "v":
                    rows.setdefault(b, []).append(a)
            out = {}
            for b, alist in rows.items():
                alist.sort()
                out[b] = [(alist[i], alist[i + 1]) for i in range(0, len(alist), 2)]
            self._row_intervals = out
        return self._row_intervals

    def contains_loop(self, other: "LevelLoop"):
        return other.interior_cells() <= self.interior_cells()

    def column_hits(self, c):
        """Sorted y-coordinates at which the loop meets the vertical line
        x = c, by the rule of _column_hits."""
        return sorted(_column_hits(self.bonds, (c,))[c])


def _column_hits(bonds, columns):
    """{c: set of y} for each c in columns: the corner points (c, y) of the
    loop's bonds, in one pass. A vertical bond (c, b) contributes both
    endpoints b and b + 1; a horizontal bond (a, b) contributes b to
    columns a and a + 1."""
    hits = {c: set() for c in columns}
    for a, b, d in bonds:
        if d == "v":
            if a in hits:
                hits[a].update((b, b + 1))
        else:
            if a in hits:
                hits[a].add(b)
            if a + 1 in hits:
                hits[a + 1].add(b)
    return hits


def macroscopic_threshold(L):
    """Loops at least log^2 L long are macroscopic (natural log)."""
    return math.log(L) ** 2


# Bond slots around a corner: W/E horizontal, S/N vertical, as bits 0-3 of
# the corner's slot mask. Leaving corner (a, b) by a slot walks bond
# (a + da, b + db, d) to corner (a + na, b + nb), which the line enters by
# the opposite slot.
_SLOTS = ("W", "E", "S", "N")
_MOVES = {"W": (-1, 0, "h", -1, 0, "E"), "E": (0, 0, "h", 1, 0, "W"),
          "S": (0, -1, "v", 0, -1, "N"), "N": (0, 0, "v", 0, 1, "S")}
_NE_PAIR = {"W": "N", "N": "W", "E": "S", "S": "E"}


def _corner_slots(config: SurfaceConfig, h):
    """(L+1, L+1) array of slot masks: bit i of [a, b] is set when the level-h
    bond in slot _SLOTS[i] of corner (a, b) is in the disagreement set.

    StructureError names the raster-first odd-degree corner, found on the
    border exactly where two adjacent ring sites straddle the level; an inner
    corner touches four cells, so its degree is even."""
    L = config.L
    hi = config.padded() >= h
    horiz = np.zeros((L + 2, L + 1), dtype=np.uint8)   # [a + 1, b]: (a, b, 'h')
    horiz[1:L + 1] = hi[1:L + 1, :-1] != hi[1:L + 1, 1:]
    vert = np.zeros((L + 1, L + 2), dtype=np.uint8)    # [a, b + 1]: (a, b, 'v')
    vert[:, 1:L + 1] = hi[:-1, 1:L + 1] != hi[1:, 1:L + 1]
    slots = horiz[:-1] | horiz[1:] << 1 | vert[:, :-1] << 2 | vert[:, 1:] << 3
    odd = sorted([(a, b) for a in (0, L) for b in np.flatnonzero(_ODD[slots[a]]).tolist()]
                 + [(a, b) for b in (0, L) for a in np.flatnonzero(_ODD[slots[:, b]]).tolist()])
    if odd:
        raise StructureError(f"corner {odd[0]} has degree "
                             f"{bin(int(slots[odd[0]])).count('1')}")
    return slots


def _exit_table():
    """Per slot mask, entry slot -> exit slot: the other bond at a degree-2
    corner, the northeast pairing at a degree-4 one."""
    table = []
    for mask in range(16):
        live = [s for i, s in enumerate(_SLOTS) if mask >> i & 1]
        if len(live) == 4:
            table.append(dict(_NE_PAIR))
        else:
            table.append({s: t for s in live for t in live if t != s})
    return table


_EXIT = _exit_table()
_ODD = np.array([bin(m).count("1") % 2 for m in range(16)], dtype=bool)


def _trace(slots, start):
    """Bonds of the level line through bond `start`, walked from its
    lower-left endpoint; slots[a][b] is the slot mask of corner (a, b)."""
    a, b, d = start
    if d == "h":
        a, entry = a + 1, "W"
    else:
        b, entry = b + 1, "S"
    bonds = [start]
    while True:
        da, db, d, na, nb, nxt_entry = _MOVES[_EXIT[slots[a][b]][entry]]
        bond = (a + da, b + db, d)
        if bond == start:
            return bonds
        bonds.append(bond)
        a, b, entry = a + na, b + nb, nxt_entry


def _make_loop(h, bonds, thresh):
    loop = LevelLoop(level=h, bonds=bonds, length=len(bonds),
                     interior_area=0, macroscopic=len(bonds) >= thresh)
    loop.interior_area = sum(a1 - a0 for iv in loop.row_intervals().values()
                             for a0, a1 in iv)
    return loop


def extract_level_lines(config: SurfaceConfig, h):
    """All level-h loops of a configuration, northeast splitting applied.

    Returns a list of LevelLoop whose bond sets partition the disagreement
    dual set for level h.
    """
    slots = _corner_slots(config, h)
    # each bond once: as the E slot (h) or the N slot (v) of its corner
    ha, hb = np.nonzero(slots & 2)
    va, vb = np.nonzero(slots & 8)
    ordered = sorted([(a, b, "h") for a, b in zip(ha.tolist(), hb.tolist())]
                     + [(a, b, "v") for a, b in zip(va.tolist(), vb.tolist())])
    slots = slots.tolist()
    thresh = macroscopic_threshold(config.L)
    unused = set(ordered)
    loops = []
    for start in ordered:
        if start in unused:
            loop_bonds = _trace(slots, start)
            unused.difference_update(loop_bonds)
            loops.append(_make_loop(h, loop_bonds, thresh))
    return loops


def top_level_loop(config: SurfaceConfig, h):
    """The largest macroscopic level-h loop crossing the centre cell column
    x = L // 2 (ties to the lowest crossing), or None.

    The loop through each of the column's crossings, upwards from b = 0, is
    traced unless already traced. The first enclosing more than L^2 / 2
    cells is the largest loop of the level: any such loop crosses the
    column, and a loop enclosing it is met lower down.
    """
    L, c = config.L, config.L // 2
    slots = _corner_slots(config, h)
    thresh = macroscopic_threshold(L)
    traced, macro = set(), []
    for b in np.flatnonzero(slots[c] & 2).tolist():
        if b in traced:
            continue
        loop = _make_loop(h, _trace(slots, (c, b, "h")), thresh)
        if 2 * loop.interior_area > L * L:
            return loop
        traced.update(bb for a, bb, d in loop.bonds if d == "h" and a == c)
        if loop.macroscopic:
            macro.append(loop)
    return max(macro, key=lambda lp: lp.interior_area, default=None)


def enclosed_region(config: SurfaceConfig, h):
    """Cells enclosed by an odd number of level-h loops: cell (x, b) is
    enclosed when an odd number of the vertical bonds (a, b, 'v') lie at
    a <= x, i.e. N slots of corners (a, b). With a ring below h this is
    exactly {phi >= h}; used for the monotone-containment check."""
    L = config.L
    slots = _corner_slots(config, h)
    xs, bs = np.nonzero(np.cumsum(slots[:L, :L] >> 3 & 1, axis=0) & 1)
    return set(zip(xs.tolist(), bs.tolist()))


def nesting_report(config: SurfaceConfig):
    """Per level 0, ..., top height + 2: loop counts, macroscopic counts and
    uniqueness, and the area of the top loop (top_level_loop; a level
    without one gets no top_area); plus whether the top loops of
    consecutive levels are nested by containment.

    Violations are reported, not fatal.
    """
    per_level = []
    top_loops = {}
    for h in range(0, int(config.heights.max()) + 3):
        loops = extract_level_lines(config, h)
        n_macro = sum(lp.macroscopic for lp in loops)
        entry = {
            "level": h,
            "n_loops": len(loops),
            "n_macroscopic": n_macro,
            "unique_macroscopic": n_macro == 1,
        }
        top = top_level_loop(config, h)
        if top is not None:
            entry["top_area"] = top.interior_area
            top_loops[h] = top
        per_level.append(entry)
    nested = True
    pairs = []
    hs = sorted(top_loops)
    for h1, h2 in zip(hs, hs[1:]):
        if h2 != h1 + 1:
            continue
        ok = top_loops[h1].contains_loop(top_loops[h2])
        pairs.append((h1, h2, ok))
        nested &= ok
    return {"levels": per_level, "nested": nested, "nesting_pairs": pairs}


def profile(loop: LevelLoop, N_n, L):
    """The loop's top-line read-out over the 2W + 1 columns around the centre
    column L // 2, W = ceil(K N_n^(2/3)) with K = min(1, (L/2 - 1) / N_n^(2/3))
    keeping the window inside the box.

    Returns (t, rho, rho_bar, Y) per column offset x in [-W, W]:
    t = x / N_n^(2/3), rho(x) = min{y >= 0 : (L/2 + x, y) in loop}, rho_bar(x)
    the largest such y <= L/2, and Y = rho / N_n^(1/3). NaN marks a column
    the loop misses (flagged, not interpolated); rho_bar is also NaN where
    every hit lies above L/2. Raises CoverageError if the loop misses the
    whole window.
    """
    span = N_n ** (2.0 / 3.0)
    W = int(math.ceil(min(1.0, (L / 2 - 1) / span) * span))
    center = L // 2
    xs = np.arange(-W, W + 1)
    rho = np.full(xs.shape, np.nan)
    rho_bar = np.full(xs.shape, np.nan)
    half = L / 2.0
    hits = _column_hits(loop.bonds, range(center - W, center + W + 1))
    for c, ys in hits.items():
        if not ys:
            continue
        j = c - center + W
        rho[j] = min(ys)
        below = [y for y in ys if y <= half]
        rho_bar[j] = max(below) if below else np.nan
    if np.isnan(rho).all():
        raise CoverageError("loop misses the entire measurement interval")
    return xs / span, rho, rho_bar, rho / N_n ** (1.0 / 3.0)


def loops_to_records(loops):
    """JSON-ready records for loop export."""
    return [{"level": lp.level, "length": lp.length, "area": lp.interior_area,
             "macroscopic": bool(lp.macroscopic),
             "bonds": [[int(a), int(b), d] for (a, b, d) in lp.bonds]}
            for lp in loops]
