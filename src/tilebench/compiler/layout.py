"""Floor plan of a simulating macro-tile.

A compiled macro-tile of zoom N is an N x N arrangement with four jobs:

* carry (x, y) coordinates mod N on every edge, so any tiling cuts into
  macro-tiles in exactly one way;
* expose k payload bits per side, in shared per-axis windows: rows k..2k-1
  of the left/right borders, columns sx0+2k..sx0+3k-1 of the top/bottom
  borders (a border edge's bits are read by both adjacent macro-tiles,
  which is what makes neighbours agree);
* route those 4k bits to the bottom row of a computation zone, in input
  order [left bits, right bits, top bits, bottom bits];
* run the checking machine inside the zone, which can seal its top edge
  only once the machine has accepted.

The interchange under the zone uses rows 0..2k-1: bottom-payload lanes on
rows 0..k-1, then the shared left/right window rows k..2k-1.  Left and
right wires run along their window row to risers at the first 2k zone
columns.  A top-payload bit never turns at all: its window column *is* its
input column, so it rides straight down through the zone as an extra
component on that column's vertical edges and is consumed by the input
row from above.  A bottom-payload bit climbs to its lane row, hops k
columns right, and rises into the zone from below.  Wires cross freely
(a crossing cell carries one bit on its horizontal edges and another on
its vertical edges) but never share an edge.
"""

from __future__ import annotations

from dataclasses import dataclass

Side = str
Cell = tuple[int, int]
WireId = tuple[str, int]  # ("L"|"R"|"T"|"B", window index)


class LayoutError(ValueError):
    """The requested geometry cannot host the zone and its wiring."""


@dataclass(frozen=True)
class SimulationLayout:
    n: int
    k: int
    zone_w: int
    zone_h: int
    sx0: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise LayoutError("need at least one payload bit per side")
        if self.zone_w < 4 * self.k:
            raise LayoutError("zone narrower than its 4k input cells")
        if self.n & (self.n - 1) or self.n < 2:
            raise LayoutError(f"zoom {self.n} is not a power of two")
        if self.sx0 < 0 or self.sx0 + self.zone_w > self.n:
            raise LayoutError("zone sticks out horizontally")
        if self.zone_h < 1 or self.zy0 + self.zone_h > self.n - 1:
            raise LayoutError(
                f"zone of height {self.zone_h} does not fit above {self.zy0} "
                f"interchange rows in zoom {self.n}"
            )

    @property
    def zy0(self) -> int:
        """First zone row; rows below it form the wiring interchange."""
        return 2 * self.k

    @property
    def hwin_rows(self) -> range:
        """Rows whose left/right border edges carry payload bits."""
        return range(self.k, 2 * self.k)

    @property
    def vwin_cols(self) -> range:
        """Columns whose top/bottom border edges carry payload bits."""
        return range(self.sx0 + 2 * self.k, self.sx0 + 3 * self.k)

    def in_zone(self, i: int, j: int) -> bool:
        return (
            self.sx0 <= i < self.sx0 + self.zone_w
            and self.zy0 <= j < self.zy0 + self.zone_h
        )

    def wire_runs(self) -> dict[WireId, tuple[tuple[Cell, tuple[Side, Side]], ...]]:
        """Every wire as the cells it traverses and the two sides it touches.

        Side pairs are unordered: both named edges of the cell carry the
        wire's bit.  Border payload edges appear as the ``left`` side of
        column 0 (read rightward as a left payload, leftward from column
        N-1 as the right payload of the neighbour) and the ``bottom`` side
        of row 0 / ``top`` side of row N-1 for the vertical windows.
        """
        n, k, sx0, zy0 = self.n, self.k, self.sx0, self.zy0
        runs: dict[WireId, tuple[tuple[Cell, tuple[Side, Side]], ...]] = {}
        for r in range(k):
            row = k + r
            # left payload: along its window row, then up into input cell r
            cl = sx0 + r
            path = [((c, row), ("left", "right")) for c in range(cl)]
            path.append(((cl, row), ("left", "top")))
            path += [((cl, j), ("bottom", "top")) for j in range(row + 1, zy0)]
            runs[("L", r)] = tuple(path)
            # right payload: leftward along the same row to input cell k+r
            cr = sx0 + k + r
            path = [((c, row), ("left", "right")) for c in range(n - 1, cr, -1)]
            path.append(((cr, row), ("right", "top")))
            path += [((cr, j), ("bottom", "top")) for j in range(row + 1, zy0)]
            runs[("R", r)] = tuple(path)
            # top payload: straight down its window column into input 2k+r
            vc = self.sx0 + 2 * k + r
            path = [
                ((vc, j), ("bottom", "top"))
                for j in range(n - 1, zy0 + self.zone_h - 1, -1)
            ]
            runs[("T", r)] = tuple(path)
            # bottom payload: up to lane row r, right k columns, up into 3k+r
            cb = sx0 + 3 * k + r
            path = [((vc, j), ("bottom", "top")) for j in range(r)]
            path.append(((vc, r), ("bottom", "right")))
            path += [((c, r), ("left", "right")) for c in range(vc + 1, cb)]
            path.append(((cb, r), ("left", "top")))
            path += [((cb, j), ("bottom", "top")) for j in range(r + 1, zy0)]
            runs[("B", r)] = tuple(path)
        self._check_disjoint(runs)
        return runs

    def _check_disjoint(self, runs) -> None:
        n = self.n
        claimed: dict[tuple, WireId] = {}
        for wid, path in runs.items():
            for (i, j), sides in path:
                if self.in_zone(i, j):
                    raise LayoutError(f"wire {wid} runs through zone cell {(i, j)}")
                for side in sides:
                    if side == "left":
                        edge = ("H", i, j)
                    elif side == "right":
                        edge = ("H", (i + 1) % n, j)
                    elif side == "bottom":
                        edge = ("V", i, j)
                    else:
                        edge = ("V", i, (j + 1) % n)
                    prev = claimed.setdefault(edge, wid)
                    if prev != wid:
                        # the only legal double claims are the shared border
                        # payload edges: L/R on ("H", 0, row), T/B on ("V", c, 0)
                        axis, a, b = edge
                        pair = {prev[0], wid[0]}
                        ok = (axis == "H" and a == 0 and pair == {"L", "R"}) or (
                            axis == "V" and b == 0 and pair == {"T", "B"}
                        )
                        if not ok:
                            raise LayoutError(
                                f"wires {prev} and {wid} collide on edge {edge}"
                            )


#: Largest zoom ``plan_layout`` tries before giving up.
MAX_ZOOM = 1 << 20


def plan_layout(
    k: int, zone_w: int, zone_h: int, *, zoom: int | None = None
) -> SimulationLayout:
    """Smallest power-of-two zoom hosting the zone, or validate a given one.

    The zone needs ``zone_w`` columns, ``2k`` interchange rows below it and
    one spare row above it (the top-window transit row), so the zoom must
    be at least ``max(zone_w, 2k + zone_h + 1)``.
    """
    need = max(zone_w, 2 * k + zone_h + 1, 2)
    if zoom is None:
        zoom = 2
        while zoom < need:
            zoom *= 2
            if zoom > MAX_ZOOM:
                raise LayoutError(f"no feasible zoom up to {MAX_ZOOM}")
    sx0 = (zoom - zone_w) // 2
    return SimulationLayout(zoom, k, zone_w, zone_h, sx0)
