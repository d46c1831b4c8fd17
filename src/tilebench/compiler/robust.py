"""Hole-tolerant tile sets and local repair of damaged tilings.

``robustify`` replaces a tile set by its w x w pattern set: the new tiles
are the windows that occur in legal tilings, and the side colors serialize
the (w-1)-wide overlap a neighbor must agree on.  New tilings are exactly
the sliding-window views of old ones, but now every base cell is recorded
w^2 times, so knocking out a small group of pattern tiles loses nothing:
the survivors around the hole still pin down the base content underneath,
and a matching pattern tile to re-cover each lost cell always exists.

``correct_errors`` is the repair loop built on that redundancy: group the
defect cells into islands, carve out a scale-proportional neighborhood
around each island, and re-solve the carved windows against their intact
surroundings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import HOLE, Interner, PatchGrid, TileSet, verify_patch
from ..islands import Schedule, clean, make_schedule
from ..solver import MAX_NODES, MAX_SOLUTIONS, fill_template, solve
from .simulate import CompileError

Point = tuple[int, int]


@dataclass
class Robustification:
    """A pattern tile set plus the bookkeeping to move between levels."""

    tile_set: TileSet
    w: int
    patterns: tuple[tuple[tuple[int, ...], ...], ...]
    _index: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        self._index = {pat: i for i, pat in enumerate(self.patterns)}

    def pattern_id(self, pattern) -> int | None:
        return self._index.get(tuple(tuple(row) for row in pattern))


def robustify(tile_set: TileSet, w: int = 5) -> Robustification:
    """Build the w x w pattern tile set of ``tile_set``.

    A pattern is admitted when it occurs as the center of a legal
    (w+2) x (w+2) window, so every admitted pattern survives being
    surrounded - which is exactly what hole repair reads off the annulus
    around a damaged spot.  The census enumerates the w x w tilings and
    admits each one that extends: one first-solution search of the
    (w+2) x (w+2) window with the tiling pinned at its center.  More than
    ``MAX_SOLUTIONS`` w x w tilings, or a search (the census or one
    extension) that spends more than ``MAX_NODES`` nodes, raises
    InconclusiveError; a set with no legal window raises CompileError.
    """
    if w < 2:
        raise ValueError("patterns need w >= 2 to overlap")
    r = solve(tile_set, w, w, mode="enumerate", max_nodes=MAX_NODES,
              max_solutions=MAX_SOLUTIONS + 1).decided("pattern census")
    pats = []
    framed = np.full((w + 2, w + 2), HOLE, dtype=np.int32)
    for sol in r.solutions:
        framed[1:-1, 1:-1] = sol.cells
        ext = solve(tile_set, w + 2, w + 2, template=PatchGrid(w + 2, w + 2, framed), max_nodes=MAX_NODES)
        if ext.decided("a pattern's extension").status == "solved":
            pats.append(tuple(map(tuple, sol.cells.tolist())))
    if not pats:
        raise CompileError("tile set cannot tile the sampling window")
    pats.sort()
    colors = Interner()
    tiles, names = [], []
    for idx, pat in enumerate(pats):
        left = colors["h", tuple(pat[y][x] for y in range(w) for x in range(w - 1))]
        right = colors["h", tuple(pat[y][x] for y in range(w) for x in range(1, w))]
        top = colors["v", tuple(pat[y][x] for y in range(1, w) for x in range(w))]
        bottom = colors["v", tuple(pat[y][x] for y in range(w - 1) for x in range(w))]
        tiles.append((left, right, top, bottom))
        names.append(f"p{idx}")
    return Robustification(TileSet(len(colors), tiles, names), w, tuple(pats))


def lift(rob: Robustification, base_patch: PatchGrid) -> PatchGrid:
    """Sliding-window view: the pattern tiling of a hole-free base tiling."""
    w = rob.w
    W, H = base_patch.width - w + 1, base_patch.height - w + 1
    if W < 1 or H < 1:
        raise ValueError(f"base patch smaller than one {w} x {w} window")
    if base_patch.holes():
        raise ValueError("cannot lift a patch with holes")
    base = base_patch.cells.tolist()
    cells = []
    for y in range(H):
        row = []
        for x in range(W):
            pid = rob.pattern_id(tuple(r[x:x + w]) for r in base[y:y + w])
            if pid is None:
                raise ValueError(f"window at ({x}, {y}) is not an admitted pattern")
            row.append(pid)
        cells.append(row)
    return PatchGrid(W, H, cells)


def project(rob: Robustification, patch: PatchGrid) -> PatchGrid:
    """Base-level view of a pattern tiling: cell (x, y) is its window's corner."""
    corners = np.array([pat[0][0] for pat in rob.patterns] + [HOLE], dtype=np.int32)
    return PatchGrid(patch.width, patch.height, corners[patch.cells])  # HOLE (-1) reads HOLE


def check_window_robust(tile_set, outer: int, inner: int) -> str:
    """Does every tiling of the outer/inner annulus extend across the hole?

    Accepts a TileSet or a Robustification.  The hole, the centered
    inner x inner square, touches only the ring of 4 * (inner + 1) cells
    around it, so once the ring is fixed the hole and the rest of the
    annulus extend independently.  The check enumerates the tilings of the
    ring alone and fills the hole once per distinct vector of hole-facing
    colors: it tiles the inner x inner window with them as its boundary.
    Only a ring whose hole does not fill is tried outward, with one
    first-solution search of the outer window with the ring pinned and the
    hole removed.  A ring that extends outward around an unfillable hole
    makes the verdict "not_robust"; a ring that does not extend decides
    nothing.  More than ``MAX_SOLUTIONS`` ring tilings make the verdict
    "inconclusive" before any fill.  ``MAX_NODES`` bounds each search on
    its own (the ring enumeration, each fill, each outward search); a fill
    or outward search that runs out leaves the verdict "inconclusive"
    unless a later ring is "not_robust".
    """
    ts = getattr(tile_set, "tile_set", tile_set)
    if inner < 1 or outer < inner + 2:
        raise ValueError("the window must strictly contain the hole")
    h0 = (outer - inner) // 2
    lo, hi = h0 - 1, h0 + inner  # the ring around the hole
    side = range(h0, h0 + inner)
    hole = [(x, y) for y in side for x in side]
    beyond = [(x, y) for y in range(outer) for x in range(outer)
              if not (lo <= x <= hi and lo <= y <= hi)]
    rings = solve(ts, outer, outer, mask=hole + beyond, mode="enumerate",
                  max_solutions=MAX_SOLUTIONS + 1, max_nodes=MAX_NODES)
    if rings.status == "inconclusive":
        return "inconclusive"
    fills: dict[tuple, str] = {}
    verdict = "robust"
    for ring in rings.solutions:
        a = ring.cells.tolist()
        colors = (
            tuple(ts.right[a[y][lo]] for y in side),
            tuple(ts.left[a[y][hi]] for y in side),
            tuple(ts.top[a[lo][x]] for x in side),
            tuple(ts.bottom[a[hi][x]] for x in side),
        )
        fill = fills.get(colors)
        if fill is None:
            boundary = dict(zip(("left", "right", "bottom", "top"), colors))
            fill = fills[colors] = solve(ts, inner, inner, boundary=boundary,
                                         max_nodes=MAX_NODES).status
        if fill == "solved":
            continue
        out = solve(ts, outer, outer, template=ring, mask=hole, max_nodes=MAX_NODES).status
        if out == "solved" and fill == "unsatisfiable":
            return "not_robust"
        if out != "unsatisfiable":
            verdict = "inconclusive"
    return verdict


@dataclass
class CorrectionReport:
    """What a repair pass did: the result, the islands, and the blast radius."""

    patch: PatchGrid
    status: str  # "clean" | "failed"
    islands: tuple[tuple[int, frozenset[Point]], ...]
    boxes: tuple[tuple[int, int, int, int], ...]
    changed: frozenset[Point]
    failures: tuple[frozenset[Point], ...]

    @property
    def changed_fraction(self) -> float:
        return len(self.changed) / (self.patch.width * self.patch.height)


def correct_errors(
    tile_set,
    patch: PatchGrid,
    *,
    schedule: Schedule | None = None,
    c1: int = 2,
) -> CorrectionReport:
    """Repair holes and mismatches by island-local carve-and-refill.

    Defect cells (holes plus both ends of every broken adjacency) are split
    into islands; each rank-k island mandates a neighborhood reaching
    2*c1*alpha_k beyond it, which is carved to holes and re-solved against
    its intact surroundings.  Cells outside the mandated neighborhoods are
    never touched, so the changed fraction stays below the schedule's
    density bound.  Each refill is one search of at most ``MAX_NODES``
    nodes; one that runs out raises InconclusiveError.

    The status is "clean" only when the schedule cleaned every defect and
    every refill succeeded (no failures), and the repaired patch has no
    hole and verifies.  A patch mended by a failure's neighbour (a residual
    inside another island's carve) still reads "failed": the bound on the
    changed fraction rests on the schedule.  The final verify re-checks the
    refills against their surroundings rather than taking the solver's
    word for them.
    """
    if c1 < 0:
        raise ValueError("repair collar c1 must be non-negative")
    ts = getattr(tile_set, "tile_set", tile_set)
    if schedule is None:
        schedule = make_schedule(13, 1, 4)
    W, H = patch.width, patch.height
    defects: set[Point] = set(patch.holes())
    for v in verify_patch(ts, patch):
        defects.add(v.cell_a)
        defects.add(v.cell_b)
    if not defects:
        return CorrectionReport(patch, "clean", (), (), frozenset(), ())

    report = clean(defects, schedule)
    ranked = [
        (out.rank, isl) for out in report.ranks for isl in out.islands
    ]
    failures: list[frozenset[Point]] = []
    if not report.success:
        failures.append(frozenset(report.residual))

    cells = patch.cells.copy()
    boxes: list[tuple[int, int, int, int]] = []
    for rank, isl in ranked:
        r = 2 * c1 * schedule.alphas[rank - 1]
        xs = [p[0] for p in isl]
        ys = [p[1] for p in isl]
        x0, y0 = max(0, min(xs) - r), max(0, min(ys) - r)
        x1, y1 = min(W - 1, max(xs) + r), min(H - 1, max(ys) + r)
        boxes.append((x0, y0, x1, y1))
        # sub-window: the box carved to holes, plus a ring of intact context
        rx0, ry0 = max(0, x0 - 1), max(0, y0 - 1)
        rx1, ry1 = min(W - 1, x1 + 1), min(H - 1, y1 + 1)
        sub = cells[ry0:ry1 + 1, rx0:rx1 + 1].copy()
        sub[y0 - ry0:y1 - ry0 + 1, x0 - rx0:x1 - rx0 + 1] = HOLE
        filled = fill_template(ts, PatchGrid(rx1 - rx0 + 1, ry1 - ry0 + 1, sub),
                               max_nodes=MAX_NODES)
        if filled is None:
            failures.append(isl)
            continue
        cells[ry0:ry1 + 1, rx0:rx1 + 1] = filled.cells

    fixed = PatchGrid(W, H, cells)
    changed = frozenset((x, y) for y, x in np.argwhere(fixed.cells != patch.cells).tolist())
    ok = (
        not failures
        and not fixed.holes()
        and not verify_patch(ts, fixed)
    )
    return CorrectionReport(
        fixed,
        "clean" if ok else "failed",
        tuple(ranked),
        tuple(boxes),
        changed,
        tuple(failures),
    )
