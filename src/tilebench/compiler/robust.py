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

from ..core import HOLE, PatchGrid, Tile, TileSet, verify_patch
from ..islands import Schedule, clean, make_schedule
from ..solver import InconclusiveError, fill_template, solve

Point = tuple[int, int]


@dataclass
class Robustification:
    """A pattern tile set plus the bookkeeping to move between levels."""

    tile_set: TileSet
    base: TileSet
    w: int
    patterns: tuple[tuple[tuple[int, ...], ...], ...]
    _index: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        self._index = {pat: i for i, pat in enumerate(self.patterns)}

    def pattern_id(self, pattern) -> int | None:
        return self._index.get(tuple(tuple(row) for row in pattern))


def robustify(
    tile_set: TileSet,
    w: int = 5,
    *,
    max_solutions: int = 4096,
    max_nodes: int = 2_000_000,
) -> Robustification:
    """Build the w x w pattern tile set of ``tile_set``.

    A pattern is admitted when it occurs as the center of a legal
    (w+2) x (w+2) window, so every admitted pattern survives being
    surrounded - which is exactly what hole repair reads off the annulus
    around a damaged spot.  More than ``max_solutions`` windows, or a
    search that hits ``max_nodes``, raises InconclusiveError.
    """
    if w < 2:
        raise ValueError("patterns need w >= 2 to overlap")
    r = solve(
        tile_set,
        w + 2,
        w + 2,
        mode="enumerate",
        max_nodes=max_nodes,
        max_solutions=max_solutions + 1,
    )
    if r.status == "inconclusive":
        raise InconclusiveError(
            f"pattern census hit its budget ({r.count} windows, {r.nodes} nodes)"
        )
    if not r.solutions:
        raise ValueError("tile set cannot tile the sampling window")
    pats = sorted(
        {
            tuple(tuple(sol.cells[y][x] for x in range(1, w + 1)) for y in range(1, w + 1))
            for sol in r.solutions
        }
    )
    intern: dict[tuple, int] = {}

    def cid(key: tuple) -> int:
        v = intern.get(key)
        if v is None:
            v = intern[key] = len(intern)
        return v

    tiles, names = [], []
    for idx, pat in enumerate(pats):
        left = cid(("h", tuple(pat[y][x] for y in range(w) for x in range(w - 1))))
        right = cid(("h", tuple(pat[y][x] for y in range(w) for x in range(1, w))))
        top = cid(("v", tuple(pat[y][x] for y in range(1, w) for x in range(w))))
        bottom = cid(("v", tuple(pat[y][x] for y in range(w - 1) for x in range(w))))
        tiles.append(Tile(left, right, top, bottom))
        names.append(f"p{idx}")
    return Robustification(TileSet(len(intern), tiles, names), tile_set, w, tuple(pats))


def lift(rob: Robustification, base_patch: PatchGrid) -> PatchGrid:
    """Sliding-window view: the pattern tiling of a hole-free base tiling."""
    w = rob.w
    W, H = base_patch.width - w + 1, base_patch.height - w + 1
    if W < 1 or H < 1:
        raise ValueError(f"base patch smaller than one {w} x {w} window")
    if base_patch.holes():
        raise ValueError("cannot lift a patch with holes")
    cells = []
    for y in range(H):
        row = []
        for x in range(W):
            pat = tuple(
                tuple(base_patch.get(x + dx, y + dy) for dx in range(w))
                for dy in range(w)
            )
            pid = rob.pattern_id(pat)
            if pid is None:
                raise ValueError(f"window at ({x}, {y}) is not an admitted pattern")
            row.append(pid)
        cells.append(row)
    return PatchGrid(W, H, cells)


def project(rob: Robustification, patch: PatchGrid) -> PatchGrid:
    """Base-level view of a pattern tiling: cell (x, y) is its window's corner."""
    cells = [
        [
            HOLE if patch.cells[y][x] == HOLE else rob.patterns[patch.cells[y][x]][0][0]
            for x in range(patch.width)
        ]
        for y in range(patch.height)
    ]
    return PatchGrid(patch.width, patch.height, cells)


def check_window_robust(
    tile_set,
    outer: int,
    inner: int,
    *,
    max_solutions: int = 4096,
    max_nodes: int = 2_000_000,
) -> str:
    """Does every tiling of the outer/inner annulus extend across the hole?

    Accepts a TileSet or a Robustification.  Enumerates all tilings of the
    outer x outer window minus the centered inner x inner hole and tries to
    fill each hole: to tile the inner x inner window with the colors of the
    ring around it as its boundary.  One unfillable annulus makes the
    verdict "not_robust".  More than ``max_solutions`` annulus tilings, or a
    search that hits ``max_nodes``, leaves the verdict "inconclusive" unless
    some annulus is already known to be unfillable.
    """
    ts = getattr(tile_set, "tile_set", tile_set)
    if inner < 1 or outer < inner + 2:
        raise ValueError("the window must strictly contain the hole")
    h0 = (outer - inner) // 2
    side = range(h0, h0 + inner)
    hole = [(x, y) for y in side for x in side]
    annuli = solve(ts, outer, outer, mask=hole, mode="enumerate",
                   max_solutions=max_solutions + 1, max_nodes=max_nodes)
    if annuli.status == "inconclusive":
        return "inconclusive"
    tiles = ts.tiles
    lo, hi = h0 - 1, h0 + inner  # the ring around the hole
    verdict = "robust"
    for ann in annuli.solutions:
        a = ann.cells
        ring = {
            "left": [tiles[a[y][lo]].right for y in side],
            "right": [tiles[a[y][hi]].left for y in side],
            "bottom": [tiles[a[lo][x]].top for x in side],
            "top": [tiles[a[hi][x]].bottom for x in side],
        }
        fill = solve(ts, inner, inner, boundary=ring, max_nodes=max_nodes)
        if fill.status == "unsatisfiable":
            return "not_robust"
        if fill.status == "inconclusive":
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
    max_nodes: int = 500_000,
) -> CorrectionReport:
    """Repair holes and mismatches by island-local carve-and-refill.

    Defect cells (holes plus both ends of every broken adjacency) are split
    into islands; each rank-k island mandates a neighborhood reaching
    2*c1*alpha_k beyond it, which is carved to holes and re-solved against
    its intact surroundings.  Cells outside the mandated neighborhoods are
    never touched, so the changed fraction stays below the schedule's
    density bound.
    """
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

    cells = [list(row) for row in patch.cells]
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
        sub = []
        for y in range(ry0, ry1 + 1):
            row = []
            for x in range(rx0, rx1 + 1):
                inside = x0 <= x <= x1 and y0 <= y <= y1
                row.append(HOLE if inside else cells[y][x])
            sub.append(row)
        filled = fill_template(
            ts, PatchGrid(rx1 - rx0 + 1, ry1 - ry0 + 1, sub), max_nodes=max_nodes
        )
        if filled is None:
            failures.append(isl)
            continue
        for y in range(ry0, ry1 + 1):
            for x in range(rx0, rx1 + 1):
                cells[y][x] = filled.get(x - rx0, y - ry0)

    fixed = PatchGrid(W, H, cells)
    changed = frozenset(
        (x, y)
        for y in range(H)
        for x in range(W)
        if fixed.cells[y][x] != patch.cells[y][x]
    )
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
