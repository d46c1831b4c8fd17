"""Finite-window solving for Wang tile sets.

One engine, ``solve``, does every search: deterministic backtracking over
cells in row-major order (bottom row first, x inner), trying tile ids in
ascending order among those whose left and bottom sides match the placed
neighbours, so results are reproducible.  A node is one candidate tried at
a cell; it is counted before the right-side and top-side wrap or boundary
check.  Searches carry an explicit node budget; exceeding it yields the
status ``"inconclusive"`` (with ``nodes == max_nodes + 1``) rather than a
wrong verdict.

The search tree is exactly that of trying one candidate per step: the
engine only does less work per node (a cached candidate index, flat
per-cell arrays, no step into a cell left without candidates, nodes
counted in bulk per visit), so node counts, solution order and the point
where a budget runs out are the same.  Nothing is pruned or reordered.

Bounded mode leaves window borders free unless explicit boundary colors are
given; toroidal mode wraps both axes instead.  A mask removes cells from
the window; sides facing a removed cell are free.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Sequence

from .core import HOLE, MalformedPatchError, PatchGrid, TileSet


class InconclusiveError(RuntimeError):
    """A search hit its budget before reaching a verdict."""


@dataclass
class SolveResult:
    status: str  # "solved" | "unsatisfiable" | "inconclusive"
    patch: PatchGrid | None
    count: int
    nodes: int
    solutions: tuple[PatchGrid, ...] = ()


def _boundary_side(boundary: Mapping | None, side: str, length: int) -> tuple[int, ...] | None:
    if boundary is None:
        return None
    v = boundary.get(side)
    if v is None:
        return None
    if isinstance(v, int):
        return (v,) * length
    v = tuple(int(c) for c in v)
    if len(v) != length:
        raise ValueError(f"boundary {side!r} must have {length} colors")
    return v


def solve(
    tile_set: TileSet,
    width: int,
    height: int,
    *,
    template: PatchGrid | None = None,
    boundary: Mapping | None = None,
    toroidal: bool = False,
    mask: Iterable[tuple[int, int]] | None = None,
    mode: str = "first",
    max_nodes: int = 2_000_000,
    max_solutions: int | None = None,
) -> SolveResult:
    """Search for tilings of a width x height window.

    Args:
        template: optional partial patch; HOLE cells are free, other cells
            are pinned to their tile id.
        boundary: optional mapping with any of the keys "left", "right",
            "top", "bottom"; each value is a single color or a per-cell
            sequence (bottom-to-top for the vertical sides, left-to-right
            for the horizontal ones).  Only allowed in bounded mode.
        toroidal: wrap both axes (periodic tiling of the w x h torus).
        mask: optional cells (x, y) that do not exist: the search skips them,
            a side facing one is free, and they are HOLE in every patch.
        mode: "first" stops at one tiling, "count" counts all, "enumerate"
            counts and also returns them.
        max_nodes: candidate-placement budget (>= 0); exceeding it gives
            status "inconclusive" with nodes == max_nodes + 1.
        max_solutions: optional cap (>= 1) for count/enumerate; hitting it
            also gives "inconclusive" (the count is then a lower bound).
    """
    if mode not in ("first", "count", "enumerate"):
        raise ValueError(f"unknown mode {mode!r}")
    if toroidal and boundary:
        raise ValueError("boundary colors make no sense on a torus")
    if width < 1 or height < 1:
        raise ValueError("window dimensions must be positive")
    if max_nodes < 0:
        raise ValueError("max_nodes must be non-negative")
    if max_solutions is not None and max_solutions < 1:
        raise ValueError("max_solutions must be at least 1")

    tiles = tile_set.tiles
    n_tiles = len(tiles)
    W = width
    pins: dict[int, int] = {}  # tile id pinned at cell y * W + x
    if template is not None:
        if template.width != width or template.height != height:
            raise ValueError("template dimensions must match the window")
        for y, row in enumerate(template.cells):
            for x, v in enumerate(row):
                if v != HOLE:
                    if not (0 <= v < n_tiles):
                        raise MalformedPatchError(
                            f"template cell ({x}, {y}) holds unknown tile id {v}")
                    pins[y * W + x] = v
    absent = set() if mask is None else {(int(x), int(y)) for x, y in mask}
    for x, y in absent:
        if not (0 <= x < width and 0 <= y < height):
            raise ValueError(f"masked cell {(x, y)} lies outside the window")
        if y * W + x in pins:
            raise ValueError(f"template pins the masked cell {(x, y)}")

    b_left = _boundary_side(boundary, "left", height)
    b_right = _boundary_side(boundary, "right", height)
    b_top = _boundary_side(boundary, "top", width)
    b_bottom = _boundary_side(boundary, "bottom", width)

    free = tile_set.color_count
    K = free + 1
    index = tile_set.candidate_index()
    left_of = [t.left for t in tiles]
    right_of = [t.right for t in tiles]
    bottom_of = [t.bottom for t in tiles]
    # Key parts of the sides a later cell reads (right sides times K).  Id
    # n_tiles is a blank stand-in whose parts are 0: a side with no placed
    # neighbour reads it through the last slot of the placement list.
    top_of = [t.top for t in tiles] + [0]
    right_k = [c * K for c in right_of] + [0]
    zero = [0] * n_tiles

    def known(color: int) -> int:
        """A boundary color as a key part; a color outside the set's colors
        gives a part so negative that the key matches no tile."""
        return color if 0 <= color < free else -K * K

    # Positions are the existing cells in search order; pos maps the cell
    # y * W + x to its position, or -1 when it is masked.
    cells = [(x, y) for y in range(height) for x in range(width) if (x, y) not in absent]
    pos = [-1] * (W * height)
    for q, (x, y) in enumerate(cells):
        pos[y * W + x] = q
    n = len(cells)

    # How each position finds its candidates: a lookup of the key
    # l * K + b in the shared index, or in a pinned tile's own keys, where
    # l is the right side of the tile at position ls (the stand-in when
    # ls == -1) times K, b the top side of the tile at bs, and c adds the
    # boundary color or ``free`` for a side with no placed neighbour.
    looks = []
    parts = []
    for q, (x, y) in enumerate(cells):
        k = y * W + x
        pin = pins.get(k)
        if pin is None:
            looks.append(index.get)
        else:
            looks.append({l * K + b: (pin,) for l in (left_of[pin], free)
                          for b in (bottom_of[pin], free)}.get)
        ls = pos[k - 1] if x > 0 else -1
        bs = pos[k - W] if y > 0 else -1
        c = 0
        if ls < 0:
            c += K * (known(b_left[y]) if x == 0 and b_left is not None else free)
        if bs < 0:
            c += known(b_bottom[x]) if y == 0 and b_bottom is not None else free
        parts.append((ls, bs, c))

    # spec[p] tells a visit at position p how to find the candidates of
    # p + 1 for its own candidate t: look up A[t] + base, where A brings in
    # the side of t that p + 1 faces and base the sides placed before.  The
    # last position looks up a constant key that always "has candidates":
    # every t there that passes its checks completes a tiling.
    SELF = object()
    spec = []
    for p, (x, y) in enumerate(cells):
        if p + 1 < n:
            ls, bs, c = parts[p + 1]
            if ls == p:
                A, ls = right_k, -1
            elif bs == p:
                A, bs = top_of, -1
            else:
                A = zero
            look_next = looks[p + 1]
        else:
            A, ls, bs, c, look_next = zero, -1, -1, 0, {0: ()}.get
        # Wrap and boundary checks on t's right and top sides: None, SELF
        # (t's own opposite side, on a torus of width or height 1), a color,
        # or the color of the placed tile at a source position (rsrc, tsrc).
        rsrc = tsrc = -1
        rc = tc = None
        if x == width - 1:
            if toroidal:
                if width == 1:
                    rc = SELF
                else:
                    rsrc = pos[y * W]
            elif b_right is not None:
                rc = b_right[y]
        if y == height - 1:
            if toroidal:
                if height == 1:
                    tc = SELF
                else:
                    tsrc = pos[x]
            elif b_top is not None:
                tc = b_top[x]
        checks = None
        if rsrc >= 0 or tsrc >= 0 or rc is not None or tc is not None:
            checks = (rsrc, rc, tsrc, tc)
        spec.append((A, ls, bs, c, look_next, checks))

    g = [0] * n + [n_tiles]  # tile placed at each position, then the stand-in
    cl: list[tuple[int, ...]] = [()] * n  # candidates of each position on the path
    ix = [0] * n  # next one to try there, -1 when none is left

    def snapshot() -> PatchGrid:
        rows = [[HOLE] * width for _ in range(height)]
        for (x, y), t in zip(cells, g):
            rows[y][x] = t
        return PatchGrid(width, height, rows)

    room = max_nodes  # nodes left in the budget
    count = 0
    first: PatchGrid | None = None
    sols: list[PatchGrid] = []
    budget_hit = False
    cap_hit = False

    cands = looks[0](parts[0][2]) if n else ()
    p = 0 if cands is not None else -1
    i = 0
    while p >= 0:
        if p < n:
            A, ls, bs, c, look_next, checks = spec[p]
            end = len(cands)
            # every candidate tried is a node, so the budget ends the visit
            # after `room` of them, just before the one that exceeds it
            stop = end if end - i <= room else i + room
            base = right_k[g[ls]] + top_of[g[bs]] + c
            start = i
            nxt = None
            if checks is None:
                while i < stop:
                    t = cands[i]
                    i += 1
                    # a candidate that leaves its successor no candidates
                    # is a node too, but the search need not step there
                    nxt = look_next(A[t] + base)
                    if nxt is not None:
                        break
            else:
                rsrc, rc, tsrc, tc = checks
                if rsrc >= 0:
                    rc = left_of[g[rsrc]]
                if tsrc >= 0:
                    tc = bottom_of[g[tsrc]]
                while i < stop:
                    t = cands[i]
                    i += 1
                    if rc is not None and right_of[t] != (left_of[t] if rc is SELF else rc):
                        continue
                    if tc is not None and top_of[t] != (bottom_of[t] if tc is SELF else tc):
                        continue
                    nxt = look_next(A[t] + base)
                    if nxt is not None:
                        break
            room -= i - start
            if nxt is not None:
                g[p] = t
                cl[p] = cands
                ix[p] = i if i < end else -1
                p += 1
                cands = nxt
                i = 0
                continue
            if stop < end:
                budget_hit = True
                break
        else:
            count += 1
            if first is None or mode == "enumerate":
                snap = snapshot()
                if first is None:
                    first = snap
                if mode == "enumerate":
                    sols.append(snap)
            if mode == "first":
                break
            if max_solutions is not None and count >= max_solutions:
                cap_hit = True
                break
        # back to the deepest position with candidates left
        p -= 1
        while p >= 0 and ix[p] < 0:
            p -= 1
        if p >= 0:
            cands = cl[p]
            i = ix[p]
    nodes = max_nodes - room + budget_hit

    if budget_hit or cap_hit:
        status = "inconclusive"
    elif mode == "first":
        status = "solved" if first is not None else "unsatisfiable"
    else:
        status = "solved" if count > 0 else "unsatisfiable"
    return SolveResult(status, first, count, nodes, tuple(sols))


def count_patch_tilings(tile_set: TileSet, width: int, height: int, **kw) -> int:
    """Exact number of tilings of the window; raises InconclusiveError on budget."""
    r = solve(tile_set, width, height, mode="count", **kw)
    if r.status == "inconclusive":
        raise InconclusiveError(f"count hit the search budget after {r.nodes} nodes")
    return r.count


def enumerate_patch_tilings(tile_set: TileSet, width: int, height: int, **kw) -> tuple[PatchGrid, ...]:
    r = solve(tile_set, width, height, mode="enumerate", **kw)
    if r.status == "inconclusive":
        raise InconclusiveError(f"enumeration hit its cap after {r.count} tilings / {r.nodes} nodes")
    return r.solutions


def fill_template(tile_set: TileSet, template: PatchGrid, **kw) -> PatchGrid | None:
    """Complete the HOLE cells of a partial patch, or None if impossible."""
    r = solve(tile_set, template.width, template.height, template=template, mode="first", **kw)
    if r.status == "inconclusive":
        raise InconclusiveError(f"fill hit the search budget after {r.nodes} nodes")
    return r.patch


def find_periods(tile_set: TileSet, max_period: int, *, max_nodes: int = 500_000) -> set[tuple[int, int]]:
    """All (px, py) with 1 <= px, py <= max_period admitting a toroidal tiling.

    A tiling of the px x py torus unrolls to a plane tiling with periods
    (px, 0) and (0, py), so this is the exhaustive small-period census.
    """
    out: set[tuple[int, int]] = set()
    for px in range(1, max_period + 1):
        for py in range(1, max_period + 1):
            r = solve(tile_set, px, py, toroidal=True, mode="first", max_nodes=max_nodes)
            if r.status == "inconclusive":
                raise InconclusiveError(f"period ({px}, {py}) hit the search budget")
            if r.status == "solved":
                out.add((px, py))
    return out


Block = tuple[tuple[int, ...], ...]


def _blocks_at(patch: PatchGrid, n: int, ox: int, oy: int) -> frozenset[Block]:
    out = set()
    for ay in range(oy, patch.height - n + 1, n):
        for ax in range(ox, patch.width - n + 1, n):
            out.add(
                tuple(tuple(patch.cells[ay + dy][ax + dx] for dx in range(n)) for dy in range(n))
            )
    return frozenset(out)


def find_cut_offsets(
    patch: PatchGrid, n: int, family: frozenset[Block] | set[Block] | None = None
) -> list[tuple[int, int]]:
    """Offsets (ox, oy) in [0, n)^2 where the patch cuts into known n x n blocks.

    Every complete block of the cut anchored at x = ox (mod n), y = oy (mod n)
    must belong to ``family``.  With family=None the reference family is the
    patch's own blocks at offset (0, 0), so (0, 0) always qualifies and the
    question becomes whether any *other* alignment reproduces those blocks.
    """
    if n < 1 or patch.width < 2 * n - 1 or patch.height < 2 * n - 1:
        raise ValueError("patch too small to compare cut alignments")
    if patch.holes():
        raise ValueError("cut analysis needs a hole-free patch")
    if family is None:
        family = _blocks_at(patch, n, 0, 0)
    family = frozenset(family)
    out = []
    for oy in range(n):
        for ox in range(n):
            blocks = _blocks_at(patch, n, ox, oy)
            if blocks and blocks <= family:
                out.append((ox, oy))
    return out


def _macro_sides(block: Block, tile_set: TileSet):
    tiles = tile_set.tiles
    nb = len(block)
    left = tuple(tiles[block[dy][0]].left for dy in range(nb))
    right = tuple(tiles[block[dy][-1]].right for dy in range(nb))
    bottom = tuple(tiles[block[0][dx]].bottom for dx in range(nb))
    top = tuple(tiles[block[-1][dx]].top for dx in range(nb))
    return left, right, top, bottom


def _macro_tiles_embed(blocks: Sequence[Block], tau: TileSet, rho: TileSet) -> bool:
    """Can each block act as a rho tile, under injective per-axis color maps?

    Vertical-side macro colors (left/right N-tuples) and horizontal-side ones
    (top/bottom) live in separate namespaces, since Wang matching never
    compares across axes.
    """
    sides = [_macro_sides(b, tau) for b in blocks]
    hmap: dict[tuple, int] = {}
    vmap: dict[tuple, int] = {}
    hused: set[int] = set()
    vused: set[int] = set()

    def rec(i: int) -> bool:
        if i == len(sides):
            return True
        ml, mr, mt, mb = sides[i]
        for rt in rho.tiles:
            undo = []
            ok = True
            for m, c, mp, used in (
                (ml, rt.left, hmap, hused),
                (mr, rt.right, hmap, hused),
                (mt, rt.top, vmap, vused),
                (mb, rt.bottom, vmap, vused),
            ):
                cur = mp.get(m)
                if cur is None:
                    if c in used:
                        ok = False
                        break
                    mp[m] = c
                    used.add(c)
                    undo.append((mp, used, m, c))
                elif cur != c:
                    ok = False
                    break
            if ok and rec(i + 1):
                return True
            for mp, used, m, c in undo:
                del mp[m]
                used.discard(c)
        return False

    return rec(0)


@dataclass
class SimulationCheck:
    status: str  # "verified" | "refuted" | "inconclusive"
    detail: str
    offset: tuple[int, int] | None = None
    family_size: int = 0
    tilings_seen: int = 0
    counterexample_tiling: PatchGrid | None = None
    counterexample_offsets: tuple[tuple[int, int], ...] = ()


def check_simulation_window(
    tau: TileSet,
    rho: TileSet,
    n: int,
    window: int,
    *,
    max_solutions: int = 4096,
    max_nodes: int = 5_000_000,
) -> SimulationCheck:
    """Window evidence that tau simulates rho with zoom n.

    Enumerates every tau-tiling of a window x window square, infers a
    candidate macro-tile family from the first tiling at each cut offset,
    and accepts when some candidate (a) cuts *every* tiling at exactly one
    offset and (b) embeds into rho as macro-tiles under injective per-axis
    color maps.  Bounded windows are evidence, not proof; more than
    ``max_solutions`` tilings, or a search that hits ``max_nodes``, surface
    as "inconclusive" rather than a verdict.
    """
    if window < 2 * n - 1:
        raise ValueError("window must be at least 2n-1 so every offset has a complete block")
    r = solve(tau, window, window, mode="enumerate", max_solutions=max_solutions + 1,
              max_nodes=max_nodes)
    if r.status == "inconclusive":
        return SimulationCheck(
            "inconclusive",
            f"enumeration capped at {r.count} tilings / {r.nodes} nodes",
            tilings_seen=r.count,
        )
    if r.status == "unsatisfiable":
        return SimulationCheck("refuted", "tile set admits no tiling of the window")
    tilings = r.solutions
    offsets = list(product(range(n), range(n)))
    first_bad: tuple[PatchGrid, tuple[tuple[int, int], ...]] | None = None
    embed_failed = False
    for off0 in offsets:
        family = _blocks_at(tilings[0], n, *off0)
        unique = True
        for u in tilings:
            valid = tuple(find_cut_offsets(u, n, family))
            if len(valid) != 1:
                unique = False
                if first_bad is None:
                    first_bad = (u, valid)
                break
        if not unique:
            continue
        if _macro_tiles_embed(sorted(family), tau, rho):
            return SimulationCheck(
                "verified",
                f"unique cut in all {len(tilings)} tilings; {len(family)} macro-tiles embed",
                offset=off0,
                family_size=len(family),
                tilings_seen=len(tilings),
            )
        embed_failed = True
    if embed_failed and first_bad is None:
        return SimulationCheck(
            "refuted",
            "cuts are unique but the macro-tiles do not embed into the target set",
            tilings_seen=len(tilings),
        )
    assert first_bad is not None
    u, valid = first_bad
    return SimulationCheck(
        "refuted",
        f"a tiling admits {len(valid)} valid cut offsets instead of 1",
        tilings_seen=len(tilings),
        counterexample_tiling=u,
        counterexample_offsets=valid,
    )
