"""Finite-window solving for Wang tile sets.

One engine, ``solve``, does every search: deterministic backtracking over
cells in row-major order (bottom row first, x inner), trying tile ids in
ascending order among those whose left and bottom sides match the placed
neighbours, so results are reproducible.  A node is one candidate tried at
a cell; it is counted before the right-side and top-side wrap or boundary
check.  Every search carries a node budget, ``MAX_NODES`` unless its
caller passes one; exceeding it yields the status ``"inconclusive"`` (with
``nodes == max_nodes + 1``) rather than a wrong verdict.

The search tree is exactly that of trying one candidate per step: the
engine only does less work per node, so node counts, solution order and
the point where a budget runs out are the same.  Nothing is pruned or
reordered.  Candidates come from a cached index, and a candidate that
fails a check or leaves the next cell none is counted but never stepped
into.  A cell, with or without checks, is visited one of three ways.  A
cell with one candidate is forced: one node, its checks, one lookup, nothing
recorded.  A forced cell that starts a run of plain cells replays the run
instead (below).  A cell with several candidates reads a survivor list,
built once per call for its candidates, placed sides and check colors: the
candidates worth stepping on with, each charging the dead ones before it
as nodes.  Only cells with survivors left go on a stack of choice points,
so backing up is one pop.

A cell is plain when its forced step is one lookup of the shared index by
its tile's right side and the top side below its right neighbour: that
neighbour is its successor, has a placed bottom neighbour, no pin and no
boundary color, and the cell has no wrap or boundary check.  A forced cell
that starts L >= 3 plain cells (at most ``RUN``) replays them from a memo
made per call (H. Marxen and J. Buntrock's macro step, as in
``machine.Run.go``), keyed by its candidates and the L tiles below the
cells after it.  A miss steps the run with the same lookups, up to a cell
with several candidates, a dead candidate (counted) or L cells, and stores
its nodes, tiles and next candidates.  A run is replayed only when the
budget can pay all its nodes; else its cells take the forced step one at
a time, so a budget runs out at the same node.

Bounded mode leaves window borders free unless explicit boundary colors are
given (a compiled macro-tile is assembled as the fill of its payload's
border); toroidal mode wraps both axes instead.  A mask removes cells from
the window; sides facing a removed cell are free.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import HOLE, MalformedPatchError, PatchGrid, TileSet, block_border


#: Node budget of one search: an enumeration, a fill, an extension, or all
#: the embedding searches of one simulation window check.
MAX_NODES = 2_000_000
#: Most tilings an enumeration collects before its caller gives up.
MAX_SOLUTIONS = 4_096
#: The most plain cells one replay of a run covers (see the module
#: docstring).  Chosen by timing the 190 first-tiling solves of the
#: window-solve benchmark's seed 1 against the engine without replays
#: (2-core x86, CPython 3.11; median of three rounds), as a share of its time:
#: 0.86 at a cap of 4, 0.86 at 6, 0.71 at 8, 0.72 at 10, 0.74 at 12 and 0.77
#: at 16.  A smaller cap splits more runs, a larger one misses more often.
RUN = 8


class InconclusiveError(RuntimeError):
    """A search hit its budget before reaching a verdict."""


@dataclass
class SolveResult:
    status: str  # "solved" | "unsatisfiable" | "inconclusive"
    patch: PatchGrid | None
    count: int
    nodes: int
    solutions: tuple[PatchGrid, ...] = ()

    def decided(self, what: str) -> "SolveResult":
        """This result, unless its search hit a budget: then InconclusiveError,
        the one place a budget hit becomes that error."""
        if self.status == "inconclusive":
            raise InconclusiveError(f"{what} hit its budget after {self.nodes} nodes")
        return self


def _int(v: object, what: str) -> int:
    """``v`` if it is an int or a numpy integer (a bool is neither), else a
    ValueError naming ``what``."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{what} must be an int, not {v!r}")
    return int(v)


def _boundary_side(boundary: Mapping | None, side: str, length: int) -> tuple[int, ...] | None:
    v = None if boundary is None else boundary.get(side)
    if v is None:
        return None
    try:
        v = tuple(v)
    except TypeError:  # one color along the whole side
        return (_int(v, f"boundary {side!r}"),) * length
    if len(v) != length:
        raise ValueError(f"boundary {side!r} must have {length} colors")
    return tuple(_int(c, f"boundary {side!r} cell {i}") for i, c in enumerate(v))


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
    max_nodes: int = MAX_NODES,
    max_solutions: int | None = None,
) -> SolveResult:
    """Search for tilings of a width x height window.

    Args:
        template: optional partial patch; HOLE cells are free, other cells
            are pinned to their tile id.
        boundary: optional mapping with any of the keys "left", "right",
            "top", "bottom" and no other; each value is a single color or a
            per-cell sequence (bottom-to-top for the vertical sides,
            left-to-right for the horizontal ones).  Bounded mode only.
        toroidal: wrap both axes (periodic tiling of the w x h torus).
        mask: optional cells (x, y) that do not exist: the search skips them,
            a side facing one is free, and they are HOLE in every patch.
        mode: "first" stops at one tiling, "count" counts all, "enumerate"
            counts and also returns them.
        max_nodes: candidate-placement budget (>= 0); exceeding it gives
            status "inconclusive" with nodes == max_nodes + 1.
        max_solutions: optional cap (>= 1) for count/enumerate; hitting it
            also gives "inconclusive" (the count is then a lower bound).

    Sizes, budgets, boundary colors and mask coordinates are ints (numpy
    integers count, bools do not); anything else is a ValueError naming
    it, raised before any work.
    """
    width, height, max_nodes = _int(width, "width"), _int(height, "height"), _int(max_nodes, "max_nodes")
    if max_solutions is not None:
        max_solutions = _int(max_solutions, "max_solutions")
    if mode not in ("first", "count", "enumerate"):
        raise ValueError(f"unknown mode {mode!r}")
    if toroidal and boundary:
        raise ValueError("boundary colors make no sense on a torus")
    if unknown := set(boundary or ()) - {"left", "right", "top", "bottom"}:
        raise ValueError(f"unknown boundary sides {sorted(unknown, key=repr)}")
    if width < 1 or height < 1:
        raise ValueError("window dimensions must be positive")
    if max_nodes < 0:
        raise ValueError("max_nodes must be non-negative")
    if max_solutions is not None and max_solutions < 1:
        raise ValueError("max_solutions must be at least 1")
    b_left = _boundary_side(boundary, "left", height)
    b_right = _boundary_side(boundary, "right", height)
    b_top = _boundary_side(boundary, "top", width)
    b_bottom = _boundary_side(boundary, "bottom", width)
    absent = set() if mask is None else {(_int(x, f"masked cell {(x, y)}"), _int(y, f"masked cell {(x, y)}"))
                                         for x, y in mask}

    n_tiles = len(tile_set)
    W = width
    pins: dict[int, int] = {}  # tile id pinned at cell y * W + x
    if template is not None:
        if template.width != width or template.height != height:
            raise ValueError("template dimensions must match the window")
        ids = template.cells.ravel()
        at = np.flatnonzero(ids != HOLE)
        unknown = (ids[at] < 0) | (ids[at] >= n_tiles)
        if unknown.any():
            k = at[unknown.argmax()]
            raise MalformedPatchError(f"template cell ({k % W}, {k // W}) holds unknown tile id {ids[k]}")
        pins = dict(zip(at.tolist(), ids[at].tolist()))
    for x, y in absent:
        if not (0 <= x < width and 0 <= y < height):
            raise ValueError(f"masked cell {(x, y)} lies outside the window")
        if y * W + x in pins:
            raise ValueError(f"template pins the masked cell {(x, y)}")

    free = tile_set.color_count
    K = free + 1
    left_of, right_of, bottom_of = tile_set.left, tile_set.right, tile_set.bottom
    # Key parts of the sides a later cell reads (right sides times K).  Id
    # n_tiles is a blank stand-in whose parts are 0: a side with no placed
    # neighbour reads it through the last slot of the placement list.
    index, right_k, top_of = tile_set.search_tables()
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

    # spec[p] tells a visit at position p how to find the candidates of
    # p + 1 for its own candidate t: look_next(A[t] + base), where A brings
    # in the side of t that p + 1 faces and base = right_k[g[ls]] +
    # top_of[g[bs]] + c the sides placed before (the stand-in's 0 where ls
    # or bs is -1), c adding the boundary color, or ``free``, of a side with
    # no placed neighbour.  look_next reads the shared index or a pinned
    # tile's own keys.  One backward pass builds spec, carrying how p + 1
    # finds its candidates; the last position looks up a constant key that
    # always "has candidates": every t there that passes its checks
    # completes a tiling.
    find = index.get
    # On a torus of width (height) 1 a tile meets itself: it passes its
    # wrap check when its right (top) side less its left (bottom) one is 0.
    if toroidal and width == 1:
        loop_h = [r - l for r, l in zip(right_of, left_of)]
    if toroidal and height == 1:
        loop_v = [u - d for u, d in zip(top_of, bottom_of)]
    spec: list = [None] * n
    # run[p] counts the plain positions from p on, at most RUN, where they
    # are 3 or more (else 0); a plain p steps to find(right_k[t] +
    # top_of[g[p + 1 - W]]), as spec would.
    run = [0] * n
    plain = 0
    look, ls, bs, c = {0: ()}.get, -1, -1, 0
    for p in range(n - 1, -1, -1):
        x, y = cells[p]
        if ls == p:
            A, ls = right_k, -1
        elif bs == p:
            A, bs = top_of, -1
        else:
            A = zero
        # Wrap and boundary checks: t passes when rtab[t] == rc and ttab[t]
        # == tc, where rc is a boundary color or, when rsrc >= 0, the left
        # side of the tile placed at position rsrc (tc likewise, with the
        # bottom side at tsrc).  A side without a check reads zero == 0.
        checks = None
        if x == width - 1 or y == height - 1:
            rtab, rc, rsrc = zero, 0, -1
            ttab, tc, tsrc = zero, 0, -1
            if x == width - 1:
                if not toroidal:
                    if b_right is not None:
                        rtab, rc = right_of, b_right[y]
                elif width == 1:
                    rtab = loop_h
                elif pos[y * W] >= 0:
                    rtab, rsrc = right_of, pos[y * W]
            if y == height - 1:
                if not toroidal:
                    if b_top is not None:
                        ttab, tc = top_of, b_top[x]
                elif height == 1:
                    ttab = loop_v
                elif pos[x] >= 0:
                    ttab, tsrc = top_of, pos[x]
            if rtab is not zero or ttab is not zero:
                checks = (rtab, rc, rsrc, ttab, tc, tsrc)
        # the last slot holds the position's survivor lists (see below)
        spec[p] = (A, ls, bs, c, look, checks, {})
        if A is right_k and bs == p + 1 - W and not c and look is find and checks is None:
            plain += 1
            if plain >= 3:
                run[p] = plain if plain < RUN else RUN
        else:
            plain = 0
        k = y * W + x
        pin = pins.get(k)
        if pin is None:
            look = find
        else:
            look = {l * K + b: (pin,) for l in (left_of[pin], free)
                    for b in (bottom_of[pin], free)}.get
        ls = pos[k - 1] if x > 0 else -1
        bs = pos[k - W] if y > 0 else -1
        c = 0
        if ls < 0:
            c += K * (known(b_left[y]) if x == 0 and b_left is not None else free)
        if bs < 0:
            c += known(b_bottom[x]) if y == 0 and b_bottom is not None else free

    g = [0] * n + [n_tiles]  # tile placed at each position, then the stand-in
    # Choice points, deepest last: (p, survivor list, next index) for each
    # position on the path with survivors left.
    stack: list = []
    push, pop = stack.append, stack.pop

    flat = None  # the cell y * W + x at each position, built at the first tiling

    def snapshot() -> PatchGrid:
        nonlocal flat
        if flat is None:
            flat = np.array([y * W + x for x, y in cells], dtype=np.intp)
        grid = np.full((height, width), HOLE, dtype=np.int32)
        grid.ravel()[flat] = g[:n]
        return PatchGrid(width, height, grid)

    room = max_nodes  # nodes left in the budget
    count = 0
    first: PatchGrid | None = None
    sols: list[PatchGrid] = []
    budget_hit = False
    cap_hit = False

    # The runs stepped so far: (the first cell's candidates, the tiles
    # below the cells after it) -> (nodes, the tiles placed and their
    # number, the candidates of the cell after them or None after a dead
    # candidate).
    runs: dict = {}

    # cands holds the candidates of position p on arrival there, or None
    # when the search backs up to the deepest choice point
    cands = look(c)
    p = 0
    while True:
        if cands is None:
            if not stack:
                break
            p, seq, j = pop()
        elif p < n:
            L = run[p]
            if L and len(cands) == 1:
                # a run of plain cells: replayed when the budget pays for it
                # all, else stepped by the forced step below
                b = p + 1 - W
                key = (cands, tuple(g[b:b + L]))
                hit = runs.get(key)
                if hit is None:
                    # the forced step's lookups, up to a choice, a dead end or L cells
                    spent, tiles, nxt = 0, [], cands
                    for q in range(b, b + L):
                        if len(nxt) != 1:
                            break
                        spent += 1
                        t = nxt[0]
                        nxt = find(right_k[t] + top_of[g[q]])
                        if nxt is None:
                            break
                        tiles.append(t)
                    hit = runs[key] = (spent, tiles, len(tiles), nxt)
                spent, tiles, k, nxt = hit
                if spent <= room:
                    room -= spent
                    g[p:p + k] = tiles
                    p += k
                    cands = nxt
                    continue
            A, ls, bs, c, look_next, checks, memo = spec[p]
            base = right_k[g[ls]] + top_of[g[bs]] + c
            if checks is not None:
                # the colors rtab[t] and ttab[t] must equal at this cell
                rtab, rc, rsrc, ttab, tc, tsrc = checks
                if rsrc >= 0:
                    rc = left_of[g[rsrc]]
                if tsrc >= 0:
                    tc = bottom_of[g[tsrc]]
            if len(cands) == 1:
                # a forced cell: one node, its checks, one lookup, no choice point
                if not room:
                    budget_hit = True
                    break
                room -= 1
                t = cands[0]
                if checks is None or rtab[t] == rc and ttab[t] == tc:
                    cands = look_next(A[t] + base)
                    if cands is not None:
                        g[p] = t
                        p += 1
                else:
                    cands = None
                continue
            # The survivor list of these candidates after these sides and
            # checks: (nodes, t, successor's candidates) for each t that
            # passes its checks and leaves its successor candidates, where
            # nodes counts t and the dead candidates before it, then (nodes,
            # -1, None) for a dead tail.  Built on the first visit, read on
            # every other.
            key = (cands, base) if checks is None else (cands, base, rc, tc)
            seq = memo.get(key)
            if seq is None:
                seq = memo[key] = []
                last = 0
                for k, t in enumerate(cands, 1):
                    if checks is None or rtab[t] == rc and ttab[t] == tc:
                        nxt = look_next(A[t] + base)
                        if nxt is not None:
                            seq.append((k - last, t, nxt))
                            last = k
                if last < len(cands):
                    seq.append((len(cands) - last, -1, None))
            j = 0
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
            cands = None
            continue
        # one survivor list entry: every candidate it covers is a node, so
        # an entry the budget cannot pay ends the search
        spent, t, cands = seq[j]
        if spent > room:
            budget_hit = True
            break
        room -= spent
        j += 1
        if j < len(seq):
            push((p, seq, j))
        if cands is not None:
            g[p] = t
            p += 1
    nodes = max_nodes + 1 if budget_hit else max_nodes - room

    if budget_hit or cap_hit:
        status = "inconclusive"
    elif mode == "first":
        status = "solved" if first is not None else "unsatisfiable"
    else:
        status = "solved" if count > 0 else "unsatisfiable"
    return SolveResult(status, first, count, nodes, tuple(sols))


def count_patch_tilings(tile_set: TileSet, width: int, height: int, **kw) -> int:
    """Exact number of tilings of the window; raises InconclusiveError on budget."""
    return solve(tile_set, width, height, mode="count", **kw).decided("count").count


def fill_template(tile_set: TileSet, template: PatchGrid, **kw) -> PatchGrid | None:
    """Complete the HOLE cells of a partial patch, or None if impossible."""
    return solve(tile_set, template.width, template.height, template=template, **kw).decided("fill").patch


def find_periods(tile_set: TileSet, max_period: int, *, max_nodes: int = MAX_NODES) -> set[tuple[int, int]]:
    """All (px, py) with 1 <= px, py <= max_period admitting a toroidal tiling.

    A tiling of the px x py torus unrolls to a plane tiling with periods
    (px, 0) and (0, py), so this is the exhaustive small-period census.
    ``max_nodes`` bounds each torus search; max_period < 1 is a ValueError.
    """
    if max_period < 1:
        raise ValueError(f"max_period must be at least 1, got {max_period}")
    out: set[tuple[int, int]] = set()
    for px in range(1, max_period + 1):
        for py in range(1, max_period + 1):
            r = solve(tile_set, px, py, toroidal=True, mode="first", max_nodes=max_nodes)
            if r.decided(f"period ({px}, {py})").status == "solved":
                out.add((px, py))
    return out


Block = tuple[tuple[int, ...], ...]


def _blocks_at(patch: PatchGrid, n: int, ox: int, oy: int) -> frozenset[Block]:
    rows = patch.cells.tolist()
    return frozenset(tuple(tuple(row[ax:ax + n]) for row in rows[ay:ay + n])
                     for ay in range(oy, patch.height - n + 1, n)
                     for ax in range(ox, patch.width - n + 1, n))


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


def _macro_tiles_embed(blocks: Sequence[Block], tau: TileSet, rho: TileSet,
                      room: list[int]) -> bool | None:
    """Can each block act as a rho tile, under injective per-axis color maps?

    Vertical-side macro colors (left/right N-tuples) and horizontal-side ones
    (top/bottom) live in separate namespaces, since Wang matching never
    compares across axes.  A node is one rho tile tried for a block, paid
    from ``room[0]``, the nodes left; when they run out the answer is None.
    A family with more macro colors on an axis than rho has there cannot
    map injectively, so it fails before any node.
    """
    sides = [block_border(tau, b, 0, 0, len(b)) for b in blocks]
    for axis, colors in ((slice(0, 2), {*rho.left, *rho.right}), (slice(2, 4), {*rho.top, *rho.bottom})):
        if len({m for quad in sides for m in quad[axis]}) > len(colors):
            return False
    quads = list(zip(rho.left, rho.right, rho.top, rho.bottom))
    hmap: dict[tuple, int] = {}
    vmap: dict[tuple, int] = {}
    hused: set[int] = set()
    vused: set[int] = set()

    def rec(i: int) -> bool | None:
        if i == len(sides):
            return True
        ml, mr, mt, mb = sides[i]
        for rl, rr, rt, rb in quads:
            if not room[0]:
                return None
            room[0] -= 1
            undo = []
            ok = True
            for m, c, mp, used in (
                (ml, rl, hmap, hused),
                (mr, rr, hmap, hused),
                (mt, rt, vmap, vused),
                (mb, rb, vmap, vused),
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
            if ok and (found := rec(i + 1)) is not False:
                return found  # embedded, or out of nodes
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


def check_simulation_window(tau: TileSet, rho: TileSet, n: int, window: int) -> SimulationCheck:
    """Window evidence that tau simulates rho with zoom n.

    Enumerates every tau-tiling of a window x window square, infers a
    candidate macro-tile family from the first tiling at each cut offset,
    and accepts when some candidate (a) cuts *every* tiling at exactly one
    offset and (b) embeds into rho as macro-tiles under injective per-axis
    color maps.  Bounded windows are evidence, not proof.  The enumeration
    has a budget of ``MAX_NODES`` nodes and collects at most
    ``MAX_SOLUTIONS`` tilings; the embedding searches of all candidates
    share one more budget of ``MAX_NODES``.  Either budget running out
    makes the check "inconclusive" unless a candidate verified first:
    "refuted" needs every candidate decided.
    """
    if n < 1:
        raise ValueError("zoom n must be at least 1")
    if window < 2 * n - 1:
        raise ValueError("window must be at least 2n-1 so every offset has a complete block")
    r = solve(tau, window, window, mode="enumerate", max_solutions=MAX_SOLUTIONS + 1,
              max_nodes=MAX_NODES)
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
    room = [MAX_NODES]  # the embedding searches' shared budget
    for off0 in offsets:
        family = _blocks_at(tilings[0], n, *off0)
        for u in tilings:
            valid = tuple(find_cut_offsets(u, n, family))
            if len(valid) != 1:
                first_bad = first_bad or (u, valid)
                break
        else:
            embeds = _macro_tiles_embed(sorted(family), tau, rho, room)
            if embeds is None:
                return SimulationCheck(
                    "inconclusive",
                    f"macro-tile embedding hit its budget of {MAX_NODES} nodes",
                    tilings_seen=len(tilings),
                )
            if embeds:
                return SimulationCheck(
                    "verified",
                    f"unique cut in all {len(tilings)} tilings; {len(family)} macro-tiles embed",
                    offset=off0,
                    family_size=len(family),
                    tilings_seen=len(tilings),
                )
    if first_bad is None:  # every candidate cuts uniquely and fails to embed
        return SimulationCheck(
            "refuted",
            "cuts are unique but the macro-tiles do not embed into the target set",
            tilings_seen=len(tilings),
        )
    u, valid = first_bad
    return SimulationCheck(
        "refuted",
        f"a tiling admits {len(valid)} valid cut offsets instead of 1",
        tilings_seen=len(tilings),
        counterexample_tiling=u,
        counterexample_offsets=valid,
    )
