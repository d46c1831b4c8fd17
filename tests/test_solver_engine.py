"""Differential tests: the flat search loop behind ``solve`` against the
plain backtrackers it replaced.

``reference_solve`` rebuilds each cell's candidate list on every visit,
tries one candidate per step and counts a node per candidate tried, before
the right-side and top-side checks; ``reference_region_tilings`` is the
recursive annulus enumerator.  The engine must search exactly the same tree:
same status, nodes, count, first patch and solutions in the same order.
The robustness searches built on the engine are held to whole-window
references: each ring decided by template fills of the window, the older
whole-annulus check, and the pattern census of every (w+2) x (w+2) window.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilebench.compiler import check_window_robust, robustify
from tilebench.compiler.simulate import (CompileError, _border, chessboard_predicate_machine,
                                        compile_simulation)
from tilebench.core import HOLE, MalformedPatchError, PatchGrid, Tile, TileSet, chessboard_tileset
from tilebench import solver
from tilebench.solver import InconclusiveError, SolveResult, _boundary_side, fill_template, solve
from tilebench.substitution import enforce_substitution, thue_morse_rule


def reference_solve(tile_set, width, height, *, template=None, boundary=None,
                    toroidal=False, mode="first", max_nodes=2_000_000, max_solutions=None):
    """One candidate per step over per-visit candidate lists: the engine's oracle."""
    tiles = tile_set.tiles
    n_tiles = len(tiles)
    left_of = [t.left for t in tiles]
    right_of = [t.right for t in tiles]
    top_of = [t.top for t in tiles]
    bottom_of = [t.bottom for t in tiles]
    if template is not None:
        for (x, y) in ((x, y) for y in range(height) for x in range(width)):
            v = template.cells[y][x]
            if v != HOLE and not (0 <= v < n_tiles):
                raise MalformedPatchError(f"template cell ({x}, {y}) holds unknown tile id {v}")
    b_left = _boundary_side(boundary, "left", height)
    b_right = _boundary_side(boundary, "right", height)
    b_top = _boundary_side(boundary, "top", width)
    b_bottom = _boundary_side(boundary, "bottom", width)

    seen = {}

    def candidates(l, b):
        if (l, b) not in seen:
            seen[l, b] = tuple(i for i in range(n_tiles)
                               if (l is None or left_of[i] == l) and (b is None or bottom_of[i] == b))
        return seen[l, b]

    order = [(x, y) for y in range(height) for x in range(width)]
    ncells = width * height
    grid = [[-2] * width for _ in range(height)]
    iters = [None] * ncells
    nodes = count = 0
    first = None
    sols = []
    budget_hit = cap_hit = False
    pos = 0
    while pos >= 0:
        if pos == ncells:
            count += 1
            snap = PatchGrid(width, height, [row[:] for row in grid])
            if first is None:
                first = snap
            if mode == "enumerate":
                sols.append(snap)
            if mode == "first":
                break
            if max_solutions is not None and count >= max_solutions:
                cap_hit = True
                break
            pos -= 1
            continue
        x, y = order[pos]
        state = iters[pos]
        if state is None:
            if x > 0:
                need_l = right_of[grid[y][x - 1]]
            elif not toroidal and b_left is not None:
                need_l = b_left[y]
            else:
                need_l = None
            if y > 0:
                need_b = top_of[grid[y - 1][x]]
            elif not toroidal and b_bottom is not None:
                need_b = b_bottom[x]
            else:
                need_b = None
            cands = candidates(need_l, need_b)
            if template is not None:
                pin = template.cells[y][x]
                if pin != HOLE:
                    cands = (pin,) if pin in cands else ()
            state = [cands, 0]
            iters[pos] = state
        cands, i = state
        placed = False
        while i < len(cands):
            t = cands[i]
            i += 1
            nodes += 1
            if nodes > max_nodes:
                budget_hit = True
                break
            if toroidal:
                if x == width - 1 and right_of[t] != left_of[t if width == 1 else grid[y][0]]:
                    continue
                if y == height - 1 and top_of[t] != bottom_of[t if height == 1 else grid[0][x]]:
                    continue
            else:
                if x == width - 1 and b_right is not None and right_of[t] != b_right[y]:
                    continue
                if y == height - 1 and b_top is not None and top_of[t] != b_top[x]:
                    continue
            grid[y][x] = t
            state[1] = i
            pos += 1
            placed = True
            break
        if budget_hit:
            break
        if not placed:
            iters[pos] = None
            grid[y][x] = -2
            pos -= 1
    if budget_hit or cap_hit:
        status = "inconclusive"
    elif mode == "first":
        status = "solved" if first is not None else "unsatisfiable"
    else:
        status = "solved" if count > 0 else "unsatisfiable"
    return SolveResult(status, first, count, nodes, tuple(sols))


def reference_region_tilings(tile_set, region, max_solutions, max_nodes):
    """All tilings of a cell subset (row-major fill, free borders) and the
    nodes spent; raises InconclusiveError past max_solutions or max_nodes."""
    tiles = tile_set.tiles
    cells = {p: HOLE for p in region}
    order = sorted(region, key=lambda p: (p[1], p[0]))
    out = []
    nodes = 0

    def place(i):
        nonlocal nodes
        if i == len(order):
            out.append(dict(cells))
            if len(out) > max_solutions:
                raise InconclusiveError("too many boundary tilings to enumerate")
            return
        x, y = order[i]
        want_left = cells.get((x - 1, y), HOLE)
        want_bottom = cells.get((x, y - 1), HOLE)
        for tid, t in enumerate(tiles):
            if want_left != HOLE and tiles[want_left].right != t.left:
                continue
            if want_bottom != HOLE and tiles[want_bottom].top != t.bottom:
                continue
            nodes += 1
            if nodes > max_nodes:
                raise InconclusiveError("region enumeration hit its node budget")
            cells[(x, y)] = tid
            place(i + 1)
            cells[(x, y)] = HOLE

    place(0)
    return out, nodes


def as_tuple(r):
    return (r.status, r.nodes, r.count, r.patch, r.solutions)


def striped_tileset():
    return TileSet(3, [Tile(0, 0, 1, 2), Tile(0, 0, 2, 1)], names=["X", "Y"])


# --- random windows: every option of solve against the reference loop --------


@st.composite
def boundaries(draw, colors, w, h, outside=True):
    """Boundary sides, each free, one color or one per cell; unless outside
    is False, now and then a color just outside the set's colors, which no
    tile side carries."""
    color = st.integers(-1, colors) if outside else st.integers(0, colors - 1)
    boundary = {}
    for side, length in (("left", h), ("right", h), ("top", w), ("bottom", w)):
        kind = draw(st.sampled_from(["free", "scalar", "cells"]))
        if kind == "scalar":
            boundary[side] = draw(color)
        elif kind == "cells":
            boundary[side] = draw(st.lists(color, min_size=length, max_size=length))
    return boundary


@st.composite
def windows(draw, forced=False):
    """A random set and window with every option of solve.  A forced one
    has at most one tile per (left, bottom) pair, rows of up to 12 cells,
    at least 3 rows, boundary colors the tiles carry and pins mostly in the
    first column, so that most cells past the first row and column are
    forced and runs of plain cells reach RUN, on tori (whose top row is
    checked) as well."""
    colors = draw(st.integers(1, 3 if forced else 4))
    color = st.integers(0, colors - 1)
    if forced:
        gone = draw(st.sets(st.tuples(color, color), max_size=2))
        quads = [(l, draw(color), draw(color), b) for l in range(colors) for b in range(colors)
                 if (l, b) not in gone]
        w, h = draw(st.one_of(st.integers(10, 12), st.integers(1, 12))), draw(st.integers(3, 6))
    else:
        quads = draw(st.lists(st.tuples(color, color, color, color), max_size=14, unique=True))
        w, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    ts = TileSet(colors, quads)
    toroidal = draw(st.booleans())
    boundary = None
    if not toroidal and draw(st.booleans()):
        boundary = draw(boundaries(colors, w, h, outside=not forced))
    template = None
    if quads and draw(st.booleans()):
        tile = st.integers(0, len(quads) - 1)
        if forced:  # pins in the first column and at most three elsewhere
            cells = {(0, y) for y in range(h) if draw(st.booleans())}
            cells |= draw(st.sets(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)), max_size=3))
            template = PatchGrid.filled(w, h).replaced({c: draw(tile) for c in sorted(cells)})
        else:
            pin = st.one_of(st.just(HOLE), st.just(HOLE), tile)
            template = PatchGrid(w, h, [[draw(pin) for _ in range(w)] for _ in range(h)])
    kw = dict(
        template=template,
        boundary=boundary,
        toroidal=toroidal,
        mode=draw(st.sampled_from(["first", "count", "enumerate"])),
        max_nodes=draw(st.one_of(st.integers(0, 300), st.integers(301, 3000))),
        max_solutions=draw(st.one_of(st.none(), st.integers(1, 5))),
    )
    return ts, w, h, kw


@settings(max_examples=400, deadline=None)
@given(windows())
@example((chessboard_tileset(), 1, 1, dict(toroidal=True, mode="count")))
@example((chessboard_tileset(), 1, 4, dict(toroidal=True, mode="count")))
@example((TileSet(2, [(0, 0, 1, 1), (1, 1, 0, 0)]), 1, 1, dict(toroidal=True, mode="count")))
@example((chessboard_tileset(), 3, 3, dict(mode="count", max_nodes=0)))
@example((TileSet(1, []), 2, 2, dict(mode="enumerate", max_nodes=0)))
def test_solve_matches_reference_loop(case):
    ts, w, h, kw = case
    assert as_tuple(solve(ts, w, h, **kw)) == as_tuple(reference_solve(ts, w, h, **kw))


def xor_tileset():
    """Right and top sides both the left side xor the bottom one: every cell
    with a placed left and bottom neighbour is forced, and no step is dead."""
    return TileSet(2, [(l, l ^ b, l ^ b, b) for l in (0, 1) for b in (0, 1)])


@settings(max_examples=300, deadline=None)
@given(windows(forced=True))
# runs through a checked top row, a bottom boundary row and a pinned cell
@example((xor_tileset(), 10, 3, dict(toroidal=True, mode="count")))
@example((xor_tileset(), 12, 3, dict(boundary={"bottom": 0, "top": 1}, mode="count")))
@example((xor_tileset(), 12, 3, dict(template=PatchGrid.filled(12, 3).replaced({(6, 1): 0}),
                                     mode="count", max_nodes=3000)))
def test_runs_of_forced_cells_match_reference_loop(case):
    ts, w, h, kw = case
    assert as_tuple(solve(ts, w, h, **kw)) == as_tuple(reference_solve(ts, w, h, **kw))


def test_budget_point_is_exact():
    ts = chessboard_tileset()
    full = reference_solve(ts, 4, 4, mode="count")
    for budget in range(full.nodes + 2):
        got = solve(ts, 4, 4, mode="count", max_nodes=budget)
        assert as_tuple(got) == as_tuple(reference_solve(ts, 4, 4, mode="count", max_nodes=budget))
        assert got.status == ("inconclusive" if budget < full.nodes else "solved")
        assert got.nodes == min(budget + 1, full.nodes)


# --- masks: against the region enumerator and a brute-force oracle ----------


def annulus(outer, inner):
    h0 = (outer - inner) // 2
    hole = [(x, y) for y in range(h0, h0 + inner) for x in range(h0, h0 + inner)]
    region = [(x, y) for y in range(outer) for x in range(outer) if (x, y) not in hole]
    return hole, region


def mask_tilings(r, region):
    return [{p: sol.cells[p[1]][p[0]] for p in region} for sol in r.solutions]


@pytest.mark.parametrize("name, outer, inner", [
    ("chessboard", 5, 3), ("chessboard", 6, 2), ("striped", 5, 3), ("striped", 6, 2),
    ("robust-chessboard", 5, 3), ("thue-morse", 4, 2), ("thue-morse", 5, 1),
    ("thue-morse", 5, 3), ("thue-morse", 6, 2),
])
def test_annuli_match_region_reference(name, outer, inner):
    ts = {
        "chessboard": chessboard_tileset,
        "striped": striped_tileset,
        "robust-chessboard": lambda: robustify(chessboard_tileset()).tile_set,
        "thue-morse": lambda: enforce_substitution(thue_morse_rule()),
    }[name]()
    hole, region = annulus(outer, inner)
    r = solve(ts, outer, outer, mask=hole, mode="enumerate", max_solutions=4097)
    try:
        want, nodes = reference_region_tilings(ts, region, 4096, 2_000_000)
    except InconclusiveError:
        assert r.status == "inconclusive" and r.count == 4097  # Thue-Morse at 6/2
        return
    assert r.status == "solved" and r.nodes == nodes
    assert mask_tilings(r, region) == want
    assert all(sol.cells[y][x] == HOLE for sol in r.solutions for x, y in hole)



def ring(outer, inner):
    """The hole of the outer/inner annulus and the ring of cells around it."""
    hole, _ = annulus(outer, inner)
    lo, hi = (outer - inner) // 2 - 1, (outer - inner) // 2 + inner
    cells = [(x, y) for y in range(lo, hi + 1) for x in range(lo, hi + 1) if (x, y) not in hole]
    return hole, cells


def reference_window_robust(ts, outer, inner):
    """The robustness check by its ring semantics, with nothing shared: every
    ring tiling is pinned in the outer window, which is filled whole and
    filled around the hole.  A ring that extends outward but not across the
    whole window has an unfillable hole."""
    hole, cells = ring(outer, inner)
    try:
        tilings, _ = reference_region_tilings(ts, cells, 4096, 2_000_000)
    except InconclusiveError:
        return "inconclusive"
    verdict = "robust"
    for pins in tilings:
        template = PatchGrid.filled(outer, outer).replaced(pins)
        try:
            whole = fill_template(ts, template)
            out = fill_template(ts, template, mask=hole)
        except InconclusiveError:
            verdict = "inconclusive"
            continue
        if whole is None and out is not None:
            return "not_robust"
    return verdict


def reference_annulus_robust(ts, outer, inner):
    """The robustness check as it was: region enumeration, then a template
    fill of the whole window around each annulus."""
    hole, region = annulus(outer, inner)
    try:
        tilings, _ = reference_region_tilings(ts, region, 4096, 2_000_000)
    except InconclusiveError:
        return "inconclusive"
    for ann in tilings:
        rows = [[ann.get((x, y), HOLE) for x in range(outer)] for y in range(outer)]
        if fill_template(ts, PatchGrid(outer, outer, rows)) is None:
            return "not_robust"
    return "robust"


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 1)] * 4), min_size=1, max_size=6, unique=True),
       st.sampled_from([(3, 1), (4, 1), (4, 2), (5, 3)]))
@example([(0, 0, 1, 2), (0, 0, 2, 1)], (5, 3))  # the striped set: not robust
# more than 4,096 annuli, so the annulus reference decides nothing; the ring decides
@example([(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)], (4, 1))
def test_robust_check_matches_template_fill_reference(quads, shape):
    ts = TileSet(3, quads)
    got = check_window_robust(ts, *shape)
    assert got == reference_window_robust(ts, *shape)
    if got != "inconclusive":
        old = reference_annulus_robust(ts, *shape)
        assert old in (got, "inconclusive")


def reference_patterns(ts, w, max_windows=4096):
    """robustify's pattern census as it was: every (w+2) x (w+2) tiling,
    projected onto its central w x w pattern; None past ``max_windows``."""
    r = solve(ts, w + 2, w + 2, mode="enumerate", max_solutions=max_windows + 1)
    if r.status == "inconclusive":
        return None
    return sorted({tuple(map(tuple, sol.cells[1:w + 1, 1:w + 1].tolist())) for sol in r.solutions})


def assert_patterns_match_census(ts, w, max_windows=4096):
    want = reference_patterns(ts, w, max_windows)
    if want == []:
        with pytest.raises(CompileError):
            robustify(ts, w)
    elif want is not None:
        assert list(robustify(ts, w).patterns) == want


@pytest.mark.parametrize("w, windows", [(3, 2_048), (4, 74_240)])
def test_robustify_matches_window_census_on_thue_morse(w, windows):
    ts = enforce_substitution(thue_morse_rule())
    assert solve(ts, w + 2, w + 2, mode="count").count == windows
    assert_patterns_match_census(ts, w, windows)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 1)] * 4), min_size=1, max_size=5, unique=True),
       st.sampled_from([2, 3]))
@example([(0, 0, 1, 2), (0, 0, 2, 1)], 3)  # the striped set
@example([(0, 1, 0, 0), (1, 2, 0, 0)], 2)  # rows of two tiles: 2x2 tilings, none extends
def test_robustify_matches_window_census(quads, w):
    assert_patterns_match_census(TileSet(3, quads), w)


@settings(max_examples=200, deadline=None)
@given(windows(), st.data())
def test_masked_windows_match_region_reference(case, data):
    ts, w, h, kw = case
    hole = data.draw(st.sets(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))))
    region = [(x, y) for y in range(h) for x in range(w) if (x, y) not in hole]
    cap, budget = kw["max_solutions"] or 5, kw["max_nodes"]
    r = solve(ts, w, h, mask=hole, mode="enumerate", max_solutions=cap + 1, max_nodes=budget)
    try:
        want, nodes = reference_region_tilings(ts, region, cap, budget)
    except InconclusiveError:
        assert r.status == "inconclusive"
        return
    assert r.status == ("solved" if want else "unsatisfiable")
    assert (r.nodes, r.count) == (nodes, len(want))
    assert mask_tilings(r, region) == want


def brute_force_tilings(ts, w, h, *, mask, template=None, boundary=None, toroidal=False):
    """Every assignment of the unmasked cells that keeps each rule, in the
    lexicographic order of the row-major cell sequence (the search order)."""
    tiles = ts.tiles
    side = {k: _boundary_side(boundary, k, h if k in ("left", "right") else w)
            for k in ("left", "right", "top", "bottom")}
    cells = [(x, y) for y in range(h) for x in range(w) if (x, y) not in mask]

    def ok(at):
        for (x, y), t in at.items():
            if template is not None and template.cells[y][x] not in (HOLE, t):
                return False
            if x + 1 < w or toroidal:
                r = at.get(((x + 1) % w, y))
                if r is not None and tiles[t].right != tiles[r].left:
                    return False
            elif side["right"] is not None and tiles[t].right != side["right"][y]:
                return False
            if y + 1 < h or toroidal:
                u = at.get((x, (y + 1) % h))
                if u is not None and tiles[t].top != tiles[u].bottom:
                    return False
            elif side["top"] is not None and tiles[t].top != side["top"][x]:
                return False
            if x == 0 and not toroidal and side["left"] is not None and tiles[t].left != side["left"][y]:
                return False
            if y == 0 and not toroidal and side["bottom"] is not None and tiles[t].bottom != side["bottom"][x]:
                return False
        return True

    out = []
    for ids in itertools.product(range(len(tiles)), repeat=len(cells)):
        at = dict(zip(cells, ids))
        if ok(at):
            out.append(at)
    return out


@st.composite
def small_masked_windows(draw):
    """Few tiles over few colors, so that tilings are common, and at most five
    cells left unmasked, so that the brute force stays within 4**5 assignments."""
    colors = draw(st.integers(1, 3))
    color = st.integers(0, colors - 1)
    ts = TileSet(colors, draw(st.lists(st.tuples(color, color, color, color),
                                       min_size=1, max_size=4, unique=True)))
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = [(x, y) for y in range(h) for x in range(w)]
    kept = draw(st.lists(st.sampled_from(cells), max_size=5, unique=True))
    hole = frozenset(cells) - set(kept)
    toroidal = draw(st.booleans())
    boundary = None if toroidal else draw(boundaries(colors, w, h))
    template = None
    if draw(st.booleans()):
        pins = {p: draw(st.integers(0, len(ts) - 1)) for p in kept if draw(st.integers(0, 3)) == 0}
        template = PatchGrid.filled(w, h).replaced(pins)
    return ts, w, h, hole, template, boundary, toroidal


@settings(max_examples=200, deadline=None)
@given(small_masked_windows())
@example((chessboard_tileset(), 1, 3, frozenset({(0, 1)}), None, None, True))
@example((chessboard_tileset(), 3, 1, frozenset({(0, 0)}), None, None, True))
@example((TileSet(2, [(0, 0, 0, 0), (0, 0, 0, 1)]), 1, 2, frozenset({(0, 0)}), None,
          {"bottom": 1}, False))
# (0, 0) and (1, 0) are masked, so (1, 1) has no bottom neighbour and its key
# adds a free bottom side: the forced cell (0, 1) before it starts no run
@example((TileSet(2, [(0, 0, 1, 1)]), 5, 2, frozenset({(0, 0), (1, 0)}), None, None, False))
def test_masked_windows_match_brute_force(case):
    ts, w, h, hole, template, boundary, toroidal = case
    want = brute_force_tilings(ts, w, h, mask=hole, template=template,
                               boundary=boundary, toroidal=toroidal)
    kw = dict(mask=hole, template=template, boundary=boundary, toroidal=toroidal)
    cells = [(x, y) for y in range(h) for x in range(w) if (x, y) not in hole]
    r = solve(ts, w, h, mode="enumerate", **kw)
    assert mask_tilings(r, cells) == want
    assert r.status == ("solved" if want else "unsatisfiable")
    assert solve(ts, w, h, mode="count", **kw).count == len(want)
    got = solve(ts, w, h, **kw).patch
    assert (got is None) == (not want)
    assert got is None or mask_tilings(r, cells)[0] == {p: got.cells[p[1]][p[0]] for p in cells}


def test_mask_rejects_outside_cells_and_pinned_cells():
    ts = chessboard_tileset()
    with pytest.raises(ValueError):
        solve(ts, 3, 3, mask=[(3, 0)])
    with pytest.raises(ValueError):
        solve(ts, 3, 3, mask=[(1, 1)], template=PatchGrid.filled(3, 3).replaced({(1, 1): 0}))


def test_fully_masked_window_has_one_empty_tiling():
    r = solve(chessboard_tileset(), 2, 2, mask=[(0, 0), (1, 0), (0, 1), (1, 1)], mode="enumerate")
    assert (r.status, r.count, r.nodes) == ("solved", 1, 0)
    assert r.solutions == (PatchGrid.filled(2, 2),)


# --- the benchmark's anchor searches ------------------------------------------


@pytest.fixture(scope="module")
def compiled():
    return compile_simulation(chessboard_predicate_machine(), 1)


@pytest.fixture(scope="module")
def compiled_chessboard(compiled):
    return compiled.tile_set


def search_kw(compiled, how):
    """solve's keywords for a torus, or for the fill of a payload's border."""
    if how == "torus":
        return {"toroidal": True}
    return {} if how is None else {"boundary": _border(compiled, how)}


@pytest.mark.parametrize("width, height, how, status, nodes", [
    pytest.param(32, 32, None, "solved", 373_051, id="32-32-373051"),
    pytest.param(29, 12, None, "solved", 653_430, id="29-12-653430"),
    pytest.param(21, 20, None, "solved", 102_299, id="21-20-102299"),
    # cells with wrap or boundary checks: the last column and the top row
    pytest.param(16, 16, "torus", "solved", 2_835, id="16-16-torus-2835"),
    pytest.param(8, 8, (0, 1, 1, 0), "solved", 125, id="8-8-border-0110-125"),
    pytest.param(8, 8, (1, 0, 0, 1), "solved", 64, id="8-8-border-1001-64"),
    pytest.param(8, 8, (0, 0, 0, 0), "unsatisfiable", 87, id="8-8-border-0000-87"),
])
def test_compiled_chessboard_node_counts(compiled, width, height, how, status, nodes):
    r = solve(compiled.tile_set, width, height, **search_kw(compiled, how))
    assert (r.status, r.nodes) == (status, nodes)


def test_thue_morse_torus_count():
    r = solve(enforce_substitution(thue_morse_rule()), 6, 6, toroidal=True, mode="count")
    assert (r.status, r.count, r.nodes) == ("solved", 2_048, 33_868)


def test_every_budget_on_a_forced_chain_window(compiled_chessboard):
    """Forced cells and survivor lists charge their nodes in bulk; the search
    must still stop exactly where one candidate per step stops."""
    full = solve(compiled_chessboard, 16, 16)
    assert (full.status, full.nodes) == ("solved", 4_755)
    for budget in range(full.nodes + 2):
        r = solve(compiled_chessboard, 16, 16, max_nodes=budget)
        if budget < full.nodes:
            assert (r.status, r.nodes, r.patch) == ("inconclusive", budget + 1, None)
        else:
            assert (r.status, r.nodes, r.patch) == ("solved", full.nodes, full.patch)


def test_every_budget_matches_reference_on_compiled_chessboard(compiled_chessboard):
    full = reference_solve(compiled_chessboard, 8, 8)
    assert (full.status, full.nodes) == ("solved", 191)
    for budget in range(full.nodes + 2):
        got = solve(compiled_chessboard, 8, 8, max_nodes=budget)
        assert as_tuple(got) == as_tuple(reference_solve(compiled_chessboard, 8, 8, max_nodes=budget))


@pytest.mark.parametrize("case", ["compiled-chessboard", "xor-border"])
def test_every_budget_matches_reference_where_runs_reach_the_cap(compiled_chessboard, case):
    """Runs of RUN plain cells are replayed whole only when the budget pays
    for all of them; else they are stepped, and the budget stops the search
    where the reference stops."""
    if case == "compiled-chessboard":
        ts, w, h, kw, want = compiled_chessboard, 10, 9, {}, ("solved", 233)
    else:
        ts, w, h, kw, want = xor_tileset(), 12, 4, dict(boundary={"right": [0, 1, 1, 0]}), ("solved", 72)
    full = reference_solve(ts, w, h, **kw)
    assert (full.status, full.nodes) == want
    for budget in range(full.nodes + 2):
        got = solve(ts, w, h, max_nodes=budget, **kw)
        assert as_tuple(got) == as_tuple(reference_solve(ts, w, h, max_nodes=budget, **kw))


@pytest.mark.parametrize("width", range(12, 33))
def test_replayed_runs_search_the_same_tree(compiled_chessboard, monkeypatch, width):
    """First tilings of the compiled chessboard, runs replayed and runs
    stepped cell by cell (RUN = 0): same status, nodes and patch."""
    height = 12 + 13 * width % 21  # each height in 12..32 once
    on = solve(compiled_chessboard, width, height)
    monkeypatch.setattr(solver, "RUN", 0)
    off = solve(compiled_chessboard, width, height)
    assert (on.status, on.nodes, on.patch) == (off.status, off.nodes, off.patch)


@pytest.mark.parametrize("case", ["thue-morse-torus", "border-fill"])
def test_every_budget_matches_reference_on_checked_cells(compiled, case):
    """Wrap and boundary checks fail candidates inside forced steps and
    survivor lists; the budget must still stop where the reference stops."""
    if case == "thue-morse-torus":
        ts, w, h, kw = enforce_substitution(thue_morse_rule()), 4, 2, dict(toroidal=True, mode="count")
        want = ("solved", 144)
    else:
        ts, w, h, kw = compiled.tile_set, 8, 8, search_kw(compiled, (0, 0, 0, 0))
        want = ("unsatisfiable", 87)
    full = reference_solve(ts, w, h, **kw)
    assert (full.status, full.nodes) == want
    for budget in range(full.nodes + 2):
        got = solve(ts, w, h, max_nodes=budget, **kw)
        assert as_tuple(got) == as_tuple(reference_solve(ts, w, h, max_nodes=budget, **kw))


def test_candidate_index_is_cached_per_set():
    a, b = chessboard_tileset(), chessboard_tileset()
    assert a.search_tables() is a.search_tables()
    assert a.search_tables() is not b.search_tables()
    K = a.color_count + 1
    # the candidate index, then solve's other two tables, a stand-in 0 closing each
    index, right_k, top_of = a.search_tables()
    assert (right_k, top_of) == ([c * K for c in a.right] + [0], [*a.top, 0])
    assert index == {0 * K + 0: (0,), 0 * K + 2: (0,), 2 * K + 0: (0,),
                     1 * K + 1: (1,), 1 * K + 2: (1,), 2 * K + 1: (1,),
                     2 * K + 2: (0, 1)}

