import itertools
import re

import pytest

from tilebench import solver
from tilebench.core import (
    HOLE,
    PatchGrid,
    Tile,
    TileSet,
    block_border,
    chessboard_tileset,
    coordinate_tileset,
    verify_patch,
)
from tilebench.solver import (
    InconclusiveError,
    check_simulation_window,
    count_patch_tilings,
    fill_template,
    find_cut_offsets,
    find_periods,
    solve,
)


def white_tileset():
    return TileSet(1, [Tile(0, 0, 0, 0)], names=["white"])


def test_count_coordinate_torus():
    # One free choice of (i, j) at the corner determines everything else.
    assert count_patch_tilings(coordinate_tileset(2), 2, 2, toroidal=True) == 4
    assert count_patch_tilings(coordinate_tileset(3), 3, 3, toroidal=True) == 9


def test_count_coordinate_torus_wrong_size():
    # the coordinate step cannot wrap around a non-multiple of n
    assert count_patch_tilings(coordinate_tileset(2), 3, 2, toroidal=True) == 0
    assert count_patch_tilings(coordinate_tileset(3), 3, 4, toroidal=True) == 0


def test_count_chessboard():
    assert count_patch_tilings(chessboard_tileset(), 2, 2, toroidal=True) == 2
    assert count_patch_tilings(chessboard_tileset(), 3, 3, toroidal=True) == 0
    # bounded windows leave the phase free
    assert count_patch_tilings(chessboard_tileset(), 2, 2) == 2
    assert count_patch_tilings(chessboard_tileset(), 5, 3) == 2


def test_count_bounded_coordinate():
    # a bounded window is pinned only by the corner tile choice
    assert count_patch_tilings(coordinate_tileset(2), 3, 3) == 4


def test_enumerate_all_valid_and_distinct():
    ts = coordinate_tileset(2)
    r = solve(ts, 4, 4, mode="enumerate")
    assert r.status == "solved"
    sols = r.solutions
    assert len(sols) == 4
    assert len(set(sols)) == 4
    for p in sols:
        assert verify_patch(ts, p) == []


def test_solve_first_returns_valid_patch():
    ts = chessboard_tileset()
    r = solve(ts, 6, 6, mode="first")
    assert r.status == "solved"
    assert verify_patch(ts, r.patch) == []


def test_solve_unsatisfiable():
    # a tile that can never sit beside itself, alone, cannot tile 2x1
    ts = TileSet(2, [Tile(0, 1, 0, 0)])
    r = solve(ts, 2, 1, mode="first")
    assert r.status == "unsatisfiable"
    assert r.patch is None


def test_template_pins_phase():
    ts = chessboard_tileset()
    tmpl = PatchGrid.filled(4, 4).replaced({(0, 0): 1})
    assert count_patch_tilings(ts, 4, 4, template=tmpl) == 1
    filled = fill_template(ts, tmpl)
    assert filled.get(0, 0) == 1
    assert filled.get(1, 0) == 0
    assert verify_patch(ts, filled) == []


def test_template_conflict_unsolvable():
    ts = chessboard_tileset()
    tmpl = PatchGrid.filled(2, 1).replaced({(0, 0): 0, (1, 0): 0})
    assert fill_template(ts, tmpl) is None


def test_boundary_constrains_sides():
    ts = chessboard_tileset()
    # left side colors bottom-to-top (0, 1) force the phase
    assert count_patch_tilings(ts, 2, 2, boundary={"left": [0, 1]}) == 1
    # contradictory boundary: no tiling
    assert count_patch_tilings(ts, 2, 2, boundary={"left": [0, 0]}) == 0
    with pytest.raises(ValueError):
        solve(ts, 2, 2, toroidal=True, boundary={"left": 0})


@pytest.mark.parametrize("boundary", [{"lft": 5}, {"left": 5, "Top": 0}, {0: 1}])
def test_an_unknown_boundary_side_is_refused(boundary):
    # a misspelt side would otherwise leave that border free
    unknown = [k for k in boundary if k not in ("left", "right", "top", "bottom")]
    with pytest.raises(ValueError, match=re.escape(f"unknown boundary sides {unknown}")):
        solve(chessboard_tileset(), 2, 2, boundary=boundary)


def test_budget_raises_inconclusive():
    ts = coordinate_tileset(3)
    with pytest.raises(InconclusiveError, match="count hit its budget after 11 nodes"):
        count_patch_tilings(ts, 6, 6, max_nodes=10)
    with pytest.raises(InconclusiveError, match="fill hit its budget after 3 nodes"):
        fill_template(ts, PatchGrid.filled(6, 6), max_nodes=2)
    with pytest.raises(InconclusiveError, match=re.escape("period (1, 1) hit its budget after 1 nodes")):
        find_periods(ts, 3, max_nodes=0)
    r = solve(ts, 6, 6, mode="count", max_nodes=10)
    assert r.status == "inconclusive"


@pytest.mark.parametrize("kw", [dict(max_nodes=-1), dict(max_nodes=-7, mode="count"),
                                dict(max_solutions=0, mode="count"),
                                dict(max_solutions=-2, mode="enumerate")])
def test_bad_budgets_are_rejected(kw):
    with pytest.raises(ValueError):
        solve(chessboard_tileset(), 3, 3, **kw)


def test_solution_cap_is_inconclusive():
    r = solve(coordinate_tileset(2), 4, 4, mode="count", max_solutions=2)
    assert r.status == "inconclusive"
    assert r.count == 2


def test_find_periods_chessboard():
    assert find_periods(chessboard_tileset(), 4) == {(2, 2), (2, 4), (4, 2), (4, 4)}


def test_find_periods_white():
    assert find_periods(white_tileset(), 2) == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_find_periods_coordinate_three():
    got = find_periods(coordinate_tileset(3), 6)
    assert got == {(3, 3), (3, 6), (6, 3), (6, 6)}


@pytest.mark.parametrize("max_period", [0, -3])
def test_find_periods_bound_below_one_is_refused(max_period):
    # an empty census would read as "no period" for any set
    with pytest.raises(ValueError, match="max_period"):
        find_periods(white_tileset(), max_period)


def coordinate_patch(n, w, h, dx=0, dy=0):
    return PatchGrid(
        w, h, [[((x + dx) % n) * n + (y + dy) % n for x in range(w)] for y in range(h)]
    )


def test_find_cut_offsets_coordinate():
    p = coordinate_patch(2, 6, 6)
    assert find_cut_offsets(p, 2) == [(0, 0)]
    # a shifted patch still has exactly one self-consistent alignment
    assert find_cut_offsets(coordinate_patch(2, 6, 6, dx=1), 2) == [(0, 0)]


def test_find_cut_offsets_white_everywhere():
    p = PatchGrid.filled(4, 4, 0)
    assert find_cut_offsets(p, 2) == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_find_cut_offsets_rejects_holes():
    with pytest.raises(ValueError):
        find_cut_offsets(PatchGrid.filled(4, 4, HOLE), 2)


def test_simulation_verified_coordinate_over_white():
    chk = check_simulation_window(coordinate_tileset(2), white_tileset(), 2, 6)
    assert chk.status == "verified"
    assert chk.family_size == 1
    assert chk.tilings_seen == 4


def test_simulation_refuted_white_nonunique_cut():
    # the classic degenerate case: a single blank tile tiles the plane but
    # the cut into 2x2 blocks can be slid anywhere
    chk = check_simulation_window(white_tileset(), white_tileset(), 2, 6)
    assert chk.status == "refuted"
    assert len(chk.counterexample_offsets) == 4
    assert chk.counterexample_tiling is not None


def test_simulation_refuted_bad_target():
    # cuts are unique but a coordinate macro-tile has equal left/right
    # macro-colors, which no chessboard tile can realize
    chk = check_simulation_window(coordinate_tileset(2), chessboard_tileset(), 2, 6)
    assert chk.status == "refuted"
    assert "embed" in chk.detail


def test_simulation_refuted_when_a_tiling_has_no_cut():
    # coordinate(2) and coordinate(3) side by side, on disjoint colors: a
    # 6x6 window tiled by the 3-periodic half admits no cut into 2x2 blocks
    small, large = coordinate_tileset(2), coordinate_tileset(3)
    shift = small.color_count
    tau = TileSet(shift + large.color_count,
                  list(small) + [tuple(c + shift for c in t.sides()) for t in large])
    chk = check_simulation_window(tau, white_tileset(), 2, 6)
    assert chk.status == "refuted"
    assert chk.counterexample_offsets == ()
    assert "admits 0 valid cut offsets" in chk.detail


@pytest.mark.parametrize("n", [0, -1])
def test_simulation_rejects_a_zoom_below_one(n):
    with pytest.raises(ValueError, match="at least 1"):
        check_simulation_window(coordinate_tileset(2), white_tileset(), n, 6)


def test_simulation_inconclusive_on_cap(monkeypatch):
    monkeypatch.setattr(solver, "MAX_SOLUTIONS", 2)
    chk = check_simulation_window(coordinate_tileset(2), white_tileset(), 2, 6)
    assert chk.status == "inconclusive"


def test_simulation_cap_means_more_than(monkeypatch):
    # the 6x6 window has exactly four tilings: a cap of four is not hit
    monkeypatch.setattr(solver, "MAX_SOLUTIONS", 4)
    chk = check_simulation_window(coordinate_tileset(2), white_tileset(), 2, 6)
    assert chk.status == "verified" and chk.tilings_seen == 4
    monkeypatch.setattr(solver, "MAX_SOLUTIONS", 3)
    chk = check_simulation_window(coordinate_tileset(2), white_tileset(), 2, 6)
    assert chk.status == "inconclusive"


def free_tileset(colors):
    """Every tile over ``colors`` colors: any macro-tile family embeds into it
    once it has at least as many colors as the family's macro colors."""
    return TileSet(colors, list(itertools.product(range(colors), repeat=4)))


def reference_embed(blocks, tau, rho):
    """The embedding search before it had a budget: the check's rho tiles
    tried in the same order, with no count of them."""
    sides = [block_border(tau, b, 0, 0, len(b)) for b in blocks]
    quads = list(zip(rho.left, rho.right, rho.top, rho.bottom))
    hmap, vmap, hused, vused = {}, {}, set(), set()

    def rec(i):
        if i == len(sides):
            return True
        ml, mr, mt, mb = sides[i]
        for rl, rr, rt, rb in quads:
            undo = []
            ok = True
            for m, c, mp, used in ((ml, rl, hmap, hused), (mr, rr, hmap, hused),
                                   (mt, rt, vmap, vused), (mb, rb, vmap, vused)):
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


SIMULATION_CASES = (
    # the cases above and the benchmark's simulate ops
    [("coordinate", 2, "white", 2, 6), ("white", 1, "white", 2, 6),
     ("coordinate", 2, "chessboard", 2, 6)]
    + [("coordinate", k, "white", k, w) for k in (2, 3, 4) for w in range(2 * k - 1, 2 * k + 3)]
    + [(tau, 1, "white", 2, w) for tau in ("chessboard", "white") for w in (3, 4, 8)]
    # coordinate sets over free sets of 2-5 colors
    + [("coordinate", k, c, n, w) for n in (2, 3) for k in range(2, 7) for c in range(2, 6)
       for w in (2 * n - 1, 2 * n + 2)]
)


def _simulation_sets(tau, k, rho):
    sets = {"white": white_tileset(), "chessboard": chessboard_tileset()}
    return (coordinate_tileset(k) if tau == "coordinate" else sets[tau],
            free_tileset(rho) if isinstance(rho, int) else sets[rho])


def test_simulation_verdicts_match_the_unbudgeted_embedding(monkeypatch):
    # where the shared embedding budget suffices, the verdict and its report
    # are the reference's; 30,000 nodes decide every case
    monkeypatch.setattr(solver, "MAX_NODES", 30_000)
    decided = 0
    for tau_name, k, rho_name, n, window in SIMULATION_CASES:
        tau, rho = _simulation_sets(tau_name, k, rho_name)
        got = check_simulation_window(tau, rho, n, window)
        if got.status == "inconclusive":
            continue
        decided += 1
        with monkeypatch.context() as m:
            m.setattr(solver, "_macro_tiles_embed",
                      lambda blocks, tau, rho, room: reference_embed(blocks, tau, rho))
            want = check_simulation_window(tau, rho, n, window)
        assert got == want, (tau_name, k, rho_name, n, window)
    assert decided == len(SIMULATION_CASES)


def mod4_tileset():
    """The 64 tiles over four colors whose colors sum to 1 mod 4: as many
    colors on each axis as coordinate(4)'s 2-blocks, yet no embedding."""
    return TileSet(4, [q for q in itertools.product(range(4), repeat=4) if sum(q) % 4 == 1])


def test_more_macro_colors_than_rho_has_refutes_before_any_node(monkeypatch):
    # coordinate(4)'s 2-blocks have four macro colors on each axis, and three
    # colors cannot take them injectively: the embedding refutes before any
    # node, so a budget that just covers the enumeration (1,024 nodes) decides
    tau, rho = coordinate_tileset(4), free_tileset(3)
    assert check_simulation_window(tau, rho, 2, 8).status == "refuted"
    monkeypatch.setattr(solver, "MAX_NODES", 1_024)
    chk = check_simulation_window(tau, rho, 2, 8)
    assert chk.status == "refuted" and "embed" in chk.detail
    family = sorted(solver._blocks_at(solve(tau, 8, 8).patch, 2, 0, 0))
    assert solver._macro_tiles_embed(family, tau, rho, [0]) is False


def test_simulation_embedding_budget_is_inconclusive(monkeypatch):
    # coordinate(4) over the mod-4 set: 1,024 enumeration nodes, then
    # embedding searches that refute after 16,640 nodes in all
    tau, rho = coordinate_tileset(4), mod4_tileset()
    chk = check_simulation_window(tau, rho, 2, 8)
    assert chk.status == "refuted" and "embed" in chk.detail
    monkeypatch.setattr(solver, "MAX_NODES", 5_000)
    chk = check_simulation_window(tau, rho, 2, 8)
    assert chk.status == "inconclusive" and "embedding" in chk.detail
    assert chk.tilings_seen == 16 and chk.counterexample_tiling is None
    # a search the budget covers still decides: 514 nodes verify over four colors
    assert check_simulation_window(tau, free_tileset(4), 2, 6).status == "verified"
