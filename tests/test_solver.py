import pytest

from tilebench.core import (
    HOLE,
    PatchGrid,
    Tile,
    TileSet,
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


def test_budget_raises_inconclusive():
    ts = coordinate_tileset(3)
    with pytest.raises(InconclusiveError):
        count_patch_tilings(ts, 6, 6, max_nodes=10)
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


@pytest.mark.parametrize("n", [0, -1])
def test_simulation_rejects_a_zoom_below_one(n):
    with pytest.raises(ValueError, match="at least 1"):
        check_simulation_window(coordinate_tileset(2), white_tileset(), n, 6)


def test_simulation_inconclusive_on_cap():
    chk = check_simulation_window(
        coordinate_tileset(2), white_tileset(), 2, 6, max_solutions=2
    )
    assert chk.status == "inconclusive"


def test_simulation_cap_means_more_than():
    # the 6x6 window has exactly four tilings: a cap of four is not hit
    chk = check_simulation_window(
        coordinate_tileset(2), white_tileset(), 2, 6, max_solutions=4
    )
    assert chk.status == "verified" and chk.tilings_seen == 4
    chk = check_simulation_window(
        coordinate_tileset(2), white_tileset(), 2, 6, max_solutions=3
    )
    assert chk.status == "inconclusive"
