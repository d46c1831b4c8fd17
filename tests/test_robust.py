import pytest

from tilebench.compiler import (
    check_window_robust,
    correct_errors,
    lift,
    project,
    robustify,
)
from tilebench.core import HOLE, PatchGrid, Tile, TileSet, chessboard_tileset, verify_patch
from tilebench.islands import changed_fraction_bound, make_schedule
from tilebench.solver import InconclusiveError, solve
from tilebench.substitution import enforce_substitution, thue_morse_rule


def striped_tileset():
    # columns of alternating X/Y with no horizontal coupling; a vertical gap
    # can therefore hide a parity clash that only the column endpoints see
    return TileSet(3, [Tile(0, 0, 1, 2), Tile(0, 0, 2, 1)], names=["X", "Y"])


def striped_patch(width, height):
    return PatchGrid(width, height, [[y % 2] * width for y in range(height)])


@pytest.fixture(scope="module")
def rob():
    return robustify(chessboard_tileset())


@pytest.fixture(scope="module")
def lifted(rob):
    base = solve(chessboard_tileset(), 44, 44, mode="first").patch
    return lift(rob, base)


class TestRobustify:
    def test_chessboard_patterns(self, rob):
        assert rob.w == 5
        assert len(rob.tile_set.tiles) == 2
        # two phases, and the pattern grids really are chessboards
        for pat in rob.patterns:
            for y in range(5):
                for x in range(4):
                    assert pat[y][x] != pat[y][x + 1]
                    assert pat[x][y] != pat[x + 1][y]
        assert rob.patterns[0][0][0] != rob.patterns[1][0][0]

    def test_striped_set_patterns(self):
        rxy = robustify(striped_tileset())
        assert len(rxy.tile_set.tiles) == 32  # five free column phases

    def test_w_too_small(self):
        with pytest.raises(ValueError):
            robustify(chessboard_tileset(), 1)

    def test_untileable_base(self):
        dead = TileSet(2, [Tile(0, 1, 0, 1)])
        with pytest.raises(ValueError):
            robustify(dead)

    def test_lift_project_roundtrip(self, rob, lifted):
        assert (lifted.width, lifted.height) == (40, 40)
        assert verify_patch(rob.tile_set, lifted) == []
        base_view = project(rob, lifted)
        # corner-of-window convention: cell (x, y) sees base cell (x, y)
        for x in range(0, 40, 7):
            for y in range(0, 40, 7):
                assert base_view.get(x, y) == rob.patterns[lifted.get(x, y)][0][0]

    def test_lift_rejects_alien_window(self, rob):
        flat = PatchGrid(8, 8, [[0] * 8 for _ in range(8)])
        with pytest.raises(ValueError):
            lift(rob, flat)


class TestWindowRobust:
    def test_robustified_chessboard(self, rob):
        assert check_window_robust(rob, 5, 3) == "robust"

    def test_striped_set_is_not_robust(self):
        assert check_window_robust(striped_tileset(), 5, 3) == "not_robust"

    def test_robustify_repairs_the_striped_set(self):
        assert check_window_robust(robustify(striped_tileset()), 5, 3) == "robust"

    def test_window_must_contain_hole(self):
        with pytest.raises(ValueError):
            check_window_robust(chessboard_tileset(), 3, 3)

    def test_budget_hits_are_inconclusive(self):
        # the Thue-Morse-enforced annulus at 6/2 has more than 4,096 tilings
        tm = enforce_substitution(thue_morse_rule())
        assert check_window_robust(tm, 6, 2) == "inconclusive"
        assert check_window_robust(tm, 5, 3, max_nodes=50) == "inconclusive"
        # the chessboard annulus has two tilings (its two phases)
        assert check_window_robust(chessboard_tileset(), 5, 3, max_solutions=1) == "inconclusive"
        assert check_window_robust(chessboard_tileset(), 5, 3, max_solutions=2) == "robust"

    def test_pattern_census_cap_means_more_than(self):
        # the chessboard has exactly two 5x5 windows (its two phases)
        assert len(robustify(chessboard_tileset(), 3, max_solutions=2).patterns) == 2
        with pytest.raises(InconclusiveError):
            robustify(chessboard_tileset(), 3, max_solutions=1)

    def test_fill_budget_hit_is_inconclusive(self, monkeypatch):
        fills = []

        def first_fill_starved(*args, **kw):
            if kw.get("boundary") is not None:
                fills.append(1)
                if len(fills) == 1:
                    kw["max_nodes"] = 0
            return solve(*args, **kw)

        monkeypatch.setattr("tilebench.compiler.robust.solve", first_fill_starved)
        assert check_window_robust(chessboard_tileset(), 5, 3) == "inconclusive"
        # the striped set's first annulus fills, its second does not: that
        # counterexample still decides once the first fill runs out
        fills.clear()
        assert check_window_robust(striped_tileset(), 5, 3) == "not_robust"
        assert len(fills) == 2


class TestCorrectErrors:
    def test_noop_on_clean_patch(self, rob, lifted):
        rep = correct_errors(rob, lifted)
        assert rep.status == "clean"
        assert rep.changed == frozenset()
        assert rep.islands == ()

    def test_three_isolated_holes(self, rob, lifted):
        holes = [(7, 9), (25, 30), (33, 8)]
        cells = [list(row) for row in lifted.cells]
        for x, y in holes:
            cells[y][x] = HOLE
        rep = correct_errors(rob, PatchGrid(40, 40, cells))
        assert rep.status == "clean"
        assert [k for k, _ in rep.islands] == [1, 1, 1]
        assert verify_patch(rob.tile_set, rep.patch) == []
        assert not rep.patch.holes()
        # nothing moved outside the mandated neighborhoods...
        boxes = rep.boxes
        for y in range(40):
            for x in range(40):
                if rep.patch.get(x, y) != (HOLE if (x, y) in holes else lifted.get(x, y)):
                    assert any(
                        x0 <= x <= x1 and y0 <= y <= y1 for x0, y0, x1, y1 in boxes
                    )
        # ...in fact the unique chessboard completion restores the original
        assert rep.patch.cells == lifted.cells
        assert rep.changed == frozenset(holes)
        sched = make_schedule(13, 1, 4)
        assert rep.changed_fraction <= changed_fraction_bound(sched, 2)

    def test_mismatch_defect_is_rewritten(self, rob, lifted):
        cells = [list(row) for row in lifted.cells]
        cells[20][20] = 1 - cells[20][20]
        rep = correct_errors(rob, PatchGrid(40, 40, cells))
        assert rep.status == "clean"
        assert rep.patch.cells == lifted.cells
        assert (20, 20) in rep.changed

    def test_contradiction_beyond_carve_radius_fails(self):
        g = [list(row) for row in striped_patch(5, 12).cells]
        g[5][2] = HOLE
        g[6][2] = HOLE
        g[11][2] = 0  # even-height column pinned to the wrong phase
        rep = correct_errors(
            striped_tileset(), PatchGrid(5, 12, g), schedule=make_schedule(2, 1, 2)
        )
        assert rep.status == "failed"
        assert rep.failures == (frozenset({(2, 5), (2, 6)}),)

    def test_oversize_defect_reported(self):
        g = [list(row) for row in striped_patch(5, 5).cells]
        for y in (1, 2, 3):
            g[y][2] = HOLE
        rep = correct_errors(
            striped_tileset(), PatchGrid(5, 5, g), schedule=make_schedule(1, 1, 1)
        )
        assert rep.status == "failed"
        assert rep.failures == (frozenset({(2, 1), (2, 2), (2, 3)}),)
