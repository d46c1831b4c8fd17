import hashlib
import json

import pytest

from tilebench.compiler import (
    check_window_robust,
    correct_errors,
    lift,
    project,
    robust,
    robustify,
)
from tilebench.core import HOLE, PatchGrid, Tile, TileSet, chessboard_tileset, verify_patch
from tilebench.islands import changed_fraction_bound, make_schedule
from tilebench.solver import InconclusiveError, fill_template, solve
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

    @pytest.mark.parametrize("base, w, digest", [
        (chessboard_tileset, 3, "1cfd45076a0852b1db8afd0b8e052a08a731f6ddb0bc8206df1e8728bc0f7160"),
        (chessboard_tileset, 5, "1cfd45076a0852b1db8afd0b8e052a08a731f6ddb0bc8206df1e8728bc0f7160"),
        (striped_tileset, 5, "37491e8b2024e740cec496ecf1ddb86703adeaf465de8f82d702b64f9cd93c28"),
    ])
    def test_pattern_set_is_frozen(self, base, w, digest):
        # sha256 of the sorted-key JSON: pins the color numbering, not only counts
        obj = robustify(base(), w).tile_set.to_json()
        assert hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest() == digest

    @pytest.mark.parametrize("w, patterns", [(4, 656), (5, 2048)])
    def test_thue_morse_patterns_under_default_caps(self, w, patterns):
        # the census caps w x w tilings, not (w+2) x (w+2) windows: at w=5
        # the Thue-Morse set has 2,048 patterns in 262,144 windows
        tm = enforce_substitution(thue_morse_rule())
        assert len(robustify(tm, w).patterns) == patterns

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

    def test_budget_hits_are_inconclusive(self, monkeypatch):
        # the Thue-Morse-enforced ring around a 4x4 hole has 6,400 tilings
        tm = enforce_substitution(thue_morse_rule())
        assert check_window_robust(tm, 8, 4) == "inconclusive"
        with monkeypatch.context() as m:
            m.setattr(robust, "MAX_NODES", 50)
            assert check_window_robust(tm, 5, 3) == "inconclusive"
        # the chessboard annulus has two tilings (its two phases)
        monkeypatch.setattr(robust, "MAX_SOLUTIONS", 1)
        assert check_window_robust(chessboard_tileset(), 5, 3) == "inconclusive"
        monkeypatch.setattr(robust, "MAX_SOLUTIONS", 2)
        assert check_window_robust(chessboard_tileset(), 5, 3) == "robust"

    @pytest.mark.parametrize("outer, inner", [(6, 2), (7, 3)])
    def test_thue_morse_decides_under_default_caps(self, outer, inner):
        # 73,984 and 131,072 annulus tilings, but only 400 and 1,024 ring
        # tilings: the cap counts rings
        tm = enforce_substitution(thue_morse_rule())
        assert check_window_robust(tm, outer, inner) == "robust"

    def test_pattern_census_cap_means_more_than(self, monkeypatch):
        # the chessboard has exactly two 3x3 tilings (its two phases)
        monkeypatch.setattr(robust, "MAX_SOLUTIONS", 2)
        assert len(robustify(chessboard_tileset(), 3).patterns) == 2
        monkeypatch.setattr(robust, "MAX_SOLUTIONS", 1)
        with pytest.raises(InconclusiveError, match="pattern census hit its budget after"):
            robustify(chessboard_tileset(), 3)

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
        assert rep.patch == lifted
        assert rep.changed == frozenset(holes)
        sched = make_schedule(13, 1, 4)
        assert rep.changed_fraction <= changed_fraction_bound(sched, 2)

    def test_collar_sizes(self, rob, lifted):
        cells = [list(row) for row in lifted.cells]
        cells[9][7] = HOLE
        # refused up front, not by a carve of negative size deep inside
        with pytest.raises(ValueError, match="collar"):
            correct_errors(rob, PatchGrid(40, 40, cells), c1=-1)
        # c1 = 0 carves the island's bounding box and nothing more
        rep = correct_errors(rob, PatchGrid(40, 40, cells), c1=0)
        assert rep.status == "clean"
        assert rep.boxes == ((7, 9, 7, 9),)
        assert rep.patch == lifted

    def test_refill_budget_hit_is_inconclusive(self, rob, lifted, monkeypatch):
        cells = [list(row) for row in lifted.cells]
        cells[9][7] = HOLE
        monkeypatch.setattr(robust, "MAX_NODES", 0)
        with pytest.raises(InconclusiveError, match="after 1 nodes"):
            correct_errors(rob, PatchGrid(40, 40, cells))

    def test_mismatch_defect_is_rewritten(self, rob, lifted):
        cells = [list(row) for row in lifted.cells]
        cells[20][20] = 1 - cells[20][20]
        rep = correct_errors(rob, PatchGrid(40, 40, cells))
        assert rep.status == "clean"
        assert rep.patch == lifted
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

    def test_a_residual_repaired_by_a_neighbours_carve_still_fails(self):
        # the three-hole run is too wide for the one rank's islands, so
        # cleaning leaves it; the lone hole's carve covers it and the refill
        # mends it, but the schedule did not clean it
        g = [list(row) for row in striped_patch(5, 12).cells]
        for y in (1, 2, 3, 5):
            g[y][2] = HOLE
        rep = correct_errors(
            striped_tileset(), PatchGrid(5, 12, g), schedule=make_schedule(1, 1, 1)
        )
        assert not rep.patch.holes() and verify_patch(striped_tileset(), rep.patch) == []
        assert rep.boxes == ((0, 1, 4, 9),)
        assert rep.status == "failed"
        assert rep.failures == (frozenset({(2, 1), (2, 2), (2, 3)}),)

    def test_a_refill_that_breaks_its_ring_fails(self, rob, lifted, monkeypatch):
        # the repaired patch is verified, not taken on the solver's word: a
        # refill whose carved centre breaks its adjacencies reads failed,
        # though no refill failed and no hole is left
        def careless_fill(ts, grid, **kw):
            cells = fill_template(ts, grid, **kw).cells.copy()
            cells[grid.height // 2, grid.width // 2] ^= 1
            return PatchGrid(grid.width, grid.height, cells)

        monkeypatch.setattr(robust, "fill_template", careless_fill)
        cells = [list(row) for row in lifted.cells]
        cells[9][7] = HOLE
        rep = correct_errors(rob, PatchGrid(40, 40, cells))
        assert rep.failures == () and not rep.patch.holes()
        assert verify_patch(rob.tile_set, rep.patch)
        assert rep.status == "failed"
