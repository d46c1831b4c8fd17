import dataclasses
import json
import re
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilebench.core import (
    HOLE,
    Interner,
    MalformedPatchError,
    PatchGrid,
    Tile,
    TileSet,
    Violation,
    besicovitch_distance,
    block_border,
    chessboard_tileset,
    coordinate_tileset,
    verify_patch,
)
from tilebench.substitution import aperiodicity_fraction


def chessboard_patch(w, h):
    return PatchGrid(w, h, [[(x + y) % 2 for x in range(w)] for y in range(h)])


def test_tileset_rejects_bad_colors():
    with pytest.raises(ValueError):
        TileSet(2, [Tile(0, 1, 2, 0)])
    with pytest.raises(ValueError):
        TileSet(0, [])


def test_tileset_rejects_duplicates():
    with pytest.raises(ValueError):
        TileSet(2, [Tile(0, 1, 1, 0), Tile(0, 1, 1, 0)])
    with pytest.raises(ValueError, match=r"duplicate tile quadruple at ids 1 and 3"):
        TileSet(2, [Tile(0, 0, 0, 0), Tile(0, 1, 1, 0), Tile(1, 0, 0, 1), (0, 1, 1, 0)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 1)] * 4), max_size=20))
def test_duplicate_check_names_the_first_repeat(quads):
    # the check sorts the columns; the reference walks the ids with a dict
    seen = {}
    for i, q in enumerate(quads):
        if seen.setdefault(q, i) != i:
            with pytest.raises(ValueError, match=rf"duplicate tile quadruple at ids {seen[q]} and {i}$"):
                TileSet(2, quads)
            return
    assert list(TileSet(2, quads)) == [Tile(*q) for q in quads]


@pytest.mark.parametrize("quad", [(0, 1, 1), (0, 1, 1, 0, 0), (0, 1.0, 1, 0), (0, "1", 1, 0),
                                  (0, 2 ** 40, 1, 0), (0, -1, 1, 0)])
def test_tileset_rejects_malformed_tiles(quad):
    with pytest.raises(ValueError):
        TileSet(2 ** 41, [(0, 0, 0, 0), quad])


def test_tileset_takes_an_id_array():
    # a (tiles, 4) array of C ints is the same set as its rows, and gets the
    # same checks and messages
    quads = [(0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0)]
    assert TileSet(2, np.array(quads, dtype=np.intc)) == TileSet(2, quads)
    with pytest.raises(ValueError, match=r"^tile 2 uses color 2 outside \[0, 2\)$"):
        TileSet(2, np.array(quads[:2] + [(1, 1, 2, 0)], dtype=np.intc))
    with pytest.raises(ValueError, match=r"^duplicate tile quadruple at ids 0 and 3$"):
        TileSet(2, np.array(quads + [quads[0]], dtype=np.intc))
    for bad in (np.array(quads), np.array(quads, dtype=np.intc)[:, :3], np.zeros(4, np.intc)):
        with pytest.raises(ValueError, match=r"^a tile array must be \(tiles, 4\) C ints"):
            TileSet(2, bad)


def test_tileset_keeps_its_sides_in_columns():
    ts = TileSet(4, [Tile(0, 1, 2, 3), (3, 2, 1, 0)])
    assert (ts.left, ts.right, ts.top, ts.bottom) == tuple(array("i", c) for c in
                                                          ((0, 3), (1, 2), (2, 1), (3, 0)))
    assert len(ts.tiles) == len(ts) == 2
    assert list(ts.tiles) == list(ts) == [Tile(0, 1, 2, 3), Tile(3, 2, 1, 0)]
    assert ts.tiles[-1] == Tile(3, 2, 1, 0)
    assert ts == TileSet(4, [(0, 1, 2, 3), (3, 2, 1, 0)]) != TileSet(4, [(0, 1, 2, 3)])
    assert hash(ts) == hash(TileSet(4, [(0, 1, 2, 3), Tile(3, 2, 1, 0)]))
    assert ts != TileSet(5, [(0, 1, 2, 3), (3, 2, 1, 0)])


def test_tileset_roundtrip_json():
    ts = chessboard_tileset()
    obj = json.loads(json.dumps(ts.to_json()))
    again = TileSet.from_json(obj)
    assert again == ts
    assert again.names == ("even", "odd")
    # wire format is exactly the documented shape
    assert set(obj) == {"color_count", "tiles", "names"}
    assert obj["tiles"][0] == [0, 1, 1, 0]


def test_interner_numbers_keys_by_first_use():
    ids = Interner()
    # a new key gets the next id, a repeated one keeps its own
    assert [ids[k] for k in ("b", "a", "b", ("c", 1), "a")] == [0, 1, 0, 2, 1]
    assert list(ids) == ["b", "a", ("c", 1)]  # keys iterate in id order
    assert list(ids.values()) == [0, 1, 2]
    # only a lookup by [] numbers a key; `in` and get leave the ids alone
    assert "z" not in ids and ids.get("z") is None and len(ids) == 3
    seeded = Interner(start=0, accept=1)
    assert (seeded["x"], seeded["start"], list(seeded)) == (2, 0, ["start", "accept", "x"])


def test_tiles_are_slotted_and_frozen():
    t = Tile(0, 1, 2, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.left = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        del t.bottom
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.extra = 1
    assert t.sides() == (0, 1, 2, 3)
    assert not hasattr(t, "__dict__")
    assert t == Tile(0, 1, 2, 3) and t != Tile(0, 1, 2, 4)
    assert t != (0, 1, 2, 3)
    assert hash(t) == hash(Tile(0, 1, 2, 3)) == hash((0, 1, 2, 3))
    assert len({t, Tile(0, 1, 2, 3), Tile(3, 2, 1, 0)}) == 2


def test_patch_shape_checks():
    with pytest.raises(ValueError):
        PatchGrid(2, 2, [[0, 0]])
    with pytest.raises(ValueError):
        PatchGrid(2, 2, [[0], [0]])
    p = PatchGrid.filled(3, 2)
    assert p.get(2, 1) == HOLE
    assert len(p.holes()) == 6


@pytest.mark.parametrize("width, height, cells", [
    (2, 1, [[0, 1.0]]), (2, 1, [[0, True]]), (2, 1, [[0, "1"]]), (2, 1, [[0, np.bool_(1)]]),
    (2, 1, np.array([[0.0, 1.0]])), (2, 1, np.array([[False, True]])),
    (2.0, 1, [[0, 1]]), (2, True, [[0, 1]]),
], ids=["float", "bool", "string", "numpy-bool", "float-array", "bool-array",
        "float-width", "bool-height"])
def test_patch_refuses_what_is_not_an_int(width, height, cells):
    with pytest.raises(ValueError) as err:
        PatchGrid(width, height, cells)
    assert not isinstance(err.value, MalformedPatchError)


@pytest.mark.parametrize("bad", [2**31, -2**31 - 1, 2**63, 2**70])
def test_an_id_past_int32_is_malformed(bad):
    rows = [[0, 1], [1, bad]]
    for cells in [rows] + ([np.array(rows, dtype=np.int64)] if bad < 2**63 else []):
        with pytest.raises(MalformedPatchError, match=rf"cell \(1, 1\) holds unknown tile id {bad}"):
            PatchGrid(2, 2, cells)
    assert PatchGrid(1, 1, [[2**31 - 1]]).get(0, 0) == 2**31 - 1


@pytest.mark.parametrize("cell", [(-1, 0), (0, -1), (3, 0), (0, 2), (-4, 0), (3, 2)])
def test_replaced_refuses_a_cell_outside_the_patch(cell):
    # a negative coordinate would otherwise land on the far edge
    p = PatchGrid.filled(3, 2, 0)
    with pytest.raises(IndexError, match=re.escape(f"cell {cell} lies outside the patch")):
        p.replaced({cell: 5})
    assert p.replaced({(0, 0): 5, (2, 1): 6}).cells.tolist() == [[5, 0, 0], [0, 0, 6]]


def test_patch_row_zero_is_bottom():
    p = PatchGrid(2, 2, [[0, 1], [2, 3]])
    assert p.get(0, 0) == 0
    assert p.get(1, 1) == 3
    obj = p.to_json()
    assert obj["cells"][0] == [0, 1]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_patch_grid_matches_a_list_of_rows(data):
    # the int32 array against the plain rows it was built from
    w, h = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    cell = st.integers(HOLE, 3)
    rows = data.draw(st.lists(st.lists(cell, min_size=w, max_size=w), min_size=h, max_size=h))
    p = PatchGrid(w, h, rows)
    assert [[p.get(x, y) for x in range(w)] for y in range(h)] == rows
    assert all(type(p.get(x, y)) is int for y in range(h) for x in range(w))
    assert p.holes() == [(x, y) for y in range(h) for x in range(w) if rows[y][x] == HOLE]
    assert p.to_json() == {"width": w, "height": h, "cells": rows}
    assert PatchGrid.from_json(json.loads(json.dumps(p.to_json()))) == p
    updates = data.draw(st.dictionaries(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)),
                                        cell, max_size=4))
    want = [list(row) for row in rows]
    for (x, y), v in updates.items():
        want[y][x] = v
    q = p.replaced(updates)
    assert q.to_json()["cells"] == want and p.to_json()["cells"] == rows
    assert (q == p) == (want == rows)
    if q == p:
        assert hash(q) == hash(p)
    flat = [v for row in rows for v in row]
    turned = [flat[i:i + h] for i in range(0, w * h, h)]  # the same cells as w rows of h
    assert (PatchGrid(h, w, turned) == p) == (turned == rows)
    for dtype in (np.int8, np.int64, np.uint32):
        if dtype is np.uint32 and HOLE in flat:
            continue
        same = PatchGrid(w, h, [list(np.array(row, dtype=dtype)) for row in rows])
        assert same == p and hash(same) == hash(p)
        assert PatchGrid(w, h, np.array(rows, dtype=dtype)) == p


@pytest.mark.parametrize("x, y", [(-1, 0), (0, -1), (3, 0), (0, 3)])
def test_patch_get_outside_raises(x, y):
    # one check names the cell past each of the four edges, on a square
    # patch and a wide one; past the right or top edge numpy's bare
    # IndexError used to name only an axis
    for p in (PatchGrid(3, 3, [[0, 1, 2], [3, 4, 5], [6, 7, 8]]), PatchGrid.filled(3, 2, 0)):
        with pytest.raises(IndexError, match=re.escape(f"cell {(x, y)} lies outside the patch")):
            p.get(x, y)


def test_verify_patch_clean_chessboard():
    ts = chessboard_tileset()
    assert verify_patch(ts, chessboard_patch(4, 4)) == []


def test_verify_patch_flip_and_hole():
    # Frozen expectation, derived by hand: flipping the tile at (2, 2) in a
    # 4x4 chessboard breaks exactly its four adjacencies; a hole at (1, 1)
    # silences every pair it participates in.
    ts = chessboard_tileset()
    p = chessboard_patch(4, 4).replaced({(1, 1): HOLE, (2, 2): 1})
    got = set(verify_patch(ts, p))
    assert got == {
        Violation((1, 2), (2, 2), "right"),
        Violation((2, 2), (3, 2), "right"),
        Violation((2, 1), (2, 2), "top"),
        Violation((2, 2), (2, 3), "top"),
    }


@pytest.mark.parametrize("bad", [7, 2, -2, 2 ** 70], ids=["id-7", "id-2", "id-minus-2", "id-2-70"])
@pytest.mark.parametrize("cell", [(0, 0), (1, 0), (0, 1), (1, 1)],
                         ids=["at-0-0", "at-1-0", "at-0-1", "at-1-1"])
def test_verify_patch_rejects_unknown_ids(cell, bad):
    # a bad id right of or above a valid cell used to raise IndexError; an id
    # past int32 is refused when the patch is built, with the same message
    ts = chessboard_tileset()
    with pytest.raises(MalformedPatchError, match=rf"cell \({cell[0]}, {cell[1]}\) holds unknown tile id {bad}"):
        verify_patch(ts, chessboard_patch(2, 2).replaced({cell: bad}))


def reference_violations(ts, patch):
    """verify_patch as one loop over the cells, reading Tile attributes."""
    tiles, cells, out = ts.tiles, patch.cells, []
    for y in range(patch.height):
        for x in range(patch.width):
            v = cells[y][x]
            if v == HOLE:
                continue
            if x + 1 < patch.width and cells[y][x + 1] != HOLE:
                if tiles[v].right != tiles[cells[y][x + 1]].left:
                    out.append(Violation((x, y), (x + 1, y), "right"))
            if y + 1 < patch.height and cells[y + 1][x] != HOLE:
                if tiles[v].top != tiles[cells[y + 1][x]].bottom:
                    out.append(Violation((x, y), (x, y + 1), "top"))
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_verify_patch_matches_a_cell_loop(data):
    colors = data.draw(st.integers(1, 3))
    quads = data.draw(st.sets(st.tuples(*[st.integers(0, colors - 1)] * 4), max_size=6))
    ts = TileSet(colors, sorted(quads))
    w, h = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    cell = st.integers(HOLE, len(ts) - 1)
    patch = PatchGrid(w, h, data.draw(st.lists(st.lists(cell, min_size=w, max_size=w),
                                               min_size=h, max_size=h)))
    assert verify_patch(ts, patch) == reference_violations(ts, patch)


def test_block_border_reads_the_outer_sides():
    ts = coordinate_tileset(3)
    rows = [[(x % 3) * 3 + y % 3 for x in range(5)] for y in range(4)]
    left, right, top, bottom = block_border(ts, rows, 1, 1, 3)
    assert left == tuple(ts.left[rows[y][1]] for y in (1, 2, 3))
    assert right == tuple(ts.right[rows[y][3]] for y in (1, 2, 3))
    assert top == tuple(ts.top[rows[3][x]] for x in (1, 2, 3))
    assert bottom == tuple(ts.bottom[rows[1][x]] for x in (1, 2, 3))
    for ox, oy in [(3, 0), (0, 2), (-1, 0), (0, -1)]:
        with pytest.raises(ValueError, match="sticks out"):
            block_border(ts, rows, ox, oy, 3)
    rows[2][1] = HOLE  # on the left side of the block at (1, 1)
    rows[1][2] = HOLE  # on its bottom side, which is read after the left
    assert block_border(ts, rows, 2, 2, 1) == ((ts.left[rows[2][2]],), (ts.right[rows[2][2]],),
                                               (ts.top[rows[2][2]],), (ts.bottom[rows[2][2]],))
    with pytest.raises(MalformedPatchError, match=r"border cell \(1, 2\) holds a HOLE"):
        block_border(ts, rows, 1, 1, 3)
    rows[2][1] = 9
    with pytest.raises(MalformedPatchError, match="unknown tile id 9"):
        block_border(ts, rows, 1, 1, 3)


def test_coordinate_tileset_structure():
    for n in (2, 3, 5):
        ts = coordinate_tileset(n)
        assert len(ts) == n * n
        assert ts.color_count == n * n
        for t in ts:
            assert t.left == t.bottom
        # every tile's right/top colors follow the +1 (mod n) coordinate step
        for i in range(n):
            for j in range(n):
                t = ts.tiles[i * n + j]
                assert t.left == i * n + j
                assert t.right == ((i + 1) % n) * n + j
                assert t.top == i * n + (j + 1) % n


def test_coordinate_tileset_tiles_the_plane():
    n = 3
    ts = coordinate_tileset(n)
    p = PatchGrid(6, 6, [[(x % n) * n + (y % n) for x in range(6)] for y in range(6)])
    assert verify_patch(ts, p) == []


def test_coordinate_tileset_rejects_degenerate():
    with pytest.raises(ValueError, match="n >= 2"):
        coordinate_tileset(1)


def test_besicovitch_opposite_phases():
    a = lambda x, y: (x + y) % 2
    b = lambda x, y: (x + y + 1) % 2
    rep = besicovitch_distance(a, b, [1, 2, 3])
    assert rep.fractions == (1.0, 1.0, 1.0)
    assert rep.tail_max == (1.0, 1.0, 1.0)
    same = besicovitch_distance(a, a, [1, 2, 3])
    assert same.fractions == (0.0, 0.0, 0.0)


def test_besicovitch_half_plane():
    # b differs from a exactly on x >= 0: fraction (r+1)/(2r+1), decreasing,
    # so the tail maxima coincide with the fractions themselves.
    a = lambda x, y: 0
    b = lambda x, y: 1 if x >= 0 else 0
    rep = besicovitch_distance(a, b, [1, 2, 4])
    assert rep.fractions == (2 / 3, 3 / 5, 5 / 9)
    assert rep.tail_max == (2 / 3, 3 / 5, 5 / 9)


def test_besicovitch_holes_masked():
    a = lambda x, y: (x + y) % 2
    b = lambda x, y: (x + y + 1) % 2
    rep = besicovitch_distance(a, b, [2], hole=lambda x, y: x % 2 == 1)
    assert rep.fractions == (1.0,)


def test_besicovitch_rejects_bad_radii():
    with pytest.raises(ValueError):
        besicovitch_distance(lambda x, y: 0, lambda x, y: 0, [])
    with pytest.raises(ValueError):
        besicovitch_distance(lambda x, y: 0, lambda x, y: 0, [0])


# --- the window sampler against the samplers it replaced -----------------------


def reference_besicovitch(a, b, radii, hole=None, center=(0, 0)):
    """The per-point double loop: one oracle call per point and radius."""
    cx, cy = center
    fractions = []
    for r in radii:
        num = den = 0
        for y in range(cy - r, cy + r + 1):
            for x in range(cx - r, cx + r + 1):
                if hole is not None and hole(x, y):
                    continue
                den += 1
                if a(x, y) != b(x, y):
                    num += 1
        fractions.append(num / den if den else 0.0)
    tail, running = [], 0.0
    for f in reversed(fractions):
        running = max(running, f)
        tail.append(running)
    return tuple(fractions), tuple(reversed(tail))


def reference_aperiodicity(oracle, shift, radius):
    """A fresh numpy sample of the padded window for every shift."""
    dx, dy = shift
    pad = -(-max(abs(dx), abs(dy)) // 4) * 4
    lo, hi = -radius - pad, radius + pad
    grid = np.array(
        [[oracle(x, y) for x in range(lo, hi + 1)] for y in range(lo, hi + 1)],
        dtype=np.int64,
    )
    side = 2 * radius + 1
    base = grid[pad : pad + side, pad : pad + side]
    moved = grid[pad + dy : pad + dy + side, pad + dx : pad + dx + side]
    return float(np.mean(base != moved))


def hashed_oracle(seed, labels):
    """A repeatable pseudo-random configuration over ``labels`` values."""
    return lambda x, y: hash((seed, x, y)) % labels


def sparse_errors(base, seed, rate):
    """``base`` with a label flipped on about one point in ``rate``."""
    return lambda x, y: base(x, y) ^ (hash((seed, y, x)) % rate == 0)


HOLES = {
    "none": None,
    "bool": lambda x, y: (x * 3 + y) % 5 == 0,
    "int": lambda x, y: int((x + 2 * y) % 4 == 1),
    "all": lambda x, y: 1,
}


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    labels=st.integers(2, 3),
    rate=st.integers(1, 6),
    radii=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    center=st.tuples(st.integers(-7, 7), st.integers(-7, 7)),
    hole=st.sampled_from(sorted(HOLES)),
)
@example(seed=1, labels=2, rate=2, radii=[2, 2, 1, 3], center=(0, 0), hole="all")
@example(seed=2, labels=2, rate=3, radii=[3, 1, 2], center=(4, -3), hole="int")
def test_besicovitch_matches_the_double_loop(seed, labels, rate, radii, center, hole):
    a = hashed_oracle(seed, labels)
    b = sparse_errors(a, seed + 1, rate)
    mask = HOLES[hole]
    rep = besicovitch_distance(a, b, radii, hole=mask, center=center)
    fractions, tail = reference_besicovitch(a, b, radii, hole=mask, center=center)
    assert rep.radii == tuple(radii)
    assert rep.fractions == fractions
    assert rep.tail_max == tail
    if hole == "all":
        assert rep.fractions == (0.0,) * len(radii)


SHIFT_STEPS = st.sampled_from([-9, -8, -5, -4, -1, 0, 1, 4, 5, 8, 9])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    labels=st.integers(2, 3),
    radius=st.integers(0, 12),
    shift=st.tuples(st.one_of(SHIFT_STEPS, st.integers(-9, 9)),
                    st.one_of(SHIFT_STEPS, st.integers(-9, 9))),
)
def test_aperiodicity_matches_the_per_shift_sampler(seed, labels, radius, shift):
    if shift == (0, 0):
        shift = (4, -5)
    oracle = hashed_oracle(seed, labels)
    assert aperiodicity_fraction(oracle, shift, radius) == reference_aperiodicity(
        oracle, shift, radius
    )


class CountingOracle:
    """Records how often it is called; hashable by identity."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x, y):
        self.calls += 1
        return self.fn(x, y)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    radii=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    center=st.tuples(st.integers(6, 10), st.integers(6, 10)),
    hole=st.sampled_from(sorted(HOLES)),
)
def test_besicovitch_reads_arrays_as_the_oracles_they_hold(seed, radii, center, hole):
    # a 17 x 17 array, row = y, against the oracle that reads it
    a = hashed_oracle(seed, 3)
    b = sparse_errors(a, seed + 1, 3)
    grid = [np.array([[f(x, y) for x in range(17)] for y in range(17)]) for f in (a, b)]
    mask = HOLES[hole]
    rep = besicovitch_distance(a, b, radii, hole=mask, center=center)
    held = None if mask is None else np.array([[mask(x, y) for x in range(17)]
                                               for y in range(17)])
    assert besicovitch_distance(*grid, radii, hole=held, center=center) == rep


@pytest.mark.parametrize("center, radius", [((5, 5), 6), ((0, 8), 1), ((16, 8), 1),
                                            ((8, 0), 1), ((8, 16), 1), ((8, 8), 9)])
def test_besicovitch_window_must_lie_in_the_array(center, radius):
    grid = np.zeros((17, 17), dtype=np.int32)
    with pytest.raises(ValueError, match="leaves"):
        besicovitch_distance(grid, grid, [radius], center=center)
    # an oracle has no edge
    assert besicovitch_distance(lambda x, y: 0, lambda x, y: 0, [radius],
                                center=center).fractions == (0.0,)


def test_besicovitch_samples_each_oracle_once_on_the_largest_window():
    a = CountingOracle(lambda x, y: (x + y) % 2)
    b = CountingOracle(lambda x, y: x % 2)
    rep = besicovitch_distance(a, b, (3, 1, 2))
    assert rep.radii == (3, 1, 2)
    assert (a.calls, b.calls) == (49, 49)


def test_aperiodicity_sweep_samples_the_oracle_once():
    oracle = CountingOracle(lambda x, y: (x * x + y) % 3)
    radius = 5
    for shift in [(1, 0), (-4, 4), (2, -3)]:
        aperiodicity_fraction(oracle, shift, radius)
    assert oracle.calls == (2 * (radius + 4) + 1) ** 2
