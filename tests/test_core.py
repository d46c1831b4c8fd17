import json

import pytest

from tilebench.core import (
    HOLE,
    DegenerateZoomError,
    MalformedPatchError,
    PatchGrid,
    Tile,
    TileSet,
    Violation,
    besicovitch_distance,
    chessboard_tileset,
    coordinate_tileset,
    verify_patch,
)


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


def test_tileset_roundtrip_json():
    ts = chessboard_tileset()
    again = TileSet.loads(ts.dumps())
    assert again == ts
    assert again.names == ("even", "odd")
    # wire format is exactly the documented shape
    obj = json.loads(ts.dumps())
    assert set(obj) == {"color_count", "tiles", "names"}
    assert obj["tiles"][0] == [0, 1, 1, 0]


def test_tile_id_lookup():
    ts = chessboard_tileset()
    assert ts.tile_id((0, 1, 1, 0)) == 0
    assert ts.tile_id((1, 0, 0, 1)) == 1
    assert ts.tile_id((0, 0, 0, 0)) is None


def test_patch_shape_checks():
    with pytest.raises(ValueError):
        PatchGrid(2, 2, [[0, 0]])
    with pytest.raises(ValueError):
        PatchGrid(2, 2, [[0], [0]])
    p = PatchGrid.filled(3, 2)
    assert p.get(2, 1) == HOLE
    assert len(p.holes()) == 6


def test_patch_row_zero_is_bottom():
    p = PatchGrid(2, 2, [[0, 1], [2, 3]])
    assert p.get(0, 0) == 0
    assert p.get(1, 1) == 3
    obj = p.to_json()
    assert obj["cells"][0] == [0, 1]


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


def test_verify_patch_rejects_unknown_ids():
    ts = chessboard_tileset()
    p = chessboard_patch(2, 2).replaced({(0, 0): 7})
    with pytest.raises(MalformedPatchError):
        verify_patch(ts, p)


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
    with pytest.raises(DegenerateZoomError):
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
