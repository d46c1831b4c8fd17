import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("x, y", [(-1, 0), (0, -1), (3, 0), (0, 3)])
def test_patch_get_outside_raises(x, y):
    p = PatchGrid(3, 3, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    with pytest.raises(IndexError):
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
