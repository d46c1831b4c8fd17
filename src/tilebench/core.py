"""Core types for Wang tilings.

A tile is a quadruple of colors (left, right, top, bottom); colors are opaque
non-negative integers drawn from a single universe of size ``color_count``.
Tiles may not be rotated or reflected.  Two tiles sitting side by side match
when the colors on their shared side are equal.  A ``TileSet`` keeps its
tiles as four int columns indexed by tile id, and every reader reads them;
``block_border`` is the one reader of a block's outer side colors.

Grid conventions used everywhere in this package: x grows to the right,
y grows upward, row 0 is the *bottom* row.  A patch cell either holds a tile
id or the distinguished ``HOLE`` value (-1), which matches anything.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

#: Cell value standing for "no tile here"; a hole never violates a constraint.
HOLE = -1

#: Pure function (x, y) -> tile id (or any small int label) describing an
#: infinite configuration.  Callers must guarantee repeatability: the same
#: (x, y) always yields the same value.  Oracles must also be hashable,
#: because the window sampler caches its samples keyed by the oracle.  The
#: sampler also takes a finite configuration as a 2-D array, row = y.
ConfigurationOracle = Callable[[int, int], int]


class Interner(dict):
    """Ids in order of first use: looking up a new key gives it the next id,
    so the keys iterate in id order.  Every builder that numbers its colors
    or states as it meets them numbers them through one of these."""

    __slots__ = ()

    def __missing__(self, key) -> int:
        new = self[key] = len(self)
        return new


class MalformedPatchError(ValueError):
    """A patch references tile ids outside the tile set."""


@dataclass(frozen=True)
class Tile:
    """One tile's four side colors, as indexing a ``TileSet`` gives them back.

    The slots are written out rather than asked of ``dataclass(slots=True)``,
    whose new class breaks the frozen ``__setattr__`` for names that are not
    fields (TypeError instead of FrozenInstanceError)."""

    __slots__ = ("left", "right", "top", "bottom")
    left: int
    right: int
    top: int
    bottom: int

    def sides(self) -> tuple[int, int, int, int]:
        return (self.left, self.right, self.top, self.bottom)


class TileSet:
    """An immutable finite set of Wang tiles over one color universe.

    The sides are kept in four ``array("i")`` columns, ``left``, ``right``,
    ``top`` and ``bottom``, indexed by tile id, the id used in patches;
    indexing or iterating the set (or ``tiles``) builds ``Tile``s from them.
    The constructor takes ``Tile``s, (left, right, top, bottom) quads or a
    (tiles, 4) numpy array of C ints, which it reads without a per-tile
    loop, and raises ValueError for a tile of other than four colors, a
    color that is not an int in ``[0, color_count)`` (or does not fit a C
    int), or a duplicate quadruple: a Wang tile *is* its quadruple, so a
    duplicate could never be distinguished.  ``search_tables`` builds its tables on
    first use and caches them.
    """

    __slots__ = ("color_count", "left", "right", "top", "bottom", "names", "_candidates")

    def __init__(
        self,
        color_count: int,
        tiles: Iterable[Tile | tuple[int, int, int, int]] | np.ndarray,
        names: Sequence[str] | None = None,
    ) -> None:
        if color_count < 1:
            raise ValueError("color_count must be positive")
        if isinstance(tiles, np.ndarray):
            if tiles.ndim != 2 or tiles.shape[1] != 4 or tiles.dtype != np.intc:
                raise ValueError(f"a tile array must be (tiles, 4) C ints, not {tiles.shape} {tiles.dtype}")
            rows = tiles
        else:
            flat = array("i")
            for idx, quad in enumerate(tiles):
                if isinstance(quad, Tile):
                    quad = quad.sides()
                if len(quad) != 4:
                    raise ValueError(f"tile {idx} has {len(quad)} colors, not 4")
                try:
                    flat.extend(quad)
                except (TypeError, OverflowError):
                    raise ValueError(f"tile {idx} has a color that is not a C int") from None
            rows = np.frombuffer(flat, dtype=np.intc).reshape(-1, 4)
        if rows.size and (rows.min() < 0 or rows.max() >= color_count):
            i = int(((rows < 0) | (rows >= color_count)).argmax())
            raise ValueError(f"tile {i // 4} uses color {rows.flat[i]} outside [0, {color_count})")
        dup = _first_duplicate(rows)
        if dup is not None:
            raise ValueError("duplicate tile quadruple at ids %d and %d" % dup)
        if names is not None:
            names = tuple(names)
            if len(names) != len(rows):
                raise ValueError("names must be parallel to tiles")
        for k, name in enumerate(("left", "right", "top", "bottom")):
            object.__setattr__(self, name, array("i", rows[:, k].tobytes()))
        object.__setattr__(self, "color_count", color_count)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_candidates", None)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("TileSet is immutable")

    def _columns(self) -> tuple[array, array, array, array]:
        return self.left, self.right, self.top, self.bottom

    @property
    def tiles(self) -> "TileSet":
        """The set itself, read as the sequence of its ``Tile``s."""
        return self

    def __len__(self) -> int:
        return len(self.left)

    def __getitem__(self, tile_id: int) -> Tile:
        return Tile(*(c[tile_id] for c in self._columns()))

    def __iter__(self) -> Iterator[Tile]:
        return map(Tile, *self._columns())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TileSet)
            and self.color_count == other.color_count
            and self._columns() == other._columns()
        )

    def __hash__(self) -> int:
        return hash((self.color_count, *(c.tobytes() for c in self._columns())))

    def search_tables(self) -> tuple[dict[int, tuple[int, ...]], list[int], list[int]]:
        """``solve``'s tables, built once and cached on the set.

        The candidate index: tile ids by (left, bottom) colors, the pair
        (l, b) keyed ``l * K + b`` with ``K = color_count + 1``, where
        ``color_count`` stands for a free side, which any color matches; ids
        are ascending, and pairs no tile has are absent.  Then each tile's
        right side times ``K`` and each tile's top side, both lists closed
        by a 0 for the stand-in id ``len(self)``.  Callers read the tables
        and never change them."""
        tables = self._candidates
        if tables is None:
            free = self.color_count
            K = free + 1
            lists: dict[int, list[int]] = {}
            for i, (left, bottom) in enumerate(zip(self.left, self.bottom)):
                for l in (left, free):
                    for b in (bottom, free):
                        lists.setdefault(l * K + b, []).append(i)
            index = {key: tuple(ids) for key, ids in lists.items()}
            tables = index, [c * K for c in self.right] + [0], self.top.tolist() + [0]
            object.__setattr__(self, "_candidates", tables)
        return tables

    def to_json(self) -> dict:
        out: dict = {
            "color_count": self.color_count,
            "tiles": [list(q) for q in zip(*self._columns())],
        }
        if self.names is not None:
            out["names"] = list(self.names)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "TileSet":
        """The set a ``to_json`` object describes; ValueError unless the color
        count and every color are ints (not bools or floats), four per tile."""
        count, tiles = obj["color_count"], obj["tiles"]
        if type(count) is not int or not isinstance(tiles, list):
            raise ValueError("color_count must be an int and tiles a list")
        for idx, quad in enumerate(tiles):
            if not (isinstance(quad, list) and len(quad) == 4 and set(map(type, quad)) <= {int}):
                raise ValueError(f"tile {idx} is not a list of four int colors")
        return cls(count, tiles, obj.get("names"))


def _first_duplicate(rows: np.ndarray) -> tuple[int, int] | None:
    """The first id whose quadruple an earlier id has, with that earlier id,
    or None: a stable sort of the (tiles, 4) rows brings equal rows together."""
    order = np.lexsort(rows.T)  # stable, so equal rows keep id order
    ranked = rows[order]
    same = (ranked[1:] == ranked[:-1]).all(axis=1)
    if not same.any():
        return None
    later = int(order[1:][same].min())
    return int(np.flatnonzero((rows == rows[later]).all(axis=1))[0]), later


class PatchGrid:
    """A finite rectangle of tile ids and holes; immutable after construction.

    ``cells`` is one read-only (height, width) ``np.int32`` array, row 0 at
    the bottom, and every reader reads it.  The constructor takes an integer
    array or rows of ints (numpy integers included), and raises ValueError
    for a width or height that is not an int, a shape that is not height
    rows of width cells, or a cell that is not an int (a float, a bool, a
    string); an id past int32 raises MalformedPatchError.
    """

    __slots__ = ("width", "height", "cells")

    def __init__(self, width: int, height: int, cells: np.ndarray | Iterable[Sequence[int]]) -> None:
        if type(width) is not int or type(height) is not int:
            raise ValueError(f"patch dimensions must be ints, not {width!r} x {height!r}")
        if width < 1 or height < 1:
            raise ValueError("patch dimensions must be positive")
        if not isinstance(cells, np.ndarray):
            rows = [list(row) for row in cells]
            if not all(issubclass(t, (int, np.integer)) and t is not bool
                       for t in set(map(type, chain.from_iterable(rows)))):
                raise ValueError("cells must be ints (tile ids or HOLE)")
            cells = np.array(rows, dtype=object)  # Python ints, so no id wraps or overflows
        elif cells.dtype.kind not in "iu":
            raise ValueError("cells must be ints (tile ids or HOLE)")
        if cells.shape != (height, width):
            raise ValueError("cells must be height rows of width entries (row 0 = bottom)")
        if cells.dtype != np.int32:
            past = (cells < -2**31) | (cells >= 2**31)
            if past.any():
                y, x = np.argwhere(past)[0]
                raise MalformedPatchError(f"cell ({x}, {y}) holds unknown tile id {cells[y, x]}")
        ids = np.array(cells, dtype=np.int32)
        ids.flags.writeable = False
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "cells", ids)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("PatchGrid is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PatchGrid) and np.array_equal(self.cells, other.cells)

    def __hash__(self) -> int:
        return hash((self.width, self.height, self.cells.tobytes()))

    def get(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):  # numpy would wrap a negative
            raise IndexError(f"cell {(x, y)} lies outside the patch")
        return int(self.cells[y, x])

    def holes(self) -> list[tuple[int, int]]:
        return [(x, y) for y, x in np.argwhere(self.cells == HOLE).tolist()]

    def replaced(self, updates: dict[tuple[int, int], int]) -> "PatchGrid":
        """A copy with the given cells replaced; a cell outside the patch
        raises IndexError."""
        rows = self.cells.tolist()
        for (x, y), v in updates.items():
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise IndexError(f"cell {(x, y)} lies outside the patch")
            rows[y][x] = v
        return PatchGrid(self.width, self.height, rows)

    @classmethod
    def filled(cls, width: int, height: int, value: int = HOLE) -> "PatchGrid":
        return cls(width, height, [[value] * width] * height)

    def to_json(self) -> dict:
        return {"width": self.width, "height": self.height, "cells": self.cells.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "PatchGrid":
        return cls(obj["width"], obj["height"], obj["cells"])


@dataclass(frozen=True)
class Violation:
    """One broken adjacency: the pair of cells and the side of the first."""

    cell_a: tuple[int, int]
    cell_b: tuple[int, int]
    side: str  # "right" (a left of b) or "top" (a below b)


def verify_patch(tile_set: TileSet, patch: PatchGrid) -> list[Violation]:
    """All side-matching violations between horizontally/vertically adjacent cells.

    Reads ``patch.cells`` as it is, in one numpy pass over the tile set's
    columns.  Pairs where either cell is a HOLE never violate.  Tile ids
    outside the tile set raise MalformedPatchError rather than reporting
    violations.  Violations come cell by cell in row-major order (bottom row
    first), a cell's "right" before its "top".
    """
    ids, n = patch.cells, len(tile_set)
    unknown = (ids < HOLE) | (ids >= n)
    if unknown.any():
        y, x = np.argwhere(unknown)[0]
        raise MalformedPatchError(f"cell ({x}, {y}) holds unknown tile id {ids[y, x]}")
    if not n:  # every cell is a HOLE
        return []
    # a HOLE reads the last tile's sides; the mask drops every pair it is in
    left, right, top, bottom = (np.frombuffer(c, dtype=np.intc)[ids] for c in tile_set._columns())
    real = ids != HOLE
    bad = np.zeros(ids.shape + (2,), dtype=bool)  # [y, x, 0]: right side, [y, x, 1]: top
    bad[:, :-1, 0] = (right[:, :-1] != left[:, 1:]) & real[:, :-1] & real[:, 1:]
    bad[:-1, :, 1] = (top[:-1] != bottom[1:]) & real[:-1] & real[1:]
    return [Violation((x, y), (x, y + 1), "top") if k else Violation((x, y), (x + 1, y), "right")
            for y, x, k in np.argwhere(bad).tolist()]


def block_border(tile_set: TileSet, cells: np.ndarray | Sequence[Sequence[int]], ox: int, oy: int,
                 size: int) -> tuple[tuple[int, ...], ...]:
    """The outer side colors of the size x size block of ``cells`` (a patch's
    array, or rows; row 0 at the bottom) whose bottom-left cell is (ox, oy),
    as (left, right, top, bottom): the left sides of its left column and the
    right sides of its right column, bottom to top, then the top sides of
    its top row and the bottom sides of its bottom row, left to right.

    Raises ValueError for a block that sticks out of ``cells``, and
    MalformedPatchError for a HOLE or an unknown tile id on the border.
    """
    ids = np.asarray(cells)
    if not (size >= 1 and 0 <= ox and 0 <= oy and oy + size <= ids.shape[0]
            and ox + size <= ids.shape[1]):
        raise ValueError("block sticks out of the patch")
    block = ids[oy:oy + size, ox:ox + size]
    x1, y1 = ox + size - 1, oy + size - 1
    border = (  # each side's ids and the cell of its i-th id
        (tile_set.left, block[:, 0], lambda i: (ox, oy + i)),
        (tile_set.right, block[:, -1], lambda i: (x1, oy + i)),
        (tile_set.top, block[-1], lambda i: (ox + i, y1)),
        (tile_set.bottom, block[0], lambda i: (ox + i, oy)),
    )
    n = len(tile_set)
    for _, side, cell in border:
        unknown = (side < 0) | (side >= n)
        if unknown.any():
            i = int(unknown.argmax())
            what = "a HOLE" if side[i] == HOLE else f"unknown tile id {side[i]}"
            raise MalformedPatchError(f"border cell {cell(i)} holds {what}")
    return tuple(tuple(np.frombuffer(column, dtype=np.intc)[side].tolist()) for column, side, _ in border)


def coordinate_tileset(n: int) -> TileSet:
    """The N² coordinate-bearing tiles whose tilings are N-periodic grids.

    Tile (i, j) carries color (i, j) on its left and bottom sides,
    ((i+1) mod N, j) on the right and (i, (j+1) mod N) on top, so every
    tiling reproduces the coordinate grid mod N and admits exactly one cut
    into N×N blocks anchored where (i, j) = (0, 0).  An n below 2 raises
    ValueError.
    """
    if n < 2:
        raise ValueError("coordinate tile set needs n >= 2")

    def color(i: int, j: int) -> int:
        return i * n + j

    tiles = []
    names = []
    for i in range(n):
        for j in range(n):
            tiles.append((color(i, j), color((i + 1) % n, j),
                          color(i, (j + 1) % n), color(i, j)))
            names.append(f"t{i},{j}")
    return TileSet(n * n, tiles, names)


def chessboard_tileset() -> TileSet:
    """Two tiles that force a two-phase alternating (chessboard) tiling."""
    return TileSet(
        2,
        [(0, 1, 1, 0), (1, 0, 0, 1)],
        names=["even", "odd"],
    )


@dataclass(frozen=True)
class BesicovitchReport:
    """Finite-window mismatch fractions on growing centered squares.

    ``fractions[i]`` is the mismatch fraction on the (2·radii[i]+1)² square,
    counting only points where neither configuration is masked by the hole
    oracle.  ``tail_max[i] = max(fractions[i:])`` is the running tail
    maximum — the finite-window stand-in for a lim sup.  This is evidence,
    not a limit.
    """

    radii: tuple[int, ...]
    fractions: tuple[float, ...]
    tail_max: tuple[float, ...]
    label: str = "finite-window evidence"


@lru_cache(maxsize=8)
def _square(oracle: Callable[[int, int], int], cx: int, cy: int, r: int) -> np.ndarray:
    """The oracle's values on the (2r+1)² square centred on (cx, cy); row = y."""
    return np.array(
        [[oracle(x, y) for x in range(cx - r, cx + r + 1)] for y in range(cy - r, cy + r + 1)],
        dtype=np.int64,
    )


def _window(config, cx: int, cy: int, r: int) -> np.ndarray:
    """``_square`` of an oracle, or that square sliced out of a 2-D array
    (row = y), uncached; ValueError when it leaves the array."""
    if not isinstance(config, np.ndarray):
        return _square(config, cx, cy, r)
    if not (r <= cx < config.shape[1] - r and r <= cy < config.shape[0] - r):
        raise ValueError(f"the radius {r} window about ({cx}, {cy}) leaves the array")
    return config[cy - r : cy + r + 1, cx - r : cx + r + 1]


def _mismatch_fractions(a: ConfigurationOracle, b: ConfigurationOracle, radii: Sequence[int],
                        shift=(0, 0), hole=None, center=(0, 0)) -> list[float]:
    """Per radius, the fraction of unmasked p in the centred window with a(p) != b(p + shift).

    Each configuration is sampled once, on the largest window padded by the
    shift rounded up to a multiple of 4, so a sweep of small shifts reuses
    one cached sample of an oracle.  A window whose every point is masked
    reads 0.0.
    """
    dx, dy = shift
    cx, cy = center
    pad = -(-max(abs(dx), abs(dy)) // 4) * 4
    big = max(radii) + pad
    grid_a, grid_b = _window(a, cx, cy, big), _window(b, cx, cy, big)
    if hole is None:
        kept = np.ones(grid_a.shape, dtype=bool)
    else:  # truthiness, so a hole mask may hold bools or 0/1 ints
        kept = ~_window(hole, cx, cy, big).astype(bool)
    out = []
    for r in radii:
        lo, hi = big - r, big + r + 1
        diff = grid_a[lo:hi, lo:hi] != grid_b[lo + dy : hi + dy, lo + dx : hi + dx]
        window = kept[lo:hi, lo:hi]
        num, den = int((diff & window).sum()), int(window.sum())
        out.append(num / den if den else 0.0)
    return out


def besicovitch_distance(
    a: ConfigurationOracle | np.ndarray,
    b: ConfigurationOracle | np.ndarray,
    radii: Sequence[int],
    hole: Callable[[int, int], bool] | np.ndarray | None = None,
    center: tuple[int, int] = (0, 0),
) -> BesicovitchReport:
    """Mismatch fractions between two configurations on centered windows.

    Args:
        a, b: configuration oracles, or 2-D arrays (row = y) that hold
            every window.
        radii: strictly positive window radii, typically increasing.
        hole: optional mask, an oracle or an array; masked points count in
            neither numerator nor denominator.
        center: window center.

    Returns:
        BesicovitchReport with one fraction per radius and the running
        tail maxima.
    """
    if not radii or any(r < 1 for r in radii):
        raise ValueError("radii must be positive")
    fractions = _mismatch_fractions(a, b, radii, hole=hole, center=center)
    tail = list(accumulate(reversed(fractions), max))[::-1]
    return BesicovitchReport(tuple(radii), tuple(fractions), tuple(tail))
