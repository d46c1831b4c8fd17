"""Core types for Wang tilings.

A tile is a quadruple of colors (left, right, top, bottom); colors are opaque
non-negative integers drawn from a single universe of size ``color_count``.
Tiles may not be rotated or reflected.  Two tiles sitting side by side match
when the colors on their shared side are equal.

Grid conventions used everywhere in this package: x grows to the right,
y grows upward, row 0 is the *bottom* row.  A patch cell either holds a tile
id or the distinguished ``HOLE`` value (-1), which matches anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

#: Cell value standing for "no tile here"; a hole never violates a constraint.
HOLE = -1

#: Pure function (x, y) -> tile id (or any small int label) describing an
#: infinite configuration.  Callers must guarantee repeatability: the same
#: (x, y) always yields the same value.  Oracles must also be hashable,
#: because the window sampler caches its samples keyed by the oracle.
ConfigurationOracle = Callable[[int, int], int]


class MalformedPatchError(ValueError):
    """A patch references tile ids outside the tile set."""


class DegenerateZoomError(ValueError):
    """Zoom factor too small for the requested construction."""


@dataclass(frozen=True, slots=True)
class Tile:
    left: int
    right: int
    top: int
    bottom: int

    def sides(self) -> tuple[int, int, int, int]:
        return (self.left, self.right, self.top, self.bottom)


class TileSet:
    """An immutable finite set of Wang tiles over one color universe.

    Tiles are indexed by their position in ``tiles``; that index is the tile
    id used in patches.  Duplicate quadruples are rejected: a Wang tile *is*
    its quadruple, so a duplicate could never be distinguished.  The set
    keeps no index beside ``tiles``: ``tile_id`` and ``candidate_index``
    build theirs on first use.
    """

    __slots__ = ("color_count", "tiles", "names", "_ids", "_candidates")

    def __init__(
        self,
        color_count: int,
        tiles: Iterable[Tile | tuple[int, int, int, int]],
        names: Sequence[str] | None = None,
    ) -> None:
        tl = tuple(t if isinstance(t, Tile) else Tile(*t) for t in tiles)
        if color_count < 1:
            raise ValueError("color_count must be positive")
        seen: dict[Tile, int] = {}  # for the duplicate check only
        for idx, t in enumerate(tl):
            for c in t.sides():
                if not (0 <= c < color_count):
                    raise ValueError(
                        f"tile {idx} uses color {c} outside [0, {color_count})"
                    )
            first = seen.setdefault(t, idx)
            if first != idx:
                raise ValueError(f"duplicate tile quadruple at ids {first} and {idx}")
        if names is not None:
            names = tuple(names)
            if len(names) != len(tl):
                raise ValueError("names must be parallel to tiles")
        object.__setattr__(self, "color_count", color_count)
        object.__setattr__(self, "tiles", tl)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_ids", None)
        object.__setattr__(self, "_candidates", None)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("TileSet is immutable")

    def __len__(self) -> int:
        return len(self.tiles)

    def __iter__(self) -> Iterator[Tile]:
        return iter(self.tiles)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TileSet)
            and self.color_count == other.color_count
            and self.tiles == other.tiles
        )

    def __hash__(self) -> int:
        return hash((self.color_count, self.tiles))

    def tile_id(self, quad: tuple[int, int, int, int]) -> int | None:
        """Id of the tile with these (left, right, top, bottom) colors, if any.

        The index behind it is built on the first call and cached on the set.
        """
        ids = self._ids
        if ids is None:
            ids = {t.sides(): i for i, t in enumerate(self.tiles)}
            object.__setattr__(self, "_ids", ids)
        return ids.get(quad)

    def candidate_index(self) -> dict[int, tuple[int, ...]]:
        """Tile ids by (left, bottom) colors, built once and cached on the set.

        The key of the pair (l, b) is ``l * K + b`` with ``K = color_count + 1``;
        ``color_count`` stands for a free side, which any color matches.  Ids
        are ascending, and pairs no tile has are absent.
        """
        index = self._candidates
        if index is None:
            free = self.color_count
            K = free + 1
            lists: dict[int, list[int]] = {}
            for i, t in enumerate(self.tiles):
                for l in (t.left, free):
                    for b in (t.bottom, free):
                        lists.setdefault(l * K + b, []).append(i)
            index = {key: tuple(ids) for key, ids in lists.items()}
            object.__setattr__(self, "_candidates", index)
        return index

    def to_json(self) -> dict:
        out: dict = {
            "color_count": self.color_count,
            "tiles": [list(t.sides()) for t in self.tiles],
        }
        if self.names is not None:
            out["names"] = list(self.names)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "TileSet":
        return cls(obj["color_count"], [tuple(t) for t in obj["tiles"]], obj.get("names"))


class PatchGrid:
    """A finite rectangle of tile ids and holes; immutable after construction."""

    __slots__ = ("width", "height", "cells")

    def __init__(self, width: int, height: int, cells: Sequence[Sequence[int]]) -> None:
        if width < 1 or height < 1:
            raise ValueError("patch dimensions must be positive")
        rows = tuple(map(tuple, cells))
        if len(rows) != height or any(len(r) != width for r in rows):
            raise ValueError("cells must be height rows of width entries (row 0 = bottom)")
        if not all(set(map(type, row)) <= {int} for row in rows):
            raise ValueError("cells must be ints (tile ids or HOLE)")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "cells", rows)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("PatchGrid is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PatchGrid) and self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def get(self, x: int, y: int) -> int:
        if x < 0 or y < 0:  # a negative index would wrap to the far edge
            raise IndexError(f"cell {(x, y)} lies outside the patch")
        return self.cells[y][x]

    def holes(self) -> list[tuple[int, int]]:
        return [
            (x, y)
            for y in range(self.height)
            for x in range(self.width)
            if self.cells[y][x] == HOLE
        ]

    def replaced(self, updates: dict[tuple[int, int], int]) -> "PatchGrid":
        """A copy with the given cells replaced."""
        rows = [list(r) for r in self.cells]
        for (x, y), v in updates.items():
            rows[y][x] = v
        return PatchGrid(self.width, self.height, rows)

    @classmethod
    def filled(cls, width: int, height: int, value: int = HOLE) -> "PatchGrid":
        return cls(width, height, [[value] * width for _ in range(height)])

    def to_json(self) -> dict:
        return {
            "width": self.width,
            "height": self.height,
            "cells": [list(r) for r in self.cells],
        }

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

    Pairs where either cell is a HOLE never violate.  Tile ids outside the
    tile set raise MalformedPatchError rather than reporting violations.
    """
    n = len(tile_set.tiles)
    tiles = tile_set.tiles
    cells = patch.cells
    out: list[Violation] = []
    for y in range(patch.height):
        row = cells[y]
        for x in range(patch.width):
            v = row[x]
            if v == HOLE:
                continue
            if not (0 <= v < n):
                raise MalformedPatchError(f"cell ({x}, {y}) holds unknown tile id {v}")
            if x + 1 < patch.width:
                w = row[x + 1]
                if w != HOLE and tiles[v].right != tiles[w].left:
                    out.append(Violation((x, y), (x + 1, y), "right"))
            if y + 1 < patch.height:
                w = cells[y + 1][x]
                if w != HOLE and tiles[v].top != tiles[w].bottom:
                    out.append(Violation((x, y), (x, y + 1), "top"))
    return out


def coordinate_tileset(n: int) -> TileSet:
    """The N² coordinate-bearing tiles whose tilings are N-periodic grids.

    Tile (i, j) carries color (i, j) on its left and bottom sides,
    ((i+1) mod N, j) on the right and (i, (j+1) mod N) on top, so every
    tiling reproduces the coordinate grid mod N and admits exactly one cut
    into N×N blocks anchored where (i, j) = (0, 0).
    """
    if n < 2:
        raise DegenerateZoomError("coordinate tile set needs n >= 2")

    def color(i: int, j: int) -> int:
        return i * n + j

    tiles = []
    names = []
    for i in range(n):
        for j in range(n):
            tiles.append(
                Tile(
                    left=color(i, j),
                    right=color((i + 1) % n, j),
                    top=color(i, (j + 1) % n),
                    bottom=color(i, j),
                )
            )
            names.append(f"t{i},{j}")
    return TileSet(n * n, tiles, names)


def chessboard_tileset() -> TileSet:
    """Two tiles that force a two-phase alternating (chessboard) tiling."""
    return TileSet(
        2,
        [
            Tile(left=0, right=1, top=1, bottom=0),
            Tile(left=1, right=0, top=0, bottom=1),
        ],
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


def _mismatch_fractions(a: ConfigurationOracle, b: ConfigurationOracle, radii: Sequence[int],
                        shift=(0, 0), hole=None, center=(0, 0)) -> list[float]:
    """Per radius, the fraction of unmasked p in the centred window with a(p) != b(p + shift).

    Each oracle is sampled once, on the largest window padded by the shift
    rounded up to a multiple of 4, so a sweep of small shifts reuses one
    cached sample.  A window whose every point is masked reads 0.0.
    """
    dx, dy = shift
    cx, cy = center
    pad = -(-max(abs(dx), abs(dy)) // 4) * 4
    big = max(radii) + pad
    grid_a, grid_b = _square(a, cx, cy, big), _square(b, cx, cy, big)
    if hole is None:
        kept = np.ones(grid_a.shape, dtype=bool)
    else:  # truthiness, so a hole oracle may return bools or 0/1 ints
        kept = ~_square(hole, cx, cy, big).astype(bool)
    out = []
    for r in radii:
        lo, hi = big - r, big + r + 1
        diff = grid_a[lo:hi, lo:hi] != grid_b[lo + dy : hi + dy, lo + dx : hi + dx]
        window = kept[lo:hi, lo:hi]
        num, den = int((diff & window).sum()), int(window.sum())
        out.append(num / den if den else 0.0)
    return out


def besicovitch_distance(
    a: ConfigurationOracle,
    b: ConfigurationOracle,
    radii: Sequence[int],
    hole: Callable[[int, int], bool] | None = None,
    center: tuple[int, int] = (0, 0),
) -> BesicovitchReport:
    """Mismatch fractions between two configurations on centered windows.

    Args:
        a, b: configuration oracles.
        radii: strictly positive window radii, typically increasing.
        hole: optional mask; masked points count in neither numerator nor
            denominator.
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
