"""Workbench for Wang tilings.

Finite-window solvers, simulation checking, tile-set compilers driven by
Turing-machine color predicates, self-referencing tile sets, substitution
enforcement, hole robustness, and island-of-errors cleaning analysis.
"""

from .core import (
    HOLE,
    BesicovitchReport,
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

__all__ = [
    "HOLE",
    "BesicovitchReport",
    "MalformedPatchError",
    "PatchGrid",
    "Tile",
    "TileSet",
    "Violation",
    "besicovitch_distance",
    "chessboard_tileset",
    "coordinate_tileset",
    "verify_patch",
]

__version__ = "0.1.0"
