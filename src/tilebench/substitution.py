"""Two-dimensional substitution rules and their enforcement by tiles.

A rule replaces every letter of a configuration by an m x m block of
letters.  Blocks are stored bottom-up like patches: ``images[a][j][i]`` is
the letter at horizontal offset i, vertical offset j (row 0 = bottom) of the
image of ``a``.

The Thue-Morse rule and its xor oracle double as the package's stock
example of a configuration far from all its translates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .core import Interner, PatchGrid, TileSet, _mismatch_fractions

Rows = tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class SubstitutionRule:
    alphabet: tuple[str, ...]
    m: int
    images: Mapping[str, Rows]

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("substitution zoom must be at least 2")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet letters must be distinct")
        imgs = {}
        for a in self.alphabet:
            if a not in self.images:
                raise ValueError(f"no image for letter {a!r}")
            rows = tuple(tuple(r) for r in self.images[a])
            if len(rows) != self.m or any(len(r) != self.m for r in rows):
                raise ValueError(f"image of {a!r} must be {self.m}x{self.m}")
            for r in rows:
                for c in r:
                    if c not in self.alphabet:
                        raise ValueError(f"image of {a!r} uses unknown letter {c!r}")
            imgs[a] = rows
        if set(self.images) - set(self.alphabet):
            raise ValueError("images given for letters outside the alphabet")
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "images", imgs)

    def to_json(self) -> dict:
        return {
            "alphabet": list(self.alphabet),
            "m": self.m,
            "images": {a: [list(r) for r in rows] for a, rows in self.images.items()},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SubstitutionRule":
        """The rule a ``to_json`` object describes; ValueError unless m is an
        int (not a bool or float)."""
        if type(obj["m"]) is not int:
            raise ValueError("substitution zoom m must be an int")
        return cls(tuple(obj["alphabet"]), obj["m"], obj["images"])


def substitute_rows(rule: SubstitutionRule, rows: Sequence[Sequence[str]]) -> list[list[str]]:
    """One application of the rule to a letter grid (row 0 = bottom)."""
    m = rule.m
    h = len(rows)
    w = len(rows[0])
    out = [[""] * (w * m) for _ in range(h * m)]
    for y in range(h):
        for x in range(w):
            img = rule.images[rows[y][x]]
            for j in range(m):
                for i in range(m):
                    out[y * m + j][x * m + i] = img[j][i]
    return out


def iterate_substitution(rule: SubstitutionRule, seed: str, k: int) -> list[list[str]]:
    """k applications starting from a single letter; an m^k square grid."""
    if seed not in rule.alphabet:
        raise ValueError(f"seed {seed!r} not in alphabet")
    if k < 0:
        raise ValueError(f"cannot apply a substitution {k} times")
    rows: list[list[str]] = [[seed]]
    for _ in range(k):
        rows = substitute_rows(rule, rows)
    return rows


def thue_morse_rule() -> SubstitutionRule:
    """letter -> letter xor (i + j mod 2); fixed point is t(x) xor t(y)."""
    return SubstitutionRule(
        ("0", "1"),
        2,
        {
            "0": (("0", "1"), ("1", "0")),
            "1": (("1", "0"), ("0", "1")),
        },
    )


def _tm_bit(n: int) -> int:
    if n < 0:
        n = -n - 1  # mirror across the edge between -1 and 0
    return n.bit_count() & 1


def thue_morse_oracle(x: int, y: int) -> int:
    """The xor-of-Thue-Morse configuration, mirrored onto the whole plane."""
    return _tm_bit(x) ^ _tm_bit(y)


def chessboard_oracle(x: int, y: int) -> int:
    return (x + y) & 1


def aperiodicity_fraction(
    oracle: Callable[[int, int], int], shift: tuple[int, int], radius: int
) -> float:
    """Mismatch fraction between a configuration and its translate.

    Computed on the centered (2*radius+1)^2 window.  Values bounded away
    from 0 for every nonzero shift witness that no translate comes close to
    the configuration anywhere.  Shifts whose largest component rounds up
    to the same multiple of 4 share one cached sample of the window.
    """
    if not any(shift):
        raise ValueError("shift must be nonzero")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return _mismatch_fractions(oracle, oracle, [radius], shift=shift)[0]


def enforce_substitution(rule: SubstitutionRule) -> TileSet:
    """Tiles whose tilings are exactly one-step substitution images.

    One tile per (parent letter, i, j): the cell at block position (i, j)
    of a macro-block whose parent carries that letter.  Interior colors
    propagate both the position and the parent letter, so each m x m block
    is consistent; block-boundary colors carry only the cross position, so
    neighboring blocks choose parents freely.  Tilings therefore correspond
    to (arbitrary parent configuration, block offset), and the letters read
    off the tiles form the substitution image of that parent configuration.
    """
    m = rule.m
    colors = Interner()
    tiles = []
    names = []
    for a in rule.alphabet:
        for i in range(m):
            for j in range(m):
                left = colors["h", i, j, a] if i > 0 else colors["hb", j]
                right = colors["h", i + 1, j, a] if i + 1 < m else colors["hb", j]
                bottom = colors["v", i, j, a] if j > 0 else colors["vb", i]
                top = colors["v", i, j + 1, a] if j + 1 < m else colors["vb", i]
                tiles.append((left, right, top, bottom))
                names.append(f"{a}@{i},{j}")
    return TileSet(len(colors), tiles, names)


def enforced_patch(rule: SubstitutionRule, parents: Sequence[Sequence[str]]) -> PatchGrid:
    """The canonical tiling of enforce_substitution(rule) over a parent grid."""
    m = rule.m
    h = len(parents)
    w = len(parents[0])
    index = {a: ai for ai, a in enumerate(rule.alphabet)}

    def tile_id(a: str, i: int, j: int) -> int:
        return (index[a] * m + i) * m + j

    cells = [
        [tile_id(parents[y // m][x // m], x % m, y % m) for x in range(w * m)]
        for y in range(h * m)
    ]
    return PatchGrid(w * m, h * m, cells)


def enforced_letter(rule: SubstitutionRule, tile_id: int) -> str:
    """The child letter written on a tile of enforce_substitution(rule)."""
    m = rule.m
    j = tile_id % m
    i = (tile_id // m) % m
    a = rule.alphabet[tile_id // (m * m)]
    return rule.images[a][j][i]
