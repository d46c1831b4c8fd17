"""Compile a machine-checked color predicate into a simulating tile set.

The input is a machine R that reads 4k letters (two per payload bit value)
and accepts or gets stuck; the output is a tile set whose tilings are
exactly the grids of N x N macro-tiles whose border payload bits satisfy R
on every macro-tile, read in input order [left, right, top, bottom].

Every edge color is keyed ``(axis, i, j, content)``: its position mod N,
so the macro-tile cut is unique, plus what it carries.  The free content
is the payload bits on macro borders, the wire bits that ferry them to
the computation zone, and the zone's space-time diagram (head signals
between zone columns, ``(configuration, transit bit)`` pairs between zone
rows), which the machine's determinism pins down once the inputs are
fixed; every other edge carries None.  The zone's top edge only exists in
an accepting diagram, so a rejected payload combination simply cannot be
tiled over.

``SimulationLayout`` is the one statement of the floor plan (the edge a
cell side lies on, the border edges that carry payload bits), and
``_cell_tiles`` of which tiles a cell has.  Nothing else restates them: a
border is a lookup in the build's own color table, and an accepted
payload's border has exactly one fill, so ``assemble_macro_tile`` hands
that border to ``solve`` and returns the tiling it finds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from ..core import Interner, PatchGrid, TileSet, block_border
from ..machine import (
    STAY,
    SYM_BLANK,
    SYM_ONE,
    SYM_ZERO,
    Assembler,
    Machine,
    diagram_local_rules,
    run_machine,
)
from ..solver import solve
from .layout import SIDES, CompileError, SimulationLayout, check_zoom, plan_layout


@dataclass
class CompiledTileSet:
    """A simulating tile set plus everything needed to read it back:
    ``colors`` maps each color's key ``(axis, i, j, content)`` to its id."""

    tile_set: TileSet
    layout: SimulationLayout
    accepted: frozenset[tuple[int, ...]]
    steps_needed: int
    colors: dict[tuple, int]


#: Steps a probed payload may run before the checker counts as looping.
PROBE_STEPS = 10_000


def _probe_capacity(
    machine: Machine, k: int, track: Sequence[int] | None
) -> tuple[frozenset[tuple[int, ...]], int, int]:
    """Probe the checker on all 2^(4k) payloads; bound its time and space.

    Payloads it rejects must reject by getting stuck or walking off, not by
    running forever - a looping checker cannot be given a finite zone.
    """
    accepted = set()
    t_max, w_need = 0, 4 * k
    for bits in itertools.product((0, 1), repeat=4 * k):
        tape = [SYM_ZERO + b for b in bits]
        res = run_machine(machine, tape, track=track, max_steps=PROBE_STEPS)
        if res.status == "accepted":
            accepted.add(bits)
            t_max = max(t_max, res.steps)
            w_need = max(w_need, len(res.cells))
        elif res.status == "timeout":
            raise CompileError(
                f"checker still running on payload {bits} after {PROBE_STEPS} steps"
            )
    if not accepted:
        raise CompileError("checker accepts no payload; the tile set would be empty")
    return frozenset(accepted), t_max, w_need


def _wire_incidence(lay: SimulationLayout) -> dict[tuple[int, int], list]:
    """The (wire id, sides) pairs crossing each cell, in sorted wire order."""
    runs = lay.wire_runs()
    inc: dict[tuple[int, int], list] = {}
    for wid in sorted(runs):
        for cell, sides in runs[wid]:
            inc.setdefault(cell, []).append((wid, sides))
    return inc


def _cell_tiles(color, lay: SimulationLayout, trk, machine: Machine, rules, inc,
                i: int, j: int):
    """Every tile of cell (i, j) as ((left, right, top, bottom), name).

    A tile encodes, beyond its position, the input bit (none on padding)
    on the zone's input row, a diagram rule and its transit bit in the
    rest of the zone, and the bits of the wires in ``inc`` outside it.
    ``color(side, i, j, content)`` interns the edge that side of the cell
    lies on; the content is the edge's carried bit, head signal or
    ``(configuration, transit bit)``, else None.  Colors are interned in
    call order, which fixes the color ids.
    """
    k = lay.k
    if lay.in_zone(i, j):
        c, t = i - lay.sx0, j - lay.zy0
        transit = i in lay.vwin_cols
        if t == 0:
            left, right = color("left", i, j), color("right", i, j)
            if c < 4 * k:
                for b in (0, 1):
                    cfg0 = (SYM_ZERO + b, machine.start if c == 0 else None, trk[c])
                    top = color("top", i, j, (cfg0, b if transit else None))
                    bottom = color("bottom", i, j, None if transit else b)
                    yield (left, right, top, bottom), f"{i},{j} in{c}={b}"
            else:
                top = color("top", i, j, ((machine.blank, None, trk[c]), None))
                yield (left, right, top, color("bottom", i, j)), f"{i},{j} pad"
            return
        ceiling = t == lay.zone_h - 1
        for ridx, rule in enumerate(rules):
            if rule.below[2] != trk[c] or rule.above[2] != trk[c]:
                continue
            if c == 0 and rule.left is not None:
                continue
            if c == lay.zone_w - 1 and rule.right is not None:
                continue
            if ceiling and rule.above[1] not in (None, machine.accept):
                continue
            left, right = color("left", i, j, rule.left), color("right", i, j, rule.right)
            for tb in (0, 1) if transit else (None,):
                bottom = color("bottom", i, j, (rule.below, tb))
                top = color("top", i, j, tb if ceiling else (rule.above, tb))
                suffix = "" if tb is None else f" t={tb}"
                yield (left, right, top, bottom), f"{i},{j} z{ridx}{suffix}"
        return
    entries = inc.get((i, j), ())
    for bits in itertools.product((0, 1), repeat=len(entries)):
        side_bit: dict[str, int] = {}
        for (wid, sides), b in zip(entries, bits):
            for side in sides:
                side_bit[side] = b
        tag = " ".join(f"{wid[0]}{wid[1]}={b}" for (wid, _), b in zip(entries, bits))
        edges = tuple(color(side, i, j, side_bit.get(side)) for side in SIDES)
        yield edges, f"{i},{j}" + (f" {tag}" if tag else "")


def compile_simulation(
    machine: Machine,
    k: int,
    *,
    zoom: int | None = None,
    track: Sequence[int] | None = None,
) -> CompiledTileSet:
    """Build the simulating tile set for a 4k-bit checker machine.

    The zone is sized from an exhaustive run over all payloads, and the
    zoom defaults to the smallest feasible power of two.  ``track`` pins
    read-only track bits under the zone's tape cells (position c of the
    track sits under tape cell c; missing positions read 0).

    A k below 1, a track for a machine without one or a zoom ``check_zoom``
    refuses raises ValueError before the probe; a checker that accepts
    nothing or loops, or a zone no allowed zoom hosts, raises CompileError.
    """
    if k < 1:
        raise ValueError("need at least one payload bit per side")
    if track is not None and not machine.program_track:
        raise ValueError("track bits supplied for a machine without a track")
    if zoom is not None:
        check_zoom(zoom)
    accepted, t_max, w_need = _probe_capacity(machine, k, track)
    zone_w = w_need
    zone_h = max(2, t_max + 1)
    lay = plan_layout(k, zone_w, zone_h, zoom=zoom)
    trk = tuple(
        (track[c] if track is not None and c < len(track) else 0) for c in range(zone_w)
    )
    rules = diagram_local_rules(machine)

    n = lay.n
    colors = Interner()

    def color(side: str, i: int, j: int, content=None) -> int:
        axis, di, dj = SIDES[side]  # SimulationLayout.edge, inline: it runs once a tile side
        return colors[axis, (i + di) % n, (j + dj) % n, content]

    inc = _wire_incidence(lay)
    cells = (_cell_tiles(color, lay, trk, machine, rules, inc, i, j)
             for j in range(n) for i in range(n))
    tiles, names = zip(*itertools.chain.from_iterable(cells))
    tile_set = TileSet(len(colors), tiles, names)
    return CompiledTileSet(tile_set, lay, accepted, t_max, dict(colors))


def _payload(compiled: CompiledTileSet, *sides: Sequence[int]) -> tuple[int, ...]:
    """The four sides' bits in input order; each side needs exactly k bits."""
    k = compiled.layout.k
    for side in sides:
        if len(side) != k or any(b not in (0, 1) for b in side):
            raise ValueError(f"each side needs exactly {k} payload bits, each 0 or 1")
    return tuple(b for side in sides for b in side)


def payload_accepted(
    compiled: CompiledTileSet,
    left: Sequence[int],
    right: Sequence[int],
    top: Sequence[int],
    bottom: Sequence[int],
) -> bool:
    return _payload(compiled, left, right, top, bottom) in compiled.accepted


def _border(compiled: CompiledTileSet, bits: tuple[int, ...]) -> dict[str, list[int]]:
    """The N x N block's border colors for a payload, as ``solve``'s boundary:
    each side carries its k bits on its window edges and None on every
    other border edge (``SimulationLayout.border``)."""
    k, colors = compiled.layout.k, compiled.colors
    return {side: [colors[(*edge, None if b is None else bits[s * k + b])]
                   for edge, b in compiled.layout.border(side)]
            for s, side in enumerate(SIDES)}


def assemble_macro_tile(
    compiled: CompiledTileSet,
    left: Sequence[int],
    right: Sequence[int],
    top: Sequence[int],
    bottom: Sequence[int],
) -> PatchGrid:
    """The unique macro-tile content for an accepted payload quadruple.

    It is the one tiling of the block whose border carries the payload.  A
    payload the checker rejects leaves that border no tiling and raises
    ValueError; a fill that hits its budget raises InconclusiveError.
    """
    bits = _payload(compiled, left, right, top, bottom)
    n = compiled.layout.n
    res = solve(compiled.tile_set, n, n, boundary=_border(compiled, bits)).decided("macro-tile fill")
    if res.status == "unsatisfiable":
        raise ValueError(f"payload {bits} is rejected by the checker")
    return res.patch


def macro_payloads(
    compiled: CompiledTileSet, patch: PatchGrid, ox: int, oy: int
) -> dict[str, tuple[int, ...]]:
    """Read the four payload bit vectors off the macro-tile block at (ox, oy);
    a HOLE or an unknown tile id on its border raises MalformedPatchError."""
    lay, colors = compiled.layout, compiled.colors

    def pay_bit(color: int, edge: tuple) -> int:
        for b in (0, 1):
            if colors.get((*edge, b)) == color:
                return b
        raise ValueError(f"edge color {color} is not the payload edge {edge}")

    border = block_border(compiled.tile_set, patch.cells, ox, oy, lay.n)
    return {side: tuple(pay_bit(got[p], edge) for p, (edge, b) in enumerate(lay.border(side))
                        if b is not None)
            for side, got in zip(SIDES, border)}


def chessboard_predicate_machine() -> Machine:
    """Accepts payloads (l, r, t, b) with r != l, t != l, b == l, k = 1.

    The accepted quadruples 0110 and 1001 are exactly the two chessboard
    tiles, so the compiled tile set simulates the chessboard up to renaming.
    """
    Z, O = SYM_ZERO, SYM_ONE
    m = Assembler(*range(8))  # state q is named q
    for q, s, q2 in ((0, Z, 2), (0, O, 3), (2, O, 4), (3, Z, 5), (4, O, 6), (5, Z, 7)):
        m.add(q, s, q2)
    m.add(6, Z, 1, move=STAY)
    m.add(7, O, 1, move=STAY)
    return m.machine(4, 0, 1, SYM_BLANK)
