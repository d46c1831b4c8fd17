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

``SimulationLayout`` and ``_cell_tiles`` are the one statement of the
floor plan and of which tiles a cell has; the compiler records each
tile's id under the choice it encodes, and ``assemble_macro_tile`` works
out each cell's choice from the payload and looks the tile up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from ..core import PatchGrid, Tile, TileSet
from ..machine import (
    SYM_ZERO,
    Machine,
    ZoneCellRule,
    diagram_local_rules,
    run_machine,
)
from .layout import SimulationLayout, plan_layout


class CompileError(ValueError):
    """The machine cannot be compiled at the requested geometry."""


@dataclass
class CompiledTileSet:
    """A simulating tile set plus everything needed to read it back."""

    tile_set: TileSet
    layout: SimulationLayout
    machine: Machine
    accepted: frozenset[tuple[int, ...]]
    steps_needed: int
    track: tuple[int, ...]
    colors: tuple[tuple, ...]
    tile_of: dict[tuple, int] = field(repr=False)


def _probe_capacity(
    machine: Machine, k: int, track: Sequence[int] | None, probe_steps: int
) -> tuple[frozenset[tuple[int, ...]], int, int]:
    """Run the checker on all 2^(4k) payloads; bound its time and space.

    Payloads it rejects must reject by getting stuck or walking off, not by
    running forever - a looping checker cannot be given a finite zone.
    """
    accepted = set()
    t_max, w_need = 0, 4 * k
    for bits in itertools.product((0, 1), repeat=4 * k):
        tape = [SYM_ZERO + b for b in bits]
        res = run_machine(machine, tape, track=track, max_steps=probe_steps, grow=True)
        if res.status == "accepted":
            accepted.add(bits)
            t_max = max(t_max, res.steps)
            w_need = max(w_need, len(res.tape))
        elif res.status == "timeout":
            raise CompileError(
                f"checker still running on payload {bits} after {probe_steps} steps"
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
    """Every tile of cell (i, j) as (choice, (left, right, top, bottom), name).

    The choice is what the tile encodes beyond its position: the input bit
    (None on padding) on the zone's input row, ``(rule, transit bit)`` in
    the rest of the zone, and the tuple of wire bits, in ``inc`` order,
    outside it.  ``color(axis, i, j, content)`` interns an edge; the
    content is the edge's carried bit, head signal or ``(configuration,
    transit bit)``, else None.  Colors are interned in call order, which
    fixes the color ids.
    """
    k = lay.k
    if lay.in_zone(i, j):
        c, t = i - lay.sx0, j - lay.zy0
        transit = i in lay.vwin_cols
        if t == 0:
            left = color("H", i, j)
            right = color("H", i + 1, j)
            if c < 4 * k:
                for b in (0, 1):
                    cfg0 = (SYM_ZERO + b, machine.start if c == 0 else None, trk[c])
                    top = color("V", i, j + 1, (cfg0, b if transit else None))
                    bottom = color("V", i, j, None if transit else b)
                    yield b, (left, right, top, bottom), f"{i},{j} in{c}={b}"
            else:
                top = color("V", i, j + 1, ((machine.blank, None, trk[c]), None))
                yield None, (left, right, top, color("V", i, j)), f"{i},{j} pad"
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
            left = color("H", i, j, rule.left)
            right = color("H", i + 1, j, rule.right)
            for tb in (0, 1) if transit else (None,):
                bottom = color("V", i, j, (rule.below, tb))
                top = color("V", i, j + 1, tb if ceiling else (rule.above, tb))
                suffix = "" if tb is None else f" t={tb}"
                yield (rule, tb), (left, right, top, bottom), f"{i},{j} z{ridx}{suffix}"
        return
    entries = inc.get((i, j), ())
    for bits in itertools.product((0, 1), repeat=len(entries)):
        side_bit: dict[str, int] = {}
        for (wid, sides), b in zip(entries, bits):
            for side in sides:
                side_bit[side] = b
        left = color("H", i, j, side_bit.get("left"))
        right = color("H", i + 1, j, side_bit.get("right"))
        top = color("V", i, j + 1, side_bit.get("top"))
        bottom = color("V", i, j, side_bit.get("bottom"))
        tag = " ".join(f"{wid[0]}{wid[1]}={b}" for (wid, _), b in zip(entries, bits))
        yield bits, (left, right, top, bottom), f"{i},{j}" + (f" {tag}" if tag else "")


def compile_simulation(
    machine: Machine,
    k: int,
    *,
    zoom: int | None = None,
    track: Sequence[int] | None = None,
    probe_steps: int = 10_000,
) -> CompiledTileSet:
    """Build the simulating tile set for a 4k-bit checker machine.

    The zone is sized from an exhaustive run over all payloads, and the
    zoom defaults to the smallest feasible power of two.  ``track`` pins
    read-only track bits under the zone's tape cells (position c of the
    track sits under tape cell c; missing positions read 0).
    """
    if k < 1:
        raise CompileError("need at least one payload bit per side")
    if track is not None and not machine.program_track:
        raise CompileError("track bits supplied for a machine without a track")
    accepted, t_max, w_need = _probe_capacity(machine, k, track, probe_steps)
    zone_w = w_need
    zone_h = max(2, t_max + 1)
    lay = plan_layout(k, zone_w, zone_h, zoom=zoom)
    trk = tuple(
        (track[c] if track is not None and c < len(track) else 0) for c in range(zone_w)
    )
    rules = list(dict.fromkeys(diagram_local_rules(machine)))

    n = lay.n
    colors: dict[tuple, int] = {}

    def color(axis: str, i: int, j: int, content=None) -> int:
        return colors.setdefault((axis, i % n, j % n, content), len(colors))

    inc = _wire_incidence(lay)
    tiles: list[Tile] = []
    names: list[str] = []
    tile_of: dict[tuple, int] = {}
    for j in range(n):
        for i in range(n):
            for choice, quad, name in _cell_tiles(color, lay, trk, machine, rules, inc, i, j):
                tile_of[i, j, choice] = len(tiles)
                tiles.append(Tile(*quad))
                names.append(name)

    tile_set = TileSet(len(colors), tiles, names)
    return CompiledTileSet(tile_set, lay, machine, accepted, t_max, trk, tuple(colors), tile_of)


def payload_accepted(
    compiled: CompiledTileSet,
    left: Sequence[int],
    right: Sequence[int],
    top: Sequence[int],
    bottom: Sequence[int],
) -> bool:
    return (*left, *right, *top, *bottom) in compiled.accepted


def _zone_run(compiled: CompiledTileSet, bits: tuple[int, ...]):
    """Configs and head signals of the accepting diagram, frozen to zone height.

    Row t is the configuration after t steps: row 0 is the input, a run
    with budget t ends on row t (budget stops are exact), and every row
    from the accepting step on repeats the accepted configuration.
    """
    lay, machine, trk = compiled.layout, compiled.machine, compiled.track
    tape = [SYM_ZERO + b for b in bits] + [machine.blank] * (lay.zone_w - 4 * lay.k)
    res = run_machine(machine, tape, track=trk, max_steps=lay.zone_h)
    if res.status != "accepted" or res.steps > lay.zone_h - 1:
        raise ValueError(f"payload {bits} is rejected by the checker")
    rows = [(machine.start, 0, tuple(tape))]
    for t in range(1, lay.zone_h):
        r = run_machine(machine, tape, track=trk, max_steps=t) if t < res.steps else res
        rows.append((r.state, r.head, r.tape))
    cfgs = [
        tuple(
            (tape_t[c], state if head == c else None, trk[c])
            for c in range(lay.zone_w)
        )
        for (state, head, tape_t) in rows
    ]
    sigs: list[dict[int, tuple[str, int]]] = [{}]
    for t in range(1, lay.zone_h):
        _, h_prev, _ = rows[t - 1]
        state, h_now, _ = rows[t]
        cross: dict[int, tuple[str, int]] = {}
        if h_now == h_prev + 1:
            cross[h_now] = ("R", state)
        elif h_now == h_prev - 1:
            cross[h_prev] = ("L", state)
        sigs.append(cross)
    return cfgs, sigs


def assemble_macro_tile(
    compiled: CompiledTileSet,
    left: Sequence[int],
    right: Sequence[int],
    top: Sequence[int],
    bottom: Sequence[int],
) -> PatchGrid:
    """The unique macro-tile content for an accepted payload quadruple."""
    lay = compiled.layout
    k, n, sx0, zy0 = lay.k, lay.n, lay.sx0, lay.zy0
    for side in (left, right, top, bottom):
        if len(side) != k or any(b not in (0, 1) for b in side):
            raise ValueError("each side needs exactly k payload bits")
    bits = (*left, *right, *top, *bottom)
    cfgs, sigs = _zone_run(compiled, bits)
    wire_bit = {("L", r): left[r] for r in range(k)}
    wire_bit |= {("R", r): right[r] for r in range(k)}
    wire_bit |= {("T", r): top[r] for r in range(k)}
    wire_bit |= {("B", r): bottom[r] for r in range(k)}
    inc = _wire_incidence(lay)
    grid = [[0] * n for _ in range(n)]
    for j in range(n):
        for i in range(n):
            if lay.in_zone(i, j):
                c, t = i - sx0, j - zy0
                if t == 0:
                    choice = bits[c] if c < 4 * k else None
                else:
                    rule = ZoneCellRule(cfgs[t - 1][c], cfgs[t][c],
                                        sigs[t].get(c), sigs[t].get(c + 1))
                    choice = (rule, top[c - 2 * k] if i in lay.vwin_cols else None)
            else:
                choice = tuple(wire_bit[wid] for wid, _ in inc.get((i, j), ()))
            tid = compiled.tile_of.get((i, j, choice))
            if tid is None:
                raise AssertionError(f"no tile matches cell {(i, j)}")
            grid[j][i] = tid
    return PatchGrid(n, n, grid)


def macro_payloads(
    compiled: CompiledTileSet, patch: PatchGrid, ox: int, oy: int
) -> dict[str, tuple[int, ...]]:
    """Read the four payload bit vectors off the macro-tile block at (ox, oy)."""
    lay, ts = compiled.layout, compiled.tile_set
    n = lay.n
    if not (0 <= ox <= patch.width - n and 0 <= oy <= patch.height - n):
        raise ValueError("block sticks out of the patch")

    def pay_bit(color: int, edge: tuple) -> int:
        key = compiled.colors[color]
        if key[:3] != edge:
            raise ValueError(f"edge color {key} is not the payload edge {edge}")
        return key[3]

    return {
        "left": tuple(
            pay_bit(ts.tiles[patch.get(ox, oy + row)].left, ("H", 0, row))
            for row in lay.hwin_rows
        ),
        "right": tuple(
            pay_bit(ts.tiles[patch.get(ox + n - 1, oy + row)].right, ("H", 0, row))
            for row in lay.hwin_rows
        ),
        "top": tuple(
            pay_bit(ts.tiles[patch.get(ox + col, oy + n - 1)].top, ("V", col, 0))
            for col in lay.vwin_cols
        ),
        "bottom": tuple(
            pay_bit(ts.tiles[patch.get(ox + col, oy)].bottom, ("V", col, 0))
            for col in lay.vwin_cols
        ),
    }


def chessboard_predicate_machine() -> Machine:
    """Accepts payloads (l, r, t, b) with r != l, t != l, b == l, k = 1.

    The accepted quadruples 0110 and 1001 are exactly the two chessboard
    tiles, so the compiled tile set simulates the chessboard up to renaming.
    """
    from ..machine import SYM_ONE, Transition

    Z, O = SYM_ZERO, SYM_ONE
    ts = [
        Transition(0, Z, None, 2, Z, "R"),
        Transition(0, O, None, 3, O, "R"),
        Transition(2, O, None, 4, O, "R"),
        Transition(3, Z, None, 5, Z, "R"),
        Transition(4, O, None, 6, O, "R"),
        Transition(5, Z, None, 7, Z, "R"),
        Transition(6, Z, None, 1, Z, "S"),
        Transition(7, O, None, 1, O, "S"),
    ]
    return Machine(8, 4, 0, 1, 0, False, tuple(ts))
