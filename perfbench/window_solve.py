"""window-solve: the backtracking search and everything built on it.

The solver is driven four ways -- deep first-solution search (compiled
chessboard windows), exhaustive counting (Thue-Morse-enforced windows),
toroidal search (period census) and template fill (hole repair, robustness)
-- plus the second backtracker inside ``check_window_robust``, the
simulation-window check and both mismatch samplers.  No op runs a machine,
so an engine change to ``tilebench.machine`` must leave this workload alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import tilebench.compiler.robust as robust
import tilebench.compiler.simulate as simulate
import tilebench.core as core
import tilebench.solver as solver
import tilebench.substitution as substitution
from harness import BUDGET, OK, WRONG, Op, interleave, per_run, strata
from reference import (ANCHORS, ROBUST_EXPECTED, coordinate_periods, mismatch_fraction,
                       thue_morse_window_count)

NAME = "window-solve"
# Every op is issued once (see fixpoint_audit.PASSES).
PASSES = 1
MIN_SIDE, MAX_SIDE = 12, 32
# No one caller of the repo issues this mix, so each count per 25 s of run
# says what it covers (see NOTES.md, "Workloads and op mix").  Search cost
# jumps with window width (29 is the costliest), so every width in
# [MIN_SIDE, MAX_SIDE] is solved with WIDTH_ROUNDS heights, one drawn from
# each equal slice of the side range: the run's work hardly moves with the
# seed.
WIDTH_ROUNDS = 9
ROBUST_CASES = ((4, 2), (5, 1), (5, 3))
# Single-cell holes and dominoes more than beta_1 = 13 apart (the default
# repair schedule) stay rank-1 islands, so each repair is local and the
# chessboard's phase, pinned by the intact ring, fixes the answer.
HOLE_SPACING = 14


@dataclass
class Ctx:
    compiled: simulate.CompiledTileSet
    rob: robust.Robustification
    thue_morse: core.TileSet
    white: core.TileSet


def setup() -> Ctx:
    compiled = simulate.compile_simulation(simulate.chessboard_predicate_machine(), 1)
    rob = robust.robustify(core.chessboard_tileset())
    tm = substitution.enforce_substitution(substitution.thue_morse_rule())
    return Ctx(compiled, rob, tm, core.TileSet(1, [core.Tile(0, 0, 0, 0)]))


def anchors(ctx: Ctx) -> dict[str, tuple]:
    return {
        "compiled_chessboard_tiles": (len(ctx.compiled.tile_set.tiles),
                                      ANCHORS["compiled_chessboard_tiles"]),
        "thue_morse_enforced_tiles": (len(ctx.thue_morse.tiles),
                                      ANCHORS["thue_morse_enforced_tiles"]),
    }


# --- inputs -------------------------------------------------------------------


def chessboard_patch(width: int, height: int, phase: int) -> core.PatchGrid:
    """The chessboard tiling: tile 0 (even) where x + y + phase is even."""
    return core.PatchGrid(width, height,
                          [[(x + y + phase) % 2 for x in range(width)] for y in range(height)])


def spaced_holes(side: int, count: int, rng: random.Random) -> list[tuple[int, int]]:
    """Hole cells: singletons or horizontal dominoes, HOLE_SPACING apart."""
    anchors_: list[tuple[int, int]] = []
    cells = []
    while len(anchors_) < count:
        p = (rng.randrange(side - 1), rng.randrange(side))
        if all(max(abs(p[0] - q[0]), abs(p[1] - q[1])) > HOLE_SPACING for q in anchors_):
            anchors_.append(p)
            cells.append(p)
            if rng.random() < 0.5:
                cells.append((p[0] + 1, p[1]))
    return cells


def plan(ctx: Ctx, seed: int, seconds: int) -> list[Op]:
    rng = random.Random(f"{NAME}/{seed}")

    def scaled(n: int) -> int:
        return per_run(n, seconds)

    ops = [Op("solve", (MAX_SIDE, MAX_SIDE), ANCHORS["compiled_chessboard_32x32_nodes"])]
    for w in range(MIN_SIDE, MAX_SIDE + 1):
        for h in strata(list(range(MIN_SIDE, MAX_SIDE + 1)), scaled(WIDTH_ROUNDS), rng):
            ops.append(Op("solve", (w, h), None))
    for _ in range(scaled(30)):
        w, h = rng.randint(2, 5), rng.randint(2, 5)
        ops.append(Op("count", (w, h), thue_morse_window_count(w, h)))
    for _ in range(scaled(15)):
        k, top = rng.randint(2, 4), rng.randint(4, 8)
        ops.append(Op("periods", (k, top), coordinate_periods(k, top)))
    for _ in range(scaled(5)):
        for outer, inner in ROBUST_CASES:
            ops.append(Op("robust", (outer, inner), ROBUST_EXPECTED[(outer, inner)]))
    # Sides one per slice of 64..128, so the patches' total size, and the
    # run's peak memory, hardly moves with the seed.
    for side in strata(list(range(64, 129)), scaled(15), rng):
        phase = rng.randrange(2)
        lifted = robust.lift(ctx.rob, chessboard_patch(side + ctx.rob.w - 1,
                                                       side + ctx.rob.w - 1, phase))
        holes = spaced_holes(side, rng.randint(2, 6), rng)
        damaged = lifted.replaced({p: core.HOLE for p in holes})
        ops.append(Op("correct", (damaged,), lifted))
    for _ in range(scaled(8)):
        k = rng.randint(2, 4)
        ops.append(Op("simulate", ("coordinate", k, rng.randint(2 * k - 1, 2 * k + 2)),
                      "verified"))
    for _ in range(scaled(1)):
        # The chessboard is invariant under the (1, 1) shift, so no cut into
        # 2 x 2 blocks is unique; the single-tile set cuts anywhere.
        ops.append(Op("simulate", ("chessboard", 2, rng.randint(4, 8)), "refuted"))
        ops.append(Op("simulate", ("white", 2, rng.randint(3, 8)), "refuted"))
    for _ in range(scaled(10)):
        shifts = set()
        while len(shifts) < 3:
            shifts.add((rng.randint(-4, 4), rng.randint(-4, 4)))
            shifts.discard((0, 0))
        ops.append(Op("aperiodicity", (rng.randint(16, 96), tuple(sorted(shifts))), None))
    for _ in range(scaled(10)):
        shift = (rng.randint(-3, 3), rng.randint(-3, 3))
        radii = tuple(sorted(rng.sample(range(8, 97), 3)))
        ops.append(Op("besicovitch", (shift, radii), float((shift[0] + shift[1]) % 2)))
    return interleave(ops)


# --- ops --------------------------------------------------------------------------


def _shifted_chessboard(dx: int, dy: int):
    return lambda x, y: substitution.chessboard_oracle(x + dx, y + dy)


def execute(ctx: Ctx, op: Op):
    a = op.args
    if op.kind == "solve":
        return solver.solve(ctx.compiled.tile_set, a[0], a[1], mode="first")
    if op.kind == "count":
        return solver.solve(ctx.thue_morse, a[0], a[1], mode="count")
    if op.kind == "periods":
        return solver.find_periods(core.coordinate_tileset(a[0]), a[1])
    if op.kind == "robust":
        return robust.check_window_robust(ctx.thue_morse, a[0], a[1])
    if op.kind == "correct":
        return robust.correct_errors(ctx.rob, a[0])
    if op.kind == "simulate":
        family, n, window = a
        if family == "coordinate":
            tau = core.coordinate_tileset(n)
        elif family == "chessboard":
            tau = core.chessboard_tileset()
        else:
            tau = ctx.white
        return solver.check_simulation_window(tau, ctx.white, n, window).status
    if op.kind == "aperiodicity":
        radius, shifts = a
        return [substitution.aperiodicity_fraction(substitution.thue_morse_oracle, s, radius)
                for s in shifts]
    if op.kind == "besicovitch":
        (dx, dy), radii = a
        return core.besicovitch_distance(substitution.chessboard_oracle,
                                         _shifted_chessboard(dx, dy), radii)
    raise ValueError(f"unknown op kind {op.kind!r}")


def _patch_ok(tile_set, patch, width: int, height: int) -> bool:
    return (patch is not None and (patch.width, patch.height) == (width, height)
            and not patch.holes() and core.verify_patch(tile_set, patch) == [])


def judge(ctx: Ctx, op: Op, result) -> str:
    a = op.args
    if op.kind in ("solve", "count"):
        if result.status == "inconclusive":
            return BUDGET
        if op.kind == "count":
            return OK if result.status == "solved" and result.count == op.want else WRONG
        # The compiled set simulates the chessboard, which tiles the plane,
        # so every window has a tiling.
        ok = result.status == "solved" and _patch_ok(ctx.compiled.tile_set, result.patch, *a)
        return OK if ok and op.want in (None, result.nodes) else WRONG
    if op.kind == "correct":
        rep = result
        ok = (rep.status == "clean" and rep.patch == op.want
              and _patch_ok(ctx.rob.tile_set, rep.patch, op.want.width, op.want.height))
        return OK if ok else WRONG
    if op.kind == "simulate" and result == "inconclusive":
        return BUDGET
    if op.kind == "aperiodicity":
        radius, shifts = a
        want = [mismatch_fraction(substitution.thue_morse_oracle, s, radius) for s in shifts]
        close = len(result) == len(want) and all(abs(g - w) < 1e-12 for g, w in zip(result, want))
        return OK if close else WRONG
    if op.kind == "besicovitch":
        same = all(f == op.want for f in result.fractions + result.tail_max)
        return OK if same and result.radii == a[1] else WRONG
    return OK if result == op.want else WRONG


def counts(op: Op, result) -> dict[str, int]:
    if op.kind in ("solve", "count"):
        return {"solver.nodes": result.nodes, "solver.count": result.count}
    if op.kind == "periods":
        return {"periods": len(result)}
    if op.kind == "correct":
        return {"correct.changed": len(result.changed)}
    return {}
