"""fixpoint-audit: the self-describing tile set at N=256, one verdict per op.

The ops are those criterion 5 asks of the set through ``certificate()`` and
``mutation_trials()``, in the proportion of their defaults: many resident
tiles (short checker runs, dominated by per-call overhead), a few walking
tiles and the fixed worst walk (the machine's inner loop over the 267-state
checker), corrupted-quad probes, single-bit track mutations,
universal-machine cross-checks (the inner loop over 89,592 states) and
macro-tile round trips.  Walking quads are not cross-checked under the
universal machine: at about 34,000 universal steps per checker step a
1-3 M-step walk cannot finish.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import tilebench.compiler.fixedpoint as fixedpoint
import tilebench.core as core
import tilebench.machine as machine
from harness import BUDGET, OK, WRONG, Op, interleave, mirrored_pairs
from reference import ANCHORS

NAME = "fixpoint-audit"
SIZE = 256
UTM_MAX_STEPS = 200_000_000
WORST_WALK = (255, 222)

# Ops per full audit with the defaults of certificate() (every one of the
# 25,026 resident tile variants, 80 walking tiles, 200 reject probes, 6
# block probes, 4 universal rejects, 6 round trips) and mutation_trials()
# (50 mutations).  A run issues each kind in this proportion, scaled to fit
# --seconds (at least one of each kind).
AUDIT = {"resident": 25_026, "walk": 80, "probe": 200, "block_probe": 6,
         "utm_reject": 4, "round_trip": 6, "mutation": 50}
# Residents and reject probes are short (about 0.5 ms), so the run issues
# them PASSES times over and reports each at its fastest (host-scaled)
# timing (harness.op_latencies); every other op runs the machine's inner
# loop for 0.1-12 s and is issued once.
PASSES = 3
REPEATED = ("resident", "probe")
# Seconds those ops take per full audit on a 2-core x86 container with
# CPython 3.11 (walks 75, mutations 19, residents 15 per pass, block probes
# 6, the rest about 5), and the seconds every run spends whatever its
# length: the universal accept (about 12 s; certificate() runs two per
# audit), the worst walk (about 1.8 s) and the one block-probe pair,
# universal reject and round trip that even the shortest run issues (about
# 2.5 s).
AUDIT_REST_S, RESIDENT_PASS_S, FIXED_S = 120, 15, 16.5
# Universal rejects break the coordinate arithmetic of a resident tile, so
# the universal run gets stuck within a second (a flipped pinned val bit
# would take about 5 s).
UTM_REJECT_MODES = ("successor", "top_column")
PROBE_MODES = ("successor", "top_column", "pinned_val", "row", "sibling")


@dataclass
class Ctx:
    fp: fixedpoint.FixedPointSet
    utm: machine.Machine
    track: list


def setup() -> Ctx:
    fp = fixedpoint.build_fixed_point(SIZE)
    utm = machine.universal_machine(fp.state_bits)
    ctx = Ctx(fp, utm, fp.track())
    # Fill the machines' lazy transition tables, as a certificate run would
    # on its first checker and universal run.
    quad = tile_at(fp, 1, 1, random.Random(0))
    fixedpoint.run_checker(fp, quad, track=ctx.track)
    machine.run_encoded(utm, list(fp.program), fixedpoint.checker_tape(fp.n, *quad),
                        max_steps=1, state_bits=fp.state_bits)
    return ctx


def anchors(ctx: Ctx) -> dict[str, tuple]:
    return {
        "fixed_point_tiles": (len(ctx.fp.tile_set.tiles), ANCHORS["fixed_point_tiles"]),
        "checker_states": (ctx.fp.machine.states, ANCHORS["checker_states"]),
        "checker_program_bits": (len(ctx.fp.program), ANCHORS["checker_program_bits"]),
        "universal_states": (ctx.utm.states, ANCHORS["universal_states"]),
    }


# --- inputs -------------------------------------------------------------------


def tile_at(fp, x: int, y: int, rng: random.Random) -> tuple:
    """Edge records of a tile of the set at cell (x, y).

    Follows the construction's val discipline: free on the seam column
    (left at x == 0, right at x == N-1) and the seam row (a vertical edge on
    row 0), pinned to the program bit on block rows, zero elsewhere.
    """
    n = fp.size

    def vert(row: int) -> int:
        if row == 0:
            return rng.randrange(2)
        if row in fp.band:
            return fp.padded[fp.fold(x, row)]
        return 0

    vl = rng.randrange(2) if x == 0 else 0
    vr = rng.randrange(2) if x == n - 1 else 0
    return fp.edge_records(x, y, vl, vr, vert((y + 1) % n), vert(y))


def walking_rows(fp) -> list[int]:
    return [y for y in range(fp.size) if y in fp.band or (y + 1) % fp.size in fp.band]


def resident_rows(fp) -> list[int]:
    walking = set(walking_rows(fp))
    return [y for y in range(fp.size) if y not in walking]


def corrupt(fp, x: int, y: int, mode: str, rng: random.Random) -> tuple[tuple, bool]:
    """A quad near the tile at (x, y) and whether it is still a tile.

    Only the sibling mode (flipping a free seam bit) keeps membership; the
    others break the coordinate arithmetic or a pinned val bit.
    """
    n, size = fp.n, fp.size
    quad = list(tile_at(fp, x, y, rng))
    pack, unpack = fixedpoint.pack_record, fixedpoint.unpack_record
    if mode == "successor":
        quad[1] = pack(n, (x + 2) % size, y, 0)
    elif mode == "top_column":
        i, j, v = unpack(n, quad[2])
        quad[2] = pack(n, (i + 1) % size, j, v)
    elif mode == "row":
        i, j, v = unpack(n, quad[0])
        quad[0] = pack(n, i, (j + 1) % size, v)
    else:
        side = {"pinned_val": 0 if x else 1, "sibling": 0 if x == 0 else 1}[mode]
        i, j, v = unpack(n, quad[side])
        quad[side] = pack(n, i, j, 1 - v)
    return tuple(quad), mode == "sibling"


def kind_counts(seconds: int) -> dict[str, int]:
    """Ops per kind for a run of about `seconds`, in certificate() proportion."""
    share = max(0.0, seconds - FIXED_S) / (AUDIT_REST_S + (PASSES - 1) * RESIDENT_PASS_S)
    counts = {kind: max(1, round(n * share)) for kind, n in AUDIT.items()}
    # At least 100 ops, so at least ten lie beyond op_p90_ms.
    counts["resident"] = max(counts["resident"], 100)
    return counts


def plan(ctx: Ctx, seed: int, seconds: int) -> list[Op]:
    """Every kind's ops spread over the run, inputs drawn from the seed.

    A walk's cost grows along the block rows and a mutation's along the
    program, so walks, block probes and mutations come in mirrored pairs
    (harness.mirrored_pairs): the inputs change with the seed while the
    run's total work hardly does.  Reject probes sit on resident rows, where
    they cost what a resident run costs; certificate() also puts them on
    walking rows, whose walks the walk kind carries here.
    """
    fp = ctx.fp
    rng = random.Random(f"{NAME}/{seed}")
    n = kind_counts(seconds)
    residents = resident_rows(fp)
    ops = []
    for _ in range(n["resident"]):
        x, y = rng.randrange(SIZE), rng.choice(residents)
        ops.append(Op("resident", (tile_at(fp, x, y, rng),), True))
    for k in range(n["probe"]):
        mode = PROBE_MODES[k % len(PROBE_MODES)]
        # Sibling probes need a free seam bit: put them on the seam column.
        x = rng.choice((0, SIZE - 1)) if mode == "sibling" else rng.randrange(1, SIZE - 1)
        quad, member = corrupt(fp, x, rng.choice(residents), mode, rng)
        ops.append(Op("probe", (quad,), member))
    x = rng.randrange(SIZE)
    walks = mirrored_pairs(walking_rows(fp), pairs(n["walk"]), rng)
    for k, y in enumerate(walks):
        ops.append(Op("walk", (tile_at(fp, x if k % 2 == 0 else SIZE - 1 - x, y, rng),), True))
    ops.append(Op("worst_walk", (tile_at(fp, *WORST_WALK, rng),), True))
    for y in mirrored_pairs(list(fp.band), pairs(n["block_probe"]), rng):
        # Pinned block bit of the bottom edge flipped: the checker walks out
        # to the bit and must get stuck there.
        quad = list(tile_at(fp, rng.randrange(SIZE), y, rng))
        i, j, v = fixedpoint.unpack_record(fp.n, quad[3])
        quad[3] = fixedpoint.pack_record(fp.n, i, j, 1 - v)
        ops.append(Op("block_probe", (tuple(quad),), False))
    for bit in mirrored_pairs(list(range(len(fp.program))), pairs(n["mutation"]), rng):
        # Flip one program bit on the track and query the tile that carries
        # the original bit at that block offset, as mutation_trials() does.
        x, y = bit % SIZE, SIZE // 4 + bit // SIZE
        mutated = list(ctx.track)
        mutated[fp.track_offset + bit] ^= 1
        ops.append(Op("mutation", (tile_at(fp, x, y, rng), mutated), "stuck"))
    ops.append(Op("utm", (tile_at(fp, rng.randrange(SIZE), rng.choice(residents), rng),), True))
    for _ in range(n["utm_reject"]):
        mode = rng.choice(UTM_REJECT_MODES)
        quad, member = corrupt(fp, rng.randrange(1, SIZE - 1), rng.choice(residents), mode, rng)
        ops.append(Op("utm", (quad,), member))
    for _ in range(n["round_trip"]):
        ops.append(Op("round_trip", (tile_at(fp, rng.randrange(SIZE), rng.randrange(SIZE), rng),),
                      True))
    return [replace(op, once=op.kind not in REPEATED) for op in interleave(ops)]


def pairs(count: int) -> int:
    return max(1, round(count / 2))


# --- ops --------------------------------------------------------------------------


def execute(ctx: Ctx, op: Op):
    fp = ctx.fp
    quad = op.args[0]
    if op.kind == "mutation":
        r = fixedpoint.run_checker(fp, quad, track=op.args[1])
        return r.status, r.steps
    if op.kind == "utm":
        direct = fixedpoint.run_checker(fp, quad, track=ctx.track)
        sim = machine.run_encoded(ctx.utm, list(fp.program), fixedpoint.checker_tape(fp.n, *quad),
                                  max_steps=UTM_MAX_STEPS, state_bits=fp.state_bits)
        return direct.status, direct.steps, sim.status, sim.steps
    if op.kind == "round_trip":
        patch = fixedpoint.assemble_self_patch(fp, quad)
        violations = core.verify_patch(fp.tile_set, patch)
        return len(violations), fixedpoint.decode_self_patch(fp, patch)
    r = fixedpoint.run_checker(fp, quad, track=ctx.track)
    return r.status, r.steps


def _expect(member: bool) -> str:
    # The checker accepts by reaching its accept state and rejects by
    # getting stuck; anything else is neither verdict.
    return "accepted" if member else "stuck"


def judge(ctx: Ctx, op: Op, result) -> str:
    quad = op.args[0]
    if op.kind == "round_trip":
        violations, decoded = result
        return OK if violations == 0 and decoded == quad else WRONG
    if op.kind == "mutation":
        status, _ = result
        # Only "stuck" is a catch; a timeout is a budget hit, never a catch.
        return OK if status == op.want else BUDGET if status == "timeout" else WRONG
    # The benchmark's own membership reasoning must agree with the set.
    if (quad in ctx.fp.accepted) != bool(op.want):
        return WRONG
    want = _expect(bool(op.want))
    if op.kind == "utm":
        direct, _, sim, _ = result
        if "timeout" in (direct, sim):
            return BUDGET
        return OK if direct == want and sim == want else WRONG
    status, steps = result
    if status == "timeout":
        return BUDGET
    if op.kind == "worst_walk" and steps != ANCHORS["worst_walk_steps"]:
        return WRONG
    return OK if status == want else WRONG


def counts(op: Op, result) -> dict[str, int]:
    if op.kind == "round_trip":
        return {"round_trips": 1}
    if op.kind == "utm":
        return {"machine.steps": result[1], "utm.steps": result[3]}
    return {"machine.steps": result[1]}
