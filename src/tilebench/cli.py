"""Batch command surface: one subcommand per library operation.

Every command reads/writes the JSON formats of the owning module, echoes
its parameters where a report makes sense, and is deterministic given its
arguments (randomized commands take an explicit --seed).  Exit codes:
0 success, 1 domain failure (no tiling, refuted, not robust, ...; a
CompileError), 2 usage error (a UsageError, an OSError or a ValueError,
which the library raises for a bad argument before any work),
3 inconclusive (an InconclusiveError: a search budget was hit).
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import (
    HOLE,
    PatchGrid,
    TileSet,
    besicovitch_distance,
    chessboard_tileset,
    coordinate_tileset,
)
from .compiler import (
    CompileError,
    build_fixed_point,
    certificate,
    check_window_robust,
    compile_simulation,
    correct_errors,
    mutation_trials,
    robustify,
)
from .compiler.simulate import chessboard_predicate_machine
from .islands import Schedule, clean, find_islands, make_schedule, sample_bernoulli
from .machine import Machine, machine_corpus
from .solver import (
    MAX_NODES,
    InconclusiveError,
    check_simulation_window,
    count_patch_tilings,
    fill_template,
    find_cut_offsets,
    find_periods,
    solve,
)
from .substitution import (
    SubstitutionRule,
    aperiodicity_fraction,
    chessboard_oracle,
    enforce_substitution,
    iterate_substitution,
    thue_morse_oracle,
)

OK, FAIL, USAGE, INCONCLUSIVE = 0, 1, 2, 3

HOLE_GLYPH = "."
GLYPHS = "#@O+x*%=~o^"
HOLE_COLOR = (0, 0, 0)


class UsageError(Exception):
    pass


def _load(path: str, decode):
    """Read a JSON file and decode it; content of the wrong shape is a
    usage error, so the same exceptions raised anywhere else stay bugs."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        return decode(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"cannot decode {path}: {exc!r}") from exc


def _tiles(path: str) -> TileSet:
    return _load(path, TileSet.from_json)


def _patch_json(obj) -> PatchGrid:
    if "patch" in obj and "width" not in obj:
        obj = obj["patch"]  # accept solve/fill-hole/correct reports as-is
    return PatchGrid.from_json(obj)


def _patch(path: str) -> PatchGrid:
    return _load(path, _patch_json)


def _point(p) -> tuple[int, int]:
    if not (isinstance(p, list) and len(p) == 2 and set(map(type, p)) <= {int}):
        raise ValueError(f"point {p!r} is not a pair of ints")
    return p[0], p[1]


def _points(path: str) -> set[tuple[int, int]]:
    return _load(path, lambda obj: set(map(_point, obj)))


def _emit(obj: dict, out: str | None) -> None:
    _write(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _schedule_from(args) -> Schedule:
    if args.schedule:
        return _load(args.schedule, Schedule.from_json)
    if args.c is None or args.alpha1 is None or args.ranks is None:
        raise UsageError("need --schedule or all of --c/--alpha1/--ranks")
    return make_schedule(args.c, args.alpha1, args.ranks)


def _stock_tiles(name: str) -> TileSet:
    # small built-ins so the common demos need no JSON file on disk
    if name.startswith("coordinate:"):
        return coordinate_tileset(int(name.split(":", 1)[1]))
    if name == "chessboard":
        return chessboard_tileset()
    raise UsageError(f"unknown stock tile set {name!r}")


def _tiles_arg(args) -> TileSet:
    return _stock_tiles(args.stock) if args.stock else _tiles(args.tiles)


# --- solver commands --------------------------------------------------------

def cmd_solve(args) -> int:
    r = solve(_tiles_arg(args), args.w, args.h, toroidal=args.toroidal,
              max_nodes=args.max_nodes)
    body = {"status": r.status, "nodes": r.nodes}
    if r.patch is not None:
        body["patch"] = r.patch.to_json()
    _emit(body, args.out)
    return {"solved": OK, "inconclusive": INCONCLUSIVE}.get(r.status, FAIL)


def cmd_count(args) -> int:
    n = count_patch_tilings(_tiles_arg(args), args.w, args.h,
                            max_nodes=args.max_nodes)
    _emit({"width": args.w, "height": args.h, "count": n}, args.out)
    return OK


def cmd_periods(args) -> int:
    periods = find_periods(_tiles_arg(args), args.max, max_nodes=args.max_nodes)
    _emit({"max": args.max, "periods": sorted(map(list, periods))}, args.out)
    return OK


def cmd_cut(args) -> int:
    offsets = find_cut_offsets(_patch(args.patch), args.n)
    _emit({"n": args.n, "offsets": sorted(map(list, offsets)),
           "unique": len(offsets) == 1}, args.out)
    return OK if offsets else FAIL


def cmd_simulate_check(args) -> int:
    r = check_simulation_window(_tiles(args.tau), _tiles(args.rho),
                                args.n, args.window)
    body = {"status": r.status, "detail": r.detail, "n": args.n,
            "window": args.window, "family_size": r.family_size,
            "tilings_seen": r.tilings_seen}
    if r.offset is not None:
        body["offset"] = list(r.offset)
    body["counterexample_offsets"] = sorted(map(list, r.counterexample_offsets))
    _emit(body, args.out)
    return {"verified": OK, "refuted": FAIL}.get(r.status, INCONCLUSIVE)


def cmd_fill_hole(args) -> int:
    template = _patch(args.patch)
    filled = fill_template(_tiles_arg(args), template, max_nodes=args.max_nodes)
    if filled is None:
        _emit({"status": "unfillable", "holes": len(template.holes())}, args.out)
        return FAIL
    _emit({"status": "filled", "patch": filled.to_json()}, args.out)
    return OK


# --- machine/compiler commands ----------------------------------------------

def _machine_arg(args) -> Machine:
    if args.machine_file:
        return _load(args.machine_file, Machine.from_json)
    corpus = machine_corpus()
    corpus["chessboard"] = chessboard_predicate_machine()
    if args.machine not in corpus:
        raise UsageError(f"unknown machine {args.machine!r}; "
                         f"pick one of {sorted(corpus)} or use --machine-file")
    return corpus[args.machine]


def cmd_compile(args) -> int:
    compiled = compile_simulation(_machine_arg(args), args.k, zoom=args.zoom)
    body = {
        "k": args.k,
        "zoom": compiled.layout.n,
        "colors": compiled.tile_set.color_count,
        "tiles": len(compiled.tile_set),
        "accepted_payloads": sorted("".join(map(str, q)) for q in compiled.accepted),
        "steps_needed": compiled.steps_needed,
    }
    if args.out:
        body["tile_set"] = compiled.tile_set.to_json()
    _emit(body, args.out)
    return OK


def cmd_fixed_point(args) -> int:
    # flags are checked before the build, whose time and memory grow with size squared
    if (args.certificate or args.mutations) and args.seed is None:
        raise UsageError("--seed is required with --certificate/--mutations")
    if args.mutations < 0 or args.walk_samples < 0:
        raise UsageError("--mutations and --walk-samples must not be negative")
    if args.resident_samples is not None and args.resident_samples < 1:
        raise UsageError("--resident-samples must be at least 1")
    fp = build_fixed_point(args.size)
    if args.mutations > len(fp.program):
        raise UsageError(f"--mutations exceeds the program's {len(fp.program)} bits")
    body = {
        "size": fp.size,
        "tiles": len(fp.tile_set),
        "colors": fp.tile_set.color_count,
        "program_bits": len(fp.program),
        "capacity": fp.capacity,
        "state_count": fp.machine.states,
    }
    verdicts = set()
    if args.certificate:
        cert = certificate(fp, seed=args.seed,
                           walk_samples=args.walk_samples,
                           resident_samples=args.resident_samples)
        body["certificate"] = {"ok": cert.ok, **cert.parts,
                               "inconclusive": cert.inconclusive, "notes": cert.notes}
        verdicts.add(cert.verdict)
    if args.mutations:
        trials = mutation_trials(fp, count=args.mutations, seed=args.seed)
        caught, tried = trials.parts["mutations"]
        vouched, controls = trials.parts["controls"]
        body["mutations"] = {"tried": tried, "caught": caught,
                             "inconclusive": trials.inconclusive,
                             "controls_ok": vouched + trials.hits["controls"] == controls}
        verdicts.add(trials.verdict)
    _emit(body, args.out)
    return FAIL if "refuted" in verdicts else INCONCLUSIVE if "inconclusive" in verdicts else OK


# --- substitution commands ---------------------------------------------------

def _rule_arg(args) -> SubstitutionRule:
    if args.rule == "thue-morse":
        from .substitution import thue_morse_rule
        return thue_morse_rule()
    return _load(args.rule, SubstitutionRule.from_json)


def cmd_substitute(args) -> int:
    ts = enforce_substitution(_rule_arg(args))
    _emit({"colors": ts.color_count, "tiles": len(ts),
           "tile_set": ts.to_json()}, args.out)
    return OK


def cmd_subst_iterate(args) -> int:
    rows = iterate_substitution(_rule_arg(args), args.seed_letter, args.k)
    _emit({"k": args.k, "seed": args.seed_letter, "rows": rows}, args.out)
    return OK


def cmd_aperiodicity(args) -> int:
    oracle = {"thue-morse": thue_morse_oracle, "chessboard": chessboard_oracle}[args.oracle]
    frac = aperiodicity_fraction(oracle, (args.dx, args.dy), args.radius)
    _emit({"oracle": args.oracle, "shift": [args.dx, args.dy],
           "radius": args.radius, "fraction": frac}, args.out)
    return OK


# --- robustness commands ------------------------------------------------------

def cmd_robustify(args) -> int:
    rob = robustify(_tiles_arg(args), args.w)
    _emit({"w": rob.w, "patterns": len(rob.patterns),
           "colors": rob.tile_set.color_count,
           "tiles": len(rob.tile_set),
           "tile_set": rob.tile_set.to_json()}, args.out)
    return OK


def cmd_robust_check(args) -> int:
    status = check_window_robust(_tiles_arg(args), args.outer, args.inner)
    _emit({"outer": args.outer, "inner": args.inner, "status": status}, args.out)
    return {"robust": OK, "not_robust": FAIL}.get(status, INCONCLUSIVE)


def cmd_correct(args) -> int:
    report = correct_errors(_tiles_arg(args), _patch(args.patch), c1=args.c1)
    body = {
        "status": report.status,
        "islands": [sorted(map(list, isl)) for isl in report.islands],
        "boxes": [list(b) for b in report.boxes],
        "changed": sorted(map(list, report.changed)),
        "failures": [list(b) for b in report.failures],
        "patch": report.patch.to_json(),
    }
    _emit(body, args.out)
    return OK if report.status == "clean" else FAIL


# --- island commands ----------------------------------------------------------

def cmd_islands(args) -> int:
    torus = tuple(args.torus) if args.torus else None
    isl, oversize = find_islands(_points(args.points), args.alpha, args.beta,
                                 torus=torus)
    _emit({"alpha": args.alpha, "beta": args.beta,
           "islands": [sorted(map(list, s)) for s in isl],
           "oversize": [sorted(map(list, s)) for s in oversize]}, args.out)
    return OK


def cmd_clean(args) -> int:
    torus = tuple(args.torus) if args.torus else None
    report = clean(_points(args.points), _schedule_from(args), torus=torus)
    _emit({
        "success": report.success,
        "ranks": [{"rank": r.rank, "alpha": r.alpha, "beta": r.beta,
                   "islands": len(r.islands), "oversize": len(r.oversize),
                   "removed": r.removed, "remaining": r.remaining}
                  for r in report.ranks],
        "residual": sorted(map(list, report.residual)),
    }, args.out)
    return OK if report.success else FAIL


def cmd_schedule(args) -> int:
    s = make_schedule(args.c, args.alpha1, args.count)
    from .islands import correction_gap_ok, schedule_growth_ok
    body = s.to_json()
    body["growth_ok"] = schedule_growth_ok(s)
    if args.c2 is not None:
        body["gap_ok"] = correction_gap_ok(s, args.c2)
    _emit(body, args.out)
    return OK


def cmd_mc_clean(args) -> int:
    if args.trials < 1 or args.size < 1:
        raise UsageError("--trials and --size must be at least 1")
    schedule = _schedule_from(args)
    trials = []
    successes = 0
    for t in range(args.trials):
        pts = sample_bernoulli(args.size, args.size, args.epsilon, (args.seed, t))
        report = clean(pts, schedule, torus=(args.size, args.size))
        raw = len(pts) / args.size**2
        residual = len(report.residual) / args.size**2
        successes += report.success
        trials.append({"trial": t, "points": len(pts), "success": report.success,
                       "raw_density": raw, "residual_density": residual})
    body = {
        "epsilon": args.epsilon, "size": args.size, "trials": args.trials,
        "seed": args.seed, "schedule": schedule.to_json(),
        "success_fraction": successes / args.trials, "runs": trials,
    }
    _emit(body, args.out)
    return OK if successes == args.trials else FAIL


# --- renderers ----------------------------------------------------------------

def _default_color(tid: int) -> tuple[int, int, int]:
    # deterministic, bright enough to never collide with reserved black
    h = (tid + 1) * 2654435761 & 0xFFFFFFFF
    return (32 + (h & 0xFF) * 7 // 8,
            32 + ((h >> 8) & 0xFF) * 7 // 8,
            32 + ((h >> 16) & 0xFF) * 7 // 8)


def _palette(args, ids: set[int]):
    """Tile id -> glyph (ascii) or RGB triple (ppm), checked on load."""
    if not args.palette:
        return None

    def key(k):
        # only the canonical spelling, so no two keys name one tile id
        if str(int(k)) != k or int(k) < 0:
            raise ValueError(f"{k!r} is not a tile id")
        return int(k)

    def entry(v):
        if args.format == "ascii":
            if not (isinstance(v, str) and len(v) == 1):
                raise ValueError(f"{v!r} is not a one-character glyph")
            return v
        if not (isinstance(v, list) and len(v) == 3
                and all(type(c) is int and 0 <= c < 256 for c in v)):
            raise ValueError(f"{v!r} is not an RGB triple")
        return tuple(v)

    table = _load(args.palette, lambda obj: {key(k): entry(v) for k, v in dict(obj).items()})
    missing = sorted(i for i in ids if i != HOLE and i not in table)
    if missing:
        raise UsageError(f"palette misses tile ids {missing}")
    return table


def cmd_render(args) -> int:
    patch = _patch(args.patch)
    rows = patch.cells.tolist()[::-1]  # top-down
    table = _palette(args, {tid for cells in rows for tid in cells})
    if args.format == "ascii":
        lines = []
        for cells in rows:
            row = ""
            for tid in cells:
                if tid == HOLE:
                    row += HOLE_GLYPH
                elif table is not None:
                    row += table[tid]
                else:
                    row += GLYPHS[tid % len(GLYPHS)]
            lines.append(row)
        _write("\n".join(lines) + "\n", args.out)
        return OK
    b = args.block
    if b < 1:
        raise UsageError("--block must be at least 1")
    w, h = patch.width * b, patch.height * b
    payload = bytearray()
    for cells in rows:
        rowbytes = bytearray()
        for tid in cells:
            if tid == HOLE:
                color = HOLE_COLOR
            elif table is not None:
                color = table[tid]
            else:
                color = _default_color(tid)
            rowbytes += bytes(color) * b
        payload += rowbytes * b
    blob = f"P6\n{w} {h}\n255\n".encode("ascii") + bytes(payload)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob)
    else:
        sys.stdout.buffer.write(blob)
    return OK


def cmd_distance(args) -> int:
    pa, pb = _patch(args.a), _patch(args.b)
    if (pa.width, pa.height) != (pb.width, pb.height):
        raise UsageError("patches must have identical dimensions")
    radii = sorted({int(r) for r in args.radii.split(",")})
    cx, cy = pa.width // 2, pa.height // 2
    fit = min(cx, cy, pa.width - 1 - cx, pa.height - 1 - cy)
    if not radii or radii[0] < 1 or radii[-1] > fit:
        raise UsageError(f"radii must lie in 1..{fit} for these patches")

    a, b = pa.cells, pb.cells
    report = besicovitch_distance(a, b, radii, hole=(a == HOLE) | (b == HOLE), center=(cx, cy))
    _emit({"radii": list(report.radii), "fractions": list(report.fractions),
           "tail_max": list(report.tail_max), "label": report.label}, args.out)
    return OK


# --- wiring -------------------------------------------------------------------

def _tiles_flags(p) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--tiles", help="tile set JSON file")
    g.add_argument("--stock", help="built-in set: chessboard or coordinate:N")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tilebench",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, help_: str):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write the JSON/byte output here")
        return p

    p = add("solve", cmd_solve, "tile a w×h window")
    _tiles_flags(p)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--toroidal", action="store_true")
    p.add_argument("--max-nodes", type=int, default=MAX_NODES)

    p = add("count", cmd_count, "count tilings of a window")
    _tiles_flags(p)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--max-nodes", type=int, default=MAX_NODES)

    p = add("periods", cmd_periods, "enumerate torus periods")
    _tiles_flags(p)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--max-nodes", type=int, default=MAX_NODES)

    p = add("cut", cmd_cut, "find n-block cut offsets of a patch")
    p.add_argument("--patch", required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("simulate-check", cmd_simulate_check,
            "window evidence that one set simulates another")
    p.add_argument("--tau", required=True, help="simulating tile set JSON")
    p.add_argument("--rho", required=True, help="simulated tile set JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--window", type=int, required=True)

    p = add("fill-hole", cmd_fill_hole, "complete the HOLE cells of a patch")
    _tiles_flags(p)
    p.add_argument("--patch", required=True)
    p.add_argument("--max-nodes", type=int, default=MAX_NODES)

    p = add("compile", cmd_compile, "compile a checker machine to tiles")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--machine", help="stock machine name")
    g.add_argument("--machine-file", help="machine JSON file")
    p.add_argument("--k", type=int, required=True, help="payload bits per side")
    p.add_argument("--zoom", type=int)

    p = add("fixed-point", cmd_fixed_point, "build the self-describing tile set")
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--certificate", action="store_true")
    p.add_argument("--mutations", type=int, default=0)
    p.add_argument("--walk-samples", type=int, default=80)
    p.add_argument("--resident-samples", type=int, default=None)
    p.add_argument("--seed", type=int)

    p = add("substitute", cmd_substitute, "tile set enforcing a substitution")
    p.add_argument("--rule", required=True, help="rule JSON file or thue-morse")

    p = add("subst-iterate", cmd_subst_iterate, "expand a substitution k times")
    p.add_argument("--rule", required=True, help="rule JSON file or thue-morse")
    p.add_argument("--seed-letter", required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("aperiodicity", cmd_aperiodicity, "mismatch fraction under a shift")
    p.add_argument("--oracle", choices=("thue-morse", "chessboard"), required=True)
    p.add_argument("--dx", type=int, required=True)
    p.add_argument("--dy", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)

    p = add("robustify", cmd_robustify, "pattern-closed robust version of a set")
    _tiles_flags(p)
    p.add_argument("--w", type=int, default=5)

    p = add("robust-check", cmd_robust_check, "annulus extension check")
    _tiles_flags(p)
    p.add_argument("--outer", type=int, required=True)
    p.add_argument("--inner", type=int, required=True)

    p = add("islands", cmd_islands, "split a point set into islands")
    p.add_argument("--points", required=True, help="JSON [[x,y],...] file")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--torus", type=int, nargs=2, metavar=("W", "H"))

    p = add("clean", cmd_clean, "iterative island cleaning")
    p.add_argument("--points", required=True)
    p.add_argument("--schedule", help="schedule JSON file")
    p.add_argument("--c", type=int)
    p.add_argument("--alpha1", type=int)
    p.add_argument("--ranks", type=int)
    p.add_argument("--torus", type=int, nargs=2, metavar=("W", "H"))

    p = add("schedule", cmd_schedule, "build a cleaning schedule")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--alpha1", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--c2", type=int)

    p = add("mc-clean", cmd_mc_clean, "Monte Carlo cleaning experiment")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--schedule", help="schedule JSON file")
    p.add_argument("--c", type=int)
    p.add_argument("--alpha1", type=int)
    p.add_argument("--ranks", type=int)

    p = add("correct", cmd_correct, "island-guided patch correction")
    _tiles_flags(p)
    p.add_argument("--patch", required=True)
    p.add_argument("--c1", type=int, default=2)

    p = add("render", cmd_render, "draw a patch as ascii or binary PPM")
    p.add_argument("--patch", required=True)
    p.add_argument("--format", choices=("ascii", "ppm"), default="ascii")
    p.add_argument("--block", type=int, default=1, help="pixels per cell (ppm)")
    p.add_argument("--palette", help="JSON {tile id: glyph or [r,g,b]}")

    p = add("distance", cmd_distance, "window mismatch fractions of two patches")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--radii", required=True, help="comma list, e.g. 1,2,4")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return INCONCLUSIVE
    except CompileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL
    except (UsageError, OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    raise SystemExit(main())
