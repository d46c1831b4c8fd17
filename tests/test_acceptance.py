"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion states an exact expectation and a wall-clock budget; the
test measures both.  Run with -v (and -s to see the lines live):

    pytest tests/test_acceptance.py -v
"""

import contextlib
import hashlib
import io
import itertools
import time

import pytest

from tilebench import cli
from tilebench.compiler import (
    CompileError,
    assemble_macro_tile,
    build_fixed_point,
    certificate,
    check_window_robust,
    compile_simulation,
    correct_errors,
    lift,
    macro_payloads,
    mutation_trials,
    payload_accepted,
    robustify,
)
from tilebench.compiler.simulate import chessboard_predicate_machine
from tilebench.core import (
    HOLE,
    PatchGrid,
    Tile,
    TileSet,
    chessboard_tileset,
    coordinate_tileset,
    verify_patch,
)
from tilebench.islands import (
    changed_fraction_bound,
    chebyshev,
    clean,
    correction_gap_ok,
    diameter,
    find_islands,
    make_schedule,
    sample_bernoulli,
    schedule_growth_ok,
)
from tilebench.machine import (
    encode_program,
    machine_corpus,
    run_encoded,
    run_machine,
    universal_machine,
)
from tilebench.solver import check_simulation_window, find_cut_offsets, find_periods, solve
from tilebench.substitution import (
    aperiodicity_fraction,
    chessboard_oracle,
    thue_morse_oracle,
)


def checked(num: int, budget: float, started: float, ok: bool, detail: str) -> None:
    elapsed = time.perf_counter() - started
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) - {detail}"
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} blew its {budget:.0f}s budget: {elapsed:.1f}s"


def white_tileset():
    return TileSet(1, [Tile(0, 0, 0, 0)])


def test_criterion_01_simulation_evidence():
    t0 = time.perf_counter()
    good = check_simulation_window(coordinate_tileset(2), white_tileset(), 2, 6)
    bad = check_simulation_window(white_tileset(), white_tileset(), 2, 6)
    ok = (
        good.status == "verified"
        and bad.status == "refuted"
        and bad.counterexample_offsets is not None
        and len(bad.counterexample_offsets) > 1
    )
    checked(1, 10, t0, ok, f"{good.status} / {bad.status} "
            f"with {len(bad.counterexample_offsets or ())} cut offsets")


def test_criterion_02_period_lattices():
    t0 = time.perf_counter()
    p3 = find_periods(coordinate_tileset(3), 6)
    pc = find_periods(chessboard_tileset(), 4)
    want3 = {(3, 3), (3, 6), (6, 3), (6, 6)}
    wantc = {(2, 2), (2, 4), (4, 2), (4, 4)}
    checked(2, 60, t0, p3 == want3 and pc == wantc,
            f"coordinate(3): {sorted(p3)}, chessboard: {sorted(pc)}")


def test_criterion_03_universal_machine_corpus():
    t0 = time.perf_counter()
    u = universal_machine()
    cases = {
        "always": [[], [1], [2, 2, 1]],
        "parity": [[], [2], [2, 2], [1, 2, 1], [2, 1, 2]],
        "palindrome": [[], [1], [1, 2, 1], [1, 2], [1, 2, 2, 1], [2, 1, 2, 2]],
    }
    agree = total = 0
    for name, machine in machine_corpus().items():
        program = encode_program(machine)
        for x in cases[name]:
            direct = run_machine(machine, list(x) + [0] * 4, max_steps=10_000)
            sim = run_encoded(u, program, x, max_steps=2_000_000)
            total += 1
            agree += (direct.status == "accepted") == (sim.status == "accepted")
    checked(3, 10, t0, agree == total, f"{agree}/{total} verdicts agree")


def test_criterion_04_compiled_chessboard_simulation():
    t0 = time.perf_counter()
    compiled = compile_simulation(chessboard_predicate_machine(), 1)
    n = compiled.layout.n
    ok = n <= 8
    for quad in sorted(compiled.accepted):
        patch = assemble_macro_tile(compiled, *[(c,) for c in quad])
        ok = ok and verify_patch(compiled.tile_set, patch) == []
    big = solve(compiled.tile_set, 2 * n, 2 * n, mode="first")
    cuts = find_cut_offsets(big.patch, n)
    ok = ok and big.status == "solved" and cuts == [(0, 0)]
    for ox, oy in itertools.product((0, n), repeat=2):
        pays = macro_payloads(compiled, big.patch, ox, oy)
        ok = ok and payload_accepted(compiled, **pays)
    checked(4, 600, t0, ok,
            f"zoom {n}, {len(compiled.accepted)} macro-tiles verified, cuts {cuts}")


def test_criterion_05_fixed_point_certificate(monkeypatch):
    t0 = time.perf_counter()
    with pytest.raises(CompileError):
        build_fixed_point(128)  # the program does not fit; 256 is smallest
    fp = build_fixed_point(256)
    cert = certificate(fp, seed=20260816)
    trials = mutation_trials(fp, count=50, seed=20260816)
    caught, tried = trials.parts["mutations"]
    ok = cert.ok and trials.ok and tried == 50
    # the default audit's stdout, pinned byte for byte: the CLI is handed
    # the objects computed above, and must ask for exactly those calls
    calls = []

    def reuse(obj):
        def call(*args, **kw):
            calls.append((args, kw))
            return obj
        return call

    monkeypatch.setattr(cli, "build_fixed_point", reuse(fp))
    monkeypatch.setattr(cli, "certificate", reuse(cert))
    monkeypatch.setattr(cli, "mutation_trials", reuse(trials))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["fixed-point", "--size", "256", "--certificate",
                         "--mutations", "50", "--seed", "20260816"])
    assert calls == [((256,), {}),
                     ((fp,), {"seed": 20260816, "walk_samples": 80, "resident_samples": None}),
                     ((fp,), {"count": 50, "seed": 20260816})]
    digest = hashlib.md5(out.getvalue().encode()).hexdigest()
    ok = ok and code == 0 and digest == "ad2c7df2ad3fa148047b839cfb83931c"
    parts = ", ".join(f"{part} {passed}/{checked}"
                      for part, (passed, checked) in cert.parts.items())
    checked(5, 1800, t0, ok,
            f"N=256, {parts}, mutations caught {caught}/{tried}, "
            f"CLI exit {code}, stdout md5 {digest[:8]}")


def test_criterion_06_translate_mismatch_fractions():
    t0 = time.perf_counter()
    worst = 1.0
    for dx in range(-4, 5):
        for dy in range(-4, 5):
            if (dx, dy) != (0, 0):
                worst = min(worst, aperiodicity_fraction(thue_morse_oracle, (dx, dy), 256))
    chess = aperiodicity_fraction(chessboard_oracle, (1, 1), 256)
    ok = worst >= 1 / 3 - 0.02 and chess == 0.0
    checked(6, 10, t0, ok, f"min fraction {worst:.4f} over 80 shifts, chessboard {chess}")


def test_criterion_07_window_robustness():
    t0 = time.perf_counter()
    status = check_window_robust(robustify(chessboard_tileset()), 5, 3)
    checked(7, 60, t0, status == "robust", f"5x5 minus 3x3 annulus: {status}")


def test_criterion_08_schedule_recurrence():
    t0 = time.perf_counter()
    s = make_schedule(2, 1, 3)
    # beta_k = c*k*alpha_k and alpha_{k+1} = 8*(beta_1+..+beta_k) + 1
    ok = (
        s.alphas == (1, 17, 561)
        and s.betas == (2, 68, 3366)
        and schedule_growth_ok(s) == [True, True, True]
        and correction_gap_ok(s, 1)[0] is False
    )
    checked(8, 1, t0, ok, f"alphas {s.alphas}, betas {s.betas}, "
            f"growth {schedule_growth_ok(s)}, gap(c2=1) {correction_gap_ok(s, 1)}")


def brute_force_islands(points, alpha, beta):
    pts = sorted(points)
    found = []
    for r in range(1, len(pts) + 1):
        for sub in itertools.combinations(pts, r):
            rest = [p for p in pts if p not in sub]
            if diameter(sub) > alpha:
                continue
            if any(chebyshev(p, q) <= beta for p in sub for q in rest):
                continue
            found.append(frozenset(sub))
    return sorted(found, key=min)


def test_criterion_09_island_oracle_equivalence():
    t0 = time.perf_counter()
    grid = [(x, y) for x in range(5) for y in range(5)]
    scales = [(1, 1), (1, 2), (2, 3)]
    checked_sets = mismatches = 0
    for r in range(5):
        for sub in itertools.combinations(grid, r):
            for alpha, beta in scales:
                fast, _ = find_islands(sub, alpha, beta)
                checked_sets += 1
                mismatches += fast != brute_force_islands(sub, alpha, beta)
    checked(9, 60, t0, mismatches == 0,
            f"{checked_sets} (set, scale) cases, {mismatches} disagreements")


def test_criterion_10_monte_carlo_cleaning():
    t0 = time.perf_counter()
    schedule = make_schedule(2, 1, 3)
    successes = 0
    rank1_always_helps = True
    for trial in range(100):
        pts = sample_bernoulli(512, 512, 1e-3, (20260816, trial))
        report = clean(pts, schedule, torus=(512, 512))
        successes += report.success
        rank1_always_helps &= report.ranks[0].remaining < len(pts)
    ok = successes >= 95 and rank1_always_helps
    checked(10, 600, t0, ok,
            f"{successes}/100 cleaned, rank-1 density drop in every trial: "
            f"{rank1_always_helps}")


def test_criterion_11_end_to_end_correction():
    t0 = time.perf_counter()
    rob = robustify(chessboard_tileset())
    base = lift(rob, solve(chessboard_tileset(), 44, 44, mode="first").patch)
    holes = [(7, 9), (25, 30), (33, 8)]
    cells = [list(row) for row in base.cells]
    for x, y in holes:
        cells[y][x] = HOLE
    rep = correct_errors(rob, PatchGrid(40, 40, cells))
    ok = rep.status == "clean" and verify_patch(rob.tile_set, rep.patch) == []
    ok = ok and not rep.patch.holes()
    for y in range(40):
        for x in range(40):
            changed_here = rep.patch.get(x, y) != (
                HOLE if (x, y) in holes else base.get(x, y)
            )
            if changed_here:
                ok = ok and any(
                    x0 <= x <= x1 and y0 <= y <= y1 for x0, y0, x1, y1 in rep.boxes
                )
    bound = changed_fraction_bound(make_schedule(13, 1, 4), 2)
    ok = ok and rep.changed_fraction <= bound
    checked(11, 60, t0, ok,
            f"{rep.status}, changed {len(rep.changed)} cells inside {len(rep.boxes)} "
            f"boxes, fraction {rep.changed_fraction:.5f} <= bound {bound:.3f}")
