import contextlib
import functools
import io
import json

import pytest

from tilebench import cli
from tilebench.compiler import fixedpoint
from tilebench.compiler import (
    CompileError,
    assemble_self_patch,
    build_fixed_point,
    certificate,
    decode_self_patch,
    mutation_trials,
    run_checker,
)
from tilebench.compiler.fixedpoint import (
    ANCHOR,
    build_checker,
    checker_tape,
    encode_quad,
    pack_record,
    record_from_window,
    unpack_record,
    window_bits,
    walks,
)
from tilebench.core import verify_patch
from tilebench.machine import RunResult, encode_program, run_machine


@pytest.fixture(scope="module")
def fp():
    return build_fixed_point(256)


class TestRecords:
    def test_pack_unpack_roundtrip(self):
        for i, j, v in [(0, 0, 0), (255, 255, 1), (17, 200, 0), (1, 2, 1)]:
            assert unpack_record(8, pack_record(8, i, j, v)) == (i, j, v)

    def test_window_roundtrip(self):
        rec = pack_record(8, 93, 170, 1)
        bits = window_bits(8, rec)
        assert len(bits) == 32
        assert bits[17:] == (0,) * 15  # i and j take 16 bits, val one more
        assert record_from_window(8, bits) == rec

    def test_window_rejects_dirty_padding(self):
        bits = list(window_bits(8, pack_record(8, 1, 1, 0)))
        bits[20] = 1
        with pytest.raises(ValueError):
            record_from_window(8, tuple(bits))

    def test_encoding_geometry(self):
        tape = encode_quad(8, *(pack_record(8, 5, 9, 0),) * 4)
        assert len(tape) == 162
        full = checker_tape(8, *(pack_record(8, 5, 9, 0),) * 4)
        assert len(full) == ANCHOR + 1
        assert full[0] == full[161] == full[ANCHOR] == 3


class TestBuildFrozen:
    def test_checker_census(self):
        mach, names = build_checker(8)
        assert mach.states == 267
        assert len(mach.transitions) == 612
        assert len(names) == mach.states
        assert len(encode_program(mach, state_bits=9)) == 16525

    def test_set_census(self, fp):
        assert fp.size == 256 and fp.n == 8
        assert len(fp.tile_set.tiles) == 258 * 258 == 66564
        assert fp.tile_set.color_count == 131584
        assert fp.capacity == 40960
        assert len(fp.program) == 16525
        assert fp.state_bits == 9
        assert fp.track_offset == 256
        assert fp.band == range(64, 224)

    def test_block_too_small(self):
        with pytest.raises(CompileError):
            build_fixed_point(128)

    def test_side_must_be_power_of_two(self):
        with pytest.raises(CompileError):
            build_fixed_point(200)

    def test_program_bits_ride_the_block_rows(self, fp):
        # the first program bits appear verbatim as pinned bottom vals
        row = fp.size // 4
        for x in range(12):
            quad = fp.edge_records(x, row, 0, 0, fp.padded[fp.fold(x, row + 1)],
                                   fp.program[x])
            assert quad in fp.accepted


class TestChecker:
    def test_accepts_resident_tiles(self, fp):
        for x, y, vals in [
            (150, 10, (0, 0, 0, 0)),
            (0, 0, (1, 0, 0, 1)),
            (0, 30, (1, 0, 0, 0)),
            (255, 30, (0, 1, 0, 0)),
            (9, 255, (0, 0, 1, 0)),
        ]:
            quad = fp.edge_records(x, y, *vals)
            assert run_checker(fp, quad).status == "accepted"

    def test_accepts_block_tiles(self, fp):
        for x, y in [(0, 64), (5, 64), (128, 100), (255, 223), (7, 63)]:
            vb = fp.padded[fp.fold(x, y)] if y in fp.band else 0
            vt = fp.padded[fp.fold(x, y + 1)] if y + 1 in fp.band else 0
            quad = fp.edge_records(x, y, 0, 0, vt, vb)
            assert walks(fp, x, y)
            assert run_checker(fp, quad).status == "accepted"

    def test_rejects_each_discipline_break(self, fp):
        base = fp.edge_records(40, 10, 0, 0, 0, 0)
        n = fp.n
        bad = [
            (base[0], pack_record(n, 42, 10, 0), base[2], base[3]),
            (base[0], base[1], pack_record(n, 41, 11, 0), base[3]),
            (pack_record(n, 40, 11, 0), base[1], base[2], base[3]),
            (pack_record(n, 40, 10, 1), base[1], base[2], base[3]),
            (base[0], pack_record(n, 41, 10, 1), base[2], base[3]),
            (base[0], base[1], pack_record(n, 40, 11, 1), base[3]),
            (base[0], base[1], base[2], pack_record(n, 40, 10, 1)),
        ]
        for quad in bad:
            assert quad not in fp.accepted
            assert run_checker(fp, quad).status == "stuck"

    def test_rejects_wrong_block_bit(self, fp):
        x, y = 5, 64
        vt = fp.padded[fp.fold(x, y + 1)]
        quad = fp.edge_records(x, y, 0, 0, vt, 1 - fp.padded[fp.fold(x, y)])
        res = run_checker(fp, quad)
        assert res.status == "stuck"
        # stuck exactly on the counter sentinel over the disputed track bit
        assert res.head == fp.track_offset + fp.fold(x, y)

    def test_mutated_track_bit_is_caught(self, fp):
        report = mutation_trials(fp, count=3, seed=11)
        assert report.all_caught


class TestMacroTiles:
    def test_roundtrip_block_tile(self, fp):
        x, y = 128, 100
        quad = fp.edge_records(x, y, 0, 0, fp.padded[fp.fold(x, y + 1)],
                               fp.padded[fp.fold(x, y)])
        patch = assemble_self_patch(fp, quad)
        assert patch.width == patch.height == 256
        assert verify_patch(fp.tile_set, patch) == []
        assert decode_self_patch(fp, patch) == quad

    def test_dispatch_through_compiler_entry(self, fp):
        quad = fp.edge_records(0, 0, 1, 0, 0, 1)
        sides = [window_bits(fp.n, r) for r in quad]
        patch = assemble_self_patch(fp, tuple(record_from_window(fp.n, s) for s in sides))
        assert decode_self_patch(fp, patch) == quad

    def test_rejects_foreign_records(self, fp):
        quad = list(fp.edge_records(3, 3, 0, 0, 0, 0))
        quad[3] = pack_record(fp.n, 3, 3, 1)
        with pytest.raises(ValueError):
            assemble_self_patch(fp, tuple(quad))


class TestCertificate:
    def test_trimmed_audit_passes(self, fp):
        cert = certificate(fp, walk_samples=2, reject_samples=25,
                           block_probes=1, utm_accepts=1, utm_rejects=1,
                           resident_samples=120, seed=5)
        assert cert.ok and cert.verdict == "ok"
        assert cert.parts["resident"][1] == 120
        assert cert.parts["probes"][1] == 26
        assert cert.parts["universal"][1] == 2
        assert cert.parts["patches"][1] == 6

    def test_resident_samples_below_one_is_refused(self, fp, monkeypatch):
        def never_called(*args, **kwargs):
            raise AssertionError("a checker run before the arguments were checked")

        monkeypatch.setattr(fixedpoint, "run_checker", never_called)
        for bad in (0, -1):
            with pytest.raises(ValueError):
                certificate(fp, resident_samples=bad)
        monkeypatch.setattr(cli, "build_fixed_point", lambda size: fp)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["fixed-point", "--certificate", "--seed", "7",
                             "--walk-samples", "0", "--resident-samples", "0"])
        assert code == 2 and buf.getvalue() == ""

    def test_universal_rejects_do_not_fall_short(self, fp, monkeypatch):
        # seed 139: the first three reject probes drawn for the universal
        # check are all members, so the non-member pick takes a fourth draw
        def checker_as_universal(utm, program, tape, **kwargs):
            return run_machine(fp.machine, tape, track=fp.track(),
                               max_steps=fixedpoint.CHECKER_STEPS, grow=True)

        monkeypatch.setattr(fixedpoint, "universal_machine", lambda bits: None)
        monkeypatch.setattr(fixedpoint, "run_encoded", checker_as_universal)
        cert = certificate(fp, walk_samples=0, reject_samples=0, block_probes=0,
                           utm_accepts=1, utm_rejects=1, resident_samples=1, seed=139)
        assert cert.parts["universal"] == [2, 2] and cert.ok

    def test_a_wall_is_not_a_rejection(self, fp, monkeypatch):
        # only a stuck run rejects: a non-member probe that walks off the
        # tape fails its check, and that refutes the audit
        walled = []

        def walls_on_non_members(fp_, quad, track=None):
            if quad in fp_.accepted:
                return run_checker(fp_, quad, track=track)
            walled.append(quad)
            return RunResult("hit_wall", 0, 0, 0, ())

        monkeypatch.setattr(fixedpoint, "run_checker", walls_on_non_members)
        monkeypatch.setattr(fixedpoint, "universal_machine", lambda bits: None)
        cert = certificate(fp, walk_samples=0, reject_samples=4, block_probes=0,
                           utm_accepts=0, utm_rejects=0, resident_samples=2, seed=5)
        assert walled
        assert cert.parts["probes"] == [4 - len(walled), 4]
        assert cert.inconclusive == 0 and cert.verdict == "refuted" and not cert.ok
        assert all("probes check failed" in n and "hit_wall" in n for n in cert.notes)


def _budget_hit(*args, **kwargs):
    return RunResult("timeout", 0, 0, 0, ())


class TestBudgetHits:
    """A run that hits its step budget decides nothing either way."""

    def test_mutation_timeout_is_not_caught(self, fp, monkeypatch):
        control = fp.edge_records(3, 7, 0, 0, 0, 0)

        def mutants_hit_budget(fp_, quad, track=None):
            if quad == control:
                return RunResult("accepted", 0, 0, 0, ())
            return _budget_hit()

        monkeypatch.setattr(fixedpoint, "run_checker", mutants_hit_budget)
        trials = mutation_trials(fp, count=5)
        assert trials.caught == 0 and trials.inconclusive == 5
        assert trials.controls_ok and not trials.all_caught
        monkeypatch.setattr(cli, "build_fixed_point", lambda size: fp)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["fixed-point", "--mutations", "5", "--seed", "7"])
        assert code == 3
        body = json.loads(buf.getvalue())["mutations"]
        assert (body["tried"], body["caught"], body["inconclusive"]) == (5, 0, 5)

    @pytest.mark.parametrize("control_status,code,body", [
        # the three controlled catches are left undecided, not refuted
        ("timeout", 3, {"tried": 5, "caught": 2, "inconclusive": 3, "controls_ok": True}),
        ("stuck", 1, {"tried": 5, "caught": 5, "inconclusive": 0, "controls_ok": False}),
    ])
    def test_control_budget_hit_is_inconclusive(self, fp, monkeypatch, control_status,
                                                code, body):
        control = fp.edge_records(3, 7, 0, 0, 0, 0)

        def control_stub(fp_, quad, track=None):
            if quad == control:
                return RunResult(control_status, 0, 0, 0, ())
            return run_checker(fp_, quad, track=track)

        monkeypatch.setattr(fixedpoint, "run_checker", control_stub)
        monkeypatch.setattr(cli, "build_fixed_point", lambda size: fp)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            got = cli.main(["fixed-point", "--mutations", "5", "--seed", "7"])
        assert got == code
        assert json.loads(buf.getvalue())["mutations"] == body

    def test_universal_budget_hit_is_inconclusive(self, fp, monkeypatch):
        monkeypatch.setattr(fixedpoint, "run_encoded", _budget_hit)
        cert = certificate(fp, walk_samples=0, reject_samples=0, block_probes=0,
                           utm_accepts=1, utm_rejects=1, resident_samples=3, seed=5)
        assert cert.parts["universal"] == [0, 2] and cert.inconclusive == 2
        assert cert.parts["resident"] == [3, 3]
        assert cert.verdict == "inconclusive" and not cert.ok
        assert not any("disagrees" in n for n in cert.notes)
        assert sum("inconclusive" in n for n in cert.notes) == 2

    def test_direct_budget_hit_is_inconclusive(self, fp, monkeypatch):
        def never_called(*args, **kwargs):
            raise AssertionError("universal run after a direct budget hit")

        monkeypatch.setattr(fixedpoint, "run_checker", _budget_hit)
        monkeypatch.setattr(fixedpoint, "run_encoded", never_called)
        cert = certificate(fp, walk_samples=1, reject_samples=2, block_probes=0,
                           utm_accepts=1, utm_rejects=0, resident_samples=2, seed=5)
        assert cert.inconclusive == 2 + 1 + 2 + 1
        assert [cert.parts[p][0] for p in ("resident", "walks", "probes", "universal")] == [0] * 4
        assert cert.verdict == "inconclusive" and not cert.ok

    def _cli(self, fp, monkeypatch, sim_status):
        monkeypatch.setattr(cli, "build_fixed_point", lambda size: fp)
        monkeypatch.setattr(cli, "certificate", functools.partial(
            certificate, reject_samples=0, block_probes=0, utm_accepts=1, utm_rejects=1))
        monkeypatch.setattr(fixedpoint, "run_encoded",
                            lambda *a, **k: RunResult(sim_status, 0, 0, 0, ()))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["fixed-point", "--certificate", "--seed", "7",
                             "--walk-samples", "0", "--resident-samples", "2"])
        return code, json.loads(buf.getvalue())["certificate"]

    def test_cli_exits_3_on_budget_hits_only(self, fp, monkeypatch):
        code, body = self._cli(fp, monkeypatch, "timeout")
        assert code == 3
        assert body["inconclusive"] == 2 and body["universal"] == [0, 2]
        assert not body["ok"]

    def test_cli_exits_1_on_a_refutation(self, fp, monkeypatch):
        # a stuck universal run refutes the accepted pick, agrees on the reject
        code, body = self._cli(fp, monkeypatch, "stuck")
        assert code == 1
        assert body["inconclusive"] == 0 and body["universal"] == [1, 2]


# The whole report of a trimmed audit, frozen: every part runs at least once,
# so a change to how runs are judged or tallied shows here.
AUDIT_PIN = {
    "capacity": 40960,
    "certificate": {"inconclusive": 0, "notes": [], "ok": True, "patches": [6, 6],
                    "probes": [13, 13], "resident": [40, 40], "universal": [2, 2],
                    "walks": [1, 1]},
    "colors": 131584,
    "mutations": {"caught": 3, "controls_ok": True, "inconclusive": 0, "tried": 3},
    "program_bits": 16525,
    "size": 256,
    "state_count": 267,
    "tiles": 66564,
}


def test_trimmed_cli_audit_is_pinned(fp, monkeypatch):
    monkeypatch.setattr(cli, "build_fixed_point", lambda size: fp)
    monkeypatch.setattr(cli, "certificate", functools.partial(
        certificate, reject_samples=12, block_probes=1, utm_accepts=0, utm_rejects=2))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["fixed-point", "--certificate", "--mutations", "3", "--seed", "7",
                         "--walk-samples", "1", "--resident-samples", "40"])
    assert code == 0
    assert buf.getvalue() == json.dumps(AUDIT_PIN, indent=2, sort_keys=True) + "\n"


# --- references: the enumeration and assembly before they shared one rule ---

def reference_val_choices(size, padded, x, y):
    band = range(size // 4, size - 32)

    def vert(row):
        if row == 0:
            return (0, 1)
        if row in band:
            return (padded[x + size * (row - size // 4)],)
        return (0,)

    return ((0, 1) if x == 0 else (0,), (0, 1) if x == size - 1 else (0,),
            vert((y + 1) % size), vert(y))


def reference_build(fp):
    """Tiles, color records, record quads and the color map, 4-deep loop."""
    n, size = fp.n, fp.size
    colors, color_records, tiles, quads = {}, [], [], []

    def cid(axis, rec):
        if (axis, rec) not in colors:
            colors[axis, rec] = len(color_records)
            color_records.append((axis, rec))
        return colors[axis, rec]

    for y in range(size):
        for x in range(size):
            ls, rs, ts, bs = reference_val_choices(size, fp.padded, x, y)
            for vl in ls:
                for vr in rs:
                    for vt in ts:
                        for vb in bs:
                            recl = pack_record(n, x, y, vl)
                            recr = pack_record(n, (x + 1) % size, y, vr)
                            rect = pack_record(n, x, (y + 1) % size, vt)
                            recb = pack_record(n, x, y, vb)
                            quads.append((recl, recr, rect, recb))
                            tiles.append((cid(0, recl), cid(0, recr),
                                          cid(1, rect), cid(1, recb)))
    return tiles, color_records, quads, colors


def reference_assemble(fp, colors, quad):
    """Per-cell val rules re-derived at assembly time, tiles found by color."""
    n, size = fp.n, fp.size
    wl, wr, wt, wb = (window_bits(n, r) for r in quad)
    lo = size - 32

    def val(side, x, y):
        if side == 0:
            if x == 0:
                return wl[y - lo] if y >= lo else 0
            return 0
        if y == 0:
            return wb[x - lo] if x >= lo else 0
        if y in fp.band:
            return fp.padded[fp.fold(x, y)]
        return 0

    grid = []
    for y in range(size):
        row = []
        for x in range(size):
            vl = val(0, x, y)
            vr = (wr[y - lo] if y >= lo else 0) if x == size - 1 else val(0, x + 1, y)
            vb = val(1, x, y)
            vt = (wt[x - lo] if x >= lo else 0) if y == size - 1 else val(1, x, y + 1)
            row.append(fp.tile_set.tile_id((
                colors[0, pack_record(n, x, y, vl)],
                colors[0, pack_record(n, (x + 1) % size, y, vr)],
                colors[1, pack_record(n, x, (y + 1) % size, vt)],
                colors[1, pack_record(n, x, y, vb)],
            )))
        grid.append(row)
    return grid


@pytest.fixture(scope="module")
def reference(fp):
    return reference_build(fp)


class TestAgainstReference:
    def test_enumeration_matches(self, fp, reference):
        tiles, color_records, quads, _ = reference
        assert [t.sides() for t in fp.tile_set.tiles] == tiles
        assert list(fp.color_records) == color_records
        assert list(fp.accepted) == quads
        assert list(fp.accepted.values()) == list(range(len(quads)))

    @pytest.mark.parametrize("x,y", [(0, 0), (255, 255), (0, 224), (77, 30),
                                     (128, 128), (5, 0), (128, 100)])
    def test_patch_matches(self, fp, reference, x, y):
        # the last val choice on each side: free vals set to 1
        choices = reference_val_choices(fp.size, fp.padded, x, y)
        quad = fp.edge_records(x, y, *(ch[-1] for ch in choices))
        patch = assemble_self_patch(fp, quad)
        assert [list(row) for row in patch.cells] == reference_assemble(fp, reference[3], quad)
