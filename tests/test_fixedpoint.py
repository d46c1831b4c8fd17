import contextlib
import hashlib
import io
import itertools
import json
import random
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    QUADS,
    SYM_B,
    SYM_M,
    SYM_O,
    SYM_Z,
    build_checker,
    checker_tape,
    pack_record,
    record_from_window,
    unpack_record,
    window_bits,
    walks,
)
from tilebench.core import HOLE, Interner, MalformedPatchError, PatchGrid, TileSet, verify_patch
from tilebench.machine import encode_program, run_encoded


def ended(status):
    """A stand-in for a finished run: the audit reads its status and steps."""
    return types.SimpleNamespace(status=status, steps=0)


def trim(monkeypatch, **counts):
    """Set certificate's sample-count constants for one test."""
    for name, value in counts.items():
        monkeypatch.setattr(fixedpoint, name, value)


def mutation_controls(fp, count, seed):
    """The control quads of mutation_trials(fp, count, seed): the row
    neighbours of its first three mutants."""
    controls = set()
    for bit in random.Random(seed).sample(range(len(fp.program)), count)[:3]:
        x, y = bit % fp.size, fp.size // 4 + bit // fp.size
        x = x + 1 if x < fp.size - 1 else x - 1
        vt = fp.padded[fp.fold(x, y + 1)] if y + 1 in fp.band else 0
        controls.add(fp.edge_records(x, y, 0, 0, vt, fp.padded[fp.fold(x, y)]))
    return controls


def reference_window_bits(n, rec):
    """The border slice built bit by bit from the record's fields."""
    i, j, val = unpack_record(n, rec)
    bits = [0] * 32
    for v in range(n):
        bits[v] = (i >> v) & 1
        bits[n + v] = (j >> v) & 1
    bits[2 * n] = val
    return tuple(bits)


def reference_record_from_window(n, bits):
    i = sum(bits[v] << v for v in range(n))
    j = sum(bits[n + v] << v for v in range(n))
    return pack_record(n, i, j, bits[2 * n])


def reference_tape(n, left, right, top, bottom):
    """The checker tape built as a list, quad by quad and bit by bit: M, the
    val quad (tag B), n i-bit quads (tag Z), n j-bit quads (tag O), padding
    quads (tag B, all Z), M, then blanks out to the anchor M."""
    recs = [unpack_record(n, r) for r in (left, right, top, bottom)]
    tape = [SYM_M]
    tape += [SYM_B] + [SYM_Z + v for (_, _, v) in recs]
    for v in range(n):
        tape += [SYM_Z] + [SYM_Z + ((i >> v) & 1) for (i, _, _) in recs]
    for v in range(n):
        tape += [SYM_O] + [SYM_Z + ((j >> v) & 1) for (_, j, _) in recs]
    for _ in range(QUADS - 2 * n - 1):
        tape += [SYM_B, SYM_Z, SYM_Z, SYM_Z, SYM_Z]
    tape.append(SYM_M)
    tape += [SYM_B] * (ANCHOR - len(tape))
    tape.append(SYM_M)
    return tape


@st.composite
def records(draw):
    n = draw(st.integers(7, 13))
    return n, draw(st.lists(st.integers(0, (1 << (2 * n + 1)) - 1), min_size=4, max_size=4))


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

    @pytest.mark.parametrize("pos,value", [(16, 2), (0, 3), (9, -1)])
    def test_window_rejects_non_bits(self, pos, value):
        # positions 0..7 are i bits, 8..15 j bits and 16 the val cell at n=8;
        # masking the value would read 2 as val 0, and 3 or -1 as a 1 bit
        bits = list(window_bits(8, pack_record(8, 5, 7, 1)))
        bits[pos] = value
        with pytest.raises(ValueError):
            record_from_window(8, tuple(bits))

    def test_encoding_geometry(self):
        tape = checker_tape(8, *(pack_record(8, 5, 9, 0),) * 4)
        assert type(tape) is bytes and len(tape) == ANCHOR + 1
        assert tape[0] == tape[161] == tape[ANCHOR] == SYM_M
        assert tape[162:ANCHOR] == bytes(ANCHOR - 162)  # blanks between the frame and the anchor

    @settings(max_examples=300, deadline=None)
    @given(records())
    def test_tape_and_window_match_the_per_bit_reference(self, drawn):
        n, recs = drawn
        assert checker_tape(n, *recs) == bytes(reference_tape(n, *recs))
        for rec in recs:
            bits = window_bits(n, rec)
            assert bits == reference_window_bits(n, rec)
            assert record_from_window(n, bits) == reference_record_from_window(n, bits) == rec

    @pytest.mark.parametrize("edit", ["bit 2n+1", "minus 2**40", "2**(2n+1)", "-1"])
    def test_a_record_past_its_bits_is_refused(self, fp, edit):
        # the tape used to mask a record silently, so tile 70's quad with its
        # left record edited so came out byte-identical and the checker
        # accepted a quad that is no tile
        n, quad = fp.n, fp.accepted.quad_of(70)
        left = {"bit 2n+1": quad[0] | 1 << (2 * n + 1), "minus 2**40": quad[0] - 2**40,
                "2**(2n+1)": 1 << (2 * n + 1), "-1": -1}[edit]
        forged = (left, *quad[1:])
        assert forged not in fp.accepted
        with pytest.raises(ValueError):
            checker_tape(n, *forged)
        with pytest.raises(ValueError):
            window_bits(n, left)
        with pytest.raises(ValueError):
            run_checker(fp, forged)

    def test_the_widest_record_is_taken(self):
        top = (1 << 17) - 1  # every bit of an n=8 record set
        assert window_bits(8, top) == (1,) * 17 + (0,) * 15
        assert checker_tape(8, top, 0, 0, 0) == bytes(reference_tape(8, top, 0, 0, 0))


def test_tape_matches_the_per_bit_reference_on_every_resident(fp):
    _, residents, nonwalker = fixedpoint._split_walkers(fp)
    assert len(residents) == 25026
    for k in residents:
        quad = fp.accepted.quad_of(nonwalker(k))
        assert checker_tape(fp.n, *quad) == bytes(reference_tape(fp.n, *quad)), quad


class TestBuildFrozen:
    def test_checker_census(self):
        mach, names = build_checker(8)
        assert mach.states == 267
        assert len(mach.transitions) == 612
        assert len(names) == mach.states
        assert len(encode_program(mach, state_bits=9)) == 16525

    @pytest.mark.parametrize("n, states, digest, names_digest", [
        (8, 267, "8ba4d400e4e493e312312903b16b0ae536ed544ea22a4a1bfefd61eb75f48b31",
         "41bdeb99ace6942bd8f971d18168e26757e5568f9536812470526a62240a125c"),
        (9, 277, "0bc94fbcce74ec55bdfb08430854497cee843a7bc523d28ee4c54816a8cfa149",
         "6d207b8d4cb08188a096f009c3c4ef55a1621156b593bc9bad0e7d64e4261c8d"),
    ], ids=["n8", "n9"])
    def test_checker_content(self, n, states, digest, names_digest):
        # The rules in order are the program the tiles carry: a rewritten or
        # reordered rule that keeps the counts must still show.
        mach, names = build_checker(n)
        assert mach.states == states
        text = json.dumps(mach.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert hashlib.sha256("\n".join(names).encode()).hexdigest() == names_digest

    def test_set_census(self, fp):
        assert fp.size == 256 and fp.n == 8
        assert len(fp.tile_set.tiles) == 258 * 258 == 66564
        assert fp.tile_set.color_count == 131584
        assert fp.capacity == 40960
        assert len(fp.program) == 16525
        assert fp.state_bits == 9
        assert fp.track_offset == 256
        assert fp.band == range(64, 224)

    def test_sides_past_the_int32_keys_are_refused(self, monkeypatch):
        # refused before anything is built: at 32768 the padded program
        # alone would take 804 MB, and the keys would overflow int32;
        # 16384 passes the check and goes on to build the checker
        def built(*args):
            raise AssertionError("built")

        monkeypatch.setattr(fixedpoint, "build_checker", built)
        for size in (32768, 65536):
            with pytest.raises(ValueError, match="from 128 to 16384") as err:
                build_fixed_point(size)
            assert type(err.value) is ValueError
        with pytest.raises(AssertionError, match="built"):
            build_fixed_point(16384)

    def test_block_too_small(self):
        with pytest.raises(CompileError):
            build_fixed_point(128)

    def test_side_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two") as err:
            build_fixed_point(200)
        assert type(err.value) is ValueError

    def test_the_program_block_is_bytes(self, fp):
        # the program, zero-filled to the block's capacity, one byte a bit
        assert type(fp.padded) is bytes
        assert len(fp.padded) == fp.capacity == fp.size * len(fp.band)
        assert fp.padded == bytes(fp.program) + bytes(fp.capacity - len(fp.program))

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

    def test_block_probes_differ_from_a_member_in_the_bottom_val_only(self, fp, monkeypatch):
        # each probe keeps the top val its cell pins, so its run walks out to
        # the flipped bottom bit and sticks one step short of the member's
        # accept; with the top val 0, the probe at (73, 79) stuck in the top
        # walk after 171,819 steps, before the flipped bit was read
        n, jobs = fp.n, []
        audit = fixedpoint._audit

        def drawn_only(fp_, parts, js):
            jobs.extend(js)
            return audit(fp_, parts, ())

        monkeypatch.setattr(fixedpoint, "_audit", drawn_only)
        certificate(fp)
        probes = [quad for part, quad, _, _ in jobs if part == "probes"][-6:]
        assert (73, 79) in [unpack_record(n, q[3])[:2] for q in probes]
        for probe in probes:
            i, j, v = unpack_record(n, probe[3])
            member = (*probe[:3], pack_record(n, i, j, 1 - v))
            assert probe not in fp.accepted and member in fp.accepted
            stuck, accepted = run_checker(fp, probe), run_checker(fp, member)
            assert (stuck.status, accepted.status) == ("stuck", "accepted")
            assert stuck.steps == accepted.steps - 1

    def test_mutated_track_bit_is_caught(self, fp):
        report = mutation_trials(fp, count=3, seed=11)
        assert report.ok

    def test_mutation_jobs_are_drawn_one_trial_at_a_time(self, fp, monkeypatch):
        # each trial's mutated track is a 41 KB copy; a list of every job
        # would hold all of them at once
        drawn, seen = 0, []
        first_id = fixedpoint._first_id

        def counted(*args):
            nonlocal drawn
            drawn += 1
            return first_id(*args)

        def spy(fp_, quad, track=None):
            seen.append(drawn)
            return run_checker(fp_, quad, track=track)

        monkeypatch.setattr(fixedpoint, "_first_id", counted)
        monkeypatch.setattr(fixedpoint, "run_checker", spy)
        assert mutation_trials(fp, count=5, seed=11).ok
        # a mutant, and in the first three trials its control, draw once each
        assert seen == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_mutation_controls_read_the_track(self, fp, monkeypatch):
        # each control accepts under its trial's mutated track, but walks
        # out to the track next to the mutated bit, so a track with every
        # block bit flipped sticks it; a control that never reads the track
        # would accept that track too
        jobs = []
        monkeypatch.setattr(fixedpoint, "_audit", lambda fp_, parts, js: jobs.extend(js))
        mutation_trials(fp, count=5)
        controls = [(quad, track) for part, quad, track, _ in jobs if part == "controls"]
        flipped = fp.track_bits[:fp.track_offset] + bytes(1 - b for b in fp.padded)
        for quad, mutated in controls:
            assert run_checker(fp, quad, track=mutated).status == "accepted"
            assert run_checker(fp, quad, track=flipped).status == "stuck"
        assert {quad for quad, _ in controls} == mutation_controls(fp, 5, 20260816)


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

    def test_assembly_rederives_only_the_ring(self, fp, monkeypatch):
        # every cell off the border ring is its cell's first id, a range per
        # row; only the 4 * size - 4 ring cells rank their vals, and one more
        # rank is the membership check; ranking every cell would take 65,537
        quad = fp.edge_records(0, 0, 1, 0, 0, 1)
        calls = 0
        rank = fixedpoint._rank

        def counted(*args):
            nonlocal calls
            calls += 1
            return rank(*args)

        monkeypatch.setattr(fixedpoint, "_rank", counted)
        patch = assemble_self_patch(fp, quad)
        assert calls == 4 * fp.size - 4 + 1
        assert decode_self_patch(fp, patch) == quad

    @pytest.mark.parametrize("cell", [(0, 250), (255, 250), (250, 255), (250, 0)],
                             ids=["left", "right", "top", "bottom"])
    def test_a_hole_on_the_border_is_malformed(self, fp, cell):
        # each cell lies in its side's record slice; a HOLE there used to be
        # read as tile id -1, the last tile, and could decode to the intact quad
        ls, rs, ts, bs = reference_val_choices(fp.size, fp.padded, 77, 30)
        quad = fp.edge_records(77, 30, ls[0], rs[0], ts[0], bs[0])
        patch = assemble_self_patch(fp, quad)
        assert decode_self_patch(fp, patch) == quad
        with pytest.raises(MalformedPatchError, match="HOLE"):
            decode_self_patch(fp, patch.replaced({cell: HOLE}))
        with pytest.raises(MalformedPatchError, match="unknown tile id 66564"):
            decode_self_patch(fp, patch.replaced({cell: len(fp.tile_set)}))

    @pytest.mark.parametrize("width,height", [(257, 257), (257, 256), (256, 257), (255, 255)])
    def test_only_a_size_by_size_patch_decodes(self, fp, width, height):
        # a larger patch used to decode from its bottom-left block
        quad = fp.edge_records(77, 30, 0, 0, 0, 0)
        cells = assemble_self_patch(fp, quad).cells
        grown = [list(row) + [row[0]] for row in cells] + [list(cells[0]) * 2]
        patch = PatchGrid(width, height, [row[:width] for row in grown[:height]])
        with pytest.raises(ValueError, match="a macro-tile is 256 x 256"):
            decode_self_patch(fp, patch)

    def test_first_id_holds_each_cells_first_tile(self, fp, reference_accepted):
        # ids from the reference enumeration, not from fp.accepted, which
        # works its ids out from _first_id
        size = fp.size
        want = [[reference_accepted[fp.edge_records(
                    x, y, *(ch[0] for ch in reference_val_choices(size, fp.padded, x, y)))]
                 for x in range(size)] for y in range(size)]
        got = [[fixedpoint._first_id(size, x, y) for x in range(size)] for y in range(size)]
        assert got == want


class TestKnownGaps:
    """What the audit does not show: these pin the set's known gaps, so a
    change that closes one shows here."""

    def test_first_ids_tile_the_torus(self, fp):
        # the grid of each cell's first tile wraps with no mismatched edge:
        # the N=256 set has a periodic tiling, so it is not aperiodic
        size = fp.size
        wrapped = [[fixedpoint._first_id(size, x % size, y % size) for x in range(size + 1)]
                   for y in range(size + 1)]
        assert verify_patch(fp.tile_set, PatchGrid(size + 1, size + 1, wrapped)) == []

    def test_a_forged_border_record_verifies(self, fp):
        # write another record into the free left vals of the top ring rows:
        # the patch still verifies, and decodes to no tile of the set
        n, size = fp.n, fp.size
        ls, rs, ts, bs = reference_val_choices(size, fp.padded, 77, 30)
        quad = fp.edge_records(77, 30, ls[-1], rs[-1], ts[-1], bs[-1])
        cells = [list(row) for row in assemble_self_patch(fp, quad).cells]
        lo = size - fixedpoint.RECORD_BITS
        forged = window_bits(n, pack_record(n, 5, 9, 1))
        for y in range(lo, size):
            _, *pinned = (ch[0] for ch in reference_val_choices(size, fp.padded, 0, y))
            cells[y][0] = fp.accepted[fp.edge_records(0, y, forged[y - lo], *pinned)]
        patch = PatchGrid(size, size, cells)
        assert verify_patch(fp.tile_set, patch) == []
        decoded = decode_self_patch(fp, patch)
        assert decoded == (pack_record(n, 5, 9, 1), *quad[1:])
        assert decoded not in fp.accepted


@pytest.mark.parametrize("size", [256, 512])
def test_free_vals_lie_exactly_on_the_ring(size):
    # _free on every cell, on ints and on arrays, against the test-side
    # rules; assembly takes every cell off the ring to be its cell's first
    # tile, which holds only if no other cell has a free val
    capacity = size * (3 * size // 4 - 32)
    rng = random.Random(size)
    padded = tuple(rng.getrandbits(1) for _ in range(capacity))
    cells = [(x, y) for y in range(size) for x in range(size)]
    want = [tuple(len(ch) == 2 for ch in reference_val_choices(size, padded, x, y))
            for x, y in cells]
    assert [fixedpoint._free(size, x, y) for x, y in cells] == want
    ys, xs = np.divmod(np.arange(size * size), size)
    assert list(zip(*(f.tolist() for f in fixedpoint._free(size, xs, ys)))) == want
    edges = (0, size - 1)
    assert [c for c, free in zip(cells, want) if any(free)] == [
        (x, y) for x, y in cells if x in edges or y in edges]


@pytest.mark.parametrize("size", [8, 64, 128])
def test_array_enumeration_matches_the_per_cell_rules(size):
    # the array pass, and the ids and membership read off the set it
    # builds, against record quads from the test-side rules, cell by cell,
    # with random program bits on the band (rows 16-31 at 64, none at 8);
    # the test side numbers colors by first use, so the two tile tables
    # agree through a bijection of color ids (color_map);
    # test_enumeration_matches and TestAgainstReference hold them at 256
    n = size.bit_length() - 1
    rng = random.Random(size)
    padded = tuple(rng.getrandbits(1) for _ in range(size * len(fixedpoint._band(size))))
    quads = [(pack_record(n, x, y, vl), pack_record(n, (x + 1) % size, y, vr),
              pack_record(n, x, (y + 1) % size, vt), pack_record(n, x, y, vb))
             for y in range(size) for x in range(size)
             for vl, vr, vt, vb in itertools.product(*reference_val_choices(size, padded, x, y))]
    colors = Interner()
    want = [(colors[left << 1], colors[right << 1], colors[top << 1 | 1], colors[bottom << 1 | 1])
            for left, right, top, bottom in quads]
    ids = fixedpoint._tile_colors(n, size, padded)
    assert len(color_map(want, ids.tolist())) == len(colors)
    tile_set = TileSet(len(colors), ids)
    accepted = fixedpoint._Accepted(n, size, tile_set, padded)
    assert [accepted.quad_of(i) for i in range(len(accepted))] == quads
    ref = {quad: i for i, quad in enumerate(quads)}
    for quad in rng.sample(quads, min(1000, len(quads))):
        for q in perturbed(n, quad):
            assert accepted.get(q) == ref.get(q), q


@pytest.mark.parametrize("size", [128, 256, 512])
def test_first_id_counts_the_enumeration(size):
    # the closed form against the test-side rules: each cell's first id is
    # the number of tiles the cells before it hold
    padded = (0,) * (size * (3 * size // 4 - 32))
    total = 0
    for y in range(size):
        for x in range(size):
            assert fixedpoint._first_id(size, x, y) == total, (x, y)
            total += len(list(itertools.product(*reference_val_choices(size, padded, x, y))))
    assert total == (size + 2) ** 2


def test_a_macro_tile_round_trip_holds_an_int32_grid():
    # a patch is one int32 array that verify_patch reads without a copy; as
    # a tuple of tuples of Python ints the N=512 round trip traced 17.3 MB
    fp = build_fixed_point(512)
    quad = fp.edge_records(0, 0, 1, 0, 0, 1)
    tracemalloc.start()
    try:
        patch = assemble_self_patch(fp, quad)
        violations = verify_patch(fp.tile_set, patch)
        decoded = decode_self_patch(fp, patch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violations == [] and decoded == quad
    assert peak <= 8 * 2**20, f"{peak / 2**20:.1f} MB traced"


class TestCertificate:
    def test_trimmed_audit_passes(self, fp, monkeypatch):
        trim(monkeypatch, REJECT_SAMPLES=25, BLOCK_PROBES=1, UTM_ACCEPTS=1, UTM_REJECTS=1)
        cert = certificate(fp, walk_samples=2, resident_samples=120, seed=5)
        assert cert.ok and cert.verdict == "ok"
        assert cert.parts["resident"][1] == 120
        assert cert.parts["probes"][1] == 26
        assert cert.parts["universal"][1] == 2
        assert cert.parts["patches"][1] == 6

    def test_walker_split_matches_a_scan(self, fp):
        # the populations the audit samples from, in the order a scan of
        # every member gives them, so its samples are that scan's
        walkers, nonwalk, nonwalker = fixedpoint._split_walkers(fp)
        scan = {True: [], False: []}
        for quad in fp.accepted:
            scan[walks(fp, *unpack_record(fp.n, quad[0])[:2])].append(quad)
        assert len(walkers) == len(scan[True]) == 41538
        assert [fp.accepted.quad_of(i) for i in walkers] == scan[True]
        assert [fp.accepted.quad_of(nonwalker(i)) for i in nonwalk] == scan[False]

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

    @pytest.mark.parametrize("audit, argument, bad", [
        (certificate, "walk_samples", -1),
        (mutation_trials, "count", -1),
        (mutation_trials, "count", None),  # one more than the program's bits
    ])
    def test_bad_sample_counts_name_their_argument(self, fp, monkeypatch, audit, argument, bad):
        def never_called(*args, **kwargs):
            raise AssertionError("a checker run before the arguments were checked")

        monkeypatch.setattr(fixedpoint, "run_checker", never_called)
        value = len(fp.program) + 1 if bad is None else bad
        with pytest.raises(ValueError, match=argument):
            audit(fp, **{argument: value})

    def test_universal_rejects_do_not_fall_short(self, fp, monkeypatch):
        # seed 139: of the first seven reject probes drawn for the universal
        # check, six are members and the fourth walks, so the non-member
        # pick at a non-walking cell takes an eighth draw; each universal
        # run decides within the budget derived from its direct run
        direct, universal = [], []

        def last_direct(fp_, quad, track=None):
            direct.append(quad)
            return run_checker(fp_, quad, track=track)

        def real_universal(utm, program, tape, **kwargs):
            quad = direct[-1]
            assert tape == checker_tape(fp.n, *quad)
            r = run_encoded(utm, program, tape, **kwargs)
            universal.append((unpack_record(fp.n, quad[3])[:2], r.status))
            return r

        monkeypatch.setattr(fixedpoint, "run_checker", last_direct)
        monkeypatch.setattr(fixedpoint, "run_encoded", real_universal)
        trim(monkeypatch, REJECT_SAMPLES=0, BLOCK_PROBES=0, UTM_ACCEPTS=1, UTM_REJECTS=1)
        cert = certificate(fp, walk_samples=0, resident_samples=1, seed=139)
        assert cert.parts["universal"] == [2, 2] and cert.ok
        assert [status for _, status in universal] == ["accepted", "stuck"]
        assert not any(walks(fp, x, y) for (x, y), _ in universal)

    def test_a_wall_is_not_a_rejection(self, fp, monkeypatch):
        # only a stuck run rejects: a non-member probe that walks off the
        # tape fails its check, and that refutes the audit
        walled = []

        def walls_on_non_members(fp_, quad, track=None):
            if quad in fp_.accepted:
                return run_checker(fp_, quad, track=track)
            walled.append(quad)
            return ended("hit_wall")

        monkeypatch.setattr(fixedpoint, "run_checker", walls_on_non_members)
        monkeypatch.setattr(fixedpoint, "universal_machine", lambda bits: None)
        trim(monkeypatch, REJECT_SAMPLES=4, BLOCK_PROBES=0, UTM_ACCEPTS=0, UTM_REJECTS=0)
        cert = certificate(fp, walk_samples=0, resident_samples=2, seed=5)
        assert walled
        assert cert.parts["probes"] == [4 - len(walled), 4]
        assert cert.inconclusive == 0 and cert.verdict == "refuted" and not cert.ok
        assert all("probes check failed" in n and "hit_wall" in n for n in cert.notes)

    def test_a_failed_direct_run_is_not_judged_again(self, fp, monkeypatch):
        # a universal job whose direct run failed stays failed: a universal
        # run that accepts must not hide a checker that got it wrong
        monkeypatch.setattr(fixedpoint, "run_checker", lambda *a, **k: ended("stuck"))
        monkeypatch.setattr(fixedpoint, "universal_machine", lambda bits: None)
        monkeypatch.setattr(fixedpoint, "run_encoded", lambda *a, **k: ended("accepted"))
        trim(monkeypatch, REJECT_SAMPLES=0, BLOCK_PROBES=0, UTM_ACCEPTS=1, UTM_REJECTS=0)
        cert = certificate(fp, walk_samples=0, resident_samples=1, seed=5)
        assert cert.parts["universal"] == [0, 1] and cert.verdict == "refuted"
        assert any(n.startswith("universal check failed") for n in cert.notes)

    def test_a_patch_that_decodes_wrong_fails(self, fp, monkeypatch):
        # the macro-tile round trip compares the decoded records with the
        # quad; a patch that verifies but reads back another record fails
        def one_bit_off(fp_, patch):
            left, *rest = decode_self_patch(fp_, patch)
            return (left ^ 1, *rest)

        monkeypatch.setattr(fixedpoint, "decode_self_patch", one_bit_off)
        trim(monkeypatch, REJECT_SAMPLES=0, BLOCK_PROBES=0, UTM_ACCEPTS=0, UTM_REJECTS=0)
        cert = certificate(fp, walk_samples=0, resident_samples=1, seed=5)
        assert cert.parts["patches"] == [0, 6] and cert.verdict == "refuted"
        assert sum("macro-tile round trip failed" in n for n in cert.notes) == 6


def _budget_hit(*args, **kwargs):
    return ended("timeout")


class TestBudgetHits:
    """A run that hits its step budget decides nothing either way."""

    def test_mutation_timeout_is_not_caught(self, fp, monkeypatch):
        # the controls of the default seed and of the CLI run's seed 7
        controls = mutation_controls(fp, 5, 20260816) | mutation_controls(fp, 5, 7)

        def mutants_hit_budget(fp_, quad, track=None):
            if quad in controls:
                return ended("accepted")
            return _budget_hit()

        monkeypatch.setattr(fixedpoint, "run_checker", mutants_hit_budget)
        trials = mutation_trials(fp, count=5)
        assert trials.parts == {"mutations": [0, 5], "controls": [3, 3]}
        assert trials.inconclusive == 5 and not trials.ok
        monkeypatch.setattr(cli, "build_fixed_point", lambda size: fp)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["fixed-point", "--mutations", "5", "--seed", "7"])
        assert code == 3
        body = json.loads(buf.getvalue())["mutations"]
        assert (body["tried"], body["caught"], body["inconclusive"]) == (5, 0, 5)

    @pytest.mark.parametrize("control_status,code,body", [
        # each run is its own check: the catches stand, and the three
        # controls' budget hits leave the audit undecided, not refuted
        ("timeout", 3, {"tried": 5, "caught": 5, "inconclusive": 3, "controls_ok": True}),
        ("stuck", 1, {"tried": 5, "caught": 5, "inconclusive": 0, "controls_ok": False}),
    ])
    def test_control_budget_hit_is_inconclusive(self, fp, monkeypatch, control_status,
                                                code, body):
        hits = {"mutations": 0, "controls": 3 if control_status == "timeout" else 0}
        controls = mutation_controls(fp, 5, 7)

        def control_stub(fp_, quad, track=None):
            if quad in controls:
                return ended(control_status)
            return run_checker(fp_, quad, track=track)

        counted = []
        count = fixedpoint.SelfCertificate.count

        def spy(cert, part, passed):
            counted.append(part)
            count(cert, part, passed)

        monkeypatch.setattr(fixedpoint, "run_checker", control_stub)
        monkeypatch.setattr(fixedpoint.SelfCertificate, "count", spy)
        assert mutation_trials(fp, count=5, seed=7).hits == hits
        assert counted == ["mutations", "controls"] * 3 + ["mutations"] * 2
        monkeypatch.setattr(cli, "build_fixed_point", lambda size: fp)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            got = cli.main(["fixed-point", "--mutations", "5", "--seed", "7"])
        assert got == code
        assert json.loads(buf.getvalue())["mutations"] == body

    def test_universal_budget_hit_is_inconclusive(self, fp, monkeypatch):
        monkeypatch.setattr(fixedpoint, "run_encoded", _budget_hit)
        trim(monkeypatch, REJECT_SAMPLES=0, BLOCK_PROBES=0, UTM_ACCEPTS=1, UTM_REJECTS=1)
        cert = certificate(fp, walk_samples=0, resident_samples=3, seed=5)
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
        trim(monkeypatch, REJECT_SAMPLES=2, BLOCK_PROBES=0, UTM_ACCEPTS=1, UTM_REJECTS=0)
        cert = certificate(fp, walk_samples=1, resident_samples=2, seed=5)
        assert cert.inconclusive == 2 + 1 + 2 + 1
        assert [cert.parts[p][0] for p in ("resident", "walks", "probes", "universal")] == [0] * 4
        assert cert.verdict == "inconclusive" and not cert.ok

    def _cli(self, fp, monkeypatch, sim_status):
        monkeypatch.setattr(cli, "build_fixed_point", lambda size: fp)
        trim(monkeypatch, REJECT_SAMPLES=0, BLOCK_PROBES=0, UTM_ACCEPTS=1, UTM_REJECTS=1)
        monkeypatch.setattr(fixedpoint, "run_encoded",
                            lambda *a, **k: ended(sim_status))
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
    trim(monkeypatch, REJECT_SAMPLES=12, BLOCK_PROBES=1, UTM_ACCEPTS=0, UTM_REJECTS=2)
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
    """Tiles, color records, record quads and the color map, 4-deep loop;
    colors are numbered by first use."""
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


def color_map(ref_tiles, tiles):
    """The map from the reference's color ids to the set's, read off the two
    tile tables side by side; it must be a bijection, so the two tables
    name the same colors and differ only in how they number them."""
    pairs = set(zip(itertools.chain.from_iterable(ref_tiles), itertools.chain.from_iterable(tiles)))
    to = dict(pairs)
    assert len(to) == len(pairs) == len(set(to.values())), "not a bijection"
    return to


@pytest.mark.parametrize("size", [8, 64, 128, 256])
def test_color_ids_are_the_edge_records(size):
    # a color id names an (axis, record) pair and nothing else: two tile
    # sides share an id exactly when they share the pair, the ids used are
    # 0 .. 2N(N+1) - 1 with none skipped, and _record reads each id back
    n = size.bit_length() - 1
    rng = random.Random(size)
    padded = bytes(rng.getrandbits(1) for _ in range(size * len(fixedpoint._band(size))))
    tiles, color_records, _, _ = reference_build(types.SimpleNamespace(n=n, size=size, padded=padded))
    to = color_map(tiles, fixedpoint._tile_colors(n, size, padded).tolist())
    assert sorted(to.values()) == list(range(2 * size * (size + 1)))
    for k, (axis, rec) in enumerate(color_records):
        assert fixedpoint._record(n, padded, fixedpoint._band(size), to[k]) == rec, (axis, rec)
        assert fixedpoint._color(n, axis, rec) == to[k], (axis, rec)


def reference_cells(fp, colors, ids):
    """Each cell's tile, or its four sides where a val comes from the quad.

    Derived once per set from the per-cell val rule: a val is a pinned bit,
    or ``(window, index)``, bit ``index`` of the quad's border slice
    ``window`` (0 left, 1 right, 2 top, 3 bottom).  A cell whose four vals
    are pinned is its tile id; any other cell is a tuple of sides, each a
    color id or ``(window, index, color for val 0, color for val 1)``.
    """
    n, size = fp.n, fp.size
    lo = size - 32

    def val(side, x, y):
        if side == 0:
            if x == 0:
                return (0, y - lo) if y >= lo else 0
            return 0
        if y == 0:
            return (3, x - lo) if x >= lo else 0
        if y in fp.band:
            return fp.padded[fp.fold(x, y)]
        return 0

    def side(axis, x, y, v):
        if isinstance(v, int):
            return colors[axis, pack_record(n, x, y, v)]
        return v + tuple(colors.get((axis, pack_record(n, x, y, b))) for b in (0, 1))

    grid = []
    for y in range(size):
        row = []
        for x in range(size):
            vl = val(0, x, y)
            vr = ((1, y - lo) if y >= lo else 0) if x == size - 1 else val(0, x + 1, y)
            vb = val(1, x, y)
            vt = ((2, x - lo) if x >= lo else 0) if y == size - 1 else val(1, x, y + 1)
            sides = (side(0, x, y, vl), side(0, (x + 1) % size, y, vr),
                     side(1, x, (y + 1) % size, vt), side(1, x, y, vb))
            pinned = all(isinstance(c, int) for c in sides)
            row.append(ids.get(sides) if pinned else sides)
        grid.append(row)
    return grid


def reference_assemble(fp, cells, ids, quad):
    """The quad's patch: window-fed vals read off its slices, tiles found by color."""
    windows = [window_bits(fp.n, r) for r in quad]

    def tile(sides):
        return ids.get(tuple(
            c if isinstance(c, int) else c[2 + windows[c[0]][c[1]]] for c in sides))

    return [[c if isinstance(c, int) else tile(c) for c in row] for row in cells]


@pytest.fixture(scope="module")
def reference(fp):
    return reference_build(fp)


@pytest.fixture(scope="module")
def reference_accepted(reference):
    """The reference's record quads mapped to their tile ids, as a dict."""
    return {quad: tid for tid, quad in enumerate(reference[2])}


@pytest.fixture(scope="module")
def tile_ids(fp, reference):
    """The set's tile ids by (left, right, top, bottom), read off its columns
    and renumbered to the reference's color ids through ``color_map``."""
    ts = fp.tile_set
    tiles = list(zip(ts.left, ts.right, ts.top, ts.bottom))
    back = {c: k for k, c in color_map(reference[0], tiles).items()}
    return {tuple(back[c] for c in q): i for i, q in enumerate(tiles)}


@pytest.fixture(scope="module")
def reference_grid(fp, reference, tile_ids):
    return reference_cells(fp, reference[3], tile_ids)


def perturbed(n, quad):
    """Quads one edit away from ``quad``: a val flipped, a coordinate off by
    one (with the carry or borrow of plain record arithmetic), a bit set
    above the val, a non-int, or the wrong length."""
    for side, rec in enumerate(quad):
        for new in (rec ^ (1 << 2 * n), rec + 1, rec - 1, rec + (1 << n), rec - (1 << n),
                    rec | (1 << (2 * n + 1)), rec | (1 << 40), rec + 0.5, str(rec), None):
            yield quad[:side] + (new,) + quad[side + 1:]
    yield from (quad[:3], quad + (0,), ())


class TestAgainstReference:
    def test_enumeration_matches(self, fp, reference):
        tiles, color_records, quads, _ = reference
        to = color_map(tiles, [t.sides() for t in fp.tile_set.tiles])
        assert len(to) == len(color_records) == fp.tile_set.color_count
        # each color reads back as the reference's record
        assert [fixedpoint._record(fp.n, fp.padded, fp.band, to[k]) for k in range(len(to))] == [
            rec for _, rec in color_records]
        assert list(fp.accepted) == quads
        assert list(fp.accepted.values()) == list(range(len(quads)))

    @pytest.mark.parametrize("x,y", [
        (0, 0), (255, 0), (0, 255), (255, 255),  # corners
        (0, 150), (255, 40), (90, 255), (5, 0),  # edges; row 0 is the seam row
        (0, 224), (100, 224),  # row N - 32, where the border record slices start
        (128, 100), (37, 150),  # band rows
        (77, 30), (128, 128),  # interior
    ])
    def test_patch_matches(self, fp, reference_grid, tile_ids, x, y):
        # every combination of the cell's free vals
        for vals in itertools.product(*reference_val_choices(fp.size, fp.padded, x, y)):
            quad = fp.edge_records(x, y, *vals)
            patch = assemble_self_patch(fp, quad)
            assert [list(row) for row in patch.cells] == reference_assemble(
                fp, reference_grid, tile_ids, quad), vals

    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_drawn_patches_match(self, fp, reference_grid, tile_ids, data):
        quad = data.draw(st.sampled_from(list(fp.accepted)))
        patch = assemble_self_patch(fp, quad)
        assert [list(row) for row in patch.cells] == reference_assemble(
            fp, reference_grid, tile_ids, quad)

    def test_quad_of_inverts_the_ids(self, fp, reference_accepted):
        accepted = fp.accepted
        quads = [accepted.quad_of(i) for i in range(len(accepted))]
        assert quads == list(reference_accepted)  # the reference's id order
        assert all(accepted[q] == i for i, q in enumerate(quads))
        for bad in (-1, len(accepted)):
            with pytest.raises(IndexError):
                accepted.quad_of(bad)

    def test_accepted_matches_the_reference_dict(self, fp, reference_accepted):
        ref, accepted = reference_accepted, fp.accepted
        assert len(accepted) == len(ref) == 66564
        assert list(accepted.items()) == list(ref.items())  # order and ids
        # every tile of the ring cells, where the free vals are, and a sample
        edges = (0, fp.size - 1)
        ring = [q for q in ref if not {*unpack_record(fp.n, q[3])[:2]}.isdisjoint(edges)]
        assert len(ring) == 8 * fp.size
        members = 0
        for quad in ring + random.Random(21).sample(list(ref), 1000):
            for q in perturbed(fp.n, quad):
                assert (q in accepted) == (q in ref), q
                assert accepted.get(q) == ref.get(q), q
                if q in ref:
                    members += 1
                else:
                    with pytest.raises(KeyError):
                        accepted[q]
        # flipping a free val gives a sibling, so some edits stay members
        assert members > 0
