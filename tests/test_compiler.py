import functools
import hashlib

import pytest

from tilebench.compiler import (
    CompileError,
    LayoutError,
    assemble_macro_tile,
    chessboard_predicate_machine,
    compile_simulation,
    macro_payloads,
    payload_accepted,
    plan_layout,
)
from tilebench.core import PatchGrid, verify_patch
from tilebench.machine import SYM_ONE, SYM_ZERO, Machine, Transition, machine_corpus, run_machine
from tilebench.solver import find_cut_offsets, solve


def first_bit_zero_machine():
    # k=2 exercise: accepts iff input cell 0 reads a 0 bit
    return Machine(2, 4, 0, 1, 0, False, (Transition(0, SYM_ZERO, None, 1, SYM_ZERO, "S"),))


def track_machine():
    # program-track exercise: sweeps right, sticks on a 0 bit over a track 1
    # and accepts on the blank past the input
    return Machine(2, 4, 0, 1, 0, True, (
        Transition(0, SYM_ZERO, 0, 0, SYM_ZERO, "R"),
        Transition(0, SYM_ONE, None, 0, SYM_ONE, "R"),
        Transition(0, 0, None, 1, 0, "S"),
    ))


class TestLayout:
    def test_plan_picks_smallest_power_of_two(self):
        lay = plan_layout(1, 4, 5)
        assert (lay.n, lay.sx0, lay.zy0) == (8, 2, 2)

    def test_explicit_zoom_too_small(self):
        with pytest.raises(LayoutError):
            plan_layout(1, 4, 5, zoom=4)

    def test_zoom_must_be_power_of_two(self):
        with pytest.raises(LayoutError):
            plan_layout(1, 4, 5, zoom=12)

    def test_wire_runs_frozen_geometry(self):
        runs = plan_layout(1, 4, 5).wire_runs()
        assert runs[("L", 0)] == (
            ((0, 1), ("left", "right")),
            ((1, 1), ("left", "right")),
            ((2, 1), ("left", "top")),
        )
        assert runs[("R", 0)] == (
            ((7, 1), ("left", "right")),
            ((6, 1), ("left", "right")),
            ((5, 1), ("left", "right")),
            ((4, 1), ("left", "right")),
            ((3, 1), ("right", "top")),
        )
        assert runs[("T", 0)] == (((4, 7), ("bottom", "top")),)
        assert runs[("B", 0)] == (
            ((4, 0), ("bottom", "right")),
            ((5, 0), ("left", "top")),
            ((5, 1), ("bottom", "top")),
        )

    def test_wire_runs_avoid_zone_and_share_no_edges(self):
        # the constructor itself raises if a run clips the zone or two runs
        # claim one edge; sweep a range of shapes to exercise that audit
        for k, zw, zh in [(1, 4, 5), (2, 8, 2), (2, 8, 9), (3, 12, 4), (4, 16, 30)]:
            lay = plan_layout(k, zw, zh)
            for wid, path in lay.wire_runs().items():
                for (i, j), _ in path:
                    assert not lay.in_zone(i, j), (wid, i, j)

    def test_in_zone(self):
        lay = plan_layout(1, 4, 5)
        assert lay.in_zone(2, 2) and lay.in_zone(5, 6)
        assert not lay.in_zone(1, 2) and not lay.in_zone(2, 1)
        assert not lay.in_zone(6, 2) and not lay.in_zone(2, 7)


@pytest.fixture(scope="module")
def chess():
    return compile_simulation(chessboard_predicate_machine(), 1)


class TestChessboardPredicate:
    def test_machine_accepts_exactly_chessboard_payloads(self):
        m = chessboard_predicate_machine()
        for bits in [(l, r, t, b) for l in (0, 1) for r in (0, 1) for t in (0, 1) for b in (0, 1)]:
            tape = [SYM_ZERO + x for x in bits]
            res = run_machine(m, tape, max_steps=100)
            want = bits in {(0, 1, 1, 0), (1, 0, 0, 1)}
            assert (res.status == "accepted") == want, bits

    def test_compiled_shape(self, chess):
        lay = chess.layout
        assert lay.n == 8
        assert (lay.zone_w, lay.zone_h) == (4, 5)
        assert (lay.sx0, lay.zy0) == (2, 2)
        assert chess.steps_needed == 4
        assert len(chess.tile_set.tiles) == 1161
        assert chess.tile_set.color_count == 908
        assert chess.accepted == {(0, 1, 1, 0), (1, 0, 0, 1)}

    def test_assemble_accepted_payloads(self, chess):
        for l, r, t, b in sorted(chess.accepted):
            patch = assemble_macro_tile(chess, (l,), (r,), (t,), (b,))
            assert patch.width == patch.height == 8
            assert verify_patch(chess.tile_set, patch) == []
            assert macro_payloads(chess, patch, 0, 0) == {
                "left": (l,),
                "right": (r,),
                "top": (t,),
                "bottom": (b,),
            }

    def test_assemble_rejected_payload_raises(self, chess):
        with pytest.raises(ValueError):
            assemble_macro_tile(chess, (0,), (0,), (0,), (0,))

    def test_payload_accepted(self, chess):
        assert payload_accepted(chess, (0,), (1,), (1,), (0,))
        assert payload_accepted(chess, (1,), (0,), (0,), (1,))
        assert not payload_accepted(chess, (1,), (1,), (0,), (1,))

    def test_solver_window_cuts_uniquely(self, chess):
        res = solve(chess.tile_set, 16, 16, mode="first")
        assert res.status == "solved"
        patch = res.patch
        assert verify_patch(chess.tile_set, patch) == []
        assert find_cut_offsets(patch, 8) == [(0, 0)]
        pays = {}
        for ox in (0, 8):
            for oy in (0, 8):
                p = macro_payloads(chess, patch, ox, oy)
                assert payload_accepted(chess, **p)
                pays[(ox, oy)] = p["left"][0]
        # the macro-tiles themselves form a chessboard
        assert pays[(0, 0)] == pays[(8, 8)] != pays[(8, 0)] == pays[(0, 8)]

    def test_macro_payloads_bounds(self, chess):
        patch = assemble_macro_tile(chess, (0,), (1,), (1,), (0,))
        with pytest.raises(ValueError):
            macro_payloads(chess, patch, 1, 0)

    def test_macro_payloads_off_the_cut_raises(self, chess):
        a = assemble_macro_tile(chess, (0,), (1,), (1,), (0,))
        b = assemble_macro_tile(chess, (1,), (0,), (0,), (1,))
        pair = PatchGrid(16, 8, [ra + rb for ra, rb in zip(a.cells, b.cells)])
        assert verify_patch(chess.tile_set, pair) == []
        assert macro_payloads(chess, pair, 8, 0)["left"] == (1,)
        for ox in (1, 4, 7):
            with pytest.raises(ValueError, match="payload edge"):
                macro_payloads(chess, pair, ox, 0)


class TestTwoBitPayloads:
    def test_compile_and_assemble(self):
        c = compile_simulation(first_bit_zero_machine(), 2)
        lay = c.layout
        assert lay.n == 8
        assert (lay.zone_w, lay.zone_h) == (8, 2)
        assert (lay.sx0, lay.zy0) == (0, 4)
        assert len(c.tile_set.tiles) == 265
        assert len(c.accepted) == 128
        assert all(bits[0] == 0 for bits in c.accepted)
        patch = assemble_macro_tile(c, (0, 1), (1, 0), (0, 0), (1, 1))
        assert verify_patch(c.tile_set, patch) == []
        assert macro_payloads(c, patch, 0, 0) == {
            "left": (0, 1),
            "right": (1, 0),
            "top": (0, 0),
            "bottom": (1, 1),
        }


class TestCompileErrors:
    def test_k_must_be_positive(self):
        with pytest.raises(CompileError):
            compile_simulation(chessboard_predicate_machine(), 0)

    def test_checker_accepting_nothing(self):
        m = Machine(2, 4, 0, 1, 0, False, ())
        with pytest.raises(CompileError, match="no payload"):
            compile_simulation(m, 1)

    def test_looping_checker(self):
        m = Machine(2, 4, 0, 1, 0, False, (
            Transition(0, SYM_ZERO, None, 0, SYM_ZERO, "S"),
            Transition(0, SYM_ONE, None, 1, SYM_ONE, "S"),
        ))
        with pytest.raises(CompileError, match="still running"):
            compile_simulation(m, 1, probe_steps=500)

    def test_track_needs_track_machine(self):
        with pytest.raises(CompileError, match="track"):
            compile_simulation(chessboard_predicate_machine(), 1, track=[0, 1])


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Full sha256 of tile_set.dumps() and of the concatenated dumps of the
# patches of every accepted payload (sorted), frozen from the enumerator
# that re-derived each cell's colors at assembly time.
CORPUS = [
    ("chessboard", 1,
     "e09c06eb80b26607647cf86908a0498cac83d6b78438ee5fb702a6507524d7c4",
     "86a215768c451f36a6009572e8912367b6cecb539cfecf9e284f22d4ecfd3b08"),
    ("parity", 1,
     "60b75693d048f63b468504694ddccd4040c29b99847b6ff621b987daec1a5e1c",
     "3c8992af8112b6056a4e76fa785706c1fa7c2eafbd87b1301abd49e4843994e4"),
    ("parity", 2,
     "34fc7b3a5b193a820374671f5d00175751094f353503d416c3ddc3212457c5e9",
     "c0402130a08be467f52a2b5d7310d1056c5c54ddbbc6f4ff3b92a8a6b4319aee"),
    ("always", 1,
     "5c3968f6d6400afabde1aac5a4d99ef885c27dcec935d749b481f4c308b55d43",
     "3da7cc11ee371d5f7c441b32bf50a1b0f8e81cb2e9082c668e4777b89aa2d7ac"),
    # the first corpus machine whose head moves left: left-moving signals
    ("palindrome", 1,
     "4159085bc4b81da98f2810404b7c6756ff8040eadceef9e8ae45cf98debf2646",
     "1ed907664b1c67aacfb17f693bf9bef17598f35a0732f43b26e94f37edfde247"),
]


# Layouts no corpus machine reaches, frozen from the coder that tagged each
# edge color with its kind: a zone at sx0 = 0 (its right edge wraps onto
# column 0), a program-track machine compiled with a track, an explicit zoom.
LAYOUTS = [
    ("first-bit-zero-k2", first_bit_zero_machine, 2, {},
     "2fd8f267070c2d3382402d3ef527c58c92134e19ca4e3b227b8b930055ced70d",
     "36ac60cb7b66675d1bf6d4f5cdebe55b82821040da6ce9130f11c201933fb7cb"),
    ("track-k1", track_machine, 1, {"track": (0, 1, 0, 1)},
     "526cbcd3e9366dcd9cf423d9d43859f89a45aa27ee9806d609d3fa0ff6937d31",
     "563683144529279d8e8c98e0d92983b6ddef50b05b280a635c32e500a0d35b85"),
    ("chessboard-zoom16", chessboard_predicate_machine, 1, {"zoom": 16},
     "622260cf93d8a63aaa173a2764e3479e65b30bd0673cf79a4e34dbc55e22ed5d",
     "2ca04b8f3e57a0f010767dc55530485af48016df255dd336277c1173d9f8da77"),
]


def _corpus_machine(name):
    corpus = machine_corpus()
    corpus["chessboard"] = chessboard_predicate_machine()
    return corpus[name]


CASES = [
    pytest.param(functools.partial(_corpus_machine, name), k, {}, tiles_sha, patches_sha,
                 id=f"{name}-k{k}")
    for name, k, tiles_sha, patches_sha in CORPUS
] + [pytest.param(*case[1:], id=case[0]) for case in LAYOUTS]


@pytest.mark.parametrize("machine,k,options,tiles_sha,patches_sha", CASES)
def test_compiled_corpus_is_frozen(machine, k, options, tiles_sha, patches_sha):
    c = compile_simulation(machine(), k, **options)
    dumps = []
    for bits in sorted(c.accepted):
        sides = [bits[s * k:(s + 1) * k] for s in range(4)]
        patch = assemble_macro_tile(c, *sides)
        assert verify_patch(c.tile_set, patch) == []
        assert macro_payloads(c, patch, 0, 0) == dict(zip(("left", "right", "top", "bottom"),
                                                          sides))
        dumps.append(patch.dumps())
    assert _sha(c.tile_set.dumps()) == tiles_sha
    assert _sha("".join(dumps)) == patches_sha
