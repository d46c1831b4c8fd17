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
from tilebench.core import verify_patch
from tilebench.machine import SYM_ONE, SYM_ZERO, Machine, Transition, machine_corpus, run_machine
from tilebench.solver import find_cut_offsets, solve


def first_bit_zero_machine():
    # k=2 exercise: accepts iff input cell 0 reads a 0 bit
    return Machine(2, 4, 0, 1, 0, False, (Transition(0, SYM_ZERO, None, 1, SYM_ZERO, "S"),))


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


@pytest.mark.parametrize("name,k,tiles_sha,patches_sha", CORPUS,
                         ids=[f"{name}-k{k}" for name, k, _, _ in CORPUS])
def test_compiled_corpus_is_frozen(name, k, tiles_sha, patches_sha):
    corpus = machine_corpus()
    corpus["chessboard"] = chessboard_predicate_machine()
    c = compile_simulation(corpus[name], k)
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
