import contextlib
import hashlib
import io
import itertools
import json

import pytest

from tilebench import cli, solver
from tilebench.cli import main
from tilebench.compiler import fixedpoint, simulate
from tilebench.core import HOLE, PatchGrid, Tile, TileSet, chessboard_tileset, coordinate_tileset
from tilebench.machine import parity_machine
from tilebench.solver import solve
from tilebench.substitution import enforce_substitution, thue_morse_rule


PARITY = parity_machine().to_json()
TM = thue_morse_rule().to_json()


def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run(*argv)
    return code, json.loads(out)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")

    def wf(name, obj):
        p = d / name
        p.write_text(json.dumps(obj))
        return str(p)

    return {
        "chess": wf("chess.json", chessboard_tileset().to_json()),
        "empty": wf("empty.json", TileSet(1, []).to_json()),
        "coord": wf("coord.json", coordinate_tileset(2).to_json()),
        "white": wf("white.json", TileSet(1, [Tile(0, 0, 0, 0)]).to_json()),
        "tm": wf("tm.json", thue_morse_rule().to_json()),
        "tm-enforced": wf("tm-enforced.json", enforce_substitution(thue_morse_rule()).to_json()),
        "patch": wf("patch.json", solve(chessboard_tileset(), 4, 4).patch.to_json()),
        "patch8": wf("patch8.json", solve(chessboard_tileset(), 8, 8).patch.to_json()),
        "points": wf("points.json", [[0, 0], [1, 0], [9, 9]]),
        "dir": d,
    }


class TestSolverCommands:
    def test_solve_emits_a_verified_patch(self, files):
        code, body = run_json("solve", "--tiles", files["chess"], "--w", "3", "--h", "3")
        assert code == 0
        assert body["status"] == "solved"
        assert len(body["patch"]["cells"]) == 3

    def test_solve_empty_set_is_a_domain_failure(self, files):
        code, body = run_json("solve", "--tiles", files["empty"], "--w", "1", "--h", "1")
        assert code == 1
        assert body["status"] == "unsatisfiable"

    def test_count_chessboard_window(self, files):
        code, body = run_json("count", "--stock", "chessboard", "--w", "2", "--h", "2")
        assert code == 0
        assert body["count"] == 2

    def test_solve_budget_is_inconclusive(self):
        code, out = run("solve", "--stock", "chessboard", "--w", "4", "--h", "4",
                        "--max-nodes", "3")
        assert code == 3
        assert out == '{\n  "nodes": 4,\n  "status": "inconclusive"\n}\n'

    def test_count_budget_is_inconclusive(self):
        code, _ = run("count", "--stock", "chessboard", "--w", "6", "--h", "6",
                      "--max-nodes", "3")
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ("solve", "--stock", "chessboard", "--w", "3", "--h", "3", "--max-nodes", "-1"),
        ("count", "--stock", "chessboard", "--w", "3", "--h", "3", "--max-nodes", "-7"),
    ])
    def test_negative_budget_is_a_usage_error(self, argv):
        code, out = run(*argv)
        assert code == 2
        assert out == ""

    def test_periods_lists_the_even_lattice(self, files):
        code, body = run_json("periods", "--tiles", files["chess"], "--max", "4")
        assert code == 0
        assert body["periods"] == [[2, 2], [2, 4], [4, 2], [4, 4]]

    def test_cut_offsets_of_a_chessboard_patch(self, files):
        code, body = run_json("cut", "--patch", files["patch"], "--n", "2")
        assert code == 0
        assert body["offsets"] == [[0, 0], [1, 1]]
        assert body["unique"] is False

    def test_simulation_verified_and_refuted(self, files):
        code, body = run_json("simulate-check", "--tau", files["coord"],
                              "--rho", files["white"], "--n", "2", "--window", "6")
        assert code == 0
        assert body["status"] == "verified"
        code, body = run_json("simulate-check", "--tau", files["white"],
                              "--rho", files["white"], "--n", "2", "--window", "6")
        assert code == 1
        assert body["status"] == "refuted"
        assert len(body["counterexample_offsets"]) == 4

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_simulation_zoom_below_one_is_a_usage_error(self, files, n):
        code, out = run("simulate-check", "--tau", files["coord"],
                        "--rho", files["white"], "--n", n, "--window", "6")
        assert (code, out) == (2, "")

    def test_simulation_embedding_budget_hit_exits_3(self, tmp_path, monkeypatch):
        # coordinate(4) over the 64 tiles whose four colors sum to 1 mod 4
        # spends 16,640 embedding nodes to refute; 5,000 leave it undecided
        tau, rho = tmp_path / "tau.json", tmp_path / "rho.json"
        tau.write_text(json.dumps(coordinate_tileset(4).to_json()))
        mod4 = [q for q in itertools.product(range(4), repeat=4) if sum(q) % 4 == 1]
        rho.write_text(json.dumps(TileSet(4, mod4).to_json()))
        argv = ("simulate-check", "--tau", str(tau), "--rho", str(rho), "--n", "2", "--window", "8")
        code, body = run_json(*argv)
        assert (code, body["status"]) == (1, "refuted")
        monkeypatch.setattr(solver, "MAX_NODES", 5_000)
        code, body = run_json(*argv)
        assert (code, body["status"]) == (3, "inconclusive")

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_periods_bound_below_one_is_a_usage_error(self, files, bound, capsys):
        code, out = run("periods", "--tiles", files["chess"], "--max", bound)
        assert (code, out) == (2, "")
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_fill_hole_completes_a_template(self, files, tmp_path):
        template = PatchGrid(2, 2, [[0, HOLE], [HOLE, 0]])
        p = tmp_path / "holes.json"
        p.write_text(json.dumps(template.to_json()))
        code, body = run_json("fill-hole", "--stock", "chessboard", "--patch", str(p))
        assert code == 0
        assert body["patch"]["cells"] == [[0, 1], [1, 0]]


class TestCompilerCommands:
    def test_compile_chessboard_checker(self):
        code, body = run_json("compile", "--machine", "chessboard", "--k", "1")
        assert code == 0
        assert body["zoom"] == 8
        assert body["colors"] == 908
        assert body["tiles"] == 1161
        assert body["accepted_payloads"] == ["0110", "1001"]

    def test_fixed_point_small_grid_fails_cleanly(self, capsys):
        code, _ = run("fixed-point", "--size", "128")
        assert code == 1
        assert "program bits" in capsys.readouterr().err

    def test_fixed_point_audit_requires_a_seed(self):
        code, _ = run("fixed-point", "--size", "256", "--certificate")
        assert code == 2

    @staticmethod
    def _refuse(*args, **kw):
        raise AssertionError("worked before checking its flags")

    @pytest.mark.parametrize("flags", [
        ["--certificate"],
        ["--mutations", "3"],
        ["--certificate", "--seed", "7", "--mutations", "-1"],
        ["--certificate", "--seed", "7", "--walk-samples", "-1"],
        ["--certificate", "--seed", "7", "--resident-samples", "0"],
    ])
    def test_fixed_point_flags_are_checked_before_the_build(self, monkeypatch, flags):
        monkeypatch.setattr(cli, "build_fixed_point", self._refuse)
        monkeypatch.setattr(fixedpoint, "run_checker", self._refuse)
        assert run("fixed-point", *flags) == (2, "")

    @pytest.mark.parametrize("size", ["200", "64", "0", "32768", "65536"])
    def test_fixed_point_sizes_off_the_grid_are_usage_errors(self, monkeypatch, size):
        # not a power of two from 128 to 16384, where the set's int32 keys
        # end; --size 128 builds and fails (exit 1); the library refuses it
        # before it builds the checker
        monkeypatch.setattr(fixedpoint, "build_checker", self._refuse)
        assert run("fixed-point", "--size", size) == (2, "")

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_compile_without_payload_bits_is_a_usage_error(self, monkeypatch, k):
        monkeypatch.setattr(simulate, "_probe_capacity", self._refuse)
        assert run("compile", "--machine", "chessboard", "--k", k) == (2, "")

    # 2048 and 65536 are powers of two above MAX_ZOOM, refused alike
    @pytest.mark.parametrize("zoom", ["6", "0", "-8", "2048", "65536"])
    def test_compile_zoom_off_the_powers_of_two_is_a_usage_error(self, monkeypatch, zoom):
        monkeypatch.setattr(simulate, "_probe_capacity", self._refuse)
        assert run("compile", "--machine", "chessboard", "--k", "1", "--zoom", zoom) == (2, "")

    def test_compile_zoom_too_small_for_the_zone_is_a_domain_failure(self, capsys):
        # a power of two, but the chessboard checker's zone needs zoom 8
        assert run("compile", "--machine", "chessboard", "--k", "1", "--zoom", "4") == (1, "")
        assert "does not fit" in capsys.readouterr().err

    def test_fixed_point_mutations_beyond_the_program_are_refused_before_any_run(
            self, monkeypatch, fp):
        monkeypatch.setattr(cli, "build_fixed_point", lambda size: fp)
        monkeypatch.setattr(fixedpoint, "run_checker", self._refuse)
        too_many = str(len(fp.program) + 1)
        flags = ["--certificate", "--seed", "7", "--mutations", too_many]
        assert run("fixed-point", *flags) == (2, "")

    def test_robustify_reports_the_padded_set(self):
        code, body = run_json("robustify", "--stock", "chessboard", "--w", "5")
        assert code == 0
        assert body["w"] == 5
        assert body["tiles"] == len(body["tile_set"]["tiles"])

    def test_robustify_of_an_untileable_set_is_a_domain_failure(self, tmp_path):
        # the same set that solve reports unsatisfiable: exit 1, not a usage error
        path = tmp_path / "dead.json"
        path.write_text(json.dumps({"color_count": 2, "tiles": [[0, 1, 0, 0]]}))
        code, out = run("robustify", "--tiles", str(path))
        assert code == 1 and out == ""

    def test_robust_check_chessboard_annulus(self):
        code, body = run_json("robust-check", "--stock", "chessboard",
                              "--outer", "5", "--inner", "3")
        assert code == 0
        assert body["status"] == "robust"

    def test_robust_check_past_the_annulus_cap_is_inconclusive(self, files):
        code, body = run_json("robust-check", "--tiles", files["tm-enforced"],
                              "--outer", "8", "--inner", "4")
        assert code == 3
        assert body == {"outer": 8, "inner": 4, "status": "inconclusive"}


class TestSubstitutionCommands:
    def test_iterate_thue_morse_twice(self, files):
        code, body = run_json("subst-iterate", "--rule", files["tm"],
                              "--seed-letter", "0", "--k", "2")
        assert code == 0
        assert body["rows"] == [["0", "1", "1", "0"], ["1", "0", "0", "1"],
                                ["1", "0", "0", "1"], ["0", "1", "1", "0"]]

    def test_iterate_negative_k_is_a_usage_error(self, files):
        code, out = run("subst-iterate", "--rule", files["tm"],
                        "--seed-letter", "0", "--k", "-2")
        assert code == 2
        assert out == ""

    def test_enforced_rule_emits_a_tile_set(self):
        code, body = run_json("substitute", "--rule", "thue-morse")
        assert code == 0
        assert body["tiles"] == len(body["tile_set"]["tiles"]) > 0

    def test_aperiodicity_fractions(self):
        code, body = run_json("aperiodicity", "--oracle", "thue-morse",
                              "--dx", "1", "--dy", "0", "--radius", "16")
        assert code == 0
        assert body["fraction"] == pytest.approx(2 / 3)
        code, body = run_json("aperiodicity", "--oracle", "chessboard",
                              "--dx", "1", "--dy", "1", "--radius", "8")
        assert body["fraction"] == 0.0

    @pytest.mark.parametrize("radius", ["-1", "-5"])
    def test_aperiodicity_negative_radius_is_a_usage_error(self, radius):
        code, out = run("aperiodicity", "--oracle", "thue-morse",
                        "--dx", "1", "--dy", "0", "--radius", radius)
        assert code == 2
        assert out == ""


class TestIslandCommands:
    def test_islands_split(self, files):
        code, body = run_json("islands", "--points", files["points"],
                              "--alpha", "2", "--beta", "4")
        assert code == 0
        assert body["islands"] == [[[0, 0], [1, 0]], [[9, 9]]]
        assert body["oversize"] == []

    def test_islands_rejects_points_outside_the_torus(self, files):
        # (9, 9) lies outside an 8 x 8 torus
        code, out = run("islands", "--points", files["points"],
                        "--alpha", "2", "--beta", "4", "--torus", "8", "8")
        assert code == 2 and out == ""
        code, body = run_json("islands", "--points", files["points"],
                              "--alpha", "2", "--beta", "4", "--torus", "10", "10")
        assert code == 0
        assert body["islands"] == [[[0, 0], [1, 0], [9, 9]]]

    def test_islands_rejects_a_point_past_int64(self, tmp_path, capsys):
        path = tmp_path / "far.json"
        path.write_text(json.dumps([[0, 0], [2**63, 1]]))
        code, out = run("islands", "--points", str(path), "--alpha", "1", "--beta", "2")
        assert code == 2 and out == ""
        assert str((2**63, 1)) in capsys.readouterr().err

    def test_clean_sparse_points(self, files):
        code, body = run_json("clean", "--points", files["points"],
                              "--c", "2", "--alpha1", "1", "--ranks", "3")
        assert code == 0
        assert body["success"] is True
        assert body["residual"] == []

    def test_schedule_recurrence_and_validity_flags(self):
        code, body = run_json("schedule", "--c", "2", "--alpha1", "1",
                              "--count", "3", "--c2", "1")
        assert code == 0
        assert body["pairs"] == [[1, 2], [17, 68], [561, 3366]]
        assert body["growth_ok"] == [True, True, True]
        assert body["gap_ok"] == [False, False, True]

    def test_mc_clean_is_deterministic(self):
        argv = ("mc-clean", "--epsilon", "0.001", "--size", "64", "--trials", "2",
                "--seed", "7", "--c", "2", "--alpha1", "1", "--ranks", "3")
        code_a, out_a = run(*argv)
        code_b, out_b = run(*argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        body = json.loads(out_a)
        assert body["success_fraction"] == 1.0
        assert len(body["runs"]) == 2

    @pytest.mark.parametrize("flag", ["--trials", "--size"])
    def test_mc_clean_rejects_empty_experiments(self, flag):
        argv = {"--epsilon": "0.001", "--size": "8", "--trials": "1", "--seed": "7",
                "--c": "2", "--alpha1": "1", "--ranks": "2", flag: "0"}
        code, out = run("mc-clean", *(a for kv in argv.items() for a in kv))
        assert code == 2 and out == ""

    def test_mc_clean_demands_a_seed(self):
        with pytest.raises(SystemExit) as err:
            run("mc-clean", "--epsilon", "0.001", "--size", "8", "--trials", "1",
                "--c", "2", "--alpha1", "1", "--ranks", "2")
        assert err.value.code == 2


class TestRenderCommands:
    @pytest.fixture()
    def small_patch(self, tmp_path):
        patch = PatchGrid(2, 2, [[0, 1], [1, HOLE]])
        p = tmp_path / "small.json"
        p.write_text(json.dumps(patch.to_json()))
        return str(p)

    def test_ascii_rows_are_top_down(self, small_patch, tmp_path):
        pal = tmp_path / "pal.json"
        pal.write_text(json.dumps({"0": "#", "1": "+"}))
        code, out = run("render", "--patch", small_patch, "--palette", str(pal))
        assert code == 0
        assert out == "+.\n#+\n"

    def test_ppm_bytes(self, small_patch, tmp_path):
        pal = tmp_path / "pal.json"
        pal.write_text(json.dumps({"0": [255, 0, 0], "1": [0, 255, 0]}))
        out = tmp_path / "img.ppm"
        code, _ = run("render", "--patch", small_patch, "--format", "ppm",
                      "--palette", str(pal), "--out", str(out))
        assert code == 0
        red, green, black = b"\xff\x00\x00", b"\x00\xff\x00", b"\x00\x00\x00"
        assert out.read_bytes() == b"P6\n2 2\n255\n" + green + black + red + green

    def test_ppm_block_scales_the_image(self, small_patch, tmp_path):
        out = tmp_path / "img.ppm"
        code, _ = run("render", "--patch", small_patch, "--format", "ppm",
                      "--block", "3", "--out", str(out))
        blob = out.read_bytes()
        assert code == 0
        assert blob.startswith(b"P6\n6 6\n255\n")
        assert len(blob) == len(b"P6\n6 6\n255\n") + 3 * 36

    @pytest.mark.parametrize("block", ["0", "-1"])
    def test_ppm_block_below_one_is_a_usage_error(self, small_patch, tmp_path, block):
        out = tmp_path / "img.ppm"
        code, _ = run("render", "--patch", small_patch, "--format", "ppm",
                      "--block", block, "--out", str(out))
        assert code == 2
        assert not out.exists()

    def test_palette_gap_is_a_usage_error(self, small_patch, tmp_path):
        pal = tmp_path / "gap.json"
        pal.write_text(json.dumps({"0": "#"}))
        code, _ = run("render", "--patch", small_patch, "--palette", str(pal))
        assert code == 2

    def test_hole_color_is_reserved_black(self, small_patch, tmp_path):
        out = tmp_path / "img.ppm"
        run("render", "--patch", small_patch, "--format", "ppm", "--out", str(out))
        pixels = out.read_bytes()[len(b"P6\n2 2\n255\n"):]
        assert pixels[3:6] == b"\x00\x00\x00"      # the HOLE cell
        assert b"\x00\x00\x00" not in (pixels[:3], pixels[6:9], pixels[9:])


class TestDistanceCommand:
    def test_identical_patches_have_zero_distance(self, files):
        code, body = run_json("distance", "--a", files["patch8"],
                              "--b", files["patch8"], "--radii", "1,3")
        assert code == 0
        assert body["radii"] == [1, 3]
        assert body["fractions"] == [0.0, 0.0]

    def test_distance_of_a_patch_pair_is_pinned(self, tmp_path):
        # mismatches and holes on both sides, and a window as wide as the
        # patches: the report, byte for byte, as the per-point oracles gave it
        side = 65
        a = [[(x + y) % 2 for x in range(side)] for y in range(side)]
        b = [[c ^ int((x * 7 + y * 13) % 29 == 0) for x, c in enumerate(row)]
             for y, row in enumerate(a)]
        for y in range(side):
            for x in range(side):
                if (x * 5 + y * 3) % 31 == 0:
                    a[y][x] = HOLE
                if (x * 3 + y * 11) % 37 == 0:
                    b[y][x] = HOLE
        paths = []
        for name, cells in (("a.json", a), ("b.json", b)):
            (tmp_path / name).write_text(json.dumps({"width": side, "height": side,
                                                     "cells": cells}))
            paths.append(str(tmp_path / name))
        code, out = run("distance", "--a", paths[0], "--b", paths[1], "--radii", "32,1,4,16")
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == "e8ced3026eb491f0835b13e52d7017d1"

    def test_oversized_radius_is_a_usage_error(self, files):
        code, _ = run("distance", "--a", files["patch"], "--b", files["patch"],
                      "--radii", "99")
        assert code == 2


class TestComposition:
    def test_solve_output_feeds_patch_commands(self, tmp_path):
        out = tmp_path / "solved.json"
        code, _ = run("solve", "--stock", "chessboard", "--w", "8", "--h", "8",
                      "--out", str(out))
        assert code == 0
        code, body = run_json("cut", "--patch", str(out), "--n", "2")
        assert code == 0 and body["offsets"]
        code, ascii_art = run("render", "--patch", str(out))
        assert code == 0 and len(ascii_art.splitlines()) == 8
        code, body = run_json("distance", "--a", str(out), "--b", str(out),
                              "--radii", "1,2")
        assert code == 0 and body["fractions"] == [0.0, 0.0]


class TestErrorPaths:
    def test_unknown_stock_set(self):
        code, _ = run("solve", "--stock", "nosuch", "--w", "1", "--h", "1")
        assert code == 2

    def test_missing_file_is_a_usage_error(self):
        code, _ = run("periods", "--tiles", "/nonexistent.json", "--max", "2")
        assert code == 2

    @pytest.mark.parametrize("argv,content", [
        (("solve", "--w", "2", "--h", "2", "--tiles"),
         {"color_count": 2, "tiles": [[0, 1, 0]]}),  # a 3-color tile
        (("solve", "--w", "2", "--h", "2", "--tiles"),
         {"color_count": 2, "tiles": [[0, 1, 1, 0, 0]]}),
        (("solve", "--w", "2", "--h", "2", "--tiles"),
         {"color_count": 2, "tiles": [[0, 1.0, 1, 0]]}),
        (("solve", "--w", "2", "--h", "2", "--tiles"),
         {"color_count": 2, "tiles": [[0, True, 1, 0]]}),
        (("solve", "--w", "2", "--h", "2", "--tiles"),
         {"color_count": 2 ** 40, "tiles": [[0, 2 ** 35, 1, 0]]}),
        (("solve", "--w", "2", "--h", "2", "--tiles"),
         {"color_count": 2.0, "tiles": [[0, 1, 1, 0]]}),
        (("solve", "--w", "2", "--h", "2", "--tiles"), {"tiles": []}),
        (("cut", "--n", "2", "--patch"), [[0, 1]]),
        (("islands", "--alpha", "1", "--beta", "2", "--points"), [[1, 2, 3]]),
        (("clean", "--points"), [[1, 2], [3]]),
        (("islands", "--alpha", "1", "--beta", "2", "--points"), [[1.9, 2]]),
        (("islands", "--alpha", "1", "--beta", "2", "--points"), [["3", 4]]),
        (("clean", "--points"), [[1, 2], [True, 0]]),
        (("compile", "--k", "1", "--machine-file"), {"states": 2}),
        (("compile", "--k", "1", "--machine-file"),
         {"states": 2, "symbols": 300, "start": 0, "accept": 1, "blank": 0,
          "program_track": False, "transitions": [[0, 299, None, 0, 299, "R"]]}),
        (("compile", "--k", "1", "--machine-file"), {**PARITY, "symbols": 4.0}),
        (("compile", "--k", "1", "--machine-file"),
         {**PARITY, "transitions": [[0.0, 1, None, 0, 1, "R"]]}),
        (("compile", "--k", "1", "--machine-file"), {**PARITY, "accept": True}),
        (("substitute", "--rule"), {"alphabet": "ab"}),
        (("substitute", "--rule"), {**TM, "m": 2.0}),
        (("subst-iterate", "--seed-letter", "0", "--k", "1", "--rule"), {**TM, "m": 2.0}),
        (("substitute", "--rule"), {**TM, "m": True}),
        (("clean", "--points", "@points", "--schedule"), {"c": 2}),
        (("clean", "--points", "@points", "--schedule"),
         {"c": 2, "alpha1": 1, "pairs": [[1, 2.5]]}),
        (("clean", "--points", "@points", "--schedule"),
         {"c": 2, "alpha1": 1, "pairs": [[True, 3]]}),
        (("clean", "--points", "@points", "--schedule"), {"c": 2, "alpha1": 1, "pairs": []}),
        (("mc-clean", "--epsilon", "0.001", "--size", "8", "--trials", "1", "--seed", "7",
          "--schedule"), {"c": 2, "alpha1": 1, "pairs": [[3, 2]]}),
        (("render", "--patch", "@patch", "--palette"), [1, 2]),
        (("render", "--patch", "@patch", "--palette"), {"0": "", "1": "x"}),
        (("render", "--patch", "@patch", "--palette"), {"0": "#", "00": "+", "1": "x"}),
        (("render", "--patch", "@patch", "--palette"), {" 0": "x", "1": "y"}),
        (("render", "--patch", "@patch", "--palette"), {"-1": "x", "0": "x", "1": "y"}),
        (("render", "--patch", "@patch", "--palette"), {"0": "ab", "1": "x"}),
        (("render", "--format", "ppm", "--patch", "@patch", "--palette"),
         {"0": [1, 2], "1": [1, 2, 3]}),
        (("render", "--format", "ppm", "--patch", "@patch", "--palette"),
         {"0": 5, "1": [1, 2, 3]}),
        (("render", "--format", "ppm", "--patch", "@patch", "--palette"),
         {"0": [1.9, 2, 3], "1": [1, 2, 3]}),
        (("render", "--format", "ppm", "--patch", "@patch", "--palette"),
         {"0": [1, True, 3], "1": [1, 2, 3]}),
        (("render", "--format", "ppm", "--patch", "@patch", "--palette"),
         {"0": [1, 2, "3"], "1": [1, 2, 3]}),
        (("render", "--patch"), {"width": 2, "height": 1, "cells": [["1", 1]]}),
        (("fill-hole", "--stock", "chessboard", "--patch"),
         {"width": 2, "height": 1, "cells": [[0, 1.9]]}),
        (("render", "--patch"), {"width": 2.0, "height": 1, "cells": [[0, 1]]}),
        (("fill-hole", "--stock", "chessboard", "--patch"),
         {"width": 2, "height": True, "cells": [[0, HOLE]]}),
    ], ids=["three-color-tile", "five-color-tile", "float-color", "bool-color",
            "color-past-c-int", "float-color-count", "tiles-without-colors", "patch-as-list", "point-triple",
            "point-single", "float-point", "string-point", "bool-point",
            "machine-without-rules", "machine-of-300-symbols", "float-symbols",
            "float-state", "bool-accept", "rule-without-m",
            "float-m", "float-m-iterated", "bool-m",
            "schedule-without-pairs", "float-scale", "bool-scale", "empty-schedule",
            "mc-schedule-alpha-past-beta", "palette-as-list", "empty-glyph", "padded-key",
            "spaced-key", "negative-key", "long-glyph", "rgb-pair",
            "rgb-scalar", "float-rgb", "bool-rgb", "string-rgb", "string-cell",
            "float-cell", "float-width", "bool-height"])
    def test_malformed_file_is_a_usage_error(self, files, tmp_path, argv, content,
                                             capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(content))
        pts = tmp_path / "pts.json"
        pts.write_text("[[1, 1]]")
        good = {"@points": str(pts), "@patch": files["patch"]}
        code, out = run(*[good.get(a, a) for a in argv], str(path))
        assert code == 2 and out == ""
        assert "cannot decode" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("schedule", "--c", "2", "--alpha1", "1", "--count", "3", "--c2", "-1"),
        ("correct", "--stock", "chessboard", "--c1", "-1", "--patch", "@patch"),
    ], ids=["schedule-c2", "correct-c1"])
    def test_negative_collar_is_a_usage_error(self, files, argv):
        code, out = run(*[files["patch"] if a == "@patch" else a for a in argv])
        assert code == 2 and out == ""

    def test_a_library_key_error_is_not_a_usage_error(self, monkeypatch):
        def broken(args):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "cmd_count", broken)
        with pytest.raises(KeyError):
            run("count", "--stock", "chessboard", "--w", "2", "--h", "2")

    @pytest.mark.parametrize("patch", [
        {"width": 2, "height": 1, "cells": [[0, 5]]},
        {"width": 1, "height": 2, "cells": [[0], [7]]},
        {"width": 2, "height": 1, "cells": [[5, 0]]},
    ], ids=["right-of-a-tile", "above-a-tile", "first-cell"])
    def test_correct_with_an_unknown_tile_id_is_a_usage_error(self, tmp_path, patch, capsys):
        path = tmp_path / "bad-ids.json"
        path.write_text(json.dumps(patch))
        code, out = run("correct", "--stock", "chessboard", "--patch", str(path))
        assert code == 2 and out == ""
        assert "unknown tile id" in capsys.readouterr().err

    def test_correct_clean_patch_is_a_noop(self, files):
        code, body = run_json("correct", "--stock", "chessboard",
                              "--patch", files["patch"])
        assert code == 0
        assert body["status"] == "clean"
        assert body["changed"] == []
