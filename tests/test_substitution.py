import itertools
import random

import pytest

from tilebench.core import verify_patch
from tilebench.solver import count_patch_tilings
from tilebench.substitution import (
    SubstitutionRule,
    aperiodicity_fraction,
    chessboard_oracle,
    compatible_window_check,
    enforce_substitution,
    enforced_letter,
    enforced_patch,
    iterate_substitution,
    substitute_rows,
    thue_morse_oracle,
    thue_morse_rule,
)


def test_rule_validation():
    with pytest.raises(ValueError):
        SubstitutionRule(("a",), 2, {"a": (("a", "a"),)})  # wrong shape
    with pytest.raises(ValueError):
        SubstitutionRule(("a",), 2, {"a": (("a", "b"), ("a", "a"))})  # unknown letter
    with pytest.raises(ValueError):
        SubstitutionRule(("a", "a"), 2, {"a": (("a", "a"), ("a", "a"))})


def test_rule_json_roundtrip():
    r = thue_morse_rule()
    again = SubstitutionRule.loads(r.dumps())
    assert again == r


def test_thue_morse_second_iterate():
    # frozen 4x4 fixed-point corner (row 0 = bottom)
    assert iterate_substitution(thue_morse_rule(), "0", 2) == [
        ["0", "1", "1", "0"],
        ["1", "0", "0", "1"],
        ["1", "0", "0", "1"],
        ["0", "1", "1", "0"],
    ]


def test_iterate_rejects_a_negative_k():
    assert iterate_substitution(thue_morse_rule(), "1", 0) == [["1"]]
    with pytest.raises(ValueError):
        iterate_substitution(thue_morse_rule(), "0", -1)


def test_iterates_match_oracle():
    g = iterate_substitution(thue_morse_rule(), "0", 4)
    assert all(
        g[y][x] == str(thue_morse_oracle(x, y)) for x in range(16) for y in range(16)
    )


def test_substitute_rows_shape():
    out = substitute_rows(thue_morse_rule(), [["0", "1"]])
    assert len(out) == 2 and len(out[0]) == 4
    assert out[0] == ["0", "1", "1", "0"]


def test_oracle_mirror_symmetry():
    # the mirrored extension makes row values symmetric around -1/2
    assert [thue_morse_oracle(n, 0) for n in range(-4, 4)] == [0, 1, 1, 0, 0, 1, 1, 0]
    assert thue_morse_oracle(-3, 2) == thue_morse_oracle(2, 2)


def test_aperiodicity_thue_morse_frozen():
    # frozen window fractions; every probed shift stays well above 1/3
    assert aperiodicity_fraction(thue_morse_oracle, (1, 0), 16) == pytest.approx(
        2 / 3, abs=1e-6
    )
    assert aperiodicity_fraction(thue_morse_oracle, (1, 1), 16) == pytest.approx(
        0.444444, abs=1e-4
    )
    for shift in [(1, 0), (0, 1), (1, 1), (2, 2), (4, 4), (3, 1)]:
        assert aperiodicity_fraction(thue_morse_oracle, shift, 64) >= 1 / 3


def test_aperiodicity_chessboard():
    assert aperiodicity_fraction(chessboard_oracle, (1, 1), 16) == 0.0
    assert aperiodicity_fraction(chessboard_oracle, (1, 0), 16) == 1.0
    with pytest.raises(ValueError):
        aperiodicity_fraction(chessboard_oracle, (0, 0), 16)


def test_aperiodicity_rejects_a_negative_radius():
    for radius in (-1, -5):
        with pytest.raises(ValueError):
            aperiodicity_fraction(thue_morse_oracle, (1, 0), radius)
    # radius 0 is the one-point window
    assert aperiodicity_fraction(chessboard_oracle, (1, 0), 0) == 1.0
    assert aperiodicity_fraction(chessboard_oracle, (1, 1), 0) == 0.0


def test_enforce_substitution_counts():
    ts = enforce_substitution(thue_morse_rule())
    assert len(ts) == 8  # |alphabet| * m^2
    assert ts.color_count == 12


def test_enforced_patch_is_valid_and_reads_back():
    r = thue_morse_rule()
    ts = enforce_substitution(r)
    parents = [["0", "1"], ["1", "0"]]
    p = enforced_patch(r, parents)
    assert verify_patch(ts, p) == []
    letters = [[enforced_letter(r, p.get(x, y)) for x in range(4)] for y in range(4)]
    assert letters == substitute_rows(r, parents)


def test_enforced_window_census():
    # frozen by hand: a 2x2 window sees 2 + 4 + 4 + 16 = 26 tilings across
    # the four block offsets (1, 2, 2, 4 blocks; letters free per block)
    ts = enforce_substitution(thue_morse_rule())
    assert count_patch_tilings(ts, 2, 2) == 26
    assert count_patch_tilings(ts, 3, 3) == 64


def test_compatibility_on_fixed_point_windows():
    r = thue_morse_rule()
    g = iterate_substitution(r, "0", 3)
    w = [list(row) for row in g]
    for depth in (1, 2, 3):
        assert compatible_window_check(r, w, depth) == "compatible"
    w[3][3] = "0" if w[3][3] == "1" else "1"
    for depth in (1, 2, 3):
        assert compatible_window_check(r, w, depth) == "incompatible"


def test_compatibility_inconclusive_on_offset_blowup():
    r = thue_morse_rule()
    w = [["0"]]
    assert compatible_window_check(r, w, 4, max_offsets=100) == "inconclusive"


def brute_force_depth_one(rule, rows):
    m = rule.m
    h, w = len(rows), len(rows[0])
    for oy in range(m):
        for ox in range(m):
            pw = (w + ox + m - 1) // m
            ph = (h + oy + m - 1) // m
            for combo in itertools.product(rule.alphabet, repeat=pw * ph):
                if all(
                    rule.images[combo[((y + oy) // m) * pw + (x + ox) // m]][
                        (y + oy) % m
                    ][(x + ox) % m]
                    == rows[y][x]
                    for y in range(h)
                    for x in range(w)
                ):
                    return "compatible"
    return "incompatible"


def test_compatibility_agrees_with_brute_force():
    r = thue_morse_rule()
    rng = random.Random(7)
    for trial in range(40):
        kind = trial % 3
        if kind == 0:  # genuine fixed-point window
            bx, by = rng.randrange(64), rng.randrange(64)
            w = [[str(thue_morse_oracle(bx + x, by + y)) for x in range(4)] for y in range(4)]
        elif kind == 1:  # corrupted fixed-point window
            bx, by = rng.randrange(64), rng.randrange(64)
            w = [[str(thue_morse_oracle(bx + x, by + y)) for x in range(4)] for y in range(4)]
            fx, fy = rng.randrange(4), rng.randrange(4)
            w[fy][fx] = "0" if w[fy][fx] == "1" else "1"
        else:  # random soup
            w = [[rng.choice("01") for _ in range(4)] for _ in range(4)]
        assert compatible_window_check(r, w, 1) == brute_force_depth_one(r, w), w
