import hashlib
import json

import pytest

from tilebench.core import verify_patch
from tilebench.solver import count_patch_tilings
from tilebench.substitution import (
    SubstitutionRule,
    aperiodicity_fraction,
    chessboard_oracle,
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
    again = SubstitutionRule.from_json(json.loads(json.dumps(r.to_json())))
    assert again == r


@pytest.mark.parametrize("m", [2.0, True])
def test_rule_json_refuses_a_zoom_that_is_not_an_int(m):
    with pytest.raises(ValueError, match="must be an int"):
        SubstitutionRule.from_json({**thue_morse_rule().to_json(), "m": m})


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


def test_enforce_substitution_is_frozen():
    # sha256 of the sorted-key JSON: pins the color numbering, not only counts
    obj = enforce_substitution(thue_morse_rule()).to_json()
    assert hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest() == (
        "28322cc1a2db91c8105813a4804b45929b66d0510090d16fae7c1a07152e29ad"
    )


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
