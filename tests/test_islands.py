import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from tilebench.islands import (
    Schedule,
    changed_fraction_bound,
    chebyshev,
    clean,
    correction_gap_ok,
    diameter,
    find_islands,
    make_schedule,
    sample_bernoulli,
    schedule_growth_ok,
    survival_log2_bound,
)


def test_chebyshev_plane_and_torus():
    assert chebyshev((0, 0), (3, -4)) == 4
    assert chebyshev((0, 0), (511, 0), torus=(512, 512)) == 1
    assert chebyshev((0, 0), (256, 256), torus=(512, 512)) == 256


def test_diameter():
    assert diameter([]) == 0
    assert diameter([(5, 5)]) == 0
    assert diameter([(0, 0), (2, 1), (0, 3)]) == 3
    assert diameter([(0, 0), (7, 0)], torus=(8, 8)) == 1


def test_find_islands_basic():
    islands, oversize = find_islands({(0, 0), (1, 1), (9, 9)}, 1, 2)
    assert islands == [frozenset({(0, 0), (1, 1)}), frozenset({(9, 9)})]
    assert oversize == []


def test_find_islands_oversize_group():
    # the two points chain within beta but span more than alpha
    islands, oversize = find_islands({(0, 0), (2, 0)}, 1, 2)
    assert islands == []
    assert oversize == [frozenset({(0, 0), (2, 0)})]


def test_find_islands_separation_boundary():
    # distance 3 > beta=2: the groups are separate islands
    islands, _ = find_islands({(0, 0), (3, 0)}, 1, 2)
    assert len(islands) == 2


def test_find_islands_torus_wraps():
    islands, _ = find_islands({(0, 0), (7, 7)}, 1, 2, torus=(8, 8))
    assert islands == [frozenset({(0, 0), (7, 7)})]


def test_find_islands_rejects_bad_scales():
    with pytest.raises(ValueError):
        find_islands(set(), 3, 2)


@pytest.mark.parametrize("points, torus", [
    ({(0, 0), (20, 0)}, (8, 8)),
    ({(0, 0), (-1, 3)}, (8, 8)),
    ({(0, 0), (3, 8)}, (8, 8)),
    (set(), (0, 8)),
    (set(), (8, -1)),
])
def test_find_islands_rejects_points_outside_the_torus(points, torus):
    with pytest.raises(ValueError):
        find_islands(points, 1, 2, torus=torus)
    with pytest.raises(ValueError):
        clean(points, make_schedule(2, 1, 2), torus=torus)


def reference_islands(points, alpha, beta, torus=None):
    """The all-pairs union-find that the bucketed search replaced."""
    pts = sorted(set(points))
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(pts)), 2):
        if chebyshev(pts[i], pts[j], torus) <= beta:
            parent[find(i)] = find(j)
    groups = {}
    for i, p in enumerate(pts):
        groups.setdefault(find(i), []).append(p)
    comps = [frozenset(g) for g in groups.values()]
    islands = sorted((g for g in comps if reference_diameter(g, torus) <= alpha), key=min)
    oversize = sorted((g for g in comps if reference_diameter(g, torus) > alpha), key=min)
    return islands, oversize


def reference_diameter(points, torus=None):
    pts = list(points)
    return max((chebyshev(p, q, torus) for p, q in itertools.combinations(pts, 2)), default=0)


@st.composite
def island_cases(draw):
    """Point sets, scales and (often awkward) tori for the differential tests."""
    beta = draw(st.integers(1, 40))
    alpha = draw(st.integers(1, beta))
    if draw(st.booleans()):
        # sides below beta, near beta/2 and up to a few betas, mostly not
        # multiples of beta (a narrow last bucket would break across the wrap)
        w, h = (draw(st.one_of(st.integers(1, 4 * beta + 3), st.integers(1, 90)))
                for _ in range(2))
        torus = (w, h)
        point = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
    else:
        torus = None
        point = st.tuples(st.integers(-60, 60), st.integers(-60, 60))
    points = draw(st.sets(point, max_size=40))
    return points, alpha, beta, torus


@settings(max_examples=400, deadline=None)
@given(island_cases())
@example((set(), 1, 1, None))
@example((set(), 2, 3, (2, 5)))
@example(({(-7, -3)}, 1, 1, None))
@example(({(4, 6)}, 2, 9, (5, 7)))
def test_find_islands_matches_all_pairs_reference(case):
    points, alpha, beta, torus = case
    assert find_islands(points, alpha, beta, torus) == reference_islands(
        points, alpha, beta, torus)
    assert diameter(points, torus) == reference_diameter(points, torus)


@settings(max_examples=50, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 511), st.integers(0, 511)), max_size=60),
       st.sampled_from([(1, 2), (17, 68), (561, 3366)]))
def test_find_islands_matches_reference_on_the_benchmark_torus(points, scale):
    # 512 is not a multiple of 68: the buckets must stay at least beta wide
    alpha, beta = scale
    assert find_islands(points, alpha, beta, (512, 512)) == reference_islands(
        points, alpha, beta, (512, 512))
    assert diameter(points, (512, 512)) == reference_diameter(points, (512, 512))


def test_find_islands_joins_everything_when_beta_spans_the_torus(monkeypatch):
    # 512 < 2 * 3366 on both axes: every torus distance is at most 256 < beta,
    # so the last stock rank is one component, found without a pair check
    rng = random.Random(3366)
    pts = {(rng.randrange(512), rng.randrange(512)) for _ in range(200)}
    want = reference_islands(pts, 561, 3366, (512, 512))
    assert want == ([frozenset(pts)], [])

    def no_pair_checks(*args):
        raise AssertionError("compared a pair")

    monkeypatch.setattr("tilebench.islands.chebyshev", no_pair_checks)
    assert find_islands(pts, 561, 3366, (512, 512)) == want
    assert find_islands(pts, 200, 3366, (512, 512)) == ([], [frozenset(pts)])
    assert find_islands(set(), 561, 3366, (512, 512)) == ([], [])


def test_find_islands_across_the_wrap_of_an_uneven_torus():
    # 512 // 68 = 7 buckets of 73 or 74 cells; 511 and 67 are 68 apart across the wrap
    torus = (512, 512)
    for pts in ({(511, 0), (67, 0)}, {(0, 511), (0, 67)}, {(0, 0), (444, 444)}):
        assert find_islands(pts, 68, 68, torus) == ([frozenset(pts)], [])
    apart = {(511, 0), (68, 0)}
    assert find_islands(apart, 68, 68, torus) == (
        sorted(map(frozenset, ([p] for p in apart)), key=min), [])


def brute_force_islands(points, alpha, beta, torus=None):
    """Independent oracle: test every subset against the island definition."""
    pts = sorted(points)
    islands = []
    for r in range(1, len(pts) + 1):
        for sub in itertools.combinations(pts, r):
            rest = [p for p in pts if p not in sub]
            if diameter(sub, torus) > alpha:
                continue
            if any(chebyshev(p, q, torus) <= beta for p in sub for q in rest):
                continue
            islands.append(frozenset(sub))
    return sorted(islands, key=min)


def test_islands_match_brute_force_small():
    grid = [(x, y) for x in range(4) for y in range(4)]
    cases = itertools.product([None, (4, 4), (5, 4), (4, 7)], range(4),
                              [(1, 1), (1, 2), (2, 3)])
    for torus, r, (alpha, beta) in cases:
        for sub in itertools.combinations(grid, r):
            fast, _ = find_islands(sub, alpha, beta, torus)
            expected = brute_force_islands(sub, alpha, beta, torus)
            assert fast == expected, (sub, alpha, beta, torus)


def test_make_schedule_frozen_values():
    s = make_schedule(2, 1, 3)
    assert s.alphas == (1, 17, 561)
    assert s.betas == (2, 68, 3366)
    assert schedule_growth_ok(s) == [True, True, True]


def test_schedule_json_roundtrip():
    s = make_schedule(2, 1, 3)
    again = Schedule.loads(s.dumps())
    assert again == s


def test_correction_gap_frozen():
    s = make_schedule(2, 1, 3)
    # beta_k / alpha_k = 2k: the 4*c2 gap needs c*k > 4*c2
    assert correction_gap_ok(s, 1) == [False, False, True]
    s13 = make_schedule(13, 1, 2)
    assert correction_gap_ok(s13, 3) == [True, True]


def test_changed_fraction_bound_frozen():
    s = make_schedule(2, 1, 3)
    # (9*1/2)^2 + (9*17/68)^2 + (9*561/3366)^2 = 20.25 + 5.0625 + 2.25
    assert changed_fraction_bound(s, 2) == pytest.approx(27.5625)


def test_survival_log2_bound_frozen():
    s = make_schedule(2, 1, 3)
    # 2*log2(2^-10) + 2*log2(8) = -20 + 6
    assert survival_log2_bound(s, 1, 2**-10) == pytest.approx(-14.0)
    # decay across ranks needs epsilon small enough to beat the tree-count term
    assert (
        survival_log2_bound(s, 3, 2**-20)
        < survival_log2_bound(s, 2, 2**-20)
        < survival_log2_bound(s, 1, 2**-20)
        < 0
    )
    with pytest.raises(ValueError):
        survival_log2_bound(s, 4, 0.5)


def test_clean_two_ranks():
    s = make_schedule(2, 1, 3)
    rep = clean({(0, 0), (2, 0)}, s)
    assert rep.success
    assert rep.ranks[0].removed == 0
    assert len(rep.ranks[0].oversize) == 1
    assert rep.ranks[1].removed == 2


def test_clean_failure_reports_residual():
    s = make_schedule(2, 1, 1)
    rep = clean({(0, 0), (2, 0)}, s)
    assert not rep.success
    assert rep.residual == frozenset({(0, 0), (2, 0)})


def test_clean_empty_is_trivially_successful():
    rep = clean(set(), make_schedule(2, 1, 2))
    assert rep.success and rep.residual == frozenset()


def test_sample_bernoulli_deterministic_and_calibrated():
    a = sample_bernoulli(128, 128, 0.01, seed=[5, 0])
    b = sample_bernoulli(128, 128, 0.01, seed=[5, 0])
    assert a == b
    # 16384 cells at 1%: mean 163.8, sd ~12.7; stay within 5 sd
    assert 100 <= len(a) <= 230
    assert all(0 <= x < 128 and 0 <= y < 128 for x, y in a)
    assert sample_bernoulli(16, 16, 0.0, seed=1) == set()
