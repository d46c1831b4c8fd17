"""Known answers, worked out without the layer under test.

Everything here is either a construction fact written down as a formula,
a hand-written table, or a small independent reference (the island
definition and a direct mismatch count).  None of it calls tilebench.
"""

from __future__ import annotations

import numpy as np

# Exact counts that must repeat on every run (the ROADMAP baseline rows the
# benchmark covers).
ANCHORS = {
    "fixed_point_tiles": 66_564,           # build_fixed_point(256): (256 + 2) ** 2
    "checker_states": 267,
    "checker_program_bits": 16_525,
    "universal_states": 89_592,            # universal_machine(9)
    "worst_walk_steps": 3_244_140,         # run_checker at tile (255, 222)
    "compiled_chessboard_tiles": 1_161,    # compile_simulation(chessboard, 1)
    "compiled_chessboard_32x32_nodes": 373_051,
    "thue_morse_enforced_tiles": 8,        # 2 letters x 2 x 2 block positions
    "schedule_alphas": (1, 17, 561),       # make_schedule(2, 1, 3)
    "schedule_betas": (2, 68, 3366),
}

# check_window_robust on the Thue-Morse-enforced set, by hand.  Its tilings
# alternate block positions along rows and columns and hold one letter per
# 2 x 2 block.  Each annulus below is a connected ring, so it pins the block
# offset, and each block it meets shows the letter on a connected group of
# ring cells; a block wholly inside the hole takes either letter.  So every
# annulus tiling extends across the hole.
ROBUST_EXPECTED = {(4, 2): "robust", (5, 1): "robust", (5, 3): "robust"}

# Thue-Morse-enforced window counts, by hand from the formula below; the
# benchmark's own tests check that the formula reproduces them.
COUNT_TABLE = {(2, 2): 26, (3, 3): 64, (4, 4): 656, (4, 5): 1152, (3, 6): 640}


def thue_morse_window_count(w: int, h: int) -> int:
    """Tilings of a free-bordered w x h window by the Thue-Morse-enforced set.

    A tiling is a block offset (ox, oy) in {0, 1}^2 plus one free letter per
    2 x 2 block that meets the window; at offset o a side of length L meets
    ceil((L + o) / 2) blocks.
    """
    def blocks(length: int, off: int) -> int:
        return (length + off + 1) // 2

    return sum(2 ** (blocks(w, ox) * blocks(h, oy)) for ox in (0, 1) for oy in (0, 1))


def coordinate_periods(k: int, max_period: int) -> set[tuple[int, int]]:
    """The coordinate set of side k tiles the px x py torus iff k divides both."""
    return {(px, py) for px in range(1, max_period + 1) for py in range(1, max_period + 1)
            if px % k == 0 and py % k == 0}


def mismatch_fraction(oracle, shift: tuple[int, int], radius: int) -> float:
    """Direct count of cells where the configuration differs from its translate."""
    dx, dy = shift
    rng = range(-radius, radius + 1)
    diff = sum(oracle(x, y) != oracle(x + dx, y + dy) for y in rng for x in rng)
    return diff / len(rng) ** 2


# --- the island definition ----------------------------------------------------


def torus_cheb(a: np.ndarray, b: np.ndarray, torus: tuple[int, int]) -> np.ndarray:
    """Chebyshev distances between rows of a (m x 2) and of b (n x 2) on a torus."""
    d = np.abs(a[:, None, :] - b[None, :, :])
    d = np.minimum(d, np.array(torus) - d)
    return d.max(axis=2)


def beta_components(pts: np.ndarray, beta: int, torus: tuple[int, int]) -> list[np.ndarray]:
    """Index arrays of the beta-proximity components of the points on a torus.

    Breadth-first search: each step labels every unlabelled point within
    beta of the frontier, comparing the frontier against all points in
    blocks of 256 rows.
    """
    label = np.full(len(pts), -1)
    for start in range(len(pts)):
        if label[start] >= 0:
            continue
        label[start] = start
        frontier = np.array([start])
        while len(frontier):
            near = np.zeros(len(pts), dtype=bool)
            for block in np.array_split(frontier, (len(frontier) + 255) // 256):
                near |= (torus_cheb(pts[block], pts, torus) <= beta).any(axis=0)
            frontier = np.flatnonzero(near & (label < 0))
            label[frontier] = start
    return [np.flatnonzero(label == root) for root in np.unique(label)]


def cleaning_errors(points: set, report, torus: tuple[int, int], limit: int = 5) -> list[str]:
    """Check a cleaning report against the island definition, rank by rank.

    An (alpha, beta)-island has diameter <= alpha and no other point within
    beta, so the islands of a rank are exactly the beta-proximity
    components of the current set whose diameter is <= alpha; the other
    components are oversize and stay.  Each rank must report those islands
    and oversize groups, removed plus remaining must equal the points the
    rank started with, and the residual and success flag must match what
    the last rank left.  An empty list means the report is consistent.
    """
    errors: list[str] = []
    current = set(points)
    for rank in report.ranks:
        pts = np.array(sorted(current), dtype=np.int64).reshape(-1, 2)
        want_islands, want_oversize = set(), set()
        for comp in beta_components(pts, rank.beta, torus):
            group = frozenset(map(tuple, pts[comp].tolist()))
            wide = len(comp) > 1 and torus_cheb(pts[comp], pts[comp], torus).max() > rank.alpha
            (want_oversize if wide else want_islands).add(group)
        if set(rank.islands) != want_islands or len(rank.islands) != len(want_islands):
            errors.append(f"rank {rank.rank}: islands are not the components of diameter "
                          f"<= alpha={rank.alpha} at beta={rank.beta}")
        if set(rank.oversize) != want_oversize or len(rank.oversize) != len(want_oversize):
            errors.append(f"rank {rank.rank}: oversize groups are not the wider components")
        removed = set().union(*rank.islands) if rank.islands else set()
        if rank.removed != len(removed) or rank.removed + rank.remaining != len(current):
            errors.append(f"rank {rank.rank}: removed {rank.removed} + remaining "
                          f"{rank.remaining} != {len(current)} points")
        current -= removed
        if len(errors) >= limit:
            break
    if report.residual != frozenset(current):
        errors.append("residual differs from what the ranks left")
    if report.success != (not current):
        errors.append("success flag disagrees with the residual")
    return errors[:limit]
