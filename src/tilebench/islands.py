"""Island decomposition of sparse point sets and cleaning schedules.

A dirty set splits into (alpha, beta)-islands: groups of diameter at most
alpha (Chebyshev metric) whose beta-neighborhood contains no other dirty
point.  Rank-by-rank cleaning removes islands at growing scales; schedules
whose parameters grow fast enough clean Bernoulli-random dirt almost
surely while touching only a small fraction of the plane.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

Point = tuple[int, int]


def chebyshev(p: Point, q: Point, torus: tuple[int, int] | None = None) -> int:
    """Max-coordinate distance, optionally wrapping on a torus (w, h)."""
    dx = abs(p[0] - q[0])
    dy = abs(p[1] - q[1])
    if torus is not None:
        w, h = torus
        dx = min(dx, w - dx)
        dy = min(dy, h - dy)
    return max(dx, dy)


def _axis_diameter(values: Iterable[int], side: int | None) -> int:
    """Largest pairwise distance among coordinates on a line or a cycle of ``side``."""
    vals = sorted(set(values))
    if side is None or len(vals) < 2:
        return vals[-1] - vals[0]
    # Each pair lies at most side//2 apart going forward from one of its
    # two ends, and within that half-turn the cyclic distance only grows; so
    # the last value at or before v + side//2 (cyclically) is, over all v,
    # enough to find the diameter.
    half = side // 2
    best = 0
    for v in vals:
        u = vals[bisect.bisect_right(vals, (v + half) % side) - 1]
        best = max(best, (u - v) % side)
    return best


def _check_torus(points: Sequence[Point], torus: tuple[int, int]) -> None:
    w, h = torus
    if w < 1 or h < 1:
        raise ValueError(f"torus sides must be positive, got {torus}")
    for x, y in points:
        if not (0 <= x < w and 0 <= y < h):
            raise ValueError(f"point {(x, y)} lies outside the torus {torus}")


def _near(c: int, count: int | None) -> Iterable[int]:
    """Bucket index c and its neighbours on one axis, wrapped modulo count
    (None on the plane); with one or two buckets the wrapped ones coincide."""
    if count is None:
        return (c - 1, c, c + 1)
    return {(c - 1) % count, c, (c + 1) % count}


def _diameter(pts: Sequence[Point], torus: tuple[int, int] | None) -> int:
    if len(pts) < 2:
        return 0
    w, h = (None, None) if torus is None else torus
    return max(_axis_diameter((p[0] for p in pts), w),
               _axis_diameter((p[1] for p in pts), h))


def diameter(points: Iterable[Point], torus: tuple[int, int] | None = None) -> int:
    """Largest pairwise distance; 0 for singletons and the empty set.

    The Chebyshev distance is the larger of the two axis distances, so the
    diameter is exactly max(x-diameter, y-diameter), each taken on its own
    axis: the span on the plane; on the torus, the largest forward distance
    from a value to the last value at or before it + side // 2, found by
    bisection (O(n log n) per axis).  Points must lie inside the torus.
    """
    pts = list(points)
    if torus is not None:
        _check_torus(pts, torus)
    return _diameter(pts, torus)


def find_islands(
    points: Iterable[Point],
    alpha: int,
    beta: int,
    torus: tuple[int, int] | None = None,
) -> tuple[list[frozenset[Point]], list[frozenset[Point]]]:
    """Split a dirty set into (alpha, beta)-islands and oversize groups.

    Distance > beta between groups makes the beta-proximity components the
    only candidates: an island must be a whole component (a part would have
    a neighbor within beta), and a union of several would already have
    diameter above beta >= alpha.  Components are therefore islands exactly
    when their diameter is at most alpha; wider ones are returned in the
    second list, untouched.

    Components are found over a grid of buckets at least beta wide on each
    axis: (x // beta, y // beta) on the plane, max(1, side // beta) equal
    buckets per side on the torus.  Two points in buckets that are not
    neighbours (cyclically on the torus) are then more than beta apart, so
    only pairs within a bucket or across neighbouring buckets are compared.
    A torus with one bucket per axis is less than 2 beta wide both ways, so
    no two points are more than beta apart: they form one component, found
    without a comparison.  On a torus every point must lie in [0, w) x [0, h).
    """
    if not (0 < alpha <= beta):
        raise ValueError("need 0 < alpha <= beta")
    pts = sorted(set(points))
    if torus is None:
        nx = ny = None
        keys = [(x // beta, y // beta) for x, y in pts]
    else:
        _check_torus(pts, torus)
        w, h = torus
        nx, ny = max(1, w // beta), max(1, h // beta)
        keys = [(x * nx // w, y * ny // h) for x, y in pts]
    buckets: dict[tuple[int, int], list[int]] = {}
    if nx == ny == 1:
        # side < 2 beta on both axes, so every torus distance is at most
        # side // 2 < beta: all points form one component
        parent = [0] * len(pts)
    else:
        for i, key in enumerate(keys):
            buckets.setdefault(key, []).append(i)
        parent = list(range(len(pts)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for (bx, by), members in buckets.items():
        # each unordered pair of neighbouring buckets is visited once, from the smaller
        rows = _near(by, ny)
        across = [j for u in _near(bx, nx) for v in rows if (u, v) > (bx, by)
                  for j in buckets.get((u, v), ())]
        for k, i in enumerate(members):
            ri = find(i)
            for j in itertools.chain(members[k + 1:], across):
                rj = find(j)
                if ri != rj and chebyshev(pts[i], pts[j], torus) <= beta:
                    parent[ri] = rj
                    ri = rj
    groups: dict[int, list[Point]] = {}
    for i, p in enumerate(pts):
        groups.setdefault(find(i), []).append(p)
    islands: list[frozenset[Point]] = []
    oversize: list[frozenset[Point]] = []
    for g in groups.values():
        (islands if _diameter(g, torus) <= alpha else oversize).append(frozenset(g))
    islands.sort(key=min)
    oversize.sort(key=min)
    return islands, oversize


@dataclass(frozen=True)
class Schedule:
    """Per-rank island scales: rank k removes (alphas[k-1], betas[k-1])-islands."""

    c: int
    alpha1: int
    alphas: tuple[int, ...]
    betas: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.alphas)

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.alphas, self.betas))

    def to_json(self) -> dict:
        return {"c": self.c, "alpha1": self.alpha1, "pairs": [list(p) for p in self.pairs()]}

    @classmethod
    def from_json(cls, obj: dict) -> "Schedule":
        """Decode a schedule: one or more (alpha, beta) pairs, alpha <= beta, and c,
        alpha1 and every scale a positive int (not a bool); ValueError otherwise."""
        pairs = [tuple(p) for p in obj["pairs"]]
        ints = [obj["c"], obj["alpha1"], *(v for p in pairs for v in p)]
        if not (pairs and set(map(type, ints)) <= {int} and min(ints) > 0
                and all(len(p) == 2 and p[0] <= p[1] for p in pairs)):
            raise ValueError("a schedule needs positive ints, one or more pairs, alpha <= beta")
        return cls(
            obj["c"],
            obj["alpha1"],
            tuple(a for a, _ in pairs),
            tuple(b for _, b in pairs),
        )


def make_schedule(c: int, alpha1: int, count: int) -> Schedule:
    """The stock growth pattern: beta_k = c*k*alpha_k, alpha_{k+1} = 8*sum(betas)+1.

    Scales grow roughly like k! * c^k, so log(beta_k) is polynomial in k and
    the survival bound series converges while each rank still leaves room
    for the next one.
    """
    if c < 1 or alpha1 < 1 or count < 1:
        raise ValueError("schedule parameters must be positive")
    alphas = [alpha1]
    betas = []
    for k in range(1, count + 1):
        betas.append(c * k * alphas[-1])
        if k < count:
            alphas.append(8 * sum(betas) + 1)
    return Schedule(c, alpha1, tuple(alphas), tuple(betas))


def schedule_growth_ok(schedule: Schedule) -> list[bool]:
    """Per rank n: 8 * sum of earlier betas < alpha_n <= beta_n.

    This spacing keeps the doubling trees of distinct survivors disjoint,
    which is what makes the survival bound count each dirty point once.
    """
    out = []
    for n in range(1, len(schedule) + 1):
        a, b = schedule.alphas[n - 1], schedule.betas[n - 1]
        out.append(8 * sum(schedule.betas[: n - 1]) < a <= b)
    return out


def correction_gap_ok(schedule: Schedule, c2: int) -> list[bool]:
    """Per rank k: beta_k > 4*c2*alpha_k.

    Guarantees that the half-beta neighborhoods used to repair rank-k
    islands are disjoint and wide enough for a c2-sized repair collar.
    """
    if c2 < 0:
        raise ValueError("repair collar c2 must be non-negative")
    return [b > 4 * c2 * a for a, b in schedule.pairs()]


def changed_fraction_bound(schedule: Schedule, c1: int) -> float:
    """Upper bound on the density of cells touched when repairing islands.

    Repairing a rank-k island rewrites at most its 2*c1*alpha_k
    neighborhood, a square of side (4*c1+1)*alpha_k, and distinct rank-k
    islands are more than beta_k apart; summing the per-rank densities
    bounds the total changed fraction.
    """
    if c1 < 0:
        raise ValueError("repair collar c1 must be non-negative")
    return sum(((4 * c1 + 1) * a / b) ** 2 for a, b in schedule.pairs())


def survival_log2_bound(schedule: Schedule, n: int, epsilon: float) -> float:
    """log2 of a bound on P(a fixed point is still dirty after n ranks).

    A survivor of rank n roots a binary tree of depth n whose 2^n leaves
    are distinct dirty points (epsilon^(2^n)); encoding the displacement at
    each branch costs 2*log2(4*beta_i) bits at rank i, with 2^(n-i) branches.
    """
    if not (1 <= n <= len(schedule)):
        raise ValueError("rank out of schedule range")
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must be in (0, 1)")
    total = (2**n) * math.log2(epsilon)
    for i in range(1, n + 1):
        total += 2 ** (n - i + 1) * math.log2(4 * schedule.betas[i - 1])
    return total


@dataclass
class RankOutcome:
    rank: int
    alpha: int
    beta: int
    islands: tuple[frozenset[Point], ...]
    oversize: tuple[frozenset[Point], ...]
    removed: int
    remaining: int


@dataclass
class CleaningReport:
    ranks: list[RankOutcome]
    success: bool
    residual: frozenset[Point]


def clean(
    points: Iterable[Point],
    schedule: Schedule,
    torus: tuple[int, int] | None = None,
) -> CleaningReport:
    """Remove islands rank by rank; success means nothing is left."""
    current = set(points)
    ranks: list[RankOutcome] = []
    for k, (a, b) in enumerate(schedule.pairs(), start=1):
        islands, oversize = find_islands(current, a, b, torus)
        removed = sum(len(i) for i in islands)
        for isl in islands:
            current -= isl
        ranks.append(
            RankOutcome(k, a, b, tuple(islands), tuple(oversize), removed, len(current))
        )
        if not current:
            break
    return CleaningReport(ranks, not current, frozenset(current))


def sample_bernoulli(
    width: int, height: int, epsilon: float, seed: int | Sequence[int]
) -> set[Point]:
    """Each cell of the width x height grid is dirty independently w.p. epsilon."""
    if not (0 <= epsilon <= 1):
        raise ValueError("epsilon must be a probability")
    rng = np.random.default_rng(seed)
    mask = rng.random((height, width)) < epsilon
    return {(int(x), int(y)) for y, x in np.argwhere(mask)}
