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
import operator
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


def _check_pairs(points: Sequence[Point]) -> None:
    """ValueError naming the first point that is not a pair of coordinates."""
    if set(map(len, points)) - {2}:
        bad = next(p for p in points if len(p) != 2)
        raise ValueError(f"point {bad} is not a pair")


def _check_torus(points: Sequence[Point], torus: tuple[int, int]) -> None:
    w, h = torus
    if w < 1 or h < 1:
        raise ValueError(f"torus sides must be positive, got {torus}")
    for x, y in points:
        if not (0 <= x < w and 0 <= y < h):
            raise ValueError(f"point {(x, y)} lies outside the torus {torus}")


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
    bisection (O(n log n) per axis).  Points must be pairs and lie inside
    the torus.
    """
    pts = list(points)
    _check_pairs(pts)
    if torus is not None:
        _check_torus(pts, torus)
    return _diameter(pts, torus)


# Candidate pairs are built and filtered at most this many at a time, so the
# sweep's working memory stays near 1 MB whatever the density and beta.
_BLOCK = 1 << 14
_INT64 = 2**63


def _coordinates(pts: list[Point], torus: tuple[int, int] | None) -> np.ndarray:
    """The points as an n x 2 int64 array.  ValueError names a point that is
    not a pair, one outside the torus (as ``_check_torus`` does) or one
    that does not fit in int64."""
    _check_pairs(pts)
    try:
        flat = itertools.chain.from_iterable(pts)
        xy = np.fromiter(flat, np.int64, 2 * len(pts)).reshape(-1, 2)
    except OverflowError:
        xy = None
    if torus is not None:
        last = [min(side - 1, _INT64 - 1) for side in torus]
        if xy is None or min(last) < 0 or not ((xy >= 0) & (xy <= last)).all():
            _check_torus(pts, torus)
    if xy is None:
        bad = next(p for p in pts if not all(-_INT64 <= v < _INT64 for v in p))
        raise ValueError(f"point {bad} does not fit in int64")
    return xy


def _links(xy: np.ndarray, beta: int, torus: tuple[int, int] | None):
    """Index pairs (i, j), i < j, of the points (sorted by x) at most beta
    apart, yielded as two index arrays per block of at most _BLOCK candidates.

    Each j's candidates are the points at most beta behind it in x and, on
    a torus of width w, the points at least w - beta behind it (across the
    wrap); the two windows do not overlap.  A candidate is kept when its y
    distance, cyclic on a torus, is at most beta too.  Distances are taken
    in uint64, where the difference of two int64 values is exact; a side of
    2**64 or more wraps no distance that beta does not already cover, so
    such an axis is swept as a line.
    """
    u64, top = np.uint64, 2**64 - 1
    w, h = (None, None) if torus is None else (s if s <= top else None for s in torus)
    reach = u64(min(beta, top))
    x, y = xy[:, 0], xy[:, 1]
    x = (x - x[0]).view(u64)
    index = np.arange(len(xy))
    rows = stops = index
    starts = x.searchsorted(x - np.minimum(x, reach))
    if w is not None and w > beta:
        back = u64(w - beta)  # x + back saturates at top, past every x
        wrap = (np.minimum(x, u64(top) - back) + back).searchsorted(x, "right")
        rows = np.concatenate((index, index))
        stops = np.concatenate((index, np.minimum(wrap, starts)))
        starts = np.concatenate((starts, np.zeros_like(index)))
    # candidate k is the k-th of all rows' ranges [starts, stops) laid end to end
    ends = (stops - starts).cumsum()
    total = int(ends[-1])
    for first in range(0, total, _BLOCK):
        k = np.arange(first, min(first + _BLOCK, total))
        r = ends.searchsorted(k, "right")
        i, j = k - ends[r] + stops[r], rows[r]
        yi, yj = y[i], y[j]
        d = np.maximum(yi, yj).view(u64) - np.minimum(yi, yj).view(u64)
        if h is not None:
            d = np.minimum(d, u64(h) - d)
        keep = (d <= reach).nonzero()
        yield i[keep], j[keep]


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
    second list, untouched.  Both lists are in order of their least point.

    Components come from one sweep over the points sorted by x: a binary
    search gives each point the earlier points within beta in x (and, on a
    torus, those within beta across the wrap), the candidate pairs are
    filtered by their y distance in vector blocks of bounded size, and a
    union-find joins the pairs that survive, each root its component's
    least point.  Only the points that some pair links go through the
    union-find and the diameter: a point no pair links is a component of its
    own, of diameter 0 <= alpha, so it is an island as it stands.  A torus
    less than 2 beta wide both ways has no two points more than beta apart:
    they form one component, found without a pair.
    Every point must be a pair, on a torus in [0, w) x [0, h), and every
    coordinate must fit in int64.
    """
    if not (0 < alpha <= beta):
        raise ValueError("need 0 < alpha <= beta")
    pts = sorted(set(points))
    xy = _coordinates(pts, torus)
    if torus is not None and torus[0] < 2 * beta and torus[1] < 2 * beta:
        # side < 2 beta on both axes, so every torus distance is at most
        # side // 2 < beta: all points form one component
        groups = {0: pts} if pts else {}
        lone = []
    else:
        parent = list(range(len(pts)))
        linked = np.zeros(len(pts), bool)

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        if len(pts) > 1:
            for ii, jj in _links(xy, beta, torus):
                linked[ii] = linked[jj] = True
                for i, j in zip(ii.tolist(), jj.tolist()):
                    ri, rj = find(i), find(j)
                    if ri < rj:
                        parent[rj] = ri
                    elif rj < ri:
                        parent[ri] = rj
        # a root is its component's least index, so the groups come out in
        # order of their least point
        groups: dict[int, list[Point]] = {}
        for i in np.flatnonzero(linked).tolist():
            groups.setdefault(find(i), []).append(pts[i])
        lone = np.flatnonzero(~linked).tolist()
    # islands are keyed by their least index, so that lone points and linked
    # groups merge in order of their least point
    islands = [(i, frozenset((pts[i],))) for i in lone]
    oversize: list[frozenset[Point]] = []
    for root, g in groups.items():
        if _diameter(g, torus) <= alpha:
            islands.append((root, frozenset(g)))
        else:
            oversize.append(frozenset(g))
    islands.sort(key=operator.itemgetter(0))
    return [g for _, g in islands], oversize


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
        # islands and oversize groups split the current set between them
        left = set().union(*oversize)
        ranks.append(RankOutcome(k, a, b, tuple(islands), tuple(oversize),
                                 len(current) - len(left), len(left)))
        current = left
        if not current:
            break
    return CleaningReport(ranks, not current, frozenset(current))


# Cells per band of sample_bernoulli's draw: 256 KB of doubles.
_BAND = 1 << 15


def sample_bernoulli(
    width: int, height: int, epsilon: float, seed: int | Sequence[int]
) -> set[Point]:
    """Each cell of the width x height grid is dirty independently w.p. epsilon.

    The cells are drawn in row-major order, in bands of at most _BAND cells
    (a few rows, or part of one) that reuse one buffer.  A Generator's
    doubles do not depend on how a draw is split, so each band holds the
    same doubles as its cells in ``rng.random((height, width))``, and every
    seed gives the same set as that whole-grid draw.  Besides the set it
    returns, the draw holds one band, 256 KB, where the whole grid would
    take 8 * width * height bytes (32 MB at 2048 x 2048).
    """
    if not (0 <= epsilon <= 1):
        raise ValueError("epsilon must be a probability")
    if width < 0 or height < 0:
        raise ValueError(f"grid sides must not be negative, got {width} x {height}")
    rng = np.random.default_rng(seed)
    cells = width * height
    band = np.empty(min(cells, _BAND))
    points: set[Point] = set()
    for first in range(0, cells, _BAND):
        draw = band[:cells - first]
        rng.random(out=draw)
        ys, xs = np.divmod(np.flatnonzero(draw < epsilon) + first, width)
        points.update(zip(xs.tolist(), ys.tolist()))
    return points
