"""island-sweep: seeded Monte Carlo island cleaning on 512 x 512 tori.

Each op is one trial: ``sample_bernoulli`` then ``clean`` with the schedule
``make_schedule(2, 1, 3)``.  It is the only workload dominated by
``tilebench.islands``, whose proximity search compares all pairs of points.
Sparse trials (epsilon = 1e-3, ~260 points) are dominated by sampling and
per-call overhead and set the median op; mid trials (3e-3, ~790 points) set
the 90th percentile; dense trials (1e-2, ~2,600 points) carry most of the
quadratic search and of the total time.
"""

from __future__ import annotations

import math
import random

import tilebench.islands as islands
from harness import OK, WRONG, Op, interleave, per_run
from reference import ANCHORS, cleaning_errors

NAME = "island-sweep"
# Every op is issued once (see fixpoint_audit.PASSES).
PASSES = 1
SIDE = 512
TORUS = (SIDE, SIDE)
# (op kind, epsilon, trials per 25 s of run).  Criterion 10 runs 100
# sparse trials; the ROADMAP baseline times clean at all three densities.
# Sparse trials are the majority, as in criterion 10, and the three dense
# trials, whose all-pairs search a bucketed find_islands would cut, make
# about half of verdict_s (see NOTES.md, "Workloads and op mix").
MIX = (("sparse", 1e-3, 100), ("mid", 3e-3, 26), ("dense", 1e-2, 3))


def setup() -> islands.Schedule:
    return islands.make_schedule(2, 1, 3)


def anchors(schedule) -> dict[str, tuple]:
    return {
        "schedule_alphas": (schedule.alphas, ANCHORS["schedule_alphas"]),
        "schedule_betas": (schedule.betas, ANCHORS["schedule_betas"]),
    }


def plan(schedule, seed: int, seconds: int) -> list[Op]:
    rng = random.Random(f"{NAME}/{seed}")
    ops = []
    for kind, epsilon, count in MIX:
        for _ in range(per_run(count, seconds)):
            ops.append(Op(kind, (epsilon, rng.getrandbits(63)), None))
    return interleave(ops)


def execute(schedule, op: Op):
    epsilon, trial_seed = op.args
    points = islands.sample_bernoulli(SIDE, SIDE, epsilon, trial_seed)
    return points, islands.clean(points, schedule, torus=TORUS)


def judge(schedule, op: Op, result) -> str:
    points, report = result
    epsilon = op.args[0]
    # The sample must be a set of grid cells whose size is plausible for
    # the Bernoulli rate (eight standard deviations either side).
    mean = epsilon * SIDE * SIDE
    if abs(len(points) - mean) > 8 * math.sqrt(mean) + 1:
        return WRONG
    if not all(0 <= x < SIDE and 0 <= y < SIDE for x, y in points):
        return WRONG
    if [(r.alpha, r.beta) for r in report.ranks] != schedule.pairs()[:len(report.ranks)]:
        return WRONG
    # Cleaning stops early only once nothing is left.
    if report.residual and len(report.ranks) != len(schedule):
        return WRONG
    return OK if not cleaning_errors(points, report, TORUS) else WRONG


def counts(op: Op, result) -> dict[str, int]:
    points, report = result
    out = {"islands.points": len(points), "islands.residual": len(report.residual)}
    for r in report.ranks:
        out[f"islands.removed.rank{r.rank}"] = r.removed
    return out
