"""Closed-loop op runner, verdict judging and the end-to-end metric arithmetic.

An op is one query and its verdict.  Ops run one at a time: the next op is
issued only after the previous one has returned (a closed loop with one
client), so the benchmark has no arrival rate.  Each result is judged
against its known answer outside the op's timer.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# Verdicts a judged op can get.  Only "ok" is a success; "budget" covers
# timeout / inconclusive results and InconclusiveError, "raised" any other
# exception, "wrong" a verdict that contradicts the known answer.
OK, WRONG, BUDGET, RAISED = "ok", "wrong", "budget", "raised"

BUDGET_ERRORS = ("InconclusiveError",)


@dataclass(frozen=True)
class Op:
    """One query: its kind, the inputs handed to the program, its known answer."""

    kind: str
    args: tuple
    want: object
    once: bool = False  # issued in one pass only (see schedule)


# Op counts in the workloads' plans are given per this many seconds of run.
PLAN_SECONDS = 25


def per_run(count: int, seconds: int) -> int:
    """`count` ops per PLAN_SECONDS, scaled to a run of `seconds` (at least one)."""
    return max(1, round(count * seconds / PLAN_SECONDS))


def strata(items: list, k: int, rng) -> list:
    """One random item from each of k equal-width slices of items.

    Workloads draw costly inputs this way so that a run's total work stays
    steady across seeds while the inputs themselves change.
    """
    return [rng.choice(items[i * len(items) // k:(i + 1) * len(items) // k]) for i in range(k)]


def mirrored_pairs(items: list, pairs: int, rng) -> list:
    """Pairs (items[i], items[-1 - i]) with i drawn from each of `pairs` equal
    slices of the first half of items.

    Where an input's cost grows linearly along items (a walk's length along
    the block rows, say), every pair costs about the same, so a run's total
    work barely moves with the seed.
    """
    half = strata(list(range(len(items) // 2)), pairs, rng)
    return [items[j] for i in half for j in (i, len(items) - 1 - i)]


def interleave(ops: list[Op]) -> list[Op]:
    """Spread each kind's ops evenly over the run, keeping their order.

    The j-th of a kind's n ops lands at fraction (j + 1/2) / n of the run,
    so every kind samples the whole run: a few seconds of slow machine do
    not fall on one kind only.
    """
    kinds = list(dict.fromkeys(op.kind for op in ops))
    groups = {k: [op for op in ops if op.kind == k] for k in kinds}
    keyed = [((j + 0.5) / len(group), kinds.index(k), op)
             for k, group in groups.items() for j, op in enumerate(group)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


@dataclass
class Outcome:
    op: Op
    seconds: float
    verdict: str
    counts: dict
    slowdown: float = 1.0  # the host's, around the call (HostSpeed.slowdown)
    query: int = 0  # the op's index in the plan, shared by its repeats


# --- host speed ---------------------------------------------------------------
# The benchmark runs on a few cores of a shared host whose speed switches
# between a fast and a slow state (up to 1.8x apart) every one to a few
# seconds and drifts from one run to the next, with no change in the work
# (see NOTES.md, "Host speed").  A fixed piece of pure-Python work that does
# not touch tilebench is timed between ops about every SPEED_EVERY_S, and
# each time is reported at the speed at which that work takes
# REFERENCE_LOOP_S, about its median time on a 2-core x86 container with
# CPython 3.11 over the runs that set the benchmark's bounds.
REFERENCE_LOOP_S = 0.005
SPEED_EVERY_S = 0.05
_TABLE = {(i % 97, i % 89): i for i in range(4096)}


def reference_loop(n: int = 10_000) -> int:
    """Tuple keys, dict and list lookups, integer arithmetic: the kind of
    interpreter work tilebench's layers do, about 5 ms of it."""
    table, acc, row = _TABLE, 0, [0] * 64
    for i in range(n):
        v = table.get((i % 97, (i * 7) % 89), i)
        row[i & 63] = v
        acc = (acc + v * 31 + row[(i * 5) & 63]) & 0xFFFFFFFF
    return acc


class HostSpeed:
    """Timings of reference_loop taken over a run, and when each was taken."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.times: list[float] = []  # midpoints, on time.perf_counter's clock

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.times.append((t0 + t1) / 2)

    def poll(self) -> None:
        """Sample if SPEED_EVERY_S has passed since the last sample."""
        if not self.times or time.perf_counter() - self.times[-1] >= SPEED_EVERY_S:
            self.sample()

    def slowdown(self, t0: float, t1: float) -> float:
        """How much slower than the reference the host ran around a call
        from t0 to t1: the mean of the samples taken within the call's own
        length of it (at least SPEED_EVERY_S * 2), over REFERENCE_LOOP_S.

        A short call gets the few samples either side of it, which see the
        state it ran in; a long call spans several switches of state that
        no sample sees from inside, so it gets the mean over a stretch as
        long as itself on either side.
        """
        reach = max(2 * SPEED_EVERY_S, t1 - t0)
        lo = bisect.bisect_left(self.times, t0 - reach)
        hi = bisect.bisect_right(self.times, t1 + reach)
        near = self.samples[lo:hi]
        if not near:  # no sample close by: the nearest one
            i = min(bisect.bisect_left(self.times, t0), len(self.times) - 1)
            near = [self.samples[i]]
        return statistics.fmean(near) / REFERENCE_LOOP_S


def schedule(ops: list[Op], passes: int) -> list[tuple[int, Op]]:
    """(plan index, op) in issue order: the plan `passes` times over.

    Ops marked `once` are dealt out over the passes in plan order, so each
    is issued once and every pass carries a share of them; the others are
    issued once per pass, so an op's timings lie about a pass apart.
    """
    once = [i for i, op in enumerate(ops) if op.once]
    order = []
    for p in range(passes):
        mine = set(once[p::passes])
        order += [(i, op) for i, op in enumerate(ops) if not op.once or i in mine]
    return order


def run_ops(ctx, ops: list[Op], workload, tracer=None, speed: HostSpeed | None = None,
            passes: int = 1) -> tuple[list[Outcome], float]:
    """Issue the ops in `schedule` order; return the judged outcomes (one
    per call) and the summed wall time of the calls.

    Each result is judged as soon as it returns and then dropped, so the
    heap (and the garbage collector's work) does not grow with the run.
    With `speed`, the host's speed is sampled between calls and each
    outcome gets the host's slowdown around its call.
    """
    outcomes, spans = [], []
    clock = time.perf_counter
    for index, op in schedule(ops, passes):
        if speed is not None:
            speed.poll()
        if tracer is not None:
            tracer.begin_op(len(outcomes), op.kind)
        t0 = clock()
        try:
            result = workload.execute(ctx, op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            seconds = clock() - t0
            verdict = BUDGET if type(exc).__name__ in BUDGET_ERRORS else RAISED
            outcomes.append(Outcome(op, seconds, verdict, {}, query=index))
            spans.append((t0, t0 + seconds))
            continue
        seconds = clock() - t0
        spans.append((t0, t0 + seconds))
        if tracer is not None:
            tracer.begin_op(None, None)
        outcomes.append(Outcome(op, seconds, workload.judge(ctx, op, result),
                                workload.counts(op, result), query=index))
    if tracer is not None:
        tracer.begin_op(None, None)
    if speed is not None:
        speed.sample()
        for out, (t0, t1) in zip(outcomes, spans):
            out.slowdown = speed.slowdown(t0, t1)
    return outcomes, sum(o.seconds for o in outcomes)


def op_latencies(outcomes: list[Outcome], scaled: bool = True) -> list[float]:
    """Each op's latency in seconds: the median of its calls (one per
    pass), each divided by the host's slowdown around it unless `scaled` is
    false.  A short op's single timing carries the error of the slowdown
    estimate for its moment; the median of several, a pass apart, halves
    it."""
    calls: dict[int, list[float]] = defaultdict(list)
    for out in outcomes:
        calls[out.query].append(out.seconds / out.slowdown if scaled else out.seconds)
    return [statistics.median(ts) for ts in calls.values()]


def tally(outcomes: list[Outcome]) -> dict[str, int]:
    """Verdict counts per op kind, e.g. {"resident.ok": 75}."""
    return dict(sorted(Counter(f"{o.op.kind}.{o.verdict}" for o in outcomes).items()))


def exact_counts(outcomes: list[Outcome]) -> dict[str, int]:
    """Sum of the work counts the program reports in its results."""
    total: Counter = Counter()
    for out in outcomes:
        total.update(out.counts)
    return dict(sorted(total.items()))


def seconds_by_kind(outcomes: list[Outcome]) -> dict[str, float]:
    total: Counter = Counter()
    for out in outcomes:
        total[out.op.kind] += out.seconds
    return {k: round(v, 3) for k, v in sorted(total.items())}


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule: ceil(q*n) values lie at or below it."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def end_to_end(outcomes: list[Outcome], setup_samples: list[float], peak_rss_mb: float,
               scaled: bool = True) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics from the per-op latencies (`op_latencies`);
    `setup_samples` are taken as given."""
    seconds = op_latencies(outcomes, scaled)
    latencies_ms = [s * 1e3 for s in seconds]
    failed = sum(o.verdict != OK for o in outcomes)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "verdict_s": (sum(seconds), "s"),
        "op_p50_ms": (statistics.median(latencies_ms), "ms"),
        "op_p90_ms": (nearest_rank(latencies_ms, 0.9), "ms"),
        "decided_frac": ((len(outcomes) - failed) / len(outcomes), "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
