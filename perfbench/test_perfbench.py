"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

They check that inputs follow the seed, that every known-answer check
rejects a deliberately wrong answer, and that tracing changes no verdict or
count and leaves no wrapper behind.  Runs use small subsets of each plan so
the file finishes in about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import fixpoint_audit  # noqa: E402
import harness  # noqa: E402
import island_sweep  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import window_solve  # noqa: E402
from harness import BUDGET, OK, WRONG, Op  # noqa: E402
from tilebench.islands import CleaningReport, RankOutcome  # noqa: E402

# Cheap op kinds per workload, enough to exercise every layer it touches.
SUBSETS = {
    fixpoint_audit: ("resident", "probe", "round_trip", "mutation"),
    window_solve: ("count", "periods", "robust", "correct", "simulate", "aperiodicity",
                   "besicovitch", "solve"),
    island_sweep: ("sparse",),
}


@pytest.fixture(scope="module")
def contexts():
    return {wl: wl.setup() for wl in SUBSETS}


def subset(wl, ops, per_kind=3):
    seen: dict[str, int] = {}
    out = []
    for op in ops:
        if op.kind in SUBSETS[wl] and seen.get(op.kind, 0) < per_kind:
            if op.kind == "solve" and op.args[0] > 20:
                continue  # wide windows take seconds
            seen[op.kind] = seen.get(op.kind, 0) + 1
            out.append(op)
    return out


def first_of(ops, kind, **where):
    return next(op for op in ops
                if op.kind == kind and all(getattr(op, k) == v for k, v in where.items()))


@pytest.mark.parametrize("wl", list(SUBSETS), ids=lambda wl: wl.NAME)
def test_one_seed_repeats_counts_and_tallies(contexts, wl):
    ctx = contexts[wl]
    ops = wl.plan(ctx, 7, 25)
    assert ops == wl.plan(ctx, 7, 25)
    assert len(ops) >= 100
    part = subset(wl, ops)
    a, _ = harness.run_ops(ctx, part, wl)
    b, _ = harness.run_ops(ctx, part, wl)
    assert harness.tally(a) == harness.tally(b)
    assert harness.exact_counts(a) == harness.exact_counts(b)
    assert all(o.verdict == OK for o in a)


@pytest.mark.parametrize("wl", list(SUBSETS), ids=lambda wl: wl.NAME)
def test_another_seed_gives_other_inputs(contexts, wl):
    ctx = contexts[wl]
    assert wl.plan(ctx, 7, 25) != wl.plan(ctx, 8, 25)


@pytest.mark.parametrize("wl", list(SUBSETS), ids=lambda wl: wl.NAME)
def test_tracing_changes_nothing_and_is_removed(contexts, wl):
    ctx = contexts[wl]
    part = subset(wl, wl.plan(ctx, 3, 25), per_kind=2)
    before = tracing.originals()
    plain, _ = harness.run_ops(ctx, part, wl)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = harness.run_ops(ctx, part, wl, tracer)
    finally:
        tracer.uninstall()
    assert tracing.originals() == before
    assert harness.tally(plain) == harness.tally(traced)
    assert harness.exact_counts(plain) == harness.exact_counts(traced)
    assert tracer.spans and all(s["op"] is not None for s in tracer.spans)
    metrics = tracing.layer_metrics(tracer.spans, 1.0, 1.0)
    layer = {fixpoint_audit: "machine.steps", window_solve: "solver.nodes",
             island_sweep: "islands.points"}[wl]
    assert metrics[layer][0] > 0


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "a", "op": 0, "kind": None, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "b", "op": 0, "kind": None, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "c", "op": 0, "kind": None, "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "name": "d", "op": 0, "kind": None, "parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_host_slowdown_scales_each_call_by_the_samples_around_it():
    ref, every = harness.REFERENCE_LOOP_S, harness.SPEED_EVERY_S

    class Quick:
        execute = staticmethod(lambda ctx, op: None)
        judge = staticmethod(lambda ctx, op, result: OK)
        counts = staticmethod(lambda op, result: {})

    speed = harness.HostSpeed()
    outcomes, _ = harness.run_ops(None, [Op("k", (i,), None) for i in range(3)], Quick,
                                  speed=speed)
    # the first poll samples; the calls are quick, so the only other sample
    # is the one taken after the last op
    assert len(speed.samples) == 2 and all(o.slowdown > 0 for o in outcomes)
    speed.samples, speed.times = [2 * ref, 4 * ref, 9 * ref], [0.0, 10.0, 100.0]
    # a short call sees the samples within 2 * SPEED_EVERY_S of it
    assert speed.slowdown(10.0 + every, 10.0 + every) == pytest.approx(4.0)
    assert speed.slowdown(5.0, 5.0) == pytest.approx(4.0)  # none near: the next one
    # a call of 10 s reaches 10 s either side
    assert speed.slowdown(0.0, 10.0) == pytest.approx(3.0)
    out = [harness.Outcome(Op("k", (), None), 0.2, OK, {}, slowdown=2.0, query=0),
           harness.Outcome(Op("k", (), None), 0.6, OK, {}, slowdown=3.0, query=1)]
    m = harness.end_to_end(out, [1.0], 5.0)
    assert m["verdict_s"][0] == pytest.approx(0.3)
    assert m["op_p50_ms"][0] == pytest.approx(150.0)
    assert m["setup_s"][0] == 1.0 and m["peak_rss_mb"][0] == 5.0
    assert harness.end_to_end(out, [1.0], 5.0, scaled=False)["verdict_s"][0] == pytest.approx(0.8)


def test_passes_issue_once_ops_once_and_keep_the_median_scaled_timing():
    class Echo:
        execute = staticmethod(lambda ctx, op: op.args)
        judge = staticmethod(lambda ctx, op, result: OK)
        counts = staticmethod(lambda op, result: {"calls": 1})

    short, long_ = Op("short", (1,), None), Op("long", (2,), None, once=True)
    outcomes, _ = harness.run_ops(None, [short, long_], Echo, passes=3)
    assert [(o.op.kind, o.query) for o in outcomes] == [
        ("short", 0), ("long", 1), ("short", 0), ("short", 0)]
    timed = [harness.Outcome(short, s, OK, {}, slowdown=d, query=0)
             for s, d in ((0.3, 1.0), (0.1, 0.5), (0.2, 1.0))]
    timed.append(harness.Outcome(long_, 0.5, OK, {}, query=1))
    # scaled calls 0.3, 0.2, 0.2 s; raw 0.3, 0.1, 0.2 s
    assert harness.op_latencies(timed) == pytest.approx([0.2, 0.5])
    assert harness.op_latencies(timed, scaled=False) == pytest.approx([0.2, 0.5])
    timed[0].seconds = 0.1
    assert harness.op_latencies(timed, scaled=False) == pytest.approx([0.1, 0.5])
    m = harness.end_to_end(timed, [1.0], 1.0)
    assert (m["op_p50_ms"][0], m["op_p90_ms"][0]) == pytest.approx((350.0, 500.0))
    assert m["verdict_s"][0] == pytest.approx(0.7)


# --- every known-answer check rejects a wrong answer ---------------------------


def test_fixpoint_checks_reject_wrong_answers(contexts):
    ctx = contexts[fixpoint_audit]
    ops = fixpoint_audit.plan(ctx, 5, 25)
    judge = fixpoint_audit.judge

    def verdict(op, result):
        return judge(ctx, op, result)

    resident = first_of(ops, "resident")
    assert verdict(resident, ("accepted", 730)) == OK
    assert verdict(resident, ("stuck", 730)) == WRONG
    assert verdict(resident, ("timeout", 4_000_000)) == BUDGET
    # The benchmark's membership reasoning is cross-checked against the set.
    assert verdict(dataclasses.replace(resident, want=False), ("stuck", 8)) == WRONG
    rejected = first_of(ops, "probe", want=False)
    assert verdict(rejected, ("stuck", 8)) == OK
    assert verdict(rejected, ("accepted", 730)) == WRONG
    sibling = first_of(ops, "probe", want=True)
    assert verdict(sibling, ("stuck", 8)) == WRONG
    block = first_of(ops, "block_probe")
    assert verdict(block, ("accepted", 10)) == WRONG
    worst = first_of(ops, "worst_walk")
    steps = reference.ANCHORS["worst_walk_steps"]
    assert verdict(worst, ("accepted", steps)) == OK
    assert verdict(worst, ("accepted", steps + 1)) == WRONG
    mutation = first_of(ops, "mutation")
    assert verdict(mutation, ("stuck", 9)) == OK
    assert verdict(mutation, ("accepted", 9)) == WRONG
    assert verdict(mutation, ("timeout", 9)) == BUDGET  # never a catch
    utm_accept = first_of(ops, "utm", want=True)
    assert verdict(utm_accept, ("accepted", 730, "accepted", 1)) == OK
    assert verdict(utm_accept, ("accepted", 730, "stuck", 1)) == WRONG
    assert verdict(utm_accept, ("accepted", 730, "timeout", 1)) == BUDGET
    utm_reject = first_of(ops, "utm", want=False)
    assert verdict(utm_reject, ("stuck", 8, "accepted", 1)) == WRONG
    trip = first_of(ops, "round_trip")
    quad = trip.args[0]
    assert verdict(trip, (0, quad)) == OK
    assert verdict(trip, (1, quad)) == WRONG
    assert verdict(trip, (0, quad[::-1])) == WRONG


def test_fixpoint_mix_follows_certificate_defaults(contexts):
    ops = fixpoint_audit.plan(contexts[fixpoint_audit], 5, 25)
    n = fixpoint_audit.kind_counts(25)
    got = {kind: sum(op.kind == kind for op in ops) for kind in n}
    got["utm_reject"] = sum(op.kind == "utm" and not op.want for op in ops)
    for kind in ("resident", "probe", "utm_reject", "round_trip"):
        assert got[kind] == n[kind], kind
    for kind in ("walk", "block_probe", "mutation"):  # mirrored pairs
        assert got[kind] == 2 * fixpoint_audit.pairs(n[kind]), kind
    # proportional to the audit: residents per walk as in certificate()
    audit = fixpoint_audit.AUDIT
    assert abs(n["resident"] / n["walk"] - audit["resident"] / audit["walk"]) < 60


def test_window_checks_reject_wrong_answers(contexts):
    ctx = contexts[window_solve]
    ops = window_solve.plan(ctx, 5, 25)
    results = {}
    for kind in ("solve", "count", "periods", "robust", "correct", "simulate",
                 "aperiodicity", "besicovitch"):
        op = next(o for o in ops if o.kind == kind and (kind != "solve" or o.args[0] < 16))
        results[kind] = (op, window_solve.execute(ctx, op))
        assert window_solve.judge(ctx, *results[kind]) == OK, kind

    def wrong(kind, result):
        return window_solve.judge(ctx, results[kind][0], result)

    op, r = results["solve"]
    cells = [list(row) for row in r.patch.cells]
    cells[0][0] = (cells[0][0] + 1) % len(ctx.compiled.tile_set.tiles)
    broken = type(r.patch)(r.patch.width, r.patch.height, cells)
    assert wrong("solve", dataclasses.replace(r, patch=broken)) == WRONG
    assert wrong("solve", dataclasses.replace(r, status="unsatisfiable", patch=None)) == WRONG
    assert wrong("solve", dataclasses.replace(r, status="inconclusive")) == BUDGET
    pinned = Op("solve", (32, 32), reference.ANCHORS["compiled_chessboard_32x32_nodes"])
    assert window_solve.judge(ctx, pinned, dataclasses.replace(r, nodes=1)) == WRONG
    _, r = results["count"]
    assert wrong("count", dataclasses.replace(r, count=r.count + 1)) == WRONG
    _, r = results["periods"]
    assert wrong("periods", set(list(r)[1:])) == WRONG
    assert wrong("robust", "not_robust") == WRONG
    _, r = results["correct"]
    hole = r.patch.replaced({(0, 0): -1})
    assert wrong("correct", dataclasses.replace(r, patch=hole)) == WRONG
    assert wrong("correct", dataclasses.replace(r, status="failed")) == WRONG
    assert wrong("simulate", "refuted" if results["simulate"][1] == "verified"
                 else "verified") == WRONG
    assert wrong("simulate", "inconclusive") == BUDGET
    _, r = results["aperiodicity"]
    assert wrong("aperiodicity", [f + 1e-3 for f in r]) == WRONG
    _, r = results["besicovitch"]
    flipped = tuple(1.0 - f for f in r.fractions)
    assert wrong("besicovitch", dataclasses.replace(r, fractions=flipped)) == WRONG


def test_island_checks_reject_wrong_answers(contexts):
    schedule = contexts[island_sweep]
    op = Op("sparse", (1e-3, 12), None)
    points, report = island_sweep.execute(schedule, op)
    assert island_sweep.judge(schedule, op, (points, report)) == OK
    assert island_sweep.judge(schedule, op, (set(list(points)[:5]), report)) == WRONG
    flag = dataclasses.replace(report, success=not report.success)
    assert island_sweep.judge(schedule, op, (points, flag)) == WRONG

    alpha, beta = schedule.alphas[0], schedule.betas[0]

    def one_rank(islands, removed=None, residual=frozenset()):
        removed = sum(map(len, islands)) if removed is None else removed
        rank = RankOutcome(1, alpha, beta, tuple(map(frozenset, islands)), (), removed,
                           len(residual))
        return CleaningReport([rank], not residual, frozenset(residual))

    def errors(points, report):
        return reference.cleaning_errors(set(points), report, island_sweep.TORUS)

    good = [{(0, 0)}, {(100, 100)}, {(300, 300)}]
    assert errors(set().union(*good), one_rank(good)) == []
    # wider than alpha
    assert errors({(0, 0), (5, 0)}, one_rank([{(0, 0), (5, 0)}]))
    # another point within beta, also across the torus seam
    assert errors({(0, 0), (2, 0)}, one_rank([{(0, 0)}, {(2, 0)}]))
    assert errors({(0, 0), (511, 0)}, one_rank([{(0, 0)}, {(511, 0)}]))
    # a valid island left behind as oversize, or everything left as oversize
    def kept(islands, oversize):
        rank = RankOutcome(1, alpha, beta, tuple(map(frozenset, islands)),
                           tuple(map(frozenset, oversize)), sum(map(len, islands)),
                           sum(map(len, oversize)))
        residual = frozenset().union(*map(frozenset, oversize))
        return CleaningReport([rank], not residual, residual)

    assert errors(set().union(*good), kept(good[:2], good[2:]))
    assert errors(set().union(*good), kept([], good))
    wide = [{(0, 0), (2, 0)}, {(200, 200)}]  # (0, 0)-(2, 0) is one component, too wide
    assert errors(set().union(*wide), kept(wide[1:], wide[:1])) == []
    assert errors(set().union(*wide), kept([{(0, 0)}, {(200, 200)}], [{(2, 0)}]))
    # removed + remaining must equal the input
    assert errors(set().union(*good), one_rank(good, removed=2))
    assert errors(set().union(*good) | {(400, 10)}, one_rank(good))


def test_thue_morse_count_formula_matches_hand_table():
    for (w, h), want in reference.COUNT_TABLE.items():
        assert reference.thue_morse_window_count(w, h) == want


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    e2e = harness.end_to_end([harness.Outcome(Op("k", (), None), 0.1, OK, {})], [1.0], 1.0)
    assert [m["name"] for m in bench["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in bench["end_to_end"]] == [u for _, u in e2e.values()]
    layers = tracing.layer_metrics([], 1.0, 1.0)
    assert [m["name"] for m in bench["per_layer"]] == list(layers)
    assert [m["unit"] for m in bench["per_layer"]] == [u for _, u in layers.values()]
