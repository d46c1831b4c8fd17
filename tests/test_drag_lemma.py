"""The drag lemma and composed checker runs.

A walking tile's checker run drags a binary counter one cell right per
decrement (``build_checker``'s ``walker``); ``run_checker`` steps the
lemma's machine, the checker without its four drag-entry rules, and
``FixedPointSet.drag`` takes each of those steps, jumping the drag when
it can.  A composed run must be exactly a direct one: the tests below
compare status, steps, state, head and the whole tape (so its length too)
with runs of the whole checker without the lemma, and check the lemma
itself against a direct descent through every counter value.
"""

import dataclasses
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilebench.compiler import CompileError, fixedpoint
from tilebench.compiler.fixedpoint import (
    ANCHOR,
    SYM_B,
    SYM_M,
    SYM_O,
    SYM_Z,
    build_checker,
    certificate,
    checker_budget,
    checker_tape,
    drag_lemma,
    mutation_trials,
    pack_record,
    run_checker,
    unpack_record,
    walks,
)
from tilebench.machine import (
    COND_ANY as ANY,
    COND_TRACK1 as T1,
    LEFT,
    RIGHT,
    STAY,
    Rules,
    Run,
    encode_program,
    run_machine,
)

FAMILIES = ("lt_h0", "lt_h1", "lb_h0", "lb_h1")


def rows_of(machine):
    """The machine's rules as ``Rules.of`` rows, in priority order."""
    return list(zip(*machine.transitions.columns()))


@pytest.fixture(scope="module")
def names(fp):
    return build_checker(fp.n)[1]


def outcome(res):
    return res.status, res.steps, res.state, res.head, res.cells


def member(fp, x, y):
    """The tile at (x, y) with its pinned vals and free vals 0."""
    def vert(row):
        return fp.padded[fp.fold(x, row)] if row in fp.band else 0

    return fp.edge_records(x, y, 0, 0, vert((y + 1) % fp.size), vert(y))


def at_fold(fp, fold):
    """The cell whose bottom edge carries program bit ``fold``."""
    return fold % fp.size, fp.size // 4 + fold // fp.size


def flipped(fp, quad):
    """A block probe: the quad with its bottom val flipped."""
    quad = list(quad)
    i, j, v = unpack_record(fp.n, quad[3])
    quad[3] = pack_record(fp.n, i, j, 1 - v)
    return tuple(quad)


class Spy:
    """Wraps a lemma, machine and all, and logs each call as (steps before,
    steps after, jumped): a jump takes more than the one entry step."""

    def __init__(self, lemma):
        self.lemma, self.machine, self.log = lemma, lemma.machine, []

    def __call__(self, run, max_steps):
        before = run.steps
        took = self.lemma(run, max_steps)
        self.log.append((before, run.steps, run.steps - before > 1))
        return took

    @property
    def jumps(self):
        return sum(jumped for *_, jumped in self.log)


def same_as_direct(fp, quad, *, track=None, max_steps=None, spy=None, jumps=True):
    """The composed run of quad, checked against a direct run of the whole
    checker (on the set's budget unless max_steps is given).  A walking
    quad's run that ends within its budget must have gone through the
    lemma, and jumped a drag unless ``jumps`` is False (every drag empty)."""
    tape = checker_tape(fp.n, *quad)
    kw = {"track": fp.track_bits if track is None else track,
          "max_steps": fp.budget if max_steps is None else max_steps}
    spy = spy or Spy(fp.drag)
    got = run_machine(spy.machine, tape, macro=spy, **kw)
    assert outcome(got) == outcome(run_machine(fp.machine, tape, **kw)), quad
    x, y, _ = unpack_record(fp.n, quad[0])
    if walks(fp, x, y) and got.status != "timeout":
        assert spy.log and (spy.jumps or not jumps), quad
    return got


def jumped(fp, quad, track):
    """The composed run of quad on track, without a direct run to check it
    against; it must have jumped a drag."""
    spy = Spy(fp.drag)
    got = run_machine(spy.machine, checker_tape(fp.n, *quad), track=track,
                      max_steps=fp.budget, macro=spy)
    assert spy.jumps, quad
    return got


# --- composed runs against direct runs ------------------------------------------


def test_lemma_covers_every_family(fp, names):
    assert sorted(names[q] for q in fp.drag.entries) == sorted(FAMILIES)
    for entry, (dec, costs) in fp.drag.entries.items():
        assert costs == tuple(37 + 2 * k for k in range(16))  # 4n + 5 + 2k at n = 8
        assert names[dec] == names[entry].replace("_h", "_dec")


@pytest.mark.parametrize("n", [8, 9])
def test_lemma_machine_lacks_exactly_the_entry_rules(n):
    # the checker, rule for rule in order, but for each family's h on M
    machine, names = build_checker(n)
    lemma = drag_lemma(machine, names, 2 * n)
    rows = rows_of(machine)
    entries = [t for t in rows if t[0] in lemma.entries and t[1] == SYM_M]
    assert sorted(names[t[0]] for t in entries) == sorted(FAMILIES)
    for q, _, track, q2, write, move in entries:
        assert (track, q2, write, move) == (ANY, lemma.entries[q][0], SYM_M, RIGHT)
    assert lemma.machine == dataclasses.replace(
        machine, transitions=Rules.of(t for t in rows if t not in entries))


def test_first_last_and_carry_folds(fp):
    last = fp.capacity - 1
    folds = {0, last} | {f for k in range(16) for f in (2**k - 1, 2**k)}
    pinned, steps = set(), []
    for fold in sorted(folds):
        x, y = at_fold(fp, fold)
        quad = member(fp, x, y)
        assert walks(fp, x, y)
        r = same_as_direct(fp, quad)
        assert r.status == "accepted"
        pinned.add(fp.padded[fold])
        steps.append(r.steps)
    assert pinned == {0, 1}  # both pinned bit values, so both b families
    assert max(steps) <= fp.budget
    # top-edge walks only (row N/4 - 1, an empty drag from fold 0) and
    # bottom-edge walks only (row N - 33)
    assert same_as_direct(fp, member(fp, 0, fp.size // 4 - 1), jumps=False).status == "accepted"
    assert same_as_direct(fp, member(fp, 255, fp.size - 33)).status == "accepted"


def test_worst_walk_agrees(fp):
    r = same_as_direct(fp, member(fp, 255, 222))
    assert (r.status, r.steps) == ("accepted", 3_244_140)
    assert outcome(run_checker(fp, member(fp, 255, 222))) == outcome(r)
    assert r.steps <= fp.budget <= 2.5 * r.steps
    assert fp.budget == 6_904_188
    # run_checker runs within the set's budget, whatever it is
    short = dataclasses.replace(fp, budget=r.steps - 1)
    assert run_checker(short, member(fp, 255, 222)).status == "timeout"


def test_second_zoom_walks_fit_the_derived_budget():
    # the n=9 checker, its program, lemma and track, without the 264,196
    # tiles that build_fixed_point(512) enumerates; (511, 478) walks both
    # edges, the top one from the last fold, and needs about 5x the steps
    # of the worst N=256 walk
    n, size = 9, 512
    machine, names = build_checker(n)
    program = encode_program(machine, state_bits=9)
    band = range(size // 4, size - 32)
    padded = program + [0] * (size * len(band) - len(program))
    track = bytes(ANCHOR + 1 + 2 * n) + bytes(padded)
    lemma = drag_lemma(machine, names, 2 * n)
    budget = checker_budget(n, size, lemma)

    def vert(x, row):
        return padded[x + size * (row - size // 4)] if row in band else 0

    steps, jumps = {}, {}
    for x, y in ((511, 478), (511, 128), (0, 127)):
        quad = (pack_record(n, x, y, 0), pack_record(n, (x + 1) % size, y, 0),
                pack_record(n, x, y + 1, vert(x, y + 1)), pack_record(n, x, y, vert(x, y)))
        spy = Spy(lemma)
        r = run_machine(spy.machine, checker_tape(n, *quad), track=track, max_steps=budget,
                        macro=spy)
        assert r.status == "accepted", (x, y)
        steps[x, y], jumps[x, y] = r.steps, (len(spy.log), spy.jumps)
    # (calls to the lemma, jumps): (0, 127)'s one drag, from fold 0, is empty
    assert jumps == {(511, 478): (2, 2), (511, 128): (2, 2), (0, 127): (1, 0)}
    assert steps[511, 478] == 15_677_856
    assert budget <= 2.5 * steps[511, 478]
    assert budget == 33_186_352


def head_turns(fp, quad):
    """How often the head of quad's checker run turns, one step at a time
    but for the drags, each jumped and taken as one move right."""
    run = Run(fp.drag.machine, checker_tape(fp.n, *quad), track=fp.track_bits)
    moves, status = [], "timeout"
    while status == "timeout":
        head = run.head
        status = "timeout" if fp.drag(run, fp.budget) else run.go(run.steps + 1)
        if run.head != head:
            moves.append(run.head > head)
    return sum(a != b for a, b in zip(moves, moves[1:]))


def test_head_turns_as_the_budget_counts_them(fp):
    # checker_budget's 8n + 25 turns outside the drags: reached by a tile
    # off both seams that walks twice, and not passed by seam tiles, tiles
    # that walk once or not at all, or a block probe
    worst = 8 * fp.n + 25
    assert head_turns(fp, member(fp, 100, 100)) == worst
    for x, y in ((255, 222), (0, 100), (5, 3), (0, fp.size // 4 - 1)):
        assert head_turns(fp, member(fp, x, y)) < worst
    assert head_turns(fp, flipped(fp, member(fp, 100, 100))) <= worst


def test_budget_needs_every_family(fp):
    partial = dataclasses.replace(fp.drag, entries=dict(list(fp.drag.entries.items())[:3]))
    with pytest.raises(CompileError):
        checker_budget(fp.n, fp.size, partial)


def doctored(fp, names, case):
    """The checker with rules put in front of the lt_*0 family's, each
    breaking one check that ``_decrement_costs`` makes before the family
    gets an entry, and one more state, which only "costs" uses: there a
    decrement takes one more step when an M sits left of the block."""
    q = {name: names.index(f"lt_{name}0") for name in ("h", "dec", "ret", "n", "sh")}
    extra = fp.machine.states
    rules = {
        "track": [(q["ret"], SYM_O, T1, q["ret"], SYM_Z, LEFT)],
        "entry": [(q["h"], SYM_M, ANY, q["dec"], SYM_M, STAY)],
        "place": [(q["n"], SYM_B, ANY, q["dec"], SYM_B, STAY)],
        "costs": [(q["ret"], SYM_M, ANY, extra, SYM_M, STAY),
                  (extra, SYM_M, ANY, q["sh"], SYM_M, RIGHT)],
    }[case]
    return dataclasses.replace(fp.machine, states=extra + 1,
                               transitions=Rules.of([*rules, *rows_of(fp.machine)]))


@pytest.mark.parametrize("case", ["track", "entry", "place", "costs"])
def test_each_proof_obligation_can_fail(fp, names, case):
    # a body rule that reads the track; an entry on M that does not step
    # right into dec; a decrement that ends a cell short of where it
    # should; a decrement whose cost depends on the cells around the block
    machine = doctored(fp, names, case)
    lemma = drag_lemma(machine, names, 2 * fp.n)
    assert sorted(names[e] for e in lemma.entries) == ["lb_h0", "lb_h1", "lt_h1"]
    # the unmeasured family keeps its entry rule, so its drags are stepped
    assert len(lemma.machine.transitions) == len(machine.transitions) - 3
    with pytest.raises(CompileError):
        checker_budget(fp.n, fp.size, lemma)


def test_random_walkers_and_block_probes(fp):
    rng = random.Random(20261018)
    rows = [y for y in range(fp.size) if walks(fp, 0, y)]
    for _ in range(3):
        x, y = rng.randrange(fp.size), rng.choice(rows)
        assert same_as_direct(fp, member(fp, x, y)).status == "accepted"
    for _ in range(3):
        x, y = rng.randrange(fp.size), rng.choice(list(fp.band))
        r = same_as_direct(fp, flipped(fp, member(fp, x, y)))
        # stuck on the sentinel over the disputed track bit
        assert (r.status, r.head) == ("stuck", fp.track_offset + fp.fold(x, y))


def test_mutated_tracks_and_their_control(fp):
    # the draws and the controls of mutation_trials(fp, seed=20260816): each
    # control is the mutant's row neighbour and walks too.  Every run is
    # composed and must jump a drag; only the first control is also run
    # direct, which steps each drag cell by cell (the tests above already
    # hold walks and block probes to direct runs)
    rng = random.Random(20260816)
    for k, bit in enumerate(rng.sample(range(len(fp.program)), 3)):
        mutated = bytearray(fp.track())
        mutated[fp.track_offset + bit] ^= 1
        x, y = at_fold(fp, bit)
        control = member(fp, x + 1 if x < fp.size - 1 else x - 1, y)
        assert walks(fp, x, y)
        assert jumped(fp, member(fp, x, y), mutated).status == "stuck"
        run = same_as_direct(fp, control, track=mutated) if k == 0 else jumped(fp, control, mutated)
        assert run.status == "accepted"


def test_budgets_around_each_drag(fp):
    # a tile that walks both edges: budgets one step before, at, one step
    # after and inside each drag (where the jump does not fit and the run
    # steps on), and around the end of each drag
    spy = Spy(fp.drag)
    quad = member(fp, 5, 70)
    full = same_as_direct(fp, quad, spy=spy)
    drags = [(before, after) for before, after, jumped in spy.log if jumped]
    assert len(drags) == 2 and full.status == "accepted"
    for start, end in drags:
        for budget in (start - 1, start, start + 1, start + 2, (start + end) // 2,
                       end - 1, end, end + 1):
            assert same_as_direct(fp, quad, max_steps=budget).status == "timeout"
    assert same_as_direct(fp, quad, max_steps=full.steps).status == "accepted"
    assert same_as_direct(fp, quad, max_steps=full.steps - 1).status == "timeout"


def test_preconditions_that_fail_on_real_tapes(fp):
    quad = member(fp, 40, 64)  # drags 40 and 296 cells
    tape = checker_tape(fp.n, *quad)
    # a mark in the drag's way: the lemma takes the entry step alone, and
    # the decrement that meets the mark is stuck
    blocked = tape + bytes([SYM_B] * 30 + [SYM_Z])
    kw = {"track": fp.track_bits, "max_steps": fp.budget}
    spy = Spy(fp.drag)
    got = run_machine(spy.machine, blocked, macro=spy, **kw)
    assert outcome(got) == outcome(run_machine(fp.machine, blocked, **kw))
    assert got.status == "stuck"
    # the entry step, then the stop at the mark, which the lemma leaves alone
    assert [(after - before, jumped) for before, after, jumped in spy.log] == [
        (1, False), (0, False)]


def entered(machine, names, family):
    """machine with a new start state that crosses blanks and enters
    ``family`` on the first M; on the lemma's machine that entry is stuck."""
    cross = machine.states
    return dataclasses.replace(machine, states=cross + 1, start=cross, transitions=Rules.of([
        (cross, SYM_B, ANY, cross, SYM_B, RIGHT),
        (cross, SYM_M, ANY, names.index(family), SYM_M, STAY),
        *rows_of(machine)]))


MALFORMED = {  # tapes after the anchor M whose drag the lemma does not jump
    "a blank in the block": [SYM_B] + [SYM_Z] * 15 + [SYM_M, SYM_B],
    "a mark in the block": [SYM_M] + [SYM_Z] * 15 + [SYM_M, SYM_B],
    "not closed by M": [SYM_O] + [SYM_Z] * 15 + [SYM_Z, SYM_B],
    "closed by the tape's end": [SYM_O] + [SYM_Z] * 15,
    "a mark where the block moves": [SYM_O] + [SYM_Z] * 15 + [SYM_M, SYM_O],
    "no block": [],
}


def test_lemma_declines_malformed_blocks(fp, names):
    # the lemma takes the entry step alone: the M stays, the head moves
    # right into dec (onto a new blank when the M is the tape's last cell)
    entry, dec = names.index("lt_h0"), names.index("lt_dec0")
    composed, direct = entered(fp.drag.machine, names, "lt_h0"), entered(fp.machine, names, "lt_h0")
    for case, after in MALFORMED.items():
        cells = [SYM_M] + after
        run = Run(fp.drag.machine, cells, state=entry)
        assert fp.drag(run, fp.budget), case
        assert (run.state, run.head, run.steps) == (dec, 1, 1), case
        assert bytes(run.cells) == bytes(cells if after else cells + [SYM_B]), case
        # and a run through it ends as a direct run does
        tape = [SYM_B, SYM_B] + cells
        assert outcome(run_machine(composed, tape, max_steps=fp.budget, macro=fp.drag)) == outcome(
            run_machine(direct, tape, max_steps=fp.budget)), case


def test_lemma_leaves_other_stops_alone(fp, names):
    entry = names.index("lt_h0")
    counter = [SYM_O] + [SYM_Z] * (2 * fp.n - 1)  # the value 1

    def declines(cells, *, state=entry):
        run = Run(fp.drag.machine, cells, state=state)
        before = (run.state, run.head, run.steps, bytes(run.cells))
        assert not fp.drag(run, fp.budget)
        assert (run.state, run.head, run.steps, bytes(run.cells)) == before

    declines([SYM_B] + counter + [SYM_M, SYM_B])  # the entry reads no M
    declines([SYM_M] + counter + [SYM_M, SYM_B], state=names.index("lt_g0"))
    # a jump that does not fit the budget is one step; one that fits is whole
    run = Run(fp.drag.machine, [SYM_M] + counter + [SYM_M, SYM_B], state=entry)
    assert fp.drag(run, 37) and (run.steps, run.head) == (1, 1)  # 1 + 37 steps
    run = Run(fp.drag.machine, [SYM_M] + counter + [SYM_M, SYM_B], state=entry)
    assert fp.drag(run, 38) and (run.steps, run.head) == (38, 2)


@st.composite
def synthetic_drags(draw):
    """A walker family's entry on an anchor M with a small counter after it,
    now and then with a block cell, its closing mark or a cell in its way
    broken, a short tape, a budget that ends the run anywhere, a track."""
    family = draw(st.sampled_from(FAMILIES))
    w = 16
    count = draw(st.integers(0, 150))
    block = [SYM_Z + ((count >> v) & 1) for v in range(w)]
    if draw(st.integers(0, 4)) == 0:
        block[draw(st.integers(0, w - 1))] = draw(st.sampled_from((SYM_B, SYM_M)))
    closing = draw(st.sampled_from((SYM_M,) * 6 + (SYM_Z, SYM_B, None)))
    tail = [SYM_B] * draw(st.integers(0, 160))
    if tail and draw(st.integers(0, 3)) == 0:
        tail[draw(st.integers(0, len(tail) - 1))] = draw(st.sampled_from((SYM_Z, SYM_O, SYM_M)))
    lead = draw(st.integers(0, 3))
    tape = [SYM_B] * lead + [SYM_M] + block + ([closing] if closing is not None else []) + tail
    kw = {"max_steps": draw(st.integers(0, 45 * count + 120))}
    if draw(st.booleans()):
        kw["track"] = draw(st.lists(st.integers(0, 1), max_size=len(tape) + 200))
    return family, tape, kw


@settings(max_examples=200, deadline=None)
@given(synthetic_drags())
def test_synthetic_drags_agree(fp, names, case):
    # the entry into the family on the anchor M is the lemma's to take
    family, tape, kw = case
    got = run_machine(entered(fp.drag.machine, names, family), tape, macro=fp.drag, **kw)
    assert outcome(got) == outcome(run_machine(entered(fp.machine, names, family), tape, **kw))


# --- the lemma against a direct descent -------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_lemma_matches_every_counter_value(fp, names, family):
    # one direct descent from the largest fold, stopped after the lemma's
    # step count for each value: there the run must have just entered dec
    # with the block moved one cell per decrement and holding the value
    entry = names.index(family)
    dec, costs = fp.drag.entries[entry]
    top, w = fp.capacity - 1, len(costs)
    run = Run(fp.machine, [SYM_M] + [SYM_Z + ((top >> v) & 1) for v in range(w)] + [SYM_M],
              state=entry)
    cells, total = run.cells, fp.drag.steps(entry, top)
    for count in range(top, -1, -1):
        run.go(total - fp.drag.steps(entry, count) + 1)
        p = run.head
        assert (run.state, p) == (dec, 1 + top - count), count
        assert cells[p + w] == SYM_M and int(bytes(cells[p : p + w]).translate(
            bytes.maketrans(b"\x01\x02", b"01"))[::-1], 2) == count, count
    assert cells == bytes([SYM_M] + [SYM_B] * top + [SYM_Z] * w + [SYM_M])
    assert run.steps == total


# --- the lemma stays on the checker's path ------------------------------------------


def engine_lines(fn, limit):
    """fn() while counting the lines ``Run.go`` executes (which bound its
    loop's iterations) and its calls; fails as soon as the lines pass limit,
    so a run that steps a drag fails fast."""
    code, seen = Run.go.__code__, {"lines": 0, "calls": 0}

    def local(frame, event, arg):
        if event == "line":
            seen["lines"] += 1
            if seen["lines"] > limit:
                raise AssertionError(f"the engine loop ran past {limit} lines")
        return local

    def calls(frame, event, arg):
        if frame.f_code is not code:
            return None
        seen["calls"] += 1
        return local

    sys.settrace(calls)
    try:
        out = fn()
    finally:
        sys.settrace(None)
    return out, seen


def test_worst_walk_jumps_each_drag_once(fp):
    # dropping the lemma from run_checker, or a precondition that never
    # holds, fails here rather than only slowing the benchmark down
    spy = Spy(fp.drag)
    spied = dataclasses.replace(fp, drag=spy)
    r, seen = engine_lines(lambda: run_checker(spied, member(fp, 255, 222)), 100_000)
    assert (r.status, r.steps) == ("accepted", 3_244_140)
    assert [jumped for *_, jumped in spy.log] == [True, True]
    assert sum(after - before for before, after, _ in spy.log) > 3_100_000
    assert seen["calls"] == 3  # to the first drag, to the second, to the end


def test_audit_drags_are_all_jumped(fp, monkeypatch):
    # a drag the lemma declines is stepped one cell at a time, which takes
    # about 1 s on the worst walk; the audit's 80 walks and 6 block probes
    # and 10 mutation trials decline none (a probe's or a mutant's last call
    # is its stop at the sentinel, which the lemma leaves alone)
    spy = Spy(fp.drag)
    spied = dataclasses.replace(fp, drag=spy)
    for name in ("REJECT_SAMPLES", "UTM_ACCEPTS", "UTM_REJECTS"):
        monkeypatch.setattr(fixedpoint, name, 0)
    cert = certificate(spied, resident_samples=1)
    trials = mutation_trials(spied, 10)
    assert cert.ok and trials.ok
    assert len(spy.log) >= 80
    assert all(jumped or after == before for before, after, jumped in spy.log)
