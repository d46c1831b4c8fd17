"""Differential tests: the compiled engine behind ``run_machine`` against a
plain dict-per-step reference stepper.

The reference resolves every step through a (state, symbol, track bit)
dict, first listed rule winning, and moves one cell at a time; the engine
must agree with it on status, steps, state, head and tape, including runs
that end in the middle of a compressed sweep.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilebench.compiler.fixedpoint import (
    build_fixed_point,
    checker_tape,
    pack_record,
    run_checker,
    unpack_record,
)
from tilebench.machine import (
    SYM_ONE,
    SYM_ZERO,
    Machine,
    Transition,
    machine_corpus,
    run_machine,
    universal_machine,
    utm_tape,
)


def reference_run(machine, tape, *, head=0, track=None, max_steps=1_000_000,
                  grow=False):
    """One dict lookup per step, one cell per step: the engine's oracle."""
    rules = {}
    for t in machine.transitions:
        for b in (0, 1):
            key = (t.state, t.read, b)
            if key not in rules and (t.track is None or t.track == b):
                rules[key] = (t.new_state, t.write, t.move)
    cells = list(tape) or [machine.blank]
    trk = list(track) if track is not None else []
    state, steps, status = machine.start, 0, "timeout"
    while steps < max_steps:
        if state == machine.accept:
            status = "accepted"
            break
        bit = trk[head] if head < len(trk) else 0
        move = rules.get((state, cells[head], bit))
        if move is None:
            status = "stuck"
            break
        state, cells[head], direction = move
        head += {"L": -1, "R": 1, "S": 0}[direction]
        if head < 0:
            status = "hit_wall"
            break
        if head >= len(cells):
            if not grow:
                status = "hit_wall"
                break
            cells.append(machine.blank)
        steps += 1
    if state == machine.accept and status == "timeout":
        status = "accepted"
    return status, steps, state, head, tuple(cells)


def outcome(res):
    return res.status, res.steps, res.state, res.head, res.tape


def assert_agrees(machine, tape, **kw):
    got = run_machine(machine, tape, **kw)
    assert outcome(got) == reference_run(machine, tape, **kw)
    return got


# --- stock machines ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(machine_corpus()))
def test_corpus_every_short_input(name):
    m = machine_corpus()[name]
    for n in range(8):
        for x in itertools.product((SYM_ZERO, SYM_ONE), repeat=n):
            for grow in (False, True):
                assert_agrees(m, list(x) + [0] * 2, grow=grow, max_steps=10_000)


# --- the edge cases a sweep has to get right -----------------------------------

RUNNER = Machine(3, 4, 0, 1, 0, False, (Transition(0, 0, None, 0, 0, "R"),))
LEFTY = Machine(3, 4, 0, 1, 0, False, (Transition(0, 0, None, 0, 0, "L"),))


def test_budget_runs_out_mid_sweep():
    r = assert_agrees(RUNNER, [0] * 10, max_steps=4)
    assert (r.status, r.steps, r.head) == ("timeout", 4, 4)
    r = assert_agrees(LEFTY, [0] * 10, head=9, max_steps=4)
    assert (r.status, r.steps, r.head) == ("timeout", 4, 5)


def test_right_wall_step_does_not_count():
    r = assert_agrees(RUNNER, [0, 0, 0], max_steps=50)
    assert (r.status, r.steps, r.head) == ("hit_wall", 2, 3)


def test_left_wall_at_cell_zero():
    r = assert_agrees(LEFTY, [0, 0, 0], head=2, max_steps=50)
    assert (r.status, r.steps, r.head) == ("hit_wall", 2, -1)
    r = assert_agrees(LEFTY, [0], max_steps=50)
    assert (r.status, r.steps, r.head) == ("hit_wall", 0, -1)


def test_grow_appends_a_blank():
    # sweep right over ones, accept on the first blank, which grow supplies
    m = Machine(2, 4, 0, 1, 0, False, (
        Transition(0, SYM_ONE, None, 0, SYM_ONE, "R"),
        Transition(0, 0, None, 1, SYM_ZERO, "S"),
    ))
    r = assert_agrees(m, [SYM_ONE] * 3, grow=True)
    assert (r.status, r.steps, r.head) == ("accepted", 4, 3)
    assert r.tape == (SYM_ONE,) * 3 + (SYM_ZERO,)
    assert assert_agrees(m, [SYM_ONE] * 3).status == "hit_wall"


def test_blank_looping_sweep_with_grow_runs_out_the_budget():
    r = assert_agrees(RUNNER, [0, 0], max_steps=50, grow=True)
    assert (r.status, r.steps, r.head) == ("timeout", 50, 50)
    assert r.tape == (0,) * 51


def test_spin_in_place_runs_out_the_budget():
    spinner = Machine(3, 4, 0, 1, 0, False, (Transition(0, 0, None, 0, 0, "S"),))
    r = assert_agrees(spinner, [0], max_steps=50)
    assert (r.status, r.steps, r.head) == ("timeout", 50, 0)


def test_track_split_loop_is_not_a_sweep():
    # loops right on track 0 but stops on track 1: the bit decides each cell
    m = Machine(2, 4, 0, 1, 0, True, (
        Transition(0, 0, 0, 0, 0, "R"),
        Transition(0, 0, 1, 1, 0, "S"),
    ))
    assert m.dispatch()[0][3] is None
    r = assert_agrees(m, [0] * 6, track=[0, 0, 0, 1])
    assert (r.status, r.steps, r.head) == ("accepted", 4, 3)


@pytest.mark.parametrize("stopper", [None, 1, 63, 64, 65, 66, 320, 1345, 1436, 2935, 2999])
def test_long_sweeps_agree(stopper):
    # runs past LONG_RUN cells are scanned as bytes; some stoppers sit on
    # the cell where that scan takes over (LONG_RUN from the start head)
    loop = SYM_ONE
    right = Machine(2, 4, 0, 1, 0, False, (
        Transition(0, loop, None, 0, loop, "R"),
        Transition(0, 0, None, 0, 0, "R"),
        Transition(0, SYM_ZERO, None, 1, SYM_ZERO, "S"),
    ))
    left = Machine(2, 4, 0, 1, 0, False, (
        Transition(0, loop, None, 0, loop, "L"),
        Transition(0, SYM_ZERO, None, 1, SYM_ZERO, "S"),
    ))
    tape = [loop] * 3000
    if stopper is not None:
        tape[stopper] = SYM_ZERO
    for budget in (50, 64, 65, 500, 1400, 10**6):
        for grow in (False, True):
            assert_agrees(right, tape, max_steps=budget, grow=grow)
            assert_agrees(right, tape, head=2, max_steps=budget, grow=grow)
            assert_agrees(left, tape, head=2999, max_steps=budget, grow=grow)
            assert_agrees(left, tape, head=1500, max_steps=budget, grow=grow)


def test_wide_alphabet_sweeps_cell_by_cell():
    wide = Machine(2, 300, 0, 1, 0, False, (Transition(0, 299, None, 0, 299, "R"),))
    r = assert_agrees(wide, [299] * 200 + [7], max_steps=1000)
    assert (r.status, r.steps, r.head) == ("stuck", 200, 200)


def test_tape_outside_alphabet_is_rejected():
    with pytest.raises(ValueError):
        run_machine(RUNNER, [0, 4])


@pytest.mark.parametrize("head", [-3, -1, 4, 9])
def test_head_outside_the_tape_is_rejected(head):
    # a negative head would read wrapped cells, one past the end an IndexError
    m = Machine(2, 4, 0, 1, 0, True, (Transition(0, 0, None, 0, 0, "L"),))
    with pytest.raises(ValueError, match="head"):
        run_machine(m, [0] * 4, head=head, track=[1, 0, 1, 0])


# --- random machines -----------------------------------------------------------


@st.composite
def machines_and_runs(draw):
    states = draw(st.integers(2, 5))
    symbols = draw(st.integers(1, 4))
    program_track = draw(st.booleans())
    rules = []
    for _ in range(draw(st.integers(0, 14))):
        q = draw(st.integers(0, states - 1))
        s = draw(st.integers(0, symbols - 1))
        cond = draw(st.sampled_from((None, 0, 1))) if program_track else None
        move = draw(st.sampled_from("LRS"))
        if draw(st.booleans()):  # a self-loop: a candidate sweep
            rules.append(Transition(q, s, cond, q, s, move))
        else:
            rules.append(Transition(q, s, cond, draw(st.integers(0, states - 1)),
                                    draw(st.integers(0, symbols - 1)), move))
    m = Machine(states, symbols, draw(st.integers(0, states - 1)),
                draw(st.integers(0, states - 1)), draw(st.integers(0, symbols - 1)),
                program_track, tuple(rules))
    tape = draw(st.lists(st.integers(0, symbols - 1), min_size=1, max_size=12))
    kw = {
        "head": draw(st.integers(0, len(tape) - 1)),
        "max_steps": draw(st.integers(0, 40)),
        "grow": draw(st.booleans()),
    }
    if draw(st.booleans()):
        kw["track"] = draw(st.lists(st.integers(0, 1), max_size=14))
    return m, tape, kw


@settings(max_examples=400, deadline=None)
@given(machines_and_runs())
def test_random_machines_agree(case):
    m, tape, kw = case
    assert_agrees(m, tape, **kw)


# --- the fixed-point checker and the universal machine -------------------------


@pytest.fixture(scope="module")
def fp():
    return build_fixed_point(256)


def test_checker_tiles_agree(fp):
    track = fp.track()
    resident = fp.edge_records(150, 10, 0, 0, 0, 0)
    walk = fp.edge_records(3, 100, 0, 0, fp.padded[fp.fold(3, 101)], fp.padded[fp.fold(3, 100)])
    probe = list(fp.edge_records(7, 64, 0, 0, 0, 0))
    i, j, _ = unpack_record(fp.n, probe[3])
    probe[3] = pack_record(fp.n, i, j, 1 - fp.padded[fp.fold(7, 64)])
    for quad, status in ((resident, "accepted"), (walk, "accepted"), (tuple(probe), "stuck")):
        r = assert_agrees(fp.machine, checker_tape(fp.n, *quad), track=track,
                          max_steps=4_000_000, grow=True)
        assert r.status == status, quad


def test_universal_run_agrees(fp):
    utm = universal_machine(fp.state_bits)
    quad = fp.edge_records(150, 10, 0, 0, 0, 0)
    tape = utm_tape(list(fp.program), checker_tape(fp.n, *quad), state_bits=fp.state_bits)
    r = assert_agrees(utm, tape, max_steps=200_000, grow=True)
    assert (r.status, r.steps) == ("timeout", 200_000)


def test_worst_walk_pinned(fp):
    x, y = 255, 222
    quad = fp.edge_records(x, y, 0, 0, fp.padded[fp.fold(x, y + 1)], fp.padded[fp.fold(x, y)])
    r = run_checker(fp, quad)
    assert (r.status, r.steps) == ("accepted", 3_244_140)
