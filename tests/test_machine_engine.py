"""Differential tests: the compiled engine behind ``run_machine`` against a
plain dict-per-step reference stepper.

The reference resolves every step through a (state, symbol, track bit)
dict, first listed rule winning, and moves one cell at a time; the engine
must agree with it on status, steps, state, head and tape, including runs
that end in the middle of a jump: a sweep, a rewriting sweep or a register
shift.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilebench.compiler.fixedpoint import (
    build_checker,
    build_fixed_point,
    checker_tape,
    pack_record,
    run_checker,
    unpack_record,
)
from tilebench.machine import (
    SYM_BLANK,
    SYM_MARK,
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


@pytest.mark.parametrize("stopper", [None, 1, 33, 35, 63, 64, 65, 66, 97, 320, 1345,
                                     1436, 2017, 2902, 2935, 2966, 2999])
def test_long_sweeps_agree(stopper):
    # a run's end is found by stripping tape slices of 32, 64, 128, ...
    # cells; some stoppers sit on or beside a slice boundary (33 and 97
    # from head 0, 35 from head 2, 2966 and 2902 from head 2999)
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


def test_tape_outside_alphabet_is_rejected():
    with pytest.raises(ValueError):
        run_machine(RUNNER, [0, 4])


@pytest.mark.parametrize("head", [-3, -1, 4, 9])
def test_head_outside_the_tape_is_rejected(head):
    # a negative head would read wrapped cells, one past the end an IndexError
    m = Machine(2, 4, 0, 1, 0, True, (Transition(0, 0, None, 0, 0, "L"),))
    with pytest.raises(ValueError, match="head"):
        run_machine(m, [0] * 4, head=head, track=[1, 0, 1, 0])


def test_negative_budget_is_rejected():
    with pytest.raises(ValueError, match="budget"):
        run_machine(RUNNER, [0, 0], max_steps=-5)
    r = assert_agrees(RUNNER, [0, 0], max_steps=0)
    assert (r.status, r.steps, r.head) == ("timeout", 0, 0)


# --- rewriting sweeps and register shifts ---------------------------------------

Z, O, B, X = SYM_ZERO, SYM_ONE, SYM_BLANK, SYM_MARK


def register(domain, move="R", *, symbols=4, split=False):
    """A register family: state k + 2 carries domain[k]; on a symbol of the
    domain it writes its carry and goes to the state carrying that symbol,
    on the mark it accepts.  The family starts in state 2.  ``split`` puts a
    track condition on one rule, so the family is no longer uniform."""
    rules = []
    for k, c in enumerate(domain):
        for k2, a in enumerate(domain):
            track = 0 if split and (k, k2) == (1, 0) else None
            rules.append(Transition(k + 2, a, track, k2 + 2, c, move))
        rules.append(Transition(k + 2, X, None, 1, c, "S"))
    return Machine(len(domain) + 2, symbols, 2, 1, B, split, tuple(rules))


def rewriter(mapping, move="R", *, symbols=4, split=False):
    """One state that moves on over the symbols of mapping, writing
    mapping[symbol], and accepts on the mark."""
    rules = [Transition(0, a, 1 if split and k == 0 else None, 0, w, move)
             for k, (a, w) in enumerate(mapping.items())]
    rules.append(Transition(0, X, None, 1, X, "S"))
    return Machine(2, symbols, 0, 1, B, split, tuple(rules))


def jumps(machine):
    """Each jump kind the dispatch table holds."""
    kinds = set()
    for e in machine.dispatch():
        if e is not None and e[3] is not None:
            _, translate, succ = e[3]
            kinds.add("register" if succ is not None else
                      "rewrite" if translate else "sweep")
    return kinds


SHIFT_R = register((Z, O))
SHIFT_L = register((Z, O), "L")
FLIP_R = rewriter({Z: O, O: Z})
FLIP_L = rewriter({Z: O, O: Z}, "L")
DRIFT = [Z, O, O, Z, Z, Z, O] * 30  # 210 cells: runs cross slice boundaries


def test_jump_kinds_are_compiled():
    assert jumps(SHIFT_R) == jumps(SHIFT_L) == {"register"}
    assert jumps(FLIP_R) == jumps(FLIP_L) == {"rewrite"}
    assert jumps(rewriter({Z: Z, O: O})) == {"sweep"}
    # a loop that rewrites some symbols and keeps others is one rewriting sweep
    assert jumps(rewriter({Z: O, O: O, B: B})) == {"rewrite"}


@pytest.mark.parametrize("budget", [1, 2, 31, 32, 33, 96, 97, 98, 150, 209])
@pytest.mark.parametrize("m", [SHIFT_R, FLIP_R], ids=["register", "rewrite"])
def test_budget_stops_inside_a_jump(m, budget):
    r = assert_agrees(m, DRIFT + [X], max_steps=budget)
    assert (r.status, r.steps, r.head) == ("timeout", budget, budget)
    left = SHIFT_L if m is SHIFT_R else FLIP_L
    r = assert_agrees(left, [X] + DRIFT, head=210, max_steps=budget)
    assert (r.status, r.steps, r.head) == ("timeout", budget, 210 - budget)


@pytest.mark.parametrize("m", [SHIFT_R, FLIP_R], ids=["register", "rewrite"])
def test_jumps_end_on_the_stopper(m):
    r = assert_agrees(m, DRIFT + [X, Z])
    assert (r.status, r.steps, r.head) == ("accepted", 211, 210)
    for head in (0, 5, 100, 209):
        assert_agrees(m, DRIFT + [X], head=head)
    left = SHIFT_L if m is SHIFT_R else FLIP_L
    r = assert_agrees(left, [Z, X] + DRIFT, head=211)
    assert (r.status, r.steps, r.head) == ("accepted", 211, 1)


@pytest.mark.parametrize("m", [SHIFT_R, FLIP_R], ids=["register", "rewrite"])
def test_jumps_hit_both_walls(m):
    r = assert_agrees(m, DRIFT)
    assert (r.status, r.steps, r.head) == ("hit_wall", 209, 210)
    left = SHIFT_L if m is SHIFT_R else FLIP_L
    r = assert_agrees(left, DRIFT, head=209)
    assert (r.status, r.steps, r.head) == ("hit_wall", 209, -1)
    r = assert_agrees(left, [Z], max_steps=5)
    assert (r.status, r.steps, r.head) == ("hit_wall", 0, -1)


def test_jumps_grow_the_tape():
    # blank in the run: the jump runs on over fresh blanks to the budget
    for m in (register((B, Z, O)), rewriter({B: O, Z: Z, O: Z})):
        r = assert_agrees(m, DRIFT, max_steps=500, grow=True)
        assert (r.status, r.steps, r.head, len(r.tape)) == ("timeout", 500, 500, 501)
        assert_agrees(m, [B], max_steps=70, grow=True)
    # blank outside the run: the step off the end appends one blank, which
    # then stops the run (stuck, as nothing reads it)
    for m in (SHIFT_R, FLIP_R):
        r = assert_agrees(m, DRIFT, max_steps=500, grow=True)
        assert (r.status, r.steps, r.head, len(r.tape)) == ("stuck", 210, 210, 211)


def test_track_split_family_and_loop_do_not_jump():
    split_shift = register((Z, O), split=True)
    split_flip = rewriter({Z: O, O: Z}, split=True)
    # the family's own loops still sweep, but nothing shifts; the split rule
    # of the rewriting loop steps one cell at a time
    assert jumps(split_shift) == {"sweep"}
    assert [e and e[3] for e in split_flip.dispatch()[Z * 2 : Z * 2 + 2]] == [None, None]
    for track in ([], [0] * 211, [0] * 100 + [1], [1] * 211):
        assert_agrees(split_shift, DRIFT + [X], track=track)
        assert_agrees(split_flip, DRIFT + [X], track=track)


def test_wide_alphabet_sweeps_cell_by_cell():
    wide = Machine(2, 300, 0, 1, 0, False, (Transition(0, 299, None, 0, 299, "R"),))
    r = assert_agrees(wide, [299] * 200 + [7], max_steps=1000)
    assert (r.status, r.steps, r.head) == ("stuck", 200, 200)
    # a register family and a rewriting sweep get no jumps either
    shift = register((298, 299), symbols=300)
    flip = rewriter({298: 299, 299: 298}, symbols=300)
    assert jumps(wide) == jumps(shift) == jumps(flip) == set()
    tape = [298, 299, 299] * 70 + [X]
    r = assert_agrees(shift, tape)
    assert (r.status, r.steps) == ("accepted", 211)
    r = assert_agrees(flip, tape, max_steps=100)
    assert (r.status, r.steps, r.head) == ("timeout", 100, 100)


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


@st.composite
def planted_runs(draw):
    """Machines with a register family and a rewriting loop planted among
    random rules (which may come first and shadow parts of them), run on
    tapes of up to 300 cells made mostly of long runs of the planted
    symbols, so that jumps cross the scan's slice boundaries."""
    symbols = draw(st.integers(2, 6))
    states = draw(st.integers(4, 8))
    program_track = draw(st.booleans())
    pick = st.integers(0, symbols - 1)

    def cond():
        # now and then a track condition, which splits what it touches
        return draw(st.sampled_from((None,) * 7 + (0,))) if program_track else None

    # the family's states, the looping state and the accept state differ
    domain = draw(st.lists(pick, min_size=2, max_size=min(symbols, states - 2),
                           unique=True))
    order = draw(st.permutations(range(states)))
    family, q, accept = order[: len(domain)], order[len(domain)], order[len(domain) + 1]
    move, loop_move = draw(st.sampled_from("LR")), draw(st.sampled_from("LR"))
    planted = [Transition(r, a, cond(), family[k], c, move)
               for r, c in zip(family, domain) for k, a in enumerate(domain)]
    loop = draw(st.lists(pick, min_size=1, max_size=symbols, unique=True))
    planted += [Transition(q, a, cond(), q, draw(pick), loop_move) for a in loop]
    extra = [Transition(draw(st.integers(0, states - 1)), draw(pick), cond(),
                        draw(st.integers(0, states - 1)), draw(pick),
                        draw(st.sampled_from("LRS")))
             for _ in range(draw(st.integers(0, 6)))]
    in_family = draw(st.booleans())
    m = Machine(states, symbols, draw(st.sampled_from(family)) if in_family else q,
                accept, draw(pick), program_track,
                tuple(draw(st.permutations(planted + extra))))
    # runs of family or loop symbols, 10 to 120 long, between stray cells;
    # the head starts where a run of the start state's kind begins (in the
    # direction it moves), or anywhere
    rnd = draw(st.randoms(use_true_random=True))
    tape, heads = [], []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("family", "loop", "stray")))
        if kind == "stray":
            tape += rnd.choices(range(symbols), k=rnd.randint(0, 3))
            continue
        length = rnd.randint(10, 120)
        if (kind == "family") == in_family:
            left = (move if in_family else loop_move) == "L"
            heads.append(len(tape) + (length - 1 if left else 0))
        tape += rnd.choices(domain if kind == "family" else loop, k=length)
    tape = tape[:300] or [0]
    heads = [h for h in heads if h < len(tape)]
    kw = {
        "head": draw(st.one_of(st.sampled_from(heads or [0]),
                               st.integers(0, len(tape) - 1))),
        "max_steps": rnd.randint(0, rnd.choice((40, 1500))),
        "grow": draw(st.booleans()),
    }
    if program_track:
        kw["track"] = draw(st.lists(st.integers(0, 1), max_size=320))
    return m, tape, kw


@settings(max_examples=300, deadline=None)
@given(planted_runs())
def test_planted_jumps_agree(case):
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


def test_checker_drag_compiles_to_jumps():
    # the drag's register states shift in one jump and the decrement's
    # Z -> O borrow is one rewriting sweep; losing either slows every walk
    machine, names = build_checker(8)
    table = machine.dispatch()

    def jump(name, sym):
        i = (names.index(name) * 4 + sym) * 2
        assert table[i] == table[i + 1]  # the same on both track bits
        return table[i][3]

    for px in ("lt", "lb"):
        for b in (0, 1):
            for c in (0, 1):
                for sym in (Z, O):
                    succ = jump(f"{px}_s{b}{c}", sym)[2]
                    assert [names[succ[a]] for a in (Z, O)] == [f"{px}_s{b}0", f"{px}_s{b}1"]
            translate = jump(f"{px}_dec{b}", Z)[1]
            assert translate and translate[Z] == O


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
