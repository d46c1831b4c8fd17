"""Differential tests: the compiled engine behind ``run_machine`` against a
plain dict-per-step reference stepper, and its dispatch rows, compiled on
first use, against an eager reference compiler.

The reference resolves every step through a (state, symbol, track bit)
dict, first listed rule winning, and moves one cell at a time; the engine
must agree with it on status, steps, state, head and tape, including runs
that end in the middle of a sweep, the engine's one jump.  Register
families and rewriting loops, which the engine steps one cell at a time,
are run over the same edge cases.
"""

import contextlib
import itertools
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilebench.compiler.fixedpoint import (
    checker_tape,
    pack_record,
    run_checker,
    unpack_record,
)
from tilebench.compiler.simulate import chessboard_predicate_machine
import tilebench.machine as machine_module
from tilebench.machine import (
    BLOCK,
    COND_ANY,
    COND_TRACK0,
    COND_TRACK1,
    DELTAS,
    LEFT,
    RIGHT,
    STAY,
    SYM_BLANK,
    SYM_MARK,
    SYM_ONE,
    SYM_ZERO,
    Machine,
    Rules,
    Run,
    machine_corpus,
    _checked_track,
    U_BIT0,
    U_BIT1,
    U_BLANK,
    U_END,
    U_ORIGIN,
    U_SEP,
    U_SYMBOLS,
    _keeps_region,
    always_accept_machine,
    encode_program,
    parity_machine,
    run_encoded,
    run_machine,
    universal_machine,
    utm_tape,
    work_cell,
)

ANY, T0, T1 = COND_ANY, COND_TRACK0, COND_TRACK1


def reference_rules(machine):
    """Each (state, symbol, track bit)'s first matching rule."""
    rules = {}
    for q, s, c, q2, w, mv in zip(*machine.transitions.columns()):
        for b in (0, 1):
            key = (q, s, b)
            if key not in rules and c in (COND_ANY, COND_TRACK0 + b):
                rules[key] = (q2, w, mv)
    return rules


def reference_run(machine, tape, *, head=0, track=None, max_steps=1_000_000):
    """One dict lookup per step, one cell per step: the engine's oracle."""
    rules = reference_rules(machine)
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
        head += {LEFT: -1, RIGHT: 1, STAY: 0}[direction]
        if head < 0:
            status = "hit_wall"
            break
        if head >= len(cells):
            cells.append(machine.blank)
        steps += 1
    if state == machine.accept and status == "timeout":
        status = "accepted"
    return status, steps, state, head, tuple(cells)


def reference_table(m):
    """An eager reference for ``Machine.row``: every state's row in one flat
    table, entry ``(state*symbols + symbol)*tracks + bit``, built by one
    pass over the rule columns per bit, which also collects each state's
    sweeps.  Equal entries are interned; a sweep's one entry per (state,
    direction) is kept apart, so only the other entries go through the
    interning dict."""
    rules = m.transitions
    syms, tracks = m.symbols, 2 if m.program_track else 1
    table: list = [None] * (m.states * syms * tracks)
    entries: dict[tuple, tuple] = {}
    sweeps: dict[tuple[int, int], tuple] = {}
    for b in range(tracks):
        for q, s, c, q2, w, mv in zip(*rules.columns()):
            if c != COND_ANY and c != COND_TRACK0 + b:
                continue
            i = (q * syms + s) * tracks + b
            if table[i] is not None or q == m.accept:
                continue  # an earlier rule matches first, or accepted
            d = DELTAS[mv]
            e = (q2, w, d, None)
            # the last bit's pass marks the one-way sweeps, alike on every bit
            if (q2 == q and w == s and d and b == tracks - 1
                    and (b == 0 or table[i - 1] == e)):
                e = sweeps.get((q, d))
                if e is None:
                    e = sweeps[q, d] = (q, None, d, bytearray())
                e[3].append(s)
                table[i - b] = e
            else:
                e = entries.setdefault(e, e)
            table[i] = e
    return table


def assert_rows_match_reference(m):
    """Every row of ``m``, those a run compiled and the rest, equals its
    slice of ``reference_table``, entry for entry (a sweep's ``run`` bytes
    included), and a sweep's entry is one object on every track bit."""
    tracks = 2 if m.program_track else 1
    width = m.symbols * tracks
    table = reference_table(m)
    for q in range(m.states):
        row = m.row(q)
        assert row == table[q * width : (q + 1) * width], q
        assert m.dispatch[q] is row
        for i, e in enumerate(row):
            if e is not None and e[3] is not None:
                assert row[i - i % tracks] is e


def outcome(res):
    return res.status, res.steps, res.state, res.head, tuple(res.cells)


def assert_agrees(machine, tape, *, head=0, max_steps=1_000_000, **kw):
    """The engine's run against ``reference_run``: from ``run_machine``, or
    from a ``Run`` when the head starts off cell 0."""
    if head:
        got = Run(machine, tape, head=head, track=kw.get("track"))
        got.go(max_steps)
    else:
        got = run_machine(machine, tape, max_steps=max_steps, **kw)
    assert outcome(got) == reference_run(machine, tape, head=head, max_steps=max_steps, **kw)
    return got


# --- stock machines ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(machine_corpus()))
def test_corpus_every_short_input(name):
    m = machine_corpus()[name]
    for n in range(8):
        for x in itertools.product((SYM_ZERO, SYM_ONE), repeat=n):
            assert_agrees(m, list(x) + [0] * 2, max_steps=10_000)


# --- the edge cases a sweep has to get right -----------------------------------

RUNNER = Machine(3, 4, 0, 1, 0, False, Rules.of([(0, 0, ANY, 0, 0, RIGHT)]))
LEFTY = Machine(3, 4, 0, 1, 0, False, Rules.of([(0, 0, ANY, 0, 0, LEFT)]))


def test_budget_runs_out_mid_sweep():
    r = assert_agrees(RUNNER, [0] * 10, max_steps=4)
    assert (r.status, r.steps, r.head) == ("timeout", 4, 4)
    r = assert_agrees(LEFTY, [0] * 10, head=9, max_steps=4)
    assert (r.status, r.steps, r.head) == ("timeout", 4, 5)


def test_left_wall_at_cell_zero():
    r = assert_agrees(LEFTY, [0, 0, 0], head=2, max_steps=50)
    assert (r.status, r.steps, r.head) == ("hit_wall", 2, -1)
    r = assert_agrees(LEFTY, [0], max_steps=50)
    assert (r.status, r.steps, r.head) == ("hit_wall", 0, -1)


def test_a_closed_tape_ends_in_a_wall():
    # the step past the last cell is the wall: not counted, the head at
    # len(cells); a budget that ends on the last cell is a timeout there
    r = Run(RUNNER, [0] * 5, closed=True)
    assert (r.go(4), r.steps, r.head) == ("timeout", 4, 4)
    assert (r.go(50), r.steps, r.head) == ("hit_wall", 4, 5)
    assert tuple(r.cells) == (0,) * 5
    # moved back onto the tape, a run on either wall resumes
    r.head = 0
    assert (r.go(6), r.steps, r.head) == ("timeout", 6, 2)
    r = Run(LEFTY, [0] * 3, head=2)
    assert (r.go(50), r.steps, r.head) == ("hit_wall", 2, -1)
    r.head = 1
    assert (r.go(50), r.steps, r.head) == ("hit_wall", 3, -1)


def test_grow_appends_a_blank():
    # sweep right over ones, accept on the first blank, which the tape grows
    m = Machine(2, 4, 0, 1, 0, False, Rules.of([
        (0, SYM_ONE, ANY, 0, SYM_ONE, RIGHT),
        (0, 0, ANY, 1, SYM_ZERO, STAY),
    ]))
    r = assert_agrees(m, [SYM_ONE] * 3)
    assert (r.status, r.steps, r.head) == ("accepted", 4, 3)
    assert tuple(r.cells) == (SYM_ONE,) * 3 + (SYM_ZERO,)


def test_blank_looping_sweep_with_grow_runs_out_the_budget():
    r = assert_agrees(RUNNER, [0, 0], max_steps=50)
    assert (r.status, r.steps, r.head) == ("timeout", 50, 50)
    assert tuple(r.cells) == (0,) * 51


def test_spin_in_place_runs_out_the_budget():
    spinner = Machine(3, 4, 0, 1, 0, False, Rules.of([(0, 0, ANY, 0, 0, STAY)]))
    r = assert_agrees(spinner, [0], max_steps=50)
    assert (r.status, r.steps, r.head) == ("timeout", 50, 0)


def test_track_split_loop_is_not_a_sweep():
    # loops right on track 0 but stops on track 1: the bit decides each cell
    m = Machine(2, 4, 0, 1, 0, True, Rules.of([
        (0, 0, T0, 0, 0, RIGHT),
        (0, 0, T1, 1, 0, STAY),
    ]))
    assert m.row(0)[0][3] is None
    r = assert_agrees(m, [0] * 6, track=[0, 0, 0, 1])
    assert (r.status, r.steps, r.head) == ("accepted", 4, 3)


@pytest.mark.parametrize("stopper", [None, 1, 33, 35, 63, 64, 65, 66, 97, 320, 1345,
                                     1436, 2017, 2902, 2935, 2966, 2999])
def test_long_sweeps_agree(stopper):
    # a run's end is found by stripping tape slices of 32, 64, 128, ...
    # cells; some stoppers sit on or beside a slice boundary (33 and 97
    # from head 0, 35 from head 2, 2966 and 2902 from head 2999)
    loop = SYM_ONE
    right = Machine(2, 4, 0, 1, 0, False, Rules.of([
        (0, loop, ANY, 0, loop, RIGHT),
        (0, 0, ANY, 0, 0, RIGHT),
        (0, SYM_ZERO, ANY, 1, SYM_ZERO, STAY),
    ]))
    left = Machine(2, 4, 0, 1, 0, False, Rules.of([
        (0, loop, ANY, 0, loop, LEFT),
        (0, SYM_ZERO, ANY, 1, SYM_ZERO, STAY),
    ]))
    tape = [loop] * 3000
    if stopper is not None:
        tape[stopper] = SYM_ZERO
    for budget in (50, 64, 65, 500, 1400, 10**6):
        assert_agrees(right, tape, max_steps=budget)
        assert_agrees(right, tape, head=2, max_steps=budget)
        assert_agrees(left, tape, head=2999, max_steps=budget)
        assert_agrees(left, tape, head=1500, max_steps=budget)


def test_tape_outside_alphabet_is_rejected():
    with pytest.raises(ValueError):
        run_machine(RUNNER, [0, 4], max_steps=1_000_000)


@pytest.mark.parametrize("head", [-3, -1, 4, 9])
def test_head_outside_the_tape_is_rejected(head):
    # a negative head would read wrapped cells, one past the end an IndexError
    m = Machine(2, 4, 0, 1, 0, True, Rules.of([(0, 0, ANY, 0, 0, LEFT)]))
    with pytest.raises(ValueError, match="head"):
        Run(m, [0] * 4, head=head, track=[1, 0, 1, 0])


@pytest.mark.parametrize("state", [-1, 3])
def test_start_state_outside_the_machine_is_rejected(state):
    with pytest.raises(ValueError, match="state"):
        Run(RUNNER, [0, 0], state=state)


def test_negative_budget_is_rejected():
    with pytest.raises(ValueError, match="budget"):
        run_machine(RUNNER, [0, 0], max_steps=-5)
    r = assert_agrees(RUNNER, [0, 0], max_steps=0)
    assert (r.status, r.steps, r.head) == ("timeout", 0, 0)


# --- register families and rewriting loops -------------------------------------

Z, O, B, X = SYM_ZERO, SYM_ONE, SYM_BLANK, SYM_MARK


def register(domain, move=RIGHT, *, symbols=4, split=False):
    """A register family: state k + 2 carries domain[k]; on a symbol of the
    domain it writes its carry and goes to the state carrying that symbol,
    on the mark it accepts.  The family starts in state 2.  ``split`` puts a
    track condition on one rule, so the family is no longer uniform."""
    rules = []
    for k, c in enumerate(domain):
        for k2, a in enumerate(domain):
            track = T0 if split and (k, k2) == (1, 0) else ANY
            rules.append((k + 2, a, track, k2 + 2, c, move))
        rules.append((k + 2, X, ANY, 1, c, STAY))
    return Machine(len(domain) + 2, symbols, 2, 1, B, split, Rules.of(rules))


def rewriter(mapping, move=RIGHT, *, symbols=4, split=False):
    """One state that moves on over the symbols of mapping, writing
    mapping[symbol], and accepts on the mark."""
    rules = [(0, a, T1 if split and k == 0 else ANY, 0, w, move)
             for k, (a, w) in enumerate(mapping.items())]
    rules.append((0, X, ANY, 1, X, STAY))
    return Machine(2, symbols, 0, 1, B, split, Rules.of(rules))


def sweeps(machine):
    """The (state, symbol) pairs whose dispatch entries start a sweep."""
    tracks = 2 if machine.program_track else 1
    return {(q, i // tracks) for q in range(machine.states)
            for i, e in enumerate(machine.row(q)) if e is not None and e[3] is not None}


SHIFT_R = register((Z, O))
SHIFT_L = register((Z, O), LEFT)
FLIP_R = rewriter({Z: O, O: Z})
FLIP_L = rewriter({Z: O, O: Z}, LEFT)
DRIFT = [Z, O, O, Z, Z, Z, O] * 30  # 210 cells: runs cross slice boundaries


def test_jump_kinds_are_compiled():
    # the sweep is the one jump: a register family sweeps only where a state
    # reads its own carry, and a loop that rewrites what it reads never does
    assert sweeps(SHIFT_R) == {(2, Z), (3, O)}
    assert sweeps(FLIP_R) == set()
    assert sweeps(rewriter({Z: Z, O: O})) == {(0, Z), (0, O)}


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
def test_jumps_hit_the_left_wall(m):
    left = SHIFT_L if m is SHIFT_R else FLIP_L
    r = assert_agrees(left, DRIFT, head=209)
    assert (r.status, r.steps, r.head) == ("hit_wall", 209, -1)
    r = assert_agrees(left, [Z], max_steps=5)
    assert (r.status, r.steps, r.head) == ("hit_wall", 0, -1)


def test_jumps_grow_the_tape():
    # blank among the symbols the machine moves on over: it goes on over
    # fresh blanks to the budget
    for m in (register((B, Z, O)), rewriter({B: O, Z: Z, O: Z})):
        r = assert_agrees(m, DRIFT, max_steps=500)
        assert (r.status, r.steps, r.head, len(r.cells)) == ("timeout", 500, 500, 501)
        assert_agrees(m, [B], max_steps=70)
    # blank not among them: the step off the end appends one blank, which
    # then stops the run (stuck, as nothing reads it)
    for m in (SHIFT_R, FLIP_R):
        r = assert_agrees(m, DRIFT, max_steps=500)
        assert (r.status, r.steps, r.head, len(r.cells)) == ("stuck", 210, 210, 211)


def test_track_split_family_and_loop_do_not_jump():
    split_shift = register((Z, O), split=True)
    split_flip = rewriter({Z: O, O: Z}, split=True)
    for track in ([], [0] * 211, [0] * 100 + [1], [1] * 211):
        assert_agrees(split_shift, DRIFT + [X], track=track)
        assert_agrees(split_flip, DRIFT + [X], track=track)


# --- shared sweep entries ---------------------------------------------------------


def sweeper(move, split=None):
    """Sweeps over Z and O and marks the first blank.  ``split`` None gives
    a one-track machine; "any" a two-track one whose sweep rules take any
    bit; "bits" one that lists them per bit, alike on both."""
    conds = {None: (ANY,), "any": (ANY,), "bits": (T0, T1)}[split]
    rules = [(0, a, c, 0, a, move) for a in (Z, O) for c in conds]
    rules.append((0, B, ANY, 1, X, STAY))
    return Machine(2, 4, 0, 1, B, split is not None, Rules.of(rules))


@pytest.mark.parametrize("split", [None, "any", "bits"])
def test_one_shared_entry_per_sweep_stops_like_single_steps(split):
    # the sweep over Z and O has one entry, which writes nothing: where it
    # cannot go on (the tape's last cell, cell 0) it steps one cell and
    # the cell keeps its symbol, and a budget can end it on any cell
    right, left = sweeper(RIGHT, split), sweeper(LEFT, split)
    for m in (right, left):
        tracks = 2 if m.program_track else 1
        row = m.row(0)
        (entry,) = {id(row[a * tracks + b]) for a in (Z, O) for b in range(tracks)}
        assert row[Z * tracks][1] is None
    tape = [Z, O, O, Z, O]
    tracks = [None] if split is None else [None, [0, 1, 1, 0, 1], [1] * 5, [1, 0]]
    for track in tracks:
        kw = {} if track is None else {"track": track}
        r = assert_agrees(right, tape, **kw)
        assert (r.status, r.steps, r.head, tuple(r.cells)) == ("accepted", 6, 5, (*tape, X))
        r = assert_agrees(left, tape, head=4, **kw)
        assert (r.status, r.steps, r.head, tuple(r.cells)) == ("hit_wall", 4, -1, tuple(tape))
        for budget in range(7):
            for head in (0, 2, 4):
                assert_agrees(right, tape, head=head, max_steps=budget, **kw)
                assert_agrees(left, tape, head=head, max_steps=budget, **kw)


def test_alphabet_boundary_at_256_symbols():
    # the widest alphabet a byte tape holds: its top symbol still sweeps
    wide = Machine(2, 256, 0, 1, 0, False, Rules.of([(0, 255, ANY, 0, 255, RIGHT)]))
    shift = register((254, 255), symbols=256)
    flip = rewriter({254: 255, 255: 254}, symbols=256)
    assert sweeps(wide) == {(0, 255)}
    r = assert_agrees(wide, [255] * 200 + [7], max_steps=1000)
    assert (r.status, r.steps, r.head) == ("stuck", 200, 200)
    tape = [254, 255, 255] * 70 + [X]
    r = assert_agrees(shift, tape)
    assert (r.status, r.steps) == ("accepted", 211)
    r = assert_agrees(flip, tape, max_steps=100)
    assert (r.status, r.steps, r.head) == ("timeout", 100, 100)
    with pytest.raises(ValueError, match="256"):
        Machine(2, 257, 0, 1, 0, False, Rules.of(()))


# --- the track ---------------------------------------------------------------------

# reads only O; a track value of 2 once indexed the O row from a Z cell
READS_O = Machine(2, 4, 0, 1, B, True, Rules.of([(0, O, ANY, 1, O, STAY)]))
# marks the cells whose track bit is 1, and accepts on the blank
MARKER = Machine(2, 4, 0, 1, B, True, Rules.of([
    (0, Z, T1, 0, O, RIGHT),
    (0, Z, T0, 0, Z, RIGHT),
    (0, B, ANY, 1, B, STAY),
]))


@pytest.mark.parametrize("track", [[2], b"\x02", bytearray([2]), [256], [-1]],
                         ids=["list", "bytes", "bytearray", "past-a-byte", "negative"])
def test_track_values_other_than_0_1_are_rejected(track):
    with pytest.raises(ValueError):
        run_machine(READS_O, [Z], track=track, max_steps=1_000_000)


def test_a_checked_track_vouches_for_no_other():
    good = bytes([0, 1] * 50)
    bad = good[:-1] + b"\x02"
    assert assert_agrees(READS_O, [Z], track=good).status == "stuck"
    for track in (bad, list(bad), bytearray(bad)):
        with pytest.raises(ValueError):
            run_machine(READS_O, [Z], track=track, max_steps=1_000_000)
    # a bytearray changed after a run that checked it
    changing = bytearray(good)
    run_machine(READS_O, [Z], track=changing, max_steps=1_000_000)
    changing[-1] = 2
    with pytest.raises(ValueError):
        run_machine(READS_O, [Z], track=changing, max_steps=1_000_000)


@pytest.mark.parametrize("bits", [[], [1], [0, 1, 1], [1, 0, 1, 1, 0, 0, 1, 1, 1, 1, 1]])
def test_0_1_tracks_run_whatever_their_type(bits):
    # empty, shorter and longer than the 9-cell tape
    tape = [Z] * 8 + [B]
    want = assert_agrees(MARKER, tape, track=bits)
    assert want.status == "accepted" and want.cells.count(O) == sum(bits[:8])
    for track in (bytes(bits), bytearray(bits), tuple(bits)):
        assert outcome(run_machine(MARKER, tape, track=track, max_steps=1_000_000)) == outcome(want)


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
        cond = draw(st.sampled_from((ANY, T0, T1))) if program_track else ANY
        move = draw(st.sampled_from((LEFT, RIGHT, STAY)))
        if draw(st.booleans()):  # a self-loop: a candidate sweep
            rules.append((q, s, cond, q, s, move))
        else:
            rules.append((q, s, cond, draw(st.integers(0, states - 1)),
                          draw(st.integers(0, symbols - 1)), move))
    m = Machine(states, symbols, draw(st.integers(0, states - 1)),
                draw(st.integers(0, states - 1)), draw(st.integers(0, symbols - 1)),
                program_track, Rules.of(rules))
    tape = draw(st.lists(st.integers(0, symbols - 1), min_size=1, max_size=12))
    kw = {
        "head": draw(st.integers(0, len(tape) - 1)),
        "max_steps": draw(st.integers(0, 40)),
    }
    if draw(st.booleans()):
        kw["track"] = draw(st.lists(st.integers(0, 1), max_size=14))
    return m, tape, kw


@settings(max_examples=400, deadline=None)
@given(machines_and_runs())
def test_random_machines_agree(case):
    m, tape, kw = case
    assert_agrees(m, tape, **kw)
    assert_rows_match_reference(m)


@st.composite
def planted_runs(draw):
    """Machines with a register family and a loop (a sweep where it writes
    back what it reads) planted among random rules (which may come first and
    shadow parts of them), run on tapes of up to 300 cells made mostly of
    long runs of the planted symbols, so that sweeps cross the scan's slice
    boundaries."""
    symbols = draw(st.integers(2, 6))
    states = draw(st.integers(4, 8))
    program_track = draw(st.booleans())
    pick = st.integers(0, symbols - 1)

    def cond():
        # now and then a track condition, which splits what it touches
        return draw(st.sampled_from((ANY,) * 7 + (T0,))) if program_track else ANY

    # the family's states, the looping state and the accept state differ
    domain = draw(st.lists(pick, min_size=2, max_size=min(symbols, states - 2),
                           unique=True))
    order = draw(st.permutations(range(states)))
    family, q, accept = order[: len(domain)], order[len(domain)], order[len(domain) + 1]
    move, loop_move = draw(st.sampled_from((LEFT, RIGHT))), draw(st.sampled_from((LEFT, RIGHT)))
    planted = [(r, a, cond(), family[k], c, move)
               for r, c in zip(family, domain) for k, a in enumerate(domain)]
    loop = draw(st.lists(pick, min_size=1, max_size=symbols, unique=True))
    planted += [(q, a, cond(), q, draw(pick), loop_move) for a in loop]
    extra = [(draw(st.integers(0, states - 1)), draw(pick), cond(),
              draw(st.integers(0, states - 1)), draw(pick),
              draw(st.sampled_from((LEFT, RIGHT, STAY))))
             for _ in range(draw(st.integers(0, 6)))]
    in_family = draw(st.booleans())
    m = Machine(states, symbols, draw(st.sampled_from(family)) if in_family else q,
                accept, draw(pick), program_track,
                Rules.of(draw(st.permutations(planted + extra))))
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
            left = (move if in_family else loop_move) == LEFT
            heads.append(len(tape) + (length - 1 if left else 0))
        tape += rnd.choices(domain if kind == "family" else loop, k=length)
    tape = tape[:300] or [0]
    heads = [h for h in heads if h < len(tape)]
    kw = {
        "head": draw(st.one_of(st.sampled_from(heads or [0]),
                               st.integers(0, len(tape) - 1))),
        "max_steps": rnd.randint(0, rnd.choice((40, 1500))),
    }
    if program_track:
        kw["track"] = draw(st.lists(st.integers(0, 1), max_size=320))
    return m, tape, kw


@settings(max_examples=300, deadline=None)
@given(planted_runs())
def test_planted_jumps_agree(case):
    m, tape, kw = case
    assert_agrees(m, tape, **kw)
    assert_rows_match_reference(m)


# --- the fixed-point checker and the universal machine -------------------------


def test_checker_tiles_agree(fp):
    track = fp.track()
    resident = fp.edge_records(150, 10, 0, 0, 0, 0)
    walk = fp.edge_records(3, 100, 0, 0, fp.padded[fp.fold(3, 101)], fp.padded[fp.fold(3, 100)])
    probe = list(fp.edge_records(7, 64, 0, 0, 0, 0))
    i, j, _ = unpack_record(fp.n, probe[3])
    probe[3] = pack_record(fp.n, i, j, 1 - fp.padded[fp.fold(7, 64)])
    for quad, status in ((resident, "accepted"), (walk, "accepted"), (tuple(probe), "stuck")):
        r = assert_agrees(fp.machine, checker_tape(fp.n, *quad), track=track,
                          max_steps=fp.budget)
        assert r.status == status, quad


def test_resident_runs_scan_the_set_track_once(fp):
    # fixpoint-audit passes fp.track() to every resident run, which costs
    # about 0.1 ms; a fresh copy per call, or a lost memo, would add a scan
    # of the 41,216-cell track to each
    assert fp.track() is fp.track_bits
    quad = fp.edge_records(150, 10, 0, 0, 0, 0)
    misses = _checked_track.cache_info().misses
    for k in range(100):
        track = fp.track() if k % 2 else None
        assert run_checker(fp, quad, track=track).status == "accepted"
    assert _checked_track.cache_info().misses - misses <= 1


def test_universal_run_agrees(fp):
    utm = universal_machine(fp.state_bits)
    quad = fp.edge_records(150, 10, 0, 0, 0, 0)
    tape = utm_tape(list(fp.program), checker_tape(fp.n, *quad), state_bits=fp.state_bits)
    r = assert_agrees(utm, tape, max_steps=200_000)
    assert (r.status, r.steps) == ("timeout", 200_000)


def test_worst_walk_pinned(fp):
    x, y = 255, 222
    quad = fp.edge_records(x, y, 0, 0, fp.padded[fp.fold(x, y + 1)], fp.padded[fp.fold(x, y)])
    r = run_checker(fp, quad)
    assert (r.status, r.steps) == ("accepted", 3_244_140)


# --- dispatch rows compiled on first use ---------------------------------------


@pytest.mark.parametrize("name", ["corpus", "checker", "drag lemma", "universal"])
def test_rows_match_the_eager_reference(fp, name):
    # a fresh copy of universal_machine(8), whose rows other tests leave alone
    machines = {"corpus": list(machine_corpus().values()), "checker": [fp.machine],
                "drag lemma": [fp.drag.machine], "universal": [replace(universal_machine(8))]}
    for m in machines[name]:
        assert_rows_match_reference(m)


def test_a_universal_accept_compiles_few_rows(fp):
    # the flat table had a slot for every (state, symbol) of 89,592 states
    # and held 30.1 MB; one accept of a resident quad, 25,122,739 steps,
    # reaches 3,785 states
    utm = replace(universal_machine(fp.state_bits))
    assert all(row is None for row in utm.dispatch)
    quad = fp.edge_records(150, 10, 0, 0, 0, 0)
    r = run_encoded(utm, list(fp.program), checker_tape(fp.n, *quad), max_steps=10**8,
                    state_bits=fp.state_bits)
    assert (r.status, r.steps) == ("accepted", 25_122_739)
    reached = [q for q, row in enumerate(utm.dispatch) if row is not None]
    assert (utm.states, len(reached)) == (89_592, 3_785)
    # the same rows and the by-state index, traced on a fresh copy: the
    # index holds the bounds of the 97,271 same-state runs of the 467,798
    # rules (0.8 MB) and 0.4 MB of offsets; an index of rule ids read
    # 4,241,157 bytes in all, this one 3,079,997 (CPython 3.11, x86-64)
    fresh = replace(utm)
    assert not any(fresh.dispatch)  # the slots, made before the trace
    tracemalloc.start()
    try:
        for q in reached:
            fresh.row(q)
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert traced < 3_850_000


# --- universal runs: the program region crossed once per entry state ------------

REGION = (U_BIT0, U_BIT1, U_END, U_ORIGIN, U_SEP)


def assert_encoded_agrees(utm, program, symbols, track=None, *, max_steps, state_bits=8):
    """``run_encoded`` against the plain run of ``utm`` on its tape."""
    got = run_encoded(utm, program, symbols, track, max_steps=max_steps, state_bits=state_bits)
    tape = utm_tape(program, symbols, track, state_bits=state_bits)
    assert outcome(got) == outcome(run_machine(utm, tape, max_steps=max_steps))
    return got


def assert_every_budget_agrees(utm, program, symbols, track=None, *, state_bits=8):
    """The full run, then budgets 0, 1, 2, a third of its steps, all but
    one and all of them."""
    full = assert_encoded_agrees(utm, program, symbols, track, max_steps=10**8,
                                 state_bits=state_bits)
    s = full.steps
    for budget in sorted({0, 1, 2, s // 3, max(s - 1, 0), s}):
        assert_encoded_agrees(utm, program, symbols, track, max_steps=budget,
                              state_bits=state_bits)
    return full


@pytest.mark.parametrize("bits", range(1, 10))
def test_universal_machines_keep_the_program_region(bits):
    # every rule that reads a region symbol writes it back, so cells 0
    # through the end marker never change during a universal run
    utm = universal_machine(bits)
    rules = utm.transitions
    assert all(w == s for s, w in zip(rules.read, rules.write) if s in REGION)
    assert _keeps_region(utm)


@pytest.mark.parametrize("track", [None, [1, 0, 1]])
@pytest.mark.parametrize("name", sorted(machine_corpus()))
def test_universal_corpus_runs_agree(name, track):
    utm, program = universal_machine(8), encode_program(machine_corpus()[name])
    for n in range(5):
        for x in itertools.product((SYM_ZERO, SYM_ONE), repeat=n):
            assert_every_budget_agrees(utm, program, list(x), track)


@pytest.mark.parametrize("name, bits", [("always", 1), ("parity", 2), ("palindrome", 3),
                                        ("chessboard", 3)])
def test_universal_runs_at_the_fewest_state_bits(name, bits):
    # each machine on the smallest universal machine that encodes it, on
    # every input of length 0-4: the run agrees with the plain run of that
    # machine on its tape, and accepts where the simulated machine does
    m = chessboard_predicate_machine() if name == "chessboard" else machine_corpus()[name]
    assert 1 << (bits - 1) < m.states <= 1 << bits
    utm, program = universal_machine(bits), encode_program(m, bits)
    for n in range(5):
        for x in itertools.product((SYM_ZERO, SYM_ONE), repeat=n):
            sim = assert_encoded_agrees(utm, program, list(x), max_steps=10**6, state_bits=bits)
            direct = run_machine(m, [*x, SYM_BLANK], max_steps=10_000)
            assert (sim.status == "accepted") == (direct.status == "accepted"), x


def resident(fp, x, y):
    """The quad of the resident tile at (x, y) whose seam vals are 0."""
    def vert(row):
        return fp.padded[fp.fold(x, row)] if row in fp.band else 0
    return fp.edge_records(x, y, 0, 0, vert(y + 1), vert(y))


def corrupted(fp, x, y, mode):
    """The resident quad at (x, y) with one record broken as the audit's
    reject probes break it."""
    quad = list(resident(fp, x, y))
    n, size = fp.n, fp.size
    side = {"successor": 1, "top_column": 2, "pinned_val": 0, "row": 0}[mode]
    i, j, v = unpack_record(n, quad[side])
    quad[side] = {"successor": pack_record(n, (x + 2) % size, y, 0),
                  "top_column": pack_record(n, (i + 1) % size, j, v),
                  "pinned_val": pack_record(n, i, j, 1 - v),
                  "row": pack_record(n, i, (j + 1) % size, v)}[mode]
    return tuple(quad)


@pytest.mark.parametrize("case", [(150, 10, None), (7, 20, None), (200, 250, None),
                                  (150, 10, "successor"), (150, 10, "top_column"),
                                  (150, 10, "pinned_val"), (150, 10, "row")],
                         ids=lambda c: f"{c[2] or 'accept'}-{c[0]}-{c[1]}")
def test_universal_checker_runs_agree(fp, case):
    x, y, mode = case
    quad = resident(fp, x, y) if mode is None else corrupted(fp, x, y, mode)
    assert (quad in fp.accepted) == (mode is None)
    full = assert_every_budget_agrees(universal_machine(fp.state_bits), list(fp.program),
                                      checker_tape(fp.n, *quad), state_bits=fp.state_bits)
    assert full.status == ("accepted" if mode is None else "stuck")


def test_every_budget_around_each_region_crossing():
    # the second and third simulated steps read the same key, so they
    # enter the region from one state and the third crossing is replayed
    utm, program, x = universal_machine(8), encode_program(parity_machine()), [SYM_ZERO] * 3
    tape = utm_tape(program, x)
    end = tape.index(U_END)
    run, crossings, entries = Run(utm, tape), [0], []
    last = run.head
    while run.go(run.steps + 1) == "timeout":
        if (last > end) != (run.head > end):
            crossings.append(run.steps)
            if run.head == end:
                entries.append(run.state)
        last = run.head
    assert run.status == "accepted"
    assert len(set(entries)) < len(entries)
    # each stretch in the region, from its entry to its exit, and one more
    # step either side
    for entry, leave in zip(crossings[::2], crossings[1::2]):
        for budget in range(max(entry - 1, 0), leave + 2):
            assert_encoded_agrees(utm, program, x, max_steps=budget)


def test_a_run_from_cell_0_is_no_crossing():
    # sweep right from cell 0 over the region, unflag the first work cell
    # and step back onto the end marker, all in the start state, then
    # accept on the unflagged cell: the start state's path from cell 0
    # takes end + 1 steps, its path from the end marker 2
    work = [(s, b) for s in range(4) for b in (0, 1)]
    m = Machine(2, U_SYMBOLS, 0, 1, U_BLANK, False, Rules.of(
        [(0, s, ANY, 0, s, RIGHT) for s in REGION]
        + [(0, work_cell(s, 1, b), ANY, 0, work_cell(s, 0, b), LEFT) for s, b in work]
        + [(0, work_cell(s, 0, b), ANY, 1, work_cell(s, 0, b), STAY) for s, b in work]))
    assert _keeps_region(m)
    program = encode_program(always_accept_machine())
    end = utm_tape(program, [SYM_ZERO]).index(U_END)
    r = assert_encoded_agrees(m, program, [SYM_ZERO], max_steps=10**6)
    assert (r.status, r.steps, r.head) == ("accepted", end + 4, end + 1)
    for budget in range(end + 6):
        assert_encoded_agrees(m, program, [SYM_ZERO], max_steps=budget)


def test_a_machine_that_writes_the_region_is_not_replayed():
    # doctored copies of universal_machine(8) in which one rule that leaves
    # a skipped record, reading its U_SEP, writes U_BIT0: the record then
    # runs into the next, so a later crossing from an entry state seen
    # before takes another path than the first did
    utm, program = universal_machine(8), encode_program(parity_machine())
    x = [SYM_ONE, SYM_ZERO, SYM_ZERO]
    tape = utm_tape(program, x)
    fresh = replace(utm)
    plain = run_machine(fresh, tape, max_steps=10**6)
    reached = {q for q, row in enumerate(fresh.dispatch) if row is not None}
    rules = utm.transitions
    taken = [i for i, (q, s, q2) in enumerate(zip(rules.state, rules.read, rules.new_state))
             if s == U_SEP and q2 != q and q in reached]
    changed = 0
    for i in taken:
        writes = bytearray(rules.write)
        writes[i] = U_BIT0
        m = replace(utm, transitions=Rules(rules.state, rules.read, rules.track, rules.new_state,
                                           bytes(writes), rules.move))
        assert not _keeps_region(m)
        changed += outcome(run_machine(m, tape, max_steps=10**6)) != outcome(plain)
        assert_every_budget_agrees(m, program, x)
    assert changed


# --- block crossings: memoised on the machine, and exactly the plain run --------


def reference_outcomes(machine, tape, *, head=0, track=None, closed=False, max_steps):
    """``reference_run``'s outcome at every budget from 0 to ``max_steps``,
    from one run: entry b is (status, steps, state, head, cells) within b
    steps.  A run stopped by its budget is a ``timeout`` (``accepted`` in
    the accept state), and on a ``closed`` tape the step past the last cell
    is a wall, not counted."""
    rules = reference_rules(machine)
    cells = list(tape) or [machine.blank]
    trk = list(track) if track is not None else []
    state, steps, outs = machine.start, 0, []
    while True:
        outs.append(("accepted" if state == machine.accept else "timeout",
                     steps, state, head, tuple(cells)))
        if steps == max_steps:
            return outs
        if state == machine.accept:
            end = "accepted"
            break
        move = rules.get((state, cells[head], trk[head] if head < len(trk) else 0))
        if move is None:
            end = "stuck"
            break
        state, cells[head], direction = move
        head += DELTAS[direction]
        if head < 0 or (closed and head == len(cells)):
            end = "hit_wall"
            break
        if head == len(cells):
            cells.append(machine.blank)
        steps += 1
    return outs + [(end, steps, state, head, tuple(cells))] * (max_steps + 1 - len(outs))


def assert_every_budget(machine, tape, *, head=0, track=None, closed=False, max_steps):
    """``Run.go`` at every budget from 0 to ``max_steps`` against
    ``reference_outcomes``, all on ``machine``, whose memo they share: the
    whole run first, so that the shorter ones meet its crossings there, and
    the shorter ones cut its crossings off.  Returns the whole run's
    outcome."""
    outs = reference_outcomes(machine, tape, head=head, track=track, closed=closed,
                              max_steps=max_steps)
    for budget in (max_steps, *range(max_steps + 1)):
        run = Run(machine, tape, head=head, track=track, closed=closed)
        run.go(budget)
        assert outcome(run) == outs[budget], budget
    return outs[-1]


@contextlib.contextmanager
def no_blocks():
    """``Run.go`` without block crossings: the plain engine, which the
    tests above hold to ``reference_run``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Machine, "crossings", property(lambda self: None))
        yield


@st.composite
def block_runs(draw):
    """Program-track machines with a rule, or a pair split by the track bit,
    for most (state, symbol), so that runs wander across blocks, on tapes of
    up to three blocks and tracks that may end before the tape does."""
    states, symbols = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    rules = []
    for q in range(states):
        for s in range(symbols):
            for cond in draw(st.sampled_from(((), (ANY,), (ANY,), (T0, T1), (T1,)))):
                q2 = draw(st.integers(0, states - 1))
                w = s if q2 == q and draw(st.booleans()) else draw(st.integers(0, symbols - 1))
                rules.append((q, s, cond, q2, w, draw(st.sampled_from((LEFT, RIGHT, RIGHT, STAY)))))
    m = Machine(states, symbols, 0, draw(st.integers(1, states - 1)), 0, True,
                Rules.of(draw(st.permutations(rules))))
    tape = draw(st.lists(st.integers(0, symbols - 1), min_size=1, max_size=3 * BLOCK + 4))
    track = draw(st.lists(st.integers(0, 1), max_size=3 * BLOCK + 8))
    return m, tape, {"head": draw(st.integers(0, len(tape) - 1)), "track": track,
                     "closed": draw(st.booleans()), "max_steps": draw(st.integers(0, 160))}


@settings(max_examples=150, deadline=None)
@given(block_runs(), st.data())
def test_block_crossings_agree_at_every_budget(case, data):
    m, tape, kw = case
    assert_every_budget(m, tape, **kw)
    # the same machine, its memo full, on a track one bit off
    if kw["track"]:
        track = list(kw["track"])
        track[data.draw(st.integers(0, len(track) - 1))] ^= 1
        assert_every_budget(m, tape, **{**kw, "track": track})


def test_a_loop_inside_one_block_times_out_at_the_budget():
    # R and L in turn between cells 40 and 41, never leaving the block: each
    # crossing is cut off by the budget, which ends the run, and none is kept
    m = Machine(3, 2, 0, 2, 0, True, Rules.of([(0, s, ANY, 1, 1 - s, RIGHT) for s in (0, 1)]
                                              + [(1, s, ANY, 0, s, LEFT) for s in (0, 1)]))
    for budget in (10_001, 10_000, 1, 0):
        r = Run(m, [0] * 64, head=40)
        assert (r.go(budget), r.steps, r.head) == ("timeout", budget, 40 + budget % 2)
    assert_every_budget(m, [0] * 64, head=40, max_steps=3 * BLOCK)
    assert not m.crossings


@pytest.mark.parametrize("halt", ["stuck", "accepted", "swept"])
def test_a_halt_exactly_at_the_budget_is_a_timeout(halt):
    # right over 1s, writing 2s, from cell 33 to the 3 at cell 40: 7 steps,
    # then stuck there, or one step more into the accept state; "swept"
    # writes one 2 and sweeps the other 1s in state 2, inside the crossing,
    # before it is stuck
    rules = {"stuck": [(0, 1, ANY, 0, 2, RIGHT)],
             "accepted": [(0, 1, ANY, 0, 2, RIGHT), (0, 3, ANY, 1, 3, STAY)],
             "swept": [(0, 1, ANY, 2, 2, RIGHT), (2, 1, ANY, 2, 1, RIGHT)]}[halt]
    m = Machine(3, 4, 0, 1, 0, True, Rules.of(rules))
    assert sweeps(m) == ({(2, 1)} if halt == "swept" else set())
    tape = [1] * 40 + [3] + [1] * 23
    status, steps = ("accepted", 8) if halt == "accepted" else ("stuck", 7)
    for _ in range(2):  # the crossing stepped, then replayed
        r = Run(m, tape, head=33)
        assert (r.go(100), r.steps, r.head) == (status, steps, 40)
    r = Run(m, tape, head=33)
    # the budget spent on the halting step's lookup: the plain run's timeout,
    # read as accepted in the accept state
    assert (r.go(steps), r.steps) == ("accepted" if halt == "accepted" else "timeout", steps)
    assert_every_budget(m, tape, head=33, max_steps=12)


def test_walls_at_block_edges_are_not_counted():
    # left from cell 37, writing 2s, off cell 0; right from cell 50 off a
    # closed tape's last cell, the end of its second block
    left = Machine(2, 4, 0, 1, 0, True, Rules.of([(0, 1, ANY, 0, 2, LEFT)]))
    right = Machine(2, 4, 0, 1, 0, True, Rules.of([(0, 1, ANY, 0, 2, RIGHT)]))
    for _ in range(2):
        r = Run(left, [1] * 64, head=37)
        assert (r.go(1000), r.steps, r.head) == ("hit_wall", 37, -1)
        r = Run(right, [1] * 2 * BLOCK, head=50, closed=True)
        assert (r.go(1000), r.steps, r.head) == ("hit_wall", 13, 2 * BLOCK)
        assert tuple(r.cells) == (1,) * 50 + (2,) * 14
    assert_every_budget(left, [1] * 64, head=37, max_steps=40)
    assert_every_budget(right, [1] * 2 * BLOCK, head=50, closed=True, max_steps=16)


def test_growth_at_a_block_edge():
    # right over 1s off the last cell of a one-block tape, then three
    # steps on grown blanks before accepting: the new cells start a block
    m = Machine(4, 4, 0, 1, 0, True, Rules.of([
        (0, 1, ANY, 0, 2, RIGHT), (0, 0, ANY, 2, 3, RIGHT), (2, 0, ANY, 3, 3, RIGHT),
        (3, 0, ANY, 1, 3, STAY)]))
    for _ in range(2):
        r = Run(m, [1] * BLOCK, head=20)
        assert (r.go(1000), r.steps, r.head) == ("accepted", 15, BLOCK + 2)
        assert tuple(r.cells) == (1,) * 20 + (2,) * 12 + (3,) * 3
    assert_every_budget(m, [1] * BLOCK, head=20, max_steps=20)
    assert_every_budget(m, [1] * BLOCK, head=20, closed=True, max_steps=20)


# right from cell 36 writing 2s until a track 1, where it marks the cell
# 3 and turns back over its 2s, writing 1s, to the last 0 or 3, sweeps
# right over the 1s and goes on past the mark; it accepts on the 1 at
# cell 70
TRACKED = Machine(4, 4, 0, 1, 0, True, Rules.of([
    (0, 0, T0, 0, 2, RIGHT), (0, 0, T1, 2, 3, LEFT), (0, 1, ANY, 1, 1, STAY),
    (2, 2, ANY, 2, 1, LEFT), (2, 0, ANY, 3, 0, RIGHT), (2, 3, ANY, 3, 3, RIGHT),
    (3, 1, ANY, 3, 1, RIGHT), (3, 3, ANY, 0, 3, RIGHT)]))
TRACKED_TAPE = [0] * 70 + [1]


def test_a_track_shorter_than_the_tape():
    # the track ends inside the second block; cells past it read 0, as
    # the same bits padded with zeros to the tape's length read
    m = replace(TRACKED)
    track = [0] * 44 + [1, 0, 0, 1]
    ends = [assert_every_budget(m, TRACKED_TAPE, head=36, track=t, max_steps=120)
            for t in (track, track + [0] * 30, track)]
    assert ends[0] == ends[1] == ends[2]
    assert ends[0][:2] == ("accepted", 59)


def test_two_tracks_one_bit_apart_share_the_memo():
    # a 1 under cell 40 turns the run back early; without it the run
    # crosses the same cells from the same state another way
    plain = [0] * 44 + [1]
    flipped = plain[:40] + [1] + plain[41:]
    for order in ((plain, flipped), (flipped, plain)):
        m = replace(TRACKED)
        ends = [assert_every_budget(m, TRACKED_TAPE, head=36, track=t, max_steps=100)
                for t in order]
        assert ends[0][1:] != ends[1][1:]
        assert ends[0][0] == ends[1][0] == "accepted"


def test_the_memo_is_cleared_at_its_bound(monkeypatch):
    monkeypatch.setattr(machine_module, "CROSSINGS", 5)
    m = replace(TRACKED)
    sizes = []
    for k in range(12):
        assert_every_budget(m, [0] * (k + 60) + [1], head=36, track=[0] * (k + 38) + [1],
                            max_steps=90)
        sizes.append(len(m.crossings))
    assert max(sizes) <= 5
    assert any(b < a for a, b in zip(sizes, sizes[1:]))


def test_a_cut_off_crossing_is_not_kept():
    # a budget that ends inside the crossing of cells 33..40 leaves the
    # memo without it; a later whole run steps it and keeps it
    m = Machine(2, 4, 0, 1, 0, True, Rules.of([(0, 1, ANY, 0, 2, RIGHT)]))
    tape = [1] * 40 + [3] + [1] * 23
    for budget in range(7):
        Run(m, tape, head=33).go(budget)
    assert not m.crossings
    r = Run(m, tape, head=33)
    assert (r.go(100), r.steps, r.head) == ("stuck", 7, 40)
    assert len(m.crossings) == 1


def test_a_closed_run_cuts_no_blocks():
    # a closed tape is one crossing already: its run keeps no crossings
    # and ends where the plain run does, at every budget, off the tape's
    # last cell or accepting inside it
    right = Machine(2, 4, 0, 1, 0, True, Rules.of([(0, 1, ANY, 0, 2, RIGHT)]))
    assert assert_every_budget(right, [1] * 2 * BLOCK, head=20, closed=True,
                               max_steps=50)[:4] == ("hit_wall", 43, 0, 2 * BLOCK)
    m = replace(TRACKED)
    assert assert_every_budget(m, TRACKED_TAPE, head=36, track=[0] * 44 + [1], closed=True,
                               max_steps=80)[0] == "accepted"
    assert not right.crossings and not m.crossings


# --- block crossings on the N=256 checker ---------------------------------------


@pytest.mark.parametrize("fresh", [False, True], ids=["shared memo", "empty memo"])
def test_checker_residents_and_probes_at_every_budget(fp, fresh):
    # every budget of three residents and a probe of each kind, on the
    # checker run_checker steps, with the memo other runs filled or empty
    m = replace(fp.drag.machine) if fresh else fp.drag.machine
    cases = [(resident(fp, x, y), "accepted") for x, y in ((150, 10), (7, 20), (200, 250))]
    cases += [(corrupted(fp, 150, 10, mode), "stuck")
              for mode in ("successor", "top_column", "pinned_val", "row")]
    for quad, status in cases:
        tape = checker_tape(fp.n, *quad)
        full = run_checker(fp, quad)
        assert full.status == status
        end = assert_every_budget(m, tape, track=fp.track_bits, max_steps=full.steps + 1)
        assert end == outcome(full)


def walk_quad(fp, x, y):
    return fp.edge_records(x, y, 0, 0, fp.padded[fp.fold(x, y + 1)], fp.padded[fp.fold(x, y)])


@pytest.mark.parametrize("x, y, flip", [(3, 100, False), (3, 100, True), (255, 222, False),
                                        (40, 64, True)])
def test_checker_walks_and_mutated_tracks_agree(fp, x, y, flip):
    # walks, with the drag lemma, under the set's track or one whose bit the
    # walk reads is flipped, against the plain engine: every budget over
    # the first crossings, and the whole run
    track = bytearray(fp.track_bits)
    if flip:
        track[fp.track_offset + fp.fold(x, y)] ^= 1
    track = bytes(track)
    tape = checker_tape(fp.n, *walk_quad(fp, x, y))

    def runs(budgets):
        return [outcome(run_machine(fp.drag.machine, tape, track=track, max_steps=b,
                                    macro=fp.drag)) for b in budgets]

    budgets = [*range(600), fp.budget]
    with no_blocks():
        want = runs(budgets)
    assert runs(budgets) == want
    assert want[-1][0] == ("stuck" if flip else "accepted")
