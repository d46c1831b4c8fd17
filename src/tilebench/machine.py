"""Turing machines, their space-time diagrams, and a universal machine.

Machines here are deterministic-by-order: the first listed transition whose
(state, symbol, track condition) matches is the one that fires.  A machine
may carry a read-only 0/1 track under its tape; transitions can condition
on the track bit, which is how a checker can compare its input against a
fixed bit string without storing it in states.

Space-time diagrams are read bottom-up: row t maps the configuration after
t steps to the configuration after t+1.  ``diagram_local_rules`` turns a
machine into the per-cell rules of that diagram (the raw material for
building tile sets whose tilings are exactly accepting runs).  Acceptance
freezes the configuration, so a taller diagram stays valid once the
machine has accepted.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence

MOVES = ("L", "R", "S")


class Transition(NamedTuple):
    state: int
    read: int
    track: int | None
    new_state: int
    write: int
    move: str


@dataclass(frozen=True)
class Machine:
    states: int
    symbols: int
    start: int
    accept: int
    blank: int
    program_track: bool
    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        if not (0 <= self.start < self.states and 0 <= self.accept < self.states):
            raise ValueError("start/accept states out of range")
        if not (0 <= self.blank < self.symbols):
            raise ValueError("blank symbol out of range")
        for t in self.transitions:
            if not (0 <= t.state < self.states and 0 <= t.new_state < self.states):
                raise ValueError(f"transition {t} references unknown state")
            if not (0 <= t.read < self.symbols and 0 <= t.write < self.symbols):
                raise ValueError(f"transition {t} references unknown symbol")
            if t.move not in MOVES:
                raise ValueError(f"transition {t} has bad move")
            if t.track is not None and not self.program_track:
                raise ValueError("track condition on a machine without a track")
            if t.track not in (None, 0, 1):
                raise ValueError("track condition must be None, 0 or 1")

    def dispatch(self) -> list:
        """The compiled dispatch table, built once and cached on the instance.

        Entry ``(state*symbols + symbol)*tracks + bit`` (``tracks`` is 2 for
        program-track machines, else 1 and the bit is 0) holds the first
        matching transition as ``(new state, write, move delta, jump)``, or
        None when nothing fires; the accept state's rows are all None.
        ``jump`` is None, or ``(run, translate, succ)`` when the step starts a
        run that ``run_machine`` crosses in one go.  ``run`` is a bytearray of
        the symbols the run goes on over; the jump is one of three kinds,
        each found from the table alone and only where the entries agree on
        every track bit:

        - *sweep* (``translate`` empty, ``succ`` None): a state that moves
          one way, or stays put, on its own symbols and writes them back;
        - *rewriting sweep* (``translate`` a 256-byte map): a state that
          moves one way on its symbols and writes ``translate[symbol]``;
        - *register shift* (``succ`` a tuple indexed by symbol, ``translate``
          empty): a family of states ``q_c`` sharing the run symbols D and a
          direction, where ``q_c`` on ``a`` in D writes its carry ``c`` and
          goes on to ``q_a = succ[a]``; crossing the run shifts it one cell
          and ends in ``succ[last cell crossed]``.

        The bytearrays are shared by the entries of one run and never change
        after the build (byte strings rather than sets keep the entries out
        of the cyclic garbage collector).  Alphabets over 256 symbols get no
        jumps, since a byte tape cannot hold them.
        """
        table = self.__dict__.get("_dispatch")
        if table is None:
            table = _compile(self)
            object.__setattr__(self, "_dispatch", table)
        return table

    def to_json(self) -> dict:
        return {
            "states": self.states,
            "symbols": self.symbols,
            "start": self.start,
            "accept": self.accept,
            "blank": self.blank,
            "program_track": self.program_track,
            "transitions": [
                [t.state, t.read, t.track, t.new_state, t.write, t.move]
                for t in self.transitions
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Machine":
        return cls(
            obj["states"],
            obj["symbols"],
            obj["start"],
            obj["accept"],
            obj["blank"],
            obj["program_track"],
            tuple(Transition(*t) for t in obj["transitions"]),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, s: str) -> "Machine":
        return cls.from_json(json.loads(s))


#: Head movement per move letter.
DELTAS = {"L": -1, "R": 1, "S": 0}


def _compile(m: Machine) -> list:
    """Build ``Machine.dispatch``'s table: one pass over the rules per bit,
    which also builds each state's loops (sweeps and rewriting sweeps); then
    the single-symbol loops seed the register families."""
    syms, tracks = m.symbols, 2 if m.program_track else 1
    table: list = [None] * (m.states * syms * tracks)
    jumps = syms <= 256
    loops: dict[tuple[int, int], tuple] = {}
    for b in range(tracks):
        for t in m.transitions:
            if t.track is not None and t.track != b:
                continue
            q, s = t.state, t.read
            i = (q * syms + s) * tracks + b
            if table[i] is not None or q == m.accept:
                continue  # an earlier rule matches first, or accepted
            d = DELTAS[t.move]
            e = (t.new_state, t.write, d, None)
            # the last bit's pass marks the loops that match on every bit; a
            # loop in place only spins when it writes back what it reads
            if (jumps and t.new_state == q and b == tracks - 1
                    and (d != 0 or t.write == s)
                    and (b == 0 or table[i - 1] == e)):
                jump = loops.get((q, d))
                if jump is None:
                    jump = loops[q, d] = (bytearray(), bytearray(), None)
                run, translate, _ = jump
                run.append(s)
                if t.write != s:
                    if not translate:
                        translate.extend(range(256))
                    translate[s] = t.write
                e = table[i - b] = (q, t.write, d, jump)
            table[i] = e
    # register families, seeded by the states that loop writing back on
    # exactly one symbol in a direction: that symbol is the state's carry
    carry = {key: run[0] for key, (run, translate, _) in loops.items()
             if len(run) == 1 and key[1] != 0 and not translate}
    seen: set[int] = set()
    for (q, d), c in carry.items():
        if q in seen:
            continue
        # D: the symbols on which q writes c, moves d and goes to the state
        # whose carry is that symbol; every such state must do the same on D
        succ = [0] * syms
        members = {}
        for a in range(syms):
            e = table[(q * syms + a) * tracks]
            if e is not None and e[1:3] == (c, d) and carry.get((e[0], d)) == a:
                succ[a] = e[0]
                members[e[0]] = a
        seen.update(members)
        rows = [((r * syms + a) * tracks + b, (succ[a], c2, d))
                for r, c2 in members.items() for a in members.values()
                for b in range(tracks)]
        if len(members) < 2 or any(
                table[i] is None or table[i][:3] != want for i, want in rows):
            continue
        jump = (bytearray(members.values()), b"", tuple(succ))
        for i, want in rows:
            table[i] = (*want, jump)
    return table


def _run_end(cells: bytearray, j: int, end: int, run: bytearray) -> int:
    """The first cell from j up to end (exclusive) whose symbol is not in
    run, or end; the cells are stripped in slices of doubling size."""
    size = 32
    while j < end:
        k = j + size if j + size < end else end
        left = len(cells[j:k].lstrip(run))
        if left:
            return k - left
        j = k
        size *= 2
    return end


def _run_start(cells: bytearray, j: int, end: int, run: bytearray) -> int:
    """The first cell from j down to end (exclusive) whose symbol is not in
    run, or end: ``_run_end`` mirrored."""
    size = 32
    while j > end:
        k = j - size if j - size > end else end
        left = len(cells[k + 1 : j + 1].rstrip(run))
        if left:
            return k + left
        j = k
        size *= 2
    return end


@dataclass
class RunResult:
    status: str  # "accepted" | "stuck" | "timeout" | "hit_wall"
    steps: int
    state: int
    head: int
    tape: tuple[int, ...]


def run_machine(
    machine: Machine,
    tape: Sequence[int],
    *,
    head: int = 0,
    track: Sequence[int] | None = None,
    max_steps: int = 1_000_000,
    grow: bool = False,
) -> RunResult:
    """Run until acceptance, a missing transition, a wall, or the budget.

    The tape is a bounded segment unless grow=True, which appends blanks on
    the right on demand (moving left of cell 0 is always a wall).  The
    optional 0/1 track is pinned to tape positions and read-only; cells past
    its end read as 0.  A negative budget is an error; a zero budget runs
    nothing.

    Steps go through the machine's compiled dispatch table.  The tape is a
    bytearray (a list for alphabets over 256 symbols, which step one cell
    at a time), so each jump of the table (see ``Machine.dispatch``) crosses
    its whole run in C: the run's end is found by stripping the run symbols
    off tape slices of doubling size, a rewriting sweep is one ``translate``
    of the crossed cells and a register shift one slice move.  Every cell
    crossed still counts one step, so step counts, budgets, walls, ``grow``
    and end configurations are exactly those of stepping one cell at a time.
    """
    if max_steps < 0:
        raise ValueError(f"negative step budget {max_steps}")
    table = machine.dispatch()
    syms, tracks = machine.symbols, 2 if machine.program_track else 1
    blank = machine.blank
    cells = list(tape) or [blank]
    if min(cells) < 0 or max(cells) >= syms:
        raise ValueError("tape symbol outside the machine's alphabet")
    if syms <= 256:
        cells = bytearray(cells)
    width = len(cells)
    if not 0 <= head < width:
        raise ValueError(f"head {head} outside the tape's {width} cells")
    trk = track if track is not None and tracks > 1 else ()
    ntrk = len(trk)
    state = machine.start
    steps = 0
    status = "timeout"
    while steps < max_steps:
        i = (state * syms + cells[head]) * tracks
        if head < ntrk:
            i += trk[head]
        try:
            state, write, delta, jump = table[i]
        except TypeError:  # no rule fires (the accept state has none)
            status = "accepted" if state == machine.accept else "stuck"
            break
        if jump is not None:
            # cross the run: cells [lo, hi) are crossed, j is where it stops
            run, translate, succ = jump
            if delta > 0:
                stop = head + max_steps - steps
                j = _run_end(cells, head + 1, stop if stop < width else width, run)
                if j == width:  # off the right end
                    if grow and blank in run:
                        cells.extend(bytes((blank,)) * (stop + 1 - width))
                        width = stop + 1
                        j = stop
                    else:
                        j = width - 1
                lo, hi = head, j
            elif delta < 0:
                stop = head - max_steps + steps
                j = _run_start(cells, head - 1, stop if stop > -1 else -1, run)
                if j < 0:  # the last step, off cell 0, hits the wall
                    j = 0
                lo, hi = j + 1, head + 1
            else:  # spins in place until the budget runs out
                steps = max_steps
                break
            if j != head:
                if succ is not None:  # each crossed cell takes its neighbour's
                    if delta > 0:
                        state = succ[cells[hi - 1]]
                        cells[lo + 1 : hi] = cells[lo : hi - 1]
                        cells[lo] = write
                    else:
                        state = succ[cells[lo]]
                        cells[lo : hi - 1] = cells[lo + 1 : hi]
                        cells[hi - 1] = write
                elif translate:
                    cells[lo:hi] = cells[lo:hi].translate(translate)
                steps += hi - lo
                head = j
                continue
        cells[head] = write
        head += delta
        if head < 0:
            status = "hit_wall"
            break
        if head >= width:
            if not grow:
                status = "hit_wall"
                break
            cells.append(blank)
            width += 1
        steps += 1
    if state == machine.accept and status == "timeout":
        status = "accepted"
    return RunResult(status, steps, state, head, tuple(cells))


# --- space-time diagram local rules -------------------------------------

#: Vertical-edge content: (symbol, head state or None, track bit).
Config = tuple[int, int | None, int]
#: Horizontal-edge content: None or ("L"/"R", state) for a head crossing.
Signal = tuple[str, int] | None


@dataclass(frozen=True)
class ZoneCellRule:
    below: Config
    above: Config
    left: Signal
    right: Signal


def diagram_local_rules(machine: Machine) -> list[ZoneCellRule]:
    """Every legal cell of the machine's space-time diagram.

    A cell either passes its symbol through (optionally receiving the head
    from a neighbor), or hosts the head and applies the resolved transition.
    Acceptance freezes: an accept-state head repeats itself upward, so
    diagrams taller than the run stay consistent.  Configurations with no
    applicable transition produce no rule at all - a diagram simply cannot
    continue through them.
    """
    table = machine.dispatch()
    tracks = (0, 1) if machine.program_track else (0,)
    rules: list[ZoneCellRule] = []
    for s in range(machine.symbols):
        for b in tracks:
            rules.append(ZoneCellRule((s, None, b), (s, None, b), None, None))
            for q in range(machine.states):
                # head arrives from the left / from the right
                rules.append(ZoneCellRule((s, None, b), (s, q, b), ("R", q), None))
                rules.append(ZoneCellRule((s, None, b), (s, q, b), None, ("L", q)))
                if q == machine.accept:
                    rules.append(ZoneCellRule((s, q, b), (s, q, b), None, None))
                    continue
                entry = table[(q * machine.symbols + s) * len(tracks) + b]
                if entry is None:
                    continue
                q2, w, d, _ = entry
                if d == 0:
                    rules.append(ZoneCellRule((s, q, b), (w, q2, b), None, None))
                elif d > 0:
                    rules.append(ZoneCellRule((s, q, b), (w, None, b), None, ("R", q2)))
                else:
                    rules.append(ZoneCellRule((s, q, b), (w, None, b), ("L", q2), None))
    return rules


# --- stock machines -------------------------------------------------------

# Shared small-alphabet convention: 0 = blank, 1 = letter "0", 2 = letter
# "1", 3 = mark.  Stock machines use start state 0 and accept state 1 so
# they can be fed to encode_program unchanged.
SYM_BLANK, SYM_ZERO, SYM_ONE, SYM_MARK = 0, 1, 2, 3


def always_accept_machine() -> Machine:
    """Accepts any input in one step."""
    ts = [Transition(0, s, None, 1, s, "S") for s in range(4)]
    return Machine(2, 4, 0, 1, SYM_BLANK, False, tuple(ts))


def parity_machine() -> Machine:
    """Accepts when the input holds an even number of ones."""
    even, acc, odd = 0, 1, 2
    ts = [
        Transition(even, SYM_ZERO, None, even, SYM_ZERO, "R"),
        Transition(even, SYM_ONE, None, odd, SYM_ONE, "R"),
        Transition(odd, SYM_ZERO, None, odd, SYM_ZERO, "R"),
        Transition(odd, SYM_ONE, None, even, SYM_ONE, "R"),
        Transition(even, SYM_BLANK, None, acc, SYM_BLANK, "S"),
    ]
    return Machine(3, 4, 0, 1, SYM_BLANK, False, tuple(ts))


def palindrome_machine() -> Machine:
    """Accepts palindromes over letters 0/1, by marking matched ends inward."""
    s0, acc, r0, r1, c0, c1, rew = range(7)
    Z, O, B, X = SYM_ZERO, SYM_ONE, SYM_BLANK, SYM_MARK
    ts = [
        Transition(s0, Z, None, r0, X, "R"),
        Transition(s0, O, None, r1, X, "R"),
        Transition(s0, B, None, acc, B, "S"),
        Transition(s0, X, None, acc, X, "S"),
        # run right over letters to the matched/blank edge
        Transition(r0, Z, None, r0, Z, "R"),
        Transition(r0, O, None, r0, O, "R"),
        Transition(r0, X, None, c0, X, "L"),
        Transition(r0, B, None, c0, B, "L"),
        Transition(r1, Z, None, r1, Z, "R"),
        Transition(r1, O, None, r1, O, "R"),
        Transition(r1, X, None, c1, X, "L"),
        Transition(r1, B, None, c1, B, "L"),
        # the last unmarked letter must match; a mark means nothing was left
        Transition(c0, Z, None, rew, X, "L"),
        Transition(c0, X, None, acc, X, "S"),
        Transition(c1, O, None, rew, X, "L"),
        Transition(c1, X, None, acc, X, "S"),
        # rewind to the leftmost unmarked letter
        Transition(rew, Z, None, rew, Z, "L"),
        Transition(rew, O, None, rew, O, "L"),
        Transition(rew, X, None, s0, X, "R"),
    ]
    return Machine(7, 4, 0, 1, SYM_BLANK, False, tuple(ts))


def machine_corpus() -> dict[str, Machine]:
    return {
        "always": always_accept_machine(),
        "parity": parity_machine(),
        "palindrome": palindrome_machine(),
    }


# --- machine descriptions as bit strings ----------------------------------

COND_ANY, COND_NEVER, COND_TRACK0, COND_TRACK1 = 0, 1, 2, 3
MOVE_CODES = {"S": 0, "L": 1, "R": 2}


def record_bits(state_bits: int) -> int:
    """valid(1) + state + symbol(2) + condition(2) + state + symbol(2) + move(2)."""
    return 9 + 2 * state_bits


def _field(value: int, width: int) -> list[int]:
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def encode_program(machine: Machine, state_bits: int = 8) -> list[int]:
    """The machine's transition table as a bit string, one fixed-size record
    per transition in priority order, closed by a 0 valid bit.

    Encodable machines use at most 4 symbols and 2**state_bits states, with
    start renumbered 0 and accept 1 (the stock machines already comply).
    """
    if machine.symbols > 4:
        raise ValueError("encoding supports at most 4 symbols")
    if machine.states > (1 << state_bits):
        raise ValueError(f"encoding supports at most {1 << state_bits} states")
    if machine.start != 0 or machine.accept != 1:
        raise ValueError("encoding expects start state 0 and accept state 1")
    bits: list[int] = []
    for t in machine.transitions:
        cond = COND_ANY if t.track is None else (COND_TRACK0 + t.track)
        bits.append(1)
        bits += _field(t.state, state_bits)
        bits += _field(t.read, 2)
        bits += _field(cond, 2)
        bits += _field(t.new_state, state_bits)
        bits += _field(t.write, 2)
        bits += _field(MOVE_CODES[t.move], 2)
    bits.append(0)
    return bits


# --- the universal machine ------------------------------------------------

# Universal tape symbols: administrative markers, program bits, then work
# cells carrying (simulated symbol, head flag, track bit).
U_BLANK, U_BIT0, U_BIT1, U_END, U_ORIGIN, U_SEP = range(6)
U_WORK_BASE = 6
U_SYMBOLS = U_WORK_BASE + 16


def work_cell(symbol: int, head: int, track: int) -> int:
    return U_WORK_BASE + symbol + 4 * head + 8 * track


def utm_tape(
    program: Sequence[int],
    input_symbols: Sequence[int],
    track: Sequence[int] | None = None,
    pad: int = 8,
    state_bits: int = 8,
) -> list[int]:
    """Lay out origin marker, separated records, end marker, and work zone.

    The work zone holds the simulated tape with the head flag on cell 0;
    its track bits default to 0.  ``pad`` blank work cells are appended so
    short runs never touch the wall.  Input symbols must lie in 0..3 and
    track bits in 0/1, the ranges a work cell encodes.
    """
    rb = record_bits(state_bits)
    if len(program) % rb != 1 or program[-1] != 0:
        raise ValueError("program must be whole records plus a 0 terminator bit")
    if any(s not in (0, 1, 2, 3) for s in input_symbols):
        raise ValueError("input symbols must lie in 0..3")
    if track is not None and any(b not in (0, 1) for b in track):
        raise ValueError("track bits must be 0 or 1")
    tape = [U_ORIGIN]
    for i in range(0, len(program) - 1, rb):
        tape += [U_BIT0 + b for b in program[i : i + rb]]
        tape.append(U_SEP)
    tape.append(U_BIT0)  # terminator record: valid bit 0
    tape.append(U_END)
    n = max(len(input_symbols), 1) + pad
    for i in range(n):
        s = input_symbols[i] if i < len(input_symbols) else 0
        b = track[i] if track is not None and i < len(track) else 0
        tape.append(work_cell(s, 1 if i == 0 else 0, b))
    return tape


@functools.cache
def universal_machine(state_bits: int = 8) -> Machine:
    """A machine that runs encoded programs laid out by utm_tape.

    The simulated state and the symbol/track under the simulated head are
    held in control, so matching a record costs a single left-to-right
    pass: compare the state field bit by bit, then the symbol field, then
    the track condition; on any mismatch, skip to the record separator and
    try the next record.  On a match the successor state, symbol, and move
    are collected and applied to the work zone, and acceptance of the
    simulated machine (state 1) accepts here too.

    Generation is deterministic, so the result is pinned by its state and
    transition counts rather than by shipping the table around.
    """
    ns = 1 << state_bits
    names: dict[tuple, int] = {}

    def st(*key) -> int:
        if key not in names:
            names[key] = len(names)
        return names[key]

    acc = st("UACC")
    start = st("seek", 0)
    ts: list[Transition] = []

    def add(state: int, read: int, new_state: int, write: int, move: str) -> None:
        ts.append(Transition(state, read, None, new_state, write, move))

    def ret_state(q: int, sym: int, trk: int) -> int:
        return acc if q == 1 else st("ret", q, sym, trk)

    passthrough = [U_BIT0, U_BIT1, U_END, U_ORIGIN, U_SEP]
    for q in range(ns):
        seek = st("seek", q)
        for sym in passthrough:
            add(seek, sym, seek, sym, "R")
        for s in range(4):
            for b in (0, 1):
                add(seek, work_cell(s, 0, b), seek, work_cell(s, 0, b), "R")
                add(seek, work_cell(s, 1, b), st("rew", q, s, b), work_cell(s, 1, b), "L")

    # rewind to the origin, then scan records
    for q in range(ns):
        for s in range(4):
            for b in (0, 1):
                rew = st("rew", q, s, b)
                rec = st("rec", q, s, b)
                skip = st("skip", q, s, b)
                for sym in [U_BIT0, U_BIT1, U_END, U_SEP] + [
                    work_cell(s2, h, b2) for s2 in range(4) for h in (0, 1) for b2 in (0, 1)
                ]:
                    add(rew, sym, rew, sym, "L")
                add(rew, U_ORIGIN, rec, U_ORIGIN, "R")
                # a 0 valid bit means no record matched: the simulation is stuck
                add(rec, U_BIT1, st("cq", q, s, b, 0), U_BIT1, "R")
                add(skip, U_BIT0, skip, U_BIT0, "R")
                add(skip, U_BIT1, skip, U_BIT1, "R")
                add(skip, U_SEP, rec, U_SEP, "R")
                # state field, most significant bit first
                for i in range(state_bits):
                    cq = st("cq", q, s, b, i)
                    expect = (q >> (state_bits - 1 - i)) & 1
                    nxt = st("cq", q, s, b, i + 1) if i + 1 < state_bits else st("cs", q, s, b, 0)
                    add(cq, U_BIT0 + expect, nxt, U_BIT0 + expect, "R")
                    add(cq, U_BIT1 - expect, skip, U_BIT1 - expect, "R")
                # symbol field
                for j in range(2):
                    cs = st("cs", q, s, b, j)
                    expect = (s >> (1 - j)) & 1
                    nxt = st("cs", q, s, b, 1) if j == 0 else st("cc", q, s, b)
                    add(cs, U_BIT0 + expect, nxt, U_BIT0 + expect, "R")
                    add(cs, U_BIT1 - expect, skip, U_BIT1 - expect, "R")
                # condition field: 00 any, 01 never, 1x require track == x
                cc = st("cc", q, s, b)
                cc_any = st("cc0", q, s, b)
                cc_trk = st("cc1", q, s, b)
                add(cc, U_BIT0, cc_any, U_BIT0, "R")
                add(cc, U_BIT1, cc_trk, U_BIT1, "R")
                grab = st("gq", 0, 0)
                add(cc_any, U_BIT0, grab, U_BIT0, "R")
                add(cc_any, U_BIT1, skip, U_BIT1, "R")
                add(cc_trk, U_BIT0 + b, grab, U_BIT0 + b, "R")
                add(cc_trk, U_BIT1 - b, skip, U_BIT1 - b, "R")

    # collect successor state / symbol / move, most significant bit first
    for i in range(state_bits):
        for partial in range(1 << i):
            gq = st("gq", partial, i)
            for bit in (0, 1):
                val = (partial << 1) | bit
                nxt = st("gq", val, i + 1) if i + 1 < state_bits else st("gs", val, 0, 0)
                add(gq, U_BIT0 + bit, nxt, U_BIT0 + bit, "R")
    for q2 in range(ns):
        for j in range(2):
            for partial in range(1 << j):
                gs = st("gs", q2, partial, j)
                for bit in (0, 1):
                    val = (partial << 1) | bit
                    nxt = st("gs", q2, val, 1) if j == 0 else st("gm", q2, val, 0, 0)
                    add(gs, U_BIT0 + bit, nxt, U_BIT0 + bit, "R")
        for s2 in range(4):
            for j in range(2):
                for partial in range(1 << j):
                    gm = st("gm", q2, s2, partial, j)
                    for bit in (0, 1):
                        val = (partial << 1) | bit
                        if j == 0:
                            nxt = st("gm", q2, s2, val, 1)
                        else:
                            move = {0: "S", 1: "L", 2: "R", 3: "S"}[val]
                            nxt = st("walk", q2, s2, move)
                        add(gm, U_BIT0 + bit, nxt, U_BIT0 + bit, "R")

    # walk to the simulated head and apply the move
    for q2 in range(ns):
        for s2 in range(4):
            for move in ("S", "L", "R"):
                walk = st("walk", q2, s2, move)
                for sym in passthrough:
                    add(walk, sym, walk, sym, "R")
                for s in range(4):
                    for b in (0, 1):
                        add(walk, work_cell(s, 0, b), walk, work_cell(s, 0, b), "R")
                        if move == "S":
                            add(walk, work_cell(s, 1, b), ret_state(q2, s2, b), work_cell(s2, 1, b), "L")
                        elif move == "R":
                            add(walk, work_cell(s, 1, b), st("plantR", q2), work_cell(s2, 0, b), "R")
                        else:
                            add(walk, work_cell(s, 1, b), st("plantL", q2), work_cell(s2, 0, b), "L")
        plant_r = st("plantR", q2)
        plant_l = st("plantL", q2)
        for s in range(4):
            for b in (0, 1):
                add(plant_r, work_cell(s, 0, b), ret_state(q2, s, b), work_cell(s, 1, b), "L")
                add(plant_l, work_cell(s, 0, b), ret_state(q2, s, b), work_cell(s, 1, b), "L")
        # walking right onto untouched blank: treat it as simulated blank
        add(plant_r, U_BLANK, ret_state(q2, 0, 0), work_cell(0, 1, 0), "L")
        # walking left onto the end marker: the simulated head fell off; stuck

    # return to the origin and scan for the next step
    for q in range(ns):
        if q == 1:
            continue
        for s in range(4):
            for b in (0, 1):
                ret = st("ret", q, s, b)
                for sym in [U_BIT0, U_BIT1, U_END, U_SEP] + [
                    work_cell(s2, h, b2) for s2 in range(4) for h in (0, 1) for b2 in (0, 1)
                ]:
                    add(ret, sym, ret, sym, "L")
                add(ret, U_ORIGIN, st("rec", q, s, b), U_ORIGIN, "R")

    return Machine(len(names), U_SYMBOLS, start, acc, U_BLANK, False, tuple(ts))


def run_encoded(
    utm: Machine,
    program: Sequence[int],
    input_symbols: Sequence[int],
    track: Sequence[int] | None = None,
    max_steps: int = 2_000_000,
    pad: int = 8,
    state_bits: int = 8,
) -> RunResult:
    """Convenience wrapper: build the tape and run the universal machine."""
    tape = utm_tape(program, input_symbols, track, pad=pad, state_bits=state_bits)
    return run_machine(utm, tape, max_steps=max_steps, grow=True)
