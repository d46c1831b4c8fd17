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
import itertools
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Interner

#: Move letters and track conditions; ``Rules`` stores each as its index here.
MOVES = ("L", "R", "S")
TRACKS = (0, 1, None)
ANY_TRACK = TRACKS.index(None)
#: Head movement per move, by its index in ``MOVES``.
DELTAS = (-1, 1, 0)


class Transition(NamedTuple):
    state: int
    read: int
    track: int | None
    new_state: int
    write: int
    move: str


class Rules(Sequence):
    """A machine's rules in priority order, packed in one column per
    ``Transition`` field: ``state`` and ``new_state`` are ``array("i")``,
    ``read``, ``write``, ``track`` and ``move`` byte strings, a track
    condition and a move stored as their index in ``TRACKS`` and ``MOVES``.

    Indexing and iteration give back ``Transition``s, built on demand; two
    Rules are equal, and hash alike, when their columns are.  ``Machine``
    checks the columns and nothing changes them after.
    """

    __slots__ = ("state", "read", "track", "new_state", "write", "move")

    def __init__(self, state: array, read: bytes, track: bytes, new_state: array,
                 write: bytes, move: bytes) -> None:
        self.state, self.read, self.track = state, read, track
        self.new_state, self.write, self.move = new_state, write, move

    @classmethod
    def of(cls, transitions) -> "Rules":
        """Pack ``Transition``s; ValueError for a state or symbol that is not
        a small int, a track condition other than None, 0 or 1, or a move
        other than a letter of ``MOVES``."""
        state, read, track, new_state, write, move = tuple(zip(*transitions)) or ((),) * 6
        try:
            return cls(array("i", state), bytes(read), bytes(map(TRACKS.index, track)),
                       array("i", new_state), bytes(write), bytes(map(MOVES.index, move)))
        except (TypeError, OverflowError):
            raise ValueError("transition states and symbols must be ints in range") from None

    def columns(self) -> tuple:
        return self.state, self.read, self.track, self.new_state, self.write, self.move

    def __len__(self) -> int:
        return len(self.state)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Rules(*(c[i] for c in self.columns()))
        return Transition(self.state[i], self.read[i], TRACKS[self.track[i]],
                          self.new_state[i], self.write[i], MOVES[self.move[i]])

    def __iter__(self):
        return map(Transition, self.state, self.read, map(TRACKS.__getitem__, self.track),
                   self.new_state, self.write, map(MOVES.__getitem__, self.move))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rules):
            return NotImplemented
        return self.columns() == other.columns()

    def __hash__(self) -> int:
        return hash(tuple(map(bytes, self.columns())))

    def __repr__(self) -> str:
        return f"<Rules: {len(self)} rules>"


@dataclass(frozen=True)
class Machine:
    """A Turing machine.  ``transitions`` may be given as any sequence of
    ``Transition``s and is kept packed, as ``Rules``; the constructor
    checks every column in C (min, max and byte deletion, no loop per
    rule) and raises ValueError for a state, symbol, move or track
    condition out of range."""

    states: int
    symbols: int
    start: int
    accept: int
    blank: int
    program_track: bool
    transitions: Sequence[Transition]

    def __post_init__(self) -> None:
        if self.symbols > 256:
            raise ValueError(f"{self.symbols} symbols: a byte tape holds at most 256")
        if not (0 <= self.start < self.states and 0 <= self.accept < self.states):
            raise ValueError("start/accept states out of range")
        if not (0 <= self.blank < self.symbols):
            raise ValueError("blank symbol out of range")
        rules = self.transitions
        if not isinstance(rules, Rules):
            rules = Rules.of(rules)
            object.__setattr__(self, "transitions", rules)
        if len(set(map(len, rules.columns()))) > 1:
            raise ValueError("rule columns of unequal length")
        if not rules:
            return
        states = [np.frombuffer(c, dtype=np.intc) for c in (rules.state, rules.new_state)]
        if min(c.min() for c in states) < 0 or max(c.max() for c in states) >= self.states:
            raise ValueError("a transition references an unknown state")
        if max(np.frombuffer(c, dtype=np.uint8).max() for c in (rules.read, rules.write)) >= self.symbols:
            raise ValueError("a transition references an unknown symbol")
        if rules.move.translate(None, bytes(range(len(MOVES)))):
            raise ValueError("a transition has a bad move")
        if rules.track.translate(None, bytes(range(len(TRACKS)))):
            raise ValueError("track condition must be None, 0 or 1")
        if not self.program_track and rules.track.translate(None, bytes([ANY_TRACK])):
            raise ValueError("track condition on a machine without a track")

    def dispatch(self) -> list:
        """The machine's dispatch rows, one slot per state, cached on the
        instance; a slot is None until ``row`` compiles that state's row,
        on first use, so a run pays only for the states it reaches."""
        rows = self.__dict__.get("_rows")
        if rows is None:
            rows = [None] * self.states
            object.__setattr__(self, "_rows", rows)
        return rows

    def row(self, q: int) -> list:
        """State q's dispatch row, compiled from its rules on first use and
        kept in ``dispatch()``.

        Entry ``symbol*tracks + bit`` (``tracks`` is 2 for program-track
        machines, else 1 and the bit is 0) holds the first matching rule as
        ``(new state, write, move delta, run)``, or None when nothing fires;
        the accept state's row is all None.  ``run`` is None, or a bytearray
        of symbols when the step starts a *sweep*, which ``run_machine``
        crosses in one go: a state that moves one way on its own symbols and
        writes them back, the same on every track bit.  Each sweeping
        direction of the state has one entry, whose ``run`` holds every
        symbol it sweeps and whose write is None: the symbol is already on
        the cell, so a sweep writes nothing.  The run never changes after
        the row is compiled (byte strings rather than sets keep the entries
        out of the cyclic garbage collector).
        """
        rows = self.dispatch()
        row = rows[q]
        if row is not None:
            return row
        syms, tracks = self.symbols, 2 if self.program_track else 1
        row = rows[q] = [None] * (syms * tracks)
        if q == self.accept:
            return row
        order, starts = self._by_state()
        rules = self.transitions
        ids = order[starts[q] : starts[q + 1]]
        sweeps: dict[int, tuple] = {}
        for b in range(tracks):
            for r in ids:
                c = rules.track[r]
                if c != ANY_TRACK and c != b:
                    continue
                s = rules.read[r]
                i = s * tracks + b
                if row[i] is not None:
                    continue  # an earlier rule matches first
                q2, w, d = rules.new_state[r], rules.write[r], DELTAS[rules.move[r]]
                e = (q2, w, d, None)
                # the last bit's pass marks the one-way sweeps, alike on every bit
                if q2 == q and w == s and d and b == tracks - 1 and (b == 0 or row[i - 1] == e):
                    e = sweeps.get(d)
                    if e is None:
                        e = sweeps[d] = (q, None, d, bytearray())
                    e[3].append(s)
                    row[i - b] = e
                row[i] = e
        return row

    def _by_state(self) -> tuple[array, array]:
        """The rule ids ordered by state, each state's in priority order,
        and the ``states + 1`` offsets where each state's ids start: built
        once, by a stable argsort, and cached on the instance."""
        index = self.__dict__.get("_index")
        if index is None:
            state = np.frombuffer(self.transitions.state, dtype=np.intc)
            order, starts = array("i"), array("i", [0])
            order.frombytes(np.argsort(state, kind="stable").astype(np.intc).tobytes())
            starts.frombytes(np.bincount(state, minlength=self.states).cumsum()
                             .astype(np.intc).tobytes())
            index = order, starts
            object.__setattr__(self, "_index", index)
        return index

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
        """Decode a machine from outside input: its counts, states and
        symbols must be ints (not bools or floats), ``program_track`` a
        bool and each track condition None or an int; ValueError otherwise.
        ``__post_init__`` checks the ranges."""
        fields = [obj[k] for k in ("states", "symbols", "start", "accept", "blank")]
        rules = tuple(Transition(*t) for t in obj["transitions"])
        ints = fields + [v for t in rules for v in (t.state, t.read, t.new_state, t.write)]
        if not (set(map(type, ints)) <= {int} and type(obj["program_track"]) is bool
                and {type(t.track) for t in rules} <= {int, type(None)}):
            raise ValueError("machine numbers must be ints and program_track a bool")
        return cls(*fields, obj["program_track"], rules)


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


@functools.lru_cache(maxsize=8)
def _checked_track(track: bytes) -> bytes:
    """``track`` once it is known to hold only 0s and 1s.  Memoised, so a
    track object passed run after run (a bytes object keeps its hash) is
    scanned once."""
    if track.translate(None, b"\x00\x01"):
        raise ValueError("track bits must be 0 or 1")
    return track


class Run:
    """A run: tape cells, head, state, steps so far and the status of the
    last ``go``; the engine's one run object, and what ``run_machine``
    returns once it has stepped it.

    ``go`` steps it on and can be called again to resume, so a caller can
    stop a run before given steps, change its configuration by a step of
    its own (a macro step) and go on.  The tape is ``cells``, a bytearray
    that the run grows in place and never copies.  The track is read-only
    and pinned to tape positions, and cells past its end read as 0; any
    sequence of bits is copied to ``bytes`` (an immutable bytes track is
    used as it is), and a value other than 0 or 1 raises ValueError,
    checked once per track object.  A step past the tape's right end
    appends a blank; a step left of cell 0 is the one wall.
    """

    __slots__ = ("machine", "cells", "head", "state", "steps", "status", "track")

    def __init__(self, machine: Machine, tape: Sequence[int], *, head: int = 0,
                 state: int | None = None, track: Sequence[int] | None = None) -> None:
        try:
            cells = bytearray(tape)
        except ValueError:  # a symbol outside 0..255
            cells = None
        # deleting the alphabet must leave nothing (in C)
        if cells is None or cells.translate(None, bytes(range(machine.symbols))):
            raise ValueError("tape symbol outside the machine's alphabet")
        # bytes() rejects values past 0..255, _checked_track those past 0/1
        track = b"" if track is None else _checked_track(bytes(track))
        if not cells:
            cells.append(machine.blank)
        if not 0 <= head < len(cells):
            raise ValueError(f"head {head} outside the tape's {len(cells)} cells")
        state = machine.start if state is None else state
        if not 0 <= state < machine.states:
            raise ValueError(f"state {state} outside the machine's {machine.states}")
        self.machine = machine
        self.cells = cells
        self.head = head
        self.state = state
        self.steps = 0
        self.status = None  # not stepped yet
        self.track = track if machine.program_track else b""

    def go(self, max_steps: int) -> str:
        """Step on until acceptance, a missing transition, the wall, or
        ``max_steps`` steps in all; store the status on the run and return
        it: "accepted", "stuck", "hit_wall" or "timeout".

        Each step looks its entry up in the state's dispatch row, compiled
        the first time the run reaches the state (``Machine.row``).  Each
        sweep moves one way and crosses its run, up to the tape's last cell
        or cell 0, in C: the run's end is found by stripping the run symbols
        off tape slices of doubling size.  Every cell crossed still counts
        one step, so step counts, budgets, the wall, growth and end
        configurations are exactly those of stepping one cell at a time.  A
        run on the wall is not resumed.
        """
        machine = self.machine
        rows = machine.dispatch()
        tracks = 2 if machine.program_track else 1
        cells, head, state, steps = self.cells, self.head, self.state, self.steps
        width = len(cells)
        trk = self.track
        ntrk = len(trk)
        status = "timeout"
        while steps < max_steps:
            i = cells[head] * tracks
            if head < ntrk:
                i += trk[head]
            try:
                state, write, delta, run = rows[state][i]
            except TypeError:  # the row is not compiled yet, or no rule fires
                if rows[state] is None:
                    machine.row(state)
                    continue
                status = "accepted" if state == machine.accept else "stuck"
                break
            if run is None:
                cells[head] = write
            else:
                # cross the sweep's run of cells; j is where it stops, and
                # a sweep that cannot move on steps one cell, writing nothing
                if delta > 0:
                    stop = head + max_steps - steps
                    j = _run_end(cells, head + 1, stop if stop < width else width - 1, run)
                else:
                    stop = head - max_steps + steps
                    j = _run_start(cells, head - 1, stop if stop > 0 else 0, run)
                if j != head:
                    steps += abs(j - head)
                    head = j
                    continue
            head += delta
            if head < 0:
                status = "hit_wall"
                break
            if head == width:  # the tape grows a blank
                cells.append(machine.blank)
                width += 1
            steps += 1
        if state == machine.accept and status == "timeout":
            status = "accepted"
        self.head, self.state, self.steps, self.status = head, state, steps, status
        return status


def run_machine(
    machine: Machine,
    tape: Sequence[int],
    *,
    track: Sequence[int] | None = None,
    max_steps: int = 1_000_000,
    macro=None,
) -> Run:
    """Run from cell 0 in the start state until acceptance, a missing
    transition, the wall, or the budget, and return the ``Run``: its
    ``status``, ``steps``, ``state``, ``head`` and tape ``cells`` are the
    result.  To start elsewhere, build a ``Run`` and call ``go``.

    A step past the tape's right end appends a blank; a step left of cell
    0 is the one wall.  The optional 0/1 track is pinned to tape positions
    and read-only; cells past its end read as 0.
    A track value other than 0 or 1, a tape symbol
    outside the alphabet and a negative budget raise ValueError before the
    first step; a zero budget runs nothing.  Steps go through the machine's
    dispatch rows, each compiled when the run first reaches its state, in
    one ``Run.go`` call for the whole run: a one-way sweep is crossed in one
    go, every other step a row lookup.

    ``macro`` supplies rules the machine lacks, as steps of its own or
    macro steps whose effect is proven (H. Marxen and J. Buntrock,
    *Attacking the Busy Beaver 5*, 1990): a callable, called as
    ``macro(run, max_steps)`` whenever the run is stuck.  It either
    advances the ``Run`` in place, within ``max_steps``, and returns True,
    and the engine steps on, or leaves the run as it is and returns False,
    and the run ends stuck.
    """
    if max_steps < 0:
        raise ValueError(f"negative step budget {max_steps}")
    run = Run(machine, tape, track=track)
    while run.go(max_steps) == "stuck" and macro is not None and macro(run, max_steps):
        pass
    return run


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
                entry = machine.row(q)[s * len(tracks) + b]
                if entry is None:
                    continue
                q2, w, d, run = entry
                if run is not None:  # a sweep writes back what it read
                    w = s
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
U_PAD = 8  # blank work cells utm_tape lays out past the input and the track


def work_cell(symbol: int, head: int, track: int) -> int:
    return U_WORK_BASE + symbol + 4 * head + 8 * track


def utm_tape(
    program: Sequence[int],
    input_symbols: Sequence[int],
    track: Sequence[int] | None = None,
    state_bits: int = 8,
) -> list[int]:
    """Lay out origin marker, separated records, end marker, and work zone.

    The work zone holds the input (one blank cell if it is empty) with the
    head flag on cell 0, blank work cells up to the track's end, then
    ``U_PAD`` more; its track bits default to 0.  Past the zone the tape
    grows ``U_BLANK`` cells, read as simulated blanks on track bit 0.
    Input symbols must lie in 0..3 and track bits in 0/1, the ranges a
    work cell encodes.
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
    n = max(len(input_symbols), 0 if track is None else len(track), 1) + U_PAD
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
    names = Interner()

    def st(*key) -> int:
        return names[key]

    acc = st("UACC")
    start = st("seek", 0)
    # the rule columns, appended to straight (no Transition per rule)
    from_col, to_col = array("i"), array("i")
    read_col, write_col, move_col = bytearray(), bytearray(), bytearray()
    move_code = {move: code for code, move in enumerate(MOVES)}
    right, left = move_code["R"], move_code["L"]

    def extend(froms, reads, tos, writes, moves) -> None:
        """Append one rule per position of the five parallel columns."""
        from_col.extend(froms)
        read_col.extend(reads)
        to_col.extend(tos)
        write_col.extend(writes)
        move_col.extend(moves)

    def add(state: int, read: int, new_state: int, write: int, move: str) -> None:
        extend((state,), (read,), (new_state,), (write,), (move_code[move],))

    def ret_state(q: int, sym: int, trk: int) -> int:
        return acc if q == 1 else st("ret", q, sym, trk)

    passthrough = [U_BIT0, U_BIT1, U_END, U_ORIGIN, U_SEP]
    rewound = [U_BIT0, U_BIT1, U_END, U_SEP] + [
        work_cell(s, h, b) for s in range(4) for h in (0, 1) for b in (0, 1)
    ]

    # scan's reads: the passthrough symbols, then per work cell (s, b) the
    # unflagged cell, which scan runs over, and the flagged one it stops on
    scan_reads = bytes(passthrough + [
        work_cell(s, h, b) for s in range(4) for b in (0, 1) for h in (0, 1)])

    def scan(state: int, flagged) -> None:
        """Run right to the flagged work cell, then take ``flagged(s, b)``;
        the rules in the order of ``scan_reads``."""
        to, write, move = zip(*(flagged(s, b) for s in range(4) for b in (0, 1)))
        stops = slice(len(passthrough) + 1, None, 2)  # the flagged cells' rules
        tos, writes = [state] * len(scan_reads), bytearray(scan_reads)
        moves = bytearray([right]) * len(scan_reads)
        tos[stops], writes[stops], moves[stops] = to, write, map(move_code.get, move)
        extend([state] * len(scan_reads), scan_reads, tos, writes, moves)

    def rewind(kind: str, q: int, s: int, b: int) -> None:
        """Run left to the origin, then start matching records for (q, s, b)."""
        state = st(kind, q, s, b)
        extend([state] * len(rewound), rewound, [state] * len(rewound), rewound,
               [left] * len(rewound))
        add(state, U_ORIGIN, st("rec", q, s, b), U_ORIGIN, "R")

    def forward(rules) -> None:
        """Append (state, read, new_state) rules that keep what they read
        and move right, each column extended once."""
        froms, reads, tos = zip(*rules)
        extend(froms, reads, tos, reads, [right] * len(reads))

    def match(key: tuple, value: int, width: int, done: tuple, skip: int) -> None:
        """Compare a field with ``value``, most significant bit first: on a
        match go on into ``done``, on a mismatch to ``skip``."""
        states = [st(*key, i) for i in range(width)]
        states.append(st(*done))
        rules = []
        for i in range(width):
            expect = (value >> (width - 1 - i)) & 1
            rules += ((states[i], U_BIT0 + expect, states[i + 1]),
                      (states[i], U_BIT1 - expect, skip))
        forward(rules)

    def field(key: tuple, width: int, done) -> None:
        """Read a ``width``-bit field, most significant bit first, into ``done(value)``."""
        rules = []
        for i in range(width):
            for partial in range(1 << i):
                state = st(*key, partial, i)
                for bit in (0, 1):
                    val = (partial << 1) | bit
                    nxt = st(*key, val, i + 1) if i + 1 < width else done(val)
                    rules.append((state, U_BIT0 + bit, nxt))
        forward(rules)

    for q in range(ns):
        scan(st("seek", q), lambda s, b: (st("rew", q, s, b), work_cell(s, 1, b), "L"))

    # rewind to the origin, then scan records
    keys = list(itertools.product(range(ns), range(4), (0, 1)))
    for q, s, b in keys:
        rewind("rew", q, s, b)
        rec, skip = st("rec", q, s, b), st("skip", q, s, b)
        # a 0 valid bit means no record matched: the simulation is stuck
        forward(((rec, U_BIT1, st("cq", q, s, b, 0)),
                 (skip, U_BIT0, skip), (skip, U_BIT1, skip), (skip, U_SEP, rec)))
        match(("cq", q, s, b), q, state_bits, ("cs", q, s, b, 0), skip)
        match(("cs", q, s, b), s, 2, ("cc", q, s, b), skip)
        # condition field: 00 any, 01 never, 1x require track == x
        cc, cc_any, cc_trk = st("cc", q, s, b), st("cc0", q, s, b), st("cc1", q, s, b)
        grab = st("gq", 0, 0)
        forward(((cc, U_BIT0, cc_any), (cc, U_BIT1, cc_trk),
                 (cc_any, U_BIT0, grab), (cc_any, U_BIT1, skip),
                 (cc_trk, U_BIT0 + b, grab), (cc_trk, U_BIT1 - b, skip)))

    # collect successor state / symbol / move
    field(("gq",), state_bits, lambda q2: st("gs", q2, 0, 0))
    for q2 in range(ns):
        field(("gs", q2), 2, lambda s2: st("gm", q2, s2, 0, 0))
        for s2 in range(4):
            field(("gm", q2, s2), 2, lambda val: st("walk", q2, s2, "SLRS"[val]))

    # walk to the simulated head and apply the move
    for q2 in range(ns):
        for s2 in range(4):
            scan(st("walk", q2, s2, "S"),
                 lambda s, b: (ret_state(q2, s2, b), work_cell(s2, 1, b), "L"))
            for move in ("L", "R"):
                plant = st("plant" + move, q2)
                scan(st("walk", q2, s2, move), lambda s, b: (plant, work_cell(s2, 0, b), move))
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
    for q, s, b in keys:
        if q != 1:
            rewind("ret", q, s, b)

    rules = Rules(from_col, bytes(read_col), bytes([ANY_TRACK]) * len(from_col), to_col,
                  bytes(write_col), bytes(move_col))
    return Machine(len(names), U_SYMBOLS, start, acc, U_BLANK, False, rules)


def run_encoded(
    utm: Machine,
    program: Sequence[int],
    input_symbols: Sequence[int],
    track: Sequence[int] | None = None,
    max_steps: int = 2_000_000,
    state_bits: int = 8,
) -> Run:
    """Convenience wrapper: build the tape and run the universal machine;
    return the ``Run``, as ``run_machine`` does."""
    tape = utm_tape(program, input_symbols, track, state_bits=state_bits)
    return run_machine(utm, tape, max_steps=max_steps)
