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
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import Interner

#: A rule's track condition and move, coded as in docs/program-format.md;
#: ``Rules``' ``track`` and ``move`` columns hold these codes, and no rule
#: holds COND_NEVER.
COND_ANY, COND_NEVER, COND_TRACK0, COND_TRACK1 = range(4)
STAY, LEFT, RIGHT = range(3)
#: The move letters of the JSON form, and the head movements, by move code.
MOVES = ("S", "L", "R")
DELTAS = (0, -1, 1)


class Rules:
    """A machine's rules in priority order, one column per field: ``state``
    and ``new_state`` are ``array("i")``, ``read``, ``write``, ``track`` and
    ``move`` byte strings, the track condition and the move as their codes.

    Two Rules are equal, and hash alike, when their columns are.
    ``Machine`` checks the columns and nothing changes them after.
    """

    __slots__ = ("state", "read", "track", "new_state", "write", "move")

    def __init__(self, state: array, read: bytes, track: bytes, new_state: array,
                 write: bytes, move: bytes) -> None:
        self.state, self.read, self.track = state, read, track
        self.new_state, self.write, self.move = new_state, write, move

    @classmethod
    def of(cls, rows) -> "Rules":
        """Pack rows ``(state, read, track, new_state, write, move)`` of ints,
        the JSON form's order with the columns' codes; ValueError for a value
        that is not an int in its column's range."""
        state, read, track, new_state, write, move = tuple(zip(*rows)) or ((),) * 6
        try:
            return cls(array("i", state), bytes(read), bytes(track), array("i", new_state),
                       bytes(write), bytes(move))
        except (TypeError, OverflowError):
            raise ValueError("rule states and symbols must be ints in range") from None

    def columns(self) -> tuple:
        return self.state, self.read, self.track, self.new_state, self.write, self.move

    def where(self, keep: np.ndarray) -> "Rules":
        """The rules at the True entries of the boolean mask ``keep``, in order."""
        q, s, c, q2, w, mv = (np.frombuffer(col, dtype=np.intc if isinstance(col, array)
                                            else np.uint8)[keep].tobytes()
                              for col in self.columns())
        return Rules(array("i", q), s, c, array("i", q2), w, mv)

    def __len__(self) -> int:
        return len(self.state)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rules):
            return NotImplemented
        return self.columns() == other.columns()

    def __hash__(self) -> int:
        return hash(tuple(map(bytes, self.columns())))

    def __repr__(self) -> str:
        return f"<Rules: {len(self)} rules>"


class Assembler:
    """Builds a machine rule by rule, in priority order: states are named by
    any hashable key and numbered by first use through an ``Interner``, the
    constructor's keys first, in order."""

    def __init__(self, *keys) -> None:
        self.ids = Interner((key, q) for q, key in enumerate(keys))
        self.state, self.new_state = array("i"), array("i")
        self.read, self.track, self.write, self.move = (bytearray() for _ in range(4))

    def add(self, frm, reads, to, *, write: int | None = None, move: int = RIGHT,
            track: int = COND_ANY) -> None:
        """A rule from state ``frm`` to ``to`` for each symbol of ``reads``
        (one symbol or several), writing ``write`` or, when it is None, the
        symbol read back; ``frm`` and ``to`` are named in that order."""
        reads = (reads,) if isinstance(reads, int) else tuple(reads)
        q, q2, n = self.ids[frm], self.ids[to], len(reads)
        self.extend([q] * n, reads, [q2] * n, reads if write is None else [write] * n,
                    [move] * n, track=track)

    def extend(self, froms, reads, tos, writes, moves, *, track: int = COND_ANY) -> None:
        """One rule per position of the parallel columns (sequences), whose
        states are ids (``ids[key]``), all with the track condition ``track``."""
        self.state.extend(froms)
        self.read.extend(reads)
        self.track.extend(bytes((track,)) * len(reads))
        self.new_state.extend(tos)
        self.write.extend(writes)
        self.move.extend(moves)

    def machine(self, symbols: int, start, accept, blank: int,
                program_track: bool = False) -> "Machine":
        """The machine of the rules so far, its start and accept states named
        by key; the assembler is done with once this is called."""
        rules = Rules(self.state, bytes(self.read), bytes(self.track), self.new_state,
                      bytes(self.write), bytes(self.move))
        return Machine(len(self.ids), symbols, self.ids[start], self.ids[accept], blank,
                       program_track, rules)


@dataclass(frozen=True)
class Machine:
    """A Turing machine whose ``transitions`` are ``Rules``; the constructor
    checks every column in C (min, max and byte deletion, no loop per rule)
    and raises ValueError for a state, symbol, move or track condition out
    of range."""

    states: int
    symbols: int
    start: int
    accept: int
    blank: int
    program_track: bool
    transitions: Rules

    def __post_init__(self) -> None:
        if self.symbols > 256:
            raise ValueError(f"{self.symbols} symbols: a byte tape holds at most 256")
        if not (0 <= self.start < self.states and 0 <= self.accept < self.states):
            raise ValueError("start/accept states out of range")
        if not (0 <= self.blank < self.symbols):
            raise ValueError("blank symbol out of range")
        rules = self.transitions
        if not isinstance(rules, Rules):
            raise TypeError("a machine's transitions are Rules")
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
        if rules.track.translate(None, bytes((COND_ANY, COND_TRACK0, COND_TRACK1))):
            raise ValueError("track condition must be any, track bit 0 or track bit 1")
        if not self.program_track and rules.track.translate(None, bytes([COND_ANY])):
            raise ValueError("track condition on a machine without a track")

    @functools.cached_property
    def dispatch(self) -> list:
        """The machine's dispatch rows, one slot per state; a slot is None
        until ``row`` compiles that state's row, on first use, so a run
        pays only for the states it reaches."""
        return [None] * self.states

    def row(self, q: int) -> list:
        """State q's dispatch row, compiled from its rules on first use and
        kept in ``dispatch``.

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
        rows = self.dispatch
        row = rows[q]
        if row is not None:
            return row
        syms, tracks = self.symbols, 2 if self.program_track else 1
        row = rows[q] = [None] * (syms * tracks)
        if q == self.accept:
            return row
        starts, ends, offsets = self._by_state
        rules = self.transitions
        ids = [r for k in range(offsets[q], offsets[q + 1]) for r in range(starts[k], ends[k])]
        sweeps: dict[int, tuple] = {}
        for b in range(tracks):
            for r in ids:
                c = rules.track[r]
                if c != COND_ANY and c != COND_TRACK0 + b:
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

    @functools.cached_property
    def crossings(self) -> dict:
        """The machine's memo of block crossings (``Run.go``), shared by
        every run of the machine."""
        return {}

    @functools.cached_property
    def _by_state(self) -> tuple[array, array, array]:
        """The machine's runs (maximal blocks of consecutive rules of one
        state) ordered by state, each state's in priority order, as their
        first rule ids and their end ids, and the ``states + 1`` offsets
        where each state's runs start: built once, by a stable argsort of
        the runs."""
        state = np.frombuffer(self.transitions.state, dtype=np.intc)
        first = np.flatnonzero(np.diff(state, prepend=-1))
        end = np.append(first[1:], len(state))
        order = np.argsort(state[first], kind="stable")
        offsets = np.bincount(state[first], minlength=self.states).cumsum()
        return tuple(array("i", np.asarray(a, dtype=np.intc).tobytes())
                     for a in (first[order], end[order], np.append(0, offsets)))

    def to_json(self) -> dict:
        return {
            "states": self.states,
            "symbols": self.symbols,
            "start": self.start,
            "accept": self.accept,
            "blank": self.blank,
            "program_track": self.program_track,
            "transitions": [
                [q, s, None if c == COND_ANY else c - COND_TRACK0, q2, w, MOVES[mv]]
                for q, s, c, q2, w, mv in zip(*self.transitions.columns())
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Machine":
        """Decode a machine from outside input: its counts, states and
        symbols must be ints (not bools or floats), ``program_track`` a
        bool, each track condition None or an int and each move a letter of
        ``MOVES``; ValueError otherwise.  ``__post_init__`` checks the
        ranges."""
        fields = [obj[k] for k in ("states", "symbols", "start", "accept", "blank")]
        rows = [tuple(t) for t in obj["transitions"]]
        # unpacking raises ValueError for a row that is not six fields
        ints = fields + [v for q, s, _, q2, w, _ in rows for v in (q, s, q2, w)]
        if not (set(map(type, ints)) <= {int} and type(obj["program_track"]) is bool
                and {type(t[2]) for t in rows} <= {int, type(None)}):
            raise ValueError("machine numbers must be ints and program_track a bool")
        rules = Rules.of((q, s, COND_ANY if c is None else COND_TRACK0 + c, q2, w, MOVES.index(mv))
                         for q, s, c, q2, w, mv in rows)
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


#: The cells of a block that ``Run.go`` crosses in one replay.  Chosen by
#: timing the N=256 checker's 25,026 resident runs in a row (2-core x86,
#: CPython 3.11): 41 us a run at 16 cells, which visit twice the blocks,
#: 29 at 24 and 28 at 32; 48 read 23 once the memo was full but 56 over
#: the first 300 runs, and 64 read 71, since few of its blocks repeat.  The
#: plain engine took 93.
BLOCK = 32
#: The entries a machine's memo of crossings holds before it is cleared:
#: the resident runs above fill 1,534, a default N=256 certificate 8,610.
CROSSINGS = 16_384


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
    checked once per track object.  A step left of cell 0 is a wall, and
    leaves the head at -1.  A step past the tape's right end appends a
    blank, unless the tape is ``closed``: then that step is a wall too, and
    leaves the head at ``len(cells)``.  ``go`` steps a block crossing as a
    closed run of the block, and a closed run cuts no blocks.
    """

    __slots__ = ("machine", "cells", "head", "state", "steps", "status", "track", "closed")

    def __init__(self, machine: Machine, tape: Sequence[int], *, head: int = 0,
                 state: int | None = None, track: Sequence[int] | None = None,
                 closed: bool = False) -> None:
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
        self.closed = closed

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
        step onto a wall is not counted, and a run on the wall resumes once
        the caller moves its head back onto the tape.

        A machine with a program track also replays *block crossings*.  The
        tape is cut into aligned blocks of ``BLOCK`` cells, the last one
        shorter while the tape ends inside it.  A crossing starts at a step
        that is not a sweep and runs until a step leaves the block or the run
        halts.  Its end depends only on the key ``(state, the head's offset in
        the block, the block's cells, the track bits under them)``, so it is
        stepped once and replayed after (H. Marxen and J. Buntrock's macro
        step): the block's cells are written, the state and head set and its
        steps added.  A crossing is stepped by this same loop, as a closed run
        of the block within the steps the budget has left; the block's wall is
        the step out of it, which this run then counts and checks for its own
        wall or growth.  A closed run cuts no blocks: its tape is one crossing
        already.  One cut off by the budget is not memoised, and a memoised
        one is replayed only when it ends before the budget is spent, else
        stepped again.  The memo is the machine's (``Machine.crossings``),
        kept across runs, which cross the same few blocks again and again, and
        cleared when it holds ``CROSSINGS`` entries.  Machines without a
        track, the universal machine's among them, keep the plain path: a
        universal run seldom crosses a block twice the same way, and with
        blocks one universal accept of a resident N=256 tile took about three
        times as long, first run or second, and left 6,710 entries.
        """
        machine = self.machine
        rows = machine.dispatch
        tracks = 2 if machine.program_track else 1
        memo = machine.crossings if machine.program_track and not self.closed else None
        block = None  # the closed run that steps crossings, made at the first miss
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
                q, write, delta, run = rows[state][i]
            except TypeError:  # the row is not compiled yet, or no rule fires
                if rows[state] is None:
                    machine.row(state)
                    continue
                status = "accepted" if state == machine.accept else "stuck"
                break
            if run is None:
                if memo is None:
                    cells[head] = write
                    state = q
                else:
                    # a crossing of the block: replayed when it fits the budget,
                    # else stepped and memoised unless the budget cut it off
                    base = head - head % BLOCK
                    end = base + BLOCK if base + BLOCK < width else width
                    key = (state, head - base, bytes(cells[base:end]), trk[base:end])
                    hit = memo.get(key)
                    if hit is None or steps + hit[2] >= max_steps:
                        if block is None:
                            block = Run(machine, b"", closed=True)
                        block.cells, block.track = bytearray(key[2]), key[3]
                        block.head, block.state, block.steps = head - base, state, 0
                        how = block.go(max_steps - steps)
                        # the block's wall is the exit step, its move made:
                        # the checks below count it, with a move of 0
                        hit = (block.state, block.head, block.steps,
                               0 if how == "hit_wall" else None, bytes(block.cells))
                        if how != "timeout":
                            if len(memo) >= CROSSINGS:
                                memo.clear()
                            memo[key] = hit
                    state, head, s, delta, cells[base:end] = hit
                    head += base
                    steps += s
                    if delta is None:  # a halt, which the next lookup ends on, or the budget
                        continue
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
            if head == width:  # the tape grows a blank, or ends
                if self.closed:
                    status = "hit_wall"
                    break
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
    max_steps: int,
    macro=None,
) -> Run:
    """Run from cell 0 in the start state until acceptance, a missing
    transition, the wall, or ``max_steps`` steps, and return the ``Run``: its
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
    m = Assembler("start", "accept")
    m.add("start", range(4), "accept", move=STAY)
    return m.machine(4, "start", "accept", SYM_BLANK)


def parity_machine() -> Machine:
    """Accepts when the input holds an even number of ones."""
    m = Assembler("even", "accept", "odd")
    m.add("even", SYM_ZERO, "even")
    m.add("even", SYM_ONE, "odd")
    m.add("odd", SYM_ZERO, "odd")
    m.add("odd", SYM_ONE, "even")
    m.add("even", SYM_BLANK, "accept", move=STAY)
    return m.machine(4, "even", "accept", SYM_BLANK)


def palindrome_machine() -> Machine:
    """Accepts palindromes over letters 0/1, by marking matched ends inward."""
    m = Assembler("s0", "acc", "r0", "r1", "c0", "c1", "rew")
    Z, O, B, X = SYM_ZERO, SYM_ONE, SYM_BLANK, SYM_MARK
    m.add("s0", Z, "r0", write=X)
    m.add("s0", O, "r1", write=X)
    m.add("s0", (B, X), "acc", move=STAY)
    # run right over letters to the matched/blank edge
    for run, check in (("r0", "c0"), ("r1", "c1")):
        m.add(run, (Z, O), run)
        m.add(run, (X, B), check, move=LEFT)
    # the last unmarked letter must match; a mark means nothing was left
    m.add("c0", Z, "rew", write=X, move=LEFT)
    m.add("c0", X, "acc", move=STAY)
    m.add("c1", O, "rew", write=X, move=LEFT)
    m.add("c1", X, "acc", move=STAY)
    # rewind to the leftmost unmarked letter
    m.add("rew", (Z, O), "rew", move=LEFT)
    m.add("rew", X, "s0")
    return m.machine(4, "s0", "acc", SYM_BLANK)


def machine_corpus() -> dict[str, Machine]:
    return {
        "always": always_accept_machine(),
        "parity": parity_machine(),
        "palindrome": palindrome_machine(),
    }


# --- machine descriptions as bit strings ----------------------------------

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
    # the track and move columns hold the record's codes already
    for q, s, c, q2, w, mv in zip(*machine.transitions.columns()):
        bits.append(1)
        bits += _field(q, state_bits)
        bits += _field(s, 2)
        bits += _field(c, 2)
        bits += _field(q2, state_bits)
        bits += _field(w, 2)
        bits += _field(mv, 2)
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
) -> bytes:
    """Lay out origin marker, separated records, end marker, and work zone.

    The work zone holds the input (one blank cell if it is empty) with the
    head flag on cell 0, blank work cells up to the track's end, then
    ``U_PAD`` more; its track bits default to 0.  Past the zone the tape
    grows ``U_BLANK`` cells, read as simulated blanks on track bit 0.
    Program bits must be 0 or 1, input symbols lie in 0..3 and track bits
    in 0/1, the ranges a record and a work cell encode.  The tape is built
    as bytes, the records as one array with a column of separators.
    """
    rb = record_bits(state_bits)
    if len(program) % rb != 1 or program[-1] != 0:
        raise ValueError("program must be whole records plus a 0 terminator bit")
    columns = []
    for values, allowed, what in ((program, 2, "program bits must be 0 or 1"),
                                  (input_symbols, 4, "input symbols must lie in 0..3"),
                                  (() if track is None else track, 2, "track bits must be 0 or 1")):
        try:
            column = bytes(values)
        except (TypeError, ValueError):  # not ints in 0..255
            raise ValueError(what) from None
        if column.translate(None, bytes(range(allowed))):
            raise ValueError(what)
        columns.append(np.frombuffer(column, dtype=np.uint8))
    bits, symbols, track_bits = columns
    records = bits[:-1].reshape(-1, rb) + U_BIT0
    region = np.column_stack((records, np.full(len(records), U_SEP, np.uint8)))
    zone = np.full(max(len(symbols), len(track_bits), 1) + U_PAD, U_WORK_BASE, np.uint8)
    zone[: len(symbols)] += symbols
    zone[: len(track_bits)] += 8 * track_bits
    zone[0] += 4  # the head flag
    return b"".join((bytes((U_ORIGIN,)), region.tobytes(), bytes((U_BIT0, U_END)), zone.tobytes()))


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

    Each phase's rules come from one template, laid out for all its units
    at once as whole numpy columns: the seek scans per simulated state q;
    the rewind, record and match block per key (q, s, b), the simulated
    state, symbol and track bit; the ``gq``, ``gs`` and ``gm`` field
    readers, each a binary tree of states; the walk scans and plants per
    successor state; and the ``ret`` rewinds.  A state is its *code*: its
    kind's block of codes plus its index, the blocks laid out in turn from
    ``UACC`` (code 0) and the seek states (from 1).  ``ret`` has no block
    for q = 1, since ``ret(1, s, b)`` is ``UACC``: the simulated machine
    accepted; so every code names a state.  State codes are int32 and
    symbols and moves uint8 throughout; the 9-bit machine builds in about
    0.01 s (CPython 3.11, x86-64).

    Generation is deterministic, so the result is pinned by its state and
    transition counts rather than by shipping the table around.
    """
    if state_bits < 1:
        raise ValueError("a program's states need at least 1 state bit")
    # nk keys (q, s, b), in order with b fastest
    ns, width, nk = 1 << state_bits, state_bits, 8 << state_bits
    top = 0

    def states(*shape) -> np.ndarray:
        """The next block of state codes, shaped by its kind's indices."""
        nonlocal top
        block = np.arange(top, top + np.prod(shape), dtype=np.int32).reshape(shape)
        top += block.size
        return block

    uacc, seek, rew, rec, skip = states(1), states(ns), states(nk), states(nk), states(nk)
    cq, cs, cc, cc0, cc1 = states(nk, width), states(nk, 2), states(nk), states(nk), states(nk)
    # gq is one tree, gs one per q2, gm one per (q2, s2); walk by move, plant by LEFT, RIGHT
    gq, gs, gm, walk = states(ns - 1), states(ns, 3), states(ns, 4, 3), states(ns, 4, 3)
    # ret(1, s, b) is UACC, so q = 1 gets no ret codes
    plant, ret = states(ns, 2), np.insert(states(ns - 1, 4, 2), 1, uacc, axis=0)

    def u8(values) -> np.ndarray:
        return np.asarray(values, dtype=np.uint8)

    # the eight work cells (s, b), s major, unflagged and flagged
    cell_s, cell_b = np.divmod(np.arange(8, dtype=np.uint8), 2)
    plain, flagged = work_cell(cell_s, 0, cell_b), work_cell(cell_s, 1, cell_b)
    # scan's reads: the passthrough symbols, then per work cell the
    # unflagged one, which scan runs over, and the flagged one it stops on
    scan_reads = u8([U_BIT0, U_BIT1, U_END, U_ORIGIN, U_SEP,
                     *np.column_stack((plain, flagged)).ravel()])
    stops = slice(6, None, 2)  # the flagged cells' rules
    rewound = u8([U_BIT0, U_BIT1, U_END, U_SEP,
                  *(work_cell(s, h, b) for s in range(4) for h in (0, 1) for b in (0, 1)), U_ORIGIN])
    bits = u8([U_BIT0, U_BIT1])

    def scan(state, to, write, move) -> tuple:
        """Per unit, run right to the flagged work cell, then go to ``to``
        writing ``write`` and moving ``move``, each given per flagged cell."""
        tos = np.repeat(state[:, None], len(scan_reads), axis=1)
        writes, moves = np.tile(scan_reads, (len(state), 1)), np.full(tos.shape, RIGHT, np.uint8)
        tos[:, stops], writes[:, stops], moves[:, stops] = to, write, move
        return state[:, None], scan_reads, tos, writes, moves

    def rewind(state, done) -> tuple:
        """Per unit, run left to the origin, then start matching records in ``done``."""
        tos = np.repeat(state[:, None], len(rewound), axis=1)
        tos[:, -1] = done
        return state[:, None], rewound, tos, rewound, u8([LEFT] * (len(rewound) - 1) + [RIGHT])

    def forward(state, read, to) -> tuple:
        """Rules that keep what they read and move right."""
        return state, read, to, read, u8(RIGHT)

    def match(states, value, done) -> tuple:
        """Per key, compare a field with ``value``, most significant bit
        first: on a match go on into ``done``, on a mismatch to ``skip``."""
        expect = (value[:, None] >> np.arange(states.shape[1] - 1, -1, -1, dtype=np.int32)) & 1
        hit = np.column_stack((states[:, 1:], done))

        def pairs(on_hit, on_miss):  # the hit rule, then the miss rule, per bit
            return np.stack((on_hit, on_miss), axis=2).reshape(nk, -1)

        return forward(pairs(states, states), pairs(bits[expect], bits[1 - expect]),
                       pairs(hit, np.broadcast_to(skip[:, None], hit.shape)))

    def field(tree) -> tuple:
        """Per unit, read a field into the leaves of ``tree``, a heap of states
        (node i's children 2i + 1 and 2i + 2, bit 0 first), leaves last."""
        child = np.arange(1, tree.shape[-1])
        return forward(tree[..., (child - 1) // 2], bits[1 - child % 2], tree[..., 1:])

    def rules(units: int, *blocks) -> list:
        """The blocks' five columns, each block broadcast and shaped (units,
        rules), joined per unit along the rules."""
        blocks = [[c.reshape(units, -1) for c in np.broadcast_arrays(*b)] for b in blocks]
        return [np.concatenate(cols, axis=1) for cols in zip(*blocks)]

    key = np.arange(nk, dtype=np.int32)
    root = np.broadcast_to(gq[:1], (nk,))
    # rewind to the origin, then scan records; a 0 valid bit means no record
    # matched: the simulation is stuck; condition field: 00 any, 01 never,
    # 1x require track == x
    record = [rewind(rew, rec),
              forward(np.column_stack((rec, skip, skip, skip)), u8([U_BIT1, U_BIT0, U_BIT1, U_SEP]),
                      np.column_stack((cq[:, 0], skip, skip, rec))),
              match(cq, key >> 3, cs[:, 0]),
              match(cs, (key >> 1) & 3, cc),
              forward(np.column_stack((cc, cc, cc0, cc0, cc1, cc1)),
                      np.column_stack((np.tile(bits, (nk, 2)), bits[key & 1], bits[1 - (key & 1)])),
                      np.column_stack((cc0, cc1, root, skip, root, skip)))]
    # walk to the simulated head and apply the move: per (q2, s2) a scan for
    # STAY, which writes the flag and returns, and one for each move, which
    # unflags the cell and plants the flag on the next
    s2, move = np.arange(4, dtype=np.uint8)[:, None, None], np.arange(3, dtype=np.uint8)[:, None]
    walk_to = np.empty((ns, 4, 3, 8), np.int32)
    walk_to[:, :, STAY] = ret[:, :, cell_b]
    walk_to[:, :, LEFT:] = plant[:, None, :, None]
    walk_write = np.broadcast_to(work_cell(s2, u8(move == STAY), cell_b), walk_to.shape)
    walk_move = np.tile(u8([LEFT, LEFT, RIGHT]), 4 * ns)[:, None]
    # plant the head flag where a move ended: each work cell has a rule
    # for the right-moving plant, then one for the left-moving plant;
    # walking right onto untouched blank reads as a simulated blank;
    # walking left onto the end marker, the simulated head fell off: stuck
    rets = ret.reshape(ns, 8)
    plants = (plant[:, [1, 0] * 8 + [1]], u8([*np.repeat(plain, 2), U_BLANK]),
              np.column_stack((np.repeat(rets, 2, axis=1), rets[:, 0])),
              u8([*np.repeat(flagged, 2), work_cell(0, 1, 0)]), u8(LEFT))
    phases = [
        rules(ns, scan(seek, rew.reshape(ns, 8), flagged, LEFT)),
        rules(nk, *record),
        # collect successor state / symbol / move (code 3 stays, as 0 does)
        rules(1, field(np.concatenate((gq, gs[:, 0])))),
        rules(ns, field(np.column_stack((gs, gm[:, :, 0]))),
              field(np.concatenate((gm, walk[:, :, [0, 1, 2, 0]]), axis=2))),
        rules(ns, scan(walk.ravel(), walk_to.reshape(-1, 8), walk_write.reshape(-1, 8), walk_move),
              plants),
        # return to the origin and scan for the next step
        rules(nk - 8, rewind(ret.ravel()[key >> 3 != 1], rec[key >> 3 != 1])),
    ]

    def column() -> bytes | array:
        """The phases' next field for every rule, taken off the phases: one
        column at a time keeps the build's peak low."""
        col = np.concatenate([p.pop(0).ravel() for p in phases])
        if col.dtype == np.uint8:
            return col.tobytes()
        states = array("i", [0]) * len(col)
        np.frombuffer(states, dtype=np.intc)[:] = col
        return states

    state, read, to, write, moves = (column() for _ in range(5))
    table = Rules(state, read, bytes(len(read)), to, write, moves)
    return Machine(top, U_SYMBOLS, int(seek[0]), int(uacc[0]), U_BLANK, False, table)


def _keeps_region(utm: Machine) -> bool:
    """Whether every rule of ``utm`` that reads a symbol of ``utm_tape``'s
    program region (``U_BIT0`` through ``U_SEP``) writes it back: checked
    on the rule columns once per machine and cached on the instance."""
    keeps = utm.__dict__.get("_keeps")
    if keeps is None:
        rules = utm.transitions
        read, write = (np.frombuffer(c, dtype=np.uint8) for c in (rules.read, rules.write))
        inside = (read >= U_BIT0) & (read <= U_SEP)
        keeps = bool((read[inside] == write[inside]).all())
        object.__setattr__(utm, "_keeps", keeps)
    return keeps


def run_encoded(
    utm: Machine,
    program: Sequence[int],
    input_symbols: Sequence[int],
    track: Sequence[int] | None = None,
    *,
    max_steps: int,
    state_bits: int = 8,
) -> Run:
    """Build the tape with ``utm_tape`` and run ``utm`` on it from cell 0
    within ``max_steps``; the ``Run`` returned equals ``run_machine(utm,
    tape, max_steps=max_steps)`` in status, steps, state, head and cells.

    The lemma: the tape's *region*, cells 0 through the end marker, holds
    the program, and stays as it is when every rule of ``utm`` that reads
    a region symbol writes it back (``_keeps_region``; every rule of
    ``universal_machine`` does).  After its start a run enters the region
    only by the step from the first work cell onto the end marker, and
    leaves it only by the step back.  So every path through an unchanging
    region from one entry state ends in the same exit state after the same
    number of steps.

    The run is driven as two ``Run``s on the one engine, the work zone's
    and the region's, whose tape is closed on the right; each crossing is
    the wall step of one and counts one step here.  A crossing from an
    entry state stepped before is replayed as one macro step (H. Marxen
    and J. Buntrock, *Attacking the Busy Beaver 5*, 1990) when it fits the
    budget; any other entry steps the region run, so a budget, a halt or
    the wall inside the region ends where the plain run would.  When the
    premise fails nothing is replayed, and the region run keeps its writes.
    """
    if max_steps < 0:
        raise ValueError(f"negative step budget {max_steps}")
    tape = bytearray(utm_tape(program, input_symbols, track, state_bits=state_bits))
    end = tape.index(U_END)
    keep = _keeps_region(utm)
    region = Run(utm, tape[: end + 1], closed=True)
    work = Run(utm, tape[end + 1 :])
    # entry state -> (exit state, steps from the first work cell back to it)
    memo: dict[int, tuple[int, int]] = {}
    run, entry, entered = region, None, 0
    while run.go(max_steps) == "hit_wall":
        if run is work:  # off the first work cell onto the end marker
            entry, entered = work.state, work.steps
            hit = memo.get(entry)
            if hit is None or entered + hit[1] > max_steps:
                run, region.head, region.state, region.steps = region, end, entry, entered + 1
                continue
            state, steps = hit[0], entered + hit[1]
        elif region.head < 0:  # left of cell 0, the plain run's wall
            break
        else:  # off the end marker onto the first work cell
            state, steps = region.state, region.steps + 1
            if keep and entry is not None:
                memo[entry] = (state, steps - entered)
        run, work.head, work.state, work.steps = work, 0, state, steps
    work.cells[:0] = region.cells
    work.head = end + 1 + work.head if run is work else region.head
    work.state, work.steps, work.status = run.state, run.steps, run.status
    return work
