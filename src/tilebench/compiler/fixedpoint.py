"""Tile sets that carry their own adjacency checker.

A coordinate grid of side N = 2**n is decorated with one "val" bit on
designated edges: horizontal edges on the seam column x == 0, vertical
edges on the seam row y == 0, and vertical edges in a block of rows
[N/4, N-32) where val is pinned to one bit of a program string laid out
across the block.  The program is the transition table of a four-symbol
checker machine R, and R checks exactly this discipline: handed the four
edge records of a candidate tile on its tape, it verifies the coordinate
arithmetic and the seam rules, and for block rows it walks out to the
tile's block offset and compares the pinned bit against its read-only
track -- which holds R's own encoding.  The loop closes at the tile
level: the tiles carry the program, and the program describes the tiles.

An edge record is one int, ``i | j << n | val << 2n``, and only
``pack_record``, ``unpack_record`` and ``_records`` know where i, j and val
sit: the checker tape is one frame with each record's bits sliced in
(``checker_tape``), and a record's 32-bit border slice is its own low bits.

Macro-tiles are N x N patches of these tiles.  The border val bits of a
patch form the payload; a 32-bit slice of each border (the top rows for
vertical seams, the right columns for horizontal ones) carries the edge
record of the tile the patch stands for, so macro-edges and tile edges
match one against one and ``assemble_self_patch`` / ``decode_self_patch``
round-trip.
A color id is a closed form of its edge's axis and record (``_color``,
read back by ``_record``).  One array pass (``_tile_colors``) enumerates
the tiles from the val discipline, all cells at once; ``_free`` states
which vals are free, and only the border ring has any.  So a cell's first
tile id is a closed form in its coordinates (``_first_id``), and a tile's
id is that plus the rank of its free vals (``_rank``).  The built set is
the only table of tiles: a quad is a member when the tile its cell and
vals name has exactly those records.  Assembly builds each patch row as a
range of first ids and re-ranks the ring cells.

Everything here is desk-checkable: R has a few hundred states, its
encoding fits the block with room to spare, and the certificate below
runs R over the whole non-block tile population plus samples of the
walking runs, cross-checks R against the universal machine, and verifies
that single-bit corruptions of the program are caught.  Both audits run
one loop, ``_audit``, which judges every run by ``_check`` into a
``SelfCertificate``: ok, inconclusive (every failure a budget hit) or
refuted.  An ``ok`` is not evidence that the set is aperiodic: the set
tiles the N x N torus (tests/test_fixedpoint.py::TestKnownGaps).

A walk is almost all drag: up to 3.2 M steps at N=256, against a few
thousand before and after.  So ``run_checker`` composes each run from the
engine's steps and a drag lemma (``DragLemma``), a macro step whose cost
per decrement is measured from R once per set and whose preconditions are
checked at every use.  The engine runs R without the four rules that
start a drag, and the lemma takes those steps: it jumps the drag, or takes
the entry step alone when a precondition fails.  A walk then costs about
as much as a resident run, and every result is exactly a direct run's.

No step budget is a hand-set number: ``checker_budget`` works one out per
set from the geometry and the drag lemma, and a universal re-run's comes
from the direct run it re-checks.  Universal re-runs are drawn only at
non-walking cells: a walk of 2 M steps would need about 10**13.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from ..core import PatchGrid, TileSet, block_border, verify_patch
from ..machine import (
    COND_TRACK0,
    LEFT,
    RIGHT,
    STAY,
    Assembler,
    Machine,
    Run,
    encode_program,
    run_encoded,
    run_machine,
    universal_machine,
    utm_tape,
)
from .simulate import CompileError

# Checker tape alphabet.
SYM_B, SYM_Z, SYM_O, SYM_M = 0, 1, 2, 3

RECORD_BITS = 32  # window slice width; also the padded record length
QUADS = 32  # val + i bits + j bits + padding, see _frame
ANCHOR = 239  # fixed M cell the loaders build the counter after
MAX_SIZE = 16384  # color ids 2N(N+1) and tile ids (N+2)**2 fit int32 up to here; 2*32768*32769 does not

_B, _Z, _O, _M = (bytes((sym,)) for sym in (SYM_B, SYM_Z, SYM_O, SYM_M))
_ZO = _Z + _O
_CELLS = bytes.maketrans(b"01", _ZO)
_BITS = bytes.maketrans(_ZO, b"01")  # its inverse


def _sym(bit: int) -> int:
    return SYM_Z + bit


def _symbols(value: int, width: int) -> bytes:
    """``value`` as ``width`` Z/O cells, low bit first; ValueError unless
    0 <= value < 2**width.  The drag lemma reads cells back with
    ``translate(_BITS)``."""
    if not 0 <= value < 1 << width:
        raise ValueError(f"{value} does not fit in {width} bits")
    return format(value, f"0{width}b")[::-1].encode().translate(_CELLS)


# --- edge records -----------------------------------------------------------

def pack_record(n: int, i: int, j: int, val: int) -> int:
    """One edge as an integer: i, j and the val bit, low bits first."""
    return i | (j << n) | (val << (2 * n))


def unpack_record(n: int, rec: int) -> tuple[int, int, int]:
    mask = (1 << n) - 1
    return rec & mask, (rec >> n) & mask, (rec >> (2 * n)) & 1


def window_bits(n: int, rec: int) -> tuple[int, ...]:
    """The 32-bit border slice of a record: the record's own bits, low
    first, zero padded.  ValueError for a record outside [0, 2**(2n+1))."""
    return tuple(cell - SYM_Z for cell in _symbols(rec, 2 * n + 1).ljust(RECORD_BITS, _Z))


def record_from_window(n: int, bits) -> int:
    if len(bits) != RECORD_BITS:
        raise ValueError(f"window slice needs {RECORD_BITS} bits")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("window slice values must be bits (0 or 1)")
    if any(bits[v] for v in range(2 * n + 1, RECORD_BITS)):
        raise ValueError("padding bits of a window slice must be zero")
    return sum(b << v for v, b in enumerate(bits))


@functools.cache
def _frame(n: int) -> bytes:
    """The checker tape with every record slot Z: M, then 32 quads of five
    cells [tag, sL, sR, sT, sB], then M, then blanks out to the anchor M.
    Quad 0 is the val quad (tag B), quads 1..n the i bits (tag Z, low bit
    first), quads n+1..2n the j bits (tag O), and the rest padding quads
    (tag B)."""
    tags = [SYM_B] + [SYM_Z] * n + [SYM_O] * n + [SYM_B] * (QUADS - 2 * n - 1)
    quads = b"".join(bytes((tag, SYM_Z, SYM_Z, SYM_Z, SYM_Z)) for tag in tags)
    return (_M + quads + _M).ljust(ANCHOR, _B) + _M


def checker_tape(n: int, left: int, right: int, top: int, bottom: int) -> bytes:
    """The four edge records of one tile as a checker tape: ``_frame`` with
    record k's slot (cells 2 + k, every fifth) holding its val cell, then
    its i and j cells.  ValueError for a record outside [0, 2**(2n+1))."""
    width = 2 * n + 1
    tape = bytearray(_frame(n))
    for k, rec in enumerate((left, right, top, bottom)):
        cells = _symbols(rec, width)
        tape[2 + k : 2 + k + 5 * width : 5] = cells[-1:] + cells[:-1]
    return bytes(tape)


# --- the checker machine ----------------------------------------------------

def build_checker(n: int) -> tuple[Machine, tuple[str, ...]]:
    """The record checker for grid side 2**n.

    Sequential passes over the tape, each a fresh scan from the left
    sentinel; a tile is accepted by reaching the accept state and
    rejected by getting stuck (no rule matches).  Pass order: frame and
    coordinate carries, left/right seam rules, top rule (walking the
    block comparison when the top edge sits in block rows), then the
    bottom rule likewise.  Walks run top-edge first: the top offset
    exceeds the bottom one by exactly N, so the second walk never
    collides with the first one's leavings.
    """
    if n < 7:
        raise ValueError("grid side below 128 leaves no block rows")
    if 2 * n + 1 >= QUADS:
        raise ValueError("records wider than the 32-bit window")
    m = Assembler("start", "accept")
    ZO = (SYM_Z, SYM_O)
    ZOB = (SYM_Z, SYM_O, SYM_B)

    def cross(name: str, syms, to: str, *, move: int = LEFT, out: int = RIGHT,
              at=SYM_M) -> None:
        """Run over ``syms`` moving ``move``, then step off ``at`` into ``to``."""
        m.add(name, syms, name, move=move)
        m.add(name, at, to, move=out)

    def chain(px: str, first: int, last: int, syms, to: str) -> None:
        """Step right over ``syms`` from ``{px}{first}`` to ``{px}{last}``, then into ``to``."""
        for k in range(first, last):
            m.add(f"{px}{k}", syms, f"{px}{k + 1}")
        m.add(f"{px}{last}", syms, to)

    def val_zero(px: str, slot: int, to: str, move: int = LEFT) -> None:
        """Rewind, then require Z in slot ``slot`` (1..4) of the val quad."""
        cross(f"rw_{px}", ZOB, f"{px}_1")
        m.add(f"{px}_1", SYM_B, f"{px}_2")
        for k in range(2, slot + 1):
            m.add(f"{px}_{k}", ZO, f"{px}_{k + 1}")
        m.add(f"{px}_{slot + 1}", SYM_Z, to, move=move)

    # Frame pass: sentinel, val quad binary, i quads with an increment
    # carry on the right slot, j quads with the carry on the top slot,
    # padding all zero.  Equal slots are checked on the fly: at i quads
    # left=top=bottom, at j quads left=right=bottom.
    m.add("start", SYM_M, "a_v0")
    m.add("a_v0", SYM_B, "a_v1")
    chain("a_v", 1, 4, ZO, "ai_t1")
    for c in (0, 1):
        m.add(f"ai_t{c}", SYM_Z, f"ai_l{c}")
        m.add(f"ai_t{c}", SYM_O, "aj_l1")
        for b in (0, 1):
            m.add(f"ai_l{c}", _sym(b), f"ai_r{c}{b}")
            m.add(f"ai_r{c}{b}", _sym(b ^ c), f"ai_u{c & b}{b}")
            m.add(f"ai_u{c}{b}", _sym(b), f"ai_d{c}{b}")
            m.add(f"ai_d{c}{b}", _sym(b), f"ai_t{c}")
    for g in (0, 1):
        for b in (0, 1):
            m.add(f"aj_l{g}", _sym(b), f"aj_r{g}{b}")
            m.add(f"aj_r{g}{b}", _sym(b), f"aj_u{g}{b}")
            m.add(f"aj_u{g}{b}", _sym(b ^ g), f"aj_d{g & b}{b}")
            m.add(f"aj_d{g}{b}", _sym(b), f"aj_t{g}")
        m.add(f"aj_t{g}", SYM_O, f"aj_l{g}")
        m.add(f"aj_t{g}", SYM_B, "ap_1")
    chain("ap_", 1, 4, SYM_Z, "ap_t")
    m.add("ap_t", SYM_B, "ap_1")
    m.add("ap_t", SYM_M, "rw_h", move=LEFT)
    cross("rw_h", ZOB, "hl_e1")

    def entry(prefix: str, to: str) -> None:
        m.add(f"{prefix}_e1", SYM_B, f"{prefix}_e2")
        chain(f"{prefix}_e", 2, 5, ZO, to)

    # Left seam: val(left) is free exactly on the column x == 0.
    entry("hl", "hl_t")
    m.add("hl_t", SYM_Z, "hl_p1")
    m.add("hl_t", SYM_O, "rw_hr", move=LEFT)  # all i bits zero: free
    m.add("hl_p1", SYM_Z, "hl_p2")
    m.add("hl_p1", SYM_O, "rw_hlz", move=LEFT)  # x != 0: val must be Z
    chain("hl_p", 2, 4, ZO, "hl_t")
    val_zero("hlz", 1, "rw_hr")
    cross("rw_hr", ZOB, "hr_e1")

    # Right seam: val(right) free exactly when right.i == 0 (x == N-1).
    entry("hr", "hr_t")
    m.add("hr_t", SYM_Z, "hr_p1")
    m.add("hr_t", SYM_O, "rw_vt", move=LEFT)
    m.add("hr_p1", ZO, "hr_p2")
    m.add("hr_p2", SYM_Z, "hr_p3")
    m.add("hr_p2", SYM_O, "rw_hrz", move=LEFT)
    chain("hr_p", 3, 4, ZO, "hr_t")
    val_zero("hrz", 2, "rw_vt")
    cross("rw_vt", ZOB, "vt_e1")

    # Shared shape for the two vertical-edge passes.  slot_off: 3 for the
    # top record, 4 for the bottom one (cells past the tag).  The zero scan
    # over j quads classifies the edge: all zero means the seam row (val
    # free), otherwise the backward reads at the j/padding boundary
    # decide whether the row lies in the block.
    def vertical_pass(px: str, slot_off: int, free_to: str, zero_to: str,
                      prog_to: str, skip=ZOB) -> None:
        entry(px, f"{px}_t")
        m.add(f"{px}_t", SYM_Z, f"{px}_k1")
        m.add(f"{px}_t", SYM_O, f"{px}_p1")
        m.add(f"{px}_t", SYM_B, free_to, move=LEFT)
        chain(f"{px}_k", 1, 4, skip, f"{px}_t")
        for k in (1, 2, 3):
            if k == slot_off:
                m.add(f"{px}_p{k}", SYM_Z, f"{px}_p{k + 1}")
                m.add(f"{px}_p{k}", SYM_O, f"{px}_f{k + 1}")
            else:
                m.add(f"{px}_p{k}", skip, f"{px}_p{k + 1}")
        if slot_off == 4:
            m.add(f"{px}_p4", SYM_Z, f"{px}_t")
            m.add(f"{px}_p4", SYM_O, f"{px}_ff")
        else:
            m.add(f"{px}_p4", skip, f"{px}_t")
            m.add(f"{px}_f4", skip, f"{px}_ff")
        m.add(f"{px}_ff", SYM_O, f"{px}_g1")
        m.add(f"{px}_ff", SYM_B, f"{px}_b0", move=LEFT)
        chain(f"{px}_g", 1, 4, skip, f"{px}_ff")
        # Backward reads: with the head on the first padding tag, the top
        # j bit sits 5 - slot_off cells back, and each next bit 5 more.
        hop = 5 - slot_off
        for k in range(1, hop):
            m.add(f"{px}_b{k - 1}", skip, f"{px}_b{k}", move=LEFT)
        m.add(f"{px}_b{hop - 1}", SYM_Z, f"{px}_m1_0", move=LEFT)
        m.add(f"{px}_b{hop - 1}", SYM_O, f"{px}_m1_1", move=LEFT)
        for v in (0, 1):
            for k in (1, 2, 3):
                m.add(f"{px}_m{k}_{v}", skip, f"{px}_m{k + 1}_{v}", move=LEFT)
            m.add(f"{px}_m4_{v}", skip, f"{px}_r6_{v}", move=LEFT)
        # r6 reads the second-highest j bit with the top bit in the state.
        m.add(f"{px}_r6_0", SYM_Z, zero_to, move=LEFT)  # below N/4
        m.add(f"{px}_r6_0", SYM_O, prog_to, move=LEFT)
        m.add(f"{px}_r6_1", SYM_Z, prog_to, move=LEFT)
        if n == 7:
            m.add(f"{px}_r6_1", SYM_O, zero_to, move=LEFT)  # top 32 rows
        else:
            m.add(f"{px}_r6_1", SYM_O, f"{px}_w1_1", move=LEFT)
            for k in range(n - 7):
                last = k == n - 8
                for j in (1, 2, 3):
                    m.add(f"{px}_w{j}_{k + 1}", skip, f"{px}_w{j + 1}_{k + 1}",
                          move=LEFT)
                m.add(f"{px}_w4_{k + 1}", skip, f"{px}_r5_{k + 1}", move=LEFT)
                m.add(f"{px}_r5_{k + 1}", SYM_Z, prog_to, move=LEFT)
                m.add(f"{px}_r5_{k + 1}", SYM_O,
                      zero_to if last else f"{px}_w1_{k + 2}", move=LEFT)

    # Top edge pass (slot sT, offset 3 past the tag).
    vertical_pass("vt", 3, "rw_vb", "rw_vtz", "rw_lt", skip=ZO)
    val_zero("vtz", 3, "rw_vb")
    cross("rw_vb", ZOB, "vb_e1")

    # Loader + transform + val fetch + walk, stamped out twice.  The
    # loader streams the i then j bits of its slot into a counter built
    # after the anchor mark, consuming each source cell (B overwrite).
    # The transform rewrites the two top counter bits from row number to
    # block offset (rows N/4..N-32 map to offsets 0..).  The walk then
    # drags the counter right, one tape cell per decrement; when it
    # empties, the head rests exactly 240 + 2n + fold cells in, where the
    # track holds program bit fold.  The drag states (dec, ret, sh, s,
    # m, n) read no track bit but in the exit rule, and one decrement of
    # a value with k trailing zero bits takes 4n + 5 + 2k steps whatever
    # the other bits: the shape ``DragLemma`` measures and jumps.
    def walker(px: str, slot_off: int, val_cell: int, done: str) -> None:
        sek = f"{px}_sek"
        m.add(sek, SYM_B, f"{px}_k1")
        m.add(sek, ZO, f"{px}_q1")
        m.add(sek, SYM_M, f"{px}_t0")
        chain(f"{px}_k", 1, 4, ZOB, sek)
        for k in range(1, 5):
            name = f"{px}_q{k}"
            if k == slot_off:
                m.add(name, SYM_B, f"{px}_q{k + 1}" if k < 4 else sek)
                for b in (0, 1):
                    m.add(name, _sym(b), f"{px}_c{b}", write=SYM_B)
            elif k < 4:
                m.add(name, ZOB, f"{px}_q{k + 1}")
            else:
                m.add(name, ZOB, sek)
        for b in (0, 1):
            cross(f"{px}_c{b}", ZOB, f"{px}_d{b}", move=RIGHT)
            cross(f"{px}_d{b}", SYM_B, f"{px}_w{b}", move=RIGHT)
            m.add(f"{px}_w{b}", ZO, f"{px}_w{b}")
            m.add(f"{px}_w{b}", SYM_B, f"{px}_r1", write=_sym(b), move=LEFT)
        cross(f"{px}_r1", ZO, f"{px}_r2", out=LEFT)
        cross(f"{px}_r2", SYM_B, f"{px}_r3", out=LEFT)
        cross(f"{px}_r3", ZOB, sek)
        # Transform: d = row - N/4 needs only the two top bits rewritten:
        # low(d) = low(row), d[n-2] = !row[n-2], d[n-1] = row[n-2] & row[n-1].
        cross(f"{px}_t0", SYM_B, f"{px}_t1", move=RIGHT)
        cross(f"{px}_t1", ZO, f"{px}_t2", move=RIGHT, out=LEFT, at=SYM_B)
        m.add(f"{px}_t2", SYM_Z, f"{px}_t3z", move=LEFT)
        m.add(f"{px}_t2", SYM_O, f"{px}_t3o", move=LEFT)
        m.add(f"{px}_t3z", SYM_Z, f"{px}_t4z", write=SYM_O)
        m.add(f"{px}_t3z", SYM_O, f"{px}_t4z", write=SYM_Z)
        m.add(f"{px}_t3o", SYM_Z, f"{px}_t4z", write=SYM_O)
        m.add(f"{px}_t3o", SYM_O, f"{px}_t4o", write=SYM_Z)
        m.add(f"{px}_t4z", ZO, f"{px}_t5", write=SYM_Z)
        m.add(f"{px}_t4o", ZO, f"{px}_t5", write=SYM_O)
        m.add(f"{px}_t5", SYM_B, f"{px}_v1", write=SYM_M, move=LEFT)
        # Fetch the val bit under test, then come back to the counter.
        cross(f"{px}_v1", ZO, f"{px}_v2", out=LEFT)
        cross(f"{px}_v2", SYM_B, f"{px}_v3", out=LEFT)
        cross(f"{px}_v3", ZOB, f"{px}_v4")
        for k in range(4, 4 + val_cell - 1):
            m.add(f"{px}_v{k}", ZOB if k > 4 else SYM_B, f"{px}_v{k + 1}")
        probe = f"{px}_v{3 + val_cell}"
        for b in (0, 1):
            m.add(probe, _sym(b), f"{px}_g{b}")
            cross(f"{px}_g{b}", ZOB, f"{px}_h{b}", move=RIGHT)
            cross(f"{px}_h{b}", SYM_B, f"{px}_dec{b}", move=RIGHT)
            # The drag: decrement the counter in place, then shift the
            # whole block one cell right with a one-bit register sweep
            # (each cell takes its left neighbour's old value, the top
            # bit lands on the old sentinel, a fresh sentinel follows).
            # One decrement, one cell: when the counter empties, the
            # sentinel rests exactly fold cells past where it started,
            # and only a matching track bit lets the run continue.
            m.add(f"{px}_dec{b}", SYM_Z, f"{px}_dec{b}", write=SYM_O)
            m.add(f"{px}_dec{b}", SYM_O, f"{px}_ret{b}", write=SYM_Z, move=LEFT)
            m.add(f"{px}_dec{b}", SYM_M, done, track=COND_TRACK0 + b, move=LEFT)
            # off a B, or off the anchor M on the first advance only
            cross(f"{px}_ret{b}", SYM_O, f"{px}_sh{b}", at=(SYM_B, SYM_M))
            for c in (0, 1):
                m.add(f"{px}_sh{b}", _sym(c), f"{px}_s{b}{c}", write=SYM_B)
                m.add(f"{px}_s{b}{c}", SYM_Z, f"{px}_s{b}0", write=_sym(c))
                m.add(f"{px}_s{b}{c}", SYM_O, f"{px}_s{b}1", write=_sym(c))
                m.add(f"{px}_s{b}{c}", SYM_M, f"{px}_m{b}", write=_sym(c))
            m.add(f"{px}_m{b}", SYM_B, f"{px}_n{b}", write=SYM_M, move=LEFT)
            cross(f"{px}_n{b}", ZO, f"{px}_dec{b}", at=SYM_B)

    cross("rw_lt", ZOB, "lt_sek")
    walker("lt", 3, 4, "wt_x1")
    cross("wt_x1", ZOB, "wt_x2", out=LEFT)
    cross("wt_x2", SYM_B, "wt_x3", out=LEFT)
    cross("wt_x3", ZOB, "vb_e1")

    # Bottom edge pass (slot sB, offset 4): mirrors the top pass, but its
    # scans run after a possible top walk, so skipped cells may read B.
    vertical_pass("vb", 4, "vb_ok", "rw_vbz", "rw_lb")
    m.add("vb_ok", ZOB, "accept", move=STAY)
    m.add("vb_ok", SYM_M, "accept", move=STAY)
    val_zero("vbz", 4, "accept", move=STAY)
    cross("rw_lb", ZOB, "lb_sek")
    walker("lb", 4, 5, "accept")

    return m.machine(4, "start", "accept", SYM_B, True), tuple(m.ids)


# --- the drag lemma -----------------------------------------------------------

@dataclass(frozen=True)
class DragLemma:
    """The walkers' counter drags as macro steps (``run_machine``'s ``macro``).

    A drag (see ``build_checker``'s ``walker``) enters ``{px}_dec{b}`` from
    ``{px}_h{b}`` on the anchor M, with the counter right after the anchor:
    Z/O cells, low bit first, closed by an M.  One decrement of a value c
    moves the block one cell right, leaves a B behind, reads no track bit
    and costs ``costs[tz(c)]`` steps, tz(c) being the number of trailing
    zero bits of c.  So the drag from C down to 0 takes
    ``1 + sum_k costs[k] * (C >> k - C >> (k + 1))`` steps, the entry step
    included, and ends in ``{px}_dec{b}`` on the emptied block C cells to
    the right, where only the exit rule, which reads the track, is left.
    ``entries`` maps each measured family's ``h`` state to its ``dec``
    state and costs, one per counter cell; ``machine`` is the checker
    without those families' entry rules (``h`` reading M), stuck where the
    lemma takes over.
    """

    machine: Machine = field(hash=False)
    entries: dict = field(hash=False)

    def steps(self, entry: int, count: int) -> int:
        """Steps of the drag that ``entry`` starts with the counter at count."""
        costs = self.entries[entry][1]
        return 1 + sum(cost * ((count >> k) - (count >> (k + 1)))
                       for k, cost in enumerate(costs))

    def __call__(self, run: Run, max_steps: int) -> bool:
        """Take the drag entry that ``run`` is stuck on (False if it is
        stuck elsewhere): jump the whole drag when the block is Z/O cells
        closed by M, the cells it moves into are blank or past the tape's
        end, and the jump ends within ``max_steps``; else take the entry
        step alone (the M stays, the head moves right into ``dec``)."""
        entry, cells = run.state, run.cells
        if entry not in self.entries or cells[run.head] != SYM_M:
            return False
        run.state, costs = self.entries[entry]
        w = len(costs)
        p = run.head + 1  # the block's low bit
        end = p + w  # its closing M
        block = cells[p:end]
        if cells[end : end + 1] == _M and not block.translate(None, _ZO):
            count = int(block.translate(_BITS)[::-1], 2)
            steps = self.steps(entry, count)
            if run.steps + steps <= max_steps and not cells[end + 1 : end + 1 + count].lstrip(_B):
                cells[p : end + count + 1] = _B * count + _Z * w + _M
                run.head = p + count
                run.steps += steps
                return True
        if p == len(cells):  # the tape grows a blank
            cells.append(self.machine.blank)
        run.head = p
        run.steps += 1
        return True


def _decrement_costs(machine: Machine, entry: int, dec: int, body: set,
                     width: int) -> tuple[int, ...] | None:
    """One walker family's decrement steps by trailing zero count, measured
    on the machine; None unless the family drags as ``DragLemma`` assumes.

    The checks: no step of the entry or the body reads the track bit (the
    exit rule, ``dec`` on M, aside); the entry on M goes to ``dec`` and
    steps right; and for each k one decrement of a value with k trailing
    zeros, run once with an M left of the block and the bits above k clear
    and once with a B there and those bits set, first reaches ``dec`` one
    cell right, with the value one less and a B left behind, after the same
    number of steps both times."""
    for q in body | {entry}:
        row = machine.row(q)
        for s in range(machine.symbols):
            if (q, s) != (dec, SYM_M) and row[2 * s] != row[2 * s + 1]:
                return None
    if (machine.row(entry)[2 * SYM_M] or ())[:3] != (dec, SYM_M, 1):
        return None
    costs = []
    for k in range(width):
        seen = set()
        for left, value in ((SYM_M, 1 << k), (SYM_B, (1 << width) - (1 << k))):
            run = Run(machine, bytes([left]) + _symbols(value, width) + _M + _B,
                      head=1, state=dec)
            want = (dec, 2, bytes([left, SYM_B]) + _symbols(value - 1, width) + _M)
            while (run.state, run.head, run.cells) != want:
                if run.go(run.steps + 1) != "timeout" or run.steps == 16 * width:
                    return None
            seen.add(run.steps)
        if len(seen) > 1:
            return None
        costs.append(seen.pop())
    return tuple(costs)


def drag_lemma(machine: Machine, names, width: int) -> DragLemma:
    """The drag lemma of a checker from ``build_checker``, whose state
    names locate the four walker families; a family that fails
    ``_decrement_costs``'s checks gets no entry, and the lemma's machine
    keeps its entry rule, so its drags are stepped."""
    ids = {name: q for q, name in enumerate(names)}
    families = [(ids[f"{px}_h{b}"], ids[f"{px}_dec{b}"],
                 {ids[f"{px}_{s}{b}"] for s in ("dec", "ret", "sh", "m", "n")}
                 | {ids[f"{px}_s{b}{c}"] for c in (0, 1)})
                for px in ("lt", "lb") for b in (0, 1)]
    entries = {}
    for entry, dec, states in families:
        costs = _decrement_costs(machine, entry, dec, states, width)
        if costs is not None:
            entries[entry] = (dec, costs)
    rules = machine.transitions
    entry_rules = (np.isin(np.frombuffer(rules.state, dtype=np.intc), list(entries))
                   & (np.frombuffer(rules.read, dtype=np.uint8) == SYM_M))
    return DragLemma(replace(machine, transitions=rules.where(~entry_rules)), entries)


# --- the tile set -----------------------------------------------------------

def checker_budget(n: int, size: int, drag: DragLemma) -> int:
    """A step bound on every checker run over a grid of side ``size`` = 2**n,
    worked out from the geometry and the drag lemma.

    A walk starts only on a block row, so every drag count is below the
    block's capacity C = size * (3*size/4 - 32), and a run drags at most
    twice: at most ``2 * max_e drag.steps(e, C - 1)`` steps.  Every other
    step but the accepting one moves the head one cell.  Outside the drags
    the head turns at most 8n + 25 times, on a tile off both seams that
    walks twice: 2 for the frame pass, 4 for each seam pass, 2 for each
    vertical pass before its walk, and per walk 2 for each of the 2n
    counter bits loaded, 3 in the transform, 1 back from the val fetch and
    1 at the drag's exit, and 1 more after the top walk.  So those steps
    fall into at most 8n + 26 one-way stretches, each no longer than the
    tape: the ANCHOR + 1 cells of ``checker_tape``, the counter's 2n cells
    and its mark, and one cell per decrement.  Raises CompileError when the
    lemma lacks a walker family, whose drags would then have no cost.
    """
    if len(drag.entries) < 4:
        raise CompileError("the drag lemma does not measure every walker family")
    cap = size * len(_band(size))
    drags = 2 * max(drag.steps(entry, cap - 1) for entry in drag.entries)
    return drags + (8 * n + 26) * (ANCHOR + 2 * n + 1 + cap)


def _band(size: int) -> range:
    """Rows whose vertical edges carry pinned program bits."""
    return range(size // 4, size - 32)


def _records(n: int, size: int, x: int, y: int, vl: int, vr: int, vt: int,
             vb: int) -> tuple[int, int, int, int]:
    """The (left, right, top, bottom) edge records of the cell (x, y)."""
    return (
        pack_record(n, x, y, vl),
        pack_record(n, (x + 1) % size, y, vr),
        pack_record(n, x, (y + 1) % size, vt),
        pack_record(n, x, y, vb),
    )


@dataclass(frozen=True)
class FixedPointSet:
    """A self-describing tile set plus everything needed to audit it.

    ``tile_set`` comes from one array pass over every tile
    (``_tile_colors``), its 2N(N+1) color ids each a closed form of an edge
    record (``_color``), and ``accepted`` is a read-only mapping from the
    edge records of every tile to its tile id, read off its color columns
    (``_Accepted``); ``drag`` is the checker's drag lemma, which
    ``run_checker`` jumps with, and ``budget`` its step budget
    (``checker_budget``).
    """

    n: int
    size: int
    tile_set: TileSet
    machine: Machine
    state_bits: int
    program: bytes
    padded: bytes
    capacity: int
    accepted: Mapping = field(hash=False)
    drag: DragLemma = field(hash=False)
    budget: int

    @property
    def band(self) -> range:
        return _band(self.size)

    @property
    def track_offset(self) -> int:
        return ANCHOR + 1 + 2 * self.n

    def fold(self, x: int, y: int) -> int:
        """The padded program's index at the bottom edge of a band cell (x, y)."""
        return x + self.size * (y - self.size // 4)

    @functools.cached_property
    def track_bits(self) -> bytes:
        """The checker's read-only track, built once per set: zeros up to
        ``track_offset``, then the padded program."""
        return bytes(self.track_offset) + self.padded

    def track(self) -> bytes:
        """The track to pass to ``run_checker``: ``track_bits`` itself, so
        the engine checks its bits once per set; to change it, copy it
        (``bytearray(fp.track())``)."""
        return self.track_bits

    def edge_records(self, x: int, y: int, vl: int, vr: int, vt: int,
                     vb: int) -> tuple[int, int, int, int]:
        return _records(self.n, self.size, x, y, vl, vr, vt, vb)


def _free(size: int, x, y) -> tuple:
    """Which of the cell (x, y)'s (left, right, top, bottom) vals are free:
    vl on column 0, vr on column size-1, vt on row size-1 and vb on row 0.
    The one statement of which vals are free, on ints or on arrays of cells;
    every other val is pinned, to the program bit on band rows and 0
    elsewhere."""
    return (x == 0, x == size - 1, (y + 1) % size == 0, y == 0)


def _rank(size: int, x: int, y: int, vals) -> int:
    """The cell (x, y)'s free vals in ``vals`` read as bits, left highest and
    bottom lowest, so a tile's id is its cell's first id plus this; pinned
    vals are not read."""
    rank = 0
    for free, v in zip(_free(size, x, y), vals):
        if free:
            rank = rank << 1 | v
    return rank


def _first_id(size: int, x, y):
    """The id of the cell (x, y)'s first tile (free vals 0), on ints or on
    arrays of cells.  Ids run row by row, and a cell has a tile per choice
    of its free vals (``_free``): m = 2 on rows 0 and size-1 and 1
    elsewhere, doubled on columns 0 and size-1.  So row y >= 1 starts at
    (size + 2) * (y + 1), and its cell x >= 1 at m * (x + 1) in."""
    m_is_2 = y % (size - 1) == 0  # a bool: shifting by it doubles m and keeps an array int32
    return (size + 2) * (y + 1) * (y > 0) + ((x + 1) << m_is_2) * (x > 0)


class _Accepted(Mapping):
    """The edge records of every tile mapped to its tile id, read off the set.

    ``quad_of`` reads a tile's records off its color columns (``_record``).
    A quad of ints names a tile id: ``_first_id`` of the cell its bottom
    record names, plus the ``_rank`` of the val bits it carries; it is a
    member exactly when that tile's records are the quad, which catches a
    wrong coordinate and a pinned val set wrong alike.  Iteration runs in
    tile id order.
    """

    def __init__(self, n: int, size: int, tile_set: TileSet, padded: bytes) -> None:
        self._n, self._size = n, size
        self._record = functools.partial(_record, n, padded, _band(size))
        self._sides = (tile_set.left, tile_set.right, tile_set.top, tile_set.bottom)

    def quad_of(self, tile_id: int) -> tuple:
        """The edge records of the tile with this id, so that
        ``self[self.quad_of(i)] == i``."""
        if not 0 <= tile_id < len(self):
            raise IndexError(tile_id)
        return tuple(self._record(side[tile_id]) for side in self._sides)

    def __getitem__(self, quad) -> int:
        n, size = self._n, self._size
        if type(quad) is tuple and len(quad) == 4 and all(isinstance(r, int) for r in quad):
            x, y, _ = unpack_record(n, quad[3])
            vals = [unpack_record(n, r)[2] for r in quad]
            tile_id = _first_id(size, x, y) + _rank(size, x, y, vals)
            if self.quad_of(tile_id) == quad:
                return tile_id
        raise KeyError(quad)

    def __iter__(self):
        return map(self.quad_of, range(len(self)))

    def __len__(self) -> int:
        return (self._size + 2) ** 2


def _color(n: int, axis: int, rec):
    """The color id of an edge record on ``axis`` (0 for horizontal edges, 1
    for vertical ones), on ints or on arrays.  ``across`` is the coordinate
    that is 0 on the seam.  Each line along the seam has N + 1 ids: 0 and 1
    are its seam edge with val 0 and 1, and each other edge, its val pinned,
    has one; so a free val of 1 is the next id.  ``_record`` inverts it."""
    size = 1 << n
    i, j, val = unpack_record(n, rec)
    along, across = (i, j) if axis else (j, i)
    return (axis * size + along) * (size + 1) + across + (across > 0) + val * (across == 0)


def _record(n: int, padded: bytes, band: range, color: int) -> int:
    """The edge record of a color id, inverting ``_color``; a pinned val is
    the program bit in ``padded`` on the rows of ``band`` (``_band``, built
    once by the caller) and 0 elsewhere."""
    size = 1 << n
    line, pos = divmod(color, size + 1)
    axis, along = divmod(line, size)
    across, val = (0, pos) if pos < 2 else (pos - 1, 0)
    if axis == 0:
        return pack_record(n, across, along, val)
    if across in band:
        val = padded[along + size * (across - band.start)]
    return pack_record(n, along, across, val)


def _tile_colors(n: int, size: int, padded) -> np.ndarray:
    """The (left, right, top, bottom) color ids of every tile, a (tiles, 4)
    int32 array in tile id order: the val discipline for all cells at once.
    A cell has a tile per choice of its free vals (``_free``), and tile
    ``_first_id + rank`` reads them off the bits of ``rank`` as ``_rank``
    does, the bottom one lowest.  A free val lies on a seam, where val 1 is
    the next id, so each side's color is its cell's (``_color`` of
    ``_records`` on arrays, free vals 0, pinned ones the program bit on
    band rows and 0 elsewhere) plus the tile's free val."""
    band = _band(size)
    vert = np.zeros((size, size), np.int32)  # pinned vertical vals by (row, x)
    vert[band.start:band.stop] = np.frombuffer(bytes(padded), np.uint8).reshape(-1, size)
    y, x = np.divmod(np.arange(size * size, dtype=np.int32), size)
    free = _free(size, x, y)
    cell_colors = [_color(n, side // 2, rec) for side, rec in  # axis 1 for top and bottom
                   enumerate(_records(n, size, x, y, 0, 0, vert[(y + 1) % size, x], vert[y, x]))]
    per = 1 << sum(f.astype(np.int32) for f in free)
    cell = np.repeat(np.arange(size * size, dtype=np.int32), per)
    rank = np.arange(len(cell), dtype=np.int32) - (np.cumsum(per, dtype=np.int32) - per)[cell]
    del vert, x, y, per  # the loop below holds the peak: free what it does not read
    colors, shift = np.empty((len(cell), 4), np.int32), np.zeros(len(cell), np.int32)
    for side in (3, 2, 1, 0):
        bit = free[side][cell]
        colors[:, side] = cell_colors[side][cell] + ((rank >> shift) & bit)
        shift += bit
    return colors


def build_fixed_point(size: int = 256) -> FixedPointSet:
    """Build the self-describing tile set on a size x size coordinate grid.

    Raises ValueError, before any work, for a side that is not a power of
    two from 128 to MAX_SIZE, above which the int32 color ids overflow, and
    CompileError when the checker's encoding does not fit the program block
    that the grid offers (capacity size * (3*size/4 - 32) bits, held as
    ``bytes``); 256 is the smallest side that fits.
    """
    n = (size - 1).bit_length()
    if not 128 <= size <= MAX_SIZE or (1 << n) != size:
        raise ValueError(f"grid side must be a power of two from 128 to {MAX_SIZE}")
    machine, names = build_checker(n)
    state_bits = 8 if machine.states <= 256 else 9
    program = bytes(encode_program(machine, state_bits=state_bits))
    capacity = size * len(_band(size))
    if len(program) > capacity:
        raise CompileError(
            f"checker needs {len(program)} program bits, the block holds {capacity}"
        )
    padded = program.ljust(capacity, b"\0")
    colors = _tile_colors(n, size, padded)
    assert len(colors) == (size + 2) ** 2, "free border bits miscounted"
    tile_set = TileSet(2 * size * (size + 1), colors)  # N lines of N + 1 ids per axis
    drag = drag_lemma(machine, names, 2 * n)
    return FixedPointSet(
        n=n,
        size=size,
        tile_set=tile_set,
        machine=machine,
        state_bits=state_bits,
        program=program,
        padded=padded,
        capacity=capacity,
        accepted=_Accepted(n, size, tile_set, padded),
        drag=drag,
        budget=checker_budget(n, size, drag),
    )


# --- running the checker ----------------------------------------------------

def run_checker(fp: FixedPointSet, quad, *, track=None) -> Run:
    """One checker run over the encoded quad (records, not color ids), on
    ``fp.track_bits`` unless another track is given, within ``fp.budget``
    steps; the ``Run`` that ``run_machine`` returns.

    The run is composed: the engine steps ``fp.drag.machine`` to each
    counter drag, where ``fp.drag`` takes the entry and jumps the drag
    (or, when its preconditions fail, takes the entry step alone), and
    resumes for the drag's exit rule, the only one that reads the track.
    The result is always exactly a direct run's of ``fp.machine``.  Runs
    that never reach a drag (resident tiles, most reject probes) are a
    single engine call.  The checker has a program track, so the engine
    replays its block crossings (``Run.go``, which steps each new one as a
    closed run of its block) from a memo kept on ``fp.drag.machine``, keyed
    by the state, the head's offset, the block's cells and the track bits
    under them, and cleared at ``CROSSINGS`` entries: once a few hundred
    residents have run, a resident run is mostly replays.
    """
    return run_machine(fp.drag.machine, checker_tape(fp.n, *quad),
                       track=fp.track_bits if track is None else track,
                       max_steps=fp.budget, macro=fp.drag)


def walks(fp: FixedPointSet, x: int, y: int) -> bool:
    """Whether the checker run for the cell (x, y) drags out to the track."""
    return y in fp.band or (y + 1) % fp.size in fp.band


# --- macro-tiles ------------------------------------------------------------

def assemble_self_patch(fp: FixedPointSet, quad) -> PatchGrid:
    """The canonical size x size patch representing the tile with these
    edge records: border slices carry the records, everything else is
    pinned (block bits from the program, other vals zero).

    Only the 4*size - 4 border ring cells have a free val, so every other
    cell's one tile is its ``_first_id``, worked out for the whole grid at
    once.  A ring cell's free vals come from the border slice (0 off the
    slice), and its id is its first id plus the ``_rank`` of those vals."""
    n, size = fp.n, fp.size
    if quad not in fp.accepted:
        raise ValueError("edge records do not belong to the tile set")
    lo = size - RECORD_BITS
    wl, wr, wt, wb = ((0,) * lo + window_bits(n, r) for r in quad)
    edges = (0, size - 1)
    xs = np.arange(size, dtype=np.int32)
    grid = _first_id(size, xs, xs[:, None])
    for y in range(size):
        for x in range(size) if y in edges else edges:
            grid[y, x] += _rank(size, x, y, (wl[y], wr[y], wt[x], wb[x]))
    return PatchGrid(size, size, grid)


def decode_self_patch(fp: FixedPointSet, patch: PatchGrid) -> tuple:
    """Read the four border record slices back off an assembled patch; a HOLE
    or unknown tile id there is MalformedPatchError, a wrong size ValueError."""
    n, size, band = fp.n, fp.size, fp.band
    if (patch.width, patch.height) != (size, size):
        raise ValueError(f"a macro-tile is {size} x {size}, not {patch.width} x {patch.height}")
    lo = size - RECORD_BITS

    def record(side: tuple[int, ...]) -> int:
        vals = (unpack_record(n, _record(n, fp.padded, band, c))[2] for c in side[lo:])
        return record_from_window(n, tuple(vals))

    return tuple(map(record, block_border(fp.tile_set, patch.cells, 0, 0, size)))


# --- the certificate --------------------------------------------------------

PARTS = ("resident", "walks", "probes", "universal", "patches")


def _check(status: str, want: bool) -> bool | None:
    """Whether a run gave the wanted answer: ``accepted`` accepts and ``stuck``
    rejects (see build_checker), a budget hit (``timeout``) is None, any
    other end (a wall) fails."""
    if status == "timeout":
        return None
    return status == ("accepted" if want else "stuck")


@dataclass
class SelfCertificate:
    """What was checked and how it came out: ``parts`` maps each part of the
    audit to [passed, checked], and ``hits`` maps it to its checks that
    failed on a budget hit.
    """

    parts: dict
    hits: dict
    notes: list = field(default_factory=list)

    @property
    def inconclusive(self) -> int:
        return sum(self.hits.values())

    @property
    def verdict(self) -> str:
        """No failed check is "ok"; failures that are all budget hits leave the
        audit "inconclusive"; anything else is "refuted"."""
        failures = sum(c - p for p, c in self.parts.values())
        if not failures:
            return "ok"
        return "inconclusive" if failures == self.inconclusive else "refuted"

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"

    def count(self, part: str, passed: bool | None) -> None:
        """Tally one check of ``part``, judged as ``_check`` judges a run."""
        tally = self.parts[part]
        tally[0] += bool(passed)
        tally[1] += 1
        self.hits[part] += passed is None

    def note(self, text: str) -> None:
        if len(self.notes) < 10:
            self.notes.append(text)


def _audit(fp: FixedPointSet, parts, jobs) -> SelfCertificate:
    """Run each job ``(part, quad, track, want)`` through the checker (on
    the set's own track if ``track`` is None) and tally ``_check``'s
    judgement under ``part``; a ``"universal"`` job that passed is judged
    again under the universal machine."""
    cert = SelfCertificate({part: [0, 0] for part in parts}, dict.fromkeys(parts, 0))
    for part, quad, track, want in jobs:
        direct = run_checker(fp, quad, track=track)
        passed, sim = _check(direct.status, want), None
        if passed and part == "universal":
            # Each of the run's s steps, and the lookups before the first and
            # after the last, cross the universal tape at most three times
            # (back to the origin, along the records, out to the head), and
            # the tape gains at most one cell a step.
            program, tape, s = fp.program, checker_tape(fp.n, *quad), direct.steps
            cells = len(utm_tape(program, tape, state_bits=fp.state_bits))
            sim = run_encoded(universal_machine(fp.state_bits), program, tape,
                              max_steps=3 * (s + 2) * (cells + s),
                              state_bits=fp.state_bits).status
            passed = _check(sim, want)
        cert.count(part, passed)
        if passed is None:
            cert.note(f"{'universal' if sim else 'checker'} budget hit at {quad}: inconclusive")
        elif not passed:
            cert.note(f"universal run disagrees at {quad}: {direct.status} vs {sim}" if sim
                      else f"{part} check failed at {quad}: {direct.status}, want={want}")
    return cert


def _reject_probes(fp: FixedPointSet, rng: random.Random):
    """Corrupted record quads, drawn one at a time for as long as asked."""
    n, size = fp.n, fp.size
    while True:
        x, y = rng.randrange(size), rng.randrange(size)
        # the cell's tile with vl and vr 0 and vt and vb 1 where they are free
        free = _free(size, x, y)
        quad = list(fp.accepted.quad_of(_first_id(size, x, y) + _rank(size, x, y, (0, 0, 1, 1))))
        mode = rng.randrange(5)
        if mode == 0:  # wrong successor column
            quad[1] = pack_record(n, (x + 2) % size, y, 0)
        elif mode == 1:  # top record loses the shared column
            i, j, v = unpack_record(n, quad[2])
            quad[2] = pack_record(n, (i + 1) % size, j, v)
        elif mode == 2:  # flip a pinned val bit off the block
            side = rng.choice([s for s in (0, 1, 3)
                               if not free[s] and not unpack_record(n, quad[s])[2]] or [0])
            i, j, _ = unpack_record(n, quad[side])
            quad[side] = pack_record(n, i, j, 1)
        elif mode == 3:  # rows disagree
            i, j, v = unpack_record(n, quad[0])
            quad[0] = pack_record(n, i, (j + 1) % size, v)
        else:  # sibling: flip a free val, stays a tile
            side = rng.choice(range(4))
            i, j, v = unpack_record(n, quad[side])
            quad[side] = pack_record(n, i, j, v ^ free[side])
        yield tuple(quad)


def _split_walkers(fp: FixedPointSet) -> tuple[range, range, Callable[[int], int]]:
    """The walking tiles' ids, the non-walking ones' indices in id order,
    and the map from such an index to its id.  Walking depends on the row
    alone and the walking rows are one run, so the walkers' ids are one
    range (ids run row by row) and the other ids lie either side of it."""
    rows = [y for y in range(fp.size) if walks(fp, 0, y)]
    walkers = range(_first_id(fp.size, 0, rows[0]), _first_id(fp.size, 0, rows[-1] + 1))
    return (walkers, range(len(fp.accepted) - len(walkers)),
            lambda i: i + len(walkers) if i >= walkers.start else i)


# certificate's fixed sample counts (its docstring says what each samples)
REJECT_SAMPLES = 200
BLOCK_PROBES = 6
UTM_ACCEPTS = 2
UTM_REJECTS = 4


def certificate(fp: FixedPointSet, *, walk_samples: int = 80,
                resident_samples: int | None = None,
                seed: int = 20260816) -> SelfCertificate:
    """Audit the fixed point.

    (a) every non-walking tile is run through the checker (or a sample
    of resident_samples of them), walk_samples walking tiles are sampled
    (their runs drag the counter across the track), and ``REJECT_SAMPLES``
    corrupted quads and ``BLOCK_PROBES`` flipped members are checked
    against set membership; (b) ``UTM_ACCEPTS`` member and ``UTM_REJECTS``
    non-member quads at non-walking cells are re-run under the universal
    machine on the checker's own encoding, each only after its direct run
    gave the answer membership wants;
    (c) sample tiles are assembled into macro-tiles, patch-verified, and
    decoded back.  Runs are judged by ``_check``, so a budget hit leaves
    its check inconclusive.  Raises ValueError, naming the argument, for a
    negative walk_samples or resident_samples below 1.
    """
    if walk_samples < 0:
        raise ValueError(f"walk_samples must not be negative, got {walk_samples}")
    if resident_samples is not None and resident_samples < 1:
        raise ValueError("resident_samples must be at least 1")
    rng = random.Random(seed)

    walkers, nonwalk, nonwalker = _split_walkers(fp)
    quad_of = fp.accepted.quad_of
    residents = nonwalk
    if resident_samples is not None:
        residents = rng.sample(nonwalk, min(resident_samples, len(nonwalk)))
    jobs = [("resident", quad_of(nonwalker(i))) for i in residents]
    jobs += [("walks", quad_of(i)) for i in rng.sample(walkers, min(walk_samples, len(walkers)))]
    jobs += [("probes", q) for q in itertools.islice(_reject_probes(fp, rng), REJECT_SAMPLES)]
    block_rows = list(fp.band)
    for _ in range(BLOCK_PROBES):  # a member with its pinned bottom bit flipped: walk then stick
        x, y = rng.randrange(fp.size), rng.choice(block_rows)
        *quad, bottom = quad_of(_first_id(fp.size, x, y))
        i, j, v = unpack_record(fp.n, bottom)
        jobs.append(("probes", (*quad, pack_record(fp.n, i, j, v ^ 1))))
    jobs += [("universal", quad_of(nonwalker(i))) for i in rng.sample(nonwalk, UTM_ACCEPTS)]
    # Rejects sit at non-walking cells too; every probe mode keeps the
    # bottom record's cell, the probe's own.
    rejects = (q for q in _reject_probes(fp, rng) if q not in fp.accepted
               and not walks(fp, *unpack_record(fp.n, q[3])[:2]))
    jobs += [("universal", q) for q in itertools.islice(rejects, UTM_REJECTS)]

    cert = _audit(fp, PARTS, ((part, q, None, q in fp.accepted) for part, q in jobs))

    corners = [(0, 0), (fp.size - 1, fp.size - 1), (0, fp.size - 32)]
    inner = [(77, 30), (fp.size // 2, fp.size // 2), (5, 0)]
    for x, y in corners + inner:
        quad = quad_of(_first_id(fp.size, x, y) + _rank(fp.size, x, y, (1, 1, 1, 1)))
        patch = assemble_self_patch(fp, quad)
        passed = not verify_patch(fp.tile_set, patch) and decode_self_patch(fp, patch) == quad
        cert.count("patches", passed)
        if not passed:
            cert.note(f"macro-tile round trip failed at {(x, y)}")
    return cert


def mutation_trials(fp: FixedPointSet, count: int = 50,
                    seed: int = 20260816) -> SelfCertificate:
    """Flip single program bits on the track and confirm the checker now
    rejects the tile that carries the original bit at that block offset.

    The first three trials also run a control under the mutated track,
    which the checker must still accept: the mutant's row neighbour (x + 1,
    or x - 1 on the last column), which walks too, and whose walks end one
    bit off the mutated one, so a checker that misreads the track fails
    it.  Mutants and controls are ``_audit`` jobs, each its own check;
    they are generated one trial at a time, so only one mutated track is
    alive at once.  Raises ValueError unless 0 <= count <= the program's
    bit count."""
    if not 0 <= count <= len(fp.program):
        raise ValueError(f"count must lie in 0..{len(fp.program)}, the program's bits; got {count}")
    rng = random.Random(seed)
    bits = rng.sample(range(len(fp.program)), count)

    def member(x: int, y: int) -> tuple:  # the cell's first tile
        return fp.accepted.quad_of(_first_id(fp.size, x, y))

    def jobs():
        for k, mbit in enumerate(bits):
            mutated = bytearray(fp.track_bits)
            mutated[fp.track_offset + mbit] ^= 1
            x, y = mbit % fp.size, fp.size // 4 + mbit // fp.size
            yield "mutations", member(x, y), mutated, False
            if k < 3:
                yield "controls", member(x + 1 if x < fp.size - 1 else x - 1, y), mutated, True

    return _audit(fp, ("mutations", "controls"), jobs())
