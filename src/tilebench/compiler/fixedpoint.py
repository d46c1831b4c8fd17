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

Macro-tiles are N x N patches of these tiles.  The border val bits of a
patch form the payload; a 32-bit slice of each border (the top rows for
vertical seams, the right columns for horizontal ones) carries the edge
record of the tile the patch stands for, so macro-edges and tile edges
match one against one and ``assemble_self_patch`` / ``decode_self_patch``
round-trip.
One generator enumerates the tiles from the val discipline; assembly
works out each cell's vals and looks its tile up by the edge records it
encodes.

Everything here is desk-checkable: R has a few hundred states, its
encoding fits the block with room to spare, and the certificate below
runs R over the whole non-block tile population plus samples of the
walking runs, cross-checks R against the universal machine, and verifies
that single-bit corruptions of the program are caught.  Both audits judge
every run by ``_check`` and report a ``_verdict``: ok, inconclusive (every
failure a budget hit) or refuted.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from ..core import PatchGrid, Tile, TileSet, verify_patch
from ..machine import (
    Machine,
    RunResult,
    Transition,
    encode_program,
    run_encoded,
    run_machine,
    universal_machine,
)
from .simulate import CompileError

# Checker tape alphabet.
SYM_B, SYM_Z, SYM_O, SYM_M = 0, 1, 2, 3

RECORD_BITS = 32  # window slice width; also the padded record length
QUADS = 32  # val + i bits + j bits + padding, see encode_quad
ENC_CELLS = 2 + 5 * QUADS  # sentinel + 32 five-cell quads + sentinel
ANCHOR = 239  # fixed M cell the loaders build the counter after


def _sym(bit: int) -> int:
    return SYM_Z + bit


# --- edge records -----------------------------------------------------------

def pack_record(n: int, i: int, j: int, val: int) -> int:
    """One edge as an integer: i, j and the val bit, low bits first."""
    return i | (j << n) | (val << (2 * n))


def unpack_record(n: int, rec: int) -> tuple[int, int, int]:
    mask = (1 << n) - 1
    return rec & mask, (rec >> n) & mask, (rec >> (2 * n)) & 1


def window_bits(n: int, rec: int) -> tuple[int, ...]:
    """The record widened to the 32-bit border slice (zero padded)."""
    i, j, val = unpack_record(n, rec)
    bits = [0] * RECORD_BITS
    for v in range(n):
        bits[v] = (i >> v) & 1
        bits[n + v] = (j >> v) & 1
    bits[2 * n] = val
    return tuple(bits)


def record_from_window(n: int, bits) -> int:
    if len(bits) != RECORD_BITS:
        raise ValueError(f"window slice needs {RECORD_BITS} bits")
    if any(bits[v] for v in range(2 * n + 1, RECORD_BITS)):
        raise ValueError("padding bits of a window slice must be zero")
    i = sum((bits[v] & 1) << v for v in range(n))
    j = sum((bits[n + v] & 1) << v for v in range(n))
    return pack_record(n, i, j, bits[2 * n] & 1)


def encode_quad(n: int, left: int, right: int, top: int, bottom: int) -> list[int]:
    """The four edge records of one tile as a checker tape.

    Layout: M, then 32 quads of five cells [tag, sL, sR, sT, sB], then M.
    Quad 0 is the val quad (tag B), quads 1..n the i bits (tag Z, low bit
    first), quads n+1..2n the j bits (tag O), and the rest padding quads
    (tag B, all-Z slots).
    """
    recs = [unpack_record(n, r) for r in (left, right, top, bottom)]
    tape = [SYM_M]
    tape += [SYM_B] + [_sym(v) for (_, _, v) in recs]
    for v in range(n):
        tape += [SYM_Z] + [_sym((i >> v) & 1) for (i, _, _) in recs]
    for v in range(n):
        tape += [SYM_O] + [_sym((j >> v) & 1) for (_, j, _) in recs]
    for _ in range(QUADS - 2 * n - 1):
        tape += [SYM_B, SYM_Z, SYM_Z, SYM_Z, SYM_Z]
    tape.append(SYM_M)
    return tape


def checker_tape(n: int, left: int, right: int, top: int, bottom: int) -> list[int]:
    """encode_quad plus the blank run out to the fixed anchor mark."""
    tape = encode_quad(n, left, right, top, bottom)
    tape += [SYM_B] * (ANCHOR - len(tape))
    tape.append(SYM_M)
    return tape


# --- the checker machine ----------------------------------------------------

class _TM:
    """Tiny assembler for hand-built machines: named states, listed rules."""

    def __init__(self) -> None:
        self.names: list[str] = ["start", "accept"]
        self._ids = {"start": 0, "accept": 1}
        self.rules: list[Transition] = []

    def st(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, frm, reads, to, *, write: int | None = None, move: str = "R",
            track: int | None = None) -> None:
        if isinstance(reads, int):
            reads = (reads,)
        for sym in reads:
            self.rules.append(
                Transition(self.st(frm), sym, track, self.st(to),
                           sym if write is None else write, move)
            )

    def machine(self) -> Machine:
        return Machine(len(self.names), 4, 0, 1, SYM_B, True, tuple(self.rules))


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
    m = _TM()
    ZO = (SYM_Z, SYM_O)
    ZOB = (SYM_Z, SYM_O, SYM_B)

    # Frame pass: sentinel, val quad binary, i quads with an increment
    # carry on the right slot, j quads with the carry on the top slot,
    # padding all zero.  Equal slots are checked on the fly: at i quads
    # left=top=bottom, at j quads left=right=bottom.
    m.add("start", SYM_M, "a_v0")
    m.add("a_v0", SYM_B, "a_v1")
    for k in range(1, 4):
        m.add(f"a_v{k}", ZO, f"a_v{k + 1}")
    m.add("a_v4", ZO, "ai_t1")
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
    for k in range(1, 4):
        m.add(f"ap_{k}", SYM_Z, f"ap_{k + 1}")
    m.add("ap_4", SYM_Z, "ap_t")
    m.add("ap_t", SYM_B, "ap_1")
    m.add("ap_t", SYM_M, "rw_h", move="L")
    m.add("rw_h", ZOB, "rw_h", move="L")
    m.add("rw_h", SYM_M, "hl_e1")

    def entry(prefix: str, to: str) -> None:
        m.add(f"{prefix}_e1", SYM_B, f"{prefix}_e2")
        for k in (2, 3, 4):
            m.add(f"{prefix}_e{k}", ZO, f"{prefix}_e{k + 1}")
        m.add(f"{prefix}_e5", ZO, to)

    def rewind(name: str, to: str, syms=ZOB) -> None:
        m.add(name, syms, name, move="L")
        m.add(name, SYM_M, to)

    # Left seam: val(left) is free exactly on the column x == 0.
    entry("hl", "hl_t")
    m.add("hl_t", SYM_Z, "hl_p1")
    m.add("hl_t", SYM_O, "rw_hr", move="L")  # all i bits zero: free
    m.add("hl_p1", SYM_Z, "hl_p2")
    m.add("hl_p1", SYM_O, "rw_hlz", move="L")  # x != 0: val must be Z
    for k in (2, 3):
        m.add(f"hl_p{k}", ZO, f"hl_p{k + 1}")
    m.add("hl_p4", ZO, "hl_t")
    rewind("rw_hlz", "hlz_1")
    m.add("hlz_1", SYM_B, "hlz_2")
    m.add("hlz_2", SYM_Z, "rw_hr", move="L")  # val(left) == 0
    rewind("rw_hr", "hr_e1")

    # Right seam: val(right) free exactly when right.i == 0 (x == N-1).
    entry("hr", "hr_t")
    m.add("hr_t", SYM_Z, "hr_p1")
    m.add("hr_t", SYM_O, "rw_vt", move="L")
    m.add("hr_p1", ZO, "hr_p2")
    m.add("hr_p2", SYM_Z, "hr_p3")
    m.add("hr_p2", SYM_O, "rw_hrz", move="L")
    m.add("hr_p3", ZO, "hr_p4")
    m.add("hr_p4", ZO, "hr_t")
    rewind("rw_hrz", "hrz_1")
    m.add("hrz_1", SYM_B, "hrz_2")
    m.add("hrz_2", ZO, "hrz_3")
    m.add("hrz_3", SYM_Z, "rw_vt", move="L")
    rewind("rw_vt", "vt_e1")

    # Shared shape for the two vertical-edge passes.  slot: 1 for the top
    # record, 2 for the bottom one (cells past the tag).  The zero scan
    # over j quads classifies the edge: all zero means the seam row (val
    # free), otherwise the backward reads at the j/padding boundary
    # decide whether the row lies in the block.
    def vertical_pass(px: str, slot_off: int, free_to: str, zero_to: str,
                      prog_to: str, skip=ZOB) -> None:
        entry(px, f"{px}_t")
        m.add(f"{px}_t", SYM_Z, f"{px}_k1")
        m.add(f"{px}_t", SYM_O, f"{px}_p1")
        m.add(f"{px}_t", SYM_B, free_to, move="L")
        for k in (1, 2, 3):
            m.add(f"{px}_k{k}", skip, f"{px}_k{k + 1}")
        m.add(f"{px}_k4", skip, f"{px}_t")
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
            for k in range(slot_off + 1, 4):
                m.add(f"{px}_f{k}", skip, f"{px}_f{k + 1}")
            m.add(f"{px}_f4", skip, f"{px}_ff")
        m.add(f"{px}_ff", SYM_O, f"{px}_g1")
        m.add(f"{px}_ff", SYM_B, f"{px}_b0", move="L")
        for k in (1, 2, 3):
            m.add(f"{px}_g{k}", skip, f"{px}_g{k + 1}")
        m.add(f"{px}_g4", skip, f"{px}_ff")
        # Backward reads: with the head on the first padding tag, the top
        # j bit sits 5 - slot_off cells back, and each next bit 5 more.
        hop = 5 - slot_off
        for k in range(1, hop):
            m.add(f"{px}_b{k - 1}", skip, f"{px}_b{k}", move="L")
        m.add(f"{px}_b{hop - 1}" if hop > 1 else f"{px}_b0",
              SYM_Z, f"{px}_m1_0", move="L")
        m.add(f"{px}_b{hop - 1}" if hop > 1 else f"{px}_b0",
              SYM_O, f"{px}_m1_1", move="L")
        for v in (0, 1):
            for k in (1, 2, 3):
                m.add(f"{px}_m{k}_{v}", skip, f"{px}_m{k + 1}_{v}", move="L")
            m.add(f"{px}_m4_{v}", skip, f"{px}_r6_{v}", move="L")
        # r6 reads the second-highest j bit with the top bit in the state.
        m.add(f"{px}_r6_0", SYM_Z, zero_to, move="L")  # below N/4
        m.add(f"{px}_r6_0", SYM_O, prog_to, move="L")
        m.add(f"{px}_r6_1", SYM_Z, prog_to, move="L")
        if n == 7:
            m.add(f"{px}_r6_1", SYM_O, zero_to, move="L")  # top 32 rows
        else:
            m.add(f"{px}_r6_1", SYM_O, f"{px}_w1_1", move="L")
            for k in range(n - 7):
                last = k == n - 8
                for j in (1, 2, 3):
                    m.add(f"{px}_w{j}_{k + 1}", skip, f"{px}_w{j + 1}_{k + 1}",
                          move="L")
                m.add(f"{px}_w4_{k + 1}", skip, f"{px}_r5_{k + 1}", move="L")
                m.add(f"{px}_r5_{k + 1}", SYM_Z, prog_to, move="L")
                m.add(f"{px}_r5_{k + 1}", SYM_O,
                      zero_to if last else f"{px}_w1_{k + 2}", move="L")

    # Top edge pass (slot sT, offset 3 past the tag).
    vertical_pass("vt", 3, "rw_vb", "rw_vtz", "rw_lt", skip=ZO)
    rewind("rw_vtz", "vtz_1")
    m.add("vtz_1", SYM_B, "vtz_2")
    for k in (2, 3):
        m.add(f"vtz_{k}", ZO, f"vtz_{k + 1}")
    m.add("vtz_4", SYM_Z, "rw_vb", move="L")
    rewind("rw_vb", "vb_e1")

    # Loader + transform + val fetch + walk, stamped out twice.  The
    # loader streams the i then j bits of its slot into a counter built
    # after the anchor mark, consuming each source cell (B overwrite).
    # The transform rewrites the two top counter bits from row number to
    # block offset (rows N/4..N-32 map to offsets 0..).  The walk then
    # drags the counter right, one tape cell per decrement; when it
    # empties, the head rests exactly 240 + 2n + fold cells in, where the
    # track holds program bit fold.
    def walker(px: str, slot_off: int, val_cell: int, done: str) -> None:
        sek = f"{px}_sek"
        m.add(sek, SYM_B, f"{px}_k1")
        m.add(sek, ZO, f"{px}_q1")
        m.add(sek, SYM_M, f"{px}_t0")
        for k in (1, 2, 3):
            m.add(f"{px}_k{k}", ZOB, f"{px}_k{k + 1}")
        m.add(f"{px}_k4", ZOB, sek)
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
            m.add(f"{px}_c{b}", ZOB, f"{px}_c{b}")
            m.add(f"{px}_c{b}", SYM_M, f"{px}_d{b}")
            m.add(f"{px}_d{b}", SYM_B, f"{px}_d{b}")
            m.add(f"{px}_d{b}", SYM_M, f"{px}_w{b}")
            m.add(f"{px}_w{b}", ZO, f"{px}_w{b}")
            m.add(f"{px}_w{b}", SYM_B, f"{px}_r1", write=_sym(b), move="L")
        m.add(f"{px}_r1", ZO, f"{px}_r1", move="L")
        m.add(f"{px}_r1", SYM_M, f"{px}_r2", move="L")
        m.add(f"{px}_r2", SYM_B, f"{px}_r2", move="L")
        m.add(f"{px}_r2", SYM_M, f"{px}_r3", move="L")
        m.add(f"{px}_r3", ZOB, f"{px}_r3", move="L")
        m.add(f"{px}_r3", SYM_M, sek)
        # Transform: d = row - N/4 needs only the two top bits rewritten:
        # low(d) = low(row), d[n-2] = !row[n-2], d[n-1] = row[n-2] & row[n-1].
        m.add(f"{px}_t0", SYM_B, f"{px}_t0")
        m.add(f"{px}_t0", SYM_M, f"{px}_t1")
        m.add(f"{px}_t1", ZO, f"{px}_t1")
        m.add(f"{px}_t1", SYM_B, f"{px}_t2", move="L")
        m.add(f"{px}_t2", SYM_Z, f"{px}_t3z", move="L")
        m.add(f"{px}_t2", SYM_O, f"{px}_t3o", move="L")
        m.add(f"{px}_t3z", SYM_Z, f"{px}_t4z", write=SYM_O)
        m.add(f"{px}_t3z", SYM_O, f"{px}_t4z", write=SYM_Z)
        m.add(f"{px}_t3o", SYM_Z, f"{px}_t4z", write=SYM_O)
        m.add(f"{px}_t3o", SYM_O, f"{px}_t4o", write=SYM_Z)
        m.add(f"{px}_t4z", ZO, f"{px}_t5", write=SYM_Z)
        m.add(f"{px}_t4o", ZO, f"{px}_t5", write=SYM_O)
        m.add(f"{px}_t5", SYM_B, f"{px}_v1", write=SYM_M, move="L")
        # Fetch the val bit under test, then come back to the counter.
        m.add(f"{px}_v1", ZO, f"{px}_v1", move="L")
        m.add(f"{px}_v1", SYM_M, f"{px}_v2", move="L")
        m.add(f"{px}_v2", SYM_B, f"{px}_v2", move="L")
        m.add(f"{px}_v2", SYM_M, f"{px}_v3", move="L")
        m.add(f"{px}_v3", ZOB, f"{px}_v3", move="L")
        m.add(f"{px}_v3", SYM_M, f"{px}_v4")
        for k in range(4, 4 + val_cell - 1):
            m.add(f"{px}_v{k}", ZOB if k > 4 else SYM_B, f"{px}_v{k + 1}")
        probe = f"{px}_v{3 + val_cell}"
        for b in (0, 1):
            m.add(probe, _sym(b), f"{px}_g{b}")
            m.add(f"{px}_g{b}", ZOB, f"{px}_g{b}")
            m.add(f"{px}_g{b}", SYM_M, f"{px}_h{b}")
            m.add(f"{px}_h{b}", SYM_B, f"{px}_h{b}")
            m.add(f"{px}_h{b}", SYM_M, f"{px}_dec{b}")
            # The drag: decrement the counter in place, then shift the
            # whole block one cell right with a one-bit register sweep
            # (each cell takes its left neighbour's old value, the top
            # bit lands on the old sentinel, a fresh sentinel follows).
            # One decrement, one cell: when the counter empties, the
            # sentinel rests exactly fold cells past where it started,
            # and only a matching track bit lets the run continue.
            m.add(f"{px}_dec{b}", SYM_Z, f"{px}_dec{b}", write=SYM_O)
            m.add(f"{px}_dec{b}", SYM_O, f"{px}_ret{b}", write=SYM_Z, move="L")
            m.add(f"{px}_dec{b}", SYM_M, done, track=b, move="L")
            m.add(f"{px}_ret{b}", SYM_O, f"{px}_ret{b}", move="L")
            m.add(f"{px}_ret{b}", SYM_B, f"{px}_sh{b}")
            m.add(f"{px}_ret{b}", SYM_M, f"{px}_sh{b}")  # first advance only
            for c in (0, 1):
                m.add(f"{px}_sh{b}", _sym(c), f"{px}_s{b}{c}", write=SYM_B)
                m.add(f"{px}_s{b}{c}", SYM_Z, f"{px}_s{b}0", write=_sym(c))
                m.add(f"{px}_s{b}{c}", SYM_O, f"{px}_s{b}1", write=_sym(c))
                m.add(f"{px}_s{b}{c}", SYM_M, f"{px}_m{b}", write=_sym(c))
            m.add(f"{px}_m{b}", SYM_B, f"{px}_n{b}", write=SYM_M, move="L")
            m.add(f"{px}_n{b}", ZO, f"{px}_n{b}", move="L")
            m.add(f"{px}_n{b}", SYM_B, f"{px}_dec{b}")

    rewind("rw_lt", "lt_sek")
    walker("lt", 3, 4, "wt_x1")
    m.add("wt_x1", ZOB, "wt_x1", move="L")
    m.add("wt_x1", SYM_M, "wt_x2", move="L")
    m.add("wt_x2", SYM_B, "wt_x2", move="L")
    m.add("wt_x2", SYM_M, "wt_x3", move="L")
    m.add("wt_x3", ZOB, "wt_x3", move="L")
    m.add("wt_x3", SYM_M, "vb_e1")

    # Bottom edge pass (slot sB, offset 4): mirrors the top pass, but its
    # scans run after a possible top walk, so skipped cells may read B.
    vertical_pass("vb", 4, "vb_ok", "rw_vbz", "rw_lb")
    m.add("vb_ok", ZOB, "accept", move="S")
    m.add("vb_ok", SYM_M, "accept", move="S")
    rewind("rw_vbz", "vbz_1")
    m.add("vbz_1", SYM_B, "vbz_2")
    for k in (2, 3, 4):
        m.add(f"vbz_{k}", ZO, f"vbz_{k + 1}")
    m.add("vbz_5", SYM_Z, "accept", move="S")
    rewind("rw_lb", "lb_sek")
    walker("lb", 4, 5, "accept")

    machine = m.machine()
    return machine, tuple(m.names)


# --- the tile set -----------------------------------------------------------

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

    ``accepted`` maps the edge records of every tile to its tile id.
    """

    n: int
    size: int
    tile_set: TileSet
    machine: Machine
    state_bits: int
    program: tuple[int, ...]
    padded: tuple[int, ...]
    capacity: int
    accepted: dict = field(hash=False)
    color_records: tuple = field(hash=False)

    @property
    def band(self) -> range:
        return _band(self.size)

    @property
    def track_offset(self) -> int:
        return ANCHOR + 1 + 2 * self.n

    def fold(self, x: int, y: int) -> int:
        return x + self.size * (y - self.size // 4)

    def track(self) -> list[int]:
        return [0] * self.track_offset + list(self.padded)

    def edge_records(self, x: int, y: int, vl: int, vr: int, vt: int,
                     vb: int) -> tuple[int, int, int, int]:
        return _records(self.n, self.size, x, y, vl, vr, vt, vb)


def _val_choices(size: int, padded, x: int, y: int) -> tuple:
    """(left, right, top, bottom) val alternatives for the cell (x, y).

    The one statement of the val discipline: a pair (0, 1) is a free val,
    a single value a pinned one.
    """
    band = _band(size)

    def vert(row: int) -> tuple:
        if row == 0:
            return (0, 1)
        if row in band:
            return (padded[x + size * (row - size // 4)],)
        return (0,)

    return (
        (0, 1) if x == 0 else (0,),
        (0, 1) if x == size - 1 else (0,),
        vert((y + 1) % size),
        vert(y),
    )


def _tile_records(n: int, size: int, padded):
    """Every tile as (x, y, edge records), in tile id order."""
    for y in range(size):
        for x in range(size):
            for vals in itertools.product(*_val_choices(size, padded, x, y)):
                yield x, y, _records(n, size, x, y, *vals)


def build_fixed_point(size: int = 256) -> FixedPointSet:
    """Build the self-describing tile set on a size x size coordinate grid.

    Raises CompileError when the checker's encoding does not fit the
    program block that the grid offers (capacity size * (3*size/4 - 32)
    bits); 256 is the smallest side that fits.
    """
    n = (size - 1).bit_length()
    if size < 128 or (1 << n) != size:
        raise CompileError("grid side must be a power of two, at least 128")
    machine, _ = build_checker(n)
    state_bits = 8 if machine.states <= 256 else 9
    program = encode_program(machine, state_bits=state_bits)
    capacity = size * (3 * size // 4 - 32)
    if len(program) > capacity:
        raise CompileError(
            f"checker needs {len(program)} program bits, the block holds {capacity}"
        )
    padded = tuple(program) + (0,) * (capacity - len(program))

    colors: dict = {}  # (axis, record) -> color id, in id order

    def cid(axis: int, rec: int) -> int:
        return colors.setdefault((axis, rec), len(colors))

    tiles: list[Tile] = []
    accepted: dict = {}
    for _, _, (recl, recr, rect, recb) in _tile_records(n, size, padded):
        accepted[recl, recr, rect, recb] = len(tiles)
        tiles.append(Tile(cid(0, recl), cid(0, recr), cid(1, rect), cid(1, recb)))
    assert len(tiles) == (size + 2) ** 2, "free border bits miscounted"
    return FixedPointSet(
        n=n,
        size=size,
        tile_set=TileSet(len(colors), tiles),
        machine=machine,
        state_bits=state_bits,
        program=tuple(program),
        padded=padded,
        capacity=capacity,
        accepted=accepted,
        color_records=tuple(colors),
    )


# --- running the checker ----------------------------------------------------

CHECKER_STEPS = 4_000_000  # budget of every direct checker run
UNIVERSAL_STEPS = 200_000_000  # budget of one checker run under the universal machine


def run_checker(fp: FixedPointSet, quad, *, track=None) -> RunResult:
    """One checker run over the encoded quad (records, not color ids)."""
    tape = checker_tape(fp.n, *quad)
    return run_machine(fp.machine, tape,
                       track=fp.track() if track is None else track,
                       max_steps=CHECKER_STEPS, grow=True)


def walks(fp: FixedPointSet, x: int, y: int) -> bool:
    """Whether the checker run for the cell (x, y) drags out to the track."""
    return y in fp.band or (y + 1) % fp.size in fp.band


# --- macro-tiles ------------------------------------------------------------

def assemble_self_patch(fp: FixedPointSet, quad) -> PatchGrid:
    """The canonical size x size patch representing the tile with these
    edge records: border slices carry the records, everything else is
    pinned (block bits from the program, other vals zero).

    Each cell takes its pinned vals from ``_val_choices`` and its free ones
    from the border slice (0 off the slice); the tile is looked up by the
    records it encodes."""
    n, size, padded, accepted = fp.n, fp.size, fp.padded, fp.accepted
    if quad not in accepted:
        raise ValueError("edge records do not belong to the tile set")
    lo = size - RECORD_BITS
    wl, wr, wt, wb = ((0,) * lo + window_bits(n, r) for r in quad)
    grid = []
    for y in range(size):
        row = []
        for x in range(size):
            vals = [ch[0] if len(ch) == 1 else bit for ch, bit in
                    zip(_val_choices(size, padded, x, y), (wl[y], wr[y], wt[x], wb[x]))]
            row.append(accepted[_records(n, size, x, y, *vals)])
        grid.append(row)
    return PatchGrid(size, size, grid)


def decode_self_patch(fp: FixedPointSet, patch: PatchGrid) -> tuple:
    """Read the four border record slices back off an assembled patch."""
    n, size = fp.n, fp.size
    lo = size - RECORD_BITS
    ts = fp.tile_set

    def vbit(color: int) -> int:
        return unpack_record(n, fp.color_records[color][1])[2]

    left = [vbit(ts.tiles[patch.get(0, y)].left) for y in range(lo, size)]
    right = [vbit(ts.tiles[patch.get(size - 1, y)].right) for y in range(lo, size)]
    top = [vbit(ts.tiles[patch.get(x, size - 1)].top) for x in range(lo, size)]
    bottom = [vbit(ts.tiles[patch.get(x, 0)].bottom) for x in range(lo, size)]
    return (
        record_from_window(n, tuple(left)),
        record_from_window(n, tuple(right)),
        record_from_window(n, tuple(top)),
        record_from_window(n, tuple(bottom)),
    )


# --- the certificate --------------------------------------------------------

PARTS = ("resident", "walks", "probes", "universal", "patches")


def _check(status: str, want: bool) -> bool | None:
    """Whether a run gave the wanted answer: ``accepted`` accepts and ``stuck``
    rejects (see build_checker), a budget hit (``timeout``) is None, any
    other end (a wall) fails."""
    if status == "timeout":
        return None
    return status == ("accepted" if want else "stuck")


def _verdict(failures: int, budget_hits: int) -> str:
    """No failed check is "ok"; failures that are all budget hits leave the
    audit "inconclusive"; anything else is "refuted"."""
    if not failures:
        return "ok"
    return "inconclusive" if failures == budget_hits else "refuted"


@dataclass
class SelfCertificate:
    """What was checked and how it came out: ``parts`` maps each part of the
    audit to [passed, checked], and a check that failed on a budget hit also
    counts in ``inconclusive``.
    """

    parts: dict = field(default_factory=lambda: {part: [0, 0] for part in PARTS})
    inconclusive: int = 0
    notes: list = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return _verdict(sum(c - p for p, c in self.parts.values()), self.inconclusive)

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"

    def count(self, part: str, passed: bool | None) -> None:
        """Tally one check of ``part``, judged as ``_check`` judges a run."""
        tally = self.parts[part]
        tally[0] += bool(passed)
        tally[1] += 1
        self.inconclusive += passed is None

    def note(self, text: str) -> None:
        if len(self.notes) < 10:
            self.notes.append(text)


def _reject_probes(fp: FixedPointSet, rng: random.Random):
    """Corrupted record quads, drawn one at a time for as long as asked."""
    n, size = fp.n, fp.size
    while True:
        x, y = rng.randrange(size), rng.randrange(size)
        ls, rs, ts, bs = _val_choices(size, fp.padded, x, y)
        quad = list(fp.edge_records(x, y, ls[0], rs[0], ts[-1], bs[-1]))
        mode = rng.randrange(5)
        if mode == 0:  # wrong successor column
            quad[1] = pack_record(n, (x + 2) % size, y, 0)
        elif mode == 1:  # top record loses the shared column
            i, j, v = unpack_record(n, quad[2])
            quad[2] = pack_record(n, (i + 1) % size, j, v)
        elif mode == 2:  # flip a pinned val bit off the block
            side = rng.choice([s for s, ch in ((0, ls), (1, rs), (3, bs))
                               if ch == (0,)] or [0])
            i, j, _ = unpack_record(n, quad[side])
            quad[side] = pack_record(n, i, j, 1)
        elif mode == 3:  # rows disagree
            i, j, v = unpack_record(n, quad[0])
            quad[0] = pack_record(n, i, (j + 1) % size, v)
        else:  # sibling: flip a free val, stays a tile
            side, ch = rng.choice([(0, ls), (1, rs), (2, ts), (3, bs)])
            i, j, v = unpack_record(n, quad[side])
            quad[side] = pack_record(n, i, j, 1 - v if len(ch) == 2 else v)
        yield tuple(quad)


def certificate(fp: FixedPointSet, *, walk_samples: int = 80,
                reject_samples: int = 200, block_probes: int = 6,
                utm_accepts: int = 2, utm_rejects: int = 4,
                resident_samples: int | None = None,
                seed: int = 20260816) -> SelfCertificate:
    """Audit the fixed point.

    (a) every non-walking tile is run through the checker (or a sample
    of resident_samples of them), walking tiles are sampled (their runs
    drag the counter across the track), and corrupted quads are checked
    against set membership; (b) sampled member and non-member quads are
    re-run under the universal machine on the checker's own encoding,
    each only after its direct run gave the answer membership wants;
    (c) sample tiles are assembled into macro-tiles, patch-verified, and
    decoded back.  Runs are judged by ``_check``, so a budget hit leaves
    its check inconclusive.  Raises ValueError for resident_samples below 1.
    """
    if resident_samples is not None and resident_samples < 1:
        raise ValueError("resident_samples must be at least 1")
    rng = random.Random(seed)
    cert = SelfCertificate()
    track = fp.track()

    walkers, nonwalk = [], []
    for x, y, quad in _tile_records(fp.n, fp.size, fp.padded):
        (walkers if walks(fp, x, y) else nonwalk).append(quad)
    residents = nonwalk
    if resident_samples is not None:
        residents = rng.sample(nonwalk, min(resident_samples, len(nonwalk)))
    jobs = [("resident", q) for q in residents]
    jobs += [("walks", q) for q in rng.sample(walkers, min(walk_samples, len(walkers)))]
    jobs += [("probes", q) for q in itertools.islice(_reject_probes(fp, rng), reject_samples)]
    block_rows = list(fp.band)
    for _ in range(block_probes):  # pinned block bit flipped: walk then stick
        x, y = rng.randrange(fp.size), rng.choice(block_rows)
        quad = list(fp.edge_records(x, y, 0, 0, 0, 0))
        (pinned,) = _val_choices(fp.size, fp.padded, x, y)[3]
        quad[3] = pack_record(fp.n, x, y, 1 - pinned)
        jobs.append(("probes", tuple(quad)))
    jobs += [("universal", q) for q in rng.sample(nonwalk, utm_accepts)]
    rejects = (q for q in _reject_probes(fp, rng) if q not in fp.accepted)
    jobs += [("universal", q) for q in itertools.islice(rejects, utm_rejects)]

    utm = universal_machine(fp.state_bits)
    for part, quad in jobs:
        want = quad in fp.accepted
        direct = run_checker(fp, quad, track=track).status
        passed, sim = _check(direct, want), None
        if passed and part == "universal":
            sim = run_encoded(utm, list(fp.program), checker_tape(fp.n, *quad),
                              max_steps=UNIVERSAL_STEPS, state_bits=fp.state_bits).status
            passed = _check(sim, want)
        cert.count(part, passed)
        if passed is None:
            cert.note(f"{'universal' if sim else 'checker'} budget hit at {quad}: inconclusive")
        elif not passed:
            cert.note(f"universal run disagrees at {quad}: {direct} vs {sim}" if sim
                      else f"{part} check failed at {quad}: {direct}, member={want}")

    corners = [(0, 0), (fp.size - 1, fp.size - 1), (0, fp.size - 32)]
    inner = [(77, 30), (fp.size // 2, fp.size // 2), (5, 0)]
    for x, y in corners + inner:
        ls, rs, ts, bs = _val_choices(fp.size, fp.padded, x, y)
        quad = fp.edge_records(x, y, ls[-1], rs[-1], ts[-1], bs[-1])
        patch = assemble_self_patch(fp, quad)
        passed = not verify_patch(fp.tile_set, patch) and decode_self_patch(fp, patch) == quad
        cert.count("patches", passed)
        if not passed:
            cert.note(f"macro-tile round trip failed at {(x, y)}")
    return cert


@dataclass
class MutationTrials:
    tried: int
    caught: int
    controls_ok: bool
    inconclusive: int  # budget hits: neither caught nor missed

    @property
    def verdict(self) -> str:
        """``_verdict`` over the misses plus a failed control."""
        return _verdict(self.tried - self.caught + (not self.controls_ok), self.inconclusive)

    @property
    def all_caught(self) -> bool:
        return self.verdict == "ok"


def mutation_trials(fp: FixedPointSet, count: int = 50,
                    seed: int = 20260816) -> MutationTrials:
    """Flip single program bits on the track and confirm the checker now
    rejects the tile that carries the original bit at that block offset.

    The first three trials also run a control tile under the mutated
    track, which the checker must still accept.  Runs are judged by
    ``_check``: a mutant that does not end stuck is a miss unless it hit
    its budget, and a budget hit on the mutant, or on the control of a
    caught mutant, makes the trial inconclusive, counted apart from both."""
    rng = random.Random(seed)
    bits = rng.sample(range(len(fp.program)), count)
    caught = inconclusive = 0
    controls_ok = True
    control = fp.edge_records(3, 7, 0, 0, 0, 0)
    for k, mbit in enumerate(bits):
        mutated = fp.track()
        pos = fp.track_offset + mbit
        mutated[pos] = 1 - mutated[pos]
        x, y = mbit % fp.size, fp.size // 4 + mbit // fp.size
        quad = fp.edge_records(
            x, y, *(ch[0] for ch in _val_choices(fp.size, fp.padded, x, y)))
        rejected = _check(run_checker(fp, quad, track=mutated).status, False)
        if k < 3:
            vouched = _check(run_checker(fp, control, track=mutated).status, True)
            controls_ok &= vouched is not False
            if vouched is None and rejected:
                rejected = None  # a catch its control cannot vouch for
        caught += bool(rejected)
        inconclusive += rejected is None
    return MutationTrials(tried=count, caught=caught, controls_ok=controls_ok,
                          inconclusive=inconclusive)
