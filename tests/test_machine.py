import hashlib
import itertools
import json
from array import array

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from tilebench.compiler.fixedpoint import build_checker
from tilebench.compiler.simulate import chessboard_predicate_machine
from tilebench.machine import (
    COND_ANY,
    COND_NEVER,
    COND_TRACK0,
    COND_TRACK1,
    LEFT,
    RIGHT,
    STAY,
    U_BIT0,
    U_BIT1,
    U_BLANK,
    U_END,
    U_ORIGIN,
    U_SEP,
    U_SYMBOLS,
    Assembler,
    Machine,
    Rules,
    ZoneCellRule,
    always_accept_machine,
    diagram_local_rules,
    encode_program,
    machine_corpus,
    palindrome_machine,
    parity_machine,
    record_bits,
    run_encoded,
    run_machine,
    universal_machine,
    utm_tape,
    work_cell,
)


ANY, T0, T1 = COND_ANY, COND_TRACK0, COND_TRACK1


def test_machine_validation():
    with pytest.raises(ValueError):
        Machine(2, 4, 0, 5, 0, False, Rules.of(()))
    with pytest.raises(ValueError):
        Machine(2, 4, 0, 1, 0, False, Rules.of([(0, 9, ANY, 1, 0, STAY)]))
    with pytest.raises(ValueError):
        Machine(2, 4, 0, 1, 0, False, Rules.of([(0, 0, T1, 1, 0, STAY)]))  # track w/o track
    with pytest.raises(TypeError):
        Machine(2, 4, 0, 1, 0, False, ())  # rules come packed


def test_machine_json_roundtrip():
    m = parity_machine()
    assert Machine.from_json(json.loads(json.dumps(m.to_json()))) == m


# every move and every track condition, in an order that is not sorted
TRACK_RULES = (
    (2, 1, T0, 0, 3, RIGHT),
    (0, 3, ANY, 2, 0, LEFT),
    (1, 0, T1, 1, 2, STAY),
    (0, 2, T1, 1, 1, RIGHT),
)


def test_packed_rules_are_the_transitions_they_pack():
    columns = [[t[k] for t in TRACK_RULES] for k in range(6)]
    packed = Rules(array("i", columns[0]), bytes(columns[1]), bytes(columns[2]),
                   array("i", columns[3]), bytes(columns[4]), bytes(columns[5]))
    a = Machine(3, 4, 0, 1, 0, True, Rules.of(TRACK_RULES))
    b = Machine(3, 4, 0, 1, 0, True, packed)
    assert a == b and hash(a) == hash(b)
    assert len(b.transitions) == 4
    assert list(zip(*b.transitions.columns())) == list(TRACK_RULES)
    # the JSON form: track conditions None, 0 or 1, moves as letters
    assert b.to_json()["transitions"] == [[2, 1, 0, 0, 3, "R"], [0, 3, None, 2, 0, "L"],
                                          [1, 0, 1, 1, 2, "S"], [0, 2, 1, 1, 1, "R"]]
    assert Machine.from_json(json.loads(json.dumps(b.to_json()))) == a
    # one rule changed is another machine
    c = Machine(3, 4, 0, 1, 0, True, Rules.of(TRACK_RULES[:3] + ((0, 2, T0, 1, 1, RIGHT),)))
    assert c != a and c.transitions != a.transitions


def test_rules_where_keeps_the_masked_rules_in_order():
    rules = Rules.of(TRACK_RULES)
    kept = rules.where(np.array([True, False, True, True]))
    assert kept == Rules.of(TRACK_RULES[:1] + TRACK_RULES[2:])
    assert rules.where(np.ones(4, dtype=bool)) == rules
    assert len(rules.where(np.zeros(4, dtype=bool))) == 0


@pytest.mark.parametrize("column, value", [(0, array("i", [3])), (3, array("i", [-1])),
                                           (1, b"\x04"), (4, b"\x09"), (5, b"\x03"),
                                           (2, b"\x01"), (2, b""), (0, array("i", [0, 0])),
                                           (2, b"\x04")])
def test_bad_rule_columns_are_rejected(column, value):
    # packed columns are checked as rows are: a move code past MOVES, a
    # track condition that is "never" or past the codes, columns of
    # unequal length
    columns = [array("i", [0]), b"\x00", b"\x00", array("i", [1]), b"\x00", b"\x00"]
    assert Machine(3, 4, 0, 1, 0, False, Rules(*columns)).transitions == Rules.of(
        [(0, 0, ANY, 1, 0, STAY)])
    columns[column] = value
    with pytest.raises(ValueError):
        Machine(3, 4, 0, 1, 0, True, Rules(*columns))


@pytest.mark.parametrize("bad", [
    (3, 0, ANY, 1, 0, STAY), (0, 0, ANY, -1, 0, STAY),
    (2 ** 40, 0, ANY, 1, 0, STAY), (0, 4, ANY, 1, 0, STAY),
    (0, 0, ANY, 1, 300, STAY), (0, 0, ANY, 1, -1, STAY),
    (0, 0, ANY, 1, 0, 3), (0, 0, ANY, 1, 0, -1),
    (0, 0, ANY, 1, 0, None), (0, 0, COND_NEVER, 1, 0, STAY),
    (0, 0, "1", 1, 0, STAY), (0, 0, -1, 1, 0, STAY),
    (0.0, 0, ANY, 1, 0, STAY),
])
def test_bad_transitions_are_rejected(bad):
    # given as rows, not through JSON
    with pytest.raises(ValueError):
        Machine(3, 4, 0, 1, 0, True, Rules.of(TRACK_RULES + (bad,)))


@pytest.mark.parametrize("key, value", [
    ("symbols", 4.0), ("states", 2.0), ("accept", True), ("start", False),
    ("program_track", 1), ("program_track", None),
])
def test_machine_json_needs_ints(key, value):
    obj = {**parity_machine().to_json(), key: value}
    with pytest.raises(ValueError):
        Machine.from_json(obj)


@pytest.mark.parametrize("field, value", [(0, 0.0), (1, 1.0), (2, True), (2, 1.0),
                                          (3, True), (4, 2.0)])
def test_machine_json_needs_int_rules(field, value):
    obj = parity_machine().to_json()
    if field == 2:  # a track condition needs a track
        obj["program_track"] = True
    rule = obj["transitions"][0]
    rule[field] = value
    with pytest.raises(ValueError):
        Machine.from_json(obj)


@pytest.mark.parametrize("field, value", [(5, "X"), (5, "LR"), (5, None), (5, 0),
                                          (2, 2), (2, -1), (2, 300)])
def test_machine_json_needs_a_move_letter_and_a_track_bit(field, value):
    obj = {**parity_machine().to_json(), "program_track": True}
    obj["transitions"][0][field] = value
    with pytest.raises(ValueError):
        Machine.from_json(obj)


@pytest.mark.parametrize("rule", [[0, 1, None, 0, 1], [0, 1, None, 0, 1, "R", 0]])
def test_machine_json_rules_have_six_fields(rule):
    obj = parity_machine().to_json()
    obj["transitions"][0] = rule
    with pytest.raises(ValueError):
        Machine.from_json(obj)


# sha256 of json.dumps(to_json()), measured before the rule columns held
# the program format's codes: the JSON form did not move
JSON_PINS = {
    "always": "4513e18b037d905a71014909b8dfe3b13775e81942e8c6b829ef2e816b05270d",
    "parity": "c2e069c4fdfce87fe1e3ff36e5644d9adb1907c9b43c7d4a6840a4447efcf77c",
    "palindrome": "fdaffdb8283a4ac97eefdc14931ab881e1bb16b25fb16ae8c8ea342e26b0a362",
    "checker8": "f05faae987197e95b40e6eb6b31f2bb97cdd2b97e950a2bf3135d7d80e380f37",
    "checker9": "89a39128ceb1288e48f7031f9171761d1dfd9857c690b482ac5d7fcf2236cff1",
    "chessboard": "7db4d1b4811edc4835c852821098543b0e273b58413c6c1658d46a54018964b9",
    # since each universal state is its template code
    "universal8": "6f261596101acfdbb5d9dcd688b7e47d9794d85342566474b586670496f873bf",
}


def pinned_machine(name):
    if name.startswith("checker"):
        return build_checker(int(name[7:]))[0]
    if name == "chessboard":
        return chessboard_predicate_machine()
    if name == "universal8":
        return universal_machine(8)
    return machine_corpus()[name]


@pytest.mark.parametrize("name", sorted(JSON_PINS))
def test_json_form_is_frozen_and_round_trips(name):
    m = pinned_machine(name)
    text = json.dumps(m.to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == JSON_PINS[name]
    back = Machine.from_json(json.loads(text))
    assert back == m and json.dumps(back.to_json()) == text


def test_parity_runs():
    m = parity_machine()
    assert run_machine(m, [0] * 4, max_steps=1_000_000).status == "accepted"
    assert run_machine(m, [2, 0, 0], max_steps=1_000_000).status == "stuck"
    assert run_machine(m, [2, 2, 0], max_steps=1_000_000).status == "accepted"
    assert run_machine(m, [1, 1, 0], max_steps=1_000_000).status == "accepted"
    assert run_machine(m, [2, 1, 2, 0], max_steps=1_000_000).status == "accepted"


def test_palindrome_runs():
    m = palindrome_machine()
    good = [[], [1], [2], [1, 2, 1], [1, 2, 2, 1], [2, 1, 1, 2]]
    bad = [[1, 2], [1, 2, 2, 2], [2, 1, 2, 2]]
    for x in good:
        assert run_machine(m, list(x) + [0] * 2, max_steps=1_000_000).status == "accepted", x
    for x in bad:
        assert run_machine(m, list(x) + [0] * 2, max_steps=1_000_000).status == "stuck", x


def test_run_statuses():
    spinner = Machine(3, 4, 0, 1, 0, False, Rules.of([(0, 0, ANY, 0, 0, STAY)]))
    assert run_machine(spinner, [0], max_steps=50).status == "timeout"
    runner = Machine(3, 4, 0, 1, 0, False, Rules.of([(0, 0, ANY, 0, 0, RIGHT)]))
    assert run_machine(runner, [0, 0], max_steps=50).status == "timeout"
    lefty = Machine(3, 4, 0, 1, 0, False, Rules.of([(0, 0, ANY, 0, 0, LEFT)]))
    assert run_machine(lefty, [0, 0], max_steps=50).status == "hit_wall"


def test_track_conditions():
    m = Machine(
        2,
        4,
        0,
        1,
        0,
        True,
        Rules.of([(0, 0, T1, 1, 0, STAY), (0, 1, T1, 1, 1, STAY)]),
    )
    assert run_machine(m, [0], track=[1], max_steps=1_000_000).status == "accepted"
    assert run_machine(m, [0], track=[0], max_steps=1_000_000).status == "stuck"
    # track defaults to 0 past its end
    assert run_machine(m, [0], max_steps=1_000_000).status == "stuck"


def test_first_match_wins():
    m = Machine(
        3,
        4,
        0,
        1,
        0,
        False,
        Rules.of([(0, 0, ANY, 1, 0, STAY), (0, 0, ANY, 2, 0, STAY)]),
    )
    assert run_machine(m, [0], max_steps=1_000_000).state == 1


def test_encode_program_frozen():
    p = encode_program(parity_machine())
    assert len(p) == 5 * record_bits(8) + 1 == 126
    # first record: valid, q=0, read=01, cond=any, q'=0, write=01, move=R(10)
    assert p[:25] == [1] + [0] * 8 + [0, 1] + [0, 0] + [0] * 8 + [0, 1] + [1, 0]
    assert p[-1] == 0


def test_encode_program_rejects():
    bad = Machine(2, 4, 1, 0, 0, False, Rules.of(()))
    with pytest.raises(ValueError):
        encode_program(bad)  # start/accept not 0/1
    with pytest.raises(ValueError):
        encode_program(parity_machine(), state_bits=1)


def reference_encode(machine, state_bits=8):
    """The per-rule encoder of the JSON form, which translates each track
    condition (None, 0, 1) and move letter to its record code: the encoder
    from before the rule columns held those codes."""
    cond, move = {None: 0, 0: 2, 1: 3}, {"S": 0, "L": 1, "R": 2}
    bits = []
    for q, s, c, q2, w, mv in machine.to_json()["transitions"]:
        bits.append(1)
        for value, width in ((q, state_bits), (s, 2), (cond[c], 2), (q2, state_bits),
                             (w, 2), (move[mv], 2)):
            bits += [(value >> (width - 1 - i)) & 1 for i in range(width)]
    bits.append(0)
    return bits


@pytest.mark.parametrize("name", ["always", "parity", "palindrome", "chessboard",
                                  "checker8", "checker9"])
def test_encode_program_matches_the_reference(name):
    m = pinned_machine(name)
    for state_bits in (8, 9):
        if m.states > 1 << state_bits:  # a checker's 267 states need 9 bits
            with pytest.raises(ValueError):
                encode_program(m, state_bits)
            continue
        assert encode_program(m, state_bits) == reference_encode(m, state_bits)


@st.composite
def encodable_machines(draw):
    """Machines with start 0 and accept 1, and track conditions."""
    states, symbols = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(
        st.integers(0, states - 1), st.integers(0, symbols - 1),
        st.sampled_from((ANY, T0, T1)), st.integers(0, states - 1),
        st.integers(0, symbols - 1), st.sampled_from((STAY, LEFT, RIGHT))), max_size=12))
    return Machine(states, symbols, 0, 1, 0, True, Rules.of(rows))


@settings(max_examples=100, deadline=None)
@given(encodable_machines(), st.sampled_from((8, 9)))
def test_encode_program_matches_the_reference_on_random_machines(m, state_bits):
    assert encode_program(m, state_bits) == reference_encode(m, state_bits)
    assert Machine.from_json(json.loads(json.dumps(m.to_json()))) == m


def test_utm_tape_layout():
    p = encode_program(always_accept_machine())
    tape = utm_tape(p, [1, 2], [1])
    assert tape[0] == U_ORIGIN
    assert tape.count(U_SEP) == 4  # one separator per record
    end = tape.index(U_END)
    assert tape[end - 1] == U_BIT0  # the terminator record's 0 valid bit
    assert end == 1 + (len(p) - 1) + 4 + 1
    # the input under the head flag, then U_PAD blank work cells
    assert tape[end + 1:] == bytes([work_cell(1, 1, 1), work_cell(2, 0, 0)] + [work_cell(0, 0, 0)] * 8)
    assert len(utm_tape(p, [])) == end + 1 + 1 + 8
    with pytest.raises(ValueError):
        utm_tape(p[:-1], [1])


@pytest.mark.parametrize("symbols, track", [([4, 1], None), ([-1], None),
                                            ([1, 2], [0, 2]), ([1], [-1])])
def test_utm_tape_rejects_cells_a_work_cell_cannot_hold(symbols, track):
    # symbol 4 under the head would lose the head flag:
    # work_cell(4, 1, 0) == work_cell(0, 0, 1)
    with pytest.raises(ValueError):
        utm_tape(encode_program(always_accept_machine()), symbols, track)


def test_utm_tape_rejects_program_bits_other_than_0_1():
    # a 2 would lay out U_END in the middle of a record
    p = encode_program(always_accept_machine())
    for bad in (2, -1, 256):
        with pytest.raises(ValueError, match="program bits"):
            utm_tape([bad] + p[1:], [1])


def reference_universal_machine(state_bits):
    """``universal_machine`` built one rule group at a time by an
    ``Assembler``, which names each state by a key and numbers it by first
    use: the builder the column templates replaced, whose states are the
    same up to that numbering."""
    ns = 1 << state_bits
    asm = Assembler("UACC", ("seek", 0))
    ids = asm.ids

    def ret(q: int, sym: int, trk: int) -> int:
        return ids["UACC" if q == 1 else ("ret", q, sym, trk)]

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
        moves = bytearray([RIGHT]) * len(scan_reads)
        tos[stops], writes[stops], moves[stops] = to, write, move
        asm.extend([state] * len(scan_reads), scan_reads, tos, writes, moves)

    def rewind(kind: str, q: int, s: int, b: int) -> None:
        """Run left to the origin, then start matching records for (q, s, b)."""
        state = ids[kind, q, s, b]
        n = len(rewound)
        asm.extend([state] * (n + 1), rewound + [U_ORIGIN],
                   [state] * n + [ids["rec", q, s, b]], rewound + [U_ORIGIN],
                   [LEFT] * n + [RIGHT])

    def forward(rules) -> None:
        """Append (state, read, new_state) rules that keep what they read
        and move right, each column extended once."""
        froms, reads, tos = zip(*rules)
        asm.extend(froms, reads, tos, reads, [RIGHT] * len(reads))

    def match(key: tuple, value: int, width: int, done: tuple, skip: int) -> None:
        """Compare a field with ``value``, most significant bit first: on a
        match go on into ``done``, on a mismatch to ``skip``."""
        states = [ids[(*key, i)] for i in range(width)]
        states.append(ids[done])
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
                state = ids[(*key, partial, i)]
                for bit in (0, 1):
                    val = (partial << 1) | bit
                    nxt = ids[(*key, val, i + 1)] if i + 1 < width else done(val)
                    rules.append((state, U_BIT0 + bit, nxt))
        forward(rules)

    for q in range(ns):
        scan(ids["seek", q], lambda s, b: (ids["rew", q, s, b], work_cell(s, 1, b), LEFT))

    # rewind to the origin, then scan records
    keys = list(itertools.product(range(ns), range(4), (0, 1)))
    for q, s, b in keys:
        rewind("rew", q, s, b)
        rec, skip = ids["rec", q, s, b], ids["skip", q, s, b]
        # a 0 valid bit means no record matched: the simulation is stuck
        forward(((rec, U_BIT1, ids["cq", q, s, b, 0]),
                 (skip, U_BIT0, skip), (skip, U_BIT1, skip), (skip, U_SEP, rec)))
        match(("cq", q, s, b), q, state_bits, ("cs", q, s, b, 0), skip)
        match(("cs", q, s, b), s, 2, ("cc", q, s, b), skip)
        # condition field: 00 any, 01 never, 1x require track == x
        cc, cc_any, cc_trk = ids["cc", q, s, b], ids["cc0", q, s, b], ids["cc1", q, s, b]
        grab = ids["gq", 0, 0]
        forward(((cc, U_BIT0, cc_any), (cc, U_BIT1, cc_trk),
                 (cc_any, U_BIT0, grab), (cc_any, U_BIT1, skip),
                 (cc_trk, U_BIT0 + b, grab), (cc_trk, U_BIT1 - b, skip)))

    # collect successor state / symbol / move (code 3 stays, as 0 does)
    field(("gq",), state_bits, lambda q2: ids["gs", q2, 0, 0])
    for q2 in range(ns):
        field(("gs", q2), 2, lambda s2: ids["gm", q2, s2, 0, 0])
        for s2 in range(4):
            field(("gm", q2, s2), 2, lambda val: ids["walk", q2, s2, val % 3])

    # walk to the simulated head and apply the move
    for q2 in range(ns):
        for s2 in range(4):
            scan(ids["walk", q2, s2, STAY],
                 lambda s, b: (ret(q2, s2, b), work_cell(s2, 1, b), LEFT))
            for move in (LEFT, RIGHT):
                plant = ids["plant", move, q2]
                scan(ids["walk", q2, s2, move], lambda s, b: (plant, work_cell(s2, 0, b), move))
        # plant the head flag where a move ended: each work cell has a rule
        # for the right-moving plant, then one for the left-moving plant;
        # walking right onto untouched blank reads as a simulated blank;
        # walking left onto the end marker, the simulated head fell off: stuck
        cells = [(s, b) for s in range(4) for b in (0, 1)]
        rets = [ret(q2, s, b) for s, b in cells]
        plants = [ids["plant", RIGHT, q2], ids["plant", LEFT, q2]]
        asm.extend(plants * len(cells) + plants[:1],
                   [work_cell(s, 0, b) for s, b in cells for _ in plants] + [U_BLANK],
                   [q for q in rets for _ in plants] + rets[:1],
                   [work_cell(s, 1, b) for s, b in cells for _ in plants] + [work_cell(0, 1, 0)],
                   [LEFT] * (2 * len(cells) + 1))

    # return to the origin and scan for the next step
    for q, s, b in keys:
        if q != 1:
            rewind("ret", q, s, b)

    return asm.machine(U_SYMBOLS, ("seek", 0), "UACC", U_BLANK)


@pytest.mark.parametrize("state_bits", range(1, 10))
def test_universal_machine_matches_the_reference(state_bits):
    # the same machine up to one renaming of states: the rules in the same
    # order with the same read, track, write and move columns, and the map
    # zipped from the state and new-state columns one bijection of all the
    # states that also takes start to start and accept to accept
    got, want = universal_machine(state_bits), reference_universal_machine(state_bits)
    g, w = got.transitions, want.transitions
    assert (got.states, got.symbols, got.blank, got.program_track) == (
        want.states, want.symbols, want.blank, want.program_track)
    assert (g.read, g.track, g.write, g.move) == (w.read, w.track, w.write, w.move)
    renaming = set(zip(itertools.chain(g.state, g.new_state, (got.start, got.accept)),
                       itertools.chain(w.state, w.new_state, (want.start, want.accept))))
    assert len(renaming) == len(dict(renaming)) == len({b: a for a, b in renaming}) == got.states


@pytest.mark.parametrize("state_bits", range(1, 10))
def test_universal_states_are_the_template_blocks(state_bits):
    # one code per state: the accept and seek states; per key the rewind,
    # record, skip, state-field (one per bit), symbol-field (two) and three
    # condition states; the gq tree, then per successor state its gs tree,
    # gm trees, walks and plants; and the ret rewinds, less q = 1's 8 keys
    ns, nk = 1 << state_bits, 8 << state_bits
    blocks = (1 + ns + nk * (3 + state_bits + 2 + 3)
              + (ns - 1) + ns * (3 + 4 * 3 + 4 * 3 + 2) + (nk - 8))
    u = universal_machine(state_bits)
    assert u.states == blocks
    named = np.union1d(np.frombuffer(u.transitions.state, dtype=np.intc),
                       np.frombuffer(u.transitions.new_state, dtype=np.intc))
    assert np.array_equal(named, np.arange(u.states))


def test_universal_machine_needs_a_state_bit():
    with pytest.raises(ValueError, match="at least 1 state bit"):
        universal_machine(0)


def test_universal_machine_pinned_size():
    u = universal_machine()
    assert u.states == 42744
    assert len(u.transitions) == 229718
    # pinned by content too, so a reordered or rewritten rule shows
    text = json.dumps(u.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "df83c525772917fd83626d26b5b8ceb1ed2eb0080b559ebe8021a2e6b0feca50")


def test_universal_agrees_with_direct():
    u = universal_machine()
    cases = {
        "always": [[], [1], [2, 2, 1]],
        "parity": [[], [2], [2, 2], [1, 2, 1], [2, 1, 2]],
        "palindrome": [[], [1], [1, 2, 1], [1, 2], [1, 2, 2, 1], [2, 1, 2, 2]],
    }
    for name, m in machine_corpus().items():
        p = encode_program(m)
        for x in cases[name]:
            direct = run_machine(m, list(x) + [0] * 4, max_steps=10_000)
            sim = run_encoded(u, p, x, max_steps=2_000_000)
            assert (direct.status == "accepted") == (sim.status == "accepted"), (name, x)


def test_universal_reads_the_whole_track():
    # walk right over blanks and accept on the first track bit that is 1:
    # a track longer than the input still lies under work cells
    m = Machine(2, 4, 0, 1, 0, True,
                Rules.of([(0, 0, T0, 0, 0, RIGHT), (0, 0, T1, 1, 0, STAY)]))
    u, p = universal_machine(), encode_program(m)
    for ones_at in (8, 9, 30):
        track = [0] * ones_at + [1]
        assert run_machine(m, [0], track=track, max_steps=1_000_000).steps == ones_at + 1
        assert run_encoded(u, p, [0], track=track, max_steps=2_000_000).status == "accepted", ones_at
    tape = utm_tape(p, [0], [0] * 9 + [1])
    assert tape[tape.index(U_END) + 10] == work_cell(0, 0, 1)
    assert len(tape) == tape.index(U_END) + 1 + 10 + 8


def test_universal_track_conditions():
    m = Machine(
        2,
        4,
        0,
        1,
        0,
        True,
        Rules.of([(0, 0, T1, 1, 0, STAY), (0, 1, T1, 1, 1, STAY)]),
    )
    u = universal_machine()
    p = encode_program(m)
    assert run_encoded(u, p, [0], track=[1], max_steps=2_000_000).status == "accepted"
    assert run_encoded(u, p, [0], track=[0], max_steps=2_000_000).status == "stuck"


def signals_from_history(hist, t):
    """Infer the head-crossing signals of diagram row t from a run's history."""
    (q1, h1, _), (q2, h2, _) = hist[t], hist[t + 1]
    sig = {}
    if h2 == h1 + 1:
        sig[(h1, h2)] = ("R", q2)
    elif h2 == h1 - 1:
        sig[(h2, h1)] = ("L", q2)
    return sig


def check_history_against_rules(machine, tape):
    r = run_machine(machine, tape, max_steps=1_000_000)
    assert r.status == "accepted"
    rules = set()
    for z in diagram_local_rules(machine):
        rules.add((z.below, z.above, z.left, z.right))
    # the configuration after t steps is the end of a run with budget t
    hist = [(machine.start, 0, tuple(tape))]
    for t in range(1, r.steps + 1):
        rt = run_machine(machine, tape, max_steps=t)
        hist.append((rt.state, rt.head, rt.cells))
    hist.append(hist[-1])  # one frozen row past acceptance
    width = len(tape)
    for t in range(len(hist) - 1):
        (q1, h1, tp1), (q2, h2, tp2) = hist[t], hist[t + 1]
        sig = signals_from_history(hist, t)
        for x in range(width):
            below = (tp1[x], q1 if h1 == x else None, 0)
            above = (tp2[x], q2 if h2 == x else None, 0)
            left = sig.get((x - 1, x))
            right = sig.get((x, x + 1))
            assert (below, above, left, right) in rules, (t, x, below, above)


def test_diagram_rules_cover_real_runs():
    check_history_against_rules(parity_machine(), [2, 1, 2, 0])
    check_history_against_rules(palindrome_machine(), [1, 2, 2, 1, 0, 0])
    check_history_against_rules(always_accept_machine(), [1, 1])


def test_diagram_rules_counts_frozen():
    assert len(diagram_local_rules(parity_machine())) == 37
    assert len(diagram_local_rules(palindrome_machine())) == 83
    # each rule once, by construction: compile_simulation uses the list as is
    for machine in machine_corpus().values():
        rules = diagram_local_rules(machine)
        assert len(set(rules)) == len(rules)


def test_diagram_rules_exclude_stuck_configs():
    # parity machine stuck on (odd, blank): no rule lets that cell continue
    m = parity_machine()
    rules = diagram_local_rules(m)
    assert not any(r.below == (0, 2, 0) for r in rules)
