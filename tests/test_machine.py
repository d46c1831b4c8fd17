import pytest

from tilebench.machine import (
    Machine,
    Transition,
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
)


def test_machine_validation():
    with pytest.raises(ValueError):
        Machine(2, 4, 0, 5, 0, False, ())
    with pytest.raises(ValueError):
        Machine(2, 4, 0, 1, 0, False, (Transition(0, 9, None, 1, 0, "S"),))
    with pytest.raises(ValueError):
        Machine(2, 4, 0, 1, 0, False, (Transition(0, 0, 1, 1, 0, "S"),))  # track w/o track


def test_machine_json_roundtrip():
    m = parity_machine()
    assert Machine.loads(m.dumps()) == m


def test_parity_runs():
    m = parity_machine()
    assert run_machine(m, [0] * 4).status == "accepted"
    assert run_machine(m, [2, 0, 0]).status == "stuck"
    assert run_machine(m, [2, 2, 0]).status == "accepted"
    assert run_machine(m, [1, 1, 0]).status == "accepted"
    assert run_machine(m, [2, 1, 2, 0]).status == "accepted"


def test_palindrome_runs():
    m = palindrome_machine()
    good = [[], [1], [2], [1, 2, 1], [1, 2, 2, 1], [2, 1, 1, 2]]
    bad = [[1, 2], [1, 2, 2, 2], [2, 1, 2, 2]]
    for x in good:
        assert run_machine(m, list(x) + [0] * 2).status == "accepted", x
    for x in bad:
        assert run_machine(m, list(x) + [0] * 2).status == "stuck", x


def test_run_statuses():
    spinner = Machine(3, 4, 0, 1, 0, False, (Transition(0, 0, None, 0, 0, "S"),))
    assert run_machine(spinner, [0], max_steps=50).status == "timeout"
    runner = Machine(3, 4, 0, 1, 0, False, (Transition(0, 0, None, 0, 0, "R"),))
    assert run_machine(runner, [0, 0, 0], max_steps=50).status == "hit_wall"
    assert run_machine(runner, [0, 0], max_steps=50, grow=True).status == "timeout"
    lefty = Machine(3, 4, 0, 1, 0, False, (Transition(0, 0, None, 0, 0, "L"),))
    assert run_machine(lefty, [0, 0], max_steps=50).status == "hit_wall"


def test_track_conditions():
    m = Machine(
        2,
        4,
        0,
        1,
        0,
        True,
        (Transition(0, 0, 1, 1, 0, "S"), Transition(0, 1, 1, 1, 1, "S")),
    )
    assert run_machine(m, [0], track=[1]).status == "accepted"
    assert run_machine(m, [0], track=[0]).status == "stuck"
    # track defaults to 0 past its end
    assert run_machine(m, [0]).status == "stuck"


def test_first_match_wins():
    m = Machine(
        3,
        4,
        0,
        1,
        0,
        False,
        (Transition(0, 0, None, 1, 0, "S"), Transition(0, 0, None, 2, 0, "S")),
    )
    assert run_machine(m, [0]).state == 1


def test_encode_program_frozen():
    p = encode_program(parity_machine())
    assert len(p) == 5 * record_bits(8) + 1 == 126
    # first record: valid, q=0, read=01, cond=any, q'=0, write=01, move=R(10)
    assert p[:25] == [1] + [0] * 8 + [0, 1] + [0, 0] + [0] * 8 + [0, 1] + [1, 0]
    assert p[-1] == 0


def test_encode_program_rejects():
    bad = Machine(2, 4, 1, 0, 0, False, ())
    with pytest.raises(ValueError):
        encode_program(bad)  # start/accept not 0/1
    with pytest.raises(ValueError):
        encode_program(parity_machine(), state_bits=1)


def test_utm_tape_layout():
    p = encode_program(always_accept_machine())
    tape = utm_tape(p, [1, 2], pad=2)
    assert tape[0] == 4  # origin
    assert tape.count(5) == 4  # one separator per record
    assert tape.count(3) == 1  # end marker
    with pytest.raises(ValueError):
        utm_tape(p[:-1], [1])


@pytest.mark.parametrize("symbols, track", [([4, 1], None), ([-1], None),
                                            ([1, 2], [0, 2]), ([1], [-1])])
def test_utm_tape_rejects_cells_a_work_cell_cannot_hold(symbols, track):
    # symbol 4 under the head would lose the head flag:
    # work_cell(4, 1, 0) == work_cell(0, 0, 1)
    with pytest.raises(ValueError):
        utm_tape(encode_program(always_accept_machine()), symbols, track)


def test_universal_machine_pinned_size():
    u = universal_machine()
    assert u.states == 42744
    assert len(u.transitions) == 229718


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
            sim = run_encoded(u, p, x)
            assert (direct.status == "accepted") == (sim.status == "accepted"), (name, x)


def test_universal_track_conditions():
    m = Machine(
        2,
        4,
        0,
        1,
        0,
        True,
        (Transition(0, 0, 1, 1, 0, "S"), Transition(0, 1, 1, 1, 1, "S")),
    )
    u = universal_machine()
    p = encode_program(m)
    assert run_encoded(u, p, [0], track=[1]).status == "accepted"
    assert run_encoded(u, p, [0], track=[0]).status == "stuck"


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
    r = run_machine(machine, tape)
    assert r.status == "accepted"
    rules = set()
    for z in diagram_local_rules(machine):
        rules.add((z.below, z.above, z.left, z.right))
    # the configuration after t steps is the end of a run with budget t
    hist = [(machine.start, 0, tuple(tape))]
    for t in range(1, r.steps + 1):
        rt = run_machine(machine, tape, max_steps=t)
        hist.append((rt.state, rt.head, rt.tape))
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


def test_diagram_rules_exclude_stuck_configs():
    # parity machine stuck on (odd, blank): no rule lets that cell continue
    m = parity_machine()
    rules = diagram_local_rules(m)
    assert not any(r.below == (0, 2, 0) for r in rules)
