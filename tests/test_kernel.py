"""Constant-state operators: the window test, latches and flags of each
temporal operator's body in the generated network, and its state footprint."""

import itertools
import random

import pytest

from stlobs import monitor
from stlobs.conformance import operator_formula
from stlobs.errors import FlagConflictError, InvalidFormulaError
from stlobs.formula import Always, And, Interval, Or, signal_atom
from stlobs.monitor import compile_formula
from stlobs.trilean import Trilean

KINDS = ("eventually", "always", "until")


def runs(kind, lower, upper, open_root=False):
    """A function that starts a fresh run of the network of
    `operator_formula(kind, lower, upper)` on boolean operands. A run is a
    step function: each call takes one tick's operand values (p, and q for
    U) and returns the operator's flags (pos, neg), read from
    `Monitor.state_scalars()`.

    With `open_root` the operator is the left leaf of `(op & G) | G` for a G
    that holds open past the ticks a test steps, so the root never decides
    and only the operator's own guard keeps its flags from changing."""
    f = operator_formula(kind, lower, upper)
    if open_root:
        keep = Always(Interval(0, upper + 3), signal_atom("r", ">"))
        f = Or(And(f, keep), keep)
    at_zero = compile_formula(f)  # rejects a bad window

    def start():
        m = at_zero.fork()

        def step(*values):
            m.step({"p": float(values[0]), "q": float(values[-1]), "r": 1.0})
            return m.state_scalars()[2:4]

        return step

    return start


def stepper(kind, lower, upper):
    """One run of `runs(kind, lower, upper)`."""
    return runs(kind, lower, upper)()


def run(step, values):
    """Feed a unary operator `values`, returning its (pos, neg) outputs."""
    return [step(value) for value in values]


def gate_opens_at(kind, lower, upper, k, length):
    """Whether a single decisive operand value at tick `k` reaches the
    operator's flag: true for F (and for U's right operand, with the left
    operand always true), false for G."""
    step = stepper(kind, lower, upper)
    for tick in range(length):
        hit = tick == k
        if kind == "until":
            pos, neg = step(True, hit)
        elif kind == "eventually":
            pos, neg = step(hit)
        else:
            pos, neg = step(not hit)
    return pos if kind != "always" else neg


def test_interval_gate_window():
    assert [gate_opens_at("eventually", 1, 2, k, 5) for k in range(5)] == [
        False, True, True, False, False,
    ]


def test_interval_gate_from_zero():
    assert [gate_opens_at("eventually", 0, 1, k, 4) for k in range(4)] == [
        True, True, False, False,
    ]


def test_interval_gate_matches_membership():
    for kind in KINDS:
        for lower in range(0, 4):
            for upper in range(lower + 1, 5):
                for k in range(upper + 3):
                    got = gate_opens_at(kind, lower, upper, k, upper + 3)
                    assert got == (lower <= k <= upper), (kind, lower, upper, k)


@pytest.mark.parametrize("lower,upper", [(2, 2), (3, 1), (-1, 2), (0, 0)])
def test_interval_gate_rejects_bad_bounds(lower, upper):
    for kind in KINDS:
        with pytest.raises(InvalidFormulaError):
            runs(kind, lower, upper)


def test_interval_gate_closed_forever_after_window():
    outputs = run(stepper("always", 0, 2), [True, True, True] + [False] * 7)
    assert outputs[2:] == [(True, False)] * 8
    outputs = run(stepper("eventually", 0, 2), [False, False, False] + [True] * 7)
    assert outputs[2:] == [(False, True)] * 8


def test_latching_exists_matches_fold():
    rng = random.Random(7)
    for _ in range(200):
        lower = rng.randrange(0, 5)
        upper = rng.randrange(lower + 1, 8)
        step = stepper("eventually", lower, upper)
        seen = False
        for k in range(12):
            prop = rng.random() < 0.3
            seen = seen or (lower <= k <= upper and prop)
            assert step(prop) == (seen, k >= upper and not seen)


def test_latching_forall_matches_fold():
    rng = random.Random(8)
    for _ in range(200):
        lower = rng.randrange(0, 5)
        upper = rng.randrange(lower + 1, 8)
        step = stepper("always", lower, upper)
        ok = True
        for k in range(12):
            prop = rng.random() < 0.8
            ok = ok and (not lower <= k <= upper or prop)
            assert step(prop) == (k >= upper and ok, not ok)


def test_latching_forall_vacuously_true():
    step = stepper("always", 2, 3)
    assert run(step, [False, False]) == [(False, False), (False, False)]
    assert run(step, [True, True]) == [(False, False), (True, False)]


def test_the_tick_is_the_only_clock():
    # Every operator reads the monitor's tick; besides it the state is the
    # root latch and the flags, so nothing counts ticks inside a window.
    m = compile_formula(operator_formula("eventually", 1, 3))
    states = []
    for _ in range(7):
        m.step({"p": 0.0})
        states.append(m.state_scalars())
    assert [state[0] for state in states] == [1, 2, 3, 4, 5, 6, 7]
    assert all(isinstance(v, (bool, type(None), Trilean)) for state in states for v in state[1:])


def test_state_scalar_counts_do_not_depend_on_bounds():
    for kind in KINDS:
        narrow = compile_formula(operator_formula(kind, 0, 2))
        wide = compile_formula(operator_formula(kind, 17, 1000))
        assert len(narrow.state_scalars()) == len(wide.state_scalars()) == 4


def test_state_scalar_counts_constant_over_time():
    monitors = [compile_formula(operator_formula(kind, 1, 4)) for kind in KINDS]
    sizes = [len(m.state_scalars()) for m in monitors]
    for _ in range(12):
        for m in monitors:
            m.step({"p": 1.0, "q": 0.0})
        assert [len(m.state_scalars()) for m in monitors] == sizes


def test_state_scalars_are_plain_values():
    for kind in KINDS:
        m = compile_formula(operator_formula(kind, 0, 3))
        m.step({"p": 1.0, "q": 1.0})
        assert all(isinstance(v, (bool, int, type(None), Trilean)) for v in m.state_scalars())


def test_until_refutes_when_left_operand_fails_inside_the_window():
    # phi1 fails at tick 2, inside [1, 4] and before its upper bound, with no
    # witness yet: no later tick can be a witness, so neg is set at once
    # rather than when the window closes.
    step = stepper("until", 1, 4)
    assert step(True, False) == (False, False)
    assert step(True, False) == (False, False)
    assert step(False, True) == (False, True)
    assert step(True, True) == (False, True)


def unlatched_flag(kind, lower, upper):
    """The first boolean operand trace of length upper + 2 on which a flag of
    the operator over [lower, upper], under a root that stays open, is set
    and then changes: drops back to false, or meets the other flag (which
    the network raises as a conflict). None if there is none. Every trace of
    that length is tried."""
    arity = 2 if kind == "until" else 1
    operands = list(itertools.product((False, True), repeat=arity))
    start = runs(kind, lower, upper, open_root=True)
    for trace in itertools.product(operands, repeat=upper + 2):
        step = start()
        pos = neg = False
        for values in trace:
            try:
                p, n = step(*values)
            except FlagConflictError:
                return trace
            if pos and not p or neg and not n:
                return trace
            pos, neg = p, n
    return None


WINDOWS = [(a, b) for b in range(1, 5) for a in range(b)]


@pytest.mark.parametrize("kind", KINDS)
def test_flags_latch_on_every_trace(kind):
    # The generated network steps an operator only while neither flag is
    # set, so a set flag must stay set on every operand trace, even while
    # the root is open.
    for lower, upper in WINDOWS:
        assert unlatched_flag(kind, lower, upper) is None, (lower, upper)


def test_flag_latch_check_catches_a_network_without_the_guard(unguarded_networks):
    assert "if True:" in monitor._NetworkSource(operator_formula("until", 0, 2)).text
    for kind in KINDS:
        found = {window: unlatched_flag(kind, *window) for window in WINDOWS}
        assert all(trace is not None for trace in found.values()), (kind, found)
    # F over [0,2] is false once its window closes without a witness at tick
    # 2; unguarded, its body takes the operand at tick 3 as a witness too.
    assert unlatched_flag("eventually", 0, 2) == ((False,), (False,), (False,), (True,))
