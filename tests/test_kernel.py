"""Constant-state streaming cells: the window gate, latches and clock inside
the fused operator cells, and their state footprint."""

import itertools
import random

import pytest

from stlobs.monitor import AlwaysCell, EventuallyCell, UntilCell

CELLS = (EventuallyCell, AlwaysCell, UntilCell)


def run(cell, values):
    """Step a unary cell through `values`, returning its (pos, neg) outputs."""
    return [cell.step(value) for value in values]


def gate_opens_at(cell_type, lower, upper, k, length):
    """Whether a single decisive operand value at tick `k` reaches the
    cell's latch: true for F (and for U's right operand, with the left
    operand always true), false for G."""
    cell = cell_type(lower, upper)
    for tick in range(length):
        hit = tick == k
        if cell_type is UntilCell:
            pos, neg = cell.step(True, hit)
        elif cell_type is EventuallyCell:
            pos, neg = cell.step(hit)
        else:
            pos, neg = cell.step(not hit)
    return pos if cell_type is not AlwaysCell else neg


def test_interval_gate_window():
    assert [gate_opens_at(EventuallyCell, 1, 2, k, 5) for k in range(5)] == [
        False, True, True, False, False,
    ]


def test_interval_gate_from_zero():
    assert [gate_opens_at(EventuallyCell, 0, 1, k, 4) for k in range(4)] == [
        True, True, False, False,
    ]


def test_interval_gate_matches_membership():
    for cell_type in CELLS:
        for lower in range(0, 4):
            for upper in range(lower + 1, 5):
                for k in range(upper + 3):
                    got = gate_opens_at(cell_type, lower, upper, k, upper + 3)
                    assert got == (lower <= k <= upper), (cell_type, lower, upper, k)


@pytest.mark.parametrize("lower,upper", [(2, 2), (3, 1), (-1, 2), (0, 0)])
def test_interval_gate_rejects_bad_bounds(lower, upper):
    for cell_type in CELLS:
        with pytest.raises(ValueError):
            cell_type(lower, upper)


def test_interval_gate_closed_forever_after_window():
    outputs = run(AlwaysCell(0, 2), [True, True, True] + [False] * 7)
    assert outputs[2:] == [(True, False)] * 8
    outputs = run(EventuallyCell(0, 2), [False, False, False] + [True] * 7)
    assert outputs[2:] == [(False, True)] * 8


def test_latching_exists_matches_fold():
    rng = random.Random(7)
    for _ in range(200):
        lower = rng.randrange(0, 5)
        upper = rng.randrange(lower + 1, 8)
        cell = EventuallyCell(lower, upper)
        seen = False
        for k in range(12):
            prop = rng.random() < 0.3
            seen = seen or (lower <= k <= upper and prop)
            assert cell.step(prop) == (seen, k >= upper and not seen)


def test_latching_forall_matches_fold():
    rng = random.Random(8)
    for _ in range(200):
        lower = rng.randrange(0, 5)
        upper = rng.randrange(lower + 1, 8)
        cell = AlwaysCell(lower, upper)
        ok = True
        for k in range(12):
            prop = rng.random() < 0.8
            ok = ok and (not lower <= k <= upper or prop)
            assert cell.step(prop) == (k >= upper and ok, not ok)


def test_latching_forall_vacuously_true():
    cell = AlwaysCell(2, 3)
    assert run(cell, [False, False]) == [(False, False), (False, False)]
    assert run(cell, [True, True]) == [(False, False), (True, False)]


def test_saturating_clock():
    cell = EventuallyCell(1, 3)
    clocks = []
    for _ in range(7):
        cell.step(False)
        clocks.append(cell.state_scalars()[0])
    assert clocks == [1, 2, 3, 4, 4, 4, 4]


def test_state_scalar_counts_do_not_depend_on_bounds():
    for cell_type in CELLS:
        assert len(cell_type(0, 2).state_scalars()) == len(
            cell_type(17, 1000).state_scalars()
        )


def test_state_scalar_counts_constant_over_time():
    cells = [EventuallyCell(1, 4), AlwaysCell(1, 4), UntilCell(1, 4)]
    sizes = [len(cell.state_scalars()) for cell in cells]
    for _ in range(12):
        cells[0].step(True)
        cells[1].step(True)
        cells[2].step(True, False)
        assert [len(cell.state_scalars()) for cell in cells] == sizes


def test_state_scalars_are_plain_values():
    for cell_type in CELLS:
        cell = cell_type(0, 3)
        cell.step(*(True,) * (2 if cell_type is UntilCell else 1))
        assert all(isinstance(v, (bool, int)) for v in cell.state_scalars())


def test_until_refutes_when_left_operand_fails_inside_the_window():
    # phi1 fails at tick 2, inside [1, 4] and before its upper bound, with no
    # witness yet: no later tick can be a witness, so neg is set at once
    # rather than when the window closes.
    cell = UntilCell(1, 4)
    assert cell.step(True, False) == (False, False)
    assert cell.step(True, False) == (False, False)
    assert cell.step(False, True) == (False, True)
    assert cell.step(True, True) == (False, True)


def unlatched_flag(cell_type, lower, upper):
    """The first boolean operand trace of length upper + 2 on which a flag of
    a `cell_type(lower, upper)` is set and then drops back to false, or None.
    Every trace of that length is tried."""
    arity = 2 if issubclass(cell_type, UntilCell) else 1
    operands = list(itertools.product((False, True), repeat=arity))
    for trace in itertools.product(operands, repeat=upper + 2):
        cell = cell_type(lower, upper)
        pos = neg = False
        for values in trace:
            p, n = cell.step(*values)
            if pos and not p or neg and not n:
                return trace
            pos, neg = p, n
    return None


WINDOWS = [(a, b) for b in range(1, 5) for a in range(b)]


@pytest.mark.parametrize("cell_type", CELLS)
def test_flags_latch_on_every_trace(cell_type):
    # The generated network steps a cell only while neither flag is set, so
    # a set flag must stay set on every operand trace.
    for lower, upper in WINDOWS:
        assert unlatched_flag(cell_type, lower, upper) is None, (lower, upper)


class UnlatchedUntil(UntilCell):
    """U whose neg reads phi1 at the current tick instead of the latched
    prefix: it falls back to false when phi1 holds again."""

    __slots__ = ()

    def step(self, phi1, phi2):
        clk = self._clk
        pos, _ = super().step(phi1, phi2)
        return pos, not pos and (clk >= self.upper or not phi1)


def test_flag_latch_check_catches_an_until_whose_neg_drops():
    found = {window: unlatched_flag(UnlatchedUntil, *window) for window in WINDOWS}
    # Every window but [0,1], which has closed by the tick phi1 holds again.
    assert [window for window, trace in found.items() if trace is None] == [(0, 1)]
    # phi1 fails at tick 0, setting neg, and holds at tick 1, dropping it.
    assert found[(0, 2)][:2] == ((False, False), (True, False))
