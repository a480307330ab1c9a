"""Streaming monitor: verdict sequences, structure, and state bounds."""

import random

import pytest

from stlobs import monitor
from stlobs.conformance import random_formula
from stlobs.errors import FlagConflictError, InvalidFormulaError, MissingSignalError
from stlobs.formula import Always, Eventually, Interval, signal_atom
from stlobs.monitor import (
    AlwaysCell,
    EventuallyCell,
    Monitor,
    UntilCell,
    VerdictRecord,
    compile_formula,
)
from stlobs.oracle import three_valued_eval
from stlobs.parser import parse
from stlobs.trace import Trace
from stlobs.trilean import FALSE, TRUE, UNKNOWN, FlagPair, from_flags

SIGNALS = ("x", "y", "p", "q")


def monitor_for(text: str) -> Monitor:
    return compile_formula(parse(text, SIGNALS))


def x_trace(*values: float) -> Trace:
    return Trace(("x",), tuple((v,) for v in values))


def pq_trace(ps, qs) -> Trace:
    return Trace(("p", "q"), tuple((float(a), float(b)) for a, b in zip(ps, qs)))


def verdicts(monitor: Monitor, trace: Trace):
    return [r.verdict for r in monitor.run(trace)]


class TestVerdictSequences:
    def test_always_confirms_at_window_end(self):
        assert verdicts(monitor_for("G[0,2] (x > 0)"), x_trace(1, 1, 1)) == [
            UNKNOWN,
            UNKNOWN,
            TRUE,
        ]

    def test_always_refutes_at_first_violation(self):
        assert verdicts(monitor_for("G[0,2] (x > 0)"), x_trace(1, 0, 1)) == [
            UNKNOWN,
            FALSE,
            FALSE,
        ]

    def test_eventually_confirms_at_witness(self):
        assert verdicts(monitor_for("F[2,4] (x > 0)"), x_trace(0, 0, 0, 1, 0)) == [
            UNKNOWN,
            UNKNOWN,
            UNKNOWN,
            TRUE,
            TRUE,
        ]

    def test_eventually_refutes_only_after_full_window(self):
        assert verdicts(monitor_for("F[1,2] (x > 0)"), x_trace(0, 0, 0, 0)) == [
            UNKNOWN,
            UNKNOWN,
            FALSE,
            FALSE,
        ]

    def test_until_refutes_immediately_on_early_left_failure(self):
        m = monitor_for("(p > 0) U[1,3] (q > 0)")
        assert verdicts(m, pq_trace([0, 1, 1, 1], [0, 1, 0, 0]))[0] is FALSE

    def test_until_confirms_on_witness_with_left_prefix(self):
        m = monitor_for("(p > 0) U[1,3] (q > 0)")
        assert verdicts(m, pq_trace([1, 1, 1, 0], [0, 0, 1, 0])) == [
            UNKNOWN,
            UNKNOWN,
            TRUE,
            TRUE,
        ]

    def test_until_lower_bound_witness_ignored_before_window(self):
        m = monitor_for("(p > 0) U[1,3] (q > 0)")
        # q holds only at tick 0, inside [0, lower); it is not a witness.
        assert verdicts(m, pq_trace([1, 1, 1, 1], [1, 0, 0, 0])) == [
            UNKNOWN,
            UNKNOWN,
            UNKNOWN,
            FALSE,
        ]

    def test_decided_verdicts_stay_latched(self):
        m = monitor_for("F[0,2] (x > 0)")
        assert verdicts(m, x_trace(0, 1, 0, 0, 0, 0)) == [
            UNKNOWN,
            TRUE,
            TRUE,
            TRUE,
            TRUE,
            TRUE,
        ]

    def test_propositional_formula_decides_at_tick_zero(self):
        m = monitor_for("x > 0 | y > 0")
        trace = Trace(("x", "y"), ((0.0, 2.0), (0.0, 0.0)))
        assert verdicts(m, trace) == [TRUE, TRUE]

    def test_boolean_combination_of_temporal_operators(self):
        m = monitor_for("G[0,1](x>0) & F[0,1](y>0)")
        trace = Trace(("x", "y"), ((1.0, 0.0), (1.0, 1.0)))
        assert verdicts(m, trace) == [UNKNOWN, TRUE]

    def test_negation_swaps_flags(self):
        m = monitor_for("!G[0,1] (x > 0)")
        records = m.run(x_trace(1, 1))
        assert records[-1].verdict is FALSE
        assert records[-1].flags == FlagPair(False, True)


class TestStructure:
    def test_cells_come_in_polarity_pairs(self):
        # One fused cell per operator reports both polarities as (pos, neg).
        m = monitor_for("G[0,2](x>0) -> (p>0) U[1,4] (q<1)")
        kinds = [type(c) for c in m.temporal_cells]
        assert kinds == [AlwaysCell, UntilCell]
        assert m.temporal_cells[0].step(True) == (False, False)

    def test_propositional_formula_has_no_cells(self):
        assert monitor_for("x > 0 & y < 1").temporal_cells == ()

    def test_tick_counts_consumed_samples(self):
        m = monitor_for("x > 0")
        assert m.tick == 0
        m.step({"x": 1.0})
        assert m.tick == 1

    def test_horizon_and_signals_exposed(self):
        m = monitor_for("G[0,5](x>0) & F[0,9](y>0)")
        assert m.horizon == 9
        assert m.signals == ("x", "y")


class TestRepeatedAtoms:
    # Two operands hold the multi-signal atom `x - y > 100`; its closure
    # must run once per tick, its value shared through one local.
    FORMULA = (
        "(F[0,6] (x - y > 100) | ((x + y >= -100) U[2,6] (x - y > 100))) "
        "-> G[1,8] (2*x - 3/10*y + 1/3 <= z)"
    )
    SIGNALS = ("x", "y", "z")

    def test_each_closure_is_called_once(self):
        source = monitor._NetworkSource(parse(self.FORMULA, self.SIGNALS))
        assert sorted(source.atoms) == ["a0", "a1", "a2"]
        for name in source.atoms:
            assert source.text.count(f"{name}(") == 1, source.text

    def test_verdicts_match_the_oracle(self):
        f = parse(self.FORMULA, self.SIGNALS)
        rng = random.Random(5)
        for _ in range(150):
            rows = []
            for _ in range(rng.randrange(1, 11)):
                y = rng.randrange(-600, 600) / 10
                x = round(y + rng.choice((99.9, 100.0, 100.1, 0.0)), 1)
                z = round(2 * x - 0.3 * y + rng.choice((-0.1, 0.3, 0.4)), 1)
                rows.append((x, y, z))
            trace = Trace(self.SIGNALS, tuple(rows))
            m = compile_formula(f)
            for k in range(len(rows)):
                assert m.step(trace.sample(k)).verdict is three_valued_eval(f, trace, k)


class TestStepErrors:
    def test_missing_signal(self):
        m = monitor_for("x > 0 & y > 0")
        with pytest.raises(MissingSignalError) as info:
            m.step({"x": 1.0})
        assert "y" in str(info.value) and "tick 0" in str(info.value)

    def test_missing_signals_named_in_order(self):
        m = monitor_for("y > 0 & p > 0 & x > 0")
        with pytest.raises(MissingSignalError) as info:
            m.step({"p": 1.0})
        assert info.value.names == ("x", "y")

    def test_missing_signal_raises_after_decision(self):
        m = monitor_for("F[0,3] (x > 0) & G[0,3] (y > 0)")
        assert m.step({"x": 1.0, "y": -1.0}).verdict is FALSE
        for tick in (1, 2):
            with pytest.raises(MissingSignalError, match=f"tick {tick}") as info:
                m.step({"y": 1.0} if tick == 1 else {})
            assert info.value.names == (("x",) if tick == 1 else ("x", "y"))
            m.step({"x": 0.0, "y": 0.0})

    def test_extra_signals_tolerated(self):
        m = monitor_for("x > 0")
        record = m.step({"x": 1.0, "unrelated": 5.0})
        assert record.verdict is TRUE

    def test_invalid_ast_rejected_at_compile_time(self):
        bad = Eventually(Interval(3, 1), signal_atom("x", ">"))
        with pytest.raises(InvalidFormulaError):
            compile_formula(bad)

    def test_verdict_record_must_be_consistent(self):
        # The record stores only the verdict; its flags are derived from it,
        # so the two cannot disagree.
        for verdict in (TRUE, FALSE, UNKNOWN):
            record = VerdictRecord(0, verdict)
            assert from_flags(record.flags) is verdict
        assert VerdictRecord(0, TRUE).flags == FlagPair(True, False)


class ConflictingAlwaysCell(AlwaysCell):
    """A broken G cell that reports both flags from tick 1 on."""

    __slots__ = ()

    def step(self, phi):
        pair = super().step(phi)
        return (True, True) if self._clk > 1 else pair


class TestFlagConflicts:
    # At tick 1 the broken G reports (T, T). Under & with F's (F, F) the root
    # pair would be (F, T), and under | with F's (T, F) it would be (T, F):
    # a clean verdict either way, so only a check of each cell can see it.
    @pytest.mark.parametrize("connective,y", [("&", 0.0), ("|", 1.0)])
    def test_conflict_raises_even_when_masked_at_the_root(self, monkeypatch, connective, y):
        monkeypatch.setitem(monitor._CELLS, Always, ConflictingAlwaysCell)
        m = monitor_for(f"G[0,5] (x > 0) {connective} F[0,5] (y > 0)")
        assert m.step({"x": 1.0, "y": 0.0}).verdict is UNKNOWN
        with pytest.raises(FlagConflictError):
            m.step({"x": 1.0, "y": y})


class TestDecidedRoot:
    def test_decided_steps_repeat_the_verdict(self):
        m = monitor_for("F[0,5] (x > 0)")
        assert m.step({"x": 1.0}).verdict is TRUE
        records = [m.step({"x": value}) for value in (0.0, -1.0, 0.0)]
        assert [r.verdict for r in records] == [TRUE, TRUE, TRUE]
        assert [r.tick for r in records] == [1, 2, 3]
        assert m.tick == 4

    def test_decided_root_steps_no_cell(self):
        m = monitor_for("G[0,5] (x > 0)")
        assert m.step({"x": -1.0}).verdict is FALSE
        (cell,) = m.temporal_cells
        state = cell.state_scalars()
        for _ in range(3):
            assert m.step({"x": 1.0}).verdict is FALSE
        assert cell.state_scalars() == state


class TestEarlyStop:
    def test_early_stop_halts_after_decision(self):
        m = monitor_for("F[0,5] (x > 0)")
        records = m.run(x_trace(0, 0, 1, 0, 0, 0), early_stop=True)
        assert [r.verdict for r in records] == [UNKNOWN, UNKNOWN, TRUE]

    def test_early_stop_consumes_everything_while_unknown(self):
        m = monitor_for("F[0,5] (x > 0)")
        records = m.run(x_trace(0, 0, 0), early_stop=True)
        assert len(records) == 3


class TestStateBounds:
    @pytest.mark.parametrize(
        "template",
        [
            "G[0,{b}] (x > 0)",
            "F[1,{b}] (x > 0)",
            "(p > 0) U[1,{b}] (q > 0)",
            "G[0,{b}](x>0) -> F[1,{b}](y>0)",
        ],
    )
    def test_state_size_independent_of_window(self, template):
        counts = {
            b: monitor_for(template.format(b=b)).state_scalar_count()
            for b in (2, 50, 1000)
        }
        assert len(set(counts.values())) == 1

    def test_state_size_constant_while_running(self):
        m = monitor_for("(p > 0) U[2,6] (q > 0)")
        size = m.state_scalar_count()
        for k in range(10):
            m.step({"p": 1.0, "q": 0.0})
            assert m.state_scalar_count() == size

    def test_cell_scalar_budgets(self):
        # Documented per-cell budgets; a regression here means a cell grew
        # history it does not need.
        assert len(EventuallyCell(1, 4).state_scalars()) == 2
        assert len(AlwaysCell(1, 4).state_scalars()) == 2
        assert len(UntilCell(1, 4).state_scalars()) == 3
        three_ops = "G[0,9] (x > 0) & F[0,9] (y > 0) & ((x >= 0) U[0,9] (y > 0))"
        assert monitor_for(three_ops).state_scalar_count() == 2 + 2 + 3


class TestAgainstOracle:
    def test_random_formulas_match_reference(self):
        rng = random.Random(20240817)
        for _ in range(150):
            f = random_formula(rng, max_upper=6)
            length = rng.randrange(1, 12)
            trace = Trace(
                ("x", "y"),
                tuple(
                    (rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
                    for _ in range(length)
                ),
            )
            m = compile_formula(f)
            for k in range(length):
                assert m.step(trace.sample(k)).verdict is three_valued_eval(f, trace, k)
