"""Self-checking machinery: enumeration, sweeps, induction, properties, and
the reports they produce. The canary tests feed sabotaged implementations in
through `compile_fn` to prove the checks can actually fail."""

import json
import random

import pytest

from stlobs import conformance, monitor
from stlobs.conformance import (
    ConformanceReport,
    Failure,
    bool_trace,
    check_induction_base,
    check_induction_step,
    differential_sweep,
    enumerate_traces,
    first_divergence,
    induction_suite,
    operator_formula,
    property_suite,
    random_formula,
)
from stlobs.errors import EnumerationCapError
from stlobs.formula import (
    Always,
    Eventually,
    Interval,
    TEMPORAL_NODES,
    Until,
    horizon,
    validate,
    walk,
)
from stlobs.monitor import (
    AlwaysCell,
    EventuallyCell,
    UntilCell,
    VerdictRecord,
    compile_formula,
)
from stlobs.parser import parse
from stlobs.trace import Trace
from stlobs.trilean import FALSE, TRUE, UNKNOWN, FlagPair


class TestEnumerateTraces:
    def test_counts(self):
        assert len(list(enumerate_traces(1, 3))) == 8
        assert len(list(enumerate_traces(2, 2))) == 16

    def test_deterministic_order(self):
        assert list(enumerate_traces(1, 2)) == list(enumerate_traces(1, 2))
        first = next(iter(enumerate_traces(2, 2)))
        assert first == ((False, False), (False, False))

    def test_cap_refused_before_yielding(self):
        with pytest.raises(EnumerationCapError):
            enumerate_traces(2, 11)

    def test_custom_cap(self):
        with pytest.raises(EnumerationCapError):
            enumerate_traces(1, 4, cap=15)
        assert len(list(enumerate_traces(1, 4, cap=16))) == 16


class TestDifferentialSweep:
    def test_small_sweep_passes(self):
        report = differential_sweep(kinds=("eventually",), max_upper=2)
        assert report.passed
        # Windows (0,1), (0,2), (1,2) over one atom; trace length is b + 3.
        assert report.cases == 2 ** 4 + 2 * 2 ** 5
        assert report.wall_time_s > 0

    def test_sweep_catches_wrong_window(self):
        # Sabotage: compile a monitor for a window one tick wider than asked.
        def sabotaged(f):
            node = next(n for n in walk(f) if isinstance(n, TEMPORAL_NODES))
            widened = Eventually(
                Interval(node.window.lower, node.window.upper + 1), node.child
            )
            return compile_formula(widened)

        report = differential_sweep(
            kinds=("eventually",), max_upper=2, compile_fn=sabotaged
        )
        assert not report.passed
        failure = report.failures[0]
        assert failure.check in ("verdict-mismatch", "horizon-offline")
        assert failure.tick >= 0
        assert failure.monitor_verdict != failure.oracle_verdict

    def test_failures_are_replayable(self):
        def sabotaged(f):
            node = next(n for n in walk(f) if isinstance(n, TEMPORAL_NODES))
            widened = Always(
                Interval(node.window.lower, node.window.upper + 1), node.child
            )
            return compile_formula(widened)

        report = differential_sweep(kinds=("always",), max_upper=2, compile_fn=sabotaged)
        assert not report.passed
        failure = report.failures[0]
        f = parse(failure.formula, ("p",))
        trace = Trace(("p",), failure.trace)
        replay = first_divergence(f, trace, compile_fn=sabotaged)
        assert replay is not None
        assert replay[0] == failure.tick
        assert replay == first_divergence(f, trace, compile_fn=sabotaged)

    def test_correct_monitor_has_no_divergence(self):
        f = operator_formula("until", 1, 3)
        trace = bool_trace(((True,) * 2, (False,) * 2, (True,) * 2, (False,) * 2), 2)
        assert first_divergence(f, trace) is None


class TestInduction:
    @pytest.mark.parametrize("kind", ["eventually", "always", "until"])
    @pytest.mark.parametrize("polarity", ["positive", "negative"])
    def test_base_case(self, kind, polarity):
        for lower in range(0, 3):
            assert check_induction_base(kind, lower, polarity)

    @pytest.mark.parametrize("kind", ["eventually", "always", "until"])
    @pytest.mark.parametrize("polarity", ["positive", "negative"])
    def test_step_case(self, kind, polarity):
        for lower in range(0, 2):
            for upper in range(lower + 1, 3):
                assert check_induction_step(kind, lower, upper, polarity)

    def test_suite_report(self):
        report = induction_suite(kinds=("eventually",), max_lower=1, max_upper=2)
        assert report.passed
        # 2 polarities x (2 base cases + 3 step cases).
        assert report.cases == 2 * (2 + 3)


# Cell mutants for the induction canaries.


class EventuallyLateAtLower(EventuallyCell):
    """Ignores the operand at tick `lower`."""

    __slots__ = ()

    def step(self, phi):
        return super().step(phi and self._clk != self.lower)


class EventuallyWidthOne(EventuallyCell):
    """Looks at ticks `lower` and `lower + 1` only, right for the base
    window and wrong for every wider one."""

    __slots__ = ()

    def step(self, phi):
        return super().step(phi and self._clk <= self.lower + 1)


class UntilWithoutPrefix(UntilCell):
    """Takes phi2 in the window as a witness whether or not phi1 held."""

    __slots__ = ()

    def step(self, phi1, phi2):
        clk = self._clk
        if clk <= self.upper:
            self._prefix_ok = self._prefix_ok and phi1
            if phi2 and clk >= self.lower:
                self._witness = True
            self._clk = clk + 1
        witness = self._witness
        return witness, not witness and (clk >= self.upper or not self._prefix_ok)


class UntilFalseOnlyAtHorizon(UntilCell):
    """Reports false only once the window has closed, never on an early
    failure of phi1."""

    __slots__ = ()

    def step(self, phi1, phi2):
        clk = self._clk
        witness, _ = super().step(phi1, phi2)
        return witness, not witness and clk >= self.upper


class AlwaysTrueOneTickEarly(AlwaysCell):
    """Reports true one tick before the window closes."""

    __slots__ = ()

    def step(self, phi):
        clk = self._clk
        _, neg = super().step(phi)
        return clk >= self.upper - 1 and not neg, neg


class TestInductionCanaries:
    """The induction suite fails on a cell that is wrong at or after the
    window's last tick. It compares only from that tick on, so a flag set
    too early passes it (count 0): the differential sweep, which compares
    every tick, catches all five mutants."""

    @pytest.mark.parametrize(
        "kind, mutant, induction_failures",
        [
            ("eventually", EventuallyLateAtLower, 10),
            ("eventually", EventuallyWidthOne, 20),
            ("until", UntilWithoutPrefix, 30),
            ("until", UntilFalseOnlyAtHorizon, 0),
            ("always", AlwaysTrueOneTickEarly, 0),
        ],
    )
    def test_mutant_cell(self, monkeypatch, kind, mutant, induction_failures):
        monkeypatch.setitem(conformance._CELLS, kind, mutant)
        assert len(induction_suite(kinds=(kind,)).failures) == induction_failures
        node = {"eventually": Eventually, "always": Always, "until": Until}[kind]
        monkeypatch.setitem(monitor._CELLS, node, mutant)
        assert not differential_sweep(kinds=(kind,), max_upper=3).passed


class TestPropertySuite:
    def test_passes_on_real_implementation(self):
        report = property_suite(seed=11, cases=300)
        assert report.passed
        assert report.cases == 300

    def test_same_seed_same_outcome(self):
        a = property_suite(seed=5, cases=50)
        b = property_suite(seed=5, cases=50)
        assert a.passed == b.passed and a.cases == b.cases

    def test_catches_monitor_stuck_at_unknown(self):
        class Stuck:
            def __init__(self, inner):
                self._inner = inner

            def step(self, sample):
                record = self._inner.step(sample)
                return VerdictRecord(record.tick, UNKNOWN)

            def state_scalar_count(self):
                return self._inner.state_scalar_count()

        report = property_suite(
            seed=42, cases=300, compile_fn=lambda f: Stuck(compile_formula(f))
        )
        assert not report.passed
        assert any(f.check == "determination" for f in report.failures)

    def test_catches_flag_conflicts(self):
        class Conflicting:
            def __init__(self, inner):
                self._inner = inner

            def step(self, sample):
                record = self._inner.step(sample)
                if record.tick >= 1:
                    FlagPair(True, True)
                return record

            def state_scalar_count(self):
                return self._inner.state_scalar_count()

        report = property_suite(
            seed=42, cases=100, compile_fn=lambda f: Conflicting(compile_formula(f))
        )
        assert not report.passed
        assert any(f.check == "flag-conflict" for f in report.failures)

    @pytest.mark.parametrize(
        "changed",
        [lambda v: FALSE if v is TRUE else TRUE, lambda v: UNKNOWN],
        ids=["flipped", "unlatched"],
    )
    def test_catches_a_changed_decided_verdict(self, changed):
        class Unlatched:
            """From the tick after the first decided verdict, reports that
            verdict changed."""

            def __init__(self, inner):
                self._inner = inner
                self._decided = None

            def step(self, sample):
                record = self._inner.step(sample)
                if self._decided is not None:
                    return VerdictRecord(record.tick, changed(self._decided))
                if record.verdict is not UNKNOWN:
                    self._decided = record.verdict
                return record

            def state_scalar_count(self):
                return self._inner.state_scalar_count()

        report = property_suite(
            seed=42, cases=100, compile_fn=lambda f: Unlatched(compile_formula(f))
        )
        assert not report.passed
        assert {f.check for f in report.failures} == {"immutability"}

    def test_catches_state_that_grows_with_the_window(self):
        class Growing:
            def __init__(self, inner, width):
                self._inner = inner
                self._width = width

            def step(self, sample):
                return self._inner.step(sample)

            def state_scalar_count(self):
                return self._inner.state_scalar_count() + self._width

        report = property_suite(
            seed=42, cases=100, compile_fn=lambda f: Growing(compile_formula(f), horizon(f))
        )
        assert not report.passed
        assert any(f.check == "state-size" for f in report.failures)


class TestRandomFormula:
    def test_random_formulas_are_valid(self):
        rng = random.Random(99)
        for _ in range(300):
            f = random_formula(rng)
            assert validate(f) == []

    def test_window_bound_respected(self):
        rng = random.Random(100)
        for _ in range(300):
            f = random_formula(rng, max_upper=7)
            for node in walk(f):
                if isinstance(node, (Eventually, Always, Until)):
                    assert 0 <= node.window.lower < node.window.upper <= 7


class TestReports:
    def test_json_round_trip(self):
        report = differential_sweep(kinds=("eventually",), max_upper=1)
        payload = json.loads(report.to_json())
        assert payload["cases"] == report.cases
        assert payload["failures"] == []
        assert payload["wall_time_s"] == report.wall_time_s

    def test_text_truncates_failures(self):
        failures = [
            Failure("verdict-mismatch", "p > 0", ((0.0,),), 0, "T", "F")
            for _ in range(8)
        ]
        report = ConformanceReport(cases=8, failures=failures, wall_time_s=0.1)
        text = report.to_text(max_failures=5)
        assert text.startswith("FAIL")
        assert "... and 3 more" in text

    def test_failure_dict_carries_replay_data(self):
        failure = Failure("verdict-mismatch", "p > 0", ((1.0,), (0.0,)), 1, "T", "U")
        payload = failure.to_dict()
        assert payload["trace"] == [[1.0], [0.0]]
        assert payload["tick"] == 1
