"""Self-checking machinery: enumeration, sweeps, induction, properties, and
the reports they produce. The canary tests feed sabotaged implementations in
through `compile_fn` to prove the checks can actually fail."""

import json
import random
import re

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
    induction_suite,
    operator_formula,
    property_suite,
    random_formula,
)
from stlobs.errors import EnumerationCapError, FlagConflictError
from stlobs.formula import (
    Always,
    And,
    Eventually,
    Interval,
    Or,
    TEMPORAL_NODES,
    Until,
    horizon,
    render,
    validate,
    walk,
)
from stlobs.monitor import VerdictRecord, compile_formula
from stlobs.oracle import explicit_eval, three_valued_eval
from stlobs.parser import parse
from stlobs.trace import Trace
from stlobs.trilean import FALSE, TRUE, UNKNOWN


def first_divergence(f, trace, compile_fn=compile_formula) -> tuple[int, str, str] | None:
    """First tick where the monitor and the three-valued oracle disagree,
    replaying a reported failure.

    Returns (tick, monitor verdict, oracle verdict), or None; a step that
    raises gives "conflict" for a flag conflict and the exception's repr for
    any other. Deterministic: replaying the same formula and trace reproduces
    the same answer.
    """
    monitor = compile_fn(f)
    for k in range(len(trace)):
        try:
            got = monitor.step(trace.sample(k)).verdict
        except Exception as exc:
            got = "conflict" if isinstance(exc, FlagConflictError) else repr(exc)
            return (k, got, str(three_valued_eval(f, trace, k)))
        want = three_valued_eval(f, trace, k)
        if got is not want:
            return (k, str(got), str(want))
    return None


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

    def test_one_failure_per_failing_prefix(self):
        # The sweep walks the traces' prefixes and stops at one that fails:
        # it reports that prefix once, with the first full trace that
        # extends it, where a replay of each full trace finds the same
        # prefixes. Every full trace under them still counts as a case.
        def sabotaged(f):
            node = next(n for n in walk(f) if isinstance(n, TEMPORAL_NODES))
            return compile_formula(Eventually(Interval(node.window.lower, node.window.upper + 1), node.child))

        report = differential_sweep(kinds=("eventually",), max_upper=3, compile_fn=sabotaged)
        windows = [(lower, upper) for lower in range(3) for upper in range(lower + 1, 4)]
        assert report.cases == sum(2 ** (upper + 3) for _, upper in windows) == 272
        replayed = set()
        for lower, upper in windows:
            f = operator_formula("eventually", lower, upper)
            for rows in enumerate_traces(1, upper + 3):
                trace = bool_trace(rows, 1)
                divergence = first_divergence(f, trace, compile_fn=sabotaged)
                if divergence is not None:
                    replayed.add((render(f), trace.samples[: divergence[0] + 1]))
        reported = [(failure.formula, failure.trace[: failure.tick + 1]) for failure in report.failures]
        assert len(reported) == len(set(reported)) == len(replayed) > 0
        assert set(reported) == replayed
        for failure in report.failures:
            assert failure.check == "verdict-mismatch"
            assert set(failure.trace[failure.tick + 1 :]) <= {(0.0,)}
            trace = Trace(("p",), failure.trace)
            assert first_divergence(parse(failure.formula, ("p",)), trace, compile_fn=sabotaged)[:2] == (
                failure.tick,
                failure.monitor_verdict,
            )

    def test_oracle_once_per_prefix_on_the_prefix_alone(self, monkeypatch):
        # A verdict at tick k reads no later tick: the sweep asks the oracle
        # once per distinct prefix of the enumerated traces, and hands it
        # only that prefix, so an oracle that read a later tick would fail.
        calls = []

        def counted(f, trace, tau):
            calls.append((len(trace), tau))
            return three_valued_eval(f, trace, tau)

        monkeypatch.setattr(conformance, "three_valued_eval", counted)
        report = differential_sweep(max_upper=3)
        assert report.passed and report.cases == 15136
        assert len(calls) == 20512
        assert all(length == tau + 1 for length, tau in calls)

    def test_refuses_beyond_the_cap_before_any_work(self, monkeypatch):
        # The longest window's traces are counted before the first window
        # is compiled: at the cap the sweep runs, one tick beyond it no
        # window is checked.
        def no_compile(f):
            raise AssertionError(f"compiled {render(f)}")

        monkeypatch.setattr(conformance, "DEFAULT_ENUMERATION_CAP", 2**5)
        assert differential_sweep(kinds=("eventually",), max_upper=2).passed
        with pytest.raises(EnumerationCapError, match="64 traces for 1 atoms x 6 ticks exceeds cap 32"):
            differential_sweep(kinds=("eventually",), max_upper=3, compile_fn=no_compile)
        with pytest.raises(EnumerationCapError, match="for 2 atoms x 5 ticks"):
            differential_sweep(kinds=("eventually", "until"), max_upper=2, compile_fn=no_compile)

    def test_correct_monitor_has_no_divergence(self):
        f = operator_formula("until", 1, 3)
        trace = bool_trace(((True,) * 2, (False,) * 2, (True,) * 2, (False,) * 2), 2)
        assert first_divergence(f, trace) is None


class TestInduction:
    @pytest.mark.parametrize("kind", ["eventually", "always", "until"])
    @pytest.mark.parametrize("polarity", ["positive", "negative"])
    def test_base_case(self, kind, polarity):
        for lower in range(0, 3):
            assert check_induction_base(kind, lower, polarity) is None

    @pytest.mark.parametrize("kind", ["eventually", "always", "until"])
    @pytest.mark.parametrize("polarity", ["positive", "negative"])
    def test_step_case(self, kind, polarity):
        for lower in range(0, 2):
            for upper in range(lower + 1, 3):
                assert check_induction_step(kind, lower, upper, polarity) is None

    def test_suite_report(self):
        report = induction_suite(kinds=("eventually",), max_lower=1, max_upper=2)
        assert report.passed
        # 2 polarities x (2 base cases + 3 step cases).
        assert report.cases == 2 * (2 + 3)

    def test_one_step_per_prefix_per_monitor(self, monkeypatch):
        # Each check walks the tree of its traces' prefixes: one step of
        # each of its monitors per prefix of 1 to length rows. Per polarity,
        # base windows [0,1] and [1,2] (14 + 30 prefixes, one monitor) and
        # step windows [0,1], [0,2], [1,2] (30 + 62 + 62 prefixes, two).
        steps = []
        step = monitor.Monitor.step

        def counted(self, sample):
            steps.append(sample)
            return step(self, sample)

        monkeypatch.setattr(monitor.Monitor, "step", counted)
        assert induction_suite(kinds=("eventually",), max_lower=1, max_upper=2).passed
        assert len(steps) == 2 * (14 + 30 + 2 * (30 + 62 + 62)) == 704

    def test_until_oracle_once_per_prefix_at_the_new_tick(self, monkeypatch):
        # The Until step check asks the oracle at tick upper + 1 only, once
        # per prefix of upper + 2 rows over two atoms.
        calls = []

        def counted(f, trace, tau):
            calls.append((len(trace), tau))
            return three_valued_eval(f, trace, tau)

        monkeypatch.setattr(conformance, "three_valued_eval", counted)
        assert induction_suite(kinds=("until",), max_lower=1, max_upper=2).passed
        assert len(calls) == 2 * (4**3 + 4**4 + 4**4) == 1152
        assert all(length == tau + 1 for length, tau in calls)

    def test_refuses_beyond_the_cap_before_any_work(self, monkeypatch):
        def no_compile(f):
            raise AssertionError(f"compiled {render(f)}")

        monkeypatch.setattr(conformance, "DEFAULT_ENUMERATION_CAP", 2**5)
        assert induction_suite(kinds=("eventually",), max_lower=2, max_upper=2).passed
        monkeypatch.setattr(conformance, "compile_formula", no_compile)
        for max_lower, max_upper in ((3, 2), (2, 3)):
            with pytest.raises(EnumerationCapError, match="1 atoms x 6 ticks"):
                induction_suite(kinds=("eventually",), max_lower=max_lower, max_upper=max_upper)


# Mutants of the operator bodies in `monitor._CELLS`, for the induction
# canaries.

# Ignores the operand at tick `lower`.
EVENTUALLY_LATE_AT_LOWER = "if t > l{k} and {0}:\n    p{k} = True\nelif t >= u{k}:\n    n{k} = True"
# Looks at ticks `lower` and `lower + 1` only, right for the base window and
# wrong for every wider one.
EVENTUALLY_WIDTH_ONE = (
    "if l{k} <= t <= l{k} + 1 and {0}:\n    p{k} = True\nelif t >= u{k}:\n    n{k} = True"
)
# Takes phi2 in the window as a witness whether or not phi1 held.
UNTIL_WITHOUT_PREFIX = "if t >= l{k} and {1}:\n    p{k} = True\nelif t >= u{k}:\n    n{k} = True"
# Reports false only once the window has closed, never on an early failure
# of phi1: it holds that failure back as a None in its neg flag, which is
# false to the guard and to the root.
UNTIL_FALSE_ONLY_AT_HORIZON = (
    "if n{k} is None or not {0}:\n    n{k} = True if t >= u{k} else None\n"
    "elif t >= l{k} and {1}:\n    p{k} = True\n"
    "elif t >= u{k}:\n    n{k} = True"
)
# Reports true one tick before the window closes.
ALWAYS_TRUE_ONE_TICK_EARLY = (
    "if t >= l{k} and not {0}:\n    n{k} = True\nelif t >= u{k} - 1:\n    p{k} = True"
)
# Reports a failure inside the window only once the window has closed,
# holding it back as UNTIL_FALSE_ONLY_AT_HORIZON does.
ALWAYS_FALSE_ONLY_AT_HORIZON = (
    "if n{k} is None or t >= l{k} and not {0}:\n    n{k} = True if t >= u{k} else None\n"
    "elif t >= u{k}:\n    p{k} = True"
)


class TestInductionCanaries:
    """The induction suite fails on an operator that is wrong at or after
    the window's last tick. It compares only from that tick on, so an
    operator that holds a decision back until then passes it (count 0);
    one that decides too early keeps that verdict latched to that tick and
    fails it. The differential sweep, which compares every tick, catches all
    six mutants."""

    @pytest.mark.parametrize(
        "kind, mutant, induction_failures",
        [
            ("eventually", EVENTUALLY_LATE_AT_LOWER, 10),
            ("eventually", EVENTUALLY_WIDTH_ONE, 20),
            ("until", UNTIL_WITHOUT_PREFIX, 30),
            ("until", UNTIL_FALSE_ONLY_AT_HORIZON, 0),
            ("always", ALWAYS_TRUE_ONE_TICK_EARLY, 30),
            ("always", ALWAYS_FALSE_ONLY_AT_HORIZON, 0),
        ],
        ids=[
            "EventuallyLateAtLower",
            "EventuallyWidthOne",
            "UntilWithoutPrefix",
            "UntilFalseOnlyAtHorizon",
            "AlwaysTrueOneTickEarly",
            "AlwaysFalseOnlyAtHorizon",
        ],
    )
    def test_mutant_body(self, monkeypatch, fresh_networks, kind, mutant, induction_failures):
        node = {"eventually": Eventually, "always": Always, "until": Until}[kind]
        monkeypatch.setitem(monitor._CELLS, node, mutant)
        assert len(induction_suite(kinds=(kind,)).failures) == induction_failures
        assert not differential_sweep(kinds=(kind,), max_upper=3).passed

    @pytest.mark.parametrize(
        "mutant, check",
        [(EVENTUALLY_LATE_AT_LOWER, "induction-base"), (EVENTUALLY_WIDTH_ONE, "induction-step")],
        ids=["EventuallyLateAtLower", "EventuallyWidthOne"],
    )
    def test_induction_failures_replay(self, monkeypatch, fresh_networks, mutant, check):
        # Each failure carries a full trace of its check's length: stepping
        # the check's monitors on it shows, at the failure's tick, the
        # flag that disagrees with the unrolled form.
        monkeypatch.setitem(monitor._CELLS, Eventually, mutant)
        failures = induction_suite(kinds=("eventually",)).failures
        assert failures and {failure.check for failure in failures} == {check}

        def flag_at(lower, upper, rows, tick, polarity):
            network, trace = compile_formula(operator_formula("eventually", lower, upper)), Trace(("p",), rows)
            verdicts = [network.step(trace.sample(k)).verdict for k in range(len(trace))]
            return verdicts[tick] is {"positive": TRUE, "negative": FALSE}[polarity]

        for failure in failures:
            polarity, lower, upper = re.match(r"eventually/(\w+) window \[(\d+),(\d+)\]", failure.formula).groups()
            lower, upper, k = int(lower), int(upper), failure.tick
            operand = [[p > 0 for (p,) in failure.trace]]
            got = flag_at(lower, upper + (check == "induction-step"), failure.trace, k, polarity)
            if check == "induction-base":
                assert len(failure.trace) == lower + 3 and k >= upper
                assert got != explicit_eval("eventually", lower, upper, operand, polarity)
            else:
                assert len(failure.trace) == upper + 3 and k >= upper + 1
                was = flag_at(lower, upper, failure.trace, k, polarity)
                new_tick = explicit_eval("eventually", upper + 1, upper + 1, operand, polarity)
                assert got != ((was or new_tick) if polarity == "positive" else (was and new_tick))


# Raises TypeError when F's window closes without a witness.
EVENTUALLY_BROKEN_AT_UPPER = "if t >= l{k} and {0}:\n    p{k} = True\nelif t >= u{k}:\n    n{k} = None + 1"
# Sets both flags when F's window closes without a witness.
EVENTUALLY_CONFLICT_AT_UPPER = (
    "if t >= l{k} and {0}:\n    p{k} = True\nelif t >= u{k}:\n    p{k} = True\n    n{k} = True"
)


class TestStepErrors:
    """A network that raises is a replayable `step-error` failure in every
    suite, not a crash of the suite."""

    def assert_replayable(self, failures):
        assert failures and {f.check for f in failures} == {"step-error"}
        for failure in failures:
            assert failure.monitor_verdict.startswith("TypeError(")
            f = parse(failure.formula, ("p", "q"))
            trace = Trace(("p", "q")[: len(failure.trace[0])], failure.trace)
            assert first_divergence(f, trace)[:2] == (failure.tick, failure.monitor_verdict)

    def test_every_suite_reports_it(self, monkeypatch, fresh_networks):
        monkeypatch.setitem(monitor._CELLS, Eventually, EVENTUALLY_BROKEN_AT_UPPER)
        self.assert_replayable(differential_sweep(kinds=("eventually",), max_upper=2).failures)
        self.assert_replayable(induction_suite(kinds=("eventually",), max_lower=1, max_upper=2).failures)
        properties = property_suite(seed=3, cases=100)
        assert "step-error" in {f.check for f in properties.failures}

    def test_flag_conflicts_fail_every_exhaustive_check(self, monkeypatch, fresh_networks):
        # The sweep reads a conflict as the verdict "conflict", which no
        # oracle verdict equals; the induction checks report it as the step
        # error it is, at the tick it fired. Read as a verdict there, it
        # would be neither flag and pass most of them.
        monkeypatch.setitem(monitor._CELLS, Eventually, EVENTUALLY_CONFLICT_AT_UPPER)
        sweep = differential_sweep(kinds=("eventually",), max_upper=2).failures
        assert len(sweep) == 4
        assert {(f.check, f.monitor_verdict) for f in sweep} == {("verdict-mismatch", "conflict")}
        assert {f.tick for f in sweep} == {1, 2}
        induction = induction_suite(kinds=("eventually",), max_lower=1, max_upper=2)
        assert induction.cases == len(induction.failures) == 10
        for failure in induction.failures:
            assert failure.check == "step-error"
            assert failure.monitor_verdict.startswith("FlagConflictError(")
            f = parse(failure.formula, ("p",))
            assert first_divergence(f, Trace(("p",), failure.trace))[:2] == (failure.tick, "conflict")

    def test_selfcheck_exits_false(self, monkeypatch, fresh_networks, capsys):
        from stlobs import cli

        monkeypatch.setitem(monitor._CELLS, Eventually, EVENTUALLY_BROKEN_AT_UPPER)
        assert cli.main(["selfcheck", "--max-b", "2", "--cases", "20"]) == cli.EXIT_FALSE
        assert "[step-error]" in capsys.readouterr().out


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
                    raise FlagConflictError("positive and negative verdict flags are both set")
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

    def test_catches_swapped_connectives(self, monkeypatch, fresh_networks):
        """`&` and `|` swapped in the network's pair algebra keep every
        verdict stream well formed; only the oracle check sees them. The
        sweep, whose formulas have no connective, passes."""
        conjunction, disjunction = monitor._PAIRS[And], monitor._PAIRS[Or]
        monkeypatch.setitem(monitor._PAIRS, And, disjunction)
        monkeypatch.setitem(monitor._PAIRS, Or, conjunction)
        report = property_suite(seed=42, cases=300)
        sweep = differential_sweep(max_upper=2)
        assert not report.passed
        assert {f.check for f in report.failures} == {"oracle-agreement"}
        assert sweep.passed and sweep.cases > 0

    def test_catches_a_shared_atom_guard_without_all_its_readers(self, monkeypatch, fresh_networks):
        """A shared atom's guard that lists only its first reader leaves the
        atom's local unset once that reader has decided, while another reader
        is still open: the network raises on reading it, and the suite
        reports that as a replayable step error. The suite's random formulas
        share multi-signal atoms between operands, and between an operand and
        an anchored atom, so it reaches that case."""

        class FirstReaderOnly(monitor._NetworkSource):
            def __init__(self, f):
                super().__init__(f)
                self.text = re.sub(
                    r"if (not \(p\d+ or n\d+\))(?: or not \(p\d+ or n\d+\))+:", r"if \1:", self.text
                )

        f = parse("x - y > 0 & F[0,3] (x - y > 0)", ("x", "y"))
        assert "        if not (p0 or n0):\n            v0 = " in FirstReaderOnly(f).text
        monkeypatch.setattr(monitor, "_NetworkSource", FirstReaderOnly)
        report = property_suite(seed=42, cases=2000)
        assert not report.passed
        assert {f.check for f in report.failures} == {"step-error"}
        failure = report.failures[0]
        assert failure.monitor_verdict.startswith("UnboundLocalError(")
        assert failure.trace and failure.tick >= 1
        assert first_divergence(parse(failure.formula, ("x", "y")), Trace(("x", "y"), failure.trace))[:2] == (
            failure.tick,
            failure.monitor_verdict,
        )

    def test_catches_atoms_shared_by_their_signals(self, monkeypatch, fresh_networks):
        """A network that takes every multi-signal atom over the same
        signals for the first one keeps every verdict stream well formed;
        only the oracle check sees it."""

        class SharedBySignals(monitor._NetworkSource):
            def _atom(self, pred, leaf):
                if len(pred.signals) > 1:
                    pred = self.__dict__.setdefault("firsts", {}).setdefault(pred.signals, pred)
                return super()._atom(pred, leaf)

        monkeypatch.setattr(monitor, "_NetworkSource", SharedBySignals)
        report = property_suite(seed=42, cases=1000)
        assert not report.passed
        assert {f.check for f in report.failures} == {"oracle-agreement"}

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
