"""Reference semantics: offline evaluation, three-valued prefixes, and the
agreement between quantified, enumerated, and derived characterizations."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlobs.conformance import bool_trace, enumerate_traces, operator_formula, random_formula
from stlobs.errors import ShortTraceError
from stlobs.formula import Interval, Not, Or, Until, signal_atom, signals_of
from stlobs.oracle import _check_kind, explicit_eval, identity_check, offline_eval, three_valued_eval
from stlobs.parser import parse
from stlobs.trace import Trace
from stlobs.trilean import FALSE, TRUE, UNKNOWN

SIGNALS = ("x", "y", "p", "q")


def p(text: str):
    return parse(text, SIGNALS)


def x_trace(*values: float) -> Trace:
    return Trace(("x",), tuple((v,) for v in values))


def pq_trace(ps, qs) -> Trace:
    return Trace(("p", "q"), tuple((float(a), float(b)) for a, b in zip(ps, qs)))


class TestOffline:
    def test_eventually_needs_witness_inside_window(self):
        f = p("F[1,2] (x > 0)")
        assert offline_eval(f, x_trace(1, 0, 1))
        assert not offline_eval(f, x_trace(1, 0, 0))

    def test_always_over_window(self):
        f = p("G[1,3] (x > 0)")
        assert offline_eval(f, x_trace(0, 1, 1, 1))
        assert not offline_eval(f, x_trace(1, 1, 0, 1))

    def test_until_witness_with_left_prefix_from_anchor(self):
        f = p("(p > 0) U[1,2] (q > 0)")
        assert offline_eval(f, pq_trace([1, 1, 0], [0, 1, 0]))

    def test_until_fails_when_left_breaks_before_witness(self):
        f = p("(p > 0) U[1,2] (q > 0)")
        assert not offline_eval(f, pq_trace([0, 1, 1], [0, 1, 1]))

    def test_until_left_must_hold_through_witness_tick(self):
        f = p("(p > 0) U[1,2] (q > 0)")
        # q fires at tick 2 but p fails at tick 2 itself.
        assert not offline_eval(f, pq_trace([1, 1, 0], [0, 0, 1]))
        assert offline_eval(f, pq_trace([1, 1, 1], [0, 0, 1]))

    def test_anchor_offset(self):
        f = p("F[0,1] (x > 0)")
        trace = x_trace(0, 0, 1)
        assert not offline_eval(f, trace, 0)
        assert offline_eval(f, trace, 1)
        with pytest.raises(ShortTraceError):
            offline_eval(f, trace, 2)

    def test_trace_must_cover_horizon(self):
        f = p("G[0,3] (x > 0)")
        with pytest.raises(ShortTraceError):
            offline_eval(f, x_trace(1, 1, 1))
        assert offline_eval(f, x_trace(1, 1, 1, 1))

    def test_boolean_connectives(self):
        trace = x_trace(1, 0)
        assert offline_eval(p("x > 0 -> F[0,1](x > 0)"), trace)
        assert not offline_eval(p("x > 0 & !(x > 0)"), trace)


class TestThreeValuedBasics:
    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            three_valued_eval(p("x > 0"), x_trace(1), -1)

    def test_prefix_must_contain_tau(self):
        with pytest.raises(ShortTraceError):
            three_valued_eval(p("x > 0"), x_trace(1), 1)

    def test_propositional_decided_at_zero(self):
        assert three_valued_eval(p("x > 0"), x_trace(1, 0), 0) is TRUE
        assert three_valued_eval(p("x > 0"), x_trace(0, 1), 0) is FALSE
        # Anchored at tick 0: later samples never change the verdict.
        assert three_valued_eval(p("x > 0"), x_trace(0, 1), 1) is FALSE

    def test_unknown_until_window_resolves(self):
        f = p("F[1,2] (x > 0)")
        trace = x_trace(0, 0, 0)
        assert three_valued_eval(f, trace, 0) is UNKNOWN
        assert three_valued_eval(f, trace, 1) is UNKNOWN
        assert three_valued_eval(f, trace, 2) is FALSE

    def test_kleene_combination_of_open_windows(self):
        f = p("G[0,3](x>0) | F[0,3](x>1)")
        trace = x_trace(1, 1)
        assert three_valued_eval(f, trace, 1) is UNKNOWN


class TestExplicitForms:
    @pytest.mark.parametrize("kind", ["eventually", "always"])
    def test_unary_explicit_matches_quantified_at_horizon(self, kind):
        for lower in range(0, 4):
            for upper in range(lower + 1, 5):
                f = operator_formula(kind, lower, upper)
                for rows in enumerate_traces(1, upper + 1):
                    trace = bool_trace(rows, 1)
                    verdict = three_valued_eval(f, trace, upper)
                    row = [bool(r[0]) for r in rows]
                    pos = explicit_eval(kind, lower, upper, [row], "positive")
                    neg = explicit_eval(kind, lower, upper, [row], "negative")
                    assert pos == (verdict is TRUE)
                    assert neg == (verdict is FALSE)
                    assert pos != neg

    def test_until_explicit_matches_quantified_at_horizon(self):
        for lower in range(0, 3):
            for upper in range(lower + 1, 4):
                f = operator_formula("until", lower, upper)
                for rows in enumerate_traces(2, upper + 1):
                    trace = bool_trace(rows, 2)
                    verdict = three_valued_eval(f, trace, upper)
                    row1 = [bool(r[0]) for r in rows]
                    row2 = [bool(r[1]) for r in rows]
                    pos = explicit_eval("until", lower, upper, [row1, row2], "positive")
                    neg = explicit_eval("until", lower, upper, [row1, row2], "negative")
                    assert pos == (verdict is TRUE)
                    assert neg == (verdict is FALSE)
                    assert pos != neg

    def test_explicit_requires_full_window(self):
        with pytest.raises(ShortTraceError):
            explicit_eval("eventually", 0, 3, [[True, False]], "positive")

    def test_unknown_inputs_rejected(self):
        with pytest.raises(ValueError):
            explicit_eval("sometime", 0, 1, [[True, True]], "positive")
        with pytest.raises(ValueError):
            explicit_eval("eventually", 0, 1, [[True, True]], "maybe")


def stated_unknown_eval(kind: str, lower: int, upper: int, operands, tau: int) -> bool:
    """Direct evaluation of the quantified "still open" conditions.

    The monitor and the oracle never compute these; both derive unknown as
    "neither decided". The test below confirms the two characterizations
    agree."""
    _check_kind(kind)
    if kind == "until":
        row1, row2 = (list(operands[0]), list(operands[1]))
        if tau < lower:
            return all(row1[t] for t in range(0, tau + 1))
        if tau < upper:
            return all(row1[t] for t in range(0, tau + 1)) and all(
                not row2[t] for t in range(lower, tau + 1)
            )
        return False
    row = list(operands[0])
    if tau < lower:
        return True
    if tau >= upper:
        return False
    if kind == "eventually":
        return all(not row[t] for t in range(lower, tau + 1))
    return all(row[t] for t in range(lower, tau + 1))


class TestStatedUnknown:
    @pytest.mark.parametrize("kind", ["eventually", "always", "until"])
    def test_stated_unknown_agrees_with_derived_unknown(self, kind):
        num = 2 if kind == "until" else 1
        for lower in range(0, 3):
            for upper in range(lower + 1, 4):
                f = operator_formula(kind, lower, upper)
                length = upper + 2
                for rows in enumerate_traces(num, length):
                    trace = bool_trace(rows, num)
                    operands = [
                        [bool(r[i]) for r in rows] for i in range(num)
                    ]
                    for tau in range(length):
                        derived = three_valued_eval(f, trace, tau) is UNKNOWN
                        stated = stated_unknown_eval(kind, lower, upper, operands, tau)
                        assert derived == stated, (kind, lower, upper, rows, tau)


class TestIdentities:
    def test_eventually_as_until_of_tautology(self):
        f = p("F[1,3] (p > 0)")
        for rows in enumerate_traces(1, 4):
            assert identity_check(f, bool_trace(rows, 1))

    def test_always_as_negated_eventually(self):
        f = p("G[0,2] (p > 0)")
        for rows in enumerate_traces(1, 3):
            assert identity_check(f, bool_trace(rows, 1))

    def test_identity_check_walks_combinations(self):
        f = p("G[0,2](p>0) -> F[1,2](p>0)")
        for rows in enumerate_traces(1, 3):
            assert identity_check(f, bool_trace(rows, 1))

    def test_identity_check_detects_wrong_equivalence(self):
        # A deliberately wrong "identity": eventually versus until with an
        # unsatisfiable right operand is not an equivalence.
        child = signal_atom("p", ">")
        window = Interval(0, 2)
        wrong = Until(window, Or(child, Not(child)), Not(child))
        trace = bool_trace(((True,), (True,), (True,)), 1)
        got_eventually = offline_eval(
            parse("F[0,2] (p > 0)", ("p",)), trace, 0
        )
        got_wrong = offline_eval(wrong, trace, 0)
        assert got_eventually != got_wrong


class TestHorizonAgreement:
    def test_three_valued_at_horizon_matches_offline(self):
        cases = [
            ("F[1,3] (x > 0)", x_trace(0, 0, 1, 0)),
            ("F[1,3] (x > 0)", x_trace(1, 0, 0, 0)),
            ("G[0,2] (x > 0)", x_trace(1, 1, 1)),
            ("G[0,2] (x > 0)", x_trace(1, 1, 0)),
        ]
        for text, trace in cases:
            f = p(text)
            verdict = three_valued_eval(f, trace, len(trace) - 1)
            assert verdict is (TRUE if offline_eval(f, trace, 0) else FALSE)


# Real values, half of them on the 0.1 grid the random atoms' thresholds use.
_values = st.one_of(
    st.floats(-2.5, 2.5), st.integers(-25, 25).map(lambda k: k / 10)
)


class TestMonotoneInTau:
    """Once the three-valued verdict is decided it stays decided: the
    property suite's oracle-agreement check compares only at ticks d-1, d
    and n-1, and relies on this."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_a_decided_verdict_never_changes(self, seed, data):
        f = random_formula(random.Random(seed), max_upper=6)
        signals = signals_of(f)
        rows = data.draw(
            st.lists(st.tuples(*(_values,) * len(signals)), min_size=1, max_size=10)
        )
        trace = Trace(signals, tuple(rows))
        verdicts = [three_valued_eval(f, trace, tau) for tau in range(len(trace))]
        d = next((k for k, v in enumerate(verdicts) if v is not UNKNOWN), len(verdicts))
        assert verdicts[:d] == [UNKNOWN] * d
        assert verdicts[d:] == verdicts[d:d + 1] * (len(verdicts) - d)
