"""Streaming monitor: verdict sequences, structure, and state bounds."""

import io
import random
import tokenize
from collections import Counter, defaultdict
from types import MappingProxyType

import pytest

from stlobs import conformance, monitor
from stlobs.conformance import property_suite, random_formula
from stlobs.errors import FlagConflictError, InvalidFormulaError, MissingSignalError
from stlobs.formula import Always, Atom, Eventually, Interval, horizon, linear_atom, render, signal_atom, signals_of
from stlobs.monitor import Monitor, VerdictRecord, compile_formula
from stlobs.oracle import three_valued_eval
from stlobs.parser import parse
from stlobs.trace import Trace
from stlobs.trilean import FALSE, TRUE, UNKNOWN

SIGNALS = ("x", "y", "p", "q")


def monitor_for(text: str) -> Monitor:
    return compile_formula(parse(text, SIGNALS))


def x_trace(*values: float) -> Trace:
    return Trace(("x",), tuple((v,) for v in values))


def pq_trace(ps, qs) -> Trace:
    return Trace(("p", "q"), tuple((float(a), float(b)) for a, b in zip(ps, qs)))


def run(monitor: Monitor, trace: Trace, early_stop: bool = False) -> list[VerdictRecord]:
    """Step `monitor` through `trace` as `check` does: every sample in
    order, or, with `early_stop`, up to the first decided verdict."""
    records = []
    for k in range(len(trace)):
        records.append(monitor.step(trace.sample(k)))
        if early_stop and records[-1].verdict is not UNKNOWN:
            break
    return records


def verdicts(monitor: Monitor, trace: Trace):
    return [r.verdict for r in run(monitor, trace)]


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
        records = run(m, x_trace(1, 1))
        assert records[-1].verdict is FALSE
        # G's own pair is (pos, neg) = (True, False); the root reads it swapped.
        assert m.state_scalars() == (2, FALSE, True, False)


class TestStructure:
    def test_each_operator_is_one_flag_pair(self):
        # After the tick and the root latch, one (pos, neg) pair per operator.
        m = monitor_for("G[0,2](x>0) -> (p>0) U[1,4] (q<1)")
        assert m.state_scalars() == (0, None, False, False, False, False)
        # p fails at tick 0, refuting U; G is still open, and so is the root.
        assert m.step({"x": 1.0, "p": 0.0, "q": 1.0}).verdict is UNKNOWN
        assert m.state_scalars() == (1, None, False, False, False, True)

    def test_propositional_formula_has_no_window(self):
        # Its factory takes the two thresholds and no window bound.
        f = parse("x > 0 & y < 1", SIGNALS)
        assert monitor._NetworkSource(f).args == (0.0, 1.0)
        m = compile_formula(f)
        assert m.step({"x": 1.0, "y": 0.0}).verdict is TRUE
        assert m.state_scalars() == (1, TRUE, True, False, True, False)

    def test_tick_counts_consumed_samples(self):
        m = monitor_for("x > 0")
        assert m.tick == 0
        m.step({"x": 1.0})
        assert m.tick == 1

    def test_horizon_and_signals_exposed(self):
        m = monitor_for("G[0,5](x>0) & F[0,9](y>0)")
        assert horizon(m.formula) == 9
        assert m.signals == ("x", "y")


class TestRepeatedAtoms:
    # Two operands hold the multi-signal atom `x - y > 100`; each reads it
    # through the same constants and exact test.
    FORMULA = (
        "(F[0,6] (x - y > 100) | ((x + y >= -100) U[2,6] (x - y > 100))) "
        "-> G[1,8] (2*x - 3/10*y + 1/3 <= z)"
    )
    SIGNALS = ("x", "y", "z")

    @classmethod
    def random_trace(cls, rng: random.Random) -> Trace:
        """1 to 10 samples, each at, just off or far from both atoms'
        boundaries."""
        rows = []
        for _ in range(rng.randrange(1, 11)):
            y = rng.randrange(-600, 600) / 10
            x = round(y + rng.choice((99.9, 100.0, 100.1, 0.0)), 1)
            z = round(2 * x - 0.3 * y + rng.choice((-0.1, 0.3, 0.4)), 1)
            rows.append((x, y, z))
        return Trace(cls.SIGNALS, tuple(rows))

    def test_verdicts_match_the_oracle(self):
        f = parse(self.FORMULA, self.SIGNALS)
        rng = random.Random(5)
        for _ in range(150):
            trace = self.random_trace(rng)
            m = compile_formula(f)
            for k in range(len(trace)):
                assert m.step(trace.sample(k)).verdict is three_valued_eval(f, trace, k)


class TestShapeCache:
    # Formulas that differ only in their numbers share one generated network;
    # each monitor still keeps its own flags and reads its own windows and
    # thresholds. `fresh_networks` empties the cache first, so its misses
    # count the factories built.

    def interleaved(self, formulas, trace: Trace) -> list:
        """Each formula's verdicts, with all monitors stepped side by side;
        each must match the oracle at every tick."""
        monitors = [compile_formula(f) for f in formulas]
        streams = [[] for _ in formulas]
        for k in range(len(trace)):
            for f, m, stream in zip(formulas, monitors, streams):
                verdict = m.step(trace.sample(k)).verdict
                assert verdict is three_valued_eval(f, trace, k), (f, k)
                stream.append(verdict)
        return streams

    def test_windows_and_thresholds_share_one_factory(self, fresh_networks):
        # `x >= 0.5` and `-2*x < -1` are each one `x > d`, as `x > 0` is.
        texts = ("F[0,2] (x > 0)", "F[3,5] (x > 0)", "F[3,5] (x >= 0.5)", "F[0,2] (-2*x < -1)")
        formulas = [parse(text, SIGNALS) for text in texts]
        near, far, far_half, near_half = self.interleaved(formulas, x_trace(0, 1, 0, 0, 0, 0, 0))
        assert monitor._factory.cache_info().misses == 1
        assert near == near_half == [UNKNOWN, TRUE, TRUE, TRUE, TRUE, TRUE, TRUE]
        assert far == far_half == [UNKNOWN] * 5 + [FALSE, FALSE]

    def test_anchored_atom_keeps_its_tick_zero_value(self, fresh_networks):
        # `x - y > 0` outside the operator is fixed by tick 0 (false), and
        # turns true at tick 1, inside the first window only.
        texts = ("!(x - y > 0) & F[0,2] (x - y > 0)", "!(x - y > 0) & F[2,4] (x - y > 0)")
        formulas = [parse(text, SIGNALS) for text in texts]
        trace = Trace(("x", "y"), ((0.0, 1.0), (2.0, 1.0), (0.0, 1.0), (0.5, 1.0), (0.0, 1.0)))
        near, far = self.interleaved(formulas, trace)
        assert monitor._factory.cache_info().misses == 1
        assert near == [UNKNOWN, TRUE, TRUE, TRUE, TRUE]
        assert far == [UNKNOWN, UNKNOWN, UNKNOWN, UNKNOWN, FALSE]


class TestNetworkText:
    # The generated source of the benchmark's two formulas, pinned: a change
    # to it moves `Monitor.step` on every benchmark workload.
    # Each tick reads every signal once, in signal order, and checks the
    # sample's presence on the way, also once the root has decided.
    # `make` takes the windows, then the numbers and exact tests its atoms
    # read, then the state at tick 0.
    HEAD = (
        "def make(l0, u0, l1, u1, l2, u2, {constants}, t=0, decided=None, "
        "p0=False, n0=False, p1=False, n1=False, p2=False, n2=False):\n"
        "    def network(s):\n"
        "        nonlocal t, decided, p0, n0, p1, n1, p2, n2\n"
        "        if type(s) is not dict:\n"
        "            s = present(s, t, {names})\n"
        "        try:\n"
        "{reads}"
        "        except KeyError:\n"
        "            present(s, t, {names})\n"
        "        if decided is not None:\n"
        "            t += 1\n"
        "            return new(VerdictRecord, (t - 1, decided))\n"
    )
    TAIL = (
        "        if p0 and n0 or p1 and n1 or p2 and n2:\n"
        "            raise FlagConflictError('positive and negative verdict flags are both set')\n"
        "        if {pos}:\n"
        "            decided = TRUE\n"
        "        elif {neg}:\n"
        "            decided = FALSE\n"
        "        t += 1\n"
        "        return new(VerdictRecord, (t - 1, decided or UNKNOWN))\n"
        "    def state():\n"
        "        return t, decided, p0, n0, p1, n1, p2, n2\n"
        "    network.state = state\n"
        "    return network\n"
    )
    CSV_WIDE = (
        "G[0,199999] (speed < 20 | brake > 0) & F[0,199999] (gear >= 6) "
        "& ((speed >= 0) U[0,199999] (gear >= 6))"
    )
    JSONL_LATCH = (
        "(F[0,100000] (x - y > 100) | ((x + y >= -100) U[50,100000] (x - y > 100))) "
        "-> G[10,199999] (2*x - 3/10*y + 1/3 <= z)"
    )

    @pytest.mark.parametrize(
        "text,signals,reads,operators,pos,neg,numbers",
        [
            (
                CSV_WIDE,
                ("speed", "brake", "gear"),
                "            x0 = s['brake']\n"
                "            x1 = s['gear']\n"
                "            x2 = s['speed']\n",
                # `gear >= 6` is `gear > 5.999999999999999`; both operands
                # that read it read `c2`.
                "        if not (p0 or n0):\n"
                "            if t >= l0 and not (x2 < c0 or x0 > c1):\n"
                "                n0 = True\n"
                "            elif t >= u0:\n"
                "                p0 = True\n"
                "        if not (p1 or n1):\n"
                "            if t >= l1 and x1 > c2:\n"
                "                p1 = True\n"
                "            elif t >= u1:\n"
                "                n1 = True\n"
                "        if not (p2 or n2):\n"
                "            if not x2 > c3:\n"
                "                n2 = True\n"
                "            elif t >= l2 and x1 > c2:\n"
                "                p2 = True\n"
                "            elif t >= u2:\n"
                "                n2 = True\n",
                "((p0 and p1) and p2)",
                "((n0 or n1) or n2)",
                (0, 199999, 0, 199999, 0, 199999, 20.0, 0.0, 5.999999999999999, -5e-324),
            ),
            (
                JSONL_LATCH,
                ("x", "y", "z"),
                "            x0 = s['x']\n"
                "            x1 = s['y']\n"
                "            x2 = s['z']\n",
                # Atom k's exact test, its constant, coefficients and error
                # bound's two terms; F and U read `x - y > 100` as `c0` to `c5`.
                "        if not (p0 or n0):\n"
                "            if t >= l0 and (True if (a0t := c1 + (a0q0 := c2 * x0) "
                "+ (a0q1 := c3 * x1)) > (a0b := c4 * (abs(c1) + abs(a0q0) + abs(a0q1)) + c5) "
                "else False if a0t < -a0b else c0(s)):\n"
                "                p0 = True\n"
                "            elif t >= u0:\n"
                "                n0 = True\n"
                "        if not (p1 or n1):\n"
                "            if not (True if (a1t := c7 + (a1q0 := c8 * x0) "
                "+ (a1q1 := c9 * x1)) > (a1b := c10 * (abs(c7) + abs(a1q0) + abs(a1q1)) + c11) "
                "else False if a1t < -a1b else c6(s)):\n"
                "                n1 = True\n"
                "            elif t >= l1 and (True if (a0t := c1 + (a0q0 := c2 * x0) "
                "+ (a0q1 := c3 * x1)) > (a0b := c4 * (abs(c1) + abs(a0q0) + abs(a0q1)) + c5) "
                "else False if a0t < -a0b else c0(s)):\n"
                "                p1 = True\n"
                "            elif t >= u1:\n"
                "                n1 = True\n"
                "        if not (p2 or n2):\n"
                "            if t >= l2 and not (False if (a2t := c13 + (a2q0 := c14 * x0) "
                "+ (a2q1 := c15 * x1) + (a2q2 := c16 * x2)) > (a2b := c17 "
                "* (abs(c13) + abs(a2q0) + abs(a2q1) + abs(a2q2)) + c18) "
                "else True if a2t < -a2b else c12(s)):\n"
                "                n2 = True\n"
                "            elif t >= u2:\n"
                "                p2 = True\n",
                "((n0 and n1) or p2)",
                "((p0 or p1) and n2)",
                (
                    0, 100000, 50, 100000, 10, 199999,
                    "x - y > 100", -100.0, 1.0, -1.0, 6.661338147750939e-16, 7e-323,
                    "x + y >= -100", 100.0, 1.0, 1.0, 6.661338147750939e-16, 7e-323,
                    "60*x - 9*y - 30*z <= -10", 10.0, 60.0, -9.0, -30.0, 7.771561172376096e-16, 1.047e-321,
                ),
            ),
        ],
        ids=["csv-wide", "jsonl-latch"],
    )
    def test_benchmark_formulas(self, text, signals, reads, operators, pos, neg, numbers):
        source = monitor._NetworkSource(parse(text, signals))
        constants = ", ".join(f"c{k}" for k in range(len(numbers) - 6))
        names = ", ".join(map(repr, sorted(signals)))
        head = self.HEAD.format(constants=constants, names=names, reads=reads)
        assert source.text == head + operators + self.TAIL.format(pos=pos, neg=neg)
        # An exact test is pinned by its atom's rendering.
        assert numbers == tuple(
            render(Atom(arg.__self__)) if callable(arg) else arg for arg in source.args
        )

    def test_anchored_atoms(self):
        # An atom outside every operator is decided at tick 0, where its
        # guard is open: it reads the signals' locals, and caches nothing.
        # With no operator there is no window to take and no pair to check.
        f = parse("x - y > 0 & !(x > 1)", ("x", "y"))
        source = monitor._NetworkSource(f)
        assert source.text == (
            "def make(c0, c1, c2, c3, c4, c5, c6, t=0, decided=None, p0=False, n0=False, p1=False, n1=False):\n"
            "    def network(s):\n"
            "        nonlocal t, decided, p0, n0, p1, n1\n"
            "        if type(s) is not dict:\n"
            "            s = present(s, t, 'x', 'y')\n"
            "        try:\n"
            "            x0 = s['x']\n"
            "            x1 = s['y']\n"
            "        except KeyError:\n"
            "            present(s, t, 'x', 'y')\n"
            "        if decided is not None:\n"
            "            t += 1\n"
            "            return new(VerdictRecord, (t - 1, decided))\n"
            "        if not (p0 or n0):\n"
            "            p0 = (True if (a0t := c1 + (a0q0 := c2 * x0) "
            "+ (a0q1 := c3 * x1)) > (a0b := c4 * (abs(c1) + abs(a0q0) + abs(a0q1)) + c5) "
            "else False if a0t < -a0b else c0(s))\n"
            "            n0 = not p0\n"
            "        if not (p1 or n1):\n"
            "            p1 = x0 > c6\n"
            "            n1 = not p1\n"
            "        if (p0 and n1):\n"
            "            decided = TRUE\n"
            "        elif (n0 or p1):\n"
            "            decided = FALSE\n"
            "        t += 1\n"
            "        return new(VerdictRecord, (t - 1, decided or UNKNOWN))\n"
            "    def state():\n"
            "        return t, decided, p0, n0, p1, n1\n"
            "    network.state = state\n"
            "    return network\n"
        )
        assert source.args == (f.left.predicate.evaluate, 0.0, 1.0, -1.0, 6.661338147750939e-16, 7e-323, 1.0)

    def test_no_formula_number_reaches_the_text(self):
        # The first 100 cases of the property suite: the text of
        # each network holds no float literal and no string but a signal's
        # name and the conflict message, and compares no signal with `>=`
        # or `<=`, only the tick with a window bound.
        formulas = []
        property_suite(42, 100, lambda f: formulas.append(f) or compile_formula(f))
        message = repr("positive and negative verdict flags are both set")
        for f in formulas:
            tokens = list(tokenize.generate_tokens(io.StringIO(monitor._NetworkSource(f).text).readline))
            for previous, token in zip(tokens, tokens[1:]):
                if token.type == tokenize.NUMBER:
                    assert token.string in ("0", "1"), render(f)  # t=0, t += 1
                elif token.type == tokenize.STRING:
                    assert token.string in {message, *map(repr, signals_of(f))}, render(f)
                elif token.string in (">=", "<="):
                    assert previous.string == "t", render(f)


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

    @pytest.mark.parametrize(
        "mapping",
        [dict, lambda items: defaultdict(float, items), Counter, MappingProxyType],
        ids=["dict", "defaultdict", "Counter", "Mapping"],
    )
    def test_presence_is_membership_before_and_after_the_decision(self, mapping):
        # A `defaultdict` or a `Counter` gives a value for any key, but a
        # signal it does not hold is missing, and the sample is left as it
        # was; a non-dict Mapping is read through its own methods.
        m = monitor_for("F[0,3] (x > 0) & G[0,3] (y > 0)")
        for tick, verdict in ((0, UNKNOWN), (1, FALSE)):
            sample = mapping({"y": 1.0})
            with pytest.raises(MissingSignalError, match=f"at tick {tick}: x$") as info:
                m.step(sample)
            assert info.value.names == ("x",) and dict(sample) == {"y": 1.0}
            assert m.step(mapping({"x": 0.0, "y": 1.0 - tick})).verdict is verdict
        assert m.step(mapping({"x": 0.0, "y": 1.0, "z": 2.0})).verdict is FALSE

    def test_an_error_leaves_the_tick_and_the_state(self):
        m = monitor_for("F[0,3] (x > 0) & G[0,3] (y > 0)")
        m.step({"x": 0.0, "y": 1.0})
        state = m.state_scalars()
        for sample in ({}, {"x": 1.0}, Counter({"y": 1.0})):
            with pytest.raises(MissingSignalError, match="at tick 1"):
                m.step(sample)
            assert m.tick == 1 and m.state_scalars() == state
        assert m.step({"x": 1.0, "y": 1.0}) == (1, UNKNOWN)
        assert m.tick == 2

    def test_a_formula_without_signals_compiles(self):
        # `validate` refuses an atom that reads no signal, but its network
        # still compiles, with no read of the sample.
        source = monitor._NetworkSource(Eventually(Interval(0, 2), linear_atom({}, "<", -1)))
        assert source.signals == () and source.args == (0, 2)
        step = monitor._factory(source.text)(*source.args)
        assert [step({}) for _ in range(2)] == [(0, TRUE), (1, TRUE)]

    def test_extra_signals_tolerated(self):
        m = monitor_for("x > 0")
        record = m.step({"x": 1.0, "unrelated": 5.0})
        assert record.verdict is TRUE

    def test_invalid_ast_rejected_at_compile_time(self):
        bad = Eventually(Interval(3, 1), signal_atom("x", ">"))
        with pytest.raises(InvalidFormulaError):
            compile_formula(bad)

    def test_invalid_formula_equal_to_a_compiled_one_rejected(self):
        # Interval(True, 2) == Interval(1, 2), with the same hash, and their
        # networks have one text; the network cache may not let the invalid
        # bound through, before or after the equal formula is compiled.
        atom = signal_atom("x", ">")
        bad = Always(Interval(True, 2), atom)
        for cached in (Always(Interval(3, 5), atom), Always(Interval(1, 2), atom)):
            compile_formula(cached)
            with pytest.raises(InvalidFormulaError):
                compile_formula(bad)
        assert bad == Always(Interval(1, 2), atom) and hash(bad) == hash(Always(Interval(1, 2), atom))


# A broken G body that sets both flags from tick 1 on.
CONFLICTING_ALWAYS = "p{k} = n{k} = t >= 1"


class TestFlagConflicts:
    # At tick 1 the broken G reports (T, T). Under & with F's (F, F) the root
    # pair would be (F, T), and under | with F's (T, F) it would be (T, F):
    # a clean verdict either way, so only a check of each operator can see it.
    @pytest.mark.parametrize("connective,y", [("&", 0.0), ("|", 1.0)])
    def test_conflict_raises_even_when_masked_at_the_root(
        self, monkeypatch, fresh_networks, connective, y
    ):
        monkeypatch.setitem(monitor._CELLS, Always, CONFLICTING_ALWAYS)
        m = monitor_for(f"G[0,5] (x > 0) {connective} F[0,5] (y > 0)")
        assert m.step({"x": 1.0, "y": 0.0}).verdict is UNKNOWN
        with pytest.raises(FlagConflictError):
            m.step({"x": 1.0, "y": y})
        # The conflict is state: the tick stays, and each later step raises
        # again without changing a scalar.
        state = m.state_scalars()
        assert m.tick == state[0] == 1
        for _ in range(2):
            with pytest.raises(FlagConflictError):
                m.step({"x": 1.0, "y": y})
            assert m.state_scalars() == state


class TestDecidedRoot:
    def test_decided_steps_repeat_the_verdict(self):
        m = monitor_for("F[0,5] (x > 0)")
        assert m.step({"x": 1.0}).verdict is TRUE
        records = [m.step({"x": value}) for value in (0.0, -1.0, 0.0)]
        assert [r.verdict for r in records] == [TRUE, TRUE, TRUE]
        assert [r.tick for r in records] == [1, 2, 3]
        assert m.tick == 4

    def test_decided_root_steps_no_operator(self):
        m = monitor_for("G[0,5] (x > 0)")
        assert m.step({"x": -1.0}).verdict is FALSE
        state = m.state_scalars()
        assert state == (1, FALSE, False, True)
        for _ in range(3):
            assert m.step({"x": 1.0}).verdict is FALSE
        assert m.state_scalars()[1:] == state[1:]


class Counted(float):
    """A sample value that logs its signal's name each time it is compared
    or multiplied: a network reads every signal once per tick, and the log
    shows which operands it evaluates."""

    def __new__(cls, value, name, log):
        self = super().__new__(cls, value)
        self.name, self.log = name, log
        return self

    def _logged(op):
        def method(self, other):
            self.log.append(self.name)
            return op(self, other)

        return method

    __lt__, __le__ = _logged(float.__lt__), _logged(float.__le__)
    __gt__, __ge__ = _logged(float.__gt__), _logged(float.__ge__)
    __mul__, __rmul__ = _logged(float.__mul__), _logged(float.__rmul__)
    del _logged


def counted(log, **values):
    """A sample of `Counted` values that log into `log`."""
    return {name: Counted(value, name, log) for name, value in values.items()}


class TestDecidedOperator:
    """An operator whose flags are set is not stepped again, and the
    operands only it reads are not evaluated, while the root is still open."""

    def check_decided_operator_and_its_operand_are_skipped(self):
        m = monitor_for("F[0,5] (x - y > 0) & G[0,5] (p > 0)")
        log = []
        assert m.step(counted(log, x=1.0, y=0.0, p=1.0)).verdict is UNKNOWN
        assert sorted(log) == ["p", "x", "y"]
        assert m.state_scalars() == (1, None, True, False, False, False)
        for tick in range(1, 5):
            log = []
            assert m.step(counted(log, x=-1.0, y=0.0, p=1.0)).verdict is UNKNOWN
            assert log == ["p"]
        assert m.state_scalars() == (5, None, True, False, False, False)
        assert m.step({"x": 0.0, "y": 0.0, "p": 1.0}).verdict is TRUE

    def test_decided_operator_and_its_operand_are_skipped(self):
        self.check_decided_operator_and_its_operand_are_skipped()

    def test_the_check_sees_a_network_without_the_guard(self, unguarded_networks):
        # Unguarded, F's body runs on after F has decided: it evaluates
        # `x - y > 0` at every tick, and changes no flag doing so.
        with pytest.raises(AssertionError, match="'x'"):
            self.check_decided_operator_and_its_operand_are_skipped()


class TestEarlyStop:
    def test_early_stop_halts_after_decision(self):
        m = monitor_for("F[0,5] (x > 0)")
        records = run(m, x_trace(0, 0, 1, 0, 0, 0), early_stop=True)
        assert [r.verdict for r in records] == [UNKNOWN, UNKNOWN, TRUE]

    def test_early_stop_consumes_everything_while_unknown(self):
        m = monitor_for("F[0,5] (x > 0)")
        records = run(m, x_trace(0, 0, 0), early_stop=True)
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

    def test_scalar_budgets(self):
        # Documented budgets: the tick and the root latch, then two flags per
        # operator; a regression here means an operator grew history it does
        # not need.
        for text in ("F[1,4] (x > 0)", "G[1,4] (x > 0)", "(p > 0) U[1,4] (q > 0)"):
            assert monitor_for(text).state_scalar_count() == 2 + 2
        three_ops = "G[0,9] (x > 0) & F[0,9] (y > 0) & ((x >= 0) U[0,9] (y > 0))"
        assert monitor_for(three_ops).state_scalar_count() == 2 + 2 + 2 + 2


class TestFork:
    """A network's state is all it carries from one tick to the next:
    `Monitor.fork()` starts a second network at the first one's state, and
    each then steps on its own."""

    def check_forks(self, f, trace: Trace):
        """Fork at every tick of `trace`: each fork must finish the trace
        with the unforked run's verdicts and state, and leave the monitor it
        was forked from as it was."""
        samples = [trace.sample(k) for k in range(len(trace))]
        whole = compile_formula(f)
        want = [whole.step(sample).verdict for sample in samples]
        final = whole.state_scalars()
        m = compile_formula(f)
        for k in range(len(samples) + 1):
            fork = m.fork()
            assert fork.tick == k and fork.state_scalars() == m.state_scalars()
            assert [fork.step(sample).verdict for sample in samples[k:]] == want[k:], (f, k)
            assert fork.state_scalars() == final
            if k < len(samples):
                assert m.step(samples[k]).verdict is want[k]

    def test_fork_at_every_tick_of_property_suite_traces(self):
        rng = random.Random(22)
        for _ in range(300):
            f = random_formula(rng)
            self.check_forks(f, conformance._random_trace(rng, signals_of(f), rng.randrange(0, 51)))


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
