"""Exact atoms: the compiled closures, the atoms inlined in a generated
network, the exact definition and the oracle agree on every sample,
including samples exactly on an atom's boundary."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlobs import cli
from stlobs.formula import (
    COMPARATORS,
    Always,
    And,
    Atom,
    AtomicPredicate,
    Eventually,
    Interval,
    Not,
    Or,
    linear_atom,
    render,
    signal_atom,
)
from stlobs.monitor import compile_atom, compile_formula
from stlobs.oracle import three_valued_eval
from stlobs.parser import parse
from stlobs.trace import Trace
from stlobs.trilean import FALSE, TRUE, UNKNOWN

SIGNALS = ("x", "y", "z")
MAX = sys.float_info.max
BELOW_MAX = math.nextafter(MAX, 0)


def decimal(value: float) -> Fraction:
    """The rational a sample stands for: its shortest round-trip decimal."""
    return Fraction(repr(value))


def closure_agrees(pred: AtomicPredicate, sample: dict) -> None:
    holds = pred.evaluate(sample)
    assert compile_atom(pred)(sample) is holds, (pred, sample)
    # The same atom as the operand of a generated network: F[0,1] is T at
    # tick 0 exactly when the atom holds there, and U otherwise.
    network = compile_formula(Eventually(Interval(0, 1), Atom(pred)))
    assert network.step(sample).verdict is (TRUE if holds else UNKNOWN), (pred, sample)


def verdicts(f, trace: Trace) -> tuple[list, list]:
    monitor = compile_formula(f)
    online = [monitor.step(trace.sample(k)).verdict for k in range(len(trace))]
    offline = [three_valued_eval(f, trace, k) for k in range(len(trace))]
    return online, offline


class TestBoundaryRegression:
    """At x = 0.1, y = 0.2 each atom's exact sum is 0, so `>` fails however
    the constraint is written."""

    ATOMS = ("x > 0.1", "3*x > 0.3", "x + y > 0.3")

    @pytest.mark.parametrize("atom", ATOMS)
    def test_check_and_oracle_read_the_decimals(self, atom, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        path.write_text("x,y\n0.1,0.2\n")
        for command in ("check", "oracle"):
            code = cli.main([command, "-f", atom, "--trace", str(path)])
            assert capsys.readouterr().out == "tick=0 verdict=F pos=0 neg=1\n"
            assert code == cli.EXIT_FALSE

    @pytest.mark.parametrize("atom", ATOMS)
    def test_library_paths_agree(self, atom):
        f = parse(atom, ("x", "y"))
        sample = {"x": 0.1, "y": 0.2}
        assert f.predicate.evaluate(sample) is False
        assert compile_atom(f.predicate)(sample) is False
        assert three_valued_eval(f, Trace(("x", "y"), ((0.1, 0.2),)), 0) is FALSE


class TestClosureOnTheBoundary:
    @pytest.mark.parametrize("comparator", COMPARATORS)
    @pytest.mark.parametrize("coef", [Fraction(1), Fraction(-1), Fraction(-3), Fraction(7, 10)])
    @pytest.mark.parametrize(
        "t",
        [Fraction(text) for text in ("0.1", "0.3", "1/3", "-2.5", "0", "1e-320", "123456789.123456789")]
        + [Fraction(2, 3) * 10**300],
    )
    def test_single_signal_threshold_and_neighbours(self, comparator, coef, t):
        # coef * x - coef * t <cmp> 0, i.e. x against t.
        pred = AtomicPredicate((("x", coef),), -coef * t, comparator)
        d = float(t)
        for value in (d, math.nextafter(d, math.inf), math.nextafter(d, -math.inf), -d):
            closure_agrees(pred, {"x": value})

    @pytest.mark.parametrize("comparator", COMPARATORS)
    @pytest.mark.parametrize(
        "threshold",
        [10**400, -(10**400), 2**1024 - 2**970, Fraction(10**400, 3), MAX],
    )
    def test_thresholds_at_and_beyond_the_float_range(self, comparator, threshold):
        pred = AtomicPredicate((("x", Fraction(1)),), -Fraction(threshold), comparator)
        for value in (MAX, -MAX, 0.0, 1.0, 5e-324):
            closure_agrees(pred, {"x": value})

    @pytest.mark.parametrize("comparator", COMPARATORS)
    @pytest.mark.parametrize(
        "coeffs,constant,sample",
        [
            ({"x": 1, "y": 1}, 0, {"x": MAX, "y": MAX}),
            ({"x": 1, "y": -1}, 0, {"x": MAX, "y": -MAX}),
            ({"x": 1, "y": 1}, 0, {"x": MAX, "y": -MAX}),
            ({"x": 2, "y": -1}, -MAX, {"x": MAX, "y": MAX}),
            ({"x": 1, "y": 1}, Fraction(-3, 10), {"x": 0.1, "y": 0.2}),
            ({"x": 10, "y": 10}, -3, {"x": 0.1, "y": 0.2}),
            ({"x": 2, "y": Fraction(-3, 10), "z": -1}, Fraction(1, 3), {"x": 1.5, "y": 0.5, "z": 4 / 3}),
            ({"x": 1, "y": 1}, 0, {"x": 5e-324, "y": -5e-324}),
            ({"x": 1, "y": 1}, Fraction(-1, 10**330), {"x": 5e-324, "y": 0.0}),
            ({"x": Fraction(1, 10**400), "y": 1}, 0, {"x": 1e300, "y": -1e-100}),
            ({"x": 10**400, "y": 1}, 0, {"x": 1e-300, "y": -1e99}),
            ({"x": 1, "y": 0}, Fraction(-1, 10), {"x": 0.1, "y": MAX}),
            # An exact 0 whose float sum is 1.8 unit roundoffs of the sum of
            # magnitudes away from 0, beyond a one-roundoff bound.
            (
                {"x": Fraction(-54, 25), "y": Fraction(-1811, 100), "z": Fraction(1133, 9)},
                Fraction(73248974192988368277, 2000000000),
                {"x": -116733914.71428572, "y": 134211050.66666667, "z": -273622799.6666667},
            ),
            # Subnormal samples: the float sum is one subnormal step below 0,
            # the exact sum (5e-322 - 5e-322) is 0.
            ({"x": 100, "y": -1}, 0, {"x": 5e-324, "y": 101 * 5e-324}),
        ],
    )
    def test_multi_signal_sums(self, comparator, coeffs, constant, sample):
        closure_agrees(linear_atom(coeffs, comparator, constant).predicate, sample)


class TestGeneratedSource:
    """Signal names and thresholds reach a network's source as text; any name
    and any finite threshold must come back unchanged."""

    NAMES = ("vélo", "Straße", "µ", "x'] or True or s['x", "q\\\"\n")
    THRESHOLDS = ("-0.0", "5e-324", "1.7976931348623157e308")

    @pytest.mark.parametrize("comparator", COMPARATORS)
    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_names_and_extreme_thresholds(self, comparator, name, threshold):
        pred = signal_atom(name, comparator, Fraction(threshold)).predicate
        d = float(threshold)
        near = (d, -d, math.nextafter(d, math.inf), math.nextafter(d, -math.inf))
        for value in (*near, 0.0, -0.0, MAX, -MAX):
            if math.isfinite(value):
                closure_agrees(pred, {name: value})

    @pytest.mark.parametrize(
        "rows,expected",
        [
            # No witness at tick 0 (on both thresholds), one at tick 1, and
            # mu reaches MAX at tick 2.
            ([(-5e-324, 5e-324, BELOW_MAX), (-5e-324, 1e-323, 0.0), (-0.0, 0.0, MAX)], "UUF"),
            ([(-5e-324, 5e-324, BELOW_MAX), (-5e-324, 1e-323, 0.0), (-0.0, 0.0, -MAX)], "UUT"),
            # vélo = -0.0 is on its threshold, a witness at tick 0.
            ([(-0.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (-1.0, 0.0, BELOW_MAX)], "UUT"),
            ([(5e-324, 0.0, MAX)], "F"),
        ],
    )
    def test_one_formula_over_non_ascii_names(self, rows, expected):
        # F[0,2] (vélo >= -0.0 | Straße > 5e-324) & G[0,2] !(µ = MAX)
        names = ("vélo", "Straße", "µ")
        vélo, straße, µ = (
            signal_atom(name, cmp, Fraction(t))
            for name, cmp, t in zip(names, (">=", ">", "="), self.THRESHOLDS)
        )
        f = And(Eventually(Interval(0, 2), Or(vélo, straße)), Always(Interval(0, 2), Not(µ)))
        online, offline = verdicts(f, Trace(names, tuple(rows)))
        assert "".join(map(str, online)) == expected
        assert online == offline


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
small_rationals = st.builds(
    Fraction,
    st.integers(-40, 40).filter(bool),
    st.sampled_from((1, 2, 3, 7, 10, 100)),
)


@st.composite
def boundary_atoms(draw, values=finite_floats):
    """An atom over one to three signals and a sample; half the time the
    constant puts the sample's exact sum at 0 or one tiny step beside it."""
    names = draw(st.lists(st.sampled_from(SIGNALS), min_size=1, max_size=3, unique=True))
    coeffs = {name: draw(small_rationals) for name in names}
    sample = {name: draw(values) for name in SIGNALS}
    if draw(st.booleans()):
        offset = draw(st.sampled_from((0, 0, Fraction(1, 10**20), Fraction(-1, 10**330))))
        constant = offset - sum(c * decimal(sample[n]) for n, c in coeffs.items())
    else:
        constant = draw(small_rationals)
    comparator = draw(st.sampled_from(COMPARATORS))
    return linear_atom(coeffs, comparator, constant), sample


class TestClosureMatchesExactDefinition:
    @given(boundary_atoms())
    def test_any_finite_sample(self, case):
        atom, sample = case
        closure_agrees(atom.predicate, sample)

    @given(boundary_atoms(st.integers(-300, 300).map(lambda k: k / 10)))
    def test_decimal_grid_samples(self, case):
        atom, sample = case
        closure_agrees(atom.predicate, sample)


tenths = st.integers(-50, 50).map(lambda k: k / 10)


@st.composite
def atom_formulas(draw):
    """G over a short window of a boundary-prone atom, with its trace."""
    atom, first = draw(boundary_atoms(tenths))
    rows = [tuple(first[n] for n in SIGNALS)]
    rows += draw(st.lists(st.tuples(tenths, tenths, tenths), max_size=3))
    f = Always(Interval(0, len(rows)), atom) if draw(st.booleans()) else atom
    return f, Trace(SIGNALS, tuple(rows))


def _scaled(f, scale: Fraction):
    if isinstance(f, Always):
        return Always(f.window, _scaled(f.child, scale))
    pred = f.predicate
    terms = tuple((name, coef * scale) for name, coef in pred.terms)
    return Atom(AtomicPredicate(terms, pred.constant * scale, pred.comparator))


class TestRewritingKeepsVerdicts:
    @settings(max_examples=60, deadline=None)
    @given(
        atom_formulas(),
        st.fractions(min_value=Fraction(1, 10**6), max_value=10**6).filter(lambda s: s > 0),
    )
    def test_positive_scaling(self, case, scale):
        f, trace = case
        online, offline = verdicts(f, trace)
        assert online == offline
        assert verdicts(_scaled(f, scale), trace) == (online, offline)

    @settings(max_examples=60, deadline=None)
    @given(atom_formulas())
    def test_render_parse_round_trip(self, case):
        f, trace = case
        again = parse(render(f), SIGNALS)
        assert verdicts(again, trace) == verdicts(f, trace)
