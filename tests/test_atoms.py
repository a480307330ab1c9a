"""Exact atoms: the atoms inlined in a generated network, the exact
definition and the oracle agree on every sample, including samples exactly
on an atom's boundary."""

import math
import sys
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stlobs import cli, conformance, monitor
from stlobs.conformance import property_suite
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
    TEMPORAL_NODES,
    children,
    compare_with_zero,
    linear_atom,
    render,
    signal_atom,
)
from stlobs.monitor import compile_formula
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


def atom_test(pred: AtomicPredicate, name: str) -> tuple[str, list]:
    """The atom's test over sample `s`, and the values it reads as `c0`,
    `c1`, ..."""
    constants = []

    def read(signal: str) -> str:
        return f"s[{signal!r}]"

    text = monitor._atom_test(pred, name, read, partial(monitor._bind, constants))
    return text, constants


def closure_agrees(pred: AtomicPredicate, sample: dict) -> None:
    holds = pred.evaluate(sample)
    # The atom as the operand of a generated network: F[0,1] is T at tick 0
    # exactly when the atom holds there, and U otherwise.
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
        assert compile_formula(f).step(sample).verdict is FALSE
        assert three_valued_eval(f, Trace(("x", "y"), ((0.1, 0.2),)), 0) is FALSE


class TestClosureOnTheBoundary:
    @pytest.mark.parametrize("comparator", COMPARATORS)
    @pytest.mark.parametrize("coef", [Fraction(1), Fraction(-1), Fraction(-3), Fraction(7, 10)])
    @pytest.mark.parametrize(
        "t",
        [Fraction(text) for text in ("0.1", "0.3", "1/3", "-2.5", "0", "1e-320", "123456789.123456789")]
        + [Fraction(2, 3) * 10**300, Fraction(5e-324), Fraction(MAX), Fraction(-MAX)],
    )
    def test_single_signal_threshold_and_neighbours(self, comparator, coef, t):
        # coef * x - coef * t <cmp> 0, i.e. x against t. An order comparison
        # that holds at d reads a constant moved one float past d, which is
        # infinite for d = MAX or -MAX; the samples reach both sides of it.
        pred = AtomicPredicate((("x", coef),), -coef * t, comparator)
        d = float(t)
        near = (d, math.nextafter(d, math.inf), math.nextafter(d, -math.inf), -d)
        for value in (*near, 0.0, -0.0, 5e-324, -5e-324, MAX, -MAX):
            if math.isfinite(value):
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
    """Signal names reach a network's source as text, and thresholds its
    factory as arguments; any name and any finite threshold must come back
    unchanged."""

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


class TestInlinedMultiSignalAtoms:
    """A multi-signal atom is one expression in a network: the float
    filter, and the exact test `pred.evaluate` where the filter cannot
    decide or cannot be built."""

    @pytest.mark.parametrize(
        "coeffs,constant",
        [
            ({"x": 10**400, "y": 1}, 0),  # a coefficient beyond the float range
            ({"x": 1, "y": -1}, -(10**400)),  # the constant beyond it
            ({"x": 10**308, "y": 10**308}, 0),  # the underflow term beyond it
        ],
        ids=["coefficient", "constant", "underflow-term"],
    )
    def test_beyond_the_float_range_the_text_is_the_exact_call_alone(self, coeffs, constant):
        pred = linear_atom(coeffs, ">", constant).predicate
        assert atom_test(pred, "a0") == ("c0(s)", [pred.evaluate])
        for sample in ({"x": 1e-300, "y": -1e99}, {"x": -1.0, "y": MAX}, {"x": 0.0, "y": 0.0}):
            closure_agrees(pred, sample)

    def test_filter_text(self):
        # The exact test, the constant, the coefficients and the bound's two
        # terms are read by name, in that order.
        pred = linear_atom({"x": 1, "y": -1}, ">", -100).predicate
        text, constants = atom_test(pred, "a3")
        assert constants == [pred.evaluate, -100.0, 1.0, -1.0, 6.661338147750939e-16, 7e-323]
        assert text == (
            "(True if (a3t := c1 + (a3q0 := c2 * s['x']) + (a3q1 := c3 * s['y'])) "
            "> (a3b := c4 * (abs(c1) + abs(a3q0) + abs(a3q1)) + c5) "
            "else False if a3t < -a3b else c0(s))"
        )

    @pytest.mark.parametrize("comparator", COMPARATORS)
    @pytest.mark.parametrize(
        "coeffs,constant,sample",
        [
            # Exact sums 0 whose float sums are 5.6e-17 and 0.
            ({"x": 1, "y": 1}, Fraction(-3, 10), {"x": 0.1, "y": 0.2}),
            ({"x": 10, "y": 10, "z": -1}, 0, {"x": 0.1, "y": 0.2, "z": 3.0}),
        ],
    )
    def test_boundary_samples_through_step(self, comparator, coeffs, constant, sample):
        pred = linear_atom(coeffs, comparator, constant).predicate
        holds = pred.evaluate(sample)
        assert holds is compare_with_zero(0, comparator)
        # Anchored (read once, at tick 0) and as a G operand; inlined in both.
        assert compile_formula(Atom(pred)).step(sample).verdict is (TRUE if holds else FALSE)
        always = compile_formula(Always(Interval(0, 1), Atom(pred)))
        assert always.step(sample).verdict is (UNKNOWN if holds else FALSE)


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


# The exact definition itself, against the rational sum it stands for.
sample_values = st.one_of(
    finite_floats,  # subnormals included
    st.sampled_from((0.0, -0.0, MAX, -MAX, 1e16, 1e-5)),
    st.integers(-(2**64), 2**64),
)
coefficients = st.one_of(
    st.integers(-50, 50),
    small_rationals,
    st.sampled_from((10**400, -(10**400), Fraction(10**400, 3), Fraction(-(10**400), 3))),
)


@st.composite
def exact_cases(draw):
    """Terms over one to three signals with their values, a constant and a
    comparator; half the time the constant puts the exact sum at 0 or one
    tiny step beside it."""
    names = draw(st.lists(st.sampled_from(SIGNALS), min_size=1, max_size=3, unique=True))
    terms = tuple((name, draw(coefficients)) for name in names)
    sample = {name: draw(sample_values) for name in names}
    total = sum(coef * decimal(sample[name]) for name, coef in terms)
    if draw(st.booleans()):
        constant = draw(st.sampled_from((0, 0, Fraction(1, 10**20), Fraction(-1, 10**330)))) - total
    else:
        constant = draw(st.one_of(st.integers(-(10**20), 10**20), small_rationals))
    return AtomicPredicate(terms, constant, draw(st.sampled_from(COMPARATORS))), sample


class TestExactDefinition:
    """`evaluate` works on integers alone; its truth is the sign of the
    rational sum `constant + sum(coef * decimal(v))`."""

    @settings(max_examples=1000)
    @given(exact_cases())
    def test_evaluate_is_the_sign_of_the_rational_sum(self, case):
        pred, sample = case
        total = pred.constant + sum(coef * decimal(sample[name]) for name, coef in pred.terms)
        assert pred.evaluate(sample) is compare_with_zero(total, pred.comparator), (pred, sample)

    @pytest.mark.parametrize("comparator", COMPARATORS)
    @pytest.mark.parametrize("value", [0.0, -0.0, MAX, -MAX, 5e-324, 1e16, 1e-5, 123456789, -(2**80)])
    def test_extreme_values_on_their_own_threshold(self, comparator, value):
        for coef in (1, -3, 10**400, Fraction(10**400, 3)):
            on = AtomicPredicate((("x", coef),), -coef * decimal(value), comparator)
            assert on.evaluate({"x": value}) is compare_with_zero(0, comparator)


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


# Atom text against the same atom built in `Fraction`s.
literals = st.one_of(
    st.integers(0, 1000).map(lambda n: (str(n), Fraction(n))),
    st.tuples(st.integers(0, 99), st.text("0123456789", min_size=1, max_size=5)).map(
        lambda wd: (f"{wd[0]}.{wd[1]}", Fraction(int(f"{wd[0]}{wd[1]}"), 10 ** len(wd[1])))
    ),
    st.tuples(st.integers(0, 99), st.integers(1, 60), st.sampled_from(("/", " / "))).map(
        lambda nds: (f"{nds[0]}{nds[2]}{nds[1]}", Fraction(nds[0], nds[1]))
    ),
)


@st.composite
def sides(draw):
    """One side of an atom, as text with its coefficients and constant: a
    sum of constants, `literal*name` and bare names."""
    coeffs: dict[str, Fraction] = {}
    constant, parts = Fraction(0), []
    for k in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from((1, -1))) if k else draw(st.sampled_from((1, 1, -1)))
        kind = draw(st.sampled_from(("number", "product", "name")))
        text, value = draw(literals) if kind != "name" else ("", Fraction(1))
        name = draw(st.sampled_from(SIGNALS)) if kind != "number" else None
        term = text if name is None else name if kind == "name" else f"{text}*{name}"
        if k or sign < 0:
            parts.append("-" if sign < 0 else "+")
        parts.append(term)
        if name is None:
            constant += sign * value
        else:
            coeffs[name] = coeffs.get(name, 0) + sign * value
    return " ".join(parts), coeffs, constant


@st.composite
def atom_texts(draw):
    """Atom text over at least one signal, and the same atom built in
    `Fraction`s, `sum(coef * signal) + constant <cmp> 0`."""
    (left, lcoeffs, lconst), (right, rcoeffs, rconst) = draw(sides()), draw(sides())
    assume(lcoeffs or rcoeffs)
    comparator = draw(st.sampled_from((">", ">=", "<", "<=", "=", "==", "!=")))
    coeffs = dict(lcoeffs)
    for name, coef in rcoeffs.items():
        coeffs[name] = coeffs.get(name, 0) - coef
    built = AtomicPredicate(tuple(sorted(coeffs.items())), lconst - rconst, comparator.replace("==", "="))
    return f"{left} {comparator} {right}", built


class TestParsedIntegerForm:
    """The parser reads numbers as int ratios and emits each atom in integer
    form: the `integer_form` of the same atom built in `Fraction`s, with the
    same truth on every sample."""

    @settings(max_examples=500, deadline=None)
    @given(atom_texts(), st.lists(tenths, min_size=len(SIGNALS), max_size=len(SIGNALS)))
    def test_parsed_atom_is_the_integer_form(self, case, values):
        text, built = case
        parsed = parse(text, SIGNALS).predicate
        assert (parsed.terms, parsed.constant) == built.integer_form, text
        assert {type(n) for n in (parsed.constant, *dict(parsed.terms).values())} == {int}
        samples = [dict(zip(SIGNALS, values))]
        # Each signal with a coefficient, on the float nearest its threshold
        # given the others' values, and one float to either side.
        for name, coef in built.terms:
            if coef:
                rest = sum(c * decimal(samples[0][n]) for n, c in built.terms if n != name)
                at = float(-(built.constant + rest) / coef)
                for value in (at, math.nextafter(at, -math.inf), math.nextafter(at, math.inf)):
                    samples.append(dict(samples[0], **{name: value}))
        for sample in samples:
            total = built.constant + sum(c * decimal(sample[n]) for n, c in built.terms)
            holds = compare_with_zero(total, built.comparator)
            assert parsed.evaluate(sample) is built.evaluate(sample) is holds, (text, sample)
            closure_agrees(parsed, sample)


def rational_linear_atom(coeffs, comparator, constant=0):
    """An atom as `linear_atom` built it before atoms were put in integer
    form: its numbers as `Fraction`s, unscaled."""
    terms = tuple(sorted((name, Fraction(c)) for name, c in coeffs.items()))
    return Atom(AtomicPredicate(terms, Fraction(constant), comparator))


def rational_signal_atom(name, comparator, threshold=0):
    return rational_linear_atom({name: 1}, comparator, -Fraction(threshold))


def map_atoms(f, fn):
    """`f` with each atom replaced by `fn(atom)`."""
    if isinstance(f, Atom):
        return fn(f)
    rebuilt = tuple(map_atoms(child, fn) for child in children(f))
    return type(f)(f.window, *rebuilt) if isinstance(f, TEMPORAL_NODES) else type(f)(*rebuilt)


def over_thirty(atom: Atom) -> Atom:
    """The atom with its numbers over 30, as `Fraction`s. The benchmark's
    rational atom `60*x - 9*y - 30*z <= -10` becomes the one its formula
    spells, `2*x - 3/10*y + 1/3 <= z`; no other atom's integer form changes."""
    pred = atom.predicate
    terms = tuple((name, Fraction(c, 30)) for name, c in pred.terms)
    built = AtomicPredicate(terms, Fraction(pred.constant, 30), pred.comparator)
    assert built.integer_form == (pred.terms, pred.constant)
    return Atom(built)


class TestIntegerFormChangesNoCode:
    """A network compiled from an atom in integer form has the source and
    the numbers of one compiled from the same atom built in `Fraction`s: the
    network reads only the integer form, which is the same."""

    WORKLOADS = (
        (
            "G[0,199999] (speed < 20 | brake > 0) & F[0,199999] (gear >= 6) "
            "& ((speed >= 0) U[0,199999] (gear >= 6))",
            ("speed", "brake", "gear"),
        ),
        (
            "G[0,99999] (speed < 20 | brake > 0) & F[0,99999] (gear >= 6) "
            "& ((speed >= 0) U[0,99999] (gear >= 6))",
            ("speed", "brake", "gear"),
        ),
        (
            "(F[0,100000] (x - y > 100) | ((x + y >= -100) U[50,100000] (x - y > 100))) "
            "-> G[10,199999] (2*x - 3/10*y + 1/3 <= z)",
            ("x", "y", "z"),
        ),
    )

    @staticmethod
    def source(f) -> tuple:
        """The network's text and every argument of its factory but the
        exact tests, bound methods of the atoms themselves."""
        source = monitor._NetworkSource(f)
        return source.text, [arg for arg in source.args if not callable(arg)]

    def test_the_property_suite_formulas(self, monkeypatch):
        """The first 500 cases of `property_suite(42, ...)`, with each formula
        that a case compiles drawn once with atoms in integer form and once
        with the `Fraction` atoms drawn before."""

        def compiled(rational: bool) -> list:
            if rational:
                monkeypatch.setattr(conformance, "linear_atom", rational_linear_atom)
                monkeypatch.setattr(conformance, "signal_atom", rational_signal_atom)
            formulas = []
            report = property_suite(42, 500, lambda f: formulas.append(f) or compile_formula(f))
            assert report.passed
            return formulas

        integer, rational = compiled(False), compiled(True)
        assert len(integer) == len(rational) >= 4 * 500
        assert any(f != g for f, g in zip(integer, rational))
        for f, g in zip(integer, rational):
            assert self.source(f) == self.source(g), render(f)

    @pytest.mark.parametrize("text,signals", WORKLOADS)
    def test_the_benchmark_formulas(self, text, signals):
        f = parse(text, signals)
        assert self.source(f) == self.source(map_atoms(f, over_thirty))
