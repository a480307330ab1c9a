"""Formula AST, parsing, validation, horizon, and rendering."""

import copy
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlobs.conformance import random_formula
from stlobs.errors import (
    FormulaSyntaxError,
    IntervalBoundError,
    NestedOperatorError,
    TraceFormatError,
    UnknownSignalError,
)
from stlobs.formula import (
    Always,
    And,
    Atom,
    AtomicPredicate,
    Eventually,
    Implies,
    Interval,
    Not,
    Or,
    Until,
    horizon,
    linear_atom,
    render,
    signal_atom,
    signals_of,
    validate,
    with_windows,
)
from stlobs.parser import parse
from stlobs.trace import Trace

SIGNALS = ("x", "y", "p", "q")


def p(text: str):
    return parse(text, SIGNALS)


class TestAtoms:
    def test_signal_atom_normalization(self):
        atom = signal_atom("x", "<=", 2)
        assert atom.predicate.terms == (("x", Fraction(1)),)
        assert atom.predicate.constant == Fraction(-2)
        assert atom.predicate.comparator == "<="

    def test_linear_atom_sorts_terms(self):
        """Terms sorted by name, in integer form: -x + 2*y + 1/2 > 0 is
        -2*x + 4*y + 1 > 0, in ints."""
        pred = linear_atom({"y": 2, "x": -1}, ">", Fraction(1, 2)).predicate
        assert (pred.terms, pred.constant) == ((("x", -2), ("y", 4)), 1)
        assert {type(n) for n in (pred.constant, *dict(pred.terms).values())} == {int}

    @pytest.mark.parametrize("threshold", [Fraction(-1, 2), "-1/2", "-0.5", -0.5])
    def test_every_spelling_of_a_threshold_builds_one_atom(self, threshold):
        assert signal_atom("x", ">", threshold) == p("x > -1/2") == p("2*x > -1")
        assert signal_atom("x", ">", threshold).predicate.terms == (("x", 2),)

    @pytest.mark.parametrize(
        "comparator,value,expected",
        [
            (">", 0.5, True), (">", 0.0, False),
            (">=", 0.0, True), ("<", 0.0, False),
            ("<=", 0.0, True), ("=", 0.0, True),
            ("=", 0.1, False), ("!=", 0.1, True),
        ],
    )
    def test_evaluate_against_zero_threshold(self, comparator, value, expected):
        atom = signal_atom("x", comparator, 0)
        assert atom.predicate.evaluate({"x": value}) is expected

    def test_evaluate_multi_term(self):
        # The constant sits on the left of "2x - y - 3 <= 0", so this is
        # the normalized form of "2x - y <= 3".
        atom = linear_atom({"x": 2, "y": -1}, "<=", -3)
        assert atom.predicate.evaluate({"x": 1.0, "y": 0.0})
        assert not atom.predicate.evaluate({"x": 2.5, "y": 1.0})


class TestParse:
    def test_atom_moves_everything_left(self):
        f = p("2*x + 1 <= y")
        assert isinstance(f, Atom)
        assert f.predicate.terms == (("x", Fraction(2)), ("y", Fraction(-1)))
        assert f.predicate.constant == Fraction(1)
        assert f.predicate.comparator == "<="

    def test_double_equals_normalizes(self):
        assert p("x == 1") == p("x = 1")

    def test_zero_coefficient_terms_kept(self):
        f = p("x - x >= 0")
        assert isinstance(f, Atom)
        assert f.predicate.terms == (("x", Fraction(0)),)

    def test_temporal_prefix_operators(self):
        f = p("G[0,5] (x > 0)")
        assert isinstance(f, Always)
        assert f.window == Interval(0, 5)
        g = p("F[1,3] (x > 0)")
        assert isinstance(g, Eventually)
        assert g.window == Interval(1, 3)

    def test_until_infix(self):
        f = p("(p > 0) U[2,4] (q >= 1)")
        assert isinstance(f, Until)
        assert f.window == Interval(2, 4)
        assert isinstance(f.left, Atom) and isinstance(f.right, Atom)

    def test_word_and_symbol_connectives_agree(self):
        assert p("not (x>0) and (y<1) or (p=0)") == p("!(x>0) & (y<1) | (p==0)")

    def test_precedence_and_binds_tighter_than_or(self):
        f = p("x>0 & y>0 | p>0")
        assert isinstance(f, Or) and isinstance(f.left, And)

    def test_precedence_until_between_or_and_implies(self):
        f = p("x>0 | y>0 U[0,1] p>0 -> q>0")
        assert isinstance(f, Implies)
        assert isinstance(f.left, Until)
        assert isinstance(f.left.left, Or)

    def test_implication_right_associative(self):
        f = p("x>0 -> y>0 -> p>0")
        assert isinstance(f, Implies) and isinstance(f.right, Implies)

    def test_until_not_associative(self):
        with pytest.raises(FormulaSyntaxError):
            p("x>0 U[0,1] y>0 U[0,2] p>0")

    def test_boolean_combination_above_temporal(self):
        f = p("G[0,2](x>0) & F[1,3](y>0)")
        assert isinstance(f, And)
        assert isinstance(f.left, Always) and isinstance(f.right, Eventually)

    def test_negation_of_temporal(self):
        f = p("!G[0,2] (x>0)")
        assert isinstance(f, Not) and isinstance(f.child, Always)

    def test_rational_and_decimal_literals(self):
        assert p("x > 0.25") == p("x > 1/4")


class TestParseErrors:
    def test_unknown_signal_with_column(self):
        with pytest.raises(UnknownSignalError) as info:
            p("x > 0 & zz > 1")
        assert info.value.column == 9

    def test_empty_interval(self):
        with pytest.raises(IntervalBoundError):
            p("G[2,2] (x>0)")

    def test_reversed_interval(self):
        with pytest.raises(IntervalBoundError):
            p("F[3,1] (x>0)")

    def test_negative_bound(self):
        with pytest.raises(IntervalBoundError):
            p("G[-1,2] (x>0)")

    def test_fractional_bound(self):
        with pytest.raises(IntervalBoundError):
            p("G[0.5,2] (x>0)")

    def test_nested_temporal_prefix(self):
        with pytest.raises(NestedOperatorError) as info:
            p("G[0,2] F[0,1] (x>0)")
        assert info.value.outer == "G" and info.value.inner == "F"

    def test_nested_temporal_in_until_operand(self):
        with pytest.raises(NestedOperatorError) as info:
            p("(x>0) U[0,2] F[0,1] (y>0)")
        assert info.value.outer == "U"

    def test_nested_in_negated_operand(self):
        with pytest.raises(NestedOperatorError):
            p("G[0,2] !F[0,1] (x>0)")

    def test_signal_free_comparison(self):
        with pytest.raises(FormulaSyntaxError):
            p("3 > 2")

    def test_truncated_input(self):
        with pytest.raises(FormulaSyntaxError) as info:
            p("x >")
        assert info.value.column == 4

    def test_trailing_garbage(self):
        with pytest.raises(FormulaSyntaxError):
            p("x > 0 )")

    def test_empty_input(self):
        with pytest.raises(FormulaSyntaxError):
            p("")

    @pytest.mark.parametrize(
        "text,column",
        [("x > 1/0", 5), ("0/0*x > 1", 1), ("G[0,1/0] x > 0", 5), ("x > 2 / 0", 5)],
    )
    def test_zero_denominator(self, text, column):
        with pytest.raises(FormulaSyntaxError, match="zero denominator") as info:
            p(text)
        assert info.value.column == column

    @pytest.mark.parametrize("text", ["x > 1/2", "x > 1 / 2", "x > 1\t/\t2", "x > 1\n/2", "x > 0.50", "x > 2/4"])
    def test_any_whitespace_around_a_fraction_bar(self, text):
        """The tokenizer allows any whitespace around `/`, and each
        spelling of one half is the same number."""
        assert p(text) == p("2*x > 1")


class TestValidate:
    def test_parser_output_is_valid(self):
        assert validate(p("G[0,2](x>0) -> (p>0) U[1,4] (q<1)")) == []

    def test_nested_operator_path(self):
        bad = Always(Interval(0, 2), Eventually(Interval(0, 1), signal_atom("x", ">")))
        violations = validate(bad)
        assert [v.code for v in violations] == ["nested-operator"]
        assert violations[0].path == "child"

    def test_interval_order(self):
        bad = Eventually(Interval(3, 3), signal_atom("x", ">"))
        assert [v.code for v in validate(bad)] == ["interval-order"]

    def test_interval_negative(self):
        bad = Eventually(Interval(-1, 3), signal_atom("x", ">"))
        assert "interval-negative" in [v.code for v in validate(bad)]

    def test_interval_non_integer(self):
        bad = Eventually(Interval(0.5, 3), signal_atom("x", ">"))
        assert [v.code for v in validate(bad)] == ["interval-integer"]

    def test_bad_comparator(self):
        bad = Atom(AtomicPredicate((("x", Fraction(1)),), Fraction(0), "~"))
        assert "bad-comparator" in [v.code for v in validate(bad)]

    def test_empty_atom(self):
        bad = Atom(AtomicPredicate((), Fraction(0), ">"))
        assert "empty-atom" in [v.code for v in validate(bad)]

    def test_non_rational_coefficient(self):
        bad = Atom(AtomicPredicate((("x", 0.5),), Fraction(0), ">"))
        assert "atom-coefficient" in [v.code for v in validate(bad)]

    @pytest.mark.parametrize("value", [True, 1.0, Decimal("1"), "1"], ids=repr)
    def test_only_ints_and_fractions_are_rational(self, value):
        # A bool is an int, and 1.0, Decimal("1") and "1" each equal or spell
        # one; none is a coefficient or a constant.
        for pred in (AtomicPredicate((("x", value),), 0, ">"), AtomicPredicate((("x", 1),), value, ">")):
            assert [v.code for v in validate(Atom(pred))] == ["atom-coefficient"]
        for number in (1, -(10**400), Fraction(1, 3)):
            assert validate(Atom(AtomicPredicate((("x", number),), number, ">"))) == []

    def test_paths_are_dotted(self):
        bad = And(
            signal_atom("x", ">"),
            Or(signal_atom("y", ">"), Eventually(Interval(2, 1), signal_atom("x", ">"))),
        )
        violations = validate(bad)
        assert violations and violations[0].path == "right.right"


class TestHorizon:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x > 0", 0),
            ("!(x > 0)", 0),
            ("G[0,5] (x>0)", 5),
            ("F[2,4] (x>0)", 4),
            ("(x>0) U[1,3] (y>0)", 3),
            ("G[0,5](x>0) & F[0,9](y>0)", 9),
            ("G[0,5](x>0) -> (x>0)", 5),
        ],
    )
    def test_horizon(self, text, expected):
        assert horizon(p(text)) == expected


class TestWithWindows:
    def test_each_window_replaced_in_formula_order(self):
        f = p("G[0,2] (x > 0) & ((x > 0) U[1,3] (y > 0)) | !F[2,5] (y < 1 & p > 0) -> q > 0")
        seen = []

        def widen(window):
            seen.append(window)
            return Interval(window.lower, window.upper + 10)

        widened = with_windows(f, widen)
        assert seen == [Interval(0, 2), Interval(1, 3), Interval(2, 5)]
        assert render(widened) == (
            "G[0,12] x > 0 & (x > 0 U[1,13] y > 0) | !F[2,15] (y < 1 & p > 0) -> q > 0"
        )

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_identity_and_erasure(self, seed):
        f = random_formula(random.Random(seed))
        assert with_windows(f, lambda window: window) == f
        erased = with_windows(f, lambda window: None)
        assert with_windows(erased, lambda window: None) == erased
        assert signals_of(erased) == signals_of(f)


class TestRender:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x>0", "x > 0"),
            ("G[0,5](x > 0)", "G[0,5] x > 0"),
            ("((x>0))", "x > 0"),
            ("(x>0 | y>0) & p>0", "(x > 0 | y > 0) & p > 0"),
            ("x > -1/2", "2*x > -1"),
            ("2*x - y <= 10", "2*x - y <= 10"),
            ("!(x > 0.25)", "!4*x > 1"),
        ],
    )
    def test_render(self, text, expected):
        assert render(p(text)) == expected

    def test_a_rational_atom_parses_back_in_integer_form(self):
        pred = AtomicPredicate((("x", Fraction(1, 2)), ("y", Fraction(-2, 3))), Fraction(1, 4), ">=")
        assert render(Atom(pred)) == "1/2*x - 2/3*y >= -1/4"
        again = p(render(Atom(pred))).predicate
        assert (again.terms, again.constant) == pred.integer_form == ((("x", 6), ("y", -8)), 3)

    def test_signals_of(self):
        assert signals_of(p("(x>0) U[0,2] (q>0-1*y)")) == ("q", "x", "y")

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=300, deadline=None)
    def test_parse_render_roundtrip(self, seed):
        f = random_formula(random.Random(seed))
        text = render(f)
        assert parse(text, ("x", "y")) == f
        assert render(parse(text, ("x", "y"))) == text


class CountedHash:
    """A field value that counts how often it is hashed, in any copy."""

    calls = 0

    def __hash__(self):
        CountedHash.calls += 1
        return 7

    def __eq__(self, other):
        return isinstance(other, CountedHash)

    def __repr__(self):
        return "CountedHash()"


# repr(parse(...)) of the formula below, as the dataclass nodes printed it.
# Integer literals and the coefficient 1 of a bare name parse as ints; a
# decimal or a fraction as a Fraction.
REPR_TEXT = "x > 1/2 & !(y <= 0.25) -> F[1,2] p - 2*q >= 0"
REPR = (
    "Implies(left=And(left=Atom(predicate=AtomicPredicate(terms=(('x', 2),), "
    "constant=-1, comparator='>')), right=Not(child=Atom(predicate="
    "AtomicPredicate(terms=(('y', 4),), constant=-1, "
    "comparator='<=')))), right=Eventually(window=Interval(lower=1, upper=2), "
    "child=Atom(predicate=AtomicPredicate(terms=(('p', 1), ('q', -2)), "
    "constant=0, comparator='>='))))"
)


class TestRecord:
    """The frozen value classes: nodes, windows, predicates and traces keep
    the semantics their dataclass versions had."""

    a, b = p("x > 0"), p("y < 1")

    def test_equality_needs_the_same_class(self):
        assert And(self.a, self.b) == And(self.a, self.b)
        assert And(self.a, self.b) != Or(self.a, self.b)
        assert Implies(self.a, self.b) not in (And(self.a, self.b), Or(self.a, self.b))
        assert And(self.a, self.b) != (self.a, self.b)
        assert Interval(0, 2) == Interval(lower=0, upper=2) != Interval(0, 3)

    def test_hash_is_the_fields_hash_computed_once(self):
        node = And(self.a, self.b)
        assert hash(node) == hash((self.a, self.b))
        assert hash(Interval(1, 4)) == hash((1, 4))
        counted = Not(CountedHash())
        CountedHash.calls = 0
        assert hash(counted) == hash((CountedHash(),))
        assert hash(counted) == hash(counted)
        assert CountedHash.calls == 2  # one for `counted`, one for the tuple

    def test_repr_is_the_dataclass_one(self):
        assert repr(parse(REPR_TEXT, SIGNALS)) == REPR
        assert repr(Interval(0, 2)) == "Interval(lower=0, upper=2)"
        assert repr(Trace(("x",), ((1.0,),))) == "Trace(signals=('x',), samples=((1.0,),))"

    def test_fields_cannot_be_assigned_or_deleted(self):
        node = Always(Interval(0, 2), self.a)
        trace = Trace(("x",), ((1.0,),))
        for target in (node, node.window, self.a.predicate, trace):
            with pytest.raises(AttributeError):
                target.child = self.b
            with pytest.raises(AttributeError):
                del target.window
        assert node == Always(Interval(0, 2), self.a)

    def test_cached_property_still_works(self):
        pred = p("1/2*x - 1/3*y > 1").predicate
        assert pred.integer_form == ((("x", 3), ("y", -2)), -6)
        assert pred.integer_form is pred.integer_form

    def test_post_init_still_validates(self):
        with pytest.raises(TraceFormatError, match="duplicate"):
            Trace(("x", "x"), ())
        with pytest.raises(TraceFormatError, match="tick 1"):
            Trace(signals=("x",), samples=((1.0,), (1.0, 2.0)))

    def test_positional_and_keyword_construction(self):
        assert Until(Interval(0, 1), self.a, self.b) == Until(
            right=self.b, window=Interval(upper=1, lower=0), left=self.a
        )
        with pytest.raises(TypeError):
            Interval(0)
        with pytest.raises(TypeError):
            Interval(0, 1, 2)
        with pytest.raises(TypeError):
            Interval(0, lower=1)

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda node: pickle.loads(pickle.dumps(node))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_equal_and_hash_afresh(self, clone):
        formula = parse(REPR_TEXT, SIGNALS)
        hash(formula)
        assert clone(formula) == formula and repr(clone(formula)) == REPR
        node = Not(CountedHash())
        hash(node)
        restored = clone(node)
        CountedHash.calls = 0
        assert hash(restored) == hash(node)
        assert CountedHash.calls == 1  # `node` kept its hash; `restored` computed its own
        pred = self.a.predicate
        assert clone(pred) == pred and clone(pred).integer_form == pred.integer_form
        assert clone(Interval(1, 3)) == Interval(1, 3)
        trace = Trace(("x",), ((1.0,), (2.0,)))
        assert clone(trace) == trace
