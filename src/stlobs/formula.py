"""Formula AST for non-nested discrete-time STL, plus validation and rendering.

Temporal operators (Always, Eventually, Until) take propositional operands:
boolean combinations of linear predicates over signals. Boolean combinations
*above* temporal operators are allowed; temporal nesting is not.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Callable, Iterator, Mapping
from functools import cached_property

from ._record import record

_SIGN_TESTS = {
    ">": operator.gt, ">=": operator.ge, "<": operator.lt,
    "<=": operator.le, "=": operator.eq, "!=": operator.ne,
}
COMPARATORS = tuple(_SIGN_TESTS)


@record
class Interval:
    """Discrete tick window [lower, upper]; valid when 0 <= lower < upper."""

    lower: int
    upper: int


@record
class AtomicPredicate:
    """Linear constraint: sum(coef * signal for terms) + constant <cmp> 0.

    `terms` is kept in the order given. The parser and `linear_atom` build
    the canonical form: terms sorted by name, in integer form (ints with no
    denominator left to clear, as `integer_form` scales them). A hand-built
    atom may hold `Fraction`s.

    A sample value v stands for the shortest decimal that round-trips to it,
    `Fraction(repr(v))`: the text of the trace whenever that text has at
    most 15 significant digits. The comparison is exact on that reading,
    and is made in int arithmetic: neither `fractions` nor `decimal` loads.
    """

    terms: tuple[tuple[str, int | Fraction], ...]
    constant: int | Fraction
    comparator: str

    @property
    def signals(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.terms)

    @cached_property
    def integer_form(self) -> tuple[tuple[tuple[str, int], ...], int]:
        """(terms, constant) scaled by the least common denominator of all
        coefficients: integers whose sum has the sign of the rational one.
        An atom already in integer form is its own."""
        scale = math.lcm(self.constant.denominator, *(c.denominator for _, c in self.terms))
        return (
            tuple((name, c.numerator * (scale // c.denominator)) for name, c in self.terms),
            self.constant.numerator * (scale // self.constant.denominator),
        )

    def evaluate(self, sample: Mapping[str, float]) -> bool:
        """Exact truth on `sample`; the definition every fast path of the
        monitor is checked against, and the oracle's only atom semantics.

        Each value's shortest decimal `repr(v)` is read as m * 10**e with
        int m and e. The integer form's sum is kept as an int count of
        10**low, for the least exponent low seen so far (at most 0); it has
        the sign of the rational sum."""
        terms, constant = self.integer_form
        total, low = constant, 0
        for name, coef in terms:
            mantissa, _, exponent = repr(sample[name]).partition("e")
            whole, _, fraction = mantissa.partition(".")
            e = (int(exponent) if exponent else 0) - len(fraction)
            if e < low:
                total, low = total * 10 ** (low - e), e
            total += coef * int(whole + fraction) * 10 ** (e - low)
        return compare_with_zero(total, self.comparator)


def compare_with_zero(total, comparator: str) -> bool:
    """`total <comparator> 0`."""
    if comparator not in _SIGN_TESTS:
        raise ValueError(f"unknown comparator {comparator!r}")
    return _SIGN_TESTS[comparator](total, 0)


class Formula:
    """Base class for AST nodes."""

    __slots__ = ()


@record
class Atom(Formula):
    predicate: AtomicPredicate


@record
class Not(Formula):
    child: Formula


@record
class And(Formula):
    left: Formula
    right: Formula


@record
class Or(Formula):
    left: Formula
    right: Formula


@record
class Implies(Formula):
    left: Formula
    right: Formula


@record
class Always(Formula):
    window: Interval
    child: Formula


@record
class Eventually(Formula):
    window: Interval
    child: Formula


@record
class Until(Formula):
    window: Interval
    left: Formula
    right: Formula


TEMPORAL_NODES = (Always, Eventually, Until)

_OP_NAME = {Always: "G", Eventually: "F", Until: "U"}


def linear_atom(
    coeffs: Mapping[str, int | Fraction | str], comparator: str, constant: int | Fraction | str = 0
) -> Atom:
    """Build an Atom in canonical form: terms sorted by signal name, in
    integer form. Numbers are read as `Fraction`s, loading `fractions`,
    only if one of them is not an int."""
    numbers = (constant, *coeffs.values())
    if any(type(n) is not int for n in numbers):
        from fractions import Fraction

        numbers = tuple(map(Fraction, numbers))
    constant, *values = numbers
    terms, constant = AtomicPredicate(tuple(sorted(zip(coeffs, values))), constant, comparator).integer_form
    return Atom(AtomicPredicate(terms, constant, comparator))


def signal_atom(name: str, comparator: str, threshold: int | Fraction | str = 0) -> Atom:
    """Shorthand for the common single-signal constraint `name <cmp> threshold`."""
    if type(threshold) is not int:
        from fractions import Fraction

        threshold = Fraction(threshold)
    return linear_atom({name: 1}, comparator, -threshold)


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Atom):
        return ()
    if isinstance(f, (Not, Always, Eventually)):
        return (f.child,)
    return (f.left, f.right)


def walk(f: Formula) -> Iterator[Formula]:
    """Pre-order traversal of the AST."""
    yield f
    for c in children(f):
        yield from walk(c)


def with_windows(f: Formula, fn: Callable[[Interval], object]) -> Formula:
    """`f` rebuilt with each temporal node's window replaced by `fn(window)`,
    called in formula order."""
    if isinstance(f, TEMPORAL_NODES):
        return type(f)(fn(f.window), *children(f))
    if isinstance(f, Atom):
        return f
    return type(f)(*(with_windows(c, fn) for c in children(f)))


def signals_of(f: Formula) -> tuple[str, ...]:
    found: set[str] = set()
    for node in walk(f):
        if isinstance(node, Atom):
            found.update(node.predicate.signals)
    return tuple(sorted(found))


def operator_name(f: Formula) -> str:
    """Concrete-syntax name of a temporal node (G, F, or U)."""
    return _OP_NAME[type(f)]


@record
class Violation:
    """One validation finding, located by a dotted path from the root."""

    path: str
    code: str
    message: str


def validate(f: Formula) -> list[Violation]:
    """Structural checks; an empty result means the formula is well-formed.

    Checks interval bounds, temporal non-nesting, and atom shape. The same
    rules are enforced by the parser; this entry point covers hand-built ASTs.
    """
    out: list[Violation] = []
    _validate(f, "", out, inside_temporal=False)
    return out


def _validate(f: Formula, path: str, out: list[Violation], inside_temporal: bool) -> None:
    if isinstance(f, TEMPORAL_NODES):
        if inside_temporal:
            out.append(
                Violation(
                    path,
                    "nested-operator",
                    f"temporal operator {operator_name(f)} nested inside another temporal operator",
                )
            )
        fault = window_fault(f.window)
        if fault:
            out.append(Violation(path, *fault))
        inside_temporal = True
    if isinstance(f, Atom):
        _validate_atom(f.predicate, path, out)
    names = _child_names(f)
    for name, sub in zip(names, children(f)):
        _validate(sub, f"{path}.{name}" if path else name, out, inside_temporal)


def _child_names(f: Formula) -> tuple[str, ...]:
    if isinstance(f, (Not, Always, Eventually)):
        return ("child",)
    if isinstance(f, (And, Or, Implies, Until)):
        return ("left", "right")
    return ()


def window_fault(window: Interval) -> tuple[str, str] | None:
    """The code and message of the first rule `window` breaks, or None: its
    bounds are integers, neither is negative, and lower < upper. The parser
    and `validate` both judge a window by it."""
    lo, hi = window.lower, window.upper
    for v in (lo, hi):
        if not isinstance(v, int) or isinstance(v, bool):
            return "interval-integer", f"interval bound {v!r} is not an integer"
    if lo < 0 or hi < 0:
        return "interval-negative", f"interval [{lo},{hi}] has a negative bound"
    if lo >= hi:
        return "interval-order", f"interval [{lo},{hi}] is empty or singleton; lower < upper is required"
    return None


def _validate_atom(pred: AtomicPredicate, path: str, out: list[Violation]) -> None:
    if pred.comparator not in COMPARATORS:
        out.append(Violation(path, "bad-comparator", f"unknown comparator {pred.comparator!r}"))
    if not pred.terms:
        out.append(Violation(path, "empty-atom", "comparison references no signal"))
    for name, coef in pred.terms:
        if not _is_rational(coef):
            out.append(
                Violation(path, "atom-coefficient", f"coefficient of {name} is not rational: {coef!r}")
            )
    if not _is_rational(pred.constant):
        out.append(Violation(path, "atom-coefficient", f"constant is not rational: {pred.constant!r}"))


def _is_rational(value: object) -> bool:
    """An int that is not a bool, or a `Fraction`; a `Fraction` exists only
    once `fractions` is loaded, so validation never loads it."""
    if isinstance(value, int):
        return not isinstance(value, bool)
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(value, fractions.Fraction)


def horizon(f: Formula) -> int:
    """Number of ticks after the anchor needed to determine any verdict.

    Propositional formulas have horizon 0; a temporal operator contributes its
    upper bound; boolean combinations take the maximum over their operands.
    """
    if isinstance(f, Atom):
        return 0
    if isinstance(f, TEMPORAL_NODES):
        return f.window.upper + max(horizon(c) for c in children(f))
    return max(horizon(c) for c in children(f))


# Rendering. Levels mirror the grammar: implication (loosest), until,
# disjunction, conjunction, negation/temporal, primary.
_LEVEL_IMPLIES = 1
_LEVEL_UNTIL = 2
_LEVEL_OR = 3
_LEVEL_AND = 4
_LEVEL_UNARY = 5
_LEVEL_PRIMARY = 6


def render(f: Formula) -> str:
    """Concrete syntax for `f`; `parse(render(f), ...)` reproduces the AST,
    each atom in its integer form (a library-built atom is already in it)."""
    return _render(f, 0)


def _render(f: Formula, min_level: int) -> str:
    text, level = _render_node(f)
    if level < min_level:
        return f"({text})"
    return text


def _render_node(f: Formula) -> tuple[str, int]:
    if isinstance(f, Atom):
        return _render_atom(f.predicate), _LEVEL_PRIMARY
    if isinstance(f, Not):
        return f"!{_render(f.child, _LEVEL_UNARY)}", _LEVEL_UNARY
    if isinstance(f, (And, Or)):
        op, level = ("&", _LEVEL_AND) if isinstance(f, And) else ("|", _LEVEL_OR)
        return f"{_render(f.left, level)} {op} {_render(f.right, level + 1)}", level
    if isinstance(f, Implies):
        left, right = _render(f.left, _LEVEL_IMPLIES + 1), _render(f.right, _LEVEL_IMPLIES)
        return f"{left} -> {right}", _LEVEL_IMPLIES
    if isinstance(f, (Always, Eventually)):
        w = f.window
        return f"{operator_name(f)}[{w.lower},{w.upper}] {_render(f.child, _LEVEL_UNARY)}", _LEVEL_UNARY
    if isinstance(f, Until):
        w = f.window
        return (
            f"{_render(f.left, _LEVEL_UNTIL + 1)} U[{w.lower},{w.upper}] "
            f"{_render(f.right, _LEVEL_UNTIL + 1)}",
            _LEVEL_UNTIL,
        )
    raise TypeError(f"not a formula node: {f!r}")


def _render_atom(pred: AtomicPredicate) -> str:
    if not pred.terms:
        lhs = "0"
    else:
        parts: list[str] = []
        for i, (name, coef) in enumerate(pred.terms):
            if i == 0:
                parts.append(_term(coef, name))
            elif coef < 0:
                parts.append(f" - {_term(-coef, name)}")
            else:
                parts.append(f" + {_term(coef, name)}")
        lhs = "".join(parts)
    rhs = -pred.constant
    return f"{lhs} {pred.comparator} {rhs}"


def _term(coef: int | Fraction, name: str) -> str:
    if coef == 1:
        return name
    if coef == -1:
        return f"-{name}"
    return f"{coef}*{name}"
