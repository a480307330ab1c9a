"""Formula AST for non-nested discrete-time STL, plus validation and rendering.

Temporal operators (Always, Eventually, Until) take propositional operands:
boolean combinations of linear predicates over signals. Boolean combinations
*above* temporal operators are allowed; temporal nesting is not.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping, Union

from ._record import record

COMPARATORS = (">", ">=", "<", "<=", "=", "!=")

Rational = Union[int, Fraction, str]

# Sums and products of finite decimals never round at the largest precision
# and exponent range; Inexact is trapped so that a rounding could not pass
# unnoticed. A context of its own leaves the caller's decimal context alone.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])


@record
class Interval:
    """Discrete tick window [lower, upper]; valid when 0 <= lower < upper."""

    lower: int
    upper: int


@record
class AtomicPredicate:
    """Linear constraint: sum(coef * signal for terms) + constant <cmp> 0.

    `terms` is kept in the order given; use `linear_atom` to build the
    canonical (name-sorted) form that the parser produces.

    A sample value v stands for the shortest decimal that round-trips to it,
    `Fraction(repr(v))`: the text of the trace whenever that text has at
    most 15 significant digits. The comparison is exact on that reading.
    """

    terms: tuple[tuple[str, Fraction], ...]
    constant: Fraction
    comparator: str

    @property
    def signals(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.terms)

    @cached_property
    def integer_form(self) -> tuple[tuple[tuple[str, int], ...], int]:
        """(terms, constant) scaled by the least common denominator of all
        coefficients: integers whose sum has the sign of the rational one."""
        scale = math.lcm(self.constant.denominator, *(c.denominator for _, c in self.terms))
        return (
            tuple((name, c.numerator * (scale // c.denominator)) for name, c in self.terms),
            self.constant.numerator * (scale // self.constant.denominator),
        )

    def evaluate(self, sample: Mapping[str, float]) -> bool:
        """Exact truth on `sample`; the definition every fast path of the
        monitor is checked against, and the oracle's only atom semantics."""
        terms, constant = self.integer_form
        total = Decimal(constant)
        for name, coef in terms:
            total = _EXACT.add(total, _EXACT.multiply(coef, Decimal(repr(sample[name]))))
        return compare_with_zero(total, self.comparator)


def compare_with_zero(total, comparator: str) -> bool:
    """`total <comparator> 0`."""
    if comparator == ">":
        return total > 0
    if comparator == ">=":
        return total >= 0
    if comparator == "<":
        return total < 0
    if comparator == "<=":
        return total <= 0
    if comparator == "=":
        return total == 0
    if comparator == "!=":
        return total != 0
    raise ValueError(f"unknown comparator {comparator!r}")


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
    coeffs: Mapping[str, Rational], comparator: str, constant: Rational = 0
) -> Atom:
    """Build an Atom in canonical form: terms sorted by signal name."""
    terms = tuple(sorted((name, Fraction(c)) for name, c in coeffs.items()))
    return Atom(AtomicPredicate(terms, Fraction(constant), comparator))


def signal_atom(name: str, comparator: str, threshold: Rational = 0) -> Atom:
    """Shorthand for the common single-signal constraint `name <cmp> threshold`."""
    return linear_atom({name: 1}, comparator, -Fraction(threshold))


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
        _validate_interval(f.window, path, out)
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


def _validate_interval(window: Interval, path: str, out: list[Violation]) -> None:
    lo, hi = window.lower, window.upper
    for v in (lo, hi):
        if not isinstance(v, int) or isinstance(v, bool):
            out.append(Violation(path, "interval-integer", f"interval bound {v!r} is not an integer"))
            return
    if lo < 0:
        out.append(Violation(path, "interval-negative", f"interval lower bound {lo} is negative"))
    if lo >= hi:
        out.append(
            Violation(
                path,
                "interval-order",
                f"interval [{lo},{hi}] is empty or singleton; lower < upper is required",
            )
        )


def _validate_atom(pred: AtomicPredicate, path: str, out: list[Violation]) -> None:
    if pred.comparator not in COMPARATORS:
        out.append(Violation(path, "bad-comparator", f"unknown comparator {pred.comparator!r}"))
    if not pred.terms:
        out.append(Violation(path, "empty-atom", "comparison references no signal"))
    for name, coef in pred.terms:
        if not isinstance(coef, Fraction):
            out.append(
                Violation(path, "atom-coefficient", f"coefficient of {name} is not rational: {coef!r}")
            )
    if not isinstance(pred.constant, Fraction):
        out.append(Violation(path, "atom-coefficient", f"constant is not rational: {pred.constant!r}"))


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
    """Concrete syntax for `f`; `parse(render(f), ...)` reproduces the AST."""
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
    if isinstance(f, And):
        return (
            f"{_render(f.left, _LEVEL_AND)} & {_render(f.right, _LEVEL_AND + 1)}",
            _LEVEL_AND,
        )
    if isinstance(f, Or):
        return (
            f"{_render(f.left, _LEVEL_OR)} | {_render(f.right, _LEVEL_OR + 1)}",
            _LEVEL_OR,
        )
    if isinstance(f, Implies):
        return (
            f"{_render(f.left, _LEVEL_IMPLIES + 1)} -> {_render(f.right, _LEVEL_IMPLIES)}",
            _LEVEL_IMPLIES,
        )
    if isinstance(f, (Always, Eventually)):
        name = operator_name(f)
        w = f.window
        return (
            f"{name}[{w.lower},{w.upper}] {_render(f.child, _LEVEL_UNARY)}",
            _LEVEL_UNARY,
        )
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


def _term(coef: Fraction, name: str) -> str:
    if coef == 1:
        return name
    if coef == -1:
        return f"-{name}"
    return f"{coef}*{name}"
