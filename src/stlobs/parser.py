"""Recursive-descent parser for the formula concrete syntax.

Grammar (loosest binding first; `not` binds tighter than `and`, `and` tighter
than `or`, `or` tighter than `->`; `U` sits between `or` and `->`):

    formula     = implication ;
    implication = until , [ "->" , implication ] ;
    until       = disjunction , [ "U" , interval , disjunction ] ;
    disjunction = conjunction , { ( "|" | "or" ) , conjunction } ;
    conjunction = negation , { ( "&" | "and" ) , negation } ;
    negation    = ( "!" | "not" ) , negation | temporal ;
    temporal    = ( "G" | "F" ) , interval , negation | primary ;
    primary     = "(" , formula , ")" | atom ;
    atom        = expr , comparator , expr ;
    comparator  = ">" | ">=" | "<" | "<=" | "=" | "==" | "!=" ;
    expr        = [ "-" ] , term , { ( "+" | "-" ) , term } ;
    term        = number , [ "*" , identifier ] | identifier ;
    interval    = "[" , integer , "," , integer , "]" ;
    number      = integer | decimal | integer , "/" , integer ;

Identifiers are signal names and must be declared by the caller; G, F, U,
not, and, or are reserved. Parentheses always open a formula, so linear
expressions inside atoms are written without parentheses.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from ._record import record
from .errors import (
    FormulaSyntaxError,
    IntervalBoundError,
    NestedOperatorError,
    UnknownSignalError,
)
from .formula import (
    And,
    AtomicPredicate,
    Atom,
    Eventually,
    Always,
    Formula,
    Implies,
    Interval,
    Not,
    Or,
    TEMPORAL_NODES,
    Until,
    operator_name,
    walk,
)

_KEYWORDS = {"G", "F", "U", "not", "and", "or"}

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<NUMBER>\d+\s*/\s*\d+|\d+\.\d+|\d+)
  | (?P<IDENT>[A-Za-z_]\w*)
  | (?P<OP>->|>=|<=|==|!=|[()\[\],*+\-!&|<>=])
    """,
    re.VERBOSE,
)


@record
class _Token:
    kind: str  # NUMBER, IDENT, keyword text, operator text, or EOF
    text: str
    column: int  # 1-based


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos + 1)
        pos = m.end()
        kind = m.lastgroup
        if kind == "WS":
            continue
        value = m.group()
        if kind == "IDENT" and value in _KEYWORDS:
            kind = value
        elif kind == "OP":
            kind = value
        tokens.append(_Token(kind, value, m.start() + 1))
    tokens.append(_Token("EOF", "", len(text) + 1))
    return tokens


def parse(text: str, signals: Iterable[str]) -> Formula:
    """Parse formula text over the declared signal names.

    Raises FormulaSyntaxError (with a 1-based column) for malformed input,
    UnknownSignalError for undeclared identifiers, IntervalBoundError for bad
    interval bounds, and NestedOperatorError for temporal nesting.
    """
    return _Parser(text, signals).parse()


class _Parser:
    def __init__(self, text: str, signals: Iterable[str]):
        self._tokens = _tokenize(text)
        self._signals = frozenset(signals)
        self._i = 0

    # token plumbing

    def _peek(self) -> _Token:
        return self._tokens[self._i]

    def _next(self) -> _Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _accept(self, *kinds: str) -> _Token | None:
        if self._peek().kind in kinds:
            return self._next()
        return None

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            found = tok.text or "end of input"
            raise FormulaSyntaxError(f"expected {what}, found {found!r}", tok.column)
        return self._next()

    # grammar

    def parse(self) -> Formula:
        f = self._implication()
        tok = self._peek()
        if tok.kind != "EOF":
            raise FormulaSyntaxError(f"unexpected trailing input {tok.text!r}", tok.column)
        return f

    def _implication(self) -> Formula:
        left = self._until()
        if self._accept("->"):
            return Implies(left, self._implication())
        return left

    def _until(self) -> Formula:
        left = self._disjunction()
        tok = self._accept("U")
        if tok is None:
            return left
        window = self._interval()
        right = self._disjunction()
        self._reject_nesting("U", (left, right), tok.column)
        return Until(window, left, right)

    def _disjunction(self) -> Formula:
        left = self._conjunction()
        while self._accept("|", "or"):
            left = Or(left, self._conjunction())
        return left

    def _conjunction(self) -> Formula:
        left = self._negation()
        while self._accept("&", "and"):
            left = And(left, self._negation())
        return left

    def _negation(self) -> Formula:
        if self._accept("!", "not"):
            return Not(self._negation())
        return self._temporal()

    def _temporal(self) -> Formula:
        tok = self._accept("G", "F")
        if tok is None:
            return self._primary()
        window = self._interval()
        child = self._negation()
        self._reject_nesting(tok.text, (child,), tok.column)
        node_type = Always if tok.text == "G" else Eventually
        return node_type(window, child)

    def _primary(self) -> Formula:
        if self._accept("("):
            f = self._implication()
            self._expect(")", "')'")
            return f
        return self._atom()

    def _reject_nesting(self, outer: str, operands: tuple[Formula, ...], column: int) -> None:
        for operand in operands:
            inner = _find_temporal(operand)
            if inner is not None:
                raise NestedOperatorError(outer, operator_name(inner), column)

    # atoms

    def _atom(self) -> Formula:
        start = self._peek()
        coeffs, const = self._expr()
        cmp_tok = self._accept(">", ">=", "<", "<=", "=", "==", "!=")
        if cmp_tok is None:
            tok = self._peek()
            found = tok.text or "end of input"
            raise FormulaSyntaxError(f"expected comparison operator, found {found!r}", tok.column)
        rhs_coeffs, rhs_const = self._expr()
        for name, coef in rhs_coeffs.items():
            coeffs[name] = coeffs.get(name, 0) - coef
        if not coeffs:
            raise FormulaSyntaxError("comparison references no signal", start.column)
        comparator = "=" if cmp_tok.text == "==" else cmp_tok.text
        terms = tuple(sorted(coeffs.items()))
        return Atom(AtomicPredicate(terms, const - rhs_const, comparator))

    def _expr(self) -> tuple[dict[str, int | Fraction], int | Fraction]:
        coeffs: dict[str, int | Fraction] = {}
        const = 0
        sign = -1 if self._accept("-") else 1
        while True:
            coef, name = self._term()
            if name is None:
                const += sign * coef
            else:
                coeffs[name] = coeffs.get(name, 0) + sign * coef
            if self._accept("+"):
                sign = 1
            elif self._accept("-"):
                sign = -1
            else:
                return coeffs, const

    def _term(self) -> tuple[int | Fraction, str | None]:
        tok = self._peek()
        if tok.kind == "NUMBER":
            self._next()
            value = _number(tok)
            if self._accept("*"):
                return value, self._signal_name()
            return value, None
        if tok.kind == "IDENT":
            return 1, self._signal_name()
        found = tok.text or "end of input"
        raise FormulaSyntaxError(f"expected a number or signal name, found {found!r}", tok.column)

    def _signal_name(self) -> str:
        tok = self._expect("IDENT", "a signal name")
        if tok.text not in self._signals:
            raise UnknownSignalError(tok.text, tok.column)
        return tok.text

    # intervals

    def _interval(self) -> Interval:
        open_tok = self._expect("[", "'[' to open a time interval")
        lower = self._interval_bound()
        self._expect(",", "','")
        upper = self._interval_bound()
        self._expect("]", "']' to close the time interval")
        if lower < 0 or upper < 0:
            raise IntervalBoundError(
                f"interval [{lower},{upper}] has a negative bound", open_tok.column
            )
        if lower >= upper:
            raise IntervalBoundError(
                f"interval [{lower},{upper}] is empty or singleton; lower < upper is required",
                open_tok.column,
            )
        return Interval(lower, upper)

    def _interval_bound(self) -> int:
        negative = self._accept("-") is not None
        tok = self._expect("NUMBER", "an integer bound")
        value = _number(tok)
        if value.denominator != 1:
            raise IntervalBoundError(f"interval bound {tok.text} is not an integer", tok.column)
        return -int(value) if negative else int(value)


def _number(tok: _Token) -> int | Fraction:
    """An integer literal as an int; a decimal or a fraction as a
    `Fraction`, so `fractions` loads only for a formula that has one."""
    if "." not in tok.text and "/" not in tok.text:
        return int(tok.text)
    from fractions import Fraction

    try:
        return Fraction(tok.text.replace(" ", ""))
    except ZeroDivisionError:
        raise FormulaSyntaxError(f"number {tok.text} has a zero denominator", tok.column) from None


def _find_temporal(f: Formula) -> Formula | None:
    for node in walk(f):
        if isinstance(node, TEMPORAL_NODES):
            return node
    return None
