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

import math
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
    window_fault,
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
        coeffs: dict[str, tuple[int, int]] = {}
        const = self._expr(coeffs, (0, 1), 1)
        cmp_tok = self._accept(">", ">=", "<", "<=", "=", "==", "!=")
        if cmp_tok is None:
            tok = self._peek()
            found = tok.text or "end of input"
            raise FormulaSyntaxError(f"expected comparison operator, found {found!r}", tok.column)
        const = self._expr(coeffs, const, -1)
        if not coeffs:
            raise FormulaSyntaxError("comparison references no signal", start.column)
        comparator = "=" if cmp_tok.text == "==" else cmp_tok.text
        scale = math.lcm(const[1], *(d for _, d in coeffs.values()))
        terms = tuple(sorted((name, n * (scale // d)) for name, (n, d) in coeffs.items()))
        return Atom(AtomicPredicate(terms, const[0] * (scale // const[1]), comparator))

    def _expr(self, coeffs: dict[str, tuple[int, int]], const: tuple[int, int], side: int) -> tuple[int, int]:
        """Adds the expression, times `side`, to `coeffs` and returns `const`
        plus its constant, times `side`: reduced (numerator, denominator)
        pairs. `_atom` scales the sum by the lcm of their denominators."""
        sign = -side if self._accept("-") else side
        while True:
            (n, d), name = self._term()
            if name is None:
                const = _add(const, (sign * n, d))
            else:
                coeffs[name] = _add(coeffs.get(name, (0, 1)), (sign * n, d))
            if self._accept("+"):
                sign = side
            elif self._accept("-"):
                sign = -side
            else:
                return const

    def _term(self) -> tuple[tuple[int, int], str | None]:
        tok = self._peek()
        if tok.kind == "NUMBER":
            self._next()
            value = _number(tok)
            if self._accept("*"):
                return value, self._signal_name()
            return value, None
        if tok.kind == "IDENT":
            return (1, 1), self._signal_name()
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
        window = Interval(lower, upper)
        fault = window_fault(window)
        if fault:
            raise IntervalBoundError(fault[1], open_tok.column)
        return window

    def _interval_bound(self) -> int:
        negative = self._accept("-") is not None
        tok = self._expect("NUMBER", "an integer bound")
        n, d = _number(tok)
        if d != 1:
            raise IntervalBoundError(f"interval bound {tok.text} is not an integer", tok.column)
        return -n if negative else n


def _number(tok: _Token) -> tuple[int, int]:
    """The literal as a reduced (numerator, denominator) pair of ints: a
    decimal d.ddd is its digits over 10**k, a fraction n/d the pair itself."""
    if "/" in tok.text:
        n, d = map(int, tok.text.split("/"))
        if not d:
            raise FormulaSyntaxError(f"number {tok.text} has a zero denominator", tok.column)
        return _add((n, d), (0, 1))
    whole, _, digits = tok.text.partition(".")
    return _add((int(whole + digits), 10 ** len(digits)), (0, 1))


def _add(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The reduced sum of two (numerator, denominator) pairs."""
    n, d = a[0] * b[1] + b[0] * a[1], a[1] * b[1]
    g = math.gcd(n, d)
    return n // g, d // g


def _find_temporal(f: Formula) -> Formula | None:
    for node in walk(f):
        if isinstance(node, TEMPORAL_NODES):
            return node
    return None
