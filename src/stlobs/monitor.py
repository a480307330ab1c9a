"""Online monitor: one generated step function per formula.

`compile_formula` writes the whole observer network as the source of one
function, `network(s) -> VerdictRecord`, called once per sample: one frame
does the whole step. It reads each of the formula's signals from the sample
once, in signal order; a sample that lacks one raises `MissingSignalError`
naming every missing signal, at every tick, also once the root has decided.
Presence is membership, so a `defaultdict` or a `Counter` lacks a signal it
does not hold. The tick is the network's own state, next to its flags, and
advances only when a record is returned; the network's factory takes that
state as arguments, and its `state()` returns it. Each temporal operator is
a few inline statements over two flags (pos, neg): both latch, unknown is
the absence of both, and nothing else is kept per operator. The formulas are not
nested, so every operator is anchored at tick 0 and reads the tick as its
clock, against its window's bounds. The function steps each operator on its
operand, inlined as one expression, combines the pairs with the flag-pair
algebra (`a & b` is (pa and pb, na or nb), `a | b` is (pa or pb, na and
nb), `a -> b` is (na or pb, pa and nb), `!a` swaps the pair) and reads T/F/U off the root pair. An operator is stepped,
and its operands evaluated, only while neither of its flags is set; once the
root has decided, the function returns its verdict without stepping any
operator. Each atom is compiled once to a float test that agrees exactly
with its rational definition and is inlined over the signals' values: one
over a single signal as a comparison such as `x2 < c0`, one over several
as one expression that computes the float sum and its error bound and calls
the exact test on the sample only when the bound cannot decide.

Formula text reaches the generated source only as the `repr` of a `str` (a
signal name). Every number the network uses (a window bound, a threshold, a
coefficient, a constant or an error bound) and every exact test is an
argument of the network's factory, so formulas that differ only in their
numbers share one network code. One cache holds the factories of the 256
most recent texts, so compiling a formula whose text is among them builds
its source and calls that factory. `Monitor` is a thin handle on the
network: its `step` calls it, its tick and state are the network's
`state()`, and `fork()` starts a second network at that state.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Mapping
from functools import lru_cache, partial
from math import inf, isfinite, nextafter

from .errors import FlagConflictError, InvalidFormulaError, MissingSignalError
from .formula import (
    And,
    Atom,
    AtomicPredicate,
    Eventually,
    Always,
    Formula,
    Implies,
    Not,
    Or,
    Until,
    children,
    compare_with_zero,
    signals_of,
    validate,
)
from .trilean import FALSE, TRUE, UNKNOWN

VerdictRecord = namedtuple("VerdictRecord", ("tick", "verdict"))
VerdictRecord.__doc__ = "Monitor output for one tick: `tick`, an int, and its `verdict`, a `Trilean`."


# Builds a record without the keyword handling of `VerdictRecord.__new__`.
_new_tuple = tuple.__new__


# Compiled atoms. Each test agrees exactly with `AtomicPredicate.evaluate`
# (samples read as their shortest round-trip decimals) but does float
# arithmetic on every sample it can decide that way. Its source names each
# number and exact test it reads `ck`, bound by `_bind`.

_UNIT_ROUNDOFF = 2.0**-53
_MIN_SUBNORMAL = 2.0**-1074


def _bind(constants: list, value) -> str:
    """Append `value` to `constants`; the name `ck` of its place k."""
    constants.append(value)
    return f"c{len(constants) - 1}"


def _atom_test(
    pred: AtomicPredicate, name: str, read: Callable[[str], str], bind: Callable[[object], str]
) -> str:
    """The atom as the source of one expression. `read(signal)` is the
    source of a signal's value, and `bind(value)` the name the source reads
    a number or the exact test `pred.evaluate` by; a multi-signal atom keeps
    its partial results in locals named after `name`, and calls its exact
    test with the sample `s`. Works on the atom's integer form, which has
    the same truth on every sample."""
    terms, constant = pred.integer_form
    terms = tuple((signal, coef) for signal, coef in terms if coef)
    if not terms:
        return repr(compare_with_zero(constant, pred.comparator))
    if len(terms) == 1:
        ((signal, coef),) = terms
        return _threshold_test(pred, signal, coef, constant, read, bind)
    return _filtered_test(pred, terms, constant, name, read, bind)


def _threshold_test(
    pred: AtomicPredicate,
    name: str,
    coef: int,
    constant: int,
    read: Callable[[str], str],
    bind: Callable[[object], str],
) -> str:
    """`coef * value + constant <cmp> 0` as one float comparison of the
    value with d, the float nearest to the threshold -constant / coef.

    The shortest decimal of a float is strictly increasing in the float and
    the threshold rounds to d, so a sample other than d lies on the same side
    of the threshold as of d. At d itself the exact answer is taken once,
    here; an order comparison that holds there moves d one float outward
    instead of testing equality, since for every float x `x >= d` is
    `x > nextafter(d, -inf)` and `x <= d` is `x < nextafter(d, inf)`. A
    threshold beyond the float range lies beyond every sample, where the sum
    has the sign of the constant.
    """
    cmp = pred.comparator
    try:
        d = -constant / coef  # int division, correctly rounded
    except OverflowError:
        return repr(compare_with_zero(constant, cmp))
    sample = dict.fromkeys(pred.signals, 0.0)
    sample[name] = d
    at_d = pred.evaluate(sample)
    if cmp in ("=", "!="):
        if at_d != (cmp == "="):  # no sample is on the threshold
            return repr(at_d)
        op = "==" if cmp == "=" else "!="
    else:
        # With a negative coefficient the atom bounds the value from the
        # other side.
        op = ">" if (cmp[0] == ">") != (coef < 0) else "<"
        if at_d:
            d = nextafter(d, -inf if op == ">" else inf)
    return f"{read(name)} {op} {bind(d)}"


def _filtered_test(
    pred: AtomicPredicate,
    terms: tuple,
    constant: int,
    name: str,
    read: Callable[[str], str],
    bind: Callable[[object], str],
) -> str:
    """Multi-signal atom: the float sum decides whenever it is finite and
    farther from 0 than its error bound, the exact test otherwise.

    The bound covers the rounding of the coefficients and of the constant to
    floats, of each sample's decimal to its float, of the products and of the
    sums: (m + 3) unit roundoffs of the sum of magnitudes for m terms, plus
    underflow, with one more roundoff and a doubled underflow term as room
    for the rounding of the bound itself (Shewchuk, "Adaptive Precision
    Floating-Point Arithmetic and Fast Robust Geometric Predicates", 1997).
    Integer coefficients are never subnormal; one beyond the float range
    leaves the atom exact only, and so does an underflow term beyond it,
    which no finite sum exceeds.

    The sum starts at the constant and adds the products in term order, the
    sum of magnitudes likewise: in the source, the total is `{name}t`, the
    k-th product `{name}q{k}` and the bound `{name}b`.
    """
    exact = f"{bind(pred.evaluate)}(s)"
    try:
        coefs = tuple(float(coef) for _, coef in terms)
        constant = float(constant)
    except OverflowError:
        return exact
    relative = (len(coefs) + 4) * _UNIT_ROUNDOFF
    absolute = 2 * (sum(abs(c) for c in coefs) + 2 * len(coefs) + 1) * _MIN_SUBNORMAL
    if not isfinite(absolute):
        return exact
    cmp = pred.comparator
    above, below = compare_with_zero(1, cmp), compare_with_zero(-1, cmp)
    constant = bind(constant)
    products = [
        f"({name}q{k} := {bind(coef)} * {read(signal)})"
        for k, ((signal, _), coef) in enumerate(zip(terms, coefs))
    ]
    sizes = [f"abs({name}q{k})" for k in range(len(coefs))]
    total = " + ".join([constant, *products])
    size = " + ".join([f"abs({constant})", *sizes])
    bound = f"{bind(relative)} * ({size}) + {bind(absolute)}"
    return (
        f"({above} if ({name}t := {total}) > ({name}b := {bound}) "
        f"else {below} if {name}t < -{name}b else {exact})"
    )


# The generated network. `make`'s parameters are operator k's window `lk`,
# `uk`, then the numbers and exact tests its atoms read, `c0`, `c1`, ... The
# state follows them, by default that of tick 0: the tick `t`, the latched
# root verdict `decided`, then the flags `pk`, `nk` of leaf k, a temporal
# operator or an atom outside every operator. `network.state()` returns it
# in that order.
# `network(s)` takes a sample and returns its `VerdictRecord`: every operator
# is anchored at tick 0, so the tick is each operator's clock. It first reads
# each of the formula's signals once, in signal order, into a local `x0`,
# `x1`, ...; a sample that is not exactly a `dict` is first checked with
# `present`, which a missing signal also reaches from the `KeyError`. Atoms
# are inlined over those locals, each time an operand reads them.

# Each leaf's body, run only while neither of its flags is set, so each body
# sets one flag and never clears one. `{0}` and `{1}` are the operands' source.
# An operator that has not decided by tick `uk` decides there: F and G are
# false and true once their window has closed, and U is false once its left
# operand has failed, since every later witness would need it to hold there.
_CELLS = {
    Atom: "p{k} = {0}\nn{k} = not p{k}",
    Eventually: "if t >= l{k} and {0}:\n    p{k} = True\nelif t >= u{k}:\n    n{k} = True",
    Always: "if t >= l{k} and not {0}:\n    n{k} = True\nelif t >= u{k}:\n    p{k} = True",
    Until: (
        "if not {0}:\n    n{k} = True\n"
        "elif t >= l{k} and {1}:\n    p{k} = True\n"
        "elif t >= u{k}:\n    n{k} = True"
    ),
}
_PAIRS = {
    And: ("({lp} and {rp})", "({ln} or {rn})"),
    Or: ("({lp} or {rp})", "({ln} and {rn})"),
    Implies: ("({ln} or {rp})", "({lp} and {rn})"),
}
_OPERANDS = {And: "({l} and {r})", Or: "({l} or {r})", Implies: "(not {l} or {r})"}


def _present(sample: Mapping[str, float], tick: int, *signals: str) -> dict[str, float]:
    """`sample`'s values of `signals`, as a dict; a `MissingSignalError`
    naming, in order, each of them that `sample` lacks. Presence is `in`, so
    a `defaultdict` or a `Counter` lacks what it does not hold."""
    missing = [name for name in signals if name not in sample]
    if missing:
        raise MissingSignalError(missing, f"at tick {tick}") from None
    return {name: sample[name] for name in signals}


_NETWORK_GLOBALS = {
    "FlagConflictError": FlagConflictError,
    "TRUE": TRUE,
    "FALSE": FALSE,
    "UNKNOWN": UNKNOWN,
    "VerdictRecord": VerdictRecord,
    "new": _new_tuple,
    "present": _present,
}


@lru_cache(maxsize=256)
def _factory(text: str) -> Callable:
    """The factory `make` that a `_NetworkSource` text defines."""
    namespace = dict(_NETWORK_GLOBALS)
    exec(compile(text, "<stlobs network>", "exec"), namespace)
    return namespace["make"]


class _NetworkSource:
    """The source of `f`'s factory `make` (`text`), the arguments its
    parameters take, windows then constants (`args`), and the signals it
    reads (`signals`). The text holds no number of the formula."""

    def __init__(self, f: Formula):
        self.signals = signals_of(f)
        self._values = {name: f"x{k}" for k, name in enumerate(self.signals)}
        self._lines: list[str] = []
        self._leaves = 0
        self._operators: list[int] = []
        self._bounds: list[int] = []
        self._constants: list = []
        self._refs: dict[AtomicPredicate, str] = {}
        pos, neg = self._pair(f)
        # Every tick reads every signal, also once the root has decided, so a
        # sample that lacks one raises at every tick. Only an exact `dict`
        # is read directly: a `defaultdict` would add the missing key.
        lines = []
        if self.signals:
            present = f"present(s, t, {', '.join(map(str.__repr__, self.signals))})"
            lines += ["if type(s) is not dict:", f"    s = {present}", "try:"]
            lines += [f"    {local} = s[{str.__repr__(name)}]" for name, local in self._values.items()]
            lines += ["except KeyError:", f"    {present}"]
        # Verdicts latch: once the root has decided, no leaf is stepped.
        lines += ["if decided is not None:", "    t += 1", "    return new(VerdictRecord, (t - 1, decided))"]
        lines += self._lines
        # Each operator's pair is checked: the algebra can hide a conflicting
        # pair ((T, T) & (F, F) is (F, T)) but never makes one from consistent
        # pairs. The tick advances only when a record is returned.
        if self._operators:
            lines.append("if " + " or ".join(f"p{k} and n{k}" for k in self._operators) + ":")
            lines.append("    raise FlagConflictError('positive and negative verdict flags are both set')")
        # (Every distinct text pays a `compile()`; this form compiles
        # faster than one conditional expression or two returns.)
        lines += [f"if {pos}:", "    decided = TRUE", f"elif {neg}:", "    decided = FALSE"]
        lines += ["t += 1", "return new(VerdictRecord, (t - 1, decided or UNKNOWN))"]
        state = ["t", "decided", *(f"{flag}{k}" for k in range(self._leaves) for flag in "pn")]
        params = [f"l{k}, u{k}" for k in self._operators]
        params += [f"c{k}" for k in range(len(self._constants))]
        params += ["t=0", "decided=None", *(f"{name}=False" for name in state[2:])]
        body = "".join(f"        {line}\n" for line in lines)
        self.text = (
            f"def make({', '.join(params)}):\n"
            "    def network(s):\n"
            f"        nonlocal {', '.join(state)}\n"
            f"{body}"
            "    def state():\n"
            f"        return {', '.join(state)}\n"
            "    network.state = state\n"
            "    return network\n"
        )
        self.args = (*self._bounds, *self._constants)

    def _pair(self, f: Formula) -> tuple[str, str]:
        """Source of the (pos, neg) flags of `f`; adds one guarded body per
        leaf, in formula order. Flags latch, so a leaf is stepped, and its
        operands evaluated, only while neither of its flags is set."""
        if isinstance(f, Not):
            pos, neg = self._pair(f.child)
            return neg, pos
        templates = _PAIRS.get(type(f))
        if templates is not None:
            lp, ln = self._pair(f.left)
            rp, rn = self._pair(f.right)
            return tuple(t.format(lp=lp, ln=ln, rp=rp, rn=rn) for t in templates)
        template = _CELLS.get(type(f))
        if template is None:
            raise TypeError(f"not a formula node: {f!r}")
        k = self._leaves
        self._leaves += 1
        if isinstance(f, Atom):
            operands = (self._atom(f.predicate),)
        else:
            self._operators.append(k)
            self._bounds += (f.window.lower, f.window.upper)
            operands = tuple(map(self._operand, children(f)))
        body = template.format(*operands, k=k)
        self._lines += [f"if not (p{k} or n{k}):", *(f"    {line}" for line in body.splitlines())]
        return f"p{k}", f"n{k}"

    def _operand(self, f: Formula) -> str:
        """Source of a propositional formula's truth on sample `s`."""
        if isinstance(f, Atom):
            return self._atom(f.predicate)
        if isinstance(f, Not):
            return f"(not {self._operand(f.child)})"
        template = _OPERANDS.get(type(f))
        if template is None:
            raise TypeError(f"operand is not propositional: {f!r}")
        return template.format(l=self._operand(f.left), r=self._operand(f.right))

    def _atom(self, pred: AtomicPredicate) -> str:
        """The atom's inlined test; an atom read again reads the same
        constants."""
        ref = self._refs.get(pred)
        if ref is None:
            bind = partial(_bind, self._constants)
            ref = self._refs[pred] = _atom_test(pred, f"a{len(self._refs)}", self._values.__getitem__, bind)
        return ref


class Monitor:
    """Stepwise evaluator for one formula: the network `start(*state)`, at
    tick 0 when `state` is empty."""

    def __init__(self, formula: Formula, start: Callable, signals: tuple[str, ...], state: tuple = ()):
        self.formula = formula
        self.signals = signals
        self._start = start
        self._network = start(*state)

    @property
    def tick(self) -> int:
        """Index of the next sample to be consumed."""
        return self._network.state()[0]

    def step(self, sample: Mapping[str, float]) -> VerdictRecord:
        return self._network(sample)

    def state_scalars(self) -> tuple:
        """The state the network rebinds, as its `state()` returns it: the
        tick, the latched root verdict, then each leaf's flags (pos, neg) in
        formula order. The windows are constants of the network, not state."""
        return self._network.state()

    def state_scalar_count(self) -> int:
        """Number of scalars the monitor keeps; constant over time and
        independent of window widths."""
        return len(self._network.state())

    def fork(self) -> Monitor:
        """A second monitor at this one's state; each steps on its own."""
        return Monitor(self.formula, self._start, self.signals, self._network.state())


def compile_formula(f: Formula) -> Monitor:
    """Validate `f` and build its observer network."""
    violations = validate(f)
    if violations:
        raise InvalidFormulaError(violations)
    source = _NetworkSource(f)
    return Monitor(f, partial(_factory(source.text), *source.args), source.signals)
