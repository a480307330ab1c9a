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
algebra of the `_3v` Lustre nodes (`a & b` is (pa and pb, na or nb),
`a | b` is (pa or pb, na and nb), `a -> b` is (na or pb, pa and nb), `!a`
swaps the pair) and reads T/F/U off the root pair. An operator is stepped,
and its operands evaluated, only while neither of its flags is set; once the
root has decided, the function returns its verdict without stepping any
operator. Each atom is compiled once to a float test that agrees exactly
with its rational definition and is inlined over the signals' values: one
over a single signal as a comparison such as `x2 < 20.0`, one over several
as one expression that computes the float sum and its error bound and calls
the exact test on the sample only when the bound cannot decide. An atom
over several signals that more than one operand reads is computed once per
tick, while some operand that reads it is undecided.

Formula text reaches the generated source only as the `repr` of a `str` (a
signal name) or of a finite `float` (a threshold, a coefficient or an error
bound). Windows never reach it: they are the arguments of the network's
factory, so formulas that differ only in their windows share one network
code, and compiling a formula again only calls that factory. `Monitor` is a
thin handle on the network: its `step` calls it, its tick and state are the
network's `state()`, and `fork()` starts a second network at that state.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Callable, Mapping
from functools import lru_cache, partial
from math import isfinite

from .errors import FlagConflictError, InvalidFormulaError, MissingSignalError
from .formula import (
    TEMPORAL_NODES,
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
    walk,
    with_windows,
)
from .trilean import FALSE, TRUE, UNKNOWN

Predicate = Callable[[Mapping[str, float]], bool]


VerdictRecord = namedtuple("VerdictRecord", ("tick", "verdict"))
VerdictRecord.__doc__ = "Monitor output for one tick: `tick`, an int, and its `verdict`, a `Trilean`."


# Builds a record without the keyword handling of `VerdictRecord.__new__`.
_new_tuple = tuple.__new__


# Compiled atoms. Each test agrees exactly with `AtomicPredicate.evaluate`
# (samples read as their shortest round-trip decimals) but does float
# arithmetic on every sample it can decide that way.

_FLIPPED = {">": "<", ">=": "<=", "<": ">", "<=": ">=", "=": "=", "!=": "!="}

_UNIT_ROUNDOFF = 2.0**-53
_MIN_SUBNORMAL = 2.0**-1074


def compile_atom(pred: AtomicPredicate) -> Predicate:
    """Compile a linear atom to a sample -> bool function that agrees exactly
    with `pred.evaluate`: the test a network inlines, as a lambda."""
    test, names = _atom_test(pred, "a0")
    return eval(f"lambda s: {test}", names)


def _subscript(signal: str) -> str:
    """The source of `signal`'s value in sample `s`."""
    return f"s[{str.__repr__(signal)}]"


def _atom_test(
    pred: AtomicPredicate, name: str, read: Callable[[str], str] = _subscript
) -> tuple[str, dict[str, Predicate]]:
    """The atom as the source of one expression, and the globals it reads:
    none, or, for an atom over several signals, its exact test
    `pred.evaluate` as `name`, whose float filter keeps its partial results
    in locals named after it. `read(signal)` is the source of a signal's
    value; the exact test is called with the sample `s`. Works on the
    atom's integer form, which has the same truth on every sample."""
    terms, constant = pred.integer_form
    terms = tuple((signal, coef) for signal, coef in terms if coef)
    if not terms:
        return repr(compare_with_zero(constant, pred.comparator)), {}
    if len(terms) == 1:
        ((signal, coef),) = terms
        return _threshold_test(pred, signal, coef, constant, read), {}
    return _filtered_test(pred, terms, constant, name, read), {name: pred.evaluate}


def _threshold_test(
    pred: AtomicPredicate, name: str, coef: int, constant: int, read: Callable[[str], str]
) -> str:
    """`coef * value + constant <cmp> 0` as one float comparison of the
    value with d, the float nearest to the threshold -constant / coef.

    The shortest decimal of a float is strictly increasing in the float and
    the threshold rounds to d, so a sample other than d lies on the same side
    of the threshold as of d. At d itself the exact answer is taken once,
    here. A threshold beyond the float range lies beyond every sample, where
    the sum has the sign of the constant.
    """
    cmp = pred.comparator
    try:
        d = -constant / coef  # int division, correctly rounded
    except OverflowError:
        return repr(compare_with_zero(constant, cmp))
    sample = dict.fromkeys(pred.signals, 0.0)
    sample[name] = d
    at_d = pred.evaluate(sample)
    if coef < 0:
        cmp = _FLIPPED[cmp]
    if cmp in (">", ">="):
        cmp = ">=" if at_d else ">"
    elif cmp in ("<", "<="):
        cmp = "<=" if at_d else "<"
    elif cmp == "=":
        if not at_d:
            return "False"
        cmp = "=="
    elif at_d:
        return "True"
    # The only formula text in generated code: a str name and a finite float.
    return f"{read(name)} {cmp} {float.__repr__(d)}"


def _filtered_test(
    pred: AtomicPredicate, terms: tuple, constant: int, name: str, read: Callable[[str], str]
) -> str:
    """Multi-signal atom: the float sum decides whenever it is finite and
    farther from 0 than its error bound, the exact test `name(s)` otherwise.

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
    exact = f"{name}(s)"
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
    # The only formula text in generated code: str names and finite floats.
    products = [
        f"({name}q{k} := {float.__repr__(coef)} * {read(signal)})"
        for k, ((signal, _), coef) in enumerate(zip(terms, coefs))
    ]
    sizes = [f"abs({name}q{k})" for k in range(len(coefs))]
    total = " + ".join([float.__repr__(constant), *products])
    size = " + ".join([float.__repr__(abs(constant)), *sizes])
    bound = f"{float.__repr__(relative)} * ({size}) + {float.__repr__(absolute)}"
    return (
        f"({above} if ({name}t := {total}) > ({name}b := {bound}) "
        f"else {below} if {name}t < -{name}b else {exact})"
    )


# The generated network. Operator k reads its window from `make`'s parameters
# `lk`, `uk`. The state follows them, by default that of tick 0: the tick `t`,
# the latched root verdict `decided`, then the flags `pk`, `nk` of leaf k, a
# temporal operator or an atom outside every operator. `network.state()`
# returns it in that order.
# `network(s)` takes a sample and returns its `VerdictRecord`: every operator
# is anchored at tick 0, so the tick is each operator's clock. It first reads
# each of the formula's signals once, in signal order, into a local `x0`,
# `x1`, ...; a sample that is not exactly a `dict` is first checked with
# `present`, which a missing signal also reaches from the `KeyError`. Atoms
# are inlined over those locals; an atom over several signals reads its exact
# test as a global `a0`, `a1`, ..., and one that more than one leaf reads
# leaves its value in a local `vk`. A `vk` is not state: it is assigned in
# the tick that reads it, while any leaf that reads it is open.

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


@lru_cache(maxsize=256)
def _network_code(f: Formula) -> tuple[Callable, tuple[int, ...], tuple[str, ...]]:
    """The factory `make(l0, u0, ..., t=0, decided=None, p0=False, ...) ->
    network` of `f`'s step function, the window bounds it is called with,
    and `f`'s signals. The factory is its shape's; a pre-order walk meets
    the temporal nodes in leaf order."""
    make, signals = _shape_code(with_windows(f, lambda window: None))
    bounds = tuple(
        bound
        for node in walk(f)
        if isinstance(node, TEMPORAL_NODES)
        for bound in (node.window.lower, node.window.upper)
    )
    return make, bounds, signals


@lru_cache(maxsize=256)
def _shape_code(shape: Formula) -> tuple[Callable, tuple[str, ...]]:
    """`_network_code`'s factory and signals for a formula with its windows
    erased, built once per shape."""
    source = _NetworkSource(shape)
    namespace = {
        "FlagConflictError": FlagConflictError,
        "TRUE": TRUE,
        "FALSE": FALSE,
        "UNKNOWN": UNKNOWN,
        "VerdictRecord": VerdictRecord,
        "new": _new_tuple,
        "present": partial(_present, source.signals),
        **source.atoms,
    }
    exec(compile(source.text, "<stlobs network>", "exec"), namespace)
    return namespace["make"], source.signals


def _present(signals: tuple[str, ...], sample: Mapping[str, float], tick: int) -> dict[str, float]:
    """`sample`'s values of `signals`, as a dict; a `MissingSignalError`
    naming, in order, each of them that `sample` lacks. Presence is `in`, so
    a `defaultdict` or a `Counter` lacks what it does not hold."""
    missing = [name for name in signals if name not in sample]
    if missing:
        raise MissingSignalError(missing, f"at tick {tick}") from None
    return {name: sample[name] for name in signals}


class _NetworkSource:
    """The source of `f`'s factory `make` (`text`), the globals its atoms
    read (`atoms`) and the signals it reads (`signals`). No window is read."""

    def __init__(self, f: Formula):
        self.atoms: dict[str, Predicate] = {}
        self.signals = signals_of(f)
        self._values = {name: f"x{k}" for k, name in enumerate(self.signals)}
        self._lines: list[str] = []
        self._leaves = 0
        self._operators: list[int] = []
        self._refs: dict[AtomicPredicate, str] = {}
        # Each shared atom's local: its test and the leaves that read it.
        self._shared: dict[str, tuple[str, list[int]]] = {}
        # Only an atom over two or more signals is worth sharing.
        self._uses = Counter(
            atom.predicate
            for atom in walk(f)
            if isinstance(atom, Atom) and len(atom.predicate.terms) > 1
        )
        pos, neg = self._pair(f)
        # Every tick reads every signal, also once the root has decided, so a
        # sample that lacks one raises at every tick. Only an exact `dict`
        # is read directly: a `defaultdict` would add the missing key.
        reads = []
        if self.signals:
            reads += ["if type(s) is not dict:", "    s = present(s, t)", "try:"]
            reads += [f"    {local} = s[{str.__repr__(name)}]" for name, local in self._values.items()]
            reads += ["except KeyError:", "    present(s, t)"]
        # Verdicts latch: once the root has decided, no leaf is stepped.
        reads += ["if decided is not None:", "    t += 1", "    return new(VerdictRecord, (t - 1, decided))"]
        # A shared atom is computed while some leaf that reads it is open.
        lines = []
        for local, (test, readers) in self._shared.items():
            lines.append("if " + " or ".join(f"not (p{k} or n{k})" for k in readers) + ":")
            lines.append(f"    {local} = {test}")
        lines += self._lines
        # Each operator's pair is checked: the algebra can hide a conflicting
        # pair ((T, T) & (F, F) is (F, T)) but never makes one from consistent
        # pairs. The tick advances only when a record is returned.
        if self._operators:
            lines.append("if " + " or ".join(f"p{k} and n{k}" for k in self._operators) + ":")
            lines.append("    raise FlagConflictError('positive and negative verdict flags are both set')")
        # (Every distinct formula pays a `compile()`; this form compiles
        # faster than one conditional expression or two returns.)
        lines += [f"if {pos}:", "    decided = TRUE", f"elif {neg}:", "    decided = FALSE"]
        lines += ["t += 1", "return new(VerdictRecord, (t - 1, decided or UNKNOWN))"]
        state = ["t", "decided", *(f"{flag}{k}" for k in range(self._leaves) for flag in "pn")]
        params = [f"l{k}, u{k}" for k in self._operators]
        params += ["t=0", "decided=None", *(f"{name}=False" for name in state[2:])]
        body = "".join(f"        {line}\n" for line in reads + lines)
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
            operands = (self._atom(f.predicate, k),)
        else:
            self._operators.append(k)
            operands = tuple(self._operand(operand, k) for operand in children(f))
        body = template.format(*operands, k=k)
        self._lines += [f"if not (p{k} or n{k}):", *(f"    {line}" for line in body.splitlines())]
        return f"p{k}", f"n{k}"

    def _operand(self, f: Formula, leaf: int) -> str:
        """Source of a propositional formula's truth on sample `s`, as an
        operand of leaf `leaf`."""
        if isinstance(f, Atom):
            return self._atom(f.predicate, leaf)
        if isinstance(f, Not):
            return f"(not {self._operand(f.child, leaf)})"
        template = _OPERANDS.get(type(f))
        if template is None:
            raise TypeError(f"operand is not propositional: {f!r}")
        return template.format(l=self._operand(f.left, leaf), r=self._operand(f.right, leaf))

    def _atom(self, pred: AtomicPredicate, leaf: int) -> str:
        """The atom's inlined test or, for a multi-signal atom that more than
        one operand reads, the local holding its value."""
        ref = self._refs.get(pred)
        if ref is None:
            ref, names = _atom_test(pred, f"a{len(self.atoms)}", self._values.__getitem__)
            self.atoms.update(names)
            if names and self._uses[pred] > 1:
                local = f"v{len(self._shared)}"
                self._shared[local], ref = (ref, []), local
            self._refs[pred] = ref
        shared = self._shared.get(ref)
        if shared is not None and leaf not in shared[1]:
            shared[1].append(leaf)
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
    make, bounds, signals = _network_code(f)
    return Monitor(f, partial(make, *bounds), signals)
