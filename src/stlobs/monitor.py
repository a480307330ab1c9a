"""Online monitor: one generated step function per formula.

Each temporal operator becomes one fused cell that reports both verdict
flags (pos, neg); both latch, unknown is the absence of both, and a cell's
state does not grow with the window width. `compile_formula` writes the whole
observer network as the source of one function, `network(s) -> verdict`: it
steps each cell on its operand, inlined as one expression, combines the
pairs with the flag-pair algebra of the `_3v` Lustre nodes (`a & b` is
(pa and pb, na or nb), `a | b` is (pa or pb, na and nb), `a -> b` is
(na or pb, pa and nb), `!a` swaps the pair) and reads T/F/U off the root
pair. Every cell's flags latch, so a cell is stepped, and its operands
evaluated, only while neither of its flags is set; once the root has
decided, the function returns its verdict without stepping any cell. Each
atom is compiled once to a float test that agrees exactly with its rational
definition and is inlined: one over a single signal as a comparison such as
`s['speed'] < 20.0`, one over several as one expression that computes the
float sum and its error bound and calls the exact test only when the bound
cannot decide. An atom over several signals that more than one operand reads
is computed once per tick, while some cell that reads it is undecided.

Formula text reaches the generated source only as the `repr` of a `str` (a
signal name) or of a finite `float` (a threshold, a coefficient or an error
bound). Windows never reach it, so formulas that differ only in their
windows share one network code, and compiling a formula again only builds
fresh cells.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import isfinite
from typing import Callable, Mapping, NamedTuple

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
    horizon,
    signals_of,
    validate,
    walk,
    with_windows,
)
from .trace import Trace
from .trilean import FALSE, TRUE, UNKNOWN, FlagPair, Trilean, to_flags

Predicate = Callable[[Mapping[str, float]], bool]


class VerdictRecord(NamedTuple):
    """Monitor output for one tick."""

    tick: int
    verdict: Trilean

    @property
    def flags(self) -> FlagPair:
        """The verdict as its (positive, negative) flag pair."""
        return to_flags(self.verdict)


# Builds a record without the keyword handling of `VerdictRecord.__new__`.
_new_tuple = tuple.__new__


# Operator cells. Each cell advances one tick per `step`, returns the pair
# (pos, neg) of latched verdict flags, and stores one clock plus one or two
# latched booleans. The clock counts ticks and stops at `upper + 1`, so
# "inside the window" (clk <= upper) stays distinguishable from "past it"
# whatever the window width; nothing is updated past the window.


class _WindowCell:
    __slots__ = ("lower", "upper", "_clk")

    def __init__(self, lower: int, upper: int):
        if not 0 <= lower < upper:
            raise ValueError(f"window [{lower},{upper}] must satisfy 0 <= lower < upper")
        self.lower, self.upper = lower, upper
        self._clk = 0


class EventuallyCell(_WindowCell):
    """F[lower,upper]: true once the operand holds at a tick in the window,
    false once the window has closed without that."""

    __slots__ = ("_seen",)

    def __init__(self, lower: int, upper: int):
        super().__init__(lower, upper)
        self._seen = False

    def step(self, phi: bool) -> tuple[bool, bool]:
        clk = self._clk
        if clk <= self.upper:
            if phi and clk >= self.lower:
                self._seen = True
            self._clk = clk + 1
        seen = self._seen
        return seen, clk >= self.upper and not seen

    def state_scalars(self) -> tuple:
        return (self._clk, self._seen)


class AlwaysCell(_WindowCell):
    """G[lower,upper]: false once the operand fails at a tick in the window,
    true once the window has closed without that."""

    __slots__ = ("_ok",)

    def __init__(self, lower: int, upper: int):
        super().__init__(lower, upper)
        self._ok = True

    def step(self, phi: bool) -> tuple[bool, bool]:
        clk = self._clk
        if clk <= self.upper:
            if not phi and clk >= self.lower:
                self._ok = False
            self._clk = clk + 1
        ok = self._ok
        return clk >= self.upper and ok, not ok

    def state_scalars(self) -> tuple:
        return (self._clk, self._ok)


class UntilCell(_WindowCell):
    """phi1 U[lower,upper] phi2: true once phi2 holds at a tick in the window
    with phi1 holding at every tick from 0 up to and including it.

    False once no tick can still be such a witness: phi1 has failed (every
    later witness would need it to hold there), or the window has closed.
    """

    __slots__ = ("_prefix_ok", "_witness")

    def __init__(self, lower: int, upper: int):
        super().__init__(lower, upper)
        self._prefix_ok = True
        self._witness = False

    def step(self, phi1: bool, phi2: bool) -> tuple[bool, bool]:
        clk = self._clk
        if clk <= self.upper:
            prefix_ok = self._prefix_ok = self._prefix_ok and phi1
            if prefix_ok and phi2 and clk >= self.lower:
                self._witness = True
            self._clk = clk + 1
        witness = self._witness
        return witness, not witness and (clk >= self.upper or not self._prefix_ok)

    def state_scalars(self) -> tuple:
        return (self._clk, self._prefix_ok, self._witness)


class _AnchoredAtom:
    """An atom outside every temporal operator: its verdict is fixed by the
    sample at tick 0."""

    __slots__ = ("_pred", "_holds")

    def __init__(self, pred: Predicate):
        self._pred = pred
        self._holds: bool | None = None

    def step(self, sample: Mapping[str, float]) -> tuple[bool, bool]:
        holds = self._holds
        if holds is None:
            holds = self._holds = self._pred(sample)
        return holds, not holds

    def state_scalars(self) -> tuple:
        return (self._holds,)


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


def _atom_test(pred: AtomicPredicate, name: str) -> tuple[str, dict[str, Predicate]]:
    """The atom as the source of one expression of sample `s`, and the
    globals it reads: none, or, for an atom over several signals, its exact
    test `pred.evaluate` as `name`, whose float filter keeps its partial
    results in locals named after it. Works on the atom's integer form,
    which has the same truth on every sample."""
    terms, constant = pred.integer_form
    terms = tuple((signal, coef) for signal, coef in terms if coef)
    if not terms:
        return repr(compare_with_zero(constant, pred.comparator)), {}
    if len(terms) == 1:
        ((signal, coef),) = terms
        return _threshold_test(pred, signal, coef, constant), {}
    return _filtered_test(pred, terms, constant, name), {name: pred.evaluate}


def _threshold_test(pred: AtomicPredicate, name: str, coef: int, constant: int) -> str:
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
    return f"s[{str.__repr__(name)}] {cmp} {float.__repr__(d)}"


def _filtered_test(pred: AtomicPredicate, terms: tuple, constant: int, name: str) -> str:
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
        f"({name}q{k} := {float.__repr__(coef)} * s[{str.__repr__(signal)}])"
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


# The generated network. Cell k is the parameter `ck` (its bound `step`) and
# leaves its flags in `pk`, `nk`, locals of `make` that start False; the
# latched root verdict is `make`'s local `decided`. Atoms are inlined; an
# atom over several signals reads its exact test as a global `a0`, `a1`, ...,
# and one that more than one operand reads leaves its value in a local `vk`.

_CELLS = {Atom: _AnchoredAtom, Eventually: EventuallyCell, Always: AlwaysCell, Until: UntilCell}
_PAIRS = {
    And: ("({lp} and {rp})", "({ln} or {rn})"),
    Or: ("({lp} or {rp})", "({ln} and {rn})"),
    Implies: ("({ln} or {rp})", "({lp} and {rn})"),
}
_OPERANDS = {And: "({l} and {r})", Or: "({l} or {r})", Implies: "(not {l} or {r})"}


@lru_cache(maxsize=256)
def _network_code(f: Formula) -> tuple[Callable, tuple, tuple[str, ...]]:
    """The factory `make(c0, c1, ...) -> network` of `f`'s step function,
    each cell's `_CELLS` key and constructor arguments, and `f`'s signals.
    The factory is its shape's; a pre-order walk meets the temporal nodes in
    leaf order, so each cell takes its window from there."""
    make, leaves, signals = _shape_code(with_windows(f, lambda window: None))
    windows = ((n.window.lower, n.window.upper) for n in walk(f) if isinstance(n, TEMPORAL_NODES))
    return make, tuple((kind, args if kind is Atom else next(windows)) for kind, args in leaves), signals


@lru_cache(maxsize=256)
def _shape_code(shape: Formula) -> tuple[Callable, tuple, tuple[str, ...]]:
    """`_network_code` of a formula with its windows erased, built once per
    shape: temporal cells have no constructor arguments yet."""
    source = _NetworkSource(shape)
    namespace = {
        "FlagConflictError": FlagConflictError,
        "TRUE": TRUE,
        "FALSE": FALSE,
        "UNKNOWN": UNKNOWN,
        **source.atoms,
    }
    exec(compile(source.text, "<stlobs network>", "exec"), namespace)
    return namespace["make"], tuple(source.leaves), signals_of(shape)


class _NetworkSource:
    """The source of `f`'s factory `make` (`text`), the cells it is called
    with (`leaves`: `_CELLS` key and constructor arguments, in formula order,
    none for a temporal cell) and the globals its atoms read (`atoms`).
    No window is read."""

    def __init__(self, f: Formula):
        self.leaves: list[tuple] = []
        self.atoms: dict[str, Predicate] = {}
        self._lines: list[str] = []
        self._refs: dict[AtomicPredicate, str] = {}
        # Each shared atom's local: its test and the cells that read it.
        self._shared: dict[str, tuple[str, list[int]]] = {}
        # Only an atom over two or more signals is worth sharing.
        self._uses = Counter(
            atom.predicate
            for node in walk(f)
            if isinstance(node, TEMPORAL_NODES)
            for operand in children(node)
            for atom in walk(operand)
            if isinstance(atom, Atom) and len(atom.predicate.terms) > 1
        )
        pos, neg = self._pair(f)
        # A shared atom is computed while some cell that reads it is open.
        lines = []
        for local, (test, readers) in self._shared.items():
            lines.append("if " + " or ".join(f"not (p{k} or n{k})" for k in readers) + ":")
            lines.append(f"    {local} = {test}")
        lines += self._lines
        # Each cell's pair is checked: the algebra can hide a conflicting pair
        # ((T, T) & (F, F) is (F, T)) but never makes one from consistent pairs.
        temporal = [k for k, (kind, _) in enumerate(self.leaves) if kind is not Atom]
        if temporal:
            lines.append("if " + " or ".join(f"p{k} and n{k}" for k in temporal) + ":")
            lines.append("    raise FlagConflictError('positive and negative verdict flags are both set')")
        # Verdicts latch: once the root has decided, no cell is stepped.
        # (Every distinct formula pays a `compile()`; this form compiles
        # faster than one conditional expression or two returns.)
        lines += [f"if {pos}:", "    decided = TRUE", f"elif {neg}:", "    decided = FALSE"]
        lines.append("return decided or UNKNOWN")
        params = ", ".join(f"c{k}" for k in range(len(self.leaves)))
        flags = [f"{flag}{k}" for k in range(len(self.leaves)) for flag in "pn"]
        body = "".join(f"        {line}\n" for line in lines)
        self.text = (
            f"def make({params}):\n"
            "    decided = None\n"
            f"    {' = '.join(flags)} = False\n"
            "    def network(s):\n"
            f"        nonlocal decided, {', '.join(flags)}\n"
            "        if decided is not None:\n"
            "            return decided\n"
            f"{body}"
            "    return network\n"
        )

    def _pair(self, f: Formula) -> tuple[str, str]:
        """Source of the (pos, neg) flags of `f`; adds one statement per cell,
        in formula order. Flags latch, so a cell is stepped, and its operands
        evaluated, only while neither of its flags is set."""
        if isinstance(f, Not):
            pos, neg = self._pair(f.child)
            return neg, pos
        templates = _PAIRS.get(type(f))
        if templates is not None:
            lp, ln = self._pair(f.left)
            rp, rn = self._pair(f.right)
            return tuple(t.format(lp=lp, ln=ln, rp=rp, rn=rn) for t in templates)
        k = len(self.leaves)
        if isinstance(f, Atom):
            self.leaves.append((Atom, (compile_atom(f.predicate),)))
            args = "s"
        elif type(f) in _CELLS:
            operands = (f.left, f.right) if isinstance(f, Until) else (f.child,)
            self.leaves.append((type(f), ()))
            args = ", ".join(self._operand(op, k) for op in operands)
        else:
            raise TypeError(f"not a formula node: {f!r}")
        self._lines += [f"if not (p{k} or n{k}):", f"    p{k}, n{k} = c{k}({args})"]
        return f"p{k}", f"n{k}"

    def _operand(self, f: Formula, cell: int) -> str:
        """Source of a propositional formula's truth on sample `s`, as an
        operand of cell `cell`."""
        if isinstance(f, Atom):
            return self._atom(f.predicate, cell)
        if isinstance(f, Not):
            return f"(not {self._operand(f.child, cell)})"
        template = _OPERANDS.get(type(f))
        if template is None:
            raise TypeError(f"operand is not propositional: {f!r}")
        return template.format(l=self._operand(f.left, cell), r=self._operand(f.right, cell))

    def _atom(self, pred: AtomicPredicate, cell: int) -> str:
        """The atom's inlined test or, for a multi-signal atom that more than
        one operand reads, the local holding its value."""
        ref = self._refs.get(pred)
        if ref is None:
            ref, names = _atom_test(pred, f"a{len(self.atoms)}")
            self.atoms.update(names)
            if names and self._uses[pred] > 1:
                local = f"v{len(self._shared)}"
                self._shared[local], ref = (ref, []), local
            self._refs[pred] = ref
        shared = self._shared.get(ref)
        if shared is not None and cell not in shared[1]:
            shared[1].append(cell)
        return ref


class Monitor:
    """Stepwise evaluator for one formula, anchored at tick 0."""

    def __init__(self, formula: Formula, network: Callable, cells: tuple, signals: tuple[str, ...]):
        self.formula = formula
        self.signals = signals
        self._signal_set = frozenset(self.signals)
        self._network = network
        self._cells = cells
        self._tick = 0

    @property
    def horizon(self) -> int:
        """Ticks after the anchor needed to decide the verdict."""
        return horizon(self.formula)

    @property
    def tick(self) -> int:
        """Index of the next sample to be consumed."""
        return self._tick

    @property
    def temporal_cells(self) -> tuple:
        """All operator cells, one per temporal operator, in formula order."""
        return tuple(cell for cell in self._cells if isinstance(cell, _WindowCell))

    def step(self, sample: Mapping[str, float]) -> VerdictRecord:
        if not sample.keys() >= self._signal_set:
            missing = [name for name in self.signals if name not in sample]
            raise MissingSignalError(missing, f"at tick {self._tick}")
        tick = self._tick
        record = _new_tuple(VerdictRecord, (tick, self._network(sample)))
        self._tick = tick + 1
        return record

    def run(self, trace: Trace, early_stop: bool = False) -> list[VerdictRecord]:
        """Feed every sample of `trace` in order.

        With `early_stop` the run halts right after the first decisive
        verdict; by default the full trace is consumed.
        """
        records: list[VerdictRecord] = []
        for k in range(len(trace)):
            record = self.step(trace.sample(k))
            records.append(record)
            if early_stop and record.verdict is not Trilean.UNKNOWN:
                break
        return records

    def state_scalar_count(self) -> int:
        """Number of scalars stored across all cells; constant over time and
        independent of window widths."""
        return sum(len(cell.state_scalars()) for cell in self._cells)


def compile_formula(f: Formula) -> Monitor:
    """Validate `f` and build its observer network."""
    violations = validate(f)
    if violations:
        raise InvalidFormulaError(violations)
    make, leaves, signals = _network_code(f)
    cells = tuple(_CELLS[kind](*args) for kind, args in leaves)
    return Monitor(f, make(*(cell.step for cell in cells)), cells, signals)
