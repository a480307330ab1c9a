"""Online monitor: compiled observer network over a formula.

Each temporal operator becomes one fused cell that reports both verdict
flags; the boolean structure above temporal operators is evaluated per tick
with the Kleene connectives. Both flags latch, the unknown verdict is always
the absence of both flags, and per-operator state does not grow with the
window width. Each atom is compiled once to a float closure that agrees
exactly with its rational definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import InvalidFormulaError, MissingSignalError
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
    compare_with_zero,
    horizon,
    signals_of,
    validate,
)
from .trace import Trace
from .trilean import (
    FALSE,
    TRUE,
    UNKNOWN,
    FlagPair,
    Trilean,
    and3,
    implies3,
    not3,
    or3,
    to_flags,
    verdict_from_bools,
)

Predicate = Callable[[Mapping[str, float]], bool]


@dataclass(frozen=True)
class VerdictRecord:
    """Monitor output for one tick."""

    tick: int
    verdict: Trilean

    @property
    def flags(self) -> FlagPair:
        """The verdict as its (positive, negative) flag pair."""
        return to_flags(self.verdict)


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


# Compiled atoms. Each closure agrees exactly with `AtomicPredicate.evaluate`
# (samples read as their shortest round-trip decimals) but does float
# arithmetic on every sample it can decide that way.

_FLIPPED = {">": "<", ">=": "<=", "<": ">", "<=": ">=", "=": "=", "!=": "!="}

_FLOAT_TESTS = {
    ">": lambda name, d: lambda s: s[name] > d,
    ">=": lambda name, d: lambda s: s[name] >= d,
    "<": lambda name, d: lambda s: s[name] < d,
    "<=": lambda name, d: lambda s: s[name] <= d,
    "=": lambda name, d: lambda s: s[name] == d,
    "!=": lambda name, d: lambda s: s[name] != d,
}

_UNIT_ROUNDOFF = 2.0**-53
_MIN_SUBNORMAL = 2.0**-1074


def _constant(holds: bool) -> Predicate:
    return lambda s: holds


def compile_atom(pred: AtomicPredicate) -> Predicate:
    """Compile a linear atom to a sample -> bool closure that agrees exactly
    with `pred.evaluate`. Works on the atom's integer form, which has the
    same truth on every sample."""
    terms, constant = pred.integer_form
    terms = tuple((name, coef) for name, coef in terms if coef)
    if not terms:
        return _constant(compare_with_zero(constant, pred.comparator))
    if len(terms) == 1:
        ((name, coef),) = terms
        return _threshold_atom(pred, name, coef, constant)
    return _filtered_atom(pred, terms, constant)


def _threshold_atom(pred: AtomicPredicate, name: str, coef: int, constant: int) -> Predicate:
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
        return _constant(compare_with_zero(constant, cmp))
    sample = dict.fromkeys(pred.signals, 0.0)
    sample[name] = d
    at_d = pred.evaluate(sample)
    if coef < 0:
        cmp = _FLIPPED[cmp]
    if cmp in (">", ">="):
        cmp = ">=" if at_d else ">"
    elif cmp in ("<", "<="):
        cmp = "<=" if at_d else "<"
    elif cmp == "=" and not at_d:
        return _constant(False)
    elif cmp == "!=" and at_d:
        return _constant(True)
    return _FLOAT_TESTS[cmp](name, d)


def _filtered_atom(pred: AtomicPredicate, terms: tuple, constant: int) -> Predicate:
    """Multi-signal atom: the float sum decides whenever it is finite and
    farther from 0 than its error bound, the exact sum otherwise.

    The bound covers the rounding of the coefficients and of the constant to
    floats, of each sample's decimal to its float, of the products and of the
    sums: (m + 3) unit roundoffs of the sum of magnitudes for m terms, plus
    underflow, with one more roundoff and a doubled underflow term as room
    for the rounding of the bound itself (Shewchuk, "Adaptive Precision
    Floating-Point Arithmetic and Fast Robust Geometric Predicates", 1997).
    Integer coefficients are never subnormal; one beyond the float range
    leaves the atom exact only.
    """
    try:
        coefs = tuple((name, float(coef)) for name, coef in terms)
        constant = float(constant)
    except OverflowError:
        return pred.evaluate
    relative = (len(coefs) + 4) * _UNIT_ROUNDOFF
    absolute = 2 * (sum(abs(c) for _, c in coefs) + 2 * len(coefs) + 1) * _MIN_SUBNORMAL
    cmp = pred.comparator
    above, below = compare_with_zero(1, cmp), compare_with_zero(-1, cmp)
    exact = pred.evaluate

    def atom(sample: Mapping[str, float]) -> bool:
        total = constant
        size = abs(constant)
        for name, coef in coefs:
            product = coef * sample[name]
            total += product
            size += abs(product)
        bound = relative * size + absolute
        if total > bound:
            return above
        if total < -bound:
            return below
        return exact(sample)

    return atom


def compile_predicate(f: Formula) -> Predicate:
    """Compile a propositional formula to a sample -> bool closure."""
    if isinstance(f, Atom):
        return compile_atom(f.predicate)
    if isinstance(f, Not):
        child = compile_predicate(f.child)
        return lambda s: not child(s)
    if isinstance(f, And):
        left, right = compile_predicate(f.left), compile_predicate(f.right)
        return lambda s: left(s) and right(s)
    if isinstance(f, Or):
        left, right = compile_predicate(f.left), compile_predicate(f.right)
        return lambda s: left(s) or right(s)
    if isinstance(f, Implies):
        left, right = compile_predicate(f.left), compile_predicate(f.right)
        return lambda s: (not left(s)) or right(s)
    raise TypeError(f"operand is not propositional: {f!r}")


# Verdict network nodes.


class _AtomNode:
    """Anchored atom: the verdict is fixed by the sample at tick 0."""

    __slots__ = ("_pred", "_verdict")

    def __init__(self, pred: Predicate):
        self._pred = pred
        self._verdict: Trilean | None = None

    def step(self, sample: Mapping[str, float]) -> Trilean:
        verdict = self._verdict
        if verdict is None:
            verdict = self._verdict = TRUE if self._pred(sample) else FALSE
        return verdict

    def state_scalars(self) -> tuple:
        return (self._verdict,)


class _NotNode:
    __slots__ = ("_child",)

    def __init__(self, child):
        self._child = child

    def step(self, sample: Mapping[str, float]) -> Trilean:
        return not3(self._child.step(sample))

    def state_scalars(self) -> tuple:
        return self._child.state_scalars()


class _BinNode:
    __slots__ = ("_op", "_left", "_right")

    def __init__(self, op, left, right):
        self._op = op
        self._left = left
        self._right = right

    def step(self, sample: Mapping[str, float]) -> Trilean:
        return self._op(self._left.step(sample), self._right.step(sample))

    def state_scalars(self) -> tuple:
        return self._left.state_scalars() + self._right.state_scalars()


class _TemporalNode:
    __slots__ = ("_cell", "_advance")

    def __init__(self, cell, operands: tuple[Predicate, ...]):
        self._cell = cell
        if len(operands) == 1:
            (phi,) = operands
            self._advance = lambda s: cell.step(phi(s))
        else:
            phi1, phi2 = operands
            self._advance = lambda s: cell.step(phi1(s), phi2(s))

    def step(self, sample: Mapping[str, float]) -> Trilean:
        return verdict_from_bools(*self._advance(sample))

    def state_scalars(self) -> tuple:
        return self._cell.state_scalars()


_BIN_OPS = {And: and3, Or: or3, Implies: implies3}
_CELLS = {Eventually: EventuallyCell, Always: AlwaysCell, Until: UntilCell}


class Monitor:
    """Stepwise evaluator for one formula, anchored at tick 0."""

    def __init__(self, formula: Formula, root, cells: tuple):
        self.formula = formula
        self.signals = signals_of(formula)
        self.horizon = horizon(formula)
        self._signal_set = frozenset(self.signals)
        self._root = root
        self._cells = cells
        self._tick = 0
        self._decided: Trilean | None = None

    @property
    def tick(self) -> int:
        """Index of the next sample to be consumed."""
        return self._tick

    @property
    def temporal_cells(self) -> tuple:
        """All operator cells, one per temporal operator, in formula order."""
        return self._cells

    def step(self, sample: Mapping[str, float]) -> VerdictRecord:
        if not sample.keys() >= self._signal_set:
            missing = [name for name in self.signals if name not in sample]
            raise MissingSignalError(missing, f"at tick {self._tick}")
        # Verdicts latch, so once the root has decided no cell is stepped.
        verdict = self._decided
        if verdict is None:
            verdict = self._root.step(sample)
            if verdict is not UNKNOWN:
                self._decided = verdict
        record = VerdictRecord(self._tick, verdict)
        self._tick += 1
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
        return len(self._root.state_scalars())


def compile_formula(f: Formula) -> Monitor:
    """Validate `f` and build its observer network."""
    violations = validate(f)
    if violations:
        raise InvalidFormulaError(violations)
    cells: list = []
    root = _build(f, cells)
    return Monitor(f, root, tuple(cells))


def _build(f: Formula, cells: list):
    if isinstance(f, Atom):
        return _AtomNode(compile_predicate(f))
    if isinstance(f, Not):
        return _NotNode(_build(f.child, cells))
    if isinstance(f, (And, Or, Implies)):
        return _BinNode(_BIN_OPS[type(f)], _build(f.left, cells), _build(f.right, cells))
    cell_type = _CELLS.get(type(f))
    if cell_type is None:
        raise TypeError(f"not a formula node: {f!r}")
    cell = cell_type(f.window.lower, f.window.upper)
    operands = (f.left, f.right) if isinstance(f, Until) else (f.child,)
    cells.append(cell)
    return _TemporalNode(cell, tuple(compile_predicate(op) for op in operands))
