"""Online monitor: compiled observer network over a formula.

Each temporal operator becomes one fused cell that reports both verdict
flags; the boolean structure above temporal operators is evaluated per tick
with the Kleene connectives. Both flags latch, the unknown verdict is always
the absence of both flags, and per-operator state does not grow with the
window width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import InvalidFormulaError, MissingSignalError
from .formula import (
    And,
    Atom,
    Eventually,
    Always,
    Formula,
    Implies,
    Not,
    Or,
    Until,
    horizon,
    signals_of,
    validate,
)
from .trace import Trace
from .trilean import (
    FALSE,
    TRUE,
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


def compile_predicate(f: Formula) -> Predicate:
    """Compile a propositional formula to a sample -> bool closure."""
    if isinstance(f, Atom):
        pred = f.predicate
        return pred.evaluate
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
    __slots__ = ("_cell", "_operands")

    def __init__(self, cell, operands: tuple[Predicate, ...]):
        self._cell = cell
        self._operands = operands

    def step(self, sample: Mapping[str, float]) -> Trilean:
        return verdict_from_bools(*self._cell.step(*[op(sample) for op in self._operands]))

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
        self._root = root
        self._cells = cells
        self._tick = 0

    @property
    def tick(self) -> int:
        """Index of the next sample to be consumed."""
        return self._tick

    @property
    def temporal_cells(self) -> tuple:
        """All operator cells, one per temporal operator, in formula order."""
        return self._cells

    def step(self, sample: Mapping[str, float]) -> VerdictRecord:
        missing = [name for name in self.signals if name not in sample]
        if missing:
            raise MissingSignalError(missing, f"at tick {self._tick}")
        verdict = self._root.step(sample)
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
