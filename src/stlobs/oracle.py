"""Reference evaluators used to cross-check the online monitor.

Everything here is a direct transcription of the defining quantifiers into
nested loops over the trace. No incremental state, no sharing with the
monitor implementation: slow on purpose, so it can serve as the trusted side
of every differential check.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ShortTraceError
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
    walk,
)
from .trace import Trace
from .trilean import FALSE, TRUE, UNKNOWN, Trilean, and3, implies3, not3, or3

OPERATOR_KINDS = ("eventually", "always", "until")
POLARITIES = ("positive", "negative")


def _prop_truth(f: Formula, trace: Trace, t: int) -> bool:
    """Two-valued truth of a propositional formula at tick t."""
    if isinstance(f, Atom):
        return f.predicate.evaluate(trace.sample(t))
    if isinstance(f, Not):
        return not _prop_truth(f.child, trace, t)
    if isinstance(f, And):
        return _prop_truth(f.left, trace, t) and _prop_truth(f.right, trace, t)
    if isinstance(f, Or):
        return _prop_truth(f.left, trace, t) or _prop_truth(f.right, trace, t)
    if isinstance(f, Implies):
        return (not _prop_truth(f.left, trace, t)) or _prop_truth(f.right, trace, t)
    raise TypeError(f"not propositional: {f!r}")


def offline_eval(f: Formula, trace: Trace, t: int = 0) -> bool:
    """Two-valued semantics over a complete trace, evaluated at time t.

    The trace must extend past t + horizon(f); otherwise the value could
    depend on samples that do not exist.
    """
    need = t + horizon(f)
    if len(trace) <= need:
        raise ShortTraceError(
            f"trace has {len(trace)} ticks; evaluation at t={t} needs ticks up to {need}"
        )
    return _off(f, trace, t)


def _off(f: Formula, trace: Trace, t: int) -> bool:
    if isinstance(f, Not):
        return not _off(f.child, trace, t)
    if isinstance(f, And):
        return _off(f.left, trace, t) and _off(f.right, trace, t)
    if isinstance(f, Or):
        return _off(f.left, trace, t) or _off(f.right, trace, t)
    if isinstance(f, Implies):
        return (not _off(f.left, trace, t)) or _off(f.right, trace, t)
    if isinstance(f, Eventually):
        lo, hi = f.window.lower, f.window.upper
        return any(_off(f.child, trace, u) for u in range(t + lo, t + hi + 1))
    if isinstance(f, Always):
        lo, hi = f.window.lower, f.window.upper
        return all(_off(f.child, trace, u) for u in range(t + lo, t + hi + 1))
    if isinstance(f, Until):
        lo, hi = f.window.lower, f.window.upper
        for u in range(t + lo, t + hi + 1):
            if _off(f.right, trace, u) and all(
                _off(f.left, trace, v) for v in range(t, u + 1)
            ):
                return True
        return False
    return _prop_truth(f, trace, t)


def three_valued_eval(f: Formula, prefix: Trace, tau: int) -> Trilean:
    """Three-valued verdict for `f` anchored at tick 0, after observing the
    prefix up to and including tick `tau`.

    The decided verdicts are computed independently from their defining
    quantifiers; "unknown" is returned exactly when neither holds. Computing
    both sides makes the mutual-exclusion assertion meaningful.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if len(prefix) <= tau:
        raise ShortTraceError(f"prefix has {len(prefix)} ticks; tick {tau} not observed")
    return _tv(f, prefix, tau)


def _tv(f: Formula, trace: Trace, tau: int) -> Trilean:
    if isinstance(f, Not):
        return not3(_tv(f.child, trace, tau))
    if isinstance(f, And):
        return and3(_tv(f.left, trace, tau), _tv(f.right, trace, tau))
    if isinstance(f, Or):
        return or3(_tv(f.left, trace, tau), _tv(f.right, trace, tau))
    if isinstance(f, Implies):
        return implies3(_tv(f.left, trace, tau), _tv(f.right, trace, tau))
    if isinstance(f, Eventually):
        lo, hi = f.window.lower, f.window.upper
        row = [_prop_truth(f.child, trace, t) for t in range(lo, min(tau, hi) + 1)]
        pos = tau >= lo and any(row)
        neg = tau >= hi and not any(row)
        assert not (pos and neg), "eventually: decided both ways"
        return TRUE if pos else FALSE if neg else UNKNOWN
    if isinstance(f, Always):
        lo, hi = f.window.lower, f.window.upper
        row = [_prop_truth(f.child, trace, t) for t in range(lo, min(tau, hi) + 1)]
        pos = tau >= hi and all(row)
        neg = tau >= lo and not all(row)
        assert not (pos and neg), "always: decided both ways"
        return TRUE if pos else FALSE if neg else UNKNOWN
    if isinstance(f, Until):
        lo, hi = f.window.lower, f.window.upper
        seen = min(tau, hi)
        row1 = [_prop_truth(f.left, trace, t) for t in range(0, seen + 1)]
        row2 = [_prop_truth(f.right, trace, t) for t in range(0, seen + 1)]

        def witness_up_to(end: int) -> bool:
            return any(
                row2[t1] and all(row1[t2] for t2 in range(0, t1 + 1))
                for t1 in range(lo, end + 1)
            )

        pos = tau >= lo and witness_up_to(seen)
        neg = (
            any(not row1[t] for t in range(0, min(tau, lo) + 1))
            or (lo <= tau < hi and any(not row1[t] for t in range(lo, tau + 1))
                and not witness_up_to(tau))
            or (tau >= hi and not witness_up_to(hi))
        )
        assert not (pos and neg), "until: decided both ways"
        return TRUE if pos else FALSE if neg else UNKNOWN
    # Propositional nodes are anchored at tick 0 and decided immediately.
    return TRUE if _prop_truth(f, trace, 0) else FALSE


def explicit_eval(
    kind: str,
    lower: int,
    upper: int,
    operands: Sequence[Sequence[bool]],
    polarity: str,
) -> bool:
    """Enumerated (unrolled) forms of the decided verdicts at the horizon.

    Operands are plain boolean rows covering at least ticks 0..upper. These
    are the expressions the emitted proof obligations are built from, and
    the induction checks compare each operator's flags with them. The one-tick
    window lower == upper is accepted here (the step case's form over the
    new tick alone); formulas still need lower < upper.
    """
    _check_kind(kind)
    if polarity not in POLARITIES:
        raise ValueError(f"unknown polarity {polarity!r}")
    rows = [list(op) for op in operands]
    for row in rows:
        if len(row) <= upper:
            raise ShortTraceError(f"operand row has {len(row)} ticks; needs > {upper}")
    if kind == "eventually":
        (row,) = rows
        if polarity == "positive":
            return any(row[n] for n in range(lower, upper + 1))
        return all(not row[n] for n in range(lower, upper + 1))
    if kind == "always":
        (row,) = rows
        if polarity == "positive":
            return all(row[n] for n in range(lower, upper + 1))
        return any(not row[n] for n in range(lower, upper + 1))
    row1, row2 = rows
    witness = any(
        all(row1[i] for i in range(0, n + 1)) and row2[n] for n in range(lower, upper + 1)
    )
    if polarity == "positive":
        return witness
    return any(not row1[t] for t in range(0, lower + 1)) or not witness


def _check_kind(kind: str) -> None:
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")


def identity_check(f: Formula, trace: Trace) -> bool:
    """Check the defining identities on every temporal node of `f`, offline.

    Eventually is untimed-true Until its operand; Always is the negation of
    Eventually of the negated operand. The trace must cover horizon(f).
    """
    for node in walk(f):
        if isinstance(node, Eventually):
            tautology = Or(node.child, Not(node.child))
            equivalent = Until(node.window, tautology, node.child)
            if offline_eval(node, trace, 0) != offline_eval(equivalent, trace, 0):
                return False
        elif isinstance(node, Always):
            equivalent = Not(Eventually(node.window, Not(node.child)))
            if offline_eval(node, trace, 0) != offline_eval(equivalent, trace, 0):
                return False
    return True
