"""Self-checking machinery: differential sweeps, induction checks, and a
randomized property suite.

Every check compares the streaming monitor against the quantifier oracle (or
against its explicitly unrolled forms) and reports divergences as replayable
(formula, trace, tick) failures.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .errors import EnumerationCapError, FlagConflictError
from .formula import (
    And,
    Formula,
    Implies,
    Interval,
    Not,
    Or,
    Always,
    Eventually,
    Until,
    TEMPORAL_NODES,
    horizon,
    render,
    signal_atom,
    signals_of,
)
from .monitor import AlwaysCell, EventuallyCell, Monitor, UntilCell, compile_formula
from .oracle import OPERATOR_KINDS, POLARITIES, explicit_eval, offline_eval, three_valued_eval
from .trace import Trace
from .trilean import FALSE, TRUE, UNKNOWN, Trilean

CompileFn = Callable[[Formula], Monitor]

DEFAULT_ENUMERATION_CAP = 2**20


@dataclass(frozen=True)
class Failure:
    """One divergence, carrying everything needed to replay it."""

    check: str
    formula: str
    trace: tuple[tuple[float, ...], ...]
    tick: int
    monitor_verdict: str
    oracle_verdict: str

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "formula": self.formula,
            "trace": [list(row) for row in self.trace],
            "tick": self.tick,
            "monitor_verdict": self.monitor_verdict,
            "oracle_verdict": self.oracle_verdict,
        }


@dataclass
class ConformanceReport:
    cases: int
    failures: list[Failure] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "cases": self.cases,
            "failures": [f.to_dict() for f in self.failures],
            "wall_time_s": self.wall_time_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self, max_failures: int = 5) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"{status}: {self.cases} cases, {len(self.failures)} failures, "
            f"{self.wall_time_s:.2f}s"
        ]
        for failure in self.failures[:max_failures]:
            lines.append(
                f"  [{failure.check}] {failure.formula} @ tick {failure.tick}: "
                f"monitor={failure.monitor_verdict} oracle={failure.oracle_verdict} "
                f"trace={list(map(list, failure.trace))}"
            )
        if len(self.failures) > max_failures:
            lines.append(f"  ... and {len(self.failures) - max_failures} more")
        return "\n".join(lines)


def enumerate_traces(
    num_atoms: int, length: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[tuple[tuple[bool, ...], ...]]:
    """All boolean assignments for `num_atoms` atoms over `length` ticks.

    Deterministic order. Refuses (before yielding anything) when the count
    (2**num_atoms)**length would exceed `cap`.
    """
    total = (2**num_atoms) ** length
    if total > cap:
        raise EnumerationCapError(
            f"{total} traces for {num_atoms} atoms x {length} ticks exceeds cap {cap}"
        )
    ticks = list(itertools.product((False, True), repeat=num_atoms))
    return itertools.product(ticks, repeat=length)


_SIGNALS = ("p", "q")


def operator_formula(kind: str, lower: int, upper: int) -> Formula:
    """The canonical single-operator formula used by the sweeps."""
    window = Interval(lower, upper)
    if kind == "eventually":
        return Eventually(window, signal_atom("p", ">"))
    if kind == "always":
        return Always(window, signal_atom("p", ">"))
    if kind == "until":
        return Until(window, signal_atom("p", ">"), signal_atom("q", ">"))
    raise ValueError(f"unknown operator kind {kind!r}")


def bool_trace(rows: Sequence[Sequence[bool]], num_atoms: int) -> Trace:
    """Encode boolean operand rows as a real trace over p (and q)."""
    return Trace(
        _SIGNALS[:num_atoms],
        tuple(tuple(1.0 if v else 0.0 for v in row) for row in rows),
    )


def first_divergence(
    f: Formula, trace: Trace, compile_fn: CompileFn = compile_formula
) -> tuple[int, str, str] | None:
    """First tick where the monitor and the three-valued oracle disagree.

    Returns (tick, monitor verdict, oracle verdict), or None. Deterministic:
    replaying the same formula and trace reproduces the same answer.
    """
    monitor = compile_fn(f)
    for k in range(len(trace)):
        try:
            record = monitor.step(trace.sample(k))
            got = record.verdict
        except FlagConflictError:
            return (k, "conflict", str(three_valued_eval(f, trace, k)))
        want = three_valued_eval(f, trace, k)
        if got is not want:
            return (k, str(got), str(want))
    return None


def differential_sweep(
    kinds: Sequence[str] = OPERATOR_KINDS,
    max_upper: int = 4,
    compile_fn: CompileFn = compile_formula,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ConformanceReport:
    """Exhaustive monitor-vs-oracle comparison on boolean operand traces.

    For every operator kind, every window 0 <= lower < upper <= max_upper and
    every boolean operand trace of length upper + 3, the monitor verdict must
    match the three-valued oracle at every tick; at the horizon tick the
    decided verdict must additionally match the two-valued offline semantics.
    """
    start = time.perf_counter()
    failures: list[Failure] = []
    cases = 0
    for kind in kinds:
        num_atoms = 2 if kind == "until" else 1
        for lower in range(0, max_upper):
            for upper in range(lower + 1, max_upper + 1):
                f = operator_formula(kind, lower, upper)
                rendered = render(f)
                length = upper + 3
                for rows in enumerate_traces(num_atoms, length, cap=cap):
                    trace = bool_trace(rows, num_atoms)
                    cases += 1
                    monitor = compile_fn(f)
                    for k in range(length):
                        try:
                            got = monitor.step(trace.sample(k)).verdict
                        except FlagConflictError:
                            got = None
                        want = three_valued_eval(f, trace, k)
                        if got is not want:
                            failures.append(
                                Failure(
                                    "verdict-mismatch",
                                    rendered,
                                    trace.samples,
                                    k,
                                    "conflict" if got is None else str(got),
                                    str(want),
                                )
                            )
                            break
                        if k == upper:
                            decided = offline_eval(f, trace, 0)
                            if (got is TRUE) != decided:
                                failures.append(
                                    Failure(
                                        "horizon-offline",
                                        rendered,
                                        trace.samples,
                                        k,
                                        str(got),
                                        "T" if decided else "F",
                                    )
                                )
                                break
    return ConformanceReport(cases, failures, time.perf_counter() - start)


# Induction checks: each flag of a streaming cell must agree with the
# oracle's unrolled forms (`explicit_eval`), both for the smallest window and
# when the window is extended by one tick. Both compare from the window's
# last tick on, where every operand value a form reads has been seen, so
# each reference value is one constant per trace.

_CELLS = {"eventually": EventuallyCell, "always": AlwaysCell, "until": UntilCell}
# The flags a wider window can only set; the step joins them with the new
# tick's form by `or`, and the others by `and`.
_WIDENING = {("eventually", "positive"), ("always", "negative"), ("until", "positive")}


def check_induction_base(kind: str, lower: int, polarity: str) -> bool:
    """The polarity's flag of the cell over [lower, lower+1] equals the
    unrolled form over that window at every tick from lower + 1 on, over all
    boolean operand traces."""
    num_atoms = 2 if kind == "until" else 1
    flag = POLARITIES.index(polarity)
    for rows in enumerate_traces(num_atoms, lower + 3):
        want = explicit_eval(kind, lower, lower + 1, list(zip(*rows)), polarity)
        cell = _CELLS[kind](lower, lower + 1)
        for k, row in enumerate(rows):
            got = cell.step(*row)[flag]
            if k >= lower + 1 and got != want:
                return False
    return True


def check_induction_step(kind: str, lower: int, upper: int, polarity: str) -> bool:
    """The polarity's flag of the cell over [lower, upper+1] equals that
    flag of the cell over [lower, upper] joined with the unrolled form over
    the new tick upper + 1 alone, from tick upper + 1 on.

    For Until the wide flag is also cross-checked against the three-valued
    oracle at tick upper + 1, which reads only the ticks up to upper + 1: it
    is evaluated once per such prefix, and compared for every trace.
    """
    num_atoms = 2 if kind == "until" else 1
    wide_formula = operator_formula(kind, lower, upper + 1)
    flag = POLARITIES.index(polarity)
    widens = (kind, polarity) in _WIDENING
    oracle_verdicts: dict[tuple, Trilean] = {}
    for rows in enumerate_traces(num_atoms, upper + 3):
        new_tick = explicit_eval(kind, upper + 1, upper + 1, list(zip(*rows)), polarity)
        wide_cell = _CELLS[kind](lower, upper + 1)
        narrow_cell = _CELLS[kind](lower, upper)
        for k, row in enumerate(rows):
            got = wide_cell.step(*row)[flag]
            narrow = narrow_cell.step(*row)[flag]
            if k < upper + 1:
                continue
            if got != ((narrow or new_tick) if widens else (narrow and new_tick)):
                return False
            if kind == "until" and k == upper + 1:
                prefix = rows[: k + 1]
                if prefix not in oracle_verdicts:
                    oracle_verdicts[prefix] = three_valued_eval(
                        wide_formula, bool_trace(prefix, num_atoms), k
                    )
                verdict = oracle_verdicts[prefix]
                if got != (verdict is (TRUE if polarity == "positive" else FALSE)):
                    return False
    return True


def induction_suite(
    kinds: Sequence[str] = OPERATOR_KINDS, max_lower: int = 4, max_upper: int = 4
) -> ConformanceReport:
    """Base cases for lower in [0, max_lower] and step cases for all
    0 <= lower < upper <= max_upper, over all kinds and polarities."""
    start = time.perf_counter()
    failures: list[Failure] = []
    cases = 0
    for kind in kinds:
        for polarity in POLARITIES:
            for lower in range(0, max_lower + 1):
                cases += 1
                if not check_induction_base(kind, lower, polarity):
                    failures.append(
                        Failure(
                            "induction-base",
                            f"{kind}/{polarity} window [{lower},{lower + 1}]",
                            (),
                            lower + 1,
                            "cell",
                            "unrolled form",
                        )
                    )
            for lower in range(0, max_upper):
                for upper in range(lower + 1, max_upper + 1):
                    cases += 1
                    if not check_induction_step(kind, lower, upper, polarity):
                        failures.append(
                            Failure(
                                "induction-step",
                                f"{kind}/{polarity} window [{lower},{upper}] -> "
                                f"[{lower},{upper + 1}]",
                                (),
                                upper + 1,
                                "cell",
                                "combination",
                            )
                        )
    return ConformanceReport(cases, failures, time.perf_counter() - start)


# Randomized property suite.

_PROP_SIGNALS = ("x", "y")


def random_formula(rng: random.Random, max_upper: int = 20) -> Formula:
    """A random well-formed formula: one temporal leaf, or a shallow boolean
    combination of temporal and propositional leaves."""

    def leaf() -> Formula:
        roll = rng.random()
        if roll < 0.15:
            return _random_prop(rng, depth=2)
        kind = rng.choice(OPERATOR_KINDS)
        lower = rng.randrange(0, max_upper)
        upper = rng.randrange(lower + 1, max_upper + 1)
        window = Interval(lower, upper)
        if kind == "eventually":
            return Eventually(window, _random_prop(rng, depth=2))
        if kind == "always":
            return Always(window, _random_prop(rng, depth=2))
        return Until(window, _random_prop(rng, depth=1), _random_prop(rng, depth=1))

    roll = rng.random()
    if roll < 0.5:
        return leaf()
    if roll < 0.65:
        return Not(leaf())
    combiner = rng.choice((And, Or, Implies))
    return combiner(leaf(), leaf())


def _random_prop(rng: random.Random, depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.6:
        name = rng.choice(_PROP_SIGNALS)
        comparator = rng.choice((">", ">=", "<", "<="))
        threshold = Fraction(rng.randrange(-20, 21), 10)
        return signal_atom(name, comparator, threshold)
    roll = rng.random()
    if roll < 0.4:
        return Not(_random_prop(rng, depth - 1))
    combiner = And if roll < 0.7 else Or
    return combiner(_random_prop(rng, depth - 1), _random_prop(rng, depth - 1))


def _random_trace(rng: random.Random, signals: Sequence[str], length: int) -> Trace:
    return Trace(
        tuple(signals),
        tuple(
            tuple(rng.uniform(-2.5, 2.5) for _ in signals) for _ in range(length)
        ),
    )


def _with_window_width(f: Formula, width: int) -> Formula:
    """Rebuild `f` with every temporal window ending at `width`."""
    if isinstance(f, TEMPORAL_NODES):
        window = Interval(min(f.window.lower, width - 1), width)
        if isinstance(f, Eventually):
            return Eventually(window, f.child)
        if isinstance(f, Always):
            return Always(window, f.child)
        return Until(window, f.left, f.right)
    if isinstance(f, Not):
        return Not(_with_window_width(f.child, width))
    if isinstance(f, (And, Or, Implies)):
        rebuilt = type(f)(
            _with_window_width(f.left, width), _with_window_width(f.right, width)
        )
        return rebuilt
    return f


def property_suite(
    seed: int, cases: int, compile_fn: CompileFn = compile_formula
) -> ConformanceReport:
    """Randomized invariant checks on real-valued traces.

    Per case: verdict flags never conflict and decode to the verdict; flags
    only ever latch (immutability); the verdict is decided at the horizon and
    beyond; the verdict stream has shape U*(T+ | F+); and the state scalar
    count is identical when every window is widened to 2, 50, and 1000.
    """
    start = time.perf_counter()
    rng = random.Random(seed)
    failures: list[Failure] = []
    for _ in range(cases):
        f = random_formula(rng)
        rendered = render(f)
        signals = signals_of(f)
        length = rng.randrange(0, 51)
        trace = _random_trace(rng, signals, length)
        failure = _check_invariants(f, rendered, trace, compile_fn)
        if failure is not None:
            failures.append(failure)
    return ConformanceReport(cases, failures, time.perf_counter() - start)


def _check_invariants(
    f: Formula, rendered: str, trace: Trace, compile_fn: CompileFn
) -> Failure | None:
    def fail(check: str, tick: int, got: str, want: str) -> Failure:
        return Failure(check, rendered, trace.samples, tick, got, want)

    monitor = compile_fn(f)
    bound = horizon(f)
    previous = UNKNOWN
    for k in range(len(trace)):
        try:
            record = monitor.step(trace.sample(k))
        except FlagConflictError:
            return fail("flag-conflict", k, "conflict", "at most one flag")
        verdict = record.verdict
        if verdict not in (TRUE, FALSE, UNKNOWN):
            return fail("completeness", k, repr(verdict), "T, F, or U")
        # A set flag must stay set: a decided verdict may not flip to the
        # other one, nor fall back to unknown.
        if previous is not UNKNOWN and verdict is not previous:
            if verdict is not UNKNOWN:
                return fail("immutability", k, str(verdict), "previous decided verdict")
            return fail("immutability", k, str(verdict), "flags must stay latched")
        if k >= bound and verdict is UNKNOWN:
            return fail("determination", k, "U", f"decided by tick {bound}")
        previous = verdict
    counts = {
        width: compile_fn(_with_window_width(f, width)).state_scalar_count()
        for width in (2, 50, 1000)
    }
    if len(set(counts.values())) != 1:
        return fail(
            "state-size",
            -1,
            str(counts),
            "identical scalar count for widths 2, 50, 1000",
        )
    return None
