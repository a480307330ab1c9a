"""Self-checking machinery: differential sweeps, induction checks, and a
randomized property suite.

Every check compares the streaming monitor against the quantifier oracle (or
against its explicitly unrolled forms) and reports divergences as replayable
(formula, trace, tick) failures. The exhaustive checks walk one tree of
boolean trace prefixes (`_walk`). A step that raises is a `step-error`
failure carrying the exception's repr, except a flag conflict in the sweep
(the verdict "conflict") and in the property suite (`flag-conflict`).
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Iterator, Sequence

from .errors import EnumerationCapError, FlagConflictError
from .formula import (
    COMPARATORS,
    And,
    Formula,
    Implies,
    Interval,
    Not,
    Or,
    Always,
    Eventually,
    Until,
    horizon,
    linear_atom,
    render,
    signal_atom,
    signals_of,
    with_windows,
)
from .monitor import Monitor, compile_formula
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
        return dict(vars(self), trace=[list(row) for row in self.trace])


def _step_error(formula: str, samples: tuple, tick: int, error: Exception) -> Failure:
    """The failure of a step that raised `error`: the monitor gave no verdict."""
    return Failure("step-error", formula, samples, tick, repr(error), "a verdict record")


@dataclass
class ConformanceReport:
    cases: int
    failures: list[Failure] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return dict(vars(self), failures=[f.to_dict() for f in self.failures])

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
    return itertools.product(_rows(num_atoms, length, cap), repeat=length)


def _rows(num_atoms: int, length: int, cap: int) -> tuple[tuple[bool, ...], ...]:
    """The boolean rows of `num_atoms` atoms, in enumeration order; raises
    `EnumerationCapError` when the traces of `length` such rows exceed `cap`."""
    total = (2**num_atoms) ** length
    if total > cap:
        raise EnumerationCapError(
            f"{total} traces for {num_atoms} atoms x {length} ticks exceeds cap {cap}"
        )
    return tuple(itertools.product((False, True), repeat=num_atoms))


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


# The sample of each boolean operand row, over p (and q), as the exhaustive
# checks step it.
_ROW_SAMPLES = {
    row: dict(zip(_SIGNALS, map(float, row)))
    for arity in (1, 2)
    for row in itertools.product((False, True), repeat=arity)
}


def _walk(
    formulas: Sequence[Formula],
    compile_fn: CompileFn,
    length: int,
    compare: Callable[[tuple, list], Failure | None],
    conflict: str | None = None,
) -> tuple[list[Failure], int]:
    """Checks each of `formulas`' networks on every boolean operand trace of
    `length` ticks, walking the tree of their prefixes depth first. A
    verdict at tick k reads no later tick, so a prefix is one step of a
    fork of each of its parent's monitors on its last row, then
    `compare(prefix, verdicts)`: a failure at the prefix's last tick, whose
    trace the walk fills in, or None. A step that raises is a `step-error`,
    except that a flag conflict is the verdict `conflict` when one is given.
    A prefix that fails is one failure, carrying the first full trace under
    it, and is not walked below. Returns the failures, in trace order, and
    the full traces, each checked or under a failure."""
    rendered = [render(f) for f in formulas]
    rows = _rows(len(signals_of(formulas[0])), length, DEFAULT_ENUMERATION_CAP)
    failures: list[Failure] = []

    def check(monitors: list[Monitor], prefix: tuple) -> Failure | None:
        sample, verdicts = _ROW_SAMPLES[prefix[-1]], []
        for text, monitor in zip(rendered, monitors):
            try:
                verdicts.append(monitor.step(sample).verdict)
            except Exception as exc:
                if conflict is None or not isinstance(exc, FlagConflictError):
                    return _step_error(text, (), len(prefix) - 1, exc)
                verdicts.append(conflict)
        return compare(prefix, verdicts)

    def visit(parents: list[Monitor], prefix: tuple) -> int:
        """Checks each prefix one row longer than `prefix`, and the tree
        under it unless it fails; returns the full traces under them."""
        cases = 0
        for row in rows:
            node, monitors = prefix + (row,), [parent.fork() for parent in parents]
            failure = check(monitors, node)
            if failure is None:
                cases += visit(monitors, node) if len(node) < length else 1
            else:
                full = node + rows[:1] * (length - len(node))
                failures.append(replace(failure, trace=bool_trace(full, len(row)).samples))
                cases += len(rows) ** (length - len(node))
        return cases

    return failures, visit([compile_fn(f) for f in formulas], ())


def _windows(max_upper: int) -> list[tuple[int, int]]:
    """The windows 0 <= lower < upper <= max_upper."""
    return [(lower, upper) for lower in range(max_upper) for upper in range(lower + 1, max_upper + 1)]


def differential_sweep(
    kinds: Sequence[str] = OPERATOR_KINDS,
    max_upper: int = 4,
    compile_fn: CompileFn = compile_formula,
) -> ConformanceReport:
    """Exhaustive monitor-vs-oracle comparison on boolean operand traces.

    For every operator kind, every window 0 <= lower < upper <= max_upper and
    every boolean operand trace of length upper + 3, the monitor verdict must
    match the three-valued oracle at every tick; at the horizon tick the
    decided verdict must additionally match the two-valued offline semantics.
    A flag conflict is the verdict "conflict", which matches none.

    Each window's formula is compiled once and its traces walked as a tree
    (`_walk`): a prefix is one step and one oracle call on that prefix
    alone. Each full trace checked or under a failure is one case.
    """
    start = time.perf_counter()
    # The longest traces are refused before any work, not after the shorter ones.
    _rows(2 if "until" in kinds else 1, max_upper + 3, DEFAULT_ENUMERATION_CAP)
    failures: list[Failure] = []
    cases = 0
    for kind in kinds:
        for lower, upper in _windows(max_upper):
            f = operator_formula(kind, lower, upper)
            found, checked = _walk((f,), compile_fn, upper + 3, partial(_against_oracle, f, upper), "conflict")
            failures += found
            cases += checked
    return ConformanceReport(cases, failures, time.perf_counter() - start)


def _against_oracle(f: Formula, upper: int, prefix: tuple, verdicts: list) -> Failure | None:
    """The sweep's comparison of `f`'s verdict with the oracle's at the last
    tick of a prefix, and at tick `upper` with the offline semantics."""
    (got,), k = verdicts, len(prefix) - 1
    trace = bool_trace(prefix, len(prefix[0]))
    want = three_valued_eval(f, trace, k)
    if got is not want:
        return Failure("verdict-mismatch", render(f), (), k, str(got), str(want))
    if k == upper and (got is TRUE) != (decided := offline_eval(f, trace, 0)):
        return Failure("horizon-offline", render(f), (), k, str(got), "T" if decided else "F")
    return None


# Induction checks: each flag of a single-operator network must agree with
# the oracle's unrolled forms (`explicit_eval`), both for the smallest window
# and when the window is extended by one tick. Both compare from the window's
# last tick on, where every operand value a form reads has been seen. A
# single operator's pair is the root's, so its positive flag is a T verdict
# and its negative one an F. Both walk the traces as the sweep does, with
# any exception a step raises, a flag conflict too, a `step-error`; a check
# returns its first failure in trace order, with a full trace to replay.
# A form reads no tick past the window's last, so it is computed once per
# prefix through that tick (`cache`), not once per longer prefix; one run of
# `induction_suite` shares one cache between all of its checks.

_FLAGS = {"positive": TRUE, "negative": FALSE}
# The flags a wider window can only set; the step joins them with the new
# tick's form by `or`, and the others by `and`.
_WIDENING = {("eventually", "positive"), ("always", "negative"), ("until", "positive")}


def _unrolled(kind: str, lower: int, upper: int, polarity: str, rows: tuple) -> bool:
    """The polarity's unrolled form over [lower, upper] on the boolean
    operand rows of ticks 0 to upper."""
    return explicit_eval(kind, lower, upper, list(zip(*rows)), polarity)


def check_induction_base(
    kind: str, lower: int, polarity: str, unrolled: Callable[..., bool] | None = None
) -> Failure | None:
    """The polarity's flag of the operator over [lower, lower+1] equals the
    unrolled form over that window at every tick from lower + 1 on, over all
    boolean operand traces. Returns the first `induction-base` or
    `step-error` failure, or None. `unrolled` is a memoised `_unrolled`,
    one of the check's own if none is given."""
    upper, flag = lower + 1, _FLAGS[polarity]
    unrolled = unrolled or cache(_unrolled)

    def compare(prefix: tuple, verdicts: list) -> Failure | None:
        k = len(prefix) - 1
        if k >= upper and (verdicts[0] is flag) != unrolled(kind, lower, upper, polarity, prefix[: upper + 1]):
            return Failure(
                "induction-base", f"{kind}/{polarity} window [{lower},{upper}]", (), k, "operator", "unrolled form"
            )
        return None

    failures, _ = _walk((operator_formula(kind, lower, upper),), compile_formula, lower + 3, compare)
    return next(iter(failures), None)


def check_induction_step(
    kind: str, lower: int, upper: int, polarity: str, unrolled: Callable[..., bool] | None = None
) -> Failure | None:
    """The polarity's flag of the operator over [lower, upper+1] equals that
    flag of the operator over [lower, upper] joined with the unrolled form
    over the new tick upper + 1 alone, from tick upper + 1 on. For Until the
    wide flag is also cross-checked against the three-valued oracle at tick
    upper + 1. Returns the first `induction-step` or `step-error` failure,
    or None. `unrolled` is as in `check_induction_base`.
    """
    wide = operator_formula(kind, lower, upper + 1)
    flag = _FLAGS[polarity]
    widens = (kind, polarity) in _WIDENING
    unrolled = unrolled or cache(_unrolled)

    def compare(prefix: tuple, verdicts: list) -> Failure | None:
        k = len(prefix) - 1
        if k < upper + 1:
            return None
        got, was = (verdict is flag for verdict in verdicts)
        new_tick = unrolled(kind, upper + 1, upper + 1, polarity, prefix[: upper + 2])
        if got != ((was or new_tick) if widens else (was and new_tick)) or (
            kind == "until" and k == upper + 1 and got != (three_valued_eval(wide, bool_trace(prefix, 2), k) is flag)
        ):
            window = f"window [{lower},{upper}] -> [{lower},{upper + 1}]"
            return Failure("induction-step", f"{kind}/{polarity} {window}", (), k, "operator", "combination")
        return None

    failures, _ = _walk((wide, operator_formula(kind, lower, upper)), compile_formula, upper + 3, compare)
    return next(iter(failures), None)


def induction_suite(
    kinds: Sequence[str] = OPERATOR_KINDS, max_lower: int = 4, max_upper: int = 4
) -> ConformanceReport:
    """Base cases for lower in [0, max_lower] and step cases for all
    0 <= lower < upper <= max_upper, over all kinds and polarities."""
    start = time.perf_counter()
    windows = _windows(max_upper)
    # The longest traces are refused before any work, as in the sweep.
    _rows(2 if "until" in kinds else 1, max(max_lower, max_upper) + 3, DEFAULT_ENUMERATION_CAP)
    results: list[Failure | None] = []
    unrolled = cache(_unrolled)
    for kind in kinds:
        for polarity in POLARITIES:
            results += [check_induction_base(kind, lower, polarity, unrolled) for lower in range(max_lower + 1)]
            results += [check_induction_step(kind, lower, upper, polarity, unrolled) for lower, upper in windows]
    failures = [failure for failure in results if failure is not None]
    return ConformanceReport(len(results), failures, time.perf_counter() - start)


# Randomized property suite.

_PROP_SIGNALS = ("x", "y")


def random_formula(rng: random.Random, max_upper: int = 20) -> Formula:
    """A random well-formed formula: one temporal leaf, or a shallow boolean
    combination of temporal and propositional leaves. An atom is over one
    signal or over both; each formula draws its atoms over both from a pool
    of two, so that two operands, or an operand and an atom outside every
    operator, can share one."""
    pool = (_random_sum(rng), _random_sum(rng))

    def leaf() -> Formula:
        roll = rng.random()
        if roll < 0.15:
            return _random_prop(rng, 2, pool)
        kind = rng.choice(OPERATOR_KINDS)
        lower = rng.randrange(0, max_upper)
        upper = rng.randrange(lower + 1, max_upper + 1)
        window = Interval(lower, upper)
        if kind == "eventually":
            return Eventually(window, _random_prop(rng, 2, pool))
        if kind == "always":
            return Always(window, _random_prop(rng, 2, pool))
        return Until(window, _random_prop(rng, 1, pool), _random_prop(rng, 1, pool))

    roll = rng.random()
    if roll < 0.5:
        return leaf()
    if roll < 0.65:
        return Not(leaf())
    combiner = rng.choice((And, Or, Implies))
    return combiner(leaf(), leaf())


def _random_sum(rng: random.Random) -> Formula:
    """An atom over both signals, `a*x + b*y + c <cmp> 0`, with a and b
    nonzero tenths."""
    coeffs = {name: Fraction(rng.choice((-1, 1)) * rng.randrange(1, 21), 10) for name in _PROP_SIGNALS}
    return linear_atom(coeffs, rng.choice(COMPARATORS), Fraction(rng.randrange(-20, 21), 10))


def _random_prop(rng: random.Random, depth: int, pool: Sequence[Formula]) -> Formula:
    if depth == 0 or rng.random() < 0.6:
        if rng.random() < 0.3:
            return rng.choice(pool)
        name = rng.choice(_PROP_SIGNALS)
        threshold = Fraction(rng.randrange(-20, 21), 10)
        return signal_atom(name, rng.choice(COMPARATORS), threshold)
    roll = rng.random()
    if roll < 0.3:
        return Not(_random_prop(rng, depth - 1, pool))
    combiner = And if roll < 0.55 else Or if roll < 0.8 else Implies
    return combiner(_random_prop(rng, depth - 1, pool), _random_prop(rng, depth - 1, pool))


def _random_trace(rng: random.Random, signals: Sequence[str], length: int) -> Trace:
    """`length` samples in [-2.5, 2.5]: uniform floats, or, for three traces
    in ten, tenths, the thresholds' grid, where an `=` atom can hold and a
    sample can sit on a threshold."""
    grid = rng.random() < 0.3
    rows = (
        tuple(rng.randrange(-25, 26) / 10 if grid else rng.uniform(-2.5, 2.5) for _ in signals)
        for _ in range(length)
    )
    return Trace(tuple(signals), tuple(rows))


def property_suite(
    seed: int, cases: int, compile_fn: CompileFn = compile_formula
) -> ConformanceReport:
    """Randomized invariant checks on real-valued traces.

    Per case, six checks: no operator's flags conflict (flag-conflict); each
    verdict is T, F or U (completeness); a decided verdict never changes
    (immutability, so the stream has shape U^d V^(n-d)); the verdict is
    decided at the horizon and beyond (determination); the verdict agrees
    with the oracle at ticks d-1, d and n-1 (oracle-agreement); and the
    state scalar count is the same with every window widened to 2, 50 and
    1000 (state-size). A step that raises anything else is a step-error.
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
    verdicts: list[Trilean] = []
    for k in range(len(trace)):
        try:
            record = monitor.step(trace.sample(k))
        except FlagConflictError:
            return fail("flag-conflict", k, "conflict", "at most one flag")
        except Exception as exc:
            return _step_error(rendered, trace.samples, k, exc)
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
        verdicts.append(verdict)
    # The stream is U^d V^(n-d) and the oracle's verdict, once decided, stays
    # decided: agreement at d-1, d and n-1 is agreement at every tick.
    n = len(verdicts)
    d = next((k for k, verdict in enumerate(verdicts) if verdict is not UNKNOWN), n)
    for k in sorted({d - 1, d, n - 1}):
        if 0 <= k < n:
            want = three_valued_eval(f, trace, k)
            if verdicts[k] is not want:
                return fail("oracle-agreement", k, str(verdicts[k]), str(want))
    counts = {}
    for width in (2, 50, 1000):
        widened = with_windows(f, lambda w: Interval(min(w.lower, width - 1), width))
        counts[width] = compile_fn(widened).state_scalar_count()
    if len(set(counts.values())) != 1:
        return fail(
            "state-size",
            -1,
            str(counts),
            "identical scalar count for widths 2, 50, 1000",
        )
    return None
