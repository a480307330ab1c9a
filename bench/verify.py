"""Checks on the program's outputs.

The checker reads verdict lines as they arrive and counts failed ticks
instead of stopping at the first one, so a broken run still reports how much
of it was wrong. It parses the output itself rather than through stlobs, so
a fault in the program's own reader cannot hide a fault in its writer.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable

EXIT_FOR_VERDICT = {"T": 0, "F": 1, "U": 2}


def parse_verdict_line(line: bytes, fmt: str):
    """(tick, verdict, pos, neg) from one output line, or None when the line
    is malformed. Extra fields are allowed so that richer output still
    passes."""
    try:
        if fmt == "csv":
            tick, verdict, pos, neg = line.split(b",")[:4]
            return int(tick), verdict.decode(), pos.strip() == b"1", neg.strip() == b"1"
        if fmt == "jsonl":
            obj = json.loads(line)
            pos, neg = obj["pos"], obj["neg"]
            if not isinstance(pos, bool) or not isinstance(neg, bool):
                return None
            return int(obj["tick"]), obj["verdict"], pos, neg
        fields = dict(part.split(b"=", 1) for part in line.split())
        return (
            int(fields[b"tick"]),
            fields[b"verdict"].decode(),
            fields[b"pos"] == b"1",
            fields[b"neg"] == b"1",
        )
    except (ValueError, KeyError, TypeError, UnicodeDecodeError):
        return None


class StreamChecker:
    """Checks a verdict stream against the expected verdict of each tick,
    `expected(tick)`; for a generated input that is `CheckInput.expected`,
    the shape U^d V^(n-d).

    Every tick in [0, n) must have exactly one line, in order, carrying the
    expected verdict with matching flags, and the exit code must follow the
    final verdict. A failed tick is counted once whatever went wrong with it.
    Also records when every `block`-th line arrived, for per-line timings.
    """

    def __init__(self, fmt: str, n: int, expected: Callable[[int], str], block: int = 2000):
        self.fmt, self.n, self.expected = fmt, n, expected
        self.block = block
        self.bad: set[int] = set()
        self.lines = 0
        self.block_times: list[float] = []
        self.first_time: float | None = None
        self.last_time: float | None = None
        self._next = 0
        self._buf = b""

    def feed(self, chunk: bytes, now: float) -> None:
        lines = (self._buf + chunk).split(b"\n")
        self._buf = lines.pop()
        for line in lines:
            self._line(line, now)

    def _line(self, line: bytes, now: float) -> None:
        if self.fmt == "csv" and line.startswith(b"tick,"):
            return
        if self.lines % self.block == 0:
            self.block_times.append(now)
        if self.first_time is None:
            self.first_time = now
        self.last_time = now
        self.lines += 1
        parsed = parse_verdict_line(line, self.fmt)
        if parsed is None:
            self.bad.add(min(self._next, self.n - 1))
            self._next += 1
            return
        tick, verdict, pos, neg = parsed
        if tick < self._next or tick >= self.n:
            self.bad.add(min(max(tick, 0), self.n - 1))
            return
        self.bad.update(range(self._next, tick))
        self._next = tick + 1
        want = self.expected(tick)
        if verdict != want or pos != (want == "T") or neg != (want == "F"):
            self.bad.add(tick)

    def finish(self, exit_code: int | None) -> int:
        """Close the stream; returns the number of failed ticks."""
        if self._buf:
            self._line(self._buf, self.last_time or 0.0)
            self._buf = b""
        self.bad.update(range(self._next, self.n))
        if exit_code != EXIT_FOR_VERDICT[self.expected(self.n - 1)]:
            self.bad.add(self.n - 1)
        return len(self.bad)

    def per_line_block_us(self) -> list[float]:
        """Microseconds per line for each full block of lines."""
        times = self.block_times
        return [(b - a) * 1e6 / self.block for a, b in zip(times, times[1:])]


def check_selfcheck(stdout: bytes, exit_code: int | None, expected: dict[str, int]) -> tuple[int, int]:
    """(attempted, failed) cases of a `selfcheck --json` run. A suite whose
    case count differs from the expected one fails by the difference."""
    attempted = sum(expected.values())
    try:
        report = json.loads(stdout)
        failed = 0
        for suite, cases in expected.items():
            got = report[suite]
            failed += min(cases, len(got["failures"]) + abs(got["cases"] - cases))
    except (ValueError, KeyError, TypeError):
        return attempted, attempted
    if exit_code != 0 and failed == 0:
        failed = 1
    return attempted, failed


def import_stlobs(root: Path):
    """Import the package from the checkout, never from anywhere else."""
    sys.path.insert(0, str(root / "src"))
    import stlobs.cli
    import stlobs.conformance
    import stlobs.lustregen
    import stlobs.monitor
    import stlobs.oracle
    import stlobs.parser
    import stlobs.trace
    import stlobs.traceio
    import stlobs.trilean

    where = Path(stlobs.__file__).resolve()
    if root / "src" not in where.parents:
        raise SystemExit(f"imported stlobs from {where}, not from {root / 'src'}")
    return stlobs


def oracle_disagreements(stlobs, inp) -> set[int]:
    """Ticks among d-1, d and n-1 where the reference oracle disagrees with
    the expected stream."""
    trace = stlobs.trace.Trace(inp.signals, inp.values())
    formula = stlobs.parser.parse(inp.formula, inp.signals)
    ticks = {inp.decided_tick - 1, inp.decided_tick, inp.rows - 1}
    return {
        k
        for k in ticks
        if 0 <= k < inp.rows
        and str(stlobs.oracle.three_valued_eval(formula, trace, k)) != inp.expected(k)
    }
