"""Trace input and verdict output.

Traces are positional: tick k is row k, and the sampling period is implicit.
CSV files carry the signal names in the header row; JSONL files carry them as
object keys. Names that look like timestamps are rejected in either, so
nobody mistakes a value column for a time axis.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
import os
import re
import sys
from contextlib import contextmanager
from math import isfinite
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from .errors import MissingSignalError, TraceFormatError
from .monitor import VerdictRecord
from .trace import Trace
from .trilean import FALSE, TRUE, UNKNOWN, Trilean

logger = logging.getLogger(__name__)

TIMESTAMP_NAMES = frozenset({"time", "timestamp", "tick"})
VERDICT_FORMATS = ("text", "csv", "jsonl")
TRACE_FORMATS = ("csv", "jsonl")


@contextmanager
def opened(source: str | Path | Iterable[str]) -> Iterator[Iterable[str]]:
    """The lines of a file path, opened for reading, or `source` itself."""
    if isinstance(source, (str, Path)):
        handle = open(source, encoding="utf-8", newline="")
        try:
            yield handle
        finally:
            handle.close()
    else:
        yield source


def _check_signals(names: tuple[str, ...], where: str) -> tuple[str, ...]:
    """`names` if they can name a trace's signals: at least one, none empty,
    none named like a time axis, no two alike. `where` starts an error's
    message: the line of a CSV header or of a first JSONL object, or
    "signal list" for declared names."""
    if not names:
        raise TraceFormatError(f"{where}: no signal names")
    for name in names:
        if not name:
            raise TraceFormatError(f"{where}: empty signal name")
        if name.lower() in TIMESTAMP_NAMES:
            raise TraceFormatError(
                f"{where}: {name!r} looks like a time axis; traces are "
                "positional (row k is tick k), so every name must be a signal"
            )
    if len(set(names)) != len(names):
        raise TraceFormatError(f"{where}: duplicate signal name")
    return names


def sniff_lines(lines: Iterable[str]) -> tuple[str, Iterator[str]]:
    """The format of a trace's text, "jsonl" if its first non-blank line
    opens with `{` and "csv" otherwise, and all its lines from the start,
    blank ones included, so that the readers number lines as the text does.
    Text with no non-blank line is an empty trace."""
    iterator = iter(lines)
    read = []
    for line in iterator:
        read.append(line)
        if line.strip():
            fmt = "jsonl" if line.lstrip().startswith("{") else "csv"
            return fmt, itertools.chain(read, iterator)
    raise TraceFormatError("empty trace: nothing to read")


def _parse_value(text: str, lineno: int, column: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise TraceFormatError(
            f"line {lineno}, column {column}: not a number: {text.strip()!r}"
        ) from None
    if not math.isfinite(value):
        raise TraceFormatError(
            f"line {lineno}, column {column}: non-finite value {text.strip()!r}"
        )
    return value


def stream_csv(
    stream: Iterable[str],
) -> tuple[tuple[str, ...], Iterator[dict[str, float]]]:
    """Read the CSV header eagerly, then yield one sample dict per row.

    Blank lines before the header are skipped with a warning, as blank rows
    are."""
    lines = iter(stream)
    header_line = 0
    for first in lines:
        header_line += 1
        if first.strip():
            break
        logger.warning("skipping blank line %d", header_line)
    else:
        raise TraceFormatError("empty trace: missing header row")
    # The header is read from its own reader, which takes from `lines` only
    # the lines of the header record; the rows' reader reads `lines` itself.
    header = next(csv.reader(itertools.chain((first,), lines)))
    signals = _check_signals(tuple(name.strip() for name in header), f"line {header_line}")
    reader = csv.reader(lines)

    def rows() -> Iterator[dict[str, float]]:
        width = len(signals)
        for lineno, raw in enumerate(reader, start=header_line + 1):
            if len(raw) != width:
                if not raw:
                    logger.warning("skipping blank line %d", lineno)
                    continue
                raise TraceFormatError(
                    f"line {lineno}: expected {width} values, got {len(raw)}"
                )
            # The whole row in one pass. The sum of finite floats is finite
            # unless it overflows, and a nan or an infinity makes it
            # non-finite; so only a row that fails here is converted value
            # by value, which finds the first bad value or accepts the row.
            try:
                sample = dict(zip(signals, map(float, raw)))
            except ValueError:
                sample = None
            if sample is None or not isfinite(sum(sample.values())):
                sample = {
                    name: _parse_value(text, lineno, column)
                    for column, (name, text) in enumerate(zip(signals, raw), start=1)
                }
            yield sample

    return signals, rows()


def read_csv(source: str | Path | Iterable[str]) -> Trace:
    """Load a CSV trace. The header row names the signals; each following
    row is one tick, in order."""
    with opened(source) as stream:
        signals, samples = stream_csv(stream)
        rows = tuple(tuple(sample[name] for name in signals) for sample in samples)
    return Trace(signals, rows)


def read_jsonl_stream(
    lines: Iterable[str], signals: Sequence[str] | None = None
) -> Iterator[dict[str, float]]:
    """Yield one sample per JSONL line, validating as it goes.

    When `signals` is None the declared set is taken from the first object's
    keys (sorted), and a stream with no object is an empty trace; later
    objects may carry extra keys but must include every declared signal.
    The declared names obey the CSV header's rules, checked once. Blank
    lines are skipped with a warning so a trailing newline does not kill a
    live stream.

    Each line is decoded once. An object whose keys are exactly the declared
    signals, each a JSON float, with a finite sum, is itself the sample, so
    its keys are in the line's order, not the declared order. Any other
    object is checked value by value, and a line that is not one JSON value
    gets the error `json.loads` gives for it.
    """
    declared = _check_signals(tuple(signals), "signal list") if signals is not None else None
    keys = frozenset(declared) if declared is not None else None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            logger.warning("skipping blank line %d", lineno)
            continue
        # The stripped line has no whitespace to skip at either end, so a
        # decode that ends at its end read what `json.loads` reads. The sum
        # of finite floats is finite unless it overflows, and a nan or an
        # infinity makes it non-finite; any other object is checked value
        # by value below.
        try:
            obj, end = _raw_decode(line)
        except ValueError:
            end = -1
        if end == len(line):
            if (
                type(obj) is dict
                and obj.keys() == keys
                and {*map(type, obj.values())} == _FLOAT_ONLY
                and isfinite(sum(obj.values()))
            ):
                yield obj
                continue
        else:  # not one JSON value: `json.loads` raises the line's error
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"line {lineno}: invalid JSON: {exc.msg}") from exc
            except ValueError as exc:  # an integer literal longer than int() accepts
                raise TraceFormatError(f"line {lineno}: {exc}") from exc
        if not isinstance(obj, dict):
            raise TraceFormatError(f"line {lineno}: expected a JSON object")
        if declared is None:
            declared = _check_signals(tuple(sorted(obj)), f"line {lineno}")
            keys = frozenset(declared)
        missing = [name for name in declared if name not in obj]
        if missing:
            raise MissingSignalError(missing, f"line {lineno}")
        sample: dict[str, float] = {}
        for name in declared:
            value = obj[name]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TraceFormatError(
                    f"line {lineno}: signal {name!r} is not a number"
                )
            try:
                value = float(value)
            except OverflowError:
                raise TraceFormatError(
                    f"line {lineno}: signal {name!r} is too large for a float"
                ) from None
            if not math.isfinite(value):
                raise TraceFormatError(
                    f"line {lineno}: signal {name!r} is non-finite"
                )
            sample[name] = value
        yield sample
    if declared is None:
        raise TraceFormatError("empty trace: no samples")


_raw_decode = json.JSONDecoder().raw_decode
_FLOAT_ONLY = frozenset({float})


def read_jsonl(
    source: str | Path | Iterable[str], signals: Sequence[str] | None = None
) -> Trace:
    """Load a JSONL trace. With `signals` given and no lines it is empty."""
    with opened(source) as stream:
        samples = list(read_jsonl_stream(stream, signals))
    names = tuple(sorted(samples[0])) if signals is None else tuple(signals)
    return Trace(names, tuple(tuple(s[n] for n in names) for s in samples))


def read_trace(
    source: str | Path | Iterable[str],
    trace_format: str = "auto",
    signals: Sequence[str] | None = None,
) -> Trace:
    """Load a trace from a path or from lines, in `trace_format` or, with
    "auto", in the format `sniff_lines` finds."""
    with opened(source) as lines:
        fmt = trace_format
        if fmt == "auto":
            fmt, lines = sniff_lines(lines)
        if fmt == "csv":
            return read_csv(lines)
        if fmt == "jsonl":
            return read_jsonl(lines, signals)
    raise TraceFormatError(f"unknown trace format {fmt!r}")


def write_csv(trace: Trace, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(trace.signals)
    for row in trace.samples:
        writer.writerow([repr(value) for value in row])


class VerdictWriter:
    """Writes verdict records one at a time, each line out of the process
    before `write` returns, so a downstream consumer sees every verdict
    before the next sample is read.

    Each line is a per-format, per-verdict template with the tick filled
    in; jsonl lines are byte-identical to `json.dumps` of the same object.
    On the interpreter's own stdout, on POSIX and with an encoding that
    writes ASCII as itself, each line is one `os.write` of its bytes, past
    the stream's buffers: a caller that writes to the same stream between
    verdicts must flush it. Any other stream gets a `write` and a `flush`
    per line, so its newline translation applies."""

    def __init__(self, stream: IO[str], fmt: str = "text"):
        if fmt not in VERDICT_FORMATS:
            raise ValueError(f"unknown verdict format {fmt!r}")
        self._stream = stream
        self._lines = _LINES[fmt]
        self._fd = _ascii_fd(stream)
        if self._fd is not None:
            stream.flush()  # what is already buffered goes out first
            self._lines = {v: line.encode("ascii") for v, line in self._lines.items()}
        if fmt == "csv":
            header = "tick,verdict,pos,neg\n"
            self._put(header if self._fd is None else header.encode("ascii"))

    def write(self, record: VerdictRecord) -> None:
        self._put(self._lines[record.verdict] % record.tick)

    def _put(self, line) -> None:
        fd = self._fd
        if fd is None:
            self._stream.write(line)
            self._stream.flush()
            return
        written = _os_write(fd, line)
        if written < len(line):
            # The rest through the binary buffer, which retries until every
            # byte is out.
            buffer = self._stream.buffer
            buffer.write(line[written:])
            buffer.flush()


_os_write = os.write

# One line per format and verdict, `%` the tick.
_LINES = {
    "text": {
        TRUE: "tick=%d verdict=T pos=1 neg=0\n",
        FALSE: "tick=%d verdict=F pos=0 neg=1\n",
        UNKNOWN: "tick=%d verdict=U pos=0 neg=0\n",
    },
    "csv": {TRUE: "%d,T,1,0\n", FALSE: "%d,F,0,1\n", UNKNOWN: "%d,U,0,0\n"},
    "jsonl": {
        TRUE: '{"tick": %d, "verdict": "T", "pos": true, "neg": false}\n',
        FALSE: '{"tick": %d, "verdict": "F", "pos": false, "neg": true}\n',
        UNKNOWN: '{"tick": %d, "verdict": "U", "pos": false, "neg": false}\n',
    },
}


def _ascii_fd(stream: IO[str]) -> int | None:
    """The file descriptor under a text stream whose bytes for an ASCII line
    are that line, or None.

    A text stream does not expose the newline it was opened with, so only
    `sys.__stdout__` qualifies: on POSIX Python opens it with newline "\n",
    which translates nothing. A newline set later with `reconfigure` is not
    seen."""
    if stream is not sys.__stdout__:
        return None
    try:
        fd = stream.buffer.fileno()
        ascii_as_itself = "tick\n".encode(stream.encoding) == b"tick\n"
    except (AttributeError, OSError, ValueError, LookupError):
        return None  # io.UnsupportedOperation is an OSError and a ValueError
    return fd if ascii_as_itself and os.linesep == "\n" else None


def write_verdicts(
    records: Iterable[VerdictRecord], stream: IO[str], fmt: str = "text"
) -> None:
    writer = VerdictWriter(stream, fmt)
    for record in records:
        writer.write(record)


_TEXT_LINE = re.compile(r"tick=(\d+) verdict=([TFU]) pos=([01]) neg=([01])$")
_VERDICTS = {str(v): v for v in Trilean}


def read_verdicts(lines: Iterable[str], fmt: str = "text") -> list[VerdictRecord]:
    """Parse verdict output back into records (for round-trips and tools).

    The verdict letter must agree with the pos/neg flags on its line. A
    malformed line raises TraceFormatError naming its line number."""
    if fmt not in VERDICT_FORMATS:
        raise ValueError(f"unknown verdict format {fmt!r}")
    records: list[VerdictRecord] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if fmt == "text":
            match = _TEXT_LINE.match(line)
            if not match:
                raise TraceFormatError(f"line {lineno}: malformed verdict line")
            tick, letter, pos, neg = match.groups()
        elif fmt == "csv":
            if lineno == 1 and line == "tick,verdict,pos,neg":
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise TraceFormatError(f"line {lineno}: malformed verdict row")
            tick, letter, pos, neg = parts
        else:
            tick, letter, pos, neg = _jsonl_verdict_fields(line, lineno)
        tick = _tick(tick, lineno)
        flags = (_flag(pos, "pos", lineno), _flag(neg, "neg", lineno))
        verdict = _VERDICTS.get(letter) if isinstance(letter, str) else None
        if verdict is None:
            raise TraceFormatError(f"line {lineno}: unknown verdict {letter!r}")
        if (verdict is TRUE, verdict is FALSE) != flags:
            raise TraceFormatError(
                f"line {lineno}: verdict {letter} does not match pos={pos} neg={neg}"
            )
        records.append(VerdictRecord(tick, verdict))
    return records


def _tick(value, lineno: int) -> int:
    """A tick: decimal digits in text and csv lines, a JSON integer in jsonl."""
    if isinstance(value, str) and _DIGITS.fullmatch(value):
        return int(value)
    if type(value) is int and value >= 0:
        return value
    raise TraceFormatError(f"line {lineno}: tick {value!r} is not a tick number")


def _flag(value, name: str, lineno: int) -> bool:
    """A flag: 0 or 1 in text and csv lines, a JSON boolean in jsonl."""
    if value is True or value is False:
        return value
    if isinstance(value, str) and value in ("0", "1"):
        return value == "1"
    raise TraceFormatError(f"line {lineno}: flag {name}={value!r} is not 0/1 or a boolean")


_DIGITS = re.compile(r"[0-9]+")


def _jsonl_verdict_fields(line: str, lineno: int) -> tuple:
    try:
        obj = json.loads(line)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise TraceFormatError(f"line {lineno}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise TraceFormatError(f"line {lineno}: expected a JSON object")
    missing = [key for key in ("tick", "verdict", "pos", "neg") if key not in obj]
    if missing:
        raise TraceFormatError(f"line {lineno}: verdict object lacks {', '.join(missing)}")
    return obj["tick"], obj["verdict"], obj["pos"], obj["neg"]
