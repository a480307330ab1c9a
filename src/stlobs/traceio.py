"""Trace input and verdict output, a sample and a line at a time.

Traces are positional: tick k is row k, and the sampling period is implicit.
CSV files carry the signal names in the header row; JSONL files carry them as
object keys. One name rule (`_check_signals`) covers a CSV header, a first
JSONL object and a declared signal list: names that look like timestamps are
rejected, so nobody mistakes a value column for a time axis.

`opened` gives a source's lines, `sniff_lines` their format, and
`stream_csv` and `read_jsonl_stream` their samples; `VerdictWriter` writes
one verdict line per record. The command line's `_read_front` is what
chooses a reader and a trace's signal names.

Each reader loads its own parser: `csv` loads with the CSV reader
(`stream_csv`), `json` at the first JSONL line (`_scan_once`), so a CSV
check loads no `json` and a JSONL check no `csv`. `logging` loads at the
first warning (`_warn_blank`). A value is read as a float; an atom reads
it as its shortest decimal, in int arithmetic (`AtomicPredicate.evaluate`),
so no reader loads `decimal` or `fractions`.
"""

from __future__ import annotations

import codecs
import io
import itertools
import math
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from math import isfinite

from .errors import MissingSignalError, TraceFormatError
from .monitor import VerdictRecord
from .trilean import FALSE, TRUE, UNKNOWN

TIMESTAMP_NAMES = frozenset({"time", "timestamp", "tick"})
VERDICT_FORMATS = ("text", "csv", "jsonl")
TRACE_FORMATS = ("csv", "jsonl")


@contextmanager
def opened(
    source: str | os.PathLike | Iterable[str], before_read: Callable[[], object] | None = None
) -> Iterator[Iterable[str]]:
    """The lines of a file path or of the interpreter's stdin, opened for
    reading, or `source` itself.

    A source for which `hooks_reads` holds is read through a stream of this
    function's own, with newline "", the csv module's rule, so that a line
    ends at "\n", "\r" or "\r\n" in either. A path decodes as utf-8 with
    errors "surrogateescape", so a byte that is not utf-8 reads as a lone
    surrogate, and a value holding one is not a number. Stdin decodes with
    its own encoding and error handler, but "surrogateescape" in place of
    "strict", which would end the read at the first bad byte. A path, and a
    utf-8 stdin, decode as "utf-8-sig": one byte-order mark at the start of
    the text is dropped, as a spreadsheet's "CSV UTF-8" export writes one,
    and a mark anywhere else is read as it is. With
    `before_read`, the stream calls it before each read of the descriptor,
    and so before it can wait for input. What stdin's own buffer already
    holds is not read. Any other source is yielded as it is and its reads
    are not hooked.
    """
    if not hooks_reads(source):
        yield source
        return
    if isinstance(source, (str, os.PathLike)):
        file, closefd, encoding, errors = source, True, "utf-8-sig", "surrogateescape"
    else:
        file, closefd, encoding, errors = source.fileno(), False, source.encoding, source.errors
        if errors == "strict":
            errors = "surrogateescape"
        if codecs.lookup(encoding).name == "utf-8":
            encoding = "utf-8-sig"
    if before_read is None:
        raw = io.FileIO(file, "r", closefd)
    else:
        raw = _HookedReads(file, before_read, closefd)
    try:
        handle = io.TextIOWrapper(io.BufferedReader(raw), encoding, errors, newline="")
    except BaseException:
        raw.close()
        raise
    try:
        yield handle
    finally:
        handle.close()


def hooks_reads(source: object) -> bool:
    """Whether `opened(source)` reads `source` through its own stream, which
    calls `before_read` before each read: for a path, and for the
    interpreter's own stdin."""
    return isinstance(source, (str, os.PathLike)) or (
        source is sys.__stdin__ and source is not None
    )


class _HookedReads(io.FileIO):
    """A file read through `readinto` or `readall`, each of which first calls
    `before_read`."""

    def __init__(
        self, file: str | os.PathLike | int, before_read: Callable[[], object], closefd: bool = True
    ):
        super().__init__(file, "r", closefd)
        self._before_read = before_read

    def readinto(self, buffer) -> int | None:
        self._before_read()
        return super().readinto(buffer)

    def readall(self) -> bytes:
        self._before_read()
        return super().readall()


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


# Called before the first warning that `_warn_blank` logs, then dropped:
# the command line sets it to send warnings to stderr.
before_first_warning: Callable[[], object] | None = None


def _warn_blank(lineno: int) -> None:
    """Log that blank line `lineno` is skipped, the readers' only warning.
    `logging` loads here, after `before_first_warning` has run."""
    global before_first_warning
    hook, before_first_warning = before_first_warning, None
    if hook is not None:
        hook()
    import logging

    logging.getLogger(__name__).warning("skipping blank line %d", lineno)


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
    are. `csv` loads here, so a JSONL check never loads it."""
    import csv

    lines = iter(stream)
    skipped = 0
    for first in lines:
        if first.strip():
            break
        skipped += 1
        _warn_blank(skipped)
    else:
        raise TraceFormatError("empty trace: missing header row")
    # One reader takes the header record and then every row. Its `line_num`
    # counts the lines it has taken, so after the skipped ones, every message
    # names the last line of the record just read, or the line a `csv.Error`
    # (a field over the size limit, a NUL before Python 3.11, a line break
    # inside a line of a source split only at "\n") met, also after a quoted
    # field that spans lines.
    reader = csv.reader(itertools.chain((first,), lines))
    try:
        header = next(reader)
    except csv.Error as exc:
        raise TraceFormatError(f"line {skipped + reader.line_num}: {exc}") from None
    signals = _check_signals(tuple(name.strip() for name in header), f"line {skipped + reader.line_num}")

    convert = _row_converter(signals)

    def rows() -> Iterator[dict[str, float]]:
        width = len(signals)
        try:
            for raw in reader:
                try:
                    sample = convert(raw)
                except ValueError:
                    # A row the converter refuses: a blank one is skipped,
                    # one of another width is an error, and any other is
                    # read value by value, which finds its first bad value
                    # or accepts it (its values were finite, but their sum
                    # overflowed).
                    lineno = skipped + reader.line_num
                    if len(raw) != width:
                        if not raw:
                            _warn_blank(lineno)
                            continue
                        raise TraceFormatError(
                            f"line {lineno}: expected {width} values, got {len(raw)}"
                        ) from None
                    sample = {
                        name: _parse_value(text, lineno, column)
                        for column, (name, text) in enumerate(zip(signals, raw), start=1)
                    }
                yield sample
        except csv.Error as exc:
            raise TraceFormatError(f"line {skipped + reader.line_num}: {exc}") from None

    return signals, rows()


def _row_converter(signals: tuple[str, ...]) -> Callable[[list[str]], dict[str, float]]:
    """One function, generated for `signals`, that takes a CSV row to its
    sample in one pass: it unpacks exactly one text per signal, reads each
    with `float` and tests the finiteness of their sum. The sum of finite
    floats is finite unless it overflows, and a nan or an infinity makes it
    non-finite. Any other row raises ValueError: one of another width, one
    with a text `float` does not read, or one whose sum is not finite.

    Signal names reach the source only as `str.__repr__` literals."""
    values = [f"v{k}" for k in range(len(signals))]
    display = ", ".join(f"{str.__repr__(name)}: {v}" for name, v in zip(signals, values))
    lines = [
        "def convert(row):",
        f"    {', '.join(values)}, = row",
        *(f"    {v} = float({v})" for v in values),
        f"    if isfinite({' + '.join(values)}):",
        f"        return {{{display}}}",
        "    raise ValueError",
    ]
    source = "".join(line + "\n" for line in lines)
    namespace = {"isfinite": isfinite}
    exec(compile(source, "<stlobs csv row>", "exec"), namespace)
    return namespace["convert"]


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
    its keys are in the line's order, not the declared order: `_sample_test`
    tells such an object. Any other object is checked value by value, and a
    line that is not one JSON value gets the error `json.loads` gives for it.
    """
    declared = _check_signals(tuple(signals), "signal list") if signals is not None else None
    is_sample = _sample_test(declared) if declared is not None else _no_sample
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            _warn_blank(lineno)
            continue
        # The stripped line has no whitespace to skip at either end, so a
        # scan that ends at its end read what `json.loads` reads; a scan
        # that finds no value raises StopIteration. An object that is not a
        # sample as it is gets checked value by value below.
        try:
            obj, end = _scan_once(line, 0)
        except (StopIteration, ValueError):
            end = -1
        if end == len(line):
            if is_sample(obj):
                yield obj
                continue
        else:  # not one JSON value: `json.loads` raises the line's error
            import json

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
            is_sample = _sample_test(declared)
        missing = [name for name in declared if name not in obj]
        if missing:
            raise MissingSignalError(missing, f"at line {lineno}")
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


def _scan_once(string: str, index: int) -> tuple[object, int]:
    """The scanner `json.JSONDecoder.raw_decode` calls: one value from an
    index. This first call loads `json` and puts its scanner in this
    function's place, where each later line finds it."""
    global _scan_once
    from json import JSONDecoder

    _scan_once = JSONDecoder().scan_once
    return _scan_once(string, index)


def _sample_test(signals: tuple[str, ...]) -> Callable[[object], bool]:
    """One function, generated for `signals`, that tells whether a decoded
    JSON value is a sample as it is: a dict of exactly one float per signal,
    with a finite sum. A dict of as many keys as signals, each of which
    `get` finds, has no other key. The sum of finite floats is finite unless
    it overflows, and a nan or an infinity makes it non-finite.

    Signal names reach the source only as `str.__repr__` literals."""
    values = [f"v{k}" for k in range(len(signals))]
    lines = [
        "def is_sample(obj):",
        f"    if type(obj) is not dict or len(obj) != {len(signals)}:",
        "        return False",
        *(f"    {v} = obj.get({str.__repr__(name)})" for name, v in zip(signals, values)),
        "    return (",
        *(f"        type({v}) is float and" for v in values),
        f"        isfinite({' + '.join(values)})",
        "    )",
    ]
    source = "".join(line + "\n" for line in lines)
    namespace = {"isfinite": isfinite}
    exec(compile(source, "<stlobs jsonl sample>", "exec"), namespace)
    return namespace["is_sample"]


def _no_sample(obj: object) -> bool:
    """The sample test before any signal is declared."""
    return False


class VerdictWriter:
    """Writes verdict records one at a time.

    Each line is a per-format, per-verdict template with the tick filled
    in; jsonl lines are byte-identical to `json.dumps` of the same object.
    A text stream gets a `write` and a `flush` per line, so each line is
    out of the writer before `write` returns and the stream's newline
    translation applies. A binary stream (an `io.BufferedIOBase`, whose
    `write` takes every byte) gets the line's ASCII bytes and no flush: when
    they go out is left to the stream's owner."""

    def __init__(self, stream: io.TextIOBase | io.BufferedIOBase, fmt: str = "text"):
        if fmt not in VERDICT_FORMATS:
            raise ValueError(f"unknown verdict format {fmt!r}")
        self._lines = _LINES[fmt]
        header = "tick,verdict,pos,neg\n" if fmt == "csv" else ""
        if isinstance(stream, io.BufferedIOBase):
            self._lines = {v: line.encode("ascii") for v, line in self._lines.items()}
            self._put = stream.write
            header = header.encode("ascii")
        else:
            self._stream = stream
            self._put = self._put_text
        if header:
            self._put(header)

    def write(self, record: VerdictRecord) -> None:
        self._put(self._lines[record.verdict] % record.tick)

    def _put_text(self, line: str) -> None:
        self._stream.write(line)
        self._stream.flush()


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

