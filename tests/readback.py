"""Test helpers that read back what the commands read and write: a whole
trace as one `Trace`, and verdict output as `VerdictRecord`s."""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable, Sequence

from stlobs.errors import TraceFormatError
from stlobs.monitor import VerdictRecord
from stlobs.trace import Trace
from stlobs.traceio import VERDICT_FORMATS, opened, read_jsonl_stream, sniff_lines, stream_csv
from stlobs.trilean import FALSE, TRUE, Trilean


def read_trace(
    source: str | Path | Iterable[str],
    trace_format: str = "auto",
    signals: Sequence[str] | None = None,
) -> Trace:
    """The whole trace in a path or in lines, read by the streaming readers
    in `trace_format` or, with "auto", in the format `sniff_lines` finds.
    A CSV header names the signals; a JSONL trace has `signals`, or the
    sorted keys of its first object."""
    with opened(source) as lines:
        if trace_format == "auto":
            trace_format, lines = sniff_lines(lines)
        if trace_format == "csv":
            names, samples = stream_csv(lines)
            samples = list(samples)
        else:
            samples = list(read_jsonl_stream(lines, signals))
            names = tuple(sorted(samples[0])) if signals is None else tuple(signals)
    return Trace(names, tuple(tuple(sample[name] for name in names) for sample in samples))


_TEXT_LINE = re.compile(r"tick=(\d+) verdict=([TFU]) pos=([01]) neg=([01])$")
_VERDICTS = {str(v): v for v in Trilean}


def read_verdicts(lines: Iterable[str], fmt: str = "text") -> list[VerdictRecord]:
    """Parse verdict output back into records.

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
