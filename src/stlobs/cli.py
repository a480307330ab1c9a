"""Command-line interface.

Subcommands:
  check        stream a trace through the online monitor
  oracle       evaluate the reference semantics over a recorded trace
  selfcheck    run the built-in conformance checks
  emit-lustre  write Lustre observer (and optional proof) units

The command line is read against the option table of `.options`, without
argparse; `main` runs the handler of the command it names (`_handler`).

Exit codes follow the final verdict for check/oracle: 0 true, 1 false,
2 still unknown. 64 flags a usage or formula error (and a `selfcheck
--max-b` too large to enumerate), 65 bad trace data, 66 a missing input
file, 70 an internal failure, 73 an `emit-lustre` output directory that
cannot be made or written, and 74 an output closed by its reader (say
`stlobs check ... | head -1`), after which the command stops without a
message.
"""

from __future__ import annotations

import io
import itertools
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from contextlib import nullcontext

from . import traceio
from .errors import EnumerationCapError, FormulaError, MissingSignalError, StlObsError, TraceError, TraceFormatError
from .formula import Formula, signals_of
from .monitor import VerdictRecord, compile_formula
from .options import EXIT_USAGE, parse_args
from .parser import parse
from .traceio import (
    VerdictWriter,
    _check_signals,
    hooks_reads,
    opened,
    read_jsonl_stream,
    sniff_lines,
    stream_csv,
)
from .trilean import FALSE, TRUE, UNKNOWN, Trilean

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_DATA = 65
EXIT_NOINPUT = 66
EXIT_INTERNAL = 70
EXIT_CANTCREAT = 73
EXIT_IOERR = 74

_VERDICT_EXITS = {TRUE: EXIT_TRUE, FALSE: EXIT_FALSE, UNKNOWN: EXIT_UNKNOWN}


def _load_formula_text(args) -> str:
    if args.formula is not None:
        return args.formula
    # A byte that is not utf-8 reads as a lone surrogate, as in a trace
    # file, and the parser rejects it as it does the same text given by -f.
    with open(args.formula_file, encoding="utf-8", errors="surrogateescape") as file:
        return file.read()


def _trace_source(args) -> str | Iterable[str]:
    if args.trace == "-" and sys.stdin is None:  # started with stdin closed
        raise OSError("stdin is not open")
    return sys.stdin if args.trace == "-" else args.trace


def _require_signals(f: Formula, names: Sequence[str]) -> None:
    """Raise `MissingSignalError` unless every signal `f` reads is one of the
    trace's `names`, which `--signals` may not match: `check` and `oracle`
    then stop before the first sample, with the same message."""
    missing = [name for name in signals_of(f) if name not in names]
    if missing:
        raise MissingSignalError(missing, "in trace")


def _verdict_exit(last: Trilean | None) -> int:
    if last is None:
        print("no samples in trace", file=sys.stderr)
        return EXIT_UNKNOWN
    return _VERDICT_EXITS[last]


# The most verdict output `check` holds while input is in hand. It is put
# out before every read of the input, so a held line waits at most for the
# rows that make 1 KiB of verdicts, about 78 csv or 17 jsonl lines: well
# under a millisecond of work, and no wait at all on a reader that sends one
# row per verdict.
HELD_BYTES = 1024


def _held_stdout(source: object) -> io.BufferedWriter | None:
    """A binary stream on stdout's descriptor that holds up to HELD_BYTES,
    when `check` may hold its output: its reads of `source` are hooked to
    flush the stream first (`hooks_reads`), and stdout is the interpreter's
    own, on POSIX, with an encoding that writes ASCII as itself. Otherwise
    None, and verdicts go through `sys.stdout` a line at a time.

    A text stream does not expose the newline it was opened with, so only
    `sys.__stdout__` qualifies: on POSIX Python opens it with newline "\n",
    which translates nothing. A newline set later with `reconfigure` is not
    seen."""
    stdout = sys.stdout
    if not hooks_reads(source) or stdout is not sys.__stdout__ or os.linesep != "\n":
        return None
    try:
        fd = stdout.fileno()
        if "tick\n".encode(stdout.encoding) != b"tick\n":
            return None
    except (AttributeError, OSError, ValueError, LookupError):
        return None  # io.UnsupportedOperation is an OSError and a ValueError
    stdout.flush()  # what is already buffered goes out first
    return io.BufferedWriter(_stdout_raw(fd), HELD_BYTES)


def _stdout_raw(fd: int) -> io.RawIOBase:
    """The unbuffered stream under the held stdout; the descriptor stays
    open when it is closed."""
    return io.FileIO(fd, "w", closefd=False)


def _read_front(
    args, formula_text: str, lines: Iterable[str]
) -> tuple[Formula, tuple[str, ...], Iterator[dict[str, float]]]:
    """Read the trace's header, or its first JSONL object, from `lines`,
    then parse the formula against the signals found there or declared:
    the formula, the trace's signal names and an iterator of its samples,
    none of them read yet beyond the first JSONL object. A declared list
    obeys the name rule of a header, in either format: an empty name is
    refused before anything is read, the rest is checked once the formula
    has parsed. (Against a list of empty names no formula parses, and its
    unknown-signal error would hide the list's.)"""
    declared = args.signals
    if declared is not None and "" in declared:
        raise TraceFormatError("signal list: empty signal name")
    fmt = args.trace_format
    if fmt == "auto":
        fmt, lines = sniff_lines(lines)
    if fmt == "csv":
        names, samples = stream_csv(lines)
        parse_signals = declared if declared is not None else names
    else:
        samples = read_jsonl_stream(lines, declared)
        parse_signals = declared
        if declared is None:
            first = next(samples)  # an empty trace raises here
            parse_signals = tuple(sorted(first))
            samples = itertools.chain([first], samples)
        names = parse_signals
    f = parse(formula_text, parse_signals)
    if declared is not None:
        _check_signals(declared, "signal list")
    _require_signals(f, names)
    return f, names, samples


def _cmd_check(args) -> int:
    formula_text = _load_formula_text(args)
    source = _trace_source(args)
    out = _held_stdout(source)
    # A held stream is flushed before each read of the input and, on the
    # way out, by its `with`: also after an early stop or a trace error.
    with out or nullcontext(), opened(source, out.flush if out else None) as lines:
        f, _, samples = _read_front(args, formula_text, lines)
        step = compile_formula(f).step
        write = VerdictWriter(out or sys.stdout, args.format).write
        early_stop = args.early_stop
        last: Trilean | None = None
        for sample in samples:
            record = step(sample)
            write(record)
            last = record.verdict
            if early_stop and last is not UNKNOWN:
                break
    return _verdict_exit(last)


def _cmd_oracle(args) -> int:
    from .oracle import three_valued_eval
    from .trace import Trace

    formula_text = _load_formula_text(args)
    with opened(_trace_source(args)) as lines:
        f, names, samples = _read_front(args, formula_text, lines)
        trace = Trace(names, tuple(tuple(s[n] for n in names) for s in samples))
    writer = VerdictWriter(sys.stdout, args.format)
    last: Trilean | None = None
    for tick in range(len(trace)):
        verdict = three_valued_eval(f, trace, tick)
        writer.write(VerdictRecord(tick, verdict))
        last = verdict
    return _verdict_exit(last)


def _cmd_selfcheck(args) -> int:
    from .conformance import differential_sweep, induction_suite, property_suite

    try:  # a window too long to enumerate is refused before any suite runs
        reports = {
            "sweep": differential_sweep(max_upper=args.max_b),
            "induction": induction_suite(max_lower=args.max_b, max_upper=args.max_b),
            "properties": property_suite(args.seed, args.cases),
        }
    except EnumerationCapError as exc:
        print(f"stlobs selfcheck: error: argument --max-b: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        import json

        print(json.dumps({name: report.to_dict() for name, report in reports.items()}, indent=2))
    else:
        for label, report in zip(("differential sweep:", "induction checks:  ", "property suite:    "), reports.values()):
            print(label, report.to_text())
    return EXIT_TRUE if all(report.passed for report in reports.values()) else EXIT_FALSE


def _cmd_emit_lustre(args) -> int:
    from .lustregen import emit_units, run_kind2, write_units

    units = emit_units(with_proofs=args.with_proofs)
    try:
        paths = write_units(units, args.out_dir)
    except OSError as exc:
        print(f"cannot write {args.out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CANTCREAT
    for path in paths:
        print(f"wrote {path}")
    if args.run_checker:
        report = run_kind2(units, timeout=args.timeout, checker=args.checker_path)
        print(report.to_text())
        if report.ran and not report.all_valid:
            return EXIT_FALSE
    return EXIT_TRUE


def _discard_stdout() -> None:
    """Point the stdout file descriptor at os.devnull, so that what is still
    buffered for a reader that has gone away is dropped at exit instead of
    failing again there ("Exception ignored ... BrokenPipeError")."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _log_to_stderr() -> None:
    """Print warnings to stderr as `LEVEL: message`, unless logging is set
    up already. Run before the first warning, so a check that logs none
    does not load `logging`."""
    import logging

    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")


def _handler(command: str):
    """The function that runs `command`, found by its name, so that the
    option table (`options.COMMANDS`) is the one list of commands: `_cmd_`
    and the command's name with `_` for `-`."""
    return globals()["_cmd_" + command.replace("-", "_")]


def main(argv: Sequence[str] | None = None) -> int:
    traceio.before_first_warning = _log_to_stderr
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code = _handler(args.command)(args)
        sys.stdout.flush()  # a closed output fails here, not at exit
        return code
    except FormulaError as exc:
        print(f"formula error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"cannot read {exc.filename}: not found", file=sys.stderr)
        return EXIT_NOINPUT
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_IOERR
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_NOINPUT
    except StlObsError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # last resort so scripts get a stable exit code
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
