"""Command-line interface.

Subcommands:
  check        stream a trace through the online monitor
  oracle       evaluate the reference semantics over a recorded trace
  selfcheck    run the built-in conformance checks
  emit-lustre  write Lustre observer (and optional proof) units

Exit codes follow the final verdict for check/oracle: 0 true, 1 false,
2 still unknown. 64 flags a usage or formula error, 65 bad trace data,
66 a missing input file, 70 an internal failure, and 74 an output closed
by its reader (say `stlobs check ... | head -1`), after which the command
stops without a message.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import os
import sys
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__
from .errors import FormulaError, MissingSignalError, StlObsError, TraceError
from .formula import signals_of
from .monitor import VerdictRecord, compile_formula
from .parser import parse
from .traceio import (
    TRACE_FORMATS,
    VERDICT_FORMATS,
    VerdictWriter,
    opened,
    read_jsonl_stream,
    read_trace,
    sniff_lines,
    stream_csv,
)
from .trilean import FALSE, TRUE, UNKNOWN, Trilean

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOINPUT = 66
EXIT_INTERNAL = 70
EXIT_IOERR = 74

_VERDICT_EXITS = {TRUE: EXIT_TRUE, FALSE: EXIT_FALSE, UNKNOWN: EXIT_UNKNOWN}


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; remap to the sysexits code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {number}")
    return number


def _signals_arg(value: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in value.split(",") if part.strip())
    if not names:
        raise argparse.ArgumentTypeError("expected a comma-separated signal list")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="stlobs",
        description="Online monitoring of bounded temporal formulas with "
        "three-valued verdicts.",
    )
    parser.add_argument("--version", action="version", version=f"stlobs {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    formula_parent = _ArgumentParser(add_help=False)
    group = formula_parent.add_mutually_exclusive_group(required=True)
    group.add_argument("-f", "--formula", help="formula text")
    group.add_argument("--formula-file", help="file containing the formula text")

    trace_parent = _ArgumentParser(add_help=False)
    trace_parent.add_argument(
        "--trace", required=True, help="trace file path, or - for stdin"
    )
    trace_parent.add_argument(
        "--signals",
        type=_signals_arg,
        default=None,
        help="comma-separated signal names (default: from the trace header "
        "or the first JSONL object)",
    )
    trace_parent.add_argument(
        "--trace-format",
        choices=("auto",) + TRACE_FORMATS,
        default="auto",
        help="trace input format (default: auto)",
    )
    trace_parent.add_argument(
        "--format",
        choices=VERDICT_FORMATS,
        default="text",
        help="verdict output format (default: text)",
    )

    check = subparsers.add_parser(
        "check",
        parents=[formula_parent, trace_parent],
        help="stream a trace through the online monitor",
    )
    check.add_argument(
        "--early-stop",
        action="store_true",
        help="stop reading input once the verdict is decided",
    )
    check.set_defaults(handler=_cmd_check)

    oracle = subparsers.add_parser(
        "oracle",
        parents=[formula_parent, trace_parent],
        help="evaluate the reference semantics tick by tick over a recorded trace",
    )
    oracle.set_defaults(handler=_cmd_oracle)

    selfcheck = subparsers.add_parser(
        "selfcheck", help="run the built-in conformance checks"
    )
    selfcheck.add_argument(
        "--max-b",
        type=_positive_int,
        default=3,
        help="largest window upper bound for the exhaustive checks (default: 3)",
    )
    selfcheck.add_argument(
        "--cases",
        type=_positive_int,
        default=200,
        help="number of randomized property cases (default: 200)",
    )
    selfcheck.add_argument(
        "--seed", type=int, default=42, help="randomized-check seed (default: 42)"
    )
    selfcheck.add_argument(
        "--json", action="store_true", help="print reports as JSON"
    )
    selfcheck.set_defaults(handler=_cmd_selfcheck)

    emit = subparsers.add_parser(
        "emit-lustre", help="write Lustre observer units for external checking"
    )
    emit.add_argument(
        "--out-dir", default="lustre", help="output directory (default: lustre)"
    )
    emit.add_argument(
        "--with-proofs",
        action="store_true",
        help="also write the window-extension proof units",
    )
    emit.add_argument(
        "--run-checker",
        action="store_true",
        help="run the model checker over the emitted units",
    )
    emit.add_argument(
        "--checker-path",
        default=None,
        help="checker executable (default: $STLOBS_CHECKER, then kind2 on PATH)",
    )
    emit.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="checker timeout in seconds per unit (default: 60)",
    )
    emit.set_defaults(handler=_cmd_emit_lustre)

    return parser


def _load_formula_text(args) -> str:
    if args.formula is not None:
        return args.formula
    return Path(args.formula_file).read_text(encoding="utf-8")


def _trace_source(args) -> str | Iterable[str]:
    return sys.stdin if args.trace == "-" else args.trace


def _verdict_exit(last: Trilean | None) -> int:
    if last is None:
        print("no samples in trace", file=sys.stderr)
        return EXIT_UNKNOWN
    return _VERDICT_EXITS[last]


def _cmd_check(args) -> int:
    formula_text = _load_formula_text(args)
    with opened(_trace_source(args)) as lines:
        fmt = args.trace_format
        if fmt == "auto":
            fmt, lines = sniff_lines(lines)

        declared = args.signals
        if fmt == "csv":
            header, samples = stream_csv(lines)
            parse_signals = declared if declared is not None else header
        else:
            samples = read_jsonl_stream(lines, declared)
            parse_signals = declared
            if declared is None:
                first = next(samples)  # an empty trace raises here
                parse_signals = tuple(sorted(first))
                samples = itertools.chain([first], samples)

        f = parse(formula_text, parse_signals)
        step = compile_formula(f).step
        write = VerdictWriter(sys.stdout, args.format).write
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

    formula_text = _load_formula_text(args)
    trace = read_trace(_trace_source(args), args.trace_format, args.signals)
    parse_signals = args.signals if args.signals is not None else trace.signals
    f = parse(formula_text, parse_signals)
    missing = [name for name in signals_of(f) if name not in trace.signals]
    if missing:
        raise MissingSignalError(missing, "in trace")
    writer = VerdictWriter(sys.stdout, args.format)
    last: Trilean | None = None
    for tick in range(len(trace)):
        verdict = three_valued_eval(f, trace, tick)
        writer.write(VerdictRecord(tick, verdict))
        last = verdict
    return _verdict_exit(last)


def _cmd_selfcheck(args) -> int:
    from .conformance import differential_sweep, induction_suite, property_suite

    sweep = differential_sweep(max_upper=args.max_b)
    induction = induction_suite(max_lower=args.max_b, max_upper=args.max_b)
    properties = property_suite(args.seed, args.cases)
    if args.json:
        print(
            json.dumps(
                {
                    "sweep": sweep.to_dict(),
                    "induction": induction.to_dict(),
                    "properties": properties.to_dict(),
                },
                indent=2,
            )
        )
    else:
        print(f"differential sweep: {sweep.to_text()}")
        print(f"induction checks:   {induction.to_text()}")
        print(f"property suite:     {properties.to_text()}")
    passed = sweep.passed and induction.passed and properties.passed
    return EXIT_TRUE if passed else EXIT_FALSE


def _cmd_emit_lustre(args) -> int:
    from .lustregen import emit_units, run_kind2, write_units

    units = emit_units(with_proofs=args.with_proofs)
    paths = write_units(units, args.out_dir)
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


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
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
