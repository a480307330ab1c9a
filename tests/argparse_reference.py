"""The argparse parser the command line was read with before the option
table of `stlobs.options`, kept as the reference that
`options.parse_args` is held to: a namespace it gives compares with one
`parse_args` gives attribute for attribute."""

from __future__ import annotations

import argparse
import sys
from math import isfinite

from stlobs import __version__, options
from stlobs.traceio import TRACE_FORMATS, VERDICT_FORMATS


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; remap to the sysexits code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(options.EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {number}")
    return number


def _positive_seconds(value: str) -> float:
    try:
        seconds = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {value!r}") from None
    if not (isfinite(seconds) and seconds > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {value}")
    return seconds


def _signals_arg(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(","))


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

    subparsers.add_parser(
        "oracle",
        parents=[formula_parent, trace_parent],
        help="evaluate the reference semantics tick by tick over a recorded trace",
    )

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
        type=_positive_seconds,
        default=60.0,
        help="checker timeout in seconds per unit (default: 60)",
    )

    return parser


def command_flags() -> dict[str, dict[str, bool]]:
    """Per command, each of its flags and whether it takes a value."""
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {flag: action.nargs is None for action in sub._actions for flag in action.option_strings}
        for name, sub in commands.choices.items()
    }
