"""The command line of `stlobs`: each command's options in one table,
`COMMANDS`, which `parse_args` reads the command line against and which
renders `--help` and the usage line of an error (`.helptext`, loaded
only to print them), so that no argument parser is imported at start-up.

For each option the table gives its flags, the reader of its value (none
for a flag), its default and its help; for each command, which options are
required and which exclude each other. The command lines accepted are
argparse's: `--name value`, `--name=value`, `-fVALUE`, unique prefixes of
long names, the last of a repeated option wins, and `--` ends the options.
A value option takes the next word unless that word is an option word:
one that names an option of the command, `--`, or any other word that
begins with `--` and holds no space, which is a mistyped or unknown long
option. So a value may begin with a single `-`: `-f "-x>0"`, `--seed -5`,
`--trace -`. A refused command line prints the usage line and
the reason argparse gives and exits 64; `-h` prints help and `--version`
the version, and both exit 0.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable, Sequence
from math import isfinite
from types import SimpleNamespace

from . import __version__
from .traceio import TRACE_FORMATS, VERDICT_FORMATS

EXIT_USAGE = 64  # sysexits' EX_USAGE


def _int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"invalid int value: {value!r}") from None


def _positive_int(value: str) -> int:
    number = _int(value)
    if number < 1:
        raise ValueError(f"must be at least 1, got {number}")
    return number


def _positive_seconds(value: str) -> float:
    try:
        seconds = float(value)
    except ValueError:
        raise ValueError(f"invalid float value: {value!r}") from None
    if not (isfinite(seconds) and seconds > 0):
        raise ValueError(f"must be a finite number above 0, got {value}")
    return seconds


def _signals_arg(value: str) -> tuple[str, ...]:
    """Every stripped part of the list, empty ones too: the name rule, not
    the command line, judges them."""
    return tuple(part.strip() for part in value.split(","))


def _choice(choices: tuple[str, ...]) -> Callable[[str], str]:
    def read(value: str) -> str:
        if value not in choices:
            listed = ", ".join(map(repr, choices))
            raise ValueError(f"invalid choice: {value!r} (choose from {listed})")
        return value

    return read


class _Option:
    """One option of a command: its flags, the reader of its value (None
    for a flag, which is False unless given), its default, its help and
    whether the command line must give it. A reader raises ValueError with
    the reason it refuses a value."""

    __slots__ = ("flags", "dest", "read", "default", "help", "required", "metavar")

    def __init__(
        self,
        flags: tuple[str, ...],
        help: str,
        read: Callable[[str], object] | None = str,
        default: object = None,
        required: bool = False,
        choices: tuple[str, ...] = (),
    ):
        self.flags = flags
        self.dest = flags[-1].lstrip("-").replace("-", "_")
        self.read = _choice(choices) if choices else read
        self.default = False if read is None else default
        self.help = help
        self.required = required
        self.metavar = "{" + ",".join(choices) + "}" if choices else self.dest.upper()

    @property
    def name(self) -> str:
        return "/".join(self.flags)


class _Command:
    """A command's options, in help order after `-h`. The options in
    `one_of` exclude each other, and one of them is required."""

    __slots__ = ("name", "help", "options", "one_of", "flags")

    def __init__(
        self,
        name: str,
        help: str,
        options: tuple[_Option, ...],
        one_of: tuple[_Option, ...] = (),
    ):
        self.name = name
        self.help = help
        self.options = (_HELP, *options)
        self.one_of = one_of
        self.flags = {flag: option for option in self.options for flag in option.flags}

    @property
    def prog(self) -> str:
        return f"stlobs {self.name}" if self.name else "stlobs"


_HELP = _Option(("-h", "--help"), "show this help message and exit", read=None)
_VERSION = _Option(("--version",), "show program's version number and exit", read=None)
_FORMULA = _Option(("-f", "--formula"), "formula text")
_FORMULA_FILE = _Option(("--formula-file",), "file containing the formula text")
_TRACE_OPTIONS = (
    _FORMULA,
    _FORMULA_FILE,
    _Option(("--trace",), "trace file path, or - for stdin", required=True),
    _Option(
        ("--signals",),
        "comma-separated signal names (default: from the trace header or the first JSONL object)",
        read=_signals_arg,
    ),
    _Option(
        ("--trace-format",),
        "trace input format (default: auto)",
        choices=("auto",) + TRACE_FORMATS,
        default="auto",
    ),
    _Option(("--format",), "verdict output format (default: text)", choices=VERDICT_FORMATS, default="text"),
)

# The words before a command: stlobs's own options.
_STLOBS = _Command(
    "",
    "Online monitoring of bounded temporal formulas with three-valued verdicts.",
    (_VERSION,),
)

COMMANDS = {
    command.name: command
    for command in (
        _Command(
            "check",
            "stream a trace through the online monitor",
            (
                *_TRACE_OPTIONS,
                _Option(("--early-stop",), "stop reading input once the verdict is decided", read=None),
            ),
            one_of=(_FORMULA, _FORMULA_FILE),
        ),
        _Command(
            "oracle",
            "evaluate the reference semantics tick by tick over a recorded trace",
            _TRACE_OPTIONS,
            one_of=(_FORMULA, _FORMULA_FILE),
        ),
        _Command(
            "selfcheck",
            "run the built-in conformance checks",
            (
                _Option(
                    ("--max-b",),
                    "largest window upper bound for the exhaustive checks (default: 3)",
                    read=_positive_int,
                    default=3,
                ),
                _Option(
                    ("--cases",),
                    "number of randomized property cases (default: 200)",
                    read=_positive_int,
                    default=200,
                ),
                _Option(("--seed",), "randomized-check seed (default: 42)", read=_int, default=42),
                _Option(("--json",), "print reports as JSON", read=None),
            ),
        ),
        _Command(
            "emit-lustre",
            "write Lustre observer units for external checking",
            (
                _Option(("--out-dir",), "output directory (default: lustre)", default="lustre"),
                _Option(("--with-proofs",), "also write the window-extension proof units", read=None),
                _Option(("--run-checker",), "run the model checker over the emitted units", read=None),
                _Option(
                    ("--checker-path",),
                    "checker executable (default: $STLOBS_CHECKER, then kind2 on PATH)",
                ),
                _Option(
                    ("--timeout",),
                    "checker timeout in seconds per unit (default: 60)",
                    read=_positive_seconds,
                    default=60.0,
                ),
            ),
        ),
    )
}

# argparse's test for a word that is a negative number, such as -5, -1.5
# or -.5, and so a value unless it names an option.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _named(command: _Command, word: str) -> list[tuple[_Option, str, str | None]] | None:
    """The options of `command` that `word` names, each with its flag and
    the value written into the word (None if none), as argparse reads an
    option word: the whole flag, `flag=value`, a prefix of long flags (with
    or without `=value`) or a short flag with its value attached. Several
    entries are an ambiguous prefix; none is an unknown option. None for a
    word that is no option word: one that does not begin with `-`, `-`
    alone, or one that names no option and looks like a negative number or
    holds a space."""
    if len(word) < 2 or word[0] != "-":
        return None
    flags = command.flags
    if word in flags:
        return [(flags[word], word, None)]
    head, equals, value = word.partition("=")
    if equals and head in flags:
        return [(flags[head], head, value)]
    if word[1] == "-":
        named = [(option, flag, value if equals else None) for flag, option in flags.items() if flag.startswith(head)]
    else:
        named = [(flags[word[:2]], word[:2], word[2:])] if word[:2] in flags else []
    if not named and (_NEGATIVE_NUMBER.match(word) or " " in word):
        return None
    return named


def _is_option_word(command: _Command, word: str) -> bool:
    """Whether `word` is no value of an option: `--`, a word that names
    options of `command`, or one that begins with `--` and that argparse
    takes for an unknown option. A word of a single `-` that names no
    option, such as `-x>0`, is a value."""
    named = _named(command, word)
    return word == "--" or bool(named) or (named is not None and word.startswith("--"))


def _refuse(command: _Command, message: str) -> None:
    """Print the command's usage line and `message`, and exit 64."""
    from .helptext import usage

    sys.stderr.write(f"{usage(command)}\n{command.prog}: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _option_named(command: _Command, word: str, named: list) -> tuple[_Option, str | None]:
    """The one option in `named`, what `word` names, and the value written
    into the word. Refuses an ambiguous prefix and a value written into a
    flag, and prints help or the version and exits 0 for `-h` and
    `--version`."""
    if len(named) > 1:
        matches = ", ".join(flag for _, flag, _ in named)
        _refuse(command, f"ambiguous option: {word} could match {matches}")
    (option, _, value), = named
    if option.read is None and value is not None:
        _refuse(command, f"argument {option.name}: ignored explicit argument {value!r}")
    if option is _HELP:
        from .helptext import help_text

        sys.stdout.write(help_text(command))
        raise SystemExit(0)
    if option is _VERSION:
        sys.stdout.write(f"stlobs {__version__}\n")
        raise SystemExit(0)
    return option, value


def _walk(command: _Command, words: Sequence[str]) -> tuple[SimpleNamespace, list[str]]:
    """The values `words` give the options of `command`, with the defaults
    of those they do not give, and the words no option takes, in order.
    Refuses a command line as argparse does: each word in turn, then the
    required options, then the required one of `one_of`."""
    values = {option.dest: option.default for option in command.options if option is not _HELP}
    given: set[_Option] = set()
    extras: list[str] = []
    i = 0
    while i < len(words):
        word = words[i]
        i += 1
        if word == "--":
            extras += words[i - 1 :]
            break
        named = _named(command, word)
        if not named:
            extras.append(word)
            continue
        option, value = _option_named(command, word, named)
        if option.read is None:
            values[option.dest] = True
        else:
            if value is None:
                if i == len(words) or _is_option_word(command, words[i]):
                    _refuse(command, f"argument {option.name}: expected one argument")
                value = words[i]
                i += 1
            try:
                values[option.dest] = option.read(value)
            except ValueError as exc:
                _refuse(command, f"argument {option.name}: {exc}")
            if option in command.one_of:
                for other in command.one_of:
                    if other is not option and other in given:
                        _refuse(command, f"argument {option.name}: not allowed with argument {other.name}")
        given.add(option)
    missing = [option.name for option in command.options if option.required and option not in given]
    if missing:
        _refuse(command, f"the following arguments are required: {', '.join(missing)}")
    if command.one_of and given.isdisjoint(command.one_of):
        names = " ".join(option.name for option in command.one_of)
        _refuse(command, f"one of the arguments {names} is required")
    return SimpleNamespace(command=command.name, **values), extras


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The namespace of `argv`'s command and its options' values. Prints
    help or the version and exits 0 at `-h` or `--version`; prints a usage
    error and exits 64 on a command line that argparse would refuse."""
    extras: list[str] = []
    for at, word in enumerate(argv):
        named = None if word == "--" else _named(_STLOBS, word)
        if named is None:
            break
        if named:
            _option_named(_STLOBS, word, named)
        else:
            extras.append(word)
    else:
        _refuse(_STLOBS, "the following arguments are required: command")
    command = COMMANDS.get(word)
    if command is None:
        listed = ", ".join(map(repr, COMMANDS))
        _refuse(_STLOBS, f"argument command: invalid choice: {word!r} (choose from {listed})")
    args, more = _walk(command, argv[at + 1 :])
    extras += more
    if extras:
        _refuse(_STLOBS, f"unrecognized arguments: {' '.join(extras)}")
    return args
