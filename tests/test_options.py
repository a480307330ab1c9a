"""The command line as `options.parse_args` reads it, against argparse reading it
with the parser it replaced (`argparse_reference.build_parser`).

Every command line argparse accepts gives the same value for every
attribute; every one it refuses exits 64 with a message that names the
same option or reason. The one reading that changed: a value option takes
the next word unless that word names one of the command's options or
begins with `--`, so a value that begins with a single `-` and names no
option is read as argparse reads it when attached to its flag
(`--formula=-x>0`), where argparse itself refused it ("expected one
argument").

Two things are not compared. argparse, from 3.10 to at least 3.13.0,
reports an ambiguous prefix before any other fault of the command line,
where `parse_args` takes the words in order; and the printing of choice
lists and of `--` among unrecognized words, which varies between Python
versions."""

from __future__ import annotations

import io
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlobs import __version__, options

from argparse_reference import build_parser, command_flags

FLAGS = command_flags()


def reason(message: str) -> tuple:
    """What a refusal names: its kind and the option, words or value."""
    rules = [
        (r"argument (\S+): expected one argument", "expected"),
        (r"argument (\S+): invalid choice: .*", "choice"),  # choices print as repr or str
        (r"argument (\S+): not allowed with argument (\S+)", "excluded"),
        (r"argument (\S+): ignored explicit argument (.*)", "ignored"),
        (r"argument (\S+): (.*)", "value"),
        (r"the following arguments are required: (.*)", "required"),
        (r"one of the arguments (.*) is required", "one of"),
        (r"ambiguous option: (.*?)(?:=.*)? could match (.*)", "ambiguous"),
    ]
    for pattern, kind in rules:
        match = re.fullmatch(pattern, message)
        if match:
            return (kind, *match.groups())
    match = re.fullmatch(r"unrecognized arguments: (.*)", message)
    if match:
        return ("unrecognized", [word for word in match.group(1).split(" ") if word != "--"])
    return ("other", message)


def outcome(parse, argv: list[str]) -> tuple:
    """("accepted", namespace), ("help", prog), ("version", text) or
    ("refused", exit code, prog, reason) for `parse(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as exc:
            if exc.code == 0:
                text = out.getvalue()
                if text.startswith("usage: "):
                    return ("help", re.match(r"usage: (stlobs(?: \S+)?) ", text).group(1))
                return ("version", text)
            prog, _, message = err.getvalue().splitlines()[-1].partition(": error: ")
            return ("refused", exc.code, prog, reason(message))
    return ("accepted", vars(args))


def argparse_outcome(argv: list[str]) -> tuple:
    return outcome(build_parser().parse_args, argv)


def names_option(word: str, flags) -> bool:
    """Whether `word` names one of `flags` as argparse's documentation has
    it: the flag, `flag=value`, a prefix of long flags, or a short flag
    with its value attached."""
    head = word.partition("=")[0]
    if word in flags or head in flags:
        return True
    if word.startswith("--"):
        return any(flag.startswith(head) for flag in flags)
    return word[:2] in flags


def told_explicitly(argv: list[str]) -> list[str]:
    """`argv` with each value of an option that begins with a single `-`
    and names no option of the command attached to its flag with `=`,
    which argparse reads as that value."""
    if not argv or argv[0] not in FLAGS:
        return argv
    flags = FLAGS[argv[0]]
    told = [argv[0]]
    words = iter(argv[1:])
    for word in words:
        told.append(word)
        if word == "--":
            told += words
            break
        long_matches = [flag for flag in flags if word.startswith("--") and flag.startswith(word)]
        flag = word if word in flags else long_matches[0] if len(long_matches) == 1 else None
        if flag is None or not flags[flag]:
            continue
        value = next(words, None)
        if value is None:
            break
        if value.startswith("-") and not value.startswith("--") and not names_option(value, flags):
            told[-1] = f"{word}={value}"
        else:
            told.append(value)
    return told


def assert_parity(argv: list[str]) -> None:
    mine = outcome(options.parse_args, argv)
    reference = argparse_outcome(told_explicitly(argv))
    if reference[0] == "refused" and reference[3][0] == "ambiguous" and mine != reference:
        # An argparse that reports the ambiguous prefix before the words
        # ahead of it: those words refuse the command line or ask for help.
        assert mine[0] == "help" or mine[:2] == ("refused", options.EXIT_USAGE)
        return
    assert mine == reference


TABLE = [
    # every command, in its plainest form
    ["check", "-f", "x > 0", "--trace", "t.csv"],
    ["oracle", "--formula-file", "f.stl", "--trace", "-", "--format", "jsonl", "--trace-format", "csv"],
    ["selfcheck"],
    ["selfcheck", "--max-b", "2", "--cases", "10", "--seed", "7", "--json"],
    ["emit-lustre"],
    ["emit-lustre", "--out-dir", "d", "--with-proofs", "--run-checker", "--checker-path", "k", "--timeout", "0.5"],
    # = forms and attached short values
    ["check", "--formula=x > 0", "--trace=t.csv", "--signals=x, y", "--format=csv"],
    ["check", "-fx>0", "--trace", "t.csv"],
    ["check", "-f=x>0", "--trace", "t.csv"],
    ["check", "--formula=", "--trace", "t.csv"],
    # abbreviations, unique and ambiguous
    ["check", "--formula-f", "f.stl", "--tr=t.csv"],
    ["check", "--formula-f", "f.stl", "--trace-f", "jsonl", "--trace", "t", "--sig", "x", "--early"],
    ["check", "--form", "x > 0", "--trace", "t.csv"],
    ["check", "--form=x", "--trace", "t.csv"],
    ["check", "-f", "x", "--tr", "t.csv"],
    ["selfcheck", "--s", "3", "--c", "4", "--m", "1", "--j"],
    ["emit-lustre", "--t", "2"],
    # repeats: the last one wins
    ["check", "-f", "a", "--formula", "b", "--trace", "t", "--trace", "u", "--format", "csv", "--format", "jsonl"],
    ["selfcheck", "--json", "--json", "--seed", "1", "--seed", "2"],
    # --
    ["check", "-f", "x", "--trace", "t", "--"],
    ["check", "-f", "x", "--trace", "t", "--", "a", "--b"],
    ["check", "--", "-f", "x", "--trace", "t"],
    ["check", "-f", "--", "x", "--trace", "t"],
    # -h after other options, and before a fault
    ["check", "-f", "x", "-h"],
    ["check", "--trace", "t", "--help", "--no-such-option"],
    ["selfcheck", "--seed", "5", "--he"],
    ["check", "--format", "xml", "-h"],
    ["check", "-h", "--format", "xml"],
    ["--help"],
    ["-h", "check"],
    ["emit-lustre", "-h"],
    # - and negative numbers as values
    ["check", "-f", "x", "--trace", "-"],
    ["selfcheck", "--seed", "-5"],
    ["selfcheck", "--seed", "-5", "--seed", "x"],
    ["selfcheck", "--max-b", "-3"],
    ["emit-lustre", "--timeout", "-1"],
    ["emit-lustre", "--timeout=-inf"],
    ["emit-lustre", "--timeout", "-.5"],
    # missing options
    ["check"],
    ["check", "--trace", "t.csv"],
    ["check", "-f", "x > 0"],
    ["oracle", "--formula-file", "f"],
    ["check", "-f"],
    ["check", "-f", "x", "--trace"],
    ["check", "--trace", "--format", "csv", "-f", "x"],
    # excluded options
    ["check", "-f", "x", "--formula-file", "y", "--trace", "t"],
    ["oracle", "--formula-file", "y", "--formula=x", "--trace", "t"],
    ["check", "-f", "x", "--formula-file", "--trace", "t"],
    # unknown options, words and commands
    ["check", "-f", "x > 0", "--trace", "t.csv", "--no-such-option"],
    ["check", "-f", "x", "--trace", "t", "extra", "-q", "-5"],
    ["--bogus", "check", "-f", "x", "--trace", "t", "--zz"],
    ["check", "--version"],
    ["check", "-f", "x", "--trace", "t", "--version"],
    [],
    ["nope"],
    ["-5", "check"],
    ["--", "check", "-f", "x", "--trace", "t"],
    # values refused by their readers
    ["check", "-f", "x", "--trace", "t", "--format", "xml"],
    ["check", "-f", "x", "--trace", "t", "--trace-format", "tsv"],
    ["selfcheck", "--seed", "x"],
    ["selfcheck", "--cases", "0"],
    ["selfcheck", "--max-b", "1.5"],
    ["emit-lustre", "--timeout", "nan"],
    ["emit-lustre", "--timeout", "soon"],
    # a flag given a value
    ["check", "-f", "x", "--trace", "t", "--early-stop=1"],
    ["selfcheck", "--json="],
    ["check", "-f", "x", "--trace", "t", "--help=x"],
    # the version
    ["--version"],
    ["--vers"],
    ["--version", "check"],
    ["--version=1"],
    # values that begin with a single "-" and name no option: read now,
    # refused before
    ["check", "-f", "-x>0", "--trace", "t.csv"],
    ["oracle", "--formula", "-1*x>0", "--trace", "t.csv"],
    ["check", "-f", "x", "--trace", "-t.csv"],
    ["selfcheck", "--seed", "-x"],
    ["emit-lustre", "--out-dir", "-o"],
    # a mistyped or unknown long option is no value, as in argparse
    ["check", "-f", "--no-such-option", "--trace", "t"],
    ["check", "-f", "x>0", "--trace", "--sginals"],
    ["emit-lustre", "--out-dir", "--wiht-proofs"],
    ["check", "-f", "--x > 0", "--trace", "t"],
]


@pytest.mark.parametrize("argv", TABLE, ids=" ".join)
def test_table(argv):
    assert_parity(argv)


@pytest.mark.parametrize(
    "argv,option,dest,value",
    [
        (["check", "-f", "-x>0", "--trace", "t.csv"], "-f/--formula", "formula", "-x>0"),
        (["check", "-f", "x", "--trace", "-t.csv"], "--trace", "trace", "-t.csv"),
        (["emit-lustre", "--out-dir", "-o"], "--out-dir", "out_dir", "-o"),
    ],
)
def test_values_that_argparse_refused(argv, option, dest, value):
    # argparse took each of these words for an unknown option.
    assert argparse_outcome(argv) == ("refused", options.EXIT_USAGE, f"stlobs {argv[0]}", ("expected", option))
    assert getattr(options.parse_args(argv), dest) == value


def test_refusals_print_the_usage_line(capsys):
    with pytest.raises(SystemExit) as excinfo:
        options.parse_args(["check", "-f", "x > 0", "--trace", "t.csv", "--no-such-option"])
    assert excinfo.value.code == options.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: stlobs [-h] [--version] {check,oracle,selfcheck,emit-lustre} ...\n")
    assert err.endswith("stlobs: error: unrecognized arguments: --no-such-option\n")
    with pytest.raises(SystemExit):
        options.parse_args(["check", "--trace", "t.csv"])
    err = capsys.readouterr().err
    assert err.startswith("usage: stlobs check [-h] (-f FORMULA | --formula-file FORMULA_FILE)")
    assert err.endswith("stlobs check: error: one of the arguments -f/--formula --formula-file is required\n")


@pytest.mark.parametrize("command", [None, *options.COMMANDS])
def test_help_names_every_command_and_option(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as excinfo:
        options.parse_args(argv)
    assert excinfo.value.code == 0
    text = capsys.readouterr().out
    names = [*options.COMMANDS, "--version"] if command is None else list(FLAGS[command])
    assert all(name in text for name in names)
    assert all(len(line) < 80 for line in text.splitlines())


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        options.parse_args(["--version"])
    assert (excinfo.value.code, capsys.readouterr().out) == (0, f"stlobs {__version__}\n")


# Values of every kind the options read, and words that begin with "-".
VALUES = [
    "x > 0", "x>0", "G[0,2] (x > 1)", "-x>0", "-1*x>0", "-x > 0", "-", "-5", "-1.5", "-.5", "-1e5",
    "0", "1", "3", "1.5", "nan", "inf", "t.csv", "csv", "jsonl", "text", "auto", "xml", "x,y", " x, ,y", "",
    "-q", "--no-such-option", "--x=1", "=",
]
UNKNOWN = ["--no-such-option", "--zz=1", "-q", "extra", "--"]


@st.composite
def command_lines(draw):
    """A command and words for it: its flags, unique and ambiguous prefixes
    of its long flags, `flag=value` and `-fVALUE` forms, values, unknown
    options and `--`. Help words are rare; a flag `-h` with a value
    attached (read differently across Python versions) is not drawn."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    longs = [flag for flag in flags if flag.startswith("--") and flag != "--help"]
    prefixes = sorted({flag[:k] for flag in longs for k in range(3, len(flag))})
    value = st.sampled_from(VALUES)
    word = st.one_of(
        st.sampled_from(sorted(flag for flag in flags if flag not in ("-h", "--help"))),
        st.sampled_from(prefixes),
        st.builds(lambda flag, v: f"{flag}={v}", st.sampled_from(longs + ["-f"] * ("-f" in flags)), value),
        st.builds(lambda v: "-f" + v, value) if "-f" in flags else value,
        value,
        value,
        st.sampled_from(UNKNOWN),
    )
    words = draw(st.lists(word, max_size=10))
    if not draw(st.integers(0, 14)):
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(["-h", "--help", "--he"])))
    return [command, *words]


@given(command_lines())
@settings(max_examples=1500, deadline=None)
def test_random_command_lines(argv):
    assert_parity(argv)
