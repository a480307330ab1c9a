"""The help and usage text of a command, rendered from its entry in the
option table (`options.COMMANDS`). It is loaded only to print help or a
usage error: without byte-code caches the compiling of each module on the
way to a check is paid on every start, and its transient memory sets a
check's peak.
"""

from __future__ import annotations

from collections.abc import Iterable

from .options import COMMANDS, _Command, _Option

# Help is laid out for an 80-column terminal, which is not asked its width.
_WIDTH = 79
_HELP_COLUMN = 24


def _fill(first: str, words: Iterable[str], indent: int) -> list[str]:
    """`first` and then `words`, one space apart, in lines of at most
    _WIDTH characters unless a word is longer; lines after the first are
    indented by `indent`."""
    lines = [first]
    for word in words:
        if len(lines[-1]) + 1 + len(word) > _WIDTH and not lines[-1].isspace():
            lines.append(" " * (indent - 1))
        lines[-1] += " " + word
    return lines


def _invocation(option: _Option, flags: Iterable[str]) -> str:
    """`flags`, and the metavar of an option that takes a value."""
    return ", ".join(flags) if option.read is None else f"{', '.join(flags)} {option.metavar}"


def usage(command: _Command) -> str:
    """The usage line of `command`, wrapped as argparse wraps it."""
    parts = []
    for option in command.options:
        if option not in command.one_of:
            part = _invocation(option, option.flags[:1])
            parts.append(part if option.required else f"[{part}]")
        elif option is command.one_of[0]:
            parts.append("(" + " | ".join(_invocation(other, other.flags[:1]) for other in command.one_of) + ")")
    if not command.name:
        parts += ["{" + ",".join(COMMANDS) + "}", "..."]
    prefix = f"usage: {command.prog}"
    return "\n".join(_fill(prefix, parts, len(prefix) + 1))


def _entry(head: str, text: str) -> list[str]:
    """A help line: `head` indented by 2, then `text` from _HELP_COLUMN on,
    or on the next lines when `head` reaches it."""
    head = "  " + head
    if len(head) + 2 > _HELP_COLUMN:
        return [head, *_fill(" " * (_HELP_COLUMN - 1), text.split(), _HELP_COLUMN)]
    return _fill(head.ljust(_HELP_COLUMN - 1), text.split(), _HELP_COLUMN)


def help_text(command: _Command) -> str:
    """What `-h` prints for `command`: its usage line, its help, and each
    of its options (and at the top level each command) with its help."""
    lines = [usage(command), "", command.help, ""]
    if not command.name:
        lines.append("commands:")
        for sub in COMMANDS.values():
            lines += _entry(sub.name, sub.help)
        lines.append("")
    lines.append("options:")
    for option in command.options:
        lines += _entry(_invocation(option, option.flags), option.help)
    if not command.name:
        lines += ["", "Run `stlobs COMMAND --help` for the options of a command."]
    return "\n".join(lines) + "\n"
