"""Strong Kleene three-valued logic over the verdicts T, F and U.

The monitor keeps each verdict as a pair of latching boolean flags
(positive, negative), locals of its generated network: "unknown" is the
absence of both, and a pair with both set is a `FlagConflictError`. The
network reads a `Trilean` off its root pair.
"""

from __future__ import annotations

from enum import Enum


class Trilean(Enum):
    TRUE = "T"
    FALSE = "F"
    UNKNOWN = "U"

    # Members are singletons compared by identity, so they hash by identity
    # too: `Enum.__hash__` hashes the name in a Python-level call, which a
    # lookup keyed by verdict, once per verdict line, would pay.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


TRUE = Trilean.TRUE
FALSE = Trilean.FALSE
UNKNOWN = Trilean.UNKNOWN


def and3(a: Trilean, b: Trilean) -> Trilean:
    """Conjunction; FALSE absorbs, UNKNOWN propagates otherwise."""
    if a is FALSE or b is FALSE:
        return FALSE
    if a is UNKNOWN or b is UNKNOWN:
        return UNKNOWN
    return TRUE


def or3(a: Trilean, b: Trilean) -> Trilean:
    """Disjunction; TRUE absorbs, UNKNOWN propagates otherwise."""
    if a is TRUE or b is TRUE:
        return TRUE
    if a is UNKNOWN or b is UNKNOWN:
        return UNKNOWN
    return FALSE


def not3(a: Trilean) -> Trilean:
    """Negation; UNKNOWN is a fixed point."""
    if a is TRUE:
        return FALSE
    if a is FALSE:
        return TRUE
    return UNKNOWN


def implies3(a: Trilean, b: Trilean) -> Trilean:
    """Material implication, defined as or3(not3(a), b).

    In particular UNKNOWN -> UNKNOWN is UNKNOWN, not TRUE.
    """
    return or3(not3(a), b)

