"""Strong Kleene three-valued logic and the two-flag verdict encoding.

A verdict is either a `Trilean` or, equivalently, a pair of latching boolean
flags (positive, negative) where "unknown" is the absence of both. The flag
pair with both booleans set does not encode anything and is rejected.
"""

from __future__ import annotations

from enum import Enum

from ._record import record
from .errors import FlagConflictError


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


@record
class FlagPair:
    """Latched verdict flags; at most one may be set."""

    positive: bool
    negative: bool

    def __post_init__(self) -> None:
        if self.positive and self.negative:
            raise FlagConflictError("positive and negative verdict flags are both set")


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


def verdict_from_bools(positive: bool, negative: bool) -> Trilean:
    """Decode raw observer flags without allocating a FlagPair."""
    if positive:
        if negative:
            raise FlagConflictError("positive and negative verdict flags are both set")
        return TRUE
    if negative:
        return FALSE
    return UNKNOWN


def from_flags(flags: FlagPair) -> Trilean:
    """Decode a flag pair; unknown is derived as neither flag set."""
    return verdict_from_bools(flags.positive, flags.negative)


def to_flags(value: Trilean) -> FlagPair:
    """Inverse of `from_flags` on the three legal flag pairs."""
    return FlagPair(value is TRUE, value is FALSE)
