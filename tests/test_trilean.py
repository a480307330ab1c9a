"""Three-valued connectives."""

import itertools

import pytest

from stlobs.trilean import FALSE, TRUE, UNKNOWN, Trilean, and3, implies3, not3, or3

T, F, U = TRUE, FALSE, UNKNOWN
VALUES = (T, F, U)

AND_TABLE = [
    (T, T, T), (T, F, F), (T, U, U),
    (F, T, F), (F, F, F), (F, U, F),
    (U, T, U), (U, F, F), (U, U, U),
]

OR_TABLE = [
    (T, T, T), (T, F, T), (T, U, T),
    (F, T, T), (F, F, F), (F, U, U),
    (U, T, T), (U, F, U), (U, U, U),
]

NOT_TABLE = [(T, F), (F, T), (U, U)]

IMPLIES_TABLE = [
    (T, T, T), (T, F, F), (T, U, U),
    (F, T, T), (F, F, T), (F, U, T),
    (U, T, T), (U, F, U), (U, U, U),
]


@pytest.mark.parametrize("a,b,expected", AND_TABLE)
def test_and3(a, b, expected):
    assert and3(a, b) is expected


@pytest.mark.parametrize("a,b,expected", OR_TABLE)
def test_or3(a, b, expected):
    assert or3(a, b) is expected


@pytest.mark.parametrize("a,expected", NOT_TABLE)
def test_not3(a, expected):
    assert not3(a) is expected


@pytest.mark.parametrize("a,b,expected", IMPLIES_TABLE)
def test_implies3(a, b, expected):
    assert implies3(a, b) is expected


def test_tables_are_exhaustive():
    assert len(AND_TABLE) + len(OR_TABLE) + len(NOT_TABLE) + len(IMPLIES_TABLE) == 30
    assert {(a, b) for a, b, _ in AND_TABLE} == set(itertools.product(VALUES, VALUES))
    assert {(a, b) for a, b, _ in OR_TABLE} == set(itertools.product(VALUES, VALUES))
    assert {(a, b) for a, b, _ in IMPLIES_TABLE} == set(itertools.product(VALUES, VALUES))


def test_unknown_implies_unknown_is_unknown():
    assert implies3(U, U) is U


def test_commutativity():
    for a, b in itertools.product(VALUES, VALUES):
        assert and3(a, b) is and3(b, a)
        assert or3(a, b) is or3(b, a)


def test_associativity():
    for a, b, c in itertools.product(VALUES, VALUES, VALUES):
        assert and3(and3(a, b), c) is and3(a, and3(b, c))
        assert or3(or3(a, b), c) is or3(a, or3(b, c))


def test_de_morgan():
    for a, b in itertools.product(VALUES, VALUES):
        assert not3(and3(a, b)) is or3(not3(a), not3(b))
        assert not3(or3(a, b)) is and3(not3(a), not3(b))


def test_double_negation():
    for a in VALUES:
        assert not3(not3(a)) is a


def test_implies_matches_definition():
    for a, b in itertools.product(VALUES, VALUES):
        assert implies3(a, b) is or3(not3(a), b)


def test_str_values():
    assert str(T) == "T" and str(F) == "F" and str(U) == "U"
    assert [v.value for v in (T, F, U)] == ["T", "F", "U"]


def test_trilean_is_exactly_three_values():
    assert set(Trilean) == set(VALUES)
