"""Fixtures shared by the test modules."""

import re

import pytest

from stlobs import monitor


@pytest.fixture
def fresh_networks():
    """Empty the network cache before and after the test. The cache is
    keyed by the network's text, so an edit of `monitor._CELLS`,
    `monitor._PAIRS` or `monitor._NetworkSource` that changes the text
    builds its own network; emptied, the cache's misses count the networks
    the test builds, and the edited ones leave with it."""
    monitor._factory.cache_clear()
    yield
    monitor._factory.cache_clear()


class Unguarded(monitor._NetworkSource):
    """The network without the `if not (pk or nk):` guard: every body runs
    at every tick, so an operator that has decided can set its other flag."""

    def __init__(self, f):
        super().__init__(f)
        self.text = re.sub(r"(?m)^( +)if not \((p\d+) or (n\d+)\):$", r"\1if True:", self.text)


@pytest.fixture
def unguarded_networks(monkeypatch, fresh_networks):
    """Networks built from `Unguarded` for the length of the test."""
    monkeypatch.setattr(monitor, "_NetworkSource", Unguarded)
