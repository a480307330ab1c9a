"""Fixtures shared by the test modules."""

import pytest

from stlobs import monitor


@pytest.fixture
def fresh_networks():
    """Empty the network caches before and after the test, so that a test
    that edits `monitor._CELLS`, `monitor._PAIRS` or `monitor._NetworkSource`
    builds every network from its edit and leaves none of them cached."""
    monitor._network_code.cache_clear()
    monitor._shape_code.cache_clear()
    yield
    monitor._network_code.cache_clear()
    monitor._shape_code.cache_clear()
