"""Settings and fixtures shared by the whole test suite.

Property tests run under one hypothesis profile: 60 examples per test, no
deadline, derandomized and without an example database, so every run
checks the same cases.

The `traced_peak` fixture gives the memory tests one way to measure the
peak of Python-allocated memory (`tracemalloc`) over a block of code.
"""

import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

try:
    from hypothesis import settings
except ImportError:  # only the property tests need hypothesis
    pass
else:
    settings.register_profile(
        "derandomized", max_examples=60, deadline=None, derandomize=True, database=None
    )
    settings.load_profile("derandomized")


@contextmanager
def _traced_peak():
    peak = SimpleNamespace(bytes=None)
    tracemalloc.start()
    try:
        yield peak
        peak.bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """``with traced_peak() as peak:`` traces the block; then ``peak.bytes``
    holds the peak of its traced allocations."""
    return _traced_peak
