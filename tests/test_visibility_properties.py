"""Randomized checks that each window's visibility graph is a slice of one series graph.

Whether point i sees point j depends only on the points from i to j, so
the graph of a window is the induced subgraph of the series graph on the
window's nodes. Series are Gaussian, or small integers whose exact ties
must block visibility. Examples come from the derandomized profile in
conftest.py, so every run checks the same cases.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from siggraphgan import layers as ly
from siggraphgan import visibility as vg


@st.composite
def series_and_window(draw):
    """A series of 2..60 points and a window length in 2..min(n, 25)."""
    points = draw(st.integers(2, 60))
    seq_len = draw(st.integers(2, min(points, 25)))
    if draw(st.booleans()):
        series = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(points)
    else:
        ints = draw(st.lists(st.integers(-3, 3), min_size=points, max_size=points))
        series = np.array(ints, dtype=np.float64)
    return series, seq_len


def all_windows(series, seq_len, directed):
    """Adjacency of every window, sliced from the series graph banded to seq_len - 1 lags."""
    graph = vg.natural_visibility(series, directed=directed, max_lag=seq_len - 1)
    return graph.windows(np.arange(series.size - seq_len + 1), seq_len)


@given(case=series_and_window(), directed=st.booleans())
def test_windows_are_induced_subgraphs(case, directed):
    series, seq_len = case
    sliced = all_windows(series, seq_len, directed)
    unlimited = vg.natural_visibility(series, directed=directed)
    assert np.array_equal(sliced, unlimited.windows(np.arange(sliced.shape[0]), seq_len))
    for start, window in enumerate(sliced):
        own = vg.natural_visibility(series[start : start + seq_len], directed=directed)
        assert np.array_equal(window, own.adjacency)


@given(case=series_and_window(), directed=st.booleans())
def test_batched_normalization_matches_per_window(case, directed):
    sliced = all_windows(*case, directed)
    batched = ly.normalized_adjacency(sliced)
    for window, normalized in zip(sliced, batched):
        assert np.array_equal(normalized, ly.normalized_adjacency(window))
