"""Natural visibility graphs of time series.

Observations are unit-spaced (trading days), so observation i sits at
time i. Each observation becomes a node; two observations are linked when
every point between them lies strictly below the straight chord joining
them:

    s_k < s_i + (s_j - s_i) * (k - i) / (j - i)   for all i < k < j.

Ties block visibility. Consecutive observations always see each other.
Graphs are either undirected (symmetric adjacency) or directed left to
right (strictly upper-triangular adjacency).

A graph is stored as a lag table: ``sees[i, d - 1]`` says whether point i
sees point i + d, for lags d up to a limit. Whether i sees j depends only
on the points from i to j, so the graph of any window of the series is the
induced subgraph of the series' graph on that window's nodes. The graph of
every length-T window is therefore a slice of one table built over the
whole series with lags up to T - 1, and the adjacency of the whole series
is the window that starts at 0 and spans all n points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SizeError


@dataclass
class VisibilityGraph:
    """Visibility graph over n time observations, held as a lag table.

    ``sees`` is an (n, max_lag) boolean array whose entry [i, d - 1] means
    "i sees i + d". Pairs further apart than ``max_lag`` are not linked.
    """

    sees: np.ndarray
    directed: bool

    @property
    def n(self) -> int:
        return self.sees.shape[0]

    @property
    def adjacency(self) -> np.ndarray:
        """Dense (n, n) int8 adjacency of the whole series."""
        return self.windows([0], self.n)[0]

    def windows(self, starts, size: int) -> np.ndarray:
        """Adjacency of the windows of ``size`` points at ``starts``, (B, size, size) int8."""
        starts = np.asarray(starts, dtype=np.int64)
        if starts.size and (starts.min() < 0 or starts.max() + size > self.n):
            raise SizeError(f"windows of {size} points must start in 0..{self.n - size}")
        max_lag = self.sees.shape[1]
        node = np.arange(size)
        lag = node[np.newaxis, :] - node[:, np.newaxis]  # lag[i, j] = j - i
        rows = starts[:, np.newaxis, np.newaxis] + node[np.newaxis, :, np.newaxis]
        linked = self.sees[rows, np.clip(lag - 1, 0, max_lag - 1)]
        linked &= (lag >= 1) & (lag <= max_lag)
        if not self.directed:
            linked |= linked.transpose(0, 2, 1)
        return linked.astype(np.int8)


def natural_visibility(
    values, directed: bool = False, max_lag: int | None = None
) -> VisibilityGraph:
    """Build the natural visibility graph of a series of unit-spaced observations.

    Uses the O(n * max_lag) scan: for a fixed left node i, node j is
    visible exactly when the slope from i to j strictly exceeds the
    running maximum slope from i to every intermediate point. Each left
    node looks at most ``max_lag`` points ahead; the default scans the
    whole series. Every window of up to ``max_lag + 1`` points can then be
    sliced from the result with `VisibilityGraph.windows`.
    """
    s = np.asarray(values, dtype=np.float64)
    if s.ndim != 1:
        raise ShapeError("values must be one-dimensional")
    n = s.shape[0]
    if n < 2:
        raise SizeError(f"visibility graph needs >= 2 points, got {n}")
    if max_lag is not None and max_lag < 1:
        raise SizeError(f"max_lag must be >= 1, got {max_lag}")
    lags = n - 1 if max_lag is None else min(max_lag, n - 1)
    sees = np.zeros((n, lags), dtype=bool)
    for i in range(n - 1):
        stop = min(n, i + 1 + lags)
        slopes = (s[i + 1 : stop] - s[i]) / np.arange(1, stop - i, dtype=np.float64)
        sees[i, 0] = True  # no intermediate point
        sees[i, 1 : stop - i - 1] = slopes[1:] > np.maximum.accumulate(slopes)[:-1]
    return VisibilityGraph(sees, directed)
