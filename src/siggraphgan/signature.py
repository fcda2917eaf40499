"""Truncated lead-lag signatures of scalar series.

A signature coefficient is indexed by a word over the alphabet {1..d}; the
level-k block holds the k-fold iterated integrals. Coefficients are stored
flat, level by level (constant term first, then level 1, ..., level M),
row-major within a level so that the first letter of a word is the slowest
index. This layout is part of the checkpoint and metric contracts.

The package signs only lead-lag embeddings (d = 2) of scalar series, in
one vectorized engine (`leadlag_signature_batch`) that exploits the fact
that every lead-lag increment moves along a single coordinate. The engine
also provides the exact adjoint used during GAN training. Its reference is
the generic word-indexed `path_signature` of `lead_lag` in
``tests/oracles.py``, valid for any dimension, which the tests compare it
with.

`leadlag_window_mean` computes the mean lead-lag signature over all
sliding windows of one series from per-block prefix and suffix
signatures, with the engine's Chen step; its oracle is the engine applied
to the stacked windows, then averaged.

The engine works coefficient-major: its running signature is (L, B), one
contiguous row of B values per coefficient, and the adjoint runs in the
same layout. The snapshots the forward keeps for the adjoint hold levels
0..degree-1 only, the rows a Chen step reads as sources. Results are
returned row-major, (B, L), like every other signature in the package.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ShapeError, SizeError


def sig_length(dim: int, degree: int) -> int:
    """Number of coefficients through level ``degree``, constant included."""
    if dim == 1:
        return degree + 1
    return (dim ** (degree + 1) - 1) // (dim - 1)


def level_offsets(dim: int, degree: int) -> list[int]:
    """Flat start offset of each level 0..degree (plus the end sentinel)."""
    offsets = [0]
    for k in range(degree + 1):
        offsets.append(offsets[-1] + dim**k)
    return offsets


# ---------------------------------------------------------------------------
# Batched lead-lag signature engine (dimension 2, single-coordinate steps)
# ---------------------------------------------------------------------------
#
# Every increment of a lead-lag path moves along exactly one coordinate, so
# its tensor exponential is supported on the single word c^r. One Chen step
# with such a segment therefore reads, for each word w ending in r copies of
# letter c:
#
#     new[w] = sum_{r=0..run_c(w)} prev[w with trailing c^r removed] * a^r / r!
#
# which is a handful of gather-multiply-adds per level. The tables below
# enumerate, per (letter, run length, level), the destination words and
# their truncated sources.


@lru_cache(maxsize=None)
def _run_tables(degree: int):
    """For d = 2: tables[c][r-1] = (dst, src) flat coefficient indices.

    ``dst`` lists every word (across all levels) ending in at least r copies
    of letter c+1; ``src`` is the corresponding word with that run of length
    r removed. Indices address the flat level-major coefficient vector.
    """
    offs = level_offsets(2, degree)
    tables = {}
    for c in (0, 1):  # letter index; letter value is c + 1
        per_run = []
        for r in range(1, degree + 1):
            suffix = 0
            for _ in range(r):
                suffix = suffix * 2 + c
            dst_parts, src_parts = [], []
            for k in range(r, degree + 1):
                src_level = np.arange(2 ** (k - r))
                dst_parts.append(offs[k] + src_level * (2**r) + suffix)
                src_parts.append(offs[k - r] + src_level)
            per_run.append(
                (np.concatenate(dst_parts), np.concatenate(src_parts))
            )
        tables[c] = per_run
    return tables


@lru_cache(maxsize=None)
def _word_reversal(degree: int) -> np.ndarray:
    """For d = 2: flat index of the reversal of every word through ``degree``.

    Within level k a word's index is its letters read as k bits, first
    letter most significant, so reversing the word reverses those bits.
    """
    parts = []
    for k, offset in enumerate(level_offsets(2, degree)[:-1]):
        index = np.arange(2**k)
        reversed_bits = np.zeros_like(index)
        for bit in range(k):
            reversed_bits |= ((index >> bit) & 1) << (k - 1 - bit)
        parts.append(offset + reversed_bits)
    return np.concatenate(parts)


def _chen_step(sig: np.ndarray, prev: np.ndarray, a: np.ndarray, per_run) -> None:
    """Append one single-coordinate segment to a coefficient-major signature.

    ``sig`` is (L, B) and is updated in place; ``prev`` holds its levels
    0..degree-1 from before the step, ``a`` the B segment magnitudes and
    ``per_run`` the `_run_tables` entry of the segment's coordinate.
    """
    coef = a
    for r, (dst, src) in enumerate(per_run, start=1):
        sig[dst] += prev[src] * coef
        coef = coef * a / (r + 1)


def _leadlag_increments(x: np.ndarray):
    """Increment magnitudes of the lead-lag path of each series in a batch.

    For series values x[., 0..n-1] the path increments alternate between the
    lead coordinate and the lag coordinate, both with magnitude
    x[., k+1] - x[., k]. Returns (steps, coords): steps is (2(n-1), B), one
    contiguous row of B magnitudes per step, and coords is the per-step
    coordinate index pattern (length 2(n-1)).
    """
    diffs = np.diff(x, axis=1).T
    steps = np.repeat(diffs, 2, axis=0)
    coords = np.tile(np.array([0, 1]), diffs.shape[0])
    return steps, coords


def leadlag_signature_batch(series: np.ndarray, degree: int = 5) -> np.ndarray:
    """Truncated signatures of the lead-lag embedding of each series.

    ``series`` is (B, n) or (n,); the result is (B, L) or (L,) flat
    coefficients with L = 2^(degree+1) - 1, matching the word-indexed
    `path_signature` of `lead_lag` in ``tests/oracles.py``.
    """
    sig, _ = _leadlag_forward(series, degree)
    return sig


def _leadlag_forward(series: np.ndarray, degree: int):
    """Lead-lag signatures of a batch of series, plus the adjoint's cache.

    The working signature is coefficient-major, (L, B), so every gather and
    scatter of `_run_tables` moves whole contiguous rows of B values. Before
    each Chen step the cache keeps a snapshot of levels 0..degree-1 only,
    the rows that step reads as sources: (2(n-1), sig_length(2, degree-1),
    B) in all. The result is returned row-major, (B, L) or (L,).
    """
    x = np.asarray(series, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[np.newaxis, :]
    if x.ndim != 2:
        raise ShapeError(f"series batch must be (B, n), got shape {x.shape}")
    if x.shape[1] < 2:
        raise SizeError(f"lead_lag needs >= 2 points, got {x.shape[1]}")

    steps, coords = _leadlag_increments(x)
    tables = _run_tables(degree)
    sig = np.zeros((sig_length(2, degree), x.shape[0]))
    sig[0] = 1.0
    snapshots = np.empty((steps.shape[0], sig_length(2, degree - 1), x.shape[0]))
    for t, a in enumerate(steps):
        prev = snapshots[t]
        prev[...] = sig[: prev.shape[0]]
        _chen_step(sig, prev, a, tables[coords[t]])
    cache = (x.shape, steps, coords, snapshots, degree)
    sig = np.ascontiguousarray(sig.T)
    if single:
        return sig[0], cache
    return sig, cache


def _leadlag_vjp(cache, grad_out: np.ndarray) -> np.ndarray:
    """Exact adjoint of `_leadlag_forward` with respect to the input series.

    Runs in the forward's coefficient-major layout: the signature adjoint
    is (L, B) and the step adjoint (2(n-1), B).
    """
    (bshape, steps, coords, snapshots, degree) = cache
    g = np.asarray(grad_out, dtype=np.float64)
    single = g.ndim == 1
    if single:
        g = g[np.newaxis, :]
    tables = _run_tables(degree)
    grad_sig = np.ascontiguousarray(g.T)
    grad_steps = np.zeros_like(steps)

    for t in range(steps.shape[0] - 1, -1, -1):
        prev = snapshots[t]
        a = steps[t]
        per_run = tables[coords[t]]
        grad_prev = grad_sig.copy()
        ga = grad_steps[t]
        coef = a  # a^r / r!
        dcoef = np.ones_like(a)  # d(a^r / r!)/da = a^(r-1) / (r-1)!
        for r in range(1, degree + 1):
            dst, src = per_run[r - 1]
            gd = grad_sig[dst]
            # adds row by row, in word order; a pairwise sum would round differently
            ga += (gd * prev[src] * dcoef).sum(axis=0)
            grad_prev[src] += gd * coef
            dcoef = coef
            coef = coef * a / (r + 1)
        grad_sig = grad_prev

    # steps repeat each series difference twice (lead move, then lag move)
    grad_diffs = (grad_steps[0::2] + grad_steps[1::2]).T
    grad_x = np.zeros(bshape)
    grad_x[:, 1:] += grad_diffs
    grad_x[:, :-1] -= grad_diffs
    if single:
        return grad_x[0]
    return grad_x


def leadlag_window_mean(series, points: int, degree: int = 5) -> np.ndarray:
    """Mean lead-lag signature over every window of ``points`` consecutive values.

    Equals ``leadlag_signature_batch`` of the stacked sliding windows,
    averaged, up to rounding, without signing any window on its own. The
    n - 1 increments of the series are cut into blocks of m = points - 1,
    the last one padded with zero increments, whose signature is the
    identity. Write prefix_q[r] for the signature of the first r increments
    of block q and suffix_q[r] for the rest of that block; by Chen's
    identity the window starting at s = q*m + r is
    suffix_q[r] (x) prefix_{q+1}[r]. So level k of the mean over the
    W = n - points + 1 windows is sum_{i+j=k} S_i^T P_j / W, where one
    column of S_i and P_j holds level i of suffix_q[r] and level j of
    prefix_{q+1}[r]. Columns run r-major, as the scans write them, and
    the columns of windows past the last are zero in S.

    Both scans run the engine's Chen step with the blocks as columns. A
    suffix is a prepend, which the step cannot do, but word reversal turns
    tensor products around and fixes every segment's exponential: running
    a block's increments backwards, each lag move before its lead move,
    signs the reversed suffixes, and `_word_reversal` undoes that.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"window mean expects a one-dimensional series, got shape {x.shape}")
    if points < 2:
        raise SizeError(f"lead_lag needs >= 2 points, got {points}")
    if x.shape[0] < points:
        raise SizeError(f"series of length {x.shape[0]} is shorter than one window of {points}")

    m = points - 1
    n_windows = x.shape[0] - m
    n_blocks = (n_windows - 1) // m + 2  # the last window ends in the block after its start's
    diffs = np.zeros(n_blocks * m)
    diffs[: x.shape[0] - 1] = np.diff(x)
    increments = np.ascontiguousarray(diffs.reshape(n_blocks, m).T)  # (m, n_blocks)

    tables = _run_tables(degree)
    length = sig_length(2, degree)
    prev = np.empty((sig_length(2, degree - 1), n_blocks))

    def running(order, coords):
        """Yield (r, signature so far) after each increment r in ``order``, all blocks at once."""
        sig = np.zeros((length, n_blocks))
        sig[0] = 1.0
        for r in order:
            for c in coords:
                prev[...] = sig[: prev.shape[0]]
                _chen_step(sig, prev, increments[r], tables[c])
            yield r, sig

    # (L, m, n_blocks): each scan step writes L contiguous rows, and the
    # (L, m * n_blocks) view puts block q at r in column r * n_blocks + q.
    # One allocation per call and no copies, so repeated calls reuse the
    # same heap block instead of faulting in fresh pages.
    suffix, prefix = np.empty((2, length, m, n_blocks))
    prefix[:, 0] = 0.0
    prefix[0, 0] = 1.0  # no increments yet: the identity
    for r, sig in running(range(m - 1), (0, 1)):
        prefix[:, r + 1] = sig
    reversal = _word_reversal(degree)
    for r, sig in running(range(m - 1, -1, -1), (1, 0)):
        suffix[:, r] = sig[reversal]
    starts = np.arange(n_blocks) * m + np.arange(m)[:, None]  # window start q*m + r
    suffix[:, starts >= n_windows] = 0.0

    # window s = q*m + r starts with suffix_q[r] and ends with prefix_{q+1}[r],
    # the next column; a pair that wraps to the next r is the last block's,
    # which starts no window, so its suffix column is zero
    suffix = suffix.reshape(length, -1)[:, :-1]
    prefix = prefix.reshape(length, -1)[:, 1:]

    offs = level_offsets(2, degree)
    mean = np.empty(length)
    for k in range(degree + 1):
        level = sum(
            (suffix[offs[i] : offs[i + 1]] @ prefix[offs[k - i] : offs[k - i + 1]].T).ravel()
            for i in range(k + 1)
        )
        mean[offs[k] : offs[k + 1]] = level / n_windows
    return mean
