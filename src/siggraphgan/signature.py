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
with. Each Chen step adds every run length of the step's letter at once
but keeps each coefficient's additions in the order of one run at a time,
so the engine equals the sequential engine kept in ``tests/oracles.py``
bit for bit.

`leadlag_window_mean` computes the mean lead-lag signature over all
sliding windows of one series from per-block prefix and suffix
signatures, with the engine's Chen step; its oracle is the engine applied
to the stacked windows, then averaged.

The engine works coefficient-major: its running signature is (L, B), one
contiguous row of B values per coefficient, with the words ending in each
letter in one block of rows (`_step_tables`), and the adjoint runs in the
flat layout. The snapshots the forward keeps for the adjoint hold levels
0..degree-1 only, in the flat layout, the rows a Chen step reads as
sources. Results are returned row-major, (B, L), like every other
signature in the package.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

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
#     new[w] = old[w] + sum_{r=1..run_c(w)} old[w with trailing c^r removed] * a^r / r!
#
# adding the terms in increasing r. `_run_tables` enumerates, per (letter,
# run length), the destination words and their truncated sources. Every
# word ending in c^r also ends in c^(r-1), so once the words ending in c are
# ordered longest trailing run first, the destinations of each run are a
# prefix of that order. The engine keeps its working signature in that
# order (`_step_tables`), so a step's destinations are one contiguous block
# of rows: it gathers the sources of all runs at once, scales each by its
# a^r / r! row and adds the runs in order, each as one prefix slice. Each
# word still gets its terms in run order, so every sum rounds as it did
# when the step took one run at a time (``tests/oracles.py`` keeps that
# sequential step as the bit-exact reference).


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


class _StepTables(NamedTuple):
    """Index tables of the whole-run Chen step and its adjoint; see `_step_tables`."""

    flat: np.ndarray
    words: tuple[slice, slice]
    sources: tuple[np.ndarray, np.ndarray]
    targets: tuple[np.ndarray, np.ndarray]
    rows: np.ndarray
    runs: np.ndarray
    blocks: tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def _step_tables(degree: int) -> _StepTables:
    """For d = 2: the `_run_tables` entries laid out for whole-run steps.

    The working layout holds the empty word, then the words ending in
    letter 1, then those ending in letter 2, each group ordered longest
    trailing run first; ``flat`` is the working row of every flat
    coefficient and ``words[c]`` the rows of letter index c's group. The
    entries of all runs sit in one column, run 1 first: ``blocks[r-1]`` is
    run r's (start, stop) and ``runs`` the run length of every entry. Per
    letter index c:

    - ``sources[c]``: in run r's block, the flat index of the i-th word of
      the group with its run of r removed, for i < n_r;
    - ``targets[c]``: in run r's block, the `_run_tables` destinations,
      whose sources are the flat coefficients ``rows`` lists there: the
      first n_r, levels 0..degree-r, in order.
    """
    if degree < 1:
        raise ShapeError(f"signature degree must be >= 1, got {degree}")
    run_tables = _run_tables(degree)
    groups, sources = [], []
    for per_run in run_tables.values():
        depth = {}
        for r, (dst, _) in enumerate(per_run, start=1):
            depth.update(dict.fromkeys(dst.tolist(), r))
        group = sorted(depth, key=depth.get, reverse=True)
        groups.append(group)
        letter_sources = []
        for dst, src in per_run:
            source_of = dict(zip(dst.tolist(), src.tolist()))
            letter_sources += [source_of[w] for w in group[: len(dst)]]
        sources.append(np.array(letter_sources))
    counts = [len(dst) for dst, _ in run_tables[0]]
    stops = np.cumsum(counts).tolist()
    n = counts[0]
    return _StepTables(
        flat=np.argsort([0] + groups[0] + groups[1]),
        words=(slice(1, 1 + n), slice(1 + n, 1 + 2 * n)),
        sources=tuple(sources),
        targets=tuple(
            np.concatenate([dst for dst, _ in per_run]) for per_run in run_tables.values()
        ),
        rows=np.concatenate([src for _, src in run_tables[0]]),
        runs=np.repeat(np.arange(1, degree + 1), counts),
        blocks=tuple(zip([0] + stops[:-1], stops)),
    )


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


def _step_powers(a: np.ndarray, degree: int) -> np.ndarray:
    """(degree + 1,) + a.shape: entry r holds a^r / r!, the one before times a, over r."""
    powers = np.empty((degree + 1,) + a.shape)
    powers[0] = 1.0
    powers[1] = a
    for r in range(2, degree + 1):
        row = powers[r]
        np.multiply(powers[r - 1], a, out=row)
        np.divide(row, r, out=row)
    return powers


def _chen_step(words, prev, scale, sources, blocks, terms) -> None:
    """Append one single-coordinate segment to a working signature.

    ``words`` holds, updated in place, the working rows of every word ending
    in the segment's letter (one `_step_tables` group, (n_1, B)); ``prev``
    holds levels 0..degree-1 of the signature before the step, in the flat
    layout. ``sources`` and ``blocks`` are the letter's `_step_tables`
    entries, and ``scale`` holds, for every entry, the a^r / r! row of its
    run length r. ``terms``, as large as ``scale``, is the caller's work
    buffer, so a scan allocates nothing per step.
    """
    # every index is in range; 'clip' lets take write straight into ``out``,
    # which the default 'raise' would fill through a fresh buffer
    prev.take(sources, axis=0, out=terms, mode="clip")
    terms *= scale
    for start, stop in blocks:
        words[: stop - start] += terms[start:stop]


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

    For series values x[., 0..n-1] the path moves the lead coordinate, then
    the lag coordinate, both by x[., k+1] - x[., k]: 2(n-1) Chen steps, the
    two of each difference sharing one `_step_powers`. The working signature
    is coefficient-major, (L, B), in the `_step_tables` layout, so every
    gather moves whole contiguous rows of B values and each step updates
    one block of rows in place. Before each step the cache keeps a snapshot
    of levels 0..degree-1 only, in the flat layout, the rows that step reads
    as sources: (2(n-1), sig_length(2, degree-1), B) in all. The result is
    returned row-major and flat, (B, L) or (L,).
    """
    x = np.asarray(series, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[np.newaxis, :]
    if x.ndim != 2:
        raise ShapeError(f"series batch must be (B, n), got shape {x.shape}")
    if x.shape[1] < 2:
        raise SizeError(f"lead_lag needs >= 2 points, got {x.shape[1]}")

    diffs = np.ascontiguousarray(np.diff(x, axis=1).T)  # (n-1, B)
    tables = _step_tables(degree)
    work = np.zeros((sig_length(2, degree), x.shape[0]))
    work[0] = 1.0
    snapshots = np.empty((2 * diffs.shape[0], sig_length(2, degree - 1), x.shape[0]))
    kept = tables.flat[: snapshots.shape[1]]
    scale, terms = np.empty((2, tables.runs.shape[0], x.shape[0]))
    for t, a in enumerate(diffs):
        _step_powers(a, degree).take(tables.runs, axis=0, out=scale, mode="clip")
        for c in (0, 1):
            prev = snapshots[2 * t + c]
            work.take(kept, axis=0, out=prev, mode="clip")
            words = work[tables.words[c]]
            _chen_step(words, prev, scale, tables.sources[c], tables.blocks, terms)
    cache = (x.shape, diffs, snapshots, degree)
    del scale, terms  # freed before the result is laid out, which copies work twice
    sig = np.ascontiguousarray(work[tables.flat].T)
    if single:
        return sig[0], cache
    return sig, cache


def _leadlag_vjp(cache, grad_out: np.ndarray) -> np.ndarray:
    """Exact adjoint of `_leadlag_forward` with respect to the input series.

    Runs coefficient-major in the flat layout: the signature adjoint is
    (L, B) and the step adjoint (2(n-1), B). A step's adjoint gathers,
    in run-block order, the adjoint of every `_run_tables` destination.
    Run r's sources are the first n_r coefficients, so the adjoint of the
    signature before the step takes each run as one prefix add, in run
    order, as the forward adds.
    """
    (bshape, diffs, snapshots, degree) = cache
    g = np.asarray(grad_out, dtype=np.float64)
    single = g.ndim == 1
    if single:
        g = g[np.newaxis, :]
    tables = _step_tables(degree)
    grad_sig = g.T.copy()  # updated in place, so never a view of grad_out
    grad_steps = np.zeros((snapshots.shape[0], bshape[0]))

    for t in range(diffs.shape[0] - 1, -1, -1):
        powers = _step_powers(diffs[t], degree)
        scale = powers[tables.runs]  # a^r / r!
        dscale = powers[tables.runs - 1]  # d(a^r / r!)/da = a^(r-1) / (r-1)!
        for c in (1, 0):
            grads = grad_sig[tables.targets[c]]
            terms = grads * snapshots[2 * t + c][tables.rows]
            terms *= dscale
            ga = grad_steps[2 * t + c]
            for start, stop in tables.blocks:
                # adds row by row, in word order; a pairwise sum would round differently
                ga += terms[start:stop].sum(axis=0)
            grads *= scale
            for start, stop in tables.blocks:
                grad_sig[: stop - start] += grads[start:stop]

    # each series difference moves the lead coordinate, then the lag one
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
    signs the reversed suffixes, and `_word_reversal` undoes that. The
    scans run in the engine's working layout and share one `_step_powers`
    of all increments; each stored signature is gathered back to the flat
    layout, reversed for the suffixes, in the same gather.
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

    tables = _step_tables(degree)
    powers = _step_powers(increments, degree)  # (degree + 1, m, n_blocks), both scans
    length = sig_length(2, degree)
    prev = np.empty((sig_length(2, degree - 1), n_blocks))
    kept = tables.flat[: prev.shape[0]]
    scale, terms = np.empty((2, tables.runs.shape[0], n_blocks))

    def running(order, coords):
        """Yield (r, working signature so far) after each increment r in ``order``, all blocks."""
        work = np.zeros((length, n_blocks))
        work[0] = 1.0
        for r in order:
            powers[:, r].take(tables.runs, axis=0, out=scale, mode="clip")
            for c in coords:
                work.take(kept, axis=0, out=prev, mode="clip")
                words = work[tables.words[c]]
                _chen_step(words, prev, scale, tables.sources[c], tables.blocks, terms)
            yield r, work

    # (L, m, n_blocks): each scan step writes L contiguous rows, and the
    # (L, m * n_blocks) view puts block q at r in column r * n_blocks + q.
    # One allocation per call and no copies, so repeated calls reuse the
    # same heap block instead of faulting in fresh pages.
    suffix, prefix = np.empty((2, length, m, n_blocks))
    prefix[:, 0] = 0.0
    prefix[0, 0] = 1.0  # no increments yet: the identity
    for r, work in running(range(m - 1), (0, 1)):
        prefix[:, r + 1] = work[tables.flat]
    reversal = tables.flat[_word_reversal(degree)]
    for r, work in running(range(m - 1, -1, -1), (1, 0)):
        suffix[:, r] = work[reversal]
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
