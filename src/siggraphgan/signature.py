"""Truncated path signatures of piecewise-linear paths.

A signature coefficient is indexed by a word over the alphabet {1..d}; the
level-k block holds the k-fold iterated integrals. Coefficients are stored
flat, level by level (constant term first, then level 1, ..., level M),
row-major within a level so that the first letter of a word is the slowest
index. This layout is part of the checkpoint and metric contracts.

Two code paths compute the same quantity:

* generic word-indexed routines (`segment_signature`, `chen_concat`,
  `path_signature`) valid for any dimension, used by the test suite;
* a vectorized engine for batches of scalar series embedded by the
  lead-lag transform (`leadlag_signature_batch`), which exploits the fact
  that every lead-lag increment moves along a single coordinate. The
  engine also provides the exact adjoint used during GAN training.

A third routine, `leadlag_window_mean`, computes the mean lead-lag
signature over all sliding windows of one series from per-block prefix
and suffix signatures, with the engine's Chen step; its oracle is the
engine applied to the stacked windows, then averaged.

The engine works coefficient-major: its running signature is (L, B), one
contiguous row of B values per coefficient, and the adjoint runs in the
same layout. The snapshots the forward keeps for the adjoint hold levels
0..degree-1 only, the rows a Chen step reads as sources. Results are
returned row-major, (B, L), like every other signature in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ShapeError, SizeError


@dataclass
class Path:
    """Ordered points of a d-dimensional piecewise-linear path."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ShapeError(f"path points must be (n, d), got shape {pts.shape}")
        if pts.shape[0] < 1:
            raise SizeError("a path needs at least one point")
        self.points = pts

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]


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


@dataclass
class SignatureVector:
    """Flat truncated-signature coefficients of a d-dimensional path."""

    dim: int
    degree: int
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        expected = sig_length(self.dim, self.degree)
        if coeffs.shape != (expected,):
            raise ShapeError(
                f"expected {expected} coefficients for dim {self.dim}, "
                f"degree {self.degree}; got shape {coeffs.shape}"
            )
        self.coefficients = coeffs

    def level(self, k: int) -> np.ndarray:
        """Level-k block as a flat array of length dim**k."""
        offs = level_offsets(self.dim, self.degree)
        return self.coefficients[offs[k] : offs[k + 1]]

    def coefficient(self, word: tuple[int, ...]) -> float:
        """Coefficient of a word given as a tuple of letters in 1..d."""
        if any(not 1 <= c <= self.dim for c in word):
            raise ShapeError(f"word {word} has letters outside 1..{self.dim}")
        idx = 0
        for letter in word:
            idx = idx * self.dim + (letter - 1)
        return float(self.level(len(word))[idx])


def _trivial_levels(dim: int, degree: int) -> list[np.ndarray]:
    return [np.ones(1)] + [np.zeros(dim**k) for k in range(1, degree + 1)]


def _levels_to_vector(dim, degree, levels) -> SignatureVector:
    return SignatureVector(dim, degree, np.concatenate(levels))


def _vector_to_levels(sig: SignatureVector) -> list[np.ndarray]:
    return [sig.level(k).copy() for k in range(sig.degree + 1)]


def lead_lag(series) -> Path:
    """Embed a scalar series into the plane via the lead-lag transform.

    The lead coordinate jumps to the next value first, then the lag
    coordinate catches up, producing 2n-1 vertices. Coordinates are
    ordered (lead, lag). The quadratic variation of the series becomes
    visible to the level-2 signature terms of this path.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError("lead_lag expects a one-dimensional series")
    n = x.shape[0]
    if n < 2:
        raise SizeError(f"lead_lag needs >= 2 points, got {n}")
    pts = np.empty((2 * n - 1, 2))
    pts[0] = (x[0], x[0])
    pts[1::2, 0] = x[1:]  # lead advances
    pts[1::2, 1] = x[:-1]
    pts[2::2, 0] = x[1:]  # lag catches up
    pts[2::2, 1] = x[1:]
    return Path(pts)


def segment_signature(increment, degree: int) -> SignatureVector:
    """Signature of a single linear segment: the truncated tensor exponential.

    Level k equals increment^(tensor k) / k!.
    """
    inc = np.asarray(increment, dtype=np.float64)
    if inc.ndim != 1:
        raise ShapeError("increment must be a vector")
    if degree < 1:
        raise ShapeError(f"degree must be >= 1, got {degree}")
    levels = [np.ones(1)]
    for k in range(1, degree + 1):
        levels.append(np.kron(levels[-1], inc) / k)
    return _levels_to_vector(inc.shape[0], degree, levels)


def chen_concat(s1: SignatureVector, s2: SignatureVector) -> SignatureVector:
    """Signature of the concatenated path: truncated tensor product.

    The coefficient of a word w in the result is the sum over all splits
    w = uv of s1(u) * s2(v).
    """
    if s1.dim != s2.dim or s1.degree != s2.degree:
        raise ShapeError(
            f"signature mismatch: dim {s1.dim}/{s2.dim}, "
            f"degree {s1.degree}/{s2.degree}"
        )
    a = _vector_to_levels(s1)
    b = _vector_to_levels(s2)
    out = []
    for k in range(s1.degree + 1):
        acc = np.zeros(s1.dim**k)
        for i in range(k + 1):
            acc += np.kron(a[i], b[k - i])
        out.append(acc)
    return _levels_to_vector(s1.dim, s1.degree, out)


def path_signature(path: Path | np.ndarray, degree: int) -> SignatureVector:
    """Truncated signature of a piecewise-linear path.

    Left fold of Chen concatenation over the segment signatures of the
    consecutive increments. A single-point path has the trivial signature.
    """
    pts = path.points if isinstance(path, Path) else Path(path).points
    dim = pts.shape[1]
    if pts.shape[0] < 2:
        return _levels_to_vector(dim, degree, _trivial_levels(dim, degree))
    sig = segment_signature(pts[1] - pts[0], degree)
    for idx in range(2, pts.shape[0]):
        sig = chen_concat(sig, segment_signature(pts[idx] - pts[idx - 1], degree))
    return sig


def cumulative_signature(series, degree: int) -> SignatureVector:
    """Signature of the lead-lag embedding of the running sum of a series."""
    x = np.asarray(series, dtype=np.float64)
    return path_signature(lead_lag(np.cumsum(x)), degree)


def expected_signature(sample) -> SignatureVector:
    """Coefficient-wise mean over a sample of equally shaped signatures."""
    sigs = list(sample)
    if not sigs:
        raise SizeError("expected_signature needs a nonempty sample")
    dim, degree = sigs[0].dim, sigs[0].degree
    for s in sigs[1:]:
        if s.dim != dim or s.degree != degree:
            raise ShapeError("signatures in the sample must share dim and degree")
    stacked = np.stack([s.coefficients for s in sigs])
    return SignatureVector(dim, degree, stacked.mean(axis=0))


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
    coefficients with L = 2^(degree+1) - 1, matching `path_signature` of
    `lead_lag` exactly.
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
    W = n - points + 1 windows is sum_{i+j=k} S_i^T P_j / W, where column s
    of S_i and P_j holds level i of suffix_q[r] and level j of
    prefix_{q+1}[r].

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

    # (m, L, n_blocks) while scanning, one contiguous slab per r
    prefix = np.zeros((m, length, n_blocks))
    prefix[0, 0] = 1.0  # no increments yet: the identity
    for r, sig in running(range(m - 1), (0, 1)):
        prefix[r + 1] = sig
    suffix = np.empty((m, length, n_blocks))
    reversal = _word_reversal(degree)
    for r, sig in running(range(m - 1, -1, -1), (1, 0)):
        suffix[r] = sig[reversal]

    def by_start(slabs):
        """(L, n_blocks * m): column q*m + r holds block q at r."""
        return np.ascontiguousarray(slabs.transpose(1, 2, 0)).reshape(length, -1)

    suffix = by_start(suffix)[:, :n_windows]  # window s = q*m + r starts with suffix_q[r]
    prefix = by_start(prefix)[:, m : m + n_windows]  # and ends with prefix_{q+1}[r]

    offs = level_offsets(2, degree)
    mean = np.empty(length)
    for k in range(degree + 1):
        level = sum(
            (suffix[offs[i] : offs[i + 1]] @ prefix[offs[k - i] : offs[k - i + 1]].T).ravel()
            for i in range(k + 1)
        )
        mean[offs[k] : offs[k + 1]] = level / n_windows
    return mean
