"""Independent reference implementations used only by the test suite.

These deliberately avoid the package's own algorithms: iterated integrals
come from nested Gauss-Legendre quadrature over the order simplex, the
Wasserstein-1 distance comes from an explicit linear-programming
transportation solve, and visibility graphs come from checking the chord
criterion for every triple of points.

The word-indexed signature routines are the reference for the package's
batched lead-lag engine (`siggraphgan.signature.leadlag_signature_batch`):
`Path` and `SignatureVector` hold a path and its flat coefficients,
`lead_lag` embeds a scalar series in the plane, `segment_signature` is the
truncated tensor exponential of one segment, `chen_concat` the truncated
tensor product, and `path_signature` their left fold over a
piecewise-linear path. They work in any dimension, one Kronecker product
per pair of levels, and share only the flat coefficient layout
(`sig_length`, `level_offsets`) with the engine.

`sequential_forward`, `sequential_vjp` and `sequential_window_mean` are
the engine, its adjoint and the window mean with the Chen step taking one
run length at a time (`sequential_chen_step`). The package's whole-run
step must add the same products in the same order, so the tests compare
them with `np.array_equal`.

`tsum` and `comparison_node` are graph nodes only the gradient checks
use: a scalarizer, and a node around one of the losses' plain-numpy
comparisons.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from siggraphgan import autodiff as ad
from siggraphgan.errors import ShapeError, SizeError
from siggraphgan.signature import _run_tables, _word_reversal, level_offsets, sig_length


def iterated_integral_quadrature(points, word, n_nodes: int = 12) -> float:
    """Iterated integral of one word over a piecewise-linear path.

    The path is parameterized on [0, m] with one unit per segment; the
    integral for word (i_1 .. i_k) is the nested integral of the
    coordinate derivatives over the increasing simplex, evaluated by
    recursive Gauss-Legendre quadrature segment by segment.
    """
    pts = np.asarray(points, dtype=np.float64)
    derivs = np.diff(pts, axis=0)
    n_segments = derivs.shape[0]
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)

    def level_value(level: int, upper: float) -> float:
        if level == 0:
            return 1.0
        total = 0.0
        coord = word[level - 1] - 1
        segment = 0
        while segment < n_segments and segment < upper:
            lo = float(segment)
            hi = min(float(segment + 1), upper)
            if hi <= lo:
                break
            half = 0.5 * (hi - lo)
            mid = 0.5 * (hi + lo)
            slope = derivs[segment, coord]
            for x, w in zip(nodes, weights):
                total += w * half * slope * level_value(level - 1, mid + half * x)
            segment += 1
        return total

    return level_value(len(word), float(n_segments))


def brute_force_visibility(values, timestamps=None, directed: bool = False) -> np.ndarray:
    """Dense (n, n) int8 visibility adjacency from every chord inequality.

    No early exits and no slope reformulation; every (i, j, k) chord
    inequality is checked directly. Timestamps default to 0, 1, 2, ...
    Limited to n <= 512.
    """
    s = np.asarray(values, dtype=np.float64)
    n = s.shape[0]
    if n > 512:
        raise SizeError(f"brute-force oracle limited to n <= 512, got {n}")
    t = np.arange(n) if timestamps is None else timestamps
    t = np.asarray(t, dtype=np.float64)
    vis = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        rel_t = t[i + 1 :] - t[i]
        rel_s = s[i + 1 :] - s[i]
        # chord[j, k] = height of the (i, j) chord at intermediate time t_k
        chord = s[i] + np.outer(rel_s / rel_t, rel_t)
        blocked = s[np.newaxis, i + 1 :] >= chord
        # only k strictly between i and j counts
        j_idx, k_idx = np.indices(blocked.shape)
        blocked &= k_idx < j_idx
        vis[i, i + 1 :] = ~blocked.any(axis=1)
    adjacency = vis if directed else (vis | vis.T)
    return adjacency.astype(np.int8)


def emd_lp(xs, ys) -> float:
    """Wasserstein-1 distance via the transportation linear program."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    n, m = x.size, y.size
    cost = np.abs(x[:, None] - y[None, :]).ravel()
    # row sums = 1/n, column sums = 1/m
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])
    result = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert result.success, result.message
    return float(result.fun)


def finite_difference_gradient(func, param, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of one Parameter."""
    grad = np.zeros_like(param.value)
    it = np.nditer(param.value, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        original = param.value[idx]
        param.value[idx] = original + h
        plus = func()
        param.value[idx] = original - h
        minus = func()
        param.value[idx] = original
        grad[idx] = (plus - minus) / (2.0 * h)
    return grad


def tsum(t):
    """Sum of all elements of a tensor, as a scalar graph node."""
    return ad.from_op(
        t.value.sum(), [(t, lambda g: np.broadcast_to(g, t.value.shape).copy())], "sum"
    )


def comparison_node(compare, a, b):
    """Graph node of one of the losses' plain-numpy comparisons of a and b.

    ``compare(a, b)`` returns its value and a vjp that maps the upstream
    gradient to the gradients of a and b.
    """
    value, vjp = compare(a.value, b.value)
    return ad.from_op(
        value, [(a, lambda g: vjp(g)[0]), (b, lambda g: vjp(g)[1])], compare.__name__
    )


def gradient_check(build_loss, params, h: float = 1e-5) -> float:
    """Worst relative error between autodiff and finite differences.

    ``build_loss`` must rebuild the graph from scratch on every call and
    return the scalar loss tensor.
    """
    for p in params:
        p.grad = None
    build_loss().backward()
    analytic = {id(p): (p.grad if p.grad is not None else np.zeros_like(p.value)) for p in params}
    worst = 0.0
    for p in params:
        numeric = finite_difference_gradient(lambda: build_loss().item(), p, h)
        err = np.abs(analytic[id(p)] - numeric) / np.maximum(
            1e-6, np.abs(analytic[id(p)]) + np.abs(numeric)
        )
        worst = max(worst, float(err.max()))
    return worst


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


# ---------------------------------------------------------------------------
# Sequential lead-lag engine: the bit-exact reference for the package's
# ---------------------------------------------------------------------------
#
# The engine as it was before its Chen step moved whole runs at once: one
# gather-multiply-add per (letter, run length), adding each word's terms in
# run order. The package's engine must add the same products in the same
# order, so it is compared with these functions by `np.array_equal`, not by
# a tolerance.


def sequential_chen_step(sig, prev, a, per_run):
    """Append one single-coordinate segment to a coefficient-major (L, B) signature.

    ``prev`` holds levels 0..degree-1 of ``sig`` from before the step, ``a``
    the B segment magnitudes and ``per_run`` the `_run_tables` entry of the
    segment's coordinate.
    """
    coef = a
    for r, (dst, src) in enumerate(per_run, start=1):
        sig[dst] += prev[src] * coef
        coef = coef * a / (r + 1)


def sequential_forward(series, degree):
    """(B, L) lead-lag signatures of a (B, n) batch, and the cache of `sequential_vjp`."""
    x = np.asarray(series, dtype=np.float64)
    diffs = np.diff(x, axis=1).T
    steps = np.repeat(diffs, 2, axis=0)
    coords = np.tile(np.array([0, 1]), diffs.shape[0])
    tables = _run_tables(degree)
    sig = np.zeros((sig_length(2, degree), x.shape[0]))
    sig[0] = 1.0
    snapshots = np.empty((steps.shape[0], sig_length(2, degree - 1), x.shape[0]))
    for t, a in enumerate(steps):
        prev = snapshots[t]
        prev[...] = sig[: prev.shape[0]]
        sequential_chen_step(sig, prev, a, tables[coords[t]])
    return np.ascontiguousarray(sig.T), (x.shape, steps, coords, snapshots, degree)


def sequential_vjp(cache, grad_out):
    """Adjoint of `sequential_forward` for a (B, L) upstream gradient."""
    (bshape, steps, coords, snapshots, degree) = cache
    tables = _run_tables(degree)
    grad_sig = np.ascontiguousarray(np.asarray(grad_out, dtype=np.float64).T)
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
            # adds row by row, in word order
            ga += (gd * prev[src] * dcoef).sum(axis=0)
            grad_prev[src] += gd * coef
            dcoef = coef
            coef = coef * a / (r + 1)
        grad_sig = grad_prev
    grad_diffs = (grad_steps[0::2] + grad_steps[1::2]).T
    grad_x = np.zeros(bshape)
    grad_x[:, 1:] += grad_diffs
    grad_x[:, :-1] -= grad_diffs
    return grad_x


def sequential_window_mean(series, points, degree):
    """`leadlag_window_mean` with its prefix and suffix scans run by `sequential_chen_step`."""
    x = np.asarray(series, dtype=np.float64)
    m = points - 1
    n_windows = x.shape[0] - m
    n_blocks = (n_windows - 1) // m + 2
    diffs = np.zeros(n_blocks * m)
    diffs[: x.shape[0] - 1] = np.diff(x)
    increments = np.ascontiguousarray(diffs.reshape(n_blocks, m).T)

    tables = _run_tables(degree)
    length = sig_length(2, degree)
    prev = np.empty((sig_length(2, degree - 1), n_blocks))

    def running(order, coords):
        sig = np.zeros((length, n_blocks))
        sig[0] = 1.0
        for r in order:
            for c in coords:
                prev[...] = sig[: prev.shape[0]]
                sequential_chen_step(sig, prev, increments[r], tables[c])
            yield r, sig

    suffix, prefix = np.empty((2, length, m, n_blocks))
    prefix[:, 0] = 0.0
    prefix[0, 0] = 1.0
    for r, sig in running(range(m - 1), (0, 1)):
        prefix[:, r + 1] = sig
    reversal = _word_reversal(degree)
    for r, sig in running(range(m - 1, -1, -1), (1, 0)):
        suffix[:, r] = sig[reversal]
    starts = np.arange(n_blocks) * m + np.arange(m)[:, None]
    suffix[:, starts >= n_windows] = 0.0
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
