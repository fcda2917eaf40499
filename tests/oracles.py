"""Independent reference implementations used only by the test suite.

These deliberately avoid the package's own algorithms: iterated integrals
come from nested Gauss-Legendre quadrature over the order simplex, the
Wasserstein-1 distance comes from an explicit linear-programming
transportation solve, and visibility graphs come from checking the chord
criterion for every triple of points.
"""

import numpy as np
from scipy.optimize import linprog

from siggraphgan.errors import SizeError


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
