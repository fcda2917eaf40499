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

`garch_simulate_loop` is the GARCH(1,1) simulation written over a numpy
output array, element by element; the package's Python-float recursion
must give the same bits.

`fit_delta_budgeted` is the tail-weight search as first written: a
bracket doubled from 0.25 and a bisection, both counted against a budget
of 200 trial deltas. The package's fixed bracket and width-bounded
bisection must try the same deltas in the same order. It looks up
`gaussianize` and `excess_kurtosis` at call time, as `fit_delta` does.

`lambert_w0_guarded` and `lambert_w0_bisect` are the principal Lambert W
as first written, with a branch-point clamp, a zero-denominator guard and
a bisection fallback; on [0, 1e300] the package's one Halley branch must
give the same bits.

`fixture_csv_text` writes `fixture_prices` as the text of a price CSV;
the bundled fixture file must equal it.

`build_report_recomputed` is the metrics report as first written, with
both sides computed on every call; the package's report, which keeps the
last real series' side, must give the same values.

`lstm_layer` is one LSTM layer as one graph node, as first written: one
forward loop and one reverse loop over all steps, with each step's gates
in their own arrays. `lstm_stack_chain` chains such nodes with an
`ad.dropout` node after each; the package's one-node stack
(`layers.lstm_stack`), with or without its worker thread, must give the
same bits, forward and in every gradient.

`player_step_drawing` is a training step as first written: it draws its
noise as it starts, and each dropout layer draws its mask
(`dropout_drawing`) as the forward reaches it, through
`network_forward_drawing`, whose recurrent layers are `lstm_layer` nodes.
A batch of the package's steps on the masks `draw_batch` makes before any
forward must give the same bits.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from siggraphgan import autodiff as ad
from siggraphgan import layers as ly
from siggraphgan import metrics as mt
from siggraphgan import preprocess as pp
from siggraphgan import siggan as sg
from siggraphgan.baselines import GARCH_BURN_IN
from siggraphgan.errors import DomainError, GraphError, ShapeError, SizeError
from siggraphgan.fixture import fixture_prices
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


def garch_simulate_loop(params, n, rng):
    """n GARCH(1,1) returns after the burn-in, one numpy element at a time."""
    total = n + GARCH_BURN_IN
    shocks = rng.standard_normal(total)
    out = np.empty(total)
    sig2 = params.unconditional_variance
    for t in range(total):
        if t > 0:
            sig2 = params.omega + params.alpha * out[t - 1] ** 2 + params.beta * sig2
        out[t] = math.sqrt(sig2) * shocks[t]
    return out[GARCH_BURN_IN:]


def build_report_recomputed(real_returns, fake_returns, degree: int = 5):
    """The nine-metric `MetricsReport`, both sides computed on every call."""
    real = np.asarray(real_returns, dtype=np.float64)
    fake = np.asarray(fake_returns, dtype=np.float64)
    needed = max(mt.HORIZONS) + mt.SIG_WINDOW_POINTS - 1
    for name, arr in (("real", real), ("fake", fake)):
        if arr.shape[0] < needed:
            raise SizeError(
                f"{name} series of length {arr.shape[0]} is too short for the "
                f"report (need >= {needed})"
            )
    values: dict[str, float] = {}
    for k in mt.HORIZONS:
        agg_real = mt.k_day_aggregate(real, k)
        agg_fake = mt.k_day_aggregate(fake, k)
        values[f"EMD({k})"] = mt.emd_1d(agg_real, agg_fake)
        sig_real = mt.expected_leadlag_signature(agg_real, mt.SIG_WINDOW_POINTS, degree)
        sig_fake = mt.expected_leadlag_signature(agg_fake, mt.SIG_WINDOW_POINTS, degree)
        values[f"Sig-RMSE({k})"] = float(np.sqrt(np.mean((sig_real - sig_fake) ** 2)))
    values["Leverage Effect"] = mt.leverage_effect_score(real, fake)
    return mt.MetricsReport(values)


def fit_delta_budgeted(samples, max_iterations: int = 200):
    """(delta, the trial deltas in order) of the budgeted tail-weight search."""
    arr = np.asarray(samples, dtype=np.float64)
    tried = []

    def kurt_at(delta):
        tried.append(delta)
        return pp.excess_kurtosis(pp.gaussianize(arr, delta))

    def search():
        iterations = 1
        if kurt_at(0.0) <= pp.FIT_DELTA_TOLERANCE:
            return 0.0
        lo, hi = 0.0, 0.25
        while iterations < max_iterations:
            k_hi = kurt_at(hi)
            iterations += 1
            if abs(k_hi) <= pp.FIT_DELTA_TOLERANCE:
                return hi
            if k_hi < 0.0:
                break
            lo = hi
            if hi >= pp.DELTA_MAX:
                return pp.DELTA_MAX
            hi = min(2.0 * hi, pp.DELTA_MAX)
        else:
            return hi
        while iterations < max_iterations:
            mid = 0.5 * (lo + hi)
            k_mid = kurt_at(mid)
            iterations += 1
            if abs(k_mid) <= pp.FIT_DELTA_TOLERANCE or (hi - lo) < 1e-12:
                return mid
            if k_mid > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return search(), tried


def lambert_w0_guarded(x):
    """Principal Lambert W as first written, for any x >= -1/e.

    The package's Halley iteration with the branch-point clamp, the guard
    against a zero denominator and a residual test whose failures fall back
    to `lambert_w0_bisect`. On [0, 1e300] the package's single branch must
    give the same bits.
    """
    arr = np.asarray(x, dtype=np.float64)
    flat = arr.reshape(-1)
    inv_e = math.exp(-1.0)
    if np.any(flat < -inv_e):
        raise DomainError(f"lambert_w0 undefined for x = {float(flat[flat < -inv_e][0])} < -1/e")
    with np.errstate(all="ignore"):
        w = np.log1p(np.maximum(flat, -inv_e + 1e-300))
        for _ in range(64):
            ew = np.exp(w)
            f = w * ew - flat
            wp1 = w + 1.0
            denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
            step = np.where(denom != 0.0, f / np.where(denom != 0.0, denom, 1.0), 0.0)
            w = w - step
            if np.all(np.abs(step) <= 1e-16 * (1.0 + np.abs(w))):
                break
        residual = np.abs(w * np.exp(w) - flat)
    for i in np.flatnonzero(~(residual <= 1e-12 * np.maximum(1.0, np.abs(flat)))):
        w[i] = lambert_w0_bisect(float(flat[i]))
    return w.reshape(arr.shape)


def lambert_w0_bisect(x: float) -> float:
    """W(x) by 200 halvings of a bracket doubled up from [-1, 1]."""
    lo, hi = -1.0, 1.0
    while hi * math.exp(hi) < x:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


def sigmoid(x):
    """The logistic function, through tanh as the LSTM gates take it."""
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def lstm_layer(seq, params):
    """One LSTM layer as one graph node, as first written: the reference
    for `layers.lstm_stack`.

    The forward projects the input block by block and keeps each step's
    gates and states in per-step arrays; the adjoint runs one reverse
    loop over all steps and then forms the input, input-weight and bias
    gradients as products over all steps. A second backward raises
    `GraphError`.
    """
    seq = ad.as_tensor(seq)
    x = seq.value
    if x.ndim != 3:
        raise ShapeError(f"lstm expects (batch, time, features), got {x.shape}")
    batch, steps, features = x.shape
    if features != params.in_features:
        raise ShapeError(
            f"lstm: input features {features} != configured {params.in_features}"
        )
    if steps < 1:
        raise ShapeError("lstm needs at least one time step")
    w_in, bias, w = params.w_input.value, params.bias.value, params.w_recur.value
    hidden = params.hidden
    inputs = {"seq": seq, "w_input": params.w_input, "bias": params.bias, "w_recur": params.w_recur}
    wanted = [name for name, t in inputs.items() if t.requires_grad]
    h = np.zeros((batch, hidden))
    c = np.zeros_like(h)
    out = np.empty((batch, steps, hidden))
    saved = []  # per step: gates, previous cell state, tanh of the cell
    for start, stop in ly._step_blocks(steps):
        projected = x[:, start:stop, :].reshape(batch * (stop - start), features) @ w_in
        projected += bias
        projected = projected.reshape(batch, stop - start, 4 * hidden)
        for t in range(start, stop):
            pre = projected[:, t - start, :] + h @ w
            gate_i = sigmoid(pre[:, :hidden])
            gate_f = sigmoid(pre[:, hidden : 2 * hidden])
            gate_g = np.tanh(pre[:, 2 * hidden : 3 * hidden])
            gate_o = sigmoid(pre[:, 3 * hidden :])
            c_prev, c = c, gate_f * c + gate_i * gate_g
            tanh_c = np.tanh(c)
            h = gate_o * tanh_c
            out[:, t, :] = h
            if wanted:
                saved.append((gate_i, gate_f, gate_g, gate_o, c_prev, tanh_c))

    shared: dict = {}

    def bptt(g, name):
        # backward() hands every live parent the same g, so the reverse
        # loop runs once and each vjp takes its own gradient out once
        if not shared:
            if not saved:
                raise GraphError("lstm node was already backpropagated through")
            gpre = np.empty((batch, steps, 4 * hidden))
            gh_next = gc_next = 0.0
            for t in reversed(range(steps)):
                gate_i, gate_f, gate_g, gate_o, c_prev, tanh_c = saved.pop()
                gh = g[:, t, :] + gh_next
                gc = gc_next + gh * gate_o * (1.0 - tanh_c * tanh_c)
                gpre[:, t, :] = np.concatenate(
                    [
                        gc * gate_g * gate_i * (1.0 - gate_i),
                        gc * c_prev * gate_f * (1.0 - gate_f),
                        gc * gate_i * (1.0 - gate_g * gate_g),
                        gh * tanh_c * gate_o * (1.0 - gate_o),
                    ],
                    axis=1,
                )
                gh_next = gpre[:, t, :] @ w.T
                gc_next = gc * gate_f
            # the projection x @ w_in + bias over all B * T rows
            gpre_rows = gpre.reshape(batch * steps, 4 * hidden)
            products = {
                "seq": lambda: (gpre_rows @ w_in.T).reshape(x.shape),
                "w_input": lambda: x.reshape(batch * steps, features).T @ gpre_rows,
                "bias": lambda: gpre_rows.sum(axis=0),
                # sum over steps of h_{t-1}^T @ gpre_t; h_{-1} = 0 drops t = 0
                "w_recur": lambda: np.tensordot(
                    out[:, :-1, :], gpre[:, 1:, :], axes=([0, 1], [0, 1])
                ),
            }
            shared.update((n, products[n]()) for n in wanted)
        return shared.pop(name)

    def vjp(name):
        return lambda g: bptt(g, name)

    return ad.from_op(out, [(inputs[n], vjp(n)) for n in wanted], "lstm")


def lstm_stack_chain(seq, lstms, masks, rate):
    """A stack of `lstm_layer` nodes, each followed by an `ad.dropout` node."""
    h = seq
    for params, mask in zip(lstms, masks, strict=True):
        h = ad.dropout(lstm_layer(h, params), mask, rate)
    return h


def dropout_drawing(a, rate, rng):
    """Inverted dropout that draws its keep-mask from ``rng`` as it runs.

    The identity at rate 0, where nothing is drawn.
    """
    if rate == 0.0:
        return a
    mask = rng.random(a.value.shape) >= rate
    value = a.value * (mask / (1.0 - rate))
    return ad.from_op(value, [(a, lambda g: g * (mask / (1.0 - rate)))], "dropout")


def network_forward_drawing(net, x, norm_adjacency, rate, rng):
    """``net``'s forward on ``x``, each dropout layer drawing its own mask.

    The recurrent block runs before the geometric block, so its layers
    draw first.
    """
    blocks = []
    if net.recurrent is not None:
        h = x
        for lstm in net.recurrent.lstms:
            h = dropout_drawing(lstm_layer(h, lstm), rate, rng)
        blocks.append(net.recurrent.head(h))
    if net.geometric is not None:
        h = x
        for theta in net.geometric.thetas:
            h = dropout_drawing(ly.gcn_apply(h, norm_adjacency, theta), rate, rng)
        blocks.append(net.geometric.head(net.geometric.lstm(h)))
    total = blocks[0] if len(blocks) == 1 else ad.add(*blocks)
    if net.feedforward is None:
        return total
    if net.skip:
        total = ad.concat([total, x])
    return net.feedforward.forward(total)


def player_step_drawing(state, opt, idle, real_windows, adjs) -> float:
    """One step of ``opt``'s player that draws its noise and masks as it runs."""
    for p in opt.params:
        p.requires_grad = True
    for p in idle.params:
        p.requires_grad = False
    cfg, model, rng = state.cfg, state.model, state.dropout_rng
    noise = state.noise_rng.standard_normal((len(real_windows), cfg.seq_len, cfg.noise_features))
    fake = network_forward_drawing(model.generator, ad.Tensor(noise), adjs, cfg.dropout, rng)
    real = ad.Tensor(real_windows[:, :, np.newaxis])
    real = network_forward_drawing(model.discriminator, real, adjs, cfg.dropout, rng)
    loss = sg.LOSS_FUNCTIONS[cfg.loss_kind](fake, real, cfg.sig_degree)
    loss.backward()
    opt.step()
    return loss.item()


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


def fixture_csv_text() -> str:
    """The bundled fixture's `date,close` CSV text, one close per line."""
    prices = fixture_prices()
    lines = ["date,close"]
    for date, close in zip(prices.timestamps, prices.closes):
        lines.append(f"{date.isoformat()},{float(close)!r}")
    return "\n".join(lines) + "\n"
