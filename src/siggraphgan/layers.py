"""Network layers for the generator/discriminator blocks.

Dense and graph-convolution layers are built from the autodiff ops; the
LSTM is one op per layer, input projection and recurrence, whose
hand-coded adjoint backpropagates through time. The losses are not
layers: each signature loss is its own graph node in `siggan`. All
gradients are pinned by the finite-difference suite. Layers operate on
batched inputs shaped (batch, time, features).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import GraphError, ShapeError


# -- initialization -----------------------------------------------------------


class RandomInit:
    """Parameter source of a fresh model: each value is drawn from ``rng``.

    Layers ask a source for their parameters in construction order with
    ``param(name, shape, draw)``; this source returns ``draw(rng, shape)``,
    so one seed gives the same draws in the same order every time. The
    checkpoint loader's source hands out stored values instead, and
    ``draw`` is never called.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def param(self, name: str, shape: tuple, draw) -> Parameter:
        return Parameter(draw(self.rng, shape), name)


def glorot_uniform(rng: np.random.Generator, shape: tuple):
    """Uniform init of a (fan_in, fan_out) matrix on +-sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def zeros(rng: np.random.Generator, shape: tuple):
    """All-zero init; draws nothing from ``rng``."""
    return np.zeros(shape)


def orthogonal_init(rng: np.random.Generator, rows: int, cols: int):
    """QR-based orthogonal-ish matrix from a seeded Gaussian draw."""
    gauss = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))  # fix the sign ambiguity for determinism
    return q[:rows, :cols] if q.shape[0] >= rows else q.T[:rows, :cols]


# -- dense --------------------------------------------------------------------


def dense_forward(x, weight, bias) -> Tensor:
    """Affine map y = x @ W + b, with b broadcast over leading axes.

    One `ad.affine` node: the bias is added in place to the product.
    """
    x = ad.as_tensor(x)
    if x.value.shape[-1] != weight.value.shape[0]:
        raise ShapeError(
            f"dense: input features {x.value.shape[-1]} != weight rows "
            f"{weight.value.shape[0]}"
        )
    return ad.affine(x, weight, bias)


class Dense:
    """Fully connected layer with named parameters."""

    def __init__(self, init, in_features: int, out_features: int, name: str):
        self.weight = init.param(f"{name}.weight", (in_features, out_features), glorot_uniform)
        self.bias = init.param(f"{name}.bias", (out_features,), zeros)

    def __call__(self, x) -> Tensor:
        return dense_forward(x, self.weight, self.bias)

    def parameters(self):
        return [self.weight, self.bias]


# -- LSTM ---------------------------------------------------------------------

# Gate order in the fused weight matrices: input, forget, candidate, output.


class LSTM:
    """Single-direction LSTM over (batch, time, features) sequences.

    Standard forget-gate formulation, no peepholes. The forget-gate bias
    starts at 1 so early training does not wash out the cell state; the
    recurrent matrix starts orthogonal per gate.
    """

    def __init__(self, init, in_features: int, hidden: int, name: str):
        self.in_features = in_features
        self.hidden = hidden
        self.w_input = init.param(f"{name}.w_input", (in_features, 4 * hidden), glorot_uniform)

        def per_gate_orthogonal(rng, shape):
            return np.concatenate(
                [orthogonal_init(rng, hidden, hidden) for _ in range(4)], axis=1
            )

        def forget_bias_one(rng, shape):
            bias = np.zeros(shape)
            bias[hidden : 2 * hidden] = 1.0
            return bias

        self.w_recur = init.param(f"{name}.w_recur", (hidden, 4 * hidden), per_gate_orthogonal)
        self.bias = init.param(f"{name}.bias", (4 * hidden,), forget_bias_one)

    def parameters(self):
        return [self.w_input, self.w_recur, self.bias]

    def __call__(self, seq) -> Tensor:
        return lstm_forward(seq, self)


def _sigmoid(x):
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


# Time steps whose input projection is computed in one matrix product. The
# projected input is then held for one block of steps, (B * steps, 4H), not
# for the whole sequence. Each product has at least two rows, so it never
# takes numpy's matrix-vector path, which rounds differently; the rows come
# out the same as in one product over all steps.
PROJECTION_STEPS = 10


def _step_blocks(steps: int):
    """[start, stop) blocks of `PROJECTION_STEPS` steps covering ``steps``.

    A remainder of one step joins the last block, so every block of a
    sequence of two or more steps has at least two.
    """
    starts = list(range(0, max(steps - 1, 1), PROJECTION_STEPS))
    return zip(starts, starts[1:] + [steps])


def _lstm_sequence(seq: Tensor, params: LSTM) -> Tensor:
    """Whole LSTM layer over a (B, T, F) input, as one graph node.

    Returns the (B, T, H) hidden sequence from zero initial states. The
    forward projects the input block by block (see `PROJECTION_STEPS`),
    loops over time steps and keeps each step's gate activations; the
    adjoint runs backpropagation through time in one reverse loop and then
    takes the input, input-weight and bias gradients as products over all
    steps. So the graph size does not grow with T.

    When nothing it depends on requires grad, the forward keeps no gate
    activations and the result is a node without parents; its values are
    the same as in grad mode.
    """
    x = seq.value
    w_in, bias, w = params.w_input.value, params.bias.value, params.w_recur.value
    hidden = params.hidden
    batch, steps, features = x.shape
    keep = any(t.requires_grad for t in (seq, params.w_input, params.bias, params.w_recur))
    h = np.zeros((batch, hidden))
    c = np.zeros_like(h)
    out = np.empty((batch, steps, hidden))
    saved = []  # per step: gates, previous cell state, tanh of the cell
    for start, stop in _step_blocks(steps):
        projected = x[:, start:stop, :].reshape(batch * (stop - start), features) @ w_in
        projected += bias
        projected = projected.reshape(batch, stop - start, 4 * hidden)
        for t in range(start, stop):
            pre = projected[:, t - start, :] + h @ w
            gate_i = _sigmoid(pre[:, :hidden])
            gate_f = _sigmoid(pre[:, hidden : 2 * hidden])
            gate_g = np.tanh(pre[:, 2 * hidden : 3 * hidden])
            gate_o = _sigmoid(pre[:, 3 * hidden :])
            c_prev, c = c, gate_f * c + gate_i * gate_g
            tanh_c = np.tanh(c)
            h = gate_o * tanh_c
            out[:, t, :] = h
            if keep:
                saved.append((gate_i, gate_f, gate_g, gate_o, c_prev, tanh_c))

    shared: dict = {}

    def bptt(g):
        # backward() hands every parent the same g, so the reverse loop
        # runs once and serves all four vjps
        if not shared:
            gpre = np.empty((batch, steps, 4 * hidden))
            gh_next = gc_next = 0.0
            for t in reversed(range(len(saved))):
                gate_i, gate_f, gate_g, gate_o, c_prev, tanh_c = saved[t]
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
            shared["seq"] = (gpre_rows @ w_in.T).reshape(x.shape)
            shared["w_input"] = x.reshape(batch * steps, features).T @ gpre_rows
            shared["bias"] = gpre_rows.sum(axis=0)
            # sum over steps of h_{t-1}^T @ gpre_t; h_{-1} = 0 drops t = 0
            shared["w_recur"] = np.tensordot(
                out[:, :-1, :], gpre[:, 1:, :], axes=([0, 1], [0, 1])
            )
        return shared

    return ad.from_op(
        out,
        [
            (seq, lambda g: bptt(g)["seq"]),
            (params.w_input, lambda g: bptt(g)["w_input"]),
            (params.bias, lambda g: bptt(g)["bias"]),
            (params.w_recur, lambda g: bptt(g)["w_recur"]),
        ],
        "lstm",
    )


def lstm_forward(seq, params: LSTM) -> Tensor:
    """Run an LSTM and return the full hidden sequence (batch, time, hidden).

    Initial hidden and cell states are zero. Input projection and
    recurrence are the single graph node of `_lstm_sequence`, whose adjoint
    does backpropagation through time. With nothing requiring grad, the
    node keeps no state for a backward pass.
    """
    seq = ad.as_tensor(seq)
    if seq.value.ndim != 3:
        raise ShapeError(f"lstm expects (batch, time, features), got {seq.value.shape}")
    _, steps, features = seq.value.shape
    if features != params.in_features:
        raise ShapeError(
            f"lstm: input features {features} != configured {params.in_features}"
        )
    if steps < 1:
        raise ShapeError("lstm needs at least one time step")
    return _lstm_sequence(seq, params)


# -- graph convolution --------------------------------------------------------


def normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Self-loop-augmented symmetric normalization D^-1/2 (A + I) D^-1/2.

    Accepts one (n, n) adjacency or a stack (..., n, n); each matrix is
    normalized on its own.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise GraphError(f"adjacency must be square, got shape {a.shape}")
    if np.any(np.diagonal(a, axis1=-2, axis2=-1) != 0.0):
        raise GraphError("adjacency diagonal must be zero before self-loops")
    a_tilde = a + np.eye(a.shape[-1])
    inv_sqrt_deg = 1.0 / np.sqrt(a_tilde.sum(axis=-1))
    return a_tilde * (inv_sqrt_deg[..., :, np.newaxis] * inv_sqrt_deg[..., np.newaxis, :])


def gcn_apply(h, norm_adjacency, theta) -> Tensor:
    """One graph-convolution layer given a pre-normalized adjacency.

    ``norm_adjacency`` is a plain array, (n, n) or batched (batch, n, n).
    """
    h = ad.as_tensor(h)
    mixed = ad.matmul(Tensor(norm_adjacency), h)
    return ad.tanh(ad.matmul(mixed, theta))
