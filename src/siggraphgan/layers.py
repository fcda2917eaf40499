"""Network layers for the generator/discriminator blocks.

Everything is built from the autodiff primitives, except the LSTM
recurrence: one op per layer whose hand-coded adjoint backpropagates
through time. All gradients are pinned by the finite-difference suite.
Layers operate on batched inputs shaped (batch, time, features).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import GraphError, ShapeError


# -- initialization -----------------------------------------------------------


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None):
    """Uniform init on +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out))

def orthogonal_init(rng: np.random.Generator, rows: int, cols: int):
    """QR-based orthogonal-ish matrix from a seeded Gaussian draw."""
    gauss = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))  # fix the sign ambiguity for determinism
    return q[:rows, :cols] if q.shape[0] >= rows else q.T[:rows, :cols]


# -- dense --------------------------------------------------------------------


def dense_forward(x, weight, bias) -> Tensor:
    """Affine map y = x @ W + b, with b broadcast over leading axes."""
    x = ad.as_tensor(x)
    if x.value.shape[-1] != weight.value.shape[0]:
        raise ShapeError(
            f"dense: input features {x.value.shape[-1]} != weight rows "
            f"{weight.value.shape[0]}"
        )
    return ad.add(ad.matmul(x, weight), bias)


class Dense:
    """Fully connected layer with named parameters."""

    def __init__(self, rng, in_features: int, out_features: int, name: str):
        self.weight = Parameter(
            glorot_uniform(rng, in_features, out_features), f"{name}.weight"
        )
        self.bias = Parameter(np.zeros(out_features), f"{name}.bias")

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

    def __init__(self, rng, in_features: int, hidden: int, name: str):
        self.in_features = in_features
        self.hidden = hidden
        self.w_input = Parameter(
            glorot_uniform(rng, in_features, 4 * hidden), f"{name}.w_input"
        )
        recur = np.concatenate(
            [orthogonal_init(rng, hidden, hidden) for _ in range(4)], axis=1
        )
        self.w_recur = Parameter(recur, f"{name}.w_recur")
        bias = np.zeros(4 * hidden)
        bias[hidden : 2 * hidden] = 1.0
        self.bias = Parameter(bias, f"{name}.bias")

    def parameters(self):
        return [self.w_input, self.w_recur, self.bias]

    def __call__(self, seq) -> Tensor:
        return lstm_forward(seq, self)


def _sigmoid(x):
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def _lstm_sequence(gates_in: Tensor, w_recur, hidden: int) -> Tensor:
    """Whole LSTM recurrence over a (B, T, 4H) projected input.

    Returns the (B, T, H) hidden sequence from zero initial states. The
    whole layer is one graph node: the forward loops over time steps and
    keeps each step's gate activations, and the adjoint runs
    backpropagation through time in one reverse loop, so the graph size
    does not grow with T and the recurrent-weight gradient is one product
    over all steps.
    """
    x = gates_in.value
    w = w_recur.value
    h = np.zeros((x.shape[0], hidden))
    c = np.zeros_like(h)
    saved, hs = [], []  # per step: gates, previous cell state, tanh of the cell
    for t in range(x.shape[1]):
        pre = x[:, t, :] + h @ w
        gate_i = _sigmoid(pre[:, :hidden])
        gate_f = _sigmoid(pre[:, hidden : 2 * hidden])
        gate_g = np.tanh(pre[:, 2 * hidden : 3 * hidden])
        gate_o = _sigmoid(pre[:, 3 * hidden :])
        c_prev, c = c, gate_f * c + gate_i * gate_g
        tanh_c = np.tanh(c)
        h = gate_o * tanh_c
        saved.append((gate_i, gate_f, gate_g, gate_o, c_prev, tanh_c))
        hs.append(h)
    out = np.stack(hs, axis=1)

    shared: dict = {}

    def bptt(g):
        # backward() hands both parents the same g, so the reverse loop
        # runs once and serves both vjps
        if not shared:
            gpre = np.empty_like(x)
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
            shared["gates_in"] = gpre
            # sum over steps of h_{t-1}^T @ gpre_t; h_{-1} = 0 drops t = 0
            shared["w_recur"] = np.tensordot(
                out[:, :-1, :], gpre[:, 1:, :], axes=([0, 1], [0, 1])
            )
        return shared

    return ad.from_op(
        out,
        [
            (gates_in, lambda g: bptt(g)["gates_in"]),
            (w_recur, lambda g: bptt(g)["w_recur"]),
        ],
        "lstm",
    )


def lstm_forward(seq, params: LSTM) -> Tensor:
    """Run an LSTM and return the full hidden sequence (batch, time, hidden).

    Initial hidden and cell states are zero. The input projection is one
    matmul over the whole sequence; the recurrence is the single graph node
    of `_lstm_sequence`, whose adjoint does backpropagation through time.
    """
    seq = ad.as_tensor(seq)
    if seq.value.ndim != 3:
        raise ShapeError(f"lstm expects (batch, time, features), got {seq.value.shape}")
    batch, steps, features = seq.value.shape
    if features != params.in_features:
        raise ShapeError(
            f"lstm: input features {features} != configured {params.in_features}"
        )
    if steps < 1:
        raise ShapeError("lstm needs at least one time step")
    hidden = params.hidden

    gates_in = ad.add(
        ad.matmul(ad.reshape(seq, (batch * steps, features)), params.w_input),
        params.bias,
    )
    gates_in = ad.reshape(gates_in, (batch, steps, 4 * hidden))
    return _lstm_sequence(gates_in, params.w_recur, hidden)


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


# -- losses -------------------------------------------------------------------


def mse(a, b) -> Tensor:
    """Mean squared difference over all elements."""
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mse shapes differ: {a.value.shape} vs {b.value.shape}")
    d = ad.sub(a, b)
    return ad.tmean(ad.mul(d, d))
