"""Network layers for the generator/discriminator blocks.

Dense and graph-convolution layers are built from the autodiff ops. A
stack of LSTM layers, each followed by its dropout, is one graph node
(`lstm_stack`), input projections and recurrences, whose hand-coded
adjoint backpropagates through time; it runs block by block over the
steps, and can split the stack over the calling thread and one worker
thread with the same values. A single LSTM layer (`lstm_forward`) is the
one-layer stack. The losses are not layers: each signature loss is its
own graph node in `siggan`. All gradients are pinned by the
finite-difference suite. Layers operate on batched inputs shaped (batch,
time, features).
"""

from __future__ import annotations

import math
import queue
import threading

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import GraphError, NumericError, ShapeError


# -- initialization -----------------------------------------------------------


class RandomInit:
    """Parameter source of a fresh model: each value is drawn from ``rng``.

    Layers ask a source for their parameters in construction order with
    ``param(name, shape, draw)``; this source returns ``draw(rng, shape)``,
    so one seed gives the same draws in the same order every time. The
    checkpoint loader's source hands out stored values instead, and
    ``draw`` is never called. Every source keeps the parameters it handed
    out, in order, in ``params``: that list is its network's parameters.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.params: list[Parameter] = []

    def param(self, name: str, shape: tuple, draw) -> Parameter:
        self.params.append(Parameter(draw(self.rng, shape), name))
        return self.params[-1]


def glorot_uniform(rng: np.random.Generator, shape: tuple):
    """Uniform init of a (fan_in, fan_out) matrix on +-sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def zeros(rng: np.random.Generator, shape: tuple):
    """All-zero init; draws nothing from ``rng``."""
    return np.zeros(shape)


def orthogonal_init(rng: np.random.Generator, n: int):
    """(n, n) orthogonal matrix, the QR factor of a seeded Gaussian draw."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))  # fix the sign ambiguity for determinism


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
                [orthogonal_init(rng, hidden) for _ in range(4)], axis=1
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


def _dropped(values, mask, rate: float, start: int):
    """Inverted dropout of one block of a layer's output, steps [start, start + n).

    Without a mask ``values`` is returned as it is. Each element is the
    product `autodiff.dropout` forms over the whole output, so it has the
    same bits; the adjoint scales its gradient block the same way.
    """
    if mask is None:
        return values
    scaled = mask[:, start : start + values.shape[1]] / (1.0 - rate)
    scaled *= values
    return scaled


class _Recurrence:
    """One layer of an LSTM stack node, run one block of steps at a time.

    `forward` takes the layer's (B, n, F) input for the next n steps and
    returns its output for them with the layer's dropout applied, which is
    the next layer's input; blocks come in order. With ``keep`` every
    step's gate activations, cell state, tanh of the cell and output go
    into arrays made here, on the thread that builds the node; `reverse`
    then backpropagates through one block at a time, last block first, and
    writes each step's pre-activation gradient over that step's gates.
    Without ``keep`` only the recurrent state is carried from one block to
    the next. The gates and outputs are kept (B, T, ·), in the row order
    of the weight-gradient products; the cells and their tanh are kept
    (T, B, H), so that each step writes and reads whole rows of them.
    """

    def __init__(self, params: LSTM, mask, rate: float, batch: int, steps: int, keep: bool):
        self.w_in, self.w, self.bias = params.w_input.value, params.w_recur.value, params.bias.value
        self.mask, self.rate, self.keep = mask, rate, keep
        hidden = params.hidden
        self.h = np.zeros((batch, hidden))
        self.c = self.c0 = np.zeros_like(self.h)
        if keep:
            self.gates = np.empty((batch, steps, 4 * hidden))
            self.cells, self.tanh_cells = (np.empty((steps, batch, hidden)) for _ in range(2))
            self.out = np.empty((batch, steps, hidden))
        self.gh = self.gc = 0.0  # what the reverse loop carries to the step before

    def forward(self, x, start: int):
        batch, n, features = x.shape
        hidden = self.h.shape[1]
        projected = x.reshape(batch * n, features) @ self.w_in
        projected += self.bias
        projected = projected.reshape(batch, n, 4 * hidden)
        if self.keep:
            cells, tanh_cells = self.cells[start : start + n], self.tanh_cells[start : start + n]
            out = self.out[:, start : start + n, :]
        else:
            cells, tanh_cells = (np.empty((n, batch, hidden)) for _ in range(2))
            out = np.empty((batch, n, hidden))
        gates = np.empty((batch, 4 * hidden))
        gate_i, gate_f, gate_g, gate_o = (
            gates[:, k * hidden : (k + 1) * hidden] for k in range(4)
        )
        kept = self.gates[:, start : start + n, :] if self.keep else None
        h, c, w = self.h, self.c, self.w
        for k in range(n):
            pre = h @ w
            pre += projected[:, k, :]
            # the sigmoid 0.5 * (tanh(0.5 * x) + 1) of all four gates'
            # pre-activations at once, then the candidate's tanh over its
            # quarter; each element has the bits of one call per gate
            np.multiply(pre, 0.5, out=gates)
            np.tanh(gates, out=gates)
            gates += 1.0
            gates *= 0.5
            np.tanh(pre[:, 2 * hidden : 3 * hidden], out=gate_g)
            c = np.add(gate_f * c, gate_i * gate_g, out=cells[k])
            tanh_c = np.tanh(c, out=tanh_cells[k])
            h = gate_o * tanh_c
            out[:, k, :] = h
            if kept is not None:
                kept[:, k, :] = gates
        self.h, self.c = h, c
        if not math.isfinite(float(np.sum(out))):
            raise NumericError("non-finite values produced by op 'lstm'")
        return _dropped(out, self.mask, self.rate, start)

    def reverse(self, g, start: int, input_grad: bool):
        """Backpropagates one block's gradient of the dropped-out output.

        Returns the gradient of the layer's input for the block's steps if
        ``input_grad``, else None.
        """
        g = _dropped(g, self.mask, self.rate, start)
        batch, n, hidden = g.shape
        gh_next, gc_next, w = self.gh, self.gc, self.w
        # the block's gates as (gate, step, B, H), so that each step reads
        # whole rows of each gate
        block = np.ascontiguousarray(
            self.gates[:, start : start + n, :].reshape(batch, n, 4, hidden).transpose(2, 1, 0, 3)
        )
        for t in reversed(range(start, start + n)):
            gate_i, gate_f, gate_g, gate_o = block[:, t - start]
            c_prev = self.cells[t - 1] if t else self.c0
            tanh_c = self.tanh_cells[t]
            gh = g[:, t - start, :] + gh_next
            gc = gc_next + gh * gate_o * (1.0 - tanh_c * tanh_c)
            grads = [
                gc * gate_g * gate_i * (1.0 - gate_i),
                gc * c_prev * gate_f * (1.0 - gate_f),
                gc * gate_i * (1.0 - gate_g * gate_g),
                gh * tanh_c * gate_o * (1.0 - gate_o),
            ]
            gc_next = gc * gate_f
            self.gates[:, t, :] = np.concatenate(grads, axis=1)
            gh_next = self.gates[:, t, :] @ w.T
        self.gh, self.gc = gh_next, gc_next
        if start == 0:  # the last block: the weight gradients need no more
            self.cells = self.tanh_cells = None
        if not input_grad:
            return None
        rows = self.gates[:, start : start + n, :].reshape(batch * n, 4 * hidden)
        return (rows @ self.w_in.T).reshape(batch, n, self.w_in.shape[0])

    def output(self):
        """The whole (B, T, H) output after dropout: the next layer's input."""
        return _dropped(self.out, self.mask, self.rate, 0)

    def weight_grads(self, below, names) -> dict:
        """The named weight gradients, each one product over all steps.

        Called once the reverse pass is done; ``below()`` gives the
        layer's whole input, which is made only while its product runs.
        The gates are dropped here.
        """
        batch, steps, width = self.gates.shape
        rows = self.gates.reshape(batch * steps, width)

        def input_weight():
            x = below()
            return x.reshape(batch * steps, x.shape[2]).T @ rows

        products = {
            "w_input": input_weight,
            "bias": lambda: rows.sum(axis=0),
            # sum over steps of h_{t-1}^T @ gpre_t; h_{-1} = 0 drops t = 0
            "w_recur": lambda: np.tensordot(
                self.out[:, :-1, :], self.gates[:, 1:, :], axes=([0, 1], [0, 1])
            ),
        }
        grads = {name: products[name]() for name in names}
        self.gates = None
        return grads


class _Failed:
    """A stage's exception, handed to the other stage in place of a result."""

    def __init__(self, exc: BaseException):
        self.exc = exc


def _pipeline(worker, first, second, items, first_on_worker: bool, then=None):
    """``second(item, first(item))`` for each item in order, then ``then()``.

    Without a worker everything runs on the calling thread. With one,
    ``first`` runs on the worker and ``second`` on the caller, or the other
    way round if not ``first_on_worker``; each result is handed over as
    soon as it is made, so the two stages overlap. ``then`` runs on the
    caller before it waits for the worker. An exception on either thread
    is raised to the caller, and the call returns only once the worker is
    idle again, so no thread is left waiting.
    """
    if worker is None:
        for item in items:
            second(item, first(item))
        if then is not None:
            then()
        return
    handoff = queue.SimpleQueue()
    stopped = threading.Event()

    def produce():
        try:
            for item in items:
                if stopped.is_set():
                    return
                handoff.put(first(item))
        except BaseException as exc:  # the consumer raises it
            handoff.put(_Failed(exc))

    def consume():
        try:
            for item in items:
                result = handoff.get()
                if isinstance(result, _Failed):
                    raise result.exc
                second(item, result)
        finally:
            stopped.set()

    on_worker, on_caller = (produce, consume) if first_on_worker else (consume, produce)
    pending = worker.submit(on_worker)
    try:
        on_caller()
        if then is not None:
            then()
    finally:
        pending.result()


def lstm_stack(seq, lstms, masks=None, rate: float = 0.0, worker=None) -> Tensor:
    """A stack of LSTM layers over a (B, T, F) input, each followed by its dropout, as one node.

    ``masks`` holds one boolean keep-mask per layer, or None for a layer
    without dropout (None for all: no dropout); ``rate`` is the dropout
    rate. Returns the last layer's (B, T, H) output after its dropout,
    from zero initial states.

    Each layer projects its input block by block (see `PROJECTION_STEPS`)
    and loops over the block's steps; layer l + 1 runs its block k as soon
    as layer l has made it, so the forward is a wavefront over the blocks.
    The adjoint runs the reverse wavefront: each layer backpropagates
    through time one block at a time, last block first, and hands its
    input-gradient rows of the block to the layer below as soon as they
    are done. Each weight gradient is one product over all steps, and
    rows of a product with two or more rows come out the same whatever the
    other rows are, so every value and gradient has the bits of a chain of
    one-layer nodes and dropout nodes. The graph size does not grow with T
    or with the depth.

    ``worker`` is an executor with one thread (a
    `concurrent.futures.ThreadPoolExecutor`) or None. With a worker and
    two or more layers, the lower half of the stack runs on the worker and
    the upper half on the caller, block by block, in both directions
    (numpy releases the interpreter lock inside its array operations). An
    error on the worker, such as `NumericError`, is raised to the caller.

    With grad, each layer keeps every step's gates, cells and outputs in
    arrays made on the calling thread; the adjoint overwrites the gates
    with their gradients, drops each layer's arrays once its weight
    gradients are formed, forms only the gradients of inputs that require
    grad, and runs once: a second backward raises `GraphError`. When
    nothing it depends on requires grad, the forward keeps only the blocks
    in flight and the last layer's output, and the result is a node
    without parents; its values are the same as in grad mode.
    """
    seq = ad.as_tensor(seq)
    x = seq.value
    if x.ndim != 3:
        raise ShapeError(f"lstm expects (batch, time, features), got {x.shape}")
    batch, steps, features = x.shape
    if features != lstms[0].in_features:
        raise ShapeError(
            f"lstm: input features {features} != configured {lstms[0].in_features}"
        )
    if steps < 1:
        raise ShapeError("lstm needs at least one time step")
    masks = [None] * len(lstms) if masks is None else list(masks)
    if len(masks) != len(lstms):
        raise ShapeError(f"{len(masks)} dropout masks for {len(lstms)} lstm layers")
    # each input's key is (layer, name); the stack's input is (None, "seq")
    inputs = {(None, "seq"): seq}
    for i, params in enumerate(lstms):
        inputs.update({(i, "w_input"): params.w_input, (i, "bias"): params.bias,
                       (i, "w_recur"): params.w_recur})
    wanted = [key for key, t in inputs.items() if t.requires_grad]
    runs = [_Recurrence(p, m, rate, batch, steps, bool(wanted)) for p, m in zip(lstms, masks)]
    blocks = list(_step_blocks(steps))
    # the lower half takes the middle layer of an odd stack: its first layer
    # projects from the input's few features and forms no input gradient
    split = (len(runs) + 1) // 2 if worker is not None and len(runs) > 1 else 0
    value = np.empty((batch, steps, lstms[-1].hidden))

    def lower(block):
        start, stop = block
        h = x[:, start:stop, :]
        for run in runs[:split]:
            h = run.forward(h, start)
        return h

    def upper(block, h):
        start, stop = block
        for run in runs[split:]:
            h = run.forward(h, start)
        value[:, start:stop, :] = h

    worker = worker if split else None
    _pipeline(worker, lower, upper, blocks, first_on_worker=True)
    if not wanted:
        return ad.from_op(value, [], "lstm")

    shared: dict = {}

    def adjoint(g):
        seq_grad = np.empty(x.shape) if (None, "seq") in wanted else None

        def grads_of(layers):
            for i in layers:
                below = (lambda: x) if i == 0 else runs[i - 1].output
                names = [name for layer, name in wanted if layer == i]
                shared.update(((i, n), v) for n, v in runs[i].weight_grads(below, names).items())

        def reverse(layers, block, h):
            for i in layers:
                h = runs[i].reverse(h, block[0], i > 0 or seq_grad is not None)
            return h

        def upper_reverse(block):
            return reverse(range(len(runs) - 1, split - 1, -1), block, g[:, block[0] : block[1], :])

        def lower_reverse(block, h):
            h = reverse(range(split - 1, -1, -1), block, h)
            if seq_grad is not None:
                seq_grad[:, block[0] : block[1], :] = h
            if block[0] == 0:
                grads_of(range(split))

        # a gradient one column wide is a matrix-vector product, whose rows
        # can round differently in a product over fewer rows; such a
        # gradient is formed over all steps at once
        widths = [p.in_features for p in lstms[1:]] + ([features] if seq_grad is not None else [])
        reverse_blocks = blocks[::-1] if min(widths, default=2) > 1 else [(0, steps)]
        _pipeline(worker, upper_reverse, lower_reverse, reverse_blocks, first_on_worker=False,
                  then=lambda: grads_of(range(split, len(runs))))
        if seq_grad is not None:
            shared[None, "seq"] = seq_grad
        runs.clear()

    def vjp(key):
        def take(g):
            # backward() hands every live parent the same g, so the adjoint
            # runs once and each vjp takes its own gradient out once
            if not shared:
                if not runs:
                    raise GraphError("lstm node was already backpropagated through")
                adjoint(g)
            return shared.pop(key)

        return take

    return ad.from_op(value, [(inputs[key], vjp(key)) for key in wanted], "lstm")


def lstm_forward(seq, params: LSTM) -> Tensor:
    """Whole LSTM layer over a (B, T, F) input, as one graph node.

    `lstm_stack` of the one layer, without dropout and without a worker.
    """
    return lstm_stack(seq, [params])


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
