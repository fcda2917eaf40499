"""Minimal reverse-mode automatic differentiation over numpy arrays.

A `Tensor` wraps a float64 ndarray together with the closures needed to
push gradients back to its parents. Graphs are built implicitly by the op
functions below and discarded after `backward`. Every op validates that
its output is finite and raises `NumericError` otherwise.

Only what the model needs is implemented: elementwise arithmetic,
(batched) matmul, shape plumbing, a few nonlinearities, dropout and
softmax. Gradients for broadcast operands are reduced back to the operand
shape.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError, ShapeError


class Tensor:
    """Node in the computation graph: a value plus backward plumbing."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_op")

    def __init__(self, value, requires_grad: bool = False, op: str = "tensor"):
        v = np.asarray(value, dtype=np.float64)
        # a single reduction is much cheaper than np.isfinite(v).all() and
        # still trips on any NaN/Inf element
        if not math.isfinite(float(np.sum(v))):
            raise NumericError(f"non-finite values produced by op '{op}'")
        self.value = v
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._op = op

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def backward(self):
        """Accumulate gradients of this scalar into every reachable tensor."""
        if self.value.size != 1:
            raise ShapeError("backward() requires a scalar output")
        order = _toposort(self)
        self.grad = np.ones_like(self.value)
        for node in order:
            g = node.grad
            if g is None:
                continue
            for parent, vjp in node._parents:
                contrib = vjp(g)
                if contrib.shape != parent.value.shape:
                    raise ShapeError(
                        f"vjp of '{node._op}' produced shape {contrib.shape} "
                        f"for parent of shape {parent.value.shape}"
                    )
                if parent.grad is None:
                    parent.grad = contrib.copy()
                else:
                    parent.grad = parent.grad + contrib

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, op={self._op!r})"


class Parameter(Tensor):
    """Named leaf tensor updated by an optimizer; gradients accumulate."""

    __slots__ = ("name",)

    def __init__(self, value, name: str):
        super().__init__(value, requires_grad=True, op=f"parameter:{name}")
        self.name = name

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def _toposort(root: Tensor):
    """Reverse-topological order of the graph reachable from ``root``."""
    order = []
    seen = set()
    stack = [(root, iter(root._parents))]
    seen.add(id(root))
    while stack:
        node, parents = stack[-1]
        advanced = False
        for parent, _ in parents:
            if id(parent) not in seen and parent._parents:
                seen.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    order.reverse()
    return order


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def from_op(value, parents_and_vjps, op: str) -> Tensor:
    """Create a graph node; use this to define custom ops externally."""
    live = [(p, vjp) for p, vjp in parents_and_vjps if p.requires_grad]
    out = Tensor(value, requires_grad=bool(live), op=op)
    out._parents = tuple(live)
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- arithmetic -------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return from_op(
        a.value + b.value,
        [
            (a, lambda g: _unbroadcast(g, a.value.shape)),
            (b, lambda g: _unbroadcast(g, b.value.shape)),
        ],
        "add",
    )


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return from_op(
        a.value - b.value,
        [
            (a, lambda g: _unbroadcast(g, a.value.shape)),
            (b, lambda g: _unbroadcast(-g, b.value.shape)),
        ],
        "sub",
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return from_op(
        a.value * b.value,
        [
            (a, lambda g: _unbroadcast(g * b.value, a.value.shape)),
            (b, lambda g: _unbroadcast(g * a.value, b.value.shape)),
        ],
        "mul",
    )


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if np.any(b.value == 0.0):
        raise NumericError("division by zero in op 'div'")
    inv = 1.0 / b.value
    return from_op(
        a.value * inv,
        [
            (a, lambda g: _unbroadcast(g * inv, a.value.shape)),
            (b, lambda g: _unbroadcast(-g * a.value * inv * inv, b.value.shape)),
        ],
        "div",
    )


def neg(a) -> Tensor:
    a = as_tensor(a)
    return from_op(-a.value, [(a, lambda g: -g)], "neg")


def matmul(a, b) -> Tensor:
    """Matrix product; supports batched operands via numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ShapeError("matmul operands must have ndim >= 2")
    if a.value.shape[-1] != b.value.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.value.shape} @ {b.value.shape}"
        )
    value = a.value @ b.value

    def grad_a(g):
        return _unbroadcast(g @ np.swapaxes(b.value, -1, -2), a.value.shape)

    def grad_b(g):
        return _unbroadcast(np.swapaxes(a.value, -1, -2) @ g, b.value.shape)

    return from_op(value, [(a, grad_a), (b, grad_b)], "matmul")


def power(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    value = a.value**exponent
    return from_op(
        value,
        [(a, lambda g: g * exponent * a.value ** (exponent - 1.0))],
        "power",
    )


# -- reductions and shape plumbing ------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    value = a.value.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, a.value.shape).copy()
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, a.value.shape).copy()

    return from_op(value, [(a, vjp)], "sum")


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    count = a.value.size if axis is None else a.value.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return from_op(
        a.value.reshape(shape), [(a, lambda g: g.reshape(a.value.shape))], "reshape"
    )


def getitem(a, key) -> Tensor:
    """Basic slicing only; every element may be selected at most once."""
    a = as_tensor(a)

    def vjp(g):
        out = np.zeros_like(a.value)
        out[key] = g
        return out

    return from_op(a.value[key], [(a, vjp)], "getitem")


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    value = np.concatenate([t.value for t in tensors], axis=axis)
    sizes = [t.value.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def make_vjp(i):
        def vjp(g):
            index = [slice(None)] * g.ndim
            index[axis] = slice(bounds[i], bounds[i + 1])
            return g[tuple(index)]

        return vjp

    return from_op(value, [(t, make_vjp(i)) for i, t in enumerate(tensors)], "concat")


def cumsum(a, axis: int) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        return np.flip(np.cumsum(np.flip(g, axis=axis), axis=axis), axis=axis)

    return from_op(np.cumsum(a.value, axis=axis), [(a, vjp)], "cumsum")


# -- nonlinearities ----------------------------------------------------------


def tanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.value)
    return from_op(y, [(a, lambda g: g * (1.0 - y * y))], "tanh")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    # overflow-free identity: sigma(x) = (tanh(x/2) + 1) / 2
    y = 0.5 * (np.tanh(0.5 * a.value) + 1.0)
    return from_op(y, [(a, lambda g: g * y * (1.0 - y))], "sigmoid")


def exp(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):  # overflow is caught by the finite check
        y = np.exp(a.value)
    return from_op(y, [(a, lambda g: g * y)], "exp")


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.value <= 0.0):
        raise NumericError("log of a nonpositive value")
    return from_op(np.log(a.value), [(a, lambda g: g / a.value)], "log")


def prelu(a, alpha: float = 0.25) -> Tensor:
    """Elementwise max(0, x) + alpha * min(0, x)."""
    a = as_tensor(a)
    slope = np.where(a.value > 0.0, 1.0, alpha)
    return from_op(a.value * slope, [(a, lambda g: g * slope)], "prelu")


def dropout(a, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    Identity in inference mode or at rate 0.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")
    a = as_tensor(a)
    if not training or rate == 0.0:
        return from_op(a.value.copy(), [(a, lambda g: g)], "dropout")
    if rng is None:
        raise ConfigError("training-mode dropout needs an rng")
    keep = (rng.random(a.value.shape) >= rate) / (1.0 - rate)
    return from_op(a.value * keep, [(a, lambda g: g * keep)], "dropout")


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    a = as_tensor(a)
    shifted = a.value - a.value.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (g - inner) * y

    return from_op(y, [(a, vjp)], "softmax")


def log_softmax(a, axis: int = -1) -> Tensor:
    """log(softmax(a)); stays finite even where softmax underflows to 0."""
    a = as_tensor(a)
    shifted = a.value - a.value.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - log_norm
    p = np.exp(y)

    def vjp(g):
        return g - p * g.sum(axis=axis, keepdims=True)

    return from_op(y, [(a, vjp)], "log_softmax")
