"""Minimal reverse-mode automatic differentiation over numpy arrays.

A `Tensor` wraps a float64 ndarray together with the closures needed to
push gradients back to its parents. Graphs are built implicitly by the op
functions below and discarded after `backward`. Every op validates that
its output is finite and raises `NumericError` otherwise.

Only the ops the networks run are implemented: addition, (batched)
matmul and the fused affine map, concatenation, tanh, PReLU and dropout.
Gradients for broadcast operands are reduced back to the operand shape.
No op draws random numbers: dropout applies a boolean keep-mask that its
caller drew, so a graph's values do not depend on the order in which
forwards run. Larger pieces are single nodes with hand-written adjoints,
made with `from_op`: each stack of LSTM layers with their dropout
(`layers`), and the signature losses, whose lead-lag paths, signatures
and comparison are three nodes (`siggan`).
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

    def item(self) -> float:
        return float(self.value)

    def backward(self):
        """Accumulate gradients of this scalar into every reachable leaf.

        Intermediate nodes come out of `_toposort` after all their
        consumers, so each one's gradient is final when it is reached; it
        is pushed to the parents and then freed. Only leaves (tensors
        without parents, such as `Parameter`) keep ``.grad`` afterwards.
        """
        if self.value.size != 1:
            raise ShapeError("backward() requires a scalar output")
        order = _toposort(self)
        self.grad = np.ones_like(self.value)
        for node in order:
            g = node.grad
            if node._parents:
                node.grad = None
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


def _matmul_parents(a: Tensor, b: Tensor):
    """Checked (parent, vjp) pairs of the product ``a.value @ b.value``."""
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ShapeError("matmul operands must have ndim >= 2")
    if a.value.shape[-1] != b.value.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.value.shape} @ {b.value.shape}"
        )

    def grad_a(g):
        return _unbroadcast(g @ np.swapaxes(b.value, -1, -2), a.value.shape)

    def grad_b(g):
        return _unbroadcast(np.swapaxes(a.value, -1, -2) @ g, b.value.shape)

    return [(a, grad_a), (b, grad_b)]


def matmul(a, b) -> Tensor:
    """Matrix product; supports batched operands via numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    parents = _matmul_parents(a, b)
    return from_op(a.value @ b.value, parents, "matmul")


def affine(x, w, b) -> Tensor:
    """x @ w + b as one node, with b broadcast over the leading axes.

    The bias is added in place to the product, so no second array of the
    output's size is made; values and gradients are those of
    ``add(matmul(x, w), b)``.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    parents = _matmul_parents(x, w)
    value = x.value @ w.value
    value += b.value
    return from_op(value, parents + [(b, lambda g: _unbroadcast(g, b.value.shape))], "affine")


# -- concatenation and nonlinearities ---------------------------------------


def concat(tensors) -> Tensor:
    """Concatenation along the last axis."""
    tensors = [as_tensor(t) for t in tensors]
    value = np.concatenate([t.value for t in tensors], axis=-1)
    bounds = np.cumsum([0] + [t.value.shape[-1] for t in tensors])

    def make_vjp(i):
        return lambda g: g[..., bounds[i] : bounds[i + 1]]

    return from_op(value, [(t, make_vjp(i)) for i, t in enumerate(tensors)], "concat")


def tanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.value)
    return from_op(y, [(a, lambda g: g * (1.0 - y * y))], "tanh")


def prelu(a) -> Tensor:
    """Elementwise max(0, x) + 0.25 * min(0, x)."""
    a = as_tensor(a)
    slope = np.where(a.value > 0.0, 1.0, 0.25)
    return from_op(a.value * slope, [(a, lambda g: g * slope)], "prelu")


def dropout(a, mask: np.ndarray | None, rate: float) -> Tensor:
    """Inverted dropout: zero where ``mask`` is False, scale the rest by 1/(1 - rate).

    ``mask`` is a boolean keep-mask of ``a``'s shape that the caller drew
    before the forward ran. Without a mask it is the identity and returns
    ``a`` itself: no copy and no graph node.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")
    a = as_tensor(a)
    if mask is None:
        return a
    # the node keeps the boolean mask, an eighth of the scaled mask's
    # bytes, and its vjp forms the same scaled mask again
    value = a.value * (mask / (1.0 - rate))
    return from_op(value, [(a, lambda g: g * (mask / (1.0 - rate)))], "dropout")
