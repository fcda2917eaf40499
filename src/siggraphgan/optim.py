"""RMSProp with optional ascent mode and global gradient-norm clipping."""

from __future__ import annotations

import numpy as np

from .autodiff import Parameter
from .errors import NumericError

RHO = 0.9
EPS = 1e-8
GRAD_CLIP_NORM = 5.0


class RmsProp:
    """Root-mean-square propagation over a fixed parameter list.

    Keeps a running mean of squared gradients per parameter:

        v <- rho * v + (1 - rho) * g^2
        p <- p -+ lr * g / (sqrt(v) + eps)

    with rho = 0.9 and eps = 1e-8.

    ``maximize=True`` flips the update into an ascent step. The global
    gradient norm across all parameters is clipped at `GRAD_CLIP_NORM`
    before the update. When ``trust_radius`` is set, every
    update is projected back into a box of that radius centered on the
    parameter values seen at optimizer construction; an ascending player
    constrained this way stays inside a compact family instead of
    diverging. `step` consumes and zeroes the grads.

    ``square_avg`` and ``anchors`` are lists aligned with ``params``.
    """

    def __init__(
        self,
        params: list[Parameter],
        learning_rate: float,
        maximize: bool = False,
        trust_radius: float | None = None,
    ):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.maximize = maximize
        self.trust_radius = trust_radius
        self.square_avg = [np.zeros_like(p.value) for p in self.params]
        self.anchors = (
            [p.value.copy() for p in self.params] if trust_radius is not None else None
        )

    def _gradients(self):
        grads = []
        for p in self.params:
            g = p.grad if p.grad is not None else np.zeros_like(p.value)
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for parameter '{p.name}'")
            grads.append(g)
        return grads

    def step(self):
        grads = self._gradients()
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
        if total > GRAD_CLIP_NORM:
            scale = GRAD_CLIP_NORM / total
            grads = [g * scale for g in grads]
        sign = 1.0 if self.maximize else -1.0
        for i, (p, g, v) in enumerate(zip(self.params, grads, self.square_avg)):
            v *= RHO
            v += (1.0 - RHO) * g * g
            p.value = p.value + sign * self.learning_rate * g / (np.sqrt(v) + EPS)
            if self.trust_radius is not None:
                anchor = self.anchors[i]
                np.clip(
                    p.value,
                    anchor - self.trust_radius,
                    anchor + self.trust_radius,
                    out=p.value,
                )
            p.zero_grad()
