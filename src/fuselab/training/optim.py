"""Adaptive-moment optimizer over parameter tensors, and plain SGD.

Optimizers only ever touch the tensors they were constructed with, which
is what makes the discriminator/generator parameter partition directly
assertable during minimax training. ``step(grads)`` takes one gradient
per parameter, in ``params`` order, as ``loss.backward(opt.params)``
returns them. Both only descend: a caller that ascends an objective
backpropagates its negation.

Adam keeps its two moments in flat float64 buffers, one segment per
parameter in ``params`` order, next to a flat gradient buffer and one
scratch buffer of the same size. A step copies each gradient into its
segment and runs Adam's arithmetic in place once over the whole
buffers, in the order and rounding of the per-tensor formula, and
allocates no array. The gradient buffer ends up holding lr times the
update, which is subtracted from each parameter's own ``data``: a
parameter shares no memory with the optimizer, so loading a model may
rebind ``data``. Every parameter needs a gradient: a None one (a
parameter the loss does not reach) raises ContractError before any
state changes.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..exceptions import ConfigError, ContractError
from ..numcore import Tensor


class SGD:
    # kept only because the benchmark harness patches SGD.step; nothing constructs it
    def __init__(self, params: Sequence[Tensor], lr: float = 1e-2):
        self.params = list(params)
        self.lr = lr

    def step(self, grads: Sequence[Optional[np.ndarray]]) -> None:
        for p, g in zip(self.params, grads, strict=True):
            if g is not None:
                p.data -= self.lr * g


class Adam:
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        ends = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        size = ends[-1]
        self._m, self._v = np.zeros(size), np.zeros(size)
        # the gathered gradient, which becomes the update, and a scratch buffer
        self._g, self._s = np.empty(size), np.empty(size)
        self._views = [self._g[lo:hi].reshape(p.data.shape)
                       for lo, hi, p in zip(ends[:-1], ends[1:], self.params)]
        self._t = 0

    def step(self, grads: Sequence[np.ndarray]) -> None:
        for i, (p, g) in enumerate(zip(self.params, grads, strict=True)):
            if g is None:
                raise ContractError(f"Adam.step: no gradient for parameter {i} "
                                    f"({p.name or 'unnamed'}, shape {p.shape})")
        for g, view in zip(grads, self._views):
            view[...] = g
        self._t += 1
        b1t = 1.0 - self.BETA1 ** self._t
        b2t = 1.0 - self.BETA2 ** self._t
        m, v, u, s = self._m, self._v, self._g, self._s
        m *= self.BETA1
        m += np.multiply(u, 1.0 - self.BETA1, out=s)
        v *= self.BETA2
        np.multiply(u, u, out=s)
        s *= 1.0 - self.BETA2
        v += s
        np.divide(v, b2t, out=s)
        np.sqrt(s, out=s)
        s += self.EPS
        np.divide(m, b1t, out=u)
        u /= s
        u *= self.lr
        for p, view in zip(self.params, self._views):
            p.data -= view

